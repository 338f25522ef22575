"""Seeded input generators of the benchmark.

The benchmark owns its generator so that no edit to the test suite can move
a workload. Each workload's problem data is fixed by the constants in
``workloads.py``; the run's ``--seed`` changes only what a correct answer must
not depend on:

* the numeric ids of demand points, stations and charger types, through a
  strictly increasing relabelling (every sorted order, and so every sum and
  every tie-break, is unchanged);
* the stop, block and station names of the CSV inputs, through a renaming
  that keeps the lexicographic order of stops;
* the order of CSV rows inside a block and the order of solves in a pass.

So every seed does the same work and has the same answers, and one recorded
reference table serves every seed.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace

from chargeplan.geo import travel_minutes
from chargeplan.model import (
    CandidateStation,
    ChargerType,
    DemandPoint,
    Instance,
    make_instance,
)

BOX = (41.65, 42.05, -87.95, -87.55)  # lat/lon bounds, roughly one metro area
TRAVEL_COST = 2.67
WAIT_COST = 3.46
SPEED_KMH = 30.0


def _point(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(BOX[0], BOX[1]), rng.uniform(BOX[2], BOX[3])


def sparse_instance(gen_seed: int, n_demand: int, n_station: int, cap_range: tuple[int, int]) -> Instance:
    """Small instance with a travel cutoff of 25-45 minutes; a demand point
    with no station inside the cutoff keeps its closest one."""
    rng = random.Random(gen_seed)
    kinds = []
    for k in range(2):
        kinds.append(
            ChargerType(
                id=k,
                power_kw=100.0 * (k + 1),
                unit_cost_rate=rng.uniform(0.05, 0.25) * (k + 1) ** 1.5,
                recharge_time_min=rng.uniform(20.0, 90.0) / (k + 1),
            )
        )
    demands = [
        DemandPoint(id=i, lat=lat, lon=lon, rate=rng.uniform(0.01, 0.06))
        for i, (lat, lon) in ((i, _point(rng)) for i in range(n_demand))
    ]
    stations = [
        CandidateStation(
            id=j, lat=lat, lon=lon, fixed_cost_rate=rng.uniform(0.3, 2.0),
            max_chargers={k.id: rng.randint(*cap_range) for k in kinds},
        )
        for j, (lat, lon) in ((j, _point(rng)) for j in range(n_station))
    ]
    cutoff = rng.uniform(25.0, 45.0)
    travel = {}
    for d in demands:
        times = {s.id: travel_minutes(d.lat, d.lon, s.lat, s.lon, SPEED_KMH) for s in stations}
        keep = [j for j, t in times.items() if t <= cutoff] or [min(times, key=times.get)]
        for j in keep:
            travel[(d.id, j)] = times[j]
    return make_instance(demands, stations, kinds, travel_cost_rate=TRAVEL_COST,
                         wait_cost_rate=WAIT_COST, travel=travel, speed_kmh=SPEED_KMH)


def prefix_instance(instance: Instance, n_demand: int) -> Instance:
    """The sub-instance of the first ``n_demand`` demand points by id."""
    keep = {d.id for d in sorted(instance.demand_points, key=lambda d: d.id)[:n_demand]}
    return make_instance(
        [replace(d, reachable=()) for d in instance.demand_points if d.id in keep],
        [replace(s, served=()) for s in instance.stations],
        instance.charger_types,
        travel_cost_rate=instance.travel_cost_rate,
        wait_cost_rate=instance.wait_cost_rate,
        travel={(i, j): t for (i, j), t in instance.travel.items() if i in keep},
        speed_kmh=instance.speed_kmh,
    )


def dense_instance(gen_seed: int, n_demand: int, n_station: int, rate_range: tuple[float, float], cap: int) -> Instance:
    """High-traffic instance without a travel cutoff: every demand point
    reaches every station, and loads need hundreds of chargers per pair."""
    rng = random.Random(gen_seed)
    kinds = (
        ChargerType(id=0, power_kw=125.0, unit_cost_rate=rng.uniform(0.08, 0.15),
                    recharge_time_min=rng.uniform(50.0, 70.0)),
        ChargerType(id=1, power_kw=450.0, unit_cost_rate=rng.uniform(0.3, 0.6),
                    recharge_time_min=rng.uniform(12.0, 20.0)),
    )
    demands = [
        DemandPoint(id=i, lat=lat, lon=lon, rate=rng.uniform(*rate_range))
        for i, (lat, lon) in ((i, _point(rng)) for i in range(n_demand))
    ]
    stations = [
        CandidateStation(id=j, lat=lat, lon=lon, fixed_cost_rate=rng.uniform(0.5, 2.0),
                         max_chargers={0: cap, 1: cap})
        for j, (lat, lon) in ((j, _point(rng)) for j in range(n_station))
    ]
    return make_instance(demands, stations, kinds, travel_cost_rate=TRAVEL_COST,
                         wait_cost_rate=WAIT_COST, speed_kmh=SPEED_KMH)


# ---------------------------------------------------------------------------
# relabelling


def _increasing_map(ids, rng: random.Random) -> dict[int, int]:
    ordered = sorted(ids)
    fresh = sorted(rng.sample(range(10 * len(ordered) + 1000), len(ordered)))
    return dict(zip(ordered, fresh))


@dataclass(frozen=True)
class Relabel:
    """Strictly increasing id maps for demands, stations and charger types."""

    demand: dict[int, int]
    station: dict[int, int]
    ctype: dict[int, int]

    @classmethod
    def draw(cls, instance: Instance, rng: random.Random) -> "Relabel":
        return cls(
            demand=_increasing_map([d.id for d in instance.demand_points], rng),
            station=_increasing_map([s.id for s in instance.stations], rng),
            ctype=_increasing_map([k.id for k in instance.charger_types], rng),
        )

    def apply(self, instance: Instance) -> Instance:
        dm, sm, km = self.demand, self.station, self.ctype
        return make_instance(
            [replace(d, id=dm[d.id], reachable=()) for d in instance.demand_points],
            [
                replace(s, id=sm[s.id], served=(),
                        max_chargers={km[k]: c for k, c in s.max_chargers.items()})
                for s in instance.stations
            ],
            [replace(k, id=km[k.id]) for k in instance.charger_types],
            travel_cost_rate=instance.travel_cost_rate,
            wait_cost_rate=instance.wait_cost_rate,
            travel={(dm[i], sm[j]): t for (i, j), t in instance.travel.items()},
            speed_kmh=instance.speed_kmh,
            max_travel_minutes=instance.max_travel_minutes,
            epsilon=instance.epsilon,
            enforce_proximity=instance.enforce_proximity,
        )


# ---------------------------------------------------------------------------
# block schedules and stations for the command-line pipeline


@dataclass(frozen=True)
class CityParams:
    gen_seed: int
    n_hoods: int  # neighbourhoods; terminals sit within ``hood_km`` of one
    hood_km: float
    n_terminals: int
    n_garages: int
    n_blocks: int
    trips_per_block: tuple[int, int]
    station_share: float  # share of terminals that also host a candidate station
    cutoff_min: float  # a terminal with no station this close gets one


def _drive_minutes(a: tuple[float, float], b: tuple[float, float]) -> float:
    # buses average 20 km/h in service; never below 5 minutes per movement
    return max(5.0, round(travel_minutes(a[0], a[1], b[0], b[1], 20.0), 1))


def city(params: CityParams):
    """Terminals, garages, block schedules and candidate stations of one
    synthetic city. Returns (block rows, station rows) with canonical names;
    every terminal has a station within ``cutoff_min`` at 30 km/h."""
    rng = random.Random(params.gen_seed)
    hoods = [_point(rng) for _ in range(params.n_hoods)]
    km_lat = 1.0 / 111.0  # degrees of latitude per km; longitude is close enough here
    terminals = []
    for m in range(params.n_terminals):
        lat, lon = hoods[m % params.n_hoods]
        terminals.append((lat + rng.uniform(-1, 1) * params.hood_km * km_lat,
                          lon + rng.uniform(-1, 1) * params.hood_km * km_lat / 0.75))
    garages = [_point(rng) for _ in range(params.n_garages)]

    block_rows = []
    for b in range(params.n_blocks):
        g = b % params.n_garages
        garage = garages[g]
        t = rng.uniform(300.0, 420.0)
        here_name, here = f"G{g}", garage
        seq = 0
        n_trips = rng.randint(*params.trips_per_block)
        for n in range(n_trips + 1):
            last = n == n_trips
            if last:
                nxt_name, nxt, kind = f"G{g}", garage, "deadhead"
            else:
                m = rng.randrange(params.n_terminals)
                nxt_name, nxt = f"T{m}", terminals[m]
                kind = "deadhead" if n == 0 else "service"
                if nxt_name == here_name:
                    continue
            dur = _drive_minutes(here, nxt)
            block_rows.append([b, g, seq, kind, here_name, nxt_name, here, nxt, t, t + dur])
            seq += 1
            t += dur
            if not last:
                lay = rng.choice((10.0, 15.0, 20.0, 30.0))
                block_rows.append([b, g, seq, "layover", nxt_name, nxt_name, nxt, nxt, t, t + lay])
                seq += 1
                t += lay
            here_name, here = nxt_name, nxt

    sites = [(f"G{g}", p, True) for g, p in enumerate(garages)]
    chosen = [m for m in range(params.n_terminals) if rng.random() < params.station_share]
    sites += [(f"T{m}", terminals[m], False) for m in chosen]
    for m, p in enumerate(terminals):
        if all(travel_minutes(p[0], p[1], q[0], q[1], SPEED_KMH) > params.cutoff_min for _, q, _ in sites):
            sites.append((f"T{m}", p, False))
    station_rows = [
        [name, p, is_garage, round(rng.uniform(150_000, 260_000), -3), 30]
        for name, p, is_garage in sites
    ]
    return block_rows, station_rows


def _ordered_names(names, rng: random.Random, prefix: str) -> dict[str, str]:
    """Random names whose lexicographic order matches that of ``names``."""
    ordered = sorted(names)
    codes = sorted(rng.sample(range(10**6), len(ordered)))
    return {n: f"{prefix}{c:06d}" for n, c in zip(ordered, codes)}


def write_city_csvs(block_rows, station_rows, rng: random.Random, blocks_path, stations_path) -> None:
    """Write the city under seed-drawn names and row order."""
    stops = {r[4] for r in block_rows} | {r[5] for r in block_rows} | {r[0] for r in station_rows}
    stop_name = _ordered_names(stops, rng, "S")
    block_name = {b: f"blk{rng.randrange(10**9):09d}-{b}" for b in {r[0] for r in block_rows}}
    rows = [
        [block_name[b], stop_name[f"G{g}"], f"trip{rng.randrange(10**6)}-{seq}", kind,
         stop_name[o], stop_name[d], f"{op[0]:.6f}", f"{op[1]:.6f}", f"{dp[0]:.6f}", f"{dp[1]:.6f}",
         repr(t0), repr(t1)]
        for (b, g, seq, kind, o, d, op, dp, t0, t1) in block_rows
    ]
    rng.shuffle(rows)
    with open(blocks_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["block_id", "garage_id", "trip_id", "kind", "origin_stop", "dest_stop",
                    "origin_lat", "origin_lon", "dest_lat", "dest_lon", "start_min", "end_min"])
        w.writerows(rows)
    # station ids follow row order, so station rows keep their order
    with open(stations_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "lat", "lon", "is_garage", "fixed_cost_usd", "lifetime_years"])
        for name, p, is_garage, cost, life in station_rows:
            w.writerow([stop_name[name], f"{p[0]:.6f}", f"{p[1]:.6f}", int(is_garage), repr(cost), life])
