"""Seeded random-instance generators shared by the test modules.

Instances live in a small city-scale box. Cost rates are scaled so that
station, charger, travel, and waiting costs all matter, which keeps the
optima nontrivial (assignment and sizing trade-offs both bite).
"""

from __future__ import annotations

import random

from chargeplan.errors import InfeasibleError
from chargeplan.exact import branch_and_bound, brute_force
from chargeplan.model import CandidateStation, ChargerType, DemandPoint, Instance, make_instance

BOX = (41.65, 42.05, -87.95, -87.55)  # lat/lon bounds, roughly one metro area


def _coords(rng: random.Random) -> tuple[float, float]:
    lat = rng.uniform(BOX[0], BOX[1])
    lon = rng.uniform(BOX[2], BOX[3])
    return lat, lon


def random_instance(
    seed: int,
    n_demand: int | None = None,
    n_station: int | None = None,
    k_types: int = 2,
    *,
    max_demand: int = 5,
    max_station: int = 4,
    sparse: bool = True,
    cap_range: tuple[int, int] = (2, 6),
) -> Instance:
    """One random instance; sizes are drawn when not fixed.

    With ``sparse`` (the default) each demand point reaches only the
    stations inside a travel cutoff, mirroring the coverage-subset structure
    of real networks; every point keeps at least one reachable station.
    """
    rng = random.Random(seed)
    nd = n_demand if n_demand is not None else rng.randint(2, max_demand)
    ns = n_station if n_station is not None else rng.randint(2, max_station)

    kinds = []
    for k in range(k_types):
        # slower types are cheap, faster ones expensive
        recharge = rng.uniform(20.0, 90.0) / (k + 1)
        kinds.append(
            ChargerType(
                id=k,
                power_kw=100.0 * (k + 1),
                unit_cost_rate=rng.uniform(0.05, 0.25) * (k + 1) ** 1.5,
                recharge_time_min=recharge,
            )
        )

    demands = [
        DemandPoint(id=i, lat=_coords(rng)[0], lon=_coords(rng)[1], rate=rng.uniform(0.01, 0.06))
        for i in range(nd)
    ]
    stations = [
        CandidateStation(
            id=j,
            lat=_coords(rng)[0],
            lon=_coords(rng)[1],
            fixed_cost_rate=rng.uniform(0.3, 2.0),
            max_chargers={k.id: rng.randint(*cap_range) for k in kinds},
        )
        for j in range(ns)
    ]

    travel = None
    if sparse:
        from chargeplan.geo import travel_minutes

        cutoff = rng.uniform(25.0, 45.0)
        travel = {}
        for d in demands:
            times = {
                s.id: travel_minutes(d.lat, d.lon, s.lat, s.lon, 30.0) for s in stations
            }
            keep = {j for j, t in times.items() if t <= cutoff}
            if not keep:
                keep = {min(times, key=times.get)}  # never strand a demand point
            for j in keep:
                travel[(d.id, j)] = times[j]

    return make_instance(
        demands,
        stations,
        kinds,
        travel_cost_rate=2.67,
        wait_cost_rate=3.46,
        travel=travel,
        speed_kmh=30.0,
    )


def _capacity_screen(inst: Instance) -> None:
    """The filter the fixture families were drawn with: every demand point
    reaches a station whose total charger capacity exceeds the total rate
    of the demands it serves. Raises InfeasibleError otherwise."""
    def roomy(st: CandidateStation) -> bool:
        cap = sum(k.service_rate * st.max_chargers.get(k.id, 0) for k in inst.charger_types)
        return cap > sum(inst.demand_by_id[i].rate for i in st.served)

    ok = {st.id for st in inst.stations if roomy(st)}
    if not all(ok.intersection(d.reachable) for d in inst.demand_points):
        raise InfeasibleError("some demand reaches no station with room for its served rate")


def feasible_instance(seed: int, **kwargs) -> Instance:
    """Retry seeds until the instance admits a stable assignment.

    Instances of at most 2e6 assignment vectors are certified by
    branch-and-bound run to proof, which gives brute force's verdict and
    is much faster on the larger of them."""
    offset = 0
    while True:
        inst = random_instance(seed + 100_000 * offset, **kwargs)
        try:
            _capacity_screen(inst)
            if _leaf_count(inst) <= 2e6:
                branch_and_bound(inst)
            elif not _constructively_feasible(inst):
                raise InfeasibleError("no constructive stable assignment found")
            return inst
        except InfeasibleError:
            offset += 1


def _leaf_count(inst: Instance) -> float:
    n = 1.0
    for d in inst.demand_points:
        n *= len(d.reachable) * len(inst.charger_types)
    return n


def _constructively_feasible(inst: Instance) -> bool:
    from chargeplan.construction import _PairSizer, best_chargers, demand_assignment
    from chargeplan.errors import InfeasibleError as Inf

    every = [s.id for s in inst.stations]
    rng = random.Random(0)
    sizer = _PairSizer(inst)
    for _ in range(200):
        try:
            best_chargers(inst, demand_assignment(inst, every, 0.3, rng), sizer)
            return True
        except Inf:
            continue
    return False


def fixture_instances(count: int = 200, base_seed: int = 20_240) -> list[Instance]:
    """The reference fixture family: small random instances, two charger
    types, every one solvable by the exhaustive oracle."""
    out = []
    seed = base_seed
    while len(out) < count:
        inst = random_instance(seed)
        seed += 1
        try:
            _capacity_screen(inst)
            rep = brute_force(inst, leaf_cap=2e6)
        except InfeasibleError:
            continue
        if rep.best is not None:
            out.append(inst)
    return out


def two_agency_instance(seed: int) -> Instance:
    """Small two-agency synthetic where every scenario stays feasible:
    each agency has one garage with generous capacity near its demands,
    plus labeled non-garage stations; pools overlap mid-city."""
    rng = random.Random(seed)
    kinds = (
        ChargerType(id=0, power_kw=125.0, unit_cost_rate=rng.uniform(0.08, 0.15), recharge_time_min=rng.uniform(30.0, 60.0)),
        ChargerType(id=1, power_kw=450.0, unit_cost_rate=rng.uniform(0.3, 0.6), recharge_time_min=rng.uniform(8.0, 18.0)),
    )
    centers = {"north": (41.95, -87.70), "south": (41.72, -87.65)}
    demands = []
    stations = []
    j = 0
    for agency, (clat, clon) in centers.items():
        for _ in range(2):
            demands.append(
                DemandPoint(
                    id=len(demands),
                    lat=clat + rng.uniform(-0.03, 0.03),
                    lon=clon + rng.uniform(-0.03, 0.03),
                    rate=rng.uniform(0.015, 0.05),
                    agency=agency,
                )
            )
        stations.append(
            CandidateStation(
                id=j,
                lat=clat + rng.uniform(-0.01, 0.01),
                lon=clon + rng.uniform(-0.01, 0.01),
                fixed_cost_rate=rng.uniform(0.4, 0.9),
                max_chargers={0: 8, 1: 8},
                is_garage=True,
                agency=agency,
            )
        )
        j += 1
        stations.append(
            CandidateStation(
                id=j,
                lat=clat + rng.uniform(-0.04, 0.04),
                lon=clon + rng.uniform(-0.04, 0.04),
                fixed_cost_rate=rng.uniform(0.3, 0.8),
                max_chargers={0: 4, 1: 4},
                is_garage=False,
                agency=agency,
            )
        )
        j += 1
    # one shared mid-city non-garage station makes pooling attractive
    stations.append(
        CandidateStation(
            id=j,
            lat=41.835 + rng.uniform(-0.01, 0.01),
            lon=-87.675 + rng.uniform(-0.01, 0.01),
            fixed_cost_rate=rng.uniform(0.2, 0.5),
            max_chargers={0: 6, 1: 6},
            is_garage=False,
            agency="north" if rng.random() < 0.5 else "south",
        )
    )
    return make_instance(
        demands,
        stations,
        kinds,
        travel_cost_rate=2.67,
        wait_cost_rate=3.46,
        speed_kmh=30.0,
    )
