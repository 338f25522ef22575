"""Turning bus block schedules into charging demand.

A block is the sequence of movements one bus performs between two garage
visits. Driving (service trips and deadheads) consumes range; layovers do
not. Whenever the accumulated driving time since the last recharge reaches
the vehicle range, the bus must have charged at the latest terminal stop it
visited strictly before that depletion point. Each such stop visit becomes a
demand event; events aggregated per stop over a horizon give Poisson rates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidKError, ParseError, RangeTooShortError
from .model import MINUTES_PER_YEAR, CandidateStation, ChargerType, DemandPoint, make_instance

DRIVING_KINDS = ("service", "deadhead")
TRIP_KINDS = DRIVING_KINDS + ("layover",)

_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class Trip:
    """One scheduled movement: a service trip, a deadhead, or a layover."""

    id: str
    origin_stop: str
    dest_stop: str
    origin: tuple[float, float]  # (lat, lon)
    dest: tuple[float, float]
    start: float  # minutes from midnight
    end: float
    kind: str  # service | deadhead | layover

    def __post_init__(self) -> None:
        if self.kind not in TRIP_KINDS:
            raise ValueError(f"trip {self.id}: unknown kind {self.kind!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"trip {self.id}: start and end must be finite")
        if not all(map(math.isfinite, self.origin + self.dest)):
            raise ValueError(f"trip {self.id}: origin and dest lat/lon must be finite")
        if self.end < self.start:
            raise ValueError(f"trip {self.id}: end before start")
        if self.kind == "service" and self.origin_stop == self.dest_stop and self.end == self.start:
            raise ValueError(f"trip {self.id}: degenerate service trip")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def consumes_range(self) -> bool:
        return self.kind in DRIVING_KINDS


@dataclass(frozen=True)
class BlockSchedule:
    """Ordered movements of one bus between two garage visits."""

    id: str
    garage_id: str
    trips: tuple[Trip, ...]

    def __post_init__(self) -> None:
        for prev, nxt in zip(self.trips, self.trips[1:]):
            if nxt.start < prev.end:
                raise ValueError(
                    f"block {self.id}: trip {nxt.id} starts before {prev.id} ends"
                )


@dataclass(frozen=True)
class DemandEvent:
    """One forced charging stop for one block."""

    block_id: str
    stop_id: str
    time: float  # minutes from midnight
    location: tuple[float, float]


def segment_block(block: BlockSchedule, range_minutes: float) -> list[DemandEvent]:
    """Charging events a block of the given driving range must make.

    The walk visits every trip boundary in order and accumulates driving
    minutes. When the accumulation would reach ``range_minutes`` inside (or
    exactly at the end of) a driving step, the bus charges at the boundary
    visited immediately before that step, the accumulation resets there, and
    the walk continues. A driving step that alone reaches the range leaves no
    terminal to charge at and raises :class:`RangeTooShortError`.
    """
    if not range_minutes > 0:  # NaN fails too
        raise ValueError(f"range_minutes must be positive, got {range_minutes!r}")

    # visits[m] is the position just before step m; drives[m] is the driving
    # time of step m. Idle gaps between trips become zero-drive steps.
    visits: list[tuple[str, float, tuple[float, float]]] = []
    drives: list[float] = []
    for trip in block.trips:
        if visits:
            drives.append(0.0)
        visits.append((trip.origin_stop, trip.start, trip.origin))
        drives.append(trip.duration if trip.consumes_range else 0.0)
        visits.append((trip.dest_stop, trip.end, trip.dest))

    events: list[DemandEvent] = []
    consumed = 0.0
    last_reset = 0
    m = 0
    while m < len(drives):
        d = drives[m]
        if d > 0.0 and consumed + d >= range_minutes - _RANGE_TOL:
            if m == last_reset:
                # fresh battery at this very boundary and the step still
                # depletes it: no terminal precedes the depletion point
                raise RangeTooShortError(
                    f"block {block.id}: a single movement of {d:.6g} min exceeds the "
                    f"range of {range_minutes:.6g} min"
                )
            stop, time, loc = visits[m]
            events.append(DemandEvent(block_id=block.id, stop_id=stop, time=time, location=loc))
            consumed = 0.0
            last_reset = m
            continue
        consumed += d
        m += 1
    return events


def aggregate_demand(events: Iterable[DemandEvent], horizon_minutes: float) -> list[DemandPoint]:
    """Group events by stop into demand points with per-minute Poisson rates."""
    if not 0 < horizon_minutes < math.inf:
        raise ValueError(f"horizon_minutes must be positive and finite, got {horizon_minutes!r}")
    grouped: dict[str, list[DemandEvent]] = {}
    for ev in events:
        grouped.setdefault(ev.stop_id, []).append(ev)
    points = []
    for idx, stop in enumerate(sorted(grouped)):
        evs = grouped[stop]
        lat, lon = evs[0].location
        points.append(
            DemandPoint(id=idx, lat=lat, lon=lon, rate=len(evs) / horizon_minutes)
        )
    return points


def build_coverage(
    demand_points: Sequence[DemandPoint],
    stations: Sequence[CandidateStation],
    max_travel_minutes: float,
    speed_kmh: float = 30.0,
) -> tuple[list[DemandPoint], list[CandidateStation], dict[tuple[int, int], float]]:
    """Reachability sets and the sparse travel matrix for a travel cutoff,
    as :class:`~chargeplan.model.Instance` derives them.

    A station is reachable when the haversine travel time at ``speed_kmh``
    does not exceed ``max_travel_minutes``. Served sets are the exact inverse
    of reachable sets. Raises :class:`InfeasibleDemandError` listing every
    demand point left without a station, and ValueError (from the
    instance) for a cutoff or speed that is not positive.
    """
    # an instance needs a catalog holding every capped type; coverage reads none
    placeholder = [ChargerType(k, 1.0, 0.0, 1.0) for k in sorted({0, *(k for s in stations for k in s.max_chargers)})]
    inst = make_instance(
        demand_points, stations, placeholder, travel_cost_rate=0.0, wait_cost_rate=0.0,
        speed_kmh=speed_kmh, max_travel_minutes=max_travel_minutes,
    )
    return list(inst.demand_points), list(inst.stations), dict(inst.travel)


# ---------------------------------------------------------------------------
# k-means clustering to control problem size


def _project(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    # Equirectangular projection at the median latitude; adequate at city scale.
    ref = math.cos(math.radians(float(np.median(lats))))
    return np.column_stack([lons * ref, lats])


def _kmeans(xy: np.ndarray, k: int, rng: np.random.Generator, weights: np.ndarray | None = None) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; returns a label per row."""
    n = xy.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)

    centers = np.empty((k, 2))
    first = int(rng.integers(n))
    centers[0] = xy[first]
    d2 = np.sum((xy - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = xy[int(rng.integers(n))]
        else:
            centers[c] = xy[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((xy - centers[c]) ** 2, axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(200):
        dist = np.sum((xy[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        for c in range(k):
            mask = new_labels == c
            if not mask.any():
                # revive an empty cluster at the point farthest from its center
                far = int(np.argmax(dist[np.arange(n), new_labels]))
                new_labels[far] = c
                mask = new_labels == c
            wm = w[mask]
            centers[c] = (xy[mask] * wm[:, None]).sum(axis=0) / wm.sum()
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def cluster_demand_points(points: Sequence[DemandPoint], k: int, seed: int) -> list[DemandPoint]:
    """Aggregate demand points into ``k`` clusters.

    Cluster rate is the sum of member rates (total demand is conserved) and
    the location is the rate-weighted centroid. ``k == len(points)`` is the
    identity. Agency label survives only when all members agree.
    """
    if not 1 <= k <= len(points):
        raise InvalidKError(f"k={k} outside [1, {len(points)}]")
    if k == len(points):
        return list(points)
    lats = np.array([p.lat for p in points])
    lons = np.array([p.lon for p in points])
    rates = np.array([p.rate for p in points])
    labels = _kmeans(_project(lats, lons), k, np.random.default_rng(seed), weights=rates)
    out = []
    for c in range(k):
        mask = labels == c
        members = [p for p, m in zip(points, mask) if m]
        w = rates[mask]
        agencies = {p.agency for p in members}
        out.append(
            DemandPoint(
                id=c,
                lat=float((lats[mask] * w).sum() / w.sum()),
                lon=float((lons[mask] * w).sum() / w.sum()),
                rate=float(w.sum()),
                agency=agencies.pop() if len(agencies) == 1 else None,
            )
        )
    return out


def cluster_stations(stations: Sequence[CandidateStation], k: int, seed: int) -> list[CandidateStation]:
    """Aggregate candidate stations into ``k`` clusters.

    A cluster keeps the cheapest member fixed cost, the elementwise maximum
    charger capacity, and the plain centroid location; it is flagged as a
    garage when any member is one.
    """
    if not 1 <= k <= len(stations):
        raise InvalidKError(f"k={k} outside [1, {len(stations)}]")
    if k == len(stations):
        return list(stations)
    lats = np.array([s.lat for s in stations])
    lons = np.array([s.lon for s in stations])
    labels = _kmeans(_project(lats, lons), k, np.random.default_rng(seed))
    out = []
    for c in range(k):
        members = [s for s, m in zip(stations, labels == c) if m]
        caps: dict[int, int] = {}
        for s in members:
            for t, cap in s.max_chargers.items():
                caps[t] = max(caps.get(t, 0), cap)
        agencies = {s.agency for s in members}
        out.append(
            CandidateStation(
                id=c,
                lat=float(np.mean([s.lat for s in members])),
                lon=float(np.mean([s.lon for s in members])),
                fixed_cost_rate=min(s.fixed_cost_rate for s in members),
                max_chargers=caps,
                is_garage=any(s.is_garage for s in members),
                agency=agencies.pop() if len(agencies) == 1 else None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# CSV ingestion

BLOCK_COLUMNS = [
    "block_id", "garage_id", "trip_id", "kind", "origin_stop", "dest_stop",
    "origin_lat", "origin_lon", "dest_lat", "dest_lon", "start_min", "end_min",
]

STATION_COLUMNS = ["station_id", "lat", "lon", "is_garage", "fixed_cost_usd", "lifetime_years"]


def read_blocks_csv(path) -> list[BlockSchedule]:
    """Parse the block-schedule CSV into ordered BlockSchedule objects."""
    rows_by_block: dict[str, list[tuple[int, dict]]] = {}
    garages: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in BLOCK_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ParseError(f"missing columns {missing}", path=str(path), line=1)
        for ln, row in enumerate(reader, start=2):
            try:
                block_id = row["block_id"].strip()
                rows_by_block.setdefault(block_id, []).append((ln, row))
                garages[block_id] = row["garage_id"].strip()
            except (KeyError, AttributeError) as exc:
                raise ParseError(f"bad row: {exc}", path=str(path), line=ln) from exc

    blocks = []
    for block_id in sorted(rows_by_block):
        trips = []
        for ln, row in rows_by_block[block_id]:
            try:
                trips.append(
                    Trip(
                        id=row["trip_id"].strip(),
                        origin_stop=row["origin_stop"].strip(),
                        dest_stop=row["dest_stop"].strip(),
                        origin=(float(row["origin_lat"]), float(row["origin_lon"])),
                        dest=(float(row["dest_lat"]), float(row["dest_lon"])),
                        start=float(row["start_min"]),
                        end=float(row["end_min"]),
                        kind=row["kind"].strip().lower(),
                    )
                )
            except (ValueError, KeyError) as exc:
                raise ParseError(f"bad trip row: {exc}", path=str(path), line=ln) from exc
        trips.sort(key=lambda t: (t.start, t.end))
        try:
            blocks.append(BlockSchedule(id=block_id, garage_id=garages[block_id], trips=tuple(trips)))
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path)) from exc
    return blocks


def read_stations_csv(path, *, max_chargers: dict[int, int]) -> list[CandidateStation]:
    """Parse the stations CSV, converting lifetime costs to currency/minute."""
    stations = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in STATION_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ParseError(f"missing columns {missing}", path=str(path), line=1)
        for ln, row in enumerate(reader, start=2):
            try:
                lifetime = float(row["lifetime_years"])
                if lifetime <= 0:
                    raise ValueError("lifetime_years must be positive")
                stations.append(
                    CandidateStation(
                        id=len(stations),
                        lat=float(row["lat"]),
                        lon=float(row["lon"]),
                        fixed_cost_rate=float(row["fixed_cost_usd"]) / (lifetime * MINUTES_PER_YEAR),
                        max_chargers=dict(max_chargers),
                        is_garage=row["is_garage"].strip().lower() in ("1", "true", "yes"),
                        agency=(row.get("agency") or "").strip() or None,
                        source_id=row["station_id"].strip(),
                    )
                )
            except (ValueError, KeyError) as exc:
                raise ParseError(f"bad station row: {exc}", path=str(path), line=ln) from exc
    return stations


def ensure_garages(
    blocks: Sequence[BlockSchedule],
    stations: list[CandidateStation],
    *,
    fixed_cost_rate: float,
    max_chargers: dict[int, int],
) -> list[str]:
    """Append a garage station for every block garage missing from the pool.

    Blocks begin at their garage, so its location is the first movement's
    origin. Returns the garage ids that were added.
    """
    known = {s.source_id for s in stations if s.source_id is not None}
    added = []
    for block in blocks:
        if block.garage_id in known or not block.trips:
            continue
        lat, lon = block.trips[0].origin
        stations.append(
            CandidateStation(
                id=max((s.id for s in stations), default=-1) + 1,
                lat=lat,
                lon=lon,
                fixed_cost_rate=fixed_cost_rate,
                max_chargers=dict(max_chargers),
                is_garage=True,
                source_id=block.garage_id,
            )
        )
        known.add(block.garage_id)
        added.append(block.garage_id)
    return added
