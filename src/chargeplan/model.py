"""Problem data types, the objective evaluator, and feasibility checking.

An :class:`Instance` bundles demand points (Poisson charging-demand rates at
terminal stops), candidate stations, a charger-type catalog, and a sparse
travel-time matrix restricted to reachable (demand, station) pairs. It is
immutable after construction and safe to share read-only across concurrent
solver runs.

All money is normalized to currency per minute and all times to minutes.
The JSON fields of each record are declared once, in the field tables at
the JSON section; the instance and report writers and readers all follow
them, and the CLI reads its ``--config`` sections with the same record
reader, their optional fields given by :func:`defaults`.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

from . import geo, queueing
from .errors import (
    InfeasibleDemandError,
    InvalidSOCError,
    ParseError,
    UnassignedDemandError,
    UnstableQueueError,
)

MINUTES_PER_YEAR = 525_960.0  # 365.25 days

_WAIT_TOL = 1e-9
_TRAVEL_TIE_TOL = 1e-9


@dataclass(frozen=True)
class ChargerType:
    """One charger model: power draw, amortized cost, and service speed.

    ``service_rate`` is the reciprocal of ``recharge_time_min`` by
    construction; the recharge time is the stored quantity.
    """

    id: int
    power_kw: float
    unit_cost_rate: float
    recharge_time_min: float

    def __post_init__(self) -> None:
        # comparisons against inf also reject NaN, which fails every comparison
        if not 0 < self.power_kw < math.inf:
            raise ValueError(f"charger type {self.id}: power_kw must be positive and finite")
        if not 0 < self.recharge_time_min < math.inf:
            raise ValueError(f"charger type {self.id}: recharge_time_min must be positive and finite")
        if not 0 <= self.unit_cost_rate < math.inf:
            raise ValueError(f"charger type {self.id}: unit_cost_rate must be nonnegative and finite")

    @property
    def service_rate(self) -> float:
        """Vehicles served per minute by one charger of this type."""
        return 1.0 / self.recharge_time_min


def derive_service_rates(
    battery_kwh: float,
    soc_start_pct: float,
    soc_end_pct: float,
    charger_types: Iterable[ChargerType],
) -> tuple[ChargerType, ...]:
    """Recompute recharge times from battery size and the SOC window.

    A vehicle arrives at ``soc_start_pct`` and leaves at ``soc_end_pct``
    (percent of capacity); charging power is constant inside that window, so

        recharge minutes = 60 * battery_kwh * (end - start)/100 / power_kw.
    """
    if not (0.0 <= soc_start_pct < soc_end_pct <= 100.0):
        raise InvalidSOCError(
            f"need 0 <= start < end <= 100, got {soc_start_pct}..{soc_end_pct}"
        )
    if battery_kwh <= 0:
        raise ValueError("battery_kwh must be positive")
    energy_kwh = battery_kwh * (soc_end_pct - soc_start_pct) / 100.0
    return tuple(
        replace(ct, recharge_time_min=60.0 * energy_kwh / ct.power_kw)
        for ct in charger_types
    )


@dataclass(frozen=True)
class DemandPoint:
    """Aggregated charging demand at one terminal stop."""

    id: int
    lat: float
    lon: float
    rate: float  # vehicles per minute (Poisson)
    reachable: tuple[int, ...] = ()  # station ids within the travel cutoff
    agency: str | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):  # NaN would drop out of coverage
            raise ValueError(f"demand point {self.id}: lat and lon must be finite")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"demand point {self.id}: rate must be positive and finite")


@dataclass(frozen=True)
class CandidateStation:
    """A location that may host chargers, with per-type capacity limits."""

    id: int
    lat: float
    lon: float
    fixed_cost_rate: float  # currency per minute while active
    max_chargers: Mapping[int, int] = field(default_factory=dict)  # type id -> cap
    is_garage: bool = False
    agency: str | None = None
    served: tuple[int, ...] = ()  # demand ids that can reach this station
    source_id: str | None = None  # ingest-only: the stop id in the source feed

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"station {self.id}: lat and lon must be finite")
        if not 0 <= self.fixed_cost_rate < math.inf:
            raise ValueError(f"station {self.id}: fixed_cost_rate must be nonnegative and finite")
        for k, cap in self.max_chargers.items():
            if cap < 0:
                raise ValueError(f"station {self.id}: negative cap for type {k}")


def _check_epsilon(epsilon: float, name: str) -> None:
    """The stability margin must lie in (0, 1) and be large enough that
    ``1 - epsilon`` rounds below 1; a smaller one would let a pair's capacity
    reach mu * s, where the queue has no steady state."""
    if not 0.0 < 1.0 - epsilon < 1.0:
        raise ValueError(f"{name} must lie in (0, 1) with 1 - {name} < 1, got {epsilon!r}")


@dataclass(frozen=True)
class Instance:
    """Immutable problem data. Coverage comes from the travel keys alone:
    every construction, ``dataclasses.replace`` included, derives each demand
    point's ``reachable`` and each station's ``served`` set from them anew."""

    demand_points: tuple[DemandPoint, ...]
    stations: tuple[CandidateStation, ...]
    charger_types: tuple[ChargerType, ...]
    travel: Mapping[tuple[int, int], float]  # (demand id, station id) -> minutes
    travel_cost_rate: float
    wait_cost_rate: float
    epsilon: float = 1e-6
    enforce_proximity: bool = False
    speed_kmh: float = 30.0
    max_travel_minutes: float | None = None

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon, "epsilon")
        if not self.charger_types:
            raise ValueError("charger_types must name at least one charger type")
        types = _by_id("charger type", self.charger_types)
        for s in self.stations:
            for k in s.max_chargers:
                if k not in types:  # a cap that no pair would ever read
                    raise ValueError(f"station {s.id}: max_chargers names unknown charger type {k}")
        check_cost_rates({name: getattr(self, name) for name in COST_FIELDS})
        # checked before coverage, which a NaN cutoff would empty
        if not 0 < self.speed_kmh < math.inf:
            raise ValueError(f"speed_kmh must be positive and finite, got {self.speed_kmh!r}")
        if self.max_travel_minutes is not None and not self.max_travel_minutes > 0:
            raise ValueError(f"max_travel_minutes must be positive, got {self.max_travel_minutes!r}")
        reach: dict[int, list[int]] = {d.id: [] for d in self.demand_points}
        served: dict[int, list[int]] = {s.id: [] for s in self.stations}
        for (i, j), t in sorted(self.travel.items()):
            if not 0 <= t < math.inf:
                raise ValueError(f"travel time for {(i, j)} must be finite and >= 0")
            if i not in reach or j not in served:
                raise ValueError(f"travel entry {(i, j)} names an unknown demand or station")
            reach[i].append(j)
            served[j].append(i)
        uncovered = [d.id for d in self.demand_points if not reach[d.id]]
        if uncovered:
            raise InfeasibleDemandError(uncovered)
        dps = tuple(replace(d, reachable=tuple(reach[d.id])) for d in self.demand_points)
        sts = tuple(replace(s, served=tuple(served[s.id])) for s in self.stations)
        object.__setattr__(self, "demand_points", dps)
        object.__setattr__(self, "stations", sts)
        object.__setattr__(self, "demand_by_id", _by_id("demand", dps))
        object.__setattr__(self, "station_by_id", _by_id("station", sts))
        object.__setattr__(self, "type_by_id", types)
        order = tuple(sorted(dps, key=lambda d: (-d.rate, d.id)))
        object.__setattr__(self, "demand_order", order)
        object.__setattr__(self, "demand_rank", {d.id: r for r, d in enumerate(order)})

    # filled in __post_init__
    demand_by_id: Mapping[int, DemandPoint] = field(init=False, repr=False, compare=False)
    station_by_id: Mapping[int, CandidateStation] = field(init=False, repr=False, compare=False)
    type_by_id: Mapping[int, ChargerType] = field(init=False, repr=False, compare=False)
    # demand points by descending rate, then id: the order of an assignment
    # vector, in which every load is summed
    demand_order: tuple[DemandPoint, ...] = field(init=False, repr=False, compare=False)
    demand_rank: Mapping[int, int] = field(init=False, repr=False, compare=False)  # id -> position

    @cached_property
    def nearest(self) -> Mapping[int, tuple[int, ...]]:
        """Demand id -> its reachable station ids by (travel, id): the first
        active one is the demand's closest active station. Built on first
        use, so solvers that never assign by proximity do not pay for it."""
        return {
            d.id: tuple(sorted(d.reachable, key=lambda j: (self.travel[(d.id, j)], j)))
            for d in self.demand_points
        }

    def station_cap(self, station_id: int, type_id: int) -> int:
        return self.station_by_id[station_id].max_chargers.get(type_id, 0)


def _by_id(kind: str, items) -> dict:
    """Index records by id; two records sharing an id would silently
    collapse into one, so that is an error."""
    out = {}
    for x in items:
        if x.id in out:
            raise ValueError(f"duplicate {kind} id {x.id}")
        out[x.id] = x
    return out


def travel_times(demand_points: Sequence[DemandPoint], stations: Sequence[CandidateStation], speed_kmh: float,
                 max_travel_minutes: float | None = None) -> dict[tuple[int, int], float]:
    """Haversine travel minutes at a constant ``speed_kmh`` for every
    (demand, station) pair within ``max_travel_minutes``, when it is given."""
    travel = {}
    for d in demand_points:
        for s in stations:
            t = geo.travel_minutes(d.lat, d.lon, s.lat, s.lon, speed_kmh)
            if max_travel_minutes is None or t <= max_travel_minutes:
                travel[(d.id, s.id)] = t
    return travel


def make_instance(
    demand_points: Iterable[DemandPoint],
    stations: Iterable[CandidateStation],
    charger_types: Iterable[ChargerType],
    *,
    travel_cost_rate: float,
    wait_cost_rate: float,
    travel: Mapping[tuple[int, int], float] | None = None,
    speed_kmh: float = 30.0,
    max_travel_minutes: float | None = None,
    epsilon: float = 1e-6,
    enforce_proximity: bool = False,
) -> Instance:
    """Assemble an instance; when ``travel`` is omitted, its times are the
    :func:`travel_times` at ``speed_kmh`` within ``max_travel_minutes``.
    :class:`Instance` derives the reachable/served sets from them."""
    dps = tuple(demand_points)
    sts = tuple(stations)
    return Instance(
        demand_points=dps,
        stations=sts,
        charger_types=tuple(charger_types),
        travel=travel_times(dps, sts, speed_kmh, max_travel_minutes) if travel is None else dict(travel),
        travel_cost_rate=travel_cost_rate,
        wait_cost_rate=wait_cost_rate,
        epsilon=epsilon,
        enforce_proximity=enforce_proximity,
        speed_kmh=speed_kmh,
        max_travel_minutes=max_travel_minutes,
    )


@dataclass(frozen=True)
class CostBreakdown:
    """Per-minute cost totals and the exact expected wait of every equipped
    (station, type) pair they were priced with."""

    station: float
    charger: float
    travel: float
    waiting: float
    total: float
    waits: Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class Solution:
    """A candidate deployment: activations, assignments, charger counts.

    ``waits`` holds the exact steady-state expected wait (queueing plus one
    service) for every equipped (station, type) pair.
    """

    active: frozenset[int]
    assignments: frozenset[tuple[int, int, int]]  # (demand, station, type)
    chargers: Mapping[tuple[int, int], int]
    waits: Mapping[tuple[int, int], float] = field(default_factory=dict)
    cost: CostBreakdown | None = None


def assignment_vector(instance: Instance, assignments: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """The (station, type) pair of each demand in ``instance.demand_order``,
    from (demand, station, type) triplets. Raises ValueError for a demand
    assigned twice or an unknown id, UnassignedDemandError for one left out."""
    rank = instance.demand_rank
    vector: list = [None] * len(rank)
    for (i, j, k) in assignments:
        if i not in rank:
            raise ValueError(f"unknown demand id {i}")
        if vector[rank[i]] is not None:
            raise ValueError(f"demand {i} assigned more than once")
        if j not in instance.station_by_id or k not in instance.type_by_id:
            raise ValueError(f"unknown station/type in assignment {(i, j, k)}")
        vector[rank[i]] = (j, k)
    missing = [d.id for d in instance.demand_points if vector[rank[d.id]] is None]
    if missing:
        raise UnassignedDemandError(f"demand points without assignment: {missing}")
    return vector


def pair_loads(instance: Instance, vector: Sequence[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Arrival rate routed to each (station, type) pair of an assignment
    vector, its rates summed in ``instance.demand_order``. Float addition is
    not associative, so one order is what lets every solver and
    :func:`evaluate` see the same load for the same assignment."""
    loads: dict[tuple[int, int], float] = {}
    for d, pair in zip(instance.demand_order, vector):
        loads[pair] = loads.get(pair, 0.0) + d.rate
    return loads


def compute_waits(
    instance: Instance,
    vector: Sequence[tuple[int, int]],
    chargers: Mapping[tuple[int, int], int],
) -> dict[tuple[int, int], float]:
    """Exact expected waits for every equipped pair of an assignment vector.

    Raises :class:`UnstableQueueError` whenever routed load is above the
    capacity of a pair (the stability rule of :mod:`chargeplan.queueing`),
    including pairs that received traffic but no chargers.
    """
    loads = pair_loads(instance, vector)
    waits: dict[tuple[int, int], float] = {}
    keys = sorted(set(loads) | {k for k, s in chargers.items() if s > 0})
    for (j, k) in keys:
        s = chargers.get((j, k), 0)
        lam = loads.get((j, k), 0.0)
        mu = instance.type_by_id[k].service_rate
        if lam > queueing.capacity(mu, s, instance.epsilon):
            raise UnstableQueueError(
                f"station {j} type {k}: load {lam:.6g} exceeds capacity of {s} chargers"
            )
        if s > 0:
            waits[(j, k)] = queueing.expected_wait(lam, mu, s)
    return waits


def evaluate(instance: Instance, solution: Solution) -> CostBreakdown:
    """Objective value of a solution: the :func:`cost_totals` of its
    :func:`assignment_vector` at waits recomputed from the queueing model,
    never read from ``solution.waits``. This is the referee of every
    reported answer; SA and GA price their candidate vectors at the waits
    their sizing produced, which equal these bit for bit."""
    vector = assignment_vector(instance, solution.assignments)
    waits = compute_waits(instance, vector, solution.chargers)
    return cost_totals(cost_tables(instance), solution.active, vector, solution.chargers, waits)


def cost_tables(instance: Instance) -> tuple[dict, dict, dict, dict, list]:
    """The objective's coefficients, as :func:`cost_totals` reads them: each
    station's fixed cost, each type's unit cost, rate * travel_cost_rate *
    travel per (demand, station), rate * wait_cost_rate per demand, and each
    demand's (id, vector position) in id order. SA and GA build them once
    per run."""
    rate = {d.id: d.rate for d in instance.demand_points}
    return (
        {s.id: s.fixed_cost_rate for s in instance.stations},
        {k.id: k.unit_cost_rate for k in instance.charger_types},
        {(i, j): rate[i] * instance.travel_cost_rate * t for (i, j), t in instance.travel.items()},
        {i: lam * instance.wait_cost_rate for i, lam in rate.items()},
        sorted((d.id, r) for r, d in enumerate(instance.demand_order)),
    )


def cost_totals(
    tables: tuple[dict, dict, dict, dict, list],
    active: Iterable[int],
    vector: Sequence[tuple[int, int]],
    chargers: Mapping[tuple[int, int], int],
    waits: Mapping[tuple[int, int], float],
) -> CostBreakdown:
    """The objective of an assignment vector at the given pair waits:
    station activation + charger install + travel + expected wait, all in
    currency per minute, summed from an instance's :func:`cost_tables`.
    Deterministic: sums run in sorted key order (stations by id, pairs
    sorted, demands by id), so identical inputs give bit-identical results.
    """
    fixed, unit, travel_of, wait_of, by_id = tables
    station = sum(map(fixed.__getitem__, sorted(active)), 0.0)
    charger = sum([unit[k] * s for (j, k), s in sorted(chargers.items())], 0.0)
    travel = 0.0
    waiting = 0.0
    for i, r in by_id:
        travel += travel_of[(i, vector[r][0])]
        waiting += wait_of[i] * waits[vector[r]]
    total = station + charger + travel + waiting
    return CostBreakdown(
        station=station,
        charger=charger,
        travel=travel,
        waiting=waiting,
        total=total,
        waits=waits,
    )


def closer_active(instance: Instance, i: int, j: int, active: Iterable[int]) -> float | None:
    """The proximity rule: demand ``i`` may use station ``j`` only if no
    station in ``active`` is closer, up to a tie tolerance. Returns the travel
    minutes to the closest active reachable station when it is closer, else
    None."""
    best = next((instance.travel[(i, jj)] for jj in instance.nearest[i] if jj in active), math.inf)
    return best if instance.travel[(i, j)] > best + _TRAVEL_TIE_TOL else None


@dataclass(frozen=True)
class Violation:
    """One violated constraint instance (data, not an exception)."""

    code: str
    subject: tuple
    detail: str


def check_feasibility(instance: Instance, solution: Solution) -> list[Violation]:
    """Every violated constraint of the deployment model, as a list.

    Codes: ``unknown_id``, ``unreachable_station``, ``inactive_station``,
    ``not_single_sourced``, ``unstable_queue``, ``wait_too_low``,
    ``charger_limit``, ``chargers_at_inactive_station``, ``not_closest_active``
    when the instance enforces proximity, and ``cost_mismatch`` when all
    else holds and a stated cost differs from :func:`evaluate`'s. A queue
    is unstable by the rule stated in :mod:`chargeplan.queueing`.
    """
    out: list[Violation] = []
    lam_of = instance.demand_by_id

    counts: dict[int, int] = {d.id: 0 for d in instance.demand_points}
    known: list[tuple[int, int, int]] = []  # (demand rank, station, type)
    for (i, j, k) in sorted(solution.assignments):
        if i not in lam_of or j not in instance.station_by_id or k not in instance.type_by_id:
            out.append(Violation("unknown_id", (i, j, k), "assignment uses an unknown id"))
            continue
        counts[i] += 1
        known.append((instance.demand_rank[i], j, k))
        if (i, j) not in instance.travel:
            out.append(
                Violation("unreachable_station", (i, j, k), f"station {j} not reachable from demand {i}")
            )
        if j not in solution.active:
            out.append(
                Violation("inactive_station", (i, j, k), f"assignment to inactive station {j}")
            )
    for i, n in sorted(counts.items()):
        if n != 1:
            out.append(
                Violation("not_single_sourced", (i,), f"demand {i} has {n} assignments, needs exactly 1")
            )

    for j in sorted(solution.active):
        if j not in instance.station_by_id:
            out.append(Violation("unknown_id", (j,), f"active station {j} does not exist"))

    # a report may assign a demand twice, so its loads are summed from its
    # triplets in demand order: pair_loads' sum when it is well formed
    loads: dict[tuple[int, int], float] = {}
    for (r, j, k) in sorted(known):
        loads[(j, k)] = loads.get((j, k), 0.0) + instance.demand_order[r].rate
    keys = sorted(set(loads) | set(solution.chargers))
    for (j, k) in keys:
        if j not in instance.station_by_id or k not in instance.type_by_id:
            out.append(Violation("unknown_id", (j, k), "charger count for unknown station/type"))
            continue
        s = solution.chargers.get((j, k), 0)
        cap = instance.station_cap(j, k)
        if s < 0 or s > cap:
            out.append(
                Violation("charger_limit", (j, k), f"count {s} outside [0, {cap}]")
            )
        if s > 0 and j not in solution.active:
            out.append(
                Violation("chargers_at_inactive_station", (j, k), f"{s} chargers at inactive station {j}")
            )
        lam = loads.get((j, k), 0.0)
        mu = instance.type_by_id[k].service_rate
        limit = queueing.capacity(mu, s, instance.epsilon)
        if limit < lam:
            out.append(Violation("unstable_queue", (j, k), f"load {lam:.6g} > capacity {limit:.6g}"))
        elif s > 0:
            true_wait = queueing.expected_wait(lam, mu, s)
            stored = solution.waits.get((j, k))
            if stored is not None and stored < true_wait - _WAIT_TOL:
                out.append(
                    Violation("wait_too_low", (j, k), f"stored wait {stored:.9g} < steady-state {true_wait:.9g}")
                )

    if instance.enforce_proximity:
        by_demand = {}
        for (i, j, k) in sorted(solution.assignments):
            if counts.get(i) == 1 and (i, j) in instance.travel:
                by_demand[i] = j
        for i, j in sorted(by_demand.items()):
            closest = closer_active(instance, i, j, solution.active)
            if closest is not None:
                out.append(
                    Violation(
                        "not_closest_active",
                        (i, j),
                        f"travel {instance.travel[(i, j)]:.6g} > closest active {closest:.6g}",
                    )
                )
    if not out and solution.cost is not None:  # evaluate raises on what the checks above flag
        priced = evaluate(instance, solution)
        for key in BREAKDOWN_FIELDS:
            stated, actual = getattr(solution.cost, key), getattr(priced, key)
            if not math.isclose(stated, actual, rel_tol=1e-9):
                out.append(Violation("cost_mismatch", (key,), f"stated {stated!r} != evaluated {actual!r}"))
    return out


# ---------------------------------------------------------------------------
# JSON schema. An instance: {demand_points, stations, charger_types, costs,
# travel, options, meta}; a report's solution: {active_stations, assignments,
# chargers, waits, cost}. The JSON fields of each record, by kind: int,
# float, bool, str, or dict (a station's charger type id -> cap). A field is
# optional exactly when its dataclass field has a default (see defaults()),
# and may be null exactly when that default is None; costs and options are
# fields of Instance, and every field of a report row or cost is required.
# Derived fields (reachable, served) and ingest-only ones (source_id) are not
# written. A key that no table lists is an error.
CHARGER_TYPE_FIELDS = {"id": int, "power_kw": float, "unit_cost_rate": float, "recharge_time_min": float}
DEMAND_POINT_FIELDS = {"id": int, "lat": float, "lon": float, "rate": float, "agency": str}
STATION_FIELDS = {"id": int, "lat": float, "lon": float, "fixed_cost_rate": float, "max_chargers": dict,
                  "is_garage": bool, "agency": str}
COST_FIELDS = {"travel_cost_rate": float, "wait_cost_rate": float}
OPTION_FIELDS = {"epsilon": float, "enforce_proximity": bool, "speed_kmh": float, "max_travel_minutes": float}
ASSIGNMENT_FIELDS = {"demand": int, "station": int, "charger_type": int}
CHARGER_FIELDS = {"station": int, "charger_type": int, "count": int}
WAIT_FIELDS = {"station": int, "charger_type": int, "minutes": float}
BREAKDOWN_FIELDS = {"station": float, "charger": float, "travel": float, "waiting": float, "total": float}
_INSTANCE_KEYS = {"demand_points", "stations", "charger_types", "costs", "travel", "options", "meta"}
_SOLUTION_KEYS = {"active_stations", "assignments", "chargers", "waits", "cost"}


def check_cost_rates(rates: Mapping[str, float]) -> None:
    """Each rate must be nonnegative and finite: the tangent-cut wait floors
    bound the objective from below only then."""
    for name, rate in rates.items():
        if not 0 <= rate < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")


@cache
def defaults(cls: type) -> dict:
    """{field: default} of each field of the dataclass ``cls`` that has a
    default (MISSING for a default factory): the fields a record of it may
    leave out."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING or f.default_factory is not MISSING}


def _record_to_dict(record, table: Mapping[str, type]) -> dict:
    """The JSON object of ``record``: each field ``table`` lists but a None."""
    out = {}
    for key, kind in table.items():
        value = getattr(record, key)
        if value is not None:
            out[key] = {str(k): v for k, v in sorted(value.items())} if kind is dict else value
    return out


def instance_to_dict(instance: Instance) -> dict:
    return {
        "demand_points": [_record_to_dict(d, DEMAND_POINT_FIELDS) for d in instance.demand_points],
        "stations": [_record_to_dict(s, STATION_FIELDS) for s in instance.stations],
        "charger_types": [_record_to_dict(k, CHARGER_TYPE_FIELDS) for k in instance.charger_types],
        "costs": _record_to_dict(instance, COST_FIELDS),
        "travel": [[i, j, t] for (i, j), t in sorted(instance.travel.items())],
        "options": _record_to_dict(instance, OPTION_FIELDS),
    }


def _number(value, name: str, kind: type = float):
    """A JSON number as ``kind`` (float or int). Anything else (null, a
    string, a boolean, a fraction where an integer belongs) is a ParseError
    naming the field; range checks are left to the records themselves."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{name}: expected a number, got {value!r}")
    if kind is int and not (isinstance(value, int) or value.is_integer()):
        raise ParseError(f"{name}: expected an integer, got {value!r}")
    return kind(value)


def _entries(data, name: str, default=None, kind: type = list):
    """The list (or, with ``kind=dict``, the object) that the object ``data``
    holds at the last part of the dotted ``name``, or ``default`` when the
    key is absent. A missing or null value, or one of another kind, is a
    ParseError naming the field."""
    value = data.get(name.rpartition(".")[2], default) if isinstance(data, dict) else None
    if value is None:
        raise ParseError(f"missing required field {name!r}")
    if not isinstance(value, kind):
        raise ParseError(f"{name}: expected {'a list' if kind is list else 'an object'}, got {value!r}")
    return value


def _type_key(key: str, name: str) -> int:
    """A charger type id written as a JSON object key."""
    try:
        return int(key)
    except ValueError:
        raise ParseError(f"{name}: charger type id {key!r} is not an integer") from None


_EXPECTED = {bool: "true or false", str: "a string", dict: "an object"}


def _value(value, name: str, kind: type):
    """A JSON value as ``kind``: a number (int or float), true or false (a
    string such as "false" is a ParseError), a string, or an object of
    charger type ids to integer caps."""
    if kind not in _EXPECTED:
        return _number(value, name, kind)
    if not isinstance(value, kind):
        raise ParseError(f"{name}: expected {_EXPECTED[kind]}, got {value!r}")
    if kind is dict:
        return {_type_key(k, name): _number(v, f"{name}.{k}", int) for k, v in value.items()}
    return value


def _known_keys(record, name: str, keys) -> None:
    """Check that ``record`` is a JSON object holding no key but ``keys``:
    a key that nothing reads would be dropped without a word."""
    if not isinstance(record, dict):
        raise ParseError(f"{name}: expected an object, got {record!r}")
    for key in record:
        if key not in keys:
            raise ParseError(f"{name}: unknown field {key!r}")


def _record(record, name: str, table: Mapping[str, type], optional: Mapping[str, object] = {}) -> dict:
    """The fields ``table`` lists of the JSON object ``record``, named
    ``name`` in messages, each read as its kind: the keyword arguments of
    the fields given. Only a field of ``optional`` (a field -> default
    mapping, such as :func:`defaults`) may be left out, and a null is read
    as left out where its default is None. A key the table does not list is
    a ParseError."""
    _known_keys(record, name, table)
    out = {}
    for key, kind in table.items():
        if key not in record:
            if key not in optional:
                raise ParseError(f"missing required field '{name}.{key}'")
        elif record[key] is not None or optional.get(key, MISSING) is not None:
            out[key] = _value(record[key], f"{name}.{key}", kind)
    return out


def instance_from_dict(data: dict) -> Instance:
    """The instance of a JSON object; a missing or malformed field is a
    ParseError that names it (``stations[0].max_chargers``)."""
    if not isinstance(data, dict):
        raise ParseError(f"an instance must be a JSON object, got {type(data).__name__}")
    _known_keys(data, "instance", _INSTANCE_KEYS)
    options = _record(_entries(data, "options", {}, dict), "options", OPTION_FIELDS, defaults(Instance))
    if "epsilon" in options:
        _check_epsilon(options["epsilon"], "options.epsilon")
    kinds, dps, sts = (
        [cls(**_record(r, f"{name}[{n}]", table, defaults(cls))) for n, r in enumerate(_entries(data, name))]
        for name, cls, table in (
            ("charger_types", ChargerType, CHARGER_TYPE_FIELDS),
            ("demand_points", DemandPoint, DEMAND_POINT_FIELDS),
            ("stations", CandidateStation, STATION_FIELDS),
        )
    )
    travel = None
    if "travel" in data:  # derived from the coordinates only when absent
        rows = _entries(data, "travel")
        # a twin record is named before any travel row that it doubles
        demand_ids, station_ids = _by_id("demand", dps), _by_id("station", sts)
        travel = {}
        for n, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 3:
                raise ParseError(f"travel[{n}]: expected [demand, station, minutes], got {row!r}")
            i, j, t = row
            i, j = _number(i, f"travel[{n}][0]", int), _number(j, f"travel[{n}][1]", int)
            if i not in demand_ids:
                raise ParseError(f"travel[{n}]: unknown demand id {i}")
            if j not in station_ids:
                raise ParseError(f"travel[{n}]: unknown station id {j}")
            if (i, j) in travel:
                raise ParseError(f"travel[{n}]: duplicate entry for demand {i}, station {j}")
            travel[(i, j)] = _number(t, f"travel[{n}][2]")
    costs = _record(_entries(data, "costs", kind=dict), "costs", COST_FIELDS, defaults(Instance))
    return make_instance(dps, sts, kinds, travel=travel, **costs, **options)


def _rows(data, name: str, table: Mapping[str, type], default=None) -> list[tuple]:
    """Each record of the list at ``name``: its ``table`` fields, in order."""
    return [tuple(_record(r, f"{name}[{n}]", table).values()) for n, r in enumerate(_entries(data, name, default))]


def _by_pair(rows: list[tuple], name: str) -> dict[tuple[int, int], object]:
    """{(station, charger_type): value} of such rows; a second row for one
    pair would silently replace the first, so it is a ParseError."""
    out = {}
    for n, (j, k, value) in enumerate(rows):
        if (j, k) in out:
            raise ParseError(f"{name}[{n}]: duplicate (station, charger_type) {(j, k)}")
        out[(j, k)] = value
    return out


def solution_to_dict(solution: Solution) -> dict:
    """The JSON object of a report's solution; a charger count of 0 is left out."""
    return {
        "active_stations": sorted(solution.active),
        "assignments": [dict(zip(ASSIGNMENT_FIELDS, a)) for a in sorted(solution.assignments)],
        "chargers": [dict(zip(CHARGER_FIELDS, (j, k, s))) for (j, k), s in sorted(solution.chargers.items()) if s > 0],
        "waits": [dict(zip(WAIT_FIELDS, (j, k, w))) for (j, k), w in sorted(solution.waits.items())],
        "cost": None if solution.cost is None else _record_to_dict(solution.cost, BREAKDOWN_FIELDS),
    }


def solution_from_dict(data) -> Solution:
    """The solution of a report; a missing, malformed or unknown field, or a
    second charger or wait row for one pair, is a ParseError that names it
    (``solution.chargers[0].count``). A null or absent cost reads as none."""
    _known_keys(data, "solution", _SOLUTION_KEYS)
    waits = _by_pair(_rows(data, "solution.waits", WAIT_FIELDS, []), "solution.waits")
    cost = data.get("cost")
    return Solution(
        active=frozenset(_number(j, f"solution.active_stations[{n}]", int)
                         for n, j in enumerate(_entries(data, "solution.active_stations"))),
        assignments=frozenset(_rows(data, "solution.assignments", ASSIGNMENT_FIELDS)),
        chargers=_by_pair(_rows(data, "solution.chargers", CHARGER_FIELDS), "solution.chargers"),
        waits=waits,
        cost=None if cost is None else CostBreakdown(**_record(cost, "solution.cost", BREAKDOWN_FIELDS), waits=waits),
    )


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not JSON is a
    ParseError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"not a JSON file: {exc}", path=path) from exc


def write_json(path, payload) -> None:
    """Write a JSON output file: indented, keys sorted and newline-ended, so
    equal payloads give byte-identical files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_instance(instance: Instance, path) -> None:
    write_json(path, instance_to_dict(instance))


def load_instance(path) -> Instance:
    """The instance in a JSON file; a file that is not JSON, or a field that
    is missing, malformed, unknown or out of range, is a ParseError naming the file."""
    data = read_json(path)
    try:
        return instance_from_dict(data)
    except (ParseError, ValueError) as exc:
        raise ParseError(str(exc), path=path) from exc
