"""Deployment-scenario matrix and one-at-a-time sensitivity sweeps.

Scenarios cross two ownership modes (joint: agencies share stations;
separate: each agency deploys on its own labeled stations) with three
station-pool regimes (garages only, non-garages only, both). Separate mode
solves one sub-instance per agency and sums the costs. The joint mixed-pool
scenario is the baseline every row is compared against.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import Callable

from . import model as mdl
from .construction import build_solution
from .errors import ChargePlanError, InfeasibleDemandError, InfeasibleError
from .exact import SolverReport

SolveFn = Callable[[mdl.Instance], SolverReport]

SWEEP_PARAMETERS = ("wait_cost", "charger_power", "station_cost", "charger_cost")


@dataclass(frozen=True)
class ScenarioSpec:
    """One deployment scenario."""

    joint: bool
    allow_garage: bool
    allow_other: bool

    def __post_init__(self) -> None:
        if not (self.allow_garage or self.allow_other):
            raise ValueError("at least one station class must be allowed")

    @property
    def label(self) -> str:
        pool = {(True, True): "mixed", (True, False): "garage", (False, True): "other"}[
            (self.allow_garage, self.allow_other)
        ]
        return ("joint" if self.joint else "separate") + "-" + pool


def scenario_matrix() -> list[ScenarioSpec]:
    """The six scenarios, baseline (joint-mixed) last."""
    out = []
    for joint in (False, True):
        for garage, other in ((True, False), (False, True), (True, True)):
            out.append(ScenarioSpec(joint=joint, allow_garage=garage, allow_other=other))
    return out


def restrict_instance(
    instance: mdl.Instance,
    *,
    allow_garage: bool = True,
    allow_other: bool = True,
    agency: str | None = None,
) -> mdl.Instance:
    """Sub-instance with a filtered station pool (and demand set, when an
    agency is given): the instance with its travel entries restricted to
    surviving pairs, from which it derives its coverage anew.

    Raises :class:`InfeasibleDemandError` when a kept demand point loses all
    of its reachable stations.
    """
    stations = [
        s
        for s in instance.stations
        if (allow_garage if s.is_garage else allow_other)
        and (agency is None or s.agency == agency)
    ]
    demands = [d for d in instance.demand_points if agency is None or d.agency == agency]
    keep_j = {s.id for s in stations}
    keep_i = {d.id for d in demands}
    travel = {(i, j): t for (i, j), t in instance.travel.items() if i in keep_i and j in keep_j}
    return replace(instance, demand_points=demands, stations=stations, travel=travel)


def _agencies(instance: mdl.Instance) -> list[str]:
    labels = {d.agency for d in instance.demand_points}
    if None in labels:
        raise ValueError("separate scenarios need an agency label on every demand point")
    return sorted(labels)


@dataclass(frozen=True)
class ScenarioRow:
    """Aggregated outcome of one scenario."""

    scenario: ScenarioSpec
    feasible: bool
    total_cost: float | None
    stations_active: int | None
    chargers_per_type: dict[int, int] | None
    mean_wait: float | None
    mean_utilization: float | None

    @property
    def label(self) -> str:
        return self.scenario.label


def _deploy(
    instance: mdl.Instance, spec: ScenarioSpec, solve: SolveFn
) -> tuple[mdl.Instance | None, mdl.Solution | None]:
    """One scenario's pool and its solver's deployment, None for either
    that does not exist. Separate mode merges one solve per agency (agency
    station pools are disjoint) and prices it with ``build_solution`` on the
    pool the joint scenario uses, so joint and separate totals compare."""
    pool = None
    try:
        restrict = partial(restrict_instance, instance, allow_garage=spec.allow_garage, allow_other=spec.allow_other)
        pool = restrict()
        if spec.joint:
            return pool, solve(pool).best
        parts = [solve(restrict(agency=agency)).best for agency in _agencies(instance)]
    except (InfeasibleDemandError, InfeasibleError):
        return pool, None
    return pool, build_solution(
        pool,
        mdl.assignment_vector(pool, frozenset().union(*(p.assignments for p in parts))),
        {pair: s for p in parts for pair, s in p.chargers.items()},
        active=frozenset().union(*(p.active for p in parts)),
    )


def _row(spec: ScenarioSpec, pool: mdl.Instance | None, sol: mdl.Solution | None) -> ScenarioRow:
    """The table row of a scenario's deployment on its pool."""
    if sol is None:
        return ScenarioRow(spec, False, None, None, None, None, None)
    loads = mdl.pair_loads(pool, mdl.assignment_vector(pool, sol.assignments))
    per_type = {k.id: 0 for k in pool.charger_types}
    waits, utils = [], []
    for (j, k), s in sorted(sol.chargers.items()):
        if s > 0:
            per_type[k] += s
            waits.append(sol.waits[(j, k)])
            utils.append(loads.get((j, k), 0.0) / (pool.type_by_id[k].service_rate * s))
    return ScenarioRow(
        scenario=spec,
        feasible=True,
        total_cost=sol.cost.total,
        stations_active=len(sol.active),
        chargers_per_type=per_type,
        mean_wait=sum(waits) / len(waits) if waits else 0.0,
        mean_utilization=sum(utils) / len(utils) if utils else 0.0,
    )


def run_scenarios(instance: mdl.Instance, solve: SolveFn) -> list[ScenarioRow]:
    """A row per scenario: the cheapest of its own deployment and those of
    the scenarios it contains (pool X includes pool Y: joint-X contains
    joint-Y and separate-Y, separate-X contains separate-Y), re-priced on its
    pool and kept only if feasible there; a tie keeps its own. So no row
    costs more than one it contains, whatever the solver."""
    specs = scenario_matrix()
    found = {spec: _deploy(instance, spec, solve) for spec in specs}
    rows = []
    for spec in specs:
        pool, best = found[spec]
        for other in specs:
            sol = found[other][1]
            # ``spec`` contains ``other`` when it sets every flag ``other`` sets
            if other == spec or sol is None or any(o > s for o, s in zip(astuple(other), astuple(spec))):
                continue
            sol = build_solution(pool, mdl.assignment_vector(pool, sol.assignments), sol.chargers, active=sol.active)
            if (best is None or sol.cost.total < best.cost.total) and not mdl.check_feasibility(pool, sol):
                best = sol
        rows.append(_row(spec, pool, best))
    return rows


# ---------------------------------------------------------------------------
# Sensitivity sweeps


@dataclass(frozen=True)
class SweepSpec:
    """One-at-a-time sweep of a single model parameter."""

    parameter: str
    multipliers: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
        # comparisons against inf also reject NaN, which fails every comparison
        if not self.multipliers or not all(0 < m < math.inf for m in self.multipliers):
            raise ValueError("multipliers must be positive and finite")


def scale_instance(instance: mdl.Instance, parameter: str, multiplier: float) -> mdl.Instance:
    """Instance with one parameter scaled, all else fixed. Scaling charger
    power rescales the service rates accordingly."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    if parameter == "wait_cost":
        return replace(instance, wait_cost_rate=instance.wait_cost_rate * multiplier)
    if parameter == "station_cost":
        return replace(
            instance,
            stations=tuple(
                replace(s, fixed_cost_rate=s.fixed_cost_rate * multiplier)
                for s in instance.stations
            ),
        )
    if parameter == "charger_cost":
        return replace(
            instance,
            charger_types=tuple(
                replace(k, unit_cost_rate=k.unit_cost_rate * multiplier)
                for k in instance.charger_types
            ),
        )
    if parameter == "charger_power":
        return replace(
            instance,
            charger_types=tuple(
                replace(
                    k,
                    power_kw=k.power_kw * multiplier,
                    recharge_time_min=k.recharge_time_min / multiplier,
                )
                for k in instance.charger_types
            ),
        )
    raise ValueError(f"unknown parameter {parameter!r}")


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    multiplier: float
    total_cost: float
    pct_change: float


def run_sweep(instance: mdl.Instance, sweep: SweepSpec, solve: SolveFn) -> list[SweepRow]:
    """Baseline solve followed by one solve per multiplier; reports the
    percent change of the objective against the baseline."""
    base = solve(instance).best.cost.total
    if base <= 0:
        raise ChargePlanError("baseline objective must be positive for a sweep")
    rows = [SweepRow(sweep.parameter, 1.0, base, 0.0)]
    for m in sweep.multipliers:
        cost = solve(scale_instance(instance, sweep.parameter, m)).best.cost.total
        rows.append(SweepRow(sweep.parameter, m, cost, 100.0 * (cost - base) / base))
    return rows


def charger_count_labels(instance: mdl.Instance) -> dict[int, str]:
    """Column labels for per-type charger totals: slow/fast when there are
    exactly two types, otherwise type ids."""
    kinds = sorted(instance.charger_types, key=lambda k: (k.power_kw, k.id))
    if len(kinds) == 2:
        return {kinds[0].id: "slow", kinds[1].id: "fast"}
    return {k.id: f"type{k.id}" for k in kinds}

