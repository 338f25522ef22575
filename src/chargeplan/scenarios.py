"""Deployment-scenario matrix and one-at-a-time sensitivity sweeps.

Scenarios cross two ownership modes (joint: agencies share stations;
separate: each agency deploys on its own labeled stations) with three
station-pool regimes (garages only, non-garages only, both). Separate mode
solves one sub-instance per agency and sums the costs. The joint mixed-pool
scenario is the baseline every row is compared against; ``scenario_table``
writes the rows as the scenario CSV.
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

# each sweep parameter and how it scales an instance, all else fixed;
# scaling charger power rescales the service rates with it
_SCALINGS: dict[str, Callable[[mdl.Instance, float], mdl.Instance]] = {
    "wait_cost": lambda inst, m: replace(inst, wait_cost_rate=inst.wait_cost_rate * m),
    "charger_power": lambda inst, m: replace(inst, charger_types=tuple(
        replace(k, power_kw=k.power_kw * m, recharge_time_min=k.recharge_time_min / m) for k in inst.charger_types
    )),
    "station_cost": lambda inst, m: replace(inst, stations=tuple(
        replace(s, fixed_cost_rate=s.fixed_cost_rate * m) for s in inst.stations
    )),
    "charger_cost": lambda inst, m: replace(inst, charger_types=tuple(
        replace(k, unit_cost_rate=k.unit_cost_rate * m) for k in inst.charger_types
    )),
}
SWEEP_PARAMETERS = tuple(_SCALINGS)


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
    """One scenario's pool and its deployment there, None for either that
    does not exist."""

    scenario: ScenarioSpec
    pool: mdl.Instance | None
    deployment: mdl.Solution | None

    @property
    def label(self) -> str:
        return self.scenario.label

    @property
    def feasible(self) -> bool:
        return self.deployment is not None

    @property
    def total_cost(self) -> float | None:
        return None if self.deployment is None else self.deployment.cost.total


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
        rows.append(ScenarioRow(spec, pool, best))
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
    """Instance with one parameter of :data:`SWEEP_PARAMETERS` scaled, all
    else fixed."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    if parameter not in _SCALINGS:
        raise ValueError(f"unknown parameter {parameter!r}")
    return _SCALINGS[parameter](instance, multiplier)


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


def scenario_table(instance: mdl.Instance, rows: list[ScenarioRow]) -> tuple[list[str], list[list]]:
    """The scenario CSV's header and a line per row of :func:`run_scenarios`,
    whose last row, the joint-mixed baseline, must be feasible at a positive
    cost. A feasible row gives its cost, its percent over the baseline, its
    active stations, its chargers per type, and its mean wait and
    utilization over equipped pairs; an infeasible row is blank after its
    status."""
    # per-type charger columns: slow/fast when there are exactly two types, otherwise type ids
    kinds = sorted(instance.charger_types, key=lambda k: (k.power_kw, k.id))
    names = {kinds[0].id: "slow", kinds[1].id: "fast"} if len(kinds) == 2 else {k.id: f"type{k.id}" for k in kinds}
    type_ids = sorted(names)
    header = (
        ["scenario", "joint", "garage", "other", "status", "total_cost", "pct_increase_vs_baseline", "stations"]
        + [f"chargers_{names[k]}" for k in type_ids]
        + ["mean_wait_min", "mean_utilization"]
    )
    base = rows[-1].total_cost
    table = []
    for r in rows:
        line = [r.label, int(r.scenario.joint), int(r.scenario.allow_garage), int(r.scenario.allow_other)]
        pool, sol = r.pool, r.deployment
        if sol is None:
            table.append(line + ["infeasible"] + [""] * (len(header) - len(line) - 1))
            continue
        loads = mdl.pair_loads(pool, mdl.assignment_vector(pool, sol.assignments))
        per_type = dict.fromkeys(type_ids, 0)
        waits, utils = [], []
        for (j, k), s in sorted(sol.chargers.items()):
            if s > 0:
                per_type[k] += s
                waits.append(sol.waits[(j, k)])
                utils.append(loads.get((j, k), 0.0) / (pool.type_by_id[k].service_rate * s))
        table.append(
            line
            + ["ok", sol.cost.total, 100.0 * (sol.cost.total - base) / base, len(sol.active)]
            + [per_type[k] for k in type_ids]
            + [sum(waits) / len(waits) if waits else 0.0, sum(utils) / len(utils) if utils else 0.0]
        )
    return header, table
