"""Simulated annealing and a genetic algorithm over station-activation space.

Both methods move through subsets of active stations; for each candidate
subset the demand assignment is sampled (closest station, with an exploration
probability of a random one unless the instance enforces proximity), charger
counts are sized optimally for that assignment, and the candidate is priced at
the waits that sizing produced; the assignment is the vector that the exact
searches walk. A run prices through one
:class:`~chargeplan.construction.CandidateContext`, its own or its caller's.
Its memos, each a self-filling :class:`~chargeplan.construction.Memo`, hold
each activation bitmask's coverage, each activation's draw options, each
(station, type, load)'s sizing and each (activation, vector)'s cost and
charger counts (None when unsizable), so a repeated candidate is neither sized
nor summed again; each value is a pure function of its key, so a warm context
changes no course. ``model.cost_totals`` prices a candidate's vector from
per-run coefficient tables, as ``model.evaluate`` prices a reported one, so
every total is the one ``model.evaluate`` gives. Candidates whose sizing is
infeasible cost infinity and are never recorded as incumbents. Only the
reported incumbent becomes a Solution, through
``construction.build_solution``.

SA prices a candidate only when its cost floor cannot decide the
acceptance draw: a floor above the current cost rules out a new best and a
sure acceptance, and a draw that fails against the floor fails against the
cost too, so such a candidate is dropped unsized with the same draw, and
the course is the one that pricing every candidate gives. The GA prices
every child once per distinct (activation, vector), since its admission
rule takes most of them.

A multi-run driver launches independently seeded runs on one context within
one shared time limit and reports the best, plus how many distinct final
objective values the runs produced.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

from . import model as mdl
from . import queueing
from .construction import (
    CandidateContext,
    build_solution,
    cover_sets,
    demand_assignment,
    min_stations,
)
from .errors import SearchGaveUpError, TimeLimitError
from .exact import SolverReport, root_lower_bound

_TEMP_FLOOR = 1e-12
_TOGGLE_LIMIT = 200_000
_NOT_A_PROOF = "that is not a proof of infeasibility: --method bnb decides it"
_FLOOR_SLACK = 1.0 - 1e-9  # far above the rounding of either sum
_UNSIZED = object()  # a key the sizing memo does not hold yet


@dataclass(frozen=True)
class SAParams:
    """Simulated-annealing knobs. ``initial_temperature=None`` scales the
    start temperature to a tenth of the initial objective value; a given
    one must be positive and finite."""

    initial_temperature: float | None = None
    max_iterations: int = 5000
    cooling_factor: float = 0.9
    assignment_randomness: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        # a comparison against inf also rejects NaN, which fails every comparison
        if self.initial_temperature is not None and not 0 < self.initial_temperature < math.inf:
            raise ValueError("initial_temperature must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.cooling_factor <= 1.0:
            raise ValueError("cooling_factor must lie in (0, 1]")
        if not 0.0 <= self.assignment_randomness <= 1.0:
            raise ValueError("assignment_randomness must lie in [0, 1]")


@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm knobs."""

    population_size: int = 30
    tournament_fraction: float = 0.3
    assignment_randomness: float = 0.1
    max_iterations: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 < self.tournament_fraction <= 1.0:
            raise ValueError("tournament_fraction must lie in (0, 1]")
        if not 0.0 <= self.assignment_randomness <= 1.0:
            raise ValueError("assignment_randomness must lie in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def _price(vector: list[tuple[int, int]], active: frozenset[int], context: CandidateContext):
    """(cost, (vector, chargers)) of ``vector`` with ``active`` open, the
    cost ``build_solution`` would give, from the run's price memo; (inf,
    None) when it cannot be sized. The pair holds the caller's ``vector``."""
    priced = context.prices[(active, tuple(vector))]
    if priced is None:
        return math.inf, None
    return priced[0], (vector, priced[1])


def _floor(instance: mdl.Instance, vector: list[tuple[int, int]], active: frozenset[int],
           context: CandidateContext) -> float:
    """A lower bound on :func:`_price`'s cost for the same candidate, sized
    only where the run's memo already holds a pair: the activation's fixed
    costs, the vector's travel, each memoized pair's sized cost, and
    c_k * s_min + load * c_w / mu_k for every other pair. A sized pair costs
    at least that, since its count is at least s_min and its wait at least
    one service time, and no rate or cost is negative. It is inf exactly when
    the cost is (a memoized None, or s_min above the cap), and the slack
    keeps rounding from lifting it above the computed price."""
    fixed, _, travel_of, _, by_id = context.tables
    floor = sum(map(fixed.__getitem__, active), 0.0)
    for i, r in by_id:
        floor += travel_of[(i, vector[r][0])]
    sized_of = context.sizer._memo.get
    for (j, k), load in mdl.pair_loads(instance, vector).items():
        sized = sized_of((j, k, load), _UNSIZED)
        if sized is _UNSIZED:
            kt = instance.type_by_id[k]
            s = queueing.min_chargers(load, kt.service_rate, instance.epsilon)
            if s > instance.station_cap(j, k):
                return math.inf
            floor += kt.unit_cost_rate * s + load * instance.wait_cost_rate * kt.recharge_time_min
        elif sized is None:
            return math.inf
        else:
            floor += sized[2]
    return floor * _FLOOR_SLACK


def _try_candidate(instance: mdl.Instance, active: frozenset[int], randomness: float, rng: random.Random,
                   context: CandidateContext):
    """Sample an assignment for an activation set and price it with the run's
    ``context``."""
    return _price(demand_assignment(instance, active, randomness, rng, context), active, context)


def _report(
    instance: mdl.Instance,
    incumbent: tuple[list[tuple[int, int]], dict[tuple[int, int], int]],
    iterations: int,
    time_to_best: float,
    terminated: str,
    stats: dict,
) -> SolverReport:
    """Report the incumbent (vector, chargers) re-priced with only its used
    stations open (idle activations only add cost), against the floor."""
    best = build_solution(instance, *incumbent)
    total = best.cost.total
    lower = min(root_lower_bound(instance), total)
    return SolverReport(
        best=best,
        lower_bound=lower,
        upper_bound=total,
        nodes_explored=iterations,
        cuts_added=0,
        time_to_best=time_to_best,
        terminated_by=terminated,
        stats=stats,
    )


def simulated_annealing(
    instance: mdl.Instance,
    params: SAParams,
    time_limit: float | None = None,
    *,
    context: CandidateContext | None = None,
) -> SolverReport:
    """Station-toggling SA with Metropolis acceptance and linear cooling.

    Starts from the greedy minimum cover. Each iteration flips one random
    station (re-flipping until the activation covers every demand) and
    samples an assignment.
    Improvements over the incumbent are always kept; otherwise the candidate
    replaces the current state with probability exp((current - new) / T).
    The chargers are sized only when :func:`_floor` cannot decide that draw:
    a candidate whose floor lies above the current cost takes its draw
    first and is dropped unsized when the draw fails against the floor.
    The temperature follows T *= (1 - C * T0 / L) clamped at a tiny floor.
    ``time_limit`` bounds the walk to a first stable sizing as well; when it
    runs out there, :class:`TimeLimitError` is raised. With no ``context``
    the run builds its own.
    """
    t0 = time.perf_counter()
    rng = random.Random(params.seed)
    context = CandidateContext(instance) if context is None else context
    bits, getrandbits, covering = context.bits, rng.getrandbits, context.covering
    covered = covering.get  # on a hit, faster than a dict-subclass subscript
    n_bits, width = len(bits), len(bits).bit_length()

    def walk_to_feasible(mask: int) -> tuple[int, frozenset[int]]:
        """One random toggle from ``mask``, repeated until the activation
        covers every demand (the first flip may be undone); each draw is
        ``rng.choice(bits)``'s, inline."""
        for _ in range(_TOGGLE_LIMIT + 1):
            x = getrandbits(width)
            while x >= n_bits:
                x = getrandbits(width)
            mask ^= bits[x]
            active = covered(mask)
            if active is None:
                active = covering[mask]
            if active:
                return mask, active
        raise SearchGaveUpError(
            f"simulated annealing's random walk made {_TOGGLE_LIMIT + 1} station toggles without reaching "
            f"an activation that covers every demand; {_NOT_A_PROOF}"
        )

    current = frozenset(min_stations(instance))
    cur_mask = context.mask(current)
    cur_cost, cur_sol = _try_candidate(instance, current, params.assignment_randomness, rng, context)
    retries = 0
    while cur_sol is None:
        # the greedy cover admits no stable sizing for this draw; keep
        # walking activation space until one sizes, within the time limit
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            raise TimeLimitError(f"time limit {time_limit:g} s ran out before any activation admitted a stable sizing")
        retries += 1
        if retries > 1000:
            raise SearchGaveUpError(
                "simulated annealing tried the greedy cover and 1000 activations its random walk reached, "
                f"and none admitted a stable charger sizing; {_NOT_A_PROOF}"
            )
        cur_mask, current = walk_to_feasible(cur_mask)
        cur_cost, cur_sol = _try_candidate(instance, current, params.assignment_randomness, rng, context)

    best_sol, best_cost = cur_sol, cur_cost
    time_to_best = time.perf_counter() - t0
    temp0 = params.initial_temperature if params.initial_temperature is not None else 0.1 * cur_cost
    temp = max(temp0, _TEMP_FLOOR)
    factor = 1.0 - params.cooling_factor * temp0 / params.max_iterations
    clamp_events = 0
    trace: list[tuple[int, float]] = [(0, best_cost)]
    iterations = 0
    terminated = "optimality"

    # no station means no demand and nothing to toggle: the start is the answer
    for it in range(1, params.max_iterations + 1 if bits else 1):
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            terminated = "time"
            break
        iterations = it
        cand_mask, cand = walk_to_feasible(cur_mask)
        vector = demand_assignment(instance, cand, params.assignment_randomness, rng, context)
        floor = _floor(instance, vector, cand, context)
        if floor > cur_cost:
            # neither a new best nor <= current (best <= current always), so
            # the acceptance draw is taken at once, and a draw that already
            # fails against the floor needs no price
            u = rng.random()
            if u < math.exp((cur_cost - floor) / temp):
                cand_cost, _ = _price(vector, cand, context)
                if u < math.exp((cur_cost - cand_cost) / temp):
                    cur_mask, cur_cost = cand_mask, cand_cost
        else:
            cand_cost, cand_sol = _price(vector, cand, context)
            if cand_cost < best_cost:
                best_sol, best_cost = cand_sol, cand_cost
                cur_mask, cur_cost = cand_mask, cand_cost
                time_to_best = time.perf_counter() - t0
                trace.append((it, best_cost))
            elif cand_cost <= cur_cost or rng.random() < math.exp((cur_cost - cand_cost) / temp):
                cur_mask, cur_cost = cand_mask, cand_cost  # cand_cost may be inf; exp(-inf) is a clean 0
        temp *= factor
        if temp < _TEMP_FLOOR:
            temp = _TEMP_FLOOR
            clamp_events += 1

    return _report(
        instance, best_sol, iterations, time_to_best, terminated,
        {"clamp_events": clamp_events, "incumbent_trace": trace},
    )


@dataclass
class _Chromosome:
    mask: int
    active: frozenset[int]
    cost: float
    priced: tuple[list[tuple[int, int]], dict[tuple[int, int], int]] | None  # (vector, chargers) unless inf


def _two_best(pool: list[int], costs: list[float]) -> tuple[int, int]:
    """The first two of ``pool`` sorted by (``costs[i]``, i), in one pass; a
    pool of one gives its entry twice."""
    first = second = None
    for i in pool:
        key = (costs[i], i)
        if first is None or key < first:
            first, second = key, first
        elif second is None or key < second:
            second = key
    return first[1], (second or first)[1]


def _inherit(vector: list[tuple[int, int]], p1: _Chromosome, p2: _Chromosome, first_half: set[int]) -> None:
    """Give each demand of the child ``vector`` the pair of its parent (``p1``
    on ``first_half``, else ``p2``) where that parent routed it to the same
    station, in place; a parent priced inf passes nothing on."""
    first, second = (p.priced[0] if p.priced else () for p in (p1, p2))
    for r, (j, _) in enumerate(vector):
        parent = first if j in first_half else second
        if parent and parent[r][0] == j:
            vector[r] = parent[r]


def genetic_algorithm(
    instance: mdl.Instance,
    params: GAParams,
    time_limit: float | None = None,
    *,
    context: CandidateContext | None = None,
) -> SolverReport:
    """Cover-set GA: tournament selection, positional crossover, coverage
    repair, parental charger-type inheritance, and worst-replacement.

    The initial population consists of minimum (or minimum plus one) covers.
    Crossover copies the activation genes of parent 1 for the first half of
    the station ordering and of parent 2 for the rest; uncovered offspring
    activate random stations until they cover. A child takes, by position,
    a parent's pair wherever that parent routed the demand to the same
    station. An offspring replaces the worst chromosome unless it is strictly
    worse, in which case it still does so with probability worst/new.

    ``time_limit`` also bounds the cover search; when it runs out there, the
    report's stats carry ``cover_search_cut`` and the run stops before its
    first generation. It bounds the pricing of the initial population too:
    past the deadline, pricing stops once one chromosome has a finite cost,
    and ``population_size`` in the stats counts the chromosomes priced.
    With no ``context`` the run builds its own; a context keeps, by
    population size, the cover list of a search no deadline cut, and a later
    run on it reuses the list in place of searching again.
    """
    t0 = time.perf_counter()
    rng = random.Random(params.seed)
    context = CandidateContext(instance) if context is None else context
    covering, bits = context.covering, context.bits
    station_order = [s.id for s in instance.stations]
    first_half = set(station_order[: len(station_order) // 2])
    first_mask = context.mask(first_half)

    deadline = None if time_limit is None else t0 + time_limit
    covers = context.covers.get(params.population_size)
    stats = {}
    if covers is None:
        covers = cover_sets(instance, params.population_size, deadline)
        if deadline is not None and time.perf_counter() > deadline:
            stats["cover_search_cut"] = True
        else:
            context.covers[params.population_size] = covers
    population: list[_Chromosome] = []
    idx = 0
    priced = False  # some chromosome has a finite cost
    while len(population) < params.population_size:
        if priced and deadline is not None and time.perf_counter() > deadline:
            break
        # fewer distinct covers than N: cycle them with fresh assignment
        # draws so the initial charger-type patterns stay diverse
        active = frozenset(covers[idx % len(covers)])
        idx += 1
        cost, sol = _try_candidate(instance, active, params.assignment_randomness, rng, context)
        population.append(_Chromosome(context.mask(active), active, cost, sol))
        priced = priced or sol is not None
    costs = [c.cost for c in population]  # kept in step with the population

    incumbent = min(population, key=lambda c: (c.cost, sorted(c.active)))
    best_sol, best_cost = incumbent.priced, incumbent.cost
    time_to_best = time.perf_counter() - t0
    iterations = 0
    terminated = "optimality"

    # no station means no demand and no other child: the start is the answer
    indices = range(len(population))
    pool_size = min(max(2, math.ceil(params.tournament_fraction * len(population))), len(population))
    for it in range(1, params.max_iterations + 1 if bits else 1):
        if deadline is not None and time.perf_counter() > deadline:
            terminated = "time"
            break
        iterations = it

        i1, i2 = _two_best(rng.sample(indices, pool_size), costs)
        p1, p2 = population[i1], population[i2]

        mask = (p1.mask & first_mask) | (p2.mask & ~first_mask)
        child = covering[mask]
        if not child:
            inactive = [b for b in bits if not mask & b]
            while not child and inactive:
                mask |= inactive.pop(rng.randrange(len(inactive)))
                child = covering[mask]

        vector = demand_assignment(instance, child, params.assignment_randomness, rng, context)
        _inherit(vector, p1, p2, first_half)
        child_cost, child_sol = _price(vector, child, context)

        # the last of the costliest, as a (cost, index) maximum picks it
        worst_cost = max(costs)
        worst_idx = len(costs) - 1 - costs[::-1].index(worst_cost)
        if child_cost < best_cost:
            best_sol, best_cost = child_sol, child_cost
            time_to_best = time.perf_counter() - t0
            admit = True
        elif child_cost > worst_cost:
            # worst_cost is finite and child_cost > 0 here; an inf child gets 0.0
            admit = rng.random() < worst_cost / child_cost
        else:
            admit = True
        if admit:
            population[worst_idx] = _Chromosome(mask, child, child_cost, child_sol)
            costs[worst_idx] = child_cost

    if best_sol is None:
        if terminated == "time":
            raise TimeLimitError(f"time limit {time_limit:g} s ran out before any cover admitted a stable sizing")
        raise SearchGaveUpError(
            f"the genetic algorithm tried {len(population)} initial candidates and {iterations} children, "
            f"and none admitted a stable charger sizing; {_NOT_A_PROOF}"
        )
    return _report(
        instance, best_sol, iterations, time_to_best, terminated,
        {"population_size": len(population), **stats},
    )


def multi_run(
    instance: mdl.Instance,
    method: str,
    params: SAParams | GAParams,
    n_runs: int,
    time_limit: float | None = None,
) -> SolverReport:
    """Launch ``n_runs`` independent runs seeded ``params.seed`` + 0..n-1 and
    report the cheapest. Runs share the instance and one
    :class:`CandidateContext`, dropped on return, and each gives what a run
    on a fresh context gives, so they may execute in any order; they are
    executed sequentially here for exact reproducibility of the aggregate.
    ``time_limit`` bounds all the runs together: each run gets what is left of it when it starts, and once
    nothing is left no further run starts. A run that runs out of time
    before any deployment (:class:`TimeLimitError`) ends the loop; the runs
    already made are reported, and with none the error propagates.

    The report's ``stats`` add ``run_costs`` (each run's objective),
    ``distinct_objectives`` (distinct values among them to nine significant
    digits, whatever the unit of cost) and ``n_runs``, the number of runs.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if method not in ("sa", "ga"):
        raise ValueError("method must be 'sa' or 'ga'")
    solve = simulated_annealing if method == "sa" else genetic_algorithm
    context = CandidateContext(instance)
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    reports = []
    for r in range(n_runs):
        left = None if deadline is None else deadline - time.perf_counter()
        if reports and left is not None and left <= 0.0:
            break
        try:
            reports.append(solve(instance, replace(params, seed=params.seed + r), left, context=context))
        except TimeLimitError:
            if not reports:
                raise
            break
    best = min(reports, key=lambda rep: rep.upper_bound)
    costs = [r.upper_bound for r in reports]
    stats = dict(best.stats)
    stats.pop("incumbent_trace", None)
    stats.update(
        {"run_costs": costs, "distinct_objectives": len({f"{c:.9g}" for c in costs}), "n_runs": len(costs)}
    )
    return replace(best, stats=stats)
