"""Exact optimization: exhaustive oracle and cut-tightened branch-and-bound.

Both solvers search over assignment vectors only. For a fixed assignment the
remaining decisions are determined: active stations are exactly those with
traffic (idle activations only add cost), charger counts come from the convex
per-pair sizing rule, and waits sit at their steady-state values. The
branch-and-bound assigns demands in descending-rate order, bounds partial
assignments with travel and service-time floors, and tightens the waiting
floors with exact tangent lines of the convex delay factor taken at every
incumbent. Each pair's waiting floor depends only on its load and on the cuts
of that pair, so the search memoizes it per pair by load, in a
:class:`~chargeplan.construction.Memo` that a cut added to that pair clears in
place, and prices leaves from a like table of sized costs. A node carries its
station sum and the sum of its pair floors, and an expanded node bounds each
child in O(1) without building it: the child's floor sum is the parent's with
the moved pair's old floor replaced by its new one. An open node is stored as
(parent node, pair, floor sum) and rebuilt from its parent when popped; it is
bounded again, from a fresh sum, only if a cut was added after its parent's
expansion, since no floor can change otherwise. A node's children are bounded
only until the incumbent rules out the rest: its options are walked cheapest
myopic cost first, and each child's bound is at least the node's station and
floor sums plus the option's committed cost and the suffix floor, a sum that
grows with the myopic cost, since floors are nonnegative and nondecreasing in
load and a station sum only grows when a station opens. Once that sum reaches
the incumbent, no later child can be kept. The children of a node with one
demand left are leaves, and the same walk prices each in O(1) from one sum of
the node's sized pair costs, stops at the best price found so far, and returns
only the cheapest leaf priced below the incumbent, which is built, priced again
and registered. So no leaf enters the heap, and the node count counts no leaf.
The prune margin is relative, so the unit of cost does not move the search. A
bound of ``inf`` means the node has no stable completion.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import model as mdl
from . import queueing
from .construction import Memo, _PairSizer, best_chargers, build_solution
from .errors import InfeasibleError, InstanceTooLargeError, TimeLimitError

# prune at the incumbent shrunk by this factor, so the unit of cost moves nothing
_PRUNE_FACTOR = 1.0 - 1e-11
# an optimistic child bound is shrunk by this factor before it stops the walk
# of :meth:`_TreeSearch._children`, so that the rounding of a carried floor
# sum (a few ulps) cannot stop it before a child bounded, or a leaf priced,
# below the limit or the best price so far
_LIMIT_SLACK = 1.0 - 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the exact searches."""

    gap_threshold: float = 0.0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.gap_threshold < 1.0:
            raise ValueError("gap_threshold must lie in [0, 1)")
        if self.time_limit is not None and not 0.0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be None or lie in (0, inf)")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve: incumbent, bound certificate, and search stats."""

    best: mdl.Solution | None
    lower_bound: float
    upper_bound: float
    nodes_explored: int = 0
    cuts_added: int = 0
    time_to_best: float = 0.0
    terminated_by: str = "optimality"  # optimality | gap | time
    stats: Mapping[str, object] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """:func:`report_gap` of the bounds, so no solver stores its own."""
        return report_gap(self.lower_bound, self.upper_bound)


def report_gap(lower: float, upper: float) -> float:
    """The gap of a report's nonnegative bounds: 1 - lower/upper when both
    are positive, else 0 when they are equal and 1 (nothing proven) if not."""
    if lower > 0 and upper > 0:
        return max(0.0, 1.0 - lower / upper)
    return 0.0 if lower == upper else 1.0


def root_lower_bound(instance: mdl.Instance) -> float:
    """Cheap valid bound: each demand's cheapest travel+service option (the
    per-demand floor branch-and-bound uses) plus one station and one charger
    somewhere."""
    if not instance.demand_points:
        return 0.0
    floor = 0.0
    for d in instance.demand_points:
        floor += _choices_for(instance, d)[0][2]
    floor += min(s.fixed_cost_rate for s in instance.stations)
    floor += min(k.unit_cost_rate for k in instance.charger_types)
    return floor


def _choices_for(instance: mdl.Instance, d: mdl.DemandPoint) -> list[tuple[int, int, float]]:
    """(station, type, myopic travel+service cost) options, cheapest first."""
    opts = []
    for j in d.reachable:
        for k in instance.charger_types:
            myopic = d.rate * (
                instance.travel_cost_rate * instance.travel[(d.id, j)]
                + instance.wait_cost_rate / k.service_rate
            )
            opts.append((j, k.id, myopic))
    opts.sort(key=lambda o: (o[2], o[0], o[1]))
    return opts


def _solution(instance: mdl.Instance, path: Sequence[tuple[int, int]], sizer: _PairSizer) -> mdl.Solution:
    """The deployment of a full path, sized by the search's ``sizer``."""
    return build_solution(instance, path, best_chargers(instance, path, sizer)[0])


def brute_force(
    instance: mdl.Instance,
    *,
    leaf_cap: float = 2e7,
) -> SolverReport:
    """Exhaustive enumeration of every assignment vector; the reference
    oracle for everything else. Gap is exactly zero on success."""
    t0 = time.perf_counter()
    demands = instance.demand_order
    choices = [_choices_for(instance, d) for d in demands]
    n_leaves = 1.0
    for c in choices:
        n_leaves *= len(c)
    if n_leaves > leaf_cap:
        raise InstanceTooLargeError(f"{n_leaves:.3g} assignment vectors exceed the cap {leaf_cap:.3g}")

    sizer = _PairSizer(instance)
    n = len(demands)
    rates = [d.rate for d in demands]
    ids = [d.id for d in demands]

    loads: dict[tuple[int, int], float] = {}
    picked: list[tuple[int, int]] = [(-1, -1)] * n
    best_cost = math.inf
    best_picked: list[tuple[int, int]] | None = None
    station_cost = {s.id: s.fixed_cost_rate for s in instance.stations}

    def leaf(travel_acc: float) -> None:
        nonlocal best_cost, best_picked
        cost = travel_acc
        stations_seen: set[int] = set()
        for (j, k), load in loads.items():
            sized = sizer.best(j, k, load)
            if sized is None:
                return
            cost += sized[2]
            if j not in stations_seen:
                stations_seen.add(j)
                cost += station_cost[j]
        if instance.enforce_proximity:
            for d in range(n):
                if mdl.closer_active(instance, ids[d], picked[d][0], stations_seen) is not None:
                    return
        if cost < best_cost:
            best_cost = cost
            best_picked = picked.copy()

    def rec(d: int, travel_acc: float) -> None:
        if d == n:
            leaf(travel_acc)
            return
        lam = rates[d]
        i = ids[d]
        for (j, k, _) in choices[d]:
            key = (j, k)
            old_load = loads.get(key)
            loads[key] = (old_load or 0.0) + lam
            picked[d] = (j, k)
            rec(d + 1, travel_acc + lam * instance.travel_cost_rate * instance.travel[(i, j)])
            if old_load is None:
                del loads[key]
            else:
                loads[key] = old_load

    rec(0, 0.0)
    if best_picked is None:
        raise InfeasibleError("no assignment vector admits stable queues within capacity")

    solution = _solution(instance, best_picked, sizer)
    total = solution.cost.total
    return SolverReport(
        best=solution,
        lower_bound=total,
        upper_bound=total,
        nodes_explored=int(n_leaves),
        time_to_best=time.perf_counter() - t0,
        terminated_by="optimality",
    )


class _Node:
    """One partial assignment: the (station, type) pair of each demand in
    search order, and the sums that bounding and leaf pricing read from it.
    A node is the root or :meth:`_TreeSearch._child` of its parent, so its
    sums are accumulated in path order however it was reached. The path
    follows ``instance.demand_order``, so a full path is an assignment
    vector and its loads equal :func:`model.pair_loads`' bit for bit.
    ``station_sum`` is the parent's, or the new set's ``station_sums`` entry
    when its step opens a station. ``floor_sum`` is the sum of its pair
    floors: set by :meth:`node_bound`, or taken from the parent's
    :meth:`_TreeSearch._children` when popped. A full path, a leaf that
    :meth:`_TreeSearch._children` returns with floor sum None, is built only
    to be registered as an incumbent, so no leaf enters the heap."""

    __slots__ = ("path", "loads", "stations", "station_sum", "committed", "travel", "cuts", "floor_sum")

    def __init__(self) -> None:
        self.path: tuple[tuple[int, int], ...] = ()
        self.loads: dict[tuple[int, int], float] = {}
        self.stations: frozenset[int] = frozenset()
        self.station_sum = 0.0  # the stations' fixed cost, summed in id order
        self.committed = 0.0  # travel + service-time cost of the assigned demands
        self.travel = 0.0  # travel cost of the assigned demands
        self.cuts = -1  # the search's cut count when this node was expanded
        self.floor_sum = 0.0


class _TreeSearch:
    """Best-first branch-and-bound over per-demand assignment choices.

    A heap entry is (bound, sequence number, parent node, pair, floor sum):
    the open node is the parent's :meth:`_child` by that pair, rebuilt when
    popped with the floor sum :meth:`_children` gave it, so a parent stays
    alive until its last child is popped. Its bound is the one
    :meth:`_children` gave it when the parent was expanded, equal to its
    :meth:`node_bound` at that moment up to the rounding of the carried sum.
    ``floors[(j, k)][load]``, a :class:`~chargeplan.construction.Memo` per
    pair, is :meth:`pair_floor_extra` at that load, ``inf`` included,
    ``sized[(j, k)][load]`` the sizer's charger and waiting cost at a stable
    load, and ``station_sums`` memoizes each station set's fixed cost in id
    order. A pair's floor reads only the cuts keyed by that pair, so
    :meth:`_cuts_at_incumbent` clears the pair's memo in place when it adds
    one, and a memoized floor always equals a fresh call. So while no cut is
    added no floor, and so no bound or floor sum, can change: a parent records
    the cut count when it is expanded, and a popped node is bounded again,
    from a fresh sum, only if the count grew. A node's carried sum is
    therefore the sum of the floors it holds whenever it is expanded.

    An expansion bounds children only until the incumbent rules out the rest:
    :meth:`_children` gets ``upper * _PRUNE_FACTOR`` and stops at the first
    option, in ascending myopic cost, whose optimistic bound reaches it, since
    every later child's bound is at least as large. At the last depth the same
    walk prices each leaf, stops at the best price so far and returns at most
    the cheapest leaf priced below the limit, with floor sum None; the search
    builds and registers it and pushes every other child. So no leaf enters
    the heap, and ``nodes_explored`` counts the nodes expanded, none of them a
    leaf. The greedy dive that gives the first incumbent follows each
    expansion's first child down to a leaf. ``steps`` is the option table that
    :meth:`_children` and :meth:`_child` read, :meth:`_children` being its
    only walk; a row holds the pair's ``floors`` and ``sized`` tables
    themselves, so a cut must clear a memo, not replace it."""

    def __init__(self, instance: mdl.Instance, config: SolverConfig):
        self.instance = instance
        self.config = config
        self.demands = instance.demand_order
        self.n = len(self.demands)
        # each (station, type) pair: (service rate, charger cap, unit cost)
        self.pair_params = {
            (s.id, k.id): (k.service_rate, instance.station_cap(s.id, k.id), k.unit_cost_rate)
            for s in instance.stations
            for k in instance.charger_types
        }
        self.station_cost = {s.id: s.fixed_cost_rate for s in instance.stations}
        self.sizer = _PairSizer(instance)
        # cut pool: (station, type, servers) -> list of (intercept, slope)
        self.cuts: dict[tuple[int, int, int], list[tuple[float, float]]] = {}
        self.cut_keys: set[tuple[int, int, int, float]] = set()
        # per pair: load -> floor, and load -> sized charger and wait cost
        self.floors = {pair: Memo(functools.partial(self.pair_floor_extra, *pair)) for pair in self.pair_params}
        self.sized = {pair: Memo(lambda load, pair=pair: self.sizer.best(*pair, load)[2]) for pair in self.pair_params}
        self.station_sums = Memo(lambda stations: sum(map(self.station_cost.__getitem__, sorted(stations))))
        # the option table: per depth, each reachable pair, cheapest myopic
        # cost first -> (rate, committed increment, travel increment, the
        # pair's largest stable load, its station's fixed cost, its floor
        # and sized-cost tables); a choice's myopic cost is its committed
        # increment
        tcr = instance.travel_cost_rate
        capacity = {
            pair: queueing.capacity(mu, cap, instance.epsilon) for pair, (mu, cap, _) in self.pair_params.items()
        }
        self.steps = [
            {
                (j, k): (d.rate, myopic, d.rate * tcr * instance.travel[(d.id, j)], capacity[(j, k)],
                         self.station_cost[j], self.floors[(j, k)], self.sized[(j, k)])
                for (j, k, myopic) in _choices_for(instance, d)
            }
            for d in self.demands
        ]
        # cheapest committed cost of the demands from each depth on
        self.suffix = [0.0] * (self.n + 1)
        for d in range(self.n - 1, -1, -1):
            self.suffix[d] = self.suffix[d + 1] + min((row[1] for row in self.steps[d].values()), default=0.0)

    # -- cut plumbing ------------------------------------------------------

    def _cuts_at_incumbent(self, loads: Mapping[tuple[int, int], float], chargers: Mapping[tuple[int, int], int]) -> None:
        """Add the tangent line of each equipped pair's delay factor at the
        incumbent's utilization, once per (pair, servers, anchor), and clear
        in place the floor memo of each pair that gains a cut."""
        for (j, k), s in sorted(chargers.items()):
            load = loads.get((j, k), 0.0)
            if s < 1 or load <= 0:
                continue
            rho = load / (self.pair_params[(j, k)][0] * s)
            key = (j, k, s, round(rho, 9))
            if 0.0 < rho < 1.0 and key not in self.cut_keys:
                self.cut_keys.add(key)
                self.cuts.setdefault((j, k, s), []).append(queueing.tangent_cut(rho, s))
                self.floors[(j, k)].clear()

    # -- node state --------------------------------------------------------

    def _child(self, parent: _Node, pair: tuple[int, int]) -> _Node:
        """A new node that extends ``parent``: its next demand goes to
        ``pair``, a (station, type) tuple the child's path holds itself.
        The parent's station set and sum are kept when the pair's is open."""
        rate, committed, travel, _, _, _, _ = self.steps[len(parent.path)][pair]
        node = _Node.__new__(_Node)
        node.path = parent.path + (pair,)
        node.loads = dict(parent.loads)
        node.loads[pair] = node.loads.get(pair, 0.0) + rate
        stations = parent.stations
        if pair[0] in stations:
            node.stations, node.station_sum = stations, parent.station_sum
        else:
            node.stations = stations = stations | {pair[0]}
            node.station_sum = self.station_sums[stations]
        node.committed = parent.committed + committed
        node.travel = parent.travel + travel
        return node

    # -- bounding ----------------------------------------------------------

    def pair_floor_extra(self, j: int, k: int, load: float) -> float:
        """Lower bound on charger cost plus committed waiting cost beyond the
        service-time floor, minimized over every admissible charger count:
        ``inf`` when no count up to the cap is admissible. It reads the
        pair's cuts, so :meth:`node_bound` memoizes it per pair only until
        the pair's next cut."""
        mu, cap, unit = self.pair_params[(j, k)]
        smin = queueing.min_chargers(load, mu, self.instance.epsilon)
        c_wait = load * self.instance.wait_cost_rate
        best = math.inf
        for s in range(smin, cap + 1):
            base = unit * s
            if base >= best:
                break
            extra = 0.0
            ms = mu * s
            for (a, b) in self.cuts.get((j, k, s), ()):
                extra = max(extra, a / ms + b * load / (ms * ms))
            best = min(best, base + c_wait * extra)
        return best

    def node_bound(self, node: _Node) -> float:
        """Valid lower bound on every completion of a partial assignment:
        committed station costs, per-pair charger/wait floors, committed
        travel+service cost, and per-demand floors for the rest. ``inf``
        when some committed pair is already beyond capacity, so that no
        completion exists. The floors are summed afresh, one at a time in
        pair order (``sum`` may compensate its rounding on newer Pythons),
        into ``node.floor_sum``, which the node's children start from."""
        floor_sum, floors = 0.0, self.floors
        for pair, load in sorted(node.loads.items()):
            floor_sum += floors[pair][load]
        node.floor_sum = floor_sum
        return node.station_sum + node.committed + self.suffix[len(node.path)] + floor_sum

    # -- leaf evaluation ---------------------------------------------------

    def leaf_cost(self, node: _Node) -> tuple[float, dict[tuple[int, int], int]] | None:
        """The cost of a full assignment and the charger count of each of
        its pairs: travel, the station sum, and each pair's sized charger
        and waiting cost, summed in pair order. None when some pair cannot be
        stabilized within its cap. It prices every incumbent, so the upper
        bound is always its float."""
        cost = node.travel + node.station_sum
        chargers: dict[tuple[int, int], int] = {}
        for (j, k), load in sorted(node.loads.items()):
            sized = self.sizer.best(j, k, load)
            if sized is None:
                return None
            chargers[(j, k)] = sized[0]
            cost += sized[2]
        return cost, chargers

    # -- search ------------------------------------------------------------

    def _children(self, node: _Node, limit: float = math.inf) -> list[tuple[tuple[int, int], float, float | None]]:
        """The children of a node that can still beat ``limit``, cheapest
        myopic cost first, each as (pair, bound, floor sum) of the child it
        makes, without building it; the bound is at most the cost of every
        leaf below the child. Below the last depth the child's floor sum is
        the node's ``floor_sum`` plus the new pair's floor, less the pair's
        old floor if the node holds it, and its bound is its head plus that
        sum, as :meth:`node_bound` of the child would give up to rounding;
        it is finite, since every child's load is within its pair's capacity.

        At the last depth a child is a leaf, and its bound is its price, in
        O(1) from one sum per node: the node's travel plus the sized cost of
        each of its pairs, less the moved pair's old sized cost, plus its new
        one, the travel increment and the leaf's station sum. That is
        :meth:`leaf_cost` of the leaf up to rounding, and a load within its
        pair's capacity can always be sized. At most the cheapest leaf priced
        below ``limit`` is returned, the first of equal prices, with floor
        sum None.

        The options are walked in table order, ascending myopic cost, and
        the walk stops at the first whose optimistic bound, the node's
        station sum + (committed + myopic) + suffix + the node's floor sum,
        shrunk by :data:`_LIMIT_SLACK` for rounding, is at least ``limit``,
        or at the last depth the best price so far. Every later option's
        bound is at least as large: its myopic cost is, a station sum only
        grows when a station is added, floors are nonnegative and
        nondecreasing in load, so the child's floor sum is at least the
        node's, and float addition is monotone. With the default limit every
        feasible child, or the cheapest leaf, is listed."""
        depth = len(node.path)
        loads, stations, committed = node.loads, node.stations, node.committed
        station_sum, floor_sum = node.station_sum, node.floor_sum
        suffix = self.suffix[depth + 1]
        proximity = self.instance.enforce_proximity
        last = depth == self.n - 1
        if last:
            sized = self.sized
            base = node.travel + sum([sized[pair][load] for pair, load in loads.items()])
        out = []
        for pair, (rate, myopic, travel, capacity, fixed, floors, costs) in self.steps[depth].items():
            head = committed + myopic
            if (station_sum + head + suffix + floor_sum) * _LIMIT_SLACK >= limit:
                break
            old = loads.get(pair)
            load = rate if old is None else old + rate
            if capacity < load:
                continue
            j = pair[0]
            if proximity and self._breaks_proximity(node, j):
                continue
            if last:
                opened = station_sum if j in stations else station_sum + fixed
                price = base - (0.0 if old is None else costs[old]) + costs[load] + travel + opened
                if price < limit:
                    limit, out = price, [(myopic, pair, price, None)]
                continue
            if j in stations:
                dyn, opened = myopic, station_sum
            else:
                dyn, opened = myopic + fixed, self.station_sums[stations | {j}]
            if old is None:
                child_sum = floor_sum + floors[load]
            else:
                child_sum = floor_sum - floors[old] + floors[load]
            bound = opened + head + suffix + child_sum
            if bound < limit:
                out.append((dyn, pair, bound, child_sum))
        if len(out) > 1:
            out.sort()  # (dyn, pair) is unique, so neither the bound nor the sum decides
        return [(pair, bound, child_sum) for (_, pair, bound, child_sum) in out]

    def _breaks_proximity(self, node: _Node, j: int) -> bool:
        """Whether sending the node's next demand to station ``j`` breaks the
        closest-station rule: a station closer to that demand is open, or
        opening ``j`` puts it closer to a demand already assigned."""
        stations = node.stations
        new_active = stations | {j}
        if mdl.closer_active(self.instance, self.demands[len(node.path)].id, j, new_active) is not None:
            return True
        return j not in stations and any(
            mdl.closer_active(self.instance, self.demands[d].id, jj, new_active) is not None
            for d, (jj, _) in enumerate(node.path)
        )

    def solve(self) -> SolverReport:
        t0 = time.perf_counter()
        best_path: tuple[tuple[int, int], ...] | None = None
        upper = math.inf
        time_to_best = 0.0
        nodes = 0
        terminated = "optimality"

        def register(leaf: _Node) -> None:
            nonlocal best_path, upper, time_to_best
            res = self.leaf_cost(leaf)
            if res is not None and res[0] < upper:
                best_path, upper = leaf.path, res[0]
                time_to_best = time.perf_counter() - t0
                self._cuts_at_incumbent(leaf.loads, res[1])

        # greedy myopic dive for an initial incumbent, ending at the
        # cheapest leaf of the last node it reaches
        node = _Node()
        while len(node.path) < self.n:
            kids = self._children(node)
            if not kids:
                break
            node = self._child(node, kids[0][0])
            node.floor_sum = kids[0][2]
        if len(node.path) == self.n:
            register(node)

        lower = 0.0
        root = _Node()
        # (bound, seq, parent, pair, floor sum); the root is the one entry without a pair
        heap: list[tuple[float, int, _Node, tuple[int, int] | None, float]] = [(self.node_bound(root), 0, root, None, 0.0)]
        seq = itertools.count(1)
        heappop, heappush = heapq.heappop, heapq.heappush
        children, child, cut_keys = self._children, self._child, self.cut_keys
        time_limit, gap_threshold = self.config.time_limit, self.config.gap_threshold

        while heap:
            if time_limit is not None and time.perf_counter() - t0 > time_limit:
                terminated = "time"
                lower = max(lower, min(heap[0][0], upper))
                break
            key, _, parent, pair, floor_sum = heappop(heap)
            if lower < key and lower < upper:  # lower = max(lower, min(key, upper))
                lower = key if key < upper else upper
            limit = upper * _PRUNE_FACTOR
            if key >= limit:
                continue  # drain; monotone bounds make everything left prunable
            node = parent if pair is None else child(parent, pair)
            node.floor_sum = floor_sum
            # without a cut since the parent's expansion the bound and the
            # floor sum still hold; after one they may have risen
            if parent.cuts != len(cut_keys) and self.node_bound(node) >= limit:
                continue
            nodes += 1
            node.cuts = len(cut_keys)
            for pair, child_bound, child_sum in children(node, limit):
                if child_sum is None:
                    register(child(node, pair))
                else:
                    heappush(heap, (child_bound, next(seq), node, pair, child_sum))

            if (
                gap_threshold > 0.0
                and upper < math.inf
                and heap
                and 1.0 - min(heap[0][0], upper) / upper <= gap_threshold
            ):
                lower = max(lower, min(heap[0][0], upper))
                terminated = "gap"
                break

        if best_path is None:
            if terminated == "time":
                raise TimeLimitError(f"time limit {self.config.time_limit:g} s ran out before any stable assignment")
            raise InfeasibleError("no stable assignment exists within charger capacities")

        solution = _solution(self.instance, best_path, self.sizer)
        total = solution.cost.total
        if terminated == "optimality" and not heap:
            lower = total  # search tree exhausted: the incumbent is proven optimal
        else:
            lower = min(lower, total)
        return SolverReport(
            best=solution,
            lower_bound=lower,
            upper_bound=total,
            nodes_explored=nodes,
            cuts_added=len(self.cut_keys),
            time_to_best=time_to_best,
            terminated_by=terminated,
        )


def branch_and_bound(instance: mdl.Instance, config: SolverConfig | None = None) -> SolverReport:
    """Exact best-first search; equals :func:`brute_force` when run to
    completion, and reports an honest bound gap when stopped early.

    The cyclic garbage collector is paused for the search and restored on
    return. Reference counting frees every node and heap entry the search
    drops; its one cycle, the search object with the memos that hold its
    bound methods, waits for the collector's next pass. The collector's full
    passes would only rescan the growing heap: about a quarter of a 5 s
    search, in pauses of up to 0.3 s that land wherever the allocation count
    puts them, so that a timed search's reach, and its gap, would jump with
    the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _TreeSearch(instance, config or SolverConfig()).solve()
    finally:
        if enabled:
            gc.enable()


def report_to_dict(report: SolverReport) -> dict:
    """The deterministic body of a report; :func:`save_report` adds the
    volatile values (wall times) as its ``meta`` object."""
    stats = {k: v for k, v in sorted(report.stats.items())}
    return {
        "terminated_by": report.terminated_by,
        "bounds": {
            "lower": report.lower_bound,
            "upper": report.upper_bound,
            "gap": report.gap,
        },
        "search": {
            "nodes_explored": report.nodes_explored,
            "cuts_added": report.cuts_added,
            "stats": stats,
        },
        "solution": None if report.best is None else mdl.solution_to_dict(report.best),
    }


def save_report(report: SolverReport, path, meta: dict | None = None) -> None:
    mdl.write_json(path, {**report_to_dict(report), "meta": meta or {}})
