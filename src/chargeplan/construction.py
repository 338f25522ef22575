"""Constructive primitives shared by every solver.

These are the building blocks the exact search and both metaheuristics lean
on: a greedy minimum feasible station set, a backtracking enumeration of
small covers, randomized demand assignment, and optimal charger sizing for a
fixed assignment, given as an assignment vector: the (station, type) pair
of each demand in ``instance.demand_order``. Every solver hands its answer
to :func:`build_solution` as such a vector, and nothing else turns one into
a Solution. All are pure given an RNG. Every per-run cache of every solver,
sizing included, is a self-filling :class:`Memo`, but for the GA's cover
lists, which a context keeps only from a search that no deadline cut.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import replace
from typing import Callable, Iterable, Mapping, Sequence

from . import model as mdl
from . import queueing
from .errors import InfeasibleError, UncoveredDemandError

_MEMO_ENTRIES = 4096  # per memo of a CandidateContext


def min_stations(instance: mdl.Instance) -> frozenset[int]:
    """Greedy small station set covering every demand point.

    Repeatedly activates the station covering the most still uncovered
    demands (ties: lower fixed cost, then lower id). Whether the stations
    can be equipped is left to charger sizing.
    """
    uncovered = {d.id for d in instance.demand_points}
    candidates = {s.id for s in instance.stations}
    chosen: set[int] = set()
    while uncovered:
        best = None
        for j in sorted(candidates):
            st = instance.station_by_id[j]
            gain = len(uncovered.intersection(st.served))
            if gain == 0:
                continue
            key = (-gain, st.fixed_cost_rate, j)
            if best is None or key < best[0]:
                best = (key, j)
        if best is None:
            raise InfeasibleError(
                f"demands {sorted(uncovered)} cannot be covered by any station"
            )
        j = best[1]
        chosen.add(j)
        candidates.discard(j)
        uncovered -= set(instance.station_by_id[j].served)
    return frozenset(chosen)


def _packing_bound(remaining: Iterable[int], covering: Mapping[int, tuple[int, ...]]) -> int:
    """Lower bound on the stations any cover of ``remaining`` needs.

    Packs demands greedily, fewest reaching stations first (ties: lower id),
    keeping those whose station sets are disjoint from every demand packed so
    far. A cover needs a distinct station for each packed demand.
    """
    used: set[int] = set()
    packed = 0
    for i in sorted(remaining, key=lambda i: (len(covering[i]), i)):
        if used.isdisjoint(covering[i]):
            used.update(covering[i])
            packed += 1
    return packed


def _min_cover_size(all_demands: frozenset[int], served: Mapping[int, frozenset[int]], covering: Mapping[int, tuple[int, ...]],
                    greedy: int, deadline: float | None = None) -> int:
    """Exact minimum-cardinality cover size, by branching on the stations
    that can serve the most constrained uncovered demand.

    The search starts from ``greedy``, the size of a known cover, and drops a
    branch once its size plus the :func:`_packing_bound` of what it leaves
    uncovered reaches the best size so far. Past ``deadline`` (a
    ``time.perf_counter()`` value) it returns the best size found, which is
    still the size of some cover.
    """
    best = greedy

    def dfs(remaining: frozenset[int], size: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, size)
            return
        if size + _packing_bound(remaining, covering) >= best:
            return
        if deadline is not None and time.perf_counter() > deadline:
            return
        pivot = min(remaining, key=lambda i: (len(covering[i]), i))
        for j in covering[pivot]:
            dfs(remaining - served[j], size + 1)

    dfs(all_demands, 0)
    return best


def cover_sets(instance: mdl.Instance, population_size: int, deadline: float | None = None) -> list[frozenset[int]]:
    """Up to ``population_size`` station subsets covering all demands, each of
    the minimum cardinality S or S + 1.

    S is established by an exact minimum-cover search first; the collection
    pass is then a depth-first backtracking over stations in ascending id
    order that gathers qualifying covers until the population is full. With
    a fixed station ordering the output is deterministic. (A single pass that
    resets its collection whenever a strictly smaller cover appears would
    silently drop qualifying covers found before the last reset.) A branch
    ends at its first cover, so a cover is collected only if dropping one of
    its stations uncovers a demand: where five stations each cover every
    demand, the five singletons are returned and none of the ten pairs.

    The subtree below a node depends only on its active set: the uncovered
    demands and the remaining station pool both follow from it. A first
    visit runs to completion unless the population fills, which ends the
    whole search, so a repeated active set is skipped without changing the
    output or its order. A node is also dropped when its size plus the
    :func:`_packing_bound` of its uncovered demands exceeds S + 1.

    Past ``deadline`` (a ``time.perf_counter()`` value) both searches stop
    and the covers found so far are returned, or the greedy
    :func:`min_stations` cover when there are none.
    """
    if population_size < 1:
        raise ValueError("population_size must be >= 1")
    all_demands = frozenset(d.id for d in instance.demand_points)
    if not all_demands:
        return [frozenset()]
    station_ids = sorted(s.id for s in instance.stations)
    served = {j: frozenset(instance.station_by_id[j].served) for j in station_ids}
    covering = {d.id: d.reachable for d in instance.demand_points}  # ascending station ids
    greedy = min_stations(instance)
    best_size = _min_cover_size(all_demands, served, covering, len(greedy), deadline)

    found: dict[frozenset[int], None] = {}
    seen: set[frozenset[int]] = set()

    def backtrack(remaining: frozenset[int], active: frozenset[int], pool: tuple[int, ...]) -> None:
        if len(found) >= population_size or active in seen:
            return
        seen.add(active)
        if not remaining:
            if len(active) in (best_size, best_size + 1):
                found.setdefault(active, None)
            return
        if len(active) + _packing_bound(remaining, covering) > best_size + 1:
            return
        if deadline is not None and time.perf_counter() > deadline:
            return
        for idx, j in enumerate(pool):
            if len(found) >= population_size:
                return
            backtrack(remaining - served[j], active | {j}, pool[:idx] + pool[idx + 1:])

    backtrack(all_demands, frozenset(), tuple(station_ids))
    return list(found) or [greedy]


def _routes(instance: mdl.Instance, active: Iterable[int]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per demand point, in ``instance.demand_points`` order: (its vector
    position, closest active station, the first in ``instance.nearest``,
    active reachable stations in ``reachable`` order). Raises
    UncoveredDemandError for a demand that reaches no active station."""
    act = set(active)
    out = []
    for d in instance.demand_points:
        for j in instance.nearest[d.id]:
            if j in act:
                break
        else:
            raise UncoveredDemandError(f"demand {d.id} has no active reachable station")
        out.append((instance.demand_rank[d.id], j, tuple(jj for jj in d.reachable if jj in act)))
    return tuple(out)


def _pairs(instance: mdl.Instance) -> dict[int, tuple[tuple[int, int], ...]]:
    """Each station's (station, type) pairs, in ``instance.charger_types`` order."""
    return {s.id: tuple((s.id, k.id) for k in instance.charger_types) for s in instance.stations}


def demand_assignment(
    instance: mdl.Instance,
    active: Iterable[int],
    randomization: float,
    rng: random.Random,
    context: CandidateContext | None = None,
) -> list[tuple[int, int]]:
    """An assignment vector, drawn in ``instance.demand_points`` order.

    With probability ``randomization`` the station is drawn uniformly from
    the active reachable set, otherwise the closest active station wins
    (ties: lowest id), as it always does when the instance enforces
    proximity (the exploration draw is still taken). The charger type is
    always uniform random; each index draw is ``rng.choice``'s own, inline.
    With a :class:`CandidateContext` each activation's closest stations
    and options are worked out once per context (``active`` must then
    be a frozenset), with the same draws, and its ``pairs`` supply the
    vector's tuples, so vectors share them rather than each making its own.
    A demand that reaches no active station raises UncoveredDemandError
    before any draw.
    """
    if not 0.0 <= randomization <= 1.0:
        raise ValueError("randomization must lie in [0, 1]")
    routes = _routes(instance, active) if context is None else context.routes[active]
    pairs = _pairs(instance) if context is None else context.pairs
    n_types = len(instance.charger_types)
    type_width = n_types.bit_length()
    explore = not instance.enforce_proximity
    draw, getrandbits = rng.random, rng.getrandbits
    vector: list = [None] * len(routes)
    for (r, j, options) in routes:
        if draw() < randomization and explore:
            n = len(options)
            x = getrandbits(n.bit_length())
            while x >= n:
                x = getrandbits(n.bit_length())
            j = options[x]
        x = getrandbits(type_width)
        while x >= n_types:
            x = getrandbits(type_width)
        vector[r] = pairs[j][x]
    return vector


def size_pair(
    load: float,
    charger_type: mdl.ChargerType,
    cap: int,
    wait_cost_rate: float,
    epsilon: float,
) -> tuple[int, float] | None:
    """Best charger count for one (station, type) pair and its wait value.

    Starts at :func:`queueing.min_chargers` and keeps adding a charger while the
    marginal waiting-cost saving strictly exceeds the charger cost rate; the
    wait is convex in the count, so the first failing increment is the global
    stop. Returns None when even the minimum exceeds ``cap``.

    One :func:`queueing.cheapest_servers` walk carries the Erlang-B
    probability from count to count: O(s) steps for a pair ending at s.
    """
    if load <= 0:
        return (0, 0.0)
    mu = charger_type.service_rate
    s = queueing.min_chargers(load, mu, epsilon)
    if s > cap:
        return None
    return queueing.cheapest_servers(load, mu, s, cap, load * wait_cost_rate, charger_type.unit_cost_rate)


class Memo(dict):
    """A dict that fills itself: a missing key's value is worked out as
    ``make(key)`` and stored, None included. With a ``limit`` it first
    empties itself in place when it already holds that many entries, which
    bounds its memory. ``in`` and ``.get`` read it without filling it."""

    def __init__(self, make: Callable, limit: int | None = None):
        super().__init__()
        self.make, self.limit = make, limit

    def __missing__(self, key):
        if self.limit is not None and len(self) >= self.limit:
            self.clear()
        value = self[key] = self.make(key)
        return value


class _PairSizer:
    """:func:`size_pair` for one instance, memoized in ``_memo`` by (station,
    type, load); loads are summed in ``instance.demand_order`` wherever they
    are formed, so one assignment's pair always meets the same key. Each
    solve makes its own and drops it, and SA and GA use their context's, so
    no cache outlives the solve or ``multi_run`` that made it.
    SA's cost floor reads ``_memo`` for the pairs already sized, and
    branch-and-bound reads sized costs through its own per-pair tables,
    which call :meth:`best` only for a load they do not hold yet."""

    def __init__(self, instance: mdl.Instance):
        self.instance = instance
        self._memo = Memo(self._size)

    def best(self, j: int, k: int, load: float) -> tuple[int, float, float] | None:
        """(charger count, wait, charger + wait cost) for the pair, or None
        when the load cannot be stabilized within the capacity."""
        return self._memo[(j, k, load)]

    def _size(self, key: tuple[int, int, float]) -> tuple[int, float, float] | None:
        """What ``_memo`` holds for a (station, type, load) key."""
        j, k, load = key
        inst, kt = self.instance, self.instance.type_by_id[k]
        sized = size_pair(load, kt, inst.station_cap(j, k), inst.wait_cost_rate, inst.epsilon)
        if sized is not None:
            s, wait = sized
            sized = (s, wait, kt.unit_cost_rate * s + load * inst.wait_cost_rate * wait)
        return sized


class CandidateContext:
    """What the candidates of an SA or GA run share: built at the start of
    the run, or of a ``multi_run`` whose runs all share it, and dropped
    with it, so nothing outlives the solve or hangs off the shared instance.
    Every memo value is a pure function of its key, so a run gives the same
    answer on a warm context as on a fresh one.

    It holds the :class:`_PairSizer` (``sizer``),
    :func:`model.cost_tables` (``tables``) and each station's (station,
    type) tuples (``pairs``), which every drawn vector shares, so a price
    memo key keeps no pair tuple of its own alive. An activation is an int
    bitmask over ``instance.stations``, station ``n`` being ``bits[n]``.
    Three :class:`Memo` attributes, each bounded at ``_MEMO_ENTRIES``
    entries for instances with many stations, hold ``covering[mask]``, the
    mask's stations if they cover every demand, else the empty set;
    ``routes[active]``, the activation's :func:`_routes`; and
    ``prices[(active, tuple(vector))]``, a candidate's cost and charger
    counts, or None when it cannot be sized. ``covers`` maps a GA
    population size to the :func:`cover_sets` list of a search that no
    deadline cut.
    """

    def __init__(self, instance: mdl.Instance):
        self.instance = instance
        self.sizer = _PairSizer(instance)
        self.tables = mdl.cost_tables(instance)
        self.pairs = _pairs(instance)
        self.bits = [1 << n for n in range(len(instance.stations))]
        self._bit = {s.id: b for s, b in zip(instance.stations, self.bits)}
        self._reach = [self.mask(d.reachable) for d in instance.demand_points]
        self.covering = Memo(self._cover, _MEMO_ENTRIES)
        self.routes = Memo(functools.partial(_routes, instance), _MEMO_ENTRIES)
        self.prices = Memo(self._price, _MEMO_ENTRIES)
        self.covers: dict[int, list[frozenset[int]]] = {}

    def mask(self, stations: Iterable[int]) -> int:
        """The bitmask of a set of distinct stations."""
        return sum(map(self._bit.__getitem__, stations))

    def _cover(self, mask: int) -> frozenset[int]:
        """What ``covering`` holds for ``mask``."""
        if mask and all(map(mask.__and__, self._reach)):
            return frozenset(j for j, b in self._bit.items() if mask & b)
        return frozenset()

    def _price(self, key: tuple) -> tuple[float, dict[tuple[int, int], int]] | None:
        """What ``prices`` holds for a candidate: its vector sized through
        ``sizer`` and priced by :func:`model.cost_totals`."""
        active, vector = key
        try:
            chargers, waits = best_chargers(self.instance, vector, self.sizer)
        except InfeasibleError:
            return None
        return mdl.cost_totals(self.tables, active, vector, chargers, waits).total, chargers


def best_chargers(
    instance: mdl.Instance,
    vector: Sequence[tuple[int, int]],
    sizer: _PairSizer,
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], float]]:
    """Optimal charger counts per (station, type) for an assignment vector,
    and each pair's expected wait at its count, which equals
    :func:`model.compute_waits`' bit for bit (both read
    :func:`model.pair_loads`), sized through the caller's
    :class:`_PairSizer`. Raises InfeasibleError when some pair cannot reach
    stability within its capacity."""
    chargers: dict[tuple[int, int], int] = {}
    waits: dict[tuple[int, int], float] = {}
    for pair, load in sorted(mdl.pair_loads(instance, vector).items()):
        j, k = pair
        sized = sizer.best(j, k, load)
        if sized is None:
            cap = instance.station_cap(j, k)
            raise InfeasibleError(f"station {j} type {k}: load {load:.6g} needs more than {cap} chargers")
        chargers[pair], waits[pair], _ = sized
    return chargers, waits


def build_solution(
    instance: mdl.Instance,
    vector: Sequence[tuple[int, int]],
    chargers: Mapping[tuple[int, int], int],
    *,
    active: Iterable[int] | None = None,
) -> mdl.Solution:
    """Materialize a full Solution (waits and cost included, priced by
    :func:`model.evaluate`) from an assignment vector and charger counts;
    this is where a vector becomes a Solution's (demand, station, type)
    triplets.

    Active stations default to exactly those receiving traffic; idle active
    stations only ever add cost.
    """
    sol = mdl.Solution(
        active=frozenset({j for (j, _) in vector} if active is None else active),
        assignments=frozenset((d.id, j, k) for d, (j, k) in zip(instance.demand_order, vector)),
        chargers=dict(chargers),
    )
    cost = mdl.evaluate(instance, sol)
    return replace(sol, waits=cost.waits, cost=cost)
