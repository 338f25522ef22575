import functools
import gc
import itertools
import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplan import construction, exact
from chargeplan.construction import size_pair
from chargeplan.errors import InfeasibleError, InstanceTooLargeError, TimeLimitError, UnstableQueueError
from chargeplan.exact import (
    SolverConfig,
    _Node,
    _TreeSearch,
    branch_and_bound,
    brute_force,
    report_gap,
    root_lower_bound,
)
from chargeplan.metaheuristics import GAParams, SAParams, genetic_algorithm, multi_run, simulated_annealing
from chargeplan.model import (
    CandidateStation,
    ChargerType,
    DemandPoint,
    Solution,
    check_feasibility,
    closer_active,
    compute_waits,
    make_instance,
    pair_loads,
)
from chargeplan.queueing import capacity, expected_wait, min_chargers, tangent_cut

from gen import feasible_instance, random_instance


def wait_floor(kt: ChargerType, servers: int, anchor_rho: float):
    """The expected-wait floor of a pair with ``servers`` chargers of type
    ``kt``, as a function of its load: the service time plus the term
    ``_TreeSearch.pair_floor_extra`` takes from the delay-factor tangent at
    ``anchor_rho``, a/(mu s) + b load/(mu s)^2."""
    a, b = tangent_cut(anchor_rho, servers)
    mu = kt.service_rate
    ms = mu * servers
    return lambda load: a / ms + b * load / (ms * ms) + 1.0 / mu


def node_of(search, path):
    """The node of a path: the fold of ``_child`` from the root."""
    return functools.reduce(search._child, path, _Node())


def unit_instance():
    kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
    dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=0.5)
    st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5})
    return make_instance(
        [dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0}
    )


class TestReportGap:
    def test_report_gap_covers_a_zero_floor(self):
        assert report_gap(0.0, 5.0) == 1.0
        assert report_gap(0.0, 0.0) == 0.0
        assert report_gap(50.0, 100.0) == 0.5


class TestMakeCut:
    """The wait floor branch-and-bound applies, built from ``tangent_cut``."""

    def kt(self, mu=1.0):
        return ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0 / mu)

    def test_hand_example(self):
        floor = wait_floor(self.kt(), 1, 0.5)
        # intercept -1, slope 4: floor(load 0.75) = -1 + 3 + 1 = 3 <= true 4
        assert floor(0.75) == pytest.approx(3.0, abs=1e-4)
        true = expected_wait(0.75, 1.0, 1)
        assert floor(0.75) <= true
        assert true == pytest.approx(4.0)

    def test_tangency_at_anchor_load(self):
        for s, mu, anchor in [(1, 1.0, 0.5), (3, 0.2, 0.7), (8, 2.5, 0.3)]:
            floor = wait_floor(self.kt(mu), s, anchor)
            load = anchor * mu * s
            true = expected_wait(load, mu, s)
            assert floor(load) == pytest.approx(true, abs=1e-6)

    def test_floor_everywhere_random_sweep(self):
        rng = random.Random(23)
        for _ in range(1000):
            s = rng.randint(1, 20)
            mu = rng.uniform(0.02, 2.0)
            anchor = rng.uniform(0.05, 0.95)
            load = rng.uniform(0.01, 0.999) * mu * s
            floor = wait_floor(self.kt(mu), s, anchor)
            true = expected_wait(load, mu, s)
            assert floor(load) <= true + 1e-6

    def test_zero_servers_undefined(self):
        with pytest.raises(ValueError):
            tangent_cut(0.5, 0)


class TestBruteForce:
    def test_unit_optimum(self):
        rep = brute_force(unit_instance())
        assert rep.upper_bound == pytest.approx(8.0, abs=1e-12)
        assert rep.gap == 0.0
        assert rep.best.chargers == {(0, 0): 1}

    def test_dominated_station_inactive(self):
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=0.5)
        cheap = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=1.0, max_chargers={0: 5})
        dear = CandidateStation(id=1, lat=41.9, lon=-87.7, fixed_cost_rate=9.0, max_chargers={0: 5})
        inst = make_instance(
            [dp], [cheap, dear], [kt],
            travel_cost_rate=1.0, wait_cost_rate=1.0,
            travel={(0, 0): 2.0, (0, 1): 7.0},
        )
        rep = brute_force(inst)
        assert rep.best.active == {0}

    def test_leaf_cap_enforced(self):
        inst = random_instance(1)
        with pytest.raises(InstanceTooLargeError):
            brute_force(inst, leaf_cap=1)

    def test_infeasible_instance(self):
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=10.0)
        dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=5.0)
        st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=1.0, max_chargers={0: 3})
        inst = make_instance(
            [dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0}
        )
        with pytest.raises(InfeasibleError):
            brute_force(inst)

    def test_solution_is_feasible(self, fixtures40):
        for inst in fixtures40[:15]:
            rep = brute_force(inst)
            assert check_feasibility(inst, rep.best) == []


class TestBranchAndBound:
    def test_matches_oracle_on_sample(self, fixtures40):
        for inst in fixtures40:
            bf = brute_force(inst)
            bb = branch_and_bound(inst, SolverConfig())
            assert bb.upper_bound == pytest.approx(bf.upper_bound, abs=1e-6)
            assert bb.gap == 0.0
            assert bb.lower_bound == bb.upper_bound

    def test_node_bounds_valid_by_exhaustive_descent(self):
        # every node bound must underestimate every descendant leaf
        for seed in (3, 11, 19):
            inst = feasible_instance(seed, n_demand=3, n_station=3)
            search = _TreeSearch(inst, SolverConfig())

            def leaves_below(path):
                depth = len(path)
                for tail in itertools.product(*search.steps[depth:]):
                    res = search.leaf_cost(node_of(search, path + tuple(tail)))
                    if res is not None:
                        yield res[0]

            for depth in range(search.n):
                for prefix in itertools.product(*search.steps[:depth]):
                    bound = search.node_bound(node_of(search, prefix))
                    descendants = list(leaves_below(tuple(prefix)))
                    if bound == math.inf:
                        assert not descendants
                        continue
                    for leaf in descendants:
                        assert bound <= leaf + 1e-9

    def test_gap_threshold_early_stop(self, fixtures200):
        # a loose threshold must terminate with a bound certificate within it
        inst = max(fixtures200, key=lambda i: len(i.demand_points) * len(i.stations))
        rep = branch_and_bound(inst, SolverConfig(gap_threshold=0.5))
        assert rep.gap <= 0.5 + 1e-12
        true = brute_force(inst).upper_bound
        assert rep.upper_bound >= true - 1e-9

    def test_time_limit_reports_honestly(self):
        inst = feasible_instance(77, n_demand=14, n_station=4, cap_range=(6, 14))
        rep = branch_and_bound(inst, SolverConfig(time_limit=0.02))
        assert rep.terminated_by in ("time", "optimality")
        assert rep.lower_bound <= rep.upper_bound + 1e-12
        assert rep.best is not None
        assert check_feasibility(inst, rep.best) == []

    def test_time_out_before_any_incumbent_is_not_infeasibility(self):
        # the greedy dive dead-ends, so no incumbent exists when time runs out
        inst = feasible_instance(66, n_demand=10, n_station=4, cap_range=(1, 4))
        with pytest.raises(TimeLimitError, match="1e-09 s"):
            branch_and_bound(inst, SolverConfig(time_limit=1e-9))
        assert branch_and_bound(inst).upper_bound == pytest.approx(73.0366, abs=1e-4)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_paused_for_the_search_and_restored(self, enabled, monkeypatch):
        # paused while leaves are priced, and left as found on return and on
        # a time-out raised before any incumbent; the instances are built
        # first, since feasible_instance runs a search of its own
        inst = feasible_instance(3, n_demand=6, n_station=3)
        slow = feasible_instance(66, n_demand=10, n_station=4, cap_range=(1, 4))
        seen = []
        leaf_cost = _TreeSearch.leaf_cost
        monkeypatch.setattr(_TreeSearch, "leaf_cost",
                            lambda self, node: seen.append(gc.isenabled()) or leaf_cost(self, node))
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            branch_and_bound(inst)
            assert gc.isenabled() is enabled
            with pytest.raises(TimeLimitError):
                branch_and_bound(slow, SolverConfig(time_limit=1e-9))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert seen and not any(seen)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0, math.inf])
    def test_time_limit_must_be_positive_and_finite(self, limit):
        # a NaN limit would be ignored (every comparison with it is false)
        # and a limit of 0 or less would stop before the root is explored
        with pytest.raises(ValueError, match="time_limit"):
            SolverConfig(time_limit=limit)

    def test_deterministic_node_counts(self, fixtures40):
        inst = fixtures40[1]
        a = branch_and_bound(inst, SolverConfig())
        b = branch_and_bound(inst, SolverConfig())
        assert a.nodes_explored == b.nodes_explored
        assert a.upper_bound == b.upper_bound
        assert a.cuts_added == b.cuts_added


class TestProximity:
    def test_relaxation_dominance_on_sample(self, fixtures40):
        strict = 0
        for inst in fixtures40:
            free = brute_force(inst).upper_bound
            try:
                prox = brute_force(replace(inst, enforce_proximity=True)).upper_bound
            except InfeasibleError:
                continue
            assert free <= prox + 1e-12
            if free < prox - 1e-9:
                strict += 1
        assert strict >= 1

    def test_bnb_honors_proximity(self, fixtures40):
        for inst in fixtures40[:15]:
            prox = replace(inst, enforce_proximity=True)
            try:
                bf = brute_force(prox)
            except InfeasibleError:
                continue
            bb = branch_and_bound(prox, SolverConfig())
            assert bb.upper_bound == pytest.approx(bf.upper_bound, abs=1e-6)
            # every assignment must use the closest active station
            sol = bb.best
            for (i, j, _) in sol.assignments:
                closest = min(
                    inst.travel[(i, jj)]
                    for jj in inst.demand_by_id[i].reachable
                    if jj in sol.active
                )
                assert inst.travel[(i, j)] <= closest + 1e-9


class TestArchivedOptima:
    def test_oracle_reproduces_frozen_reference_values(self, fixtures200, data_dir):
        import json

        with open(data_dir / "fixture_optima.json") as fh:
            frozen = json.load(fh)
        assert len(frozen) == len(fixtures200) == 200
        for row, inst in zip(frozen, fixtures200):
            assert len(inst.demand_points) == row["n_demand"]
            assert len(inst.stations) == row["n_station"]
            rep = brute_force(inst)
            assert rep.upper_bound == pytest.approx(row["optimal_total"], rel=1e-9)


class TestBounds:
    def test_root_lower_bound_below_optimum(self, fixtures40):
        for inst in fixtures40:
            opt = brute_force(inst).upper_bound
            assert root_lower_bound(inst) <= opt + 1e-12


class TestStabilityBoundary:
    """A load exactly at a pair's capacity is stable and the next float above
    it is not, whichever module decides."""

    @staticmethod
    def pair(load, recharge, servers, eps):
        kt = ChargerType(id=0, power_kw=50.0, unit_cost_rate=1.0, recharge_time_min=recharge)
        dp = DemandPoint(id=0, lat=0.0, lon=0.0, rate=load)
        st = CandidateStation(id=0, lat=0.0, lon=0.0, fixed_cost_rate=1.0, max_chargers={0: servers})
        inst = make_instance(
            [dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 1.0}, epsilon=eps
        )
        return inst, kt

    # (0.2, 229, 1e-3): the rounded quotient of min_chargers lands one above
    @pytest.mark.parametrize("recharge, servers, eps", [(5.0, 229, 1e-3), (1.0, 1, 1e-6), (7.0, 12, 0.05)])
    def test_every_module_agrees_at_the_capacity(self, recharge, servers, eps):
        at = capacity(1.0 / recharge, servers, eps)
        for load, stable in ((at, True), (math.nextafter(at, math.inf), False)):
            inst, kt = self.pair(load, recharge, servers, eps)
            mu = kt.service_rate
            assignments = frozenset({(0, 0, 0)})
            chargers = {(0, 0): servers}
            try:
                compute_waits(inst, [(0, 0)], chargers)
                waits_stable = True
            except UnstableQueueError:
                waits_stable = False
            sol = Solution(active=frozenset({0}), assignments=assignments, chargers=chargers)
            feasible = not any(v.code == "unstable_queue" for v in check_feasibility(inst, sol))
            verdicts = {
                "compute_waits": waits_stable,
                "check_feasibility": feasible,
                "min_chargers": min_chargers(load, mu, eps) <= servers,
                "size_pair": size_pair(load, kt, servers, 1.0, eps) is not None,
                "children": [pair for pair, _, _ in _TreeSearch(inst, SolverConfig())._children(_Node())] == [(0, 0)],
            }
            assert verdicts == dict.fromkeys(verdicts, stable), (load, verdicts)


class TestLoadOrder:
    """A pair's load is one float, however a solver forms it."""

    @staticmethod
    def full_capacity_instance():
        """Rates 0.1, 0.2 and 0.3 (in id order) on one charger of capacity
        0.6: summed in id order they come to 0.6000000000000001, in
        descending-rate order to exactly 0.6. The optimum costs 1 (station)
        + 1 (charger) + 0.6 (travel) + 1.5 (waiting) = 4.1."""
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dps = [DemandPoint(id=i, lat=0.0, lon=0.0, rate=r) for i, r in enumerate((0.1, 0.2, 0.3))]
        st = CandidateStation(id=0, lat=0.0, lon=0.0, fixed_cost_rate=1.0, max_chargers={0: 1})
        return make_instance(
            dps, [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0,
            travel={(i, 0): 1.0 for i in range(3)}, epsilon=0.4,
        )

    @pytest.mark.parametrize("solve", [
        brute_force,
        branch_and_bound,
        lambda inst: simulated_annealing(inst, SAParams(max_iterations=20)),
        lambda inst: genetic_algorithm(inst, GAParams(max_iterations=20)),
    ], ids=["brute", "bnb", "sa", "ga"])
    def test_every_solver_prices_a_load_at_the_capacity_alike(self, solve):
        inst = self.full_capacity_instance()
        rep = solve(inst)
        assert rep.best.cost.total == pytest.approx(4.1, abs=1e-12)
        assert check_feasibility(inst, rep.best) == []

    def test_search_loads_equal_pair_loads(self):
        for seed in (3, 11, 19, 27):
            inst = feasible_instance(seed, n_demand=5, n_station=2)
            search = _TreeSearch(inst, SolverConfig())
            for path in itertools.product(*search.steps):
                assert node_of(search, path).loads == pair_loads(inst, path)


class _Unmemoized(_TreeSearch):
    """The referee for the floor memo and for bounding children from their
    parent: every node bound, a child's included, is taken on the built node
    from a fresh floor sum that calls ``pair_floor_extra`` for each of its
    pairs, and is ``inf`` when one of them is. It also forgets the cut count
    of each node it expands, so every child is bounded again when popped,
    and it ignores the search's limit, so every child is bounded and pushed
    (one bounded at or above the limit only to be dropped when popped).
    Leaves, priced at their parent, pass through."""

    def node_bound(self, node):
        node.floor_sum = 0.0
        for (j, k), load in sorted(node.loads.items()):
            node.floor_sum += self.pair_floor_extra(j, k, load)
        head = sum(self.station_cost[j] for j in sorted(node.stations)) + node.committed + self.suffix[len(node.path)]
        return head + node.floor_sum

    def _children(self, node, limit=math.inf):
        if len(node.path) == self.n - 1:
            return super()._children(node, limit)
        node.cuts = -1
        kids = []
        for pair, _, _ in super()._children(node):
            child = self._child(node, pair)
            kids.append((pair, self.node_bound(child), child.floor_sum))
        return kids


class TestSizingMemo:
    @pytest.mark.parametrize("solve", [brute_force, branch_and_bound])
    def test_sizer_sizes_each_key_once_per_solve(self, monkeypatch, solve):
        # every binding of size_pair in the package is counted, so an answer
        # sized outside the search's memo shows as a call beyond its keys
        inst = feasible_instance(5, n_demand=6, n_station=3, cap_range=(2, 6))
        real = construction.size_pair
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("chargeplan") and getattr(module, "size_pair", None) is real:
                monkeypatch.setattr(module, "size_pair", counted)
        sizers = []

        class Tracked(exact._PairSizer):
            def __init__(self, instance):
                super().__init__(instance)
                sizers.append(self)

        monkeypatch.setattr(exact, "_PairSizer", Tracked)
        rep = solve(inst)
        assert rep.best is not None and len(sizers) == 1
        assert set(rep.best.chargers) <= {(j, k) for (j, k, _) in sizers[0]._memo}
        assert len(calls) == len(sizers[0]._memo) > 0


class TestFloorMemo:
    @staticmethod
    def dive(search):
        """The greedy leaf the search starts from."""
        node = _Node()
        while len(node.path) < search.n:
            pair, _, floor_sum = search._children(node)[0]
            node = search._child(node, pair)
            node.floor_sum = floor_sum
        return node

    def test_a_cut_drops_the_memo_of_its_pair(self):
        inst = feasible_instance(5, n_demand=8, n_station=3)
        search = _TreeSearch(inst, SolverConfig())
        node = self.dive(search)
        before = search.node_bound(node)
        assert all(load in search.floors[pair] for pair, load in node.loads.items())
        _, chargers = search.leaf_cost(node)
        pair = min(chargers)
        search._cuts_at_incumbent(node.loads, {pair: chargers[pair]})
        assert len(search.cut_keys) == 1
        after = search.node_bound(node)
        assert after == _Unmemoized.node_bound(search, node)
        assert after > before  # the cut moved this node's bound

    @pytest.mark.parametrize("proximity", [False, True], ids=["free", "proximity"])
    def test_search_equals_the_unmemoized_referee(self, proximity):
        solved = 0
        for seed in range(12):
            inst = replace(feasible_instance(seed, n_demand=9, n_station=4), enforce_proximity=proximity)
            try:
                want = _Unmemoized(inst, SolverConfig()).solve()
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    branch_and_bound(inst)
                continue
            got = branch_and_bound(inst)
            assert (got.nodes_explored, got.cuts_added, got.lower_bound, got.upper_bound, got.best.assignments) == (
                want.nodes_explored, want.cuts_added, want.lower_bound, want.upper_bound, want.best.assignments
            )
            solved += 1
        assert solved >= 10


def equal_up_to_rounding(carried, fresh):
    """A bound or floor sum carried from a parent's expansion against one
    summed afresh: ``inf`` exactly when the fresh one is, else equal up to
    rounding (a few ulps on the instances below)."""
    if math.isinf(carried) or math.isinf(fresh):
        return carried == fresh
    return math.isclose(carried, fresh, rel_tol=1e-12)


class _CheckedChildren(_TreeSearch):
    """Checks, at every expansion, each child's bound and floor sum from
    :meth:`_children` against :meth:`node_bound` of the built child, or a
    leaf's price against :meth:`leaf_cost` of the built leaf, and counts how
    the child's pair sits among its parent's pairs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.placed = {"held": 0, "first": 0, "inside": 0, "last": 0}

    def _children(self, node, limit=math.inf):
        kids = super()._children(node, limit)
        held = sorted(node.loads)
        for pair, bound, floor_sum in kids:
            child = self._child(node, pair)
            if floor_sum is None:
                assert math.isclose(bound, self.leaf_cost(child)[0], rel_tol=1e-12), (node.path, pair)
            else:
                fresh = self.node_bound(child)
                assert equal_up_to_rounding(bound, fresh), (node.path, pair)
                assert equal_up_to_rounding(floor_sum, child.floor_sum), (node.path, pair)
            if pair in node.loads:
                self.placed["held"] += 1
            elif not held or pair < held[0]:
                self.placed["first"] += 1
            elif pair > held[-1]:
                self.placed["last"] += 1
            else:
                self.placed["inside"] += 1
        return kids


@pytest.mark.parametrize("proximity", [False, True], ids=["free", "proximity"])
def test_children_are_bounded_as_built_nodes(proximity):
    placed = dict.fromkeys(("held", "first", "inside", "last"), 0)
    for seed in range(8):
        inst = replace(feasible_instance(seed, n_demand=9, n_station=4), enforce_proximity=proximity)
        search = _CheckedChildren(inst, SolverConfig())
        assert search.solve().nodes_explored == PINNED_SEARCH[(seed, proximity)][0]
        for key, count in search.placed.items():
            placed[key] += count
    assert min(placed.values()) > 0, placed


@pytest.mark.parametrize("proximity", [False, True], ids=["free", "proximity"])
def test_child_bounds_are_valid_after_cuts(proximity):
    """Once a solve has filled the cut pool, every bound :meth:`_children`
    gives (the bound the search prunes with, from a carried floor sum) is at
    least its parent's bound and at most the cost of every leaf below the
    child, over the whole tree the children span."""
    checked = held = 0
    for seed, n_demand in itertools.product(range(6), (5, 6)):
        inst = replace(feasible_instance(seed, n_demand=n_demand, n_station=3), enforce_proximity=proximity)
        search = _TreeSearch(inst, SolverConfig())
        try:
            search.solve()
        except InfeasibleError:
            continue
        assert search.cut_keys

        def cheapest_leaf(node, bound):
            """The cost of the cheapest stable leaf below ``node``, ``inf``
            if none, checking each child's bound on the way down. Below a
            node with one demand left every leaf is built and priced, and the
            one leaf :meth:`_children` returns must cost the least of them."""
            nonlocal checked, held
            depth = len(node.path)
            if depth == search.n - 1:
                leaves = [search._child(node, pair) for pair in search.steps[depth]
                          if feasible_extension(search, node, pair)]
                costs = [search.leaf_cost(leaf)[0] for leaf in leaves]
                kids = search._children(node)
                assert len(kids) == min(1, len(costs)), node.path
                for pair, price, floor_sum in kids:
                    assert floor_sum is None and price >= bound - 1e-9, (node.path, pair)
                    assert math.isclose(price, min(costs), rel_tol=1e-12), (node.path, pair, price, min(costs))
                    held += pair in node.loads
                checked += len(costs)
                return min(costs, default=math.inf)
            cheapest = math.inf
            for pair, child_bound, floor_sum in search._children(node):
                assert child_bound >= bound - 1e-9, (node.path, pair)
                child = search._child(node, pair)
                child.floor_sum = floor_sum
                leaf = cheapest_leaf(child, child_bound)
                assert child_bound <= leaf + 1e-9, (child.path, child_bound, leaf)
                cheapest = min(cheapest, leaf)
                checked += 1
                held += pair in node.loads
            return cheapest

        root = _Node()
        cheapest_leaf(root, search.node_bound(root))
    assert checked > 1000 and held > 0, (checked, held)


def bits(kids):
    """A children list with each float as its exact bits (a leaf's floor
    sum is None)."""
    return [(pair, bound.hex(), None if floor_sum is None else floor_sum.hex()) for pair, bound, floor_sum in kids]


def feasible_extension(search, node, pair):
    """Whether the child by ``pair`` keeps every load within its pair's
    capacity and, under the proximity rule, sends no demand of its path past
    a closer open station: the test :meth:`_children` filters options by."""
    child = search._child(node, pair)
    mu, cap, _ = search.pair_params[pair]
    if child.loads[pair] > capacity(mu, cap, search.instance.epsilon):
        return False
    return not search.instance.enforce_proximity or all(
        closer_active(search.instance, search.demands[d].id, j, child.stations) is None
        for d, (j, _) in enumerate(child.path)
    )


class _LimitChecked(_TreeSearch):
    """Checks, at every expansion, :meth:`_children` under limits at, just
    below and just above each child's bound against the full list, and
    keeps each expanded node for a second check once the cut pool is full."""

    def __init__(self, *args):
        super().__init__(*args)
        self.expanded = []
        self.stopped = 0  # limited lists shorter than the full one

    def check(self, node):
        full = super()._children(node)
        depth = len(node.path)
        feasible = sorted(pair for pair in self.steps[depth] if feasible_extension(self, node, pair))
        if depth == self.n - 1:  # only the cheapest leaf, checked by _CheckedLeaves
            assert len(full) == min(1, len(feasible)) and {pair for pair, _, _ in full} <= set(feasible), node.path
        else:
            assert sorted(pair for pair, _, _ in full) == feasible, node.path
        for limit in sorted({
            edge for _, bound, _ in full if bound < math.inf
            for edge in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))
        }):
            got = super()._children(node, limit)
            assert bits(got) == bits(c for c in full if c[1] < limit), (node.path, limit)
            self.stopped += len(got) < len(full)

    def _children(self, node, limit=math.inf):
        self.expanded.append(node)
        self.check(node)
        return super()._children(node, limit)


@pytest.mark.parametrize("proximity", [False, True], ids=["free", "proximity"])
def test_children_stop_only_past_the_limit(proximity):
    """A limit drops exactly the children bounded at or above it, at every
    expansion of a solve and again at each once the solve has filled the
    cut pool; the default limit lists every feasible child, or at the last
    depth the cheapest leaf."""
    stopped = rechecked = 0
    for seed in range(8):
        inst = replace(feasible_instance(seed, n_demand=9, n_station=4), enforce_proximity=proximity)
        search = _LimitChecked(inst, SolverConfig())
        assert search.solve().nodes_explored == PINNED_SEARCH[(seed, proximity)][0]
        assert search.cut_keys
        stopped += search.stopped
        search.stopped = 0
        for node in search.expanded:
            search.node_bound(node)  # the floor sum under the filled pool
            search.check(node)
        rechecked += search.stopped
    assert stopped > 0 and rechecked > 0, (stopped, rechecked)


class _CheckedLeaves(_TreeSearch):
    """Checks, at every expansion of a node with one demand left, the O(1)
    price :meth:`_children` gives each option (read by walking a table of
    that option alone) against :meth:`leaf_cost` of the built leaf, and the
    one leaf it returns against the cheapest of those prices below the
    limit. It counts how each priced leaf's pair and station sit among the
    node's."""

    def __init__(self, *args):
        super().__init__(*args)
        self.branches = dict.fromkeys(("held", "new", "open", "opened"), 0)

    def _children(self, node, limit=math.inf):
        depth = len(node.path)
        if depth < self.n - 1:
            return super()._children(node, limit)
        options, prices = self.steps[depth], {}
        try:
            for pair, step in options.items():
                self.steps[depth] = {pair: step}
                alone = super()._children(node)
                res = self.leaf_cost(self._child(node, pair)) if feasible_extension(self, node, pair) else None
                if res is None:  # infeasible or unsizable: skipped
                    assert alone == [], (node.path, pair)
                    continue
                [(priced, price, floor_sum)] = alone
                assert priced == pair and floor_sum is None, (node.path, pair)
                assert math.isclose(price, res[0], rel_tol=1e-12), (node.path, pair)
                prices[pair] = price
                self.branches["held" if pair in node.loads else "new"] += 1
                self.branches["open" if pair[0] in node.stations else "opened"] += 1
        finally:
            self.steps[depth] = options
        want = []
        for pair, price in prices.items():  # in walk order, so the first of equal prices
            if price < (want[0][1] if want else limit):
                want = [(pair, price, None)]
        got = super()._children(node, limit)
        assert got == want, (node.path, limit, got, want)
        return got


@pytest.mark.parametrize("proximity", [False, True], ids=["free", "proximity"])
def test_leaves_are_priced_as_built_leaves(proximity):
    """The children of a node with one demand left are its leaves, priced
    as :meth:`leaf_cost` prices them, and only the first cheapest below the
    limit is returned."""
    branches = dict.fromkeys(("held", "new", "open", "opened"), 0)
    for seed in range(8):
        inst = replace(feasible_instance(seed, n_demand=9, n_station=4), enforce_proximity=proximity)
        search = _CheckedLeaves(inst, SolverConfig())
        assert search.solve().nodes_explored == PINNED_SEARCH[(seed, proximity)][0]
        for key, count in search.branches.items():
            branches[key] += count
    assert min(branches.values()) > 0, branches


@settings(max_examples=150, deadline=None)
@given(
    recharge=st.floats(0.2, 20.0),
    unit=st.floats(0.01, 100.0),
    wait=st.floats(0.01, 100.0),
    cap=st.integers(1, 30),
    eps=st.floats(1e-9, 0.5),
    anchors=st.lists(st.tuples(st.integers(1, 30), st.floats(0.001, 0.999)), max_size=12),
    shares=st.lists(st.floats(0.0, 1.2), min_size=2, max_size=10),
)
def test_floor_is_monotone_in_load(recharge, unit, wait, cap, eps, anchors, shares):
    """``pair_floor_extra`` is nonnegative and nondecreasing in load under
    any pool of tangent cuts: the premise of the early stop in
    :meth:`_children`. Loads run from 0 to past the pair's capacity."""
    kt = ChargerType(id=0, power_kw=50.0, unit_cost_rate=unit, recharge_time_min=recharge)
    dp = DemandPoint(id=0, lat=0.0, lon=0.0, rate=1.0)
    station = CandidateStation(id=0, lat=0.0, lon=0.0, fixed_cost_rate=1.0, max_chargers={0: cap})
    inst = make_instance(
        [dp], [station], [kt], travel_cost_rate=1.0, wait_cost_rate=wait, travel={(0, 0): 1.0}, epsilon=eps
    )
    search = _TreeSearch(inst, SolverConfig())
    for servers, rho in anchors:
        search.cuts.setdefault((0, 0, servers), []).append(tangent_cut(rho, servers))
    top = capacity(kt.service_rate, cap, eps)
    floors = [search.pair_floor_extra(0, 0, share * top) for share in sorted(shares)]
    assert floors[0] >= 0.0
    assert floors == sorted(floors), floors


@settings(max_examples=150, deadline=None)
@given(
    recharge=st.floats(0.2, 20.0),
    unit=st.floats(0.01, 100.0),
    wait=st.floats(0.01, 100.0),
    cap=st.integers(1, 30),
    eps=st.floats(1e-9, 0.5),
    shares=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10),
)
def test_sized_extra_is_monotone_in_load(recharge, unit, wait, cap, eps, shares):
    """A pair's exact extra cost, its sized charger and waiting cost less the
    service-time floor ``load * c_w / mu``, is nonnegative and nondecreasing
    in load up to the pair's capacity, within a relative 1e-12 of the pair's
    cost, the scale of ``_LIMIT_SLACK``: the premise of bounding each pair by
    it. Each load is also paired with the next float above it, where the
    rounding of the wait alone can make the extra fall by about 1e-14."""
    kt = ChargerType(id=0, power_kw=50.0, unit_cost_rate=unit, recharge_time_min=recharge)
    dp = DemandPoint(id=0, lat=0.0, lon=0.0, rate=1.0)
    station = CandidateStation(id=0, lat=0.0, lon=0.0, fixed_cost_rate=1.0, max_chargers={0: cap})
    inst = make_instance(
        [dp], [station], [kt], travel_cost_rate=1.0, wait_cost_rate=wait, travel={(0, 0): 1.0}, epsilon=eps
    )
    sizer, mu = construction._PairSizer(inst), kt.service_rate
    top = capacity(mu, cap, eps)
    loads = sorted({x for share in shares for x in (share * top, math.nextafter(share * top, math.inf)) if x <= top})
    costs = [sizer.best(0, 0, load)[2] for load in loads]
    extras = [cost - load * wait / mu for cost, load in zip(costs, loads)]
    assert all(extra >= -1e-12 * cost for cost, extra in zip(costs, extras)), extras
    assert all(e1 >= e0 - 1e-12 * c1 for e0, e1, c1 in zip(extras, extras[1:], costs[1:])), (loads, extras)


def test_steps_list_options_in_myopic_order():
    """Each depth's options are walked cheapest myopic cost first, the
    order the early stop in :meth:`_children` relies on."""
    for seed in range(8):
        search = _TreeSearch(feasible_instance(seed, n_demand=9, n_station=4), SolverConfig())
        for options in search.steps:
            myopic = [myopic for (_, myopic, _, _) in options.values()]
            assert myopic == sorted(myopic) and len(myopic) > 1


# (seed, proximity) -> (nodes_explored, cuts_added, lower_bound.hex(),
# upper_bound.hex()) of branch-and-bound on feasible_instance(seed, 9, 4)
PINNED_SEARCH = {
    (0, False): (50, 8, '0x1.51f20790c7c70p+6', '0x1.51f20790c7c70p+6'),
    (1, False): (2971, 13, '0x1.e9e9497587a7cp+5', '0x1.e9e9497587a7cp+5'),
    (2, False): (34, 5, '0x1.47b294d49c0d9p+5', '0x1.47b294d49c0d9p+5'),
    (3, False): (5937, 8, '0x1.b51459457f1e4p+5', '0x1.b51459457f1e4p+5'),
    (4, False): (3137, 13, '0x1.213f676e5a7e4p+6', '0x1.213f676e5a7e4p+6'),
    (5, False): (244, 12, '0x1.0c5c6d10fb8cap+6', '0x1.0c5c6d10fb8cap+6'),
    (6, False): (417, 10, '0x1.271f93dcb56e4p+6', '0x1.271f93dcb56e4p+6'),
    (7, False): (2096, 11, '0x1.8d042b91667a0p+5', '0x1.8d042b91667a0p+5'),
    (0, True): (50, 8, '0x1.51f20790c7c70p+6', '0x1.51f20790c7c70p+6'),
    (1, True): (280, 13, '0x1.e9e9497587a7cp+5', '0x1.e9e9497587a7cp+5'),
    (2, True): (16, 3, '0x1.47b294d49c0d9p+5', '0x1.47b294d49c0d9p+5'),
    (3, True): (677, 4, '0x1.bb19cdb7a05f6p+5', '0x1.bb19cdb7a05f6p+5'),
    (4, True): (355, 17, '0x1.23c2035bdc990p+6', '0x1.23c2035bdc990p+6'),
    (5, True): (97, 11, '0x1.24fae4f9148b5p+6', '0x1.24fae4f9148b5p+6'),
    (6, True): (108, 8, '0x1.2f88b997d9144p+6', '0x1.2f88b997d9144p+6'),
    (7, True): (321, 9, '0x1.94136715f296fp+5', '0x1.94136715f296fp+5'),
}


@pytest.mark.parametrize("seed, proximity", sorted(PINNED_SEARCH, key=lambda k: (k[1], k[0])))
def test_search_course_is_pinned(seed, proximity):
    """A refactor that reorders the search, or moves a bound by one bit,
    changes these."""
    inst = replace(feasible_instance(seed, n_demand=9, n_station=4), enforce_proximity=proximity)
    rep = branch_and_bound(inst)
    got = (rep.nodes_explored, rep.cuts_added, rep.lower_bound.hex(), rep.upper_bound.hex())
    assert got == PINNED_SEARCH[(seed, proximity)]


# (n_demand, n_station, seed, proximity) -> (nodes_explored, cuts_added,
# lower_bound.hex(), upper_bound.hex()) of branch-and-bound on
# feasible_instance(seed, n_demand, n_station, cap_range=(6, 14)). Cuts land
# mid-search here, so a node popped after one must be bounded again: in five
# of the six, a search that never re-bounds explores more nodes.
PINNED_LARGER_SEARCH = {
    (12, 5, 1, True): (4373, 9, '0x1.2c86860da3243p+6', '0x1.2c86860da3243p+6'),
    (14, 4, 1, True): (7822, 10, '0x1.88534fd8ee786p+6', '0x1.88534fd8ee786p+6'),
    (16, 4, 0, False): (3212, 15, '0x1.9043d3b6de2ddp+6', '0x1.9043d3b6de2ddp+6'),
    (16, 4, 0, True): (596, 5, '0x1.b5d66009172bdp+6', '0x1.b5d66009172bdp+6'),
    (16, 5, 0, True): (16859, 29, '0x1.ca434dc0ad570p+6', '0x1.ca434dc0ad570p+6'),
    (16, 5, 2, False): (2548, 7, '0x1.ef42f87a4b2aap+5', '0x1.ef42f87a4b2aap+5'),
}


@pytest.mark.parametrize("n_demand, n_station, seed, proximity", sorted(PINNED_LARGER_SEARCH))
def test_larger_search_course_is_pinned(n_demand, n_station, seed, proximity):
    inst = feasible_instance(seed, n_demand=n_demand, n_station=n_station, cap_range=(6, 14))
    rep = branch_and_bound(replace(inst, enforce_proximity=proximity))
    got = (rep.nodes_explored, rep.cuts_added, rep.lower_bound.hex(), rep.upper_bound.hex())
    assert got == PINNED_LARGER_SEARCH[(n_demand, n_station, seed, proximity)]


EPS = 1e-6


@st.composite
def small_instances(draw):
    """Instances brute force enumerates quickly, drawn from small value sets
    so that travel times, rates and pair loads tie; some rates sit exactly at
    the stability margin of one charger, or at half of it so two of them
    fill it, and charger caps are often one."""
    n_demand = draw(st.integers(1, 4))
    n_station = draw(st.integers(1, 3))
    recharge = draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=1, max_size=2))
    kinds = [
        ChargerType(id=k, power_kw=100.0 * (k + 1), unit_cost_rate=draw(st.sampled_from([0.05, 0.2, 1.0])),
                    recharge_time_min=r)
        for k, r in enumerate(recharge)
    ]
    margin = kinds[0].service_rate * (1.0 - EPS)
    rate = st.sampled_from([0.1, 0.25, 0.5, margin, margin / 2])
    cap = st.sampled_from([0, 1, 1, 2, 3])
    demands = [DemandPoint(id=i, lat=41.8, lon=-87.7, rate=draw(rate)) for i in range(n_demand)]
    stations = [
        CandidateStation(id=j, lat=41.8, lon=-87.7, fixed_cost_rate=draw(st.sampled_from([0.0, 0.5, 2.0])),
                         max_chargers={k.id: draw(cap) for k in kinds})
        for j in range(n_station)
    ]
    travel = {}
    for i in range(n_demand):
        reach = draw(st.lists(st.sampled_from(range(n_station)), min_size=1, max_size=n_station, unique=True))
        for j in reach:
            travel[(i, j)] = draw(st.sampled_from([1.0, 2.0, 5.0]))
    return make_instance(
        demands, stations, kinds,
        travel_cost_rate=draw(st.sampled_from([0.1, 1.0])),
        wait_cost_rate=draw(st.sampled_from([0.5, 2.0])),
        travel=travel,
        epsilon=EPS,
        enforce_proximity=draw(st.booleans()),
    )


class TestDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_instances())
    def test_branch_and_bound_matches_brute_force(self, inst):
        try:
            want = brute_force(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                branch_and_bound(inst)
            return
        got = branch_and_bound(inst)
        assert got.upper_bound == pytest.approx(want.upper_bound, rel=1e-9)
        assert got.lower_bound == got.upper_bound and got.gap == 0.0
        assert check_feasibility(inst, got.best) == []


def scaled_costs(instance, a):
    """The instance with every cost rate (station, charger, travel and wait)
    multiplied by ``a``."""
    return replace(
        instance,
        stations=tuple(replace(s, fixed_cost_rate=a * s.fixed_cost_rate) for s in instance.stations),
        charger_types=tuple(replace(k, unit_cost_rate=a * k.unit_cost_rate) for k in instance.charger_types),
        travel_cost_rate=a * instance.travel_cost_rate,
        wait_cost_rate=a * instance.wait_cost_rate,
    )


class TestCostUnits:
    """Multiplying every cost rate by a > 0 multiplies every deployment's
    cost by a, so no answer may depend on the unit of cost. A power of two
    scales every float product, quotient and sum exactly, so the scaled
    solve must give the same deployment and search course, and every cost
    and bound exactly a times the unscaled one. (SA's cooling pace still
    depends on the unit of cost, so SA is left out.)"""

    SOLVERS = {
        "bnb": branch_and_bound,
        "ga": lambda inst: genetic_algorithm(inst, GAParams(max_iterations=200, seed=1)),
        "multi-ga": lambda inst: multi_run(inst, "ga", GAParams(max_iterations=100, seed=2), n_runs=3),
    }

    @staticmethod
    def course(report):
        """What the unit of cost must not move: the deployment, the search
        statistics, the gap, and every stat but the run costs."""
        best = report.best
        stats = {k: v for k, v in report.stats.items() if k != "run_costs"}
        return (best.active, best.assignments, best.chargers, best.waits, report.nodes_explored,
                report.cuts_added, report.terminated_by, report.gap, stats)

    @staticmethod
    def costs(report):
        cost = report.best.cost
        return [report.lower_bound, report.upper_bound, cost.station, cost.charger, cost.travel, cost.waiting,
                cost.total, *report.stats.get("run_costs", ())]

    @pytest.mark.parametrize("proximity", [False, True], ids=["free", "proximity"])
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed, n_demand, n_station, caps", [(9011, 9, 4, (6, 14)), (5, 8, 3, (2, 8))])
    def test_cost_units_scale_every_answer(self, seed, n_demand, n_station, caps, solver, proximity):
        inst = replace(feasible_instance(seed, n_demand=n_demand, n_station=n_station, cap_range=caps),
                       enforce_proximity=proximity)
        solve = self.SOLVERS[solver]
        base = solve(inst)
        for a in (2.0 ** -40, 2.0 ** -3, 2.0 ** 20):
            got = solve(scaled_costs(inst, a))
            assert self.course(got) == self.course(base), a
            assert self.costs(got) == [a * c for c in self.costs(base)], a
