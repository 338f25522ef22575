import itertools
import math
import random
import time

import pytest

from chargeplan import construction
from chargeplan.construction import (
    CandidateContext,
    best_chargers,
    cover_sets,
    demand_assignment,
    min_stations,
    size_pair,
)
from chargeplan.errors import InfeasibleError, UncoveredDemandError
from chargeplan.metaheuristics import GAParams, SAParams, genetic_algorithm, simulated_annealing
from chargeplan.model import (
    CandidateStation,
    ChargerType,
    DemandPoint,
    check_feasibility,
    cost_tables,
    cost_totals,
    make_instance,
)
from chargeplan.queueing import expected_wait, min_chargers

from gen import random_instance


def coverage_instance(reach: dict[int, list[int]], n_stations: int, costs=None, rates=None, caps=None):
    """Instance with prescribed reachability; geometry is irrelevant here."""
    kinds = [ChargerType(id=0, power_kw=100.0, unit_cost_rate=0.5, recharge_time_min=10.0)]
    costs = costs or {j: 1.0 for j in range(n_stations)}
    rates = rates or {i: 0.01 for i in reach}
    caps = caps or {j: 50 for j in range(n_stations)}
    dps = [DemandPoint(id=i, lat=41.8, lon=-87.7 + 0.001 * i, rate=rates[i]) for i in sorted(reach)]
    sts = [
        CandidateStation(id=j, lat=41.8, lon=-87.7 + 0.001 * j, fixed_cost_rate=costs[j], max_chargers={0: caps[j]})
        for j in range(n_stations)
    ]
    travel = {(i, j): 5.0 + i + j for i, js in reach.items() for j in js}
    return make_instance(dps, sts, kinds, travel_cost_rate=1.0, wait_cost_rate=1.0, travel=travel)


class TestMinStations:
    def test_single_station_covers_everything(self):
        inst = coverage_instance({0: [0], 1: [0], 2: [0]}, 1)
        assert min_stations(inst) == {0}

    def test_disjoint_groups_force_both(self):
        inst = coverage_instance({0: [0], 1: [1]}, 2)
        assert min_stations(inst) == {0, 1}

    def test_greedy_trace(self):
        # A covers {1,2}, B covers {2,3}, C covers {3}: A first (count), then B
        inst = coverage_instance({1: [0, 1], 2: [0], 3: [1, 2]}, 3)
        assert min_stations(inst) == {0, 1}

    def test_infeasible_when_no_admissible_station(self):
        # mu=0.1: two chargers serve 0.2 < 10.0; the cover is still found,
        # and only charger sizing finds it cannot be equipped
        inst = coverage_instance({0: [0]}, 1, rates={0: 10.0}, caps={0: 2})
        assert min_stations(inst) == {0}
        with pytest.raises(InfeasibleError):
            simulated_annealing(inst, SAParams(max_iterations=10))
        with pytest.raises(InfeasibleError):
            genetic_algorithm(inst, GAParams(population_size=2, max_iterations=10))

    def test_greedy_vs_exhaustive_minimum(self):
        # greedy is not guaranteed minimum; measure and record the gap
        rng = random.Random(0)
        gaps = []
        for trial in range(40):
            n_i, n_j = rng.randint(3, 8), rng.randint(3, 10)
            reach = {
                i: sorted(rng.sample(range(n_j), rng.randint(1, n_j))) for i in range(n_i)
            }
            inst = coverage_instance(reach, n_j)
            greedy = min_stations(inst)
            exact = min(
                (len(combo) for r in range(1, n_j + 1)
                 for combo in itertools.combinations(range(n_j), r)
                 if all(set(js) & set(combo) for js in reach.values())),
            )
            assert len(greedy) >= exact
            gaps.append(len(greedy) - exact)
        # the greedy is near-minimal on these scales; equality is NOT asserted
        assert sum(gaps) <= len(gaps)


class TestCoverSets:
    def test_exactly_one_minimum_cover(self):
        inst = coverage_instance({0: [0], 1: [0]}, 1)
        assert cover_sets(inst, 1) == [frozenset({0})]

    def test_single_cover_plus_supersets(self):
        # station 0 covers everything; 1 and 2 cover nothing on their own path
        inst = coverage_instance({0: [0], 1: [0], 2: [0]}, 3)
        out = cover_sets(inst, 5)
        assert frozenset({0}) in out
        assert frozenset({0, 1}) in out and frozenset({0, 2}) in out

    def test_symmetric_minimum_covers_both_collected(self):
        inst = coverage_instance({1: [0], 2: [1, 2]}, 3)
        out = cover_sets(inst, 10)
        assert frozenset({0, 1}) in out and frozenset({0, 2}) in out

    def test_cardinalities_within_one_of_minimum(self):
        rng = random.Random(3)
        for trial in range(25):
            n_i, n_j = rng.randint(2, 6), rng.randint(2, 8)
            reach = {i: sorted(rng.sample(range(n_j), rng.randint(1, n_j))) for i in range(n_i)}
            inst = coverage_instance(reach, n_j)
            out = cover_sets(inst, 30)
            exact = min(
                (len(combo) for r in range(1, n_j + 1)
                 for combo in itertools.combinations(range(n_j), r)
                 if all(set(js) & set(combo) for js in reach.values())),
            )
            assert all(len(c) in (exact, exact + 1) for c in out)
            for cover in out:
                assert all(set(js) & cover for js in reach.values())

    def test_matches_exhaustive_family_when_small(self):
        # oracle: all S and S+1 covers reachable by the enumeration, i.e.
        # those with a member whose removal breaks coverage (otherwise every
        # ordering completes early and the set is never formed)
        rng = random.Random(8)
        for trial in range(15):
            n_i, n_j = rng.randint(2, 5), rng.randint(2, 6)
            reach = {i: sorted(rng.sample(range(n_j), rng.randint(1, n_j))) for i in range(n_i)}
            inst = coverage_instance(reach, n_j)
            out = set(cover_sets(inst, 10_000))

            def covers(combo):
                return all(set(js) & set(combo) for js in reach.values())

            exact = min(
                len(combo)
                for r in range(1, n_j + 1)
                for combo in itertools.combinations(range(n_j), r)
                if covers(combo)
            )
            family = set()
            for r in (exact, exact + 1):
                for combo in itertools.combinations(range(n_j), r):
                    if covers(combo) and any(
                        not covers(set(combo) - {j}) for j in combo
                    ):
                        family.add(frozenset(combo))
            assert out == family

    def test_population_cap_respected(self):
        inst = coverage_instance({0: [0, 1, 2, 3]}, 4)
        assert len(cover_sets(inst, 3)) == 3

    def test_deterministic(self):
        inst = coverage_instance({0: [0, 1], 1: [1, 2]}, 3)
        assert cover_sets(inst, 8) == cover_sets(inst, 8)


def reference_min_cover_size(all_demands, served, covering) -> int:
    """The minimum-cover search as it stood before the packing bound."""
    best = math.inf

    def dfs(remaining: frozenset[int], size: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, size)
            return
        if size + 1 >= best:
            return
        pivot = min(remaining, key=lambda i: (len(covering[i]), i))
        for j in covering[pivot]:
            dfs(remaining - served[j], size + 1)

    dfs(all_demands, 0)
    if math.isinf(best):
        raise InfeasibleError("no station subset covers every demand point")
    return int(best)


def reference_cover_sets(instance, population_size: int) -> list[frozenset[int]]:
    """The cover enumeration as it stood before the visited set and the
    packing bound: it walks every ordering of every subset. Kept as the
    referee for the order and content of :func:`cover_sets`."""
    if population_size < 1:
        raise ValueError("population_size must be >= 1")
    all_demands = frozenset(d.id for d in instance.demand_points)
    if not all_demands:
        return [frozenset()]
    station_ids = sorted(s.id for s in instance.stations)
    served = {j: frozenset(instance.station_by_id[j].served) for j in station_ids}
    covering = {
        d.id: [j for j in station_ids if d.id in served[j]] for d in instance.demand_points
    }
    best_size = reference_min_cover_size(all_demands, served, covering)

    found: dict[frozenset[int], None] = {}

    def backtrack(remaining: frozenset[int], active: frozenset[int], pool: tuple[int, ...]) -> None:
        if len(found) >= population_size:
            return
        if not remaining:
            if len(active) in (best_size, best_size + 1):
                found.setdefault(active, None)
            return
        if len(active) >= best_size + 1:
            return
        for idx, j in enumerate(pool):
            if len(found) >= population_size:
                return
            backtrack(remaining - served[j], active | {j}, pool[:idx] + pool[idx + 1:])

    backtrack(all_demands, frozenset(), tuple(station_ids))
    return list(found)


def random_reach(rng: random.Random, n_stations: int) -> dict[int, list[int]]:
    """A reach map of 1-9 demands, each reaching a random nonempty subset of
    the stations, some narrow and some wide."""
    return {
        i: sorted(rng.sample(range(n_stations), rng.randint(1, max(1, n_stations // rng.choice([1, 2, 3])))))
        for i in range(rng.randint(1, 9))
    }


def search_maps(instance):
    """The ``served`` and ``covering`` maps that the cover searches build."""
    served = {s.id: frozenset(s.served) for s in instance.stations}
    covering = {d.id: [j for j in sorted(served) if d.id in served[j]] for d in instance.demand_points}
    return served, covering


def min_cover_by_scan(reach: dict[int, list[int]], demands, n_stations: int) -> int:
    """Smallest number of stations that cover ``demands``, by trying every
    station combination in order of size."""
    for r in range(n_stations + 1):
        for combo in itertools.combinations(range(n_stations), r):
            if all(set(reach[i]) & set(combo) for i in demands):
                return r
    raise AssertionError("uncoverable")


def geometric_reach(seed: int, n_demands=96, n_stations=60, radius=0.17) -> dict[int, list[int]]:
    """Stations and demands drawn in the unit square; a demand reaches the
    stations within ``radius``, and demands that reach none are redrawn."""
    rng = random.Random(seed)
    stations = [(rng.random(), rng.random()) for _ in range(n_stations)]
    reach: dict[int, list[int]] = {}
    while len(reach) < n_demands:
        x, y = rng.random(), rng.random()
        near = [j for j, (sx, sy) in enumerate(stations) if (x - sx) ** 2 + (y - sy) ** 2 <= radius ** 2]
        if near:
            reach[len(reach)] = near
    return reach


class TestCoverSearch:
    """The visited set and the packing bound change neither the covers nor
    their order; the deadline bounds the search."""

    @pytest.mark.parametrize("n_stations", [2, 5, 8])
    def test_same_covers_in_same_order_as_reference(self, n_stations):
        rng = random.Random(100 + n_stations)
        for _ in range(40):
            inst = coverage_instance(random_reach(rng, n_stations), n_stations)
            for population in (1, 5, 30, 10_000):
                assert cover_sets(inst, population) == reference_cover_sets(inst, population)

    def test_min_cover_size_matches_combination_scan(self):
        rng = random.Random(21)
        for _ in range(120):
            n_stations = rng.choice([2, 5, 8])
            reach = random_reach(rng, n_stations)
            inst = coverage_instance(reach, n_stations)
            served, covering = search_maps(inst)
            size = construction._min_cover_size(frozenset(reach), served, covering, len(min_stations(inst)))
            assert size == min_cover_by_scan(reach, reach, n_stations)

    def test_packing_bound_never_exceeds_minimum_cover(self):
        rng = random.Random(34)
        for _ in range(300):
            n_stations = rng.choice([2, 5, 8])
            reach = random_reach(rng, n_stations)
            _, covering = search_maps(coverage_instance(reach, n_stations))
            remaining = rng.sample(sorted(reach), rng.randint(1, len(reach)))
            packed = construction._packing_bound(remaining, covering)
            assert 1 <= packed <= min_cover_by_scan(reach, remaining, n_stations)

    def test_each_station_subset_searched_once(self, monkeypatch):
        # demand i reaches only station i: the one cover is every station, and
        # no bound prunes, so the search meets all 2^n subsets; walking every
        # ordering instead would bound about e * n! times. The minimum-cover
        # search on this map is one chain of at most n calls.
        n = 10
        inst = coverage_instance({i: [i] for i in range(n)}, n)
        bound = construction._packing_bound
        calls = 0

        def counted(remaining, covering):
            nonlocal calls
            calls += 1
            assert calls <= 2 ** n + n, "a station subset was searched twice"
            return bound(remaining, covering)

        monkeypatch.setattr(construction, "_packing_bound", counted)
        assert cover_sets(inst, 2) == [frozenset(range(n))]

    def test_passed_deadline_falls_back_to_greedy_cover(self):
        inst = coverage_instance(geometric_reach(0), 60)
        assert cover_sets(inst, 30, deadline=0.0) == [min_stations(inst)]

    def test_ga_time_limit_holds_through_cover_search(self):
        # the cover search alone runs past 15 s here; with a 1 s limit the GA
        # must stop inside the search and still report a feasible plan
        inst = coverage_instance(geometric_reach(0), 60)
        t0 = time.perf_counter()
        report = genetic_algorithm(inst, GAParams(population_size=30, seed=0), time_limit=1.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0 + 0.5
        assert report.terminated_by == "time"
        assert report.stats["cover_search_cut"] is True
        assert check_feasibility(inst, report.best) == []

    def test_untimed_report_has_no_cut_key(self):
        inst = coverage_instance({0: [0, 1], 1: [1, 2], 2: [2]}, 3)
        report = genetic_algorithm(inst, GAParams(population_size=4, max_iterations=20))
        assert "cover_search_cut" not in report.stats


class TestCandidateKernel:
    """SA and GA's per-run CandidateContext against plain recomputation."""

    def test_covering_matches_a_set_check_over_random_toggles(self):
        self.walk_and_check()

    def test_covering_matches_a_set_check_with_the_memo_emptied_often(self, monkeypatch):
        monkeypatch.setattr(construction, "_MEMO_ENTRIES", 3)
        self.walk_and_check()

    @staticmethod
    def walk_and_check():
        """Random toggles and jumps over random instances of up to 14
        stations, each mask's covering set checked against set intersections."""
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(seed, n_demand=rng.randint(1, 12), n_station=rng.randint(1, 14))
            station_ids = [s.id for s in inst.stations]
            context = CandidateContext(inst)
            mask = 0
            for _ in range(60):
                if rng.random() < 0.2:
                    mask = rng.getrandbits(len(station_ids))  # a jump, as a walk's new start is
                else:
                    mask ^= rng.choice(context.bits)
                active = {j for n, j in enumerate(station_ids) if mask >> n & 1}
                covers = bool(active) and all(active.intersection(d.reachable) for d in inst.demand_points)
                assert context.covering(mask) == (frozenset(active) if covers else frozenset())
                assert context.mask(active) == mask
                seen.add(covers)
        assert seen == {False, True}

    @pytest.mark.parametrize("proximity", [False, True])
    @pytest.mark.parametrize("randomization", [0.0, 0.3, 1.0])
    def test_assignment_through_the_run_memo_equals_a_fresh_call(self, proximity, randomization):
        rng = random.Random(43)
        checked = 0
        for seed in range(20):
            inst = random_instance(seed, n_demand=rng.randint(2, 12), n_station=rng.randint(2, 12))
            inst = make_instance(inst.demand_points, inst.stations, inst.charger_types,
                                 travel_cost_rate=1.0, wait_cost_rate=1.0, travel=inst.travel,
                                 enforce_proximity=proximity)
            context = CandidateContext(inst)
            cover = context.mask(min_stations(inst))
            # a few activations, each drawn for many times, so most calls hit the memo
            pool = [context.covering(cover | rng.getrandbits(len(inst.stations))) for _ in range(4)]
            for _ in range(12):
                active = rng.choice(pool)
                state = random.Random(rng.random()).getstate()
                memo_rng, fresh_rng, ref_rng = random.Random(), random.Random(), random.Random()
                for r in (memo_rng, fresh_rng, ref_rng):
                    r.setstate(state)
                got = demand_assignment(inst, active, randomization, memo_rng, context)
                assert got == demand_assignment(inst, active, randomization, fresh_rng)
                assert got == TestDemandAssignment.reference(inst, active, randomization, ref_rng)
                assert memo_rng.getstate() == fresh_rng.getstate() == ref_rng.getstate()
                checked += 1
        assert checked == 240

    def test_tables_sum_the_written_formula_bit_for_bit(self):
        def reference(instance, active, assignments, chargers, waits):
            # the objective as cost_totals first summed it, from the instance's records
            station = sum((instance.station_by_id[j].fixed_cost_rate for j in sorted(active)), 0.0)
            charger = sum((instance.type_by_id[k].unit_cost_rate * s for (j, k), s in sorted(chargers.items())), 0.0)
            travel = waiting = 0.0
            for (i, j, k) in sorted(assignments):
                lam = instance.demand_by_id[i].rate
                travel += lam * instance.travel_cost_rate * instance.travel[(i, j)]
                waiting += lam * instance.wait_cost_rate * waits[(j, k)]
            return station, charger, travel, waiting, station + charger + travel + waiting

        rng = random.Random(47)
        for seed in range(40):
            base = random_instance(seed, n_demand=rng.randint(1, 12), n_station=rng.randint(1, 8),
                                   k_types=rng.randint(1, 3))
            # records out of id order, so the id order of the sums is not the records' order
            dps, sts = list(base.demand_points), list(base.stations)
            rng.shuffle(dps)
            rng.shuffle(sts)
            inst = make_instance(dps, sts, base.charger_types, travel_cost_rate=rng.uniform(0.5, 3.0),
                                 wait_cost_rate=rng.uniform(0.5, 4.0), travel=base.travel)
            tables = cost_tables(inst)
            type_ids = [k.id for k in inst.charger_types]
            for _ in range(5):
                assignments = frozenset((d.id, rng.choice(d.reachable), rng.choice(type_ids))
                                        for d in inst.demand_points)
                active = {j for (_, j, _) in assignments} | {s.id for s in sts if rng.random() < 0.3}
                pairs = {(j, k) for (_, j, k) in assignments}
                chargers = {pair: rng.randint(1, 9) for pair in pairs}
                waits = {pair: rng.uniform(1.0, 100.0) for pair in pairs}
                pair_of = {i: (j, k) for (i, j, k) in assignments}
                vector = [pair_of[d.id] for d in inst.demand_order]
                got = cost_totals(tables, active, vector, chargers, waits)
                want = reference(inst, active, assignments, chargers, waits)
                assert [x.hex() for x in (got.station, got.charger, got.travel, got.waiting, got.total)] == [
                    x.hex() for x in want]
                assert cost_totals(cost_tables(inst), active, vector, chargers, waits) == got


class TestDemandAssignment:
    def make(self):
        return coverage_instance({0: [0, 1], 1: [0, 1], 2: [1, 2]}, 3)

    def test_zero_randomness_assigns_nearest(self):
        inst = self.make()
        a = demand_assignment(inst, {0, 1, 2}, 0.0, random.Random(0))
        for d, (j, _) in zip(inst.demand_order, a):
            i = d.id
            best = min(
                (jj for jj in inst.demand_by_id[i].reachable),
                key=lambda jj: (inst.travel[(i, jj)], jj),
            )
            assert j == best

    def test_full_randomness_single_station(self):
        inst = coverage_instance({0: [0], 1: [0], 2: [0]}, 1)
        a = demand_assignment(inst, {0}, 1.0, random.Random(0))
        assert {j for (j, _) in a} == {0}
        assert len(a) == 3

    def test_seed_reproducibility(self):
        inst = self.make()
        a = demand_assignment(inst, {0, 1, 2}, 0.4, random.Random(99))
        b = demand_assignment(inst, {0, 1, 2}, 0.4, random.Random(99))
        assert a == b

    def test_uncovered_demand_raises(self):
        inst = self.make()
        with pytest.raises(UncoveredDemandError):
            demand_assignment(inst, {0}, 0.0, random.Random(0))  # demand 2 reaches only 1, 2

    def test_each_demand_exactly_once(self):
        inst = self.make()
        a = demand_assignment(inst, {0, 1, 2}, 0.5, random.Random(5))
        assert len(a) == 3 and None not in a  # a pair at every demand's position

    @staticmethod
    def reference(instance, active, randomization, rng):
        """The rule as first written: build the active options, then take the
        closest by (travel, id) unless the exploration draw picks one. The
        pairs are drawn in record order and placed at each demand's rank."""
        act = set(active)
        type_ids = [k.id for k in instance.charger_types]
        vector = [None] * len(instance.demand_points)
        for d in instance.demand_points:
            options = [j for j in d.reachable if j in act]
            if not options:
                raise UncoveredDemandError(f"demand {d.id} has no active reachable station")
            if rng.random() < randomization and not instance.enforce_proximity:
                j = options[rng.randrange(len(options))]
            else:
                j = min(options, key=lambda jj: (instance.travel[(d.id, jj)], jj))
            k = type_ids[rng.randrange(len(type_ids))]
            vector[instance.demand_rank[d.id]] = (j, k)
        return vector

    @pytest.mark.parametrize("proximity", [False, True])
    @pytest.mark.parametrize("randomization", [0.0, 0.3, 1.0])
    def test_matches_closest_by_min_rule(self, proximity, randomization):
        # whole-minute travel times: many demands reach stations tied on travel
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            n_demand, n_station = rng.randint(2, 8), rng.randint(2, 6)
            reach = {i: rng.sample(range(n_station), rng.randint(1, n_station)) for i in range(n_demand)}
            inst = coverage_instance(reach, n_station)
            travel = {(i, j): float(rng.randint(1, 3)) for (i, j) in inst.travel}
            inst = make_instance(inst.demand_points, inst.stations, inst.charger_types, travel_cost_rate=1.0,
                                 wait_cost_rate=1.0, travel=travel, enforce_proximity=proximity)
            for _ in range(5):
                active = set(rng.sample(range(n_station), rng.randint(1, n_station)))
                if not all(active.intersection(d.reachable) for d in inst.demand_points):
                    continue
                seed = rng.random()
                want_rng, got_rng = random.Random(seed), random.Random(seed)
                want = self.reference(inst, active, randomization, want_rng)
                assert demand_assignment(inst, active, randomization, got_rng) == want
                assert got_rng.getstate() == want_rng.getstate()
                checked += 1
        assert checked >= 50


class TestBestChargers:
    def test_stability_minimum(self):
        assert min_chargers(1.0, 0.4, 1e-6) == 3
        assert min_chargers(0.99, 1.0, 1e-6) == 1
        assert min_chargers(0.0, 1.0, 1e-6) == 0
        # integral ratio must bump by one to keep the strict margin
        assert min_chargers(2.0, 1.0, 1e-6) == 3

    def test_marginal_stop_rule(self):
        # load 0.5 on mu=1: W(1)=2, W(2)=16/15; saving 0.4667 < unit cost 1
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        assert size_pair(0.5, kt, 10, 1.0, 1e-6) == (1, pytest.approx(2.0))

    def test_zero_traffic_zero_chargers(self):
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        assert size_pair(0.0, kt, 10, 1.0, 1e-6) == (0, 0.0)

    def test_infeasible_when_demand_exceeds_cap(self):
        inst = coverage_instance({0: [0]}, 1, rates={0: 10.0}, caps={0: 3})
        with pytest.raises(InfeasibleError):
            best_chargers(inst, [(0, 0)], construction._PairSizer(inst))  # demand 0 to station 0, type 0

    def test_greedy_equals_bruteforce_over_counts(self):
        # exhaustive minimization of charger + waiting cost over s
        rng = random.Random(17)
        for _ in range(150):
            lam = rng.uniform(0.01, 3.0)
            mu = rng.uniform(0.05, 1.5)
            c_wait = rng.uniform(0.1, 5.0)
            c_unit = rng.uniform(0.01, 2.0)
            kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=c_unit, recharge_time_min=1.0 / mu)
            cap = 50
            got = size_pair(lam, kt, cap, c_wait, 1e-6)
            smin = min_chargers(lam, mu, 1e-6)
            if smin > cap:
                assert got is None
                continue
            best_s, best_cost = None, math.inf
            for s in range(smin, cap + 1):
                w = expected_wait(lam, mu, s)
                cost = c_unit * s + lam * c_wait * w
                if cost < best_cost - 1e-15:
                    best_s, best_cost = s, cost
            assert got[0] == best_s

    def test_carried_sizing_matches_per_count_scan(self):
        # loads needing 100-400 chargers; the reference prices every count
        # with its own expected_wait, so a drift in the carried Erlang-B
        # probability shows as a different count or wait
        def reference(load, kt, cap, c_wait, eps):
            mu = kt.service_rate
            s = min_chargers(load, mu, eps)
            if s > cap:
                return None
            wait = expected_wait(load, mu, s)
            while s < cap:
                nxt = expected_wait(load, mu, s + 1)
                if load * c_wait * (wait - nxt) <= kt.unit_cost_rate:
                    break
                s, wait = s + 1, nxt
            return (s, wait)

        rng = random.Random(2024)
        seen = {"none": 0, "at_cap": 0, "above_min": 0}
        for _ in range(60):
            mu = rng.uniform(0.02, 0.5)
            eps = rng.choice([1e-6, 0.05])
            load = mu * (1.0 - eps) * rng.uniform(100.0, 400.0)
            kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=rng.uniform(0.001, 1.0), recharge_time_min=1.0 / mu)
            c_wait = rng.uniform(0.1, 5.0)
            smin = min_chargers(load, mu, eps)
            for cap in (10, 100, 800, smin - 1, smin, smin + 1):
                got = size_pair(load, kt, cap, c_wait, eps)
                assert got == reference(load, kt, cap, c_wait, eps), (load, mu, cap, eps)
                if got is None:
                    seen["none"] += 1
                elif got[0] == cap:
                    seen["at_cap"] += 1
                elif got[0] > smin:
                    seen["above_min"] += 1
        assert min(seen.values()) > 0, seen

    def test_sizer_returns_size_pair_once_per_key(self, monkeypatch):
        # caps 1-3 leave some pairs unsizable, so None is memoized too
        inst = random_instance(5, n_demand=6, n_station=3, cap_range=(1, 3))
        calls = []
        real = construction.size_pair
        monkeypatch.setattr(construction, "size_pair", lambda *a: calls.append(a) or real(*a))
        sizer = construction._PairSizer(inst)
        rng = random.Random(3)
        keys = [(j, k.id, rng.choice([0.01, 0.05, 0.2, 1.0, 3.0]))
                for j in range(3) for k in inst.charger_types for _ in range(4)]
        results = set()
        for (j, k, load) in keys + keys:
            kt = inst.type_by_id[k]
            want = real(load, kt, inst.station_cap(j, k), inst.wait_cost_rate, inst.epsilon)
            got = sizer.best(j, k, load)
            results.add(want is None)
            if want is None:
                assert got is None
                continue
            s, wait = want
            assert got[:2] == (s, wait)
            assert got[2].hex() == (kt.unit_cost_rate * s + load * inst.wait_cost_rate * wait).hex()
        assert results == {True, False}
        assert len(calls) == len(set(keys)) == len(sizer._memo)


class TestAgainstOracles:
    def test_min_stations_always_feasible(self):
        for seed in range(30):
            inst = random_instance(seed)
            try:
                chosen = min_stations(inst)
            except InfeasibleError:
                continue
            for d in inst.demand_points:
                assert set(d.reachable) & chosen
