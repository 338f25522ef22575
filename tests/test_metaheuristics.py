import gc
import json
import math
import random
import time
import weakref
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from chargeplan import construction, metaheuristics
from chargeplan.exact import branch_and_bound, brute_force, report_to_dict, root_lower_bound
from chargeplan.metaheuristics import (
    GAParams,
    SAParams,
    genetic_algorithm,
    multi_run,
    simulated_annealing,
)
from chargeplan.model import CandidateStation, ChargerType, DemandPoint, check_feasibility, make_instance
from chargeplan.construction import (
    CandidateContext,
    _PairSizer,
    best_chargers,
    build_solution,
    cover_sets,
    demand_assignment,
)
from chargeplan.errors import InfeasibleError, TimeLimitError

from gen import feasible_instance, random_instance


def small(seed=7101):
    return feasible_instance(seed, n_demand=3, n_station=4)


class TestSimulatedAnnealing:
    def test_time_out_before_a_stable_start_is_not_infeasibility(self):
        # the greedy cover does not size, so SA walks to a start; past its
        # deadline that walk ends with TimeLimitError, as GA's pricing does
        inst = feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14))
        with pytest.raises(TimeLimitError, match="1e-09 s"):
            simulated_annealing(inst, SAParams(seed=1), time_limit=1e-9)
        rep = simulated_annealing(inst, SAParams(max_iterations=200, seed=1))
        assert check_feasibility(inst, rep.best) == []

    def test_finds_optimum_with_generous_budget(self):
        inst = small()
        opt = brute_force(inst).upper_bound
        rep = multi_run(inst, "sa", SAParams(max_iterations=2000, assignment_randomness=0.2), n_runs=5)
        assert rep.upper_bound <= opt + 1e-6

    def test_seed_determinism(self):
        inst = small()
        a = simulated_annealing(inst, SAParams(max_iterations=400, seed=5))
        b = simulated_annealing(inst, SAParams(max_iterations=400, seed=5))
        assert a.upper_bound == b.upper_bound
        assert a.best.assignments == b.best.assignments
        assert a.best.chargers == b.best.chargers
        assert a.stats["incumbent_trace"] == b.stats["incumbent_trace"]

    def test_incumbent_nonincreasing(self):
        inst = small(7105)
        rep = simulated_annealing(inst, SAParams(max_iterations=1500, seed=2))
        trace = rep.stats["incumbent_trace"]
        costs = [c for (_, c) in trace]
        assert costs == sorted(costs, reverse=True) or all(
            b <= a for a, b in zip(costs, costs[1:])
        )

    def test_incumbent_always_feasible(self):
        for seed in (7102, 7103, 7104):
            inst = small(seed)
            rep = simulated_annealing(inst, SAParams(max_iterations=600, seed=seed))
            assert check_feasibility(inst, rep.best) == []

    def test_temperature_floor_clamped(self):
        # cooling_factor * T0 > L drives the printed rule negative; the
        # implementation must clamp and keep running
        inst = small(7106)
        rep = simulated_annealing(
            inst,
            SAParams(initial_temperature=1e9, max_iterations=50, cooling_factor=1.0, seed=1),
        )
        assert rep.stats["clamp_events"] > 0
        assert math.isfinite(rep.upper_bound)

    def test_instance_without_stations_keeps_the_empty_deployment(self):
        # no station means no demand: nothing to toggle, and the walk must not draw
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=10.0)
        inst = make_instance([], [], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0)
        rep = simulated_annealing(inst, SAParams(max_iterations=50, seed=3))
        want = genetic_algorithm(inst, GAParams(max_iterations=50, seed=3))
        assert rep.best == want.best == branch_and_bound(inst).best
        assert (rep.best.active, rep.best.assignments, rep.upper_bound) == (frozenset(), frozenset(), 0.0)

    def test_bounds_are_consistent(self):
        inst = small(7107)
        rep = simulated_annealing(inst, SAParams(max_iterations=300, seed=0))
        assert 0 < rep.lower_bound <= rep.upper_bound
        assert rep.gap == pytest.approx(1.0 - rep.lower_bound / rep.upper_bound, abs=1e-12)


class TestGeneticAlgorithm:
    def test_instance_without_stations_stops_at_once(self):
        # no station means no demand: every child would be the empty deployment
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=10.0)
        inst = make_instance([], [], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0)
        rep = genetic_algorithm(inst, GAParams())
        assert rep.nodes_explored == 0
        assert rep.best == simulated_annealing(inst, SAParams()).best == branch_and_bound(inst).best
        assert (rep.best.active, rep.best.assignments, rep.upper_bound) == (frozenset(), frozenset(), 0.0)

    def test_finds_optimum_with_generous_budget(self):
        inst = small()
        opt = brute_force(inst).upper_bound
        rep = multi_run(inst, "ga", GAParams(max_iterations=1200, assignment_randomness=0.2), n_runs=8)
        assert rep.upper_bound <= opt + 1e-6

    def test_seed_determinism(self):
        inst = small(7108)
        a = genetic_algorithm(inst, GAParams(max_iterations=300, seed=9))
        b = genetic_algorithm(inst, GAParams(max_iterations=300, seed=9))
        assert a.upper_bound == b.upper_bound
        assert a.best.assignments == b.best.assignments

    def test_population_size_constant(self):
        inst = small(7109)
        rep = genetic_algorithm(inst, GAParams(population_size=12, max_iterations=200, seed=3))
        assert rep.stats["population_size"] == 12

    def test_passed_deadline_stops_initial_pricing(self):
        # the first chromosome has a finite cost, so pricing stops there
        inst = small()
        rep = genetic_algorithm(inst, GAParams(seed=1), time_limit=1e-9)
        assert rep.stats["population_size"] == 1
        assert rep.terminated_by == "time"
        assert check_feasibility(inst, rep.best) == []

    def test_time_out_before_any_finite_cost_is_not_infeasibility(self):
        # no chromosome of the initial population sizes before time runs out
        inst = feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14))
        with pytest.raises(TimeLimitError, match="1e-09 s"):
            genetic_algorithm(inst, GAParams(seed=1), time_limit=1e-9)
        rep = genetic_algorithm(inst, GAParams(max_iterations=200, seed=1))
        assert rep.upper_bound == pytest.approx(198.9512, abs=1e-4)

    def test_result_feasible(self):
        for seed in (7110, 7111):
            inst = small(seed)
            rep = genetic_algorithm(inst, GAParams(max_iterations=400, seed=seed))
            assert check_feasibility(inst, rep.best) == []

    def test_degenerate_population_single_cover(self):
        # an instance with exactly one cover: crossover can only reproduce it


        from chargeplan.model import CandidateStation, ChargerType, DemandPoint, make_instance

        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=0.2, recharge_time_min=10.0)
        dps = [DemandPoint(id=i, lat=41.8 + 0.01 * i, lon=-87.7, rate=0.01) for i in range(2)]
        st = CandidateStation(id=0, lat=41.8, lon=-87.7, fixed_cost_rate=1.0, max_chargers={0: 6})
        inst = make_instance(
            dps, [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0,
            travel={(0, 0): 3.0, (1, 0): 4.0},
        )
        assert cover_sets(inst, 10) == [frozenset({0})]
        rep = genetic_algorithm(inst, GAParams(max_iterations=100, seed=0))
        assert rep.best.active == {0}
        assert check_feasibility(inst, rep.best) == []


def zero_floor_instance():
    """A free station for demand 0 and a priced one for demand 1, with free
    chargers, travel and waiting: the travel-and-service floor is 0 and the
    optimum costs 5."""
    kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=0.0, recharge_time_min=10.0)
    dps = [DemandPoint(id=i, lat=41.8, lon=-87.7, rate=0.01) for i in range(2)]
    sts = [
        CandidateStation(id=j, lat=41.8, lon=-87.7, fixed_cost_rate=5.0 * j, max_chargers={0: 2})
        for j in range(2)
    ]
    return make_instance(
        dps, sts, [kt], travel_cost_rate=0.0, wait_cost_rate=0.0, travel={(0, 0): 1.0, (1, 1): 1.0}
    )


class TestZeroFloor:
    @pytest.mark.parametrize("solve, params", [
        (simulated_annealing, SAParams(max_iterations=50)),
        (genetic_algorithm, GAParams(max_iterations=50)),
    ])
    def test_zero_floor_reports_a_full_gap(self, solve, params):
        inst = zero_floor_instance()
        assert root_lower_bound(inst) == 0.0
        rep = solve(inst, params)
        assert (rep.lower_bound, rep.upper_bound, rep.gap) == (0.0, 5.0, 1.0)
        assert check_feasibility(inst, rep.best) == []


class TestCoverageRule:
    def test_stations_too_small_for_all_they_serve_still_used(self):
        # both demands (rate 0.6) reach both stations, whose one charger
        # (mu = 1) cannot take 1.2; one demand per station is stable, and SA
        # must find it as brute force and GA do
        from chargeplan.model import CandidateStation, ChargerType, DemandPoint, make_instance

        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dps = [DemandPoint(id=i, lat=41.8, lon=-87.7, rate=0.6) for i in range(2)]
        sts = [
            CandidateStation(id=j, lat=41.8, lon=-87.7, fixed_cost_rate=1.0, max_chargers={0: 1})
            for j in range(2)
        ]
        inst = make_instance(
            dps, sts, [kt], travel_cost_rate=1.0, wait_cost_rate=1.0,
            travel={(0, 0): 2.0, (0, 1): 4.0, (1, 0): 4.0, (1, 1): 2.0},
        )
        opt = brute_force(inst).upper_bound
        assert opt == pytest.approx(9.4, abs=1e-12)
        for rep in (
            simulated_annealing(inst, SAParams(max_iterations=200)),
            genetic_algorithm(inst, GAParams(max_iterations=50)),
        ):
            assert rep.upper_bound == pytest.approx(opt, abs=1e-12)
            assert check_feasibility(inst, rep.best) == []


class TestProximity:
    # seeds on which SA or GA once returned a deployment that sends some
    # demand past a closer active station
    @pytest.mark.parametrize("seed", [320, 322, 328, 334])
    def test_deployments_use_the_closest_active_station(self, seed):
        inst = replace(feasible_instance(seed, n_demand=6, n_station=5), enforce_proximity=True)
        for rep in (
            simulated_annealing(inst, SAParams(max_iterations=100)),
            genetic_algorithm(inst, GAParams(max_iterations=100)),
        ):
            assert [v for v in check_feasibility(inst, rep.best) if v.code == "not_closest_active"] == []


class TestMultiRun:
    def test_single_run_identical_to_direct(self):
        inst = small(7112)
        direct = simulated_annealing(inst, SAParams(max_iterations=300, seed=40))
        wrapped = multi_run(inst, "sa", SAParams(max_iterations=300, seed=40), n_runs=1)
        assert wrapped.upper_bound == direct.upper_bound
        assert wrapped.stats["run_costs"] == [direct.upper_bound]

    def test_best_not_worse_than_any_run(self):
        inst = small(7113)
        res = multi_run(inst, "ga", GAParams(max_iterations=250, seed=3), n_runs=6)
        assert all(res.upper_bound <= c + 1e-15 for c in res.stats["run_costs"])
        assert 1 <= res.stats["distinct_objectives"] <= 6

    def test_consistent_on_easy_instance(self):
        inst = small(7114)
        res = multi_run(inst, "sa", SAParams(max_iterations=1500, assignment_randomness=0.2, seed=1), n_runs=6)
        assert res.stats["distinct_objectives"] == 1

    @pytest.mark.parametrize("method, params", [
        ("sa", SAParams(max_iterations=10**6, seed=1)),
        ("ga", GAParams(max_iterations=10**6, seed=1)),
    ])
    def test_time_limit_bounds_all_runs_together(self, method, params):
        inst = feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14))
        t0 = time.perf_counter()
        rep = multi_run(inst, method, params, n_runs=3, time_limit=0.5)
        elapsed = time.perf_counter() - t0
        # each run getting the whole limit took about 1.5 s; a run that
        # would start past the limit is not made
        assert elapsed < 0.5 + 0.4
        assert rep.terminated_by == "time"
        assert rep.stats["n_runs"] == len(rep.stats["run_costs"]) < 3
        assert check_feasibility(inst, rep.best) == []

    def test_a_later_run_out_of_time_keeps_the_runs_made(self, monkeypatch):
        inst = small(7113)
        made = []

        def later_runs_time_out(instance, params, time_limit=None):
            if made:
                raise TimeLimitError("time limit ran out before any deployment")
            made.append(genetic_algorithm(instance, params, time_limit))
            return made[-1]

        monkeypatch.setattr(metaheuristics, "genetic_algorithm", later_runs_time_out)
        rep = multi_run(inst, "ga", GAParams(max_iterations=50, seed=3), n_runs=3)
        assert rep.upper_bound == made[0].upper_bound
        assert rep.stats["run_costs"] == [made[0].upper_bound] and rep.stats["n_runs"] == 1

    def test_a_first_run_out_of_time_raises(self):
        inst = feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14))
        with pytest.raises(TimeLimitError):
            multi_run(inst, "ga", GAParams(seed=1), n_runs=3, time_limit=1e-9)

    def test_rejects_bad_args(self):
        inst = small(7115)
        with pytest.raises(ValueError):
            multi_run(inst, "sa", SAParams(), n_runs=0)
        with pytest.raises(ValueError):
            multi_run(inst, "tabu", SAParams(), n_runs=1)


class TestCandidatePricing:
    @pytest.mark.parametrize("proximity", [False, True])
    def test_price_equals_build_solution(self, proximity):
        # caps of 2-8 chargers per type leave about half the assignments unsizable;
        # one context per instance, so repeated loads are answered by its sizing memo
        rng = random.Random(12)
        priced = unsizable = 0
        for seed in range(40):
            inst = replace(random_instance(seed, n_demand=rng.randint(3, 9), n_station=rng.randint(2, 5),
                                           cap_range=(2, 8)), enforce_proximity=proximity)
            context = CandidateContext(inst)
            stations = [s.id for s in inst.stations]
            for _ in range(6):
                active = frozenset(rng.sample(stations, rng.randint(1, len(stations))) + [
                    rng.choice(d.reachable) for d in inst.demand_points])
                a = demand_assignment(inst, active, 0.5, rng)
                cost, sol = metaheuristics._price(a, active, context)
                try:
                    want = build_solution(inst, a, best_chargers(inst, a, _PairSizer(inst))[0], active=active)
                except InfeasibleError:
                    assert (cost, sol) == (math.inf, None)
                    unsizable += 1
                    continue
                assert cost == want.cost.total
                vector, chargers = sol
                assert vector is a and chargers == want.chargers
                # the waits it priced with, out of the run's memo
                assert best_chargers(inst, a, context.sizer) == (want.chargers, want.waits)
                priced += 1
        assert priced + unsizable >= 200
        assert min(priced, unsizable) >= 50, (priced, unsizable)

    def test_positional_inheritance_equals_the_dict_rule(self):
        # caps of 2-8 leave some parents priced inf; such a parent passes no types
        def types(parent):
            """(demand, station) -> type, as a GA chromosome first kept them."""
            if parent.priced is None:
                return {}
            return {(d.id, j): k for d, (j, k) in zip(inst.demand_order, parent.priced[0])}

        rng = random.Random(19)
        checked = inf_parents = changed = 0
        for seed in range(30):
            inst = random_instance(seed, n_demand=rng.randint(3, 9), n_station=rng.randint(2, 5), cap_range=(2, 8))
            context = CandidateContext(inst)
            stations = [s.id for s in inst.stations]
            first_half = set(stations[: len(stations) // 2])

            def draw_active():
                return frozenset(rng.sample(stations, rng.randint(1, len(stations))) + [
                    rng.choice(d.reachable) for d in inst.demand_points])

            for _ in range(6):
                p1, p2 = (metaheuristics._Chromosome(0, active, *metaheuristics._try_candidate(
                    inst, active, 0.5, rng, context)) for active in (draw_active(), draw_active()))
                vector = demand_assignment(inst, draw_active(), 0.5, rng, context)
                drawn = frozenset((d.id, j, k) for d, (j, k) in zip(inst.demand_order, vector))
                want = frozenset((i, j, (types(p1) if j in first_half else types(p2)).get((i, j), k))
                                 for (i, j, k) in drawn)
                metaheuristics._inherit(vector, p1, p2, first_half)
                assert frozenset((d.id, j, k) for d, (j, k) in zip(inst.demand_order, vector)) == want
                inf_parents += (p1.priced is None) + (p2.priced is None)
                changed += want != drawn
                checked += 1
        assert checked == 180
        assert min(inf_parents, changed) >= 20, (inf_parents, changed)

    @pytest.mark.parametrize("solve, params", [
        (simulated_annealing, SAParams(max_iterations=100, seed=2)),
        (genetic_algorithm, GAParams(max_iterations=100, seed=2)),
    ])
    def test_run_leaves_no_sizing_cache(self, monkeypatch, solve, params):
        inst = small(7116)
        inst.nearest  # the instance's own closest-station order, built on first use
        before = dict(vars(inst))
        made = []  # weak references to the run's context, sizer and memos
        held = []  # the run's tables, which a weak reference cannot follow

        def tracked(instance):
            context = CandidateContext(instance)
            made.extend(map(weakref.ref, (context, context.sizer, context.sizer._memo, context.covering,
                                          context.routes, context.prices)))
            held.append(context.tables)
            return context

        monkeypatch.setattr(metaheuristics, "CandidateContext", tracked)
        solve(inst, params)
        gc.collect()
        assert len(made) == 6 and [ref() for ref in made] == [None] * 6
        # nothing but this test holds them
        for n in range(len(held)):
            assert gc.get_referrers(held[n]) == [held]
        assert vars(inst).keys() == before.keys()
        assert all(vars(inst)[key] is value for key, value in before.items())


class TestPriceMemo:
    """A run prices each (activation, vector) once: a repeat reads the
    context's price memo, which must give what pricing it again gives."""

    RUNS = [
        lambda inst: simulated_annealing(inst, SAParams(max_iterations=300, assignment_randomness=0.2, seed=3)),
        lambda inst: genetic_algorithm(inst, GAParams(max_iterations=300, assignment_randomness=0.2, seed=3)),
        lambda inst: multi_run(inst, "sa", SAParams(max_iterations=150, assignment_randomness=0.2, seed=4), n_runs=3),
        lambda inst: multi_run(inst, "ga", GAParams(max_iterations=150, assignment_randomness=0.2, seed=4), n_runs=3),
    ]

    @staticmethod
    def instances():
        # caps of 2-8 leave some candidates unsizable, so inf prices are memoized too
        for seed, n_demand, n_station in ((3, 8, 3), (11, 9, 4), (17, 10, 5)):
            inst = feasible_instance(seed, n_demand=n_demand, n_station=n_station, cap_range=(2, 8))
            for proximity in (False, True):
                yield replace(inst, enforce_proximity=proximity)

    def reports(self, monkeypatch, memoized):
        """Each run's report bytes, and how many prices were read from the
        memo (finite, inf). Unmemoized, the memo is emptied before each
        lookup, so every candidate is priced afresh."""
        make, price = CandidateContext._price, metaheuristics._price
        counts = Counter()

        def logged_make(context, key):
            priced = make(context, key)
            counts["missed inf" if priced is None else "missed"] += 1
            return priced

        def logged_price(vector, active, context):
            if not memoized:
                context.prices.clear()
            cost, sol = price(vector, active, context)
            counts["inf" if sol is None else "finite"] += 1
            return cost, sol

        monkeypatch.setattr(CandidateContext, "_price", logged_make)
        monkeypatch.setattr(metaheuristics, "_price", logged_price)
        out = [json.dumps(report_to_dict(run(inst))) for inst in self.instances() for run in self.RUNS]
        monkeypatch.undo()
        return out, (counts["finite"] - counts["missed"], counts["inf"] - counts["missed inf"])

    def test_price_memo_runs_equal_the_unmemoized_referee(self, monkeypatch):
        memo, hits = self.reports(monkeypatch, memoized=True)
        referee, referee_hits = self.reports(monkeypatch, memoized=False)
        assert memo == referee
        assert referee_hits == (0, 0)
        assert min(hits) >= 100, hits

    def test_price_memo_emptied_at_its_bound_keeps_the_runs(self, monkeypatch):
        referee, _ = self.reports(monkeypatch, memoized=False)
        sizes = []  # (context, memo size) after each price recorded
        make = CandidateContext._price

        def watched(context, key):
            priced = make(context, key)
            # the memo was emptied, if full, before the price was worked out
            sizes.append((context, len(context.prices) + 1))
            return priced

        monkeypatch.setattr(metaheuristics, "CandidateContext", type("Watched", (CandidateContext,), {
            "_price": watched}))
        monkeypatch.setattr(construction, "_MEMO_ENTRIES", 5)
        bounded = [json.dumps(report_to_dict(run(inst))) for inst in self.instances() for run in self.RUNS]
        assert bounded == referee
        assert max(n for _, n in sizes) == 5
        emptied = sum(a is b and n == 1 for (a, _), (b, n) in zip(sizes, sizes[1:]))
        assert emptied >= 20, emptied

    def test_price_memo_hit_returns_the_callers_vector(self, monkeypatch):
        rng = random.Random(31)
        hits = Counter()
        for seed in range(30):
            inst = random_instance(seed, n_demand=rng.randint(3, 9), n_station=rng.randint(2, 5), cap_range=(2, 8))
            context = CandidateContext(inst)
            stations = [s.id for s in inst.stations]
            for _ in range(6):
                active = frozenset(rng.sample(stations, rng.randint(1, len(stations))) + [
                    rng.choice(d.reachable) for d in inst.demand_points])
                a = demand_assignment(inst, active, 0.5, rng)
                first = metaheuristics._price(a, active, context)
                b = list(a)
                with monkeypatch.context() as m:
                    m.setattr(construction, "best_chargers", None)  # a hit sizes nothing
                    cost, sol = metaheuristics._price(b, frozenset(active), context)
                assert cost == first[0]
                if sol is None:
                    assert math.isinf(cost)
                    hits["inf"] += 1
                    continue
                vector, chargers = sol
                assert vector is b and chargers == best_chargers(inst, b, _PairSizer(inst))[0]
                hits["finite"] += 1
        assert min(hits.values()) >= 30 and len(hits) == 2, hits


class TestLazyPricing:
    """SA prices a candidate only when its floor cannot decide the
    acceptance draw, so the floor must never exceed the price and an SA run
    must equal one that prices every candidate."""

    @pytest.mark.parametrize("proximity", [False, True])
    def test_floor_never_exceeds_price(self, proximity):
        # caps of 2-8 chargers per type leave about half the assignments unsizable
        rng = random.Random(23)
        finite = unsizable = 0
        for seed in range(40):
            inst = replace(random_instance(seed, n_demand=rng.randint(3, 9), n_station=rng.randint(2, 5),
                                           cap_range=(2, 8)), enforce_proximity=proximity)
            shared = CandidateContext(inst)  # warms over the instance's vectors
            stations = [s.id for s in inst.stations]
            for _ in range(6):
                active = frozenset(rng.sample(stations, rng.randint(1, len(stations))) + [
                    rng.choice(d.reachable) for d in inst.demand_points])
                a = demand_assignment(inst, active, 0.5, rng)
                cold = CandidateContext(inst)
                floors = [metaheuristics._floor(inst, a, active, context) for context in (cold, shared)]
                cost, _ = metaheuristics._price(a, active, cold)
                warm = metaheuristics._floor(inst, a, active, cold)  # every pair now memoized
                for floor in (*floors, warm):
                    assert math.isinf(floor) == math.isinf(cost)
                    assert floor <= cost
                if math.isinf(cost):
                    unsizable += 1
                    continue
                # with every pair sized, only the rounding slack is left
                assert warm == pytest.approx(cost, rel=1e-8)
                finite += 1
        assert min(finite, unsizable) >= 50, (finite, unsizable)

    @pytest.mark.parametrize("temperature", [None, 0.5])
    @pytest.mark.parametrize("proximity", [False, True])
    def test_lazy_sa_equals_eager_referee(self, monkeypatch, proximity, temperature):
        # tight caps, so some candidates cost inf; the referee's floor never
        # decides, so it prices every candidate and takes the draw after
        events = []
        rngs = []

        class LoggedRandom(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                rngs.append(self)

            def random(self):
                events.append("draw")
                return super().random()

        floor, price = metaheuristics._floor, metaheuristics._price
        branches = Counter()

        def logged_floor(*args):
            events.append("floor")
            return floor(*args)

        def logged_price(*args):
            events.append("price")
            cost, sol = price(*args)
            branches["priced inf"] += math.isinf(cost)
            return cost, sol

        monkeypatch.setattr(metaheuristics, "random", SimpleNamespace(Random=LoggedRandom))
        monkeypatch.setattr(metaheuristics, "_price", logged_price)
        for inst in (
            feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14)),
            feasible_instance(1, n_demand=16, n_station=12, cap_range=(3, 8)),
            feasible_instance(7, n_demand=12, n_station=8, cap_range=(2, 6)),
        ):
            inst = replace(inst, enforce_proximity=proximity)
            for seed in (1, 2):
                params = SAParams(initial_temperature=temperature, max_iterations=300,
                                  assignment_randomness=0.2, seed=seed)
                runs = []
                for referee in (False, True):
                    events.clear()
                    monkeypatch.setattr(metaheuristics, "_floor",
                                        (lambda *args: -math.inf) if referee else logged_floor)
                    rep = simulated_annealing(inst, params)
                    runs.append((json.dumps(report_to_dict(rep)), rep.stats, rngs[-1].getstate()))
                    if not referee:
                        branches.update(self._branches(events))
                lazy, eager = runs
                assert lazy == eager
        want = ("dropped", "priced after draw", "priced without draw", "priced inf")
        assert min(branches[b] for b in want) > 0, branches

    @staticmethod
    def _branches(events):
        """The branch each floor took, from what followed it: a price (no
        draw), a draw then a price, or a draw and no price."""
        for n, event in enumerate(events):
            if event == "floor":
                after = events[n + 1:n + 3]
                if after[:1] == ["price"]:
                    yield "priced without draw"
                elif after == ["draw", "price"]:
                    yield "priced after draw"
                else:
                    yield "dropped"
