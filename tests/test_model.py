import dataclasses
import json
import math
import re

import pytest

from chargeplan.construction import build_solution
from chargeplan.errors import (
    InfeasibleDemandError,
    InvalidSOCError,
    ParseError,
    UnassignedDemandError,
    UnstableQueueError,
)
from chargeplan.model import (
    CandidateStation,
    ChargerType,
    DemandPoint,
    Instance,
    Solution,
    assignment_vector,
    check_feasibility,
    derive_service_rates,
    evaluate,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_instance,
    save_instance,
    solution_from_dict,
    solution_to_dict,
)

from gen import random_instance


@pytest.fixture()
def unit_instance():
    """One demand (0.5/min), one station (cost 5), one type (mu=1, cost 1),
    travel 2 min, unit cost rates."""
    kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
    dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=0.5)
    st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5})
    return make_instance(
        [dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0}
    )


def solution_with(instance, chargers):
    return build_solution(instance, [(0, 0)], chargers)


class TestEvaluate:
    def test_single_charger_total(self, unit_instance):
        sol = solution_with(unit_instance, {(0, 0): 1})
        c = sol.cost
        assert c.total == pytest.approx(8.0, abs=1e-12)
        assert c.station == 5.0 and c.charger == 1.0
        assert c.travel == pytest.approx(1.0) and c.waiting == pytest.approx(1.0)
        assert sol.waits[(0, 0)] == pytest.approx(2.0)

    def test_two_charger_total(self, unit_instance):
        sol = solution_with(unit_instance, {(0, 0): 2})
        assert sol.cost.total == pytest.approx(8.0 + 8.0 / 15.0, abs=1e-9)
        assert sol.waits[(0, 0)] == pytest.approx(16.0 / 15.0, abs=1e-12)

    def test_idle_station_costs_only_fixed_rate(self):
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5})
        inst = make_instance([], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={})
        sol = Solution(active=frozenset({0}), assignments=frozenset(), chargers={}, waits={})
        c = evaluate(inst, sol)
        assert c.total == 5.0 and c.charger == 0.0 and c.waiting == 0.0

    def test_missing_assignment_raises(self, unit_instance):
        sol = Solution(active=frozenset({0}), assignments=frozenset(), chargers={}, waits={})
        with pytest.raises(UnassignedDemandError):
            evaluate(unit_instance, sol)

    def test_unstable_pair_raises(self, unit_instance):
        # no chargers but routed traffic
        sol = Solution(
            active=frozenset({0}),
            assignments=frozenset({(0, 0, 0)}),
            chargers={},
            waits={},
        )
        with pytest.raises(UnstableQueueError):
            evaluate(unit_instance, sol)

    def test_duplicate_assignment_rejected(self, unit_instance):
        sol = Solution(
            active=frozenset({0}),
            assignments=frozenset({(0, 0, 0), (0, 0, 1)}),
            chargers={(0, 0): 1},
            waits={},
        )
        with pytest.raises(ValueError):
            evaluate(unit_instance, sol)

    def test_deterministic_bit_identical(self):
        inst = random_instance(42)
        from chargeplan.exact import brute_force

        sol = brute_force(inst).best
        a = evaluate(inst, sol)
        b = evaluate(inst, sol)
        assert a == b  # dataclass equality covers every float bit-for-bit

    def test_total_is_sum_of_parts(self):
        for seed in range(5):
            inst = random_instance(seed)
            from chargeplan.exact import brute_force

            try:
                sol = brute_force(inst).best
            except Exception:
                continue
            c = sol.cost
            assert c.total == pytest.approx(c.station + c.charger + c.travel + c.waiting, abs=1e-9)

    def test_waiting_at_least_service_floor(self):
        for seed in range(5):
            inst = random_instance(seed)
            from chargeplan.exact import brute_force

            try:
                sol = brute_force(inst).best
            except Exception:
                continue
            floor = sum(
                inst.demand_by_id[i].rate * inst.wait_cost_rate / inst.type_by_id[k].service_rate
                for (i, j, k) in sol.assignments
            )
            assert sol.cost.waiting >= floor - 1e-12

    def test_convex_in_charger_count(self, unit_instance):
        # fixed assignment: second differences of total over s are nonnegative
        totals = [solution_with(unit_instance, {(0, 0): s}).cost.total for s in range(1, 6)]
        diffs = [b - a for a, b in zip(totals, totals[1:])]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(diffs, diffs[1:]))


class TestAssignmentVector:
    """evaluate reads a solution's triplets through assignment_vector, which
    makes the structural checks evaluate has always made."""

    @staticmethod
    def two_by_two():
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dps = [DemandPoint(id=i, lat=41.88, lon=-87.68, rate=r) for i, r in ((0, 0.2), (1, 0.5))]
        sts = [CandidateStation(id=j, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5}) for j in (0, 1)]
        return make_instance(dps, sts, [kt], travel_cost_rate=1.0, wait_cost_rate=1.0,
                             travel={(i, j): 2.0 + i + j for i in (0, 1) for j in (0, 1)})

    @pytest.mark.parametrize("assignments, error, message", [
        ([(1, 0, 0), (0, 0, 0), (1, 1, 0)], ValueError, "demand 1 assigned more than once"),
        ([(0, 0, 0), (7, 0, 0), (1, 0, 0)], ValueError, "unknown demand id 7"),
        ([(0, 0, 0), (1, 9, 0)], ValueError, "unknown station/type in assignment (1, 9, 0)"),
        ([(0, 0, 3), (1, 0, 0)], ValueError, "unknown station/type in assignment (0, 0, 3)"),
        ([(1, 0, 0)], UnassignedDemandError, "demand points without assignment: [0]"),
        ([], UnassignedDemandError, "demand points without assignment: [0, 1]"),
    ])
    def test_assignment_vector_rejects_what_evaluate_rejects(self, assignments, error, message):
        inst = self.two_by_two()
        with pytest.raises(error) as exc:
            assignment_vector(inst, assignments)
        assert str(exc.value) == message
        sol = Solution(active=frozenset({0, 1}), assignments=frozenset(assignments), chargers={(0, 0): 2, (1, 0): 2})
        with pytest.raises(error) as exc:
            evaluate(inst, sol)
        assert str(exc.value) == message

    def test_assignment_vector_places_each_pair_at_its_demand_rank(self):
        reordered = 0
        for seed in range(10):
            base = random_instance(seed)
            # records out of rate order, so the demand order is not the records' order
            inst = dataclasses.replace(base, demand_points=base.demand_points[::-1])
            vector = [(d.reachable[-1], inst.charger_types[d.id % len(inst.charger_types)].id)
                      for d in inst.demand_order]
            triplets = [(d.id, j, k) for d, (j, k) in zip(inst.demand_order, vector)]
            assert assignment_vector(inst, reversed(triplets)) == vector
            reordered += inst.demand_order != inst.demand_points
        assert reordered >= 5


class TestCheckFeasibility:
    def test_feasible_solution_is_clean(self, unit_instance):
        sol = solution_with(unit_instance, {(0, 0): 1})
        assert check_feasibility(unit_instance, sol) == []

    def test_inactive_station_flagged(self, unit_instance):
        good = solution_with(unit_instance, {(0, 0): 1})
        bad = dataclasses.replace(good, active=frozenset())
        codes = {v.code for v in check_feasibility(unit_instance, bad)}
        assert "inactive_station" in codes

    def test_stability_margin_violation(self):
        # load 1.0 onto one unit-rate charger: 1 * 1 * (1 - eps) < 1.0
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=1.0)
        st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5})
        inst = make_instance(
            [dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0}
        )
        sol = Solution(
            active=frozenset({0}),
            assignments=frozenset({(0, 0, 0)}),
            chargers={(0, 0): 1},
            waits={(0, 0): 1.0},
        )
        codes = {v.code for v in check_feasibility(inst, sol)}
        assert "unstable_queue" in codes

    def test_understated_wait_flagged(self, unit_instance):
        good = solution_with(unit_instance, {(0, 0): 1})
        bad = dataclasses.replace(good, waits={(0, 0): 1.5})  # true wait is 2.0
        codes = {v.code for v in check_feasibility(unit_instance, bad)}
        assert "wait_too_low" in codes

    def test_multi_source_flagged(self):
        kts = [
            ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0),
            ChargerType(id=1, power_kw=200.0, unit_cost_rate=2.0, recharge_time_min=0.5),
        ]
        dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=0.5)
        st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5, 1: 5})
        inst = make_instance(
            [dp], [st], kts, travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0}
        )
        doubled = Solution(
            active=frozenset({0}),
            assignments=frozenset({(0, 0, 0), (0, 0, 1)}),
            chargers={(0, 0): 1, (0, 1): 1},
            waits={},
        )
        codes = {v.code for v in check_feasibility(inst, doubled)}
        assert "not_single_sourced" in codes
        dangling = Solution(active=frozenset({0}), assignments=frozenset(), chargers={}, waits={})
        codes = {v.code for v in check_feasibility(inst, dangling)}
        assert "not_single_sourced" in codes

    def test_charger_cap_flagged(self, unit_instance):
        good = solution_with(unit_instance, {(0, 0): 1})
        bad = dataclasses.replace(good, chargers={(0, 0): 99})
        codes = {v.code for v in check_feasibility(unit_instance, bad)}
        assert "charger_limit" in codes

    def test_proximity_violation_when_enforced(self):
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=0.5)
        near = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5})
        far = CandidateStation(id=1, lat=41.6, lon=-87.9, fixed_cost_rate=5.0, max_chargers={0: 5})
        inst = make_instance(
            [dp], [near, far], [kt],
            travel_cost_rate=1.0, wait_cost_rate=1.0,
            travel={(0, 0): 2.0, (0, 1): 20.0},
            enforce_proximity=True,
        )
        sol = build_solution(inst, [(1, 0)], {(1, 0): 1}, active={0, 1})
        codes = {v.code for v in check_feasibility(inst, sol)}
        assert "not_closest_active" in codes
        # assigned to the closest: clean
        sol2 = build_solution(inst, [(0, 0)], {(0, 0): 1}, active={0, 1})
        assert check_feasibility(inst, sol2) == []

    def test_cross_validated_against_independent_predicates(self):
        # feasibility == conjunction of separately coded constraint predicates
        from chargeplan.exact import brute_force
        from chargeplan.model import pair_loads
        from chargeplan.queueing import expected_wait

        for seed in range(8):
            inst = random_instance(seed)
            try:
                sol = brute_force(inst).best
            except Exception:
                continue

            def activation_ok():
                return all(j in sol.active for (_, j, _) in sol.assignments)

            def single_source_ok():
                ids = [i for (i, _, _) in sol.assignments]
                return sorted(ids) == sorted(d.id for d in inst.demand_points)

            def stability_ok():
                loads = pair_loads(inst, assignment_vector(inst, sol.assignments))
                return all(
                    inst.type_by_id[k].service_rate * sol.chargers.get((j, k), 0) * (1 - inst.epsilon)
                    >= lam
                    for (j, k), lam in loads.items()
                )

            def waits_ok():
                loads = pair_loads(inst, assignment_vector(inst, sol.assignments))
                for (j, k), s in sol.chargers.items():
                    if s > 0:
                        true = expected_wait(
                            loads.get((j, k), 0.0), inst.type_by_id[k].service_rate, s
                        )
                        if sol.waits[(j, k)] < true - 1e-9:
                            return False
                return True

            clean = not check_feasibility(inst, sol)
            assert clean == (activation_ok() and single_source_ok() and stability_ok() and waits_ok())
            assert clean


class TestDeriveServiceRates:
    def test_fast_charger(self):
        (kt,) = derive_service_rates(
            440.0, 10.0, 80.0, [ChargerType(0, 450.0, 1.0, 1.0)]
        )
        assert kt.recharge_time_min == pytest.approx(41.0666667, abs=1e-4)
        assert kt.service_rate == pytest.approx(0.024351, abs=1e-6)

    def test_slow_charger(self):
        (kt,) = derive_service_rates(
            440.0, 10.0, 80.0, [ChargerType(0, 125.0, 1.0, 1.0)]
        )
        assert kt.recharge_time_min == pytest.approx(147.84, abs=1e-9)
        assert kt.service_rate == pytest.approx(0.0067641, abs=1e-7)

    def test_degenerate_window_rejected(self):
        with pytest.raises(InvalidSOCError):
            derive_service_rates(440.0, 50.0, 50.0, [ChargerType(0, 450.0, 1.0, 1.0)])
        with pytest.raises(InvalidSOCError):
            derive_service_rates(440.0, 80.0, 10.0, [ChargerType(0, 450.0, 1.0, 1.0)])
        with pytest.raises(InvalidSOCError):
            derive_service_rates(440.0, -5.0, 80.0, [ChargerType(0, 450.0, 1.0, 1.0)])

    def test_rate_is_reciprocal(self):
        kts = derive_service_rates(
            300.0, 20.0, 90.0, [ChargerType(0, 50.0, 1.0, 1.0), ChargerType(1, 350.0, 1.0, 1.0)]
        )
        for kt in kts:
            assert kt.service_rate * kt.recharge_time_min == pytest.approx(1.0, rel=1e-15)


class TestInstanceSchema:
    def test_round_trip(self):
        # every optional field set away from its default, so that a field the
        # JSON tables leave out comes back different
        inst = random_instance(7)
        inst = dataclasses.replace(
            inst,
            demand_points=tuple(dataclasses.replace(d, agency="A") for d in inst.demand_points),
            stations=tuple(dataclasses.replace(s, agency="B", is_garage=True) for s in inst.stations),
            epsilon=1e-5, enforce_proximity=True, speed_kmh=25.0, max_travel_minutes=45.0,
        )
        assert all(s.max_chargers for s in inst.stations)
        data = instance_to_dict(inst)
        again = instance_from_dict(data)
        assert again == inst
        assert instance_to_dict(again) == data

    def test_reachability_is_inverse_image(self):
        inst = random_instance(3)
        for d in inst.demand_points:
            for j in d.reachable:
                assert d.id in inst.station_by_id[j].served
        for s in inst.stations:
            for i in s.served:
                assert s.id in inst.demand_by_id[i].reachable

    def test_travel_entries_cover_reachable_pairs(self):
        inst = random_instance(9)
        for d in inst.demand_points:
            for j in d.reachable:
                assert math.isfinite(inst.travel[(d.id, j)])


class TestReportSchema:
    def test_round_trip(self):
        # two equipped pairs and a cost, so that every field of every report
        # table is written and must be read back
        kinds = [ChargerType(id=k, power_kw=100.0, unit_cost_rate=1.0 + k, recharge_time_min=1.0 + k)
                 for k in (0, 1)]
        dps = [DemandPoint(id=i, lat=41.88, lon=-87.68, rate=0.2 + 0.1 * i) for i in (0, 1)]
        st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 3, 1: 3})
        inst = make_instance(dps, [st], kinds, travel_cost_rate=1.0, wait_cost_rate=2.0,
                             travel={(0, 0): 2.0, (1, 0): 3.0})
        sol = build_solution(inst, assignment_vector(inst, [(0, 0, 0), (1, 0, 1)]), {(0, 0): 1, (0, 1): 2})
        assert len(sol.chargers) == len(sol.waits) == 2 and sol.cost is not None
        data = json.loads(json.dumps(solution_to_dict(sol)))
        assert solution_from_dict(data) == sol
        assert solution_to_dict(solution_from_dict(data)) == data


class TestCoverageDerivation:
    """Reachable/served sets come from the travel keys on every construction."""

    def test_direct_construction_matches_make_instance(self):
        for seed in range(5):
            built = random_instance(seed)
            stale = Instance(
                demand_points=tuple(dataclasses.replace(d, reachable=(-1,) if n % 2 else ())
                                    for n, d in enumerate(built.demand_points)),
                stations=tuple(dataclasses.replace(s, served=(-1,) if n % 2 else ())
                               for n, s in enumerate(built.stations)),
                charger_types=built.charger_types,
                travel=dict(built.travel),
                travel_cost_rate=built.travel_cost_rate,
                wait_cost_rate=built.wait_cost_rate,
            )
            assert stale.demand_points == built.demand_points
            assert stale.stations == built.stations
            assert stale.demand_by_id == built.demand_by_id
            assert stale.station_by_id == built.station_by_id

    def test_replace_travel_derives_coverage_anew(self):
        inst = random_instance(3)
        dropped = {(d.id, d.reachable[-1]) for d in inst.demand_points if len(d.reachable) > 1}
        assert dropped
        subset = {pair: t for pair, t in inst.travel.items() if pair not in dropped}
        sub = dataclasses.replace(inst, travel=subset)
        for d in sub.demand_points:
            assert d.reachable == tuple(sorted(j for (i, j) in subset if i == d.id))
            assert sub.nearest[d.id] == tuple(sorted(d.reachable, key=lambda j: (subset[(d.id, j)], j)))
        for s in sub.stations:
            assert s.served == tuple(sorted(i for (i, j) in subset if j == s.id))

    def test_replace_that_strands_a_demand_raises(self):
        inst = random_instance(3)
        lost = inst.demand_points[0].id
        with pytest.raises(InfeasibleDemandError) as exc:
            dataclasses.replace(inst, travel={(i, j): t for (i, j), t in inst.travel.items() if i != lost})
        assert exc.value.demand_ids == [lost]

    @pytest.mark.parametrize("pair, named", [((0, 7), "(0, 7)"), ((7, 0), "(7, 0)")])
    def test_travel_key_naming_an_unknown_record_raises(self, unit_instance, pair, named):
        with pytest.raises(ValueError, match="unknown demand or station") as exc:
            dataclasses.replace(unit_instance, travel={**unit_instance.travel, pair: 1.0})
        assert named in str(exc.value)
        with pytest.raises(ValueError, match="unknown demand or station"):
            make_instance(unit_instance.demand_points, unit_instance.stations, unit_instance.charger_types,
                          travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0, pair: 1.0})


class TestInputValidation:
    @staticmethod
    def parts(**overrides):
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        dps = [DemandPoint(id=i, lat=41.88, lon=-87.68, rate=0.5) for i in range(2)]
        sts = [CandidateStation(id=j, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5}) for j in range(2)]
        parts = {"demand_points": dps, "stations": sts, "charger_types": [kt]}
        parts.update(overrides)
        return parts

    def build(self, travel_cost_rate=1.0, wait_cost_rate=1.0, **overrides):
        p = self.parts(**overrides)
        travel = {(d.id, s.id): 2.0 for d in p["demand_points"] for s in p["stations"]}
        return make_instance(
            p["demand_points"], p["stations"], p["charger_types"],
            travel_cost_rate=travel_cost_rate, wait_cost_rate=wait_cost_rate, travel=travel,
        )

    @pytest.mark.parametrize("field, kind", [
        ("demand_points", "demand"), ("stations", "station"), ("charger_types", "charger type"),
    ])
    def test_duplicate_ids_rejected(self, field, kind):
        records = self.parts()[field]
        with pytest.raises(ValueError, match=f"duplicate {kind} id 0"):
            self.build(**{field: [*records, records[0]]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_numbers_rejected(self, bad):
        kt = dict(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
        for name in ("power_kw", "unit_cost_rate", "recharge_time_min"):
            with pytest.raises(ValueError, match=name):
                ChargerType(**{**kt, name: bad})
        with pytest.raises(ValueError, match="rate"):
            DemandPoint(id=0, lat=41.88, lon=-87.68, rate=bad)
        with pytest.raises(ValueError, match="fixed_cost_rate"):
            CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=bad)
        for name in ("travel_cost_rate", "wait_cost_rate"):
            with pytest.raises(ValueError, match=name):
                self.build(**{name: bad})

    @pytest.mark.parametrize("name", ["travel_cost_rate", "wait_cost_rate"])
    def test_negative_cost_rate_rejected(self, name):
        # a negative rate would void the B&B wait floors, which bound the
        # objective from below only when both rates are nonnegative
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
            self.build(**{name: -1.0})
        data = instance_to_dict(self.build())
        data["costs"][name] = -1.0
        with pytest.raises(ValueError, match=name):
            instance_from_dict(data)
        assert getattr(self.build(**{name: 0.0}), name) == 0.0

    def test_epsilon_must_leave_a_margin_after_rounding(self):
        p = self.parts()
        build = lambda eps: make_instance(
            p["demand_points"], p["stations"], p["charger_types"], travel_cost_rate=1.0,
            wait_cost_rate=1.0, travel={(d.id, s.id): 2.0 for d in p["demand_points"] for s in p["stations"]},
            epsilon=eps,
        )
        for eps in (1e-17, 5.5e-17, 0.0, 1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                build(eps)
        for eps in (5.6e-17, 1e-16, 0.5):
            assert 1.0 - build(eps).epsilon < 1.0
        data = instance_to_dict(self.build())
        data["options"]["epsilon"] = 1e-17
        with pytest.raises(ValueError, match="options.epsilon"):
            instance_from_dict(data)

    @pytest.mark.parametrize("name, bad", [
        ("speed_kmh", math.nan), ("speed_kmh", math.inf), ("speed_kmh", 0.0),
        ("max_travel_minutes", math.nan), ("max_travel_minutes", -5.0), ("max_travel_minutes", 0.0),
    ])
    def test_speed_and_travel_cutoff_rejected(self, name, bad):
        # a NaN or negative cutoff would otherwise strand every demand point
        # as infeasible, and a NaN speed would be named as a travel time
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(self.build(), **{name: bad})
        data = instance_to_dict(self.build())
        data["options"][name] = bad
        with pytest.raises(ValueError, match=name):
            instance_from_dict(data)
        del data["travel"]  # times then come from the speed, within the cutoff
        with pytest.raises(ValueError, match=name):
            instance_from_dict(data)

    def test_null_reads_as_absent_only_where_the_default_is_none(self):
        data = instance_to_dict(self.build())
        data["options"]["max_travel_minutes"] = None
        data["demand_points"][0]["agency"] = None
        data["stations"][0]["agency"] = None
        assert instance_to_dict(instance_from_dict(data)) == instance_to_dict(self.build())
        for edit, named in [
            (lambda d: d["options"].update(epsilon=None), "options.epsilon: expected a number"),
            (lambda d: d["options"].update(enforce_proximity=None), "options.enforce_proximity: expected true"),
            (lambda d: d["stations"][0].update(is_garage=None), "stations[0].is_garage: expected true"),
            (lambda d: d["stations"][0].update(max_chargers=None), "stations[0].max_chargers: expected an object"),
            (lambda d: d["costs"].update(wait_cost_rate=None), "costs.wait_cost_rate: expected a number"),
        ]:
            data = instance_to_dict(self.build())
            edit(data)
            with pytest.raises(ParseError, match=re.escape(named)):
                instance_from_dict(data)

    @pytest.mark.parametrize("entry, message", [
        ([7, 0, 2.0], "travel\\[1\\]: unknown demand id 7"),
        ([0, 7, 2.0], "travel\\[1\\]: unknown station id 7"),
    ])
    def test_travel_with_unknown_id_is_a_parse_error(self, entry, message):
        data = instance_to_dict(self.build())
        data["travel"][1] = entry
        with pytest.raises(ParseError, match=message):
            instance_from_dict(data)

    def test_duplicate_travel_row_is_a_parse_error(self):
        # a second row for one pair would replace the first without a word
        data = instance_to_dict(self.build())
        i, j, t = data["travel"][0]
        data["travel"].append([i, j, t + 1000.0])
        row = len(data["travel"]) - 1
        with pytest.raises(ParseError, match=f"travel\\[{row}\\]: duplicate entry for demand {i}, station {j}"):
            instance_from_dict(data)

    @pytest.mark.parametrize("field", ["costs", "charger_types", "demand_points", "stations"])
    def test_missing_required_field_is_a_parse_error(self, tmp_path, field):
        path = tmp_path / "inst.json"
        save_instance(self.build(), path)
        data = json.loads(path.read_text())
        del data[field]
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"missing required field '{field}'"):
            load_instance(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["charger_types"].__setitem__(0, 1), "charger_types[0]: expected an object, got 1"),
        (lambda d: d.update(demand_points="abc"), "demand_points: expected a list, got 'abc'"),
        (lambda d: d["stations"].__setitem__(0, None), "stations[0]: expected an object, got None"),
        (lambda d: d.update(costs=[1.0, 1.0]), "costs: expected an object, got [1.0, 1.0]"),
        (lambda d: d.update(options=[]), "options: expected an object, got []"),
        (lambda d: d["stations"][0].update(max_chargers=[5]), "stations[0].max_chargers: expected an object"),
        (lambda d: d["demand_points"][0].pop("rate"), "missing required field 'demand_points[0].rate'"),
        (lambda d: d["travel"].__setitem__(0, [0, 0]), "travel[0]: expected [demand, station, minutes]"),
    ])
    def test_wrongly_shaped_record_is_a_parse_error(self, tmp_path, edit, message):
        data = instance_to_dict(self.build())
        edit(data)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as exc:
            load_instance(path)
        assert message in str(exc.value) and str(path) in str(exc.value)
