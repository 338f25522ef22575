from dataclasses import replace

import pytest

from chargeplan.errors import ChargePlanError
from chargeplan.exact import SolverConfig, branch_and_bound
from chargeplan.scenarios import (
    ScenarioSpec,
    SweepSpec,
    restrict_instance,
    run_scenarios,
    run_sweep,
    scale_instance,
    scenario_matrix,
)

from gen import two_agency_instance


def exact(instance):
    return branch_and_bound(instance, SolverConfig())


class TestRestrict:
    def test_agency_filter_keeps_labels_consistent(self):
        inst = two_agency_instance(0)
        north = restrict_instance(inst, agency="north")
        assert all(d.agency == "north" for d in north.demand_points)
        assert all(s.agency == "north" for s in north.stations)
        assert set(north.travel) <= set(inst.travel)

    def test_garage_only_pool(self):
        inst = two_agency_instance(0)
        sub = restrict_instance(inst, allow_garage=True, allow_other=False)
        assert all(s.is_garage for s in sub.stations)
        assert len(sub.demand_points) == len(inst.demand_points)

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(joint=True, allow_garage=False, allow_other=False)


class TestScenarioMatrix:
    def test_six_scenarios_baseline_last(self):
        specs = scenario_matrix()
        assert len(specs) == 6
        assert specs[-1].joint and specs[-1].allow_garage and specs[-1].allow_other
        assert len({s.label for s in specs}) == 6

    def test_joint_mixed_dominates(self):
        inst = two_agency_instance(1)
        rows = run_scenarios(inst, exact)
        by_label = {r.label: r for r in rows}
        base = by_label["joint-mixed"]
        assert base.feasible
        for r in rows:
            if r.feasible:
                assert base.total_cost <= r.total_cost + 1e-9

    def test_infeasible_scenarios_flagged_not_fatal(self):
        import dataclasses

        inst = two_agency_instance(6)
        # strip every garage flag: garage-only pools lose all their stations
        no_garage = dataclasses.replace(
            inst,
            stations=tuple(dataclasses.replace(s, is_garage=False) for s in inst.stations),
        )
        rows = {r.label: r for r in run_scenarios(no_garage, exact)}
        assert not rows["joint-garage"].feasible
        assert not rows["separate-garage"].feasible
        assert rows["joint-mixed"].feasible and rows["joint-mixed"].total_cost is not None

    def test_separate_cost_is_sum_of_agency_solves(self):
        inst = two_agency_instance(2)
        row = next(r for r in run_scenarios(inst, exact) if r.label == "separate-mixed")
        total = 0.0
        for agency in ("north", "south"):
            sub = restrict_instance(inst, agency=agency)
            total += exact(sub).best.cost.total
        assert row.total_cost == pytest.approx(total, abs=1e-9)


class TestSweep:
    def test_identity_multiplier_zero_change(self):
        inst = two_agency_instance(3)
        rows = run_sweep(inst, SweepSpec("wait_cost", (1.0,)), exact)
        assert rows[0].pct_change == 0.0
        assert rows[1].pct_change == pytest.approx(0.0, abs=1e-9)

    def test_wait_cost_sweep_monotone(self):
        inst = two_agency_instance(4)
        rows = run_sweep(inst, SweepSpec("wait_cost", (2.0, 4.0)), exact)
        costs = [r.total_cost for r in rows]
        assert costs[0] <= costs[1] <= costs[2]

    def test_power_scaling_rederives_service_rate(self):
        inst = two_agency_instance(5)
        scaled = scale_instance(inst, "charger_power", 1.5)
        for before, after in zip(inst.charger_types, scaled.charger_types):
            assert after.power_kw == pytest.approx(1.5 * before.power_kw)
            assert after.service_rate == pytest.approx(1.5 * before.service_rate)
            assert after.unit_cost_rate == before.unit_cost_rate

    def test_station_and_charger_cost_scaling(self):
        inst = two_agency_instance(5)
        st = scale_instance(inst, "station_cost", 2.0)
        assert all(
            a.fixed_cost_rate == pytest.approx(2 * b.fixed_cost_rate)
            for a, b in zip(st.stations, inst.stations)
        )
        ch = scale_instance(inst, "charger_cost", 0.5)
        assert all(
            a.unit_cost_rate == pytest.approx(0.5 * b.unit_cost_rate)
            for a, b in zip(ch.charger_types, inst.charger_types)
        )

    def test_zero_cost_baseline_rejected_before_any_scaled_solve(self):
        calls = []

        def free(instance):
            calls.append(instance)
            rep = exact(instance)
            return replace(rep, best=replace(rep.best, cost=replace(rep.best.cost, total=0.0)))

        with pytest.raises(ChargePlanError, match="baseline objective must be positive"):
            run_sweep(two_agency_instance(3), SweepSpec("wait_cost", (2.0, 4.0)), free)
        assert len(calls) == 1

    def test_bad_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("fleet_size", (2.0,))
        with pytest.raises(ValueError):
            SweepSpec("wait_cost", ())
        with pytest.raises(ValueError):
            SweepSpec("wait_cost", (0.0,))
