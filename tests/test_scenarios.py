from dataclasses import fields, replace

import pytest

from chargeplan.errors import ChargePlanError, InfeasibleDemandError
from chargeplan.exact import SolverConfig, branch_and_bound
from chargeplan.metaheuristics import GAParams, genetic_algorithm
from chargeplan.model import make_instance
from chargeplan.scenarios import (
    SWEEP_PARAMETERS,
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

    @pytest.mark.parametrize("pool", [
        dict(agency="north"), dict(agency="south"), dict(allow_garage=True, allow_other=False),
        dict(allow_garage=False, allow_other=True, agency="north"), dict(),
    ])
    def test_matches_a_sub_instance_rebuilt_from_scratch(self, pool):
        for seed in range(4):
            inst = two_agency_instance(seed)
            sub = restrict_instance(inst, **pool)
            keep_i = {d.id for d in sub.demand_points}
            keep_j = {s.id for s in sub.stations}
            rebuilt = make_instance(
                [replace(d, reachable=()) for d in inst.demand_points if d.id in keep_i],
                [replace(s, served=()) for s in inst.stations if s.id in keep_j],
                inst.charger_types,
                travel_cost_rate=inst.travel_cost_rate,
                wait_cost_rate=inst.wait_cost_rate,
                travel={(i, j): t for (i, j), t in inst.travel.items() if i in keep_i and j in keep_j},
                speed_kmh=inst.speed_kmh,
                max_travel_minutes=inst.max_travel_minutes,
                epsilon=inst.epsilon,
                enforce_proximity=inst.enforce_proximity,
            )
            for f in fields(sub):
                assert getattr(sub, f.name) == getattr(rebuilt, f.name), f.name

    def test_pool_that_strands_a_demand_raises(self):
        inst = two_agency_instance(0)
        garage = next(s.id for s in inst.stations if s.is_garage)
        # demand 0 reaches one garage only, so a pool without garages strands it
        narrowed = replace(inst, travel={(i, j): t for (i, j), t in inst.travel.items() if i != 0 or j == garage})
        assert narrowed.demand_by_id[0].reachable == (garage,)
        with pytest.raises(InfeasibleDemandError) as exc:
            restrict_instance(narrowed, allow_garage=False, allow_other=True)
        assert exc.value.demand_ids == [0]

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

    def test_scale_instance_covers_every_sweep_parameter(self):
        inst = two_agency_instance(5)
        assert SWEEP_PARAMETERS == ("wait_cost", "charger_power", "station_cost", "charger_cost")
        for parameter in SWEEP_PARAMETERS:
            assert scale_instance(inst, parameter, 2.0) != inst, parameter
            assert scale_instance(inst, parameter, 1.0) == inst, parameter
        with pytest.raises(ValueError, match="'x'"):
            scale_instance(inst, "x", 2.0)

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


def test_default_ga_tables_pass_the_dominance_checks():
    """c07's eight dominance checks per table (joint-mixed against every
    other row, joint against separate on each pool) hold on the tables that
    the default GA, the ``scenarios`` command's default method, fills for
    twenty two-agency instances: no row costs more than a row it contains."""
    pairs = [("joint-mixed", spec.label) for spec in scenario_matrix()[:-1]]
    pairs += [(f"joint-{pool}", f"separate-{pool}") for pool in ("garage", "other", "mixed")]
    failed = []
    for seed in range(100, 120):
        rows = {r.label: r for r in run_scenarios(two_agency_instance(seed), lambda i: genetic_algorithm(i, GAParams(seed=0)))}
        assert all(r.feasible for r in rows.values()), seed
        failed += [(seed, cheap, dear) for cheap, dear in pairs if rows[cheap].total_cost > rows[dear].total_cost]
    assert len(pairs) == 8 and failed == [], failed
