"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence. Tolerances and budgets are pinned
here and nowhere else."""

import json
import math
import random
import time
from dataclasses import replace

import pytest

from chargeplan.errors import InfeasibleError
from chargeplan.exact import SolverConfig, branch_and_bound, brute_force
from chargeplan.metaheuristics import GAParams, SAParams, multi_run
from chargeplan.model import ChargerType
from chargeplan.queueing import erlang_c, expected_wait
from chargeplan.scenarios import run_scenarios, scale_instance

from gen import feasible_instance, two_agency_instance
from test_exact import wait_floor
from test_queueing import naive_delay_probability


@pytest.fixture(scope="module")
def oracle200(fixtures200):
    """Brute-force reference reports for every fixture (computed once)."""
    return [brute_force(inst) for inst in fixtures200]


def test_c01_queueing_exactness():
    t0 = time.perf_counter()
    for k in range(1, 20):
        rho = 0.05 * k
        mu = 1.3
        one = (rho * mu, mu, 1)
        assert erlang_c(*one) == pytest.approx(rho, abs=1e-9)
        assert expected_wait(*one) == pytest.approx(1.0 / (mu - rho * mu), abs=1e-9)
        two = (2 * rho * mu, mu, 2)
        assert erlang_c(*two) == pytest.approx(2 * rho**2 / (1 + rho), abs=1e-9)
        p2 = 2 * rho**2 / (1 + rho)
        assert expected_wait(*two) == pytest.approx(
            p2 / (mu * 2 * (1 - rho)) + 1 / mu, abs=1e-9
        )
    for s in range(1, 21):
        for k in range(1, 10):
            rho = 0.1 * k
            assert erlang_c(rho * s * 2.0, 2.0, s) == pytest.approx(
                naive_delay_probability(rho, s), abs=1e-12
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 01] PASS queueing exactness ({elapsed:.3f}s)")


def test_c02_cut_validity():
    t0 = time.perf_counter()
    rng = random.Random(20_2)
    for _ in range(1000):
        s = rng.randint(1, 20)
        mu = rng.uniform(0.02, 2.0)
        anchor = rng.uniform(0.05, 0.95)
        load = rng.uniform(0.01, 0.999) * mu * s
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0 / mu)
        floor = wait_floor(kt, s, anchor)
        true = expected_wait(load, mu, s)
        assert floor(load) <= true + 1e-6
        anchor_load = anchor * mu * s
        true_anchor = expected_wait(anchor_load, mu, s)
        assert floor(anchor_load) == pytest.approx(true_anchor, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 02] PASS cut validity on 1000 tuples ({elapsed:.3f}s)")


def test_c03_oracle_equivalence(fixtures200, oracle200):
    t0 = time.perf_counter()
    worst = 0.0
    for inst, ref in zip(fixtures200, oracle200):
        rep = branch_and_bound(inst, SolverConfig(gap_threshold=0.0, time_limit=None))
        diff = abs(rep.upper_bound - ref.upper_bound)
        worst = max(worst, diff)
        assert diff <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"\n[criterion 03] PASS search equals oracle on 200 instances "
        f"(worst diff {worst:.2e}, {elapsed:.1f}s)"
    )


def test_c04_charger_sizing_optimality():
    from chargeplan.construction import size_pair
    from chargeplan.queueing import min_chargers

    t0 = time.perf_counter()
    rng = random.Random(20_4)
    checked = 0
    while checked < 500:
        lam = rng.uniform(0.01, 3.0)
        mu = rng.uniform(0.05, 1.5)
        c_wait = rng.uniform(0.1, 5.0)
        c_unit = rng.uniform(0.01, 2.0)
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=c_unit, recharge_time_min=1.0 / mu)
        smin = min_chargers(lam, mu, 1e-6)
        if smin > 50:
            continue
        greedy = size_pair(lam, kt, 50, c_wait, 1e-6)
        best_s, best_cost = None, math.inf
        for s in range(smin, 51):
            cost = c_unit * s + lam * c_wait * expected_wait(lam, mu, s)
            if cost < best_cost - 1e-15:
                best_s, best_cost = s, cost
        assert greedy[0] == best_s
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 04] PASS greedy sizing exact on 500 tuples ({elapsed:.2f}s)")


def test_c05_proximity_relaxation(fixtures200, oracle200):
    strict = 0
    infeasible_under_proximity = 0
    for inst, ref in zip(fixtures200, oracle200):
        free = ref.upper_bound
        try:
            prox = brute_force(replace(inst, enforce_proximity=True)).upper_bound
        except InfeasibleError:
            infeasible_under_proximity += 1
            continue
        assert free <= prox
        if free < prox:
            strict += 1
    assert strict >= 1
    print(
        f"\n[criterion 05] PASS relaxation dominance on 200 fixtures "
        f"({strict} strict improvements, {infeasible_under_proximity} proximity-infeasible)"
    )


def test_c06_metaheuristic_quality():
    t0 = time.perf_counter()
    small = [feasible_instance(7000 + i, n_demand=3, n_station=5) for i in range(100)]
    optima = [brute_force(inst).upper_bound for inst in small]

    per_instance_budget = 30.0
    sa_hits = ga_hits = 0
    worst_inst_time = 0.0
    for inst, opt in zip(small, optima):
        t_inst = time.perf_counter()
        sa = multi_run(
            inst, "sa", SAParams(max_iterations=800, assignment_randomness=0.2, seed=11),
            n_runs=10, time_limit=per_instance_budget / 10,
        )
        ga = multi_run(
            inst, "ga", GAParams(max_iterations=800, assignment_randomness=0.2, seed=11),
            n_runs=10, time_limit=per_instance_budget / 10,
        )
        worst_inst_time = max(worst_inst_time, time.perf_counter() - t_inst)
        sa_hits += sa.upper_bound <= opt + 1e-6
        ga_hits += ga.upper_bound <= opt + 1e-6
    assert worst_inst_time < per_instance_budget
    assert sa_hits >= 90
    assert ga_hits >= 90

    wins = 0
    for i in range(20):
        inst = feasible_instance(9000 + i, n_demand=20, n_station=5, cap_range=(6, 14))
        sa = multi_run(
            inst, "sa", SAParams(max_iterations=2000, assignment_randomness=0.2, seed=5),
            n_runs=3, time_limit=120.0,
        )
        ga = multi_run(
            inst, "ga", GAParams(max_iterations=2000, assignment_randomness=0.2, seed=5),
            n_runs=3, time_limit=120.0,
        )
        wins += ga.upper_bound <= sa.upper_bound + 1e-9
    assert wins >= 12  # 60% of 20
    elapsed = time.perf_counter() - t0
    print(
        f"\n[criterion 06] PASS metaheuristic quality: SA {sa_hits}/100, GA {ga_hits}/100 "
        f"optimal at 3x5; GA<=SA on {wins}/20 at 20x5 ({elapsed:.0f}s)"
    )


def test_c07_scenario_dominance():
    def exact(instance):
        return brute_force(instance)

    checked = 0
    for seed in range(5):
        inst = two_agency_instance(100 + seed)
        rows = {r.label: r for r in run_scenarios(inst, exact)}
        assert all(r.feasible for r in rows.values()), f"seed {seed}: infeasible scenario"
        base = rows["joint-mixed"].total_cost
        for label, row in rows.items():
            assert base <= row.total_cost, f"seed {seed}: joint-mixed beaten by {label}"
        for pool in ("garage", "other", "mixed"):
            assert rows[f"joint-{pool}"].total_cost <= rows[f"separate-{pool}"].total_cost, (
                f"seed {seed}: joint-{pool} beaten by separate-{pool}"
            )
        checked += 1
    print(f"\n[criterion 07] PASS scenario dominance on {checked} two-agency instances")


def test_c08_sensitivity_monotonicity(fixtures200, oracle200):
    t0 = time.perf_counter()
    nondecreasing = {
        "wait_cost": (2.0, 4.0, 6.0, 8.0, 10.0),
        "station_cost": (1.1, 1.3, 1.5, 2.0, 3.0),
    }
    nonincreasing = {
        "charger_power": (1.2, 1.4, 1.6, 1.8),
        "charger_cost": (0.8, 0.6, 0.4, 0.2),
    }

    def exact_opt(instance):
        return branch_and_bound(instance, SolverConfig()).upper_bound

    checks = 0
    for inst, ref in zip(fixtures200, oracle200):
        base = ref.upper_bound
        for parameter, mults in nondecreasing.items():
            prev = base
            for m in mults:
                cur = exact_opt(scale_instance(inst, parameter, m))
                assert cur >= prev, f"{parameter} x{m} decreased the optimum"
                prev = cur
                checks += 1
        for parameter, mults in nonincreasing.items():
            prev = base
            for m in mults:
                cur = exact_opt(scale_instance(inst, parameter, m))
                assert cur <= prev, f"{parameter} x{m} increased the optimum"
                prev = cur
                checks += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\n[criterion 08] PASS sensitivity monotonicity: {checks} exact comparisons "
        f"on 200 fixtures ({elapsed:.0f}s)"
    )


def test_c09_demand_segmentation(data_dir):
    from chargeplan.demand import read_blocks_csv, segment_block

    blocks = read_blocks_csv(data_dir / "sample_blocks.csv")
    (block,) = blocks
    events = segment_block(block, 360.0)
    third_service_trip = [t for t in block.trips if t.kind == "service"][2]
    first = [e for e in events if e.time == 16 * 60]
    assert len(first) == 1
    assert first[0].stop_id == third_service_trip.dest_stop
    later = [e for e in events if e.time > 16 * 60]
    assert len(later) == 1
    assert abs(later[0].time - 24 * 60) <= 60.0
    assert len(events) == 2
    print(
        f"\n[criterion 09] PASS segmentation: charge at {first[0].stop_id} 16:00, "
        f"next at {later[0].stop_id} {later[0].time/60:.2f}h"
    )


def test_c10_determinism(data_dir, tmp_path):
    from chargeplan.cli import main
    from chargeplan.model import save_instance

    def stripped(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("meta", None)
        return json.dumps(payload, sort_keys=True)

    inst = feasible_instance(600, n_demand=4, n_station=3)
    src = tmp_path / "inst.json"
    save_instance(inst, src)
    two = two_agency_instance(600)
    two_src = tmp_path / "two.json"
    save_instance(two, two_src)

    commands = {
        "solve-brute": ["solve", str(src), "--method", "brute", "--seed", "3"],
        "solve-bnb": ["solve", str(src), "--method", "bnb", "--seed", "3"],
        "solve-sa": ["solve", str(src), "--method", "sa", "--seed", "3", "--n-runs", "2"],
        "solve-ga": ["solve", str(src), "--method", "ga", "--seed", "3", "--n-runs", "2"],
        "gen-demand": [
            "gen-demand", "--blocks", str(data_dir / "sample_blocks.csv"),
            "--stations", str(data_dir / "sample_stations.csv"), "--range-min", "360",
        ],
        "cluster": ["cluster", str(src), "--k-demand", "2", "--k-station", "2", "--seed", "7"],
    }
    for name, argv in commands.items():
        outputs = []
        for r in range(3):
            out = tmp_path / f"{name}_{r}.json"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, f"{name} run {r} exited {rc}"
            outputs.append(stripped(out))
        assert outputs[0] == outputs[1] == outputs[2], f"{name} not reproducible"

    for name, argv in {
        "scenarios": ["scenarios", str(two_src), "--method", "bnb", "--seed", "3"],
        "sensitivity": [
            "sensitivity", str(src), "--parameter", "wait_cost",
            "--multipliers", "2,4", "--method", "bnb", "--seed", "3",
        ],
    }.items():
        outputs = []
        for r in range(3):
            out = tmp_path / f"{name}_{r}.csv"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], f"{name} not reproducible"
    print("\n[criterion 10] PASS determinism across 3 repeated runs per command")
