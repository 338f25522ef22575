"""Command-line pipeline: ingest, cluster, solve, compare, sweep, validate.

Exit codes: 0 success, 2 infeasible, 3 parse/usage error, 4 solver hit its
time limit but a result file was still written. All volatile values (wall
times, timestamps) are confined to the ``meta`` object of JSON outputs so
fixed-seed runs are byte-identical elsewhere.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from datetime import datetime, timezone

from . import demand as dm
from . import model as mdl
from . import presets
from .errors import (
    ChargePlanError,
    InfeasibleDemandError,
    InfeasibleError,
    InstanceTooLargeError,
    InvalidKError,
    ParseError,
    UncoveredDemandError,
)
from .exact import SolverConfig, branch_and_bound, brute_force, save_report, solution_from_dict
from .metaheuristics import GAParams, SAParams, genetic_algorithm, multi_run, simulated_annealing
from .scenarios import (
    SweepSpec,
    charger_count_labels,
    run_scenarios,
    run_sweep,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_TIMEOUT = 4


def _meta(args, extra: dict | None = None) -> dict:
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "tool": "chargeplan",
        "command": args.command,
    }
    if extra:
        meta.update(extra)
    return meta


# every key a --config file may hold: top-level keys, then each section's
_CONFIG_KEYS = {
    "": {"sa", "ga", "solver", "costs", "n_runs"},
    "sa": {"initial_temperature", "max_iterations", "cooling_factor", "assignment_randomness", "seed"},
    "ga": {"population_size", "tournament_fraction", "assignment_randomness", "max_iterations", "seed"},
    "solver": {"gap_threshold", "time_limit", "max_chargers"},
    "costs": {"travel_cost_rate", "wait_cost_rate"},
}


def _load_config(path: str | None) -> dict:
    """Read a --config file, rejecting any key nothing would read."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config: {exc}", path=path) from exc
    for name, allowed in _CONFIG_KEYS.items():  # the top level is checked first
        section = cfg.get(name, {}) if name else cfg
        if not isinstance(section, dict):
            raise ParseError(f"config {name or 'file'} must be a JSON object", path=path)
        unknown = sorted(set(section) - allowed)
        if unknown:
            keys = ", ".join(repr(f"{name}.{k}" if name else k) for k in unknown)
            raise ParseError(f"unknown config key {keys}", path=path)
    return cfg


def _resolve_time_limit(args, cfg: dict, instance: mdl.Instance | None) -> float | None:
    """Seconds from ``--time-limit``, else from the config's
    ``solver.time_limit``, else None; a limit must be positive and finite."""
    if args.time_limit == "auto":
        if instance is None:
            raise ParseError("--time-limit auto needs an instance")
        return presets.auto_time_limit(len(instance.demand_points), len(instance.stations))
    name, value = "--time-limit", args.time_limit
    if value is None:
        name, value = "solver.time_limit", cfg.get("solver", {}).get("time_limit")
        if value is None:
            return None
    try:
        seconds = float(value)  # a string from the flag, a JSON value from the config
    except (TypeError, ValueError):
        seconds = math.nan
    if isinstance(value, bool) or not 0.0 < seconds < math.inf:
        raise ParseError(f"bad {name} {value!r}: need a positive, finite number of seconds")
    return seconds


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# solve plumbing shared by solve/scenarios/sensitivity


def _solver_config(args, cfg: dict, instance: mdl.Instance | None) -> SolverConfig:
    solver_cfg = cfg.get("solver", {})
    return SolverConfig(
        gap_threshold=float(
            args.gap_threshold
            if args.gap_threshold is not None
            else solver_cfg.get("gap_threshold", 0.0)
        ),
        time_limit=_resolve_time_limit(args, cfg, instance),
        max_chargers=solver_cfg.get("max_chargers"),
        enforce_proximity=True if getattr(args, "enforce_proximity", False) else None,
    )


def _meta_params(args, cfg: dict, kind: str):
    section = dict(cfg.get(kind, {}))
    section.setdefault("seed", args.seed)
    if kind == "sa":
        return SAParams(
            initial_temperature=section.get("initial_temperature"),
            max_iterations=int(section.get("max_iterations", 5000)),
            cooling_factor=float(section.get("cooling_factor", 0.9)),
            assignment_randomness=float(section.get("assignment_randomness", 0.1)),
            seed=int(section["seed"]),
        )
    return GAParams(
        population_size=int(section.get("population_size", 30)),
        tournament_fraction=float(section.get("tournament_fraction", 0.3)),
        assignment_randomness=float(section.get("assignment_randomness", 0.1)),
        max_iterations=int(section.get("max_iterations", 5000)),
        seed=int(section["seed"]),
    )


def _run_method(instance: mdl.Instance, method: str, args, cfg: dict):
    config = _solver_config(args, cfg, instance)
    if method == "brute":
        return brute_force(
            instance,
            enforce_proximity=config.enforce_proximity,
        )
    if method == "bnb":
        return branch_and_bound(instance, config)
    n_runs = int(args.n_runs if args.n_runs is not None else cfg.get("n_runs", 1))
    params = _meta_params(args, cfg, method)
    if n_runs > 1:
        return multi_run(
            instance, method, params, n_runs, base_seed=args.seed, time_limit=config.time_limit
        )
    if method == "sa":
        return simulated_annealing(instance, params, time_limit=config.time_limit)
    if method == "ga":
        return genetic_algorithm(instance, params, time_limit=config.time_limit)
    raise ParseError(f"unknown method {method!r}")


def _solve_fn(method: str, args, cfg: dict):
    def solve(instance: mdl.Instance):
        return _run_method(instance, method, args, cfg)

    return solve


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_demand(args) -> int:
    cfg = _load_config(args.config)
    blocks = dm.read_blocks_csv(args.blocks)
    kinds = presets.baseline_charger_types()
    caps = {k.id: int(args.max_chargers_per_type) for k in kinds}
    stations = dm.read_stations_csv(args.stations, max_chargers=caps)
    added = dm.ensure_garages(
        blocks, stations, fixed_cost_rate=presets.station_cost_rate(), max_chargers=caps
    )
    if added:
        print(f"added missing garage stations: {added}", file=sys.stderr)

    events = []
    for block in blocks:
        events.extend(dm.segment_block(block, args.range_min))
    if not events:
        print("warning: no demand events were generated", file=sys.stderr)
    points = dm.aggregate_demand(events, args.horizon_min)
    points, stations, travel = dm.build_coverage(
        points, stations, args.max_travel_min, args.speed_kmh
    )
    costs = cfg.get("costs", {})
    instance = mdl.make_instance(
        points,
        stations,
        kinds,
        travel_cost_rate=float(costs.get("travel_cost_rate", presets.TRAVEL_COST_PER_MIN)),
        wait_cost_rate=float(costs.get("wait_cost_rate", presets.WAIT_COST_PER_MIN)),
        travel=travel,
        speed_kmh=args.speed_kmh,
        max_travel_minutes=args.max_travel_min,
    )
    payload = mdl.instance_to_dict(instance)
    payload["meta"] = _meta(args, {"blocks": str(args.blocks), "events": len(events)})
    mdl.write_json(args.out, payload)
    print(
        f"instance written: {len(points)} demand points, {len(stations)} stations, "
        f"{len(events)} events"
    )
    return EXIT_OK


def cmd_cluster(args) -> int:
    instance = mdl.load_instance(args.instance)
    if args.k_demand != len(instance.demand_points) or args.k_station != len(instance.stations):
        # full identity keeps the instance, and so its travel matrix, as it is
        instance = mdl.make_instance(
            dm.cluster_demand_points(list(instance.demand_points), args.k_demand, args.seed),
            dm.cluster_stations(list(instance.stations), args.k_station, args.seed + 1),
            instance.charger_types,
            travel_cost_rate=instance.travel_cost_rate,
            wait_cost_rate=instance.wait_cost_rate,
            speed_kmh=instance.speed_kmh,
            max_travel_minutes=instance.max_travel_minutes,
            epsilon=instance.epsilon,
            enforce_proximity=instance.enforce_proximity,
        )
    payload = mdl.instance_to_dict(instance)
    payload["meta"] = _meta(args, {"k_demand": args.k_demand, "k_station": args.k_station, "seed": args.seed})
    mdl.write_json(args.out, payload)
    total = sum(p.rate for p in instance.demand_points)
    print(f"clustered instance written; total demand rate {total!r}/min")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    instance = mdl.load_instance(args.instance)
    t0 = time.perf_counter()
    report = _run_method(instance, args.method, args, cfg)
    wall = time.perf_counter() - t0
    meta = _meta(
        args,
        {
            "method": args.method,
            "seed": args.seed,
            "wall_time_s": wall,
            "time_to_best_s": report.time_to_best,
        },
    )
    save_report(report, args.out, meta=meta)
    sol = report.best
    n_chargers = sum(s for s in sol.chargers.values())
    print(
        f"cost={sol.cost.total:.6f} gap={report.gap:.6f} stations={len(sol.active)} "
        f"chargers={n_chargers} time_to_best={report.time_to_best:.3f}s "
        f"terminated_by={report.terminated_by}"
    )
    if report.terminated_by == "time":
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_scenarios(args) -> int:
    cfg = _load_config(args.config)
    instance = mdl.load_instance(args.instance)
    rows = run_scenarios(instance, _solve_fn(args.method, args, cfg))
    labels = charger_count_labels(instance)
    type_ids = sorted(labels)
    baseline = next(
        r for r in rows if r.scenario.joint and r.scenario.allow_garage and r.scenario.allow_other
    )
    if not baseline.feasible:
        print("baseline scenario infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE

    header = (
        ["scenario", "joint", "garage", "other", "status", "total_cost", "pct_increase_vs_baseline", "stations"]
        + [f"chargers_{labels[k]}" for k in type_ids]
        + ["mean_wait_min", "mean_utilization"]
    )
    out_rows = []
    for r in rows:
        if r.feasible:
            pct = 100.0 * (r.total_cost - baseline.total_cost) / baseline.total_cost
            out_rows.append(
                [
                    r.label,
                    int(r.scenario.joint),
                    int(r.scenario.allow_garage),
                    int(r.scenario.allow_other),
                    "ok",
                    r.total_cost,
                    pct,
                    r.stations_active,
                ]
                + [r.chargers_per_type[k] for k in type_ids]
                + [r.mean_wait, r.mean_utilization]
            )
        else:
            out_rows.append(
                [r.label, int(r.scenario.joint), int(r.scenario.allow_garage), int(r.scenario.allow_other), "infeasible", "", "", ""]
                + ["" for _ in type_ids]
                + ["", ""]
            )
    _write_csv(args.out, header, out_rows)
    for row in out_rows:
        print(row[0], row[4], row[5] if row[5] != "" else "-")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args.config)
    instance = mdl.load_instance(args.instance)
    multipliers = tuple(float(m) for m in args.multipliers.split(","))
    sweep = SweepSpec(parameter=args.parameter, multipliers=multipliers)
    rows = run_sweep(instance, sweep, _solve_fn(args.method, args, cfg))
    _write_csv(
        args.out,
        ["parameter", "multiplier", "total_cost", "pct_change_vs_baseline"],
        [[r.parameter, r.multiplier, r.total_cost, r.pct_change] for r in rows],
    )
    for r in rows:
        print(f"{r.parameter} x{r.multiplier:g}: cost={r.total_cost:.6f} ({r.pct_change:+.3f}%)")
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = mdl.load_instance(args.instance)
    try:
        with open(args.report, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read report: {exc}", path=args.report) from exc
    if payload.get("solution") is None:
        raise ParseError("report carries no solution", path=args.report)
    solution = solution_from_dict(payload["solution"])
    violations = mdl.check_feasibility(instance, solution)
    if not violations:
        print("solution is feasible")
        return EXIT_OK
    for v in violations:
        print(f"violation {v.code} {v.subject}: {v.detail}")
    return EXIT_INFEASIBLE


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--time-limit", default=None, help="seconds, or 'auto' for the benchmark schedule")
    p.add_argument("--config", default=None, help="JSON config file (sa/ga/solver sections)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargeplan",
        description="Charging-station siting and charger allocation for electric bus fleets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demand", help="block schedules -> instance JSON")
    p.add_argument("--blocks", required=True)
    p.add_argument("--stations", required=True)
    p.add_argument("--range-min", type=float, required=True, help="driving range in minutes")
    p.add_argument("--horizon-min", type=float, default=1440.0)
    p.add_argument("--max-travel-min", type=float, default=30.0)
    p.add_argument("--speed-kmh", type=float, default=30.0)
    p.add_argument("--max-chargers-per-type", type=int, default=8)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen_demand)

    p = sub.add_parser("cluster", help="aggregate an instance to k points")
    p.add_argument("instance")
    p.add_argument("--k-demand", type=int, required=True)
    p.add_argument("--k-station", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("solve", help="run one solver on an instance")
    p.add_argument("instance")
    p.add_argument("--method", choices=["brute", "bnb", "sa", "ga"], default="bnb")
    p.add_argument("--out", required=True)
    p.add_argument("--gap-threshold", type=float, default=None)
    p.add_argument("--n-runs", type=int, default=None)
    p.add_argument("--enforce-proximity", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scenarios", help="joint/separate x station-pool comparison table")
    p.add_argument("instance")
    p.add_argument("--method", choices=["brute", "bnb", "sa", "ga"], default="ga")
    p.add_argument("--out", required=True)
    p.add_argument("--gap-threshold", type=float, default=None)
    p.add_argument("--n-runs", type=int, default=None)
    p.add_argument("--enforce-proximity", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("sensitivity", help="one-at-a-time parameter sweep")
    p.add_argument("instance")
    p.add_argument("--parameter", required=True, choices=["wait_cost", "charger_power", "station_cost", "charger_cost"])
    p.add_argument("--multipliers", required=True, help="comma-separated, e.g. 2,4,6,8,10")
    p.add_argument("--method", choices=["brute", "bnb", "sa", "ga"], default="ga")
    p.add_argument("--out", required=True)
    p.add_argument("--gap-threshold", type=float, default=None)
    p.add_argument("--n-runs", type=int, default=None)
    p.add_argument("--enforce-proximity", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("validate", help="check a report against an instance")
    p.add_argument("instance")
    p.add_argument("report")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidKError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleError, InfeasibleDemandError, UncoveredDemandError, InstanceTooLargeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ChargePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
