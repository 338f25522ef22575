"""Command-line pipeline: ingest, cluster, solve, compare, sweep, validate.

Exit codes: 0 success, 2 infeasible (from sa or ga: no deployment found,
which proves nothing), 3 parse/usage error (brute force on an instance
with too many assignment vectors included), 4 solver hit its
time limit (a result file is still written when it had a deployment, and
none when it stopped before finding one). All volatile values (wall times,
timestamps) are confined to the ``meta`` object of JSON outputs so
fixed-seed runs are byte-identical elsewhere.

A ``--config`` file is read by the record reader of :mod:`chargeplan.model`,
each section through a field table taken from its parameter class, so
unknown keys, kinds and nulls follow the instance rules.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import fields, replace
from datetime import datetime, timezone
from functools import partial

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
    SearchGaveUpError,
    TimeLimitError,
    UncoveredDemandError,
)
from .exact import SolverConfig, branch_and_bound, brute_force, save_report
from .metaheuristics import GAParams, SAParams, genetic_algorithm, multi_run, simulated_annealing
from .scenarios import SWEEP_PARAMETERS, SweepSpec, run_scenarios, run_sweep, scenario_table

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


# the --config sections: "sa", "ga" and "solver" read the fields of their
# parameter class but the seed, which comes from --seed (an int field as an
# int, any other as a float); "costs" reads the instance's cost fields, the
# presets standing in for those left out
_PARAMS = {"sa": SAParams, "ga": GAParams, "solver": SolverConfig}
_COSTS = {"travel_cost_rate": presets.TRAVEL_COST_PER_MIN, "wait_cost_rate": presets.WAIT_COST_PER_MIN}


def _load_config(path: str | None) -> dict:
    """The settings of a --config file, or the defaults without one: an
    SAParams, GAParams and SolverConfig by section name, the instance
    ``costs`` and ``n_runs``. Each section is read through its field table
    as an instance record is; any error names the file."""
    data = mdl.read_json(path) if path else {}
    try:
        mdl._known_keys(data, "config", {*_PARAMS, "costs", "n_runs"})
        cfg = {
            name: cls(**mdl._record(
                data.get(name, {}), name,
                {f.name: int if f.type == "int" else float for f in fields(cls) if f.name != "seed"},
                mdl.defaults(cls),
            ))
            for name, cls in _PARAMS.items()
        }
        cfg["costs"] = {**_COSTS, **mdl._record(data.get("costs", {}), "costs", mdl.COST_FIELDS, _COSTS)}
        mdl.check_cost_rates(cfg["costs"])
        cfg["n_runs"] = mdl._number(data.get("n_runs", 1), "n_runs", int)
        if cfg["n_runs"] < 1:
            raise ValueError("n_runs must be >= 1")
    except (ParseError, ValueError) as exc:
        raise ParseError(str(exc), path=path) from exc
    return cfg


def _time_limit_flag(args, instance: mdl.Instance) -> float | None:
    """Seconds from ``--time-limit``, or None without it; 'auto' picks them
    by instance size, and a number must be positive and finite."""
    value = args.time_limit
    if value == "auto":
        return presets.auto_time_limit(len(instance.demand_points), len(instance.stations))
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not 0.0 < seconds < math.inf:
        raise ParseError(f"bad --time-limit {value!r}: need a positive, finite number of seconds")
    return seconds


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# solve plumbing shared by solve/scenarios/sensitivity


def _solver_config(args, cfg: dict, instance: mdl.Instance) -> SolverConfig:
    """The config's solver section with ``--gap-threshold`` and
    ``--time-limit`` put over it."""
    flags = {"gap_threshold": args.gap_threshold, "time_limit": _time_limit_flag(args, instance)}
    return replace(cfg["solver"], **{k: v for k, v in flags.items() if v is not None})


# the solver flags a method never reads; --seed is taken by every method
_UNREAD_FLAGS = {
    "brute": ("n_runs", "gap_threshold", "time_limit"),
    "bnb": ("n_runs",),
    "sa": ("gap_threshold",),
    "ga": ("gap_threshold",),
}


def _run_method(instance: mdl.Instance, args, cfg: dict):
    """Solve ``instance`` with ``--method`` and the settings of the flags
    and the config."""
    method = args.method
    for name in _UNREAD_FLAGS[method]:
        if getattr(args, name) is not None:
            raise ParseError(f"--{name.replace('_', '-')} is not read by --method {method}")
    if args.enforce_proximity:
        instance = replace(instance, enforce_proximity=True)
    config = _solver_config(args, cfg, instance)
    if method == "brute":
        return brute_force(instance)
    if method == "bnb":
        return branch_and_bound(instance, config)
    n_runs = args.n_runs if args.n_runs is not None else cfg["n_runs"]
    params = replace(cfg[method], seed=args.seed)
    if n_runs != 1:  # multi_run rejects a count below 1
        return multi_run(instance, method, params, n_runs, time_limit=config.time_limit)
    solver = simulated_annealing if method == "sa" else genetic_algorithm
    return solver(instance, params, time_limit=config.time_limit)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_demand(args) -> int:
    if args.max_chargers_per_type < 0:
        raise ParseError(f"bad --max-chargers-per-type {args.max_chargers_per_type}: need a count >= 0")
    cfg = _load_config(args.config)
    blocks = dm.read_blocks_csv(args.blocks)
    kinds = presets.baseline_charger_types()
    caps = {k.id: args.max_chargers_per_type for k in kinds}
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
    instance = mdl.make_instance(
        points,
        stations,
        kinds,
        **cfg["costs"],
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
    for flag, k, n in (
        ("--k-demand", args.k_demand, len(instance.demand_points)),
        ("--k-station", args.k_station, len(instance.stations)),
    ):
        if not 1 <= k <= n:
            raise InvalidKError(f"{flag} {k} outside [1, {n}]")
    if args.k_demand != len(instance.demand_points) or args.k_station != len(instance.stations):
        # full identity keeps the instance, and so its travel matrix, as it is
        dps = dm.cluster_demand_points(list(instance.demand_points), args.k_demand, args.seed)
        sts = dm.cluster_stations(list(instance.stations), args.k_station, args.seed + 1)
        instance = replace(
            instance, demand_points=dps, stations=sts,
            travel=mdl.travel_times(dps, sts, instance.speed_kmh, instance.max_travel_minutes),
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
    report = _run_method(instance, args, cfg)
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
    rows = run_scenarios(instance, partial(_run_method, args=args, cfg=cfg))
    baseline = rows[-1]  # scenario_matrix puts joint-mixed last
    if not baseline.feasible:
        print("baseline scenario infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if baseline.total_cost <= 0:
        raise ChargePlanError("baseline objective must be positive to compare scenarios against it")
    header, table = scenario_table(instance, rows)
    _write_csv(args.out, header, table)
    for row in table:
        print(row[0], row[4], row[5] if row[5] != "" else "-")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args.config)
    instance = mdl.load_instance(args.instance)
    try:
        sweep = SweepSpec(args.parameter, tuple(float(m) for m in args.multipliers.split(",")))
    except ValueError as exc:
        raise ParseError(f"bad --multipliers {args.multipliers!r}: {exc}") from exc
    rows = run_sweep(instance, sweep, partial(_run_method, args=args, cfg=cfg))
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
    payload = mdl.read_json(args.report)
    if not isinstance(payload, dict) or payload.get("solution") is None:
        raise ParseError("report carries no solution", path=args.report)
    try:
        solution = mdl.solution_from_dict(payload["solution"])
    except ParseError as exc:
        raise ParseError(str(exc), path=args.report) from exc
    violations = mdl.check_feasibility(instance, solution)
    if not violations:
        print("solution is feasible")
        return EXIT_OK
    for v in violations:
        print(f"violation {v.code} {v.subject}: {v.detail}")
    return EXIT_INFEASIBLE


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the parse/usage code: argparse's own 2 means
    infeasible here. Subparsers are made of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_solver_flags(p: argparse.ArgumentParser, method: str, func) -> None:
    """The instance, flags and handler of a command that solves: solve,
    scenarios, sensitivity."""
    p.add_argument("instance")
    p.add_argument("--method", choices=["brute", "bnb", "sa", "ga"], default=method)
    p.add_argument("--out", required=True)
    p.add_argument("--gap-threshold", type=float, default=None)
    p.add_argument("--n-runs", type=int, default=None)
    p.add_argument("--enforce-proximity", action="store_true", help="closest active station only")
    p.add_argument("--seed", type=int, default=0, help="RNG seed; run r of --n-runs uses seed + r")
    p.add_argument("--time-limit", default=None, help="seconds, or 'auto' for the benchmark schedule")
    p.add_argument("--config", default=None, help="JSON config file (sa/ga/solver sections)")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--config", default=None, help="JSON config file (costs section)")
    p.set_defaults(func=cmd_gen_demand)

    p = sub.add_parser("cluster", help="aggregate an instance to k points")
    p.add_argument("instance")
    p.add_argument("--k-demand", type=int, required=True)
    p.add_argument("--k-station", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="k-means seed")
    p.set_defaults(func=cmd_cluster)

    _add_solver_flags(sub.add_parser("solve", help="run one solver on an instance"), "bnb", cmd_solve)
    _add_solver_flags(
        sub.add_parser("scenarios", help="joint/separate x station-pool comparison table"), "ga", cmd_scenarios
    )

    p = sub.add_parser("sensitivity", help="one-at-a-time parameter sweep")
    p.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--multipliers", required=True, help="comma-separated, e.g. 2,4,6,8,10")
    _add_solver_flags(p, "ga", cmd_sensitivity)

    p = sub.add_parser("validate", help="check a report against an instance")
    p.add_argument("instance")
    p.add_argument("report")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidKError, ValueError, OSError) as exc:  # OSError: an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SearchGaveUpError as exc:  # SA or GA gave up: no proof of infeasibility
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InfeasibleError, InfeasibleDemandError, UncoveredDemandError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InstanceTooLargeError as exc:  # too many to enumerate says nothing of feasibility
        print(f"error: {exc}; --method bnb solves it without enumerating them", file=sys.stderr)
        return EXIT_PARSE
    except TimeLimitError as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except ChargePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
