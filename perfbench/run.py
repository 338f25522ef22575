"""Closed-loop benchmark of chargeplan: one workload per run.

    python3 perfbench/run.py --workload exact-proof --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One process and one caller: each solve starts when the previous one
returns. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one untraced and one
traced pass give the per-layer ones and the tracing overhead. The exit code
is 0 only when every answer matches its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS_PER_PASS = 3
# The speed kernel's time at the reference speed: about its median on the
# 2-vCPU machine the benchmark was defined on. It only sets the scale.
KERNEL_REF_S = 0.06


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_metadata(args, wl) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": wl.generator_args(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(wl, args, set_up, setup_s: list[float]):
    """Untraced run: passes until the window has elapsed, then the
    once-per-run solves. Returns (records, metrics, table rows).

    The times are reported in reference seconds: wall seconds scaled by
    KERNEL_REF_S over the median time of the speed kernel, which runs before
    every timed call. The shared machine's speed drifts by a fifth or more
    over minutes, moving every wall time of a run with it; the scaling
    takes that drift out, and the wall times are printed beside them.
    """
    from workloads import sgm

    rng = random.Random(args.seed)
    passes = []
    t0 = perf_counter()
    # start another pass if it should end nearer the window's end than the
    # last one did
    while not passes or (perf_counter() - t0) * (len(passes) + 0.5) / len(passes) <= args.seconds:
        # set-ups spread over the window meet the same machine as the solves
        for _ in range(SETUPS_PER_PASS):
            set_up()
        passes.append(wl.run_pass(rng))
    # read before the deadline solve, whose open nodes grow with its speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel_s = statistics.median(wl.kernel_s)
    once = wl.once()
    times: dict[str, list[float]] = {}
    for p in passes:
        for s in p:
            times.setdefault(s.name, []).append(s.seconds)
    medians = {name: statistics.median(v) for name, v in times.items()}
    total = statistics.median(sum(s.seconds for s in p) for p in passes)
    wall = {
        "setup_s": statistics.median(setup_s),
        "solve_s_sgm": sgm(medians.values()),
        "solve_s_max": max(medians.values()),
        "total_s": total,
    }
    scale = KERNEL_REF_S / kernel_s
    gaps = [s.gap for s in once + passes[-1] if s.gap is not None]
    metrics = {name: (value * scale, "s") for name, value in wall.items()}
    metrics["gap"] = (max(gaps), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    rows = [("passes", len(passes), "count"), ("setups", len(setup_s), "count"),
            ("speed_kernel_s", kernel_s, "s"), ("speed_kernel_samples", len(wl.kernel_s), "count")]
    rows += [(f"wall.{name}", value, "s") for name, value in wall.items()]
    rows += [(name, value * scale if unit == "s" else value, unit)
             for name, value, unit in wl.named(medians, total, once, passes[-1])]
    return once + [s for p in passes for s in p], metrics, rows


def traced(wl, args, spans):
    """One untraced pass, then the same pass traced. Returns (records,
    failures, metrics, table rows)."""
    untraced = wl.run_pass(random.Random(args.seed))
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    failures = []
    try:
        traced_pass = wl.run_pass(random.Random(args.seed))
    finally:
        tracer.uninstall()
    for s in traced_pass:
        if s.name in spans.CLI_STAGES:
            tracer.region(f"cli.{s.name}", s.seconds)
    def answer(s):
        return s.name, s.objective, s.terminated_by, s.nodes, s.digest

    for a, b in zip(untraced, traced_pass):
        if answer(a) != answer(b):
            failures.append(f"{a.name}: traced answer {answer(b)} differs from untraced {answer(a)}")
    if len(untraced) != len(traced_pass):
        failures.append("traced pass ran a different number of solves")
    for name in wl.hot:
        if tracer.spans.get(name) is None or tracer.spans[name].calls == 0:
            failures.append(f"hot layer {name} recorded no calls")
    t_plain = sum(s.seconds for s in untraced)
    t_traced = sum(s.seconds for s in traced_pass)
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_share"] = (t_traced / t_plain - 1.0, "ratio")
    rows = [(f"missing target {m}", 1, "count") for m in tracer.missing]
    return untraced + traced_pass, failures, metrics, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chargeplan" / "__init__.py").is_file():
        print(f"error: chargeplan sources not found under {SRC}", file=sys.stderr)
        return 2
    refs_path = HERE / "references.json"
    # one caller thread: keep numerical libraries from starting thread pools
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    refs = json.loads(refs_path.read_text(encoding="utf-8"))[args.workload]
    wl = workloads.WORKLOADS[args.workload]()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []

        def set_up():
            workloads.fresh_dir(work)
            t0 = wl.clock()
            wl.setup(args.seed, work)
            setup_s.append(perf_counter() - t0)

        set_up()
        attempted, failures = wl.referee()
        if args.trace:
            records, trace_failures, metrics, rows = traced(wl, args, spans)
            failures += trace_failures
        else:
            records, metrics, rows = measure(wl, args, set_up, setup_s)
        failed = len(failures)
        for s in records:
            problems = wl.gate(s, refs)
            failures += problems
            failed += bool(problems)
        attempted += len(records)
        failed = min(failed, attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass
    print("# run " + json.dumps(run_metadata(args, wl), sort_keys=True))
    for msg in failures:
        print("# FAIL " + msg)
    rows = rows + [("failed_share", failed / attempted, "ratio")]
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:.6g} {unit}")
    for name, value, unit in rows:
        print(f"# {name:40s} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
