"""The three workloads: their inputs, one pass of timed solves, and the gate.

Every workload is a closed loop in one process: each solve starts when the
previous one returns. A pass is a list of :class:`Solve` records; the runner
repeats passes for the measuring window and reduces them to metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from chargeplan import cli, exact, metaheuristics
from chargeplan.exact import SolverConfig
from chargeplan.metaheuristics import GAParams, SAParams
# bound here so that the gate's own calls are never traced
from chargeplan.model import check_feasibility, evaluate, load_instance, save_instance

import gen

REL_TOL = 1e-9

# Timed calls go through the package's module attributes, which the tracer
# wraps; a name bound here would bypass it.


@dataclass
class Solve:
    """One timed call and the answer it gave."""

    name: str
    seconds: float
    objective: float | None = None
    terminated_by: str | None = None
    gap: float | None = None
    nodes: int | None = None
    digest: str | None = None  # command-line stages: sha256 of the output, meta removed
    exit_code: int = 0
    # kept for the gate, which runs after timing and tracing
    instance: object = field(default=None, repr=False)
    report: object = field(default=None, repr=False)


def _solve_record(name: str, seconds: float, instance, report) -> Solve:
    return Solve(name, seconds, report.upper_bound, report.terminated_by, report.gap,
                 report.nodes_explored, instance=instance, report=report)


def _round_trip(instance, path: Path):
    """Save and load an instance, as a user's input file would arrive."""
    save_instance(instance, path)
    return load_instance(path)


def verify_report(s: Solve) -> list[str]:
    """The returned deployment is feasible, prices to the reported cost, and
    the reported bounds are ordered."""
    rep, inst = s.report, s.instance
    out = [f"{s.name}: violation {v.code} {v.subject}" for v in check_feasibility(inst, rep.best)]
    cost = evaluate(inst, rep.best).total
    if not math.isclose(cost, rep.upper_bound, rel_tol=REL_TOL):
        out.append(f"{s.name}: reported cost {rep.upper_bound!r} but the deployment costs {cost!r}")
    if rep.lower_bound > rep.upper_bound * (1 + REL_TOL):
        out.append(f"{s.name}: lower bound {rep.lower_bound!r} above upper bound {rep.upper_bound!r}")
    return out


def matches_reference(s: Solve, ref: dict | None) -> list[str]:
    if ref is None:
        return [f"{s.name}: no reference recorded"]
    out = []
    if "objective" in ref and not (
        s.objective is not None and math.isclose(s.objective, ref["objective"], rel_tol=REL_TOL)
    ):
        out.append(f"{s.name}: objective {s.objective!r} != reference {ref['objective']!r}")
    if "terminated_by" in ref and s.terminated_by != ref["terminated_by"]:
        out.append(f"{s.name}: terminated_by {s.terminated_by!r} != reference {ref['terminated_by']!r}")
    if "digest" in ref and s.digest != ref["digest"]:
        out.append(f"{s.name}: output differs from the reference")
    if s.exit_code != 0:
        out.append(f"{s.name}: exit code {s.exit_code}")
    return out


# subsets of 0..75 for the speed kernel's cover search
KERNEL_SETS = tuple(frozenset(range(i, i + 9)) for i in range(0, 72, 4))


def speed_kernel() -> float:
    """Time a fixed pure-Python loop of the work the solvers do: dict, tuple,
    heap and float work as in branch-and-bound, then a recursive frozenset
    search as in ``cover_sets``. It does not use the package, so its time
    measures only how fast the shared machine runs this process at the
    moment."""
    t0 = perf_counter()
    heap, acc, x = [], {}, 0.0
    for i in range(20_000):
        key = (i % 977, i % 13)
        acc[key] = acc.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (x, i))
        x = (x * 1.0001 + 1.7) % 97.0
        if len(heap) > 200:
            heapq.heappop(heap)

    def search(remaining: frozenset[int], chosen: frozenset[int], pool: tuple[int, ...]) -> int:
        # nothing is kept, so the kernel adds nothing to peak memory
        if len(chosen) == 5:
            return len(remaining)
        return sum(search(remaining - KERNEL_SETS[j], chosen | {j}, pool[idx + 1:])
                   for idx, j in enumerate(pool))

    search(frozenset(range(76)), frozenset(), tuple(range(len(KERNEL_SETS))))
    return perf_counter() - t0


class Workload:
    name = ""
    # span names that must record calls in the traced run
    hot: tuple[str, ...] = ()

    def __init__(self):
        self.kernel_s: list[float] = []  # speed-kernel times, one per timed call

    def clock(self) -> float:
        """Start a timed call: collect garbage first, so that no call pays for
        the garbage of the one before, and time the speed kernel."""
        gc.collect()
        self.kernel_s.append(speed_kernel())
        return perf_counter()

    def generator_args(self) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def referee(self) -> tuple[int, list[str]]:
        """Extra untimed checks: (checks attempted, failures)."""
        return 0, []

    def once(self) -> list[Solve]:
        """Solves run once per run, before the passes."""
        return []

    def run_pass(self, rng: random.Random) -> list[Solve]:
        raise NotImplementedError

    def gate(self, solve: Solve, refs: dict) -> list[str]:
        out = matches_reference(solve, refs.get(solve.name))
        if solve.report is not None:
            out += verify_report(solve)
        return out

    def named(self, medians: dict[str, float], total: float, once: list[Solve],
              last: list[Solve]) -> list[tuple[str, float, str]]:
        """Workload-specific readings of the run, for the printed table."""
        return []


# ---------------------------------------------------------------------------
# exact-proof


class ExactProof(Workload):
    """Branch-and-bound to proof on a family of small sparse instances."""

    name = "exact-proof"
    # (demands, generator seed): per size, the first two generator seeds from
    # 0 whose proof took 0.2-5 s when the benchmark was defined.
    FAMILY = ((12, 3), (12, 7), (14, 3), (14, 4), (16, 1), (16, 2), (18, 2), (18, 7))
    STATIONS = 5
    CAPS = (6, 14)
    # the first 20-demand generator seed that B&B does not prove in 60 s
    DEADLINE_INSTANCE = (20, 0)
    DEADLINE_S = 5.0
    REFEREE_LEAVES = 30_000
    hot = ("exact.branch_and_bound", "exact.node_bound", "exact.children", "exact.leaf_cost",
           "construction.size_pair", "queueing.expected_wait", "queueing.tangent_cut")

    def generator_args(self) -> dict:
        return {"generator": "gen.sparse_instance", "family": self.FAMILY, "n_station": self.STATIONS,
                "cap_range": self.CAPS, "deadline_instance": self.DEADLINE_INSTANCE,
                "deadline_s": self.DEADLINE_S, "referee_max_leaves": self.REFEREE_LEAVES}

    def setup(self, seed: int, work: Path) -> None:
        rng = random.Random(seed)
        self.family = {}
        for n, g in self.FAMILY:
            base = gen.sparse_instance(g, n, self.STATIONS, self.CAPS)
            self.family[f"n{n}-g{g}"] = _round_trip(gen.Relabel.draw(base, rng).apply(base), work / f"n{n}-g{g}.json")
        n, g = self.DEADLINE_INSTANCE
        base = gen.sparse_instance(g, n, self.STATIONS, self.CAPS)
        self.deadline = _round_trip(gen.Relabel.draw(base, rng).apply(base), work / "deadline.json")
        # referees: the longest demand prefix of each member that brute force
        # enumerates within REFEREE_LEAVES leaves
        self.referees = []
        for inst in self.family.values():
            k = len(inst.demand_points)
            while True:
                sub = gen.prefix_instance(inst, k)
                leaves = math.prod(2 * len(d.reachable) for d in sub.demand_points)
                if leaves <= self.REFEREE_LEAVES:
                    break
                k -= 1
            self.referees.append(sub)
        exact.branch_and_bound(self.referees[0])  # warm-up

    def referee(self) -> tuple[int, list[str]]:
        out = []
        for i, sub in enumerate(self.referees):
            want = exact.brute_force(sub).upper_bound
            got = exact.branch_and_bound(sub).upper_bound
            if not math.isclose(got, want, rel_tol=REL_TOL):
                out.append(f"referee {i}: branch_and_bound {got!r} != brute_force {want!r}")
        return len(self.referees), out

    def once(self) -> list[Solve]:
        t0 = self.clock()
        rep = exact.branch_and_bound(self.deadline, SolverConfig(time_limit=self.DEADLINE_S))
        return [_solve_record("deadline", perf_counter() - t0, self.deadline, rep)]

    def run_pass(self, rng: random.Random) -> list[Solve]:
        names = sorted(self.family)
        rng.shuffle(names)
        out = []
        for name in names:
            t0 = self.clock()
            rep = exact.branch_and_bound(self.family[name])
            out.append(_solve_record(name, perf_counter() - t0, self.family[name], rep))
        return out

    def gate(self, solve: Solve, refs: dict) -> list[str]:
        if solve.name != "deadline":
            return super().gate(solve, refs)
        # the incumbent at the deadline depends on speed; it must still be
        # consistent with the bounds certified by a 60 s run
        ref = refs["deadline"]
        out = verify_report(solve)
        if solve.terminated_by != ref["terminated_by"]:
            out.append(f"deadline: terminated_by {solve.terminated_by!r} != {ref['terminated_by']!r}")
        if solve.report.lower_bound > ref["upper_60s"] * (1 + REL_TOL):
            out.append(f"deadline: lower bound {solve.report.lower_bound!r} above a known cost {ref['upper_60s']!r}")
        if solve.objective < ref["lower_60s"] * (1 - REL_TOL):
            out.append(f"deadline: cost {solve.objective!r} below a proven bound {ref['lower_60s']!r}")
        return out

    def named(self, medians, total, once, last):
        proofs = [medians[n] for n in self.family]
        return [
            ("exact.proof_s_sgm", sgm(proofs), "s"),
            ("exact.proof_s_max", max(proofs), "s"),
            ("exact.solved_share", sum(s.terminated_by == "optimality" for s in last) / len(last), "ratio"),
            ("exact.gap_at_deadline", once[0].gap, "ratio"),
        ]


# ---------------------------------------------------------------------------
# meta-heavy


class MetaHeavy(Workload):
    """SA and GA with fixed seeds and iteration counts on a dense, high-traffic
    instance whose pairs need hundreds of chargers."""

    name = "meta-heavy"
    INSTANCE = {"gen_seed": 1, "n_demand": 40, "n_station": 12, "rate_range": (0.6, 2.0), "cap": 800}
    SA = SAParams(max_iterations=150, seed=1)
    GA = GAParams(max_iterations=600, seed=1)
    hot = ("metaheuristics.sa", "metaheuristics.ga", "metaheuristics.try_candidate",
           "construction.size_pair", "construction.best_chargers", "construction.demand_assignment",
           "construction.build_solution", "construction.cover_sets", "queueing.expected_wait",
           "model.evaluate", "model.compute_waits")

    def generator_args(self) -> dict:
        return {"generator": "gen.dense_instance", **self.INSTANCE,
                "sa": vars(self.SA), "ga": vars(self.GA)}

    def setup(self, seed: int, work: Path) -> None:
        base = gen.dense_instance(**self.INSTANCE)
        self.instance = _round_trip(gen.Relabel.draw(base, random.Random(seed)).apply(base), work / "dense.json")
        metaheuristics.simulated_annealing(self.instance, SAParams(max_iterations=2, seed=0))  # warm-up

    def run_pass(self, rng: random.Random) -> list[Solve]:
        solvers = [("sa", "simulated_annealing", self.SA), ("ga", "genetic_algorithm", self.GA)]
        rng.shuffle(solvers)
        out = []
        for name, solver, params in solvers:
            t0 = self.clock()
            rep = getattr(metaheuristics, solver)(self.instance, params)
            out.append(_solve_record(name, perf_counter() - t0, self.instance, rep))
        return out

    def named(self, medians, total, once, last):
        return [("meta.sa_solve_s", medians["sa"], "s"), ("meta.ga_solve_s", medians["ga"], "s")]


# ---------------------------------------------------------------------------
# pipeline-sparse


class PipelineSparse(Workload):
    """The README command chain, in-process through ``cli.main``, on a sparse
    synthetic city with small charger counts."""

    name = "pipeline-sparse"
    CITY = gen.CityParams(gen_seed=11, n_hoods=12, hood_km=2.0, n_terminals=60, n_garages=4,
                          n_blocks=40, trips_per_block=(6, 10), station_share=0.3, cutoff_min=20.0)
    RANGE_MIN = 200
    K_DEMAND, K_STATION = 24, 9
    CONFIG = {"ga": {"max_iterations": 1000}, "sa": {"max_iterations": 500}}
    hot = ("demand.segment_block", "demand.aggregate_demand", "demand.build_coverage",
           "demand.cluster_demand_points", "demand.cluster_stations", "model.load_instance",
           "model.check_feasibility", "scenarios.run_sweep", "construction.cover_sets",
           "metaheuristics.multi_run", "metaheuristics.ga", "metaheuristics.sa",
           "construction.size_pair", "queueing.expected_wait")

    def generator_args(self) -> dict:
        return {"generator": "gen.city", **vars(self.CITY), "range_min": self.RANGE_MIN,
                "k_demand": self.K_DEMAND, "k_station": self.K_STATION, "config": self.CONFIG}

    def setup(self, seed: int, work: Path) -> None:
        self.work = work
        blocks, stations = gen.city(self.CITY)
        gen.write_city_csvs(blocks, stations, random.Random(seed), work / "blocks.csv", work / "stations.csv")
        (work / "config.json").write_text(json.dumps(self.CONFIG), encoding="utf-8")
        w = str(work)
        self.stages = [
            ("gen-demand", ["gen-demand", "--blocks", f"{w}/blocks.csv", "--stations", f"{w}/stations.csv",
                            "--range-min", str(self.RANGE_MIN), "--max-travel-min", str(self.CITY.cutoff_min),
                            "--max-chargers-per-type", "3", "--out", f"{w}/instance.json"], "instance.json"),
            ("cluster", ["cluster", f"{w}/instance.json", "--k-demand", str(self.K_DEMAND),
                         "--k-station", str(self.K_STATION), "--seed", "7", "--out", f"{w}/clustered.json"],
             "clustered.json"),
            ("solve", ["solve", f"{w}/clustered.json", "--method", "ga", "--n-runs", "3", "--seed", "1",
                       "--config", f"{w}/config.json", "--out", f"{w}/report.json"], "report.json"),
            ("validate", ["validate", f"{w}/clustered.json", f"{w}/report.json"], None),
            ("sensitivity", ["sensitivity", f"{w}/clustered.json", "--parameter", "wait_cost",
                             "--multipliers", "2,4", "--method", "sa", "--seed", "1",
                             "--config", f"{w}/config.json", "--out", f"{w}/sweep.csv"], "sweep.csv"),
        ]
        cli.build_parser()  # warm-up

    def _digest(self, output: str | None, stdout: str) -> str:
        if output is None:
            return hashlib.sha256(stdout.encode()).hexdigest()
        path = self.work / output
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload.pop("meta", None)
            data = json.dumps(payload, indent=2, sort_keys=True).encode()
        else:
            data = path.read_bytes()
        return hashlib.sha256(data).hexdigest()

    def run_pass(self, rng: random.Random) -> list[Solve]:
        for output in ("instance.json", "clustered.json", "report.json", "sweep.csv"):
            (self.work / output).unlink(missing_ok=True)
        out = []
        for name, argv, output in self.stages:
            buf = io.StringIO()
            t0 = self.clock()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            s = Solve(name, perf_counter() - t0, exit_code=code)
            if code == 0:
                s.digest = self._digest(output, buf.getvalue())
            if name == "solve" and code == 0:
                rep = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
                s.objective, s.terminated_by, s.gap = rep["bounds"]["upper"], rep["terminated_by"], rep["bounds"]["gap"]
            out.append(s)
        return out

    def named(self, medians, total, once, last):
        return [("pipeline.total_s", total, "s")] + [
            (f"cli.{n}.s", medians[n], "s") for n, _, _ in self.stages
        ]


WORKLOADS = {w.name: w for w in (ExactProof, MetaHeavy, PipelineSparse)}


def sgm(values, shift: float = 1.0) -> float:
    """Shifted geometric mean, the MIPLIB summary of solve times."""
    return math.exp(sum(math.log(v + shift) for v in values) / len(values)) - shift


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
