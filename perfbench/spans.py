"""Spans around the calls into each layer, recorded from outside the package.

Modules bind imported names directly (``exact`` binds ``size_pair``,
``metaheuristics`` binds ``cover_sets``, ``cli`` binds the solvers), so
wrapping one module attribute would miss calls. :meth:`Tracer.install`
replaces the target at every binding site: every ``chargeplan`` module
attribute that is the original object. Spans nest; a span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass(frozen=True)
class Target:
    """One function or method to wrap. ``owner`` is a module name, or
    ``module:Class`` for a method. Without a ``span`` name the wrapper only
    runs its hooks and records no span."""

    owner: str
    attr: str
    span: str | None = None
    on_call: Callable | None = None  # (tracer, args) -> None
    on_return: Callable | None = None  # (tracer, args, result) -> None
    on_raise: Callable | None = None  # (tracer, exc) -> None


@dataclass
class Tracer:
    spans: dict[str, SpanStats] = field(default_factory=lambda: defaultdict(SpanStats))
    within: dict[tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    missing: list[str] = field(default_factory=list)
    _stack: list[list] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        stack = self._stack
        spans, within = self.spans, self.within
        name = target.span
        on_call, on_return, on_raise = target.on_call, target.on_return, target.on_raise

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            if name is None:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_raise is not None:
                        on_raise(self, exc)
                    raise
                if on_return is not None:
                    on_return(self, args, result)
                return result
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(self, exc)
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = spans[name]
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    within[(name, parent[0])] += dt
            if on_return is not None:
                on_return(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def region(self, name: str, seconds: float) -> None:
        """Record a span measured by the caller (a top-level region)."""
        st = self.spans[name]
        st.calls += 1
        st.total += seconds
        st.self_time += seconds

    # -- installation -------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target at every binding site. A target that does not
        exist is listed in ``missing`` and left alone."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "chargeplan" or n.startswith("chargeplan."))]
        for target in targets:
            module_name, _, cls_name = target.owner.partition(":")
            owner = sys.modules.get(module_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            wrapped = self._wrap(original, target)
            sites = [owner] if cls_name else modules
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapped)
                        self._undo.append((site, attr, original))

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._undo):
            setattr(site, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# what is wrapped, and the per-layer metrics derived from it


def _count(key: str, amount: Callable = lambda args: 1):
    def hook(tracer: Tracer, args) -> None:
        tracer.counts[key] += amount(args)
    return hook


def _count_result(key: str, amount: Callable):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += amount(result)
    return hook


def _sized(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.counts["size_pair.sized"] += 1
        tracer.counts["size_pair.servers"] += result[0]


def _memo_lookup(tracer: Tracer, args) -> None:
    # _PairSizer.best(self, j, k, mask, load)
    tracer.counts["memo.lookups"] += 1
    if (args[1], args[2], args[3]) in getattr(args[0], "_memo", ()):
        tracer.counts["memo.hits"] += 1


def _infeasible(tracer: Tracer, exc: Exception) -> None:
    tracer.counts["candidates.infeasible"] += 1


def _solved(prefix: str):
    def hook(tracer: Tracer, args, report) -> None:
        tracer.counts[prefix + ".iterations"] += report.nodes_explored
        tracer.counts[prefix + ".cuts"] += report.cuts_added
    return hook


TARGETS = [
    Target("chargeplan.queueing", "expected_wait", "queueing.expected_wait"),
    Target("chargeplan.queueing", "_erlang_b", on_call=_count("erlang_b_steps", lambda a: a[1])),
    Target("chargeplan.queueing", "tangent_cut", "queueing.tangent_cut"),
    Target("chargeplan.construction", "size_pair", "construction.size_pair", on_return=_sized),
    Target("chargeplan.construction", "cover_sets", "construction.cover_sets",
           on_return=_count_result("cover_sets.covers", len)),
    Target("chargeplan.construction", "demand_assignment", "construction.demand_assignment",
           on_call=_count("candidates"), on_raise=_infeasible),
    Target("chargeplan.construction", "best_chargers", "construction.best_chargers", on_raise=_infeasible),
    Target("chargeplan.construction", "build_solution", "construction.build_solution"),
    Target("chargeplan.exact:_TreeSearch", "node_bound", "exact.node_bound"),
    Target("chargeplan.exact:_TreeSearch", "_children", "exact.children"),
    Target("chargeplan.exact:_TreeSearch", "leaf_cost", "exact.leaf_cost"),
    Target("chargeplan.exact:_PairSizer", "best", on_call=_memo_lookup),
    Target("chargeplan.exact", "branch_and_bound", "exact.branch_and_bound", on_return=_solved("exact")),
    Target("chargeplan.metaheuristics", "simulated_annealing", "metaheuristics.sa", on_return=_solved("sa")),
    Target("chargeplan.metaheuristics", "genetic_algorithm", "metaheuristics.ga", on_return=_solved("ga")),
    Target("chargeplan.metaheuristics", "multi_run", "metaheuristics.multi_run"),
    Target("chargeplan.metaheuristics", "_try_candidate", "metaheuristics.try_candidate"),
    Target("chargeplan.model", "evaluate", "model.evaluate"),
    Target("chargeplan.model", "compute_waits", "model.compute_waits"),
    Target("chargeplan.model", "check_feasibility", "model.check_feasibility"),
    Target("chargeplan.model", "load_instance", "model.load_instance"),
    Target("chargeplan.demand", "segment_block", "demand.segment_block",
           on_return=_count_result("demand.events", len)),
    Target("chargeplan.demand", "aggregate_demand", "demand.aggregate_demand"),
    Target("chargeplan.demand", "build_coverage", "demand.build_coverage"),
    Target("chargeplan.demand", "cluster_demand_points", "demand.cluster_demand_points"),
    Target("chargeplan.demand", "cluster_stations", "demand.cluster_stations"),
    Target("chargeplan.scenarios", "run_sweep", "scenarios.run_sweep"),
]

CLI_STAGES = ("gen-demand", "cluster", "solve", "validate", "sensitivity")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit). A layer the
    workload does not reach reads 0."""
    def span(name: str) -> SpanStats:
        return tr.spans[name] if name in tr.spans else SpanStats()

    c = tr.counts
    ga = span("metaheuristics.ga")
    ga_init = (tr.within.get(("construction.cover_sets", "metaheuristics.ga"), 0.0)
               + tr.within.get(("metaheuristics.try_candidate", "metaheuristics.ga"), 0.0))
    cover = span("construction.cover_sets")
    out = {
        "queueing.expected_wait.calls": (span("queueing.expected_wait").calls, "count"),
        "queueing.expected_wait.self_s": (span("queueing.expected_wait").self_time, "s"),
        "queueing.erlang_b_steps": (c["erlang_b_steps"], "count"),
        "queueing.tangent_cut.calls": (span("queueing.tangent_cut").calls, "count"),
        "construction.size_pair.calls": (span("construction.size_pair").calls, "count"),
        "construction.size_pair.self_s": (span("construction.size_pair").self_time, "s"),
        "construction.size_pair.servers_mean": (_ratio(c["size_pair.servers"], c["size_pair.sized"]), "count"),
        "construction.cover_sets.s": (cover.total, "s"),
        "construction.cover_sets.covers_found": (_ratio(c["cover_sets.covers"], cover.calls), "count"),
        "construction.demand_assignment.s": (span("construction.demand_assignment").total, "s"),
        "construction.best_chargers.s": (span("construction.best_chargers").total, "s"),
        "construction.build_solution.s": (span("construction.build_solution").total, "s"),
        "exact.nodes": (c["exact.iterations"], "count"),
        "exact.nodes_per_s": (_ratio(c["exact.iterations"], span("exact.branch_and_bound").total), "1/s"),
        "exact.node_bound.calls": (span("exact.node_bound").calls, "count"),
        "exact.node_bound.self_s": (span("exact.node_bound").self_time, "s"),
        "exact.children.s": (span("exact.children").total, "s"),
        "exact.leaf_cost.calls": (span("exact.leaf_cost").calls, "count"),
        "exact.memo_hit_ratio": (_ratio(c["memo.hits"], c["memo.lookups"]), "ratio"),
        "exact.cuts_added": (c["exact.cuts"], "count"),
        "metaheuristics.sa.iter_per_s": (_ratio(c["sa.iterations"], span("metaheuristics.sa").total), "1/s"),
        "metaheuristics.ga.iter_per_s": (_ratio(c["ga.iterations"], ga.total - ga_init), "1/s"),
        "metaheuristics.ga.init_s": (ga_init, "s"),
        "metaheuristics.infeasible_ratio": (_ratio(c["candidates.infeasible"], c["candidates"]), "ratio"),
        "model.evaluate.calls": (span("model.evaluate").calls, "count"),
        "model.evaluate.s": (span("model.evaluate").total, "s"),
        "model.compute_waits.calls": (span("model.compute_waits").calls, "count"),
        "model.compute_waits.s": (span("model.compute_waits").total, "s"),
        "model.check_feasibility.s": (span("model.check_feasibility").total, "s"),
        "model.load_instance.s": (span("model.load_instance").total, "s"),
        "demand.segment_block.s": (span("demand.segment_block").total, "s"),
        "demand.events": (c["demand.events"], "count"),
        "demand.aggregate_demand.s": (span("demand.aggregate_demand").total, "s"),
        "demand.build_coverage.s": (span("demand.build_coverage").total, "s"),
        "demand.cluster_demand_points.s": (span("demand.cluster_demand_points").total, "s"),
        "demand.cluster_stations.s": (span("demand.cluster_stations").total, "s"),
        "scenarios.run_sweep.s": (span("scenarios.run_sweep").total, "s"),
    }
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = (span(f"cli.{stage}").total, "s")
    return out
