"""Spans recorded by wrapping wsnburst functions from outside, and the
per-layer metrics derived from them.

A function is wrapped where it is bound in the module that calls it
(``simcore.bulk_law_for``, ``experiments.run_replication``, ...), so the
program itself is unchanged.  Each call becomes one span: name, start,
end, parent span and the sweep point (N, b, day) it ran for.  Spans stay
in memory; the worker writes them out when a sweep ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Every ``.s`` metric below is a self time, except the
inclusive ``simcore.run_replication.s`` (its self part is
``simcore.run_replication.self_s``) and ``model.bulk_law_for.total_s``.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the parent span, -1 for a root
    point: str       # sweep point id, "" outside run_point


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []      # indices of the spans now running
        self._point = ""
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             count: Optional[tuple[str, Callable]] = None,
             point: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``count`` is (counter, fn): fn(result) is added to the counter.
        ``point`` maps the call's arguments to the point id its children
        inherit.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, open_, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            outer_point = self._point
            if point is not None:
                self._point = point(*args)
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = Span(name, start, end, parent, self._point)
                self._point = outer_point
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Return the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every wsnburst module."""
    from wsnburst import dists, experiments, model, simcore

    def point_id(config, n, b, day):
        return f"N{n}_b{b}_d{day}"

    tracer.wrap(simcore, "substream", "rng.substream")
    tracer.wrap(simcore, "sample_array", "dists.sample_array")
    tracer.wrap(model, "sample_array", "dists.sample_array")
    tracer.wrap(dists, "reliability", "dists.reliability")
    tracer.wrap(simcore, "bulk_law_for", "model.bulk_law_for")
    tracer.wrap(experiments, "derive_source_params", "model.derive_source_params")
    for law in (model.GeometricLaw, model.DiscretizedLaw, model.DeterministicLaw):
        tracer.wrap(law, "sample_array", "model.law_sample")
    for builder in ("build_star", "build_case2", "build_case3"):
        tracer.wrap(experiments, builder, f"topology.{builder}")
    tracer.wrap(simcore, "validate_topology", "topology.validate_topology")
    tracer.wrap(experiments, "run_replication", "simcore.run_replication",
                count=("simcore.hop_arrivals",
                       lambda res: sum(m.arrivals_total for m in res.per_node.values())))
    tracer.wrap(simcore, "source_emit", "simcore.source_emit",
                count=("simcore.emitted_packets", lambda times: int(times.size)))
    for fn in ("fifo_departures", "estimate_overflow", "packets_seen",
               "time_average_in_system"):
        tracer.wrap(simcore, fn, f"simcore.{fn}")
    tracer.wrap(experiments, "write_trace_csv", "simcore.write_trace_csv")
    tracer.wrap(experiments, "run_point", "experiments.run_point", point=point_id)
    for fn in ("run_sweep", "read_results_csv", "summarize", "emit_plotdata"):
        tracer.wrap(experiments, fn, f"experiments.{fn}")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def self_time_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return dict(table)


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced sweep (see BENCHMARK.json)."""
    table = self_time_table(spans)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    replication_s = table.get("simcore.run_replication", {}).get("total_s", 0.0)
    hop_arrivals = counts.get("simcore.hop_arrivals", 0)
    metrics = {
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.s": self_s("rng.substream"),
        "dists.sample_array.calls": calls("dists.sample_array"),
        "dists.sample_array.s": self_s("dists.sample_array"),
        "dists.reliability.calls": calls("dists.reliability"),
        "dists.reliability.s": self_s("dists.reliability"),
        "model.bulk_law_for.calls": calls("model.bulk_law_for"),
        "model.bulk_law_for.s": self_s("model.bulk_law_for"),
        "model.bulk_law_for.total_s": table.get("model.bulk_law_for", {}).get("total_s", 0.0),
        "model.derive_source_params.s": self_s("model.derive_source_params"),
        "model.law_sample.s": self_s("model.law_sample"),
        "topology.s": self_s(*(n for n in table if n.startswith("topology."))),
        "simcore.run_replication.calls": calls("simcore.run_replication"),
        "simcore.run_replication.s": replication_s,
        "simcore.run_replication.self_s": self_s("simcore.run_replication"),
        "simcore.source_emit.s": self_s("simcore.source_emit"),
        "simcore.fifo_departures.s": self_s("simcore.fifo_departures"),
        "simcore.estimate_overflow.s": self_s("simcore.estimate_overflow"),
        "simcore.packets_seen.s": self_s("simcore.packets_seen"),
        "simcore.time_average_in_system.s": self_s("simcore.time_average_in_system"),
        "simcore.write_trace_csv.calls": calls("simcore.write_trace_csv"),
        "simcore.write_trace_csv.s": self_s("simcore.write_trace_csv"),
        "simcore.hop_arrivals": hop_arrivals,
        "simcore.emitted_packets": counts.get("simcore.emitted_packets", 0),
        "simcore.hop_arrivals_per_s": hop_arrivals / replication_s if replication_s else 0.0,
        "experiments.run_point.calls": calls("experiments.run_point"),
        "experiments.run_sweep.self_s": self_s("experiments.run_sweep"),
        "experiments.read_results_csv.s": self_s("experiments.read_results_csv"),
        "experiments.summarize.s": self_s("experiments.summarize"),
        "experiments.emit_plotdata.s": self_s("experiments.emit_plotdata"),
    }
    return metrics


def point_percentiles(point_s: list[float]) -> dict[str, float]:
    """Median run_point time and, where at least ten samples lie beyond
    it, the p90."""
    out = {"experiments.run_point.p50_s": statistics.median(point_s)}
    if len(point_s) >= 100:
        out["experiments.run_point.p90_s"] = statistics.quantiles(point_s, n=10)[-1]
    return out
