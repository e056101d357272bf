"""Spans and counters recorded around calls into ksets for the traced run.

Tracer.installed() replaces public ksets functions by timing wrappers, in
every ksets module that binds them (verify and construct import
orthogonality_graph, ensure_valid and find_assignment by name), and puts
the originals back on exit.  Nothing inside the package is edited.

* Functions in SPANS open a span.  A layer's self time is its span's
  duration minus the time of the spans opened inside it.
* Functions in COUNTERS and the CycNum methods in CYCNUM run thousands of
  times per op, so they get no span of their own: their calls and time are
  added up per enclosing span instead.

All times come from time.perf_counter in this process; nothing outside the
benchmark's own processes is observed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

SPANS = (
    "setfile.parse", "setfile.serialize",
    "model.validate", "model.orthogonality_graph",
    "verify.find_assignment", "verify.is_ks", "verify.is_critical",
    "construct.reduce_critical", "construct.rank_scale",
    "construct.split_ranks", "construct.merge_rank", "construct.matsuno",
    "construct.ceg", "construct.pz_improved",
    "catalog.seed_set", "catalog.get",
)
COUNTERS = (
    "cyclo.parse_scalar", "cyclo.render_scalar",
    "model.inner", "model.projector_equal",
)
CYCNUM = {
    "inv": "cyclo.inv",
    "__mul__": "cyclo.arith",
    "__add__": "cyclo.arith",
    "__sub__": "cyclo.arith",
    "conj": "cyclo.arith",
}

# (name, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("cyclo.inv.calls", "count", "lower",
     "op_ms_p50 on cli-oneshot, throughput_ops_s on table-build; ~0 on core-census"),
    ("cyclo.inv.s", "s", "lower",
     "op_ms_p50 on cli-oneshot, throughput_ops_s on table-build; ~0 on core-census"),
    ("cyclo.arith.calls", "count", "lower",
     "throughput_ops_s on table-build, op_ms_p50 on cli-oneshot"),
    ("cyclo.arith.s", "s", "lower",
     "throughput_ops_s on table-build, op_ms_p50 on cli-oneshot"),
    ("cyclo.parse_scalar.s", "s", "lower",
     "op_ms_p50 on cli-oneshot"),
    ("cyclo.render_scalar.s", "s", "lower",
     "op_ms_p50 on cli-oneshot"),
    ("setfile.parse.self_s", "s", "lower",
     "op_ms_p50 on cli-oneshot"),
    ("setfile.serialize.self_s", "s", "lower",
     "op_ms_p50 on cli-oneshot"),
    ("model.validate.calls", "count", "lower",
     "throughput_ops_s on table-build; secondary on core-census"),
    ("model.validate.self_s", "s", "lower",
     "throughput_ops_s on table-build; secondary on core-census"),
    ("model.orthogonality_graph.self_s", "s", "lower",
     "throughput_ops_s and op_ms_p90 on table-build, op_ms_p50 on cli-oneshot; 0 on core-census"),
    ("model.graph.inner_calls", "count", "lower",
     "throughput_ops_s and op_ms_p90 on table-build, op_ms_p50 on cli-oneshot; 0 on core-census"),
    ("model.graph.orthogonal_ratio", "ratio", "higher",
     "share of exact inner products in the graph that are zero; bounds a modular pre-filter"),
    ("model.projector_equal.calls", "count", "lower",
     "throughput_ops_s on table-build"),
    ("model.projector_equal.s", "s", "lower", "throughput_ops_s on table-build"),
    ("verify.find_assignment.self_s", "s", "lower",
     "throughput_ops_s on every workload"),
    ("verify.is_ks.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("verify.is_critical.self_s", "s", "lower",
     "op_ms_p90 on cli-oneshot"),
    ("verify.removals", "count", "lower", "op_ms_p90 on cli-oneshot"),
    ("construct.reduce_critical.self_s", "s", "lower",
     "throughput_ops_s and op_ms_p90 on core-census"),
    ("construct.reduce.kept_ratio", "ratio", "lower",
     "core contexts / input contexts; throughput_ops_s and op_ms_p90 on core-census"),
    ("construct.rank_scale.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("construct.split_ranks.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("construct.merge_rank.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("construct.matsuno.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("construct.ceg.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("construct.pz_improved.self_s", "s", "lower", "throughput_ops_s on table-build"),
    ("catalog.seed_set.s", "s", "lower", "setup_s on every workload"),
    ("catalog.get.s", "s", "lower",
     "setup_s on core-census, op_ms_p50 on cli-oneshot"),
    ("cli.interpreter_s", "s", "lower", "op_ms_p50 on cli-oneshot"),
    ("cli.import_s", "s", "lower", "op_ms_p50 on cli-oneshot"),
    ("cli.main_s", "s", "lower", "op_ms_p50 on cli-oneshot"),
    ("trace.overhead_s", "s", "lower",
     "traced pass minus the same pass untraced; no end-to-end effect"),
    ("trace.overhead_ratio", "ratio", "lower",
     "trace.overhead_s / untraced pass; no end-to-end effect"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Map additive raw sums (Tracer.raw, summed over processes) to the
    LAYER_METRICS values."""
    out = {name: raw.get(name, 0.0) for name, _, _, _ in LAYER_METRICS}
    out["model.graph.orthogonal_ratio"] = _ratio(
        raw.get("model.graph.inner_zeros", 0.0),
        raw.get("model.graph.inner_calls", 0.0))
    out["construct.reduce.kept_ratio"] = _ratio(
        raw.get("construct.reduce.kept_contexts", 0.0),
        raw.get("construct.reduce.input_contexts", 0.0))
    out["trace.overhead_ratio"] = _ratio(
        raw.get("trace.overhead_s", 0.0), raw.get("trace.untraced_s", 0.0))
    return out


def _observe_result(name: str, args, result, extra: dict[str, float]) -> None:
    if name == "verify.is_critical":
        extra["verify.removals"] += len(result.removals)
    elif name == "construct.reduce_critical":
        extra["construct.reduce.input_contexts"] += args[0].n_contexts
        extra["construct.reduce.kept_contexts"] += result.n_contexts


class Tracer:
    """In-memory spans and per-parent counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.child_s: list[float] = []   # time covered by each span's children
        self.stack: list[int] = []
        # (enclosing span name, counter name) -> [calls, seconds, zero results]
        self.counts: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0])
        self.extra: dict[str, float] = defaultdict(float)

    def _span(self, name: str, fn):
        spans, child_s, stack, extra = self.spans, self.child_s, self.stack, self.extra
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent])
            child_s.append(0.0)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if parent >= 0:
                    child_s[parent] += end - start
            _observe_result(name, args, result, extra)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        perf = time.perf_counter
        zeros = name == "model.inner"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            elapsed = perf() - start
            c = counts[(spans[stack[-1]][0] if stack else "", name)]
            c[0] += 1
            c[1] += elapsed
            if zeros and result.is_zero():
                c[2] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions while the block runs."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ksets" or key.startswith("ksets.")]
        saved: list[tuple[object, str, object]] = []
        for names, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name in names:
                mod, attr = name.split(".")
                original = getattr(importlib.import_module(f"ksets.{mod}"), attr)
                wrapper = make(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, original))
                            setattr(m, key, wrapper)
        from ksets.cyclo import CycNum

        for meth, name in CYCNUM.items():
            original = CycNum.__dict__[meth]
            saved.append((CycNum, meth, original))
            setattr(CycNum, meth, self._counter(name, original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def raw(self) -> dict[str, float]:
        """Additive sums: span calls, total and self time; counter calls and
        time summed over enclosing spans; result observations."""
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - self.child_s[idx]
        for (parent, name), (calls, seconds, zeros) in self.counts.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.s"] += seconds
            if parent == "model.orthogonality_graph" and name == "model.inner":
                out["model.graph.inner_calls"] += calls
                out["model.graph.inner_zeros"] += zeros
        for key, value in self.extra.items():
            out[key] += value
        return dict(out)
