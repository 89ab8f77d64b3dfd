"""Spans recorded in memory around the benchmark's calls into nfg.

A span holds a name, start and end (perf_counter_ns), the index of its
parent span (-1 for a root) and the op it belongs to.  Roots are the
runner's own: ``op`` (the timed operation), ``check`` and ``decompose``.
Child spans are named ``<layer>.<call>``; the layer is the nfg module whose
public function the benchmark called.  Work nested inside that function
stays in its span: the program itself is not instrumented.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class NullTracer:
    """Records nothing; `call` is a plain call."""

    def call(self, name, fn, *args):
        return fn(*args)

    def add(self, name: str, value: int) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass


NULL = NullTracer()


class Tracer(NullTracer):
    """Keeps every span and counter of a run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        span = Span(name, 0, 0, self._stack[-1] if self._stack else -1, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration_ns
        return own


LAYERS = ("states", "overlap", "correlation", "families", "fock", "cli")

#: Per-layer metric -> (span name, unit); the value is the span's median duration.
SPAN_MEDIANS = {
    "states.construct_us": ("states.construct", "us"),
    "states.standard_form_us": ("states.standard_form", "us"),
    "states.apply_unitary_us": ("states.apply_unitary", "us"),
    "states.williamson_us": ("states.williamson", "us"),
    "overlap.c_squared_us": ("overlap.c_squared", "us"),
    "correlation.two_mode_us": ("correlation.two_mode", "us"),
    "correlation.upper_bound_us": ("correlation.upper_bound", "us"),
    "correlation.monotonicity_us": ("correlation.monotonicity", "us"),
    "correlation.channel_closed_form_us": ("correlation.channel_closed_form", "us"),
    "correlation.numeric_s": ("correlation.numeric", "s"),
    "families.sweep_s": ("families.sweep", "s"),
    "fock.thermal_s": ("fock.thermal", "s"),
    "fock.coherent_s": ("fock.coherent", "s"),
    "fock.squeezed_s": ("fock.squeezed", "s"),
    "fock.tmsv_s": ("fock.tmsv", "s"),
}

#: Counters set by the workloads (see `Tracer.add` and `Tracer.peak`).
COUNTERS = {
    "correlation.lower_bound_only_count": "count",
    "fock.max_cutoff": "count",
    "fock.dense_bytes_computed": "bytes",
}

#: Layers whose functions an op calls directly; the others run inside `cli`.
CALLED_LAYERS = ("states", "overlap", "correlation", "cli")

_SCALE = {"us": 1e-3, "s": 1e-9}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, untraced_op_ns: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    A layer that the workload never calls reports 0.  The library calls that
    ``decompose`` repeated are taken out of the cli span that wraps them:
    ``cli.*_s`` is what remains, and ``<layer>.share`` splits op time the
    same way.  ``trace.overhead_ratio`` compares the traced and untraced op
    medians.
    """
    spans = tracer.spans
    own = tracer.self_ns()
    roots = []
    for s in spans:
        roots.append(roots[s.parent] if s.parent >= 0 else s)

    durations: dict[str, list[int]] = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    wrapped: dict[int, int] = {}  # op id -> library time repeated by decompose
    for i, (s, root) in enumerate(zip(spans, roots)):
        durations.setdefault(s.name, []).append(s.duration_ns)
        layer = s.name.split(".")[0]
        if layer not in layer_ns:
            continue
        if root.name == "op":
            layer_ns[layer] += own[i]
            calls[layer] += 1
        elif root.name == "decompose" and spans[s.parent] is root:
            wrapped[s.op_id] = wrapped.get(s.op_id, 0) + s.duration_ns
            layer_ns[layer] += s.duration_ns
            layer_ns["cli"] -= s.duration_ns

    out = {
        name: (_median(durations.get(span, [])) * _SCALE[unit], unit)
        for name, (span, unit) in SPAN_MEDIANS.items()
    }
    for name, span in (("cli.sweep_format_s", "cli.sweep"), ("cli.oracle_report_s", "cli.oracle_check")):
        rest = [s.duration_ns - wrapped.get(s.op_id, 0) for s in spans if s.name == span]
        out[name] = (_median(rest) * 1e-9, "s")

    op_ns = [s.duration_ns for s in spans if s.name == "op"]
    n_ops = max(1, len(op_ns))
    construct = sum(1 for s, root in zip(spans, roots) if s.name == "states.construct" and root.name == "op")
    out["states.construct_calls"] = (construct / n_ops, "count")
    for layer in CALLED_LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / n_ops, "count")
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_ns[layer] / max(1, sum(op_ns)), "ratio")
    for name, unit in COUNTERS.items():
        out[name] = (tracer.counters.get(name, 0), unit)
    untraced = _median(untraced_op_ns)
    out["trace.overhead_ratio"] = (_median(op_ns) / untraced - 1.0 if untraced else 0.0, "ratio")
    return out
