"""Span tracer for the benchmark's traced runs.

``Tracer.install`` rebinds public eitlab functions, in the modules that call
them, to wrappers that record one span per call: name, op id, thread id,
parent span, start and end.  Spans opened on pool threads have no parent on
their own thread, so their parent is the op's root span.  Spans are kept in
memory and written out once, when the run ends.  ``rollup`` turns them into
the per-layer metrics.

Only traced runs import this module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _steps(args, kwargs, result):
    return kwargs["n_steps"] if "n_steps" in kwargs else args[3]


def _no_value(args, kwargs, result):
    return result is None


#: (module, attribute, span name, detail recorded from the call).  Each name
#: is rebound in the module that looks it up at call time.
TARGETS = (
    ("eitlab.cli", "coherence_point", "response.coherence_point", _no_value),
    ("eitlab.response", "coherences_beta0_limit", "response.coherences_beta0_limit", None),
    ("eitlab.cli", "nls_coefficients", "nls.nls_coefficients", None),
    ("eitlab.nls", "taylor_coefficients", "dispersion.taylor_coefficients", None),
    ("eitlab.cli", "split_step", "nls.split_step", _steps),
    ("eitlab.nls", "fft", "numerics.fft", None),
    ("eitlab.nls", "ifft", "numerics.ifft", None),
)

ROOT_SPAN = "cli.main"
LAYERS = ("cli", "response", "dispersion", "nls", "numerics")


class Tracer:
    """Thread-safe in-memory span recorder.

    A span is the tuple (op, span_id, parent_id, thread_id, name, start_ns,
    end_ns, detail).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None
        self._root = None
        self._saved: list[tuple] = []

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, detail):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = self._next_id()
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                info = detail(args, kwargs, result) if detail is not None else None
                self._record((self._op, span_id, parent, threading.get_ident(),
                              name, start, end, info))
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, detail in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, detail))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; spans recorded inside it carry ``op_id``."""
        self._op = op_id
        self._root = self._next_id()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._record((op_id, self._root, None, threading.get_ident(),
                          ROOT_SPAN, start, end, None))
            self._op = self._root = None

    def write(self, path: Path) -> None:
        keys = ("op", "span", "parent", "thread", "name", "start_ns", "end_ns", "detail")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union(intervals) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _minus(start: int, end: int, holes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Parts of [start, end] not covered by the merged, sorted ``holes``."""
    parts = []
    cursor = start
    for h_start, h_end in holes:
        if h_end <= cursor or h_start >= end:
            continue
        if h_start > cursor:
            parts.append((cursor, h_start))
        cursor = max(cursor, h_end)
    if cursor < end:
        parts.append((cursor, end))
    return parts


def _measure(intervals) -> int:
    return sum(e - s for s, e in _union(intervals))


def rollup(spans: list[tuple], fft_pair_ref_us: float) -> dict[str, float]:
    """Per-op layer metrics of the traced ops.

    A span's self time is its interval minus the union of its children's
    intervals, which stay correct when children on two pool threads overlap.
    A layer's self time is the measure of the union of its spans' self
    intervals, so two threads busy in one layer at once count once; the
    ``share.*`` metrics divide it by the op's wall time.
    """
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    ops = max(len(by_op), 1)

    layer_self = defaultdict(int)
    op_ns = 0
    for op_spans in by_op.values():
        children = defaultdict(list)
        for _op, _sid, parent, _tid, _name, start, end, _d in op_spans:
            children[parent].append((start, end))
        self_intervals = defaultdict(list)
        for _op, sid, _parent, _tid, name, start, end, _d in op_spans:
            if name == ROOT_SPAN:
                op_ns += end - start
            self_intervals[name.split(".")[0]].extend(
                _minus(start, end, _union(children[sid])))
        for layer, intervals in self_intervals.items():
            layer_self[layer] += _measure(intervals)

    calls = defaultdict(int)
    busy_ns = defaultdict(int)
    details = defaultdict(int)
    for _op, _sid, _parent, _tid, name, start, end, detail in spans:
        calls[name] += 1
        busy_ns[name] += end - start
        if detail:
            details[name] += int(detail)

    def per_op_ms(ns: float) -> float:
        return ns / ops / 1e6

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    point_calls = calls["response.coherence_point"]
    steps = details["nls.split_step"]
    fft_calls = calls["numerics.fft"] + calls["numerics.ifft"]
    us_per_step = ratio(busy_ns["nls.split_step"] / 1e3, steps)
    metrics = {
        "cli.self_ms": per_op_ms(layer_self["cli"]),
        "response.coherence_point.calls": point_calls / ops,
        "response.coherence_point.ms": per_op_ms(busy_ns["response.coherence_point"]),
        "response.coherence_point.us_per_call":
            ratio(busy_ns["response.coherence_point"] / 1e3, point_calls),
        "response.fallback_ratio": ratio(calls["response.coherences_beta0_limit"], point_calls),
        "response.nan_ratio": ratio(details["response.coherence_point"], point_calls),
        "dispersion.taylor_coefficients.calls": calls["dispersion.taylor_coefficients"] / ops,
        "dispersion.taylor_coefficients.ms": per_op_ms(busy_ns["dispersion.taylor_coefficients"]),
        "nls.nls_coefficients.ms": per_op_ms(busy_ns["nls.nls_coefficients"]),
        "nls.split_step.calls": calls["nls.split_step"] / ops,
        "nls.split_step.steps": steps / ops,
        "nls.split_step.ms": per_op_ms(busy_ns["nls.split_step"]),
        "nls.split_step.us_per_step": us_per_step,
        "nls.split_step.step_over_fft_pair": ratio(us_per_step, fft_pair_ref_us),
        "numerics.fft.calls": fft_calls / ops,
        "numerics.fft.ms": per_op_ms(busy_ns["numerics.fft"] + busy_ns["numerics.ifft"]),
        "numerics.fft_pair_ref_us": fft_pair_ref_us,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = ratio(layer_self[layer], op_ns)
    metrics["share.nls.split_step"] = ratio(busy_ns["nls.split_step"], op_ns)
    return metrics
