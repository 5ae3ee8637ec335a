"""Spans and counts recorded from outside the package.

The tracer replaces, for the length of one traced operation, the public
names each caller resolves (``escmass.cli.classify_scenario``,
``measures.reduce_siegel_batched``, ...) by wrappers that record a span:
name, start, end, the enclosing span and the operation it belongs to.
Bookkeeping done by a wrapper (condition numbers, counters) is timed apart
from the span and subtracted from every enclosing span, so no layer's time
absorbs the tracing cost of the layers it calls.  Spans stay in memory; :meth:`Tracer.metrics` reduces them to
the per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

# A reduced sample is unresolved when its reduced frame has a diagonal ratio
# above 2^40: its off-diagonal entries carry no resolved bits, and the
# reduced-bounds assertion skips it without saying so.
LOG_RATIO_UNRESOLVED = 40.0 * math.log(2.0)


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index into Tracer.spans, -1 for an operation's root span
    start: float
    end: float
    bookkeeping: float  # wrapper time outside [start, end]
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name): the calls the traced run records
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "classify_scenario", "limits.classify"),
    ("cli", "empirical_measure", "measures.empirical_measure"),
    ("cli", "boundary_histogram", "measures.boundary_histogram"),
    ("cli", "write_outputs", "cli.write_outputs"),
    ("measures", "reduce_siegel_batched", "reduction.reduce_siegel_batched"),
    ("measures", "iwasawa_batched", "lingrp.iwasawa_batched"),
    ("measures", "reduce_sl2_coords", "reduction.reduce_sl2_coords"),
    ("limits", "qmat_mul", "qfield.qmat_mul"),
    ("limits", "locate_chamber", "rootsys.locate_chamber"),
    ("limits", "levi_sphere", "rootsys.levi_sphere"),
)

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "reduction.reduce_siegel_batched.calls": "count",
    "reduction.reduce_siegel_batched.matrices": "count",
    "reduction.reduce_siegel_batched.busy_s": "s",
    "reduction.reduce_siegel_batched.us_per_matrix": "us",
    "reduction.input_log10_cond.p50": "log10",
    "reduction.input_log10_cond.max": "log10",
    "reduction.gamma_log10.max": "log10",
    "reduction.budget_warnings": "count",
    "reduction.reduce_sl2_coords.busy_s": "s",
    "lingrp.iwasawa_batched.calls": "count",
    "lingrp.iwasawa_batched.matrices": "count",
    "lingrp.iwasawa_batched.busy_s": "s",
    "measures.empirical_measure.busy_s": "s",
    "measures.empirical_measure.self_s": "s",
    "measures.boundary_histogram.busy_s": "s",
    "measures.samples": "count",
    "measures.unresolved.share": "ratio",
    "limits.classify.calls": "count",
    "limits.classify.busy_s": "s",
    "limits.not_covered.share": "ratio",
    "qfield.qmat_mul.calls": "count",
    "qfield.qmat_mul.busy_s": "s",
    "rootsys.locate_chamber.calls": "count",
    "rootsys.locate_chamber.busy_s": "s",
    "rootsys.levi_sphere.busy_s": "s",
    "cli.load_scenario.busy_s": "s",
    "cli.write_outputs.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _batch(mats) -> int:
    return int(np.prod(np.shape(mats)[:-2]))


class Tracer:
    """Records spans while installed; install and remove around each traced
    operation so the untraced twin of that operation runs the bare code."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.log10_cond: List[np.ndarray] = []
        self.gamma_log10_max = 0.0
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._hooks = {
            "reduction.reduce_siegel_batched": (self._before_reduce, self._after_reduce),
            "lingrp.iwasawa_batched": (None, self._after_iwasawa),
            "measures.empirical_measure": (None, self._after_measure),
        }

    # -- installation -------------------------------------------------------

    def install(self, op: int) -> None:
        self.op = op
        for mod_name, attr, span_name in TARGETS:
            mod = self.modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(span_name, orig))

    def remove(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrap(self, name: str, fn):
        before, after = self._hooks.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b0 = clock()
            if before is not None:
                before(args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, self.op, parent, 0.0, 0.0, 0.0)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                stack.pop()
                span.bookkeeping = span.start - b0
                raise
            span.end = clock()
            stack.pop()
            if after is not None:
                after(args, out)
            span.bookkeeping = (span.start - b0) + (clock() - span.end)
            return out

        return wrapper

    # -- counters read at the layer boundaries --------------------------------

    def _before_reduce(self, args) -> None:
        mats = np.asarray(args[0], dtype=float)
        self.counts["reduce_matrices"] += _batch(mats)
        cond = np.linalg.cond(mats)
        self.log10_cond.append(np.log10(np.maximum(cond, 1.0)).astype(np.float32))

    def _after_reduce(self, args, out) -> None:
        gammas = out[0]
        if gammas.size:
            top = float(np.max(np.abs(gammas)))
            self.gamma_log10_max = max(self.gamma_log10_max, float(np.log10(max(top, 1.0))))

    def _after_iwasawa(self, args, out) -> None:
        self.counts["iwasawa_matrices"] += _batch(args[0])

    def _after_measure(self, args, m) -> None:
        count, factors, n = m.log_a.shape
        self.counts["samples"] += count * factors
        if n >= 3:
            la = m.log_a
            gaps = la[:, :, :, None] - la[:, :, None, :]
            upper = np.triu(np.ones((n, n), dtype=bool), 1)
            worst = np.max(np.where(upper, gaps, -np.inf), axis=(2, 3))
            self.counts["unresolved"] += int(np.count_nonzero(worst > LOG_RATIO_UNRESOLVED))

    # -- reduction to metrics -------------------------------------------------

    def metrics(self, budget_warnings: int, overhead_ratio: float) -> Dict[str, float]:
        # A span's time excludes the bookkeeping of the wrappers nested in
        # it; its self time further excludes its children's time.
        nested_bk = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):  # children follow parents
            s = self.spans[i]
            if s.parent >= 0:
                nested_bk[s.parent] += nested_bk[i] + s.bookkeeping
        net = [s.duration - nested_bk[i] for i, s in enumerate(self.spans)]
        children = [0.0] * len(self.spans)
        busy: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        errors: Dict[str, int] = defaultdict(int)
        for i, s in enumerate(self.spans):
            busy[s.name] += net[i]
            calls[s.name] += 1
            if s.error == "NotCoveredError":
                errors[s.name] += 1
            if s.parent >= 0:
                children[s.parent] += net[i]
        self_s: Dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            self_s[s.name] += net[i] - children[i]

        def per_call(name, total):
            return busy[name] / total * 1e6 if total else 0.0

        conds = np.concatenate(self.log10_cond) if self.log10_cond else np.zeros(1)
        samples = self.counts["samples"]
        classify_calls = calls["limits.classify"]
        out = {
            "reduction.reduce_siegel_batched.calls": calls["reduction.reduce_siegel_batched"],
            "reduction.reduce_siegel_batched.matrices": int(self.counts["reduce_matrices"]),
            "reduction.reduce_siegel_batched.busy_s": busy["reduction.reduce_siegel_batched"],
            "reduction.reduce_siegel_batched.us_per_matrix": per_call(
                "reduction.reduce_siegel_batched", self.counts["reduce_matrices"]
            ),
            "reduction.input_log10_cond.p50": float(np.median(conds)),
            "reduction.input_log10_cond.max": float(np.max(conds)),
            "reduction.gamma_log10.max": self.gamma_log10_max,
            "reduction.budget_warnings": budget_warnings,
            "reduction.reduce_sl2_coords.busy_s": busy["reduction.reduce_sl2_coords"],
            "lingrp.iwasawa_batched.calls": calls["lingrp.iwasawa_batched"],
            "lingrp.iwasawa_batched.matrices": int(self.counts["iwasawa_matrices"]),
            "lingrp.iwasawa_batched.busy_s": busy["lingrp.iwasawa_batched"],
            "measures.empirical_measure.busy_s": busy["measures.empirical_measure"],
            "measures.empirical_measure.self_s": self_s["measures.empirical_measure"],
            "measures.boundary_histogram.busy_s": busy["measures.boundary_histogram"],
            "measures.samples": int(samples),
            "measures.unresolved.share": self.counts["unresolved"] / samples if samples else 0.0,
            "limits.classify.calls": classify_calls,
            "limits.classify.busy_s": busy["limits.classify"],
            "limits.not_covered.share": (
                errors["limits.classify"] / classify_calls if classify_calls else 0.0
            ),
            "qfield.qmat_mul.calls": calls["qfield.qmat_mul"],
            "qfield.qmat_mul.busy_s": busy["qfield.qmat_mul"],
            "rootsys.locate_chamber.calls": calls["rootsys.locate_chamber"],
            "rootsys.locate_chamber.busy_s": busy["rootsys.locate_chamber"],
            "rootsys.levi_sphere.busy_s": busy["rootsys.levi_sphere"],
            "cli.load_scenario.busy_s": busy["cli.load_scenario"],
            "cli.write_outputs.busy_s": busy["cli.write_outputs"],
            "cli.self_s": self_s["cli.main"],
            "trace.overhead_ratio": overhead_ratio,
        }
        assert list(out) == list(PER_LAYER)
        return out

    def span_records(self) -> List[dict]:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
             "end": s.end, "bookkeeping": s.bookkeeping, "error": s.error}
            for s in self.spans
        ]
