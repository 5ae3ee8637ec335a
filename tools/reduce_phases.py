"""Where the reducer's time goes: per-phase seconds of the sampling corpora.

Runs the corpora that ``perfbench/workloads.py`` builds at seed 0, each
operation as the benchmark runs it, with wrappers on the reducer's layers,
and prints the seconds of one corpus pass spent in each phase, the best of
``--passes`` passes (5 by default):

* ``gram_schmidt``: ``lingrp.gram_schmidt_lower``, the batched Gram-Schmidt
  kernel, wherever the reducer calls it outside recertification;
* ``reorder``: ``reduction._to_front``, the working set's reorder;
* ``sweep``: the rest of ``reduction._lll_rows``, the LLL sweeps' size
  reduction, Lovasz test and swaps;
* ``outside``: the rest of ``reduction.reduce_siegel_batched`` and of its
  first ``reduction._reduce_stack``: the input copy, the sweep budget, the
  parity fix, the certification and the reorders back to input order;
* ``recertification``: every later ``_reduce_stack`` of a call, whole; it
  reads 0 on both corpora at seed 0, since no stack of theirs misses the
  certified floor (ROADMAP item 1).

In one pass the five phases add up to the time inside
``reduce_siegel_batched``, printed as ``reducer``; each column is its own
best, so the printed phases need not add up to the printed ``reducer``.
``sl3_corpus`` and ``sl4_measures`` run the n = 3 and n = 4 reducer;
``modular_products`` runs the half-plane walk, ``reduce_sl2_coords``,
printed as ``walk``.

    python tools/reduce_phases.py [--workload NAME ...] [--passes 5]

Run as a script, it pins BLAS to one thread, as the benchmark does,
unless the environment sets the thread count.  The package is imported
from the ``src`` directory next to this one, and ``perfbench/`` is only
read.  A pass of the three corpora takes about a second on a 2-CPU Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

REDUCER = ("gram_schmidt", "reorder", "sweep", "outside", "recertification")
COLUMNS = {
    "sl3_corpus": REDUCER + ("reducer",),
    "sl4_measures": REDUCER + ("reducer",),
    "modular_products": ("walk",),
}


class Phases:
    """Exclusive seconds per phase: a span's time less its children's."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self._children = []  # child seconds of each open span
        self._stacks = 0  # _reduce_stack calls in the open reduce_siegel_batched
        self._recertifying = False

    def span(self, phase, fn, *args, **kwargs):
        if self._recertifying:  # inside a recertification span, which counts all
            return fn(*args, **kwargs)
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = time.perf_counter() - t0
            self.seconds[phase] += total - self._children.pop()
            if self._children:
                self._children[-1] += total

    def reduce(self, fn, *args, **kwargs):
        self._stacks = 0
        t0 = time.perf_counter()
        try:
            return self.span("outside", fn, *args, **kwargs)
        finally:
            self.seconds["reducer"] += time.perf_counter() - t0

    def reduce_stack(self, fn, *args, **kwargs):
        self._stacks += 1
        if self._stacks == 1:
            return self.span("outside", fn, *args, **kwargs)

        def whole():
            self._recertifying = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._recertifying = False

        return self.span("recertification", whole)


@contextlib.contextmanager
def wrapped(phases: Phases):
    """The wrappers installed on the names each caller resolves."""
    from escmass import measures, reduction

    plan = [
        (measures, "reduce_siegel_batched", phases.reduce),
        (measures, "reduce_sl2_coords", lambda fn, *a, **k: phases.span("walk", fn, *a, **k)),
        (reduction, "_reduce_stack", phases.reduce_stack),
        (reduction, "_lll_rows", lambda fn, *a, **k: phases.span("sweep", fn, *a, **k)),
        (reduction, "_to_front", lambda fn, *a, **k: phases.span("reorder", fn, *a, **k)),
        (reduction, "gram_schmidt_lower",
         lambda fn, *a, **k: phases.span("gram_schmidt", fn, *a, **k)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in plan]
    for module, name, how in plan:
        real = getattr(module, name)
        setattr(module, name, lambda *a, _how=how, _real=real, **k: _how(_real, *a, **k))
    try:
        yield
    finally:
        for module, name, real in saved:
            setattr(module, name, real)


def measure(workload: str, passes: int, tmp: Path) -> dict:
    """Per-phase seconds of one pass over the workload's corpus at seed 0,
    each the best of ``passes`` passes, after one warm-up pass."""
    import workloads

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    entries = workloads.CORPORA[workload](workloads.Context(reference, tmp), 0)
    for entry in entries:  # warm-up: imports, workspace slots, caches
        entry.run()
    best = {}
    for _ in range(passes):
        phases = Phases()
        with wrapped(phases):
            for entry in entries:
                entry.run()
        for col in COLUMNS[workload]:
            best[col] = min(best.get(col, float("inf")), phases.seconds[col])
    return best


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    par.add_argument("--workload", nargs="+", choices=sorted(COLUMNS),
                     default=list(COLUMNS))
    par.add_argument("--passes", type=int, default=5)
    args = par.parse_args(argv)
    print(f"seconds per corpus pass at seed 0, best of {args.passes}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            best = measure(workload, args.passes, Path(tmp))
            print(f"{workload}: " + "  ".join(f"{col} {best[col]:.4f}" for col in COLUMNS[workload]))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # read when numpy is first imported
    raise SystemExit(main())
