"""Which package functions no served run enters: a function-level call trace.

Traces every call into the package, with ``sys.setprofile`` and, for the
``--jobs`` thread pool, ``threading.setprofile``, while it serves:

* ``escmass run`` on each bundled scenario at ``--jobs 1`` and ``--jobs 3``,
  with ``--out``;
* ``escmass list-catalog``, ``escmass verify-identities`` and a usage error;
* one pass over the corpora that ``perfbench/workloads.py`` builds, at each
  seed: the whole ``exact_corpus`` and the first and last entry of each
  sampling corpus, each result checked as the benchmark checks it.

It prints every function defined in the package source that the trace
never entered, as ``module.qualname``, with its reason from ``KEEP``.  It
exits 1 unless each of them is on ``KEEP``, and also when a ``KEEP`` entry
was entered or names no function, so the list cannot go stale.  Lambdas,
comprehensions and the methods that ``dataclass`` generates are not
counted; a function counts as entered once any call to it starts.

    python tools/reach.py

It takes about ten seconds on two CPUs.  The package is imported from the
``src`` directory next to this one, and ``perfbench/`` is only read.  Needs
Python 3.11 or later (``co_qualname``).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import sys
import tempfile
import threading
import types
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

SEEDS = (0, 7)
VERIFY_TRIALS = 20  # every trial enters the same functions

_ITEM_11 = "ROADMAP item 11 adopts the escape infimum as a witness or deletes it"
_ITEM_13 = "ROADMAP item 13 adopts the general-n tools or deletes them"
_TEST_03 = "acceptance test_03 reads the dual basis and the projections"
_VALUE = "value semantics of the type"
_IRRATIONAL = ("inverse of an irrational number: the plunge target b/d of a descending "
               "trivial factor with offset [[tau, 1], [1, tau]], or the cusp image a/c of a "
               "rising one with offset [[1, 0], [tau, 1]]")

# module.qualname -> why the function stays although no served run enters it
KEEP: Dict[str, str] = {
    "cli._PipeGuard.__getattr__": "stands in for the stream's other attributes (encoding, fileno)",
    "limits._upper_hull_vertices": "unip_limit_I's hull; " + _ITEM_13,
    "limits.delta_truncated": _ITEM_11,
    "limits.ma_split": "acceptance test_08; " + _ITEM_13,
    "limits.unip_limit_I": "acceptance test_07; " + _ITEM_13,
    "lingrp.GroupElement.__repr__": _VALUE,
    "qfield.QuadNum.__eq__": _VALUE,
    "qfield.QuadNum.__hash__": _VALUE,
    "qfield.QuadNum.__repr__": _VALUE,
    "qfield.QuadNum.__rsub__": "operator semantics: 1 - x",
    "qfield.QuadNum.__rtruediv__": "operator semantics: 1 / x",
    "qfield.QuadNum.conj": _IRRATIONAL,
    "qfield.QuadNum.make": "the validating public constructor",
    "qfield.QuadNum.norm": _IRRATIONAL,
    "qfield.rat_inverse": "_inverse_cartan's elimination; " + _TEST_03,
    "reduction.enumerate_gamma": "delta_truncated's search over Gamma; " + _ITEM_11,
    "rootsys.RootSystem.cartan": _TEST_03,
    "rootsys.WeightVector.__post_init__": _TEST_03,
    "rootsys.WeightVector.ambient": _TEST_03,
    "rootsys.WeylElement.is_identity": "predicate of the value type; locate_chamber's doctest reads it",
    "rootsys._inverse_cartan": _TEST_03,
    "rootsys.project_weight": _TEST_03,
    "rootsys.quasi_fundamental_weights": _TEST_03,
}


def package_functions() -> Dict[Tuple[str, str], str]:
    """(file, qualname) -> ``module.qualname`` of every ``def`` in the
    package source, nested ones included."""
    import escmass

    out = {}
    for path in sorted(Path(escmass.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # a function's code, not a class body's, nor a lambda's or a comprehension's
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[(str(path), code.co_qualname)] = f"{path.stem}.{code.co_qualname}"
    return out


def _main(argv: Sequence[str], codes: Iterable[int]) -> None:
    """cli.main(argv) with its output dropped; RuntimeError unless it
    exits with one of codes."""
    from escmass import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(list(argv))
    if code not in codes:
        raise RuntimeError(f"escmass {' '.join(argv)} exited {code}:\n{sink.getvalue()}")


def _serve(scenarios: Optional[Sequence[str]], samples: Optional[int], seeds: Sequence[int],
           tmp: Path) -> None:
    from escmass import cli

    if scenarios is None:
        scenarios = [p.stem for p in cli.bundled_scenarios()]
    for name in scenarios:
        for jobs in (1, 3):
            argv = ["run", name, "--jobs", str(jobs), "--out", str(tmp / f"{name}-{jobs}")]
            if samples is not None:
                argv += ["--samples", str(samples)]
            _main(argv, (cli.EXIT_OK, cli.EXIT_DISAGREE))
    _main(["list-catalog"], (cli.EXIT_OK,))
    _main(["verify-identities", "--trials", str(VERIFY_TRIALS)], (cli.EXIT_OK,))
    _main(["run"], (cli.EXIT_INPUT,))
    if not seeds:
        return
    import workloads

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for seed in seeds:
        ctx = workloads.Context(reference, tmp / f"seed{seed}")
        for corpus, build in workloads.CORPORA.items():
            entries = build(ctx, seed)
            if corpus != "exact_corpus":
                entries = entries[:1] + entries[-1:]
            for entry in entries:
                reason = entry.check(entry.run())
                if reason is not None:
                    raise RuntimeError(f"{corpus} {entry.key} at seed {seed}: {reason}")


def trace(scenarios: Optional[Sequence[str]] = None, samples: Optional[int] = None,
          seeds: Sequence[int] = SEEDS) -> List[str]:
    """``module.qualname`` of every package function that serving the given
    bundled scenarios (all by default), the other commands and the corpora
    at the given seeds never enters, sorted.  The package's import is
    traced too when it is the first one, as it is in ``main``."""
    entered: Set[Tuple[str, str]] = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_qualname))

    with tempfile.TemporaryDirectory() as tmp:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            _serve(scenarios, samples, seeds, Path(tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return sorted(name for key, name in package_functions().items() if key not in entered)


def report(unreached: Sequence[str], keep: Dict[str, str]) -> Tuple[List[str], int]:
    """The printout for the trace's unreached functions against keep, and
    the exit code: 1 when a function is unreached but not kept, or a kept
    name was entered or names no function."""
    names = set(package_functions().values())
    lines = [f"never entered: {len(unreached)} of {len(names)} package functions"]
    width = max((len(name) for name in unreached), default=0)
    for name in unreached:
        lines.append(f"  {name:<{width}}  {keep.get(name, 'NOT ON THE KEEP-LIST')}")
    entered = sorted(set(keep) & names - set(unreached))
    missing = sorted(set(keep) - names)
    if entered:
        lines.append("kept but entered: " + ", ".join(entered))
    if missing:
        lines.append("kept but no such function: " + ", ".join(missing))
    bad = entered or missing or any(name not in keep for name in unreached)
    return lines, 1 if bad else 0


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    lines, code = report(trace(), KEEP)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
