"""Benchmark entry point: one workload, one seed, a closed loop of operations.

    python3 perfbench/run.py --workload sl3_corpus --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  One single-threaded
process drives the package: each operation starts when the previous one
ends, with BLAS pinned to one thread.  The loop cycles through the
workload's corpus until ``--seconds`` have passed, so every entry runs
several times.

With ``--trace 0`` the result carries the end-to-end metrics, with times at
the reference host speed (see :class:`HostSpeed`; the record keeps the wall
times too).  With
``--trace 1`` every operation runs twice, bare and then traced, and the
result carries the per-layer metrics; both runs must give the same result.
Every operation's result is checked (see ``workloads.py``); a wrong result
counts as failed.  The last line of standard output is the result object;
the line before it is the run record (environment, seed, run length,
failures, tail operation time).  The record is also written to
``.bench_out/``, and so are the spans of a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
BUDGET_WARNING = "sweeps, above the conditioning-based budget"
TAIL_BEYOND = 10  # the tail percentile reported has this many operations beyond it
WARMUP_S = 1.0
KERNEL_EVERY_S = 0.25  # the host's speed holds for seconds at a time
WARM_KERNEL_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no reference)."""


class HostSpeed:
    """A fixed reference kernel, timed between operations, that gives the
    host's current speed.

    On a shared virtual CPU the same code runs up to 1.8x slower for
    seconds to minutes at a time, and the slowdown scales all code alike:
    over 15-second windows the time of an ``SL_3`` measure varied with a
    coefficient of variation of 0.17, its ratio to this kernel's time with
    0.008.  End-to-end times are therefore reported at the reference speed,
    the speed at which the kernel takes ``REFERENCE_S``: a wall time
    divided by ``kernel time / REFERENCE_S``.  The kernel depends on numpy
    alone, so no change to the package changes it.
    """

    REFERENCE_S = 0.010  # close to the kernel's time on an unloaded host

    def __init__(self):
        import numpy as np

        self.np = np
        self.mats = np.random.default_rng(0).normal(size=(8192, 3, 3))
        # a fresh process runs the kernel slower at first (page faults,
        # lazy LAPACK set-up)
        for _ in range(WARM_KERNEL_RUNS):
            self.sample()

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        np = self.np
        t0 = time.perf_counter()
        q, r = np.linalg.qr(self.mats)
        np.round((self.mats @ q) / (np.abs(r) + 1.0))
        acc = 0
        for i in range(10000):
            acc += i * i
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        return self.sample() / self.REFERENCE_S


def parse_args(argv):
    import workloads

    par = argparse.ArgumentParser(description="escmass benchmark")
    par.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    par.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    par.add_argument("--seconds", type=float, required=True)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    par.add_argument("--quick", action="store_true",
                     help="time set-up once instead of five times (self-test)")
    par.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = par.parse_args(argv)
    if args.seed < 0:
        par.error("--seed must be non-negative")
    if args.seconds <= 0:
        par.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up: import, scenario loading, corpus generation


def prepare(workload: str, seed: int, tmp: Path):
    """Import the package from the checkout and build the corpus."""
    sys.path.insert(0, str(SRC))
    import escmass

    if not Path(escmass.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"escmass imported from {escmass.__file__}, not from {SRC}")
    import workloads

    try:
        reference = json.loads(REFERENCE.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read the reference: {exc}") from exc
    ctx = workloads.Context(reference, tmp)
    return ctx, workloads.CORPORA[workload](ctx, seed)


def probe_setup(args) -> int:
    """Child process: time one set-up and print the seconds it took."""
    t0 = time.perf_counter()
    prepare(args.workload, args.seed, OUT / "probe")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def time_setup(args, repeats: int, speed: HostSpeed) -> list:
    """(wall seconds, host slowdown) of the set-up of ``repeats`` fresh
    processes, each timed from before its first import of the package.  The
    slowdown is the mean of the median of three kernel runs just before and
    of three just after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    runs = []
    for _ in range(repeats):
        before = statistics.median(speed.slowdown() for _ in range(3))
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        after = statistics.median(speed.slowdown() for _ in range(3))
        if done.returncode != 0:
            raise BenchError(f"set-up failed:\n{done.stderr}")
        wall = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        runs.append((wall, (before + after) / 2))
    return runs


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs entries, checks their results, keeps per-entry timings."""

    def __init__(self, tracer=None, speed=None):
        import workloads

        self.digest = workloads.digest
        self.tracer = tracer
        self.speed = speed
        self.timeline = []  # (entry key, start, wall seconds) of timed bare runs
        self.kernel = []  # (time, host slowdown) between operations
        self.attempted = 0
        self.failures = []
        self.times = defaultdict(list)  # entry key -> bare seconds per run
        self.traced_s = 0.0
        self.bare_s = 0.0
        self.budget_warnings = 0
        self.first = {}  # entry key -> digest of its first result
        self.results = {}
        self.ops = 0

    def _execute(self, entry, traced: bool):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                self.tracer.install(self.ops)
            t0 = time.perf_counter()
            try:
                res = entry.run()
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    self.tracer.remove()
        budget = sum(1 for w in caught if BUDGET_WARNING in str(w.message))
        return res, dt, budget

    def _fail(self, entry, reason: str, tb: str = "") -> None:
        if not self.failures:
            print(f"first failure in {entry.key}: {reason}\n{tb}", file=sys.stderr)
        self.failures.append(f"{entry.key}: {reason}")

    def _checked(self, entry, traced: bool):
        """Run once; returns (digest, seconds), or None if it failed."""
        self.attempted += 1
        try:
            res, dt, budget = self._execute(entry, traced)
        except Exception as exc:
            self._fail(entry, f"raised {type(exc).__name__}: {exc}", traceback.format_exc())
            return None
        if traced:
            self.budget_warnings += budget
        reason = entry.check(res)
        dig = self.digest(res)
        first = self.first.setdefault(entry.key, dig)
        if reason is None and dig != first:
            reason = "result differs from an earlier run of the same operation"
        if reason is not None:
            self._fail(entry, reason)
            return None
        self.results[entry.key] = dig
        return dig, dt

    def step(self, entry, timed: bool = True) -> None:
        start = time.perf_counter()
        bare = self._checked(entry, traced=False)
        if bare is not None and timed:
            self.times[entry.key].append(bare[1])
            self.timeline.append((entry.key, start, bare[1]))
        if self.tracer is not None:
            traced = self._checked(entry, traced=True)
            if bare is not None and traced is not None:
                if traced[0] != bare[0]:
                    self._fail(entry, "traced run gave another result than the bare run")
                elif timed:
                    self.bare_s += bare[1]
                    self.traced_s += traced[1]
        self.ops += 1

    def run(self, entries, seconds: float) -> None:
        # untimed operations first, so allocator pools and lazy imports are
        # warm before anything is timed: the first pass runs measurably slower
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < WARMUP_S:
            self.step(entries[k % len(entries)], timed=False)
            k += 1
        start = time.perf_counter()
        self._sample_speed()
        while time.perf_counter() - start < seconds:
            self.step(entries[k % len(entries)])
            k += 1
            if time.perf_counter() - self.kernel[-1][0] > KERNEL_EVERY_S:
                self._sample_speed()
        self._sample_speed()

    def _sample_speed(self) -> None:
        slowdown = self.speed.slowdown() if self.speed is not None else 1.0
        self.kernel.append((time.perf_counter(), slowdown))

    def reference_times(self):
        """Entry key -> operation times at the reference speed: each wall
        time divided by the mean slowdown of the kernel runs around it."""
        marks = [t for t, _ in self.kernel]
        out = defaultdict(list)
        for key, start, wall in self.timeline:
            after = bisect.bisect_left(marks, start + wall)
            slowdown = (self.kernel[after - 1][1] + self.kernel[after][1]) / 2
            out[key].append(wall / slowdown)
        return out


# ---------------------------------------------------------------------------
# metrics


def end_to_end(times: dict, entries, setup_s: list) -> dict:
    """The end-to-end metrics from per-entry operation times."""
    medians = {key: statistics.median(ts) for key, ts in times.items() if ts}
    items = {e.key: e.items for e in entries}
    pass_s = sum(medians.values())
    timed = [t for ts in times.values() for t in ts]
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_s": statistics.median(timed) if timed else 0.0,
        "items_per_s": sum(items[k] for k in medians) / pass_s if pass_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail(times: dict) -> dict:
    """The highest whole percentile of operation time with at least
    ``TAIL_BEYOND`` timed operations beyond it."""
    times = sorted(t for ts in times.values() for t in ts)
    pct = int(100 * (1 - TAIL_BEYOND / len(times))) if times else 0
    if pct < 51:
        return {"op_tail": None, "timed_ops": len(times)}
    value = statistics.quantiles(times, n=100)[pct - 1]
    return {"op_tail": {"percentile": pct, "seconds": value}, "timed_ops": len(times)}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "escmass").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "escmass" / "__init__.py").is_file():
        print(f"error: no escmass source tree under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            return probe_setup(args)
        speed = HostSpeed()
        setup_runs = time_setup(args, 1 if args.quick else SETUP_REPEATS, speed)
        tmp = OUT / f"tmp-{os.getpid()}"
        try:
            ctx, entries = prepare(args.workload, args.seed, tmp)
            tracer = None
            if args.trace:
                import tracing

                tracer = tracing.Tracer({"cli": ctx.cli, "measures": ctx.measures,
                                         "limits": ctx.limits})
            loop = Loop(tracer, None if args.trace else speed)
            loop.run(entries, args.seconds)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup_wall = [wall for wall, _ in setup_runs]
    times = loop.reference_times()
    if tracer is None:
        setup_s = [wall / slowdown for wall, slowdown in setup_runs]
        values, units = end_to_end(times, entries, setup_s), END_TO_END
    else:
        ratio = loop.traced_s / loop.bare_s if loop.bare_s else 0.0
        values, units = tracer.metrics(loop.budget_warnings, ratio), tracing.PER_LAYER
    failed = len(loop.failures)
    slowdowns = [x for _, x in loop.kernel]
    record = {
        "environment": environment(args),
        "attempted": loop.attempted,
        "failed": failed,
        "fail_ratio": failed / loop.attempted,
        "failures": loop.failures[:20],
        "operations": loop.ops,
        "corpus_size": len(entries),
        "host_slowdown": {"median": statistics.median(slowdowns), "min": min(slowdowns),
                          "max": max(slowdowns), "samples": len(slowdowns),
                          "setup": [x for _, x in setup_runs]},
        **tail(times),
        "metrics": values,
        "wall_metrics": end_to_end(loop.times, entries, setup_wall),
        "results": loop.results,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps({**record, "entry_seconds": loop.times}, indent=1, sort_keys=True) + "\n"
    )
    if tracer is not None:
        spans = f"spans-{args.workload}-seed{args.seed}.json"
        (OUT / spans).write_text(json.dumps(tracer.span_records()) + "\n")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
