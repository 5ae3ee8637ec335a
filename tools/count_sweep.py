"""Peak resident memory of ``escmass run`` against the sample count.

Runs ``cli.run_scenario`` on each scenario at each count, each run in a
fresh Python process, and prints the count, the wall time of the run and
the process's peak resident set size (``ru_maxrss``).  A run that streams
its samples peaks at the same memory at every count.  The default
scenarios, ``sl3_case1`` and ``sl2_mixed``, take the n = 3 and the n = 2
sampling paths.

    python tools/count_sweep.py [--scenario NAME ...] [--counts 100000 400000 1600000]

The package is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COUNTS = (100_000, 400_000, 1_600_000)
SCENARIOS = ("sl3_case1", "sl2_mixed")

# run in the child: one scenario at one count, then report ru_maxrss
_CHILD = """
import json, resource, sys, time
from dataclasses import replace
from escmass.cli import load_scenario, run_scenario
scn = replace(load_scenario(sys.argv[1]), count=int(sys.argv[2]))
t0 = time.perf_counter()
res = run_scenario(scn, jobs=1)
wall = time.perf_counter() - t0
kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"ok": res.ok, "wall_s": wall, "peak_rss_mb": kb / 1024.0}))
"""


def measure(scenario: str, count: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, scenario, str(count)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    par.add_argument("--scenario", nargs="+", default=list(SCENARIOS))
    par.add_argument("--counts", type=int, nargs="+", default=list(COUNTS))
    args = par.parse_args(argv)
    for scenario in args.scenario:
        print(f"{scenario}: peak RSS of run_scenario in a fresh process")
        print(f"{'count':>10}  {'wall_s':>7}  {'peak_rss_mb':>11}  verdict")
        peaks = []
        for count in args.counts:
            rec = measure(scenario, count)
            peaks.append(rec["peak_rss_mb"])
            verdict = "agree" if rec["ok"] else "disagree"
            print(f"{count:>10}  {rec['wall_s']:>7.2f}  {rec['peak_rss_mb']:>11.1f}  {verdict}")
        print(f"spread of the peaks: {max(peaks) - min(peaks):.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
