"""Self-test of the benchmark in quick mode.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it makes a one-second
untraced run and a one-second traced run at the default seed, and checks:

* every metric ``BENCHMARK.json`` names is printed, with its unit, and no
  other metric is;
* the traced and the untraced run give identical results for every
  operation both of them ran;
* ``fail_ratio`` is 0: no operation failed and the run reports correct.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record: "))
    return json.loads(lines[-1]), record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            try:
                res, record = run(workload, trace)
            except AssertionError as exc:
                problems.append(str(exc))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {wanted[trace]}")
            if not res["correct"] or res["failed"] or record["fail_ratio"] != 0:
                problems.append(f"{workload} trace={trace}: failures {record['failures']}")
            results[trace] = record["results"]
            print(f"{workload} trace={trace}: {res['attempted']} operations, "
                  f"{res['failed']} failed", flush=True)
        if len(results) == 2:
            common = set(results[0]) & set(results[1])
            if not common:
                problems.append(f"{workload}: the two runs share no operation")
            for key in sorted(common):
                if results[0][key] != results[1][key]:
                    problems.append(f"{workload}: {key} differs between traced and untraced runs")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
