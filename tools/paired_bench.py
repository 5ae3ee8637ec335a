"""Paired benchmark runs of two commits: the record a speed-up claim needs.

    python tools/paired_bench.py --parent REV --pr N
        [--claim WORKLOAD:METRIC] [--title TEXT]

The change is the commit at HEAD.  Every run of ``perfbench/run.py --trace
0`` starts in a new temporary directory that holds a fresh ``git archive``
of its side's commit, so neither side sees the other's files or build
products, and this checkout (``perfbench/`` included) is only read.  Pairs
alternate which side runs first.  The plan is fixed: 10 pairs at seed 0
and 5 at seed 7 on every workload of ``BENCHMARK.json``, each run as long
as its ``run_seconds``.

Per workload, seed and end-to-end metric the record keeps each side's
inclusive quartiles, the change's median over the parent's, the pairs the
change won (ties count for neither side) and whether the gap between the
medians exceeds the parent's interquartile range.  A claim holds when the
change wins at least 9 of 10 pairs at seed 0 (the same share of any other
count), its median is better there by more than the parent's interquartile
range, and its median is also better at every other seed.  The record is
written to ``BENCH_<N>.json`` at the root of the repository, and the table
that ``CHANGES.md`` quotes is printed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <name> --seed <seed> --seconds <seconds> --trace 0"
METHOD = (
    "each side run from a fresh copy of its committed files; pairs alternate which side "
    "runs first; 'pairs_won' counts pairs where the change reads better (ties count for "
    "neither); quartiles are inclusive quartiles over the runs of one side; metrics are at "
    "the reference host speed as perfbench/run.py reports them"
)
RULE = (
    "change wins at least 9/10 pairs at seed 0 and the median gap exceeds the parent's "
    "interquartile range; also higher at seed 7"
)
WIN_SHARE = 0.9
PLAN = ((0, 10), (7, 5))


def quartiles(xs) -> dict:
    """Inclusive quartiles of the values xs."""
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise_metric(parent, change, spec: dict) -> dict:
    """One metric's entry: parent[i] and change[i] are pair i's readings,
    spec the metric's entry in BENCHMARK.json."""
    sign = 1 if spec["better"] == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "pairs_won": sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0),
        "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def summarise(pairs, specs) -> dict:
    """The record of one workload at one seed: pairs is a list of
    (parent metrics, change metrics), each a dict of metric values."""
    metrics = {
        spec["name"]: summarise_metric([p[spec["name"]] for p, _ in pairs],
                                       [c[spec["name"]] for _, c in pairs], spec)
        for spec in specs
    }
    return {"pairs": len(pairs), "metrics": metrics}


def claim_holds(workloads: dict, workload: str, metric: str) -> bool:
    """The claim rule on a finished record (see the module docstring)."""
    for seed, rec in workloads[workload].items():
        if not seed.startswith("seed"):
            continue
        m = rec["metrics"][metric]
        sign = 1 if m["better"] == "higher" else -1
        gain = sign * (m["change"]["median"] - m["parent"]["median"])
        if gain <= 0:
            return False
        if seed == "seed0" and (m["pairs_won"] < WIN_SHARE * rec["pairs"]
                                or not m["gap_exceeds_parent_iqr"]):
            return False
    return "seed0" in workloads[workload]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def table(workloads: dict) -> list:
    """Markdown rows: parent median [quartiles] -> change median (pairs the
    change won, change over parent)."""
    names = None
    rows = []
    for workload, by_seed in workloads.items():
        for seed, rec in by_seed.items():
            if not seed.startswith("seed"):
                continue
            names = names or list(rec["metrics"])
            cells = []
            for m in rec["metrics"].values():
                p, c = m["parent"], m["change"]
                ratio = m["change_over_parent"]
                change = f", {100 * (ratio - 1):+.1f}%" if ratio is not None else ""
                cells.append(f"{_fmt(p['median'])} [{_fmt(p['q1'])}, {_fmt(p['q3'])}] → "
                             f"{_fmt(c['median'])} ({m['pairs_won']}/{rec['pairs']}{change})")
            rows.append(f"| `{workload}` | {seed[4:]} | {rec['pairs']} | " + " | ".join(cells) + " |")
    if names is None:
        return []
    head = "| workload | seed | pairs | " + " | ".join(names) + " |"
    return [head, "|" + " --- |" * (3 + len(names))] + rows


# ---------------------------------------------------------------------------
# running


def commit(rev: str) -> str:
    out = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def extract(sha: str, dest: Path) -> None:
    """A fresh copy of the committed files of sha at dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_side(sha: str, where: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of sha in a new directory: its metric values,
    operations attempted and failed, and the digest of the source run."""
    extract(sha, where)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=where, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} at {sha[:12]} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("record: "):])
    result = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "source_sha256": record["environment"]["source_sha256"],
    }


def host() -> dict:
    import numpy as np

    cpu = platform.processor()
    info = Path("/proc/cpuinfo")
    if info.is_file():
        models = [line.split(":", 1)[1].strip() for line in info.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"cpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1}


def parse_args(argv):
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--parent", required=True, help="commit the change is measured against")
    par.add_argument("--pr", required=True, help="number in the name BENCH_<pr>.json")
    par.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric a gain is claimed on")
    par.add_argument("--title", default="", help="one line naming the change")
    return par.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    seconds = bench["run_seconds"]
    shas = {"parent": commit(args.parent), "change": commit("HEAD")}
    scratch = Path(tempfile.mkdtemp(prefix="paired-"))
    record = {
        "change": args.title,
        "parent_commit": shas["parent"],
        "change_commit": shas["change"],
        "command": COMMAND.replace("<seconds>", f"{seconds:g}"),
        "method": METHOD,
        "host": host(),
        "workloads": {},
    }
    if args.claim:
        claimed = args.claim.split(":")
        record["claim"] = {"workload": claimed[0], "metric": claimed[1], "rule": RULE}
    sources = {"parent": set(), "change": set()}
    k = 0
    for workload in (w["name"] for w in bench["workloads"]):
        by_seed, ops = {}, {side: {"attempted": 0, "failed": 0} for side in shas}
        for seed, count in PLAN:
            pairs = []
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    k += 1
                    where = scratch / f"run{k}-{side}"
                    got[side] = run_side(shas[side], where, workload, seed, seconds)
                    shutil.rmtree(where)
                    ops[side]["attempted"] += got[side]["attempted"]
                    ops[side]["failed"] += got[side]["failed"]
                    sources[side].add(got[side]["source_sha256"])
                pairs.append((got["parent"]["metrics"], got["change"]["metrics"]))
                print(f"{workload} seed {seed} pair {i + 1}/{count}: "
                      + ", ".join(f"{side} {got[side]['metrics']}" for side in order),
                      file=sys.stderr)
            by_seed[f"seed{seed}"] = summarise(pairs, specs)
        by_seed["operations"] = ops
        record["workloads"][workload] = by_seed
    record["source_sha256"] = {side: sorted(s) for side, s in sources.items()}
    if args.claim:
        record["claim"]["holds"] = claim_holds(record["workloads"], *claimed)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(scratch)
    print("\n".join(table(record["workloads"])))
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
