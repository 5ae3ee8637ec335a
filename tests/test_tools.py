"""The maintenance scripts under tools/."""

from __future__ import annotations

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from escmass.cli import load_scenario, run_scenario, write_outputs

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bundled_digests():
    return _tool("bundled_digests")


@pytest.fixture(scope="module")
def reach():
    return _tool("reach")


@pytest.fixture(scope="module")
def paired_bench():
    return _tool("paired_bench")


def test_bundled_digests_print_every_output_file_but_meta(bundled_digests, capsys, tmp_path):
    """One line per output file but meta.txt, with the sha256 of the bytes
    that ``escmass run`` writes, and exit 0 when --jobs 1 and 3 agree."""
    argv = ["--scenario", "sl2_mixed", "sl3_case1", "--samples", "2048"]
    assert bundled_digests.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = [line.split() for line in out.out.splitlines()]
    for name in ("sl2_mixed", "sl3_case1"):
        scn = replace(load_scenario(name), count=2048)
        write_outputs(run_scenario(scn), tmp_path / name)
        want = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / name).iterdir()
            if p.name != "meta.txt"
        }
        got = [(file, digest) for scenario, file, digest in lines if scenario == name]
        assert got == sorted(want.items())
        assert len(want) == 1 + 2 * len(scn.sequence.indices)
    assert {scenario for scenario, _, _ in lines} == {"sl2_mixed", "sl3_case1"}


def test_bundled_digests_fail_when_the_job_counts_differ(bundled_digests, capsys, monkeypatch):
    """A run whose bytes depend on the job count exits 1 and names the
    scenario."""

    def run_by_jobs(scn, jobs=1):
        return run_scenario(replace(scn, seed=scn.seed + jobs), jobs=jobs)

    monkeypatch.setattr(bundled_digests, "run_scenario", run_by_jobs)
    assert bundled_digests.main(["--scenario", "sl2_mixed", "--samples", "2048"]) == 1
    assert "sl2_mixed: --jobs 1 and --jobs 3 differ" in capsys.readouterr().err


def test_reach_lists_what_a_run_never_enters(reach):
    """The trace of one small run, with the other commands and no corpus,
    never enters delta_truncated, and enters the sampling loop."""
    unreached = reach.trace(["sl2_mixed"], samples=1024, seeds=())
    assert "limits.delta_truncated" in unreached
    assert "measures.stream_measures" not in unreached
    assert "cli.cmd_verify" not in unreached
    assert set(unreached) <= set(reach.package_functions().values())


def test_reach_report_fails_on_a_stale_or_short_keep_list(reach):
    """Exit 0 only when every unreached function is kept and every kept
    name is a package function that was not entered."""
    unreached = ["limits.delta_truncated", "limits.ma_split"]
    keep = {name: "why" for name in unreached}
    lines, code = reach.report(unreached, keep)
    assert code == 0
    assert lines[0].startswith("never entered: 2 of ")
    assert lines[1].split() == ["limits.delta_truncated", "why"]
    assert reach.report(unreached, {"limits.delta_truncated": "why"}) == (
        lines[:2] + [lines[2].replace("why", "NOT ON THE KEEP-LIST")], 1)
    lines, code = reach.report(unreached, {**keep, "measures.stream_measures": "why"})
    assert (code, lines[-1]) == (1, "kept but entered: measures.stream_measures")
    lines, code = reach.report(unreached, {**keep, "qfield.QuadNum.sign": "why"})
    assert (code, lines[-1]) == (1, "kept but no such function: qfield.QuadNum.sign")


BENCH_SPECS = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _pairs(parent, change, setup=(0.2, 0.2)):
    return [({"items_per_s": p, "setup_s": setup[0]}, {"items_per_s": c, "setup_s": setup[1]})
            for p, c in zip(parent, change)]


def test_paired_bench_summarises_synthetic_pairs(paired_bench):
    """Quartiles, the median ratio, pairs won with ties for neither side,
    the gap test against the parent's spread, the claim rule and the table;
    no benchmark runs."""
    parent = [100.0 + i for i in range(10)]
    rec = paired_bench.summarise(_pairs(parent, [130.0 + i for i in range(10)]), BENCH_SPECS)
    items, setup = rec["metrics"]["items_per_s"], rec["metrics"]["setup_s"]
    assert rec["pairs"] == 10
    assert items["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert items["change"]["median"] == 134.5
    assert items["change_over_parent"] == pytest.approx(134.5 / 104.5)
    assert (items["pairs_won"], items["gap_exceeds_parent_iqr"]) == (10, True)
    assert (setup["pairs_won"], setup["gap_exceeds_parent_iqr"]) == (0, False)
    lower = paired_bench.summarise(_pairs(parent, parent, setup=(0.2, 0.1)), BENCH_SPECS)
    assert lower["metrics"]["setup_s"]["pairs_won"] == 10
    assert lower["metrics"]["items_per_s"]["pairs_won"] == 0

    # seed 0: 9 of 10 pairs and a gap above the parent's spread; seed 7 higher
    won9 = paired_bench.summarise(_pairs(parent, [99.0] + [130.0 + i for i in range(9)]),
                                  BENCH_SPECS)
    narrow = paired_bench.summarise(_pairs(parent, [103.0 + i for i in range(10)]), BENCH_SPECS)
    seed7 = paired_bench.summarise(_pairs(parent[:5], [110.0] * 5), BENCH_SPECS)
    worse7 = paired_bench.summarise(_pairs(parent[:5], [90.0] * 5), BENCH_SPECS)
    won8 = paired_bench.summarise(_pairs(parent, [99.0, 98.0] + [130.0] * 8), BENCH_SPECS)

    def holds(seed0, other):
        return paired_bench.claim_holds({"w": {"seed0": seed0, "seed7": other, "operations": {}}},
                                        "w", "items_per_s")

    assert holds(won9, seed7)
    assert not holds(won9, worse7)
    assert not holds(won8, seed7)
    assert narrow["metrics"]["items_per_s"]["pairs_won"] == 10 and not holds(narrow, seed7)

    head, rule, row = paired_bench.table({"exact_corpus": {"seed0": rec, "operations": {}}})
    assert head == "| workload | seed | pairs | items_per_s | setup_s |"
    assert rule == "| --- | --- | --- | --- | --- |"
    assert row == ("| `exact_corpus` | 0 | 10 | 104.5 [102.2, 106.8] → 134.5 (10/10, +28.7%) "
                   "| 0.2 [0.2, 0.2] → 0.2 (0/10, +0.0%) |")
