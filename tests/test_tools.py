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
