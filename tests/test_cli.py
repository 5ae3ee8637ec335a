"""Scenario-runner front end: schema validation, dispatch, exit codes."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from escmass.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_NOT_COVERED,
    EXIT_OK,
    Scenario,
    ScenarioError,
    bundled_scenarios,
    classify_scenario,
    load_scenario,
    main,
    parse_entry,
    predicted_label,
    run_scenario,
    scenario_from_json,
    summary_dict,
)
from escmass.limits import NotCoveredError, sequence_spec
from escmass.measures import KINDS, one_param_unipotent
from escmass.qfield import QuadNum

TAU = QuadNum.tau(0, 2)  # sqrt 2


def _doc(**overrides):
    base = {
        "schema": "escape-scenario/1",
        "name": "t",
        "sequence": {
            "subgroup": {"kind": "one_param_unipotent", "n": 3, "coordinate": [0, 1]},
            "direction": ["1", "0", "-1"],
        },
        "sampling": {"count": 100, "seed": 1},
    }
    base.update(overrides)
    return base


def _run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "escmass", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# ---------------------------------------------------------------------------
# exact entry grammar


def test_parse_entry_rationals():
    assert parse_entry("3/2", None).as_fraction() == Fraction(3, 2)
    assert parse_entry("-7", None).as_fraction() == Fraction(-7)
    assert parse_entry(4, None).as_fraction() == Fraction(4)


def test_parse_entry_tau_forms():
    assert parse_entry("tau", TAU) == TAU
    assert parse_entry("-tau", TAU) == QuadNum.rational(Fraction(-1)) * TAU
    assert parse_entry("3*tau", TAU) == QuadNum.rational(Fraction(3)) * TAU
    mixed = parse_entry("1/2-2*tau", TAU)
    assert mixed == QuadNum.rational(Fraction(1, 2)) - QuadNum.rational(Fraction(2)) * TAU
    assert parse_entry("2+tau", TAU) == QuadNum.rational(Fraction(2)) + TAU


def test_parse_entry_rejects_garbage():
    for bad in ("", "x", "2**tau", "tau*2", "tau+tau"):
        with pytest.raises(ScenarioError):
            parse_entry(bad, TAU)
    with pytest.raises(ScenarioError):
        parse_entry("tau", None)  # no law declared
    with pytest.raises(ScenarioError):
        parse_entry(1.5, TAU)  # floats are not exact input


# ---------------------------------------------------------------------------
# schema validation


def test_scenario_roundtrip_minimal():
    scn = scenario_from_json(_doc())
    assert scn.name == "t"
    assert scn.count == 100 and scn.seed == 1
    assert scn.sequence.indices == (1, 2, 4)  # default
    assert scn.t_sweep == (100.0, 1000.0, 10000.0)  # default sweep


def test_scenario_rejects_wrong_schema_and_stray_keys():
    with pytest.raises(ScenarioError):
        scenario_from_json(_doc(schema="escape-scenario/999"))
    with pytest.raises(ScenarioError):
        scenario_from_json(_doc(surprise=1))
    doc = _doc()
    doc["sequence"]["mystery"] = True
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
    doc = _doc()
    doc["sampling"]["speed"] = 11
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)


def test_scenario_rejects_bad_payloads():
    doc = _doc()
    doc["sequence"]["direction"] = ["1", "1", "1"]  # not sum-zero
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
    doc = _doc()
    doc["sequence"]["subgroup"] = {"kind": "octonion_torus", "n": 3}
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
    doc = _doc()
    doc["sampling"]["count"] = 0
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
    doc = _doc()
    doc["sampling"]["t_sweep"] = [1.0]  # inside the reduced domain
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)
    doc = _doc()
    doc["sequence"]["bounded_part"] = [["1", "0"], ["0", "1"]]  # 2x2 for n=3
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)


def test_product_bounded_part_must_match_factors():
    doc = _doc()
    doc["sequence"]["subgroup"] = {
        "kind": "product",
        "factors": [
            {"kind": "one_param_unipotent", "n": 2, "coordinate": [0, 1]},
            {"kind": "trivial", "n": 2},
        ],
    }
    doc["sequence"]["direction"] = ["1", "-1", "0", "0"]
    doc["sequence"]["bounded_part"] = [[["1", "0"], ["0", "1"]]]  # one matrix, two factors
    with pytest.raises(ScenarioError):
        scenario_from_json(doc)


def test_bundled_scenarios_all_load():
    names = [p.stem for p in bundled_scenarios()]
    assert "sl3_case1" in names and "sl2_cusp" in names
    assert len(names) >= 11
    for name in names:
        scn = load_scenario(name)  # resolvable without the .json suffix
        assert isinstance(scn, Scenario)
        classify_scenario(scn.sequence)  # every bundled file is covered


# ---------------------------------------------------------------------------
# dispatch and prediction


def test_dispatch_rejects_uncovered_sl4_line():
    seq = sequence_spec(one_param_unipotent(4, (0, 1)), [1, 0, 0, -1])
    with pytest.raises(NotCoveredError):
        classify_scenario(seq)


def test_predicted_label_interior_is_full_set():
    scn = load_scenario("sl2_cusp")
    desc = classify_scenario(scn.sequence)
    assert predicted_label(desc, 1) == frozenset()
    assert desc.support_kind == "dirac_point"


def test_run_scenario_agrees_and_summary_is_stable():
    scn = load_scenario("sl2_cusp")
    scn = Scenario(
        scn.name, scn.note, scn.sequence, 3000, scn.seed, scn.y_cap, scn.t_sweep
    )
    res = run_scenario(scn)
    assert res.ok
    assert all(a["match"] for a in res.agreement.values())
    summary = summary_dict(res)
    blob = json.dumps(summary, sort_keys=True, indent=2)
    again = json.dumps(summary_dict(run_scenario(scn)), sort_keys=True, indent=2)
    assert blob == again
    assert summary["verdict"] == "agree"
    assert summary["classifier"]["predicted_label"] == "()"
    assert summary["checked_index"] == 4


# ---------------------------------------------------------------------------
# the installed command


def test_cli_run_ok_and_outputs_are_byte_identical(tmp_path):
    a = _run_cli("run", "sl2_cusp", "--samples", "2000", "--out", str(tmp_path / "a"))
    b = _run_cli(
        "run", "sl2_cusp", "--samples", "2000", "--out", str(tmp_path / "b"), "--jobs", "3"
    )
    assert a.returncode == EXIT_OK and b.returncode == EXIT_OK
    assert "verdict: agree" in a.stdout
    sa = (tmp_path / "a" / "summary.json").read_bytes()
    sb = (tmp_path / "b" / "summary.json").read_bytes()
    assert sa == sb
    for idx in (1, 2, 4):
        pts = (tmp_path / "a" / f"points_{idx}.txt").read_text().splitlines()
        assert pts[0].startswith("# 512 of 2000 reduced points")
        assert len(pts) == 513
        assert (tmp_path / "a" / f"histograms_{idx}.txt").exists()
    assert (tmp_path / "a" / "meta.txt").read_text().startswith("scenario sl2_cusp")


# sha256 of summary.json for every bundled scenario at --samples 4096
# --jobs 1 and its stated seed.  A change that moves one of these changes
# results, not just speed.
GOLDEN_SUMMARIES = {
    "sl2_cusp": "82d0a065873604e46443630e8e21e64d642d73dea106ac2bb989f11bf0836b36",
    "sl2_mixed": "5c615329e113b6a1f8621bc10693a79fd2a9cfdf9b2fae80f6379bec27823801",
    "sl3_case1": "69cbc5a072ed9ddfde015e45cfa5022bf070f2d778a2656fa9ebe5b9a7b97cf5",
    "sl3_case2_1": "a95d0ccb2e3c4ede8ef391d9c64eadae124e5b9cf9a2324b58d2e8eb95f95453",
    "sl3_case2_2_1": "d88b63f5cb297542ce847a9b62f52efdd36ccbff5021bc6fe032a27cfbc8e462",
    "sl3_case2_2_2_1": "5c3732e3fc40ab7fd18e49da4974e02b982f6f62f1cbfc64edd455c4a6b8c857",
    "sl3_case2_2_2_2_1": "a7f119722db5e3c3798dd1359a28ce5c8f71daaff534f0bba7f06068677f2767",
    "sl3_case2_2_2_2_2": "4632ceaaf9138c2d378dbe0923acc344f4c83e7ab9b25e46df77b3ecea0bb27c",
    "sl3_case2_2_2_2_3_1": "872eb66313e2eee0a3dbd4f3057710ee9b254e01eca54425e7aabaa636d5b07e",
    "sl3_case2_2_2_2_3_2": "7fddba7d1a074a816fa7820edf46a7ec47fee4b5d397b6f2d55a7a72d8c151af",
    "sl3_levi_block": "14ecd7ebaf042f506f115bb9ed3fab14aa6f694d3ca33631733afa9e3067ae17",
}


def test_golden_summaries_cover_the_bundled_scenarios():
    assert sorted(GOLDEN_SUMMARIES) == sorted(p.stem for p in bundled_scenarios())


@pytest.mark.parametrize("name", sorted(GOLDEN_SUMMARIES))
def test_bundled_summary_bytes_are_pinned(name, tmp_path):
    out = tmp_path / name
    code = main(["run", name, "--samples", "4096", "--jobs", "1", "--out", str(out)])
    assert code == EXIT_OK
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_SUMMARIES[name]


def test_cli_statistical_disagreement_exits_2(tmp_path):
    doc = _doc(name="early")
    doc["sequence"]["subgroup"] = {
        "kind": "one_param_unipotent", "n": 3, "coordinate": [1, 2]
    }
    doc["sequence"]["direction"] = ["3", "-2", "-1"]
    doc["sequence"]["indices"] = [1]
    doc["sampling"] = {"count": 2000, "seed": 7, "t_sweep": [1000.0]}
    p = tmp_path / "early.json"
    p.write_text(json.dumps(doc))
    r = _run_cli("run", str(p))
    assert r.returncode == EXIT_DISAGREE
    assert "MISMATCH" in r.stdout and "verdict: disagree" in r.stdout


def test_cli_not_covered_exits_3(tmp_path):
    doc = _doc(name="uncovered")
    doc["sequence"]["subgroup"] = {"kind": "full_unipotent_radical", "n": 3, "I": [1]}
    doc["sequence"]["direction"] = ["3", "-6", "3"]
    doc["sequence"]["stage"] = "block_reduced"
    p = tmp_path / "uncovered.json"
    p.write_text(json.dumps(doc))
    r = _run_cli("run", str(p))
    assert r.returncode == EXIT_NOT_COVERED
    assert "not covered by the encoded decision tree" in r.stderr


def test_cli_input_errors_exit_4(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert _run_cli("run", str(broken)).returncode == EXIT_INPUT
    assert _run_cli("run", "no_such_scenario_anywhere").returncode == EXIT_INPUT
    assert _run_cli("run").returncode == EXIT_INPUT  # usage error, remapped from 2
    assert _run_cli("run", "sl2_cusp", "--samples", "0").returncode == EXIT_INPUT


def test_cli_list_catalog_is_stable_and_complete():
    r1 = _run_cli("list-catalog")
    r2 = _run_cli("list-catalog")
    assert r1.returncode == EXIT_OK
    assert r1.stdout == r2.stdout
    for kind in KINDS:
        assert kind in r1.stdout
    assert "full_unipotent_radical" in r1.stdout
    assert "sl3_case2_2_2_2_3_2" in r1.stdout


def test_cli_verify_identities():
    r = _run_cli("verify-identities", "--trials", "5")
    assert r.returncode == EXIT_OK
    assert "all identities hold" in r.stdout
