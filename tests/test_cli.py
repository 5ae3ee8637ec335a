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
    resolve_scenario_path,
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

# sha256 of the points and histogram dumps of the same runs, recorded
# before the points dump was rewritten: the dumps are part of the output
# contract too.
GOLDEN_FILES = {
    "sl2_cusp": {
        "histograms_1.txt": "d603e775471a5f3e319f16a2899f3b0cf0a1f52c07919230936f24771c762516",
        "histograms_2.txt": "d603e775471a5f3e319f16a2899f3b0cf0a1f52c07919230936f24771c762516",
        "histograms_4.txt": "d603e775471a5f3e319f16a2899f3b0cf0a1f52c07919230936f24771c762516",
        "points_1.txt": "b110427d10bfb38bd08b64202c63a9fd7a185252e4014f5bdfac4343b2209c88",
        "points_2.txt": "20b4cdc8831087c75e94d338828ee9fed2915be136c96aa82fb95ed62d353157",
        "points_4.txt": "62c6506f3e713ba8449d6a9b63e7e4f26277e1ca2fc722d6635f19dd66ce331f",
    },
    "sl2_mixed": {
        "histograms_1.txt": "3a50cb5f205cf9780f958cea409b6b5bd778486a50aaa480f571b2013aff4356",
        "histograms_2.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_4.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "points_1.txt": "9c38ffe8324c0a5e4f2a1aa9a8eaa8a0f596c65520eb806f84e3d8ed00f00652",
        "points_2.txt": "82a4a07458fd58e9d147a705b0add6f53b376c69c169a30f17caa45841039885",
        "points_4.txt": "a8b22817adc9ff5355f07b2a4cf3c9afc4b37b17327b5cca7414676f70f7fc01",
    },
    "sl3_case1": {
        "histograms_1.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_2.txt": "b8fa8a613520e7c45f6a455f228ab06fa466197501c2f973d7a28668b1e40531",
        "histograms_4.txt": "6e9abd876e63ab181cd18d24573ec2466fffea04ae4b5220890af7a8a4b2e578",
        "points_1.txt": "c1ac728c4b1fc593c5687f9e2b4c08521cf1d15fec5a2e956f56aff562ce2ada",
        "points_2.txt": "a7dda9a16b1c8e6ee51ff6b86fab39f1511af2ae8681a01b750172c38e099cb8",
        "points_4.txt": "4516b1a0c03e86553d2fc9e2d3f698d98a1cc5d2d684f4db667b0dc6b9543702",
    },
    "sl3_case2_1": {
        "histograms_1.txt": "722819dc68d1896d22e9f6d9939cbfab0b0a61bfd566378b430c8323e4717c92",
        "histograms_2.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_4.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "points_1.txt": "a8a076a8948780679ef1e5147c0fd89c642ee173098f418580462d82c5b2ba0d",
        "points_2.txt": "fdc41e26c61159651ea772b918ecd62a16a3821ac733f901ce1139620cd47d2a",
        "points_4.txt": "c363ef72354eba6aa0abe8ee023ef75fbd66ecbeb006da83532094a15adaaf49",
    },
    "sl3_case2_2_1": {
        "histograms_1.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_2.txt": "55f48438c694b5d9b4fbfa9319f3fea17cde04e258dabbee8aa7da7379c02f90",
        "histograms_4.txt": "4adb51a0dd25f03ceca33533fe2b818488412cb56af7f689cd2f778f632b5a3e",
        "points_1.txt": "16c37c99dcc202b24b6f77e2bef259f5a0c0db4c839c13d7c3c59af5418c2484",
        "points_2.txt": "eb81f06bdaf29d4b312cc11d06702939301c7fd6cd848f00400255143b232700",
        "points_4.txt": "65022e00e462c8d709cf39e4719d37a0e9905bb2bb81f0cb05354075a4ac6574",
    },
    "sl3_case2_2_2_1": {
        "histograms_1.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_2.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_4.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "points_1.txt": "2d202ac211c65f1e22bb881084ca8618e9618375de5d22c69ecb30c86e9b1e54",
        "points_2.txt": "a48d5f7cc4cf71531d016e7d616b32fbe13c436266ec2ba73f07cc82d94a8de1",
        "points_4.txt": "c23bb47546df52195cef5ad3c332fe89f15b1d87ba7375aa5232abb6a6b95510",
    },
    "sl3_case2_2_2_2_1": {
        "histograms_1.txt": "17071fbf3d59fcb93ed4d511cec632f7b3a0cc426fafc0720a8e0ccc331df5cf",
        "histograms_2.txt": "55f48438c694b5d9b4fbfa9319f3fea17cde04e258dabbee8aa7da7379c02f90",
        "histograms_4.txt": "4adb51a0dd25f03ceca33533fe2b818488412cb56af7f689cd2f778f632b5a3e",
        "points_1.txt": "e8e8aea513312f29852d64e131967885f39da6f4c3235d9067c7a17ba972a593",
        "points_2.txt": "1164d7123744aa55962a02eeebe44fdb0fb2708e5bce3a6a846ebefe745d6013",
        "points_4.txt": "2d3e1c5e24f0c59fdbed1e9bfbdb2b4ab3cb799bb16105dc942a40aa4448077b",
    },
    "sl3_case2_2_2_2_2": {
        "histograms_1.txt": "5b085e1082892b5dabdc7b5d6899a010621b134a262ec7b5da8046bc5095bd5a",
        "histograms_2.txt": "94e2c278acd14c7284a66e11f328c4d87940144a8fbf447fa13c2a4f115df071",
        "histograms_4.txt": "94e2c278acd14c7284a66e11f328c4d87940144a8fbf447fa13c2a4f115df071",
        "points_1.txt": "ae73bf4514abc3df8ded06a089416225d0f3b66350c4405d6e15a37b3cc71c8e",
        "points_2.txt": "84fde1a880ed4fdb6374b53866cddff89eb579bfaaa60ed60698d1f1732095be",
        "points_4.txt": "bc35b2a7f3a2c5cfe72c24cfa3e78013e75f4934ae31e96238eb567c5045a519",
    },
    "sl3_case2_2_2_2_3_1": {
        "histograms_1.txt": "9e545fcf0f835e98eadcda56e3bdd62a0626b49ef561d7a13c8c83f52f19f8d3",
        "histograms_2.txt": "83669143bb3d94c311a40ed3777049cc89437a3a57876308b9663048cd423040",
        "histograms_4.txt": "3404581a744627cfad5d62454d9bfd55a8cf31594d70f3bf2fed1392b77b996c",
        "points_1.txt": "5f3807a448c99327f5e9dc0510bc21606a3f0726be8310236502ff66d770a2f4",
        "points_2.txt": "78e4a179200d3259de1f854fdcf70c3a8fd436a45dfff9f3617fed6108907a59",
        "points_4.txt": "4c1681594ab9e0d3de81878c07fb3a28043e2679368273144b9b88c2ceab450d",
    },
    "sl3_case2_2_2_2_3_2": {
        "histograms_1.txt": "9e545fcf0f835e98eadcda56e3bdd62a0626b49ef561d7a13c8c83f52f19f8d3",
        "histograms_2.txt": "1a8fad129896432a222addc000f22735d0eb8a13df530c11ea2dd37c45594eab",
        "histograms_4.txt": "4adb51a0dd25f03ceca33533fe2b818488412cb56af7f689cd2f778f632b5a3e",
        "points_1.txt": "936e7396f241bded0492ea8d48643d5e650224c1440d6d2559bb3c31893fc310",
        "points_2.txt": "090a9b6b40a7945e201369fac3595f3ea63fbea31fe6422d2cfd07783fd1f8d6",
        "points_4.txt": "546b9c99f6549099b94c1edd017cef8160403d5cee00f4fa204ee7b010c24cf4",
    },
    "sl3_levi_block": {
        "histograms_1.txt": "4f4a4710296233adfae02c99a2f108d365dca3608867700303b70bdb89032b2f",
        "histograms_2.txt": "b4e68fbbb6d59fbc7ad64fbe686c42731d502b373590be6cb3e533097cacae67",
        "histograms_4.txt": "446c8a3a84e2faa74c170fdf0c896d9ed90d53bf5daea6eee689570605000ed1",
        "points_1.txt": "a3eb4e25606c40ae7701aa7373cd4db08a11443f786db244d017de3c4a6207ec",
        "points_2.txt": "07706848bacf1b128e53e1ebfc7e0b1e17144320511153aff12788a9fca2e71f",
        "points_4.txt": "214a2c4932c311c6348239cf6a533feb4bc2957dbc7f1bd6a19744a371b1ab5e",
    },
}


def test_golden_summaries_cover_the_bundled_scenarios():
    assert sorted(GOLDEN_SUMMARIES) == sorted(p.stem for p in bundled_scenarios())
    assert sorted(GOLDEN_FILES) == sorted(GOLDEN_SUMMARIES)


@pytest.mark.parametrize("name", sorted(GOLDEN_SUMMARIES))
def test_bundled_summary_bytes_are_pinned(name, tmp_path):
    out = tmp_path / name
    code = main(["run", name, "--samples", "4096", "--jobs", "1", "--out", str(out)])
    assert code == EXIT_OK
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_SUMMARIES[name]
    for fname, want in GOLDEN_FILES[name].items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == want, fname


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


def test_reducer_overflow_exits_4(tmp_path, capsys):
    """sl3_levi_block moved to index 9 needs reducers past the int64 range;
    the run stops with exit 4 instead of wrapping them."""
    doc = json.loads(resolve_scenario_path("sl3_levi_block").read_text())
    doc["sequence"]["indices"] = [9]
    p = tmp_path / "levi9.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--jobs", "1"]) == EXIT_INPUT
    assert "int64 limit 2^63" in capsys.readouterr().err


# determinant one, but float64 rounds the determinant to 0
BIG_CONJUGATOR = [[10**8, 10**8 - 1], [10**8 + 1, 10**8]]


def _product_doc(factor, **sequence):
    doc = _doc(name="conjugated")
    doc["sequence"] = {
        "subgroup": {"kind": "product", "factors": [factor]},
        "direction": ["1", "-1"],
        **sequence,
    }
    return doc


def test_large_determinant_one_conjugator_is_accepted():
    factor = {"kind": "one_param_unipotent", "n": 2, "coordinate": [0, 1]}
    scn = scenario_from_json(_product_doc({**factor, "conjugator": BIG_CONJUGATOR}))
    assert scn.sequence.subgroup.factors[0].conjugator == tuple(map(tuple, BIG_CONJUGATOR))
    d = classify_scenario(scn.sequence)
    assert d.P.I == frozenset() and d.notes == ("factor0:one_param_unipotent:escape;theta_rate=2",)
    scn = scenario_from_json(
        _product_doc(factor, conjugator_policy="recorded", recorded_conjugator=[BIG_CONJUGATOR])
    )
    assert scn.sequence.recorded_conjugator == (tuple(map(tuple, BIG_CONJUGATOR)),)


def test_cli_conjugators_of_other_determinant_exit_4(tmp_path):
    factor = {"kind": "one_param_unipotent", "n": 2, "coordinate": [0, 1]}
    docs = {
        "subgroup": _product_doc({**factor, "conjugator": [[2, 0], [0, 1]]}),
        "recorded": _product_doc(
            {"kind": "trivial", "n": 2},
            conjugator_policy="recorded",
            recorded_conjugator=[[[2, 0], [0, 1]]],
        ),
        "recorded_sl3": _doc(name="recorded_sl3"),
    }
    docs["recorded_sl3"]["sequence"]["conjugator_policy"] = "recorded"
    docs["recorded_sl3"]["sequence"]["recorded_conjugator"] = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        r = _run_cli("run", str(p))
        assert r.returncode == EXIT_INPUT, name
        assert "determinant one" in r.stderr, name


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
