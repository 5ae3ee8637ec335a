"""Scenario-runner front end: schema validation, dispatch, exit codes."""

import errno
import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from escmass.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_NOT_COVERED,
    EXIT_OK,
    EXIT_WRITE,
    Scenario,
    ScenarioError,
    bundled_scenarios,
    classify_scenario,
    load_scenario,
    main,
    parse_entry,
    points_text,
    predicted_label,
    resolve_scenario_path,
    run_scenario,
    scenario_from_json,
    summary_dict,
)
import escmass.cli as cli
import escmass.measures as measures
from escmass.limits import NotCoveredError, sequence_spec, sequence_translate
from escmass.measures import (
    KINDS,
    PrecisionBudgetError,
    conjugator_bits,
    embedded_sl2,
    empirical_measure,
    full_unipotent_radical,
    one_param_unipotent,
    product_subgroup,
    translate_log_stretch,
    trivial_subgroup,
)
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
    _assert_same_outputs(tmp_path / "a", tmp_path / "b")


def _assert_same_outputs(a, b):
    """Every output file but the timings in meta.txt, byte for byte."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name != "meta.txt":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize(
    "spec, count, cap",
    [
        (full_unipotent_radical(3, []), 9, 4),
        (full_unipotent_radical(3, []), 3, 512),
        (
            product_subgroup(
                [embedded_sl2(2), one_param_unipotent(2, (0, 1)), trivial_subgroup(2)]
            ),
            6,
            6,
        ),
    ],
)
def test_points_text_layout(spec, count, cap):
    """The header, min(cap, count) point lines, n + n(n-1)/2 fields per
    factor with factors separated by '|', and the measure's values."""
    r, n = spec.shape
    m = empirical_measure(spec, np.tile(np.eye(n), (r, 1, 1)), count, seed=3)
    lines = points_text(m, cap).splitlines()
    k = min(cap, count)
    assert lines[0] == (
        f"# {k} of {count} reduced points; per factor: "
        "log_a[0..n-1] then row-major strictly-upper u entries"
    )
    assert len(lines) == k + 1
    for i, line in enumerate(lines[1:]):
        factors = line.split("|")
        assert len(factors) == r
        for f, text in enumerate(factors):
            fields = [float(v) for v in text.split()]
            assert len(fields) == n + n * (n - 1) // 2
            want = list(m.log_a[i, f]) + list(m.u_coords[i, f])
            assert fields == pytest.approx(want, rel=1e-9)


def _reference_points_text(m, cap=cli.POINTS_CAP):
    """points_text written line by line with % formatting."""
    _, r, n = m.log_a.shape
    d = m.u_coords.shape[2]
    k = min(cap, len(m.log_a))
    factor = " ".join(["%+.9e"] * n) + "   " + " ".join(["%+.9e"] * d)
    line = "  |  ".join([factor] * r)
    rows = np.concatenate([m.log_a[:k], m.u_coords[:k]], axis=2).reshape(k, r * (n + d))
    lines = [
        f"# {k} of {m.sample_count} reduced points; per factor: "
        "log_a[0..n-1] then row-major strictly-upper u entries"
    ]
    lines.extend(line % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def _measure_of(values, rows, r, n, sample_count=None):
    """A measure of rows points of r factors in SL_n whose coordinates are
    the given values, repeated to fill; laid out factor-major like the
    measures stream_measures returns."""
    d = n * (n - 1) // 2
    flat = np.resize(np.asarray(values, dtype=float), rows * r * (n + d))
    cols = flat.reshape(rows, r, n + d).transpose(1, 2, 0).copy()
    return measures.EmpiricalMeasure(
        cols[:, :n].transpose(2, 0, 1), cols[:, n:].transpose(2, 0, 1),
        rows if sample_count is None else sample_count,
    )


_POWERS = 10.0 ** np.arange(-99, 100)
_EDGE_VALUES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.2e-308, 1.7976931348623157e308],
    [1e-100, 9.99999999949e-100, 9.9999999995e-100, 1e100, 9.9999999994e99, 9.9999999996e99],
    _POWERS, -_POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf),
    # ties in the tenth digit, (k + 0.5) * 10^j, and their neighbours
    (np.array([1234567890.5, 9999999999.5, 1000000000.5, 4.5, 0.5, 12345.5])[:, None]
     * 10.0 ** np.arange(-15, 15)).ravel(),
    [0.5, 2.5, 1.0000000005, 1.0000000015, 9.9999999995, 1.2345678905e-7, 6.2500000005e44],
    # three-digit exponents
    [1e-150, 3.3e101, -7.7e200, 1e-305],
])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_points_text_matches_percent_formatting_on_edge_values(n, r):
    """Every row mixes values the numpy pass writes with values only %
    formatting can write; each file keeps the bytes of the reference."""
    rng = np.random.default_rng(n * 10 + r)
    common = rng.standard_normal(400) * 10.0 ** rng.integers(-5, 5, 400)
    values = np.concatenate([common, rng.permutation(_EDGE_VALUES)])
    rows = len(values) // (r * (n + n * (n - 1) // 2)) + 1
    m = _measure_of(values, rows, r, n, sample_count=10 * rows)
    for cap in (0, 1, rows // 2, rows, rows + 7):
        assert points_text(m, cap) == _reference_points_text(m, cap), cap


def test_points_text_writes_common_values_without_fallback():
    """Reduced coordinates of a realistic size take the numpy pass: at most
    a few in 10^5 values sit within 1e-5 of a tie."""
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal(20000), rng.uniform(-0.5, 0.5, 20000), [0.0, -0.0]])
    fields, exact = cli._e_fields(x)
    assert exact.mean() > 0.999
    want = ["%+.9e" % v for v in x[exact].tolist()]
    assert [bytes(f).decode() for f in fields[exact]] == want


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60),
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=12),
)
def test_points_text_matches_percent_formatting_on_any_double(bits, n, r, cap):
    """Doubles drawn over the whole bit range, NaN payloads and infinities
    included."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    m = _measure_of(values, 5, r, n)
    assert points_text(m, cap) == _reference_points_text(m, cap)


def test_jobs_keep_sl3_outputs_over_several_chunks(tmp_path, monkeypatch):
    """Translate indices pushed and reduced in parallel, chunk by chunk,
    write the same files as a serial run."""
    import escmass.measures

    monkeypatch.setattr(escmass.measures, "CHUNK", 512)
    for jobs in ("1", "3"):
        argv = ["run", "sl3_levi_block", "--samples", "1300", "--jobs", jobs]
        assert main([*argv, "--out", str(tmp_path / jobs)]) == EXIT_OK
    _assert_same_outputs(tmp_path / "1", tmp_path / "3")
    meta = (tmp_path / "3" / "meta.txt").read_text().splitlines()
    assert meta[2].startswith("sample ") and meta[3].startswith("index 1: push+reduce ")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_4(jobs, capsys):
    assert main(["run", "sl2_cusp", "--samples", "100", "--jobs", jobs]) == EXIT_INPUT
    assert "--jobs must be positive" in capsys.readouterr().err


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


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_pipe_keeps_the_command_exit_code(tmp_path, capsys, monkeypatch):
    """``escmass list-catalog | head -1``: once stdout's reader has gone the
    rest of the output is dropped, and the command still returns its own
    exit code, here 0 and 2."""
    doc = _doc(name="early")
    doc["sequence"]["subgroup"] = {"kind": "one_param_unipotent", "n": 3, "coordinate": [1, 2]}
    doc["sequence"]["direction"] = ["3", "-2", "-1"]
    doc["sequence"]["indices"] = [1]
    doc["sampling"] = {"count": 2000, "seed": 7, "t_sweep": [1000.0]}
    p = tmp_path / "early.json"
    p.write_text(json.dumps(doc))
    for argv, code in ((["list-catalog"], EXIT_OK), (["run", str(p)], EXIT_DISAGREE)):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(argv) == code
        assert isinstance(sys.stdout, _ClosedPipe)
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_ends_the_process_quietly(tmp_path):
    """The reader of the process's stdout pipe is gone before it writes:
    no traceback, and the exit code of the command."""
    err = tmp_path / "stderr.txt"
    with err.open("w") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "escmass", "list-catalog"],
            stdout=subprocess.PIPE,
            stderr=sink,
        )
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_OK
    assert err.read_text() == ""


def test_a_closed_error_pipe_keeps_the_exit_code(tmp_path):
    """``escmass run no_such_scenario 2>&1 | true``: the reader of the
    process's stderr pipe is gone before the error is written, and the
    process still exits with the command's code, 4."""
    out = tmp_path / "stdout.txt"
    with out.open("w") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "escmass", "run", "no_such_scenario_anywhere"],
            stdout=sink,
            stderr=subprocess.PIPE,
        )
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_INPUT
    assert out.read_text() == ""


class _FullDisk:
    """A stream on a full disk: every write raises OSError(ENOSPC)."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass


def test_a_failed_write_exits_1_with_one_error_line(capsys, monkeypatch):
    """``escmass list-catalog > /dev/full``: a write error other than a
    closed pipe is one error line naming the stream, and exit code 1; when
    stderr is the stream that fails, only the exit code is left."""
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert main(["list-catalog"]) == EXIT_WRITE
    assert isinstance(sys.stdout, _FullDisk)
    full = "error: cannot write to stdout: [Errno 28] No space left on device\n"
    assert capsys.readouterr().err == full
    assert main(["--help"]) == EXIT_WRITE
    assert capsys.readouterr().err == full
    monkeypatch.undo()
    monkeypatch.setattr(sys, "stderr", _FullDisk())
    assert main(["run", "no_such_scenario_anywhere"]) == EXIT_WRITE
    assert isinstance(sys.stderr, _FullDisk)


def _refuse_to_sample(*args, **kwargs):
    raise AssertionError("the run sampled before its --out path was checked")


@pytest.mark.parametrize("where", ["existing_file", "beneath_a_file"])
def test_an_out_path_that_cannot_be_a_directory_exits_4_before_sampling(
    where, tmp_path, capsys, monkeypatch
):
    """``--out`` naming an existing file, or a path beneath one, is refused
    with one error line naming it and exit code 4, before the run classifies
    or samples."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if where == "existing_file" else blocker / "dir"
    monkeypatch.setattr(cli, "run_scenario", _refuse_to_sample)
    assert main(["run", "sl2_cusp", "--samples", "100", "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert blocker.read_text() == ""


def test_outputs_that_cannot_be_written_exit_1(tmp_path, capsys, monkeypatch):
    def full_disk(res, out):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "write_outputs", full_disk)
    out = tmp_path / "out"
    assert main(["run", "sl2_cusp", "--samples", "100", "--out", str(out)]) == EXIT_WRITE
    err = capsys.readouterr().err
    assert err == f"error: cannot write the outputs to {out}: [Errno 28] No space left on device\n"


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


_DIRECTION = '"direction": ["1", "0", "-1"]'
_COORDINATE = '"coordinate": [0, 1]'
_HALF_ENTRY = "[[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]"
_BOOL_IDENTITY = "[[true, false, false], [false, true, false], [false, false, true]]"
_BIG = "1" * 5000  # past the 4300 digits Python reads as an int


@pytest.mark.parametrize(
    "old, new, message",
    [
        (_DIRECTION, '"direction": ["1e400", "1e400", "-2e400"]',
         "direction value '1e400' does not fit a finite float"),
        ('"count": 100', '"count": 1e999', "count value inf does not fit an int"),
        ('"count": 100', '"count": 100.5', "bad count value 100.5: 100.5 is not an integer"),
        ('"seed": 1', '"seed": 1.5', "bad seed value 1.5: 1.5 is not an integer"),
        (_DIRECTION, _DIRECTION + ', "indices": [1.5]', "bad indices value 1.5: 1.5 is not"),
        (_DIRECTION, _DIRECTION + ', "indices": [true]', "bad indices value True: True is not"),
        ('"n": 3', '"n": 3.9', "bad n value 3.9: 3.9 is not an integer"),
        (_COORDINATE, '"coordinate": [0, 1.5]', "bad coordinate value 1.5: 1.5 is not"),
        (_COORDINATE, '"coordinate": "12"', "coordinate must be a list of integers, got '12'"),
        ('"kind": "one_param_unipotent", "n": 3, ' + _COORDINATE,
         '"kind": "embedded_sl2", "n": 3, "block": 0.5', "bad block value 0.5: 0.5 is not"),
        (_COORDINATE, _COORDINATE + ', "conjugator": ' + _HALF_ENTRY,
         "bad subgroup description: conjugator must have integer entries: 0.5 is not"),
        (_DIRECTION,
         _DIRECTION + ', "conjugator_policy": "recorded", "recorded_conjugator": ' + _HALF_ENTRY,
         "bad sequence: recorded conjugator must have integer entries: 0.5 is not"),
        (_DIRECTION, _DIRECTION + ', "bounded_part": ' + _BOOL_IDENTITY,
         "bad bounded_part entry: matrix entries must be strings or ints, got True"),
        (_DIRECTION, f'"direction": ["{_BIG}", "0", "-{_BIG}"]', f"bad rational value '{_BIG}'"),
        ('"name": "t"', f'"name": "t", "tau_law": ["0", "{_BIG}"]',
         f"bad tau_law: bad rational value '{_BIG}'"),
        (_DIRECTION,
         _DIRECTION + f', "bounded_part": [["{_BIG}", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]',
         f"bad bounded_part entry: bad rational value '{_BIG}'"),
    ],
    ids=["direction", "count", "count-fraction", "seed-fraction", "indices-fraction",
         "indices-bool", "n-fraction", "coordinate-fraction", "coordinate-string",
         "block-fraction", "conjugator-fraction", "recorded-conjugator-fraction",
         "bounded-part-bool", "direction-long-int", "tau-law-long-int", "bounded-part-long-int"],
)
def test_out_of_range_scenario_numbers_exit_4_naming_the_field(old, new, message, tmp_path, capsys):
    text = json.dumps(_doc()).replace(old, new)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_json(json.loads(text))
    p = tmp_path / "out_of_range.json"
    p.write_text(text)
    assert main(["run", str(p), "--jobs", "1"]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err


def test_misshapen_matrices_and_index_lists_exit_4_naming_the_field(tmp_path, capsys):
    """A matrix or an index list given as a number or a string is refused
    with its field's name, not read digit by digit or as a bare error; so
    is a conjugator on a product, which would otherwise be dropped."""
    product = {"kind": "product", "factors": [{"kind": "trivial", "n": 2}] * 2}
    cases = [
        ({"subgroup": {**product, "conjugator": [[1, 1], [0, 1]]}},
         "product subgroups take no conjugator"),
        ({"subgroup": {**_doc()["sequence"]["subgroup"], "conjugator": 5}},
         "bad subgroup description: conjugator must be a 3x3 matrix"),
        ({"subgroup": {"kind": "full_unipotent_radical", "n": 3, "I": "1"}},
         "I must be a list of integers, got '1'"),
        ({"bounded_part": 5}, "bad sequence: bounded part must be a 3x3 matrix"),
        ({"conjugator_policy": "recorded", "recorded_conjugator": 5},
         "bad sequence: recorded conjugator must be a 3x3 matrix"),
        ({"subgroup": product, "direction": ["1", "-1", "0", "0"], "bounded_part": 5},
         "bad sequence: bounded part must list one 2x2 matrix per factor, 2 in all"),
        ({"subgroup": product, "direction": ["1", "-1", "0", "0"],
          "conjugator_policy": "recorded", "recorded_conjugator": [[[1, 0], [0, 1]], 5]},
         "bad sequence: recorded conjugator must be a 2x2 matrix"),
    ]
    for sequence, message in cases:
        doc = _doc()
        doc["sequence"].update(sequence)
        p = tmp_path / "misshapen.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p), "--jobs", "1"]) == EXIT_INPUT, message
        assert f"error: {message}" in capsys.readouterr().err


def _run_doc(doc, tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return main(["run", str(p), "--jobs", "1"])


def test_subgroup_objects_refuse_unknown_keys(tmp_path, capsys):
    """A misspelt or foreign subgroup key exits 4 naming it, as an unknown
    key of the scenario, its sequence or its sampling does, instead of
    being dropped; a conjugator on a product or trivial subgroup keeps its
    own message."""
    trivial = {"kind": "trivial", "n": 2}
    cases = [
        ({"kind": "embedded_sl2", "n": 3, "blok": 1}, ["1", "0", "-1"],
         "unknown embedded_sl2 subgroup keys ['blok']"),
        ({"kind": "product", "factors": [{**trivial, "I": [0]}]}, ["1", "-1"],
         "unknown trivial subgroup keys ['I']"),
        ({"kind": "product", "n": 2, "factors": [trivial]}, ["1", "-1"],
         "unknown product subgroup keys ['n']"),
        ({"kind": "one_param_unipotent", "n": 3, "coordinate": [0, 1], "block": 0,
          "factors": []}, ["1", "0", "-1"],
         "unknown one_param_unipotent subgroup keys ['block', 'factors']"),
        ({"kind": "product", "factors": [trivial], "conjugator": [[1, 1], [0, 1]]}, ["1", "-1"],
         "product subgroups take no conjugator"),
        ({"kind": "trivial", "n": 3, "conjugator": [[1, 1], [0, 1]], "blok": 1},
         ["1", "0", "-1"], "trivial subgroups take no conjugator"),
        ({"kind": "parabolic", "n": 3}, ["1", "0", "-1"], "unknown subgroup kind 'parabolic'"),
    ]
    for subgroup, direction, message in cases:
        doc = _doc()
        doc["sequence"].update(subgroup=subgroup, direction=direction)
        assert _run_doc(doc, tmp_path) == EXIT_INPUT, message
        assert capsys.readouterr().err == f"error: {message}\n"


def test_offsets_outside_sl_n_exit_4_naming_the_bounded_part(tmp_path, capsys):
    """Each bounded_part factor must have determinant exactly one in
    Q(tau): a singular offset used to end in a traceback, and one of
    determinant -1 or tau in a run whose histograms meant nothing.  A
    determinant-one offset outside the normal position still exits 3."""
    product = {"kind": "product", "factors": [{"kind": "embedded_sl2", "n": 2},
                                              {"kind": "trivial", "n": 2}]}
    identity = [["1", "0"], ["0", "1"]]
    cases = [
        (product, [identity, [["0", "0"], ["0", "0"]]], "0"),
        (product, [identity, [["0", "1"], ["1", "0"]]], "-1"),
        (product, [[["1", "0"], ["1", "tau"]], identity], "0 + 1*tau"),
        ({"kind": "one_param_unipotent", "n": 3, "coordinate": [0, 1]},
         [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "2"),
    ]
    for subgroup, offset, det in cases:
        n = 3 if subgroup["kind"] != "product" else 4
        doc = _doc(tau_law=["0", "2"])
        doc["sequence"].update(subgroup=subgroup, bounded_part=offset,
                               direction=["1", "0", "-1"] if n == 3 else ["2", "-2", "-2", "2"])
        assert _run_doc(doc, tmp_path) == EXIT_INPUT, det
        message = f"error: bad sequence: bounded part must have determinant one, not {det}\n"
        assert capsys.readouterr().err == message
    doc = _doc()
    doc["sequence"].update(bounded_part=[["1", "0", "0"], ["1/3", "1", "0"], ["0", "0", "1"]],
                           direction=["9", "-6", "-3"])
    assert _run_doc(doc, tmp_path) == EXIT_NOT_COVERED


@pytest.mark.parametrize(
    "offset, label",
    [([["tau", "1"], ["1", "tau"]], "interior"), ([["1", "0"], ["1", "1"]], "()")],
    ids=["irrational_cusp_image", "rational_cusp_image"],
)
def test_a_rising_trivial_factor_agrees_with_its_run(offset, label, tmp_path, capsys):
    """A trivial factor at rate 4 runs to the image a/c of the cusp under
    its offset.  For [[tau, 1], [1, tau]] that is tau, so the point stays
    bounded: the classifier used to predict escape, and the run put all of
    its mass on interior and exited 2.  For [[1, 0], [1, 1]] it is the
    cusp 1, and the factor still escapes."""
    doc = _doc(tau_law=["0", "2"])
    doc["sequence"].update(subgroup={"kind": "product", "factors": [{"kind": "trivial", "n": 2}]},
                           direction=["2", "-2"], bounded_part=[offset])
    doc["sampling"] = {"count": 2048, "seed": 1}
    assert _run_doc(doc, tmp_path) == EXIT_OK
    out = capsys.readouterr().out
    assert f"predicted label {label}" in out and "verdict: agree" in out


def test_integral_floats_and_integer_strings_still_load():
    """Integers written as integral floats or as integer strings read as the
    integers they spell, down to the same sequence."""
    doc = _doc()
    doc["sampling"] = {"count": 100.0, "seed": "2"}
    doc["sequence"]["subgroup"] = {
        "kind": "embedded_sl2", "n": "3", "block": 1.0,
        "conjugator": [["1", 0, 0], [0, 1.0, 0], [0, 0, 1]],
    }
    doc["sequence"]["indices"] = ["1", 2.0, 4]
    doc["sequence"]["conjugator_policy"] = "recorded"
    doc["sequence"]["recorded_conjugator"] = [[1, "1", 0], [0, 1, 0], [0, 0, 1.0]]
    scn = scenario_from_json(doc)
    assert (scn.count, scn.seed) == (100, 2)
    assert scn.sequence.indices == (1, 2, 4)
    assert scn.sequence.subgroup == embedded_sl2(3, 1, conjugator=np.eye(3, dtype=int))
    assert scn.sequence.recorded_conjugator == (((1, 1, 0), (0, 1, 0), (0, 0, 1)),)
    for value in (scn.count, scn.seed, *scn.sequence.indices, scn.sequence.subgroup.n):
        assert type(value) is int


def test_translate_past_the_precision_budget_exits_4(tmp_path, capsys, monkeypatch):
    """sl3_levi_block moved to index 9 stretches its samples by e^(9 * 9):
    past the translate budget, where the samples' rounding alone takes them
    to the cusp.  The run stops with exit 4 before drawing a sample."""
    doc = json.loads(resolve_scenario_path("sl3_levi_block").read_text())
    doc["sequence"]["indices"] = [9]
    p = tmp_path / "levi9.json"
    p.write_text(json.dumps(doc))

    def no_draws(*args):
        raise AssertionError("sampled past the translate budget")

    monkeypatch.setattr(measures, "_draw_factor_chunk", no_draws)
    assert main(["run", str(p), "--jobs", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "translate budget" in err and "81.0 used, 67.9 allowed" in err


def test_translate_budget_holds_every_bundled_scenario():
    """Every bundled scenario at its indices, and sl3_levi_block up to index
    7, stays inside the translate budget; index 8 and beyond do not."""
    for path in bundled_scenarios():
        seq = load_scenario(path.stem).sequence
        translates = [sequence_translate(seq, k) for k in seq.indices]
        assert translate_log_stretch(seq.subgroup, translates) <= 36.0, path.stem
        measures._check_translate_budget(seq.subgroup, translates)
    # the horocycle u(t) stretches under diag(e^-5, e^5) (v_1 - v_0 = 2),
    # not under diag(e^5, e^-5), which only contracts it
    line = one_param_unipotent(2, (0, 1))
    assert translate_log_stretch(line, [np.diag(np.exp([-5.0, 5.0]))]) == pytest.approx(10.0)
    assert translate_log_stretch(line, [np.diag(np.exp([5.0, -5.0]))]) == 0.0
    seq = load_scenario("sl3_levi_block").sequence
    for k in (4, 5, 6, 7, 8, 9):
        stretch = translate_log_stretch(seq.subgroup, [sequence_translate(seq, k)])
        assert stretch == pytest.approx(9.0 * k, abs=1e-9)
        if k <= 7:
            measures._check_translate_budget(seq.subgroup, [sequence_translate(seq, k)])
        else:
            with pytest.raises(PrecisionBudgetError, match="translate budget"):
                measures._check_translate_budget(seq.subgroup, [sequence_translate(seq, k)])


def test_overflowing_translate_exits_4(tmp_path, capsys):
    """exp(1e3) overflows float64, so the index-1 translate holds inf and 0
    entries and does not invert; the budget reads that as unbounded stretch
    and the run stops with exit 4, not a LinAlgError traceback."""
    doc = _doc()
    doc["sequence"]["direction"] = ["1e3", "0", "-1e3"]
    doc["sequence"]["indices"] = [1]
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert main(["run", str(p), "--jobs", "1"]) == EXIT_INPUT
    assert "translate budget is exceeded: r*m = inf used" in capsys.readouterr().err


@pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
def test_overflowing_translate_exits_4_without_numpy_warnings(recorded, tmp_path):
    """Forming the index-1 translate of direction (1e3, 0, -1e3) overflows
    exp and multiplies inf by 0; the run prints only the budget message,
    no RuntimeWarning from numpy."""
    doc = _doc()
    doc["sequence"]["direction"] = ["1e3", "0", "-1e3"]
    doc["sequence"]["indices"] = [1]
    if recorded:
        doc["sequence"]["conjugator_policy"] = "recorded"
        doc["sequence"]["recorded_conjugator"] = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    proc = _run_cli("run", str(p))
    assert proc.returncode == EXIT_INPUT
    assert "error: the translate budget is exceeded: r*m = inf used" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_unallocatable_sample_count_exits_4(monkeypatch, capsys):
    """A count numpy can shape but not allocate ends in exit 4, not a
    MemoryError traceback.  The stand-in replaces the sampling pass that
    run_scenario calls and raises where an allocation would fail, so
    nothing is sampled or allocated."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 21.8 TiB for an array")

    monkeypatch.setattr(cli, "stream_measures", out_of_memory)
    assert main(["run", "sl3_case1", "--samples", str(10**12)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: the sample arrays do not fit in memory: Unable to allocate" in err


def _run_sampling_input(tmp_path, sampling, argv):
    doc = _doc()
    doc["sampling"].update(sampling)
    p = tmp_path / "sampling.json"
    p.write_text(json.dumps(doc))
    return main(["run", str(p), "--jobs", "1", *argv])


@pytest.mark.parametrize(
    "sampling, argv, message",
    [
        ({"seed": -1}, [], "sampling seed must be non-negative"),
        ({}, ["--seed", "-1"], "--seed must be non-negative"),
        ({"count": 10**30}, [], f"sampling count {10**30} is too large"),
        ({}, ["--samples", str(10**30)], f"--samples {10**30} is too large"),
    ],
    ids=["seed", "--seed", "count", "--samples"],
)
def test_negative_seed_and_oversized_count_exit_4_naming_the_field(
    sampling, argv, message, tmp_path, capsys
):
    """Refused before any sampling: a negative seed cannot key an RNG
    stream, and numpy cannot shape coordinate arrays of 1e30 samples."""
    assert _run_sampling_input(tmp_path, sampling, argv) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sl3_case1", "sl2_mixed"])
def test_sampling_path_reaches_the_traced_reducers(name, monkeypatch):
    """The benchmark's tracer records its reduction spans by wrapping
    measures.reduce_siegel_batched and measures.reduce_sl2_coords; a run of
    a bundled scenario must still call them through those names, the first
    with an (m, n, n) stack, or a layout change would drop those spans
    without an error."""
    calls = {"reduce_siegel_batched": [], "reduce_sl2_coords": []}
    for attr, seen in calls.items():
        real = getattr(measures, attr)

        def spy(*args, _real=real, _seen=seen, **kwargs):
            _seen.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(measures, attr, spy)
    scn = replace(load_scenario(name), count=600)
    run_scenario(scn, jobs=1)
    n = scn.sequence.subgroup.shape[1]
    if n == 2:
        assert calls["reduce_sl2_coords"] and not calls["reduce_siegel_batched"]
        for x, y in calls["reduce_sl2_coords"]:
            assert x.shape == y.shape and x.ndim == 1
    else:
        assert calls["reduce_siegel_batched"] and not calls["reduce_sl2_coords"]
        for (mats,) in calls["reduce_siegel_batched"]:
            assert mats.ndim == 3 and mats.shape[1:] == (n, n) and len(mats) >= 1


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


def test_conjugator_past_the_float64_budget_exits_4(tmp_path, capsys):
    """gamma @ h @ gamma^-1 with the 1e8 conjugator cancels 1e16-sized terms
    in float64; the run refuses it before sampling instead of crashing in
    the reduced-bounds check."""
    factor = {"kind": "one_param_unipotent", "n": 2, "coordinate": [0, 1]}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(_product_doc({**factor, "conjugator": BIG_CONJUGATOR})))
    assert main(["run", str(p), "--samples", "2000", "--jobs", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "float64 budget of 23 bits" in err and "53.2 bits" in err
    # a small conjugator (2 bits) stays inside the budget and is sampled
    p.write_text(json.dumps(_product_doc({**factor, "conjugator": [[2, 1], [1, 1]]})))
    assert main(["run", str(p), "--samples", "2000", "--jobs", "1"]) in (EXIT_OK, EXIT_DISAGREE)
    assert "budget" not in capsys.readouterr().err
    for path in bundled_scenarios():
        assert conjugator_bits(load_scenario(path.stem).sequence.subgroup) == 0.0


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_verify_identities_refuses_no_trials(trials, capsys):
    """No trial checks nothing, so it is refused rather than run as one."""
    assert main(["verify-identities", "--trials", trials]) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.err == "error: --trials must be positive\n"
    assert out.out == ""
