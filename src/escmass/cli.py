"""Command-line front end: scenario runner, catalog listing, self checks.

A *scenario* is a JSON description of one translated-orbit experiment: which
catalog subgroup, the diagonal direction driving the translates, an optional
exact offset, and a Monte Carlo sampling plan.  ``escmass run`` classifies
the sequence exactly, then samples the pushed orbit at every requested
translate index, reduces the samples into Siegel coordinates, and checks
that the observed mass sits on the predicted limit component.

Exit codes of ``run``:

* 0 -- the empirical histograms agree with the exact classification,
* 2 -- they do not (statistical disagreement at the stated thresholds),
* 3 -- the sequence falls outside the encoded decision trees,
* 4 -- the scenario file (or command line) is malformed.

Scenario schema, all exact scalars written as strings::

    {
      "schema": "escape-scenario/1",
      "name": "sl3_case1",
      "note": "free text",
      "tau_law": ["0", "2"],              # tau^2 = p*tau + q   (optional)
      "sequence": {
        "subgroup": {"kind": "one_param_unipotent", "n": 3,
                     "coordinate": [1, 2]},
        "direction": ["9", "-6", "-3"],
        "bounded_part": null,             # null | "bounded" | matrix | list
        "conjugator_policy": "identity",  # or "recorded"
        "recorded_conjugator": null,      # integer matrix / per-factor list
        "indices": [1, 2, 4],
        "stage": "raw"                    # or "block_reduced"
      },
      "sampling": {"count": 100000, "seed": 20240817, "y_cap": 10000.0,
                   "t_sweep": [100.0, 1000.0, 10000.0]}
    }

Subgroup objects take ``kind`` plus the fields their factory needs:
``coordinate`` for one-parameter lines, ``I`` for full radicals, ``block``
for 2x2 Levi/embedded blocks, ``factors`` for products, and an optional
integer ``conjugator``.  Matrix entries admit the exact grammar ``"p/q"``,
``"tau"``, ``"-tau"``, ``"b*tau"`` and ``"a+b*tau"`` against the declared
law, so irrational offsets stay symbolic all the way into the classifier.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .limits import (
    LimitDescriptor,
    NotCoveredError,
    SequenceSpec,
    levi_translate_classify,
    sequence_spec,
    sequence_translate,
    sl2r_classify,
    sl3_classify,
)
from .lingrp import (
    GroupElement,
    ParabolicIndex,
    group_element,
    iwasawa,
    langlands,
    verify_dalpha,
)
from .measures import (
    KINDS,
    T_ESC_SWEEP,
    Y_CAP_DEFAULT,
    BoundaryHistogram,
    EmpiricalMeasure,
    SubgroupSpec,
    boundary_histogram,
    embedded_sl2,
    empirical_measure,
    format_histogram,
    full_unipotent_radical,
    levi_semisimple_nc,
    one_param_unipotent,
    product_subgroup,
    trivial_subgroup,
    truncation_bound,
)
from .qfield import QMatrix, QuadNum, qmat
from .rootsys import build_type_a, locate_chamber, make_vector

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_NOT_COVERED = 3
EXIT_INPUT = 4

SCHEMA_ID = "escape-scenario/1"
AGREEMENT_MIN_MASS = 0.95
POINTS_CAP = 512
_T_FLOOR = 2.0 / math.sqrt(3.0)

__all__ = [
    "Scenario",
    "ScenarioError",
    "RunResult",
    "classify_scenario",
    "load_scenario",
    "main",
    "parse_entry",
    "predicted_label",
    "run_scenario",
    "scenario_from_json",
    "summary_dict",
]


class ScenarioError(ValueError):
    """The scenario file (or an override) does not describe a valid run."""


# ---------------------------------------------------------------------------
# exact scalar / matrix grammar


_MIXED_RE = re.compile(r"(?P<head>[+-]?\d+(?:/\d+)?)(?P<rest>[+-].*)")


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational value {text!r}") from exc


def parse_entry(text, tau: Optional[QuadNum]) -> QuadNum:
    """Exact scalar: ``p/q``, ``tau``, ``-tau``, ``b*tau`` or ``a+b*tau``."""
    if isinstance(text, int):
        return QuadNum.rational(Fraction(text))
    if not isinstance(text, str):
        raise ScenarioError(f"matrix entries must be strings or ints, got {text!r}")
    s = text.replace(" ", "")
    if "tau" not in s:
        return QuadNum.rational(_fraction(s))
    if tau is None:
        raise ScenarioError(f"entry {text!r} uses tau but the scenario has no tau_law")
    head, sep, tail = s.partition("tau")
    if not sep or tail:
        raise ScenarioError(f"cannot parse entry {text!r}")
    a = Fraction(0)
    m = _MIXED_RE.fullmatch(head)
    if m:
        a, head = _fraction(m.group("head")), m.group("rest")
    if head in ("", "+"):
        b = Fraction(1)
    elif head == "-":
        b = Fraction(-1)
    elif head.endswith("*"):
        b = _fraction(head[:-1])
    else:
        raise ScenarioError(f"cannot parse entry {text!r}")
    return QuadNum.rational(a) + QuadNum.rational(b) * tau


def _parse_qmatrix(rows, n: int, tau: Optional[QuadNum]) -> QMatrix:
    if (
        not isinstance(rows, list)
        or len(rows) != n
        or any(not isinstance(r, list) or len(r) != n for r in rows)
    ):
        raise ScenarioError(f"expected an {n}x{n} matrix (list of {n} rows)")
    return qmat([[parse_entry(v, tau) for v in row] for row in rows])


def _int_rows(obj, what: str):
    if obj is None:
        return None
    try:
        rows = tuple(tuple(int(v) for v in row) for row in obj)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what} must be an integer matrix") from exc
    return rows


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: the sequence to classify plus its sampling plan."""

    name: str
    note: str
    sequence: SequenceSpec
    count: int
    seed: int
    y_cap: float
    t_sweep: Tuple[float, ...]


_TOP_KEYS = {"schema", "name", "note", "tau_law", "sequence", "sampling"}
_SEQ_KEYS = {
    "subgroup",
    "direction",
    "bounded_part",
    "conjugator_policy",
    "recorded_conjugator",
    "indices",
    "stage",
}
_SAMPLING_KEYS = {"count", "seed", "y_cap", "t_sweep"}


def _subgroup_from_json(obj) -> SubgroupSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("subgroup must be an object with a 'kind'")
    kind = obj["kind"]
    conj = _int_rows(obj.get("conjugator"), "conjugator")
    try:
        if kind == "product":
            factors = obj.get("factors")
            if not isinstance(factors, list):
                raise ScenarioError("product subgroups need a 'factors' list")
            return product_subgroup([_subgroup_from_json(f) for f in factors])
        n = int(obj["n"])
        if kind == "one_param_unipotent":
            i, j = (int(v) for v in obj["coordinate"])
            return one_param_unipotent(n, (i, j), conjugator=conj)
        if kind == "full_unipotent_radical":
            return full_unipotent_radical(
                n, [int(v) for v in obj.get("I", [])], conjugator=conj
            )
        if kind == "levi_semisimple_nc":
            return levi_semisimple_nc(n, int(obj["block"]), conjugator=conj)
        if kind == "embedded_sl2":
            return embedded_sl2(n, int(obj.get("block", 0)), conjugator=conj)
        if kind == "trivial":
            if conj is not None:
                raise ScenarioError("trivial factors take no conjugator")
            return trivial_subgroup(n)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad subgroup description: {exc}") from exc
    raise ScenarioError(f"unknown subgroup kind {kind!r}")


def _bounded_from_json(obj, spec: SubgroupSpec, tau: Optional[QuadNum]):
    if obj is None or obj == "bounded":
        return obj
    if spec.kind == "product":
        if not isinstance(obj, list) or len(obj) != len(spec.factors):
            raise ScenarioError("product bounded_part must list one 2x2 matrix per factor")
        return tuple(_parse_qmatrix(m, 2, tau) for m in obj)
    return _parse_qmatrix(obj, spec.n, tau)


def _recorded_from_json(obj, spec: SubgroupSpec):
    if obj is None:
        return None
    if spec.kind == "product":
        if not isinstance(obj, list) or len(obj) != len(spec.factors):
            raise ScenarioError(
                "product recorded_conjugator must list one integer 2x2 matrix per factor"
            )
        return tuple(_int_rows(m, "recorded_conjugator") for m in obj)
    return _int_rows(obj, "recorded_conjugator")


def scenario_from_json(doc, fallback_name: str = "scenario") -> Scenario:
    """Validate a parsed JSON document against the scenario schema."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA_ID:
        raise ScenarioError(f"expected schema {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    stray = set(doc) - _TOP_KEYS
    if stray:
        raise ScenarioError(f"unknown scenario keys {sorted(stray)}")

    tau = None
    if doc.get("tau_law") is not None:
        law = doc["tau_law"]
        if not isinstance(law, list) or len(law) != 2:
            raise ScenarioError("tau_law must be a [p, q] pair")
        try:
            tau = QuadNum.tau(_fraction(law[0]), _fraction(law[1]))
        except ValueError as exc:
            raise ScenarioError(f"bad tau_law: {exc}") from exc

    seq_doc = doc.get("sequence")
    if not isinstance(seq_doc, dict):
        raise ScenarioError("scenario needs a 'sequence' object")
    stray = set(seq_doc) - _SEQ_KEYS
    if stray:
        raise ScenarioError(f"unknown sequence keys {sorted(stray)}")
    if "subgroup" not in seq_doc or "direction" not in seq_doc:
        raise ScenarioError("sequence needs 'subgroup' and 'direction'")
    spec = _subgroup_from_json(seq_doc["subgroup"])
    direction = seq_doc["direction"]
    if not isinstance(direction, list):
        raise ScenarioError("direction must be a list of exact entries")
    indices = seq_doc.get("indices", [1, 2, 4])
    if not isinstance(indices, list) or not indices:
        raise ScenarioError("indices must be a non-empty list of integers")
    try:
        seq = sequence_spec(
            spec,
            [_fraction(x) for x in direction],
            bounded_part=_bounded_from_json(seq_doc.get("bounded_part"), spec, tau),
            conjugator_policy=seq_doc.get("conjugator_policy", "identity"),
            recorded_conjugator=_recorded_from_json(
                seq_doc.get("recorded_conjugator"), spec
            ),
            indices=tuple(int(i) for i in indices),
            stage=seq_doc.get("stage", "raw"),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad sequence: {exc}") from exc

    samp = doc.get("sampling", {})
    if not isinstance(samp, dict):
        raise ScenarioError("sampling must be an object")
    stray = set(samp) - _SAMPLING_KEYS
    if stray:
        raise ScenarioError(f"unknown sampling keys {sorted(stray)}")
    try:
        count = int(samp.get("count", 100000))
        seed = int(samp.get("seed", 20240817))
        y_cap = float(samp.get("y_cap", Y_CAP_DEFAULT))
        t_sweep = tuple(float(t) for t in samp.get("t_sweep", list(T_ESC_SWEEP)))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad sampling block: {exc}") from exc
    if count < 1:
        raise ScenarioError("sampling count must be positive")
    if not y_cap > 1.0:
        raise ScenarioError("y_cap must exceed 1")
    if not t_sweep:
        raise ScenarioError("t_sweep must be non-empty")
    for t in t_sweep:
        if not t > _T_FLOOR:
            raise ScenarioError(
                f"threshold {t:g} is inside the reduced domain (needs > {_T_FLOOR:.4f})"
            )

    name = doc.get("name", fallback_name)
    note = doc.get("note", "")
    if not isinstance(name, str) or not isinstance(note, str):
        raise ScenarioError("name and note must be strings")
    return Scenario(name, note, seq, count, seed, y_cap, t_sweep)


def _bundled_dir() -> Path:
    return Path(__file__).resolve().parent / "scenarios"


def bundled_scenarios() -> List[Path]:
    return sorted(_bundled_dir().glob("*.json"))


def resolve_scenario_path(token: str) -> Path:
    """Accept either a filesystem path or the name of a bundled scenario."""
    p = Path(token)
    if p.is_file():
        return p
    name = token if token.endswith(".json") else token + ".json"
    cand = _bundled_dir() / name
    if cand.is_file():
        return cand
    raise ScenarioError(f"no scenario file or bundled scenario named {token!r}")


def load_scenario(token: str) -> Scenario:
    path = resolve_scenario_path(token)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_json(doc, fallback_name=path.stem)


# ---------------------------------------------------------------------------
# classification + sampling pipeline


def classify_scenario(seq: SequenceSpec) -> LimitDescriptor:
    """Route the sequence to the decision tree that covers its subgroup."""
    spec = seq.subgroup
    if spec.kind == "product":
        return sl2r_classify(seq)
    if spec.kind == "levi_semisimple_nc":
        return levi_translate_classify(spec.block, seq)
    if spec.n == 3:
        return sl3_classify(seq)
    raise NotCoveredError(
        "not covered by the encoded decision tree: no branch for "
        f"{spec.kind} at n={spec.n}; encoded are 3x3 sequences, 2x2-block "
        "Levi translates, and modular-surface products"
    )


def _rank(spec: SubgroupSpec) -> int:
    r, n = spec.shape
    return r if spec.kind == "product" else n - 1


def predicted_label(desc: LimitDescriptor, rank: int) -> FrozenSet[int]:
    """Histogram label the classification predicts for the late translates."""
    if desc.support_kind == "interior":
        return frozenset(range(rank))
    return frozenset(desc.P.I)


def _label_text(label: FrozenSet[int], rank: int) -> str:
    if label == frozenset(range(rank)):
        return "interior"
    return "(" + ",".join(str(i) for i in sorted(label)) + ")"


@dataclass
class RunResult:
    scenario: Scenario
    descriptor: LimitDescriptor
    predicted: FrozenSet[int]
    histograms: Dict[int, Dict[float, BoundaryHistogram]]
    measures: Dict[int, EmpiricalMeasure]
    timings: Dict[int, float]
    agreement: Dict[float, dict]
    ok: bool


def run_scenario(scn: Scenario, jobs: int = 1) -> RunResult:
    """Classify, sample every translate index, and compare at the last one.

    Agreement means: at the largest index, for every threshold in the sweep,
    the heaviest histogram label equals the predicted one and carries at
    least ``AGREEMENT_MIN_MASS`` of the samples.
    """
    desc = classify_scenario(scn.sequence)
    rank = _rank(scn.sequence.subgroup)
    pred = predicted_label(desc, rank)

    def one(idx: int):
        g = sequence_translate(scn.sequence, idx)
        t0 = time.monotonic()
        m = empirical_measure(
            scn.sequence.subgroup, g, scn.count, scn.seed, y_cap=scn.y_cap
        )
        dt = time.monotonic() - t0
        return idx, m, {t: boundary_histogram(m, t) for t in scn.t_sweep}, dt

    indices = scn.sequence.indices
    if jobs > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
            rows = list(pool.map(one, indices))
    else:
        rows = [one(i) for i in indices]

    measures = {idx: m for idx, m, _, _ in rows}
    hists = {idx: h for idx, _, h, _ in rows}
    timings = {idx: dt for idx, _, _, dt in rows}

    last = max(indices)
    agreement: Dict[float, dict] = {}
    ok = True
    for t in scn.t_sweep:
        h = hists[last][t]
        top = h.argmax()
        mass = float(h.fraction(top))
        match = top == pred and mass >= AGREEMENT_MIN_MASS
        agreement[t] = {"argmax": _label_text(top, rank), "mass": mass, "match": match}
        ok = ok and match
    return RunResult(scn, desc, pred, hists, measures, timings, agreement, ok)


# ---------------------------------------------------------------------------
# reports


def summary_dict(res: RunResult) -> dict:
    """Deterministic run record: same scenario + seed => identical bytes."""
    scn = res.scenario
    seq = scn.sequence
    rank = _rank(seq.subgroup)
    hist_block = {
        str(idx): {
            f"{t:g}": {
                _label_text(lbl, rank): float(mass)
                for lbl, mass in res.histograms[idx][t].mass.items()
            }
            for t in scn.t_sweep
        }
        for idx in seq.indices
    }
    if res.descriptor.support_kind == "interior":
        component = "interior"
    else:
        component = _label_text(frozenset(res.descriptor.P.I), rank)
    return {
        "schema": "escape-run-summary/1",
        "scenario": scn.name,
        "note": scn.note,
        "subgroup": seq.subgroup.describe(),
        "direction": [str(x) for x in seq.direction],
        "stage": seq.stage,
        "indices": [int(i) for i in seq.indices],
        "sampling": {
            "count": scn.count,
            "seed": scn.seed,
            "y_cap": scn.y_cap,
            "t_sweep": [float(t) for t in scn.t_sweep],
        },
        "truncation_bound": float(truncation_bound(seq.subgroup, scn.y_cap)),
        "classifier": {
            "support": res.descriptor.support_kind,
            "component": component,
            "predicted_label": _label_text(res.predicted, rank),
            "notes": list(res.descriptor.notes),
        },
        "checked_index": int(max(seq.indices)),
        "agreement": {
            f"{t:g}": {
                "argmax": a["argmax"],
                "mass": float(a["mass"]),
                "match": bool(a["match"]),
            }
            for t, a in res.agreement.items()
        },
        "histograms": hist_block,
        "verdict": "agree" if res.ok else "disagree",
    }


def points_text(m: EmpiricalMeasure, cap: int = POINTS_CAP) -> str:
    """Columnar dump of the first reduced sample points (factors separated
    by '|'): the log diagonal, then the strictly-upper frame entries."""
    _, r, n = m.log_a.shape
    d = m.u_coords.shape[2]
    k = min(cap, m.sample_count)
    factor = " ".join(["%+.9e"] * n) + "   " + " ".join(["%+.9e"] * d)
    line = "  |  ".join([factor] * r)
    rows = np.concatenate([m.log_a[:k], m.u_coords[:k]], axis=2).reshape(k, -1)
    lines = [
        f"# {k} of {m.sample_count} reduced points; per factor: "
        "log_a[0..n-1] then row-major strictly-upper u entries"
    ]
    lines.extend(line % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def write_outputs(res: RunResult, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(
        json.dumps(summary_dict(res), sort_keys=True, indent=2) + "\n"
    )
    scn = res.scenario
    meta = [
        f"scenario {scn.name}",
        f"samples {scn.count} seed {scn.seed} y_cap {scn.y_cap:g}",
    ]
    for idx in scn.sequence.indices:
        meta.append(f"index {idx}: sample+reduce {res.timings[idx]:.3f}s")
    meta.append(f"total {sum(res.timings.values()):.3f}s")
    (out / "meta.txt").write_text("\n".join(meta) + "\n")
    for idx in scn.sequence.indices:
        (out / f"points_{idx}.txt").write_text(points_text(res.measures[idx]))
        block = "".join(
            format_histogram(res.histograms[idx][t]) for t in scn.t_sweep
        )
        (out / f"histograms_{idx}.txt").write_text(block)


def print_report(res: RunResult) -> None:
    scn = res.scenario
    seq = scn.sequence
    rank = _rank(seq.subgroup)
    print(f"scenario {scn.name}: {seq.subgroup.describe()}")
    direction = ", ".join(str(x) for x in seq.direction)
    print(f"direction ({direction})  stage {seq.stage}  indices {tuple(seq.indices)}")
    d = res.descriptor
    print(
        f"classifier: support={d.support_kind}  "
        f"predicted label {_label_text(res.predicted, rank)}"
    )
    for note in d.notes:
        print(f"  note {note}")
    print(f"samples {scn.count}  seed {scn.seed}  y_cap {scn.y_cap:g}")
    last = max(seq.indices)
    print(f"checked at index {last}:")
    for t in scn.t_sweep:
        a = res.agreement[t]
        flag = "ok" if a["match"] else "MISMATCH"
        print(f"  T={t:g}: argmax {a['argmax']}  mass {a['mass']:.5f}  [{flag}]")
    print(f"verdict: {'agree' if res.ok else 'disagree'}")


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        if args.samples is not None:
            if args.samples < 1:
                raise ScenarioError("--samples must be positive")
            scn = replace(scn, count=args.samples)
        if args.seed is not None:
            scn = replace(scn, seed=args.seed)
        res = run_scenario(scn, jobs=max(1, args.jobs))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotCoveredError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_NOT_COVERED
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        write_outputs(res, Path(args.out))
    print_report(res)
    return EXIT_OK if res.ok else EXIT_DISAGREE


_CATALOG_ROWS = (
    (
        "full_unipotent_radical",
        "n <= 4",
        "uniform box on the radical coordinates",
        "3x3 walk (raw or block_reduced stage)",
    ),
    (
        "levi_semisimple_nc",
        "n in {3,4}",
        "Haar on the 2x2 block via its Iwasawa box",
        "twisted-wall escape test",
    ),
    (
        "embedded_sl2",
        "n <= 4",
        "Haar on the 2x2 block via its Iwasawa box",
        "bounded factor atom in products",
    ),
    (
        "one_param_unipotent",
        "n <= 4",
        "uniform box on the line parameter",
        "3x3 walk; escape/bounded factor atom",
    ),
    (
        "trivial",
        "n <= 4",
        "point mass at the identity",
        "offset excursion atom in products",
    ),
    (
        "product",
        "2x2 factors",
        "independent per-factor sampling",
        "per-factor escape atoms, joined",
    ),
)


def cmd_list_catalog(_args) -> int:
    width = max(len(row[0]) for row in _CATALOG_ROWS)
    print("subgroup catalog:")
    for kind, size, sampler, coverage in _CATALOG_ROWS:
        print(f"  {kind:<{width}}  {size:<11} {sampler}")
        print(f"  {'':<{width}}  {'':<11} classifier: {coverage}")
    print()
    print("bundled scenarios (escmass run <name>):")
    for path in bundled_scenarios():
        try:
            scn = load_scenario(str(path))
            direction = ",".join(str(x) for x in scn.sequence.direction)
            print(f"  {path.stem:<26} {scn.sequence.subgroup.describe()}  v=({direction})")
        except ScenarioError as exc:  # pragma: no cover - bundled files are valid
            print(f"  {path.stem:<26} unreadable: {exc}")
    return EXIT_OK


def _random_group(rng: np.random.Generator, n: int) -> GroupElement:
    while True:
        m = rng.normal(size=(n, n))
        if np.linalg.det(m) < 0:
            m[0] = -m[0]
        try:
            return group_element(m)
        except ValueError:
            continue


def cmd_verify(args) -> int:
    trials = max(1, args.trials)
    rng = np.random.default_rng(8128)
    print(f"identity checks, {trials} trials per group size")
    failed = False

    for n in (2, 3, 4):
        maximal = [
            ParabolicIndex(n, frozenset(range(n - 1)) - {a}) for a in range(n - 1)
        ]
        worst_split = 0.0
        worst_gap = 0.0
        for _ in range(trials):
            g = _random_group(rng, n)
            parts = iwasawa(g)
            worst_split = max(
                worst_split, float(np.max(np.abs(parts.reconstruct() - g.mat)))
            )
            for P in maximal:
                lp = langlands(g, P)
                worst_split = max(
                    worst_split, float(np.max(np.abs(lp.reconstruct() - g.mat)))
                )
                worst_gap = max(worst_gap, verify_dalpha(g, P))
        ok = worst_split <= 1e-9 and worst_gap <= 1e-8
        flag = "" if ok else "  FAIL"
        print(
            f"  n={n}: split residual {worst_split:.2e} (tol 1e-09), "
            f"distance gap {worst_gap:.2e} (tol 1e-08){flag}"
        )
        failed = failed or not ok

    rr = random.Random(2026)
    bad = 0
    for n in (3, 4):
        rs = build_type_a(n)
        for _ in range(trials):
            raw = [Fraction(rr.randint(-6, 6)) for _ in range(n - 1)]
            raw.append(-sum(raw))
            face = locate_chamber(rs, make_vector(rs, raw))
            p = face.w.one_line()
            u = [raw[i] for i in p]
            sorted_ok = all(u[k] >= u[k + 1] for k in range(n - 1))
            walls = frozenset(k for k in range(n - 1) if u[k] == u[k + 1])
            if not sorted_ok or walls != face.I:
                bad += 1
    print(f"  chamber location: {bad} violations on exact integer directions")
    failed = failed or bad > 0

    if failed:
        print("verdict: FAIL")
        return EXIT_DISAGREE
    print("verdict: all identities hold")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage, which collides with the
    'statistical disagreement' code here, so usage errors are remapped."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    par = _Parser(
        prog="escmass",
        description=(
            "classify translated homogeneous orbits exactly and cross-check "
            "the predicted escape of mass by Monte Carlo sampling"
        ),
    )
    sub = par.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="classify a scenario and cross-check it by sampling",
        description=(
            "Load a scenario JSON file (or a bundled scenario by name), run "
            "the exact classifier, then sample the translated orbit at every "
            "index and compare the mass histogram against the prediction."
        ),
    )
    p_run.add_argument(
        "scenario", help="path to a scenario JSON file, or a bundled scenario name"
    )
    p_run.add_argument(
        "--out", metavar="DIR", help="write summary.json, meta.txt and dumps here"
    )
    p_run.add_argument("--samples", type=int, help="override the scenario sample count")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument(
        "--jobs", type=int, default=1, help="sample translate indices in parallel"
    )
    p_run.set_defaults(fn=cmd_run)

    p_cat = sub.add_parser(
        "list-catalog", help="print the subgroup catalog and bundled scenarios"
    )
    p_cat.set_defaults(fn=cmd_list_catalog)

    p_ver = sub.add_parser(
        "verify-identities",
        help="self-check the decompositions and chamber location on random input",
    )
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.set_defaults(fn=cmd_verify)
    return par


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
