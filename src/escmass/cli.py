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
integer ``conjugator``; any other key exits 4, as an unknown key of the
scenario, its ``sequence`` or its ``sampling`` does.  Matrix entries admit
the exact grammar ``"p/q"``, ``"tau"``, ``"-tau"``, ``"b*tau"`` and
``"a+b*tau"`` against the declared law, so irrational offsets stay symbolic
all the way into the classifier.  Each ``bounded_part`` matrix must lie in
SL_n: a determinant other than exactly one in Q(tau) exits 4.

The integer fields are ``n``, ``coordinate``, ``I``, ``block``, the
entries of ``conjugator`` and ``recorded_conjugator``, ``indices``,
``count`` and ``seed``; ``coordinate``, ``I`` and ``indices`` are lists.
Each takes an int, an integral float such as ``2.0`` or an integer string
such as ``"2"``.  A value with a fraction, such as ``0.5``, or a bool exits
4 with a message naming its field; it is never truncated.  A single
subgroup, or a product of one factor, may give its one ``bounded_part`` or
``recorded_conjugator`` matrix bare instead of in a one-item list.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from contextlib import nullcontext, suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
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
    T_ESC_SWEEP,
    Y_CAP_DEFAULT,
    BoundaryHistogram,
    EmpiricalMeasure,
    PrecisionBudgetError,
    SamplingTimes,
    SubgroupSpec,
    boundary_histogram,  # noqa: F401 - perfbench/tracing.py wraps this name here
    embedded_sl2,
    empirical_measure,  # noqa: F401 - perfbench/tracing.py wraps this name here
    format_histogram,
    full_unipotent_radical,
    interior_label,
    label_text,
    levi_semisimple_nc,
    one_param_unipotent,
    product_subgroup,
    stream_measures,
    trivial_subgroup,
    truncation_bound,
)
from .qfield import QuadNum, as_int
from .rootsys import build_type_a, locate_chamber, make_vector

EXIT_OK = 0
EXIT_WRITE = 1
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
    """The Fraction that text spells; an integer of ASCII digits, with or
    without a minus sign, is read by int(), which reads it as Fraction
    would and refuses the same over-long digit strings."""
    s = str(text).strip()
    digits = s[1:] if s[:1] == "-" else s
    try:
        if digits.isascii() and digits.isdigit():
            return Fraction(int(s))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational value {text!r}") from exc


def parse_entry(text, tau: Optional[QuadNum]) -> QuadNum:
    """Exact scalar: ``p/q``, ``tau``, ``-tau``, ``b*tau`` or ``a+b*tau``,
    or an int; a bool (JSON ``true``, ``false``) is refused, not read as 1
    or 0."""
    if isinstance(text, int) and not isinstance(text, bool):
        return QuadNum.rational(text)
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
    if not a and b == 1:
        return tau
    return QuadNum.rational(a) + QuadNum.rational(b) * tau


def _finite(value, convert, field: str, text=None):
    """convert(value), with convert float or as_int, refused with a
    ScenarioError naming the field when it is not a number, is not an
    integer (as_int) or does not fit a finite float or an int; ``text`` is
    the scenario's spelling of value."""
    shown = value if text is None else text
    try:
        out = convert(value)
        if convert is float and not math.isfinite(out):
            raise OverflowError
    except OverflowError as exc:
        kind = "a finite float" if convert is float else "an int"
        raise ScenarioError(f"{field} value {shown!r} does not fit {kind}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {field} value {shown!r}: {exc}") from exc
    return out


def _check_count(count: int, spec, field: str) -> None:
    """Refuse a sample count below one, or one whose coordinate arrays, a
    float64 row of ``count`` per coordinate and factor, numpy cannot shape
    (their byte size would pass the largest array index).  ``escmass run``
    streams its samples and forms no such arrays; the bound stays, so that
    any count a scenario states can also be sampled whole by
    ``measures.empirical_measure``."""
    if count < 1:
        raise ScenarioError(f"{field} must be positive")
    r, n = spec.shape
    # sys.maxsize is the largest Py_ssize_t, which numpy's intp matches
    if count * r * max(n, n * (n - 1) // 2) * 8 > sys.maxsize:
        raise ScenarioError(f"{field} {count} is too large for the coordinate arrays")


def _check_seed(seed: int, field: str) -> None:
    if seed < 0:
        raise ScenarioError(f"{field} must be non-negative")


def _parse_entries(obj, tau: Optional[QuadNum], seen: Dict[str, QuadNum]):
    """The exact entries of a bounded_part value, nested as in the scenario,
    each a finite float; its shape is SequenceSpec's to check.  Each
    distinct string is read and checked once per scenario: ``seen`` holds
    what it read."""
    if isinstance(obj, list):
        return [_parse_entries(x, tau, seen) for x in obj]
    text = obj if type(obj) is str else None
    if text is not None and text in seen:
        return seen[text]
    try:
        x = parse_entry(obj, tau)
    except ScenarioError as exc:
        raise ScenarioError(f"bad bounded_part entry: {exc}") from exc
    _finite(x, float, "bounded_part", obj)
    if text is not None:
        seen[text] = x
    return x


def _ints(values, field: str) -> List[int]:
    if not isinstance(values, list):
        raise ScenarioError(f"{field} must be a list of integers, got {values!r}")
    return [_finite(v, as_int, field) for v in values]


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
    conj = obj.get("conjugator")
    if kind in ("product", "trivial") and conj is not None:
        raise ScenarioError(f"{kind} subgroups take no conjugator")
    keys = _KIND_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ScenarioError(f"unknown subgroup kind {kind!r}")
    stray = set(obj) - keys - {"kind"}
    if stray:
        raise ScenarioError(f"unknown {kind} subgroup keys {sorted(stray)}")
    try:
        if kind == "product":
            factors = obj.get("factors")
            if not isinstance(factors, list):
                raise ScenarioError("product subgroups need a 'factors' list")
            return product_subgroup([_subgroup_from_json(f) for f in factors])
        n = _finite(obj["n"], as_int, "n")
        if kind == "one_param_unipotent":
            i, j = _ints(obj["coordinate"], "coordinate")
            return one_param_unipotent(n, (i, j), conjugator=conj)
        if kind == "full_unipotent_radical":
            return full_unipotent_radical(n, _ints(obj.get("I", []), "I"), conjugator=conj)
        if kind == "levi_semisimple_nc":
            return levi_semisimple_nc(n, _finite(obj["block"], as_int, "block"), conjugator=conj)
        if kind == "embedded_sl2":
            block = _finite(obj.get("block", 0), as_int, "block")
            return embedded_sl2(n, block, conjugator=conj)
        return trivial_subgroup(n)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad subgroup description: {exc}") from exc


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
    exact_direction = [_fraction(x) for x in direction]
    for text, x in zip(direction, exact_direction):
        _finite(x, float, "direction", text)
    bounded = seq_doc.get("bounded_part")
    if bounded is not None and bounded != "bounded":
        bounded = _parse_entries(bounded, tau, {})
    try:
        seq = sequence_spec(
            spec,
            exact_direction,
            bounded_part=bounded,
            conjugator_policy=seq_doc.get("conjugator_policy", "identity"),
            recorded_conjugator=seq_doc.get("recorded_conjugator"),
            indices=_ints(indices, "indices"),
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
    count = _finite(samp.get("count", 100000), as_int, "count")
    seed = _finite(samp.get("seed", 20240817), as_int, "seed")
    y_cap = _finite(samp.get("y_cap", Y_CAP_DEFAULT), float, "y_cap")
    sweep = samp.get("t_sweep", list(T_ESC_SWEEP))
    if not isinstance(sweep, list):
        raise ScenarioError("t_sweep must be a list of thresholds")
    t_sweep = tuple(_finite(t, float, "t_sweep") for t in sweep)
    _check_count(count, seq.subgroup, "sampling count")
    _check_seed(seed, "sampling seed")
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
    return sum(f.n - 1 for f in spec.parts)


def predicted_label(desc: LimitDescriptor, rank: int) -> FrozenSet[int]:
    """Histogram label the classification predicts for the late translates."""
    if desc.support_kind == "interior":
        return interior_label(rank)
    return frozenset(desc.P.I)


@dataclass
class RunResult:
    scenario: Scenario
    descriptor: LimitDescriptor
    predicted: FrozenSet[int]
    histograms: Dict[int, Dict[float, BoundaryHistogram]]
    points: Dict[int, EmpiricalMeasure]
    timings: Dict[int, float]
    agreement: Dict[float, dict]
    ok: bool
    sample_time: float


def run_scenario(scn: Scenario, jobs: int = 1) -> RunResult:
    """Classify, sample once, push the sample by every translate index, and
    compare at the last one.

    The samples are streamed (see ``measures.stream_measures``): each chunk
    is reduced, checked and folded into each index's histogram counts, and
    only the first ``POINTS_CAP`` reduced points of each index are kept, so
    memory does not grow with the sample count.  ``RunResult.points`` holds
    those points, not the whole measure.

    Agreement means: at the largest index, for every threshold in the sweep,
    the heaviest histogram label equals the predicted one and carries at
    least ``AGREEMENT_MIN_MASS`` of the samples.  With ``jobs > 1`` the
    translate indices of each sample chunk are pushed and reduced in
    parallel; the results are bit-identical.
    """
    desc = classify_scenario(scn.sequence)
    rank = _rank(scn.sequence.subgroup)
    pred = predicted_label(desc, rank)

    indices = scn.sequence.indices
    translates = [sequence_translate(scn.sequence, idx) for idx in indices]
    times = SamplingTimes()
    parallel = jobs > 1 and len(indices) > 1
    if parallel:  # imported here: concurrent.futures brings in logging
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(jobs, len(indices))) if parallel else nullcontext() as pool:
        streamed = stream_measures(
            scn.sequence.subgroup, translates, scn.count, scn.seed, scn.t_sweep,
            keep=POINTS_CAP, y_cap=scn.y_cap, executor=pool, times=times,
        )
    hists = {idx: dict(zip(scn.t_sweep, h)) for idx, (h, _) in zip(indices, streamed)}
    points = {idx: head for idx, (_, head) in zip(indices, streamed)}
    timings = dict(zip(indices, times.push_reduce))

    last = max(indices)
    agreement: Dict[float, dict] = {}
    ok = True
    for t in scn.t_sweep:
        h = hists[last][t]
        top = h.argmax()
        mass = float(h.fraction(top))
        match = top == pred and mass >= AGREEMENT_MIN_MASS
        agreement[t] = {"argmax": label_text(top, rank), "mass": mass, "match": match}
        ok = ok and match
    return RunResult(scn, desc, pred, hists, points, timings, agreement, ok, times.draw)


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
                label_text(lbl, rank): float(mass)
                for lbl, mass in res.histograms[idx][t].mass.items()
            }
            for t in scn.t_sweep
        }
        for idx in seq.indices
    }
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
            "component": label_text(res.predicted, rank),
            "predicted_label": label_text(res.predicted, rank),
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


# 10^(9 - e) at index e + _E_PAD, for e = floor(log10 |v|) of any v with
# 1e-100 <= |v| < 1e100, the values that may print with a two-digit exponent
_E_PAD = 101
_TEN_POWERS = 10.0 ** (9 - np.arange(-_E_PAD, _E_PAD + 1))
# the four ASCII digits of each of 0 .. 9999, and the last two of them
_DIGITS4 = (
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    .reshape(10000, 4)
)
_DIGITS2 = _DIGITS4[:, 2:].copy()


def _e_fields(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 16 ASCII bytes of ``"%+.9e" % v`` for each v of the float64
    array x, as an (len(x), 16) uint8 array, and a mask of the values whose
    bytes are those.

    |v| is scaled by 10^(9 - floor(log10 |v|)) into [1e9, 1e10) and
    rounded to ten digits, a round-up to 1e10 carried into the exponent.
    The scaling is off by at most about 3e-6, so a value whose scaled |v|
    lies 1e-5 or more from a rounding tie has only one correctly rounded
    10-digit form, and its bytes are exact.  The mask is false on the other
    values, and on non-finite values, subnormals and values whose exponent
    takes three digits; zeros are exact."""
    a = np.abs(x)
    live = (a >= 1e-100) & (a < 1e100)
    a = np.where(live, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    # log10 lands on the wrong side of a power of ten only for a value a
    # few ulps from it: y is then just below 1e9, and rounds up to it, or
    # just above 1e10, and carries like a round-up
    y = a * _TEN_POWERS[e + _E_PAD]
    q = np.floor(y)
    frac = y - q
    exact = live & (np.abs(frac - 0.5) >= 1e-5)
    q += frac > 0.5
    carry = q == 1e10
    q[carry] = 1e9
    e += carry
    exact &= np.abs(e) <= 99
    zero = x == 0
    exact |= zero
    q[zero] = 0.0  # a zero was scaled as 1.0, so its e is already 0
    # q = d0 * 10^9 + g1 * 10^5 + g2 * 10 + d9, each step exact in float64
    d0 = np.floor(q / 1e9)
    q -= d0 * 1e9
    g1 = np.floor(q / 1e5)
    q -= g1 * 1e5
    g2 = np.floor(q / 10.0)
    q -= g2 * 10.0
    out = np.empty((len(x), 16), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), ord("+"))
    out[:, 1] = d0 + 48
    out[:, 2] = ord(".")
    out[:, 3:7] = _DIGITS4.take(g1.astype(np.intp), axis=0)
    out[:, 7:11] = _DIGITS4.take(g2.astype(np.intp), axis=0)
    out[:, 11] = q + 48
    out[:, 12] = ord("e")
    out[:, 13] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 14:] = _DIGITS2.take(np.abs(e), axis=0)
    return out, exact


@lru_cache(maxsize=None)
def _points_layout(n: int, d: int, r: int) -> Tuple[str, np.ndarray, Tuple[int, ...]]:
    """The ``%`` format of a points line of r factors of n + d values, the
    line's bytes with every field blank and a newline at the end, and the
    byte offset of each field in it."""
    factor = " ".join(["%+.9e"] * n) + "   " + " ".join(["%+.9e"] * d)
    line = "  |  ".join([factor] * r)
    blank = line.replace("%+.9e", " " * 16) + "\n"
    # each 5-character "%+.9e" of the format becomes 16 bytes
    starts = [i for i in range(len(line)) if line.startswith("%+.9e", i)]
    offsets = tuple(s + 11 * j for j, s in enumerate(starts))
    return line, np.frombuffer(blank.encode("ascii"), np.uint8), offsets


def points_text(m: EmpiricalMeasure, cap: int = POINTS_CAP) -> str:
    """Columnar dump of the first min(cap, rows of m) reduced sample points
    (factors separated by '|'): the log diagonal, then the strictly-upper
    frame entries.  The header counts every sample of the measure, also
    when m holds only its first rows.

    Each point is one line: per factor, its n log_a values joined by " ",
    then "   ", then its n(n-1)/2 u values joined by " "; the factors are
    joined by "  |  ".  Every value is written as ``"%+.9e" % value``
    would write it, byte for byte.  The lines are built in one numpy pass
    (see _e_fields); a line holding a value that pass cannot write exactly
    (a non-finite value, a subnormal, one whose exponent takes three digits
    or one within 1e-5 of a rounding tie in its tenth digit) is written by
    ``%`` formatting instead."""
    _, r, n = m.log_a.shape
    d = m.u_coords.shape[2]
    k = min(cap, len(m.log_a))
    line, blank, offsets = _points_layout(n, d, r)
    rows = np.concatenate([m.log_a[:k], m.u_coords[:k]], axis=2).reshape(k, r * (n + d))
    fields, exact = _e_fields(rows.ravel())
    fields = fields.reshape(k, len(offsets), 16)
    buf = np.empty((k, len(blank)), np.uint8)
    buf[:] = blank
    for j, at in enumerate(offsets):
        buf[:, at:at + 16] = fields[:, j]
    parts = [
        f"# {k} of {m.sample_count} reduced points; per factor: "
        "log_a[0..n-1] then row-major strictly-upper u entries\n"
    ]
    start = 0
    for i in np.flatnonzero(~exact.reshape(k, len(offsets)).all(axis=1)).tolist():
        parts.append(buf[start:i].tobytes().decode("ascii"))
        parts.append(line % tuple(rows[i].tolist()) + "\n")
        start = i + 1
    parts.append(buf[start:].tobytes().decode("ascii"))
    return "".join(parts)


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
    meta.append(f"sample {res.sample_time:.3f}s (drawn once, shared by every index)")
    for idx in scn.sequence.indices:
        meta.append(f"index {idx}: push+reduce {res.timings[idx]:.3f}s")
    meta.append(f"total {res.sample_time + sum(res.timings.values()):.3f}s")
    (out / "meta.txt").write_text("\n".join(meta) + "\n")
    for idx in scn.sequence.indices:
        (out / f"points_{idx}.txt").write_text(points_text(res.points[idx]))
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
        f"predicted label {label_text(res.predicted, rank)}"
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


def _output_dir(path: Optional[str]) -> Optional[Path]:
    """The ``--out`` directory, made now, so that a path which cannot be a
    directory is refused before anything is classified or sampled."""
    if not path:
        return None
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {path} cannot be a directory: {exc.strerror or exc}") from exc
    return Path(path)


def cmd_run(args) -> int:
    try:
        if args.jobs < 1:
            raise ScenarioError("--jobs must be positive")
        scn = load_scenario(args.scenario)
        if args.samples is not None:
            _check_count(args.samples, scn.sequence.subgroup, "--samples")
            scn = replace(scn, count=args.samples)
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
            scn = replace(scn, seed=args.seed)
        out = _output_dir(args.out)
        res = run_scenario(scn, jobs=args.jobs)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotCoveredError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_NOT_COVERED
    except (OverflowError, PrecisionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: the sample arrays do not fit in memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if out is not None:
        try:
            write_outputs(res, out)
        except OSError as exc:
            print(f"error: cannot write the outputs to {out}: {exc}", file=sys.stderr)
            return EXIT_WRITE
    print_report(res)
    return EXIT_OK if res.ok else EXIT_DISAGREE


# per kind: the keys a subgroup object may give besides "kind", then what
# list-catalog prints
_CATALOG_ROWS = (
    (
        "full_unipotent_radical",
        frozenset({"n", "I", "conjugator"}),
        "n <= 4",
        "uniform box on the radical coordinates",
        "3x3 walk (raw or block_reduced stage)",
    ),
    (
        "levi_semisimple_nc",
        frozenset({"n", "block", "conjugator"}),
        "n in {3,4}",
        "Haar on the 2x2 block via its Iwasawa box",
        "twisted-wall escape test",
    ),
    (
        "embedded_sl2",
        frozenset({"n", "block", "conjugator"}),
        "n <= 4",
        "Haar on the 2x2 block via its Iwasawa box",
        "bounded factor atom in products",
    ),
    (
        "one_param_unipotent",
        frozenset({"n", "coordinate", "conjugator"}),
        "n <= 4",
        "uniform box on the line parameter",
        "3x3 walk; escape/bounded factor atom",
    ),
    (
        "trivial",
        frozenset({"n"}),
        "n <= 4",
        "point mass at the identity",
        "offset excursion atom in products",
    ),
    (
        "product",
        frozenset({"factors"}),
        "2x2 factors",
        "independent per-factor sampling",
        "per-factor escape atoms, joined",
    ),
)


# the keys of each kind, looked up by the scenario reader
_KIND_KEYS = {row[0]: row[1] for row in _CATALOG_ROWS}


def cmd_list_catalog(_args) -> int:
    width = max(len(row[0]) for row in _CATALOG_ROWS)
    print("subgroup catalog:")
    for kind, _keys, size, sampler, coverage in _CATALOG_ROWS:
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
    trials = args.trials
    if trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return EXIT_INPUT
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


@lru_cache(maxsize=None)
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
        "--jobs", type=int, default=1,
        help="push and reduce translate indices in parallel",
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


class _PipeGuard:
    """Stands for stdout or stderr while a command runs.  Once the reader
    of a pipe has gone, as in ``escmass list-catalog | head -1``, writing
    raises BrokenPipeError; any other failed write, as in ``escmass
    list-catalog > /dev/full``, raises another OSError, which is kept in
    ``error``.  Either way the rest of the stream goes to os.devnull, so the
    command runs on to its own exit code, and main reports a kept error."""

    def __init__(self, stream, name: str):
        self.stream, self.name, self.gone, self.error = stream, name, False, None

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text: str) -> None:
        self._call("write", text)

    def flush(self) -> None:
        self._call("flush")

    def _call(self, method: str, *args) -> None:
        try:
            if not self.gone:
                getattr(self.stream, method)(*args)
        except OSError as exc:
            import os

            if not isinstance(exc, BrokenPipeError):
                self.error = exc
            self.gone = True
            devnull = os.open(os.devnull, os.O_WRONLY)
            with suppress(AttributeError, OSError):  # the buffer is flushed at exit
                os.dup2(devnull, self.stream.fileno())
            os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code; a failed write to stdout
    or stderr other than a closed pipe ends it with one error line and
    exit code 1 instead."""
    streams = sys.stdout, sys.stderr
    guards = _PipeGuard(sys.stdout, "stdout"), _PipeGuard(sys.stderr, "stderr")
    sys.stdout, sys.stderr = guards
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
    except SystemExit as exc:  # --help, or a usage error
        code = exc.code
    finally:
        for guard in guards:
            guard.flush()
        sys.stdout, sys.stderr = streams
    for guard in guards:
        if guard.error is not None:
            with suppress(OSError):  # stderr itself may be the stream that failed
                print(f"error: cannot write to {guard.name}: {guard.error}", file=sys.stderr)
            return EXIT_WRITE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
