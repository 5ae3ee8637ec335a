"""The four benchmark workloads: how each corpus is generated from the seed,
what one operation runs, and how its result is checked.

Every operation is an *entry* of a corpus.  A run cycles through its corpus
in a closed loop, so each entry runs several times and gets its own median
time.  Entries carry a stable key; the references recorded at the commit
that defined the benchmark (``reference.json``) are looked up by that key.

Seeds: the default seed ``0`` reproduces every bundled scenario's stated
sampling seed and the reference corpora.  Any other seed draws other
products and other exact sequences, and re-seeds all sampling with the seed
itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

DEFAULT_SEED = 0
STATED_SEED = 20240817  # the sampling seed every bundled scenario states
SWEEP = (100.0, 1000.0, 10000.0)
TAU_LAW = ["0", "2"]  # tau = sqrt 2

WORKLOADS = ("sl3_corpus", "modular_products", "exact_corpus", "sl4_measures")

SL3_SCENARIOS = (
    "sl3_case1",
    "sl3_case2_1",
    "sl3_case2_2_1",
    "sl3_case2_2_2_1",
    "sl3_case2_2_2_2_1",
    "sl3_case2_2_2_2_2",
    "sl3_case2_2_2_2_3_1",
    "sl3_case2_2_2_2_3_2",
    "sl3_levi_block",
)
SL2_SCENARIOS = ("sl2_cusp", "sl2_mixed")

# Sample counts per measure.  The SL_3 scenarios run below their stated
# 100,000 so that one pass over the nine takes a few seconds: at the stated
# count a pass outlasts a run, and each scenario would be timed once.
SL3_COUNT = 16384
PRODUCT_COUNT = 100000  # the stated count of both bundled SL_2 scenarios
SL4_COUNT = 8192

# factors of each generated product.  Every seed deals the same multiset of
# factor atoms (each atom twice, three of them thrice) into products of these
# sizes, so every seed's corpus does about the same work.
PRODUCT_FACTORS = (1, 2, 3, 4, 2, 3)
EXACT_POOL_SIZE = 3000
EXACT_POOL_SEED = 2018
EXACT_PER_SEED = 300
# One exact operation classifies a batch of sequences.  Single
# classifications are bimodal in time (sequences outside the tree and
# products return in well under a millisecond, the rest take several), which
# would put the median operation time in the gap between the two modes.
EXACT_BATCH = 5


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Entry:
    """One operation of a corpus.

    ``run`` performs it and returns a JSON-able result; ``check`` returns
    None when that result is correct and a reason otherwise.  ``items`` is
    the work it does: reduced samples (count x indices x factors) for a
    sampling entry, classifications for an exact entry.
    """

    key: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


class Context:
    """What the corpus functions share: the imported package, the recorded
    references, and a scratch directory for ``escmass run --out``."""

    def __init__(self, reference: dict, tmp: Path):
        import escmass.cli
        import escmass.limits
        import escmass.measures

        self.cli = escmass.cli
        self.limits = escmass.limits
        self.measures = escmass.measures
        self.reference = reference
        self.tmp = tmp


def sampling_seed(seed: int) -> int:
    return STATED_SEED if seed == DEFAULT_SEED else seed


# ---------------------------------------------------------------------------
# results shared by the sampling workloads


def _component(desc) -> list:
    return ["interior"] if desc.support_kind == "interior" else sorted(desc.P.I)


def classifier_record(desc) -> dict:
    return {
        "support": desc.support_kind,
        "component": _component(desc),
        "notes": list(desc.notes),
    }


def _label(label, rank: int) -> str:
    if len(label) == rank:
        return "interior"
    return "(" + ",".join(str(i) for i in sorted(label)) + ")"


def histogram_counts(hist, count: int) -> Dict[str, int]:
    return {
        _label(lbl, hist.rank): int(round(mass * count))
        for lbl, mass in sorted(hist.mass.items(), key=lambda kv: sorted(kv[0]))
    }


def counts_close(got: Dict[str, int], ref: Dict[str, int]) -> bool:
    """Two independent histograms of one measure, equal sample counts: every
    label's counts differ by less than six standard deviations of a
    difference of two Poisson counts."""
    for label in set(got) | set(ref):
        a, b = got.get(label, 0), ref.get(label, 0)
        if abs(a - b) > 6.0 * math.sqrt(a + b + 2.0) + 2.0:
            return False
    return True


# ---------------------------------------------------------------------------
# escmass run on a bundled scenario


def _cli_entry(ctx: Context, name: str, count: Optional[int], seed: int) -> Entry:
    out = ctx.tmp / name
    argv = ["run", name, "--out", str(out), "--jobs", "1"]
    if count is not None:
        argv += ["--samples", str(count)]
    if seed != DEFAULT_SEED:
        argv += ["--seed", str(sampling_seed(seed))]
    scn = ctx.cli.load_scenario(name)
    used = scn.count if count is None else count
    items = used * len(scn.sequence.indices) * scn.sequence.subgroup.shape[0]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ctx.cli.main(argv)
        if code != 0:
            return {"exit": code}
        summary = (out / "summary.json").read_bytes()
        doc = json.loads(summary)
        return {
            "exit": code,
            "summary_sha256": hashlib.sha256(summary).hexdigest(),
            "verdict": doc["verdict"],
            "classifier": doc["classifier"],
        }

    def check(res) -> Optional[str]:
        ref = ctx.reference["scenarios"][name]
        if res["exit"] != 0:
            return f"escmass run exited {res['exit']}"
        if res["verdict"] != "agree":
            return "verdict disagree"
        if res["classifier"] != ref["classifier"]:
            return "classifier output differs from the reference"
        if seed == DEFAULT_SEED and res["summary_sha256"] != ref["summary_sha256"]:
            return "summary.json differs from the reference bytes"
        return None

    return Entry(name, items, run, check)


def build_sl3_corpus(ctx: Context, seed: int) -> List[Entry]:
    return [_cli_entry(ctx, name, SL3_COUNT, seed) for name in SL3_SCENARIOS]


# ---------------------------------------------------------------------------
# products of modular surfaces

# factor atoms: name and the sign of the factor's rate
_ATOMS = (
    ("embedded_sl2", 1),
    ("horocycle_expanding", 1),
    ("horocycle_contracting", -1),
    ("trivial_escaping", 1),
    ("trivial_bounded", 0),
    ("trivial_plunging", -1),
)
_OFFSETS = (None, "1/2", "tau")


def _factor_doc(atom: str) -> dict:
    if atom == "embedded_sl2":
        return {"kind": "embedded_sl2", "n": 2}
    if atom.startswith("horocycle"):
        return {"kind": "one_param_unipotent", "n": 2, "coordinate": [0, 1]}
    return {"kind": "trivial", "n": 2}


def product_doc(rng: random.Random, name: str, atoms, count: int, sample_seed: int) -> dict:
    """A product of the given factor atoms, each with a rate of 2 or 3 and
    some with a rational or ``tau`` offset."""
    factors, direction, bounded = [], [], []
    for atom, sign in atoms:
        rate = sign * rng.choice((2, 3))
        factors.append(_factor_doc(atom))
        direction += [str(rate), str(-rate)]
        off = rng.choice(_OFFSETS)
        bounded.append([["1", off or "0"], ["0", "1"]])
    seq = {
        "subgroup": {"kind": "product", "factors": factors},
        "direction": direction,
        "indices": [1, 2, 4],
    }
    if any(m[0][1] != "0" for m in bounded):
        seq["bounded_part"] = bounded
    return {
        "schema": "escape-scenario/1",
        "name": name,
        "tau_law": TAU_LAW,
        "sequence": seq,
        "sampling": {"count": count, "seed": sample_seed, "y_cap": 10000.0,
                     "t_sweep": list(SWEEP)},
    }


def _run_result_record(res, count: int) -> dict:
    return {
        "ok": bool(res.ok),
        "classifier": classifier_record(res.descriptor),
        "counts": {
            str(idx): {f"{t:g}": histogram_counts(h, count) for t, h in by_t.items()}
            for idx, by_t in sorted(res.histograms.items())
        },
    }


def _product_entry(ctx: Context, doc: dict, seed: int) -> Entry:
    scn = ctx.cli.scenario_from_json(doc)
    key = doc["name"]
    items = scn.count * len(scn.sequence.indices) * scn.sequence.subgroup.shape[0]

    def run():
        return _run_result_record(ctx.cli.run_scenario(scn, jobs=1), scn.count)

    def check(res) -> Optional[str]:
        if not res["ok"]:
            return "verdict disagree"
        ref = ctx.reference["products_default_seed"]
        if seed == DEFAULT_SEED and digest(res) != ref[key]:
            return "histogram counts differ from the reference"
        return None

    return Entry(key, items, run, check)


def product_docs(seed: int) -> List[dict]:
    rng = random.Random(f"products-{seed}")
    deck = list(_ATOMS) * 2 + list(_ATOMS[:3])
    assert len(deck) == sum(PRODUCT_FACTORS)
    rng.shuffle(deck)
    docs = []
    for k, r in enumerate(PRODUCT_FACTORS):
        atoms, deck = deck[:r], deck[r:]
        docs.append(product_doc(rng, f"product{k}-seed{seed}", atoms, PRODUCT_COUNT,
                                sampling_seed(seed)))
    return docs


def build_modular_products(ctx: Context, seed: int) -> List[Entry]:
    entries = [_cli_entry(ctx, name, None, seed) for name in SL2_SCENARIOS]
    entries += [_product_entry(ctx, doc, seed) for doc in product_docs(seed)]
    return entries


# ---------------------------------------------------------------------------
# exact classification corpus

_N3_SUBGROUPS = (
    {"kind": "one_param_unipotent", "n": 3, "coordinate": [0, 1]},
    {"kind": "one_param_unipotent", "n": 3, "coordinate": [1, 2]},
    {"kind": "one_param_unipotent", "n": 3, "coordinate": [0, 2]},
    {"kind": "full_unipotent_radical", "n": 3, "I": []},
    {"kind": "full_unipotent_radical", "n": 3, "I": [0]},
    {"kind": "full_unipotent_radical", "n": 3, "I": [1]},
    {"kind": "levi_semisimple_nc", "n": 3, "block": 0},
    {"kind": "levi_semisimple_nc", "n": 3, "block": 1},
    {"kind": "embedded_sl2", "n": 3, "block": 0},
    {"kind": "embedded_sl2", "n": 3, "block": 1},
)
_N3_CONJUGATORS = ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
_N3_OFFSETS = (
    None,
    [["1", "0", "0"], ["0", "1", "1/2"], ["0", "0", "1"]],
    [["1", "0", "0"], ["0", "1", "tau"], ["0", "0", "1"]],
    [["1", "1/3", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    [["1", "0", "tau"], ["0", "1", "0"], ["0", "0", "1"]],
)
_N4_SUBGROUPS = (
    {"kind": "levi_semisimple_nc", "n": 4, "block": 0},
    {"kind": "levi_semisimple_nc", "n": 4, "block": 1},
    {"kind": "levi_semisimple_nc", "n": 4, "block": 2},
    {"kind": "one_param_unipotent", "n": 4, "coordinate": [0, 3]},
    {"kind": "full_unipotent_radical", "n": 4, "I": [1]},
    {"kind": "embedded_sl2", "n": 4, "block": 1},
)


def _small_direction(rng: random.Random, n: int) -> List[str]:
    head = [rng.randint(-3, 3) for _ in range(n - 1)]
    return [str(x) for x in head + [-sum(head)]]


def _exact_doc(rng: random.Random, k: int) -> dict:
    roll = rng.random()
    if roll < 0.72:
        sub = dict(rng.choice(_N3_SUBGROUPS))
        if sub["kind"] != "levi_semisimple_nc" and rng.random() < 0.25:
            sub["conjugator"] = rng.choice(_N3_CONJUGATORS)
        stage = "block_reduced" if rng.random() < 0.15 else "raw"
        seq = {"subgroup": sub, "direction": _small_direction(rng, 3), "stage": stage}
        off = rng.choice(_N3_OFFSETS)
        if off is not None:
            seq["bounded_part"] = off
    elif roll < 0.85:
        factors, direction, bounded = [], [], []
        for _ in range(rng.randint(1, 3)):
            atom, _sign = rng.choice(_ATOMS)
            factors.append(_factor_doc(atom))
            direction += _small_direction(rng, 2)
            bounded.append([["1", rng.choice(_OFFSETS) or "0"], ["0", "1"]])
        seq = {"subgroup": {"kind": "product", "factors": factors},
               "direction": direction, "bounded_part": bounded}
    else:
        subs = _N4_SUBGROUPS[:3] if rng.random() < 0.5 else _N4_SUBGROUPS[3:]
        seq = {"subgroup": rng.choice(subs), "direction": _small_direction(rng, 4)}
    return {"schema": "escape-scenario/1", "name": f"exact{k}", "tau_law": TAU_LAW,
            "sequence": seq}


def exact_pool() -> List[dict]:
    """The fixed pool every exact corpus is drawn from: mostly ``SL_3``
    sequences (catalog subgroup x small integer direction x offset none,
    rational or tau x stage x conjugator), some products of modular
    surfaces, and ``SL_4`` sequences, half of them Levi blocks and half
    outside the decision tree."""
    rng = random.Random(EXACT_POOL_SEED)
    return [_exact_doc(rng, k) for k in range(EXACT_POOL_SIZE)]


def exact_outcome(ctx: Context, seq) -> dict:
    try:
        desc = ctx.cli.classify_scenario(seq)
    except ctx.limits.NotCoveredError:
        return {"not_covered": True}
    return classifier_record(desc)


def build_exact_corpus(ctx: Context, seed: int) -> List[Entry]:
    ref = ctx.reference["exact_pool"]
    pool = exact_pool()
    if digest(pool) != ref["pool_digest"]:
        raise RuntimeError("the exact pool no longer matches its recorded reference")
    usable = [k for k, d in enumerate(ref["results"]) if d is not None]
    picked = random.Random(f"exact-{seed}").sample(usable, EXACT_PER_SEED)
    entries = []
    for b in range(0, len(picked), EXACT_BATCH):
        batch = picked[b : b + EXACT_BATCH]
        seqs = [ctx.cli.scenario_from_json(pool[k]).sequence for k in batch]
        expected = [ref["results"][k] for k in batch]

        def run(seqs=seqs):
            return [exact_outcome(ctx, seq) for seq in seqs]

        def check(res, expected=expected) -> Optional[str]:
            if [digest(r) for r in res] != expected:
                return "classification differs from the reference"
            return None

        key = "+".join(pool[k]["name"] for k in batch)
        entries.append(Entry(key, len(batch), run, check))
    return entries


# ---------------------------------------------------------------------------
# SL_4 measures

# one subgroup of each n = 4 catalog kind; the seed only re-seeds sampling,
# so every seed's corpus does the same work
_SL4_SUBGROUPS = (
    {"kind": "full_unipotent_radical", "n": 4, "I": [1]},
    {"kind": "one_param_unipotent", "n": 4, "coordinate": [0, 3]},
    {"kind": "embedded_sl2", "n": 4, "block": 1},
    {"kind": "levi_semisimple_nc", "n": 4, "block": 0},
)
_SL4_DIRECTIONS = (["3", "3", "-3", "-3"], ["3", "1", "-1", "-3"], ["6", "-2", "-2", "-2"])
SL4_INDICES = (1, 2, 4)


def sl4_items() -> List[dict]:
    """Every ``SL_4`` measure: subgroup x direction x index."""
    return [
        {"key": f"{sub['kind']}-d{d}-i{idx}", "subgroup": sub, "direction": direction,
         "index": idx}
        for sub in _SL4_SUBGROUPS
        for d, direction in enumerate(_SL4_DIRECTIONS)
        for idx in SL4_INDICES
    ]


def sl4_translate(ctx: Context, item: dict):
    """(subgroup spec, translate) of one item."""
    doc = {"schema": "escape-scenario/1", "name": item["key"],
           "sequence": {"subgroup": item["subgroup"], "direction": item["direction"]}}
    seq = ctx.cli.scenario_from_json(doc).sequence
    return seq.subgroup, ctx.limits.sequence_translate(seq, item["index"])


def sl4_measure(ctx: Context, spec, g, seed: int, count: int) -> dict:
    m = ctx.cli.empirical_measure(spec, g, count, sampling_seed(seed))
    return {f"{t:g}": histogram_counts(ctx.cli.boundary_histogram(m, t), count)
            for t in SWEEP}


def build_sl4_measures(ctx: Context, seed: int) -> List[Entry]:
    entries = []
    for item in sl4_items():
        spec, g = sl4_translate(ctx, item)
        key = item["key"]

        def run(spec=spec, g=g):
            return sl4_measure(ctx, spec, g, seed, SL4_COUNT)

        def check(res, key=key) -> Optional[str]:
            expected = ctx.reference["sl4_measures"][key]
            if seed == DEFAULT_SEED:
                return None if res == expected else "histogram counts differ from the reference"
            if all(counts_close(res[t], expected[t]) for t in expected):
                return None
            return "histogram masses moved beyond sampling noise"

        entries.append(Entry(key, SL4_COUNT, run, check))
    return entries


CORPORA = {
    "sl3_corpus": build_sl3_corpus,
    "modular_products": build_modular_products,
    "exact_corpus": build_exact_corpus,
    "sl4_measures": build_sl4_measures,
}
