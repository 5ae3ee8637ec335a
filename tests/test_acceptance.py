"""Acceptance gate: ten end-to-end checks, one test per numbered criterion.

Every tolerance and time budget is stated inline, all randomness is seeded,
and ``pytest -v`` prints one pass/fail line per criterion.  The Monte Carlo
checks run at desk scale (10^4 .. 10^5 samples) with margins far above the
asserted thresholds, so a red line here means a real regression rather than
sampling noise.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from escmass.cli import _random_group, load_scenario, predicted_label
from escmass.limits import (
    ma_split,
    sequence_spec,
    sequence_translate,
    sl2r_classify,
    sl3_classify,
    unip_limit_I,
)
from escmass.lingrp import ParabolicIndex, iwasawa, langlands, verify_dalpha
from escmass.measures import (
    boundary_histogram,
    embedded_sl2,
    empirical_measure,
    one_param_unipotent,
    product_subgroup,
    trivial_subgroup,
)
from escmass.rootsys import (
    WeightVector,
    build_type_a,
    canonical_face,
    locate_chamber,
    make_vector,
    pairing,
    project_weight,
    quasi_fundamental_weights,
    weyl_elements,
)
from escmass.rootsys import _inverse_cartan


def _standard_maximal(n):
    return [ParabolicIndex(n, frozenset(range(n - 1)) - {a}) for a in range(n - 1)]


# --------------------------------------------------------------------------
# 1. decomposition round-trips


def test_01_decomposition_suite():
    """1000 random elements per n in {2,3,4}: both factorizations rebuild the
    input to 1e-9 and every rotation part is orthogonal to 1e-10, in <10s."""
    rng = np.random.default_rng(20240817)
    start = time.monotonic()
    for n in (2, 3, 4):
        eye = np.eye(n)
        for _ in range(1000):
            g = _random_group(rng, n)
            parts = iwasawa(g)
            assert np.max(np.abs(parts.reconstruct() - g.mat)) <= 1e-9
            assert np.max(np.abs(parts.k_part @ parts.k_part.T - eye)) <= 1e-10
            for P in _standard_maximal(n):
                lp = langlands(g, P)
                assert np.max(np.abs(lp.reconstruct() - g.mat)) <= 1e-9
                assert np.max(np.abs(lp.k_part @ lp.k_part.T - eye)) <= 1e-10
    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# 2. the divergence-detector identity


def test_02_wedge_norm_identity():
    """The nilradical wedge norm and the root-value product agree to 1e-8 on
    100 random elements for every standard maximal block structure."""
    rng = np.random.default_rng(8128)
    for n in (2, 3, 4):
        for _ in range(100):
            g = _random_group(rng, n)
            for P in _standard_maximal(n):
                assert verify_dalpha(g, P) <= 1e-8


# --------------------------------------------------------------------------
# 3. exact root-system identities


def test_03_exact_root_identities():
    """Rank 1..8: the inverse Cartan matrix is entrywise positive and the dual
    basis pairs to exactly delta_ab; for every wall subset at n <= 4 the
    projection of an outside simple root onto the subset span has non-positive
    coefficients.  All exact rational arithmetic, < 1s."""
    start = time.monotonic()
    for n in range(2, 10):
        rs = build_type_a(n)
        inv = _inverse_cartan(rs)
        c = rs.cartan
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert inv[i][j] > 0
                prod = sum(Fraction(c[i][k]) * inv[k][j] for k in range(rs.rank))
                assert prod == (1 if i == j else 0)
        for a, chi in enumerate(quasi_fundamental_weights(rs)):
            amb = chi.ambient()
            for b, beta in enumerate(rs.simple_roots):
                assert pairing(rs, amb, beta) == (1 if a == b else 0)
    for n in (2, 3, 4):
        rs = build_type_a(n)
        for r in range(n):
            for I in itertools.combinations(range(n - 1), r):
                for b in set(range(n - 1)) - set(I):
                    unit = tuple(
                        Fraction(1 if k == b else 0) for k in range(n - 1)
                    )
                    proj = project_weight(rs, I, WeightVector(rs, unit))
                    assert all(coef <= 0 for coef in proj.coords)
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# 4. the chamber-face partition


def test_04_chamber_partition():
    """1000 random rational directions for each of n=3,4 land in exactly one
    canonical face cone, enumerated exhaustively over the Weyl group and all
    wall subsets, and that face is the one locate_chamber reports.  < 5s."""
    rng = random.Random(1106)
    start = time.monotonic()
    for n, face_count in ((3, 13), (4, 75)):
        rs = build_type_a(n)
        faces = {}
        for w in weyl_elements(rs):
            for r in range(n):
                for I in itertools.combinations(range(n - 1), r):
                    f = canonical_face(w, frozenset(I))
                    faces[f.key()] = f
        # canonical faces biject with ordered set partitions of n letters
        assert len(faces) == face_count
        for _ in range(1000):
            raw = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
            shift = sum(raw) / n
            v = make_vector(rs, [x - shift for x in raw])
            hits = []
            for f in faces.values():
                p = f.w.one_line()
                u = [v[p[k]] for k in range(n)]
                inside = all(
                    (u[k] == u[k + 1]) if k in f.I else (u[k] > u[k + 1])
                    for k in range(n - 1)
                )
                if inside:
                    hits.append(f)
            assert len(hits) == 1
            assert hits[0].key() == locate_chamber(rs, v).key()
    assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------
# 5. rank-one escape at desk scale


def test_05_rank_one_escape():
    """A unipotent line pushed by diag(e^5, e^-5) lifts every sample to height
    e^10, so the threshold-10^3 histogram puts all mass on the empty label;
    unpushed, everything stays in the interior window.  10^5 samples, <30s."""
    start = time.monotonic()
    line = one_param_unipotent(2, (0, 1))
    pushed = np.diag([math.exp(5.0), math.exp(-5.0)])[None]
    m_up = empirical_measure(line, pushed, 100000, 20240817)
    h = boundary_histogram(m_up, 1e3)
    assert h.mass.get(frozenset(), 0.0) >= 0.999  # closed form: exactly 1.0
    m_flat = empirical_measure(line, np.eye(2)[None], 100000, 20240817)
    # the window |u| <= 1/2, every root value at most 10^3
    roots = m_flat.log_a[:, :, :-1] - m_flat.log_a[:, :, 1:]
    inside = np.all(np.exp(roots) <= 1e3, axis=(1, 2))
    inside &= np.all(np.abs(m_flat.u_coords.reshape(100000, -1)) <= 0.5, axis=1)
    assert np.count_nonzero(inside) / 100000 >= 0.999
    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# 6. the 3x3 branch corpus


_CASE_NAMES = (
    "sl3_case1",
    "sl3_case2_1",
    "sl3_case2_2_1",
    "sl3_case2_2_2_1",
    "sl3_case2_2_2_2_1",
    "sl3_case2_2_2_2_2",
    "sl3_case2_2_2_2_3_1",
    "sl3_case2_2_2_2_3_2",
)


def _corpus_agrees(scn, seed, y_cap, count):
    """At the largest recorded index the argmax histogram bin must carry at
    least 0.95 of the mass and match the classifier, at every threshold."""
    desc = sl3_classify(scn.sequence)
    pred = predicted_label(desc, 2)
    idx = max(scn.sequence.indices)
    m = empirical_measure(
        scn.sequence.subgroup, sequence_translate(scn.sequence, idx), count, seed, y_cap
    )
    for t in (1e2, 1e3, 1e4):
        label, mass = max(boundary_histogram(m, t).mass.items(), key=lambda kv: kv[1])
        if label != pred or mass < 0.95:
            return False
    return True


def _case1_growth_law():
    """The wall-escape branch's recorded growth rate against evaluated root
    values: with the translate split as an inner block coordinate y and a
    central coordinate x, the escaping-root value equals (y*x)^(3/2)."""
    scn = load_scenario("sl3_case1")
    desc = sl3_classify(scn.sequence)
    note = next(s for s in desc.notes if "levi_growth_rate=" in s)
    rate = Fraction(note.split("levi_growth_rate=")[1])
    walk = next(s for s in desc.notes if s.startswith("m_walk:"))
    rho_block = Fraction(walk.split("rho=")[1])
    v = [Fraction(c) for c in scn.sequence.direction]
    rho_center = (v[0] + v[1]) / 2
    assert rho_block == v[0] - rho_center
    assert rate == Fraction(3, 2) * (rho_block + rho_center)
    for idx in (1, 2, 3, 4, 5):
        t = [math.exp(idx * float(c)) for c in v]
        rv = (t[0] / t[1], t[1] / t[2])  # evaluated simple-root values
        y = math.sqrt(rv[0])
        x = (rv[1] * y) ** (1.0 / 3.0)
        escaping = (t[1] * t[2]) ** -1.5  # root value on the central part
        assert abs(escaping - (y * x) ** 1.5) <= 1e-9 * escaping
        assert abs(escaping - math.exp(float(rate) * idx)) <= 1e-9 * escaping


def test_06_case_corpus():
    """One scenario per encoded 3x3 branch: classifier label == argmax bin
    with mass >= 0.95 at the largest index for thresholds 10^2..10^4, 10^5
    samples each, plus the exact growth law on the wall-escape branch.
    Total < 5 min."""
    start = time.monotonic()
    for name in _CASE_NAMES:
        scn = load_scenario(name)
        assert _corpus_agrees(scn, scn.seed, scn.y_cap, 100000), name
    _case1_growth_law()
    assert time.monotonic() - start < 300.0


# --------------------------------------------------------------------------
# 7. the maximal bounded wall subset


def _block_average(n, v, I):
    """Average v over the runs of coordinates joined by the walls in I."""
    out = list(v)
    k = 0
    while k < n:
        j = k
        while j < n - 1 and j in I:
            j += 1
        block = range(k, j + 1)
        mean = sum(v[c] for c in block) / len(block)
        for c in block:
            out[c] = mean
        k = j + 1
    return tuple(out)


def test_07_unipotent_limit_algorithm():
    """50 random rational directions across n=3,4: brute force over all wall
    subsets confirms the reported subset is the unique maximal one whose inner
    component is non-positive on the dual basis, and the escape certificate
    rates are exactly the pairings of the averaged direction."""
    rng = random.Random(1207)
    for n in (3, 4):
        rs = build_type_a(n)
        chis = quasi_fundamental_weights(rs)
        for _ in range(25):
            raw = [
                Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                for _ in range(n - 1)
            ]
            v = make_vector(rs, raw + [-sum(raw)])
            I, cert = unip_limit_I(v, rs)
            good = []
            for r in range(n):
                for S in itertools.combinations(range(n - 1), r):
                    avg = _block_average(n, v, frozenset(S))
                    inner = tuple(a - b for a, b in zip(v, avg))
                    if all(pairing(rs, inner, c.ambient()) <= 0 for c in chis):
                        good.append(set(S))
            assert set(I) in good
            assert all(S <= set(I) for S in good)
            v_I = _block_average(n, v, I)
            assert set(cert) == set(range(n - 1)) - set(I)
            for a, rate in cert.items():
                assert rate > 0
                assert rate == pairing(rs, v_I, rs.simple_roots[a])


# --------------------------------------------------------------------------
# 8. splitting torus directions fixed by walls


def test_08_torus_splitting():
    """50 directions in the wall-fixed torus Lie algebras, over every wall
    subset of the 3x3 system: the split certificates hold exactly and the
    twisted center lands inside the original wall-fixed torus."""
    rng = random.Random(2026)
    rs = build_type_a(3)
    chis = quasi_fundamental_weights(rs)
    jobs = []
    for I in ((), (0,), (1,)):
        for _ in range(16):
            v = [Fraction(0)] * 3
            for b in set(range(2)) - set(I):
                coef = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                v = [x + coef * y for x, y in zip(v, chis[b].ambient())]
            jobs.append((I, tuple(v)))
    jobs += [((0, 1), (Fraction(0),) * 3)] * 2  # the full-wall torus is trivial
    assert len(jobs) == 50
    for I, v in jobs:
        w, J, R_inf = ma_split(v, I, rs)
        assert R_inf == frozenset(range(2)) - J
        for a in R_inf:
            assert pairing(rs, v, w.act(rs.simple_roots[a])) > 0
        for a in J:
            assert pairing(rs, v, w.act(rs.simple_roots[a])) == 0
        for b in set(range(2)) - set(J):
            image = w.act(chis[b].ambient())
            for a in I:
                assert pairing(rs, image, rs.simple_roots[a]) == 0


# --------------------------------------------------------------------------
# 9. three-factor products of the modular surface


_FACTOR_ATOMS = {
    "sl2": (lambda: embedded_sl2(2), (1, -1)),
    "unipotent-escape": (lambda: one_param_unipotent(2, (0, 1)), (2, -2)),
    "unipotent-bounded": (lambda: one_param_unipotent(2, (0, 1)), (-2, 2)),
    "trivial-escape": (lambda: trivial_subgroup(2), (2, -2)),
    "trivial-bounded": (lambda: trivial_subgroup(2), (0, 0)),
}


def test_09_product_factors():
    """All 3-factor kind combinations, deterministically sampled down to 30:
    the partition classifier's bounded-factor set matches the Monte Carlo
    escape verdict on every factor at 10^4 samples.  < 10 min."""
    start = time.monotonic()
    rng = random.Random(20240817)
    combos = sorted(itertools.product(sorted(_FACTOR_ATOMS), repeat=3))
    assert len(combos) == len(_FACTOR_ATOMS) ** 3
    for combo in rng.sample(combos, 30):
        spec = product_subgroup([_FACTOR_ATOMS[k][0]() for k in combo])
        direction = [c for k in combo for c in _FACTOR_ATOMS[k][1]]
        seq = sequence_spec(spec, direction)
        bounded = set(sl2r_classify(seq).P.I)
        m = empirical_measure(spec, sequence_translate(seq, max(seq.indices)), 10000, 496)
        roots = m.log_a[:, :, 0] - m.log_a[:, :, 1]  # the one root of each factor
        frac = (roots > math.log(100.0)).mean(axis=0)
        for f in range(3):
            assert (frac[f] > 0.5) == (f not in bounded), (combo, f, frac)
    assert time.monotonic() - start < 600.0


# --------------------------------------------------------------------------
# 10. robustness of the corpus verdicts


def test_10_robustness():
    """The corpus verdicts survive doubling the sampler height cap and five
    different Monte Carlo seeds."""
    for name in _CASE_NAMES:
        scn = load_scenario(name)
        assert _corpus_agrees(scn, scn.seed, 2.0 * scn.y_cap, 100000), (
            name,
            "doubled height cap",
        )
        for seed in (11, 22, 33, 44, 55):
            assert _corpus_agrees(scn, seed, scn.y_cap, 100000), (name, seed)
