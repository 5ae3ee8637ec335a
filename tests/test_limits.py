"""Limit-classifier tests: frozen verdicts for the bundled branch scenarios,
brute-force oracles for the hull and chamber splitters, and the exactness
invariants (conjugation insensitivity, twist bookkeeping, refusal paths)."""

import dataclasses
import doctest
import hashlib
import importlib.util
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import escmass.limits
from escmass.cli import classify_scenario, scenario_from_json
from escmass.limits import (
    LimitDescriptor,
    NotCoveredError,
    ProductParabolicIndex,
    SequenceSpec,
    _lie_fits,
    _sl3_m_stage,
    _strip_conjugation,
    _theta_lie,
    _theta_unipotent,
    _weyl_conjugate,
    delta_truncated,
    levi_translate_classify,
    ma_split,
    sequence_spec,
    sequence_translate,
    sl2r_classify,
    sl3_classify,
    unip_limit_I,
)
from escmass.lingrp import GroupElement, ParabolicIndex
from escmass.measures import (
    SubgroupSpec,
    embedded_sl2,
    full_unipotent_radical,
    levi_semisimple_nc,
    lie_generators,
    one_param_unipotent,
    product_subgroup,
    trivial_subgroup,
)
from escmass.qfield import QuadNum, qmat, qmat_mul, qmat_unipotent_inverse, rat_mul
from escmass.rootsys import (
    WeylElement,
    _coordinate_blocks,
    build_product,
    build_type_a,
    make_vector,
    pairing,
    quasi_fundamental_weights,
    weyl_elements,
)

Z, O = QuadNum.zero(), QuadNum.one()


def upper3(u01=0, u02=0, u12=0):
    def q(x):
        return x if isinstance(x, QuadNum) else QuadNum.rational(Fraction(x))

    return ((O, q(u01), q(u02)), (Z, O, q(u12)), (Z, Z, O))


def upper2(x=0):
    q = x if isinstance(x, QuadNum) else QuadNum.rational(Fraction(x))
    return ((O, q), (Z, O))


def test_doctests():
    failures, _ = doctest.testmod(escmass.limits)
    assert failures == 0


# ---------------------------------------------------------------------------
# sequence descriptions


def test_sequence_spec_validation():
    with pytest.raises(ValueError):
        sequence_spec(one_param_unipotent(3, (0, 1)), [1, 1, 1])  # not sum-zero
    with pytest.raises(ValueError):
        sequence_spec(one_param_unipotent(3, (0, 1)), [1, 0, -1], indices=(2, 2))
    with pytest.raises(ValueError):
        sequence_spec(one_param_unipotent(3, (0, 1)), [1, 0, -1], conjugator_policy="free")
    with pytest.raises(ValueError):
        sequence_spec(one_param_unipotent(3, (0, 1)), [1, 0, -1], conjugator_policy="recorded")
    with pytest.raises(ValueError):
        sequence_spec(one_param_unipotent(3, (0, 1)), [1, 0, -1], stage="cooked")
    with pytest.raises(ValueError):
        sequence_spec(one_param_unipotent(3, (0, 1)), [1, 0, -1], bounded_part=upper2())


def test_limit_descriptor_invariant():
    with pytest.raises(ValueError):
        LimitDescriptor(ParabolicIndex(3, frozenset()), "interior")
    with pytest.raises(ValueError):
        LimitDescriptor(ParabolicIndex(3, frozenset({0, 1})), "boundary_homogeneous")
    with pytest.raises(ValueError):
        LimitDescriptor(ParabolicIndex(3, frozenset()), "point_mass")
    d = LimitDescriptor(ProductParabolicIndex(2, frozenset({0, 1})), "interior")
    assert d.P.is_group


def test_sequence_translate_shapes():
    seq = sequence_spec(one_param_unipotent(3, (0, 1)), [1, 0, -1], bounded_part=upper3(u12="1/2"))
    g = sequence_translate(seq, 2)
    assert g.shape == (1, 3, 3)
    assert np.allclose(np.diag(g[0]), np.exp([2, 0, -2]))
    assert np.isclose(g[0][1, 2], 0.5 * np.exp(-2))
    prod = sequence_spec(
        product_subgroup([trivial_subgroup(2), trivial_subgroup(2)]),
        [1, -1, -2, 2],
        bounded_part=(upper2("1/3"), upper2(0)),
    )
    gp = sequence_translate(prod, 1)
    assert gp.shape == (2, 2, 2)
    assert np.isclose(gp[0][0, 1], (1 / 3) * np.exp(-1))


@pytest.mark.parametrize(
    "factor",
    [
        trivial_subgroup(2),
        one_param_unipotent(2, (0, 1), conjugator=((1, 0), (1, 1))),
        embedded_sl2(2, conjugator=((2, 1), (1, 1))),
    ],
)
def test_single_factor_is_a_product_of_one_factor(factor):
    """The bare single-factor spec and the one-factor product with the same
    2x2 data translate to the same bits and ingest to the same offset."""
    offset, recorded = upper2(QuadNum.tau(0, 2)), ((1, 1), (0, 1))
    bare = sequence_spec(
        factor, [3, -3], bounded_part=offset,
        conjugator_policy="recorded", recorded_conjugator=recorded,
    )
    one = sequence_spec(
        product_subgroup([factor]), [3, -3], bounded_part=[offset],
        conjugator_policy="recorded", recorded_conjugator=[recorded],
    )
    assert bare.bounded_part == one.bounded_part
    assert bare.recorded_conjugator == one.recorded_conjugator
    for index in (1, 2, 4):
        g_bare, g_one = sequence_translate(bare, index), sequence_translate(one, index)
        assert g_bare.shape == g_one.shape == (1, 2, 2)
        assert g_bare.tobytes() == g_one.tobytes()
    spec_bare, h_bare, _ = _strip_conjugation(bare, 0)
    spec_one, h_one, _ = _strip_conjugation(one, 0)
    assert h_bare == h_one
    assert spec_bare == spec_one == dataclasses.replace(factor, conjugator=None)


def test_sequence_spec_stores_one_matrix_per_factor():
    line = one_param_unipotent(3, (0, 1))
    offset = upper3(u12="1/2")
    seq = SequenceSpec(
        line, [1, 0, -1], bounded_part=offset,
        conjugator_policy="recorded", recorded_conjugator=[[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    )
    assert seq.bounded_part == (qmat(offset),)
    assert seq.recorded_conjugator == (((1, 0, 0), (0, 1, 1), (0, 0, 1)),)
    assert all(type(v) is int for row in seq.recorded_conjugator[0] for v in row)
    # normalising is idempotent, and the public name is the constructor
    assert dataclasses.replace(seq) == seq
    assert sequence_spec is SequenceSpec
    assert SequenceSpec(line, [1, 0, -1], bounded_part="bounded").bounded_part == "bounded"
    with pytest.raises(ValueError, match="determinant one"):
        SequenceSpec(
            line, [1, 0, -1], conjugator_policy="recorded",
            recorded_conjugator=((2, 0, 0), (0, 1, 0), (0, 0, 1)),
        )


def test_non_integral_conjugators_are_refused_not_truncated():
    """A conjugator entry of 0.5 would truncate to 0 under int(), silently
    moving the subgroup or the recorded left factor; both refuse it."""
    half = [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="conjugator must have integer entries"):
        one_param_unipotent(3, (1, 2), conjugator=half)
    line = one_param_unipotent(3, (1, 2))
    with pytest.raises(ValueError, match="recorded conjugator must have integer entries"):
        SequenceSpec(line, [9, -6, -3], conjugator_policy="recorded", recorded_conjugator=half)
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        SequenceSpec(line, [9, -6, -3], indices=(1, 1.5))
    with pytest.raises(ValueError, match="bounded part must list one 2x2 matrix per factor"):
        SequenceSpec(product_subgroup([trivial_subgroup(2)] * 2), [1, -1, 0, 0], bounded_part=5)


def test_offsets_must_lie_in_sl_n():
    """The determinant of each offset factor is exact in Q(tau): one, and
    only one, is accepted."""
    t = QuadNum.tau(0, 2)
    pair = product_subgroup([trivial_subgroup(2)] * 2)
    ok = SequenceSpec(pair, [1, -1, 0, 0], bounded_part=(((t, 1), (1, t)), upper2("1/2")))
    assert ok.bounded_part[0] == qmat(((t, 1), (1, t)))
    for offset, det in ((((t, 1), (1, 1)), "-1 + 1*tau"), (((0, 0), (0, 0)), "0"),
                        (((2, 0), (0, Fraction(1, 3))), "2/3")):
        with pytest.raises(ValueError, match=re.escape(f"must have determinant one, not {det}")):
            SequenceSpec(pair, [1, -1, 0, 0], bounded_part=(upper2(), offset))
    with pytest.raises(ValueError, match="determinant one, not -1"):
        SequenceSpec(one_param_unipotent(3, (0, 1)), [1, 0, -1],
                     bounded_part=((0, 1, 0), (1, 0, 0), (0, 0, 1)))


# ---------------------------------------------------------------------------
# truncated escape infimum


def test_delta_unipotent_values():
    spec = one_param_unipotent(2, (0, 1))
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    assert delta_truncated(spec, GroupElement(rot), 1) == pytest.approx(1.0, rel=1e-9)
    g = GroupElement(np.array([[2.0, 0.0], [0.0, 0.5]]))
    # d(g^-1) = t^-2 at gamma = identity; no small-height gamma does better
    assert delta_truncated(spec, g, 1) == pytest.approx(0.25, rel=1e-9)
    assert delta_truncated(spec, g, 2) == pytest.approx(0.25, rel=1e-9)


def test_delta_no_parabolic_means_infinity():
    assert delta_truncated(embedded_sl2(2), GroupElement(np.eye(2)), 2) == float("inf")


def test_delta_levi_block():
    val = delta_truncated(levi_semisimple_nc(3, 0), GroupElement(np.eye(3)), 1)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_delta_conjugated_spec_monotone():
    spec = one_param_unipotent(2, (0, 1), conjugator=((1, 0), (5, 1)))
    e = GroupElement(np.eye(2))
    assert delta_truncated(spec, e, 1) == float("inf")
    assert delta_truncated(spec, e, 4) == float("inf")
    # the conjugator itself enters the window at height 5; d(gamma) = 26
    v5 = delta_truncated(spec, e, 5)
    assert v5 == pytest.approx(26.0, rel=1e-9)
    assert delta_truncated(spec, e, 6) <= v5


def test_delta_trivial_spec_finite():
    assert delta_truncated(trivial_subgroup(2), GroupElement(np.eye(2)), 1) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# containment lists


def test_parabolics_containing_catalog():
    """The standard parabolics whose Lie algebra holds every generator of a
    catalog subgroup, smallest first."""

    def eyes(spec):
        n = spec.n
        return [
            I
            for r in range(n)
            for I in itertools.combinations(range(n - 1), r)
            if all(_lie_fits(X, ParabolicIndex(n, frozenset(I))) for X in lie_generators(spec))
        ]

    assert eyes(full_unipotent_radical(3, [])) == [(), (0,), (1,), (0, 1)]
    assert eyes(trivial_subgroup(3)) == [(), (0,), (1,), (0, 1)]
    assert eyes(levi_semisimple_nc(3, 1)) == [(1,), (0, 1)]
    assert eyes(embedded_sl2(3, 0)) == [(0,), (0, 1)]
    assert eyes(one_param_unipotent(3, (0, 2))) == [(), (0,), (1,), (0, 1)]
    # any strictly upper set fits every standard pattern
    assert eyes(full_unipotent_radical(4, [1])) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
    ]


# ---------------------------------------------------------------------------
# hull splitter with a brute-force subset oracle


def _bounded_inside(rs, v, I):
    """Independent predicate: the I-inner component of v has non-positive
    pairings against every quasi-fundamental weight."""
    blocks = _coordinate_blocks(rs, frozenset(I))
    v_comp = list(v)
    for b in blocks:
        mean = sum(v[c] for c in b) / len(b)
        for c in b:
            v_comp[c] = mean
    inner = tuple(x - y for x, y in zip(v, v_comp))
    chis = quasi_fundamental_weights(rs)
    return all(pairing(rs, inner, chis[a].ambient()) <= 0 for a in range(rs.rank))


def test_unip_limit_examples():
    rs = build_type_a(3)
    I, cert = unip_limit_I([2, -1, -1], rs)
    assert sorted(I) == [1] and cert == {0: Fraction(3)}
    I, cert = unip_limit_I([0, 0, 0], rs)
    assert sorted(I) == [0, 1] and cert == {}
    I, cert = unip_limit_I([2, 0, -2], rs)
    assert sorted(I) == [] and cert == {0: Fraction(2), 1: Fraction(2)}


def test_unip_limit_brute_force():
    rng = random.Random(1207)
    for n in (3, 4):
        rs = build_type_a(n)
        for _ in range(24):
            raw = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n - 1)]
            v = make_vector(rs, raw + [-sum(raw)])
            I, cert = unip_limit_I(v, rs)
            good = [
                S
                for r in range(n)
                for S in itertools.combinations(range(n - 1), r)
                if _bounded_inside(rs, v, S)
            ]
            assert set(I) in [set(S) for S in good]
            assert all(set(S) <= set(I) for S in good), (v, I, good)
            assert all(rate > 0 for rate in cert.values())
            assert set(cert) == set(range(n - 1)) - set(I)


def test_unip_limit_product_system():
    rs = build_product([2, 2])
    I, cert = unip_limit_I([3, -3, -1, 1], rs)
    assert sorted(I) == [1] and cert == {0: Fraction(6)}


# ---------------------------------------------------------------------------
# torus splitter


def test_ma_split_examples():
    rs = build_type_a(3)
    w, J, Ri = ma_split([2, 0, -2], [], rs)
    assert w.is_identity() and J == frozenset() and Ri == frozenset({0, 1})
    w, J, Ri = ma_split([-2, 0, 2], [], rs)
    assert w.one_line() == (2, 1, 0) and J == frozenset() and Ri == frozenset({0, 1})
    w, J, Ri = ma_split([0, 0, 0], [0, 1], rs)
    assert J == frozenset({0, 1}) and Ri == frozenset()
    with pytest.raises(ValueError):
        ma_split([2, 0, -2], [0], rs)


def test_ma_split_soundness_random():
    rng = random.Random(404)
    rs = build_type_a(3)
    chis = quasi_fundamental_weights(rs)
    for I in [(), (0,), (1,), (0, 1)]:
        for _ in range(12):
            coeffs = {b: Fraction(rng.randint(-3, 3)) for b in range(2) if b not in I}
            v = [Fraction(0)] * 3
            for b, c in coeffs.items():
                amb = chis[b].ambient()
                v = [x + c * y for x, y in zip(v, amb)]
            w, J, Ri = ma_split(v, I, rs)
            assert Ri == frozenset(range(2)) - J
            for n_eval in (1, 2, 4):
                for a in Ri:
                    grow = n_eval * pairing(rs, v, w.act(rs.simple_roots[a]))
                    assert grow > 0
                for a in J:
                    assert pairing(rs, v, w.act(rs.simple_roots[a])) == 0
            # the twisted J-torus fixes every wall in I exactly
            for b in range(2):
                if b in J:
                    continue
                image = w.act(chis[b].ambient())
                for a in I:
                    assert pairing(rs, image, rs.simple_roots[a]) == 0


# ---------------------------------------------------------------------------
# the SL3 walk: frozen branch verdicts


def _descr(seq):
    d = sl3_classify(seq)
    return sorted(d.P.I), d.support_kind, d.notes


def test_sl3_case1():
    I, kind, notes = _descr(sequence_spec(one_param_unipotent(3, (1, 2)), [9, -6, -3]))
    assert (I, kind) == ([1], "boundary_homogeneous")
    assert any(n.startswith("node:1;levi_growth_rate=27/2") for n in notes)


def test_sl3_case2_1():
    I, kind, notes = _descr(sequence_spec(one_param_unipotent(3, (0, 1)), [6, -3, -3]))
    assert (I, kind) == ([1], "boundary_homogeneous")
    assert "node:2.1;constant_alpha_value" in notes


def test_sl3_case2_2_1():
    I, kind, notes = _descr(sequence_spec(one_param_unipotent(3, (0, 1)), [9, -6, -3]))
    assert (I, kind) == ([], "boundary_homogeneous")
    assert any(n.startswith("node:2.2.1") for n in notes)


def test_sl3_case2_2_2_1_quadratic_corner():
    seq = sequence_spec(
        one_param_unipotent(3, (0, 1)),
        [9, -6, -3],
        bounded_part=upper3(u12=QuadNum.tau(0, 2)),
    )
    I, kind, notes = _descr(seq)
    assert (I, kind) == ([1], "boundary_homogeneous")
    assert "node:2.2.2.1;badly_approximable_corner" in notes


def test_sl3_case2_2_2_2_1_rational_corner():
    seq = sequence_spec(
        one_param_unipotent(3, (0, 1)), [9, -6, -3], bounded_part=upper3(u12="1/2")
    )
    I, kind, notes = _descr(seq)
    assert (I, kind) == ([], "boundary_homogeneous")
    assert "node:2.2.2.2.1;v_rate=3;beta_rate=21/2" in notes


def test_sl3_block_reduced_branches():
    I, kind, notes = _descr(
        sequence_spec(full_unipotent_radical(3, [1]), [3, 3, -6], stage="block_reduced")
    )
    assert (I, kind) == ([0], "boundary_homogeneous")
    assert "node:2.2.2.2.2;alpha_center_rate=9" in notes

    I, kind, notes = _descr(
        sequence_spec(full_unipotent_radical(3, [1]), [0, 3, -3], stage="block_reduced")
    )
    assert (I, kind) == ([0], "boundary_homogeneous")
    assert any(n.startswith("node:2.2.2.2.3.1") for n in notes)

    I, kind, notes = _descr(
        sequence_spec(one_param_unipotent(3, (0, 2)), [0, 3, -3], stage="block_reduced")
    )
    assert (I, kind) == ([], "dirac_point")
    assert any(n.startswith("node:2.2.2.2.3.2") for n in notes)


def test_sl3_interior_and_trivial():
    I, kind, _ = _descr(sequence_spec(one_param_unipotent(3, (0, 1)), [0, 0, 0]))
    assert (I, kind) == ([0, 1], "interior")
    I, kind, _ = _descr(sequence_spec(trivial_subgroup(3), [2, 0, -2]))
    assert (I, kind) == ([], "dirac_point")


def test_sl3_full_block_exit():
    I, kind, notes = _descr(sequence_spec(embedded_sl2(3, 0), [1, 1, -2]))
    assert (I, kind) == ([0], "boundary_homogeneous")
    assert "m_projection:full" in notes


def test_sl3_flip_path():
    # only the alpha1 wall admits a witness; the walk flips, runs the
    # mirrored block stage, and swaps walls back in the verdict
    I, kind, notes = _descr(sequence_spec(one_param_unipotent(3, (1, 2)), [1, -2, 1]))
    assert (I, kind) == ([1], "boundary_homogeneous")
    assert "flip:outer_automorphism" in notes and "unflip:swap_walls" in notes


def test_sl3_cusp_excursion_from_raw():
    # descending block point at a rational coordinate: the excursion move
    # fires and the junction sees the reflected growth rates
    I, kind, notes = _descr(sequence_spec(one_param_unipotent(3, (0, 1)), [-3, -6, 9]))
    assert (I, kind) == ([], "boundary_homogeneous")
    assert any(n.startswith("m_walk:cusp_excursion") for n in notes)
    assert any(n.startswith("node:minimal_escape") for n in notes)


def test_sl3_badly_approximable_block_point():
    # same data but the block coordinate is quadratic irrational: the point
    # wanders in a compact part and the wall component absorbs the limit
    seq = sequence_spec(
        one_param_unipotent(3, (0, 2)), [-6, 9, -3], bounded_part=upper3(u01=QuadNum.tau(1, 1))
    )
    I, kind, notes = _descr(seq)
    assert (I, kind) == ([0], "boundary_homogeneous")
    assert "m_walk:plunge_badly_approximable" in notes
    assert "support:subsequence_caveat" in notes


def test_sl3_conjugation_invariance_recorded():
    gam = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cases = [
        (one_param_unipotent(3, (0, 1)), [9, -6, -3], upper3(u12="1/2")),
        (one_param_unipotent(3, (0, 1)), [9, -6, -3], upper3(u12=QuadNum.tau(0, 2))),
        (one_param_unipotent(3, (1, 2)), [9, -6, -3], None),
    ]
    for spec_fn, v, h in cases:
        base = sequence_spec(spec_fn, v, bounded_part=h)
        spec_conj = SubgroupSpec(
            spec_fn.kind, 3, I=spec_fn.I, coordinate=spec_fn.coordinate,
            block=spec_fn.block, conjugator=gam,
        )
        twin = sequence_spec(
            spec_conj, v, bounded_part=h,
            conjugator_policy="recorded", recorded_conjugator=gam,
        )
        a, b = sl3_classify(base), sl3_classify(twin)
        assert a.P.I == b.P.I and a.support_kind == b.support_kind


def test_sl3_not_covered_paths():
    with pytest.raises(NotCoveredError):
        sl3_classify(sequence_spec(one_param_unipotent(3, (0, 1)), [9, -6, -3], bounded_part="bounded"))
    with pytest.raises(NotCoveredError):  # second gap must grow in reduced data
        sl3_classify(sequence_spec(full_unipotent_radical(3, [1]), [3, -6, 3], stage="block_reduced"))
    with pytest.raises(NotCoveredError):  # branch 3.1 needs a decaying third rate
        sl3_classify(sequence_spec(full_unipotent_radical(3, [1]), [-3, 2, 1], stage="block_reduced"))
    with pytest.raises(NotCoveredError):  # branch 3.2 needs a growing corner rate
        sl3_classify(sequence_spec(one_param_unipotent(3, (0, 2)), [-3, 2, 1], stage="block_reduced"))
    with pytest.raises(ValueError):
        sl3_classify(sequence_spec(product_subgroup([trivial_subgroup(2)]), [1, -1]))
    # an offset with an entry below the unipotent: outside the normal position
    low = ((O, Z, Z), (QuadNum.rational(Fraction(1, 3)), O, Z), (Z, Z, O))
    with pytest.raises(NotCoveredError):
        sl3_classify(sequence_spec(one_param_unipotent(3, (0, 1)), [9, -6, -3], bounded_part=low))


def _weyl_rep_exact(w):
    """Oracle for the twists: the integer determinant-one representative of
    a single-factor Weyl element as an explicit matrix -- the permutation
    matrix of w (column i has its 1 in row w(i)), last column negated when
    that matrix has determinant -1."""
    (p,) = w.perms
    n = len(p)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, target in enumerate(p):
        rows[target][i] = Fraction(1)
    if round(np.linalg.det(np.array(rows, dtype=float))) < 0:
        for r in range(n):
            rows[r][n - 1] = -rows[r][n - 1]
    return tuple(tuple(r) for r in rows)


def test_sl3_twist_representatives_exact():
    rs = build_type_a(3)
    rng = np.random.default_rng(5)
    v = rng.normal(size=3)
    for w in weyl_elements(rs):
        R = np.array([[float(x) for x in row] for row in _weyl_rep_exact(w)])
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        p = w.one_line()
        conj = R.T @ np.diag(v) @ R
        assert np.allclose(np.diag(conj), v[list(p)])


def test_weyl_representative_identity_and_eta():
    rs = build_type_a(3)
    assert _weyl_rep_exact(WeylElement(rs, ((0, 1, 2),))) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    eta = _weyl_rep_exact(WeylElement(rs, ((0, 2, 1),)))
    assert eta == ((1, 0, 0), (0, 0, -1), (0, 1, 0))


def test_weyl_representative_all_w_realize_torus_action():
    for n in (2, 3, 4):
        rs = build_type_a(n)
        t = np.exp(np.linspace(0.1, 0.4, n))
        t /= np.prod(t) ** (1.0 / n)
        for w in weyl_elements(rs):
            rep = np.array(_weyl_rep_exact(w), dtype=float)
            assert abs(np.linalg.det(rep) - 1.0) < 1e-12
            assert np.allclose(rep @ rep.T, np.eye(n), atol=1e-12)
            moved = rep @ np.diag(t) @ rep.T
            perm = w.one_line()
            expect = np.empty(n)
            for i in range(n):
                expect[perm[i]] = t[i]
            assert np.allclose(np.diagonal(moved), expect)
            assert np.allclose(moved, np.diag(expect))


# ---------------------------------------------------------------------------
# Weyl and J conjugation by re-indexing, against the explicit products

TAU2 = QuadNum.tau(0, 2)
J3 = tuple(tuple(Fraction(int(i + j == 2)) for j in range(3)) for i in range(3))
WEYL = {n: list(weyl_elements(build_type_a(n))) for n in (3, 4)}

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_maybe_zero = st.one_of(st.just(Fraction(0)), _rationals)
_quads = st.builds(lambda a, b: QuadNum.make(a, b, TAU2.law), _maybe_zero, _maybe_zero)


def _qprod(x, y):
    """Sum-of-products matrix product in QuadNum arithmetic, the oracle for
    products whose left factor is not an integer matrix."""
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(len(y))), Z) for j in range(len(y[0])))
        for i in range(len(x))
    )


def _square(entries, n):
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


def _all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


def _all_normal_quads(m):
    return all(isinstance(x, QuadNum) and (x.law is None) == (x.b == 0) for row in m for x in row)


@seed(20240817)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from((3, 4)).flatmap(lambda n: _square(_rationals, n)))
def test_weyl_conjugate_matches_product_on_fractions(X):
    for w in WEYL[len(X)]:
        R = _weyl_rep_exact(w)
        got = _weyl_conjugate(X, w)
        assert got == rat_mul(rat_mul(tuple(zip(*R)), X), R)
        assert _all_fractions(got)


@seed(20240817)
@settings(max_examples=15, deadline=None)
@given(st.sampled_from((3, 4)).flatmap(lambda n: _square(_quads, n)))
def test_weyl_conjugate_matches_product_on_quadnums(X):
    for w in WEYL[len(X)]:
        R = _weyl_rep_exact(w)
        got = _weyl_conjugate(X, w)
        assert got == _qprod(qmat_mul(tuple(zip(*R)), X), qmat(R))
        assert _all_normal_quads(got)


@seed(20240817)
@settings(max_examples=40, deadline=None)
@given(_square(_rationals, 3))
def test_theta_lie_matches_j_product(X):
    got = _theta_lie(X)
    product = rat_mul(rat_mul(J3, tuple(zip(*X))), J3)
    assert got == tuple(tuple(-x for x in row) for row in product)
    assert _all_fractions(got)


@seed(20240817)
@settings(max_examples=40, deadline=None)
@given(_quads, _quads, _quads)
def test_theta_unipotent_matches_j_product(u01, u02, u12):
    h = upper3(u01, u02, u12)
    got = _theta_unipotent(h)
    j = tuple(tuple(int(x) for x in row) for row in J3)
    assert got == _qprod(qmat_mul(j, tuple(zip(*qmat_unipotent_inverse(h)))), qmat(j))
    assert _all_normal_quads(got)


def test_sl3_m_stage_lower_line_normalisation():
    # the mirrored line sub-walk: unreachable from the catalog under the
    # twist preference, but its excursion bookkeeping must stay correct
    F = Fraction
    e10 = ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0)))
    h = upper3(u02="1/3")
    notes = []
    out = _sl3_m_stage([e10], (F(-3), F(9), F(-6)), h, notes)
    assert out[0] == "junction"
    _, rho_y, rho_x, t, gens = out
    assert (rho_y, rho_x) == (F(6), F(3))
    assert t == QuadNum.rational(F(-1, 3))
    assert gens[0][0][1] == -1 and all(
        gens[0][r][c] == 0 for r in range(3) for c in range(3) if (r, c) != (0, 1)
    )


# ---------------------------------------------------------------------------
# products of SL2 factors


def test_sl2r_interior_all_full():
    seq = sequence_spec(product_subgroup([embedded_sl2(2), embedded_sl2(2)]), [1, -1, 2, -2])
    d = sl2r_classify(seq)
    assert d.support_kind == "interior" and d.P.I == frozenset({0, 1})


def test_sl2r_mixed_unipotent_trivial():
    seq = sequence_spec(
        product_subgroup([one_param_unipotent(2, (0, 1)), trivial_subgroup(2)]),
        [3, -3, -2, 2],
        bounded_part=(upper2(0), upper2(QuadNum.tau(0, 2))),
    )
    d = sl2r_classify(seq)
    assert d.P == ProductParabolicIndex(2, frozenset({1}))
    assert d.support_kind == "dirac_point"
    assert "support:subsequence_caveat" in d.notes


def test_sl2r_all_trivial_full_escape():
    seq = sequence_spec(
        product_subgroup([trivial_subgroup(2)] * 3),
        [2, -2, -3, 3, 1, -1],
        bounded_part=(upper2(0), upper2("1/2"), upper2(0)),
    )
    d = sl2r_classify(seq)
    assert d.P.I == frozenset() and d.support_kind == "dirac_point"
    assert any("escape_cusp_excursion" in n for n in d.notes)


def test_sl2r_descending_horocycle_stays():
    seq = sequence_spec(
        product_subgroup([one_param_unipotent(2, (0, 1)), embedded_sl2(2)]), [-3, 3, 1, -1]
    )
    d = sl2r_classify(seq)
    assert d.support_kind == "interior"


def test_sl2r_boundary_homogeneous_mix():
    seq = sequence_spec(
        product_subgroup([embedded_sl2(2), one_param_unipotent(2, (0, 1))]), [0, 0, 2, -2]
    )
    d = sl2r_classify(seq)
    assert d.P == ProductParabolicIndex(2, frozenset({0}))
    assert d.support_kind == "boundary_homogeneous"


def test_sl2r_trivial_descent_needs_exact_target():
    seq = sequence_spec(
        product_subgroup([trivial_subgroup(2)]), [-1, 1], bounded_part="bounded"
    )
    with pytest.raises(NotCoveredError):
        sl2r_classify(seq)
    # an ascending one is refused too: its cusp image a/c decides whether
    # it escapes
    seq = sequence_spec(
        product_subgroup([trivial_subgroup(2)]), [1, -1], bounded_part="bounded"
    )
    with pytest.raises(NotCoveredError, match="rising trivial factor needs its cusp image"):
        sl2r_classify(seq)


def test_sl2r_conjugated_trivial_factor_target():
    # gamma^-1 h moves the plunge target: [[0,-1],[1,0]] sends 0 to infinity,
    # so the conjugated trivial factor escapes even with irrational-looking h
    fac = trivial_subgroup(2)
    fac = SubgroupSpec("trivial", 2, conjugator=((0, -1), (1, 0)))
    seq = sequence_spec(product_subgroup([fac]), [-1, 1])
    d = sl2r_classify(seq)
    assert d.P.I == frozenset()
    assert any("escape_cusp_excursion" in n for n in d.notes)


def test_sl2r_rising_trivial_factor_reads_its_cusp_image():
    """At positive rate a trivial factor runs along offset * (i*y) to the
    image a/c of the cusp: an irrational a/c keeps it bounded, with the
    subsequence caveat, and a rational a/c or c = 0 escapes with the note
    it always had."""
    t = QuadNum.tau(0, 2)
    trivial = product_subgroup([trivial_subgroup(2)])

    def classify(offset):
        return sl2r_classify(sequence_spec(trivial, [2, -2], bounded_part=offset and [offset]))

    d = classify(((t, O), (O, t)))
    assert d.support_kind == "interior" and d.P.I == frozenset({0})
    assert d.notes == ("factor0:trivial:ascend_badly_approximable", "support:subsequence_caveat")
    for offset in (((O, Z), (O, O)), upper2(t), None):
        d = classify(offset)
        assert (d.support_kind, d.P.I) == ("dirac_point", frozenset())
        assert d.notes == ("factor0:trivial:escape;theta_rate=4",)
    # bounded next to a full factor: the product keeps both
    pair = product_subgroup([trivial_subgroup(2), embedded_sl2(2)])
    d = sl2r_classify(sequence_spec(pair, [2, -2, 1, -1], bounded_part=[((t, O), (O, t)), upper2()]))
    assert d.P.is_group and d.support_kind == "interior"


# ---------------------------------------------------------------------------
# Levi-block translates


def test_levi_translate_frozen_verdicts():
    mk = lambda v, n=3, a=1: sequence_spec(levi_semisimple_nc(n, a), v)
    d = levi_translate_classify(1, mk([1, 1, -2]))
    assert sorted(d.P.I) == [1] and d.support_kind == "boundary_homogeneous"
    d = levi_translate_classify(1, mk([-2, 1, 1]))
    assert sorted(d.P.I) == [0] and d.support_kind == "boundary_homogeneous"
    d = levi_translate_classify(1, mk([0, 1, -1]))
    assert d.support_kind == "interior"
    d = levi_translate_classify(1, mk([0, 0, 0]))
    assert d.support_kind == "interior"
    d = levi_translate_classify(1, mk([3, 1, -1, -3], n=4))
    assert sorted(d.P.I) == [1] and d.support_kind == "boundary_homogeneous"


def test_levi_translate_ignores_bounded_part():
    seq = sequence_spec(levi_semisimple_nc(3, 1), [1, 1, -2], bounded_part="bounded")
    d = levi_translate_classify(1, seq)
    assert sorted(d.P.I) == [1]
    with pytest.raises(ValueError):
        levi_translate_classify(0, seq)
    with pytest.raises(ValueError):
        levi_translate_classify(1, sequence_spec(embedded_sl2(3, 1), [1, 1, -2]))


# ---------------------------------------------------------------------------
# the classifier over a fixed SL3 corpus

SL3_CATALOG = (
    trivial_subgroup(3),
    full_unipotent_radical(3, []),
    full_unipotent_radical(3, [0]),
    full_unipotent_radical(3, [1]),
    one_param_unipotent(3, (0, 1)),
    one_param_unipotent(3, (0, 2)),
    one_param_unipotent(3, (1, 2)),
    embedded_sl2(3, 0),
    embedded_sl2(3, 1),
    levi_semisimple_nc(3, 0),
    levi_semisimple_nc(3, 1),
)
TAU_OFFSET = upper3("1/2", TAU2, TAU2)
RECORDED = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
DIRECTION_GRID = (-2, 0, 1, 3)
# sha256 of the corpus outcomes below, recorded before the twists became
# re-indexings; every verdict, note and refusal message is pinned
CORPUS_SHA256 = "0a4a3a4ab064b5987ba03e73a9b01ff980c82c368525d92dc563bfa4e639f1bb"


def _corpus_sequence(spec, a, b, offset, recorded, stage="raw"):
    return sequence_spec(
        spec,
        [a, b, -a - b],
        bounded_part=offset,
        conjugator_policy="identity" if recorded is None else "recorded",
        recorded_conjugator=recorded,
        stage=stage,
    )


def _outcome(seq):
    try:
        d = classify_scenario(seq)
    except NotCoveredError as exc:
        return ["not_covered", str(exc)]
    component = ["interior"] if d.support_kind == "interior" else sorted(d.P.I)
    return [d.support_kind, component, list(d.notes)]


def _sl3_corpus():
    return [
        _corpus_sequence(spec, a, b, offset, recorded)
        for spec in SL3_CATALOG
        for a, b in itertools.product(DIRECTION_GRID, DIRECTION_GRID)
        for offset in (None, TAU_OFFSET)
        for recorded in (None, RECORDED)
    ]


def test_sl3_corpus_outcomes_are_pinned():
    outcomes = [_outcome(seq) for seq in _sl3_corpus()]
    assert len(outcomes) == 704
    text = json.dumps(outcomes, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


# every cache the walks fill on first use
WALK_CACHES = (
    "_cusp_moved",
    "_levi_walls",
    "_m_block_projection",
    "_plain_generators",
    "_root_system",
    "_stripped",
    "_witness_walls",
)


def test_sl3_corpus_outcomes_do_not_depend_on_cache_order():
    """Cleared caches refill in another order and give the same outcomes,
    on the SL3 corpus and on the conjugated one, which reaches the
    conjugator and cusp-move caches."""
    cached = [name for name, obj in vars(escmass.limits).items()
              if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "") == "escmass.limits"]
    assert sorted(cached) == sorted(WALK_CACHES)
    for name in WALK_CACHES:
        getattr(escmass.limits, name).cache_clear()
    outcomes = [_outcome(seq) for seq in reversed(_sl3_corpus())][::-1]
    text = json.dumps(outcomes, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256
    text = json.dumps(_conjugated_outcomes(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CONJUGATED_SHA256
    for name in WALK_CACHES:
        assert getattr(escmass.limits, name).cache_info().currsize > 0, name


def test_traced_names_are_still_called(monkeypatch):
    """The benchmark's tracer times limits.qmat_mul, limits.levi_sphere and
    limits.locate_chamber by replacing those module names; each must still
    be resolved there, the wall sphere on a cache miss, and the product
    where a recorded left factor meets an offset."""
    calls = []
    for name in ("qmat_mul", "levi_sphere", "locate_chamber"):
        fn = getattr(escmass.limits, name)
        spy = lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
        monkeypatch.setattr(escmass.limits, name, spy)
    escmass.limits._levi_walls.cache_clear()
    recorded = _corpus_sequence(one_param_unipotent(3, (1, 2)), 9, -6, TAU_OFFSET, RECORDED)
    sl3_classify(recorded)
    levi_translate_classify(1, sequence_spec(levi_semisimple_nc(3, 1), [1, 1, -2]))
    sl3_classify(sequence_spec(one_param_unipotent(3, (0, 2)), [0, 3, -3], stage="block_reduced"))
    assert sorted(set(calls)) == ["levi_sphere", "locate_chamber", "qmat_mul"]


@seed(20240817)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SL3_CATALOG),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from((None, TAU_OFFSET)),
    st.sampled_from((None, RECORDED)),
    st.sampled_from(("raw", "block_reduced")),
)
def test_classifier_covers_or_refuses(spec, a, b, offset, recorded, stage):
    seq = _corpus_sequence(spec, a, b, offset, recorded, stage)
    try:
        assert isinstance(classify_scenario(seq), LimitDescriptor)
    except NotCoveredError:
        pass


# ---------------------------------------------------------------------------
# pinned outcomes of the Levi-block walk and of the product walk

LEVI_DIRECTIONS = (-2, 0, 1, 3)
LEVI_CONJUGATOR = {
    3: ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    4: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1)),
}
# sha256 of the outcomes below, recorded before the per-(n, alpha) wall
# faces were cached
LEVI_SHA256 = "191a5ee50d3ede0ab7f3bc66d12478acdeafe87ae0c8beb93866bc198eac5a2f"


def _levi_outcomes():
    out = []
    for n in (3, 4):
        for alpha in range(n - 1):
            for conj in (None, LEVI_CONJUGATOR[n]):
                spec = levi_semisimple_nc(n, alpha, conjugator=conj)
                for head in itertools.product(LEVI_DIRECTIONS, repeat=n - 1):
                    v = list(head) + [-sum(head)]
                    out.append(_outcome(sequence_spec(spec, v)))
    return out


def test_levi_outcomes_are_pinned():
    outcomes = _levi_outcomes()
    assert len(outcomes) == 2 * (2 * 16 + 3 * 64)
    text = json.dumps(outcomes, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LEVI_SHA256


PRODUCT_ATOMS = (
    trivial_subgroup(2),
    SubgroupSpec("trivial", 2, conjugator=((0, -1), (1, 0))),
    one_param_unipotent(2, (0, 1)),
    one_param_unipotent(2, (0, 1), conjugator=((1, 0), (1, 1))),
    embedded_sl2(2),
)
PRODUCT_OFFSETS = (None, Fraction(1, 2), TAU2)
PRODUCT_RECORDED = (None, ((1, 1), (0, 1)), ((0, -1), (1, 0)))
# sha256 of the outcomes below, recorded before Q(tau) matrix products
# skipped zero entries
PRODUCT_SHA256 = "3853a37b442fcdc8458c5b9d1fd1c501347c7e9c6cd0885dfb9f24188f2b9fd5"


def _product_sequence(atoms, rates, offset, recorded):
    r = len(atoms)
    return sequence_spec(
        product_subgroup(atoms),
        [x for a in rates for x in (a, -a)],
        bounded_part=None if offset is None else [upper2(offset)] * r,
        conjugator_policy="identity" if recorded is None else "recorded",
        recorded_conjugator=None if recorded is None else [recorded] * r,
    )


def _product_outcomes():
    out = []
    for r, grid in ((1, (-2, -1, 0, 1, 2)), (2, (-1, 0, 1))):
        for atoms in itertools.product(PRODUCT_ATOMS, repeat=r):
            for rates in itertools.product(grid, repeat=r):
                for offset in PRODUCT_OFFSETS:
                    for recorded in PRODUCT_RECORDED:
                        out.append(_outcome(_product_sequence(atoms, rates, offset, recorded)))
    return out


def test_product_outcomes_are_pinned():
    outcomes = _product_outcomes()
    assert len(outcomes) == 5 * 5 * 9 + 25 * 9 * 9
    text = json.dumps(outcomes, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PRODUCT_SHA256


# Conjugated SL3 sequences: the integer conjugators of the benchmark's exact
# pool and their inverses, with and without a recorded left factor, over
# offsets none, 1/2, tau and 1/3, so every shape of the integer-left
# ingestion product (and the cusp excursion after it) is pinned.
POOL_CONJUGATORS = (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (1, 0, 1)))
POOL_INVERSES = (((1, -1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (-1, 0, 1)))
CONJUGATED_KINDS = (
    lambda c: one_param_unipotent(3, (0, 1), conjugator=c),
    lambda c: one_param_unipotent(3, (1, 2), conjugator=c),
    lambda c: one_param_unipotent(3, (0, 2), conjugator=c),
    lambda c: full_unipotent_radical(3, [], conjugator=c),
    lambda c: full_unipotent_radical(3, [0], conjugator=c),
    lambda c: full_unipotent_radical(3, [1], conjugator=c),
    lambda c: embedded_sl2(3, 0, conjugator=c),
    lambda c: embedded_sl2(3, 1, conjugator=c),
)
CONJUGATED_OFFSETS = (None, upper3(u12="1/2"), upper3(u12=TAU2), upper3(u01="1/3"))
# sha256 of the outcomes below, recorded before integer left factors
# skipped their Q(tau) coercion
CONJUGATED_SHA256 = "817ed65f535c65447500c75465da8e7588eafb95958eabcef23ac7ba4b097341"


def _conjugated_outcomes():
    out = []
    for kind in CONJUGATED_KINDS:
        for conj in POOL_CONJUGATORS + POOL_INVERSES:
            spec = kind(conj)
            for a, b in itertools.product(DIRECTION_GRID, DIRECTION_GRID):
                for offset in CONJUGATED_OFFSETS:
                    for recorded in (None, RECORDED):
                        out.append(_outcome(_corpus_sequence(spec, a, b, offset, recorded)))
    return out


def test_conjugated_outcomes_are_pinned():
    outcomes = _conjugated_outcomes()
    assert len(outcomes) == 8 * 4 * 16 * 4 * 2
    notes = [note for o in outcomes if o[0] != "not_covered" for note in o[2]]
    assert any(note.startswith("m_walk:cusp_excursion") for note in notes)
    text = json.dumps(outcomes, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CONJUGATED_SHA256


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="perfbench/ is not in this checkout")
def test_exact_pool_outcomes_match_the_benchmark_reference(tmp_path, monkeypatch):
    """All 3,000 documents of the benchmark's exact pool read and classify
    to the outcome digests its reference records (perfbench/ is only read
    here)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    ref = json.loads((PERFBENCH / "reference.json").read_text())["exact_pool"]
    pool = workloads.exact_pool()
    assert workloads.digest(pool) == ref["pool_digest"]
    ctx = workloads.Context({}, tmp_path)
    got = [workloads.digest(workloads.exact_outcome(ctx, scenario_from_json(doc).sequence))
           for doc in pool]
    assert len(got) == 3000
    assert [k for k, (a, b) in enumerate(zip(got, ref["results"])) if a != b] == []
