"""Decomposition kernel checks.

Frozen numbers come from hand computations on diagonal and 2x2 inputs; the
random-matrix round trips use the reconstruction residual itself as the
oracle, with two independent formulas checked against each other where the
module provides both (wedge norm vs. block-character product).
"""

import doctest

import numpy as np
import pytest

import escmass.lingrp as lingrp
from escmass.lingrp import (
    ParabolicIndex,
    dalpha_product,
    d_function,
    gram_schmidt_components,
    gram_schmidt_rows,
    group_element,
    identity_element,
    iwasawa,
    iwasawa_batched,
    iwasawa_coordinates,
    langlands,
    parabolic_root_values,
    parse_matrix,
    root_values,
    verify_dalpha,
    weyl_representative,
)
from escmass.rootsys import WeylElement, build_type_a, weyl_elements

RNG = np.random.default_rng(1812)


def random_sl(n, scale=1.0, rng=RNG):
    while True:
        m = rng.normal(size=(n, n)) * scale
        if np.linalg.det(m) > 1e-3:
            return group_element(m)


def test_doctests():
    assert doctest.testmod(lingrp).failed == 0


def test_ingest_renormalizes_and_rejects():
    g = group_element([[3.0, 0.0], [0.0, 3.0]])
    assert np.allclose(g.mat, np.eye(2))
    with pytest.raises(ValueError):
        group_element([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        group_element(np.zeros((2, 3)))


def test_parse_matrix_rational_and_decimal():
    g = parse_matrix("1, 0.25; 0, 1")
    assert g.mat[0, 1] == 0.25
    h = parse_matrix("2/1 0/1 0/1 1/2")
    assert np.allclose(h.mat, [[2.0, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        parse_matrix("1 2 3")


def test_iwasawa_identity_and_diagonal():
    parts = iwasawa(identity_element(3))
    for part in (parts.n_part, parts.a_part, parts.k_part):
        assert np.allclose(part, np.eye(3))

    g = group_element(np.diag([2.0, 1.0, 0.5]))
    parts = iwasawa(g)
    assert np.allclose(parts.n_part, np.eye(3))
    assert np.allclose(parts.a_diag, [2.0, 1.0, 0.5])
    assert np.allclose(parts.k_part, np.eye(3))


def test_iwasawa_rotation_goes_to_k():
    rot = group_element([[0.0, -1.0], [1.0, 0.0]])
    parts = iwasawa(rot)
    assert np.allclose(parts.n_part, np.eye(2))
    assert np.allclose(parts.a_diag, [1.0, 1.0])
    assert np.allclose(parts.k_part, rot.mat)


def test_iwasawa_sl2_closed_form():
    # g.i = x + iy  =>  shear coordinate x, height ratio y
    x, y = 0.3, 2.5
    g = group_element([[np.sqrt(y), x / np.sqrt(y)], [0.0, 1.0 / np.sqrt(y)]])
    parts = iwasawa(g)
    assert abs(parts.n_part[0, 1] - x) < 1e-12
    assert abs(parts.a_diag[0] / parts.a_diag[1] - y) < 1e-12


def test_iwasawa_roundtrip_and_orthogonality():
    for n in (2, 3, 4):
        for _ in range(50):
            g = random_sl(n)
            parts = iwasawa(g)
            err = np.linalg.norm(parts.reconstruct() - g.mat)
            assert err <= 1e-9 * np.linalg.norm(g.mat)
            assert np.allclose(parts.k_part @ parts.k_part.T, np.eye(n), atol=1e-10)
            assert abs(np.linalg.det(parts.k_part) - 1.0) < 1e-9
            assert np.all(parts.a_diag > 0)
            assert np.allclose(np.tril(parts.n_part, -1), 0.0)
            assert np.allclose(np.diagonal(parts.n_part), 1.0)


def test_iwasawa_batched_matches_single():
    mats = np.stack([random_sl(3).mat for _ in range(16)])
    nil, a, k = iwasawa_batched(mats)
    for idx in range(16):
        parts = iwasawa(group_element(mats[idx]))
        assert np.allclose(nil[idx], parts.n_part)
        assert np.allclose(a[idx], parts.a_diag)
        assert np.allclose(k[idx], parts.k_part)


def test_iwasawa_cocycle():
    for _ in range(10):
        g = random_sl(3)
        theta = RNG.normal(size=3)
        # crude SO(3) sample: reuse the decomposition of a random matrix
        k = iwasawa(random_sl(3)).k_part
        assert np.allclose(
            iwasawa(group_element(g.mat @ k)).a_diag, iwasawa(g).a_diag, atol=1e-9
        )
        n_shift = np.eye(3)
        n_shift[0, 1], n_shift[0, 2], n_shift[1, 2] = theta
        assert np.allclose(
            iwasawa(group_element(n_shift @ g.mat)).a_diag,
            iwasawa(g).a_diag,
            atol=1e-9,
        )


def test_condition_rejection():
    g = group_element(np.diag([1e7, 1e-7]))
    with pytest.raises(ValueError):
        iwasawa(g)


# ---------------------------------------------------------------------------
# the Gram-Schmidt kernel behind the Iwasawa split and lattice reduction

KERNEL_TOL = 1e-13  # about 450 ulps: reconstruction, orthogonality, det K
QR_AGREEMENT_TOL = 1e-12  # kernel L against the Householder L, per row norm


def _qr_lower(b):
    """The Householder construction the kernel replaced, kept as a reference:
    L of B = L Q from a QR of B^T, diagonal signs made positive."""
    q, r = np.linalg.qr(np.swapaxes(b, -1, -2))
    low = np.swapaxes(r, -1, -2)
    d = np.sign(np.diagonal(low, axis1=-2, axis2=-1))
    return low * np.where(d == 0.0, 1.0, d)[..., None, :]


def _rotations(n, count, rng):
    q, _ = np.linalg.qr(rng.normal(size=(count, n, n)))
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _det_one_stack(n, count, rng):
    mats = rng.normal(size=(count, n, n))
    mats[np.linalg.det(mats) < 0, 0, :] *= -1.0
    return mats / np.linalg.det(mats)[:, None, None] ** (1.0 / n)


def _cusp_stack(n, count, rng, spread=1e20):
    """N diag(a) K with a decreasing from spread^(1/2) to spread^(-1/2), so
    cond_2 is about spread; returns the stack and its true a."""
    log_a = np.sort(rng.uniform(0.0, np.log(spread), size=(count, n)), axis=1)
    log_a[:, 0], log_a[:, -1] = 0.0, np.log(spread)
    log_a = log_a[:, ::-1] - 0.5 * np.log(spread)
    a = np.exp(log_a)
    nil = np.eye(n) + np.triu(rng.uniform(-3.0, 3.0, size=(count, n, n)), 1)
    return nil * a[:, None, :] @ _rotations(n, count, rng), a


def _row_residual(approx, mats):
    """Per-row error relative to the row's length."""
    err = np.linalg.norm(approx - mats, axis=-1)
    return np.max(err / np.linalg.norm(mats, axis=-1))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["random", "cusp"])
def test_gram_schmidt_and_iwasawa_kernel(n, kind):
    rng = np.random.default_rng(100 * n + len(kind))
    if kind == "random":
        mats, a_true = _det_one_stack(n, 4000, rng), None
    else:
        mats, a_true = _cusp_stack(n, 4000, rng)
        assert np.median(np.linalg.cond(mats)) > 1e19
    eye = np.eye(n)

    low, q = gram_schmidt_rows(mats)
    assert np.all(np.triu(low, 1) == 0.0)
    assert np.all(np.diagonal(low, axis1=-2, axis2=-1) > 0.0)
    assert np.max(np.abs(q @ np.swapaxes(q, -1, -2) - eye)) <= KERNEL_TOL
    assert _row_residual(low @ q, mats) <= KERNEL_TOL

    nil, a, k = iwasawa_batched(mats)
    assert _row_residual(nil @ (a[:, :, None] * k), mats) <= KERNEL_TOL
    assert np.max(np.abs(k @ np.swapaxes(k, -1, -2) - eye)) <= KERNEL_TOL
    assert np.max(np.abs(np.linalg.det(k) - 1.0)) <= KERNEL_TOL
    assert np.all(a > 0.0)
    assert np.all(np.tril(nil, -1) == 0.0)
    assert np.all(np.diagonal(nil, axis1=-2, axis2=-1) == 1.0)
    if a_true is not None:
        assert np.max(np.abs(a / a_true - 1.0)) <= KERNEL_TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_schmidt_matches_householder_when_well_conditioned(n):
    rng = np.random.default_rng(7 + n)
    mats = _det_one_stack(n, 4000, rng)
    mats = mats[np.linalg.cond(mats) < 1e3]
    low, _ = gram_schmidt_rows(mats)
    scale = np.linalg.norm(mats, axis=-1)[:, :, None]
    assert np.max(np.abs(low - _qr_lower(mats)) / scale) <= QR_AGREEMENT_TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_schmidt_does_not_depend_on_the_stack(n):
    """Leading axes are kept, and each matrix gets the same bits alone, in a
    slice, or in the whole stack."""
    mats = _det_one_stack(n, 60, np.random.default_rng(n)).reshape(3, 4, 5, n, n)
    low, q = gram_schmidt_rows(mats)
    assert low.shape == q.shape == mats.shape
    flat, low_flat = mats.reshape(-1, n, n), low.reshape(-1, n, n)
    for lo, hi in ((0, 60), (7, 8), (10, 13), (59, 60)):
        part, _ = gram_schmidt_rows(flat[lo:hi])
        assert np.array_equal(part, low_flat[lo:hi])
    single, _ = gram_schmidt_rows(flat[7])
    assert np.array_equal(single, low_flat[7])


def test_gram_schmidt_blocks_change_no_bit(monkeypatch):
    """A stack longer than GS_BLOCK factors block by block with the bits of
    one pass over the whole stack."""
    rng = np.random.default_rng(4)
    mats = np.concatenate(
        [_det_one_stack(3, 2 * lingrp.GS_BLOCK + 5, rng), _cusp_stack(3, 99, rng)[0]]
    )
    rows = mats[:, ::-1, :].transpose(1, 2, 0)
    low, q = gram_schmidt_components(rows)
    monkeypatch.setattr(lingrp, "GS_BLOCK", len(mats))
    whole_low, whole_q = gram_schmidt_components(rows)
    assert np.array_equal(low, whole_low) and np.array_equal(q, whole_q)


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["random", "cusp", "integer"])
def test_iwasawa_coordinates_read_the_split_bit_for_bit(n, kind):
    """Coordinates read from the component-major factor of the row-reversed
    stack equal iwasawa_batched's a and the strictly upper entries of its N,
    signs of zero included."""
    rng = np.random.default_rng(31 * n + len(kind))
    if kind == "random":
        mats = _det_one_stack(n, 500, rng)
    elif kind == "cusp":
        mats, _ = _cusp_stack(n, 500, rng)
    else:  # exact zeros in every position, as pushed identities have
        mats = np.tile(np.eye(n), (6, 1, 1))
        mats[1] = mats[1, ::-1]
        mats[2, 0, -1] = -3.0
        mats[3, -1, 0] = 2.0
        mats[4] = np.diag(np.linspace(2.0, 0.5, n))
        mats[5, 0, 1] = -0.0
    nil, a, _ = iwasawa_batched(mats)
    low = gram_schmidt_components(mats[:, ::-1, :].transpose(1, 2, 0))[0]
    a_read, u_read = iwasawa_coordinates(low)
    assert _same_bits(np.stack(a_read, axis=1), a)
    iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert len(u_read) == len(iu)
    for col, (i, j) in enumerate(iu):
        assert _same_bits(u_read[col], nil[:, i, j])


def test_flag_shapes():
    assert ParabolicIndex(3, frozenset({1})).flag_shape == (1, 2)
    assert ParabolicIndex(3, frozenset()).flag_shape == (1, 1, 1)
    assert ParabolicIndex(3, frozenset({0, 1})).flag_shape == (3,)
    assert ParabolicIndex(4, frozenset({0, 2})).flag_shape == (2, 2)
    assert ParabolicIndex(3, frozenset({0, 1})).is_group
    with pytest.raises(ValueError):
        ParabolicIndex(3, frozenset({2}))


def test_langlands_degenerate_flag():
    g = random_sl(3)
    parts = langlands(g, ParabolicIndex(3, frozenset({0, 1})))
    assert np.allclose(parts.n_part, np.eye(3))
    assert np.allclose(parts.a_part, np.eye(3))
    assert np.allclose(parts.m_part @ parts.k_part, g.mat, atol=1e-9)


def test_langlands_block_normalization_frozen():
    g = group_element(np.diag([4.0, 1.0, 0.25]))
    parts = langlands(g, ParabolicIndex(3, frozenset({1})))
    assert np.allclose(parts.a_diag, [4.0, 0.5, 0.5])
    assert np.allclose(np.diagonal(parts.m_part), [1.0, 2.0, 0.5])
    assert np.allclose(parts.n_part, np.eye(3))


def test_langlands_roundtrip_and_block_structure():
    cases = [(3, {1}), (3, {0}), (3, set()), (4, {0, 2}), (4, {1, 2})]
    for n, I in cases:
        P = ParabolicIndex(n, frozenset(I))
        for _ in range(20):
            g = random_sl(n)
            parts = langlands(g, P)
            assert np.linalg.norm(parts.reconstruct() - g.mat) <= 1e-9 * np.linalg.norm(
                g.mat
            )
            for lo, hi in P.block_ranges():
                sub = parts.n_part[lo:hi, lo:hi]
                assert np.allclose(sub, np.eye(hi - lo), atol=1e-9)
                assert abs(abs(np.linalg.det(parts.m_part[lo:hi, lo:hi])) - 1.0) < 1e-9
                assert np.allclose(
                    parts.a_diag[lo:hi], parts.a_diag[lo], atol=1e-12
                )
            assert np.allclose(
                parts.m_part @ parts.a_part, parts.a_part @ parts.m_part, atol=1e-9
            )


def test_langlands_a_part_is_block_average_of_minimal():
    rs = build_type_a(3)
    P = ParabolicIndex(3, frozenset({1}))
    for _ in range(10):
        g = random_sl(3)
        block = langlands(g, P)
        minimal = iwasawa(g)
        inside = root_values(block.a_diag, rs)
        assert abs(inside.values[1] - 1.0) < 1e-12  # constant on the joined block
        log_min = np.log(minimal.a_diag)
        assert abs(np.log(block.a_diag[0]) - log_min[0]) < 1e-9
        assert abs(np.log(block.a_diag[1]) - np.mean(log_min[1:])) < 1e-9


def test_root_values_frozen():
    rs3 = build_type_a(3)
    rv = root_values([2.0, 1.0, 0.5], rs3)
    assert rv.values == (2.0, 2.0)
    assert root_values([1.0, 1.0, 1.0], rs3).values == (1.0, 1.0)
    rs2 = build_type_a(2)
    t = 1.7
    assert abs(root_values([t, 1 / t], rs2).values[0] - t * t) < 1e-12


def test_parabolic_root_values_multiplicities():
    P = ParabolicIndex(3, frozenset({1}))
    rv = parabolic_root_values(P, [4.0, 0.5, 0.5])
    assert rv.labels == ((0, 1),)
    assert rv.values == (8.0,)
    assert rv.multiplicities == (2,)
    P4 = ParabolicIndex(4, frozenset({0, 2}))
    rv4 = parabolic_root_values(P4, [2.0, 2.0, 0.25, 0.25])
    assert rv4.multiplicities == (4,)


def test_d_function_rotation_invariant():
    P = ParabolicIndex(3, frozenset({1}))
    k = iwasawa(random_sl(3)).k_part
    assert abs(d_function(P, group_element(k)) - 1.0) < 1e-10
    g = random_sl(3)
    assert (
        abs(d_function(P, group_element(k @ g.mat)) - d_function(P, g))
        < 1e-9 * d_function(P, g)
    )


def test_d_function_sl2_closed_form():
    P = ParabolicIndex(2, frozenset())
    for t in (1.5, 3.0, 0.2):
        g_inv = group_element(np.diag([1.0 / t, t]))
        assert abs(d_function(P, g_inv) - t ** -2) < 1e-12 * t ** -2


def test_d_function_diagonal_matches_character_product():
    P = ParabolicIndex(3, frozenset({1}))
    a = np.array([4.0, 0.5, 0.5])
    g_inv = group_element(np.diag(1.0 / a))
    expected = dalpha_product(P, a, power=-1)
    assert expected == pytest.approx(1.0 / 64.0)  # (4 / .5)^(-2), two root lines
    assert abs(d_function(P, g_inv) - expected) < 1e-10 * expected
    # non-block-constant diagonals are rejected rather than silently misread
    with pytest.raises(ValueError):
        dalpha_product(P, [3.0, 0.7, 1.0 / 2.1])


def test_d_function_right_equivariance():
    P = ParabolicIndex(3, frozenset({1}))
    for _ in range(10):
        g = random_sl(3)
        upper = np.triu(RNG.normal(size=(3, 3)), 1) + np.diag(
            np.exp(RNG.normal(size=3))
        )
        p = group_element(upper)
        chi = dalpha_product(P, langlands(p, P).a_diag, power=1)
        lhs = d_function(P, group_element(g.mat @ p.mat))
        rhs = d_function(P, g) * chi
        assert abs(lhs - rhs) < 1e-8 * rhs


def test_d_function_conjugated_flag():
    # moving the flag by gamma: d'(g) = d(g @ gamma) / d(gamma), and the
    # normalization keeps d'(identity) = 1
    P = ParabolicIndex(2, frozenset())
    rot = group_element([[0.0, -1.0], [1.0, 0.0]])
    Pconj = ParabolicIndex(2, frozenset(), conjugator=rot)
    assert abs(d_function(Pconj, identity_element(2)) - 1.0) < 1e-12
    for gamma in (rot, group_element([[2.0, 1.0], [1.0, 1.0]])):
        Pg = ParabolicIndex(2, frozenset(), conjugator=gamma)
        assert abs(d_function(Pg, identity_element(2)) - 1.0) < 1e-12
        for _ in range(5):
            g = random_sl(2)
            expected = d_function(P, g @ gamma) / d_function(P, gamma)
            assert abs(d_function(Pg, g) - expected) < 1e-9 * expected


def test_verify_dalpha_identity_and_unipotent():
    P = ParabolicIndex(3, frozenset({0}))
    assert verify_dalpha(identity_element(3), P) < 1e-12
    u = np.eye(3)
    u[0, 1], u[0, 2], u[1, 2] = 0.7, -1.3, 2.2
    g = group_element(u)
    assert abs(d_function(P, g.inv()) - 1.0) < 1e-10
    assert verify_dalpha(g, P) < 1e-10


def test_verify_dalpha_random_sl3_both_maximal():
    for I in ({0}, {1}):
        P = ParabolicIndex(3, frozenset(I))
        for _ in range(100):
            assert verify_dalpha(random_sl(3), P) <= 1e-8


def test_verify_dalpha_sl4():
    for I in ({0}, {0, 1}, {1, 2}, {0, 2}):
        P = ParabolicIndex(4, frozenset(I))
        for _ in range(25):
            assert verify_dalpha(random_sl(4), P) <= 1e-8


def test_d_function_rejects_whole_group():
    with pytest.raises(ValueError):
        d_function(ParabolicIndex(3, frozenset({0, 1})), identity_element(3))


def test_weyl_representative_identity_and_eta():
    rs = build_type_a(3)
    assert np.allclose(
        weyl_representative(WeylElement(rs, ((0, 1, 2),))).mat, np.eye(3)
    )
    eta = weyl_representative(WeylElement(rs, ((0, 2, 1),)))
    assert eta.mat.astype(int).tolist() == [[1, 0, 0], [0, 0, -1], [0, 1, 0]]


def test_weyl_representative_all_w_realize_torus_action():
    for n in (2, 3, 4):
        rs = build_type_a(n)
        t = np.exp(np.linspace(0.1, 0.4, n))
        t /= np.prod(t) ** (1.0 / n)
        for w in weyl_elements(rs):
            rep = weyl_representative(w)
            assert abs(np.linalg.det(rep.mat) - 1.0) < 1e-12
            assert np.allclose(rep.mat @ rep.mat.T, np.eye(n), atol=1e-12)
            moved = rep.mat @ np.diag(t) @ rep.mat.T
            perm = w.one_line()
            expect = np.empty(n)
            for i in range(n):
                expect[perm[i]] = t[i]
            assert np.allclose(np.diagonal(moved), expect)
            assert np.allclose(moved, np.diag(expect))
