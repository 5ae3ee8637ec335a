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
    GroupElement,
    ParabolicIndex,
    dalpha_product,
    d_function,
    gram_schmidt_components,
    gram_schmidt_lower,
    group_element,
    iwasawa,
    iwasawa_batched,
    langlands,
    parabolic_root_values,
    verify_dalpha,
)

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


def test_iwasawa_identity_and_diagonal():
    parts = iwasawa(GroupElement(np.eye(3)))
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


def _gram_schmidt_rows(b):
    """Row Gram-Schmidt of a (..., n, n) stack, b = L @ Q, from the kernel
    on the component-major view of the stack."""
    b = np.asarray(b, dtype=float)
    n = b.shape[-1]
    rows = np.moveaxis(b, (-2, -1), (0, 1)).reshape(n, n, b.size // (n * n))
    back = (n, n) + b.shape[:-2]
    return tuple(
        np.moveaxis(x.reshape(back), (0, 1), (-2, -1)) for x in gram_schmidt_components(rows)
    )


def test_gram_schmidt_frozen_example():
    low, q = _gram_schmidt_rows(np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert low.tolist() == [[5.0, 0.0], [0.6, 0.8]]
    assert np.allclose(q, [[0.6, 0.8], [0.8, -0.6]])


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

    low, q = _gram_schmidt_rows(mats)
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
    low, _ = _gram_schmidt_rows(mats)
    scale = np.linalg.norm(mats, axis=-1)[:, :, None]
    assert np.max(np.abs(low - _qr_lower(mats)) / scale) <= QR_AGREEMENT_TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_schmidt_does_not_depend_on_the_stack(n):
    """Leading axes are kept, and each matrix gets the same bits alone, in a
    slice, or in the whole stack."""
    mats = _det_one_stack(n, 60, np.random.default_rng(n)).reshape(3, 4, 5, n, n)
    low, q = _gram_schmidt_rows(mats)
    assert low.shape == q.shape == mats.shape
    flat, low_flat = mats.reshape(-1, n, n), low.reshape(-1, n, n)
    for lo, hi in ((0, 60), (7, 8), (10, 13), (59, 60)):
        part, _ = _gram_schmidt_rows(flat[lo:hi])
        assert np.array_equal(part, low_flat[lo:hi])
    single, _ = _gram_schmidt_rows(flat[7])
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
    # the lower factor alone, into a view of a longer array whose stale
    # contents must not leak in
    into = np.full(rows.shape[:2] + (len(mats) + 3,), np.nan)
    gram_schmidt_lower(rows, into[:, :, 2:-1])
    assert _same_bits(into[:, :, 2:-1], low)
    assert np.isnan(into[:, :, :2]).all() and np.isnan(into[:, :, -1]).all()
    monkeypatch.setattr(lingrp, "GS_BLOCK", len(mats))
    whole_low, whole_q = gram_schmidt_components(rows)
    assert np.array_equal(low, whole_low) and np.array_equal(q, whole_q)


def test_workspace_slots_only_grow_and_belong_to_their_thread():
    """A slot hands out the same memory while a request fits, whatever its
    dtype, moves to a new buffer for a larger request, and is another
    buffer in another thread; each starts on a 64-byte cache line."""
    from concurrent.futures import ThreadPoolExecutor

    first = lingrp.workspace("test_slot", (3, 4))
    flags = lingrp.workspace("test_slot", (5,), dtype=bool)
    assert flags.shape == (5,) and flags.dtype == bool and np.shares_memory(first, flags)
    grown = lingrp.workspace("test_slot", (5, 4))
    assert grown.flags.c_contiguous and not np.shares_memory(first, grown)
    assert np.shares_memory(lingrp.workspace("test_slot", (2,)), grown)
    with ThreadPoolExecutor(1) as pool:
        other = pool.submit(lingrp.workspace, "test_slot", (2,)).result()
    assert not np.shares_memory(other, grown)
    for arr in (first, grown, flags, other):
        assert arr.ctypes.data % 64 == 0


def _dot(x, y):
    """The kernel's dot product before it wrote into workspace, kept as part
    of the reference: one temporary per product, summed in row order."""
    acc = x[0] * y[0]
    for k in range(1, len(x)):
        acc += x[k] * y[k]
    return acc


def _gram_schmidt_block(rows, low, q):
    """The kernel on one column block before it wrote into workspace, kept
    as the reference: accumulates into a zeroed view of low and writes every
    direction into q."""
    n = rows.shape[0]
    for i in range(n):
        v = rows[i].copy()
        for _ in range(2):
            for j in range(i):
                c = _dot(q[j], v)
                low[i, j] += c
                v -= c * q[j]
        norm = np.sqrt(_dot(v, v))
        low[i, i] = norm
        q[i] = v / norm


def _gram_schmidt_reference(rows):
    low = np.zeros(rows.shape)
    q = np.empty(rows.shape)
    for start in range(0, rows.shape[2], lingrp.GS_BLOCK):
        cols = slice(start, start + lingrp.GS_BLOCK)
        _gram_schmidt_block(rows[:, :, cols], low[:, :, cols], q[:, :, cols])
    return low, q


def _u64(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _workspace_cases(n, rng):
    """Component-major stacks for the workspace kernel: random, cusp-like,
    rows scaled by 1e+-20, and integer matrices with signed zeros."""
    count = lingrp.GS_BLOCK + 37
    mats = _det_one_stack(n, count, rng)
    mats[: count // 2] = _cusp_stack(n, count // 2, rng)[0]
    scales = 10.0 ** rng.choice([-20.0, 0.0, 20.0], size=(count, n, 1))
    zeros = np.tile(np.eye(n), (9, 1, 1))
    zeros[1] = np.where(np.eye(n) > 0, 1.0, -0.0)
    zeros[2, -1, 0] = -0.0
    zeros[3] = zeros[3, ::-1]
    zeros[4, :, 0] *= -1.0
    zeros[5] = -zeros[1] + np.triu(np.ones((n, n)), 1)
    zeros[6, 0] = -0.0
    zeros[6, 0, 0] = 3.0
    zeros[7] = np.where(np.tril(np.ones((n, n))) > 0, 1.0, -0.0)
    zeros[8] = -np.eye(n) + 0.0  # both projections of row 1 on row 0 give -0.0
    stacks = [mats, mats * scales, zeros]
    return [(name, np.ascontiguousarray(m.transpose(1, 2, 0)))
            for name, m in zip(("random", "scaled", "signed zeros"), stacks)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_workspace_kernel_matches_the_reference_bit_for_bit(n):
    """gram_schmidt_components and gram_schmidt_lower give the uint64 bits of
    the reference kernel, on stacks that are not a multiple of GS_BLOCK, on
    strided row views, and with low a view into a longer stack."""
    rng = np.random.default_rng(600 + n)
    for name, rows in _workspace_cases(n, rng):
        want_low, want_q = _gram_schmidt_reference(rows)
        low, q = gram_schmidt_components(rows)
        assert np.array_equal(_u64(low), _u64(want_low)), name
        assert np.array_equal(_u64(q), _u64(want_q)), name
        into = np.full(rows.shape[:2] + (rows.shape[2] + 5,), np.nan)
        gram_schmidt_lower(rows, into[:, :, 3:-2])
        assert np.array_equal(_u64(into[:, :, 3:-2]), _u64(want_low)), name
        assert np.isnan(into[:, :, :3]).all() and np.isnan(into[:, :, -2:]).all()
        # the row-reversed, strided view the n = 2 sampling path factors
        mats = rows.transpose(2, 0, 1)
        strided = mats[:, ::-1, :].transpose(1, 2, 0)
        want_low, _ = _gram_schmidt_reference(strided)
        low = np.empty(rows.shape)
        gram_schmidt_lower(strided, low)
        assert np.array_equal(_u64(low), _u64(want_low)), name


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["random", "cusp", "integer"])
def test_negated_last_row_negates_its_coefficients(n, kind):
    """Negating row n-1 of every matrix turns row n-1 of the lower factor
    into 0.0 - low off the diagonal and changes no other bit; the reducer
    uses this to fix the determinant sign without factoring again."""
    rng = np.random.default_rng(17 * n + len(kind))
    if kind == "random":
        mats = _det_one_stack(n, 500, rng)
    elif kind == "cusp":
        mats, _ = _cusp_stack(n, 500, rng)
    else:
        mats = np.tile(np.eye(n), (5, 1, 1))
        mats[1] = mats[1, ::-1]
        mats[2, -1, 0] = -3.0
        mats[3] = np.where(np.eye(n) > 0, 1.0, -0.0)
        mats[4, 0, 1] = -0.0
    rows = np.ascontiguousarray(mats.transpose(1, 2, 0))
    low = gram_schmidt_components(rows)[0]
    rows[-1] = -rows[-1]
    flipped = gram_schmidt_components(rows)[0]
    want = low.copy()
    want[-1, :-1] = 0.0 - low[-1, :-1]
    assert _same_bits(flipped, want)


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def _read_split(low):
    """The n-a-k coordinates of a stack read off the component-major lower
    factor of its row-reversed stack, as the sampling path reads them: the
    diagonals a[j] = low[n-1-j, n-1-j], (m, n), and u_ij = low[n-1-i, n-1-j]
    / a[j] in row-major (i, j) order, (m, n(n-1)/2)."""
    n = low.shape[0]
    a = [low[n - 1 - j, n - 1 - j] for j in range(n)]
    u = [low[n - 1 - i, n - 1 - j] / a[j] for i in range(n) for j in range(i + 1, n)]
    return np.stack(a, axis=1), np.stack(u, axis=1)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["random", "cusp", "integer"])
def test_iwasawa_coordinates_read_the_split_bit_for_bit(n, kind):
    """Coordinates read from the component-major factor of the row-reversed
    stack equal iwasawa_batched's a and the strictly upper entries of its N,
    signs of zero included: the divisions are the ones the split performs."""
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
    a_read, u_read = _read_split(low)
    assert _same_bits(a_read, a)
    iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert u_read.shape[1] == len(iu)
    for col, (i, j) in enumerate(iu):
        assert _same_bits(u_read[:, col], nil[:, i, j])


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
    P = ParabolicIndex(3, frozenset({1}))
    for _ in range(10):
        g = random_sl(3)
        block = langlands(g, P)
        minimal = iwasawa(g)
        # constant on the joined block
        assert abs(block.a_diag[1] / block.a_diag[2] - 1.0) < 1e-12
        log_min = np.log(minimal.a_diag)
        assert abs(np.log(block.a_diag[0]) - log_min[0]) < 1e-9
        assert abs(np.log(block.a_diag[1]) - np.mean(log_min[1:])) < 1e-9


def test_root_values_frozen():
    """At the minimal parabolic every block is one entry, so the simple-root
    values a_i / a_(i+1) are the labels (i, i + 1), each of multiplicity 1."""

    def simple(a):
        rv = parabolic_root_values(ParabolicIndex(len(a), frozenset()), a)
        values = dict(zip(rv.labels, rv.values))
        assert rv.multiplicities == (1,) * len(rv.labels)
        return tuple(values[(i, i + 1)] for i in range(len(a) - 1))

    assert simple([2.0, 1.0, 0.5]) == (2.0, 2.0)
    assert simple([1.0, 1.0, 1.0]) == (1.0, 1.0)
    t = 1.7
    assert abs(simple([t, 1 / t])[0] - t * t) < 1e-12


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
    assert abs(d_function(Pconj, GroupElement(np.eye(2))) - 1.0) < 1e-12
    for gamma in (rot, group_element([[2.0, 1.0], [1.0, 1.0]])):
        Pg = ParabolicIndex(2, frozenset(), conjugator=gamma)
        assert abs(d_function(Pg, GroupElement(np.eye(2))) - 1.0) < 1e-12
        for _ in range(5):
            g = random_sl(2)
            expected = d_function(P, GroupElement(g.mat @ gamma.mat)) / d_function(P, gamma)
            assert abs(d_function(Pg, g) - expected) < 1e-9 * expected


def test_verify_dalpha_identity_and_unipotent():
    P = ParabolicIndex(3, frozenset({0}))
    assert verify_dalpha(GroupElement(np.eye(3)), P) < 1e-12
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
        d_function(ParabolicIndex(3, frozenset({0, 1})), GroupElement(np.eye(3)))
