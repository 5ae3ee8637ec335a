"""Reduction checks.

The test-file predicate :func:`_in_siegel`, which reads the bounds off the
object-level Iwasawa split, is the oracle for the lattice-reduction path;
the exact translate/invert walk :func:`_reduce_sl2`, kept here with frozen
hand-computed examples, is the oracle for the half-plane walk.  The package
reducer forms no integer reducers; the full-array reducer
:func:`_reduce_siegel_full` kept here makes the same decisions bit for bit
and also tracks them as int64 matrices, on which determinant one and
gamma @ mats = reps are checked.  The integer enumeration is compared
against an independent brute-force filter written inline.
"""

import doctest
import itertools
import warnings

import numpy as np
import pytest

import escmass.reduction as reduction
from escmass.cli import bundled_scenarios, load_scenario, points_text, scenario_from_json
from escmass.limits import sequence_translate
from escmass.lingrp import (
    GroupElement,
    gram_schmidt_components,
    group_element,
    iwasawa,
    iwasawa_batched,
)
from escmass.measures import (
    CHUNK,
    EmpiricalMeasure,
    _chunk_plan,
    _draw_factor_chunk,
    _embed_factor_chunk,
    _reduce_into,
    _right_multiply,
)
from escmass.reduction import (
    RATIO_MIN,
    U_BOUND,
    enumerate_gamma,
    reduce_siegel_batched,
    reduce_sl2_coords,
)

RNG = np.random.default_rng(90125)


def _samples(spec, count, seed, y_cap):
    """(count, n, n) raw Haar samples of a one-factor spec, drawn and
    embedded chunk by chunk from the sampling path's (seed, chunk, 0)
    streams."""
    out = np.empty((count, spec.n, spec.n))
    for ci, size in _chunk_plan(count):
        draw = _draw_factor_chunk(spec, size, np.random.default_rng([seed, ci, 0]), y_cap)
        out[ci * CHUNK : ci * CHUNK + size] = _embed_factor_chunk(spec, draw, size).transpose(2, 0, 1)
    return out


def random_sl(n, scale=1.0, rng=RNG):
    while True:
        m = rng.normal(size=(n, n)) * scale
        if np.linalg.det(m) > 1e-3:
            return group_element(m)


def random_gamma(n, rng=RNG, steps=8):
    """Product of elementary integer row operations (determinant one)."""
    g = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        g[i] += int(rng.integers(-2, 3)) * g[j]
    return g


def _reduce_sl2(g):
    """The exact translate/invert walk on the half-plane point of one 2x2
    element: returns the integer reducer rows and the representative
    gamma @ g."""
    a, b, c, d = (float(v) for v in g.mat.ravel())
    den = c * c + d * d
    x, y = (a * c + b * d) / den, 1.0 / den
    ga, gb, gc, gd = 1, 0, 0, 1  # integer reducer rows, exact
    while True:  # each inversion strictly increases y
        m = round(x)
        if m != 0:
            x -= m
            ga, gb = ga - m * gc, gb - m * gd
        norm2 = x * x + y * y
        if norm2 >= reduction.DISC_BOUND:
            break
        x, y = -x / norm2, y / norm2
        ga, gb, gc, gd = -gc, -gd, ga, gb
    gamma = ((ga, gb), (gc, gd))
    return gamma, np.array(gamma, dtype=float) @ g.mat


def _in_siegel(mat):
    """Whether the triangular coordinates of one matrix satisfy the bounds."""
    parts = iwasawa(GroupElement(np.asarray(mat, dtype=float)))
    a = parts.a_diag
    if np.any(a[:-1] / a[1:] < RATIO_MIN):
        return False
    return bool(np.all(np.abs(parts.n_part[np.triu_indices(len(a), 1)]) <= U_BOUND))


def half_plane_point(mats):
    """x + iy of each 2x2 matrix of a stack: the upper entry of N and the
    diagonal ratio of its Iwasawa split."""
    nil, a, _ = iwasawa_batched(np.asarray(mats, dtype=float).reshape(-1, 2, 2))
    return nil[:, 0, 1], a[:, 0] / a[:, 1]


def _reduce_sl2_point(g):
    """reduce_sl2_coords on the half-plane point of one element."""
    x, y = reduce_sl2_coords(*half_plane_point(g.mat))
    return x[0], y[0]


def _reduced(mats):
    """reduce_siegel_batched on a (m, n, n) stack, with the checks on every
    matrix: reps and low are the oracle's bit for bit, and the oracle's
    reducers have gammas @ mats = reps and det gamma = 1 exactly, with reps
    inside the default Siegel set.  Returns the oracle's gammas, reps, the
    diagonals a (m, n) and the strictly upper entries u (m, n(n-1)/2) of the
    reduced split, as the sampling path reads them (see _sampled_split)."""
    mats = np.asarray(mats, dtype=float)
    reps, low = reduce_siegel_batched(mats)
    gammas, want_reps, want_low = _reduce_siegel_full(mats)
    assert _same_bits(reps, want_reps) and _same_bits(low, want_low)
    assert np.allclose(gammas.astype(float) @ mats, reps, atol=1e-9)
    for gamma, rep in zip(gammas, reps):
        assert _exact_det(gamma.tolist()) == 1
        assert _in_siegel(rep)
    a, u = _sampled_split(mats, reps)
    return gammas, reps, a, u


def _sampled_split(mats, reps):
    """measures._reduce_into on a (m, n, n) stack, fed as the sampling path
    feeds it, row-reversed and component-major.  Its log_a is np.log of the
    diagonals a of iwasawa_batched(reps) and its u_coords are the strictly
    upper entries u of that N, row-major, bit for bit; returns a, (m, n),
    and u, (m, n(n-1)/2)."""
    m, n, _ = mats.shape
    rev = np.ascontiguousarray(mats[:, ::-1, :].transpose(1, 2, 0))
    log_a, u_coords = np.empty((n, m)), np.empty((n * (n - 1) // 2, m))
    _reduce_into(rev, log_a, u_coords)
    nil, a, _ = iwasawa_batched(reps)
    u = np.stack([nil[:, i, j] for i in range(n) for j in range(i + 1, n)], axis=1)
    assert _same_bits(log_a.T, np.log(a)) and _same_bits(u_coords.T, u)
    return a, u


def test_doctests():
    assert doctest.testmod(reduction).failed == 0


def test_siegel_set_conventions():
    assert RATIO_MIN == 1.0 / (2.0 / np.sqrt(3.0) + reduction.RATIO_SLACK)
    assert RATIO_MIN <= np.sqrt(3) / 2
    assert U_BOUND == 0.5 + reduction.U_SLACK


def test_reduce_sl2_identity():
    g = GroupElement(np.eye(2))
    assert _reduce_sl2(g)[0] == ((1, 0), (0, 1))
    x, y = _reduce_sl2_point(g)
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12


def test_reduce_sl2_translation():
    g = group_element([[1.0, 5.0], [0.0, 1.0]])
    assert _reduce_sl2(g)[0] == ((1, -5), (0, 1))
    x, y = _reduce_sl2_point(g)
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12


def test_reduce_sl2_inversion():
    s = np.sqrt(0.1)
    g = group_element([[s, 0.0], [0.0, 1.0 / s]])
    assert _reduce_sl2(g)[0] == ((0, -1), (1, 0))
    x, y = _reduce_sl2_point(g)
    assert abs(x) < 1e-12 and abs(y - 10.0) < 1e-9


def test_reduce_sl2_membership_random():
    gs = [random_sl(2, scale=2.0) for _ in range(200)]
    x, y = reduce_sl2_coords(*half_plane_point(np.stack([g.mat for g in gs])))
    assert np.all(np.abs(x) <= 0.5 + 1e-12)
    assert np.all(x * x + y * y >= 1.0 - 1e-11)
    for g, yi in zip(gs, y):
        gamma, rep = _reduce_sl2(g)
        assert _exact_det(gamma) == 1
        assert np.allclose(np.array(gamma, dtype=float) @ g.mat, rep)
        assert abs(half_plane_point(rep)[1][0] - yi) <= 1e-9 * yi


def test_reduce_sl2_gamma_invariance():
    pairs = []
    for _ in range(50):
        g = random_sl(2, scale=2.0)
        pairs += [g.mat, random_gamma(2).astype(float) @ g.mat]
    x, y = reduce_sl2_coords(*half_plane_point(np.stack(pairs)))
    for x1, y1, x2, y2 in zip(x[::2], y[::2], x[1::2], y[1::2]):
        # interior points reduce uniquely; boundary ties allowed to differ in x
        if y1 > 1.01 and abs(abs(x1) - 0.5) > 1e-3:
            assert abs(x1 - x2) < 1e-6 and abs(y1 - y2) < 1e-6
        else:
            assert abs(y1 - y2) < 1e-6


def test_reduce_sl2_coords_matches_elementwise():
    xs = RNG.uniform(-40, 40, size=300)
    ys = np.exp(RNG.uniform(np.log(1e-4), 2, size=300))
    rx, ry = reduce_sl2_coords(xs.copy(), ys.copy())  # the walk owns its inputs
    for i in range(0, 300, 17):
        mat = [[np.sqrt(ys[i]), xs[i] / np.sqrt(ys[i])], [0.0, 1.0 / np.sqrt(ys[i])]]
        (x1,), (y1,) = half_plane_point(_reduce_sl2(group_element(mat))[1])
        assert abs(ry[i] - y1) < 1e-9
        if y1 > 1.01 and abs(abs(x1) - 0.5) > 1e-3:
            assert abs(rx[i] - x1) < 1e-9
    assert np.all(np.abs(rx) <= 0.5 + 1e-12)
    assert np.all(rx * rx + ry * ry >= 1.0 - 1e-11)


def test_walk_owns_its_float64_inputs():
    """Contiguous float64 inputs are walked in place and returned; other
    inputs (a strided view, a list, integers) are converted and left as
    they were."""
    xs = RNG.uniform(-40, 40, size=300)
    ys = np.exp(RNG.uniform(np.log(1e-4), 2, size=300))
    want = _reduce_sl2_coords_full(xs, ys)
    x, y = xs.copy(), ys.copy()
    got = reduce_sl2_coords(x, y)
    assert got[0] is x and got[1] is y
    assert _same_bits(x, want[0]) and _same_bits(y, want[1])
    pairs = np.stack([xs, ys], axis=1)
    strided = pairs.copy()
    got = reduce_sl2_coords(strided[:, 0], strided[:, 1])
    assert np.array_equal(strided, pairs)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    got = reduce_sl2_coords([3, 0], [1, 2])
    assert got[0].dtype == np.float64 and _same_bits(got[1], np.array([1.0, 2.0]))


def _reduce_sl2_coords_full(x, y, max_iter=64):
    """The full-array form of the half-plane walk, kept as an oracle: every
    iteration translates and tests all points."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    for _ in range(max_iter):
        x -= np.round(x)
        norm2 = x * x + y * y
        low = norm2 < reduction.DISC_BOUND
        if not low.any():
            break
        x[low] = -x[low] / norm2[low]
        y[low] = y[low] / norm2[low]
    else:
        warnings.warn("half-plane reduction hit the iteration cap")
    x -= np.round(x)
    return x, y


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def _assert_walk_matches(x, y, max_iter=64):
    got = reduce_sl2_coords(np.copy(x), np.copy(y), max_iter=max_iter)
    want = _reduce_sl2_coords_full(x, y, max_iter=max_iter)
    assert got[0].shape == got[1].shape == np.shape(x)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def _mixed_depth_blocks(rng, block, shares):
    """One block per share: that share of its points starts at heights near
    1e-12, which take dozens of iterations, the rest at heights of 1e-3 to
    1, which leave within a few; so the share of each block still inside
    the disc falls below one half at a different iteration."""
    xs, ys = [], []
    for share in shares:
        deep = rng.uniform(size=block) < share
        xs.append(rng.uniform(-40.0, 40.0, size=block))
        ys.append(np.where(
            deep,
            np.exp(rng.uniform(np.log(1e-13), np.log(1e-11), size=block)),
            np.exp(rng.uniform(np.log(1e-3), 0.0, size=block)),
        ))
    return np.concatenate(xs), np.concatenate(ys)


def test_live_set_walk_matches_the_full_array_loop(monkeypatch):
    rng = np.random.default_rng(2718)
    xs = [rng.uniform(-40.0, 40.0, size=5000)]
    ys = [np.exp(rng.uniform(np.log(1e-12), 3.0, size=5000))]
    # edge cases: Re z = +-1/2 (and its integer translates), |z| = 1 (and
    # just inside the DISC_BOUND tolerance), signed zeros, tiny heights
    theta = rng.uniform(0.0, np.pi, size=200)
    edge_x = np.concatenate([
        [0.5, -0.5, 1.5, -1.5, 0.0, -0.0, 0.0, -0.0, 0.5, -0.5, 3.0, -7.0],
        np.cos(theta),
        np.full(50, 0.5),
        np.full(50, -0.5),
        rng.uniform(-0.5, 0.5, size=50),
    ])
    edge_y = np.concatenate([
        [0.8, 0.8, 0.5, 0.5, 1.0, 1.0, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1.0 - 1e-12],
        np.sin(theta),
        np.sqrt(0.75) * np.ones(50),
        np.exp(rng.uniform(np.log(1e-12), 0.0, size=50)),
        np.sqrt(1.0 - rng.uniform(-0.5, 0.5, size=50) ** 2),
    ])
    for x, y in zip(xs + [edge_x], ys + [edge_y]):
        _assert_walk_matches(x, y)
    # stacks of whole blocks and a remainder, at the shipped block length
    block = reduction.WALK_BLOCK
    x, y = _mixed_depth_blocks(rng, block, [0.9, 0.3])
    _assert_walk_matches(np.append(x, edge_x), np.append(y, edge_y))
    # a 2-D stack, a single point and a 0-d point
    _assert_walk_matches(xs[0][:4800].reshape(48, 100), ys[0][:4800].reshape(48, 100))
    _assert_walk_matches(np.array([0.3]), np.array([1e-9]))
    _assert_walk_matches(np.float64(-7.25), np.float64(2e-5))
    # short blocks whose live share falls below one half at different
    # iterations (or never, or at once), and a short remainder block
    monkeypatch.setattr(reduction, "WALK_BLOCK", 64)
    x, y = _mixed_depth_blocks(rng, 64, [1.0, 0.9, 0.7, 0.55, 0.45, 0.2, 0.0, 0.6])
    _assert_walk_matches(np.append(x, edge_x[:21]), np.append(y, edge_y[:21]))
    # the iteration cap still warns, with the capped walk's bits
    x, y = np.array([0.25, 3.0, 0.1, 0.3]), np.array([1e-12, 2.0, 1e-6, 0.2])
    with pytest.warns(UserWarning, match="iteration cap"):
        got = reduce_sl2_coords(x.copy(), y.copy(), max_iter=2)
    with pytest.warns(UserWarning, match="iteration cap"):
        want = _reduce_sl2_coords_full(x, y, max_iter=2)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


@pytest.mark.parametrize("capped_blocks", [(0, 1, 2), (2,), (0,)])
def test_walk_warns_once_per_call_at_the_cap(capped_blocks, monkeypatch):
    """Blocks of four points, each capped block holding one point that needs
    more than two iterations; the walk warns once per call however many
    blocks hit the cap, and keeps the capped walk's bits."""
    monkeypatch.setattr(reduction, "WALK_BLOCK", 4)
    x = np.tile([0.25, 3.0, 0.1, 0.3], 3)
    y = np.tile([1.0, 2.0, 1.5, 1.2], 3)
    for b in capped_blocks:
        y[4 * b] = 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = reduce_sl2_coords(x.copy(), y.copy(), max_iter=2)
    assert [str(w.message) for w in caught] == ["half-plane reduction hit the iteration cap"]
    with pytest.warns(UserWarning, match="iteration cap"):
        want = _reduce_sl2_coords_full(x, y, max_iter=2)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reduce_sl2_coords(x, np.tile([1.0, 2.0, 1.5, 1.2], 3), max_iter=2)
    assert not caught


def test_reduce_siegel_identity_and_integer_cosets():
    _, reps, a, _ = _reduced(np.eye(3)[None])
    assert np.allclose(reps[0] @ reps[0].T, np.eye(3), atol=1e-12)
    assert np.allclose(a, 1.0, atol=1e-9)
    for n in (3, 4):
        gamma = random_gamma(n)
        _, _, a, _ = _reduced(gamma.astype(float)[None])
        assert np.allclose(a, 1.0, atol=1e-9)


def test_reduce_siegel_membership_random():
    for n in (3, 4):
        for scale in (1.0, 5.0):
            _reduced(np.stack([random_sl(n, scale=scale).mat for _ in range(40)]))


def test_reduce_siegel_batched_matches_single():
    mats = np.stack([random_sl(3, scale=3.0).mat for _ in range(32)])
    reps, low = reduce_siegel_batched(mats)
    for i in range(0, 32, 7):
        _, rep, _, _ = _reduced(mats[i : i + 1])
        one_low = reduce_siegel_batched(mats[i : i + 1])[1]
        assert _same_bits(reps[i], rep[0])
        assert _same_bits(low[:, :, i], one_low[:, :, 0])


def test_reduce_siegel_far_diagonal():
    g = group_element(np.diag([50.0, 1.0, 0.02]))
    _, reps, _, _ = _reduced(g.mat[None])
    assert _in_siegel(reps[0])


def _interior(a, u):
    ratios = a[:, :-1] / a[:, 1:]
    return np.all(ratios > np.sqrt(3) / 2 * 1.05, axis=1) & np.all(np.abs(u) < 0.45, axis=1)


def test_reduce_siegel_idempotent_interior():
    _, reps, a, u = _reduced(np.stack([random_sl(3, scale=2.0).mat for _ in range(60)]))
    interior = _interior(a, u)
    assert np.count_nonzero(interior) >= 5
    again = _reduced(reps[interior])[0]
    assert np.array_equal(again, np.tile(np.eye(3, dtype=np.int64), (len(again), 1, 1)))


def test_reduce_siegel_gamma_invariance_of_a_part():
    mats = []
    for _ in range(30):
        g = random_sl(3, scale=2.0)
        mats += [g.mat, random_gamma(3).astype(float) @ g.mat]
    _, _, a, u = _reduced(np.stack(mats))
    interior = _interior(a[::2], u[::2])
    assert np.allclose(a[::2][interior], a[1::2][interior], atol=1e-6)


def _exact_det(rows):
    """Determinant by cofactor expansion along the first row, in Python
    integers."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** c * rows[0][c] * _exact_det([r[:c] + r[c + 1 :] for r in rows[1:]])
        for c in range(len(rows))
    )


def test_exact_det():
    assert _exact_det([[2, 1], [7, 4]]) == 1
    assert _exact_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


def test_largest_reducers_have_exact_determinant_one():
    """At index 4 the reducers of the scenario's samples outgrow what a
    float64 determinant resolves; the oracle sets their determinant from the
    swap parity, as the package reducer signs its reps, and it must be
    exactly 1."""
    largest = 0
    for name in ("sl3_case1", "sl3_levi_block"):
        scn = load_scenario(name)
        g = sequence_translate(scn.sequence, 4)
        samples = _samples(scn.sequence.subgroup, scn.count, scn.seed, scn.y_cap)
        pushed = _right_multiply(samples.transpose(1, 2, 0), g[0])
        gammas = _reduce_siegel_full(pushed[::-1].transpose(2, 0, 1))[0]
        size = np.abs(gammas).max(axis=(1, 2))
        for idx in np.argsort(size)[-200:]:
            rows = [[int(v) for v in row] for row in gammas[idx]]
            assert _exact_det(rows) == 1, (name, rows)
        largest = max(largest, int(size.max()))
    assert largest > 2**32


@pytest.fixture(scope="module")
def levi_stack():
    """The 4,096 pushed samples of sl3_levi_block at index 4: the stack that
    takes the most LLL sweeps among the bundled scenarios."""
    scn = load_scenario("sl3_levi_block")
    g = sequence_translate(scn.sequence, 4)
    return _samples(scn.sequence.subgroup, 4096, scn.seed, scn.y_cap) @ g[0]


def test_reduction_does_not_depend_on_the_stack(levi_stack):
    """Chunking must not change a single bit of any representative or
    factor, signs of zero included."""
    reps, low = reduce_siegel_batched(levi_stack)
    for lo in range(0, len(levi_stack), 1000):
        part = reduce_siegel_batched(levi_stack[lo : lo + 1000])
        assert np.array_equal(_bits(part[0]), _bits(reps[lo : lo + 1000]))
        assert np.array_equal(_bits(part[1]), _bits(low[:, :, lo : lo + 1000]))
    for i in np.linspace(0, len(levi_stack) - 1, 50).astype(int):
        one = reduce_siegel_batched(levi_stack[i : i + 1])
        assert np.array_equal(_bits(one[0][0]), _bits(reps[i]))
        assert np.array_equal(_bits(one[1][:, :, 0]), _bits(low[:, :, i]))


# Gram-Schmidt columns the full-array reducer factored for levi_stack:
# the input once for the budget, 17 more sweeps of pass 1, 2 of pass 2 and
# the final factor, 21 x 4,096
FULL_ARRAY_COLUMNS = 86016


def test_reducer_factors_only_the_matrices_that_moved(levi_stack, monkeypatch):
    """Each sweep factors only the matrices the previous sweep changed."""
    real = reduction.gram_schmidt_lower
    columns = []

    def counted(rows, low):
        columns.append(rows.shape[2])
        real(rows, low)

    monkeypatch.setattr(reduction, "gram_schmidt_lower", counted)
    reduction._reduce_stack(levi_stack)
    assert sum(columns) == 50884
    assert sum(columns) < FULL_ARRAY_COLUMNS


def test_reduced_factor_gives_the_split_of_the_reps(levi_stack):
    """The factor the reducer returns is the one iwasawa_batched computes on
    the reps, so the coordinates the sampling path reads from it match bit
    for bit."""
    reps, _ = reduce_siegel_batched(levi_stack)
    _sampled_split(levi_stack, reps)


def test_recertified_matrices_are_factored_again(levi_stack, monkeypatch):
    """A first reduction capped at one sweep per pass leaves matrices that
    fail certification; they are reduced again, and the returned factor is
    theirs, bit for bit."""
    reduced = reduce_siegel_batched(levi_stack[:1000])[0]
    mats = np.concatenate([levi_stack[:1000], reduced])
    real = reduction._reduce_stack
    sizes = []

    def capped_first(mats):
        sizes.append(len(mats))
        monkeypatch.setattr(reduction, "MAX_SWEEPS", 1 if len(sizes) == 1 else 1000)
        return real(mats)

    monkeypatch.setattr(reduction, "_reduce_stack", capped_first)
    with pytest.warns(UserWarning, match="1-sweep cap"):
        reps, low = reduce_siegel_batched(mats)
    assert len(sizes) >= 2 and 0 < sizes[1] <= 1000  # the reduced half passes
    assert np.all(reduction._ratio_certified(low))
    nil, a, _ = iwasawa_batched(reps)
    for j in range(3):
        assert _same_bits(low[2 - j, 2 - j], a[:, j])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert _same_bits(low[2 - i, 2 - j] / low[2 - j, 2 - j], nil[:, i, j])


def test_reduction_into_out_gives_the_factor_and_keeps_no_reps(levi_stack):
    """With out, the reducer writes the factor of the call without out into
    it and returns no reps.  It leaves its input as it was, and out may be
    the input's memory, as the sampling path passes it."""
    _, low = reduce_siegel_batched(levi_stack)
    before = levi_stack.copy()
    out = np.full(low.shape, np.nan)
    reps, got = reduce_siegel_batched(levi_stack, out=out)
    assert got is out and reps.shape == (0, 3, 3)
    assert np.array_equal(_bits(out), _bits(low))
    assert np.array_equal(_bits(levi_stack), _bits(before))
    rev = np.ascontiguousarray(levi_stack[:, ::-1, :].transpose(1, 2, 0))
    reduce_siegel_batched(rev[::-1].transpose(2, 0, 1), out=rev)
    assert np.array_equal(_bits(rev), _bits(low))
    with pytest.raises(ValueError, match="out must be a float64 array of shape"):
        reduce_siegel_batched(levi_stack, out=np.empty((3, 3, 5)))


def test_recertification_inside_a_reduction_into_out(levi_stack, monkeypatch):
    """The recertification pass of a reduction into out, whose working basis
    and order live in the workspace, reduces the matrices that failed and
    gives the factor of the call without out.  The reduced half comes
    first, so the working set moves the other half to the front."""
    reduced = reduce_siegel_batched(levi_stack[1000:2000])[0]
    mats = np.concatenate([reduced, levi_stack[:1000]])
    real = reduction._reduce_stack
    calls = []

    def capped_first(mats, *out):
        calls.append(len(out))
        monkeypatch.setattr(reduction, "MAX_SWEEPS", 1 if len(calls) == 1 else 1000)
        return real(mats, *out)

    monkeypatch.setattr(reduction, "_reduce_stack", capped_first)
    with pytest.warns(UserWarning, match="1-sweep cap"):
        want = reduce_siegel_batched(mats)[1]
    calls.clear()
    out = np.empty(want.shape)
    with pytest.warns(UserWarning, match="1-sweep cap"):
        reduce_siegel_batched(mats, out=out)
    assert calls[0] == 1 and len(calls) >= 2 and not any(calls[1:])
    assert np.array_equal(_bits(out), _bits(want))


def test_reducer_overflow_raises_instead_of_wrapping():
    """At index 9 of sl3_levi_block the oracle's reducers reach 9e18; an
    int64 update past 2^63 would wrap silently and leave determinants other
    than one, so the oracle raises.  The package reducer forms no reducers;
    sampling refuses that index by the translate budget instead."""
    scn = load_scenario("sl3_levi_block")
    g = sequence_translate(scn.sequence, 9)
    samples = _samples(scn.sequence.subgroup, 2048, 0, scn.y_cap)
    with pytest.raises(OverflowError, match="int64 limit 2\\^63"):
        _reduce_siegel_full(samples @ g[0])


def test_reducer_composition_refuses_to_wrap():
    """The oracle's recertification composes two int64 reducers; a product
    whose entries could pass 2^62 raises instead of wrapping."""
    small = np.array([random_gamma(3) for _ in range(4)])
    assert np.array_equal(_compose(small, small), small @ small)
    extra, first = np.tile(np.eye(3, dtype=np.int64), (2, 2, 1, 1))
    extra[1, 0, 1] = 2**32
    first[1, 1, 2] = 2**31  # (extra @ first)[1, 0, 2] = 2^63 would wrap
    with pytest.raises(OverflowError, match="int64 limit 2\\^63"):
        _compose(extra, first)


def _component_major(mats):
    m, n, _ = mats.shape
    b = np.ascontiguousarray(mats[:, ::-1, :].transpose(1, 2, 0))
    u = np.repeat(np.eye(n, dtype=np.int64)[:, :, None], m, axis=2)
    return b, u, np.zeros(m, dtype=bool), gram_schmidt_components(b)[0]


def _lll_pass(mats, max_sweeps):
    b, _, odd, low = _component_major(mats)
    return reduction._lll_rows((b, low, odd, np.arange(len(mats))), 0, 0.75, max_sweeps)


def test_lll_pass_reports_whether_it_converged(levi_stack):
    sweeps, converged, _ = _lll_pass(levi_stack, max_sweeps=1)
    assert sweeps == 1 and not converged
    sweeps, converged, _ = _lll_pass(levi_stack, max_sweeps=1000)
    assert 1 < sweeps < 1000 and converged


# The full-array reducer, kept as an oracle for reduction.reduce_siegel_batched:
# every sweep refactors and sweeps the whole stack, and the int64 transform u
# is carried along with the basis.  No basis update reads u, so the decisions
# and the float bits are the package's; u gives the exact reducers.
# Reducer entries are int64.  Every integer update is u_i - q * u_j with both
# |u_i| and |q| * |u_j| kept below INT64_ROOM, so no update can reach 2^63
# and wrap around: a per-row bound on max |u|, grown by each update, screens
# the updates, and only when it passes INT64_ROOM are the entries themselves
# checked and the bound reset to their exact value.
INT64_ROOM = float(2**62)


def _int64_overflow():
    return OverflowError(
        "an integer reducer entry would pass 2^62, too close to the int64 "
        "limit 2^63: the translated samples are too ill-conditioned for "
        "float64 reduction"
    )


def _exact_row_bounds(u_i, u_j, q_abs):
    """Check the update u_i - q * u_j matrix by matrix against INT64_ROOM;
    returns bounds over the stack on max |u_i| after the update and on
    max |u_j|, both taken from the entries themselves."""
    top_i = np.abs(u_i).max(axis=0).astype(float)
    top_j = np.abs(u_j).max(axis=0).astype(float)
    step = q_abs * top_j
    if np.any(step >= INT64_ROOM) or np.any(top_i >= INT64_ROOM):
        raise _int64_overflow()
    return float(np.max(top_i + step)), float(top_j.max())


def _compose(extra, gammas):
    """extra @ gammas in int64, refused (OverflowError) unless every entry's
    sum of absolute products stays below INT64_ROOM."""
    room = np.abs(extra).astype(float) @ np.abs(gammas).astype(float)
    if np.any(room >= INT64_ROOM):
        raise _int64_overflow()
    return extra @ gammas


def _lll_rows_full(b, u, odd, low, delta, max_sweeps):
    n = b.shape[0]
    bound = np.abs(u).max(axis=(1, 2)).astype(float)
    sweeps = 0
    swapped = True
    for sweeps in range(1, max_sweeps + 1):
        if sweeps > 1:
            low = gram_schmidt_components(b)[0]
        for i in range(1, n):
            for j in range(i - 1, -1, -1):
                q = np.round(low[i, j] / low[j, j])
                q_abs = np.abs(q)
                q_max = float(q_abs.max())
                if q_max == 0.0:
                    continue
                if q_max * bound[j] >= INT64_ROOM or bound[i] >= INT64_ROOM:
                    bound[i], bound[j] = _exact_row_bounds(u[i], u[j], q_abs)
                else:
                    bound[i] += q_max * bound[j]
                b[i] -= q * b[j]
                u[i] -= q.astype(np.int64) * u[j]
                low[i, : j + 1] -= q * low[j, : j + 1]
        swapped = False
        pending = np.ones(b.shape[2], dtype=bool)
        for k in range(1, n):
            mu_k = low[k, k - 1] / low[k - 1, k - 1]
            norm2_prev = low[k - 1, k - 1] ** 2
            bad = pending & (
                low[k, k] ** 2 + mu_k**2 * norm2_prev
                < delta * norm2_prev * (1.0 - 1e-14)
            )
            if bad.any():
                for rows in (b, u):
                    prev = rows[k - 1].copy()
                    np.copyto(rows[k - 1], rows[k], where=bad)
                    np.copyto(rows[k], prev, where=bad)
                odd ^= bad
                pending &= ~bad
                swapped = True
                bound[k - 1] = bound[k] = max(bound[k - 1], bound[k])
        if not swapped:
            break
    return b, u, odd, sweeps, not swapped


def _reduce_stack_full(mats, passes):
    """The two passes, the warnings and the final factor as the full-array
    reducer ran them; appends each pass's (sweeps, converged) to passes."""
    b, u, odd, low = _component_major(mats)
    n = b.shape[0]
    diag = np.diagonal(low, axis1=0, axis2=1)
    spread = float(np.max(diag.max(axis=1) / diag.min(axis=1)))
    budget = int(8 * n * n * (1.0 + np.log10(max(spread, 1.0)))) + 16
    b, u, odd, s1, done1 = _lll_rows_full(b, u, odd, low, 0.75, reduction.MAX_SWEEPS)
    b, u, odd, s2, done2 = _lll_rows_full(
        b, u, odd, gram_schmidt_components(b)[0], 1.0 - 1e-9, reduction.MAX_SWEEPS
    )
    passes += [(s1, done1), (s2, done2)]
    for label, done in (("first", done1), ("second", done2)):
        if not done:
            warnings.warn(
                f"lattice reduction stopped its {label} pass at the "
                f"{reduction.MAX_SWEEPS}-sweep cap with swaps still pending"
            )
    if s1 + s2 > budget:
        warnings.warn(
            f"lattice reduction used {s1 + s2} sweeps, above the "
            f"conditioning-based budget {budget}"
        )
    np.negative(u[-1], out=u[-1], where=odd)
    np.negative(b[-1], out=b[-1], where=odd)
    low = gram_schmidt_components(b)[0]
    gammas = np.ascontiguousarray(u[::-1, ::-1].transpose(2, 0, 1))
    reps = np.ascontiguousarray(b[::-1].transpose(2, 0, 1))
    return gammas, reps, low


def _reduce_siegel_full(mats, passes=None):
    """reduce_siegel_batched as the full-array reducer runs it, with the
    reducers: returns (gammas, reps, low), composing the recertification's
    reducers in int64."""
    passes = [] if passes is None else passes
    mats = np.ascontiguousarray(mats, dtype=float)
    gammas, reps, low = _reduce_stack_full(mats, passes)
    bad = np.flatnonzero(~reduction._ratio_certified(low))
    for attempt in range(2):
        if not bad.size:
            break
        extra, fixed, fixed_low = _reduce_stack_full(reps[bad], passes)
        gammas[bad] = _compose(extra, gammas[bad])
        reps[bad] = fixed
        low[:, :, bad] = fixed_low
        if attempt == 0:
            bad = bad[~reduction._ratio_certified(fixed_low)]
    return gammas, reps, low


def _bits(x):
    return x.view(np.uint64) if x.dtype == float else x


def _reduce_both(mats, cap, monkeypatch):
    """reduce_siegel_batched and the oracle, both under a sweep cap: each
    one's reps and low, each pass's (sweeps, converged) and the warnings."""
    runs = []
    real_lll = reduction._lll_rows
    monkeypatch.setattr(reduction, "MAX_SWEEPS", cap)
    for oracle in (False, True):
        passes = []

        def spy(*args):
            out = real_lll(*args)
            passes.append(out[:2])
            return out

        monkeypatch.setattr(reduction, "_lll_rows", spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if oracle:
                out = _reduce_siegel_full(mats, passes)[1:]
            else:
                out = reduce_siegel_batched(mats)
        runs.append((out, passes, [str(w.message) for w in caught]))
    monkeypatch.undo()
    return runs


def _zeros_stack(n):
    """Exact zeros of both signs, permutations and diagonals, mixed with
    random matrices that keep the stack moving after these have settled."""
    mats = np.tile(np.eye(n), (12, 1, 1))
    mats[1] = mats[1, ::-1]
    mats[2, 0, -1] = -3.0
    mats[3, -1, 0] = 2.0
    mats[4] = np.diag(np.linspace(2.0, 0.5, n))
    mats[5, 0, 1] = -0.0
    mats[6] = np.where(np.eye(n) > 0, 1.0, -0.0)
    mats[7] = -mats[6][::-1]
    mats[8, :, 0] *= 1e6
    mats[8, :, -1] /= 1e6
    rng = np.random.default_rng(n)
    for k in range(9, 12):
        mats[k] = random_gamma(n, rng).astype(float) @ np.diag([7.0] + [1.0] * (n - 1))
    return np.concatenate([mats, np.stack([random_sl(n, 4.0, rng).mat for _ in range(20)])])


def _oracle_stacks(levi_stack):
    yield "levi_stack", levi_stack
    for path in bundled_scenarios():
        if not path.stem.startswith("sl3_"):
            continue
        scn = load_scenario(path.stem)
        g = sequence_translate(scn.sequence, max(scn.sequence.indices))
        yield path.stem, _samples(scn.sequence.subgroup, 2048, scn.seed, scn.y_cap) @ g[0]
    doc = {"schema": "escape-scenario/1", "name": "sl4",
           "sequence": {"subgroup": {"kind": "embedded_sl2", "n": 4, "block": 1},
                        "direction": ["3", "1", "-1", "-3"]}}
    seq = scenario_from_json(doc).sequence
    samples = _samples(seq.subgroup, 2048, 7, 1e6)
    yield "sl4_embedded_sl2", samples @ sequence_translate(seq, 4)[0]
    reduced = reduce_siegel_batched(levi_stack[:1000])[0]
    yield "raw_and_reduced", np.concatenate([levi_stack[:1000], reduced])[::-1].copy()
    yield "one_matrix", levi_stack[7:8]
    yield "zeros_3", _zeros_stack(3)
    yield "zeros_4", _zeros_stack(4)


def test_working_set_matches_the_full_array_loop(levi_stack, monkeypatch):
    """reps and low of the working-set reducer, which carries no integer
    transform, are the oracle's bit for bit (signs of zero included), with
    the same sweeps per pass, the same converged flags and the same
    warnings, also when the passes stop at a one-sweep cap."""
    for name, mats in _oracle_stacks(levi_stack):
        for cap in (reduction.MAX_SWEEPS, 1):
            (got, got_passes, got_warn), (want, want_passes, want_warn) = _reduce_both(
                mats, cap, monkeypatch
            )
            for x, y in zip(got, want):
                assert np.array_equal(_bits(x), _bits(y)), (name, cap)
            assert got_passes == want_passes and got_warn == want_warn, (name, cap)


def test_sweep_cap_warns_naming_the_pass(levi_stack, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduce_siegel_batched(levi_stack)  # converges well inside the cap
    monkeypatch.setattr(reduction, "MAX_SWEEPS", 1)
    with pytest.warns(UserWarning) as caught:
        reduction._reduce_stack(levi_stack)
    messages = [str(w.message) for w in caught]
    for label in ("first", "second"):
        assert any(f"{label} pass at the 1-sweep cap" in msg for msg in messages)


def test_in_siegel_examples():
    assert _in_siegel(np.eye(2))
    y = 0.01
    low = group_element([[np.sqrt(y), 0.0], [0.0, 1.0 / np.sqrt(y)]])
    assert not _in_siegel(low.mat)
    shifted = group_element([[1.0, 0.8], [0.0, 1.0]])
    assert not _in_siegel(shifted.mat)


def brute_force_sl_count(n, height):
    count = 0
    seen = set()
    for entries in itertools.product(range(-height, height + 1), repeat=n * n):
        mat = np.array(entries).reshape(n, n)
        if n == 2:
            det = entries[0] * entries[3] - entries[1] * entries[2]
        else:
            det = int(round(np.linalg.det(mat)))
        if det == 1:
            count += 1
            seen.add(entries)
    return count, seen


def test_enumerate_gamma_height_one_count():
    mats = list(enumerate_gamma(2, 1))
    assert len(mats) == 20
    count, seen = brute_force_sl_count(2, 1)
    assert count == 20
    assert {tuple(m.ravel()) for m in mats} == seen
    assert len({tuple(m.ravel()) for m in mats}) == len(mats)


def test_enumerate_gamma_height_two_matches_brute_force():
    mats = {tuple(m.ravel()) for m in enumerate_gamma(2, 2)}
    _, seen = brute_force_sl_count(2, 2)
    assert mats == seen


def test_enumerate_gamma_trivia():
    assert list(enumerate_gamma(2, 0)) == []
    for m in itertools.islice(enumerate_gamma(3, 1), 50):
        assert round(np.linalg.det(m.astype(float))) == 1
    with pytest.raises(ValueError):
        next(enumerate_gamma(3, 11))
    with pytest.raises(ValueError):
        next(enumerate_gamma(5, 1))


def test_enumerate_gamma_budget_bounds_the_candidate_count():
    """The budget counts the (2h + 1)^(n^2) candidates: the heights in use
    stay allowed, and n = 3 at height 2 (1.95M candidates) or n = 4 at
    height 1 (43M) is refused before any is tried."""
    assert sum(1 for _ in enumerate_gamma(2, 6)) == len(brute_force_sl_count(2, 6)[1])
    assert next(enumerate_gamma(3, 1)).shape == (3, 3)
    for n, height in ((3, 2), (4, 1), (2, 9)):
        with pytest.raises(ValueError, match="candidates, above the budget"):
            next(enumerate_gamma(n, height))


def test_format_columnar():
    """Reduced points are written in columns by cli.points_text."""
    mats = np.stack([np.eye(2), [[1.0, 5.0], [0.0, 1.0]]])
    x, y = reduce_sl2_coords(*half_plane_point(mats))
    log_a = np.stack([0.5 * np.log(y), -0.5 * np.log(y)], axis=1)[:, None]
    m = EmpiricalMeasure(log_a, x[:, None, None], 2)
    lines = points_text(m).strip().split("\n")
    assert lines[0].startswith("# 2 of 2 reduced points")
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split()]
    assert first == [0.0, 0.0, 0.0]
    assert len(first) == 2 + 1
    assert points_text(m, cap=0).startswith("# 0 of 2")
