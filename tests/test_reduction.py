"""Reduction checks.

The membership predicate is the oracle for the lattice-reduction path; the
half-plane walk has frozen hand-computed examples.  The integer enumeration
is compared against an independent brute-force filter written inline.
"""

import doctest
import itertools
import warnings

import numpy as np
import pytest

import escmass.reduction as reduction
from escmass.cli import load_scenario
from escmass.limits import sequence_translate
from escmass.lingrp import (
    gram_schmidt_components,
    group_element,
    identity_element,
    iwasawa,
    iwasawa_batched,
    iwasawa_coordinates,
)
from escmass.measures import empirical_measure, sample_subgroup_array
from escmass.reduction import (
    ReducedPoint,
    SiegelSet,
    enumerate_gamma,
    format_columnar,
    in_siegel,
    reduce_siegel,
    reduce_siegel_batched,
    reduce_sl2,
    reduce_sl2_coords,
    siegel_default,
)

RNG = np.random.default_rng(90125)


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


def half_plane_point(pt):
    parts = pt.iwasawa_cache
    y = parts.a_diag[0] / parts.a_diag[1]
    return parts.n_part[0, 1], y


def test_doctests():
    assert doctest.testmod(reduction).failed == 0


def test_siegel_set_conventions():
    s = siegel_default(2)
    assert s.t * s.ratio_min == pytest.approx(1.0)
    assert s.t >= 2 / np.sqrt(3)
    with pytest.raises(ValueError):
        SiegelSet(n=2, t=1.0, u_bound=0.6)
    with pytest.raises(ValueError):
        SiegelSet(n=2, t=2.0, u_bound=0.3)
    with pytest.raises(ValueError):
        SiegelSet(n=2, t=2.0, u_bound=0.6, ratio_min=0.9)


def test_reduce_sl2_identity():
    pt = reduce_sl2(identity_element(2))
    assert pt.gamma == ((1, 0), (0, 1))
    x, y = half_plane_point(pt)
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12


def test_reduce_sl2_translation():
    pt = reduce_sl2(group_element([[1.0, 5.0], [0.0, 1.0]]))
    assert pt.gamma == ((1, -5), (0, 1))
    x, y = half_plane_point(pt)
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12


def test_reduce_sl2_inversion():
    s = np.sqrt(0.1)
    pt = reduce_sl2(group_element([[s, 0.0], [0.0, 1.0 / s]]))
    assert pt.gamma == ((0, -1), (1, 0))
    x, y = half_plane_point(pt)
    assert abs(x) < 1e-12 and abs(y - 10.0) < 1e-9


def test_reduce_sl2_membership_random():
    for _ in range(200):
        g = random_sl(2, scale=2.0)
        pt = reduce_sl2(g)
        x, y = half_plane_point(pt)
        assert abs(x) <= 0.5 + 1e-12
        assert x * x + y * y >= 1.0 - 1e-11
        gamma = np.array(pt.gamma, dtype=float)
        assert np.linalg.det(gamma) == pytest.approx(1.0)
        assert np.allclose(gamma @ g.mat, pt.rep.mat)


def test_reduce_sl2_gamma_invariance():
    for _ in range(50):
        g = random_sl(2, scale=2.0)
        gamma = random_gamma(2)
        p1 = reduce_sl2(g)
        p2 = reduce_sl2(group_element(gamma.astype(float) @ g.mat))
        x1, y1 = half_plane_point(p1)
        x2, y2 = half_plane_point(p2)
        # interior points reduce uniquely; boundary ties allowed to differ in x
        if y1 > 1.01 and abs(abs(x1) - 0.5) > 1e-3:
            assert abs(x1 - x2) < 1e-6 and abs(y1 - y2) < 1e-6
        else:
            assert abs(y1 - y2) < 1e-6


def test_reduce_sl2_coords_matches_elementwise():
    xs = RNG.uniform(-40, 40, size=300)
    ys = np.exp(RNG.uniform(np.log(1e-4), 2, size=300))
    rx, ry = reduce_sl2_coords(xs, ys)
    for i in range(0, 300, 17):
        mat = [[np.sqrt(ys[i]), xs[i] / np.sqrt(ys[i])], [0.0, 1.0 / np.sqrt(ys[i])]]
        x1, y1 = half_plane_point(reduce_sl2(group_element(mat)))
        assert abs(ry[i] - y1) < 1e-9
        if y1 > 1.01 and abs(abs(x1) - 0.5) > 1e-3:
            assert abs(rx[i] - x1) < 1e-9
    assert np.all(np.abs(rx) <= 0.5 + 1e-12)
    assert np.all(rx * rx + ry * ry >= 1.0 - 1e-11)


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


def test_live_set_walk_matches_the_full_array_loop():
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
        got = reduce_sl2_coords(x, y)
        want = _reduce_sl2_coords_full(x, y)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    # the iteration cap still warns, with the capped walk's bits
    x, y = np.array([0.25, 3.0, 0.1, 0.3]), np.array([1e-12, 2.0, 1e-6, 0.2])
    with pytest.warns(UserWarning, match="iteration cap"):
        got = reduce_sl2_coords(x, y, max_iter=2)
    with pytest.warns(UserWarning, match="iteration cap"):
        want = _reduce_sl2_coords_full(x, y, max_iter=2)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_reduce_siegel_identity_and_integer_cosets():
    pt = reduce_siegel(identity_element(3))
    assert np.allclose(pt.rep.mat @ pt.rep.mat.T, np.eye(3), atol=1e-12)
    assert np.allclose(pt.a_diag, 1.0, atol=1e-9)
    for n in (3, 4):
        gamma = random_gamma(n)
        pt = reduce_siegel(group_element(gamma.astype(float)))
        assert np.allclose(pt.a_diag, 1.0, atol=1e-9)


def test_reduce_siegel_membership_random():
    s3, s4 = siegel_default(3), siegel_default(4)
    for n, s in ((3, s3), (4, s4)):
        for scale in (1.0, 5.0):
            for _ in range(40):
                g = random_sl(n, scale=scale)
                pt = reduce_siegel(g)
                assert in_siegel(pt.rep, s)
                gamma = np.array(pt.gamma, dtype=float)
                assert np.linalg.det(gamma) == pytest.approx(1.0)
                assert np.allclose(gamma @ g.mat, pt.rep.mat, atol=1e-9)


def test_reduce_siegel_batched_matches_single():
    mats = np.stack([random_sl(3, scale=3.0).mat for _ in range(32)])
    gammas, reps, _ = reduce_siegel_batched(mats)
    for i in range(0, 32, 7):
        pt = reduce_siegel(group_element(mats[i]))
        assert np.array_equal(gammas[i], np.array(pt.gamma))
        assert np.allclose(reps[i], pt.rep.mat)


def test_reduce_siegel_far_diagonal():
    g = group_element(np.diag([50.0, 1.0, 0.02]))
    pt = reduce_siegel(g)
    assert in_siegel(pt.rep, siegel_default(3))


def test_reduce_siegel_idempotent_interior():
    checked = 0
    for _ in range(60):
        g = random_sl(3, scale=2.0)
        pt = reduce_siegel(g)
        a = pt.a_diag
        ratios = a[:-1] / a[1:]
        interior = np.all(ratios > np.sqrt(3) / 2 * 1.05) and np.all(
            np.abs(pt.u_coords) < 0.45
        )
        if interior:
            again = reduce_siegel(pt.rep)
            assert np.array_equal(np.array(again.gamma), np.eye(3, dtype=int))
            checked += 1
    assert checked >= 5


def test_reduce_siegel_gamma_invariance_of_a_part():
    for _ in range(30):
        g = random_sl(3, scale=2.0)
        p1 = reduce_siegel(g)
        p2 = reduce_siegel(group_element(random_gamma(3).astype(float) @ g.mat))
        a1, a2 = p1.a_diag, p2.a_diag
        ratios = a1[:-1] / a1[1:]
        interior = np.all(ratios > np.sqrt(3) / 2 * 1.05) and np.all(
            np.abs(p1.u_coords) < 0.45
        )
        if interior:
            assert np.allclose(a1, a2, atol=1e-6)


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
    """At index 4 the reducers outgrow what a float64 determinant resolves;
    their determinant is set from the swap parity and must be exactly 1."""
    largest = 0
    for name in ("sl3_case1", "sl3_levi_block"):
        scn = load_scenario(name)
        g = sequence_translate(scn.sequence, 4)
        m = empirical_measure(scn.sequence.subgroup, g, scn.count, scn.seed, scn.y_cap)
        gammas = m.gammas[:, 0]
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
    samples = sample_subgroup_array(scn.sequence.subgroup, 4096, scn.seed, scn.y_cap)
    return samples[:, 0] @ g[0]


def test_reduction_does_not_depend_on_the_stack(levi_stack):
    """Chunking must not change a single bit of any reducer or representative."""
    gammas, reps, _ = reduce_siegel_batched(levi_stack)
    for lo in range(0, len(levi_stack), 1000):
        part_g, part_r, _ = reduce_siegel_batched(levi_stack[lo : lo + 1000])
        assert np.array_equal(part_g, gammas[lo : lo + 1000])
        assert np.array_equal(part_r, reps[lo : lo + 1000])
    for i in np.linspace(0, len(levi_stack) - 1, 50).astype(int):
        one_g, one_r, _ = reduce_siegel_batched(levi_stack[i : i + 1])
        assert np.array_equal(one_g[0], gammas[i])
        assert np.array_equal(one_r[0], reps[i])


def test_reduced_factor_gives_the_split_of_the_reps(levi_stack):
    """The factor the reducer returns is the one iwasawa_batched computes on
    the reps, so the coordinates read from it match bit for bit."""
    _, reps, low = reduce_siegel_batched(levi_stack)
    nil, a, _ = iwasawa_batched(reps)
    a_read, u_read = iwasawa_coordinates(low)
    assert _same_bits(np.stack(a_read, axis=1), a)
    for col, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        assert _same_bits(u_read[col], nil[:, i, j])


def test_recertified_matrices_are_factored_again(levi_stack, monkeypatch):
    """A first reduction capped at one sweep per pass leaves matrices that
    fail certification; they are reduced again, and the returned factor is
    theirs, bit for bit."""
    reduced = reduce_siegel_batched(levi_stack[:1000])[1]
    mats = np.concatenate([levi_stack[:1000], reduced])
    real = reduction._reduce_stack
    sizes = []

    def capped_first(mats):
        sizes.append(len(mats))
        monkeypatch.setattr(reduction, "MAX_SWEEPS", 1 if len(sizes) == 1 else 1000)
        return real(mats)

    monkeypatch.setattr(reduction, "_reduce_stack", capped_first)
    with pytest.warns(UserWarning, match="1-sweep cap"):
        gammas, reps, low = reduce_siegel_batched(mats)
    assert len(sizes) >= 2 and 0 < sizes[1] <= 1000  # the reduced half passes
    assert np.all(reduction._ratio_certified(low, siegel_default(3).ratio_min))
    nil, a, _ = iwasawa_batched(reps)
    a_read, u_read = iwasawa_coordinates(low)
    assert _same_bits(np.stack(a_read, axis=1), a)
    for col, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        assert _same_bits(u_read[col], nil[:, i, j])


def test_reducer_overflow_raises_instead_of_wrapping():
    """At index 9 of sl3_levi_block the reducers reach 9e18; an int64 update
    past 2^63 used to wrap silently and leave determinants other than one."""
    scn = load_scenario("sl3_levi_block")
    g = sequence_translate(scn.sequence, 9)
    samples = sample_subgroup_array(scn.sequence.subgroup, 2048, 0, scn.y_cap)
    with pytest.raises(OverflowError, match="int64 limit 2\\^63"):
        reduce_siegel_batched(samples[:, 0] @ g[0])


def test_reducer_composition_refuses_to_wrap():
    """The recertification composes two int64 reducers; a product whose
    entries could pass 2^62 raises instead of wrapping."""
    small = np.array([random_gamma(3) for _ in range(4)])
    assert np.array_equal(reduction._compose(small, small), small @ small)
    extra, first = np.tile(np.eye(3, dtype=np.int64), (2, 2, 1, 1))
    extra[1, 0, 1] = 2**32
    first[1, 1, 2] = 2**31  # (extra @ first)[1, 0, 2] = 2^63 would wrap
    with pytest.raises(OverflowError, match="int64 limit 2\\^63"):
        reduction._compose(extra, first)


def _component_major(mats):
    m, n, _ = mats.shape
    b = np.ascontiguousarray(mats[:, ::-1, :].transpose(1, 2, 0))
    u = np.repeat(np.eye(n, dtype=np.int64)[:, :, None], m, axis=2)
    return b, u, np.zeros(m, dtype=bool), gram_schmidt_components(b)[0]


def test_lll_pass_reports_whether_it_converged(levi_stack):
    *_, sweeps, converged = reduction._lll_rows(
        *_component_major(levi_stack), 0.75, max_sweeps=1
    )
    assert sweeps == 1 and not converged
    *_, sweeps, converged = reduction._lll_rows(
        *_component_major(levi_stack), 0.75, max_sweeps=1000
    )
    assert 1 < sweeps < 1000 and converged


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
    assert in_siegel(identity_element(2), siegel_default(2))
    y = 0.01
    low = group_element([[np.sqrt(y), 0.0], [0.0, 1.0 / np.sqrt(y)]])
    assert not in_siegel(low, siegel_default(2))
    shifted = group_element([[1.0, 0.8], [0.0, 1.0]])
    assert not in_siegel(shifted, siegel_default(2))


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


def test_format_columnar():
    pts = [reduce_sl2(identity_element(2)), reduce_sl2(group_element([[1.0, 5.0], [0.0, 1.0]]))]
    text = format_columnar(pts)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# n=2")
    assert len(lines) == 3
    first = lines[1].split()
    assert first[:4] == ["1", "0", "0", "1"]
    assert len(first) == 4 + 1 + 2
    assert format_columnar([]).startswith("# empty")
