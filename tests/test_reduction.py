"""Reduction checks.

The membership predicate is the oracle for the lattice-reduction path; the
half-plane walk has frozen hand-computed examples.  The integer enumeration
is compared against an independent brute-force filter written inline.
"""

import doctest
import itertools

import numpy as np
import pytest

import escmass.reduction as reduction
from escmass.cli import load_scenario
from escmass.limits import sequence_translate
from escmass.lingrp import group_element, identity_element, iwasawa
from escmass.measures import empirical_measure
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
    gammas, reps = reduce_siegel_batched(mats)
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
