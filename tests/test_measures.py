"""Sampler and boundary-statistic checks.

The modular-domain sampler is validated against the closed-form truncated
hyperbolic integral (derived independently; the quadrature cross-check of the
same value guards the derivation).  Escape statistics use constructions whose
reduced heights are known exactly.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import escmass.measures as measures
from escmass import lingrp
from escmass.lingrp import group_element, iwasawa_batched
from escmass.measures import (
    CHUNK,
    EmpiricalMeasure,
    boundary_histogram,
    boundary_histograms,
    embedded_sl2,
    empirical_measure,
    format_histogram,
    full_unipotent_radical,
    levi_semisimple_nc,
    lie_generators,
    one_param_unipotent,
    product_subgroup,
    trivial_subgroup,
    truncation_bound,
)
from escmass.reduction import WALK_BLOCK

Y0 = math.sqrt(3.0) / 2.0


def _samples(spec, count, seed, y_cap=measures.Y_CAP_DEFAULT):
    """(count, factors, n, n) raw Haar samples: each chunk of each factor
    drawn from its (seed, chunk, factor) stream and embedded, as the
    sampling path does before it pushes (component-major, read back here
    row-major)."""
    r, n = spec.shape
    factors = spec.factors if spec.kind == "product" else (spec,)
    out = np.empty((count, r, n, n))
    for ci, size in measures._chunk_plan(count):
        rows = slice(ci * measures.CHUNK, ci * measures.CHUNK + size)
        for f, fac in enumerate(factors):
            rng = np.random.default_rng([seed, ci, f])
            draw = measures._draw_factor_chunk(fac, size, rng, y_cap)
            embed = measures._embed_factor_chunk(fac, draw, size)
            out[rows, f] = _materialize(embed, size).transpose(2, 0, 1)
    return out


def _materialize(h, size):
    """The (n, n, size) array of a component-major embed: the nested
    samples of an unconjugated factor, whose scalar entries stand for
    constant rows, or a conjugated factor's array."""
    out = np.empty((len(h), len(h), size))
    for i, row in enumerate(h):
        for k, x in enumerate(row):
            out[i, k] = x
    return out


def _roots(m):
    """(count, total roots) log character values of the reduced diagonal,
    factors concatenated: the differences of adjacent log_a columns."""
    return (m.log_a[:, :, :-1] - m.log_a[:, :, 1:]).reshape(m.sample_count, -1)


def _push(stack, g):
    """stack @ g through the sampling path's push, for a row-major (m, n, n)
    stack: the push reads its component-major view and writes the
    row-reversed component-major stack, read back here row-major."""
    return measures._right_multiply(stack.transpose(1, 2, 0), g)[::-1].transpose(2, 0, 1)


def _py_dot(row, col):
    acc = 0.0
    for x, y in zip(row, col):
        acc = acc + x * y
    return acc


def _py_product(a, b):
    """a @ b of two matrices in Python floats: entry (i, k) sums
    a[i][j] * b[j][k] over j ascending from 0.0, and CPython rounds every
    * and + on its own, so this is the fixed order of
    lingrp.ordered_product on any host, whatever BLAS would do.  (Not
    sum(), which compensates its rounding from Python 3.12 on.)"""
    return [[_py_dot(row, col) for col in zip(*b)] for row in a]


def _py_stack_product(stack, g):
    """_py_product of each (n, n) matrix of a row-major stack with g."""
    g = np.asarray(g, dtype=float).tolist()
    return np.array([_py_product(h, g) for h in np.asarray(stack).tolist()]).reshape(stack.shape)


def _py_conjugate(stack, gamma):
    """gamma @ h @ gamma^-1 of each matrix h of a row-major stack, by
    _py_product, for an integer conjugator gamma."""
    gamma_f = np.array(gamma, dtype=float)
    inv = np.array(measures.int_inverse(gamma), dtype=float)
    left = np.array([_py_product(gamma_f.tolist(), h) for h in stack.tolist()])
    return _py_stack_product(left, inv)


def test_catalog_validation():
    with pytest.raises(ValueError):
        full_unipotent_radical(3, [0, 1])  # trivial radical
    with pytest.raises(ValueError):
        full_unipotent_radical(3, [2])
    with pytest.raises(ValueError):
        levi_semisimple_nc(2, 0)
    with pytest.raises(ValueError):
        one_param_unipotent(3, (2, 1))
    with pytest.raises(ValueError):
        embedded_sl2(3, 2)
    with pytest.raises(ValueError):
        product_subgroup([])
    with pytest.raises(ValueError):
        product_subgroup([trivial_subgroup(3)])
    with pytest.raises(ValueError):
        full_unipotent_radical(3, [0], conjugator=((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    spec = product_subgroup([embedded_sl2(2), trivial_subgroup(2)])
    assert spec.shape == (2, 2)
    assert "product" in spec.describe()


def test_lie_generators():
    n_min = full_unipotent_radical(3, [])
    gens = lie_generators(n_min)
    assert len(gens) == 3
    line = lie_generators(one_param_unipotent(3, (0, 2)))
    assert len(line) == 1 and line[0][0][2] == 1
    levi = lie_generators(levi_semisimple_nc(3, 1))
    assert len(levi) == 3
    assert levi[2][1][1] == 1 and levi[2][2][2] == -1
    assert lie_generators(trivial_subgroup(3)) == []
    # integer conjugation stays exact
    gamma = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    conj = lie_generators(one_param_unipotent(3, (1, 2), conjugator=gamma))
    assert conj[0][0][2] == 1 and conj[0][1][2] == 1
    # every entry is an int: catalog entries are 0 and +-1, conjugators are
    # integer of determinant one
    for gens in (gens, line, levi, conj):
        assert all(type(v) is int for X in gens for row in X for v in row)


def test_trivial_and_line_samplers():
    spec = trivial_subgroup(3)
    for h in _samples(spec, 5, seed=1)[:, 0]:
        assert np.array_equal(h, np.eye(3))
    line = one_param_unipotent(3, (0, 2))
    arr = _samples(line, 200, seed=2)
    assert arr.shape == (200, 1, 3, 3)
    coords = arr[:, 0, 0, 2]
    assert np.all((coords >= 0.0) & (coords < 1.0))
    off = arr[:, 0] - np.eye(3)
    off[:, 0, 2] = 0.0
    assert np.allclose(off, 0.0)


def test_full_radical_sampler_box():
    arr = _samples(full_unipotent_radical(3, []), 500, seed=3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = arr[:, 0, i, j]
        assert np.all((v >= 0.0) & (v < 1.0))
        assert v.std() > 0.2  # actually random, roughly uniform


def test_modular_sampler_density():
    spec = embedded_sl2(2)
    y_cap = 1.0e4
    arr = _samples(spec, 100_000, seed=4, y_cap=y_cap)
    mats = arr[:, 0]
    dets = np.linalg.det(mats)
    assert np.allclose(dets, 1.0, atol=1e-10)
    # recover the half-plane point: z = g.i has y = 1/(c^2 + d^2)
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    den = c * c + d * d
    y = 1.0 / den
    x = (mats[:, 0, 0] * c + mats[:, 0, 1] * d) / den
    assert np.all(np.abs(x) <= 0.5 + 1e-12)
    assert np.all(y >= Y0 - 1e-12)
    assert np.all(x * x + y * y >= 1.0 - 1e-12)
    # closed-form truncated integral of 1/y against the normalized density
    num = 0.5 * math.log(3.0) - 0.5 / y_cap**2
    z = math.pi / 3.0 - 1.0 / y_cap
    expected = num / z
    assert np.mean(1.0 / y) == pytest.approx(expected, rel=0.01)
    # independent quadrature for the same quantity
    def width(yv):
        return 1.0 if yv >= 1.0 else 1.0 - 2.0 * math.sqrt(1.0 - yv * yv)

    quad_num, _ = integrate.quad(lambda t: width(t) / t**3, Y0, y_cap, limit=200)
    quad_den, _ = integrate.quad(lambda t: width(t) / t**2, Y0, y_cap, limit=200)
    assert quad_num / quad_den == pytest.approx(expected, rel=1e-6)


def _modular_draw_py(size, rng, y_cap, columns):
    """The modular sampler's samples at the given columns, as (len(columns),
    2, 2) row-major matrices: the same points and angles drawn from rng, and
    each product of [[sqrt y, x / sqrt y], [0, 1 / sqrt y]] with its
    rotation by _py_product.  The square roots and divisions are correctly
    rounded in numpy and Python alike; cos and sin are numpy's."""
    inv_span = 1.0 / Y0 - 1.0 / y_cap
    xs = np.empty(size)
    ys = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        u = rng.uniform(size=need)
        x = rng.uniform(-0.5, 0.5, size=need)
        y = 1.0 / (1.0 / Y0 - inv_span * u)
        keep = x * x + y * y >= 1.0
        kept = int(np.count_nonzero(keep))
        xs[filled : filled + kept] = x[keep]
        ys[filled : filled + kept] = y[keep]
        filled += kept
    theta = rng.uniform(0.0, 2.0 * np.pi, size=size)[columns]
    out = []
    for x, y, c, s in zip(xs[columns].tolist(), ys[columns].tolist(), np.cos(theta).tolist(),
                          np.sin(theta).tolist()):
        sq = math.sqrt(y)
        out.append(_py_product([[sq, x / sq], [0.0, 1.0 / sq]], [[c, -s], [s, c]]))
    return np.array(out)


# named for the blocked BLAS product the draw was once checked against
@pytest.mark.parametrize("size", [1, 4097, CHUNK])
def test_blocked_modular_draw_matches_the_whole_stack_product(size):
    """The component-major modular draw is the fixed-order product of its
    points with their rotations, at every column the Python oracle checks
    (a spread of 512 and the last), and the stream is read as far."""
    got_rng, want_rng = np.random.default_rng([12, 3, 1]), np.random.default_rng([12, 3, 1])
    got = measures._sample_modular_chunk(size, got_rng, 1.0e4)
    columns = np.unique(np.r_[np.linspace(0, size - 1, 512).astype(int), size - 1])
    want = _modular_draw_py(size, want_rng, 1.0e4, columns)
    assert got.shape == (2, 2, size) and got.flags.c_contiguous
    assert _same_bits(got[:, :, columns].transpose(2, 0, 1), want)
    assert got_rng.uniform() == want_rng.uniform()


_MIXED = product_subgroup([embedded_sl2(2), one_param_unipotent(2, (0, 1))])


@pytest.mark.parametrize(
    "spec, count, y_cap",
    [
        pytest.param(_MIXED, count, y_cap, id=f"{count}-{y_cap}")
        for count, y_cap in [(0, 1.0e4), (-2, 1.0e4), (10, 0.8), (10, Y0), (10, float("nan"))]
    ]
    + [
        pytest.param(trivial_subgroup(1), 10, 1.0e4, id="n1"),
        pytest.param(full_unipotent_radical(5, []), 10, 1.0e4, id="n5"),
    ],
)
def test_sampling_refuses_an_empty_count_or_a_cap_at_the_floor_first(
    spec, count, y_cap, monkeypatch
):
    """No samples, a height cap at or below sqrt(3)/2, where the modular
    sampler would accept no point and never return, or a matrix size the
    reducer does not take: ValueError before any draw."""

    def draw(*args):
        raise AssertionError("drew before the sampling input was checked")

    monkeypatch.setattr(measures, "_draw_factor_chunk", draw)
    g = np.stack([np.eye(spec.n)] * len(spec.parts))
    with pytest.raises(ValueError, match="count|y_cap|n = 2, 3 or 4"):
        empirical_measure(spec, g, count, 0, y_cap=y_cap)
    with pytest.raises(ValueError, match="count|y_cap|n = 2, 3 or 4"):
        measures.stream_measures(spec, [g], count, 0, [1.0e2], keep=4, y_cap=y_cap)


def test_sampler_determinism():
    spec = product_subgroup([embedded_sl2(2), one_param_unipotent(2, (0, 1))])
    a = _samples(spec, 300, seed=77)
    b = _samples(spec, 300, seed=77)
    assert np.array_equal(a, b)
    c = _samples(spec, 300, seed=78)
    assert not np.array_equal(a, c)


def test_pushforward():
    spec = one_param_unipotent(2, (0, 1))
    samples = _samples(spec, 20, seed=5)[:, 0]
    g = group_element([[2.0, 0.0], [0.0, 0.5]])
    pushed = _push(samples, g.mat)
    for h, hg in zip(samples, pushed):
        assert np.allclose(hg, h @ g.mat)
        assert abs(np.linalg.det(hg) - 1.0) < 1e-12
    same = _push(samples, np.eye(2))
    for h, hs in zip(samples, same):
        assert np.allclose(h, hs)


def test_empirical_measure_compact_orbit_interior():
    spec = full_unipotent_radical(3, [])
    m = empirical_measure(spec, np.eye(3), 2000, seed=6)
    assert m.sample_count == 2000
    h = boundary_histogram(m, t_esc=50.0)
    assert sum(h.mass.values()) == pytest.approx(1.0)
    assert h.fraction({0, 1}) == 1.0
    assert format_histogram(h).splitlines()[1].startswith("interior")


def test_pushed_horocycle_exact_height():
    # unipotent line pushed by diag(e^5, e^-5): reduced height e^10 exactly
    spec = one_param_unipotent(2, (0, 1))
    m = empirical_measure(spec, np.diag([np.exp(5.0), np.exp(-5.0)]), 4000, seed=7)
    assert np.allclose(np.exp(_roots(m)), np.exp(10.0), rtol=1e-9)
    h = boundary_histogram(m, t_esc=1.0e3)
    assert h.fraction(frozenset()) == 1.0
    assert h.argmax() == frozenset()


def test_histogram_threshold_monotone():
    spec = embedded_sl2(2)
    m = empirical_measure(spec, np.eye(2), 20000, seed=8)
    interior = [
        boundary_histogram(m, t).fraction({0}) for t in (1.0e4, 1.0e3, 1.0e2, 2.0)
    ]
    assert all(a >= b for a, b in zip(interior, interior[1:]))
    with pytest.raises(ValueError):
        boundary_histogram(m, t_esc=1.0)


def test_gamma_invariance_of_histograms():
    gamma = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    spec = full_unipotent_radical(3, [1])
    conj = full_unipotent_radical(3, [1], conjugator=gamma)
    g = np.diag([np.exp(2.0), 1.0, np.exp(-2.0)])
    gamma_g = np.array(gamma, dtype=float) @ g
    count = 8000
    m1 = empirical_measure(spec, g, count, seed=9)
    m2 = empirical_measure(conj, gamma_g, count, seed=9)
    h1 = boundary_histogram(m1, 1.0e2)
    h2 = boundary_histogram(m2, 1.0e2)
    for label in set(h1.mass) | set(h2.mass):
        p = h1.fraction(label)
        se = math.sqrt(max(p * (1 - p), 1e-9) / count)
        assert abs(p - h2.fraction(label)) <= 2 * se + 1e-12


def test_product_measure_and_per_factor_roots():
    spec = product_subgroup([one_param_unipotent(2, (0, 1)), trivial_subgroup(2)])
    g = np.stack([np.diag([np.exp(3.0), np.exp(-3.0)]), np.eye(2)])
    m = empirical_measure(spec, g, 3000, seed=10)
    logs = _roots(m)
    assert logs.shape == (3000, 2)
    assert np.allclose(logs[:, 0], 6.0, atol=1e-9)  # escaping factor
    assert np.all(logs[:, 1] <= np.log(2 / np.sqrt(3)) + 1e-9)  # reduced identity
    h = boundary_histogram(m, 1.0e2)
    assert h.fraction({1}) == 1.0


def _boundary_histogram_reference(m, t_esc):
    """The one-threshold histogram before the sweep shared one pass, kept as
    the reference for boundary_histograms."""
    if t_esc <= 2.0 / np.sqrt(3.0):
        raise ValueError("threshold must sit above the reduced-domain floor")
    roots = _roots(m).T
    rank = len(roots)
    log_t = np.log(t_esc)
    codes = (roots[0] <= log_t).astype(np.intp)
    for i in range(1, rank):
        codes += (roots[i] <= log_t) << i
    counts = np.bincount(codes, minlength=1 << rank)
    mass = {}
    for code, c in enumerate(counts):
        if c:
            label = frozenset(i for i in range(rank) if code >> i & 1)
            mass[label] = c / m.sample_count
    total = sum(mass.values())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"histogram mass {total} != 1")
    return measures.BoundaryHistogram(mass=mass, threshold=t_esc, rank=rank)


SWEEPS = (
    (1.0e2, 1.0e3, 1.0e4),
    (1.0e4, 1.0e2, 1.0e3),  # unsorted
    (1.0e3, 1.0e2, 1.0e3, 1.0e3),  # duplicates
    (5.0,),
    (1.0e4, 3.0, 40.0, 1.0e2, 7.0e2, 1.0e3),
)


def _synthetic_measure(n, factors, count, rng):
    """A measure whose root log-values spread over the sweeps' thresholds,
    with some exactly at a threshold's log and some one ulp to either side
    (exactly so for n = 2, where a root is 2h - 0 = h - (-h))."""
    rank = factors * (n - 1)
    roots = rng.uniform(-0.5, 10.0, size=(count, rank))
    ties = np.log(rng.choice([1.0e2, 1.0e3, 1.0e4, 3.0, 40.0], size=(count, rank)))
    pick = rng.uniform(size=(count, rank))
    roots = np.where(pick < 0.2, ties, roots)
    roots = np.where((pick >= 0.2) & (pick < 0.3), np.nextafter(ties, np.inf), roots)
    roots = np.where((pick >= 0.3) & (pick < 0.4), np.nextafter(ties, -np.inf), roots)
    if n == 2:
        h = roots.reshape(count, factors, 1) / 2.0
        log_a = np.concatenate([h, -h], axis=2)
    else:
        log_a = np.zeros((count, 1, n))
        log_a[:, 0, 1:] = -np.cumsum(roots, axis=1)
    u_coords = np.zeros((count, factors, n * (n - 1) // 2))
    return EmpiricalMeasure(log_a=log_a, u_coords=u_coords, sample_count=count)


@pytest.mark.parametrize("n, factors", [(2, 1), (3, 1), (4, 1), (2, 2), (2, 4), (2, 5)])
def test_one_pass_histograms_match_the_one_threshold_reference(n, factors, monkeypatch):
    """Ranks 1-5: every histogram of a sweep, sorted or not, with repeated
    thresholds, has the labels, insertion order and mass bits of the
    one-threshold reference; the 5-factor product's (T+1)^rank > 256 table
    takes the wide code."""
    m = _synthetic_measure(n, factors, 3001, np.random.default_rng(10 * n + factors))
    rank = factors * (n - 1)
    assert _roots(m).shape == (3001, rank)
    real_bincount = np.bincount
    for sweep in SWEEPS:
        want = [_boundary_histogram_reference(m, t) for t in sweep]
        code_types = []

        def bincount(codes, *args, **kwargs):
            code_types.append(codes.dtype)
            return real_bincount(codes, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", bincount)
        hists = boundary_histograms(m, sweep)
        monkeypatch.setattr(np, "bincount", real_bincount)
        wide = (len(set(sweep)) + 1) ** rank > 256
        assert code_types == [np.dtype(np.intp) if wide else np.dtype(np.uint8)]
        if sweep == SWEEPS[0]:  # the default sweep: 4^rank codes
            assert wide == (rank == 5)
        assert len(hists) == len(sweep)
        for t, h, w in zip(sweep, hists, want):
            assert h.threshold == t and h.rank == w.rank == rank
            assert list(h.mass.items()) == list(w.mass.items())
            assert sum(h.mass.values()) == pytest.approx(1.0, abs=1e-12)
            assert list(boundary_histogram(m, t).mass.items()) == list(w.mass.items())


def test_histogram_sweep_splits_a_table_that_would_be_too_large(monkeypatch):
    """With a small table bound the sweep runs a few thresholds per pass,
    with the same histograms."""
    m = _synthetic_measure(2, 2, 2000, np.random.default_rng(3))
    sweep = SWEEPS[-1]
    want = [_boundary_histogram_reference(m, t) for t in sweep]
    monkeypatch.setattr(measures, "HISTOGRAM_TABLE", 9)  # 3^2: two thresholds a pass
    passes = []
    real = measures._depth_table

    def counted(log_a, levels):
        passes.append(len(levels))
        return real(log_a, levels)

    monkeypatch.setattr(measures, "_depth_table", counted)
    got = boundary_histograms(m, sweep)
    assert passes == [2, 2, 2]
    for h, w in zip(got, want):
        assert list(h.mass.items()) == list(w.mass.items())


class _Untouchable:
    """Stands for a measure; reading its samples fails."""

    sample_count = 10

    @property
    def log_a(self):
        raise AssertionError("samples read before the thresholds were checked")


@pytest.mark.parametrize("bad", [1.0, 2.0 / np.sqrt(3.0), 0.5, float("nan")])
def test_histogram_sweep_refuses_a_floor_threshold_first(bad):
    for sweep in ([bad], [1.0e3, bad], [bad, 1.0e2, 1.0e4]):
        with pytest.raises(ValueError, match="reduced-domain floor"):
            boundary_histograms(_Untouchable(), sweep)
    with pytest.raises(ValueError, match="reduced-domain floor"):
        boundary_histogram(_Untouchable(), bad)


def test_histograms_refuse_a_measure_that_holds_only_its_first_rows():
    """A run keeps only the first rows of a measure; histogramming them as
    if they were the whole measure is refused."""
    spec = one_param_unipotent(2, (0, 1))
    g = np.diag([np.exp(2.0), np.exp(-2.0)])
    ((_, head),) = measures.stream_measures(spec, [g], 1000, 5, [1.0e2], keep=100)
    assert len(head.log_a) == 100 and head.sample_count == 1000
    with pytest.raises(ValueError, match="holds 100 of its 1000 rows"):
        boundary_histograms(head, [1.0e2])
    with pytest.raises(ValueError, match="holds 100 of its 1000 rows"):
        boundary_histogram(head)


def test_truncation_bound():
    assert truncation_bound(one_param_unipotent(2, (0, 1)), 1e4) == 0.0
    assert truncation_bound(embedded_sl2(2), 1e4) == pytest.approx(3 / (np.pi * 1e4))
    spec = product_subgroup([trivial_subgroup(2), embedded_sl2(2)])
    assert truncation_bound(spec, 1e3) == pytest.approx(3 / (np.pi * 1e3))


def test_truncation_insensitivity():
    spec = embedded_sl2(2)
    count = 20000
    m1 = empirical_measure(spec, np.eye(2), count, seed=12, y_cap=1.0e4)
    m2 = empirical_measure(spec, np.eye(2), count, seed=12, y_cap=2.0e4)
    for t in (1.0e2, 1.0e3):
        h1, h2 = boundary_histogram(m1, t), boundary_histogram(m2, t)
        for label in set(h1.mass) | set(h2.mass):
            p = h1.fraction(label)
            se = math.sqrt(max(p * (1 - p), 1e-9) / count)
            assert abs(p - h2.fraction(label)) <= 3.0 / (np.pi * 1.0e4) + 2 * se


# ---------------------------------------------------------------------------
# bit-for-bit equivalence of the lean sampling path with its old form


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def _push_case(rng, length, n):
    """A (length, n, n) stack, as 61 matrices and the index of each row of
    the stack among them, so that the Python oracle need only multiply
    those, and a translate g: random matrices, identities and ones with a
    zero row, whose exact zeros meet g's negative entries in signed-zero
    products, as trivial and unipotent samples do."""
    base = rng.normal(size=(61, n, n))
    base[1::4] = np.eye(n)
    base[2::4, -1, :] = 0.0
    base[3::4, 0, :] = -0.0
    g = rng.normal(size=(n, n))
    g[-1, 0] = 0.0
    g[0] = -np.abs(g[0])
    return base, np.arange(length) % len(base), g


# One dense push, one modular chunk, one conjugated embed and one translate
# with a recorded left factor: each has entries that sum several nonzero
# products, where a kernel with fused multiply-add rounds differently.
_KERNEL_PROBE = """
import hashlib
from fractions import Fraction

import numpy as np

from escmass import measures
from escmass.limits import SequenceSpec, sequence_translate
from escmass.qfield import qmat


def show(out):  # at once: the push and the embed share workspace slots
    print(hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())


rng = np.random.default_rng(2024)
show(measures._right_multiply(rng.normal(size=(4, 4, 4099)), rng.normal(size=(4, 4))))
show(measures._sample_modular_chunk(measures.CHUNK, np.random.default_rng(5), 1.0e4))
gamma = ((3, 5, 0), (1, 2, 0), (7, 4, 1))
spec = measures.levi_semisimple_nc(3, 0, conjugator=gamma)
draw = measures._draw_factor_chunk(spec, measures.CHUNK, np.random.default_rng(6), 1.0e4)
show(measures._embed_factor_chunk(spec, draw, measures.CHUNK))
offset = qmat([[1, Fraction(1, 3), Fraction(2, 7)], [0, 1, Fraction(5, 11)], [0, 0, 1]])
seq = SequenceSpec(
    measures.levi_semisimple_nc(3, 0), (Fraction(1), Fraction(0), Fraction(-1)),
    bounded_part=(offset,), conjugator_policy="recorded", recorded_conjugator=(gamma,),
)
show(sequence_translate(seq, 4))
"""


def test_sampling_bits_do_not_depend_on_the_blas_kernel():
    """The products of the sampling path write the same bytes under
    OpenBLAS's default kernel and under Sandybridge, which has no fused
    multiply-add.  (A BLAS that ignores OPENBLAS_CORETYPE runs the same
    kernel twice; the Python oracle tests above pin the order itself.)"""
    src = str(Path(measures.__file__).resolve().parents[1])
    printed = []
    for coretype in (None, "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["OPENBLAS_NUM_THREADS"] = "1"
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        run = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        printed.append(run.stdout.split())
    assert len(printed[0]) == 4 and printed[0] == printed[1]


# named for the stacked BLAS product the push was once checked against
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("length", [1, 7, CHUNK + 3])
def test_flat_gemm_pushforward_matches_the_stacked_matmul(n, length):
    """The push of a row-major stack is the Python oracle's product,
    matrix by matrix, signed zeros included."""
    rng = np.random.default_rng(10 * n + length % 97)
    base, idx, g = _push_case(rng, length, n)
    assert _same_bits(_push(base[idx], g), _py_stack_product(base, g)[idx])


# named for the flat BLAS product the push was once checked against
@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "view"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("length", [1, 2, 5, 4097, 3 * 4096 + 1, 8190, 34464 + 3])
def test_component_major_push_matches_the_flat_gemm(n, length, contiguous):
    """The row-reversed component-major push, signed zeros included, is the
    Python oracle's product at every length, whether the component-major
    input is an array, as the embed writes it, or a view of a row-major
    stack with strided rows."""
    rng = np.random.default_rng(100 * n + length % 89)
    base, idx, g = _push_case(rng, length, n)
    rows = base[idx].transpose(1, 2, 0)
    rev = measures._right_multiply(np.ascontiguousarray(rows) if contiguous else rows, g)
    assert rev.flags.c_contiguous and rev.shape == (n, n, length)
    assert _same_bits(rev[::-1].transpose(2, 0, 1), _py_stack_product(base, g)[idx])


def _mixed_operand(rng, n, m):
    """An n x n operand of ordered_product: each entry a scalar 0.0, -0.0,
    1.0 or a random value, or a length-m row of random values with -0.0
    and 0.0 in it, or a row of signed zeros."""
    def entry():
        pick = rng.integers(7)
        if pick < 4:
            return (0.0, -0.0, 1.0, float(rng.normal()))[pick]
        row = rng.normal(size=m)
        row[rng.random(m) < 0.3] = -0.0
        row[rng.random(m) < 0.1] = 0.0
        return np.where(rng.random(m) < 0.5, -0.0, 0.0) if pick == 6 else row

    return [[entry() for _ in range(n)] for _ in range(n)]


def _column(op, c):
    """Column c of a nested operand as Python floats."""
    return [[float(x if np.ndim(x) == 0 else x[c]) for x in row] for row in op]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ordered_product_with_scalar_entries_matches_the_python_oracle(n):
    """Operands that mix the scalars 0.0, -0.0 and 1.0 with rows holding
    -0.0 multiply to the Python oracle's product, column by column, signed
    zeros included: skipping the exact-zero scalars and forming scalar
    terms as scalars moves no bit."""
    rng = np.random.default_rng(300 + n)
    m = 23
    out, prod = np.empty((n, n, m)), np.empty(m)
    for _ in range(60):
        a, b = _mixed_operand(rng, n, m), _mixed_operand(rng, n, m)
        lingrp.ordered_product(a, b, out, prod)
        for c in range(m):
            want = np.array(_py_product(_column(a, c), _column(b, c)))
            assert _same_bits(out[:, :, c], want)


def test_ordered_product_entries_of_skipped_terms_are_plus_zero():
    """An entry whose every term has an exact-zero scalar factor is +0.0,
    and an entry of scalar terms only is filled with their sum."""
    m = 5
    row = np.array([-0.0, 2.0, -3.0, 0.0, -0.0])
    a = [[-0.0, 0.0], [1.0, row]]
    b = [[row, -0.0], [-2.0, 0.0]]
    out = np.full((2, 2, m), np.nan)
    lingrp.ordered_product(a, b, out, np.empty(m))
    assert _same_bits(out[0, 0], np.zeros(m)) and _same_bits(out[0, 1], np.zeros(m))
    assert _same_bits(out[1, 1], np.zeros(m))
    assert _same_bits(out[1, 0], row + 0.0 - 2.0 * row)
    scalars = np.empty((1, 1, m))
    lingrp.ordered_product([[2.0, -0.0]], [[3.0], [np.inf]], scalars, np.empty(m))
    assert _same_bits(scalars[0, 0], np.full(m, 6.0))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_ordered_product_never_forms_a_skipped_term(zero):
    """A term with an exact-zero scalar factor, of either sign and on either
    side, is skipped, not formed: a zero times a row of infinities would be
    nan, and here adds nothing."""
    m = 4
    bad = np.array([np.inf, -np.inf, np.nan, np.inf])
    row = np.array([1.5, -0.0, 0.0, -2.0])
    out, prod = np.empty((1, 1, m)), np.empty(m)
    lingrp.ordered_product([[zero, 1.0]], [[bad], [row]], out, prod)
    assert _same_bits(out[0, 0], row + 0.0)
    lingrp.ordered_product([[bad, row]], [[zero], [1.0]], out, prod)
    assert _same_bits(out[0, 0], row + 0.0)


@pytest.mark.parametrize(
    "spec, g",
    [
        (product_subgroup([embedded_sl2(2), trivial_subgroup(2), one_param_unipotent(2, (0, 1))]),
         np.stack([np.diag([np.exp(2.0), np.exp(-2.0)])] * 3)),
        (levi_semisimple_nc(4, 1), np.diag(np.exp([3.0, 1.0, -1.0, -3.0]))),
    ],
    ids=["product", "levi4"],
)
def test_measures_are_stored_factor_major(spec, g):
    """log_a and u_coords keep their (count, factors, ...) shapes as views of
    factor-major buffers, and the root log-values read off those rows, as
    the histograms read them, are those of a row-major copy of log_a."""
    m = empirical_measure(spec, g, 1500, seed=46)
    r, n = spec.shape
    assert m.log_a.shape == (1500, r, n)
    assert m.u_coords.shape == (1500, r, n * (n - 1) // 2)
    assert m.log_a.transpose(1, 2, 0).flags.c_contiguous
    assert m.u_coords.transpose(1, 2, 0).flags.c_contiguous
    rows = m.log_a.transpose(1, 2, 0)
    roots = (rows[:, :-1] - rows[:, 1:]).reshape(-1, 1500)  # root-major
    log_a = np.ascontiguousarray(m.log_a)
    want = (log_a[:, :, :-1] - log_a[:, :, 1:]).reshape(1500, -1)
    assert _same_bits(roots.T, want)


def _sample_factor_chunk(spec, size, rng, y_cap):
    """The sampler before draws were shared across translates, kept as an
    oracle: draw and embed one chunk of a factor in one step."""
    n = spec.n
    out = np.tile(np.eye(n), (size, 1, 1))
    if spec.kind == "one_param_unipotent":
        i, j = spec.coordinate
        out[:, i, j] = rng.uniform(size=size)
    elif spec.kind == "full_unipotent_radical":
        for r, c in measures.ParabolicIndex(n, spec.I).nilradical_coordinates():
            out[:, r, c] = rng.uniform(size=size)
    elif spec.kind in ("levi_semisimple_nc", "embedded_sl2"):
        b = spec.block
        out[:, b : b + 2, b : b + 2] = measures._sample_modular_chunk(size, rng, y_cap).transpose(2, 0, 1)
    if spec.conjugator is not None:
        out = _py_conjugate(out, spec.conjugator)
    return out


def _empirical_measure_full(spec, g, count, seed, y_cap=measures.Y_CAP_DEFAULT):
    """The old form of empirical_measure, kept as an oracle: every factor,
    trivial ones too, is sampled as a full stack, pushed by the push
    (checked against the Python oracle above) and split by
    iwasawa_batched."""
    r, n = spec.shape
    g_arr = measures._translate_array(g, r, n)
    factors = spec.factors if spec.kind == "product" else (spec,)
    d_u = n * (n - 1) // 2
    log_a = np.empty((count, r, n))
    u_coords = np.empty((count, r, d_u))
    iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for ci, size in measures._chunk_plan(count):
        lo = ci * CHUNK
        for f, fac in enumerate(factors):
            rng = np.random.default_rng([seed, ci, f])
            pushed = _push(_sample_factor_chunk(fac, size, rng, y_cap), g_arr[f]).copy()
            if n in (3, 4):
                reps, _ = measures.reduce_siegel_batched(pushed)
                nil, a, _ = iwasawa_batched(reps)
                log_a[lo : lo + size, f] = np.log(a)
                for col, (i, j) in enumerate(iu):
                    u_coords[lo : lo + size, f, col] = nil[:, i, j]
            else:
                nil, a, _ = iwasawa_batched(pushed)
                x, y = nil[:, 0, 1], a[:, 0] / a[:, 1]
                xr, yr = measures.reduce_sl2_coords(x, y)
                half = 0.5 * np.log(yr)
                log_a[lo : lo + size, f, 0] = half
                log_a[lo : lo + size, f, 1] = -half
                u_coords[lo : lo + size, f, 0] = xr
    return log_a, u_coords


def _bits(x):
    return x.view(np.uint64) if x.dtype == np.float64 else x


def _assert_same_measure(m, full):
    """log_a and u_coords as uint64 bits, so signed zeros count."""
    log_a, u_coords = full
    assert np.array_equal(_bits(m.log_a), _bits(log_a))
    assert np.array_equal(_bits(m.u_coords), _bits(u_coords))


def test_trivial_factors_reduced_once_match_full_stacks():
    """A product with trivial factors, over one or two blocks and over two
    chunks, against the same measure computed on full stacks."""
    spec = product_subgroup([
        trivial_subgroup(2),
        embedded_sl2(2),
        trivial_subgroup(2),
        one_param_unipotent(2, (0, 1)),
    ])
    g = np.stack([
        [[np.exp(2.0), -0.5 * np.exp(-2.0)], [0.0, np.exp(-2.0)]],
        np.diag([np.exp(1.5), np.exp(-1.5)]),
        [[np.exp(-3.0), np.sqrt(2.0) * np.exp(3.0)], [0.0, np.exp(3.0)]],
        np.diag([np.exp(-2.0), np.exp(2.0)]),
    ])
    # past the edges of the n = 2 path's WALK_BLOCK blocks and of a chunk
    for count in (WALK_BLOCK - 1, WALK_BLOCK + 1, CHUNK + 3):
        m = empirical_measure(spec, g, count, seed=40)
        _assert_same_measure(m, _empirical_measure_full(spec, g, count, seed=40))


@pytest.mark.parametrize("n", [3, 4])
def test_single_trivial_factor_matches_full_stack(n):
    g = np.diag(np.exp(np.linspace(2.0, -2.0, n)))
    g[0, -1] = 0.75
    spec = trivial_subgroup(n)
    m = empirical_measure(spec, g, 500, seed=41)
    _assert_same_measure(m, _empirical_measure_full(spec, g, 500, seed=41))


@pytest.mark.parametrize(
    "spec",
    [embedded_sl2(3, 1), levi_semisimple_nc(4, 0), full_unipotent_radical(3, [1])],
    ids=["embedded", "levi", "radical"],
)
def test_reduced_path_matches_the_iwasawa_split_of_the_reps(spec):
    n = spec.n
    g = np.diag(np.exp(4.0 * np.linspace(1.0, -1.0, n)))
    m = empirical_measure(spec, g, 3000, seed=42)
    _assert_same_measure(m, _empirical_measure_full(spec, g, 3000, seed=42))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_check_is_at_least_as_strict_as_the_exp_form(n):
    """The reduced-bounds check compares log diagonal ratios with a log
    floor instead of their exp with the ratio bound.  Within 64 ulps either
    side of the floor, every log ratio it passes has exp at or above the
    bound, and the floor gives away at most one ulp; log ratios one ulp
    either side of the floor pass and fail the check itself."""
    bound = measures.RATIO_MIN - 1e-9
    floor = measures._log_floor(bound)
    ladder = [floor]
    for _ in range(64):
        ladder = [np.nextafter(ladder[0], -np.inf)] + ladder + [np.nextafter(ladder[-1], np.inf)]
    d = np.array(ladder)
    passes = d >= floor
    assert np.all(np.exp(d[passes]) >= bound)
    assert np.exp(np.nextafter(np.nextafter(floor, -np.inf), -np.inf)) < bound
    u_coords = np.zeros((1, n * (n - 1) // 2, 1))
    for step, ok in ((np.inf, True), (0.0, True), (-np.inf, False)):
        ratio = np.nextafter(floor, step) if step else floor
        # every adjacent difference is exactly ratio
        log_a = (np.arange(n)[::-1] - (n - 1) // 2) * ratio
        assert np.all(log_a[:-1] - log_a[1:] == ratio)
        if ok:
            measures._assert_reduced(log_a[None, :, None], u_coords)
        else:
            with pytest.raises(RuntimeError, match="reduced diagonal"):
                measures._assert_reduced(log_a[None, :, None], u_coords)


@pytest.mark.parametrize("n", [3, 4])
def test_off_diagonal_check_takes_each_branch(n):
    """A block inside U_BOUND + 1e-9 passes on the whole-block bound; a
    larger |u| goes to the per-pair test, which allows a seen entry up to
    its slack 1e-9 + 8 eps ratio and lets an unseen one (a NaN too) pass."""
    d = n * (n - 1) // 2

    def check(log_step, u01):
        # adjacent log ratios log_step, so u_01's log ratio is log_step
        log_a = (np.arange(n)[::-1] - (n - 1) / 2) * log_step
        u_coords = np.zeros((1, d, 2))
        u_coords[0, :, 1] = -measures.U_BOUND  # a second sample, on the bound
        u_coords[0, 0, 0] = u01
        measures._assert_reduced(np.repeat(log_a[None, :, None], 2, axis=2), u_coords)

    eps = float(np.finfo(float).eps)
    seen = math.log(1e6)  # slack 1e-9 + 8 eps 1e6, about 2.8e-9
    unseen = measures._LOG_RATIO_SEEN + 1.0
    assert 2e-9 < 8.0 * eps * 1e6 + 1e-9 < 1e-8
    check(seen, measures.U_BOUND + 1e-9)
    check(seen, -(measures.U_BOUND + 1e-9))
    check(seen, measures.U_BOUND + 2e-9)
    check(unseen, np.nan)
    check(unseen, 1.0)
    for bad in (measures.U_BOUND + 1e-8, -(measures.U_BOUND + 1e-8)):
        with pytest.raises(RuntimeError, match="reduced off-diagonals"):
            check(seen, bad)
    with pytest.raises(RuntimeError, match="reduced off-diagonals"):
        check(math.log(2.0), np.nan)


# ---------------------------------------------------------------------------
# draws shared across translates


def _empirical_measure_per_index(spec, g, count, seed, y_cap=measures.Y_CAP_DEFAULT):
    """empirical_measure before draws were shared, kept as an oracle: one
    translate per call, each chunk drawn and embedded in one step."""
    r, n = spec.shape
    g_arr = measures._translate_array(g, r, n)
    factors = spec.factors if spec.kind == "product" else (spec,)
    log_a = np.empty((count, r, n))
    u_coords = np.empty((count, r, n * (n - 1) // 2))
    for f, fac in enumerate(factors):
        if fac.kind == "trivial":
            blocks = [(slice(None), 1, None)]
        else:
            blocks = [
                (slice(ci * measures.CHUNK, ci * measures.CHUNK + size), size,
                 np.random.default_rng([seed, ci, f]))
                for ci, size in measures._chunk_plan(count)
            ]
        for rows, size, rng in blocks:
            sample = _sample_factor_chunk(fac, size, rng, y_cap).transpose(1, 2, 0)
            pushed = measures._right_multiply(sample, g_arr[f])
            la, uc = np.empty((n, size)), np.empty((u_coords.shape[2], size))
            measures._reduce_into(pushed, la, uc)
            log_a[rows, f], u_coords[rows, f] = la.T, uc.T  # a trivial factor broadcasts
    return log_a, u_coords


def _test_translates(n, indices):
    """diag(e^(1.5 k v)) times a fixed unipotent with a rational and an
    irrational entry, v running from 1 down to -1."""
    bounded = np.eye(n)
    bounded[0, -1] = 0.5
    bounded[n - 2, n - 1] += math.sqrt(2.0)
    return [np.diag(np.exp(1.5 * k * np.linspace(1.0, -1.0, n))) @ bounded for k in indices]


def _scenario_case(name):
    from escmass.cli import load_scenario, sequence_translate

    seq = load_scenario(name).sequence
    return seq.subgroup, lambda indices: [sequence_translate(seq, k) for k in indices]


_GAMMA3 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
SHARED_DRAW_CASES = {
    "sl2_cusp": lambda: _scenario_case("sl2_cusp"),
    "sl2_mixed": lambda: _scenario_case("sl2_mixed"),
    "product_embedded_trivial": lambda: (
        product_subgroup([trivial_subgroup(2), embedded_sl2(2), one_param_unipotent(2, (0, 1))]),
        lambda indices: [np.stack([g] * 3) for g in _test_translates(2, indices)],
    ),
    "n3_radical": lambda: (full_unipotent_radical(3, []), lambda i: _test_translates(3, i)),
    "n3_radical_wall": lambda: (full_unipotent_radical(3, [1]), lambda i: _test_translates(3, i)),
    "n3_levi": lambda: (levi_semisimple_nc(3, 1), lambda i: _test_translates(3, i)),
    "n3_embedded": lambda: (embedded_sl2(3, 0), lambda i: _test_translates(3, i)),
    "n3_line": lambda: (one_param_unipotent(3, (0, 2)), lambda i: _test_translates(3, i)),
    "n3_trivial": lambda: (trivial_subgroup(3), lambda i: _test_translates(3, i)),
    "n4_levi": lambda: (levi_semisimple_nc(4, 1), lambda i: _test_translates(4, i)),
    "n3_conjugated": lambda: (
        embedded_sl2(3, 1, conjugator=_GAMMA3), lambda i: _test_translates(3, i)
    ),
    "product_conjugated": lambda: (
        product_subgroup([embedded_sl2(2, conjugator=((2, 1), (1, 1))), embedded_sl2(2)]),
        lambda indices: [np.stack([g] * 2) for g in _test_translates(2, indices)],
    ),
}


def _whole_measures(spec, gs, count, seed, **kwargs):
    """Every translate's whole measure, from one stream_measures call that
    keeps every row."""
    streamed = measures.stream_measures(spec, gs, count, seed, (), keep=count, **kwargs)
    return [m for _, m in streamed]


@pytest.mark.parametrize("indices", [(2,), (1, 2, 4)], ids=["one", "three"])
@pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
def test_shared_draws_match_per_index_measures(case, indices, monkeypatch):
    """One stream_measures call gives, bit for bit, the measures of one
    per-index call each; several chunks, the last one short."""
    monkeypatch.setattr(measures, "CHUNK", 512)
    spec, translates = SHARED_DRAW_CASES[case]()
    gs = translates(indices)
    count = 1027
    got = _whole_measures(spec, gs, count, seed=43)
    assert len(got) == len(gs)
    for m, g in zip(got, gs):
        assert m.sample_count == count
        _assert_same_measure(m, _empirical_measure_per_index(spec, g, count, seed=43))


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "executor"])
def test_each_chunk_is_drawn_once(parallel, monkeypatch):
    """Three translates share one draw per (chunk, non-trivial factor); a
    trivial factor draws nothing."""
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(measures, "CHUNK", 512)
    draws = []
    draw = measures._draw_factor_chunk

    def spy(spec, size, rng, y_cap):
        draws.append(tuple(rng.bit_generator.seed_seq.entropy))
        return draw(spec, size, rng, y_cap)

    monkeypatch.setattr(measures, "_draw_factor_chunk", spy)
    spec = product_subgroup([one_param_unipotent(2, (0, 1)), trivial_subgroup(2), embedded_sl2(2)])
    gs = [np.stack([g] * 3) for g in _test_translates(2, (1, 2, 4))]
    times = measures.SamplingTimes()
    if parallel:
        with ThreadPoolExecutor(3) as pool:
            got = _whole_measures(spec, gs, 1027, 44, executor=pool, times=times)
    else:
        got = _whole_measures(spec, gs, 1027, 44, times=times)
    assert sorted(draws) == [(44, ci, f) for ci in range(3) for f in (0, 2)]
    assert len(times.push_reduce) == 3 and min(times.push_reduce) > 0.0
    for m, g in zip(got, gs):
        _assert_same_measure(m, _empirical_measure_per_index(spec, g, 1027, 44))


@pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
def test_sample_subgroup_array_matches_the_one_step_sampler(case, monkeypatch):
    """The raw samples of the split draw and embed steps are, bit for bit,
    those of the sampler that drew and embedded in one step."""
    monkeypatch.setattr(measures, "CHUNK", 512)
    spec, _ = SHARED_DRAW_CASES[case]()
    r, n = spec.shape
    factors = spec.factors if spec.kind == "product" else (spec,)
    want = np.empty((1027, r, n, n))
    for ci, size in measures._chunk_plan(1027):
        for f, fac in enumerate(factors):
            rng = np.random.default_rng([45, ci, f])
            want[ci * 512 : ci * 512 + size, f] = _sample_factor_chunk(fac, size, rng, 1.0e4)
    assert np.array_equal(_bits(_samples(spec, 1027, seed=45)), _bits(want))


# ---------------------------------------------------------------------------
# the per-thread workspace of the sampling path


def test_a_warm_measure_allocates_only_its_outputs_and_its_draw():
    """numpy reports its buffers to tracemalloc.  Once its thread has
    sampled a measure, an identical one allocates its outputs, its draw and
    less than one (n, GS_BLOCK) row block of kernel scratch besides: no
    (n, n, m) stack, which takes n times that."""
    import tracemalloc

    from escmass.lingrp import GS_BLOCK

    spec = full_unipotent_radical(4, [1])
    count, (r, n) = 8192, spec.shape
    g = _test_translates(4, (2,))[0]
    draw = len(measures._uniform_coordinates(spec)) * count * 8
    outputs = r * (n + n * (n - 1) // 2) * count * 8
    scratch = n * GS_BLOCK * 8
    empirical_measure(spec, g, count, seed=3)  # the workspace grows here
    tracemalloc.start()
    try:
        empirical_measure(spec, g, count, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < outputs + draw + scratch, (peak, outputs, draw)


def test_the_n2_path_holds_no_chunk_sized_stack():
    """numpy reports its buffers to tracemalloc.  A warm streamed n = 2
    measure over one whole chunk allocates its draw and less than three
    WALK_BLOCK rows besides: the temporaries of the fold's depth codes,
    which peak at 2.39 rows.  Its block-sized embed, push, factor and walk
    scratch live in the workspace, and no (2, 2, CHUNK) stack of the whole
    chunk is made: one (2, 2, WALK_BLOCK) stack is four rows."""
    import tracemalloc

    spec = one_param_unipotent(2, (0, 1))
    g = np.diag([np.exp(2.0), np.exp(-2.0)])
    draw = CHUNK * 8
    rows = 3 * WALK_BLOCK * 8

    def run():
        measures.stream_measures(spec, [g], CHUNK, 5, [1.0e2, 1.0e3], keep=512)

    run()  # the workspace grows here
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < draw + rows, (peak, draw, rows)


def test_results_own_their_arrays():
    """The workspace never leaks into a result: a measure and a public
    reduction keep their bits through a later measure on the same thread,
    and no two of their arrays share memory."""
    spec = levi_semisimple_nc(4, 1)
    g1, g2 = _test_translates(4, (1, 2))
    first = empirical_measure(spec, g1, 1500, seed=5)
    mats = _push(_samples(spec, 300, seed=6)[:, 0], g2).copy()
    reduced = measures.reduce_siegel_batched(mats)
    kept = [x.copy() for x in (first.log_a, first.u_coords, *reduced)]
    second = empirical_measure(spec, g2, 1500, seed=7)
    earlier = (first.log_a, first.u_coords, *reduced)
    for x, y in zip(earlier, kept):
        assert np.array_equal(_bits(x), _bits(y))
    for x in earlier:
        for y in (second.log_a, second.u_coords):
            assert not np.shares_memory(x, y)


def test_pool_threads_give_the_serial_bits(monkeypatch):
    """Each pool thread embeds, pushes and reduces in its own workspace: an
    n = 4 run over two chunks gives the serial bits with three threads,
    switching between them every microsecond."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(measures, "CHUNK", 1024)
    spec = levi_semisimple_nc(4, 1)
    gs = _test_translates(4, (1, 2, 4))
    serial = _whole_measures(spec, gs, 2000, seed=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            parallel = _whole_measures(spec, gs, 2000, seed=8, executor=pool)
    finally:
        sys.setswitchinterval(interval)
    for m, want in zip(parallel, serial):
        _assert_same_measure(m, (want.log_a, want.u_coords))


# ---------------------------------------------------------------------------
# pinned product path

# one factor per atom: (subgroup, direction, offset entry of the bounded part)
_EMBEDDED = {"kind": "embedded_sl2", "n": 2}
_HOROCYCLE = {"kind": "one_param_unipotent", "n": 2, "coordinate": [0, 1]}
_TRIVIAL = {"kind": "trivial", "n": 2}
PRODUCT_SCENARIOS = (
    (  # embedded, expanding horocycle, escaping trivial factor
        (_EMBEDDED, 2, "0"),
        (_HOROCYCLE, 3, "1/2"),
        (_TRIVIAL, 2, "tau"),
    ),
    (  # contracting horocycle, bounded and plunging trivial factors
        (_HOROCYCLE, -2, "tau"),
        (_TRIVIAL, 0, "1/2"),
        (_TRIVIAL, -3, "0"),
        (_EMBEDDED, 3, "1/2"),
    ),
)
PRODUCT_DIGEST = "be2726ddd246942e8524e122f104f5f4f21380a6a71a267c22506fcc9300a212"


def _product_scenario(k, factors):
    from escmass.cli import scenario_from_json

    doc = {
        "schema": "escape-scenario/1",
        "name": f"product{k}",
        "tau_law": ["0", "2"],
        "sequence": {
            "subgroup": {"kind": "product", "factors": [f for f, _, _ in factors]},
            "direction": [str(x) for _, r, _ in factors for x in (r, -r)],
            "bounded_part": [[["1", off], ["0", "1"]] for _, _, off in factors],
            "indices": [1, 2, 4],
        },
        "sampling": {"count": 4096, "seed": 31 + k, "t_sweep": [100.0, 1000.0, 10000.0]},
    }
    return scenario_from_json(doc)


def test_product_path_is_pinned():
    """log_a, u_coords and histogram counts of products over every factor
    atom (embedded, expanding and contracting horocycle, escaping, bounded
    and plunging trivial factor; offsets 0, 1/2 and tau), bit for bit.  The
    arrays come from stream_measures keeping every row, the counts from
    run_scenario, which runs the same loop and keeps the arrays' first
    rows."""
    from escmass.cli import POINTS_CAP, run_scenario, sequence_translate

    h = hashlib.sha256()
    for k, factors in enumerate(PRODUCT_SCENARIOS):
        scn = _product_scenario(k, factors)
        seq = scn.sequence
        res = run_scenario(scn, jobs=1)
        translates = [sequence_translate(seq, idx) for idx in seq.indices]
        full = _whole_measures(seq.subgroup, translates, scn.count, scn.seed)
        for idx, m in zip(seq.indices, full):
            head = res.points[idx]
            assert head.sample_count == scn.count and len(head.log_a) == POINTS_CAP
            for kept, whole in ((head.log_a, m.log_a), (head.u_coords, m.u_coords)):
                assert np.array_equal(_bits(kept), _bits(whole[:POINTS_CAP]))
            h.update(m.log_a.tobytes())
            h.update(m.u_coords.tobytes())
            for t in scn.t_sweep:
                hist = res.histograms[idx][t]
                counts = sorted(
                    (sorted(lbl), round(mass * scn.count)) for lbl, mass in hist.mass.items()
                )
                h.update(repr(counts).encode())
    assert h.hexdigest() == PRODUCT_DIGEST


# ---------------------------------------------------------------------------
# the streamed run


def _run_case(case, count):
    from dataclasses import replace

    from escmass.cli import load_scenario

    if case == "product":  # n = 2, with an escaping trivial factor
        scn = _product_scenario(0, PRODUCT_SCENARIOS[0])
    else:
        scn = load_scenario(case)
    return replace(scn, count=count)


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize(
    "case, chunk, count",
    [
        pytest.param(case, chunk, 1300, id=f"{case}-{chunk}")
        for case in ("product", "sl3_levi_block")
        for chunk in (512, 256)
    ] + [  # the n = 2 path's block edges, with whole chunks
        pytest.param("product", CHUNK, WALK_BLOCK - 1, id="product-walk_block-1"),
        pytest.param("product", CHUNK, WALK_BLOCK + 1, id="product-walk_block+1"),
        pytest.param("product", CHUNK, CHUNK + 1, id="product-chunk+1"),
    ],
)
def test_streamed_run_matches_the_whole_measures(case, chunk, count, jobs, monkeypatch):
    """run_scenario folds each chunk, for n = 2 each block of a chunk, into
    histogram counts and keeps the first POINTS_CAP rows; they are, bit for
    bit, boundary_histograms of the whole measures, which stream_measures
    gives when it keeps every row, and the first rows of their arrays.  With 256-sample chunks the kept rows span two
    chunks; the last chunk, or block, is short.  The three pool threads
    switch every microsecond."""
    import sys

    from escmass.cli import POINTS_CAP, run_scenario, sequence_translate

    monkeypatch.setattr(measures, "CHUNK", chunk)
    scn = _run_case(case, count)
    seq = scn.sequence
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if jobs > 1 else interval)
    try:
        res = run_scenario(scn, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    translates = [sequence_translate(seq, idx) for idx in seq.indices]
    full = _whole_measures(seq.subgroup, translates, scn.count, scn.seed, y_cap=scn.y_cap)
    for idx, m in zip(seq.indices, full):
        for t, want in zip(scn.t_sweep, boundary_histograms(m, scn.t_sweep)):
            got = res.histograms[idx][t]
            assert (got.threshold, got.rank) == (want.threshold, want.rank)
            assert list(got.mass.items()) == list(want.mass.items())
        head = res.points[idx]
        assert head.sample_count == scn.count
        for kept, whole in ((head.log_a, m.log_a), (head.u_coords, m.u_coords)):
            assert np.array_equal(_bits(kept), _bits(whole[:POINTS_CAP]))


def test_a_warm_run_holds_no_sample_count_sized_arrays(monkeypatch):
    """numpy reports its buffers to tracemalloc.  Once its thread has run a
    scenario, the peak of a run over 32 chunks stays within one chunk's
    reduced coordinates of the peak over 8 chunks: no array grows with the
    sample count.  An n = 2 product keeps the traced runs short;
    tools/count_sweep.py measures an n = 3 scenario."""
    import tracemalloc

    from escmass.cli import run_scenario

    monkeypatch.setattr(measures, "CHUNK", 128)
    r, n = _run_case("sl2_mixed", 1).sequence.subgroup.shape
    chunk_coords = r * (n + n * (n - 1) // 2) * measures.CHUNK * 8

    def peak(chunks):
        scn = _run_case("sl2_mixed", chunks * measures.CHUNK)
        tracemalloc.start()
        try:
            run_scenario(scn, jobs=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_scenario(_run_case("sl2_mixed", 8 * measures.CHUNK), jobs=1)  # the workspace grows here
    low, high = peak(8), peak(32)
    assert high - low < chunk_coords, (low, high, chunk_coords)
