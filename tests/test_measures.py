"""Sampler and boundary-statistic checks.

The modular-domain sampler is validated against the closed-form truncated
hyperbolic integral (derived independently; the quadrature cross-check of the
same value guards the derivation).  Escape statistics use constructions whose
reduced heights are known exactly.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate

import escmass.measures as measures
from escmass.lingrp import GroupElement, group_element, identity_element, iwasawa_batched
from escmass.measures import (
    CHUNK,
    CoordinateWindow,
    boundary_histogram,
    embedded_sl2,
    empirical_measure,
    format_histogram,
    full_unipotent_radical,
    levi_semisimple_nc,
    lie_generators,
    one_param_unipotent,
    product_subgroup,
    pushforward,
    sample_subgroup,
    sample_subgroup_array,
    trivial_subgroup,
    truncation_bound,
    window_mass,
)

Y0 = math.sqrt(3.0) / 2.0


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


def test_trivial_and_line_samplers():
    spec = trivial_subgroup(3)
    for h in sample_subgroup(spec, 5, seed=1):
        assert np.array_equal(h.mat, np.eye(3))
    line = one_param_unipotent(3, (0, 2))
    arr = sample_subgroup_array(line, 200, seed=2)
    assert arr.shape == (200, 1, 3, 3)
    coords = arr[:, 0, 0, 2]
    assert np.all((coords >= 0.0) & (coords < 1.0))
    off = arr[:, 0] - np.eye(3)
    off[:, 0, 2] = 0.0
    assert np.allclose(off, 0.0)


def test_full_radical_sampler_box():
    arr = sample_subgroup_array(full_unipotent_radical(3, []), 500, seed=3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = arr[:, 0, i, j]
        assert np.all((v >= 0.0) & (v < 1.0))
        assert v.std() > 0.2  # actually random, roughly uniform


def test_modular_sampler_density():
    spec = embedded_sl2(2)
    y_cap = 1.0e4
    arr = sample_subgroup_array(spec, 100_000, seed=4, y_cap=y_cap)
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


def test_sampler_determinism():
    spec = product_subgroup([embedded_sl2(2), one_param_unipotent(2, (0, 1))])
    a = sample_subgroup_array(spec, 300, seed=77)
    b = sample_subgroup_array(spec, 300, seed=77)
    assert np.array_equal(a, b)
    c = sample_subgroup_array(spec, 300, seed=78)
    assert not np.array_equal(a, c)


def test_pushforward():
    spec = one_param_unipotent(2, (0, 1))
    samples = sample_subgroup(spec, 20, seed=5)
    g = group_element([[2.0, 0.0], [0.0, 0.5]])
    pushed = pushforward(samples, g)
    for h, hg in zip(samples, pushed):
        assert np.allclose(hg.mat, h.mat @ g.mat)
        assert abs(np.linalg.det(hg.mat) - 1.0) < 1e-12
    same = pushforward(samples, identity_element(2))
    for h, hs in zip(samples, same):
        assert np.allclose(h.mat, hs.mat)


def test_empirical_measure_compact_orbit_interior():
    spec = full_unipotent_radical(3, [])
    m = empirical_measure(spec, identity_element(3), 2000, seed=6)
    assert m.sample_count == 2000
    assert m.weights.sum() == pytest.approx(1.0)
    h = boundary_histogram(m, t_esc=50.0)
    assert h.fraction({0, 1}) == 1.0
    assert format_histogram(h).splitlines()[1].startswith("interior")


def test_pushed_horocycle_exact_height():
    # unipotent line pushed by diag(e^5, e^-5): reduced height e^10 exactly
    spec = one_param_unipotent(2, (0, 1))
    g = group_element(np.diag([np.exp(5.0), np.exp(-5.0)]))
    m = empirical_measure(spec, g, 4000, seed=7)
    assert np.allclose(np.exp(m.root_log_values()), np.exp(10.0), rtol=1e-9)
    h = boundary_histogram(m, t_esc=1.0e3)
    assert h.fraction(frozenset()) == 1.0
    assert h.argmax() == frozenset()


def test_histogram_threshold_monotone():
    spec = embedded_sl2(2)
    m = empirical_measure(spec, identity_element(2), 20000, seed=8)
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
    g = group_element(np.diag([np.exp(2.0), 1.0, np.exp(-2.0)]))
    gamma_g = group_element(np.array(gamma, dtype=float) @ g.mat)
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
    g = (
        group_element(np.diag([np.exp(3.0), np.exp(-3.0)])),
        identity_element(2),
    )
    m = empirical_measure(spec, g, 3000, seed=10)
    logs = m.root_log_values()
    assert logs.shape == (3000, 2)
    assert np.allclose(logs[:, 0], 6.0, atol=1e-9)  # escaping factor
    assert np.all(logs[:, 1] <= np.log(2 / np.sqrt(3)) + 1e-9)  # reduced identity
    h = boundary_histogram(m, 1.0e2)
    assert h.fraction({1}) == 1.0


def test_window_mass():
    spec = one_param_unipotent(2, (0, 1))
    m = empirical_measure(spec, identity_element(2), 1000, seed=11)
    everything = CoordinateWindow(u_max=np.inf, alpha_max=np.inf)
    nothing = CoordinateWindow(u_max=-1.0, alpha_max=np.inf)
    assert window_mass(m, everything) == 1.0
    assert window_mass(m, nothing) == 0.0
    # orbit of the identity coset: the whole cloud is one reduced point set
    domain = CoordinateWindow(u_max=0.5 + 1e-9, alpha_max=np.inf)
    assert window_mass(m, domain) == 1.0


def test_truncation_bound():
    assert truncation_bound(one_param_unipotent(2, (0, 1)), 1e4) == 0.0
    assert truncation_bound(embedded_sl2(2), 1e4) == pytest.approx(3 / (np.pi * 1e4))
    spec = product_subgroup([trivial_subgroup(2), embedded_sl2(2)])
    assert truncation_bound(spec, 1e3) == pytest.approx(3 / (np.pi * 1e3))


def test_truncation_insensitivity():
    spec = embedded_sl2(2)
    count = 20000
    m1 = empirical_measure(spec, identity_element(2), count, seed=12, y_cap=1.0e4)
    m2 = empirical_measure(spec, identity_element(2), count, seed=12, y_cap=2.0e4)
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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("length", [1, 7, CHUNK + 3])
def test_flat_gemm_pushforward_matches_the_stacked_matmul(n, length):
    rng = np.random.default_rng(10 * n + length % 97)
    stack = rng.normal(size=(length, n, n))
    stack[::5] = np.eye(n)  # exact zeros, as trivial and unipotent samples have
    stack[1::5, 0, :] = 0.0
    g = rng.normal(size=(n, n))
    g[0, -1] = 0.0
    g[-1] = -np.abs(g[-1])  # negative entries meet the zeros: signed zeros
    assert _same_bits(measures._right_multiply(stack, g), stack @ g)


def _empirical_measure_full(spec, g, count, seed, y_cap=measures.Y_CAP_DEFAULT):
    """The old form of empirical_measure, kept as an oracle: every factor,
    trivial ones too, is sampled as a full stack, pushed by the stacked
    matmul and split by iwasawa_batched."""
    r, n = spec.shape
    g_arr = measures._translate_array(g, r, n)
    factors = spec.factors if spec.kind == "product" else (spec,)
    d_u = n * (n - 1) // 2
    log_a = np.empty((count, r, n))
    u_coords = np.empty((count, r, d_u))
    gammas = np.empty((count, r, n, n), dtype=np.int64) if n in (3, 4) else None
    iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for ci, size in measures._chunk_plan(count):
        lo = ci * CHUNK
        for f, fac in enumerate(factors):
            rng = np.random.default_rng([seed, ci, f])
            pushed = measures._sample_factor_chunk(fac, size, rng, y_cap) @ g_arr[f]
            if n in (3, 4):
                gams, reps, _ = measures.reduce_siegel_batched(pushed)
                nil, a, _ = iwasawa_batched(reps)
                gammas[lo : lo + size, f] = gams
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
    return log_a, u_coords, gammas


def _assert_same_measure(m, full):
    log_a, u_coords, gammas = full
    assert _same_bits(m.log_a, log_a)
    assert _same_bits(m.u_coords, u_coords)
    if gammas is None:
        assert m.gammas is None
    else:
        assert np.array_equal(m.gammas, gammas)


def test_trivial_factors_reduced_once_match_full_stacks():
    """A product with trivial factors, over two chunks, against the same
    measure computed on full stacks."""
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
    count = CHUNK + 3
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
PRODUCT_DIGEST = "5b2d6bcfa229ab9913dec5b9a9bd01e099d678398a9d377b1ce50cdd14f9edf1"


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
    and plunging trivial factor; offsets 0, 1/2 and tau), bit for bit."""
    from escmass.cli import run_scenario

    h = hashlib.sha256()
    for k, factors in enumerate(PRODUCT_SCENARIOS):
        scn = _product_scenario(k, factors)
        res = run_scenario(scn, jobs=1)
        for idx in scn.sequence.indices:
            m = res.measures[idx]
            h.update(m.log_a.tobytes())
            h.update(m.u_coords.tobytes())
            for t in scn.t_sweep:
                hist = res.histograms[idx][t]
                counts = sorted(
                    (sorted(lbl), round(mass * scn.count)) for lbl, mass in hist.mass.items()
                )
                h.update(repr(counts).encode())
    assert h.hexdigest() == PRODUCT_DIGEST
