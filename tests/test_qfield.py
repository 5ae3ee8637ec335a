import doctest
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import escmass.qfield as qfield
from escmass.qfield import (
    as_int,
    QuadNum,
    int_det,
    int_inverse,
    qmat,
    qmat_identity,
    qmat_mul,
    qmat_unipotent_inverse,
    rat_inverse,
    rat_mul,
    unimodular,
)
from escmass.rootsys import build_product, build_type_a


def test_doctests():
    results = doctest.testmod(qfield)
    assert results.failed == 0


def test_golden_ratio_satisfies_its_law():
    g = QuadNum.tau(1, 1)
    assert g * g == g + 1
    g2 = g * g
    assert (g2 * g2).is_rational() is False
    # phi^2 - phi - 1 = 0 exactly
    assert (g * g - g - 1).is_zero()


def test_sqrt2_float_and_sign_agree():
    r = QuadNum.tau(0, 2)
    assert abs(float(r) - math.sqrt(2)) < 1e-15
    assert float(r - Fraction(141421356, 100000000)) > 0
    assert float(r - Fraction(141421357, 100000000)) < 0
    assert float(r) > 0
    assert float(-r) < 0


def test_rational_tau_rejected():
    # x^2 = 2x + 3 has the rational root 3 (disc = 16 is a square)
    with pytest.raises(ValueError):
        QuadNum.tau(2, 3)


def test_inverse_of_generic_element():
    t = QuadNum.tau(1, 3)
    x = t * 2 - Fraction(5, 7)
    assert (x * x.inverse()).as_fraction() == 1
    assert (1 / x) * x == 1


def test_rationals_from_different_contexts_mix():
    a = QuadNum.tau(0, 2) * 0 + 3  # rational 3, built in the sqrt2 context
    b = QuadNum.rational(3)
    assert a == b
    assert hash(a) == hash(b)


def test_incompatible_fields_refuse_to_mix():
    with pytest.raises(ValueError):
        QuadNum.tau(0, 2) + QuadNum.tau(1, 1)


def test_unipotent_inverse_with_irrational_entries():
    t = QuadNum.tau(0, 2)
    m = qmat([[1, t, Fraction(1, 2)], [0, 1, t * 3], [0, 0, 1]])
    assert _old_qmat_mul(qmat_unipotent_inverse(m), m) == qmat_identity(3)


# ---------------------------------------------------------------------------
# the lean operations against the former implementations, kept here as
# oracles: every scalar result went through QuadNum.make, matrix entries were
# plain sums of products, the unipotent inverse was a Neumann series, and
# equality was a subtraction


def _old_law(x, y):
    if x.law is None:
        return y.law
    if y.law is None or y.law == x.law:
        return x.law
    raise ValueError("mixing incompatible fields")


def _old_add(x, y):
    return QuadNum.make(x.a + y.a, x.b + y.b, _old_law(x, y))


def _old_neg(x):
    return QuadNum.make(-x.a, -x.b, x.law)


def _old_mul(x, y):
    law = _old_law(x, y)
    a, b, c, d = x.a, x.b, y.a, y.b
    bd = b * d
    if bd == 0:
        return QuadNum.make(a * c, a * d + b * c, law)
    p, q = law
    return QuadNum.make(a * c + bd * q, a * d + b * c + bd * p, law)


def _old_eq(x, y):
    return _old_add(x, _old_neg(y)).is_zero()


def _old_qmat_mul(x, y):
    out = []
    for i in range(len(x)):
        row = []
        for j in range(len(y[0])):
            acc = QuadNum.zero()
            for k in range(len(y)):
                acc = _old_add(acc, _old_mul(x[i][k], y[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _old_unipotent_inverse(x):
    n = len(x)
    ident = qmat_identity(n)
    nil = tuple(
        tuple(_old_add(x[i][j], _old_neg(ident[i][j])) for j in range(n)) for i in range(n)
    )
    out = term = ident
    sign = QuadNum.rational(-1)
    for _ in range(n - 1):
        term = _old_qmat_mul(term, nil)
        out = tuple(
            tuple(_old_add(out[i][j], _old_mul(sign, term[i][j])) for j in range(n))
            for i in range(n)
        )
        sign = _old_neg(sign)
    return out


ROOT2 = QuadNum.tau(0, 2)
GOLDEN = QuadNum.tau(1, 1)
_parts = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7))
_rational = st.builds(QuadNum.rational, _parts)
_root2 = st.builds(lambda a, b: QuadNum.make(a, b, ROOT2.law), _parts, _parts)
_golden = st.builds(lambda a, b: QuadNum.make(a, b, GOLDEN.law), _parts, _parts)
_scalar = st.one_of(_rational, _root2)
_mixed = st.one_of(_rational, _root2, _golden)


def _matrix(entries, rows, cols):
    row = st.lists(entries, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


def _normal(x):
    return type(x.a) is Fraction and type(x.b) is Fraction and (x.law is None) == (x.b == 0)


def _same(x, y):
    return x.a == y.a and x.b == y.b and x.law == y.law and _normal(x)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@seed(20240817)
@settings(max_examples=100, deadline=None)
@given(_scalar, _scalar)
def test_scalar_operations_match_make(x, y):
    pairs = (
        (x + y, _old_add(x, y)),
        (x - y, _old_add(x, _old_neg(y))),
        (-x, _old_neg(x)),
        (x * y, _old_mul(x, y)),
    )
    for got, want in pairs:
        assert _same(got, want)
    assert (x == y) is _old_eq(x, y)
    assert (x == x.a) is _old_eq(x, QuadNum.rational(x.a))


@seed(20240817)
@settings(max_examples=100, deadline=None)
@given(_mixed, _mixed)
def test_mixed_fields_raise_exactly_where_they_did(x, y):
    for op, oracle in ((operator.add, _old_add), (operator.mul, _old_mul), (operator.eq, _old_eq)):
        got, want = _outcome(op, x, y), _outcome(oracle, x, y)
        if want is ValueError or isinstance(want, bool):
            assert got is want
        else:
            assert _same(got, want)
    if x.law is not None and y.law is not None and x.law != y.law:
        with pytest.raises(ValueError):
            x == y


_shapes = st.tuples(*[st.integers(1, 4)] * 3)
# integer left factors: 0 and +-1 take the shortcuts, the rest a product
_int_entries = st.integers(-3, 3)


def _factors(entries):
    """An integer matrix and a QuadNum matrix whose product is defined, of
    random shapes."""
    return _shapes.flatmap(
        lambda s: st.tuples(_matrix(_int_entries, s[0], s[1]), _matrix(entries, s[1], s[2]))
    )


def _same_matrix(got, want):
    return (len(got) == len(want) and all(len(r) == len(w) for r, w in zip(got, want))
            and all(_same(g, w) for gr, wr in zip(got, want) for g, w in zip(gr, wr)))


@seed(20240817)
@settings(max_examples=40, deadline=None)
@given(_factors(_scalar))
def test_qmat_mul_matches_sum_of_products(gh):
    g, h = gh
    assert _same_matrix(qmat_mul(g, h), _old_qmat_mul(qmat(g), h))


@seed(20240817)
@settings(max_examples=40, deadline=None)
@given(_factors(_mixed))
def test_qmat_mul_mixed_fields_raise_exactly_where_they_did(gh):
    g, h = gh
    got, want = _outcome(qmat_mul, g, h), _outcome(_old_qmat_mul, qmat(g), h)
    if want is ValueError:
        assert got is ValueError
    else:
        assert _same_matrix(got, want)


def test_qmat_mul_refuses_two_fields():
    with pytest.raises(ValueError):
        qmat_mul(((1, 1),), qmat([[ROOT2], [GOLDEN]]))
    with pytest.raises(ValueError):
        qmat_mul(((2, -1),), qmat([[ROOT2], [GOLDEN]]))
    # a partial sum whose tau part cancels is rational again, as it was for
    # the scalar sums, so a term from another field may follow
    g, h = ((1, -1, 1),), qmat([[ROOT2], [ROOT2], [GOLDEN]])
    assert _same(qmat_mul(g, h)[0][0], _old_qmat_mul(qmat(g), h)[0][0])
    # a zero column of g skips its row of h, whatever field that row is in
    assert _same_matrix(qmat_mul(((1, 0),), qmat([[ROOT2], [GOLDEN]])), qmat([[ROOT2]]))


def _unitriangular(n):
    def build(entries):
        it = iter(entries)
        rows = [[QuadNum.one() if i == j else QuadNum.zero() for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = next(it)
        return tuple(tuple(r) for r in rows)

    k = n * (n - 1) // 2
    return st.lists(_scalar, min_size=k, max_size=k).map(build)


@seed(20240817)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(_unitriangular))
def test_unipotent_inverse_matches_neumann_series(x):
    got, want = qmat_unipotent_inverse(x), _old_unipotent_inverse(x)
    assert all(_same(g, w) for gr, wr in zip(got, want) for g, w in zip(gr, wr))
    assert _old_qmat_mul(x, got) == qmat_identity(len(x))


def test_unipotent_inverse_refuses_other_matrices():
    with pytest.raises(ValueError):
        qmat_unipotent_inverse(qmat([[1, 2], [3, 1]]))
    with pytest.raises(ValueError):
        qmat_unipotent_inverse(qmat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="not an upper unitriangular matrix"):
        qmat_unipotent_inverse(qmat([[1, 0], [5, 1]]))


# ---------------------------------------------------------------------------
# integer determinant and inverse


@seed(20240817)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _matrix(st.integers(-9, 9), n, n)))
def test_int_det_matches_float_det_on_small_entries(m):
    assert int_det(m) == round(np.linalg.det(np.array(m, dtype=float)))


def test_as_int_reads_exact_integers_only():
    for value, want in ((7, 7), (np.int64(-3), -3), (2.0, 2), (np.float64(5.0), 5),
                        ("2", 2), (" -4 ", -4), (Fraction(6, 3), 2), (10**30, 10**30)):
        assert as_int(value) == want and type(as_int(value)) is int
    for value in (0.5, 2.7, -1.5, np.float64(3.25), Fraction(1, 2), True, False, "2.0",
                  "x", math.nan):
        with pytest.raises(ValueError):
            as_int(value)
    with pytest.raises(OverflowError):
        as_int(math.inf)
    with pytest.raises(TypeError):
        as_int([1])


def test_unimodular_names_what_it_refuses():
    assert unimodular(np.eye(2, dtype=np.int64), 2, "g") == ((1, 0), (0, 1))
    assert unimodular([["1", 1.0], [0, 1]], 2, "g") == ((1, 1), (0, 1))
    for m, message in (
        ([[1, 0.5], [0, 1]], "g must have integer entries: 0.5 is not an integer"),
        ([[1, math.inf], [0, 1]], "g must have integer entries"),
        ([[2, 0], [0, 1]], "g must be integral of determinant one"),
        ([[1, 0], [0, 1], [0, 0]], "g must be a 2x2 matrix"),
        ([[1, 0, 0], [0, 1]], "g must be a 2x2 matrix"),
        (["10", "01"], "g must be a 2x2 matrix"),
        (5, "g must be a 2x2 matrix"),
    ):
        with pytest.raises(ValueError, match=message):
            unimodular(m, 2, "g")


def test_int_det_is_exact_where_float_rounds():
    big = ((10**8, 10**8 - 1), (10**8 + 1, 10**8))
    assert int_det(big) == 1
    assert round(np.linalg.det(np.array(big, dtype=float))) != 1
    assert int_inverse(big) == ((10**8, -(10**8) + 1), (-(10**8) - 1, 10**8))
    with pytest.raises(TypeError):
        int_det(((Fraction(1, 2), 0), (0, 2)))
    with pytest.raises(ValueError):
        int_inverse(((2, 0), (0, 1)))


def _det_one(n, ops):
    """Identity moved by row operations row[i] += k * row[j]: determinant one."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in ops:
        i, j = i % n, j % n
        if i != j:
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)), max_size=8),
)
def test_int_inverse_is_the_inverse(n, ops):
    m = _det_one(n, ops)
    inv = int_inverse(m)
    assert all(type(x) is int for row in inv for x in row)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def _cofactor_adjugate(m):
    """The former int_inverse, kept as the oracle: entry (i, j) of the
    adjugate is (-1)^(i+j) det(m without row j and column i)."""
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * int_det([row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j])
              for j in range(n))
        for i in range(n)
    )


def _det_one_swapped(n, ops, swaps):
    """_det_one with rows swapped in pairs, one of each pair negated: the
    determinant stays one, and zero pivots turn up for the elimination."""
    m = [list(row) for row in _det_one(n, ops)]
    for i, j in swaps:
        i, j = i % n, j % n
        if i != j:
            m[i], m[j] = m[j], [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


@seed(20240817)
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)), max_size=8),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3),
)
def test_int_inverse_is_the_cofactor_adjugate(n, ops, swaps):
    m = _det_one_swapped(n, ops, swaps)
    assert int_det(m) == 1
    assert int_inverse(m) == _cofactor_adjugate(m)


@seed(20240817)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _matrix(st.integers(-3, 3), n, n)))
@example(((-1,),))
@example(((0, 1), (1, 0)))
@example(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
@example(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
def test_int_inverse_refuses_any_other_determinant(m):
    if int_det(m) == 1:
        assert int_inverse(m) == _cofactor_adjugate(m)
    else:
        with pytest.raises(ValueError, match="determinant one"):
            int_inverse(m)


def test_rat_inverse_inverts_cartan_matrices_and_refuses_singular_ones():
    systems = [build_type_a(n) for n in range(2, 5)] + [build_product([3, 2, 4])]
    for rs in systems:
        k = rs.rank
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        assert rat_mul(rs.cartan, rat_inverse(rs.cartan)) == identity
    half = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(1, 7)))
    assert rat_mul(half, rat_inverse(half)) == ((1, 0), (0, 1))
    for singular in (((1, 2), (2, 4)), ((0, 0), (0, 0)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))):
        with pytest.raises(ValueError, match="singular"):
            rat_inverse(singular)
