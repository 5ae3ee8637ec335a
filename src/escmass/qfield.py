"""Exact arithmetic in a real quadratic field Q(tau), plus small exact matrices.

A :class:`QuadNum` is ``a + b*tau`` with rational ``a, b`` and ``tau`` the
*larger* real root of ``x**2 = p*x + q`` (``p, q`` rational; the discriminant
``p**2 + 4q`` must be positive and not a rational square, so tau is
irrational).  This is just enough field arithmetic for the limit classifiers
to decide, exactly, the questions they ask about bounded matrix entries:

* is this entry rational?  (``b == 0``)
* is it zero?
* which float does it ingest as?  (for building numeric matrices)

Numbers in a real quadratic field have eventually periodic continued
fractions, hence are badly approximable; the classifiers lean on the
rational / badly-approximable dichotomy, so no other irrational type is
representable here -- by design.

Arithmetic is kept lean because the classifiers run it per sequence:
results are built from parts that are already Fractions by a private
constructor that reuses the operand's law tuple (only the public
:meth:`QuadNum.make` validates), equality compares parts instead of
subtracting, and :func:`qmat_unipotent_inverse` back-substitutes.  The one
matrix product, :func:`qmat_mul`, takes an integer left factor (a
conjugator or a recorded left factor meeting an offset): it scales the
rational and tau parts of each nonzero term by an int, with no product for
a factor of 1 or -1, and passes an integer unit row through as the row of
the right factor.  Two irrational numbers of different fields still refuse
to meet, in any of these.  The integer helpers :func:`int_det` (cofactor
expansion) and :func:`int_inverse` (fraction-free elimination) give exact
determinants and determinant-one inverses of small integer matrices.
Integers from outside the program are read by :func:`as_int`, which
refuses what ``int()`` would truncate, and integer matrices of determinant
one by :func:`unimodular`.

>>> golden = QuadNum.tau(1, 1)            # tau**2 = tau + 1
>>> (golden * golden - golden).as_fraction()
Fraction(1, 1)
>>> root2 = QuadNum.tau(0, 2)             # tau**2 = 2
>>> (root2 * root2).as_fraction()
Fraction(2, 1)
>>> (QuadNum.one() / (golden + 1)).is_rational()
False
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadNum"]

Law = Tuple[Fraction, Fraction]  # (p, q) in tau**2 = p*tau + q


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    num, den = x.numerator, x.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    return rn * rn == num and rd * rd == den


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _join(law: Optional[Law], other: Optional[Law]) -> Optional[Law]:
    """Law of a result from its operands' laws (None for a rational)."""
    if law is None or law is other:
        return other
    if other is None or other == law:
        return law
    raise ValueError(f"mixing incompatible fields {law} and {other}")


def _mul_parts(a: Fraction, b: Fraction, c: Fraction, d: Fraction, law):
    """Rational and tau parts of (a + b*tau)(c + d*tau), tau**2 = p*tau + q."""
    if not b:
        return a * c, (a * d if d else _ZERO)
    if not d:
        return a * c, b * c
    p, q = law
    bd = b * d
    return a * c + bd * q, a * d + b * c + bd * p


@dataclass(frozen=True)
class QuadNum:
    """a + b*tau where tau is the larger root of x**2 = p*x + q.

    ``law`` is None exactly when b == 0 (a plain rational), so rationals built
    from different contexts compare equal and mix freely.
    """

    a: Fraction
    b: Fraction
    law: Optional[Law]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x: RationalLike) -> "QuadNum":
        return QuadNum._of(x if type(x) is Fraction else Fraction(x), _ZERO, None)

    @staticmethod
    def zero() -> "QuadNum":
        return _QZERO

    @staticmethod
    def one() -> "QuadNum":
        return _QONE

    @staticmethod
    def tau(p: RationalLike, q: RationalLike) -> "QuadNum":
        """The larger root of x**2 = p*x + q.

        >>> t = QuadNum.tau(0, 2)
        >>> t * t == QuadNum.rational(2)
        True
        """
        p = p if type(p) is Fraction else Fraction(p)
        q = q if type(q) is Fraction else Fraction(q)
        disc = p * p + 4 * q
        if disc <= 0:
            raise ValueError("discriminant must be positive (real field)")
        if _is_rational_square(disc):
            raise ValueError("tau would be rational; use QuadNum.rational")
        return QuadNum._of(_ZERO, _ONE, (p, q))

    @staticmethod
    def make(a: RationalLike, b: RationalLike, law: Optional[Law]) -> "QuadNum":
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            return QuadNum(a, b, None)
        if law is None:
            raise ValueError("irrational part needs a defining law (p, q)")
        p, q = Fraction(law[0]), Fraction(law[1])
        return QuadNum(a, b, (p, q))

    @staticmethod
    def _of(a: Fraction, b: Fraction, law: Optional[Law]) -> "QuadNum":
        """Result constructor for parts that are already Fractions and a law
        taken from an operand: no coercion, the law tuple is reused as is,
        and it is dropped when b == 0."""
        x = object.__new__(QuadNum)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "law", law if b else None)
        return x

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _coerce(x: ScalarLike) -> "QuadNum":
        if isinstance(x, QuadNum):
            return x
        return QuadNum.rational(x)

    # -- ring/field operations --------------------------------------------

    def __add__(self, other: ScalarLike) -> "QuadNum":
        o = self._coerce(other)
        law = _join(self.law, o.law)
        if not o.b:
            if not o.a:
                return self
            return QuadNum._of(self.a + o.a, self.b, law)
        return QuadNum._of(self.a + o.a, self.b + o.b, law)

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        if not self.a and not self.b:
            return self
        return QuadNum._of(-self.a, -self.b, self.law)

    def __sub__(self, other: ScalarLike) -> "QuadNum":
        o = self._coerce(other)
        law = _join(self.law, o.law)
        if not o.b:
            if not o.a:
                return self
            return QuadNum._of(self.a - o.a, self.b, law)
        return QuadNum._of(self.a - o.a, self.b - o.b, law)

    def __rsub__(self, other: ScalarLike) -> "QuadNum":
        return self._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "QuadNum":
        if type(other) is int:  # an integer factor scales both parts
            return QuadNum._of(self.a * other, self.b * other, self.law)
        o = self._coerce(other)
        law = _join(self.law, o.law)
        a, b = _mul_parts(self.a, self.b, o.a, o.b, law)
        return QuadNum._of(a, b, law)

    __rmul__ = __mul__

    def conj(self) -> "QuadNum":
        """Galois conjugate: tau -> p - tau (the smaller root)."""
        if self.b == 0:
            return self
        p, _q = self.law  # type: ignore[misc]
        return QuadNum._of(self.a + self.b * p, -self.b, self.law)

    def norm(self) -> Fraction:
        """Field norm (self * self.conj()), a rational number."""
        n = self * self.conj()
        assert n.b == 0
        return n.a

    def inverse(self) -> "QuadNum":
        if self.is_zero():
            raise ZeroDivisionError("QuadNum division by zero")
        if self.b == 0:
            return QuadNum.rational(1 / self.a)
        c = self.conj()
        norm = self.norm()
        return QuadNum._of(c.a / norm, c.b / norm, self.law)

    def __truediv__(self, other: ScalarLike) -> "QuadNum":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "QuadNum":
        return self._coerce(other) * self.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        if not isinstance(other, QuadNum):
            return NotImplemented
        _join(self.law, other.law)  # two irrationals of different fields do not compare
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.law))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def _tau_float(self) -> float:
        p, q = self.law  # type: ignore[misc]
        return (float(p) + math.sqrt(float(p * p + 4 * q))) / 2.0

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * self._tau_float()

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*tau; tau^2 = {self.law[0]}*tau + {self.law[1]})"


_QZERO = QuadNum._of(_ZERO, _ZERO, None)
_QONE = QuadNum._of(_ONE, _ZERO, None)


# -- small exact matrices ----------------------------------------------------
#
# The classifiers only ever need products, unipotent inverses and entry
# reads on 3x3 / 4x4 matrices, so plain tuples of tuples are plenty.

QMatrix = Tuple[Tuple[QuadNum, ...], ...]


def qmat(rows: Sequence[Sequence[ScalarLike]]) -> QMatrix:
    """Coerce nested scalars into a QuadNum matrix.

    >>> m = qmat([[1, Fraction(1, 2)], [0, 1]])
    >>> m[0][1].as_fraction()
    Fraction(1, 2)
    """
    return tuple(tuple(QuadNum._coerce(x) for x in row) for row in rows)


@lru_cache(maxsize=None)
def qmat_identity(n: int) -> QMatrix:
    return qmat([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def qmat_mul(g, h: QMatrix) -> QMatrix:
    """Exact product of an integer matrix g and a QuadNum matrix h.  Each
    entry sums the rational and tau parts of its nonzero terms, each part
    scaled by an int (a factor of 1 or -1 takes no product), and a row of g
    that is a unit vector gives the matching row of h itself; a partial sum
    joining two irrational numbers of different fields raises ValueError,
    as the scalar sums would.

    >>> t = QuadNum.tau(0, 2)
    >>> qmat_mul(((1, 2), (0, -1)), qmat([[t, 0], [1, t]]))[0]
    (QuadNum(2 + 1*tau; tau^2 = 0*tau + 2), QuadNum(0 + 2*tau; tau^2 = 0*tau + 2))
    """
    assert len(g[0]) == len(h)
    cols = range(len(h[0]))
    out = []
    for row in g:
        terms = [(x, h[k]) for k, x in enumerate(row) if x]
        if len(terms) == 1 and terms[0][0] == 1:
            out.append(terms[0][1])
            continue
        out_row = []
        for j in cols:
            a = b = _ZERO
            law = None
            for x, hk in terms:
                t = hk[j]
                ta, tb = t.a, t.b
                if ta:
                    ta = ta if x == 1 else -ta if x == -1 else x * ta
                    a = a + ta if a else ta
                if tb:
                    law = _join(law, t.law)
                    tb = tb if x == 1 else -tb if x == -1 else x * tb
                    b = b + tb if b else tb
                    if not b:
                        law = None
            out_row.append(QuadNum._of(a, b, law))
        out.append(tuple(out_row))
    return tuple(out)


def rat_mul(a, b):
    """Product of two square matrices of rationals (ints or Fractions);
    zero terms are skipped, and an entry with no nonzero term is the int 0,
    so integer matrices multiply to integer matrices.

    >>> rat_mul(((1, 2), (0, 1)), ((1, Fraction(1, 2)), (0, 1)))[0][1]
    Fraction(5, 2)
    >>> rat_mul(((1, 2), (0, 1)), ((0, -1), (1, 0)))
    ((2, -1), (1, 0))
    """
    n = len(a)
    out = []
    for row in a:
        terms = [(x, b[k]) for k, x in enumerate(row) if x]
        out_row = []
        for j in range(n):
            acc = 0
            for x, bk in terms:
                y = bk[j]
                if y:
                    acc = acc + x * y if acc else x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def rat_inverse(m):
    """Inverse of a square matrix of rationals, by Gauss-Jordan elimination
    in Fractions; raises ValueError on a singular matrix.

    >>> rat_inverse(((2, 1), (1, 1)))[1]
    (Fraction(-1, 1), Fraction(2, 1))
    >>> rat_inverse(((1, 2), (2, 4)))
    Traceback (most recent call last):
    ...
    ValueError: singular matrix
    """
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _cofactor_det(m):
    """Determinant of a small square matrix by cofactor expansion; it needs
    only +, - and * of the entries, so it is exact on ints and QuadNums."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * x * _cofactor_det(minor)
    return total


def _square_int_rows(m) -> List[List[int]]:
    rows = [[operator.index(v) for v in row] for row in m]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("expected a square integer matrix")
    return rows


def int_det(m) -> int:
    """Exact determinant of a small square integer matrix, by cofactor
    expansion in Python integers, so no entry size loses precision.  The
    expansion costs O(n!), which is nothing at the catalog's n <= 4.

    >>> int_det(((10**8, 10**8 - 1), (10**8 + 1, 10**8)))
    1
    """
    return _cofactor_det(_square_int_rows(m))


def int_inverse(m) -> Tuple[Tuple[int, ...], ...]:
    """Inverse of a small integer matrix of determinant one, by
    fraction-free (Bareiss) Gauss-Jordan elimination of ``[m | I]`` in
    Python integers: every division is exact, the left half ends as
    ``d * I`` with ``d = +-det(m)`` (the sign counts the row swaps), and the
    right half as ``d * m^-1``.  ValueError unless ``det(m) == 1``.

    >>> int_inverse(((2, 1), (1, 1)))
    ((1, -1), (-1, 2))
    """
    rows = _square_int_rows(m)
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = sign = 1
    for k in range(n):
        if not aug[k][k]:
            piv = next((r for r in range(k + 1, n) if aug[r][k]), None)
            if piv is None:
                raise ValueError("int_inverse needs determinant one")
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        top = aug[k]
        p = top[k]
        for i in range(n):
            f = aug[i][k]
            if i != k and (f or p != prev):
                aug[i] = [(p * a - f * b) // prev for a, b in zip(aug[i], top)]
        prev = p
    if sign * prev != 1:
        raise ValueError("int_inverse needs determinant one")
    return tuple(tuple(row[n:]) if prev == 1 else tuple(-x for x in row[n:]) for row in aug)


def as_int(value) -> int:
    """The int that value spells exactly: an int, a numpy int, an integral
    float such as ``2.0`` or an integer string such as ``"2"``.  A value
    that ``int()`` would truncate (0.5, ``Fraction(1, 2)``) or a bool raises
    ValueError naming it; an infinite float raises OverflowError.

    >>> as_int(2.0), as_int("2")
    (2, 2)
    >>> as_int(2.7)
    Traceback (most recent call last):
    ...
    ValueError: 2.7 is not an integer
    """
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    out = int(value)
    if not isinstance(value, str) and out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _is_rows(x, n: int) -> bool:
    """Whether x is a sequence of n items; a string is not one."""
    return isinstance(x, Sized) and not isinstance(x, str) and len(x) == n


def square_rows(m, n: int, what: str) -> Tuple[tuple, ...]:
    """The rows of m, an n x n matrix given as n sequences of n entries,
    as tuples; ValueError naming what for any other shape."""
    if not (_is_rows(m, n) and all(_is_rows(row, n) for row in m)):
        raise ValueError(f"{what} must be a {n}x{n} matrix")
    return tuple(tuple(row) for row in m)


def unimodular(m, n: int, what: str) -> Tuple[Tuple[int, ...], ...]:
    """m as an n x n integer matrix of determinant exactly one, its entries
    read by :func:`as_int`; ValueError naming what otherwise.

    >>> unimodular([[2, 1.0], ["1", 1]], 2, "conjugator")
    ((2, 1), (1, 1))
    >>> unimodular([[1, 0.5], [0, 1]], 2, "conjugator")
    Traceback (most recent call last):
    ...
    ValueError: conjugator must have integer entries: 0.5 is not an integer
    """
    rows = square_rows(m, n, what)
    try:
        rows = tuple(tuple(as_int(v) for v in row) for row in rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must have integer entries: {exc}") from exc
    if int_det(rows) != 1:
        raise ValueError(f"{what} must be integral of determinant one")
    return rows


def qmat_is_upper_unitriangular(x: QMatrix) -> bool:
    for i, row in enumerate(x):
        d = row[i]
        if d.b or d.a != 1:
            return False
        for e in row[:i]:
            if e.a or e.b:
                return False
    return True


def qmat_unipotent_inverse(x: QMatrix) -> QMatrix:
    """Inverse of an upper unitriangular matrix U, by back-substitution: row
    i of the inverse V is fixed by V[i][j] = -(U[i][j] + sum_{i<k<j} U[i][k]
    V[k][j]).

    >>> u = ((1, 2, 3), (0, 1, 5), (0, 0, 1))
    >>> qmat_mul(u, qmat_unipotent_inverse(qmat(u))) == qmat_identity(3)
    True
    """
    if not qmat_is_upper_unitriangular(x):
        raise ValueError("not an upper unitriangular matrix")
    n = len(x)
    zero, one = QuadNum.zero(), QuadNum.one()
    inv = [None] * n
    for i in range(n - 1, -1, -1):
        row = [zero] * n
        row[i] = one
        for j in range(i + 1, n):
            acc = x[i][j]
            for k in range(i + 1, j):
                u = x[i][k]
                if u.a or u.b:
                    acc = acc + u * inv[k][j]
            row[j] = -acc
        inv[i] = tuple(row)
    return tuple(inv)
