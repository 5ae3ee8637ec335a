"""Exact arithmetic in a real quadratic field Q(tau), plus small exact matrices.

A :class:`QuadNum` is ``a + b*tau`` with rational ``a, b`` and ``tau`` the
*larger* real root of ``x**2 = p*x + q`` (``p, q`` rational; the discriminant
``p**2 + 4q`` must be positive and not a rational square, so tau is
irrational).  This is just enough field arithmetic for the limit classifiers
to decide, exactly, the questions they ask about bounded matrix entries:

* is this entry rational?  (``b == 0``)
* is it zero / positive / negative?
* which float does it ingest as?  (for building numeric matrices)

Numbers in a real quadratic field have eventually periodic continued
fractions, hence are badly approximable; the classifiers lean on the
rational / badly-approximable dichotomy, so no other irrational type is
representable here -- by design.

>>> golden = QuadNum.tau(1, 1)            # tau**2 = tau + 1
>>> (golden * golden - golden).as_fraction()
Fraction(1, 1)
>>> root2 = QuadNum.tau(0, 2)             # tau**2 = 2
>>> (root2 * root2).as_fraction()
Fraction(2, 1)
>>> (root2 - Fraction(3, 2)).sign()       # sqrt(2) < 3/2
-1
>>> (QuadNum.one() / (golden + 1)).is_rational()
False
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

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
        return QuadNum(Fraction(x), Fraction(0), None)

    @staticmethod
    def zero() -> "QuadNum":
        return QuadNum.rational(0)

    @staticmethod
    def one() -> "QuadNum":
        return QuadNum.rational(1)

    @staticmethod
    def tau(p: RationalLike, q: RationalLike) -> "QuadNum":
        """The larger root of x**2 = p*x + q.

        >>> QuadNum.tau(0, 2) ** 2 == QuadNum.rational(2)
        True
        """
        p, q = Fraction(p), Fraction(q)
        disc = p * p + 4 * q
        if disc <= 0:
            raise ValueError("discriminant must be positive (real field)")
        if _is_rational_square(disc):
            raise ValueError("tau would be rational; use QuadNum.rational")
        return QuadNum(Fraction(0), Fraction(1), (p, q))

    @staticmethod
    def make(a: RationalLike, b: RationalLike, law: Optional[Law]) -> "QuadNum":
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            return QuadNum(a, b, None)
        if law is None:
            raise ValueError("irrational part needs a defining law (p, q)")
        p, q = Fraction(law[0]), Fraction(law[1])
        return QuadNum(a, b, (p, q))

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _coerce(x: ScalarLike) -> "QuadNum":
        if isinstance(x, QuadNum):
            return x
        return QuadNum.rational(x)

    def _merged_law(self, other: "QuadNum") -> Optional[Law]:
        if self.law is None:
            return other.law
        if other.law is None or other.law == self.law:
            return self.law
        raise ValueError(f"mixing incompatible fields {self.law} and {other.law}")

    # -- ring/field operations --------------------------------------------

    def __add__(self, other: ScalarLike) -> "QuadNum":
        o = self._coerce(other)
        return QuadNum.make(self.a + o.a, self.b + o.b, self._merged_law(o))

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return QuadNum.make(-self.a, -self.b, self.law)

    def __sub__(self, other: ScalarLike) -> "QuadNum":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ScalarLike) -> "QuadNum":
        return self._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "QuadNum":
        o = self._coerce(other)
        law = self._merged_law(o)
        # (a + b t)(c + d t) = ac + (ad + bc) t + bd t^2,  t^2 = p t + q
        a, b, c, d = self.a, self.b, o.a, o.b
        bd = b * d
        if bd == 0:
            return QuadNum.make(a * c, a * d + b * c, law)
        p, q = law  # type: ignore[misc]
        return QuadNum.make(a * c + bd * q, a * d + b * c + bd * p, law)

    __rmul__ = __mul__

    def conj(self) -> "QuadNum":
        """Galois conjugate: tau -> p - tau (the smaller root)."""
        if self.b == 0:
            return self
        p, _q = self.law  # type: ignore[misc]
        return QuadNum.make(self.a + self.b * p, -self.b, self.law)

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
        return QuadNum.make(c.a / self.norm(), c.b / self.norm(), self.law)

    def __truediv__(self, other: ScalarLike) -> "QuadNum":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "QuadNum":
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "QuadNum":
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadNum.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadNum.rational(other)
        if not isinstance(other, QuadNum):
            return NotImplemented
        return (self - other).is_zero()

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

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; tau is the larger root, so tau > p/2.

        sign(a + b*tau) with tau = (p + sqrt(D))/2, D = p^2 + 4q reduces to
        the sign of c + b*sqrt(D) with c = 2a + b p, decided by comparing
        c^2 against b^2 D.
        """
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        p, q = self.law  # type: ignore[misc]
        disc = p * p + 4 * q
        c = 2 * self.a + self.b * p
        if self.b > 0:
            if c >= 0:
                return 1
            return 1 if self.b * self.b * disc > c * c else -1
        if c <= 0:
            return -1
        return -1 if self.b * self.b * disc > c * c else 1

    def __lt__(self, other: ScalarLike) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: ScalarLike) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: ScalarLike) -> bool:
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * self._tau_float()

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*tau; tau^2 = {self.law[0]}*tau + {self.law[1]})"


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


def qmat_identity(n: int) -> QMatrix:
    return qmat([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def qmat_mul(x: QMatrix, y: QMatrix) -> QMatrix:
    n, mid, m = len(x), len(y), len(y[0])
    assert len(x[0]) == mid
    return tuple(
        tuple(
            sum((x[i][k] * y[k][j] for k in range(mid)), QuadNum.zero())
            for j in range(m)
        )
        for i in range(n)
    )


def rat_mul(a, b):
    """Product of two square matrices of rationals (tuples of Fractions).

    >>> rat_mul(((1, 2), (0, 1)), ((1, Fraction(1, 2)), (0, 1)))[0][1]
    Fraction(5, 2)
    """
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def qmat_is_upper_unitriangular(x: QMatrix) -> bool:
    n = len(x)
    for i in range(n):
        for j in range(n):
            if i == j and x[i][j] != 1:
                return False
            if i > j and not x[i][j].is_zero():
                return False
    return True


def qmat_unipotent_inverse(x: QMatrix) -> QMatrix:
    """Inverse of I + N with N strictly (upper or lower) triangular.

    Uses the finite Neumann series (I + N)^-1 = I - N + N^2 - ... which
    terminates because N is nilpotent.

    >>> u = qmat([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
    >>> qmat_mul(u, qmat_unipotent_inverse(u)) == qmat_identity(3)
    True
    """
    n = len(x)
    ident = qmat_identity(n)
    nil = tuple(
        tuple(x[i][j] - ident[i][j] for j in range(n)) for i in range(n)
    )
    out = ident
    term = ident
    sign = -1
    for _ in range(n - 1):
        term = qmat_mul(term, nil)
        out = tuple(
            tuple(out[i][j] + sign * term[i][j] for j in range(n))
            for i in range(n)
        )
        sign = -sign
    return out


def qmat_float(x: QMatrix) -> list:
    return [[float(v) for v in row] for row in x]
