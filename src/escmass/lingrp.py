"""Numeric kernel for SL_n: horospherical (triangular x orthogonal)
decompositions, their block refinements along a standard flag, root-character
evaluation on the diagonal, and wedge-norm cusp-distance functions.

Everything here is plain float64 linear algebra on small matrices.  Exact
bookkeeping (integer reducers, field coefficients) lives elsewhere; this module
only promises reconstruction to ``RECONSTRUCTION_TOL`` and rejects inputs too
ill-conditioned to honour that promise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .rootsys import RootSystem, WeylElement

RECONSTRUCTION_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-10
COND_LIMIT = 1e12

__all__ = [
    "GroupElement",
    "ParabolicIndex",
    "LanglandsParts",
    "RootValueVector",
    "group_element",
    "parse_matrix",
    "identity_element",
    "iwasawa",
    "iwasawa_batched",
    "iwasawa_coordinates",
    "gram_schmidt_components",
    "gram_schmidt_rows",
    "langlands",
    "root_values",
    "parabolic_root_values",
    "dalpha_product",
    "d_function",
    "verify_dalpha",
    "weyl_representative",
]


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A determinant-one real matrix, with a factor tag for product groups.

    Construct through :func:`group_element`, which renormalizes the
    determinant; the raw constructor trusts its input.
    """

    mat: np.ndarray
    factor: int = 0

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def inv(self) -> "GroupElement":
        return GroupElement(_freeze(np.linalg.inv(self.mat)), self.factor)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.factor != other.factor:
            raise ValueError("cannot multiply across factors")
        return GroupElement(_freeze(self.mat @ other.mat), self.factor)

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n}, factor={self.factor})"


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(mat, dtype=float)
    out.setflags(write=False)
    return out


def group_element(entries, factor: int = 0) -> GroupElement:
    """Ingest a square matrix, renormalizing by det^(1/n).

    >>> float(group_element([[2.0, 0.0], [0.0, 2.0]]).mat[0, 0])
    1.0
    """
    mat = np.asarray(entries, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    det = np.linalg.det(mat)
    if not np.isfinite(det) or det <= 0:
        raise ValueError(f"determinant {det} is not positive")
    mat = mat / det ** (1.0 / n)
    if abs(np.linalg.det(mat) - 1.0) > 1e-9:
        raise ValueError("determinant renormalization failed (input too skewed)")
    return GroupElement(_freeze(mat), factor)


def identity_element(n: int, factor: int = 0) -> GroupElement:
    return GroupElement(_freeze(np.eye(n)), factor)


def parse_matrix(text: str, n: Optional[int] = None, factor: int = 0) -> GroupElement:
    """Row-major matrix text: entries are decimals or exact rationals ("p/q"),
    separated by whitespace, commas, or semicolons.

    >>> float(parse_matrix("1 1/2; 0 1").mat[0, 1])
    0.5
    """
    tokens = text.replace(",", " ").replace(";", " ").split()
    values = [float(Fraction(tok)) for tok in tokens]
    if n is None:
        n = int(round(len(values) ** 0.5))
    if n * n != len(values):
        raise ValueError(f"{len(values)} entries do not fill an {n}x{n} matrix")
    return group_element(np.array(values).reshape(n, n), factor)


# ---------------------------------------------------------------------------
# parabolic bookkeeping


@dataclass(frozen=True)
class ParabolicIndex:
    """A standard-flag block subgroup of SL_n, named by the set I of simple
    roots *inside* its blocks; I = all of them encodes the whole group.
    An optional conjugator moves the flag off the standard position.
    """

    n: int
    I: FrozenSet[int]
    conjugator: Optional[GroupElement] = None

    def __post_init__(self):
        object.__setattr__(self, "I", frozenset(self.I))
        if not all(0 <= i < self.n - 1 for i in self.I):
            raise ValueError(f"root indices {sorted(self.I)} out of range for n={self.n}")

    @property
    def flag_shape(self) -> Tuple[int, ...]:
        """Ordered block sizes; boundaries sit at the simple roots not in I."""
        shape = []
        size = 1
        for i in range(self.n - 1):
            if i in self.I:
                size += 1
            else:
                shape.append(size)
                size = 1
        shape.append(size)
        return tuple(shape)

    @property
    def is_group(self) -> bool:
        return len(self.I) == self.n - 1

    def block_ranges(self) -> List[Tuple[int, int]]:
        out = []
        start = 0
        for size in self.flag_shape:
            out.append((start, start + size))
            start += size
        return out

    def nilradical_coordinates(self) -> List[Tuple[int, int]]:
        """Matrix positions (r, c) spanning the strictly-upper block part."""
        ranges = self.block_ranges()
        coords = []
        for (b1, b2) in itertools.combinations(range(len(ranges)), 2):
            for r in range(*ranges[b1]):
                for c in range(*ranges[b2]):
                    coords.append((r, c))
        return coords


@dataclass(frozen=True, eq=False)
class LanglandsParts:
    """Factors g = n_part @ m_part @ a_part @ k_part with n_part unipotent
    above the flag blocks, m_part block-diagonal with per-block determinant
    +-1, a_part positive diagonal and constant on blocks, k_part special
    orthogonal."""

    n_part: np.ndarray
    m_part: np.ndarray
    a_part: np.ndarray
    k_part: np.ndarray

    @property
    def a_diag(self) -> np.ndarray:
        return np.diagonal(self.a_part)

    def reconstruct(self) -> np.ndarray:
        return self.n_part @ self.m_part @ self.a_part @ self.k_part


@dataclass(frozen=True)
class RootValueVector:
    """Positive character values alpha(a), with the dimension of each
    character's eigenspace stored alongside."""

    labels: Tuple[object, ...]
    values: Tuple[float, ...]
    multiplicities: Tuple[int, ...]

    def as_dict(self) -> Dict[object, float]:
        return dict(zip(self.labels, self.values))


# ---------------------------------------------------------------------------
# decompositions


# Stack columns per pass of the kernel.  Every operation is elementwise over
# the stack, so splitting it changes no bit; blocks of this size keep the
# kernel's working vectors in cache, where a whole 65,536-matrix chunk does
# not fit.
GS_BLOCK = 8192


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (n, m) arrays, summed in a fixed
    order (einsum's order, and so its rounding, varies with m)."""
    acc = x[0] * y[0]
    for k in range(1, len(x)):
        acc += x[k] * y[k]
    return acc


def gram_schmidt_components(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row Gram-Schmidt of a component-major (n, n, m) stack, rows[i, k]
    holding entry k of row i across the m matrices: each matrix factors as
    B = L @ Q, returned component-major as low[i, j] = L[i, j] and
    q[i, k] = Q[i, k].

    L is lower triangular with a positive diagonal (the lengths of the
    successive orthogonal residuals); the rows of Q are the residual
    directions.  Modified Gram-Schmidt, vectorized over the stack: each row is
    projected off the earlier directions one at a time, and then once more,
    since a residual that cancelled far below its row still carries the
    row's rounding along the earlier directions ("twice is enough", Kahan
    and Parlett).  L is backward stable, as accurate as a Householder
    factor, and Q is orthogonal to working precision for every input that is
    nonsingular at working precision.  Every operation runs elementwise over
    stack-length vectors, so each matrix's result does not depend on the
    stack it came in, and the stack is processed in column blocks of
    ``GS_BLOCK`` matrices.
    """
    low = np.zeros(rows.shape)
    q = np.empty(rows.shape)
    for start in range(0, rows.shape[2], GS_BLOCK):
        cols = slice(start, start + GS_BLOCK)
        _gram_schmidt_block(rows[:, :, cols], low[:, :, cols], q[:, :, cols])
    return low, q


def _gram_schmidt_block(rows: np.ndarray, low: np.ndarray, q: np.ndarray) -> None:
    """The kernel on one column block, writing into views of low and q."""
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


def gram_schmidt_rows(b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row Gram-Schmidt of a (..., n, n) stack: b = L @ Q, from
    :func:`gram_schmidt_components` on the component-major view of the
    stack.

    >>> low, q = gram_schmidt_rows(np.array([[3.0, 4.0], [1.0, 0.0]]))
    >>> low.tolist()
    [[5.0, 0.0], [0.6, 0.8]]
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[-1]
    rows = np.moveaxis(b, (-2, -1), (0, 1)).reshape(n, n, b.size // (n * n))
    low, q = gram_schmidt_components(rows)
    back = (n, n) + b.shape[:-2]
    return (
        np.moveaxis(low.reshape(back), (0, 1), (-2, -1)),
        np.moveaxis(q.reshape(back), (0, 1), (-2, -1)),
    )


def iwasawa_coordinates(low: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The n-a-k coordinates of a stack, read from the component-major lower
    factor ``low`` of its row-reversed stack (as :func:`gram_schmidt_components`
    returns it): the n diagonal entries a[j] = low[n-1-j, n-1-j] and the
    n(n-1)/2 strictly upper entries u_ij = low[n-1-i, n-1-j] / a[j] of N in
    row-major (i, j) order, each an array over the m matrices (the a[j] are
    views into low).

    These are the divisions :func:`iwasawa_batched` performs, so both give
    the same bits; N and K are never formed.
    """
    n = low.shape[0]
    a = [low[n - 1 - j, n - 1 - j] for j in range(n)]
    u = [low[n - 1 - i, n - 1 - j] / a[j] for i in range(n) for j in range(i + 1, n)]
    return a, u


def iwasawa_batched(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized n-a-k split of a (..., n, n) stack of det-one matrices.

    Returns (N, a, K): N unit upper triangular, a positive diagonals as a
    (..., n) array, K special orthogonal, with mats = N @ diag(a) @ K.

    Implementation: row Gram-Schmidt of the row-reversed stack, J @ mats =
    L @ Q with J the reversal, gives mats = (J L J) @ (J Q); J L J is upper
    triangular with the positive diagonal a, and J Q is orthogonal with
    determinant det(mats) / prod(a) = +1.
    """
    low, q = gram_schmidt_rows(np.asarray(mats, dtype=float)[..., ::-1, :])
    upper = low[..., ::-1, ::-1]
    a = np.ascontiguousarray(np.diagonal(upper, axis1=-2, axis2=-1))
    nil = upper / a[..., None, :]
    return nil, a, np.ascontiguousarray(q[..., ::-1, :])


def _check_condition(mat: np.ndarray) -> None:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ValueError(f"matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")


def iwasawa(g: GroupElement) -> LanglandsParts:
    """Minimal-flag split g = n a k (m_part = identity).

    >>> parts = iwasawa(group_element([[0.0, -1.0], [1.0, 0.0]]))
    >>> bool(np.allclose(parts.a_diag, 1.0))
    True
    """
    _check_condition(g.mat)
    nil, a, k = iwasawa_batched(g.mat[None])
    return LanglandsParts(
        _freeze(nil[0]), _freeze(np.eye(g.n)), _freeze(np.diag(a[0])), _freeze(k[0])
    )


def langlands(g: GroupElement, P: ParabolicIndex) -> LanglandsParts:
    """Refine the minimal split along P's flag: g = n m a k with n supported
    above the blocks, a the per-block geometric mean (so m has unit block
    determinants), k orthogonal."""
    if P.n != g.n:
        raise ValueError(f"parabolic is for n={P.n}, element has n={g.n}")
    minimal = iwasawa(g)
    t = minimal.n_part @ minimal.a_part
    t_bd = np.zeros_like(t)
    a_vec = np.empty(g.n)
    for lo, hi in P.block_ranges():
        t_bd[lo:hi, lo:hi] = t[lo:hi, lo:hi]
        a_vec[lo:hi] = np.exp(np.mean(np.log(np.diagonal(t)[lo:hi])))
    n_part = t @ np.linalg.inv(t_bd)
    m_part = t_bd / a_vec[None, :]
    return LanglandsParts(
        _freeze(n_part), _freeze(m_part), _freeze(np.diag(a_vec)), minimal.k_part
    )


# ---------------------------------------------------------------------------
# characters


def root_values(a: Sequence[float], rs: RootSystem) -> RootValueVector:
    """Simple-root character values of a positive diagonal, per factor.

    >>> from .rootsys import build_type_a
    >>> root_values([2.0, 1.0, 0.5], build_type_a(3)).values
    (2.0, 2.0)
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (rs.ambient_dim,) or np.any(a <= 0):
        raise ValueError("expected a positive diagonal matching the ambient dimension")
    labels = tuple(range(rs.rank))
    values = []
    for i in labels:
        c, d = rs.root_coordinates(i)
        values.append(float(a[c] / a[d]))
    return RootValueVector(labels, tuple(values), (1,) * rs.rank)


def parabolic_root_values(P: ParabolicIndex, a: Sequence[float]) -> RootValueVector:
    """Character values of the block torus on the nilradical: one label per
    ordered block pair (i, j), i < j, value a_i/a_j, eigenspace dimension
    b_i * b_j."""
    a = np.asarray(a, dtype=float)
    ranges = P.block_ranges()
    for lo, hi in ranges:
        if not np.allclose(a[lo:hi], a[lo], rtol=1e-9):
            raise ValueError("diagonal is not constant on the flag blocks")
    block_vals = [float(a[lo]) for lo, _ in ranges]
    shape = P.flag_shape
    labels, values, mults = [], [], []
    for i, j in itertools.combinations(range(len(shape)), 2):
        labels.append((i, j))
        values.append(block_vals[i] / block_vals[j])
        mults.append(shape[i] * shape[j])
    return RootValueVector(tuple(labels), tuple(values), tuple(mults))


def dalpha_product(P: ParabolicIndex, a: Sequence[float], power: int = -1) -> float:
    """prod alpha(a)^(power * mult) over the block-pair characters of P."""
    rv = parabolic_root_values(P, a)
    log = sum(m * np.log(v) for v, m in zip(rv.values, rv.multiplicities))
    return float(np.exp(power * log))


# ---------------------------------------------------------------------------
# wedge-norm distance to the cusp of P


def _nilradical_matrices(P: ParabolicIndex) -> np.ndarray:
    coords = P.nilradical_coordinates()
    basis = np.zeros((len(coords), P.n, P.n))
    for idx, (r, c) in enumerate(coords):
        basis[idx, r, c] = 1.0
    if P.conjugator is not None:
        gamma = P.conjugator.mat
        basis = np.einsum("ij,bjk,kl->bil", gamma, basis, np.linalg.inv(gamma))
    return basis


def _gram_logdet(cols: np.ndarray) -> float:
    gram = cols @ cols.T
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise np.linalg.LinAlgError("degenerate wedge (numerically dependent basis)")
    return float(logdet)


def d_function(P: ParabolicIndex, g: GroupElement) -> float:
    """Norm of the top wedge of Ad(g) on the nilradical of P, normalized so
    the identity gives 1; the norm comes from the entrywise inner product and
    is therefore rotation-invariant on the left."""
    if P.is_group:
        raise ValueError("the distance function needs a proper block structure")
    basis = _nilradical_matrices(P)
    g_inv = np.linalg.inv(g.mat)
    moved = np.einsum("ij,bjk,kl->bil", g.mat, basis, g_inv)
    base_logdet = _gram_logdet(basis.reshape(len(basis), -1))
    moved_logdet = _gram_logdet(moved.reshape(len(moved), -1))
    return float(np.exp(0.5 * (moved_logdet - base_logdet)))


def verify_dalpha(g: GroupElement, P: ParabolicIndex) -> float:
    """Relative gap between the wedge norm at g^{-1} and the product of
    block-character values of the a-part of g, which should agree.  Small
    output (<= 1e-8 for well-conditioned input) certifies the decomposition
    and the distance function against each other."""
    d_val = d_function(P, g.inv())
    predicted = dalpha_product(P, langlands(g, P).a_diag, power=-1)
    return abs(d_val - predicted) / d_val


# ---------------------------------------------------------------------------
# Weyl representatives


def weyl_representative(w: WeylElement) -> GroupElement:
    """Signed permutation matrix in SO(n) inducing w on the diagonal torus
    (single-factor systems only; products go factor by factor).

    >>> from .rootsys import WeylElement, build_type_a
    >>> rep = weyl_representative(WeylElement(build_type_a(3), ((0, 2, 1),)))
    >>> rep.mat.astype(int).tolist()
    [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    """
    if len(w.perms) != 1:
        raise ValueError("one factor at a time; split product elements first")
    perm = w.perms[0]
    n = len(perm)
    mat = np.zeros((n, n))
    for i in range(n):
        mat[perm[i], i] = 1.0
    if np.linalg.det(mat) < 0:
        mat[:, -1] = -mat[:, -1]
    return GroupElement(_freeze(mat))
