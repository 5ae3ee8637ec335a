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
import math
import threading
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

RECONSTRUCTION_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-10
COND_LIMIT = 1e12

__all__ = [
    "GroupElement",
    "ParabolicIndex",
    "LanglandsParts",
    "RootValueVector",
    "group_element",
    "iwasawa",
    "iwasawa_batched",
    "gram_schmidt_components",
    "gram_schmidt_lower",
    "workspace",
    "langlands",
    "parabolic_root_values",
    "dalpha_product",
    "d_function",
    "verify_dalpha",
]


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A determinant-one real matrix.

    Construct through :func:`group_element`, which renormalizes the
    determinant; the raw constructor trusts its input.
    """

    mat: np.ndarray

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def inv(self) -> "GroupElement":
        return GroupElement(_freeze(np.linalg.inv(self.mat)))

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n})"


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(mat, dtype=float)
    out.setflags(write=False)
    return out


def group_element(entries) -> GroupElement:
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
    return GroupElement(_freeze(mat))


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


# ---------------------------------------------------------------------------
# decompositions


# Stack columns per pass of the kernel.  Every operation is elementwise over
# the stack, so splitting it changes no bit; blocks of this size keep the
# kernel's working vectors in cache, where a whole 65,536-matrix chunk does
# not fit.
GS_BLOCK = 8192


def _dot(x: np.ndarray, y: np.ndarray, out: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (n, m) arrays into ``out``, summed
    in a fixed order (einsum's order, and so its rounding, varies with m);
    ``prod`` is (n, m) scratch."""
    np.multiply(x, y, out=prod)
    if len(x) == 1:
        np.copyto(out, prod[0])
    else:
        np.add(prod[0], prod[1], out=out)
    for k in range(2, len(x)):
        out += prod[k]
    return out


_THREAD = threading.local()


def workspace(slot: str, shape, dtype=float) -> np.ndarray:
    """An uninitialised C-contiguous array of ``shape`` and ``dtype`` in the
    calling thread's buffer ``slot``.

    Each thread owns its slots, and each slot only grows: it is reallocated
    when a request does not fit, at the requested size, and is otherwise
    reused, so a slot is as large as the largest request its thread has made,
    and is freed with the thread.  A returned array is valid until the next
    request for the same slot from the same thread; the caller must not keep
    it, or return it to its own caller, past that point.  Arrays the same
    slot is requested for again are not zeroed: a caller that needs zeros
    writes them.  Fresh arrays for the stacks of the sampling path,
    allocated and dropped stack after stack, were returned to the operating
    system by the allocator and faulted in again for the next stack.

    The slots, and who holds each:

    - ``"gram_schmidt"``: the kernel's scratch, inside one factorization;
    - ``"stack"``: a chunk's embedded samples (measures) until they are
      pushed, then the reducer's working basis until the reduction returns;
    - ``"push"``: the pushed stack until the reducer has copied it, then
      the reduced factor over it, until its coordinates are read;
    - ``"coords"``: the reduced coordinates of one block of a chunk in
      ``measures.stream_measures``, from its reduction until that loop has
      checked and folded them; a block is a whole chunk for n = 3, 4 and
      one ``reduction.WALK_BLOCK`` for n = 2, where the slot is block-sized;
    - ``"lll"``, ``"lll_flags"``: the sweep buffers of one LLL pass;
    - ``"parity"``, ``"order"``, ``"inverse"``, ``"restore"``: the
      reducer's swap parity, working order, its inverse and the reordering
      scratch, inside one reduction.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = _THREAD.__dict__.get(slot)
    if buf is None or buf.size < nbytes:
        buf = _THREAD.__dict__[slot] = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def _kernel_scratch(n: int, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for :func:`_gram_schmidt_block` on blocks of at most
    ``GS_BLOCK`` of m matrices, in the calling thread's ``"gram_schmidt"``
    workspace slot: the first n - 1 directions, the residual rows, the
    products and the dot products."""
    size = min(m, GS_BLOCK)
    buf = workspace("gram_schmidt", ((n - 1) * n + 2 * n + 1, size))
    q = buf[: (n - 1) * n].reshape(n - 1, n, size)
    v, prod = buf[(n - 1) * n : (n + 1) * n].reshape(2, n, size)
    return q, v, prod, buf[-1]


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
    n, _, m = rows.shape
    low = np.empty(rows.shape)
    q = np.empty(rows.shape)
    work = _kernel_scratch(n, m)[1:]
    for start in range(0, m, GS_BLOCK):
        cols = slice(start, start + GS_BLOCK)
        _gram_schmidt_block(rows[:, :, cols], low[:, :, cols], q[:, :, cols], work)
    return low, q


def gram_schmidt_lower(rows: np.ndarray, low: np.ndarray) -> None:
    """The lower factor of :func:`gram_schmidt_components`, bit for bit,
    written into the caller's (n, n, m) array ``low`` (a view of a longer
    stack will do).  The directions only live in the ``GS_BLOCK``-sized
    kernel scratch of the calling thread's workspace (see :func:`workspace`),
    without the last one, which the factor does not need, so a factorization
    allocates no array at all once its thread has factored a block as
    large."""
    n, _, m = rows.shape
    q, *work = _kernel_scratch(n, m)
    for start in range(0, m, GS_BLOCK):
        cols = slice(start, start + GS_BLOCK)
        block = low[:, :, cols]
        _gram_schmidt_block(rows[:, :, cols], block, q[:, :, : block.shape[2]], work)


def _gram_schmidt_block(rows: np.ndarray, low: np.ndarray, q: np.ndarray, work) -> None:
    """The kernel on one column block: writes every entry of low, zeros
    above the diagonal included, and the first len(q) directions into q;
    work is the residual rows, products and dot products of
    :func:`_kernel_scratch`.  Each coefficient is summed as (0.0 + c_1) + c_2
    over the two projections, so a zero coefficient comes out +0.0."""
    n, _, m = rows.shape
    v, prod, c = (w[..., :m] for w in work)
    for i in range(n):
        low[i, i + 1 :] = 0.0
        res = rows[i]  # the residual, in v from its first projection on
        for sweep in range(2):
            for j in range(i):
                _dot(q[j], res, c, prod)
                if sweep:
                    low[i, j] += c
                else:
                    np.add(c, 0.0, out=low[i, j])
                np.multiply(q[j], c, out=prod)
                res = np.subtract(res, prod, out=v)
        norm = np.sqrt(_dot(res, res, low[i, i], prod), out=low[i, i])
        if i < len(q):
            np.divide(res, norm, out=q[i])


def iwasawa_batched(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized n-a-k split of a (..., n, n) stack of det-one matrices.

    Returns (N, a, K): N unit upper triangular, a positive diagonals as a
    (..., n) array, K special orthogonal, with mats = N @ diag(a) @ K.

    Implementation: row Gram-Schmidt (:func:`gram_schmidt_components` on the
    component-major view) of the row-reversed stack, J @ mats = L @ Q with J
    the reversal, gives mats = (J L J) @ (J Q); J L J is upper triangular
    with the positive diagonal a, and J Q is orthogonal with determinant
    det(mats) / prod(a) = +1.
    """
    rev = np.asarray(mats, dtype=float)[..., ::-1, :]
    n = rev.shape[-1]
    rows = np.moveaxis(rev, (-2, -1), (0, 1)).reshape(n, n, rev.size // (n * n))
    low, q = (
        np.moveaxis(x.reshape((n, n) + rev.shape[:-2]), (0, 1), (-2, -1))
        for x in gram_schmidt_components(rows)
    )
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
