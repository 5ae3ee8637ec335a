"""Reduction of points into Siegel coordinates for the integer quotients of
SL_n (n = 2, 3, 4), with exact integer reducers, plus bounded enumeration of
the integer group for truncated infima.

Points of the quotient are left cosets of the integer subgroup, so reducers
multiply on the left: ``rep = gamma @ original``.  For n = 2 the classical
translate/invert walk on the upper half-plane is exact; for n = 3, 4 we run
lattice basis reduction on the rows of the matrix, which meets the Siegel
bounds only up to a controlled slack (the swap threshold cannot reach the
exact chamber wall), hence the small tolerances carried by ``SiegelSet``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .lingrp import (
    GroupElement,
    LanglandsParts,
    gram_schmidt_components,
    gram_schmidt_rows,
    group_element,
    iwasawa,
)

RATIO_SLACK = 1e-6
U_SLACK = 1e-9
DISC_BOUND = 1.0 - 1e-12  # lowest admissible |z| for reduced half-plane points

__all__ = [
    "SiegelSet",
    "ReducedPoint",
    "siegel_default",
    "reduce_sl2",
    "reduce_sl2_coords",
    "reduce_siegel",
    "reduce_siegel_batched",
    "in_siegel",
    "enumerate_gamma",
    "format_columnar",
]


@dataclass(frozen=True)
class SiegelSet:
    """Coordinate bounds defining the reduction target.

    Both forms of the diagonal bound are stored: ``t`` bounds the inverted
    simple-root characters from above, ``ratio_min = 1/t`` bounds the
    successive diagonal ratios a_i / a_{i+1} from below.  They must agree.
    """

    n: int
    t: float
    u_bound: float
    ratio_min: float = 0.0

    def __post_init__(self):
        if self.ratio_min == 0.0:
            object.__setattr__(self, "ratio_min", 1.0 / self.t)
        if abs(self.t * self.ratio_min - 1.0) > 1e-12:
            raise ValueError("the two diagonal-bound conventions disagree")
        if self.t < 2.0 / np.sqrt(3.0) - 1e-12:
            raise ValueError(f"diagonal bound t={self.t} below the reduction minimum")
        if self.u_bound < 0.5:
            raise ValueError(f"off-diagonal bound {self.u_bound} below 1/2")


def siegel_default(n: int) -> SiegelSet:
    return SiegelSet(n=n, t=2.0 / np.sqrt(3.0) + RATIO_SLACK, u_bound=0.5 + U_SLACK)


@dataclass(frozen=True, eq=False)
class ReducedPoint:
    """A reduced coset representative: ``rep = gamma @ original`` with gamma
    integral of determinant one, plus the cached triangular split of rep."""

    gamma: Tuple[Tuple[int, ...], ...]
    rep: GroupElement
    iwasawa_cache: LanglandsParts

    @property
    def a_diag(self) -> np.ndarray:
        return self.iwasawa_cache.a_diag

    @property
    def u_coords(self) -> np.ndarray:
        n = self.rep.n
        nil = self.iwasawa_cache.n_part
        return np.array([nil[i, j] for i in range(n) for j in range(i + 1, n)])


def _as_int_rows(mat: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in np.asarray(mat))


def _make_point(gamma_rows, original: GroupElement) -> ReducedPoint:
    gamma = _as_int_rows(gamma_rows)
    rep_mat = np.array(gamma, dtype=float) @ original.mat
    rep = GroupElement(np.ascontiguousarray(rep_mat), original.factor)
    return ReducedPoint(gamma, rep, iwasawa(rep))


# ---------------------------------------------------------------------------
# n = 2: exact translate/invert walk


def reduce_sl2(g: GroupElement) -> ReducedPoint:
    """Move the half-plane point of g into |Re z| <= 1/2, |z| >= 1.

    >>> import numpy as np
    >>> pt = reduce_sl2(group_element([[1.0, 5.0], [0.0, 1.0]]))
    >>> pt.gamma
    ((1, -5), (0, 1))
    """
    if g.n != 2:
        raise ValueError("reduce_sl2 needs a 2x2 element")
    a, b, c, d = (float(v) for v in g.mat.ravel())
    den = c * c + d * d
    x, y = (a * c + b * d) / den, 1.0 / den
    ga, gb, gc, gd = 1, 0, 0, 1  # integer reducer rows, exact
    for _ in range(100000):
        m = round(x)
        if m != 0:
            x -= m
            ga, gb = ga - m * gc, gb - m * gd
        norm2 = x * x + y * y
        if norm2 < DISC_BOUND:
            x, y = -x / norm2, y / norm2
            ga, gb, gc, gd = -gc, -gd, ga, gb
        else:
            break
    else:  # pragma: no cover - the walk strictly increases y
        raise RuntimeError("half-plane reduction failed to terminate")
    return _make_point(((ga, gb), (gc, gd)), g)


def reduce_sl2_coords(
    x: np.ndarray, y: np.ndarray, max_iter: int = 64
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized coordinate-only form of :func:`reduce_sl2` for mass
    statistics; no reducers are tracked."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    for _ in range(max_iter):
        x -= np.round(x)
        norm2 = x * x + y * y
        low = norm2 < DISC_BOUND
        if not low.any():
            break
        x[low] = -x[low] / norm2[low]
        y[low] = y[low] / norm2[low]
    else:  # pragma: no cover - 64 doublings exceed float range
        warnings.warn("half-plane reduction hit the iteration cap")
    x -= np.round(x)
    return x, y


# ---------------------------------------------------------------------------
# n = 3, 4: lattice reduction on rows


MAX_SWEEPS = 1000  # per LLL pass; a pass that reaches it is reported


def _lll_rows(
    b: np.ndarray,
    u: np.ndarray,
    odd: np.ndarray,
    low: np.ndarray,
    delta: float,
    max_sweeps: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Sweep-based row LLL over a component-major stack.

    b (float) and u (int64) are (n, n, m) arrays, b[i, k] and u[i, k] holding
    entry k of row i across the m matrices, so every row operation below is
    an elementwise update of contiguous stack-length vectors.  low is the
    (n, n, m) lower Gram-Schmidt factor of the incoming b (from
    :func:`gram_schmidt_components`), which the first sweep uses; every later
    sweep refactors b.  At n <= 4 a float64 Gram-Schmidt carries enough
    precision for the size-reduction and swap decisions (the floating-point
    LLL analysis of Nguyen and Stehle's L^2).

    Returns (b', u', odd', sweeps, converged) with B' = U' @ B_input per
    matrix (U' accumulated over u), odd' flagging the matrices whose swap
    count (accumulated over odd) is odd, i.e. det U' = -1 (size reductions
    have determinant one, each swap minus one), and converged telling
    whether the last sweep was swap-free; it is False only when the pass
    stopped at max_sweeps.  One swap per matrix per sweep keeps the batched
    swaps independent.
    """
    n = b.shape[0]
    sweeps = 0
    swapped = True
    for sweeps in range(1, max_sweeps + 1):
        if sweeps > 1:
            low = gram_schmidt_components(b)[0]
        # size-reduce row i against rows j < i, innermost first
        for i in range(1, n):
            for j in range(i - 1, -1, -1):
                q = np.round(low[i, j] / low[j, j])
                if np.any(q != 0.0):
                    b[i] -= q * b[j]
                    u[i] -= q.astype(np.int64) * u[j]
                    low[i, : j + 1] -= q * low[j, : j + 1]
        # first violated swap position per matrix (Lovasz condition)
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
        if not swapped:
            break
    return b, u, odd, sweeps, not swapped


def _reduce_stack(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Two LLL passes (delta = 3/4, then delta just below 1) over the
    row-reversed (m, n, n) stack; returns (gammas int64, reps float), both
    (m, n, n).

    The working basis b and its integer transform u are kept component-major,
    (n, n, m), through both passes and transposed back only to form gammas
    and reps.  The Gram-Schmidt factor of the input, which sets the sweep
    budget, is also the factor the first sweep of pass 1 starts from, so
    each sweep factors b exactly once.
    """
    m, n, _ = mats.shape
    b = np.ascontiguousarray(mats[:, ::-1, :].transpose(1, 2, 0))
    u = np.repeat(np.eye(n, dtype=np.int64)[:, :, None], m, axis=2)
    odd = np.zeros(m, dtype=bool)
    # the sweep budget, past which a warning reports slow convergence, grows
    # with the input's log condition number.  The Gram-Schmidt diagonal holds
    # the eigenvalues of the triangular factor, so its spread max/min bounds
    # cond_2 from below: this budget never exceeds the one cond_2 would set
    low = gram_schmidt_components(b)[0]
    diag = np.diagonal(low, axis1=0, axis2=1)
    spread = float(np.max(diag.max(axis=1) / diag.min(axis=1)))
    budget = int(8 * n * n * (1.0 + np.log10(max(spread, 1.0)))) + 16
    b, u, odd, s1, done1 = _lll_rows(b, u, odd, low, 0.75, MAX_SWEEPS)
    low = gram_schmidt_components(b)[0]
    b, u, odd, s2, done2 = _lll_rows(b, u, odd, low, 1.0 - 1e-9, MAX_SWEEPS)
    for label, done in (("first", done1), ("second", done2)):
        if not done:
            warnings.warn(
                f"lattice reduction stopped its {label} pass at the "
                f"{MAX_SWEEPS}-sweep cap with swaps still pending"
            )
    if s1 + s2 > budget:
        warnings.warn(
            f"lattice reduction used {s1 + s2} sweeps, above the "
            f"conditioning-based budget {budget}"
        )
    # det gammas = det U' (the reversal conjugates it) = -1 after an odd
    # number of swaps; negating a row restores determinant one exactly, at
    # any reducer size.  Row n-1 of the reversed basis is row 0 of reps
    np.negative(u[-1], out=u[-1], where=odd)
    np.negative(b[-1], out=b[-1], where=odd)
    gammas = np.ascontiguousarray(u[::-1, ::-1].transpose(2, 0, 1))
    # keep the incrementally maintained basis as the representative: it
    # mirrors gammas @ mats exactly in exact arithmetic, but the one-shot
    # product would cancel catastrophically once the reducing coefficients
    # outgrow the small lattice scales
    reps = np.ascontiguousarray(b[::-1].transpose(2, 0, 1))
    return gammas, reps


def _ratio_certified(reps: np.ndarray, ratio_min: float) -> np.ndarray:
    # the triangular profile reads off bottom-up (n a k order), which is
    # Gram-Schmidt over the reversed rows
    low = gram_schmidt_rows(reps[:, ::-1, :])[0]
    diag = np.diagonal(low, axis1=-2, axis2=-1)[:, ::-1]
    ratios = diag[:, :-1] / diag[:, 1:]
    return np.all(ratios >= ratio_min - 1e-9, axis=1)


def reduce_siegel_batched(
    mats: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce a (m, n, n) stack; returns (gammas int64, reps float).

    A basis whose rows live at wildly different scales can stall the float
    sweep: the Gram data of a row 1e16 times longer than a sibling drowns
    the sibling's coefficients in roundoff, and a final swap between two
    comparable short rows is skipped.  The representative is still correct
    at the large scales, so stacks that miss the certified diagonal floor
    are simply reduced again -- the second pass sees the collapsed basis,
    whose dynamic range is moderate -- with the integer transforms composed.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    n = mats.shape[1]
    gammas, reps = _reduce_stack(mats)
    ratio_min = siegel_default(n).ratio_min
    for _ in range(2):
        bad = ~_ratio_certified(reps, ratio_min)
        if not bad.any():
            break
        extra, fixed = _reduce_stack(reps[bad])
        gammas[bad] = extra @ gammas[bad]
        reps[bad] = fixed
    return gammas, reps


def reduce_siegel(g: GroupElement) -> ReducedPoint:
    """Reduce one element of SL_3 or SL_4 and verify the target bounds."""
    if g.n not in (3, 4):
        raise ValueError("reduce_siegel handles n in {3, 4}; use reduce_sl2 for n=2")
    gammas, _ = reduce_siegel_batched(g.mat[None])
    point = _make_point(gammas[0], g)
    if not in_siegel(point.rep, siegel_default(g.n)):
        raise RuntimeError("reduction finished outside the target bounds")
    return point


def in_siegel(g: GroupElement, s: SiegelSet) -> bool:
    """Whether the triangular coordinates of g satisfy the stored bounds."""
    if g.n != s.n:
        raise ValueError(f"bounds are for n={s.n}, element has n={g.n}")
    parts = iwasawa(g)
    a = parts.a_diag
    for i in range(g.n - 1):
        ratio = a[i] / a[i + 1]
        if ratio < s.ratio_min:
            return False
        assert 1.0 / ratio <= s.t  # the two stored conventions must agree
    nil = parts.n_part
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if abs(nil[i, j]) > s.u_bound:
                return False
    return True


# ---------------------------------------------------------------------------
# bounded enumeration of the integer group


_ENUM_BUDGET = {2: 30, 3: 10, 4: 1}


def enumerate_gamma(n: int, height: int) -> Iterator[np.ndarray]:
    """All integer matrices of determinant one with max |entry| <= height,
    each exactly once, as int64 arrays.  The height budget guards runtime;
    exceeding it reports truncation rather than attempting the search.

    >>> sum(1 for _ in enumerate_gamma(2, 1))
    20
    """
    if n not in _ENUM_BUDGET:
        raise ValueError(f"enumeration supports n in {sorted(_ENUM_BUDGET)}")
    if height > _ENUM_BUDGET[n]:
        raise ValueError(
            f"height {height} exceeds the n={n} budget {_ENUM_BUDGET[n]}; "
            "results would be truncated"
        )
    if height < 1:
        return
    side = 2 * height + 1
    total = side ** (n * n)
    chunk = 1 << 18
    offsets = np.arange(n * n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // side**offsets[None, :]) % side - height
        mats = digits.reshape(-1, n, n)
        dets = np.rint(np.linalg.det(mats.astype(float)))
        for mat in mats[dets == 1.0]:
            yield mat


# ---------------------------------------------------------------------------
# columnar serialization


def format_columnar(points: Sequence[ReducedPoint]) -> str:
    """One line per point: reducer entries, then off-diagonal coordinates,
    then log-diagonal coordinates."""
    if not points:
        return "# empty batch\n"
    n = points[0].rep.n
    header = f"# n={n} columns: gamma[{n * n}] u[{n * (n - 1) // 2}] loga[{n}]"
    lines = [header]
    for pt in points:
        gamma = " ".join(str(v) for row in pt.gamma for v in row)
        u = " ".join(format(v, ".17g") for v in pt.u_coords)
        loga = " ".join(format(v, ".17g") for v in np.log(pt.a_diag))
        lines.append(f"{gamma} {u} {loga}")
    return "\n".join(lines) + "\n"
