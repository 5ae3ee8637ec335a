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


def _gs_lower(b: np.ndarray) -> np.ndarray:
    """Lower-triangular Gram-Schmidt coefficient matrix L with B = L Q, from
    the batched row kernel shared with the Iwasawa split.  At n <= 4 a
    float64 Gram-Schmidt carries enough precision for the size-reduction and
    swap decisions (the floating-point LLL analysis of Nguyen and Stehle's
    L^2), so no Householder factorization is needed."""
    return gram_schmidt_rows(b)[0]


def _lll_rows(
    b: np.ndarray, delta: float, u: np.ndarray, odd: np.ndarray, max_sweeps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sweep-based row LLL over a stack; returns (B', U', odd', sweeps) with
    B' = U' @ B_input (U' accumulated over u) and odd' flagging the matrices
    whose swap count (accumulated over odd) is odd, i.e. det U' = -1: size
    reductions have determinant one, each swap minus one.  One swap per
    matrix per sweep keeps the batched swaps independent."""
    m, n, _ = b.shape
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        low = _gs_lower(b)
        # size-reduce row i against rows j < i, innermost first
        for i in range(1, n):
            for j in range(i - 1, -1, -1):
                q = np.round(low[:, i, j] / low[:, j, j])
                if np.any(q != 0.0):
                    b[:, i, :] -= q[:, None] * b[:, j, :]
                    u[:, i, :] -= q[:, None].astype(np.int64) * u[:, j, :]
                    low[:, i, : j + 1] -= q[:, None] * low[:, j, : j + 1]
        # first violated swap position per matrix
        norms2 = np.diagonal(low, axis1=-2, axis2=-1) ** 2
        mu = low[:, 1:, :] / np.diagonal(low, axis1=-2, axis2=-1)[:, None, :]
        swapped = False
        pending = np.ones(m, dtype=bool)
        for k in range(1, n):
            mu_k = mu[:, k - 1, k - 1]
            bad = pending & (
                norms2[:, k] + mu_k**2 * norms2[:, k - 1]
                < delta * norms2[:, k - 1] * (1.0 - 1e-14)
            )
            if bad.any():
                b[bad, k - 1, :], b[bad, k, :] = (
                    b[bad, k, :].copy(),
                    b[bad, k - 1, :].copy(),
                )
                u[bad, k - 1, :], u[bad, k, :] = (
                    u[bad, k, :].copy(),
                    u[bad, k - 1, :].copy(),
                )
                odd = odd ^ bad
                pending = pending & ~bad
                swapped = True
        if not swapped:
            break
    return b, u, odd, sweeps


def _reduce_stack(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    m, n, _ = mats.shape
    b = np.ascontiguousarray(mats[:, ::-1, :])
    u = np.tile(np.eye(n, dtype=np.int64), (m, 1, 1))
    odd = np.zeros(m, dtype=bool)
    # the sweep budget, past which a warning reports slow convergence, grows
    # with the input's log condition number.  The Gram-Schmidt diagonal holds
    # the eigenvalues of the triangular factor, so its spread max/min bounds
    # cond_2 from below: this budget never exceeds the one cond_2 would set
    diag = np.diagonal(_gs_lower(b), axis1=-2, axis2=-1)
    spread = float(np.max(diag.max(axis=1) / diag.min(axis=1)))
    budget = int(8 * n * n * (1.0 + np.log10(max(spread, 1.0)))) + 16
    b, u, odd, s1 = _lll_rows(b, 0.75, u, odd, max_sweeps=1000)
    b, u, odd, s2 = _lll_rows(b, 1.0 - 1e-9, u, odd, max_sweeps=1000)
    if s1 + s2 > budget:
        warnings.warn(
            f"lattice reduction used {s1 + s2} sweeps, above the "
            f"conditioning-based budget {budget}"
        )
    gammas = u[:, ::-1, ::-1].copy()
    # keep the incrementally maintained basis as the representative: it
    # mirrors gammas @ mats exactly in exact arithmetic, but the one-shot
    # product would cancel catastrophically once the reducing coefficients
    # outgrow the small lattice scales
    reps = b[:, ::-1, :].copy()
    # det gammas = det U' (the reversal conjugates it) = -1 after an odd
    # number of swaps; negating a row restores determinant one exactly, at
    # any reducer size
    gammas[odd, 0, :] = -gammas[odd, 0, :]
    reps[odd, 0, :] = -reps[odd, 0, :]
    return gammas, reps


def _ratio_certified(reps: np.ndarray, ratio_min: float) -> np.ndarray:
    # the triangular profile reads off bottom-up (n a k order), which is
    # Gram-Schmidt over the reversed rows
    low = _gs_lower(reps[:, ::-1, :])
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
