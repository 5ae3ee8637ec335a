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
    statistics; no reducers are tracked.

    Each iteration translates into |Re z| <= 1/2 and inverts the points still
    inside the unit disc.  Only those points, the live set, are carried into
    the next iteration: a translated point outside the disc is a fixed point
    of every later iteration, so dropping it changes no bit of the result.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)
    live = None  # indices of the points still inside the disc; None is all
    xs, ys = flat_x, flat_y
    for _ in range(max_iter):
        xs -= np.round(xs)
        norm2 = xs * xs + ys * ys
        low = norm2 < DISC_BOUND
        if live is not None:
            flat_x[live] = xs
        if not low.any():
            break
        live = np.flatnonzero(low) if live is None else live[low]
        norm2 = norm2[low]
        xs = -xs[low] / norm2
        ys = ys[low] / norm2
        flat_y[live] = ys
    else:  # at the default cap, 64 doublings of y exceed the float range
        warnings.warn("half-plane reduction hit the iteration cap")
        xs -= np.round(xs)
        flat_x[live] = xs
    return x, y


# ---------------------------------------------------------------------------
# n = 3, 4: lattice reduction on rows


MAX_SWEEPS = 1000  # per LLL pass; a pass that reaches it is reported
# Reducer entries are int64.  Every integer update is u_i - q * u_j with
# both |u_i| and |q| * |u_j| kept below INT64_ROOM, so no update can reach
# 2^63 and wrap around.
INT64_ROOM = float(2**62)


def _int64_overflow() -> OverflowError:
    return OverflowError(
        "an integer reducer entry would pass 2^62, too close to the int64 "
        "limit 2^63: the translated samples are too ill-conditioned for "
        "float64 reduction"
    )


def _exact_row_bounds(u_i, u_j, q_abs) -> Tuple[float, float]:
    """Check the update u_i - q * u_j matrix by matrix against INT64_ROOM;
    returns bounds over the stack on max |u_i| after the update and on
    max |u_j|, both taken from the entries themselves."""
    top_i = np.abs(u_i).max(axis=0).astype(float)
    top_j = np.abs(u_j).max(axis=0).astype(float)
    step = q_abs * top_j
    if np.any(step >= INT64_ROOM) or np.any(top_i >= INT64_ROOM):
        raise _int64_overflow()
    return float(np.max(top_i + step)), float(top_j.max())


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

    Raises OverflowError before an entry of u could wrap past the int64
    range.  A per-row bound on max |u| over the stack, grown by each update,
    screens the updates; only when it passes INT64_ROOM are the entries
    themselves checked, and the bound is reset to their exact value.
    """
    n = b.shape[0]
    bound = np.abs(u).max(axis=(1, 2)).astype(float)
    sweeps = 0
    swapped = True
    for sweeps in range(1, max_sweeps + 1):
        if sweeps > 1:
            low = gram_schmidt_components(b)[0]
        # size-reduce row i against rows j < i, innermost first
        for i in range(1, n):
            for j in range(i - 1, -1, -1):
                q = np.round(low[i, j] / low[j, j])
                q_abs = np.abs(q)
                q_max = float(q_abs.max())
                if q_max == 0.0:
                    continue
                if q_max * bound[j] >= INT64_ROOM or bound[i] >= INT64_ROOM:
                    bound[i], bound[j] = _exact_row_bounds(u[i], u[j], q_abs)
                else:
                    bound[i] += q_max * bound[j]
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
                bound[k - 1] = bound[k] = max(bound[k - 1], bound[k])
        if not swapped:
            break
    return b, u, odd, sweeps, not swapped


def _reduce_stack(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two LLL passes (delta = 3/4, then delta just below 1) over the
    row-reversed (m, n, n) stack; returns (gammas int64, reps float), both
    (m, n, n), and the component-major (n, n, m) lower Gram-Schmidt factor
    of the row-reversed reps.

    The working basis b and its integer transform u are kept component-major,
    (n, n, m), through both passes and transposed back only to form gammas
    and reps.  The Gram-Schmidt factor of the input, which sets the sweep
    budget, is also the factor the first sweep of pass 1 starts from, so
    each sweep factors b exactly once.  The final b is the row-reversed reps
    in component-major layout, so its factor comes without a transpose.
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
    del diag
    b, u, odd, s1, done1 = _lll_rows(b, u, odd, low, 0.75, MAX_SWEEPS)
    del low  # each pass factors b afresh; holding an old factor only adds memory
    b, u, odd, s2, done2 = _lll_rows(
        b, u, odd, gram_schmidt_components(b)[0], 1.0 - 1e-9, MAX_SWEEPS
    )
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
    low = gram_schmidt_components(b)[0]
    gammas = np.ascontiguousarray(u[::-1, ::-1].transpose(2, 0, 1))
    del u
    # keep the incrementally maintained basis as the representative: it
    # mirrors gammas @ mats exactly in exact arithmetic, but the one-shot
    # product would cancel catastrophically once the reducing coefficients
    # outgrow the small lattice scales
    reps = np.ascontiguousarray(b[::-1].transpose(2, 0, 1))
    return gammas, reps, low


def _ratio_certified(low: np.ndarray, ratio_min: float) -> np.ndarray:
    # the triangular profile reads off bottom-up (n a k order), which is
    # Gram-Schmidt over the reversed rows: a_j = low[n-1-j, n-1-j]
    n = low.shape[0]
    ok = np.ones(low.shape[2], dtype=bool)
    for j in range(n - 1):
        ok &= low[n - 1 - j, n - 1 - j] / low[n - 2 - j, n - 2 - j] >= ratio_min - 1e-9
    return ok


def _compose(extra: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """extra @ gammas in int64, refused (OverflowError) unless every entry's
    sum of absolute products stays below INT64_ROOM."""
    room = np.abs(extra).astype(float) @ np.abs(gammas).astype(float)
    if np.any(room >= INT64_ROOM):
        raise _int64_overflow()
    return extra @ gammas


def reduce_siegel_batched(
    mats: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a (m, n, n) stack; returns (gammas int64, reps float, low).

    low is the component-major (n, n, m) lower Gram-Schmidt factor of the
    row-reversed reps, from which :func:`lingrp.iwasawa_coordinates` reads
    the reduced coordinates; the certification below needs it anyway, so
    the reduced stack is factored once.

    A basis whose rows live at wildly different scales can stall the float
    sweep: the Gram data of a row 1e16 times longer than a sibling drowns
    the sibling's coefficients in roundoff, and a final swap between two
    comparable short rows is skipped.  The representative is still correct
    at the large scales, so stacks that miss the certified diagonal floor
    are simply reduced again -- the second pass sees the collapsed basis,
    whose dynamic range is moderate -- with the integer transforms composed.
    Only the matrices reduced again are certified again.

    Raises OverflowError when a reducer would leave the int64 range.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    n = mats.shape[1]
    gammas, reps, low = _reduce_stack(mats)
    ratio_min = siegel_default(n).ratio_min
    bad = np.flatnonzero(~_ratio_certified(low, ratio_min))
    for attempt in range(2):
        if not bad.size:
            break
        extra, fixed, fixed_low = _reduce_stack(reps[bad])
        gammas[bad] = _compose(extra, gammas[bad])
        reps[bad] = fixed
        low[:, :, bad] = fixed_low
        if attempt == 0:
            bad = bad[~_ratio_certified(fixed_low, ratio_min)]
    return gammas, reps, low


def reduce_siegel(g: GroupElement) -> ReducedPoint:
    """Reduce one element of SL_3 or SL_4 and verify the target bounds."""
    if g.n not in (3, 4):
        raise ValueError("reduce_siegel handles n in {3, 4}; use reduce_sl2 for n=2")
    gammas = reduce_siegel_batched(g.mat[None])[0]
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
