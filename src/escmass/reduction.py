"""Reduction of stacks of points into Siegel coordinates for the integer
quotients of SL_n (n = 2, 3, 4), plus bounded enumeration of the integer
group for truncated infima.

Points of the quotient are left cosets of the integer subgroup, so a
reduced representative is ``rep = gamma @ original`` for an integer gamma of
determinant one.  Neither path forms gamma: only the representatives'
coordinates are read.  For n = 2 the classical translate/invert walk on the
upper half-plane runs on coordinates only (:func:`reduce_sl2_coords`); for
n = 3, 4 :func:`reduce_siegel_batched` runs float64 lattice basis reduction
on the rows of each matrix, and the parity of its row swaps fixes the sign
that keeps gamma's determinant one.  It meets the Siegel bounds only up to a
controlled slack (the swap threshold cannot reach the exact chamber wall),
hence the small slacks in ``RATIO_MIN`` and ``U_BOUND``.
"""

from __future__ import annotations

import warnings
from typing import Iterator, Optional, Tuple

import numpy as np

from .lingrp import gram_schmidt_lower, workspace

RATIO_SLACK = 1e-6
U_SLACK = 1e-9
# the reduction target: successive diagonal ratios a_i / a_{i+1} are at
# least RATIO_MIN, and off-diagonal coordinates |u_ij| at most U_BOUND
RATIO_MIN = 1.0 / (2.0 / np.sqrt(3.0) + RATIO_SLACK)
U_BOUND = 0.5 + U_SLACK
DISC_BOUND = 1.0 - 1e-12  # lowest admissible |z| for reduced half-plane points

__all__ = [
    "RATIO_MIN",
    "U_BOUND",
    "reduce_sl2_coords",
    "reduce_siegel_batched",
    "enumerate_gamma",
]


# ---------------------------------------------------------------------------
# selects by bit pattern

# A masked write (``where=``, ``np.where``, a masked ``np.copyto``) takes a
# slow, branchy numpy loop when its mask is mixed: swapping two 3 x 16,384
# row blocks at half the columns took 514 us by masked copies, 56 us by the
# XOR swap of _swap_where and 29 us as a plain swap of every column (2-CPU
# AVX-512 Xeon, numpy 2.4, best of 5 x 500 calls).  On the uint64 views of
# float rows, a ^ ((a ^ b) & sel) selects b where sel is all ones and a
# where it is 0, in branch-free passes that move exactly the bits the
# masked write would, signed zeros, NaN and inf included.
_ONE_BITS = np.float64(1.0).view(np.uint64)
_SIGN_BIT = np.uint64(1 << 63)


def _bit_mask(flags: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The select mask of a bool row, written over the 8-byte row ``row``
    of the same length: returns row's uint64 view, all ones where flags is
    set and 0 elsewhere."""
    return np.negative(flags.view(np.int8), out=row.view(np.int64)).view(np.uint64)


def _swap_where(x: np.ndarray, y: np.ndarray, flags: np.ndarray, mask, scratch) -> int:
    """Swap the float rows x and y in the columns flagged by the bool row
    flags, in place; returns the count of flagged columns.  With all of
    them flagged it is a plain swap through ``scratch``, free rows of x's
    shape; otherwise a XOR swap, d = (x ^ y) & sel, x ^= d, y ^= d, with d
    in ``scratch`` and the mask sel written over ``mask``, a free 8-byte
    row."""
    count = int(np.count_nonzero(flags))
    if count == len(flags):
        np.copyto(scratch, x)
        np.copyto(x, y)
        np.copyto(y, scratch)
    elif count:
        xb, yb = x.view(np.uint64), y.view(np.uint64)
        d = np.bitwise_xor(xb, yb, out=scratch.view(np.uint64))
        d &= _bit_mask(flags, mask)
        xb ^= d
        yb ^= d
    return count


def _negate_where(row: np.ndarray, coef: np.ndarray, flags: np.ndarray) -> None:
    """row = -row and coef = 0.0 - coef, in place, in the columns flagged
    by the bool row flags.  Unless every column is flagged, row's sign bits
    are flipped by XOR, and coef is selected by bits between itself and
    0.0 - coef, formed with the mask in the calling thread's ``"lll"``
    workspace slot."""
    count = int(np.count_nonzero(flags))
    if count == len(flags):
        np.negative(row, out=row)
        np.subtract(0.0, coef, out=coef)
    elif count:
        rows = workspace("lll", (1 + len(coef), len(flags)))
        sel = _bit_mask(flags, rows[0])
        row_bits, coef_bits = row.view(np.uint64), coef.view(np.uint64)
        row_bits ^= np.bitwise_and(sel, _SIGN_BIT, out=rows[1].view(np.uint64))
        new = np.subtract(0.0, coef, out=rows[1:]).view(np.uint64)
        new ^= coef_bits
        new &= sel
        coef_bits ^= new


def _divisor(norm2: np.ndarray, low: np.ndarray, inside: int, mask) -> np.ndarray:
    """-norm2 in the columns flagged by the bool row low, of which there
    are ``inside``, and 1.0 in the others, in place over norm2, which is
    returned: negated, then 1.0 selected by bits, ONE ^ ((x ^ ONE) & sel),
    with the mask sel written over ``mask``, a free 8-byte row."""
    div = np.negative(norm2, out=norm2)
    if inside < len(low):
        bits = div.view(np.uint64)
        bits ^= _ONE_BITS
        bits &= _bit_mask(low, mask)
        bits ^= _ONE_BITS
    return div


# ---------------------------------------------------------------------------
# n = 2: translate/invert walk on half-plane coordinates


# Points per block of the half-plane walk: the block's coordinates and its
# scratch vectors stay in cache through every iteration, and a block is long
# enough that each iteration's dozen numpy calls cost little per point.
WALK_BLOCK = 16384


def reduce_sl2_coords(
    x: np.ndarray, y: np.ndarray, max_iter: int = 64
) -> Tuple[np.ndarray, np.ndarray]:
    """Move the half-plane points x + iy into |Re z| <= 1/2, |z| >= 1, for
    mass statistics; no reducers are tracked.

    The walk owns its inputs: float64 arrays that are C-contiguous and
    writeable are walked in place and returned, so a caller that reads x or
    y again passes copies; any other input is converted first.  Each
    iteration translates into |Re z| <= 1/2 and inverts the points still
    inside the unit disc.  The points are walked in blocks of ``WALK_BLOCK``
    (see :func:`_walk_block`); the walk of a point does not depend on the
    others, so blocking changes no bit.  The walk's scratch, two float rows
    and a row of flags, is the calling thread's ``"push"`` workspace slot
    (see :func:`lingrp.workspace`), so x and y must not live there: the
    sampling path walks a pushed block once its factor is formed, when the
    push is dead.  Warns once per call
    when some point is still inside the disc after ``max_iter`` iterations.
    """
    x = np.require(x, dtype=float, requirements="CW")
    y = np.require(y, dtype=float, requirements="CW")
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)
    size = min(len(flat_x), WALK_BLOCK)
    buf = workspace("push", (17, size), dtype=np.uint8)  # 2 doubles and a flag per point
    scratch = (*buf[:16].reshape(-1).view(float).reshape(2, size), buf[16].view(bool))
    capped = False
    for start in range(0, len(flat_x), WALK_BLOCK):
        block = slice(start, start + WALK_BLOCK)
        capped |= _walk_block(flat_x[block], flat_y[block], max_iter, scratch)
    if capped:  # at the default cap, 64 doublings of y exceed the float range
        warnings.warn("half-plane reduction hit the iteration cap")
    return x, y


def _walk_block(bx: np.ndarray, by: np.ndarray, max_iter: int, scratch) -> bool:
    """The walk of one block, in place; returns whether it hit the cap.

    The walk runs on a working set, at first the whole block.  A translated
    point outside the disc is a fixed point of every later iteration:
    x - round(x) is exact and never -0.0, so translating it again changes no
    bit, and it stays outside.  Such points therefore stay in the working set
    while at least half of it is still inside, and the iteration inverts the
    whole set in place through a divisor that is -|z|^2 inside and 1 outside
    (x / -|z|^2 is the bits of -x / |z|^2, and y is divided by its absolute
    value), which leaves an outside point as it is.  The divisor is formed
    in place over |z|^2 (:func:`_divisor`): negated, then, unless every
    point is inside, 1.0 selected by bits where the point is outside, the
    mask written over the dead translation step.  Once fewer than half
    are inside, the working set is written back to the block and only the
    points inside are carried on.
    """
    xs, ys, live = bx, by, None  # live: block positions of xs; None is all
    capped = False
    for _ in range(max_iter):
        size = len(xs)
        step, norm2, low = (buf[:size] for buf in scratch)
        xs -= np.round(xs, out=step)
        np.multiply(xs, xs, out=norm2)
        norm2 += np.multiply(ys, ys, out=step)
        np.less(norm2, DISC_BOUND, out=low)
        inside = int(np.count_nonzero(low))
        if not inside:
            break
        if 2 * inside < size:
            if live is not None:
                bx[live], by[live] = xs, ys
            keep = np.flatnonzero(low)
            live = keep if live is None else live[keep]
            norm2 = norm2[keep]
            xs, ys = xs[keep], ys[keep]
            np.negative(xs, out=xs)
            xs /= norm2
            ys /= norm2
        else:
            div = _divisor(norm2, low, inside, step)
            xs /= div
            ys /= np.abs(div, out=div)
    else:
        xs -= np.round(xs, out=scratch[0][: len(xs)])
        capped = True
    if live is not None:
        bx[live], by[live] = xs, ys
    return capped


# ---------------------------------------------------------------------------
# n = 3, 4: lattice reduction on rows


MAX_SWEEPS = 1000  # per LLL pass; a pass that reaches it is reported


def _factor_rows(low: np.ndarray) -> Iterator[np.ndarray]:
    """The stack-length rows low[i, j], j <= i, of a component-major lower
    factor: the n(n+1)/2 rows that can hold anything but +0.0."""
    for i in range(len(low)):
        yield from low[i, : i + 1]


def _to_front(stack, moved: np.ndarray, live: int, scratch: np.ndarray) -> int:
    """Reorder the first ``live`` columns of the stack (b, low, odd, order)
    so that the columns flagged by ``moved`` come first; returns their
    count.  Each moved column behind that count swaps places with an
    unmoved one in front of it, so at most min(count, live - count) swap.
    b swaps as one (n*n, m) array, and odd and order with it; of the
    factor only the unmoved columns' lower rows are copied to their new
    places: the others are out of date or +0.0 (see :func:`_lll_rows`).
    The flat indices (numpy's fastest fancy indexing) and the values go
    through ``scratch``, a flat float64 buffer of (n + 4) * live entries,
    as many rows at a time as fit (mode="clip", a no-op on these valid
    indices, lets take write there directly)."""
    count = int(np.count_nonzero(moved))
    front = np.flatnonzero(~moved[:count])
    s = len(front)
    if s:
        b, low, odd, order = stack
        n, _, m = b.shape
        k = min(n * n, len(scratch) // (4 * s))  # rows per piece
        at = scratch[: 2 * k * s].view(np.intp).reshape(2, k, s)
        starts = np.arange(0, k * m, m)[:, None]
        np.add(starts, front, out=at[0])
        np.add(starts + count, np.flatnonzero(moved[count:live]), out=at[1])
        pieces = [(b.reshape(n * n, m), True), (odd[None], True), (order[None], True)]
        for x, swap in pieces + [(low[i, : i + 1], False) for i in range(n)]:
            for lo in range(0, len(x), k):
                part = x[lo : lo + k].reshape(-1)
                at_i, at_j = at.reshape(2, -1)[:, : len(part) // m * s]
                got_i, got_j = scratch[2 * k * s :].view(x.dtype)[: 2 * len(at_i)].reshape(2, -1)
                np.take(part, at_i, out=got_i, mode="clip")
                if swap:
                    np.take(part, at_j, out=got_j, mode="clip")
                    part[at_i] = got_j
                part[at_j] = got_i
    return count


def _lll_rows(stack, stale: int, delta: float, max_sweeps: int) -> Tuple[int, bool, int]:
    """One sweep-based row LLL pass over a component-major stack, in place.

    stack is (b, low, odd, order): b is a C-contiguous (n, n, m) float
    array, b[i, k]
    holding entry k of row i across the m matrices, so every row operation
    below is an elementwise update of contiguous stack-length vectors; low
    is the (n, n, m) lower Gram-Schmidt factor of b (as
    :func:`gram_schmidt_lower` writes it); odd flags the matrices whose swap
    count is odd, i.e. whose accumulated integer transform has determinant
    -1 (size reductions have determinant one, each swap minus one); order
    carries each column's position in the input stack.  The transform itself
    is not formed: no update of b reads it.  Above the diagonal low is +0.0
    in every column: the kernel writes those zeros, and no update here
    touches them.  The factors of the first
    ``stale`` columns are out of date and are refactored before the first
    sweep; every other column's is fresh.  At n <= 4 a float64 Gram-Schmidt
    carries enough precision for the size-reduction and swap decisions (the
    floating-point LLL analysis of Nguyen and Stehle's L^2).  One swap per
    matrix per sweep keeps the batched swaps independent.  The flagged
    matrices swap rows k-1 and k (:func:`_swap_where`): by a plain row swap
    through the sweep's scratch rows when the whole working set is flagged,
    and otherwise by a XOR swap of the rows' bits, whose mask is written
    over the Lovasz lhs row, dead once the flags are formed.

    Working set: a sweep in which a matrix meets no nonzero size-reduction
    coefficient and no swap leaves its basis unchanged, so it would make the
    same decisions in every later sweep of the pass.  Each sweep therefore
    factors and sweeps only the matrices the previous sweep changed, kept as
    a prefix of the stack: at the end of a sweep each changed matrix behind
    their count swaps places with an unchanged one in front of it (see
    :func:`_to_front`) and the rest leave the working set.  A matrix that
    leaves keeps the factor computed at the start of that sweep, which is
    still fresh: updates by q = +-0 leave low bit-identical, since no entry
    of a fresh factor is -0.0.  The first sweep runs over the whole stack.

    Returns (sweeps, converged, stale'): converged tells whether the last
    sweep was swap-free (False only when the pass stopped at max_sweeps),
    and the first stale' columns, the matrices the last sweep changed, hold
    out-of-date factors.
    """
    b, low, odd, _ = stack
    n, _, live = b.shape
    # the sweep's stack-length temporaries go into these workspace buffers,
    # viewed over the working set: temporaries that shrank with the working
    # set, sweep by sweep, fragmented the allocator's heap and raised the
    # peak resident memory of a run although less memory was in use; the
    # whole buffer is the reorder's scratch at the end of a sweep
    lll = workspace("lll", (4 + n, live))
    vec, rows_f = lll[:4], lll[4:]
    flags = workspace("lll_flags", (3, live), dtype=bool)
    sweeps = 0
    swapped = True
    for sweeps in range(1, max_sweeps + 1):
        if stale:
            gram_schmidt_lower(b[:, :, :stale], low[:, :, :stale])
        bw, lw = b[:, :, :live], low[:, :, :live]
        moved, pending, flag = flags[:, :live]
        q = vec[0, :live]
        fw = rows_f[:, :live]
        moved[...] = False
        # size-reduce row i against rows j < i, innermost first
        for i in range(1, n):
            for j in range(i - 1, -1, -1):
                np.round(np.divide(lw[i, j], lw[j, j], out=q), out=q)
                if not np.any(np.not_equal(q, 0.0, out=flag)):
                    continue
                bw[i] -= np.multiply(q, bw[j], out=fw)
                lw[i, : j + 1] -= np.multiply(q, lw[j, : j + 1], out=fw[: j + 1])
                moved |= flag
        # first violated swap position per matrix (Lovasz condition):
        # |b*_k|^2 + mu_k^2 |b*_k-1|^2 < delta (1 - 1e-14) |b*_k-1|^2
        swapped = False
        pending[...] = True
        mu, norm2_prev, lhs, rhs = vec[:, :live]
        for k in range(1, n):
            np.divide(lw[k, k - 1], lw[k - 1, k - 1], out=mu)
            np.square(lw[k - 1, k - 1], out=norm2_prev)
            np.square(lw[k, k], out=lhs)
            lhs += np.multiply(np.square(mu, out=mu), norm2_prev, out=mu)
            np.multiply(norm2_prev, delta, out=rhs)
            rhs *= 1.0 - 1e-14
            bad = np.less(lhs, rhs, out=flag)
            bad &= pending
            if _swap_where(bw[k - 1], bw[k], bad, lhs, fw):
                odd[:live] ^= bad
                pending &= ~bad
                swapped = True
        moved |= ~pending
        live = stale = _to_front(stack, moved, live, lll.reshape(-1))
        if not swapped:
            break
    return sweeps, not swapped, stale


def _reduce_stack(
    mats: np.ndarray, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two LLL passes (delta = 3/4, then delta just below 1) over the
    row-reversed (m, n, n) float64 stack mats, which is not written; returns
    (b, low, inverse).  b is the final basis, the row-reversed reps in
    component-major (n, n, m) layout, in the reducer's working order:
    column inverse[k] of b reduces matrix k (see :func:`_input_order`).  low
    is the lower Gram-Schmidt factor of b, already back in input order.

    Without ``out``, b and low are fresh arrays.  With it, low is ``out`` and
    b is the calling thread's ``"stack"`` workspace slot.  The parity, the
    working order, inverse and the reordering scratch are workspace slots in
    either case (see :func:`lingrp.workspace`), valid until the thread's
    next reduction; the parity fix below selects by bits through the
    ``"lll"`` slot, dead once the passes end.  The input is copied once into b: a view of a
    row-reversed component-major stack, as the sampling path passes, copies
    as contiguous rows, and a row-major stack by one transposing copy.

    The working basis b and the factor low are kept component-major,
    (n, n, m), through both passes, and each sweep of :func:`_lll_rows`
    factors only the matrices the previous sweep changed, reordering the
    stack to keep them in front; the factor's lower rows return to input
    order in place at the end.  The factor of the input, which sets the
    sweep budget, is the one the first sweep of pass 1 reads; pass 2 starts
    from the factors pass 1 left, refactoring only the matrices its last
    sweep changed, and so does the final factor, once the odd-parity
    matrices have row n-1 negated.  The final b is the row-reversed reps in
    component-major layout, so its factor comes without a transpose.
    """
    m, n, _ = mats.shape
    if out is None:
        b = mats[:, ::-1, :].transpose(1, 2, 0).copy()
        low = np.empty((n, n, m))
    else:
        b = workspace("stack", (n, n, m))
        np.copyto(b, mats[:, ::-1, :].transpose(1, 2, 0))
        low = out
    odd = workspace("parity", (m,), dtype=bool)
    odd[...] = False
    order = workspace("order", (m,), dtype=np.intp)
    order[...] = np.arange(m)
    stack = (b, low, odd, order)
    # the sweep budget, past which a warning reports slow convergence, grows
    # with the input's log condition number.  The Gram-Schmidt diagonal holds
    # the eigenvalues of the triangular factor, so its spread max/min bounds
    # cond_2 from below: this budget never exceeds the one cond_2 would set
    gram_schmidt_lower(b, low)
    diag = np.diagonal(low, axis1=0, axis2=1)
    spread = float(np.max(diag.max(axis=1) / diag.min(axis=1)))
    budget = int(8 * n * n * (1.0 + np.log10(max(spread, 1.0)))) + 16
    del diag
    s1, done1, stale = _lll_rows(stack, 0, 0.75, MAX_SWEEPS)
    s2, done2, stale = _lll_rows(stack, stale, 1.0 - 1e-9, MAX_SWEEPS)
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
    # after an odd number of swaps the (unformed) reducer has determinant
    # -1; negating row n-1 of the reversed basis, row 0 of reps, keeps the
    # reps in the coset of a determinant-one reducer.  Negating a row negates
    # its Gram-Schmidt coefficients exactly, and the kernel's sums 0.0 + c
    # give +0.0 for either sign of a zero c, hence 0.0 - low rather than
    # -low; the diagonal is a norm and stays.  Both go by bits through the
    # sweep buffer, dead once the passes end
    _negate_where(b[-1], low[-1, :-1], odd)
    gram_schmidt_lower(b[:, :, :stale], low[:, :, :stale])
    inverse = workspace("inverse", (m,), dtype=np.intp)
    inverse[order] = np.arange(m)
    _input_order(_factor_rows(low), inverse)
    return b, low, inverse


def _input_order(rows: Iterator[np.ndarray], inverse: np.ndarray) -> None:
    """Put stack-length rows in working order back in input order, in
    place: entry k moves from inverse[k] to k.  Each row goes through one
    stack-length scratch vector, so no second full-size copy is made."""
    scratch = workspace("restore", inverse.shape)
    for row in rows:
        np.take(row, inverse, out=scratch, mode="clip")
        row[:] = scratch


def _ratio_certified(low: np.ndarray) -> np.ndarray:
    # the triangular profile reads off bottom-up (n a k order), which is
    # Gram-Schmidt over the reversed rows: a_j = low[n-1-j, n-1-j]
    n = low.shape[0]
    ok = np.ones(low.shape[2], dtype=bool)
    for j in range(n - 1):
        ok &= low[n - 1 - j, n - 1 - j] / low[n - 2 - j, n - 2 - j] >= RATIO_MIN - 1e-9
    return ok


def reduce_siegel_batched(
    mats: np.ndarray, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce a (m, n, n) stack, which is not written; returns (reps, low).

    Each rep is gamma @ mat for an integer gamma of determinant one, which
    is not formed.  low is the component-major (n, n, m) lower Gram-Schmidt
    factor of the row-reversed reps, from which
    :func:`measures._reduce_into` reads the reduced coordinates; the
    certification below needs it anyway, so the reduced stack is factored
    once.  Without ``out`` both are fresh arrays the caller owns.

    ``out``, an (n, n, m) float64 array, receives the factor, in numpy's
    ``out=`` idiom, and is returned as low; the reps are then not kept: the
    working basis lives in the calling thread's workspace (see
    :func:`lingrp.workspace`), is not put back in input order, and reps is
    returned empty, (0, n, n).  ``out`` may share memory with mats, which is
    read once, into the working basis, before anything is written to
    ``out``.  This is the sampling path's call: it reads only the factor,
    and lets it overwrite the pushed stack.

    A basis whose rows live at wildly different scales can stall the float
    sweep: the Gram data of a row 1e16 times longer than a sibling drowns
    the sibling's coefficients in roundoff, and a final swap between two
    comparable short rows is skipped.  The representative is still correct
    at the large scales, so stacks that miss the certified diagonal floor
    are simply reduced again -- the second pass sees the collapsed basis,
    whose dynamic range is moderate.  Only the matrices reduced again are
    certified again.
    """
    mats = np.asarray(mats, dtype=float)
    m, n, _ = mats.shape
    if out is not None and (out.shape != (n, n, m) or out.dtype != float):
        raise ValueError(f"out must be a float64 array of shape {(n, n, m)}")
    if not m:  # no factor to set a sweep budget from, and nothing to reduce
        return np.empty((0, n, n)), np.empty((n, n, 0)) if out is None else out
    b, low, inverse = _reduce_stack(mats) if out is None else _reduce_stack(mats, out)
    bad = np.flatnonzero(~_ratio_certified(low))
    if out is None or bad.size:  # before another reduction takes the workspace
        _input_order(b.reshape(-1, m), inverse)
    reps = b[::-1].transpose(2, 0, 1)
    for attempt in range(2):
        if not bad.size:
            break
        fixed, fixed_low, fixed_inverse = _reduce_stack(reps[bad])
        reps[bad] = fixed[::-1].transpose(2, 0, 1)[fixed_inverse]
        low[:, :, bad] = fixed_low
        if attempt == 0:
            bad = bad[~_ratio_certified(fixed_low)]
    # keep the incrementally maintained basis as the representative: it
    # equals gamma @ mats in exact arithmetic, but a one-shot product would
    # cancel catastrophically once the reducing coefficients outgrow the
    # small lattice scales
    return (reps if out is None else reps[:0]), low


# ---------------------------------------------------------------------------
# bounded enumeration of the integer group


# the most candidate matrices enumerate_gamma tries: well under a second
_ENUM_CANDIDATES = 100_000


def enumerate_gamma(n: int, height: int) -> Iterator[np.ndarray]:
    """All integer n x n matrices of determinant one with max |entry| <=
    height, each exactly once, as int64 arrays.  It tries every one of the
    (2 * height + 1) ** (n * n) candidates, so it refuses with ValueError
    more than ``_ENUM_CANDIDATES`` of them (n = 2 up to height 8, n = 3 at
    height 1) rather than run for minutes or return a truncated search.

    >>> sum(1 for _ in enumerate_gamma(2, 1))
    20
    """
    if height < 1:
        return
    side = 2 * height + 1
    total = side ** (n * n)
    if total > _ENUM_CANDIDATES:
        raise ValueError(
            f"height {height} at n={n} gives {total} candidates, above the budget "
            f"{_ENUM_CANDIDATES}; results would be truncated"
        )
    chunk = 1 << 18
    offsets = np.arange(n * n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // side**offsets[None, :]) % side - height
        mats = digits.reshape(-1, n, n)
        dets = np.rint(np.linalg.det(mats.astype(float)))
        for mat in mats[dets == 1.0]:
            yield mat
