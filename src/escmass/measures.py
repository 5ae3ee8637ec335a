"""Catalog of arithmetically-clean subgroups, Haar samplers on their integer
quotients, the push of the samples by a group translate (right
multiplication), and empirical boundary statistics in reduced coordinates.

The sampler output and all reduced statistics are deterministic functions of
(spec, count, seed, translate): sampling happens in fixed-size chunks, each
driven by an RNG stream keyed (seed, chunk, factor), so parallel workers and
serial runs produce bit-identical results.

Measures are stored column-wise (coordinate arrays, not object lists): at the
sample counts the statistics need, per-point objects would cost gigabytes.
``stream_measures`` samples, pushes, reduces and folds chunk by chunk into
histogram counts and the first rows, so its memory does not grow with the
sample count unless every row is kept.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .lingrp import (
    ParabolicIndex,
    gram_schmidt_lower,
    iwasawa_batched,  # noqa: F401 - perfbench/tracing.py wraps this name here
    ordered_product,
    workspace,
)
from .qfield import int_inverse, rat_mul, unimodular
from .reduction import (
    RATIO_MIN,
    U_BOUND,
    WALK_BLOCK,
    reduce_siegel_batched,
    reduce_sl2_coords,
)

CHUNK = 1 << 16
Y_CAP_DEFAULT = 1.0e4
T_ESC_DEFAULT = 1.0e3
T_ESC_SWEEP = (1.0e2, 1.0e3, 1.0e4)
FLOOR_HEIGHT = math.sqrt(3.0) / 2.0

__all__ = [
    "SubgroupSpec",
    "EmpiricalMeasure",
    "BoundaryHistogram",
    "full_unipotent_radical",
    "levi_semisimple_nc",
    "embedded_sl2",
    "one_param_unipotent",
    "trivial_subgroup",
    "product_subgroup",
    "lie_generators",
    "empirical_measure",
    "stream_measures",
    "SamplingTimes",
    "boundary_histogram",
    "boundary_histograms",
    "truncation_bound",
    "conjugator_bits",
    "PrecisionBudgetError",
    "translate_log_stretch",
    "format_histogram",
    "Y_CAP_DEFAULT",
    "T_ESC_DEFAULT",
    "T_ESC_SWEEP",
]

IntMatrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class SubgroupSpec:
    """One entry of the subgroup catalog.

    Every kind here has an arithmetically-clean integer quotient of finite
    volume: the unipotent kinds by construction, the 2x2-block kinds because
    they are split over the rationals with no compact factor.  ``conjugator``
    moves the group by an integer element, which does not change the orbit
    measure downstairs.
    """

    kind: str
    n: int
    I: FrozenSet[int] = frozenset()
    coordinate: Optional[Tuple[int, int]] = None
    block: int = 0
    factors: Tuple["SubgroupSpec", ...] = ()
    conjugator: Optional[IntMatrix] = None

    @property
    def parts(self) -> Tuple["SubgroupSpec", ...]:
        """The factors of a product; a single-factor spec is a product of
        one factor, itself."""
        return self.factors or (self,)

    @property
    def shape(self) -> Tuple[int, int]:
        """(factor count, per-factor matrix size)."""
        return (len(self.parts), self.n)

    def describe(self) -> str:
        if self.kind == "product":
            inner = ", ".join(f.describe() for f in self.factors)
            return f"product({inner})"
        bits = {
            "full_unipotent_radical": lambda: f"I={sorted(self.I)}",
            "levi_semisimple_nc": lambda: f"root={min(self.I)}",
            "embedded_sl2": lambda: f"block={self.block}",
            "one_param_unipotent": lambda: f"coordinate={self.coordinate}",
            "trivial": lambda: "",
        }[self.kind]()
        conj = ", conjugated" if self.conjugator is not None else ""
        return f"{self.kind}(n={self.n}{', ' + bits if bits else ''}{conj})"


def _check_conjugator(conjugator, n) -> Optional[IntMatrix]:
    return None if conjugator is None else unimodular(conjugator, n, "conjugator")


# A conjugated sample gamma @ h @ gamma^-1 is formed in float64, which
# rounds each of its entries to about 2^-53 of max|gamma| * max|gamma^-1|
# (times the size of h), however small the entry itself is.  The float64
# budget lets a conjugator take at most MANTISSA_BITS - PRECISION_MARGIN_BITS
# = 23 bits of that size, so the rounding stays below 2^-30, about the 1e-9
# to which lingrp promises reconstruction.
MANTISSA_BITS = 53
PRECISION_MARGIN_BITS = 30


class PrecisionBudgetError(ValueError):
    """The float64 samples of a subgroup would carry too few reliable bits."""


def conjugator_bits(spec: SubgroupSpec) -> float:
    """log2 of max|gamma| * max|gamma^-1| over the conjugators gamma of the
    sampled factors of spec; 0.0 when no factor is conjugated."""
    bits = 0.0
    for fac in spec.parts:
        if fac.conjugator is not None:
            size = max(abs(v) for row in fac.conjugator for v in row)
            size_inv = max(abs(v) for row in int_inverse(fac.conjugator) for v in row)
            bits = max(bits, math.log2(size * size_inv))
    return bits


def _check_precision_budget(spec: SubgroupSpec) -> None:
    """Raise PrecisionBudgetError when a conjugator of spec takes more than
    the float64 budget."""
    bits = conjugator_bits(spec)
    budget = MANTISSA_BITS - PRECISION_MARGIN_BITS
    if bits > budget:
        raise PrecisionBudgetError(
            f"the subgroup conjugator takes {bits:.1f} bits (log2 of max|gamma| * "
            f"max|gamma^-1|), above the float64 budget of {budget} bits (the "
            f"{MANTISSA_BITS}-bit mantissa less a {PRECISION_MARGIN_BITS}-bit margin): "
            "float64 samples of the conjugated subgroup would be rounding noise"
        )


# A sample rounded to float64 is a rational point whose denominators reach
# 2^MANTISSA_BITS.  Pushing by a translate stretches the sampled directions
# by up to e^(r m), r the largest v_j - v_i over the sampled entries (i, j)
# of the direction v and m the index, and such a rational point reaches the
# cusp once r m > 2 * 53 ln 2 ~ 73.5: past that the samples' rounding, not
# the measure, decides where the pushed points sit.  The budget keeps
# TRANSLATE_MARGIN_BITS of the mantissa in reserve, 2 * 49 ln 2 ~ 67.9:
# sl3_levi_block (r = 9) runs to index 7, where the mass on its predicted
# label is still 0.99; at index 8 it is already down to 0.98.
TRANSLATE_MARGIN_BITS = 4


def translate_log_stretch(spec: SubgroupSpec, translates: Sequence) -> float:
    """r * m of a run: the log of the largest factor by which conjugation by
    a translate, X -> g^-1 X g, stretches a Lie generator of a sampled factor
    (max |entry| after over max |entry| before), over the factors and the
    translates.  For the diagonal translate exp(m v) of an unconjugated
    catalog subgroup this is m times the largest v_j - v_i over the sampled
    entries (i, j); 0.0 when nothing is stretched.  A translate that
    overflowed float64 (an inf or nan entry, or a determinant-one matrix
    that no longer inverts) stretches without bound: inf."""
    r, n = spec.shape
    logs = [0.0]
    with np.errstate(all="ignore"):
        for g in translates:
            for fac, g_f in zip(spec.parts, _translate_array(g, r, n)):
                if not np.all(np.isfinite(g_f)):
                    return math.inf
                gens = np.array(lie_generators(fac), dtype=float)
                if gens.size:
                    try:
                        moved = np.linalg.inv(g_f) @ gens @ g_f
                    except np.linalg.LinAlgError:
                        return math.inf
                    stretch = np.abs(moved).max(axis=(1, 2)) / np.abs(gens).max(axis=(1, 2))
                    logs.append(np.log(stretch).max())
    return float(np.max(logs))


def _check_translate_budget(spec: SubgroupSpec, translates: Sequence) -> None:
    """Raise PrecisionBudgetError when a translate stretches the samples of
    spec past the float64 budget."""
    used = translate_log_stretch(spec, translates)
    allowed = 2.0 * (MANTISSA_BITS - TRANSLATE_MARGIN_BITS) * math.log(2.0)
    if not used <= allowed:
        raise PrecisionBudgetError(
            f"the translate budget is exceeded: r*m = {used:.1f} used, {allowed:.1f} "
            f"allowed (r the largest v_j - v_i over the sampled entries, m the index; "
            f"2*{MANTISSA_BITS}*ln 2 = {2.0 * MANTISSA_BITS * math.log(2.0):.1f} less a "
            f"{TRANSLATE_MARGIN_BITS}-bit margin): float64 samples pushed this far reach "
            "the cusp through their rounding alone"
        )


def full_unipotent_radical(n: int, I: Sequence[int], conjugator=None) -> SubgroupSpec:
    iset = frozenset(I)
    if not all(0 <= i < n - 1 for i in iset):
        raise ValueError(f"root indices {sorted(iset)} out of range for n={n}")
    if len(iset) == n - 1:
        raise ValueError("the block structure is everything; that radical is trivial")
    return SubgroupSpec(
        "full_unipotent_radical", n, I=iset, conjugator=_check_conjugator(conjugator, n)
    )


def levi_semisimple_nc(n: int, alpha: int, conjugator=None) -> SubgroupSpec:
    if n not in (3, 4) or not 0 <= alpha < n - 1:
        raise ValueError(f"no catalog entry for a 2x2 Levi block at {alpha} in n={n}")
    return SubgroupSpec(
        "levi_semisimple_nc",
        n,
        I=frozenset({alpha}),
        block=alpha,
        conjugator=_check_conjugator(conjugator, n),
    )


def embedded_sl2(n: int, block: int = 0, conjugator=None) -> SubgroupSpec:
    if not 0 <= block <= n - 2:
        raise ValueError(f"block {block} does not fit in n={n}")
    return SubgroupSpec(
        "embedded_sl2", n, block=block, conjugator=_check_conjugator(conjugator, n)
    )


def one_param_unipotent(n: int, coordinate: Tuple[int, int], conjugator=None) -> SubgroupSpec:
    i, j = coordinate
    if not 0 <= i < j < n:
        raise ValueError(f"coordinate {coordinate} is not strictly upper in n={n}")
    return SubgroupSpec(
        "one_param_unipotent",
        n,
        coordinate=(i, j),
        conjugator=_check_conjugator(conjugator, n),
    )


def trivial_subgroup(n: int) -> SubgroupSpec:
    return SubgroupSpec("trivial", n)


def product_subgroup(factors: Sequence[SubgroupSpec]) -> SubgroupSpec:
    factors = tuple(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    for f in factors:
        if f.n != 2 or f.kind == "product":
            raise ValueError("product factors must be single 2x2 specs")
        if f.kind == "full_unipotent_radical":
            raise ValueError("use one_param_unipotent for a 2x2 factor line")
    return SubgroupSpec("product", 2, factors=factors)


# ---------------------------------------------------------------------------
# exact generators (for containment tests downstream)


def _basis_matrix(n: int, entries) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for (r, c), v in entries:
        rows[r][c] = v
    return tuple(tuple(row) for row in rows)


def lie_generators(spec: SubgroupSpec) -> List[IntMatrix]:
    """Exact integer basis of the Lie algebra of the described group,
    conjugated if the spec is: the catalog entries are 0 and +-1, and a
    conjugator is an integer matrix of determinant one, so every entry is
    an int.  Product specs go factor by factor."""
    if spec.kind == "product":
        raise ValueError("take generators per factor for product specs")
    n = spec.n
    if spec.kind == "trivial":
        gens: List = []
    elif spec.kind == "one_param_unipotent":
        gens = [_basis_matrix(n, [(spec.coordinate, 1)])]
    elif spec.kind == "full_unipotent_radical":
        coords = ParabolicIndex(n, spec.I).nilradical_coordinates()
        gens = [_basis_matrix(n, [((r, c), 1)]) for r, c in coords]
    elif spec.kind in ("levi_semisimple_nc", "embedded_sl2"):
        b = spec.block
        gens = [
            _basis_matrix(n, [((b, b + 1), 1)]),
            _basis_matrix(n, [((b + 1, b), 1)]),
            _basis_matrix(n, [((b, b), 1), ((b + 1, b + 1), -1)]),
        ]
    else:  # pragma: no cover - factories gate the kinds
        raise ValueError(f"unknown kind {spec.kind}")
    if spec.conjugator is not None and gens:
        inv = int_inverse(spec.conjugator)
        gens = [rat_mul(rat_mul(spec.conjugator, x), inv) for x in gens]
    return gens


# ---------------------------------------------------------------------------
# samplers


def _sample_modular_chunk(size: int, rng, y_cap: float) -> np.ndarray:
    """Hyperbolic-area samples of the standard fundamental domain truncated
    at y_cap, times a uniform rotation fiber, component-major: a (2, 2,
    size) array whose [i, k] row holds entry (i, k) of every sample.

    The points x + iy are drawn first, then every rotation angle in one
    call.  Each sample is the product of [[sqrt y, x / sqrt y], [0,
    1 / sqrt y]] with the rotation [[cos, -sin], [sin, cos]] by its angle,
    in :func:`lingrp.ordered_product`'s fixed order."""
    inv_span = 1.0 / FLOOR_HEIGHT - 1.0 / y_cap
    xs = np.empty(size)
    ys = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        u = rng.uniform(size=need)
        x = rng.uniform(-0.5, 0.5, size=need)
        y = 1.0 / (1.0 / FLOOR_HEIGHT - inv_span * u)
        keep = x * x + y * y >= 1.0
        kept = int(np.count_nonzero(keep))
        xs[filled : filled + kept] = x[keep]
        ys[filled : filled + kept] = y[keep]
        filled += kept
    theta = rng.uniform(0.0, 2.0 * np.pi, size=size)
    out = np.empty((2, 2, size))
    # the rotation's cos and -sin are held in the output's second row until
    # the first row is formed; the point's second row [0, 1 / sqrt y] then
    # scales the rotation's, in place: with one nonzero entry, each sum is a
    # single product
    cos = np.cos(theta, out=out[1, 1])
    sin = np.sin(theta, out=theta)
    rotation = [[cos, np.negative(sin, out=out[1, 0])], [sin, cos]]
    sq = np.sqrt(ys, out=ys)
    ordered_product([[sq, np.divide(xs, sq, out=xs)]], rotation, out[:1], np.empty(size))
    inv_sq = np.divide(1.0, sq, out=sq)
    np.multiply(inv_sq, sin, out=out[1, 0])
    np.multiply(inv_sq, cos, out=out[1, 1])
    return out


def _uniform_coordinates(spec: SubgroupSpec) -> List[Tuple[int, int]]:
    """The entries a unipotent kind samples uniformly, in stream order."""
    if spec.kind == "one_param_unipotent":
        return [spec.coordinate]
    return list(ParabolicIndex(spec.n, spec.I).nilradical_coordinates())


def _draw_factor_chunk(spec: SubgroupSpec, size: int, rng, y_cap: float) -> Optional[np.ndarray]:
    """The random part of one chunk of a factor's samples, and the only step
    that reads its RNG stream: (k, size) uniform columns for the k entries of
    a unipotent kind, the component-major (2, 2, size) modular blocks of a
    2x2-block kind, or None for a trivial factor, which draws nothing.
    Every draw holds its samples along its last axis, so draw[..., lo:hi]
    is the draw of samples lo to hi."""
    if spec.kind == "trivial":
        return None
    if spec.kind in ("one_param_unipotent", "full_unipotent_radical"):
        # one block draw reads the stream as one column after another would
        return rng.uniform(size=(len(_uniform_coordinates(spec)), size))
    if spec.kind in ("levi_semisimple_nc", "embedded_sl2"):
        return _sample_modular_chunk(size, rng, y_cap)
    raise ValueError(f"unknown kind {spec.kind}")  # pragma: no cover


def _embed_factor_chunk(spec: SubgroupSpec, draw: Optional[np.ndarray], size: int) -> np.ndarray:
    """The samples a draw of spec stands for, component-major: an (n, n,
    size) array whose [i, k] row holds entry (i, k) of every sample.  Each
    sample is the identity with the drawn entries or block written in,
    conjugated if spec is.  A 2x2 block that fills an unconjugated n = 2
    sample is returned as it was drawn, not copied; callers only read it.
    Any other chunk is written into the calling thread's ``"stack"``
    workspace slot (see :func:`lingrp.workspace`), valid until it is
    pushed.  A conjugated sample gamma @ h @ gamma^-1 is formed by two
    calls of :func:`lingrp.ordered_product`, the first into the ``"push"``
    slot, the second back over h, with the ``"gram_schmidt"`` slot as
    their scratch."""
    n = spec.n
    if n == 2 and spec.kind == "embedded_sl2" and spec.conjugator is None:
        return draw
    out = workspace("stack", (n, n, size))
    out[...] = 0.0
    for i in range(n):
        out[i, i] = 1.0
    if spec.kind in ("one_param_unipotent", "full_unipotent_radical"):
        for (r, c), column in zip(_uniform_coordinates(spec), draw):
            out[r, c] = column
    elif spec.kind in ("levi_semisimple_nc", "embedded_sl2"):
        b = spec.block
        out[b : b + 2, b : b + 2] = draw
    if spec.conjugator is not None:
        gamma = np.array(spec.conjugator, dtype=float)
        inv = np.array(int_inverse(spec.conjugator), dtype=float)
        prod = workspace("gram_schmidt", (size,))
        left = ordered_product(gamma, out, workspace("push", (n, n, size)), prod)
        ordered_product(left, inv, out, prod)
    return out


def _chunk_plan(count: int) -> Iterator[Tuple[int, int]]:
    for ci in range((count + CHUNK - 1) // CHUNK):
        yield ci, min(CHUNK, count - ci * CHUNK)


def _translate_array(g, r: int, n: int) -> np.ndarray:
    """A translate as its (r, n, n) per-factor array; an (n, n) array stands
    for the one factor of a non-product spec."""
    arr = np.asarray(g, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.shape != (r, n, n):
        raise ValueError(f"translate shape {arr.shape} does not match ({r},{n},{n})")
    return arr


# ---------------------------------------------------------------------------
# empirical measures


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniformly-weighted reduced sample cloud, stored column-wise: the
    first rows of a measure of ``sample_count`` samples, or every row of it
    when ``len(log_a) == sample_count``.

    ``log_a`` has shape (rows, factors, n); ``u_coords`` has shape
    (rows, factors, n(n-1)/2).  These are the coordinates of the reduced
    representatives; the integer reducers that take each pushed sample to
    its representative are not formed.  :func:`stream_measures` stores
    them factor-major: both are transposed views of (factors, n, rows) and
    (factors, n(n-1)/2, rows) buffers, so each coordinate's values over the
    samples are contiguous.  The log character value of simple root j of
    factor f is the difference of adjacent columns, log_a[:, f, j] -
    log_a[:, f, j + 1].  ``escmass run`` keeps the first rows only.
    """

    log_a: np.ndarray
    u_coords: np.ndarray
    sample_count: int


def truncation_bound(spec: SubgroupSpec, y_cap: float) -> float:
    """Relative Haar mass lost to the sampler's height truncation: the
    largest over the factors, 3 / (pi y_cap) for a 2x2-block factor."""
    return max(
        3.0 / (np.pi * y_cap) if f.kind in ("levi_semisimple_nc", "embedded_sl2") else 0.0
        for f in spec.parts
    )


def _right_multiply(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The push h @ g of a component-major (n, n, m) stack by one (n, n)
    matrix g, written as the row-reversed component-major stack the
    reduction reads: out[n-1-i] is row i of every pushed sample.  The
    product is :func:`lingrp.ordered_product`'s, so its bits do not depend
    on the BLAS kernel.  It is written into the calling thread's ``"push"``
    workspace slot (see :func:`lingrp.workspace`), valid until the slot is
    next requested, with the ``"gram_schmidt"`` slot as its scratch."""
    n, _, m = rows.shape
    out = workspace("push", (n, n, m))
    return ordered_product(rows[::-1], g, out, workspace("gram_schmidt", (m,)))


def _reduce_into(rev: np.ndarray, log_a: np.ndarray, u_coords: np.ndarray) -> None:
    """Reduce the row-reversed component-major (n, n, m) pushed stack and
    write its coordinates into the rows of the (n, m) array log_a and the
    (n(n-1)/2, m) array u_coords.  For n = 3, 4 the stack is consumed: the
    reducer copies it into its working basis and then writes the reduced
    factor into its memory.  For n = 2 the factor goes into the calling
    thread's ``"stack"`` workspace slot (see :func:`lingrp.workspace`),
    whose embedded samples the push has read by then: the kernel zeroes a
    row of its output before it reads that row of its input, so the factor
    cannot overwrite the pushed stack."""
    n, _, m = rev.shape
    if n in (3, 4):
        # the reducer reads the (m, n, n) view, copies it once and writes the
        # factor of the reduced stack over it; the coordinates are read off
        # the factor's diagonal, a_j = low[n-1-j, n-1-j], and its divisions
        # u_ij = low[n-1-i, n-1-j] / a_j, which lingrp.iwasawa_batched
        # performs too, computed into the output rows
        _, low = reduce_siegel_batched(rev[::-1].transpose(2, 0, 1), out=rev)
        for j in range(n):
            np.log(low[n - 1 - j, n - 1 - j], out=log_a[j])
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for col, (i, j) in enumerate(upper):
            np.divide(low[n - 1 - i, n - 1 - j], low[n - 1 - j, n - 1 - j], out=u_coords[col])
        return
    # the half-plane point z = x + iy of the n-a-k split, computed into the
    # output rows, x = u_01 and y = a_0 / a_1, and reduced there
    low = workspace("stack", (n, n, m))
    gram_schmidt_lower(rev, low)
    x = np.divide(low[1, 0], low[0, 0], out=u_coords[0])
    y = np.divide(low[1, 1], low[0, 0], out=log_a[0])
    reduce_sl2_coords(x, y)
    half = np.multiply(np.log(y, out=y), 0.5, out=y)
    np.negative(half, out=log_a[1])


@dataclass
class SamplingTimes:
    """Wall seconds of one sampling pass: ``draw`` for the draws all
    translates share, ``push_reduce[k]`` for embedding, pushing and
    reducing translate k's samples."""

    draw: float = 0.0
    push_reduce: List[float] = field(default_factory=list)


def stream_measures(
    spec: SubgroupSpec,
    translates: Sequence,
    count: int,
    seed: int,
    thresholds: Sequence[float],
    keep: int,
    y_cap: float = Y_CAP_DEFAULT,
    executor=None,
    times: Optional[SamplingTimes] = None,
) -> List[Tuple[List[BoundaryHistogram], EmpiricalMeasure]]:
    """Sample the subgroup once, push the sample by every translate, reduce,
    and fold each translate's measure chunk by chunk into what ``escmass
    run`` writes: the boundary histograms at each of the thresholds, in
    their order, and the measure's first ``keep`` rows.  Memory grows with
    ``keep``, not with the count.

    For each chunk every factor is drawn from its (seed, chunk, factor)
    stream, never keyed by translate; then, for each translate, every
    factor is embedded, pushed and reduced into the calling thread's
    ``"coords"`` workspace slot (see :func:`lingrp.workspace`): lattice
    reduction for n = 3, 4, the half-plane walk for n = 2.  The embedded,
    pushed and factored stacks and the reducers' scratch live in the
    reducing thread's workspace too, each starting on a 64-byte cache
    line (a 2x2 draw that fills an n = 2 sample is pushed as it was
    drawn).  Each reduced block is checked
    against the Siegel bounds and folded: its depth-code tables
    (see :func:`boundary_histograms`) are added to the translate's, and its
    rows below ``keep`` are copied into the translate's factor-major head.
    The tables hold integer counts, so the histograms are those of
    :func:`boundary_histograms` on the whole measure, bit for bit.  No
    result is a view of a workspace.

    For n = 2 a block is ``WALK_BLOCK`` columns: the block's columns of
    each factor's draw are embedded, pushed, factored and walked into the
    block's rows, so no stack of the path is larger than a block.  Every
    step is per column, so blocking changes no bit.  For n = 3, 4 the block
    is the whole chunk: the LLL pays a fixed cost per sweep whatever the
    width of its stack.  A ``trivial`` factor draws nothing: its one matrix
    is pushed and reduced once per translate, before the first chunk, and
    broadcast into each block's rows (the reduction of a matrix does not
    depend on the stack it comes in, so this changes no bit).  Without an
    ``executor`` the draws are dropped, factor by factor, before the last
    translate's last block is reduced.  With one (a
    concurrent.futures.Executor) each chunk runs one task per translate,
    which folds only its own translate's blocks, submitted largest
    translate_log_stretch first, and the chunk's draws are held until every
    task is done; every output bit is the same.
    ``times``, when given, receives the wall times.

    Raises ValueError, before drawing, on a threshold at or below the
    reduced-domain floor, a count below one, a y_cap at or below the floor
    sqrt(3)/2 of the fundamental domain, where the modular sampler would
    accept no point, or a matrix size n other than 2, 3 and 4; and
    PrecisionBudgetError when a conjugator of spec takes more than the
    float64 budget (see conjugator_bits) or a translate stretches the
    samples past it (see translate_log_stretch).
    """
    _check_thresholds(thresholds)
    if not count >= 1:
        raise ValueError(f"the sample count must be at least 1, not {count}")
    if not y_cap > FLOOR_HEIGHT:
        raise ValueError(f"y_cap must exceed the domain floor sqrt(3)/2, not {y_cap}")
    if spec.n not in (2, 3, 4):
        raise ValueError(f"the sampler reduces n = 2, 3 or 4, not n = {spec.n}")
    _check_precision_budget(spec)
    r, n = spec.shape
    d = n * (n - 1) // 2
    g_arrs = [_translate_array(g, r, n) for g in translates]
    _check_translate_budget(spec, g_arrs)
    if executor is not None:
        # the more a translate stretches the samples, the longer their
        # reduction runs: the pool starts on the dearest translates first
        stretch = [translate_log_stretch(spec, [g]) for g in g_arrs]
        by_cost = sorted(range(len(g_arrs)), key=lambda k: (stretch[k], k), reverse=True)
    last = len(g_arrs) - 1
    times = SamplingTimes() if times is None else times
    times.push_reduce = [0.0] * len(g_arrs)
    kept = min(keep, count)
    sweeps = [_SweepTables(thresholds, r * (n - 1)) for _ in g_arrs]
    # each translate's factor-major first rows, allocated at its first fold
    heads: List[Optional[tuple]] = [None] * len(g_arrs)

    def push(k: int, f: int, fac: SubgroupSpec, draw, size: int) -> np.ndarray:
        return _right_multiply(_embed_factor_chunk(fac, draw, size), g_arrs[k][f])

    # each translate's reduced identity, per trivial factor: (n, 1) and
    # (n(n-1)/2, 1) columns
    trivial: List[Dict[int, tuple]] = []
    for k in range(len(g_arrs)):
        t0 = time.monotonic()
        trivial.append({})
        for f, fac in enumerate(spec.parts):
            if fac.kind == "trivial":
                one = np.empty((n, 1)), np.empty((d, 1))
                _reduce_into(push(k, f, fac, None, 1), *one)
                trivial[k][f] = one
        times.push_reduce[k] += time.monotonic() - t0

    def push_reduce(k: int, start: int, size: int, draws: list, drop: bool) -> None:
        step = WALK_BLOCK if n == 2 else size
        for lo in range(0, size, step):
            hi = min(lo + step, size)
            t0 = time.monotonic()
            buf = workspace("coords", (r, n + d, hi - lo))
            log_a, u_coords = buf[:, :n], buf[:, n:]
            for f, fac in enumerate(spec.parts):
                if f in trivial[k]:
                    log_a[f], u_coords[f] = trivial[k][f]
                    continue
                pushed = push(k, f, fac, draws[f][..., lo:hi], hi - lo)
                if drop and hi == size:  # a one-translate call holds nothing extra
                    draws[f] = None
                _reduce_into(pushed, log_a[f], u_coords[f])
                del pushed
            times.push_reduce[k] += time.monotonic() - t0
            _assert_reduced(log_a, u_coords)
            if heads[k] is None:
                heads[k] = (np.empty((r, n, kept)), np.empty((r, d, kept)))
            sweeps[k].add(log_a)
            first, stop = start + lo, min(start + hi, kept)
            if first < stop:  # the kept rows may span several chunks
                for head, block in zip(heads[k], (log_a, u_coords)):
                    head[:, :, first:stop] = block[:, :, : stop - first]

    for ci, size in _chunk_plan(count):
        t0 = time.monotonic()
        draws = [
            None if fac.kind == "trivial"
            else _draw_factor_chunk(fac, size, np.random.default_rng([seed, ci, f]), y_cap)
            for f, fac in enumerate(spec.parts)
        ]
        times.draw += time.monotonic() - t0
        if executor is not None:
            tasks = [
                executor.submit(push_reduce, k, ci * CHUNK, size, draws, False)
                for k in by_cost
            ]
            for task in tasks:
                task.result()
            continue
        for k in range(len(g_arrs)):
            push_reduce(k, ci * CHUNK, size, draws, k == last)
    return [
        (sweep.histograms(), EmpiricalMeasure(
            log_a.transpose(2, 0, 1), u_coords.transpose(2, 0, 1), count
        ))
        for sweep, (log_a, u_coords) in zip(sweeps, heads)
    ]


def empirical_measure(
    spec: SubgroupSpec,
    g,
    count: int,
    seed: int,
    y_cap: float = Y_CAP_DEFAULT,
) -> EmpiricalMeasure:
    """Sample the subgroup, push by g, reduce, and keep every row:
    :func:`stream_measures` for the one translate g, with no thresholds."""
    return stream_measures(spec, [g], count, seed, (), keep=count, y_cap=y_cap)[0][1]


# Above this diagonal ratio the u_ij entry of a reduced frame carries fewer
# than a handful of mantissa bits: the component of the long row along the
# short one sits at relative scale 1/ratio and is rounded away when the
# translated matrix is formed, long before any basis reduction runs.  The
# diagonal part -- everything the escape statistics read -- is unaffected.
_LOG_RATIO_SEEN = 40.0 * math.log(2.0)


def _log_floor(bound: float) -> float:
    """One ulp above the least float t with exp(t) >= bound.  A log
    difference d >= _log_floor(bound) has exp(d) >= bound, so comparing d
    with it is at least as strict as comparing exp(d) with bound, and the
    extra ulp spends any rounding slack of exp in the check's favour."""
    t = math.log(bound)
    while np.exp(t) < bound:
        t = np.nextafter(t, np.inf)
    while np.exp(np.nextafter(t, -np.inf)) >= bound:
        t = np.nextafter(t, -np.inf)
    return float(np.nextafter(t, np.inf))


# the log floor of the reduced diagonal ratios, see _assert_reduced
_LOG_RATIO_FLOOR = _log_floor(RATIO_MIN - 1e-9)


def _assert_reduced(log_a: np.ndarray, u_coords: np.ndarray) -> None:
    """Check the factor-major (factors, n, m) log_a and (factors,
    n(n-1)/2, m) u_coords of a reduced block against the Siegel bounds."""
    n = log_a.shape[1]
    # the log diagonal ratios against a log floor: no exp over the samples
    if not np.all(log_a[:, :-1] - log_a[:, 1:] >= _LOG_RATIO_FLOOR):
        raise RuntimeError("reduced diagonal escaped the target bounds")
    if n == 2:
        if not np.all(np.abs(u_coords) <= U_BOUND):
            raise RuntimeError("reduced off-diagonals escaped the target bounds")
        return
    # every slack below is at least 1e-9, so a block inside this bound
    # passes the per-pair test; a NaN fails it and goes on to that test
    if np.all(np.abs(u_coords) <= U_BOUND + 1e-9):
        return
    iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
    eps = float(np.finfo(float).eps)
    for col, (i, j) in enumerate(iu):
        log_ratio = log_a[:, i] - log_a[:, j]
        seen = log_ratio <= _LOG_RATIO_SEEN
        # float size reduction guarantees |u| <= 1/2 only up to O(eps * ratio)
        slack = 1e-9 + 8.0 * eps * np.exp(np.minimum(log_ratio, _LOG_RATIO_SEEN))
        # unseen samples pass; a NaN fails wherever it is seen
        if not np.all((np.abs(u_coords[:, col]) <= U_BOUND + slack) | ~seen):
            raise RuntimeError("reduced off-diagonals escaped the target bounds")


# ---------------------------------------------------------------------------
# boundary statistics


@dataclass(frozen=True)
class BoundaryHistogram:
    """Mass per component label.  A label is the set of simple roots whose
    reduced character value stayed at or below the threshold; the full set
    labels the interior (nothing escaped)."""

    mass: Dict[FrozenSet[int], float]
    threshold: float
    rank: int

    def fraction(self, label) -> float:
        return self.mass.get(frozenset(label), 0.0)

    def argmax(self) -> FrozenSet[int]:
        return max(sorted(self.mass, key=lambda s: tuple(sorted(s))), key=self.mass.get)


# Largest count table one pass of boundary_histograms builds; a sweep whose
# table would be larger is histogrammed a few thresholds at a time.
HISTOGRAM_TABLE = 1 << 16


def _check_thresholds(thresholds: Sequence[float]) -> None:
    for t in thresholds:
        if not t > 2.0 / np.sqrt(3.0):
            raise ValueError("threshold must sit above the reduced-domain floor")


class _SweepTables:
    """The depth-code tables of a threshold sweep (see
    :func:`boundary_histograms`), summed over the parts of a measure they
    are added from: the counts are integers, so their order of addition
    does not matter."""

    def __init__(self, thresholds: Sequence[float], rank: int):
        self.thresholds = tuple(thresholds)
        self.rank = rank
        log_ts = np.log(np.asarray(self.thresholds, dtype=float))
        # sorted and distinct; np.unique was seen to raise the peak resident
        # memory of a run by about half a megabyte
        levels = np.array(sorted(set(log_ts.tolist())))
        self.at = np.searchsorted(levels, log_ts)
        per_pass = 1
        while per_pass < len(levels) and (per_pass + 2) ** rank <= max(HISTOGRAM_TABLE, 1 << rank):
            per_pass += 1
        self.passes = [levels[s : s + per_pass] for s in range(0, len(levels), per_pass)]
        self.tables = [np.zeros((len(lv) + 1) ** rank, dtype=np.intp) for lv in self.passes]
        self.count = 0

    def add(self, log_a: np.ndarray) -> None:
        """Add the codes of the factor-major (factors, n, m) log_a."""
        for table, levels in zip(self.tables, self.passes):
            table += _depth_table(log_a, levels)
        self.count += log_a.shape[-1]

    def histograms(self) -> List[BoundaryHistogram]:
        masses: List[Dict[FrozenSet[int], float]] = []
        for table, levels in zip(self.tables, self.passes):
            masses += _label_masses(table, len(levels), self.rank, self.count)
        return [
            BoundaryHistogram(mass=dict(masses[k]), threshold=t, rank=self.rank)
            for t, k in zip(self.thresholds, self.at)
        ]


def boundary_histograms(
    m: EmpiricalMeasure, thresholds: Sequence[float]
) -> List[BoundaryHistogram]:
    """:func:`boundary_histogram` at each of the thresholds, in their order,
    from one pass over the samples.

    Each root's depth is the number of (distinct) thresholds it stays at or
    below; root i belongs to the label of the k-th smallest threshold exactly
    when its depth is at least T - k.  The depths pack into one small-integer
    code per sample, digit i for root i in base T + 1, and one ``bincount``
    of the codes gives the table from which every threshold's label counts
    are summed.  The masses are those counts over the sample count, the
    floats a one-threshold histogram gives.  When (T + 1)^rank would pass
    ``HISTOGRAM_TABLE``, the thresholds are split into runs of consecutive
    ones that fit (one threshold at a time always does).  The whole measure
    makes one table per run here; :func:`stream_measures` adds up the
    tables of its chunks.

    Raises ValueError on a threshold at or below the reduced-domain floor,
    and on a measure that holds only its first rows: their histogram is not
    the measure's.
    """
    _check_thresholds(thresholds)
    if len(m.log_a) != m.sample_count:
        raise ValueError(f"the measure holds {len(m.log_a)} of its {m.sample_count} rows")
    log_a = m.log_a.transpose(1, 2, 0)
    sweep = _SweepTables(thresholds, log_a.shape[0] * (log_a.shape[1] - 1))
    sweep.add(log_a)
    return sweep.histograms()


def _depth_table(log_a: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The table of depth codes (see :func:`boundary_histograms`) of the
    factor-major (factors, n, m) log_a at the sorted, distinct log
    thresholds ``levels``: (len(levels) + 1)^rank counts.  Root i is the
    difference of rows j and j + 1 of factor f, i = f (n - 1) + j: the
    simple roots factor by factor, as a label numbers them."""
    r, n, count = log_a.shape
    rank, base = r * (n - 1), len(levels) + 1
    size = base**rank
    codes = np.zeros(count, dtype=np.uint8 if size <= 256 else np.intp)
    stays = np.empty(count, dtype=bool)
    root = np.empty(count)
    for i in reversed(range(rank)):
        f, j = divmod(i, n - 1)
        np.subtract(log_a[f, j], log_a[f, j + 1], out=root)
        codes *= base
        for level in levels:
            codes += np.less_equal(root, level, out=stays)
    return np.bincount(codes, minlength=size)


def _label_masses(
    table: np.ndarray, n_levels: int, rank: int, count: int
) -> List[Dict[FrozenSet[int], float]]:
    """Label masses at each of ``n_levels`` sorted thresholds, from the depth
    codes' table of ``count`` samples (see :func:`_depth_table`)."""
    base = n_levels + 1
    seen = np.flatnonzero(table)
    depths = seen // base ** np.arange(rank)[:, None] % base  # (rank, seen)
    bits = 1 << np.arange(rank)[:, None]
    out = []
    for k in range(n_levels):
        # bit i of a label code is set when root i stayed at or below the
        # threshold, as in a one-threshold histogram
        label_codes = ((depths >= n_levels - k) * bits).sum(axis=0)
        by_label = np.zeros(1 << rank, dtype=np.int64)
        np.add.at(by_label, label_codes, table[seen])
        mass: Dict[FrozenSet[int], float] = {}
        for code in np.flatnonzero(by_label):
            label = frozenset(i for i in range(rank) if code >> i & 1)
            mass[label] = by_label[code] / count
        total = sum(mass.values())
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(f"histogram mass {total} != 1")
        out.append(mass)
    return out


def boundary_histogram(m: EmpiricalMeasure, t_esc: float = T_ESC_DEFAULT) -> BoundaryHistogram:
    """Empirical mass over component labels at escape threshold t_esc."""
    return boundary_histograms(m, [t_esc])[0]


def interior_label(rank: int) -> FrozenSet[int]:
    """The label of the interior: every simple root stayed."""
    return frozenset(range(rank))


def label_text(label: FrozenSet[int], rank: int) -> str:
    """A label as the outputs spell it: ``interior``, or its sorted simple
    roots, as ``(0,2)``."""
    if label == interior_label(rank):
        return "interior"
    return "(" + ",".join(str(i) for i in sorted(label)) + ")"


def format_histogram(h: BoundaryHistogram) -> str:
    """Structured text record: one 'label mass' line per observed label."""
    lines = [f"# threshold={h.threshold:g} rank={h.rank}"]
    for label in sorted(h.mass, key=lambda s: (len(s), tuple(sorted(s)))):
        lines.append(f"{label_text(label, h.rank)} {h.mass[label]:.6f}")
    return "\n".join(lines) + "\n"
