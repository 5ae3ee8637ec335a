"""Catalog of arithmetically-clean subgroups, Haar samplers on their integer
quotients, pushforward by a group translate, and empirical boundary statistics
in reduced coordinates.

The sampler output and all reduced statistics are deterministic functions of
(spec, count, seed, translate): sampling happens in fixed-size chunks, each
driven by an RNG stream keyed (seed, chunk, factor), so parallel workers and
serial runs produce bit-identical results.

Measures are stored column-wise (coordinate arrays, not object lists): at the
sample counts the statistics need, per-point objects would cost gigabytes.
``iter_points`` materializes classical per-point records on demand, with the
orthogonal factor quotiented away (representatives are only ever defined up to
right rotation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .lingrp import (
    GroupElement,
    LanglandsParts,
    ParabolicIndex,
    gram_schmidt_components,
    iwasawa_batched,  # noqa: F401 - perfbench/tracing.py wraps this name here
    iwasawa_coordinates,
)
from .qfield import int_det, int_inverse, rat_mul
from .reduction import (
    ReducedPoint,
    reduce_siegel_batched,
    reduce_sl2_coords,
    siegel_default,
)

CHUNK = 1 << 16
Y_CAP_DEFAULT = 1.0e4
T_ESC_DEFAULT = 1.0e3
T_ESC_SWEEP = (1.0e2, 1.0e3, 1.0e4)
FLOOR_HEIGHT = math.sqrt(3.0) / 2.0

KINDS = (
    "full_unipotent_radical",
    "levi_semisimple_nc",
    "embedded_sl2",
    "one_param_unipotent",
    "trivial",
    "product",
)

__all__ = [
    "SubgroupSpec",
    "EmpiricalMeasure",
    "BoundaryHistogram",
    "CoordinateWindow",
    "full_unipotent_radical",
    "levi_semisimple_nc",
    "embedded_sl2",
    "one_param_unipotent",
    "trivial_subgroup",
    "product_subgroup",
    "lie_generators",
    "sample_subgroup",
    "sample_subgroup_array",
    "pushforward",
    "pushforward_array",
    "empirical_measure",
    "boundary_histogram",
    "window_mass",
    "truncation_bound",
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
    def shape(self) -> Tuple[int, int]:
        """(factor count, per-factor matrix size)."""
        if self.kind == "product":
            return (len(self.factors), 2)
        return (1, self.n)

    @property
    def is_unipotent(self) -> bool:
        if self.kind == "product":
            return all(f.is_unipotent for f in self.factors)
        return self.kind in ("full_unipotent_radical", "one_param_unipotent", "trivial")

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
    if conjugator is None:
        return None
    rows = tuple(tuple(int(v) for v in row) for row in conjugator)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"conjugator must be {n}x{n}")
    if int_det(rows) != 1:
        raise ValueError("conjugator must be integral of determinant one")
    return rows


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


def _basis_matrix(n: int, entries) -> Tuple[Tuple[Fraction, ...], ...]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), v in entries:
        rows[r][c] = Fraction(v)
    return tuple(tuple(row) for row in rows)


def lie_generators(spec: SubgroupSpec) -> List[Tuple[Tuple[Fraction, ...], ...]]:
    """Exact rational basis of the Lie algebra of the described group,
    conjugated if the spec is.  Product specs go factor by factor."""
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
        gamma = tuple(tuple(Fraction(v) for v in row) for row in spec.conjugator)
        inv = int_inverse(spec.conjugator)
        gens = [rat_mul(rat_mul(gamma, x), inv) for x in gens]
    return gens


# ---------------------------------------------------------------------------
# samplers


def _rotation(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def _sample_modular_chunk(size: int, rng, y_cap: float) -> np.ndarray:
    """Hyperbolic-area samples of the standard fundamental domain truncated
    at y_cap, times a uniform rotation fiber; returns (size, 2, 2)."""
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
    sq = np.sqrt(ys)
    upper = np.zeros((size, 2, 2))
    upper[:, 0, 0] = sq
    upper[:, 0, 1] = xs / sq
    upper[:, 1, 1] = 1.0 / sq
    return upper @ _rotation(rng.uniform(0.0, 2.0 * np.pi, size=size))


def _sample_factor_chunk(spec: SubgroupSpec, size: int, rng, y_cap: float) -> np.ndarray:
    n = spec.n
    out = np.tile(np.eye(n), (size, 1, 1))
    if spec.kind == "trivial":
        pass
    elif spec.kind == "one_param_unipotent":
        i, j = spec.coordinate
        out[:, i, j] = rng.uniform(size=size)
    elif spec.kind == "full_unipotent_radical":
        for r, c in ParabolicIndex(n, spec.I).nilradical_coordinates():
            out[:, r, c] = rng.uniform(size=size)
    elif spec.kind in ("levi_semisimple_nc", "embedded_sl2"):
        b = spec.block
        out[:, b : b + 2, b : b + 2] = _sample_modular_chunk(size, rng, y_cap)
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {spec.kind}")
    if spec.conjugator is not None:
        gamma = np.array(spec.conjugator, dtype=float)
        out = gamma @ out @ np.array(int_inverse(spec.conjugator), dtype=float)
    return out


def _chunk_plan(count: int) -> Iterator[Tuple[int, int]]:
    for ci in range((count + CHUNK - 1) // CHUNK):
        yield ci, min(CHUNK, count - ci * CHUNK)


def sample_subgroup_array(
    spec: SubgroupSpec, count: int, seed: int, y_cap: float = Y_CAP_DEFAULT
) -> np.ndarray:
    """(count, factors, n, n) Haar samples of the integer quotient of the
    described group; deterministic in (spec, count, seed)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    r, n = spec.shape
    factors = spec.factors if spec.kind == "product" else (spec,)
    out = np.empty((count, r, n, n))
    for ci, size in _chunk_plan(count):
        lo = ci * CHUNK
        for f, fac in enumerate(factors):
            rng = np.random.default_rng([seed, ci, f])
            out[lo : lo + size, f] = _sample_factor_chunk(fac, size, rng, y_cap)
    return out


def sample_subgroup(
    spec: SubgroupSpec, count: int, seed: int, y_cap: float = Y_CAP_DEFAULT
) -> List:
    """Object form of :func:`sample_subgroup_array`: a list of GroupElement
    (or per-factor tuples of them, for products)."""
    arr = sample_subgroup_array(spec, count, seed, y_cap)
    r = arr.shape[1]
    if r == 1:
        return [GroupElement(arr[i, 0]) for i in range(len(arr))]
    return [
        tuple(GroupElement(arr[i, f], factor=f) for f in range(r))
        for i in range(len(arr))
    ]


def pushforward_array(samples: np.ndarray, g: np.ndarray) -> np.ndarray:
    return samples @ g


def _translate_array(g, r: int, n: int) -> np.ndarray:
    if g is None:
        return np.tile(np.eye(n), (r, 1, 1))
    if isinstance(g, GroupElement):
        g = (g,)
    if isinstance(g, (list, tuple)) and g and isinstance(g[0], GroupElement):
        arr = np.stack([e.mat for e in g])
    else:
        arr = np.asarray(g, dtype=float)
        if arr.ndim == 2:
            arr = arr[None]
    if arr.shape != (r, n, n):
        raise ValueError(f"translate shape {arr.shape} does not match ({r},{n},{n})")
    return arr


def pushforward(samples: Sequence, g) -> List:
    """Right-translate each sample by g (GroupElement, or per-factor tuple)."""
    out = []
    for h in samples:
        if isinstance(h, GroupElement):
            out.append(h @ (g if isinstance(g, GroupElement) else g[0]))
        else:
            out.append(tuple(hf @ gf for hf, gf in zip(h, g)))
    return out


# ---------------------------------------------------------------------------
# empirical measures


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniformly-weighted reduced sample cloud, stored column-wise.

    ``log_a`` has shape (count, factors, n); ``u_coords`` has shape
    (count, factors, n(n-1)/2); ``gammas`` carries the integer reducers when
    the reduction path tracks them (n = 3, 4), else None.
    """

    spec: SubgroupSpec
    log_a: np.ndarray
    u_coords: np.ndarray
    gammas: Optional[np.ndarray]
    seed: int
    sample_count: int
    y_cap: float
    truncation: float

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.sample_count, 1.0 / self.sample_count)

    @property
    def factor_count(self) -> int:
        return self.log_a.shape[1]

    @property
    def n(self) -> int:
        return self.log_a.shape[2]

    def root_log_values(self) -> np.ndarray:
        """(count, total roots) log character values of the reduced diagonal,
        factors concatenated."""
        diffs = self.log_a[:, :, :-1] - self.log_a[:, :, 1:]
        return diffs.reshape(self.sample_count, -1)

    def iter_points(self) -> Iterator[ReducedPoint]:
        """Materialize per-point records (single-factor, tracked-reducer
        measures only).  The representative is the triangular part n @ a; the
        rotation has been quotiented away, as the coset allows."""
        if self.factor_count != 1 or self.gammas is None:
            raise ValueError("per-point records need a single-factor tracked reduction")
        n = self.n
        iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for idx in range(self.sample_count):
            nil = np.eye(n)
            for (i, j), v in zip(iu, self.u_coords[idx, 0]):
                nil[i, j] = v
            a = np.diag(np.exp(self.log_a[idx, 0]))
            rep = GroupElement(nil @ a)
            cache = LanglandsParts(nil, np.eye(n), a, np.eye(n))
            gamma = tuple(tuple(int(v) for v in row) for row in self.gammas[idx, 0])
            yield ReducedPoint(gamma, rep, cache)


def truncation_bound(spec: SubgroupSpec, y_cap: float) -> float:
    """Relative Haar mass lost to the sampler's height truncation."""
    if spec.kind == "product":
        return max(truncation_bound(f, y_cap) for f in spec.factors)
    if spec.kind in ("levi_semisimple_nc", "embedded_sl2"):
        return 3.0 / (np.pi * y_cap)
    return 0.0


# Matrices per gemm of the pushforward.  Each block stays in cache, and at
# most 4096 * 4^3 = 2^18 multiply-adds it stays within the size that
# OpenBLAS runs on one thread; a threaded split of this thin product was
# seen to stall for 75-85 ms on a loaded 2-CPU host, against 3 ms for one
# thread.
PUSH_BLOCK = 4096


def _right_multiply(stack: np.ndarray, g: np.ndarray) -> np.ndarray:
    """stack @ g for an (m, n, n) stack and one (n, n) matrix, as flat gemms
    over blocks of n * PUSH_BLOCK rows: the same bits as the stacked matmul,
    which runs one tiny product per matrix."""
    n = g.shape[0]
    flat = np.ascontiguousarray(stack).reshape(-1, n)
    out = np.empty_like(flat)
    step = n * PUSH_BLOCK
    for start in range(0, len(flat), step):
        np.matmul(flat[start : start + step], g, out=out[start : start + step])
    return out.reshape(stack.shape)


def _reduce_into(
    pushed: np.ndarray,
    log_a: np.ndarray,
    u_coords: np.ndarray,
    gammas: Optional[np.ndarray],
) -> None:
    """Reduce an (m, n, n) pushed stack and write its coordinates into the
    (rows, n) view log_a, the (rows, n(n-1)/2) view u_coords and, for
    n = 3, 4, the (rows, n, n) view gammas; m is the row count, or 1 to
    fill every row with one result."""
    n = pushed.shape[-1]
    if n in (3, 4):
        gams, _, low = reduce_siegel_batched(pushed)
        gammas[:] = gams
        a, u = iwasawa_coordinates(low)
        for j, a_j in enumerate(a):
            log_a[:, j] = np.log(a_j)
    else:  # the half-plane point z = x + iy of the n-a-k split, reduced
        low = gram_schmidt_components(pushed[:, ::-1, :].transpose(1, 2, 0))[0]
        a, u = iwasawa_coordinates(low)
        x, y = reduce_sl2_coords(u[0], a[0] / a[1])
        half = 0.5 * np.log(y)
        log_a[:, 0] = half
        log_a[:, 1] = -half
        u = [x]
    for col, u_col in enumerate(u):
        u_coords[:, col] = u_col


def empirical_measure(
    spec: SubgroupSpec,
    g,
    count: int,
    seed: int,
    y_cap: float = Y_CAP_DEFAULT,
) -> EmpiricalMeasure:
    """Sample the subgroup, push by g, reduce, and keep the coordinates.

    Each factor's chunk is pushed by flat gemms, reduced (lattice
    reduction for n = 3, 4, the half-plane walk for n = 2), and its
    coordinates are read from the Gram-Schmidt factor of the reduced stack;
    N and K of the split are never formed.  Every sample of a ``trivial``
    factor is the identity, so that factor is pushed and reduced as a
    one-matrix stack and the result is broadcast over the samples: the
    reduction of a matrix does not depend on the stack it comes in, so this
    changes no bit.
    """
    r, n = spec.shape
    g_arr = _translate_array(g, r, n)
    factors = spec.factors if spec.kind == "product" else (spec,)
    d_u = n * (n - 1) // 2
    log_a = np.empty((count, r, n))
    u_coords = np.empty((count, r, d_u))
    gammas = np.empty((count, r, n, n), dtype=np.int64) if n in (3, 4) else None
    for f, fac in enumerate(factors):
        if fac.kind == "trivial":  # draws nothing from its stream
            blocks = [(slice(None), 1, None)]
        else:
            blocks = [
                (slice(ci * CHUNK, ci * CHUNK + size), size, np.random.default_rng([seed, ci, f]))
                for ci, size in _chunk_plan(count)
            ]
        for rows, size, rng in blocks:
            _reduce_into(
                _right_multiply(_sample_factor_chunk(fac, size, rng, y_cap), g_arr[f]),
                log_a[rows, f],
                u_coords[rows, f],
                None if gammas is None else gammas[rows, f],
            )
    _assert_reduced(log_a, u_coords, n)
    return EmpiricalMeasure(
        spec=spec,
        log_a=log_a,
        u_coords=u_coords,
        gammas=gammas,
        seed=seed,
        sample_count=count,
        y_cap=y_cap,
        truncation=truncation_bound(spec, y_cap),
    )


# Above this diagonal ratio the u_ij entry of a reduced frame carries fewer
# than a handful of mantissa bits: the component of the long row along the
# short one sits at relative scale 1/ratio and is rounded away when the
# translated matrix is formed, long before any basis reduction runs.  The
# diagonal part -- everything the escape statistics read -- is unaffected.
_LOG_RATIO_SEEN = 40.0 * math.log(2.0)


def _assert_reduced(log_a: np.ndarray, u_coords: np.ndarray, n: int) -> None:
    s = siegel_default(n)
    ratios = np.exp(log_a[:, :, :-1] - log_a[:, :, 1:])
    if not np.all(ratios >= s.ratio_min - 1e-9):
        raise RuntimeError("reduced diagonal escaped the target bounds")
    if n == 2:
        if not np.all(np.abs(u_coords) <= 0.5 + 1e-9):
            raise RuntimeError("reduced off-diagonals escaped the target bounds")
        return
    iu = [(i, j) for i in range(n) for j in range(i + 1, n)]
    eps = float(np.finfo(float).eps)
    for col, (i, j) in enumerate(iu):
        log_ratio = log_a[:, :, i] - log_a[:, :, j]
        seen = log_ratio <= _LOG_RATIO_SEEN
        # float size reduction guarantees |u| <= 1/2 only up to O(eps * ratio)
        slack = 1e-9 + 8.0 * eps * np.exp(np.minimum(log_ratio, _LOG_RATIO_SEEN))
        if not np.all(np.abs(u_coords[:, :, col][seen]) <= s.u_bound + slack[seen]):
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

    @property
    def interior_label(self) -> FrozenSet[int]:
        return frozenset(range(self.rank))

    def fraction(self, label) -> float:
        return self.mass.get(frozenset(label), 0.0)

    def argmax(self) -> FrozenSet[int]:
        return max(sorted(self.mass, key=lambda s: tuple(sorted(s))), key=self.mass.get)


def boundary_histogram(m: EmpiricalMeasure, t_esc: float = T_ESC_DEFAULT) -> BoundaryHistogram:
    """Empirical mass over component labels at escape threshold t_esc."""
    if t_esc <= 2.0 / np.sqrt(3.0):
        raise ValueError("threshold must sit above the reduced-domain floor")
    logs = m.root_log_values()
    rank = logs.shape[1]
    bounded = logs <= np.log(t_esc)
    codes = bounded @ (1 << np.arange(rank, dtype=np.int64))
    counts = np.bincount(codes, minlength=1 << rank)
    mass: Dict[FrozenSet[int], float] = {}
    for code, c in enumerate(counts):
        if c:
            label = frozenset(i for i in range(rank) if code >> i & 1)
            mass[label] = c / m.sample_count
    total = sum(mass.values())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"histogram mass {total} != 1")
    return BoundaryHistogram(mass=mass, threshold=t_esc, rank=rank)


@dataclass(frozen=True)
class CoordinateWindow:
    """A box in reduced coordinates: |u| <= u_max and character values in
    [alpha_min, alpha_max] for every root."""

    u_max: float
    alpha_max: float
    alpha_min: float = 0.0


def window_mass(m: EmpiricalMeasure, box: CoordinateWindow) -> float:
    """Fraction of the sample cloud inside the window."""
    logs = m.root_log_values()
    inside = np.all(np.exp(logs) <= box.alpha_max, axis=1)
    inside &= np.all(np.exp(logs) >= box.alpha_min, axis=1)
    flat_u = m.u_coords.reshape(m.sample_count, -1)
    inside &= np.all(np.abs(flat_u) <= box.u_max, axis=1)
    return float(np.count_nonzero(inside)) / m.sample_count


def format_histogram(h: BoundaryHistogram) -> str:
    """Structured text record: one 'label mass' line per observed label."""
    lines = [f"# threshold={h.threshold:g} rank={h.rank}"]
    for label in sorted(h.mass, key=lambda s: (len(s), tuple(sorted(s)))):
        name = "interior" if label == h.interior_label else (
            "(" + ",".join(str(i) for i in sorted(label)) + ")"
        )
        lines.append(f"{name} {h.mass[label]:.6f}")
    return "\n".join(lines) + "\n"
