"""Exact limit-component classifiers for translated orbit measures.

A sequence of translated homogeneous measures is described by a subgroup from
the catalog, a rational direction ``v`` (the torus part moves as
``exp(n*v)``), a fixed bounded offset with entries in a real quadratic field,
and a conjugation policy.  Under this exponential model every "does this root
value grow / stay / decay" question is the sign of an exact rational pairing,
and every question about a bounded entry ("rational or badly approximable?")
is decidable in Q(tau).  The classifiers walk the resulting decision trees
and report the predicted supporting parabolic, the support kind, and the
ordered branch trace.

The SL3 walk is organised in three levels mirroring how escape is peeled off:

* level G -- scan for a witness ``(w, wall)``: a Weyl twist and a maximal
  parabolic whose conjugate contains the group, with positive escape rate.
  Wall ``alpha2`` is preferred (the ``alpha1`` walk is its mirror image under
  the outer automorphism ``g -> J g^-T J``, applied and undone here);
* level M -- the leftover dynamics in the 2x2 block of the wall's Levi:
  trivial / line / full projections each get a sub-walk, with cusp
  excursions normalised by an exact integer Moebius move;
* junction -- the final state machine on the pair of residual rates
  ``(rho_y, rho_x)`` and the residual bounded entry ``t``.  Node labels in
  the branch trace (``2.2.1``, ``2.2.2.2.1``, ...) are this tree's own
  numbering, also used by the bundled scenario names.

>>> rs = build_type_a(3)
>>> I, cert = unip_limit_I([2, -1, -1], rs)
>>> (sorted(I), cert[0])
([1], Fraction(3, 1))
>>> seq = sequence_spec(one_param_unipotent(3, (1, 2)), [9, -6, -3])
>>> verdict = sl3_classify(seq)
>>> (sorted(verdict.P.I), verdict.support_kind)
([1], 'boundary_homogeneous')
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .lingrp import GroupElement, ParabolicIndex, d_function, ordered_product
from .measures import SubgroupSpec, lie_generators, one_param_unipotent
from .qfield import (
    QMatrix,
    QuadNum,
    _cofactor_det,
    as_int,
    int_inverse,
    qmat,
    qmat_identity,
    qmat_is_upper_unitriangular,
    qmat_mul,
    qmat_unipotent_inverse,
    rat_mul,
    square_rows,
    unimodular,
)
from .reduction import enumerate_gamma
from .rootsys import (
    RootSystem,
    WeylElement,
    _coordinate_blocks,
    build_product,
    build_type_a,
    locate_chamber,
    levi_sphere,
    make_vector,
    pairing,
    weyl_elements,
)

__all__ = [
    "NotCoveredError",
    "SequenceSpec",
    "LimitDescriptor",
    "ProductParabolicIndex",
    "sequence_spec",
    "root_system_for",
    "sequence_translate",
    "delta_truncated",
    "unip_limit_I",
    "ma_split",
    "sl3_classify",
    "sl2r_classify",
    "levi_translate_classify",
]

SUPPORT_KINDS = ("interior", "boundary_homogeneous", "dirac_point")

IntMatrix = Tuple[Tuple[int, ...], ...]


class NotCoveredError(Exception):
    """Raised when the input is outside the encoded decision trees.

    The trees cover exactly the catalog kinds in their normal positions;
    anything else is rejected rather than guessed.
    """


def _not_covered(msg: str) -> "NotCoveredError":
    return NotCoveredError(f"not covered by the encoded decision tree: {msg}")


# ---------------------------------------------------------------------------
# sequence descriptions


def root_system_for(spec: SubgroupSpec) -> RootSystem:
    return _root_system(tuple(f.n for f in spec.parts))


@lru_cache(maxsize=64)
def _root_system(ns: Tuple[int, ...]) -> RootSystem:
    """The product root system of the factor sizes ns, built once; a
    product's factor count comes from the input, so the cache is bounded."""
    return build_product(ns)


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence of translated measures: subgroup, direction, offsets.

    ``direction`` is an ambient exponent vector (summing to zero on each
    factor), so the torus part at evaluation index n is ``exp(n*direction)``.
    ``bounded_part`` is a fixed offset in SL_n(Q(tau)), stored as one
    QMatrix of determinant one per factor (None means the identity; the
    string ``"bounded"`` records an offset known only to be bounded --
    branches that must read its entries then refuse).
    ``conjugator_policy`` is ``"identity"`` or
    ``"recorded"``; a recorded integer left factor, stored as one integer
    matrix per factor, is struck out during ingestion, which is what makes
    classification insensitive to it.  A single-factor spec may be given
    its one offset or left factor bare; it is stored as a 1-tuple.  The
    left factors and the indices are read by :func:`qfield.as_int`, so an
    entry such as 0.5 is refused, not truncated.
    ``stage`` selects the entry point of the SL3 walk: ``"raw"`` for
    ordinary data, ``"block_reduced"`` for data already pushed through the
    block-reduction steps (the only way to reach the deepest branches, whose
    preconditions raw data cannot meet).
    """

    subgroup: SubgroupSpec
    direction: Tuple[Fraction, ...]
    bounded_part: Union[None, str, Tuple[QMatrix, ...]] = None
    conjugator_policy: str = "identity"
    recorded_conjugator: Union[None, Tuple[IntMatrix, ...]] = None
    indices: Tuple[int, ...] = (1, 2, 4)
    stage: str = "raw"

    def __post_init__(self) -> None:
        rs = root_system_for(self.subgroup)
        object.__setattr__(self, "direction", make_vector(rs, self.direction))
        idx = tuple(as_int(i) for i in self.indices)
        if not idx or any(b <= a for a, b in zip(idx, idx[1:])) or idx[0] < 1:
            raise ValueError("indices must be strictly increasing positive integers")
        object.__setattr__(self, "indices", idx)
        if self.conjugator_policy not in ("identity", "recorded"):
            raise ValueError(f"unknown conjugator policy {self.conjugator_policy!r}")
        if (self.recorded_conjugator is not None) != (self.conjugator_policy == "recorded"):
            raise ValueError("recorded policy needs a recorded conjugator, and only then")
        if self.recorded_conjugator is not None:
            rec = _per_factor(self.subgroup, self.recorded_conjugator, "recorded conjugator",
                              unimodular)
            object.__setattr__(self, "recorded_conjugator", rec)
        if self.stage not in ("raw", "block_reduced"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.bounded_part is not None and self.bounded_part != "bounded":
            bounded = _per_factor(self.subgroup, self.bounded_part, "bounded part", _offset)
            object.__setattr__(self, "bounded_part", bounded)


def _per_factor(spec: SubgroupSpec, mats, what: str, read) -> tuple:
    """read(m, n, what) of each n x n matrix m of mats, a list or tuple of
    one matrix per factor of spec; ValueError naming what for any other
    length.  The one factor of a single-factor spec may come as a bare
    matrix: n >= 2 rows, where its per-factor list has one entry."""
    r, n = spec.shape
    listed = isinstance(mats, (list, tuple))
    if r == 1 and not (listed and len(mats) == 1):
        mats, listed = (mats,), True
    if not listed or len(mats) != r:
        raise ValueError(f"{what} must list one {n}x{n} matrix per factor, {r} in all")
    return tuple(read(m, n, what) for m in mats)


def _offset(m, n: int, what: str) -> QMatrix:
    """m as an n x n QuadNum matrix in SL_n: its exact determinant in Q(tau)
    must be one; ValueError naming what otherwise.  An upper unitriangular
    m, the normal position, takes no cofactor expansion."""
    h = qmat(square_rows(m, n, what))
    if qmat_is_upper_unitriangular(h):
        return h
    det = _cofactor_det(h)
    if det != 1:
        shown = det.a if det.is_rational() else f"{det.a} + {det.b}*tau"
        raise ValueError(f"{what} must have determinant one, not {shown}")
    return h


# SequenceSpec coerces plain-Python arguments itself
sequence_spec = SequenceSpec


@dataclass(frozen=True)
class ProductParabolicIndex:
    """Standard parabolic of a product of SL2 factors: factor i keeps its
    full SL2 exactly when i is in I, and degenerates to the Borel otherwise.
    Plays the role ParabolicIndex plays for a single factor."""

    factors: int
    I: FrozenSet[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "I", frozenset(self.I))
        if not all(0 <= i < self.factors for i in self.I):
            raise ValueError(f"factor indices {sorted(self.I)} out of range")

    @property
    def is_group(self) -> bool:
        return len(self.I) == self.factors


@dataclass(frozen=True)
class LimitDescriptor:
    """Predicted limit: supporting parabolic (up to integer conjugacy),
    support kind, and the ordered branch trace that produced it."""

    P: Union[ParabolicIndex, ProductParabolicIndex]
    support_kind: str
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.support_kind not in SUPPORT_KINDS:
            raise ValueError(f"unknown support kind {self.support_kind!r}")
        if (self.support_kind == "interior") != self.P.is_group:
            raise ValueError("interior support exactly for the full group")
        object.__setattr__(self, "notes", tuple(self.notes))


def _verdict(P, gens_present: bool, notes) -> LimitDescriptor:
    if P.is_group:
        return LimitDescriptor(P, "interior", notes)
    kind = "boundary_homogeneous" if gens_present else "dirac_point"
    return LimitDescriptor(P, kind, notes)


# ---------------------------------------------------------------------------
# exact rational matrix plumbing


def _block_of(P: ParabolicIndex) -> List[int]:
    """Block index of each matrix row/column."""
    out = [0] * P.n
    for b, (lo, hi) in enumerate(P.block_ranges()):
        for r in range(lo, hi):
            out[r] = b
    return out


def _lie_fits(X: IntMatrix, P: ParabolicIndex) -> bool:
    blk = _block_of(P)
    n = P.n
    return all(
        X[r][c] == 0 for r in range(n) for c in range(n) if blk[r] > blk[c]
    )


def _perm_sign(p: Sequence[int]) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _weyl_conjugate(X, w: WeylElement):
    """R^-1 X R for the integer determinant-one representative R of a
    single-factor Weyl element (the permutation matrix of w, last column
    negated for odd permutations).  R is a signed permutation, so the
    conjugate is a re-indexing: entry (i, j) is s_i s_j X[p(i)][p(j)] with
    p the one-line form of w and s_i = -1 only at i = n-1 of an odd p.
    Works for Fraction and QuadNum entries alike and does no arithmetic
    beyond negation."""
    (p,) = w.perms
    n = len(p)
    flip = n - 1 if _perm_sign(p) < 0 else -1
    return tuple(
        tuple(
            -X[p[i]][p[j]] if (i == flip) != (j == flip) else X[p[i]][p[j]]
            for j in range(n)
        )
        for i in range(n)
    )


def _wall_parabolic(n: int, alpha: int) -> ParabolicIndex:
    """The maximal parabolic whose single wall sits at simple root alpha."""
    return ParabolicIndex(n, frozenset(range(n - 1)) - {alpha})


def _cross_rate_form(P: ParabolicIndex, p: Sequence[int]) -> Tuple[int, ...]:
    """Integer weights c such that sum_k c[k] * v[k] is the exact decay
    exponent of the P-wedge norm along exp(-n*v_c), where v_c[i] = v[p[i]]
    is the direction twisted by the one-line form p.  A positive value
    means the conjugate-P escape criterion fires along this direction."""
    c = [0] * P.n
    for r, col in P.nilradical_coordinates():
        c[p[r]] += 1
        c[p[col]] -= 1
    return tuple(c)


def _scaled(v: Sequence[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """(u, L) with v = u / L, the u integers and L > 0, so that rates are
    integer dot products; a rate num / L is rebuilt as Fraction(num, L)."""
    L = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (L // x.denominator) for x in v), L


# ---------------------------------------------------------------------------
# truncated non-divergence quantity


def delta_truncated(spec: SubgroupSpec, g: GroupElement, height: int) -> float:
    """Truncated escape infimum: minimum of the maximal-parabolic d-values
    d(g^-1 * gamma) over enumerated integer gamma (entries bounded by
    ``height``) and walls alpha whose gamma-conjugate contains the group.
    Containment is decided exactly on Lie-algebra generators.  Returns
    ``inf`` when no witness is found; the result is an upper bound for the
    untruncated infimum (the enumeration is a finite window).

    >>> spec = one_param_unipotent(2, (0, 1))
    >>> round(delta_truncated(spec, GroupElement(np.eye(2)), 1), 12)
    1.0
    """
    gens = lie_generators(spec)
    n = spec.n
    walls = [_wall_parabolic(n, a) for a in range(n - 1)]
    ginv = g.inv().mat
    best = math.inf
    for gamma in enumerate_gamma(n, height):
        gam = gamma.tolist()
        gam_inv = int_inverse(gam)
        conj = [rat_mul(gam_inv, rat_mul(X, gam)) for X in gens]
        for P in walls:
            if all(_lie_fits(X, P) for X in conj):
                val = d_function(P, GroupElement(ginv @ np.asarray(gamma, dtype=float)))
                best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# unipotent-radical translates: maximal bounded subset via an exact hull


def _upper_hull_vertices(points: List[Tuple[int, Fraction]]) -> List[int]:
    hull: List[Tuple[int, Fraction]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or below the chord
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return [x for x, _ in hull]


def unip_limit_I(v: Sequence, rs: RootSystem) -> Tuple[FrozenSet[int], Dict[int, Fraction]]:
    """For a minimal-radical translate moving as exp(n*v): the maximal
    I ⊆ Δ whose inner direction component stays bounded, with the exact
    escape certificate {alpha outside I: rate > 0}.

    Within each factor this is the upper convex hull of the prefix-sum path
    of v: hull segments are the I-blocks (the path sits on or below each
    chord, so the inside-I component has non-positive simple-root
    coefficients), and the strict slope drops at hull vertices are exactly
    the escape rates of the complementary roots.
    """
    v = make_vector(rs, v)
    inside: set = set()
    for f, (off, n) in enumerate(zip(rs.factor_offsets(), rs.ns)):
        acc = Fraction(0)
        pts = [(0, acc)]
        for k in range(n):
            acc += v[off + k]
            pts.append((k + 1, acc))
        vertices = set(_upper_hull_vertices(pts))
        for k in range(1, n):
            if k not in vertices:
                inside.add(rs.root_offsets()[f] + (k - 1))
    I = frozenset(inside)
    blocks = _coordinate_blocks(rs, I)
    v_comp = list(v)
    for b in blocks:
        mean = sum(v[c] for c in b) / len(b)
        for c in b:
            v_comp[c] = mean
    cert: Dict[int, Fraction] = {}
    for a in range(rs.rank):
        if a not in I:
            rate = pairing(rs, tuple(v_comp), rs.simple_roots[a])
            assert rate > 0, "hull vertices must drop strictly"
            cert[a] = rate
    return I, cert


# ---------------------------------------------------------------------------
# torus translates: chamber location and the growing/constant split


def ma_split(v: Sequence, I: Sequence[int], rs: RootSystem):
    """Split a torus direction fixed by the walls in I: returns
    ``(w, J, R_inf)`` where (w, J) is the canonical chamber face of v and
    R_inf the complementary roots.  Under the exponential model a twisted
    root value is either identically one, on the walls J, or strictly
    growing, so every root of R_inf grows; that is asserted exactly.
    """
    v = make_vector(rs, v)
    for a in frozenset(I):
        if pairing(rs, v, rs.simple_roots[a]) != 0:
            raise ValueError("direction must pair to zero with every wall in I")
    face = locate_chamber(rs, v)
    w, J = face.w, face.I
    R_inf = frozenset(range(rs.rank)) - J
    for a in R_inf:
        assert pairing(rs, v, w.act(rs.simple_roots[a])) > 0, "chamber certificate failed"
    return w, J, R_inf


# ---------------------------------------------------------------------------
# ingestion shared by the big classifiers


@lru_cache(maxsize=256)
def _stripped(spec: SubgroupSpec) -> Tuple[SubgroupSpec, IntMatrix, QMatrix]:
    """(spec without its conjugator, the conjugator's integer inverse, that
    inverse as a QMatrix), once per conjugated subgroup.  The key carries a
    conjugator from the input, so the cache is bounded."""
    g = int_inverse(spec.conjugator)
    return dataclasses.replace(spec, conjugator=None), g, qmat(g)


def _strip_conjugation(seq: SequenceSpec, f: int = 0):
    """Normalize (conjugated subgroup, recorded left factor, offset) of
    factor f to the catalog position: the orbit identity
    ``mu_{gHg^-1, x} = mu_{H, g^-1 x}`` for integer g absorbs the subgroup
    conjugator, and a recorded left factor cancels against the integer
    lattice.  Returns (plain factor spec, effective offset QMatrix |
    "bounded", ingestion notes).  The plain spec and the conjugator's
    inverse come from :func:`_stripped`."""
    spec = seq.subgroup.parts[f]
    notes: List[str] = []
    h = seq.bounded_part
    if h == "bounded":
        if spec.conjugator is not None or seq.conjugator_policy == "recorded":
            raise _not_covered("a bounded-only offset cannot absorb conjugators")
        return spec, "bounded", notes
    # integer left factors stay ints until they meet an offset entry; None
    # stands for the identity offset
    h_eff = None if h is None else h[f]
    if seq.conjugator_policy == "recorded":
        g = seq.recorded_conjugator[f]
        h_eff = qmat(g) if h_eff is None else qmat_mul(g, h_eff)
        notes.append("ingest:recorded_left_factor")
    if spec.conjugator is not None:
        spec, g, g_q = _stripped(spec)
        h_eff = g_q if h_eff is None else qmat_mul(g, h_eff)
        notes.append("ingest:subgroup_conjugator_absorbed")
    return spec, qmat_identity(spec.n) if h_eff is None else h_eff, notes


def sequence_translate(seq: SequenceSpec, index: int) -> np.ndarray:
    """Float translate g_index = (recorded factor) * offset * exp(index*v),
    shaped (factors, n, n); this is what the Monte Carlo side pushes by.
    A direction large enough to overflow exp gives inf and nan entries
    without a warning; the translate budget of stream_measures refuses
    them.  Scaling the offset's columns keeps its exact zeros, and the
    recorded factor multiplies by :func:`lingrp.ordered_product`: no BLAS
    kernel decides a bit of the translate."""
    r, n = seq.subgroup.shape
    out = np.empty((r, n, n))
    for f in range(r):
        h = np.eye(n)
        if seq.bounded_part is not None and seq.bounded_part != "bounded":
            h = np.array([[float(x) for x in row] for row in seq.bounded_part[f]])
        with np.errstate(over="ignore", invalid="ignore"):
            g = h * np.exp([index * float(x) for x in seq.direction[f * n : (f + 1) * n]])
            if seq.conjugator_policy == "recorded":
                left = seq.recorded_conjugator[f]
                g = ordered_product(left, g, np.empty((n, n, 1)), np.empty(1))[..., 0]
        out[f] = g
    return out


# ---------------------------------------------------------------------------
# the SL3 walk


def _theta_lie(X: IntMatrix) -> IntMatrix:
    """Outer automorphism on the Lie algebra: X -> -J X^T J, with J the
    reversal, so entry (i, j) is -X[2-j][2-i]."""
    return tuple(tuple(-X[2 - j][2 - i] for j in range(3)) for i in range(3))


def _theta_unipotent(h: QMatrix) -> QMatrix:
    """Outer automorphism on upper unitriangular matrices: J h^-T J, read
    off the inverse as entry (i, j) = inv[2-j][2-i]."""
    inv = qmat_unipotent_inverse(h)
    return tuple(tuple(inv[2 - j][2 - i] for j in range(3)) for i in range(3))


def _swap_walls(I: FrozenSet[int]) -> FrozenSet[int]:
    return frozenset(1 - i for i in I)


@lru_cache(maxsize=None)
def _plain_generators(spec: SubgroupSpec) -> Tuple[IntMatrix, ...]:
    """Lie generators of a catalog subgroup without conjugator, once per
    subgroup."""
    return tuple(lie_generators(spec))


# the upper positions of a 3x3 matrix, in the order the walks read them
_UPPER3 = ((0, 1), (0, 2), (1, 2))


class _Witness(NamedTuple):
    """One witness candidate of a stripped catalog subgroup: a Weyl twist
    ``w`` (one-line form ``p``) and a ``wall`` whose parabolic holds the
    twisted group."""

    form: Tuple[int, ...]  # escape rate on the untwisted direction (_cross_rate_form)
    kept: int  # bit k set when the twist keeps _UPPER3[k] upper
    wall: int
    p: Tuple[int, ...]
    w: WeylElement
    gens: Tuple[IntMatrix, ...]  # the twisted generators


@lru_cache(maxsize=None)
def _witness_walls(spec: SubgroupSpec) -> Tuple[_Witness, ...]:
    """The part of the level-G scan that depends only on the (stripped)
    catalog subgroup: every (w, wall) with the w-twisted group inside the
    wall parabolic, already in preference order (wall alpha2 first, then
    the lexicographically least twist).  Each entry carries its twist's
    position map as the bits of the upper offset positions the twist keeps
    upper, which is all the offset test reads."""
    gens = _plain_generators(spec)
    out = []
    for w in weyl_elements(build_type_a(3)):
        gens_c = tuple(_weyl_conjugate(X, w) for X in gens)
        p = w.one_line()
        pos = [p.index(k) for k in range(3)]
        kept = sum(1 << k for k, (r, c) in enumerate(_UPPER3) if pos[r] < pos[c])
        for wall in (1, 0):
            P = _wall_parabolic(3, wall)
            if all(_lie_fits(X, P) for X in gens_c):
                out.append(_Witness(_cross_rate_form(P, p), kept, wall, p, w, gens_c))
    out.sort(key=lambda e: (e.wall != 1, e.p))
    return tuple(out)


def _nonzero_mask(h: QMatrix) -> int:
    """Bit k set when the entry of h at _UPPER3[k] is nonzero."""
    a, b, c = h[0][1], h[0][2], h[1][2]
    return (1 if a.a or a.b else 0) | (2 if b.a or b.b else 0) | (4 if c.a or c.b else 0)


def _scan_witness(spec: SubgroupSpec, h_eff, v, notes):
    """Level-G witness scan: candidates (w, wall) with the twisted group
    inside the wall parabolic, the twisted offset upper unitriangular, and
    strictly positive escape rate.  Preference order: wall alpha2 first,
    then the lexicographically least twist.  Any passing candidate is a
    genuine witness and the downstream walks agree on the verdict, so the
    preference only fixes which branch the trace reports.

    Which (w, wall) pairs hold the group depends only on the subgroup, so
    that part comes from the cached :func:`_witness_walls`, already in
    preference order; per sequence only the rate and the offset test run,
    and the scan returns the first entry that passes both.  The twists
    conjugate by signed permutation matrices, so the caller re-indexes the
    chosen witness's offset (:func:`_weyl_conjugate`), with no matrix
    product; so is the J-conjugation of the outer automorphism it applies
    after an alpha1 witness (:func:`_theta_lie`, :func:`_theta_unipotent`).

    ``h_eff`` is upper unitriangular, and its twist has entry (i, j) =
    +-h_eff[p(i)][p(j)], so the twist is upper unitriangular exactly when
    every nonzero off-diagonal entry (r, c) of h_eff keeps r before c in
    the one-line form p: a mask test against the entry's kept positions.
    Only when no entry passes and some positive-rate entry failed the
    offset test is the sequence refused."""
    support = _nonzero_mask(h_eff)
    u, L = _scaled(v)
    blocked_by_offset = False
    for entry in _witness_walls(spec):
        rate = sum(c * x for c, x in zip(entry.form, u))
        if rate <= 0:
            continue
        if support & ~entry.kept:
            blocked_by_offset = True
            continue
        notes.append(f"witness:wall=alpha{entry.wall + 1};twist={entry.p};rate={Fraction(rate, L)}")
        return entry
    if blocked_by_offset:
        raise _not_covered(
            "escape witnesses exist but the offset leaves the unipotent normal position"
        )
    return None


@lru_cache(maxsize=256)
def _m_block_projection(gens: Tuple[IntMatrix, ...]) -> str:
    """Classify the projection of the group to the upper-left 2x2 block.
    It reads only the generators: a witness's twisted ones, taken through
    the outer automorphism after an alpha1 witness, so few distinct keys
    reach it; the cache is bounded all the same."""
    vecs = [(X[0][0], X[0][1], X[1][0], X[1][1]) for X in gens]
    vecs = [u for u in vecs if any(x != 0 for x in u)]
    if not vecs:
        return "trivial"
    # exact rank over Q
    basis: List[tuple] = []
    for u in vecs:
        u = list(u)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if u[lead] != 0:
                f = Fraction(u[lead], b[lead])
                u = [x - f * y for x, y in zip(u, b)]
        if any(x != 0 for x in u):
            basis.append(tuple(u))
    if len(basis) >= 3:
        return "full"
    if len(basis) == 2:
        raise _not_covered("two-dimensional block projection (not a catalog shape)")
    (a, b, c, d) = basis[0]
    if a != 0 or d != 0 or (b != 0 and c != 0):
        if a + d == 0 and a * d - b * c == 0:
            raise _not_covered("slanted nilpotent block line (not a catalog shape)")
        return "full"  # contains a semisimple direction: no block parabolic holds it
    return "line_upper" if b != 0 else "line_lower"


def _offset_entries(h: QMatrix) -> Tuple[QuadNum, QuadNum, QuadNum]:
    return h[0][1], h[0][2], h[1][2]


def _cusp_move(p: int, q: int) -> IntMatrix:
    """Integer matrix with first column (p, q) (so it sends infinity to the
    cusp p/q); its inverse is the normalising move used by the walks."""
    g, a, b = _ext_gcd(p, q)
    assert g == 1
    # det = p*a - q*(-b) = p*a + q*b = 1
    return ((p, -b), (q, a))


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _embed_block(m: IntMatrix) -> IntMatrix:
    return ((m[0][0], m[0][1], 0), (m[1][0], m[1][1], 0), (0, 0, 1))


@lru_cache(maxsize=256)
def _cusp_moved(gens: Tuple[IntMatrix, ...], p: int, q: int) -> Tuple[IntMatrix, ...]:
    """The generators conjugated by the cusp move for p/q.  The cusp comes
    from the offset, so the cache is bounded."""
    move = _embed_block(_cusp_move(p, q))
    inv = int_inverse(move)
    return tuple(rat_mul(rat_mul(inv, X), move) for X in gens)


def _normalise_cusp(u0: Fraction, gens, h: QMatrix, notes):
    """Left-multiply by the inverse cusp move for u0 = p/q: the plunging
    block trajectory turns into a rising one, the group is conjugated
    (:func:`_cusp_moved`), and the residual corner entry becomes
    p*h12 - q*h02 (read off the moved third column)."""
    p, q = u0.numerator, u0.denominator
    _, h02, h12 = _offset_entries(h)
    t_new = h12 * p - h02 * q
    notes.append(f"m_walk:cusp_excursion;target={p}/{q}")
    return _cusp_moved(tuple(gens), p, q), t_new


def _sl3_m_stage(gens, v, h, notes):
    """Level-M sub-walks in the upper-left block.  Returns either an exit
    ('exit', I, extra-notes...) or ('junction', rho_y, rho_x, t, gens)."""
    rho = (v[0] - v[1]) / 2
    rho_x = -v[2] / 2
    gens = tuple(gens)
    kind = _m_block_projection(gens)
    notes.append(f"m_projection:{kind}")
    u0, _, h12 = _offset_entries(h)
    if kind == "full":
        notes.append("m_walk:block_measures_tight")
        return ("exit", frozenset({0}))
    if kind == "trivial":
        if rho > 0:
            notes.append(f"m_walk:ascend;rho={rho}")
            return ("junction", rho, rho_x, h12, gens)
        if rho == 0:
            notes.append("m_walk:constant_point")
            return ("exit", frozenset({0}))
        if not u0.is_rational():
            notes.append("m_walk:plunge_badly_approximable")
            return ("exit", frozenset({0}), "support:subsequence_caveat")
        gens, t_new = _normalise_cusp(u0.as_fraction(), gens, h, notes)
        return ("junction", -rho, rho_x, t_new, gens)
    if kind == "line_upper":
        if rho > 0:
            notes.append(f"m_walk:ascend;rho={rho}")
            return ("junction", rho, rho_x, h12, gens)
        notes.append("m_walk:closed_horocycle" if rho == 0 else "m_walk:descending_horocycle_equidistributes")
        return ("exit", frozenset({0}))
    # line_lower: the block line fixes the cusp 0
    if rho < 0 and u0.is_rational() and u0.as_fraction() == 0:
        gens, t_new = _normalise_cusp(Fraction(0), gens, h, notes)
        return ("junction", -rho, rho_x, t_new, gens)
    if rho > 0:
        notes.append("m_walk:growing_horocycle_equidistributes")
    elif rho == 0:
        notes.append("m_walk:closed_horocycle")
    else:
        notes.append("m_walk:plunge_off_the_fixed_cusp")
    return ("exit", frozenset({0}))


def _sl3_junction(rho_y: Fraction, rho_x: Fraction, t: QuadNum, gens, notes):
    """Final state machine on the residual rates and corner entry."""
    c_rate = 3 * rho_x - rho_y
    notes.append(f"junction:c_rate={c_rate}")
    if c_rate > 0:
        notes.append(f"node:minimal_escape;alpha_rate={c_rate};beta_rate={2 * rho_y}")
        return frozenset()
    inside_n_beta = all(X[1][2] == 0 for X in gens)
    if not inside_n_beta:
        notes.append(f"node:1;levi_growth_rate={Fraction(3, 2) * (rho_y + rho_x)}")
        return frozenset({1})
    if c_rate == 0:
        notes.append("node:2.1;constant_alpha_value")
        return frozenset({1})
    if t.is_zero():
        notes.append(
            f"node:2.2.1;eta_rates=({-c_rate},{rho_y + 3 * rho_x})"
        )
        return frozenset()
    if not t.is_rational():
        notes.append("node:2.2.2.1;badly_approximable_corner")
        return frozenset({1})
    notes.append(
        f"node:2.2.2.2.1;v_rate={-c_rate};beta_rate={(rho_y + 9 * rho_x) / 2}"
    )
    return frozenset()


def _sl3_raw(seq: SequenceSpec) -> LimitDescriptor:
    spec, h_eff, notes = _strip_conjugation(seq)
    if h_eff == "bounded":
        raise _not_covered("the SL3 walk reads offset entries; give them exactly")
    if not qmat_is_upper_unitriangular(h_eff):
        raise _not_covered("offset outside the unipotent normal position")
    v = seq.direction
    found = _scan_witness(spec, h_eff, v, notes)
    if found is None:
        notes.append("node:no_escape_witness")
        return LimitDescriptor(ParabolicIndex(3, frozenset({0, 1})), "interior", tuple(notes))
    gens_c = found.gens
    v_c = tuple(v[i] for i in found.p)
    h_c = _weyl_conjugate(h_eff, found.w)
    flipped = found.wall == 0
    if flipped:
        notes.append("flip:outer_automorphism")
        gens_c = [_theta_lie(X) for X in gens_c]
        v_c = (-v_c[2], -v_c[1], -v_c[0])
        h_c = _theta_unipotent(h_c)
    outcome = _sl3_m_stage(gens_c, v_c, h_c, notes)
    if outcome[0] == "exit":
        I = outcome[1]
        notes.extend(outcome[2:])
    else:
        _, rho_y, rho_x, t, gens_j = outcome
        for X in gens_j:
            assert all(X[r][c] == 0 for r in range(3) for c in range(3) if r >= c)
        I = _sl3_junction(rho_y, rho_x, t, gens_j, notes)
    if flipped:
        notes.append("unflip:swap_walls")
        I = _swap_walls(I)
    return _verdict(ParabolicIndex(3, I), bool(_plain_generators(spec)), tuple(notes))


def _sl3_direct(seq: SequenceSpec) -> LimitDescriptor:
    """Entry point for data already in block-reduced position: the group
    sits inside the minimal radical, the offset is unipotent, and the
    direction lists the residual torus rates (w1, w2, w3) with w2 > w3.
    These are exactly the deepest branches, unreachable from raw data
    because the raw walk always drives the second rate gap to infinity."""
    spec, nu, notes = _strip_conjugation(seq)
    notes.append("stage:block_reduced")
    if nu == "bounded":
        nu = qmat_identity(3)
    if not qmat_is_upper_unitriangular(nu):
        raise _not_covered("block-reduced offset must be upper unitriangular")
    gens = _plain_generators(spec)
    for X in gens:
        if any(X[r][c] != 0 for r in range(3) for c in range(3) if r >= c):
            raise _not_covered("block-reduced data needs a group inside the minimal radical")
    has_gens = bool(gens)
    w = seq.direction
    if not w[1] > w[2]:
        raise _not_covered("block-reduced data needs a growing second gap (w2 > w3)")
    gap = w[0] - w[1]
    if gap > 0:
        notes.append(f"node:2.2.2.2.1;beta_rate={gap}")
        return _verdict(ParabolicIndex(3, frozenset()), has_gens, tuple(notes))
    if gap == 0:
        notes.append(f"node:2.2.2.2.2;alpha_center_rate={-3 * w[2] / 2}")
        return _verdict(ParabolicIndex(3, frozenset({0})), has_gens, tuple(notes))
    central = all(
        all(X[r][c] == 0 for r in range(3) for c in range(3) if (r, c) != (0, 2))
        for X in gens
    )
    if not central:
        if not w[2] < 0:
            raise _not_covered("branch 2.2.2.2.3.1 needs a decaying third rate")
        notes.append(f"node:2.2.2.2.3.1;alpha_center_rate={-3 * w[2] / 2}")
        return _verdict(ParabolicIndex(3, frozenset({0})), has_gens, tuple(notes))
    if not w[0] > w[2]:
        raise _not_covered("branch 2.2.2.2.3.2 needs a growing corner rate (w1 > w3)")
    face = locate_chamber(build_type_a(3), w)
    notes.append(
        f"node:2.2.2.2.3.2;corner_rate={w[0] - w[2]};chamber_twist={face.w.one_line()}"
    )
    P = ParabolicIndex(3, face.I)
    if P.is_group:
        raise _not_covered("a fully degenerate chamber face leaves no point target")
    return LimitDescriptor(P, "dirac_point", tuple(notes))


def sl3_classify(seq: SequenceSpec) -> LimitDescriptor:
    """Classify an SL3 translate sequence by walking the decision tree.

    Raw-stage inputs go through the witness scan, the block sub-walks and
    the junction; block-reduced inputs enter the deepest branches directly.
    Inputs outside the encoded tree raise :class:`NotCoveredError`.
    """
    spec = seq.subgroup
    if spec.n != 3:
        raise ValueError("the SL3 walk classifies single-factor 3x3 specs")
    if seq.stage == "block_reduced":
        return _sl3_direct(seq)
    return _sl3_raw(seq)


# ---------------------------------------------------------------------------
# products of SL2 factors


def _mobius_zero_target(m: QMatrix):
    """Where the block trajectory m * (i*y) lands as y -> 0: a Q(tau) value,
    or None for the cusp at infinity."""
    b, d = m[0][1], m[1][1]
    if d.is_zero():
        return None
    return b / d


def _mobius_infinity_target(m: QMatrix):
    """Where the block trajectory m * (i*y) lands as y -> infinity, the
    image a/c of the cusp: a Q(tau) value, or None for the cusp at infinity
    itself."""
    a, c = m[0][0], m[1][0]
    if c.is_zero():
        return None
    return a / c


def sl2r_classify(seq: SequenceSpec) -> LimitDescriptor:
    """Per-factor classification for products of SL2 factors.

    Factor atoms: a full SL2 factor never escapes; a unipotent-line factor
    escapes exactly at positive rate (descending horocycles equidistribute,
    so negative rates stay tight); a trivial factor follows the geodesic
    offset * (i*y) to its end, the image a/c of the cusp at positive rate
    and the plunge target b/d at negative rate, and escapes exactly when
    that end is a cusp (rational or infinite) -- badly approximable ends
    keep the point in a compact part forever.  The supporting parabolic
    keeps the full factor on the bounded coordinates; the support is a
    point type when every bounded factor is trivial.
    """
    spec = seq.subgroup
    if spec.kind != "product":
        raise ValueError("sl2r_classify takes a product spec")
    r = len(spec.factors)
    v = seq.direction
    bounded_factors: List[int] = []
    notes: List[str] = []
    all_bounded_trivial = True
    for f, fac in enumerate(spec.factors):
        rate = v[2 * f] - v[2 * f + 1]
        _, offset, _ = _strip_conjugation(seq, f)
        tag = f"factor{f}:{fac.kind}"
        if fac.kind == "embedded_sl2":
            bounded_factors.append(f)
            all_bounded_trivial = False
            notes.append(f"{tag}:full_factor_never_escapes")
        elif fac.kind in ("one_param_unipotent", "full_unipotent_radical"):
            if rate > 0:
                notes.append(f"{tag}:escape;theta_rate={rate}")
            else:
                bounded_factors.append(f)
                all_bounded_trivial = False
                notes.append(
                    f"{tag}:closed_horocycle" if rate == 0 else f"{tag}:descending_horocycle_equidistributes"
                )
        elif fac.kind == "trivial":
            if rate == 0:
                bounded_factors.append(f)
                notes.append(f"{tag}:constant_point")
                continue
            if offset == "bounded":
                raise _not_covered(
                    "a rising trivial factor needs its cusp image exactly" if rate > 0 else
                    "a descending trivial factor needs its plunge target exactly"
                )
            if rate > 0:
                target = _mobius_infinity_target(offset)
                if target is None or target.is_rational():
                    notes.append(f"{tag}:escape;theta_rate={rate}")
                else:
                    bounded_factors.append(f)
                    notes.append(f"{tag}:ascend_badly_approximable")
                    notes.append("support:subsequence_caveat")
            else:
                target = _mobius_zero_target(offset)
                if target is None or target.is_rational():
                    notes.append(f"{tag}:escape_cusp_excursion;theta_rate={-rate}")
                else:
                    bounded_factors.append(f)
                    notes.append(f"{tag}:plunge_badly_approximable")
                    notes.append("support:subsequence_caveat")
        else:
            raise _not_covered(f"factor kind {fac.kind} has no SL2 atom")
    P = ProductParabolicIndex(r, frozenset(bounded_factors))
    if P.is_group:
        return LimitDescriptor(P, "interior", tuple(notes))
    kind = "dirac_point" if all_bounded_trivial else "boundary_homogeneous"
    return LimitDescriptor(P, kind, tuple(notes))


# ---------------------------------------------------------------------------
# translates of a non-compact Levi block


@lru_cache(maxsize=None)
def _levi_walls(n: int, alpha: int, block: int):
    """(face, face key, rate form) for every maximal face (w, J) of the
    alpha-wall sphere whose w-twisted Levi block (at ``block``) lies in the
    parabolic P_J, in ``levi_sphere`` order; the rate form gives the escape
    rate on the untwisted direction (:func:`_cross_rate_form`).  The
    twisted generators are re-indexed copies (:func:`_weyl_conjugate`),
    not matrix products."""
    gens = lie_generators(SubgroupSpec("levi_semisimple_nc", n, I=frozenset({alpha}), block=block))
    out = []
    for face in levi_sphere(build_type_a(n), [alpha]):
        if len(face.I) != 1:
            continue
        P = ParabolicIndex(n, face.I)
        if all(_lie_fits(_weyl_conjugate(X, face.w), P) for X in gens):
            out.append((face, face.key(), _cross_rate_form(P, face.w.one_line())))
    return tuple(out)


def levi_translate_classify(alpha: int, seq: SequenceSpec) -> LimitDescriptor:
    """Classify a translated 2x2 Levi-block orbit: escape happens toward a
    maximal parabolic whose (possibly twisted) conjugate contains the block,
    and the twisted candidates are exactly the maximal faces of the block's
    wall sphere.  The branch reads only the direction: bounded offsets
    cannot change which twisted wall value grows.  On escape there is no
    further degeneration -- the block itself carries no smaller parabolic --
    so the limit is homogeneous on the reported component.  The walls that
    hold the twisted block depend only on the block's position and come
    from the cached :func:`_levi_walls`.
    """
    spec = seq.subgroup
    if spec.kind != "levi_semisimple_nc":
        raise ValueError("levi_translate_classify takes a Levi-block spec")
    if frozenset({alpha}) != spec.I:
        raise ValueError(f"spec sits at root {sorted(spec.I)}, not {alpha}")
    n = spec.n
    u, L = _scaled(seq.direction)
    notes: List[str] = []
    best = None
    for face, key, form in _levi_walls(n, alpha, spec.block):
        rate = sum(c * x for c, x in zip(form, u))
        if rate > 0 and (best is None or (-rate, key) < best[0]):
            best = ((-rate, key), face)
    if best is None:
        notes.append("node:no_twisted_wall_grows")
        return LimitDescriptor(ParabolicIndex(n, frozenset(range(n - 1))), "interior", tuple(notes))
    (neg_rate, _), face = best
    notes.append(
        f"node:wall_escape;twist={face.w.one_line()};rate={Fraction(-neg_rate, L)};"
        "no_further_degeneration"
    )
    return LimitDescriptor(ParabolicIndex(n, face.I), "boundary_homogeneous", tuple(notes))
