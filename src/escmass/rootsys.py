"""Exact rational combinatorics of type-A root systems and finite products.

Everything here is exact: vectors live in the "exponent" coordinates of the
diagonal torus of SL_n (tuples of Fractions summing to zero on each factor
block), the pairing is the trace form restricted to those coordinates, and
the Weyl group acts by permuting coordinates within each factor.  With that
normalization the Gram matrix of the simple roots in the Delta-basis is the
integer type-A Cartan matrix, and the quasi-fundamental weights are the
columns of its exact inverse.

>>> rs = build_type_a(3)
>>> rs.cartan
((2, -1), (-1, 2))
>>> [w.coords for w in quasi_fundamental_weights(rs)]
[(Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3))]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .qfield import rat_inverse

Vector = Tuple[Fraction, ...]
Perm = Tuple[int, ...]  # one-line notation on {0..n-1}

# hard cap on a single factor: keeps weyl_elements enumerable (9! worst case)
# while still admitting every rank <= 8 exact-arithmetic identity
MAX_FACTOR_SIZE = 9


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class RootSystem:
    """Root data of SL_{n_1} x ... x SL_{n_k} (type A_{n_i - 1} factors).

    ``ns`` holds the matrix sizes n_i; ``factors`` the per-factor ranks
    n_i - 1; ``rank`` their sum.  ``simple_roots`` are ambient exponent vectors,
    ordered factor by factor; ``cartan`` is their exact Gram matrix under the
    trace form (integer entries).
    """

    ns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ns:
            raise ValueError("need at least one factor")
        for n in self.ns:
            if n < 2:
                raise ValueError("each factor needs n >= 2")
            if n > MAX_FACTOR_SIZE:
                raise ValueError(f"factor size {n} exceeds supported bound {MAX_FACTOR_SIZE}")

    @property
    def factors(self) -> Tuple[int, ...]:
        return tuple(n - 1 for n in self.ns)

    @property
    def rank(self) -> int:
        return sum(self.factors)

    @property
    def ambient_dim(self) -> int:
        return sum(self.ns)

    # -- indexing helpers --------------------------------------------------

    def factor_offsets(self) -> Tuple[int, ...]:
        """Ambient-coordinate offset of each factor block."""
        out, acc = [], 0
        for n in self.ns:
            out.append(acc)
            acc += n
        return tuple(out)

    def root_offsets(self) -> Tuple[int, ...]:
        """Simple-root-index offset of each factor block."""
        out, acc = [], 0
        for n in self.ns:
            out.append(acc)
            acc += n - 1
        return tuple(out)

    def root_factor(self, i: int) -> int:
        """Which factor simple root i belongs to."""
        if not 0 <= i < self.rank:
            raise IndexError(i)
        for f, off in enumerate(self.root_offsets()):
            if off <= i < off + self.factors[f]:
                return f
        raise AssertionError

    def root_coordinates(self, i: int) -> Tuple[int, int]:
        """Ambient coordinate pair (c, c+1) of simple root i (root = e_c - e_{c+1})."""
        f = self.root_factor(i)
        c = self.factor_offsets()[f] + (i - self.root_offsets()[f])
        return c, c + 1

    @property
    def simple_roots(self) -> Tuple[Vector, ...]:
        out = []
        for i in range(self.rank):
            c, d = self.root_coordinates(i)
            vec = [Fraction(0)] * self.ambient_dim
            vec[c], vec[d] = Fraction(1), Fraction(-1)
            out.append(tuple(vec))
        return tuple(out)

    @property
    def cartan(self) -> Tuple[Tuple[int, ...], ...]:
        roots = self.simple_roots
        gram = [
            [int(pairing(self, a, b)) for b in roots]
            for a in roots
        ]
        return tuple(tuple(row) for row in gram)


@dataclass(frozen=True)
class WeightVector:
    """A rational vector in the Delta-basis of a root system."""

    system: RootSystem
    coords: Vector

    def __post_init__(self) -> None:
        if len(self.coords) != self.system.rank:
            raise ValueError("coordinate length must equal the rank")

    def ambient(self) -> Vector:
        out = [Fraction(0)] * self.system.ambient_dim
        for c, root in zip(self.coords, self.system.simple_roots):
            for k, r in enumerate(root):
                out[k] += c * r
        return tuple(out)


@dataclass(frozen=True)
class WeylElement:
    """One permutation per factor, acting on ambient coordinates by
    (w.x)_{perm(i)} = x_i within each factor block."""

    system: RootSystem
    perms: Tuple[Perm, ...]

    def __post_init__(self) -> None:
        if len(self.perms) != len(self.system.ns):
            raise ValueError("need one permutation per factor")
        for p, n in zip(self.perms, self.system.ns):
            if sorted(p) != list(range(n)):
                raise ValueError(f"{p} is not a permutation of 0..{n - 1}")

    def one_line(self) -> Perm:
        """Concatenated one-line form over ambient coordinates."""
        out: List[int] = []
        for p, off in zip(self.perms, self.system.factor_offsets()):
            out.extend(off + v for v in p)
        return tuple(out)

    def is_identity(self) -> bool:
        return all(p == tuple(range(n)) for p, n in zip(self.perms, self.system.ns))

    def inverse(self) -> "WeylElement":
        inv_perms = []
        for p in self.perms:
            inv = [0] * len(p)
            for i, v in enumerate(p):
                inv[v] = i
            inv_perms.append(tuple(inv))
        return WeylElement(self.system, tuple(inv_perms))

    def act(self, v: Vector) -> Vector:
        if len(v) != self.system.ambient_dim:
            raise ValueError("ambient vector expected")
        out = [Fraction(0)] * len(v)
        for p, off in zip(self.perms, self.system.factor_offsets()):
            for i, target in enumerate(p):
                out[off + target] = v[off + i]
        return tuple(out)


@dataclass(frozen=True)
class ChamberFace:
    """The cone w·C_I (dominant-chamber face with walls I, moved by w),
    canonicalized so equal cones compare equal."""

    w: WeylElement
    I: FrozenSet[int]

    def key(self) -> Tuple[Perm, Tuple[int, ...]]:
        return self.w.one_line(), tuple(sorted(self.I))


# ---------------------------------------------------------------------------
# construction


def build_type_a(n: int) -> RootSystem:
    """Root system of SL_n, type A_{n-1}.

    >>> build_type_a(2).cartan
    ((2,),)
    >>> build_type_a(4).cartan[0][2]
    0
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return RootSystem((n,))


def build_product(ns: Sequence[int]) -> RootSystem:
    """Product system: concatenation of type-A factors.

    >>> build_product([2, 2, 2]).rank
    3
    """
    return RootSystem(tuple(ns))


def make_vector(rs: RootSystem, entries: Sequence) -> Vector:
    """Validate and coerce an ambient exponent vector (sum zero per factor).

    >>> rs = build_type_a(3)
    >>> make_vector(rs, [1, 0, -1])[0]
    Fraction(1, 1)
    """
    v = tuple(x if type(x) is Fraction else Fraction(x) for x in entries)
    if len(v) != rs.ambient_dim:
        raise ValueError(f"expected {rs.ambient_dim} coordinates")
    for off, n in zip(rs.factor_offsets(), rs.ns):
        if sum(v[off:off + n]) != 0:
            raise ValueError("coordinates must sum to zero on each factor")
    return v


def pairing(rs: RootSystem, u: Vector, v: Vector) -> Fraction:
    """Trace-form pairing of ambient vectors (exact).

    >>> rs = build_type_a(3)
    >>> a1, a2 = rs.simple_roots
    >>> pairing(rs, a1, a2)
    Fraction(-1, 1)
    """
    if len(u) != rs.ambient_dim or len(v) != rs.ambient_dim:
        raise ValueError("ambient vectors expected")
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def weyl_elements(rs: RootSystem) -> Iterator[WeylElement]:
    """All elements of the (product) Weyl group. |W| = prod n_i!."""
    pools = [list(itertools.permutations(range(n))) for n in rs.ns]
    for combo in itertools.product(*pools):
        yield WeylElement(rs, tuple(combo))


# ---------------------------------------------------------------------------
# weights


@lru_cache(maxsize=None)
def _inverse_cartan(rs: RootSystem) -> Tuple[Tuple[Fraction, ...], ...]:
    return rat_inverse(rs.cartan)


def quasi_fundamental_weights(rs: RootSystem) -> List[WeightVector]:
    """The dual basis {chi_alpha} with pairing(chi_alpha, beta) = delta_ab,
    expressed exactly in the Delta-basis (inverse-Cartan columns).

    Every coordinate is a positive rational — asserted here because the
    classifiers rely on it.

    >>> rs = build_type_a(2)
    >>> quasi_fundamental_weights(rs)[0].coords
    (Fraction(1, 2),)
    """
    inv = _inverse_cartan(rs)
    out = []
    for j in range(rs.rank):
        col = tuple(inv[i][j] for i in range(rs.rank))
        jf = rs.root_factor(j)
        for i, c in enumerate(col):
            if rs.root_factor(i) == jf and c <= 0:
                raise AssertionError("inverse Cartan must be positive within a factor")
            if rs.root_factor(i) != jf and c != 0:
                raise AssertionError("factors must not mix")
        out.append(WeightVector(rs, col))
    return out


def project_weight(rs: RootSystem, I: Iterable[int], w: WeightVector) -> WeightVector:
    """Exact orthogonal projection of w onto span{alpha_i : i in I},
    returned in the Delta-basis (coordinates supported on I)."""
    idx = sorted(set(I))
    for i in idx:
        if not 0 <= i < rs.rank:
            raise ValueError(f"root index {i} out of range")
    if not idx:
        return WeightVector(rs, tuple(Fraction(0) for _ in range(rs.rank)))
    c = rs.cartan
    gram = [[Fraction(c[a][b]) for b in idx] for a in idx]
    ginv = rat_inverse(gram)
    # pairing of w with each alpha_a, a in I: (C x)_a for Delta-coords x
    rhs = []
    for a in idx:
        rhs.append(sum(Fraction(c[a][b]) * w.coords[b] for b in range(rs.rank)))
    sol = [sum(ginv[r][s] * rhs[s] for s in range(len(idx))) for r in range(len(idx))]
    coords = [Fraction(0)] * rs.rank
    for r, a in enumerate(idx):
        coords[a] = sol[r]
    return WeightVector(rs, tuple(coords))


# ---------------------------------------------------------------------------
# chambers


def _argsort_desc_stable(block: Sequence[Fraction]) -> Perm:
    return tuple(sorted(range(len(block)), key=lambda i: (-block[i], i)))


def canonical_face(w: WeylElement, I: FrozenSet[int]) -> ChamberFace:
    """Canonical coset representative of w·W_I: within each run of
    coordinates joined by I, sort the w-images ascending (lex-least
    one-line form)."""
    rs = w.system
    joined = _coordinate_blocks(rs, I)
    new_perms = []
    for f, (p, off, n) in enumerate(zip(w.perms, rs.factor_offsets(), rs.ns)):
        q = list(p)
        for block in joined:
            local = [c - off for c in block if off <= c < off + n]
            if len(local) > 1:
                images = sorted(q[c] for c in local)
                for c, img in zip(local, images):
                    q[c] = img
        new_perms.append(tuple(q))
    return ChamberFace(WeylElement(rs, tuple(new_perms)), I)


def _coordinate_blocks(rs: RootSystem, I: Iterable[int]) -> List[List[int]]:
    """Partition of ambient coordinates into runs joined by the roots in I
    (root i joins its coordinate pair)."""
    iset = set(I)
    blocks: List[List[int]] = []
    for off, n in zip(rs.factor_offsets(), rs.ns):
        current = [off]
        for c in range(off, off + n - 1):
            # root joining (c, c+1)
            f = rs.factor_offsets().index(off)
            i = rs.root_offsets()[f] + (c - off)
            if i in iset:
                current.append(c + 1)
            else:
                blocks.append(current)
                current = [c + 1]
        blocks.append(current)
    return blocks


def locate_chamber(rs: RootSystem, v: Vector) -> ChamberFace:
    """The unique canonical (w, I) with <v, w·alpha> = 0 for alpha in I and
    > 0 for alpha not in I.

    >>> rs = build_type_a(3)
    >>> face = locate_chamber(rs, make_vector(rs, [0, 0, 0]))
    >>> (face.w.is_identity(), sorted(face.I))
    (True, [0, 1])
    """
    v = make_vector(rs, v)
    perms = []
    walls: List[int] = []
    for f, (off, n) in enumerate(zip(rs.factor_offsets(), rs.ns)):
        block = v[off:off + n]
        p = _argsort_desc_stable(block)
        # one-line w: w(i) = position of sorted entry i, i.e. w = p as a map
        # sorted[k] = block[p[k]]  =>  w maps slot k to coordinate p[k];
        # we need (w·t)_{w(k)} = t_k with t = sorted block, so w(k) = p[k].
        perms.append(p)
        for k in range(n - 1):
            if block[p[k]] == block[p[k + 1]]:
                walls.append(rs.root_offsets()[f] + k)
    w = WeylElement(rs, tuple(perms))
    face = canonical_face(w, frozenset(walls))
    # exact postcondition check (cheap, and the contract demands exactness)
    for i in range(rs.rank):
        val = pairing(rs, v, face.w.act(rs.simple_roots[i]))
        if i in face.I:
            assert val == 0
        else:
            assert val > 0
    return face


def levi_sphere(rs: RootSystem, I: Iterable[int]) -> List[ChamberFace]:
    """All canonical faces (w, J) whose cone w·C_J lies inside every wall
    H_alpha, alpha in I.  Maximal such faces have |J| = |I| and parametrize
    the parabolic subgroups whose Levi contains the I-wall torus.

    >>> rs = build_type_a(3)
    >>> faces = levi_sphere(rs, [0])
    >>> sum(1 for f in faces if len(f.I) == 1)
    2
    """
    iset = frozenset(I)
    for i in iset:
        if not 0 <= i < rs.rank:
            raise ValueError(f"root index {i} out of range")
    seen: Dict[Tuple[Perm, Tuple[int, ...]], ChamberFace] = {}
    # (J, block index of each ambient coordinate under the J-joined runs)
    block_maps = []
    for r in range(rs.rank + 1):
        for c in itertools.combinations(range(rs.rank), r):
            J = frozenset(c)
            coord_block = {}
            for bi, b in enumerate(_coordinate_blocks(rs, J)):
                for x in b:
                    coord_block[x] = bi
            block_maps.append((J, coord_block))
    pairs = [rs.root_coordinates(beta) for beta in iset]
    for w in weyl_elements(rs):
        winv = w.inverse().one_line()
        for J, coord_block in block_maps:
            # w^{-1}·beta = e_{winv(c)} - e_{winv(d)} lies in span(J-roots)
            # iff both coordinates fall in the same J-joined block.
            if all(coord_block[winv[c]] == coord_block[winv[d]] for c, d in pairs):
                face = canonical_face(w, J)
                seen.setdefault(face.key(), face)
    return [seen[k] for k in sorted(seen)]
