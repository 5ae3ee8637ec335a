"""Exact root-system checks.

The expected values below are frozen from independent derivations:

* inverse type-A Cartan closed form: (C^-1)_{ij} = min(i,j)(n - max(i,j))/n
  with 1-based indices, for A_{n-1};
* projections computed by hand from the 2x2 Gram data;
* chamber membership cross-checked against brute force over W x subsets.
"""

import doctest
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import escmass.rootsys as rootsys
from escmass.rootsys import (
    ChamberFace,
    WeightVector,
    build_product,
    build_type_a,
    canonical_face,
    levi_sphere,
    locate_chamber,
    make_vector,
    pairing,
    project_weight,
    quasi_fundamental_weights,
    weyl_elements,
)


def closed_form_inverse_cartan(n):
    """(C^-1)_{ij} = min(i,j)(n - max(i,j))/n, 1-based, for A_{n-1}."""
    r = n - 1
    return [
        [
            Fraction(min(i, j) * (n - max(i, j)), n)
            for j in range(1, r + 1)
        ]
        for i in range(1, r + 1)
    ]


def test_doctests():
    assert doctest.testmod(rootsys).failed == 0


def test_cartan_matrices_small():
    assert build_type_a(2).cartan == ((2,),)
    assert build_type_a(3).cartan == ((2, -1), (-1, 2))
    c4 = build_type_a(4).cartan
    assert c4[0][2] == 0 and c4[2][0] == 0
    assert all(c4[i][i] == 2 for i in range(3))


def test_quasi_fundamental_weights_match_closed_form_a1_to_a8():
    for n in range(2, 10):
        rs = build_type_a(n)
        inv = closed_form_inverse_cartan(n)
        chis = quasi_fundamental_weights(rs)
        for j, chi in enumerate(chis):
            expected = tuple(inv[i][j] for i in range(n - 1))
            assert chi.coords == expected
            assert all(c > 0 for c in chi.coords)


def test_a2_chi1_frozen_value():
    rs = build_type_a(3)
    assert quasi_fundamental_weights(rs)[0].coords == (Fraction(2, 3), Fraction(1, 3))


def test_a1_chi_frozen_value():
    rs = build_type_a(2)
    assert quasi_fundamental_weights(rs)[0].coords == (Fraction(1, 2),)


def test_quasi_fundamental_duality_exact():
    for ns in [(3,), (4,), (2, 3)]:
        rs = build_product(ns)
        chis = quasi_fundamental_weights(rs)
        roots = rs.simple_roots
        for a, chi in enumerate(chis):
            amb = chi.ambient()
            for b, beta in enumerate(roots):
                val = pairing(rs, amb, beta)
                assert (val > 0) if a == b else (val == 0)


def test_restriction_a2_frozen_values():
    rs = build_type_a(3)
    # projection of chi_1 onto span(alpha_1) is alpha_1/2
    proj = project_weight(rs, [0], quasi_fundamental_weights(rs)[0])
    assert proj.coords == (Fraction(1, 2), Fraction(0))
    # projection of alpha_2 onto span(alpha_1) has coefficient -1/2
    alpha2 = WeightVector(rs, (Fraction(0), Fraction(1)))
    p = project_weight(rs, [0], alpha2)
    assert p.coords == (Fraction(-1, 2), Fraction(0))


def test_restriction_identity_when_full():
    rs = build_type_a(4)
    chis = quasi_fundamental_weights(rs)
    restricted = [project_weight(rs, range(rs.rank), chi) for chi in chis]
    assert [r.coords for r in restricted] == [c.coords for c in chis]


def test_projection_orthogonality_all_subsets_n_up_to_4():
    for n in (2, 3, 4):
        rs = build_type_a(n)
        basis = [
            WeightVector(rs, tuple(Fraction(int(i == j)) for j in range(rs.rank)))
            for i in range(rs.rank)
        ]
        for r in range(rs.rank + 1):
            for I in itertools.combinations(range(rs.rank), r):
                for x in basis:
                    pi1 = project_weight(rs, I, x)
                    for y in basis:
                        pi1y = project_weight(rs, I, y)
                        pi2y = WeightVector(
                            rs,
                            tuple(a - b for a, b in zip(y.coords, pi1y.coords)),
                        )
                        val = pairing(rs, pi1.ambient(), pi2y.ambient())
                        assert val == 0


def test_restricted_weights_nonpositive_outside_I():
    # the complementary roots project with non-positive coefficients
    for n in (3, 4):
        rs = build_type_a(n)
        for r in range(1, rs.rank):
            for I in itertools.combinations(range(rs.rank), r):
                for b in set(range(rs.rank)) - set(I):
                    beta = WeightVector(
                        rs, tuple(Fraction(int(k == b)) for k in range(rs.rank))
                    )
                    p = project_weight(rs, I, beta)
                    assert all(c <= 0 for c in p.coords)


def test_locate_chamber_origin_and_dominant():
    rs = build_type_a(3)
    face = locate_chamber(rs, make_vector(rs, [0, 0, 0]))
    assert face.w.is_identity() and face.I == frozenset({0, 1})
    face = locate_chamber(rs, make_vector(rs, [2, 0, -2]))
    assert face.w.is_identity() and face.I == frozenset()


def brute_force_faces(rs):
    faces = {}
    for w in weyl_elements(rs):
        for r in range(rs.rank + 1):
            for I in itertools.combinations(range(rs.rank), r):
                f = canonical_face(w, frozenset(I))
                faces[f.key()] = f
    return list(faces.values())


def face_contains(rs, face, v):
    for i in range(rs.rank):
        val = pairing(rs, v, face.w.act(rs.simple_roots[i]))
        if i in face.I and val != 0:
            return False
        if i not in face.I and val <= 0:
            return False
    return True


def test_locate_chamber_antidominant_wall_example():
    rs = build_type_a(3)
    # <v, a1> = -3, <v, a2> = 3
    v = make_vector(rs, [Fraction(-1), Fraction(2), Fraction(-1)])
    face = locate_chamber(rs, v)
    assert not face.w.is_identity()
    assert len(face.I) == 1
    matches = [f for f in brute_force_faces(rs) if face_contains(rs, f, v)]
    assert len(matches) == 1
    assert matches[0].key() == face.key()


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.sampled_from(list(itertools.permutations(range(3)))),
)
def test_locate_chamber_partition_and_equivariance(raw, perm):
    rs = build_type_a(3)
    total = sum(raw)
    v = make_vector(rs, [Fraction(3 * x - total) for x in raw])
    face = locate_chamber(rs, v)
    matches = [f for f in brute_force_faces(rs) if face_contains(rs, f, v)]
    assert len(matches) == 1 and matches[0].key() == face.key()
    w = rootsys.WeylElement(rs, (perm,))
    moved = locate_chamber(rs, w.act(v))
    # w after face.w, in one-line form: i -> perm[face.w(i)]
    composed = rootsys.WeylElement(rs, (tuple(perm[j] for j in face.w.perms[0]),))
    assert moved.key() == canonical_face(composed, face.I).key()


def test_levi_sphere_a2_wall_has_two_maximal_faces():
    rs = build_type_a(3)
    faces = levi_sphere(rs, [0])
    maximal = [f for f in faces if len(f.I) == 1]
    assert len(maximal) == 2
    keys = {(f.w.one_line(), tuple(sorted(f.I))) for f in maximal}
    assert ((0, 1, 2), (0,)) in keys  # the standard face
    # total: two rays plus the origin face
    assert len(faces) == 3
    assert any(f.I == frozenset({0, 1}) for f in faces)


def test_levi_sphere_full_I_only_origin():
    rs = build_type_a(3)
    faces = levi_sphere(rs, [0, 1])
    assert len(faces) == 1
    assert faces[0].I == frozenset({0, 1}) and faces[0].w.is_identity()


def test_levi_sphere_empty_I_is_whole_complex_a2():
    rs = build_type_a(3)
    faces = levi_sphere(rs, [])
    # A2 fan: 6 chambers + 6 rays + origin = 13 cones
    assert len(faces) == 13


def test_levi_sphere_product_factorizes():
    rs = build_product([2, 2])
    faces = levi_sphere(rs, [0])
    # factor 1 pinned to its wall; factor 2 free: cone dim <= 1
    # faces: (wall, {pm chamber, origin}) -> J in {{0},{0,1}}
    sizes = sorted(len(f.I) for f in faces)
    assert sizes == [1, 1, 2]


def test_weyl_action_preserves_pairing():
    rs = build_type_a(4)
    rng = random.Random(7)
    for _ in range(20):
        raw_u = [rng.randint(-5, 5) for _ in range(4)]
        raw_v = [rng.randint(-5, 5) for _ in range(4)]
        u = make_vector(rs, [Fraction(4 * x - sum(raw_u)) for x in raw_u])
        v = make_vector(rs, [Fraction(4 * x - sum(raw_v)) for x in raw_v])
        for w in itertools.islice(weyl_elements(rs), 6):
            assert pairing(rs, w.act(u), w.act(v)) == pairing(rs, u, v)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_type_a(1)
    with pytest.raises(ValueError):
        build_type_a(10)
    with pytest.raises(ValueError):
        make_vector(build_type_a(3), [1, 0, 0])


# Face keys of levi_sphere at every I, recorded before its loop was
# restructured: A_2 in full, A_3 as (count, sha256 of repr(keys)).
LEVI_SPHERE_A2 = {
    (): [((0, 1, 2), ()), ((0, 1, 2), (0,)), ((0, 1, 2), (0, 1)), ((0, 1, 2), (1,)),
         ((0, 2, 1), ()), ((0, 2, 1), (0,)), ((1, 0, 2), ()), ((1, 0, 2), (1,)),
         ((1, 2, 0), ()), ((1, 2, 0), (0,)), ((2, 0, 1), ()), ((2, 0, 1), (1,)),
         ((2, 1, 0), ())],
    (0,): [((0, 1, 2), (0,)), ((0, 1, 2), (0, 1)), ((2, 0, 1), (1,))],
    (1,): [((0, 1, 2), (0, 1)), ((0, 1, 2), (1,)), ((1, 2, 0), (0,))],
    (0, 1): [((0, 1, 2), (0, 1))],
}
LEVI_SPHERE_A3 = {
    (): (75, "ae76484db5b75acb843a4b6258888e5da25dc64ba99f7ee6e84ca882add2f018"),
    (0,): (13, "0342682df764b0ef8feab98e848caf77baa99f1aef4eef2850147d4b0df330a4"),
    (1,): (13, "d76e04500891f23ce46795afb7c9ca3cf7449ee9ce97105286068f9cd23bb150"),
    (2,): (13, "e2c3d69e5fccecf0e0041835e76fb1413e997181a811447617720bf38bf739e1"),
    (0, 1): (3, "1a3a79337bb9c23a1e7c1671c74071de0678b63abfc254b34902870efe343244"),
    (0, 2): (3, "70ecad8aff4efa5308ee75994df3b0937b5353c74bad527b6a8fc30fc55812ee"),
    (1, 2): (3, "9d7d7070233210e327da015f75cacf494c164d40e6eb58196fa7181c8c2d1eb7"),
    (0, 1, 2): (1, "f5c1a1f4f1b5a89a6803fd5b97cb6b0c78f46a0230bb72dbd3f39a4cb73e8985"),
}


def test_levi_sphere_face_keys_are_pinned():
    rs = build_type_a(3)
    assert {I: [f.key() for f in levi_sphere(rs, I)] for I in LEVI_SPHERE_A2} == LEVI_SPHERE_A2
    rs = build_type_a(4)
    for I, (count, want) in LEVI_SPHERE_A3.items():
        keys = [f.key() for f in levi_sphere(rs, I)]
        assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()) == (count, want), I
