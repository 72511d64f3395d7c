from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from polyrigid import LinearIsometry, ParameterError, PolytopeNorm, preset, simplex

from _oracles import reference_isometry_group

rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_preset_linf2_faces(linf2):
    assert set(linf2.faces) == {
        (1, 0), (-1, 0), (0, 1), (0, -1)
    }


def test_preset_l1_2_faces(l1_2):
    assert set(l1_2.faces) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_preset_linf1_faces(linf1):
    assert set(linf1.faces) == {(1,), (-1,)}


def test_preset_rejects_zero_dim():
    with pytest.raises(ParameterError):
        preset("linf", 0)
    with pytest.raises(ParameterError):
        preset("lp", 2)


def test_norm_values(linf2, l1_2):
    assert linf2.value((1, -3)) == 3
    assert l1_2.value((1, -3)) == 4
    assert linf2.value((0, 0)) == 0
    assert l1_2.value((0, 0)) == 0


def test_preset_recognition(linf2, l1_2):
    assert linf2.is_linf and not linf2.is_l1
    assert l1_2.is_l1 and not l1_2.is_linf
    assert preset("l1", 3).is_l1 and not preset("linf", 3).is_l1
    skew = PolytopeNorm(2, [(1, 0), (-1, 0), (1, 1), (-1, -1)])
    assert not skew.is_l1 and not skew.is_linf


def test_active_faces(linf2, l1_2):
    assert linf2.active_faces((1, Fraction(9, 10))) == ((1, 0),)
    assert set(linf2.active_faces((1, 1))) == {(1, 0), (0, 1)}
    assert l1_2.active_faces((1, -3)) == ((1, -1),)
    with pytest.raises(ParameterError):
        linf2.active_faces((0, 0))


def test_smooth_points(linf2, l1_2):
    assert linf2.is_smooth_point((1, Fraction(9, 10)))
    assert not linf2.is_smooth_point((1, 1))
    assert not l1_2.is_smooth_point((1, 0))


def test_validation_rejects_bad_face_sets():
    with pytest.raises(ParameterError):
        PolytopeNorm(2, [(1, 0), (0, 1), (0, -1)])  # not centrally symmetric
    with pytest.raises(ParameterError):
        PolytopeNorm(2, [(1, 0), (-1, 0)])  # does not span
    with pytest.raises(ParameterError):
        PolytopeNorm(2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])  # zero face
    with pytest.raises(ParameterError):
        PolytopeNorm(2, [(1, 0), (1, 0), (-1, 0), (-1, 0)])  # duplicates


def rejection(faces):
    with pytest.raises(ParameterError) as caught:
        PolytopeNorm(2, faces)
    return str(caught.value)


def test_validation_messages_with_rational_faces():
    # the checks run on the faces over their common denominator; the
    # messages, and the face an unmatched or redundant one names, do not move
    half, third = Fraction(1, 2), Fraction(1, 3)
    box = [(half, 0), (-half, 0), (0, third), (0, -third)]
    assert rejection(box + [(Fraction(2, 4), 0)]) == "duplicate face normals"
    assert rejection([(0, 0)] + box) == "zero vector cannot be a face normal"
    assert rejection(box[:3]) == (
        "face set is not centrally symmetric: (Fraction(0, 1), Fraction(1, 3)) unmatched"
    )
    assert rejection(box[:2]) == "face normals do not span the space (unit ball unbounded)"
    assert rejection(box + [(Fraction(1, 4), Fraction(1, 6)), (Fraction(-1, 4), Fraction(-1, 6))]) == (
        "redundant face normal (Fraction(1, 4), Fraction(1, 6)): not a facet of the unit ball"
    )


def test_validation_rejects_redundant_face():
    # (1,1) normal sticks out past the square's corner only when scaled;
    # at 1/2 scale the max of (1/2)(x+y) over the square is 1: not a facet
    with pytest.raises(ParameterError):
        PolytopeNorm(
            2,
            [
                (1, 0), (-1, 0), (0, 1), (0, -1),
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(-1, 2), Fraction(-1, 2)),
            ],
        )


def test_preset_faces_are_facets_without_an_lp(monkeypatch):
    # every linf and l1 face is settled by its dot products with the others
    def no_lp(*args):
        raise AssertionError("the facet check ran an LP")

    monkeypatch.setattr(simplex, "maximize", no_lp)
    for d in range(1, 7):
        for kind in ("linf", "l1"):
            assert len(preset(kind, d).faces) == (2 * d if kind == "linf" else 2 ** d)


def test_octagon_norm_is_valid():
    # faces of a regular-ish octagon: square faces plus diagonal faces
    # tight enough to cut the corners
    oct_norm = PolytopeNorm(
        2,
        [
            (1, 0), (-1, 0), (0, 1), (0, -1),
            (Fraction(3, 4), Fraction(3, 4)),
            (Fraction(-3, 4), Fraction(-3, 4)),
            (Fraction(3, 4), Fraction(-3, 4)),
            (Fraction(-3, 4), Fraction(3, 4)),
        ],
    )
    assert oct_norm.value((1, 1)) == Fraction(3, 2)
    assert len(oct_norm.isometry_group()) == 8


def test_group_orders(linf1, linf2, linf3, l1_2):
    assert len(linf1.isometry_group()) == 2
    assert len(linf2.isometry_group()) == 8
    assert len(linf3.isometry_group()) == 48
    assert len(l1_2.isometry_group()) == 8


def test_group_contains_plus_minus_identity(linf2):
    mats = {T.matrix for T in linf2.isometry_group()}
    assert ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) in mats
    assert ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))) in mats


def test_group_closed_under_composition_and_inverse(linf2):
    group = linf2.isometry_group()
    mats = {T.matrix for T in group}

    def mul(a, b):
        d = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
            for i in range(d)
        )

    for T in group:
        for S in group:
            assert mul(T.matrix, S.matrix) in mats
    # inverses exist inside a finite group closed under multiplication;
    # spot-check that each element's powers return to the identity
    ident = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(2))
        for i in range(2)
    )
    for T in group:
        power = T.matrix
        for _ in range(10):
            if power == ident:
                break
            power = mul(power, T.matrix)
        assert power == ident


def octagon_norm():
    """A valid planar norm with non-integer faces (denominator 4)."""
    q = Fraction(3, 4)
    return PolytopeNorm(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (q, q), (-q, -q), (q, -q), (-q, q)])


def wide_hexagon():
    """A planar norm whose 12 isometries include matrices over 2."""
    return PolytopeNorm(2, [(2, 0), (-2, 0), (1, 1), (-1, -1), (-1, 1), (1, -1)])


def group_norms():
    hexagon = PolytopeNorm(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    return [preset(k, d) for k in ("linf", "l1") for d in (1, 2, 3)] + [octagon_norm(), hexagon, wide_hexagon()]


def test_group_matches_the_fraction_reference():
    # the integer enumeration keeps the same elements, with the same face
    # permutations, in the same order as a Fraction matrix per candidate
    for norm in group_norms():
        matrices, perms = reference_isometry_group(norm)
        group = norm.isometry_group()
        assert [T.matrix for T in group] == matrices
        assert list(norm.face_permutations()) == perms
        for T in group:
            assert T.den > 0 and gcd(T.den, *(x for row in T.ints for x in row)) == 1
    dens = sorted(T.den for T in wide_hexagon().isometry_group())
    assert len(dens) == 12 and dens[0] == 1 and dens[-1] == 2


def test_isometry_reduces_its_integer_matrix():
    # equality and hashing read (ints, den): equal maps must share one form
    identity = LinearIsometry(((1, 0), (0, 1)), 1)
    scaled = LinearIsometry(((2, 0), (0, 2)), 2)
    assert scaled == identity and hash(scaled) == hash(identity)
    assert (scaled.ints, scaled.den) == (((1, 0), (0, 1)), 1)
    flipped = LinearIsometry(((0, -2), (4, 0)), -4)
    assert (flipped.ints, flipped.den) == (((0, 1), (-2, 0)), 2)
    assert flipped.matrix == ((0, Fraction(1, 2)), (-1, 0))
    with pytest.raises(ParameterError, match="denominator"):
        LinearIsometry(((1, 0), (0, 1)), 0)


def test_face_permutations_form_a_group():
    for norm in group_norms():
        perms = norm.face_permutations()
        n = len(norm.faces)
        members = set(perms)
        assert len(members) == len(perms) == len(norm.isometry_group())
        assert tuple(range(n)) in members
        negation = tuple(norm.face_index[tuple(-x for x in f)] for f in norm.faces)
        assert negation in members
        for p in perms:
            inverse = [0] * n
            for i, j in enumerate(p):
                inverse[j] = i
            assert tuple(inverse) in members
            for r in perms:
                assert tuple(p[r[i]] for i in range(n)) in members


def test_face_permutations_are_the_transpose_action():
    for norm in group_norms():
        group = norm.isometry_group()
        perms = norm.face_permutations()
        assert len(group) == len(perms)
        for T, perm in zip(group, perms):
            assert [norm.faces[j] for j in perm] == [T.transpose_apply(f) for f in norm.faces]


def test_face_permutation_orders(linf1, linf2, linf3, l1_2):
    # the orders of acceptance criterion 9, and the octagon's
    for norm, order in ((linf1, 2), (linf2, 8), (linf3, 48), (l1_2, 8), (octagon_norm(), 8)):
        assert len(norm.face_permutations()) == order


def test_group_order_in_dimension_four():
    for kind in ("linf", "l1"):
        norm = preset(kind, 4)
        assert len(norm.isometry_group()) == len(norm.face_permutations()) == 384


def test_integer_faces_over_common_denominator():
    norm = octagon_norm()
    assert norm.denominator == 4
    assert all(
        tuple(Fraction(x, norm.denominator) for x in g) == f
        for f, g in zip(norm.faces, norm.int_faces)
    )
    assert preset("l1", 3).denominator == 1


@settings(max_examples=120, deadline=None)
@given(rational, rational)
def test_norm_axioms_linf2(a, b):
    norm = preset("linf", 2)
    x = (a, b)
    assert norm.value(x) == max(abs(a), abs(b))
    assert norm.value((-a, -b)) == norm.value(x)
    assert norm.value((3 * a, 3 * b)) == 3 * norm.value(x)


@settings(max_examples=100, deadline=None)
@given(rational, rational, rational, rational)
def test_triangle_inequality(a, b, c, d):
    for kind in ("linf", "l1"):
        norm = preset(kind, 2)
        assert norm.value((a + c, b + d)) <= norm.value((a, b)) + norm.value((c, d))


def test_group_preserves_norm_sampled(linf3):
    import random

    rng = random.Random(42)
    group = linf3.isometry_group()
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))
        val = linf3.value(x)
        for T in group:
            assert linf3.value(T.apply(x)) == val


def test_smooth_points_dense(linf2, l1_2):
    delta = Fraction(1, 1009)
    for norm in (linf2, l1_2):
        for x in [(1, 1), (1, -1), (1, 0), (Fraction(3, 7), Fraction(3, 7))]:
            perturbations = [
                (x[0] + s1 * delta, x[1] + s2 * delta)
                for s1 in (-1, 0, 1)
                for s2 in (-1, 0, 1)
                if (s1, s2) != (0, 0)
            ]
            assert any(
                norm.is_smooth_point(p) for p in perturbations
            ), (norm, x)
