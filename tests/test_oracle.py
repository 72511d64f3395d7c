from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polyrigid import (
    Framework,
    GLOBALLY_RIGID,
    Graph,
    PolytopeNorm,
    SearchParams,
    congruence_check,
    decide_global_rigidity,
    edge_lengths,
    numeric_witness_search,
    path_graph,
    preset,
)
from polyrigid.framework import apply_isometry, translate

from _oracles import reference_congruence_check


def test_congruence_translation(octahedron):
    moved = translate(octahedron, (3, -2))
    assert congruence_check(octahedron, moved.positions)


def test_congruence_coordinate_swap(octahedron):
    swapped = {
        v: (p[1], p[0]) for v, p in octahedron.positions.items()
    }
    assert congruence_check(octahedron, swapped)


def test_congruence_rejects_genuine_witness(rigid_k4_linf2):
    _, fw = rigid_k4_linf2[0]
    verdict = decide_global_rigidity(fw)
    assert not congruence_check(fw, verdict.witness)


def test_congruence_full_orbit(octahedron):
    for T in octahedron.norm.isometry_group():
        moved = translate(apply_isometry(T, octahedron), (Fraction(1, 7), 5))
        assert congruence_check(octahedron, moved.positions)


def test_numeric_search_path_reflection(linf1):
    fw = Framework(
        path_graph(["v0", "v1", "v2"]), linf1, {"v0": (0,), "v1": (1,), "v2": (3,)}
    )
    witness = numeric_witness_search(fw, SearchParams(restarts=60, steps=80, seed=3))
    assert witness is not None
    assert edge_lengths(fw.with_positions(witness)) == edge_lengths(fw)
    assert not congruence_check(fw, witness)


def test_numeric_search_finds_k4_witness(rigid_k4_linf2):
    _, fw = rigid_k4_linf2[0]
    witness = numeric_witness_search(fw, SearchParams(restarts=400, steps=150, seed=7))
    assert witness is not None
    assert edge_lengths(fw.with_positions(witness)) == edge_lengths(fw)
    assert not congruence_check(fw, witness)
    # agreement with the exact engine
    assert decide_global_rigidity(fw).outcome != GLOBALLY_RIGID


def test_numeric_search_octahedron_none(octahedron):
    witness = numeric_witness_search(
        octahedron, SearchParams(restarts=150, steps=100, seed=5)
    )
    assert witness is None


def test_numeric_search_no_edges(linf2):
    from polyrigid import Graph

    fw = Framework(Graph(["a"]), linf2, {"a": (0, 0)})
    assert numeric_witness_search(fw, SearchParams(restarts=3, steps=3, seed=1)) is None


# -- the integer congruence check against the Fraction loop ---------------

CONGRUENCE_NORMS = [preset(k, d) for k in ("linf", "l1") for d in (1, 2, 3)] + [
    PolytopeNorm(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 4), Fraction(3, 4)),
                     (Fraction(-3, 4), Fraction(-3, 4)), (Fraction(3, 4), Fraction(-3, 4)),
                     (Fraction(-3, 4), Fraction(3, 4))]),
]
coordinate = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_congruence_matches_fraction_loop(data):
    # moved copies (an isometry plus a translation) are congruent; a nudge
    # of one coordinate, or unrelated positions, must get the same answer
    # from both; positions, translations and nudges mix denominators
    norm = data.draw(st.sampled_from(CONGRUENCE_NORMS))
    names = [f"v{i}" for i in range(data.draw(st.integers(1, 5)))]
    point = st.tuples(*[coordinate] * norm.dim)
    fw = Framework(Graph(names), norm, {v: data.draw(point) for v in names})
    T = data.draw(st.sampled_from(norm.isometry_group()))
    t = data.draw(point)
    moved = {v: tuple(a + b for a, b in zip(T.apply(p), t)) for v, p in fw.positions.items()}
    assert congruence_check(fw, moved) and reference_congruence_check(fw, moved)
    nudged = dict(moved)
    v = data.draw(st.sampled_from(names))
    k = data.draw(st.integers(0, norm.dim - 1))
    step = data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=50))
    nudged[v] = tuple(x + step * (i == k) for i, x in enumerate(moved[v]))
    other = {v: data.draw(point) for v in names}
    for q in (nudged, other):
        assert congruence_check(fw, q) == reference_congruence_check(fw, q)
