from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyrigid import (
    Framework,
    GLOBALLY_RIGID,
    GadgetSpec,
    Graph,
    ParameterError,
    PolytopeNorm,
    SearchParams,
    build_k2d,
    build_np_gadget,
    build_octahedron,
    complete_graph,
    congruence_check,
    decide_global_rigidity,
    edge_lengths,
    numeric_witness_search,
    path_graph,
    preset,
    randomize_realisation,
)
from polyrigid import oracle
from polyrigid.errors import DimensionMismatchError
from polyrigid.framework import pinned_system
from polyrigid.oracle import _exactify_via_colouring, _restart_endpoints

from _oracles import (
    apply_isometry,
    reference_colouring,
    reference_congruence_check,
    reference_exactify_via_colouring,
    reference_is_witness,
    reference_numeric_witness_search,
    reference_restart_endpoints,
    translate,
)
from conftest import l1_image


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


@pytest.mark.parametrize("field, value", [("restarts", -3), ("steps", -5)])
def test_search_params_reject_negative_counts(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be at least 0, got {value}$"):
        SearchParams(**{field: value})
    assert getattr(SearchParams(**{field: 0}), field) == 0


@pytest.mark.parametrize("tolerance", [0, -1e-3, float("inf"), float("nan")])
def test_search_params_reject_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(ParameterError, match="^tolerance must be a finite positive number"):
        SearchParams(tolerance=tolerance)


# -- the column descent against the per-vertex-dict reference -------------

def hexed(endpoints):
    """Per-restart (mismatch, positions), every float as float.hex."""
    return [
        (mismatch.hex(), {v: tuple(x.hex() for x in p) for v, p in q.items()})
        for mismatch, q in endpoints
    ]


def descent_cases(linf1, octahedron, rigid_k4_linf2):
    """(framework, params) pairs for the descent's differential tests."""
    triangle = Framework(
        complete_graph(["v0", "v1", "v2"]),
        linf1,
        {"v0": (0,), "v1": (Fraction(5, 17),), "v2": (Fraction(9, 11),)},
    )
    path = Framework(path_graph(["v0", "v1", "v2"]), linf1, {"v0": (0,), "v1": (1,), "v2": (3,)})
    planar = [octahedron, build_np_gadget(GadgetSpec(triangle, 2)).framework, rigid_k4_linf2[0][1]]
    cases = [(path, SearchParams(restarts=20, steps=80, seed=3))]
    cases += [(fw, SearchParams(restarts=6, steps=60, seed=5)) for fw in planar + [l1_image(fw) for fw in planar]]
    cases += [(build_k2d(3), SearchParams(restarts=3, steps=40, tolerance=1e-7, seed=99))]
    # faces with zero and non-unit rational entries (the 3/4-octagon and
    # the wide hexagon), and linf3 and l1 at d = 3 beyond build_k2d(3)
    k4, k5 = complete_graph(list("abcd")), complete_graph(list("abcde"))
    cases += [(randomize_realisation(k4, 2, norm, seed=3, denominator_bound=20),
               SearchParams(restarts=4, steps=60, seed=5)) for norm in CONGRUENCE_NORMS[-2:]]
    cases += [(randomize_realisation(k5, 3, preset(kind, 3), seed=4, denominator_bound=20),
               SearchParams(restarts=3, steps=40, seed=5)) for kind in ("linf", "l1")]
    # zero-length edges: b and c coincide, and the pendant e sits on vertex
    # 0 at the origin, so in linf its first step (0.5) lands it there in the
    # face's coordinate and later deltas of 0.0 meet faces of either sign
    pendant = Graph(list("abcde"), [*k4.edges, ("a", "e")])
    short = SearchParams(restarts=4, steps=30, seed=2)
    line = {"a": (0,), "b": (Fraction(5, 17),), "c": (Fraction(5, 17),), "d": (Fraction(9, 11),), "e": (0,)}
    plane = {"a": (0, 0), "b": (3, 1), "c": (3, 1), "d": (-2, Fraction(7, 3)), "e": (0, 0)}
    cases += [(Framework(pendant, linf1, line), short)]
    cases += [(Framework(pendant, preset(kind, 2), plane), short) for kind in ("linf", "l1")]
    return cases


def test_column_descent_matches_the_reference_bit_for_bit(linf1, octahedron, rigid_k4_linf2):
    # restart endpoints, converged (the path, some octahedron restarts) or
    # not, in linf1, linf2 and its l1 image, linf3, l1 at d = 3 and two
    # norms with zero and non-unit rational face entries
    converged = 0
    for fw, params in descent_cases(linf1, octahedron, rigid_k4_linf2):
        ours = hexed(_restart_endpoints(fw, params))
        assert ours == hexed(reference_restart_endpoints(fw, params))
        assert len(ours) == params.restarts
        converged += sum(float.fromhex(m) < params.tolerance for m, _ in ours)
    assert converged > 20


def test_exact_rebuild_reads_the_reference_colouring(linf1, octahedron, rigid_k4_linf2, monkeypatch):
    # the colouring _exactify_via_colouring solves, read through the
    # descent's face routine, is the per-edge reference's, and so is its point
    colourings = []

    def recorded(fw, rows, phi):
        colourings.append(list(phi))
        return pinned_system(fw, rows, phi)

    monkeypatch.setattr(oracle, "pinned_system", recorded)
    for fw, params in descent_cases(linf1, octahedron, rigid_k4_linf2):
        for _, q in _restart_endpoints(fw, params):
            assert _exactify_via_colouring(fw, q) == reference_exactify_via_colouring(fw, q)
            assert colourings.pop() == reference_colouring(fw, q)
    assert colourings == []


def test_search_hands_no_non_finite_endpoint_to_the_exact_rebuild(linf1, monkeypatch):
    # a NaN mismatch fails `mismatch >= tolerance` as well as `<`, and NaN
    # or inf coordinates have no Fraction; the first endpoint's point is the
    # path's reflection witness, found were its NaN mismatch let through
    fw = Framework(path_graph(["v0", "v1", "v2"]), linf1, {"v0": (0,), "v1": (1,), "v2": (3,)})
    nan, inf = float("nan"), float("inf")
    endpoints = [(nan, {"v0": [0.0], "v1": [1.0], "v2": [-1.0]}),
                 (0.0, {"v0": [0.0], "v1": [nan], "v2": [-1.0]}),
                 (0.0, {"v0": [0.0], "v1": [1.0], "v2": [inf]})]
    monkeypatch.setattr(oracle, "_restart_endpoints", lambda fw, params: iter(endpoints))
    assert numeric_witness_search(fw) is None


def test_lengths_whose_squares_leave_the_float_range_are_a_parameter_error(linf1):
    # every length fits a float, but the sum of their squares, the relative
    # mismatch's scale, does not (and past ~1e308 / 5 neither does the start box)
    for far in (10**200, 10**308):
        fw = Framework(complete_graph(["v0", "v1", "v2"]), linf1, {"v0": (0,), "v1": (far,), "v2": (far // 2,)})
        with pytest.raises(ParameterError, match=f"^value {far} is beyond the float range of the numeric search$"):
            numeric_witness_search(fw, SearchParams(restarts=2, steps=3))


def test_witnesses_match_the_reference_search(linf1, rigid_k4_linf2):
    # the inputs of the path-reflection and K4 tests above
    path = Framework(path_graph(["v0", "v1", "v2"]), linf1, {"v0": (0,), "v1": (1,), "v2": (3,)})
    _, k4 = rigid_k4_linf2[0]
    for fw, params in [(path, SearchParams(restarts=60, steps=80, seed=3)),
                       (k4, SearchParams(restarts=400, steps=150, seed=7))]:
        witness = numeric_witness_search(fw, params)
        assert witness is not None and witness == reference_numeric_witness_search(fw, params)


# -- the integer congruence check against the Fraction loop ---------------

CONGRUENCE_NORMS = [preset(k, d) for k in ("linf", "l1") for d in (1, 2, 3)] + [
    PolytopeNorm(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 4), Fraction(3, 4)),
                     (Fraction(-3, 4), Fraction(-3, 4)), (Fraction(3, 4), Fraction(-3, 4)),
                     (Fraction(-3, 4), Fraction(3, 4))]),
    # a hexagon with isometries over 2: the integer matrices are not all over 1
    PolytopeNorm(2, [(2, 0), (-2, 0), (1, 1), (-1, -1), (-1, 1), (1, -1)]),
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


def test_engine_leaves_the_fraction_matrices_unbuilt():
    # the search reads the face permutations and the congruence check each
    # group element's integer matrix: no Fraction view gets built
    octahedron = build_octahedron()
    decide_global_rigidity(octahedron)
    k4 = Framework(complete_graph(list("abcd")), preset("linf", 2),
                   {"a": (0, 0), "b": (3, 1), "c": (Fraction(1, 2), 4), "d": (-2, Fraction(7, 3))})
    T = k4.norm.isometry_group()[5]
    moved = translate(apply_isometry(T, k4), (Fraction(-1, 3), 2))
    assert congruence_check(k4, moved.positions)
    for norm in (octahedron.norm, k4.norm):
        assert norm._group is not None
        assert all("matrix" not in vars(T) for T in norm.isometry_group())


def test_witness_check_matches_the_fraction_reference():
    # the golden K4 witnesses and p, their images under every group
    # element plus a translation (witnesses, and congruent copies), and
    # one-coordinate nudges of the witness by 1/7 (lengths off); the
    # witness also with string coordinates, and ints on a line
    import json
    from pathlib import Path

    from polyrigid.fileformat import load_framework
    from polyrigid.oracle import is_witness

    golden = Path(__file__).parent / "data" / "golden"
    seen = {True: 0, False: 0}
    for name in ("linf_k4_s49", "linf_k4_s125", "l1_k4_s49", "l1_k4_s125"):
        fw = load_framework(golden / f"{name}.json")
        report = json.loads((golden / f"{name}.global.json").read_text())
        q = {v: tuple(map(Fraction, xs)) for v, xs in report["results"]["exact"]["witness_positions"].items()}
        cases = [q, {v: tuple(map(str, x)) for v, x in q.items()}, fw.positions]
        cases.append({v: (i, 2 * i - 1) for i, v in enumerate(q)})  # ints
        for T in fw.norm.isometry_group():
            for r in (q, fw.positions):
                cases.append({v: tuple(a + b for a, b in zip(T.apply(x), (Fraction(5, 3), -2))) for v, x in r.items()})
        for v in q:
            for k in range(fw.dim):
                cases.append({**q, v: tuple(x + Fraction(1, 7) * (i == k) for i, x in enumerate(q[v]))})
        for case in cases:
            expected = reference_is_witness(fw, case)
            assert is_witness(fw, case) == expected
            seen[expected] += 1
        assert is_witness(fw, cases[0]) and is_witness(fw, cases[1]) and not is_witness(fw, cases[2])
        with pytest.raises(ParameterError, match="missing position"):
            is_witness(fw, {v: x for v, x in q.items() if v != "c"})
        with pytest.raises(DimensionMismatchError):
            is_witness(fw, {**q, "b": q["b"] + (0,)})
    assert seen == {True: 4 * (2 + 8), False: 4 * (2 + 8 + 8)}
