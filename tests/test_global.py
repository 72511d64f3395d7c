from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyrigid import (
    BUDGET_EXCEEDED,
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    NOT_RIGID,
    NOT_WELL_POSITIONED,
    BudgetExceededError,
    Framework,
    Graph,
    InconsistentSystemError,
    ParameterError,
    build_flexible_open,
    build_hypercube,
    build_k2d,
    certify_generic_global,
    colouring_matrix,
    complete_graph,
    congruence_check,
    decide_generic_global_linf2,
    decide_global_rigidity,
    edge_lengths,
    equivalent_witness_lp,
    induced_colouring,
    is_infinitesimally_rigid,
    is_strong_colouring_exhaustive,
    is_strong_colouring_linf,
    preset,
    randomize_realisation,
)
from polyrigid import global_rigidity

from _oracles import column_space_contains, fraction_rank, is_isometric_colouring


def verify_witness(fw, verdict):
    assert verdict.outcome == NOT_GLOBALLY_RIGID
    q = verdict.witness
    assert q is not None
    assert edge_lengths(fw.with_positions(q)) == edge_lengths(fw)
    assert not congruence_check(fw, q)
    # the certificate's colouring is in input edge order: active in q
    phi = verdict.certificate["witness_colouring"]
    assert len(phi) == len(fw.graph.edges)
    for (v, w), face in zip(fw.graph.edges, phi):
        assert face in fw.norm.active_faces([a - b for a, b in zip(q[v], q[w])])


def test_isometric_colouring_examples(linf2):
    group = linf2.isometry_group()
    phi = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert is_isometric_colouring(phi, phi, group)
    neg = tuple(tuple(-x for x in f) for f in phi)
    assert is_isometric_colouring(phi, neg, group)
    uniform = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))
    mixed = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert not is_isometric_colouring(uniform, mixed, group)


def test_column_space_contains(linf2):
    g = Graph(["a", "b"], [("a", "b")])
    rows = colouring_matrix(g, [(Fraction(1), Fraction(0))], 2)
    assert column_space_contains(rows, [Fraction(0)])
    assert column_space_contains(rows, [Fraction(5)])
    zero_rows = [[Fraction(0)] * 4]
    assert column_space_contains(zero_rows, [Fraction(0)])
    assert not column_space_contains(zero_rows, [Fraction(1)])


def test_column_space_contains_lengths(octahedron):
    phi = induced_colouring(octahedron)
    rows = colouring_matrix(octahedron.graph, phi, 2)
    assert column_space_contains(rows, list(edge_lengths(octahedron)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_column_space_contains_matches_augmented_rank(nrows, ncols, consistent, data):
    entry = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 5)])
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if consistent:
        x0 = [data.draw(entry) for _ in range(ncols)]
        vec = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        vec = [data.draw(entry) for _ in range(nrows)]
    augmented = [row + [b] for row, b in zip(rows, vec)]
    assert column_space_contains(rows, vec) == (fraction_rank(augmented) == fraction_rank(rows))


def test_budget_cut_on_a_large_graph():
    """k2d extended to 600 vertices (1,198 edges, rank 1,198): the rank and
    a budgeted search both finish; no wall-clock bound is asserted."""
    verdict = decide_global_rigidity(build_k2d(2, n=600), budget=400)
    assert verdict.outcome == BUDGET_EXCEEDED
    assert verdict.certificate["colourings_examined"] == 401
    assert verdict.certificate["rank"] == verdict.certificate["rank_required"] == 1198


def test_witness_lp_returns_input_on_induced_colouring(rigid_k4_linf2):
    _, fw = rigid_k4_linf2[0]
    phi = induced_colouring(fw)
    q = equivalent_witness_lp(fw, phi)
    assert q == {v: fw.position(v) for v in fw.graph.vertices}


def test_witness_lp_finds_noncongruent_witness(rigid_k4_linf2):
    _, fw = rigid_k4_linf2[0]
    verdict = decide_global_rigidity(fw)
    verify_witness(fw, verdict)
    phi = verdict.certificate["witness_colouring"]
    q = equivalent_witness_lp(fw, phi)
    assert q is not None
    assert edge_lengths(fw.with_positions(q)) == edge_lengths(fw)
    assert not congruence_check(fw, q)


def test_witness_lp_on_one_vertex_returns_the_input():
    # no edge, no row: the particular solution is the pinned vertex itself
    for norm in (preset("linf", 2), preset("l1", 2)):
        fw = Framework(Graph(["a"], []), norm, {"a": (0, 0)})
        assert equivalent_witness_lp(fw, []) == {"a": fw.position("a")}


def test_witness_lp_inconsistent_colouring_raises(rigid_k4_linf2):
    _, fw = rigid_k4_linf2[0]
    face = fw.norm.faces[0]
    phi = tuple(face for _ in fw.graph.edges)
    rows = colouring_matrix(fw.graph, phi, 2)
    if column_space_contains(rows, list(edge_lengths(fw))):
        pytest.skip("random instance accidentally consistent")
    with pytest.raises(InconsistentSystemError):
        equivalent_witness_lp(fw, phi)


def test_decide_single_edge_not_rigid(linf2):
    g = Graph(["a", "b"], [("a", "b")])
    fw = Framework(g, linf2, {"a": (0, 0), "b": (1, Fraction(1, 3))})
    assert decide_global_rigidity(fw).outcome == NOT_RIGID


def test_decide_hypercube_not_well_positioned():
    assert decide_global_rigidity(build_hypercube(2)).outcome == NOT_WELL_POSITIONED


def test_decide_k4_not_globally_rigid(rigid_k4_linf2):
    for _, fw in rigid_k4_linf2[:3]:
        verdict = decide_global_rigidity(fw)
        verify_witness(fw, verdict)


def test_decide_k5_globally_rigid(rigid_k5_linf2):
    _, fw = rigid_k5_linf2[0]
    verdict = decide_global_rigidity(fw)
    assert verdict.outcome == GLOBALLY_RIGID
    # an exact verdict has no generic caveat to carry
    assert [f.name for f in fields(verdict)] == ["outcome", "witness", "certificate"]


def test_decide_budget_exceeded(rigid_k5_linf2):
    _, fw = rigid_k5_linf2[0]
    verdict = decide_global_rigidity(fw, budget=10)
    assert verdict.outcome == BUDGET_EXCEEDED
    assert verdict.certificate["colourings_examined"] >= 10


def test_witness_colouring_is_faces(rigid_k4_linf2):
    # the search works on face indices; the certificate names faces
    _, fw = rigid_k4_linf2[0]
    verdict = decide_global_rigidity(fw)
    assert verdict.outcome == NOT_GLOBALLY_RIGID
    verify_witness(fw, verdict)
    phi = verdict.certificate["witness_colouring"]
    assert len(phi) == len(fw.graph.edges)
    assert all(face in fw.norm.faces for face in phi)
    assert equivalent_witness_lp(fw, phi) is not None


def test_decide_flexible_construction(linf2):
    fw = build_flexible_open(complete_graph(list("abcd")), linf2)
    assert decide_global_rigidity(fw).outcome == NOT_RIGID


def test_not_rigid_exits_before_the_pinned_table(monkeypatch, linf2):
    # the rank comes off the induced rows alone: a flexible framework is
    # NotRigid before any (edge, face) row of the search is built
    flexible = build_flexible_open(complete_graph([f"v{i}" for i in range(8)]), linf2)
    collinear = Framework(complete_graph(list("abcd")), linf2, {"a": (0, 0), "b": (3, 1), "c": (6, 2), "d": (12, 4)})

    def refuse(fw):
        raise AssertionError("pinned table built for a NotRigid framework")

    monkeypatch.setattr(global_rigidity, "pinned_rows", refuse)
    for fw, rank, required in ((flexible, 7, 14), (collinear, 3, 6)):
        verdict = decide_global_rigidity(fw)
        assert verdict.outcome == NOT_RIGID and verdict.witness is None
        assert verdict.certificate == {"criterion": "exact colouring enumeration", "rank": rank, "rank_required": required}


def test_single_vertex_trivially_globally_rigid(linf2):
    fw = Framework(Graph(["a"]), linf2, {"a": (0, 0)})
    assert decide_global_rigidity(fw).outcome == GLOBALLY_RIGID


def test_strong_colouring_linf_examples(octahedron):
    phi = induced_colouring(octahedron)
    assert is_strong_colouring_linf(octahedron.graph, phi, 2)
    # K4: no colouring can have both classes 2-connected (that needs at
    # least 4 edges per class out of 6)
    g = complete_graph(list("abcd"))
    linf2 = preset("linf", 2)
    face = linf2.faces[0]
    other = linf2.faces[2]
    phi4 = (face, face, face, other, other, other)
    assert not is_strong_colouring_linf(g, phi4, 2)


def test_strong_colouring_k2d_classes_too_small():
    fw = build_k2d(2)
    phi = induced_colouring(fw)
    assert not is_strong_colouring_linf(fw.graph, phi, fw.dim)


def test_strong_colouring_exhaustive_small(linf2):
    # triangle, all edges one colour class cannot be strong: flipping one
    # edge's sign preserves the column space but no isometry acts
    # edge-wise; the 2-connected certificate is silent here, the
    # enumeration decides
    g = complete_graph(list("abc"))
    e1 = (Fraction(1), Fraction(0))
    phi = (e1, e1, e1)
    assert not is_strong_colouring_exhaustive(g, phi, linf2, budget=100_000)


def test_strong_colouring_exhaustive_matches_certificate_on_square(linf2):
    # 4-cycle with alternating colours: classes are paths, not
    # 2-connected, and indeed not strong (sign flips on a path class
    # preserve the column space)
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    h = (Fraction(1), Fraction(0))
    v = (Fraction(0), Fraction(1))
    phi = (h, v, h, v)
    assert not is_strong_colouring_linf(g, phi, 2)
    assert not is_strong_colouring_exhaustive(g, phi, linf2, budget=100_000)


def test_strongness_budgets_are_pinned():
    # K_n on the line: every cut and every leaf of the enumeration counts
    # against the budget, so the least budget that returns is the count
    line = preset("linf", 1)
    for n, least in ((3, 15), (4, 43), (5, 99)):
        fw = line_framework(n)
        phi = induced_colouring(fw)
        assert is_strong_colouring_exhaustive(fw.graph, phi, line, budget=least)
        with pytest.raises(BudgetExceededError):
            is_strong_colouring_exhaustive(fw.graph, phi, line, budget=least - 1)


def test_strong_colouring_zero_entry_false(linf2):
    g = Graph(["a", "b"], [("a", "b")])
    assert not is_strong_colouring_exhaustive(
        g, ((Fraction(0), Fraction(0)),), linf2, budget=1000
    )


def test_strongness_rejects_malformed_colourings(linf2):
    # a colouring must give each edge one face of the norm's dimension
    g = complete_graph(list("abc"))
    e1 = (Fraction(1), Fraction(0))
    with pytest.raises(ParameterError, match="does not match the edge list"):
        is_strong_colouring_exhaustive(g, (e1, e1), linf2)
    with pytest.raises(ParameterError, match="wrong dimension"):
        is_strong_colouring_exhaustive(g, (e1, e1, (Fraction(1),)), linf2)
    with pytest.raises(ParameterError, match="wrong dimension"):
        is_strong_colouring_exhaustive(g, (e1, e1, (1, 0, 0)), linf2)


def brute_force_strong(graph, phi, norm):
    """Strongness straight from the definition: enumerate every colouring,
    test column-space containment by rank comparison of stacked blocks."""
    from itertools import product

    from polyrigid import rank_exact

    group = norm.isometry_group()
    phi_rows = colouring_matrix(graph, phi, norm.dim)
    zero = tuple([Fraction(0)] * norm.dim)
    for psi in product(list(norm.faces) + [zero], repeat=len(graph.edges)):
        psi_rows = colouring_matrix(graph, list(psi), norm.dim)
        stacked = [pr + fr for pr, fr in zip(psi_rows, phi_rows)]
        contained = rank_exact(stacked) == rank_exact(psi_rows)
        if contained and not is_isometric_colouring(tuple(psi), phi, group):
            return False
    return True


def test_strong_colouring_exhaustive_matches_brute_force(linf2, linf1):
    cases = []
    g1 = Graph(["a", "b"], [("a", "b")])
    cases.append((g1, ((Fraction(1), Fraction(0)),), linf2))
    g2 = complete_graph(list("abc"))
    e1 = (Fraction(1), Fraction(0))
    e2 = (Fraction(0), Fraction(1))
    cases.append((g2, (e1, e1, e1), linf2))
    cases.append((g2, (e1, e2, e1), linf2))
    g3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cases.append((g3, ((Fraction(1),), (Fraction(-1),)), linf1))
    for graph, phi, norm in cases:
        expected = brute_force_strong(graph, phi, norm)
        assert (
            is_strong_colouring_exhaustive(graph, phi, norm, budget=100_000)
            == expected
        ), (graph, phi)


def test_strong_colouring_with_faces_outside_the_norm_matches_brute_force(linf2, linf1):
    # phi's faces need not be the norm's, nor share its denominator: the
    # paired rows take one scale for both
    g2 = complete_graph(list("abc"))
    h, slant = (Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(-2, 7))
    g3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cases = [(g2, (h, slant, h), linf2), (g2, (slant,) * 3, linf2), (g3, ((Fraction(5, 3),), (Fraction(-1, 2),)), linf1)]
    for graph, phi, norm in cases:
        assert is_strong_colouring_exhaustive(graph, phi, norm, budget=100_000) == brute_force_strong(graph, phi, norm), phi


@pytest.mark.slow
def test_strong_colouring_exhaustive_octahedron(octahedron):
    # full enumeration over 4^12 colourings with pruning confirms the
    # 2-connectivity certificate on the octahedron's colouring
    phi = induced_colouring(octahedron)
    assert is_strong_colouring_exhaustive(
        octahedron.graph, phi, octahedron.norm, budget=2_000_000
    )


def test_certify_generic_global(octahedron, rigid_k4_linf2, rigid_k5_linf2):
    assert certify_generic_global(octahedron)
    for _, fw in rigid_k4_linf2[:2]:
        assert not certify_generic_global(fw)
    for _, fw in rigid_k5_linf2[:2]:
        assert not certify_generic_global(fw)


def test_decide_generic_global_linf2(octahedron, rigid_k5_linf2):
    assert decide_generic_global_linf2(complete_graph(list("abcde")))
    assert not decide_generic_global_linf2(complete_graph(list("abcd")))
    assert decide_generic_global_linf2(octahedron.graph)
    _, k5 = rigid_k5_linf2[0]
    assert is_infinitesimally_rigid(k5) and decide_generic_global_linf2(k5.graph)


def test_decide_generic_global_linf2_reads_l1_hints(rigid_k4_linf2, rigid_k5_linf2):
    # the planar l1 norm is a linear image of linf2: an l1 image keeps its
    # preimage's infinitesimal rigidity, so the criterion's answer
    from conftest import l1_image

    for rigid, expect in ((rigid_k4_linf2, False), (rigid_k5_linf2, True)):
        for _, fw in rigid:
            image = l1_image(fw)
            assert (is_infinitesimally_rigid(image) and decide_generic_global_linf2(image.graph)) == expect


def test_exact_engine_agrees_with_planar_characterisation(linf2):
    # on small rigid frameworks the exact engine and the generic
    # matroid criterion agree unless a rational coincidence intervenes;
    # none of these seeds hits one
    for n, expect in ((4, False), (5, True)):
        g = complete_graph([f"v{i}" for i in range(n)])
        seed = 0
        fw = None
        while fw is None:
            seed += 1
            cand = randomize_realisation(g, 2, linf2, seed=seed, denominator_bound=200)
            if is_infinitesimally_rigid(cand):
                fw = cand
        verdict = decide_global_rigidity(fw)
        assert (verdict.outcome == GLOBALLY_RIGID) == expect
        assert (is_infinitesimally_rigid(fw) and decide_generic_global_linf2(g)) == expect


def test_k5_minus_edge_circuit_globally_rigid_not_redundant(linf2):
    # a 2-connected circuit of the (2,2)-sparsity matroid: generically
    # globally rigid with only 2|V| - 1 edges, so redundant rigidity is
    # impossible (each colour class would need |V| edges)
    from polyrigid import (
        fundamental_circuit,
        is_redundantly_rigid,
        pebble_rank,
        SparsityParams,
    )

    k5 = complete_graph(list("abcde"))
    g = Graph(k5.vertices, [e for e in k5.edges if e != ("a", "b")])
    params = SparsityParams(2, 2)
    assert pebble_rank(g, params) == 8 and len(g.edges) == 9
    assert all(
        fundamental_circuit(g, params, e) == g.edges for e in g.edges
    )
    assert decide_generic_global_linf2(g)
    seed = 0
    fw = None
    from polyrigid import is_infinitesimally_rigid

    while fw is None:
        seed += 1
        cand = randomize_realisation(g, 2, linf2, seed=seed, denominator_bound=200)
        if is_infinitesimally_rigid(cand):
            fw = cand
    assert decide_global_rigidity(fw).outcome == GLOBALLY_RIGID
    assert not is_redundantly_rigid(fw)


def test_parallelogram_norm_engine_sound():
    # non-orthogonal isometry group: witnesses must still verify exactly
    from polyrigid import PolytopeNorm

    par = PolytopeNorm(2, [(1, 0), (-1, 0), (1, 1), (-1, -1)])
    g = complete_graph(list("abcd"))
    seed = 0
    fw = None
    from polyrigid import is_infinitesimally_rigid

    while fw is None and seed < 200:
        seed += 1
        cand = randomize_realisation(g, 2, par, seed=seed, denominator_bound=60)
        if is_infinitesimally_rigid(cand):
            fw = cand
    if fw is None:
        pytest.skip("no rigid parallelogram K4 realisation among the seeds")
    verdict = decide_global_rigidity(fw)
    if verdict.outcome == NOT_GLOBALLY_RIGID:
        verify_witness(fw, verdict)
    else:
        assert verdict.outcome == GLOBALLY_RIGID


# the first seed from 1 up whose random octahedron (denominators up to 100)
# has 2-connected colour classes; a scan to it takes about 20 s
FIRST_STRONG_OCTAHEDRON_SEED = 47261


@pytest.mark.slow
def test_certificate_agrees_with_exact_engine_on_random_octahedron(octahedron, linf2):
    # whenever the strong-colouring certificate fires on a concrete
    # rational realisation, the exhaustive engine must confirm it
    fw = randomize_realisation(
        octahedron.graph, 2, linf2, seed=FIRST_STRONG_OCTAHEDRON_SEED, denominator_bound=100
    )
    assert certify_generic_global(fw)
    assert decide_global_rigidity(fw).outcome == GLOBALLY_RIGID


def test_stability_under_small_perturbation(octahedron):
    # nudging one coordinate by 1/1000 keeps the colouring and verdict
    pos = dict(octahedron.positions)
    pos["v1"] = (pos["v1"][0] + Fraction(1, 1000), pos["v1"][1])
    nudged = octahedron.with_positions(pos)
    assert induced_colouring(nudged) == induced_colouring(octahedron)
    assert decide_global_rigidity(nudged).outcome == GLOBALLY_RIGID


SEARCH_COUNTS = ("colourings_examined", "leaves", "pruned_subtrees", "isometric_skipped", "lp_runs")


def search_counts(verdict):
    return {k: verdict.certificate[k] for k in SEARCH_COUNTS}


def test_budget_cut_settles_the_leaf_first(octahedron):
    # find a budget whose cut falls on a leaf (one more leaf than with a
    # budget one lower): that leaf is solved before the budget bites
    previous = decide_global_rigidity(octahedron, budget=99).certificate["leaves"]
    for budget in range(100, 1000):
        verdict = decide_global_rigidity(octahedron, budget=budget)
        c = verdict.certificate
        if c["leaves"] > previous:
            break
        previous = c["leaves"]
    assert verdict.outcome == BUDGET_EXCEEDED
    assert c["leaves"] == previous + 1
    assert c["colourings_examined"] == budget + 1 == c["leaves"] + c["pruned_subtrees"]
    assert c["lp_runs"] == c["leaves"] - c["isometric_skipped"]


def test_every_budget_cuts_after_its_events(rigid_k5_linf2):
    # each leaf and each cut is one event of the walk: a budget b stops
    # the search on event b + 1, with the tallies of the first b + 1
    # events, unless that event is the last or a leaf with a witness.
    # One K5 is proved in 307 events, the other refuted in 125
    from _oracles import patched_walk

    for fw in (rigid_k5_linf2[0][1], rigid_k5_linf2[4][1]):
        with patched_walk() as events:
            full = decide_global_rigidity(fw)
        last = len(events) - (full.outcome == NOT_GLOBALLY_RIGID)  # the least budget that does not cut
        assert last > 100
        for budget in range(len(events) + 1):
            verdict = decide_global_rigidity(fw, budget=budget)
            if budget >= last:
                assert (verdict.outcome, verdict.witness, verdict.certificate) == (full.outcome, full.witness, full.certificate)
                continue
            c, leaves = verdict.certificate, sum(phi is not None for phi in events[:budget + 1])
            assert verdict.outcome == BUDGET_EXCEEDED and verdict.witness is None
            assert c["colourings_examined"] == budget + 1
            assert (c["leaves"], c["pruned_subtrees"]) == (leaves, budget + 1 - leaves)
            assert c["lp_runs"] == leaves - c["isometric_skipped"]


def test_deep_graph_gives_budget_exceeded_not_recursion_error():
    import inspect
    import sys

    fw = build_k2d(2, n=60)  # 118 edges: one tree level per edge
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        cut = decide_global_rigidity(fw, budget=100)
        full = decide_global_rigidity(fw)
    finally:
        sys.setrecursionlimit(old)
    assert cut.outcome == BUDGET_EXCEEDED
    assert cut.certificate["colourings_examined"] == 101
    # the whole search is 152 colourings deep into a 118-level tree
    verify_witness(fw, full)
    assert full.certificate["colourings_examined"] == 152


def recorded_search(fw, lookahead, wrap=None):
    """decide_global_rigidity with the forward check on the face rows (the
    look-ahead) on or off, on the walk ``wrap`` gives (``patched_walk``):
    (verdict, the leaves the walk yields in order as face-index tuples)."""
    from _oracles import patched_walk

    with patched_walk(wrap, **({} if lookahead else {"checked": None})) as events:
        verdict = decide_global_rigidity(fw)
    return verdict, [phi for phi in events if phi is not None]


def decide_without_lookahead(fw):
    """decide_global_rigidity with the face rows dropped from the walk, so
    only an inconsistent push cuts a prefix."""
    return recorded_search(fw, lookahead=False)[0]


def test_search_counts_are_pinned(rigid_k4_linf2, rigid_k5_linf2):
    # per instance, the counts with the look-ahead and without it, and
    # without it on the walk that breaks symmetry on the first edge only.
    # Of the K5's 128 consistent leaves, that walk keeps the quarter whose
    # first face is the least of its orbit, and the chain one per orbit
    # of the 8 isometries
    from conftest import l1_image
    from _oracles import first_edge_walk

    _, k5 = rigid_k5_linf2[0]
    _, k4 = rigid_k4_linf2[0]
    k4_l1 = l1_image(k4)
    pins = [
        (k5, GLOBALLY_RIGID, (307, 1, 306, 1, 0), (5551, 16, 5535, 1, 15), (11095, 32, 11063, 2, 30)),
        (k4, NOT_GLOBALLY_RIGID, (72, 1, 71, 0, 1), (189, 57, 132, 0, 57), (293, 89, 204, 0, 89)),
        (k4_l1, NOT_GLOBALLY_RIGID, (87, 2, 85, 1, 1), (201, 69, 132, 1, 68), (253, 85, 168, 1, 84)),
    ]
    for fw, outcome, lookahead, plain, first_edge in pins:
        runs = (
            (decide_global_rigidity(fw), lookahead),
            (decide_without_lookahead(fw), plain),
            (recorded_search(fw, lookahead=False, wrap=first_edge_walk)[0], first_edge),
        )
        for verdict, counts in runs:
            assert verdict.outcome == outcome
            if outcome == NOT_GLOBALLY_RIGID:
                verify_witness(fw, verdict)
            assert search_counts(verdict) == dict(zip(SEARCH_COUNTS, counts))


def random_k_linf3(n, seed):
    g = complete_graph([f"v{i}" for i in range(n)])
    return randomize_realisation(g, 3, preset("linf", 3), seed=seed, denominator_bound=100)


def test_d3_refutation_is_pinned():
    # K8 in linf3: a witness after 18,857 colourings (21,884 with symmetry
    # broken on the first edge only), where the walk that checked only the
    # next edge's faces stopped at a 2,000,000 budget
    fw = random_k_linf3(8, 4798)
    verdict = decide_global_rigidity(fw)
    verify_witness(fw, verdict)
    assert search_counts(verdict) == dict(zip(SEARCH_COUNTS, (18857, 2, 18855, 1, 1)))


def test_reduce_calls_are_pinned(monkeypatch):
    # the forward check re-reduces one kept row per opposite-face pair:
    # 2,384, 4,934 and 35,900 calls with one kept row per face, and 1,490,
    # 2,990 and 20,963 with symmetry broken on the first edge only.  Each
    # framework has a fresh norm, so its isometry group is counted too
    from polyrigid import build_octahedron
    from polyrigid.linalg import IncrementalSystem

    calls = []
    real = IncrementalSystem.reduce

    def counting(system, row):
        calls.append(1)
        return real(system, row)

    monkeypatch.setattr(IncrementalSystem, "reduce", counting)
    counts = {}
    for name, fw in (("octahedron", build_octahedron()), ("k2d(3)", build_k2d(3)), ("K8 linf3 4798", random_k_linf3(8, 4798))):
        calls.clear()
        decide_global_rigidity(fw)
        counts[name] = len(calls)
    assert counts == {"octahedron": 761, "k2d(3)": 2089, "K8 linf3 4798": 18139}


@pytest.mark.slow
def test_d3_proof_is_pinned():
    # K7 and K8 in linf3: globally rigid, where the walk that checked only
    # the next edge's faces stopped at a 40,000,000 budget with no leaf on
    # K7.  With symmetry broken on the first edge only, they took 696,216
    # and 1,398,356 colourings, and met the 8 isometric images of p's own
    # colouring; the stabiliser chain meets one
    for n, seed, counts in ((7, 7092, (87107, 1, 87106, 1, 0)), (8, 850, (174942, 1, 174941, 1, 0))):
        verdict = decide_global_rigidity(random_k_linf3(n, seed))
        assert verdict.outcome == GLOBALLY_RIGID
        assert search_counts(verdict) == dict(zip(SEARCH_COUNTS, counts))


def from_scratch_forward_check(system, options, faces):
    """The events of the colouring tree when every node reduces every face
    row (one per face) from scratch against its pivots, and a violated
    constant cuts the prefix: None per option of the next edge, or one at a
    leaf, and each consistent full colouring as face indices."""
    rows = [row for per_face in faces for row in per_face]
    rhs, m = system.width - 1, len(options)
    assign = [None] * m

    def violated():
        return any(lead is None and row.get(rhs, 0) < 0 for lead, row in map(system.reduce, rows))

    def walk(i):
        for face, row in options[i]:
            assign[i] = face
            if not system.push(row)[0]:
                yield None
            elif violated():
                yield from [None] * (len(options[i + 1]) if i + 1 < m else 1)
            elif i + 1 == m:
                yield tuple(assign)
            else:
                yield from walk(i + 1)
            system.pop()

    return walk(0)


def test_watched_walk_matches_the_from_scratch_check(octahedron, rigid_k4_linf2):
    # the forward check keeps one row per opposite-face pair, re-reduces
    # only the pairs watched at a new pivot and skips the pushed pair: the
    # same events in the same order as reducing every face row at every
    # node.  The octagon K4s (96,048 and 92,688 events) and the flexible
    # K6s in d = 3 are compared on their first 3,000 events, the rest whole
    from itertools import islice
    from conftest import l1_image
    from polyrigid import global_rigidity as gr
    from polyrigid.framework import pinned_rows, pinned_system

    corpus = [fw for _, fw in rigid_k4_linf2[:3]]
    corpus = [(fw, None) for fw in corpus + [l1_image(fw) for fw in corpus] + [octahedron, line_framework(6)]]
    k6 = complete_graph([f"v{i}" for i in range(6)])
    k6s = [in_search_order(randomize_realisation(k6, 3, preset(kind, 3), seed=seed, denominator_bound=100)) for kind, seed in (("linf", 4), ("l1", 3))]
    corpus += [(fw, 3000) for fw in octagon_k4s(2) + k6s]
    shifted = set()  # whether f and -f have different pinned right-hand sides
    for fw, limit in corpus:
        faces = pinned_rows(fw)
        rhs = fw.dim * (len(fw.graph.vertices) - 1)
        shifted.add(any(per_face[f].get(rhs) != per_face[g].get(rhs) for per_face in faces for f, g in fw.norm.pairs))
        options = [list(enumerate(per_face)) for per_face in faces]
        events = list(islice(gr._consistent_leaves(pinned_system(fw, faces), options, (faces, fw.norm.pairs)), limit))
        assert events == list(islice(from_scratch_forward_check(pinned_system(fw, faces), options, faces), limit))
        assert None in events and any(events)
    # vertex 0 off the origin on the octahedron, at the origin on the line
    assert shifted == {True, False}


def test_every_plain_leaf_settles_as_the_fraction_reference(octahedron, rigid_k4_linf2, linf2):
    # the leaves of the walk without the forward check, settled by the
    # engine (integer tests, the opposite-row test, then the LP read off
    # the integer rows) and by the plain Fraction route: the same point,
    # not just some point.  The flexible K4's and the octagon frameworks'
    # leaves have kernels, and their LPs find points; in the octagon norm,
    # rows scaled unevenly would make the LP pivot elsewhere
    from itertools import islice
    from conftest import l1_image
    from polyrigid import cycle_graph, global_rigidity as gr, path_graph
    from polyrigid.framework import pinned_rows, pinned_system
    from _oracles import reference_leaf_settlement

    corpus = [fw for _, fw in rigid_k4_linf2[:3]]
    corpus += [l1_image(fw) for fw in corpus] + [octahedron]
    corpus.append(build_flexible_open(complete_graph(list("abcd")), linf2))
    vertices = [f"v{i}" for i in range(4)]
    for graph, seed in ((path_graph(vertices), 0), (cycle_graph(vertices), 5)):
        corpus.append(randomize_realisation(graph, 2, octagon_norm(), seed=seed, denominator_bound=50))
    settled = {"particular": 0, "lp point": 0, "lp empty": 0}
    for fw in corpus:
        lengths = edge_lengths(fw)
        faces = pinned_rows(fw)
        rows = [row for per_face in faces for row in per_face]
        system = pinned_system(fw, faces)
        options = [list(enumerate(per_face)) for per_face in faces]
        for phi in islice(filter(None, gr._consistent_leaves(system, options)), 250):
            q = gr._settle_leaf(fw, rows, system)
            assert q == reference_leaf_settlement(fw, lengths, [fw.norm.faces[j] for j in phi])
            X, D = system.back_substitute()
            if all(gr._level(row, X + [-D]) <= 0 for row in rows):
                settled["particular"] += 1
            elif system.free_columns():
                settled["lp point" if q else "lp empty"] += 1
    assert all(settled.values()), settled


def in_search_order(fw):
    """The framework with its edges in the search's order, ``_search_order``."""
    from polyrigid.global_rigidity import _search_order

    return Framework(Graph(fw.graph.vertices, [fw.graph.edges[i] for i in _search_order(fw.graph)]), fw.norm, fw.positions)


def decide_with_reference_leaves(fw, budget, monkeypatch):
    """decide_global_rigidity with every leaf settled by the plain Fraction
    route of ``reference_leaf_settlement`` instead of the integer one."""
    from polyrigid import global_rigidity as gr
    from _oracles import patched_walk, reference_leaf_settlement

    search_fw, faces = in_search_order(fw), fw.norm.faces
    with patched_walk() as events, monkeypatch.context() as m:
        # a leaf is settled right after the walk yields it, as face indices
        m.setattr(
            gr, "_settle_leaf",
            lambda fw, rows, system: reference_leaf_settlement(
                search_fw, edge_lengths(search_fw), [faces[i] for i in events[-1]]),
        )
        return decide_global_rigidity(fw, budget=budget)


def test_integer_leaves_agree_with_fraction_reference(
    monkeypatch, octahedron, rigid_k4_linf2, rigid_k5_linf2
):
    from conftest import l1_image

    line = preset("linf", 1)
    corpus = [(fw, None) for _, fw in rigid_k4_linf2[:6]]
    corpus += [(l1_image(fw), None) for _, fw in rigid_k4_linf2[:6]]
    corpus += [(fw, None) for _, fw in rigid_k5_linf2[:3]]
    corpus.append((octahedron, 500))  # the whole proof is 706 colourings
    for n in (5, 6, 7):
        g = complete_graph([f"v{i}" for i in range(n)])
        positions = {v: (Fraction(i * i + i, 3),) for i, v in enumerate(g.vertices)}
        corpus.append((Framework(g, line, positions), None))
    outcomes = set()
    for fw, budget in corpus:
        verdict = decide_global_rigidity(fw, budget=budget)
        reference = decide_with_reference_leaves(fw, budget, monkeypatch)
        assert verdict.outcome == reference.outcome
        assert verdict.certificate == reference.certificate  # counts, witness_colouring
        assert verdict.witness == reference.witness
        outcomes.add(verdict.outcome)
    assert outcomes == {GLOBALLY_RIGID, NOT_GLOBALLY_RIGID, BUDGET_EXCEEDED}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])))))
def test_search_order_is_the_greedy_order(graph_spec):
    # also on disconnected graphs, where an edge may touch nothing yet
    from polyrigid.global_rigidity import _search_order
    from _oracles import reference_search_order

    n, edges = graph_spec
    graph = Graph(range(n), edges)
    order = _search_order(graph)
    assert order == reference_search_order(graph)
    assert sorted(order) == list(range(len(graph.edges)))


def line_framework(n):
    """K_n on the line at distinct rational points: globally rigid."""
    g = complete_graph([f"v{i}" for i in range(n)])
    return Framework(g, preset("linf", 1), {v: (Fraction(i * i + i, 3),) for i, v in enumerate(g.vertices)})


def test_engine_agrees_with_plain_reference_enumeration(rigid_k4_linf2, rigid_k5_linf2, linf2):
    # the reference tries every colouring in input order, with no orbit
    # cut and no skip: for linf and l1 the group is transitive on the
    # faces, so it meets |F| times the leaves of the walk that breaks
    # symmetry on the first edge only, without the look-ahead; with it,
    # and with the stabiliser chain, outcomes agree and witnesses verify
    from conftest import l1_image
    from _oracles import first_edge_walk, reference_decide

    k4s = [fw for _, fw in rigid_k4_linf2[:4]]
    corpus = k4s + [l1_image(fw) for fw in k4s]
    corpus += [fw for _, fw in rigid_k5_linf2[:2]] + [l1_image(rigid_k5_linf2[0][1])]
    corpus += [line_framework(n) for n in (5, 6, 7)]
    corpus.append(build_flexible_open(complete_graph(list("abcd")), linf2))
    outcomes = set()
    for fw in corpus:
        verdict, plain = decide_global_rigidity(fw), decide_without_lookahead(fw)
        first_edge, _ = recorded_search(fw, lookahead=False, wrap=first_edge_walk)
        outcome, _, leaves = reference_decide(fw)
        assert verdict.outcome == plain.outcome == first_edge.outcome == outcome
        outcomes.add(outcome)
        if outcome == GLOBALLY_RIGID:
            assert first_edge.certificate["leaves"] * len(fw.norm.faces) == leaves
        elif outcome == NOT_GLOBALLY_RIGID:
            verify_witness(fw, verdict)
            verify_witness(fw, plain)
    assert outcomes == {GLOBALLY_RIGID, NOT_GLOBALLY_RIGID, NOT_RIGID}


def octagon_norm():
    """An octagon norm: axis faces and diagonal faces form two orbits of
    its isometry group."""
    from polyrigid import PolytopeNorm

    c = Fraction(3, 4)
    return PolytopeNorm(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (c, c), (-c, -c), (c, -c), (-c, c)])


def octagon_k4s(count):
    """Rigid K4s in the octagon norm."""
    from conftest import rigid_random_realisations

    return [fw for _, fw in rigid_random_realisations(complete_graph(list("abcd")), octagon_norm(), count, denominator_bound=100)]


def walk_without_rows(perms, nfaces, nedges):
    """The leaves of the colouring walk on nedges edges whose every push is
    consistent (empty rows), so only the symmetry cut by ``perms`` acts."""
    from polyrigid.linalg import IncrementalSystem

    options = [[(f, {}) for f in range(nfaces)]] * nedges
    return list(global_rigidity._consistent_leaves(IncrementalSystem(1), options, perms=perms))


def test_orbit_cut_with_two_face_orbits():
    # the octagon's two face orbits leave the first search edge two faces;
    # every K4 here is refuted, by a witness the search re-verifies
    perms = octagon_norm().face_permutations()
    assert walk_without_rows(perms, 8, 1) == [(0,), (4,)]
    for fw in octagon_k4s(3):
        verify_witness(fw, decide_global_rigidity(fw))


def test_stabiliser_chain_keeps_the_least_colouring_of_each_orbit(linf2, linf3):
    # with nothing to cut but symmetry, the walk yields exactly the least
    # image of each colouring orbit, in order: one per orbit, none lost.
    # The group and its stabilisers cut every depth while they are
    # nontrivial; once a face pins the group down, nothing more is cut
    from itertools import product
    from _oracles import lex_leaders

    for norm, nedges in ((linf2, 4), (preset("l1", 2), 3), (octagon_norm(), 3), (linf3, 3), (preset("l1", 3), 3)):
        perms, nfaces = norm.face_permutations(), len(norm.faces)
        leaves = walk_without_rows(perms, nfaces, nedges)
        assert leaves == lex_leaders(perms, product(range(nfaces), repeat=nedges))
        assert walk_without_rows((), nfaces, nedges) == list(product(range(nfaces), repeat=nedges))


@pytest.mark.slow
def test_stabiliser_chain_agrees_with_the_first_edge_walk(octahedron, rigid_k4_linf2, rigid_k5_linf2):
    # the differential reference breaks symmetry on the first edge only.
    # Outcomes agree and every witness verifies; where the tree is
    # exhausted, the chain's leaves are the least of each orbit among the
    # reference's, in order.  The flexible K6s in d = 3 (l1 and linf) are
    # compared as walks, leaf by leaf, over the reference's first 20,000
    # events: the chain's first 20,000 cover at least as much of the tree
    from itertools import islice
    from conftest import l1_image
    from polyrigid.framework import pinned_rows, pinned_system
    from _oracles import first_edge_walk, lex_leaders

    planar = [fw for _, fw in rigid_k4_linf2[:4]] + [fw for _, fw in rigid_k5_linf2[:2] + [rigid_k5_linf2[4]]]
    corpus = planar + [l1_image(fw) for fw in planar] + [octahedron] + octagon_k4s(2)
    corpus += [random_k_linf3(8, 4798), random_k_linf3(7, 7092)]
    outcomes = set()
    for fw in corpus:
        verdict, leaves = recorded_search(fw, lookahead=True)
        reference, reference_leaves = recorded_search(fw, lookahead=True, wrap=first_edge_walk)
        assert verdict.outcome == reference.outcome
        outcomes.add((fw.dim, verdict.outcome))
        if verdict.outcome == GLOBALLY_RIGID:
            perms = fw.norm.face_permutations()
            assert leaves == [phi for phi in reference_leaves if lex_leaders(perms, [phi]) == [phi]]
        else:
            verify_witness(fw, verdict)
            verify_witness(fw, reference)
    assert outcomes == {(d, outcome) for d in (2, 3) for outcome in (GLOBALLY_RIGID, NOT_GLOBALLY_RIGID)}

    k6 = complete_graph([f"v{i}" for i in range(6)])
    for kind, seed in (("l1", 3), ("linf", 4)):
        fw = randomize_realisation(k6, 3, preset(kind, 3), seed=seed, denominator_bound=100)
        faces, perms, limit = pinned_rows(fw), fw.norm.face_permutations(), 20000
        options, checked = [list(enumerate(per_face)) for per_face in faces], (faces, fw.norm.pairs)
        walk = first_edge_walk(global_rigidity._consistent_leaves)
        reference = [phi for phi in islice(walk(pinned_system(fw, faces), options, checked, perms), limit) if phi]
        chain = islice(global_rigidity._consistent_leaves(pinned_system(fw, faces), options, checked, perms), limit)
        leaves = [phi for phi in chain if phi and phi <= reference[-1]]
        canonical = [phi for phi in reference if lex_leaders(perms, [phi]) == [phi]]
        assert leaves == canonical and len(canonical) < len(reference)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edge_order_does_not_change_the_verdict(rigid_k4_linf2, rigid_k5_linf2, data):
    # the search order is computed from the input order; shuffling the
    # edge list may change the first witness, but not the outcome, and an
    # exhaustive proof without the look-ahead meets the same number of
    # leaves (the look-ahead's cuts depend on the order)
    corpus = [fw for _, fw in rigid_k4_linf2[:3] + rigid_k5_linf2[:3]] + [line_framework(5), line_framework(6)]
    fw = data.draw(st.sampled_from(corpus))
    edges = data.draw(st.permutations(fw.graph.edges))
    shuffled = Framework(Graph(fw.graph.vertices, edges), fw.norm, fw.positions)
    verdict, again = decide_global_rigidity(fw), decide_global_rigidity(shuffled)
    plain, plain_again = decide_without_lookahead(fw), decide_without_lookahead(shuffled)
    assert again.outcome == verdict.outcome == plain.outcome == plain_again.outcome
    if verdict.outcome == GLOBALLY_RIGID:
        assert plain_again.certificate["leaves"] == plain.certificate["leaves"]
    else:
        verify_witness(shuffled, again)
        verify_witness(shuffled, plain_again)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_outcome_is_invariant_under_isometry_reordering_and_scaling(rigid_k4_linf2, rigid_k5_linf2, data):
    # a signed permutation plus an integer translation is an isometry of
    # linf and l1; reordering the vertices moves the pinned vertex and the
    # search order; a positive scaling scales every length.  None of them
    # changes the answer, and every witness found on the way re-verifies
    from conftest import l1_image

    corpus = [fw for _, fw in rigid_k4_linf2[:4] + rigid_k5_linf2[:3]]
    corpus += [l1_image(fw) for fw in corpus]
    fw = data.draw(st.sampled_from(corpus))
    outcome = decide_global_rigidity(fw).outcome
    assert outcome in (GLOBALLY_RIGID, NOT_GLOBALLY_RIGID)

    perm = data.draw(st.permutations(range(2)))
    signs = data.draw(st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))))
    shift = data.draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    moved = {v: tuple(signs[k] * p[perm[k]] + shift[k] for k in range(2)) for v, p in fw.positions.items()}
    vertices = data.draw(st.permutations(fw.graph.vertices))
    scale = data.draw(st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50))
    images = [
        fw.with_positions(moved),
        Framework(Graph(vertices, fw.graph.edges), fw.norm, fw.positions),
        fw.with_positions({v: tuple(scale * x for x in p) for v, p in fw.positions.items()}),
    ]
    for image in images:
        verdict = decide_global_rigidity(image)
        assert verdict.outcome == outcome
        if outcome == NOT_GLOBALLY_RIGID:
            verify_witness(image, verdict)


def test_d3_outcomes_are_invariant_under_isometry_and_relabelling():
    # in d = 3: a seeded signed permutation of the axes, an integer
    # translation and a shuffled vertex list (which moves the pinned vertex
    # and the search order) keep K8 linf3 seed 4798 refuted, by a witness
    # that verifies, and K7 linf3 seed 7092 globally rigid
    import random

    for n, seed, outcome in ((8, 4798, NOT_GLOBALLY_RIGID), (7, 7092, GLOBALLY_RIGID)):
        fw = random_k_linf3(n, seed)
        for motion in range(4):
            rng = random.Random(motion)
            perm, signs = rng.sample(range(3), 3), [rng.choice((1, -1)) for _ in range(3)]
            shift = [rng.randint(-9, 9) for _ in range(3)]
            positions = {v: tuple(signs[k] * p[perm[k]] + shift[k] for k in range(3)) for v, p in fw.positions.items()}
            vertices = rng.sample(fw.graph.vertices, len(fw.graph.vertices))
            image = Framework(Graph(vertices, fw.graph.edges), fw.norm, positions)
            verdict = decide_global_rigidity(image)
            assert verdict.outcome == outcome
            if outcome == NOT_GLOBALLY_RIGID:
                verify_witness(image, verdict)


@pytest.mark.slow
def test_lookahead_drops_only_leaves_without_a_witness(octahedron, rigid_k4_linf2, rigid_k5_linf2):
    # the forward check cuts a prefix on which some face row, of any edge,
    # is exceeded everywhere: the leaves it drops must all settle to None
    # by the plain Fraction route, and the rest keep their order and answer
    from conftest import l1_image
    from _oracles import reference_leaf_settlement

    corpus = [fw for _, fw in rigid_k4_linf2[:3] + rigid_k5_linf2[:2]]
    corpus += [l1_image(fw) for fw in corpus] + [octahedron]
    corpus += [line_framework(n) for n in (5, 6, 7)] + octagon_k4s(2)
    outcomes, dropped = set(), 0
    for fw in corpus:
        verdict, leaves = recorded_search(fw, lookahead=True)
        plain, plain_leaves = recorded_search(fw, lookahead=False)
        assert verdict.outcome == plain.outcome
        assert verdict.witness == plain.witness
        assert verdict.certificate.get("witness_colouring") == plain.certificate.get("witness_colouring")
        walk = iter(plain_leaves)
        assert all(leaf in walk for leaf in leaves)  # an ordered subsequence
        kept, faces, search_fw = set(leaves), fw.norm.faces, in_search_order(fw)
        for leaf in plain_leaves:
            if leaf not in kept:
                dropped += 1
                assert reference_leaf_settlement(search_fw, edge_lengths(search_fw), [faces[j] for j in leaf]) is None
        outcomes.add(verdict.outcome)
    assert outcomes == {GLOBALLY_RIGID, NOT_GLOBALLY_RIGID}
    assert dropped > 0
