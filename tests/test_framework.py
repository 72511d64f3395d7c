import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from polyrigid import (
    Framework,
    Graph,
    NotWellPositionedError,
    ParameterError,
    build_flexible_open,
    build_hypercube,
    build_k2d,
    colouring_matrix,
    complete_graph,
    connected_components,
    edge_lengths,
    induced_colouring,
    induced_colourings,
    is_infinitesimally_rigid,
    is_redundantly_rigid,
    is_rigid_linf_by_colour,
    is_well_positioned,
    monochromatic_subgraphs,
    preset,
    randomize_realisation,
    rank_exact,
    rigidity_matrix,
)
from hypothesis import given, settings, strategies as st

from polyrigid import PolytopeNorm
from polyrigid.framework import (
    apply_isometry,
    edge_table,
    is_rigid_all_induced_colourings,
    pinned_rows,
)
from polyrigid.global_rigidity import apply_colouring
from polyrigid.linalg import mat_vec

from _oracles import fraction_pinned_row, fraction_rank, reference_edge_table, reference_pinned_row, sparse_row


def single_edge_framework(norm, pa, pb):
    g = Graph(["a", "b"], [("a", "b")])
    return Framework(g, norm, {"a": pa, "b": pb})


def stacked_positions(fw):
    out = []
    for v in fw.graph.vertices:
        out.extend(fw.position(v))
    return out


def test_edge_lengths_single_edge(linf2):
    fw = single_edge_framework(linf2, (0, 0), (Fraction(7, 20), Fraction(1, 2)))
    assert edge_lengths(fw) == (Fraction(1, 2),)


def test_edge_lengths_octahedron(octahedron):
    g = octahedron.graph
    lengths = edge_lengths(octahedron)
    assert lengths[g.edge_index("v1", "v2")] == Fraction(9, 10)
    assert lengths[g.edge_index("v2", "v-3")] == Fraction(9, 5)


def test_edge_table_is_kept_and_a_moved_framework_gets_its_own(octahedron):
    table = edge_table(octahedron)
    assert edge_table(octahedron) is table
    v = octahedron.graph.vertices[1]
    moved = octahedron.with_positions({**octahedron.positions, v: (Fraction(3), Fraction(1, 7))})
    fresh = Framework(moved.graph, moved.norm, moved.positions)
    assert edge_table(moved) == edge_table(fresh) != table


def test_edge_lengths_zero_edge(linf2):
    fw = single_edge_framework(linf2, (1, 1), (1, 1))
    assert edge_lengths(fw) == (0,)


def test_induced_colourings_octahedron(octahedron):
    cands = induced_colourings(octahedron)
    idx = octahedron.graph.edge_index("v1", "v3")
    assert cands[idx] == ((1, 0),)
    assert all(len(c) == 1 for c in cands)


def test_induced_colourings_tie_and_zero(linf2):
    tie = single_edge_framework(linf2, (1, 1), (0, 0))
    cands = induced_colourings(tie)
    assert set(cands[0]) == {(1, 0), (0, 1)}
    zero = single_edge_framework(linf2, (1, 1), (1, 1))
    assert induced_colourings(zero) == [((0, 0),)]
    assert not is_well_positioned(zero)


def test_well_positioned_examples(octahedron):
    assert is_well_positioned(octahedron)
    assert not is_well_positioned(build_hypercube(2))


def test_induced_colouring_raises_when_ambiguous():
    with pytest.raises(NotWellPositionedError):
        induced_colouring(build_hypercube(2))


def test_colouring_matrix_single_edge(linf2):
    g = Graph(["a", "b"], [("a", "b")])
    rows = colouring_matrix(g, [(Fraction(1), Fraction(0))], 2)
    assert rows == [[1, 0, -1, 0]]


def test_colouring_matrix_translation_kernel(linf2):
    rng = random.Random(4)
    g = complete_graph(list("abcd"))
    for _ in range(10):
        phi = [random.Random(rng.random()).choice(linf2.faces) for _ in g.edges]
        rows = colouring_matrix(g, phi, 2)
        shift = [Fraction(3), Fraction(-2)] * 4
        assert all(x == 0 for x in mat_vec(rows, shift))
        assert rank_exact(rows) <= 2 * 4 - 2


def test_matrix_times_positions_is_lengths(octahedron):
    phi = induced_colouring(octahedron)
    rows = colouring_matrix(octahedron.graph, phi, 2)
    assert tuple(mat_vec(rows, stacked_positions(octahedron))) == edge_lengths(octahedron)


def test_max_formula_small():
    # lengths equal the coordinate-wise maximum of M(G, phi) p over the
    # fully expanded set of colourings, zero faces included
    linf2 = preset("linf", 2)
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    fw = Framework(
        g, linf2,
        {"a": (0, 0), "b": (Fraction(7, 5), Fraction(1, 3)), "c": (Fraction(1, 2), 2)},
    )
    lengths = edge_lengths(fw)
    pos = stacked_positions(fw)
    zero = (Fraction(0), Fraction(0))
    best = [None] * len(g.edges)
    for phi in product(list(linf2.faces) + [zero], repeat=len(g.edges)):
        vals = mat_vec(colouring_matrix(g, list(phi), 2), pos)
        for i, v in enumerate(vals):
            if best[i] is None or v > best[i]:
                best[i] = v
    assert tuple(best) == lengths


def test_rank_exact_matches_plain_elimination(octahedron):
    rows = rigidity_matrix(octahedron)
    assert rank_exact(rows) == fraction_rank(rows) == 10


def test_rank_zero_and_single(linf2):
    assert rank_exact([]) == 0
    assert rank_exact([[0, 0, 0, 0]]) == 0
    fw = single_edge_framework(linf2, (0, 0), (1, Fraction(1, 3)))
    assert rank_exact(rigidity_matrix(fw)) == 1


def test_infinitesimal_rigidity_examples(octahedron, linf2):
    assert is_infinitesimally_rigid(octahedron)
    single = single_edge_framework(linf2, (0, 0), (1, Fraction(1, 3)))
    assert not is_infinitesimally_rigid(single)
    assert is_infinitesimally_rigid(build_k2d(2))
    with pytest.raises(NotWellPositionedError):
        is_infinitesimally_rigid(build_hypercube(2))


def test_monochromatic_subgraphs_octahedron(octahedron):
    phi = induced_colouring(octahedron)
    subs = monochromatic_subgraphs(octahedron.graph, phi, 2)
    assert [len(s.edges) for s in subs] == [6, 6]
    assert set(subs[0].edges) | set(subs[1].edges) == set(octahedron.graph.edges)


def test_monochromatic_subgraphs_one_colour(linf2):
    g = complete_graph(list("abc"))
    phi = [(Fraction(1), Fraction(0))] * 3
    subs = monochromatic_subgraphs(g, phi, 2)
    assert len(subs[0].edges) == 3 and len(subs[1].edges) == 0


def test_monochromatic_subgraphs_reject_zero_and_general_faces():
    g = Graph(["a", "b"], [("a", "b")])
    with pytest.raises(ParameterError):
        monochromatic_subgraphs(g, [(Fraction(0), Fraction(0))], 2)
    with pytest.raises(ParameterError):
        monochromatic_subgraphs(g, [(Fraction(1), Fraction(1))], 2)


def test_rigid_by_colour_examples(octahedron, linf2):
    assert is_rigid_linf_by_colour(octahedron)
    single = single_edge_framework(linf2, (0, 0), (1, Fraction(1, 3)))
    assert not is_rigid_linf_by_colour(single)
    assert is_rigid_linf_by_colour(build_k2d(3))


def test_colour_criterion_matches_rank_criterion(linf2):
    rng_seeds = range(1, 25)
    g = complete_graph(list("abcd"))
    for seed in rng_seeds:
        fw = randomize_realisation(g, 2, linf2, seed=seed, denominator_bound=60)
        assert is_rigid_linf_by_colour(fw) == is_infinitesimally_rigid(fw)


def test_linf_rank_formula_random_colourings():
    # rank of M(G, phi) = sum over colour classes of (|V| - #components)
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(3, 8)
        d = rng.randint(1, 3)
        vertices = [f"v{i}" for i in range(n)]
        edges = [
            (vertices[i], vertices[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        if not edges:
            continue
        g = Graph(vertices, edges)
        norm = preset("linf", d)
        phi = [norm.faces[rng.randrange(len(norm.faces))] for _ in edges]
        rows = colouring_matrix(g, phi, d)
        expected = sum(
            n - len(connected_components(sub))
            for sub in monochromatic_subgraphs(g, phi, d)
        )
        assert rank_exact(rows) == expected


def test_redundant_rigidity_examples(octahedron, linf2):
    assert is_redundantly_rigid(octahedron)
    single = single_edge_framework(linf2, (0, 0), (1, Fraction(1, 3)))
    assert not is_redundantly_rigid(single)


def redundantly_rigid_by_definition(fw):
    """Rank d|V| - d survives deleting each edge's row, one rank per edge."""
    rows = rigidity_matrix(fw)
    target = fw.dim * len(fw.graph.vertices) - fw.dim
    return all(
        fraction_rank(rows[:e] + rows[e + 1:]) == target for e in range(len(rows))
    )


def test_redundant_rigidity_matches_per_edge_definition(octahedron):
    from conftest import l1_image, rigid_random_realisations

    redundant = [octahedron, l1_image(octahedron)]
    phi = induced_colouring(octahedron)
    for v, shift in (("v2", (Fraction(1, 997), 0)), ("v-1", (0, Fraction(-1, 50))),
                     ("v3", (Fraction(1, 40), Fraction(1, 60)))):
        pos = dict(octahedron.positions)
        pos[v] = (pos[v][0] + shift[0], pos[v][1] + shift[1])
        moved = octahedron.with_positions(pos)
        assert induced_colouring(moved) == phi
        redundant += [moved, l1_image(moved)]
    for fw in redundant:
        assert redundantly_rigid_by_definition(fw)
        assert is_redundantly_rigid(fw)

    for kind in ("linf", "l1"):
        norm = preset(kind, 2)
        for n in range(4, 9):
            g = complete_graph([f"v{i}" for i in range(n)])
            cases = [fw for _, fw in rigid_random_realisations(g, norm, 2, denominator_bound=50)]
            cases.append(randomize_realisation(g, 2, norm, seed=n, denominator_bound=50))
            for fw in cases:
                assert not redundantly_rigid_by_definition(fw)
                assert not is_redundantly_rigid(fw)


def elimination_corpus(octahedron, rigid_k4_linf2, rigid_k5_linf2):
    """Frameworks for the tagged elimination: rigid, redundant, flexible and
    edge-poor ones, in linf and l1, d = 2 and 3."""
    from conftest import l1_image

    planar = [fw for _, fw in rigid_k4_linf2[:3] + rigid_k5_linf2[:3]]
    corpus = planar + [l1_image(fw) for fw in planar] + [octahedron, l1_image(octahedron)]
    for v, shift in (("v2", (Fraction(1, 997), 0)), ("v-1", (0, Fraction(-1, 50)))):
        pos = dict(octahedron.positions)
        pos[v] = (pos[v][0] + shift[0], pos[v][1] + shift[1])
        corpus.append(octahedron.with_positions(pos))
    k7 = complete_graph([f"v{i}" for i in range(7)])
    corpus.append(build_k2d(3))
    corpus += [randomize_realisation(k7, 3, preset(kind, 3), seed=s, denominator_bound=100)
               for kind in ("linf", "l1") for s in (1, 2)]
    linf2 = preset("linf", 2)
    corpus.append(build_flexible_open(complete_graph(list("abcd")), linf2))  # short rank, circuits
    corpus.append(single_edge_framework(linf2, (0, 0), (1, Fraction(1, 3))))
    corpus.append(Framework(Graph(["a"]), linf2, {"a": (1, 2)}))
    corpus.append(build_k2d(2, n=40))  # |E| = d|V| - d: no edge can go
    return corpus


def test_tagged_elimination_matches_per_edge_ranks(octahedron, rigid_k4_linf2, rigid_k5_linf2):
    # the elimination's rank, and the edges its tag vectors name, against a
    # Fraction rank of the matrix and of the matrix without each edge
    from polyrigid.framework import induced_elimination

    seen = set()
    for fw in elimination_corpus(octahedron, rigid_k4_linf2, rigid_k5_linf2):
        rows = rigidity_matrix(fw)
        rank = fraction_rank(rows)
        # independent rows lie in no circuit; otherwise one rank per deleted edge
        in_circuits = set() if rank == len(rows) else {
            e for e in range(len(rows)) if fraction_rank(rows[:e] + rows[e + 1:]) == rank}
        ranks, named = [0], set()
        for e, (r, tags) in enumerate(induced_elimination(fw)):
            assert r == ranks[-1] + (tags is None)
            ranks.append(r)
            if tags is not None:  # a left-kernel vector ending at row e
                assert max(tags) == e and tags[e] > 0
                assert all(sum(z * rows[i][c] for i, z in tags.items()) == 0 for c in range(len(rows[0])))
                named |= tags.keys()
        assert (ranks[-1], named) == (rank, in_circuits), fw
        full = fw.dim * len(fw.graph.vertices) - fw.dim
        assert is_infinitesimally_rigid(fw) == (rank == full)
        assert is_redundantly_rigid(fw) == (rank == full and len(in_circuits) == len(rows))
        if len(rows) <= full:
            seen.add("no edge can go")
        elif rank == full:
            seen.add("redundant" if len(in_circuits) == len(rows) else "rigid")
        else:
            seen.add("flexible with circuits" if in_circuits else "flexible")
    assert seen == {"no edge can go", "redundant", "rigid", "flexible with circuits"}


def test_rank_stops_reading_rows_at_full_rank(octahedron, monkeypatch):
    # rank d|V| - d is reached at the octahedron's 11th row of 12, and the
    # rank cannot grow past it: the 12th row is never built
    from polyrigid import framework

    built = []
    row = framework.colouring_row
    monkeypatch.setattr(framework, "colouring_row", lambda *args: built.append(args[2]) or row(*args))
    assert framework.induced_rank(octahedron) == 10 and is_infinitesimally_rigid(octahedron)
    assert built == list(octahedron.graph.edges[:11]) * 2


def test_redundantly_rigid_classes_are_2_edge_connected(octahedron):
    # deleting one edge must keep every colour class connected, so the
    # classes of a redundantly rigid framework are bridgeless
    from polyrigid import is_2_edge_connected

    phi = induced_colouring(octahedron)
    for sub in monochromatic_subgraphs(octahedron.graph, phi, 2):
        assert is_2_edge_connected(sub)


def test_k5_never_redundantly_rigid(rigid_k5_linf2):
    for _, fw in rigid_k5_linf2[:5]:
        assert not is_redundantly_rigid(fw)


def test_isometry_acts_on_colouring(octahedron):
    # the induced colouring of T o p is the transpose action on phi_p
    phi = induced_colouring(octahedron)
    for T in octahedron.norm.isometry_group():
        moved = apply_isometry(T, octahedron)
        assert is_well_positioned(moved)
        assert apply_colouring(T, induced_colouring(moved)) == phi


def test_advisory_all_colourings_rigidity(linf2):
    square = build_hypercube(2)
    # the square K4: not well-positioned, and the advisory test cannot
    # prove it rigid (some compatible colourings are singular) - which
    # proves nothing, per the contract
    assert is_rigid_all_induced_colourings(square) in (True, False)
    flexible = single_edge_framework(linf2, (0, 0), (1, Fraction(1, 3)))
    assert not is_rigid_all_induced_colourings(flexible)


# -- the integer edge table and pinned rows against Fraction references ---

TABLE_NORMS = [preset(k, d) for k in ("linf", "l1") for d in (1, 2, 3)] + [
    PolytopeNorm(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 4), Fraction(3, 4)),
                     (Fraction(-3, 4), Fraction(-3, 4)), (Fraction(3, 4), Fraction(-3, 4)),
                     (Fraction(-3, 4), Fraction(3, 4))]),
    PolytopeNorm(3, [(Fraction(s, 2), 0, 0) for s in (1, -1)]
                 + [(0, Fraction(2 * s, 3), 0) for s in (1, -1)]
                 + [(0, 0, Fraction(3 * s, 5)) for s in (1, -1)]),
]
coordinate = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@st.composite
def small_frameworks(draw):
    """Up to five vertices, positions with mixed denominators (a repeated
    position gives a zero edge), and edges given with either end first, so
    vertex 0 is named first or second."""
    norm = draw(st.sampled_from(TABLE_NORMS))
    names = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chosen]
    positions = {v: tuple(draw(coordinate) for _ in range(norm.dim)) for v in names}
    if draw(st.booleans()):
        positions[names[-1]] = positions[names[0]]
    return Framework(Graph(names, edges), norm, positions)


@settings(max_examples=150, deadline=None)
@given(small_frameworks(), st.data())
def test_integer_edge_table_and_pinned_rows_match_fraction_references(fw, data):
    reference = reference_edge_table(fw)
    active, lengths = edge_table(fw)
    faces = fw.norm.faces
    assert lengths == edge_lengths(fw) == tuple(length for length, _ in reference)
    assert [tuple(faces[i] for i in a) for a in active] == [act for _, act in reference]
    zero = (Fraction(0),) * fw.dim
    assert induced_colourings(fw) == [act or (zero,) for _, act in reference]
    assert is_well_positioned(fw) == all(len(act) == 1 for _, act in reference)

    # the same graph and norm at other positions, so other lengths and
    # another position of vertex 0
    moved = fw.with_positions({v: data.draw(st.tuples(*[coordinate] * fw.dim)) for v in fw.graph.vertices})
    for fw in (fw, moved):
        # divided by its gcd, each row is the coprime reference row; as it
        # is, it is S times the Fraction equation, with one S for all rows
        rows, scales = pinned_rows(fw), set()
        assert [len(per_face) for per_face in rows] == [len(faces)] * len(fw.graph.edges)
        for per_face, edge, length in zip(rows, fw.graph.edges, edge_lengths(fw)):
            for row, face in zip(per_face, faces):
                g = gcd(*row.values())
                assert {c: x // g for c, x in row.items()} == sparse_row(reference_pinned_row(fw, edge, face, length))
                coefficients, rhs = fraction_pinned_row(fw, edge, face, length)
                equation = sparse_row(coefficients + [rhs])
                assert row.keys() == equation.keys()
                scales |= {x / equation[c] for c, x in row.items()}
        [scale] = scales
        assert scale > 0
