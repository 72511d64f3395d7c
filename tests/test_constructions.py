import random
from fractions import Fraction

import pytest

from polyrigid import (
    Framework,
    GadgetSpec,
    Graph,
    ParameterError,
    build_flexible_open,
    build_hypercube,
    build_k2d,
    build_np_gadget,
    complete_graph,
    congruence_check,
    connected_components,
    decide_generic_global_linf2,
    edge_lengths,
    induced_colouring,
    induced_colourings,
    is_2_connected,
    is_infinitesimally_rigid,
    is_Mdd_connected,
    is_rigid_linf_by_colour,
    is_well_positioned,
    monochromatic_subgraphs,
    path_graph,
    preset,
    project_framework,
    randomize_realisation,
    rank_exact,
    rigidity_matrix,
)
from polyrigid.framework import is_rigid_all_induced_colourings
from polyrigid.oracle import is_witness

from _oracles import reference_congruence_check, reference_edge_table


def colour_axis(face):
    return next(i for i, x in enumerate(face) if x != 0)


def test_k2d_matches_colour_table():
    # for 1 <= i < j <= d the edge {i, j} and {-i, -j} take colour i,
    # {i, -j} and {-i, j} take colour j, and {i, -i} takes colour i
    for d in (2, 3, 4):
        fw = build_k2d(d)
        phi = induced_colouring(fw)
        g = fw.graph
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                assert colour_axis(phi[g.edge_index(str(i), str(j))]) == i - 1
                assert colour_axis(phi[g.edge_index(str(-i), str(-j))]) == i - 1
                assert colour_axis(phi[g.edge_index(str(i), str(-j))]) == j - 1
                assert colour_axis(phi[g.edge_index(str(-i), str(j))]) == j - 1
            assert colour_axis(phi[g.edge_index(str(i), str(-i))]) == i - 1


def test_k2d_rigid_by_colour():
    for d in (2, 3, 4):
        assert is_rigid_linf_by_colour(build_k2d(d))


def test_k2d_exact_positions_d2():
    fw = build_k2d(2, eps=Fraction(1, 4))
    assert fw.position("1") == (1, Fraction(1, 4))
    assert fw.position("2") == (0, 1)
    assert fw.position("-1") == (-1, Fraction(-1, 4))
    assert fw.position("-2") == (0, -1)
    assert is_well_positioned(fw)


def test_k2d_d2_class_sizes():
    fw = build_k2d(2)
    subs = monochromatic_subgraphs(fw.graph, induced_colouring(fw), fw.dim)
    assert sorted(len(s.edges) for s in subs) == [3, 3]


def test_k2d_extension_rigid():
    fw = build_k2d(2, n=5)
    assert len(fw.graph.vertices) == 5
    assert len(fw.graph.edges) == 8 == 2 * 5 - 2
    assert is_well_positioned(fw)
    assert is_infinitesimally_rigid(fw)


def test_k2d_parameter_validation():
    with pytest.raises(ParameterError):
        build_k2d(2, eps=Fraction(1, 2))
    with pytest.raises(ParameterError):
        build_k2d(2, n=3)


def test_hypercube_distances():
    for d in (1, 2, 3):
        fw = build_hypercube(d)
        assert len(fw.graph.vertices) == 2**d
        assert all(x == 2 for x in edge_lengths(fw))


def test_hypercube_square_not_well_positioned():
    assert not is_well_positioned(build_hypercube(2))


def test_hypercube_maximal_equilateral():
    # no extra point can sit at distance 2 from all 2^d sign vectors:
    # sampled rational candidates all fail
    fw = build_hypercube(2)
    rng = random.Random(12)
    corners = [fw.position(v) for v in fw.graph.vertices]
    for _ in range(200):
        x = tuple(Fraction(rng.randint(-300, 300), 100) for _ in range(2))
        dists = [
            fw.norm.value(tuple(a - b for a, b in zip(x, c))) for c in corners
        ]
        assert not all(dist == 2 for dist in dists)


def test_octahedron_fixture(octahedron):
    assert len(octahedron.graph.vertices) == 6
    assert len(octahedron.graph.edges) == 12
    assert octahedron.position("v-1") == (0, Fraction(9, 10))
    assert octahedron.position("v-2") == (1, 0)
    assert octahedron.position("v-3") == (0, 0)
    assert octahedron.position("v1") == (1, Fraction(9, 10))
    assert octahedron.position("v2") == (1, Fraction(9, 5))
    assert octahedron.position("v3") == (0, Fraction(9, 5))
    assert is_well_positioned(octahedron)
    subs = monochromatic_subgraphs(octahedron.graph, induced_colouring(octahedron), 2)
    assert all(is_2_connected(s) for s in subs)


def test_np_gadget_counts_k3():
    k3 = complete_graph(["v0", "v1", "v2"])
    seed = Framework(
        k3,
        preset("linf", 1),
        {"v0": (0,), "v1": (Fraction(1, 3),), "v2": (1,)},
    )
    gadget = build_np_gadget(GadgetSpec(seed, 2))
    assert len(gadget.framework.graph.vertices) == 7
    assert len(gadget.framework.graph.edges) == 19


def test_np_gadget_scaling_invariant():
    k3 = complete_graph(["v0", "v1", "v2"])
    seed = Framework(k3, preset("linf", 1), {"v0": (0,), "v1": (7,), "v2": (31,)})
    gadget = build_np_gadget(GadgetSpec(seed, 2))
    m = len(k3.edges)
    for v in k3.vertices:
        assert abs(gadget.seed.position(v)[0] - 1) < Fraction(1, 2 * m)
    assert gadget.lam > 0
    assert gadget.seed.position(gadget.v1)[0] == 1 + gadget.lam


def test_np_gadget_restriction_to_signs_is_hypercube():
    seed = Framework(
        path_graph(["v0", "v1"]), preset("linf", 1), {"v0": (0,), "v1": (1,)}
    )
    gadget = build_np_gadget(GadgetSpec(seed, 2))
    fw = gadget.framework
    sign_vertices = [v for v in fw.graph.vertices if v.startswith("s")]
    assert len(sign_vertices) == 4
    positions = {fw.position(v) for v in sign_vertices}
    cube = build_hypercube(2)
    assert positions == {cube.position(v) for v in cube.graph.vertices}
    for i, a in enumerate(sign_vertices):
        for b in sign_vertices[i + 1:]:
            assert fw.graph.has_edge(a, b)
            diff = tuple(x - y for x, y in zip(fw.position(a), fw.position(b)))
            assert fw.norm.value(diff) == 2


def test_np_gadget_lifted_witness():
    seed = Framework(
        path_graph(["v0", "v1", "v2"]),
        preset("linf", 1),
        {"v0": (0,), "v1": (1,), "v2": (3,)},
    )
    gadget = build_np_gadget(GadgetSpec(seed, 2))
    ns = gadget.seed
    reflected = {v: ns.position(v) for v in ns.graph.vertices}
    reflected["v2"] = (2 * ns.position("v1")[0] - ns.position("v2")[0],)
    assert edge_lengths(ns.with_positions(reflected)) == edge_lengths(ns)
    lifted = gadget.lift_witness(reflected)
    fw = gadget.framework
    assert edge_lengths(fw.with_positions(lifted)) == edge_lengths(fw)
    assert not congruence_check(fw, lifted)


def test_np_gadget_lifts_mirror_images_and_refuses_others():
    seed = Framework(path_graph(["v0", "v1", "v2"]), preset("linf", 1), {"v0": (0,), "v1": (1,), "v2": (3,)})
    gadget = build_np_gadget(GadgetSpec(seed, 2))
    ns = gadget.seed
    reflected = {v: ns.position(v) for v in ns.graph.vertices}
    reflected["v2"] = (2 * ns.position("v1")[0] - ns.position("v2")[0],)
    # the mirror image puts v1 below v0, so the lift reflects it back
    mirrored = {v: (-x,) for v, (x,) in reflected.items()}
    assert mirrored["v1"] < mirrored["v0"]
    lifted = gadget.lift_witness(reflected)
    assert gadget.lift_witness(mirrored) == lifted
    assert is_witness(gadget.framework, lifted)
    stretched = dict(reflected, v1=(reflected["v1"][0] + 1,))
    with pytest.raises(ParameterError, match="not equivalent"):
        gadget.lift_witness(stretched)


def test_k3_seed_gadget_is_not_globally_rigid():
    # the generic triangle is globally rigid on the line, yet its gadget in
    # d = 2 is not: v1 and v2 reflect about v0 = 1, s-- and s-+ each move
    # to the other's mirror image across x = 1, and v0, s+- and s++ stay
    seed = Framework(
        complete_graph(["v0", "v1", "v2"]),
        preset("linf", 1),
        {"v0": (0,), "v1": (Fraction(5, 17),), "v2": (Fraction(9, 11),)},
    )
    fw = build_np_gadget(GadgetSpec(seed, 2)).framework
    q = dict(fw.positions)
    q.update({"v1": (Fraction(1781, 1836), 0), "v2": (Fraction(11, 12), 0), "s--": (3, 1), "s-+": (3, -1)})
    assert is_witness(fw, q)
    lengths = [length for length, _ in reference_edge_table(fw)]
    assert [length for length, _ in reference_edge_table(fw.with_positions(q))] == lengths
    assert not reference_congruence_check(fw, q)


def test_np_gadget_rejects_bad_seeds():
    disconnected = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    fw = Framework(
        disconnected, preset("linf", 1), {"a": (0,), "b": (1,), "c": (0,), "d": (2,)}
    )
    with pytest.raises(ParameterError):
        build_np_gadget(GadgetSpec(fw, 2))
    degenerate = Framework(
        path_graph(["a", "b"]), preset("linf", 1), {"a": (1,), "b": (1,)}
    )
    with pytest.raises(ParameterError):
        build_np_gadget(GadgetSpec(degenerate, 2))


def test_flexible_open(linf2, l1_2):
    for norm in (linf2, l1_2):
        fw = build_flexible_open(complete_graph(list("abcd")), norm)
        assert is_well_positioned(fw)
        phi = induced_colouring(fw)
        assert len(set(phi)) == 1
        assert rank_exact(rigidity_matrix(fw)) <= len(fw.graph.vertices) - 1
        assert not is_infinitesimally_rigid(fw)
    single = build_flexible_open(path_graph(["a", "b"]), linf2)
    assert not is_infinitesimally_rigid(single)
    with pytest.raises(ParameterError):
        build_flexible_open(complete_graph(list("abc")), preset("linf", 1))


def test_projection_of_k2d():
    fw3 = build_k2d(3, n=6)
    proj = project_framework(fw3)
    assert proj.dim == 2
    assert is_Mdd_connected(proj.graph, 2)
    assert decide_generic_global_linf2(proj.graph)
    # unique compatible colouring; its nonzero colour classes stay connected
    cands = induced_colourings(proj)
    assert all(len(c) == 1 for c in cands)
    zero = (Fraction(0), Fraction(0))
    kept = {}
    for e, (face,) in zip(proj.graph.edges, cands):
        if face != zero:
            kept.setdefault(colour_axis(face), []).append(e)
    assert len(kept) == 2
    for edges in kept.values():
        sub = proj.graph.subgraph_on_edges(edges)
        assert len(connected_components(sub)) == 1
    # sufficient rank test over all compatible colourings: rigid exactly
    assert is_rigid_all_induced_colourings(proj)


def test_projection_lengths_monotone():
    fw3 = build_k2d(3, n=6)
    proj = project_framework(fw3)
    high = edge_lengths(fw3)
    low = edge_lengths(proj)
    phi3 = induced_colouring(fw3)
    for ei in range(len(high)):
        assert low[ei] <= high[ei]
        if colour_axis(phi3[ei]) != 2:  # not coloured by the dropped axis
            assert low[ei] == high[ei]


def test_projection_validation(octahedron):
    proj = project_framework(octahedron)
    assert proj.dim == 1
    with pytest.raises(ParameterError):
        project_framework(proj)  # dimension 1 cannot drop a coordinate
    l1fw = Framework(
        Graph(["a", "b"], [("a", "b")]), preset("l1", 2), {"a": (0, 0), "b": (1, 0)}
    )
    with pytest.raises(ParameterError):
        project_framework(l1fw)


def test_randomize_realisation_deterministic(linf2):
    g = complete_graph(list("abcde"))
    fw1 = randomize_realisation(g, 2, linf2, seed=1, denominator_bound=10**6)
    fw2 = randomize_realisation(g, 2, linf2, seed=1, denominator_bound=10**6)
    assert fw1.positions == fw2.positions
    assert is_well_positioned(fw1)
    fw3 = randomize_realisation(g, 2, linf2, seed=2, denominator_bound=10**6)
    assert fw3.positions != fw1.positions


def test_randomize_realisation_validation(linf2):
    with pytest.raises(ParameterError):
        randomize_realisation(complete_graph(list("ab")), 2, linf2, seed=1, denominator_bound=1)
