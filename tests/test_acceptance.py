"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything asserted here is exact (Fraction equality, exact ranks, exact
witnesses); the only tolerances are wall-clock budgets.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from polyrigid import (
    Framework,
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    Graph,
    SearchParams,
    SparsityParams,
    build_flexible_open,
    build_hypercube,
    build_k2d,
    build_np_gadget,
    certify_generic_global,
    complete_graph,
    congruence_check,
    connected_components,
    decide_generic_global_linf2,
    decide_global_rigidity,
    edge_lengths,
    GadgetSpec,
    induced_colouring,
    induced_colourings,
    is_2_connected,
    is_infinitesimally_rigid,
    is_Mdd_connected,
    is_redundantly_rigid,
    is_rigid_linf_by_colour,
    is_well_positioned,
    monochromatic_subgraphs,
    numeric_witness_search,
    path_graph,
    pebble_rank,
    preset,
    project_framework,
    randomize_realisation,
    rank_exact,
    rigidity_matrix,
    colouring_matrix,
)

from _oracles import all_graphs, brute_force_max_sparse


def report(number, label):
    print(f"\nACCEPTANCE {number} PASS: {label}")


def test_criterion_01_octahedron(octahedron):
    t0 = time.perf_counter()
    assert is_well_positioned(octahedron)
    assert rank_exact(rigidity_matrix(octahedron)) == 10
    assert is_infinitesimally_rigid(octahedron)
    assert is_redundantly_rigid(octahedron)
    subs = monochromatic_subgraphs(octahedron.graph, induced_colouring(octahedron), 2)
    assert len(subs) == 2 and all(is_2_connected(s) for s in subs)
    assert certify_generic_global(octahedron)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"octahedron fixture: rank 10, rigid, redundant, both classes "
              f"2-connected, certificate holds ({elapsed:.2f}s)")


def test_criterion_02_k4_never_globally_rigid(rigid_k4_linf2):
    t0 = time.perf_counter()
    assert len(rigid_k4_linf2) == 20
    for seed, fw in rigid_k4_linf2:
        verdict = decide_global_rigidity(fw, budget=4**6)
        assert verdict.outcome == NOT_GLOBALLY_RIGID, f"seed {seed}"
        q = verdict.witness
        assert edge_lengths(fw.with_positions(q)) == edge_lengths(fw)
        assert not congruence_check(fw, q)
        examined = verdict.certificate["colourings_examined"]
        assert examined <= 4**6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"20 rigid random K4 realisations all refuted with exact "
              f"non-congruent witnesses ({elapsed:.2f}s)")


def test_criterion_03_k5(rigid_k5_linf2):
    t0 = time.perf_counter()
    k5 = complete_graph(list("abcde"))
    assert is_Mdd_connected(k5, 2)
    assert len(rigid_k5_linf2) == 20
    for seed, fw in rigid_k5_linf2:
        assert not is_redundantly_rigid(fw), f"seed {seed}"
    assert decide_generic_global_linf2(k5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"K5: matroid-connected, 20 rigid realisations all fail "
              f"redundant rigidity, generic criterion true ({elapsed:.2f}s)")


def test_criterion_04_pebble_vs_brute_force():
    t0 = time.perf_counter()
    params = [(2, 2), (2, 3), (3, 3)]
    checked = 0
    for n in (1, 2, 3, 4, 5):
        vertices = [f"v{i}" for i in range(n)]
        for edges in all_graphs(vertices):
            g = Graph(vertices, edges)
            for d, k in params:
                assert pebble_rank(g, SparsityParams(d, k)) == \
                    brute_force_max_sparse(g, d, k), (n, edges, d, k)
                checked += 1
    rng = random.Random(2024)
    vertices = [f"v{i}" for i in range(6)]
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    for _ in range(200):
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(vertices, edges)
        for d, k in params:
            assert pebble_rank(g, SparsityParams(d, k)) == \
                brute_force_max_sparse(g, d, k), (edges, d, k)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, f"pebble rank equals brute force on {checked} instances "
              f"({elapsed:.1f}s)")


def test_criterion_05_tight_fixtures():
    from test_sparsity import double_banana

    banana = double_banana()
    assert pebble_rank(banana, SparsityParams(3, 6)) == 18
    assert len(banana.edges) == 3 * len(banana.vertices) - 6
    from polyrigid import is_tight

    assert is_tight(banana, SparsityParams(3, 6))
    assert is_tight(complete_graph(list("abcd")), SparsityParams(2, 2))
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(2, 10)
        vertices = [f"v{i}" for i in range(n)]
        edges = [
            (vertices[rng.randint(0, i - 1)], vertices[i]) for i in range(1, n)
        ]
        assert is_tight(Graph(vertices, edges), SparsityParams(1, 1))
    report(5, "double banana (3,6)-tight, K4 (2,2)-tight, 50 random trees "
              "(1,1)-tight")


def test_criterion_06_rank_formula():
    rng = random.Random(31415)
    done = 0
    while done < 500:
        n = rng.randint(2, 8)
        d = rng.randint(1, 3)
        vertices = [f"v{i}" for i in range(n)]
        edges = [
            (a, b)
            for i, a in enumerate(vertices)
            for b in vertices[i + 1:]
            if rng.random() < 0.5
        ]
        if not edges:
            continue
        g = Graph(vertices, edges)
        norm = preset("linf", d)
        phi = [norm.faces[rng.randrange(2 * d)] for _ in edges]
        expected = sum(
            n - len(connected_components(sub))
            for sub in monochromatic_subgraphs(g, phi, d)
        )
        assert rank_exact(colouring_matrix(g, phi, d)) == expected
        done += 1
    report(6, "rank of 500 random colouring matrices equals the "
              "components formula")


def test_criterion_07_constructions():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        fw = build_k2d(d)
        assert is_rigid_linf_by_colour(fw)
        phi = induced_colouring(fw)
        g = fw.graph

        def axis(face):
            return next(i for i, x in enumerate(face) if x != 0)

        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                assert axis(phi[g.edge_index(str(i), str(j))]) == i - 1
                assert axis(phi[g.edge_index(str(-i), str(-j))]) == i - 1
                assert axis(phi[g.edge_index(str(i), str(-j))]) == j - 1
                assert axis(phi[g.edge_index(str(-i), str(j))]) == j - 1
            assert axis(phi[g.edge_index(str(i), str(-i))]) == i - 1
    for d in (1, 2, 3):
        cube = build_hypercube(d)
        assert all(x == 2 for x in edge_lengths(cube))
        assert len(cube.graph.vertices) == 2**d
    proj = project_framework(build_k2d(3, n=6))
    assert is_Mdd_connected(proj.graph, 2)
    assert decide_generic_global_linf2(proj.graph)
    zero = (Fraction(0), Fraction(0))
    kept = {}
    for e, (face,) in zip(proj.graph.edges, induced_colourings(proj)):
        if face != zero:
            kept.setdefault(next(i for i, x in enumerate(face) if x), []).append(e)
    assert len(kept) == 2
    for edges in kept.values():
        sub = proj.graph.subgraph_on_edges(edges)
        assert len(connected_components(sub)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, f"k2d colour tables and rigidity (d=2,3,4), hypercube "
              f"distances, projection matroid-connected with connected "
              f"classes ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_08_np_gadget():
    t0 = time.perf_counter()
    # seed 1: a path, not globally rigid on the line; its reflection
    # witness lifts to an exact non-congruent witness on the gadget
    path_seed = Framework(
        path_graph(["v0", "v1", "v2"]),
        preset("linf", 1),
        {"v0": (0,), "v1": (1,), "v2": (3,)},
    )
    gadget = build_np_gadget(GadgetSpec(path_seed, 2))
    ns = gadget.seed
    reflected = {v: ns.position(v) for v in ns.graph.vertices}
    reflected["v2"] = (2 * ns.position("v1")[0] - ns.position("v2")[0],)
    lifted = gadget.lift_witness(reflected)
    fw = gadget.framework
    assert edge_lengths(fw.with_positions(lifted)) == edge_lengths(fw)
    assert not congruence_check(fw, lifted)

    # seed 2: a generic triangle, globally rigid on the line; the numeric
    # falsifier comes up empty on the gadget
    k3_seed = Framework(
        complete_graph(["v0", "v1", "v2"]),
        preset("linf", 1),
        {"v0": (0,), "v1": (Fraction(5, 17),), "v2": (Fraction(9, 11),)},
    )
    gadget3 = build_np_gadget(GadgetSpec(k3_seed, 2))
    witness = numeric_witness_search(
        gadget3.framework,
        SearchParams(restarts=10_000, steps=25, tolerance=1e-7, seed=99),
    )
    assert witness is None
    elapsed = time.perf_counter() - t0
    report(8, f"gadget: lifted path witness verified exactly; no witness "
              f"for the rigid-seed gadget in 10^4 restarts ({elapsed:.1f}s)")


def test_criterion_09_isometry_groups(linf1, linf2, linf3, l1_2):
    rng = random.Random(8)
    for norm, expected in ((linf1, 2), (linf2, 8), (linf3, 48), (l1_2, 8)):
        group = norm.isometry_group()
        assert len(group) == expected
        for _ in range(100):
            x = tuple(
                Fraction(rng.randint(-40, 40), rng.randint(1, 7))
                for _ in range(norm.dim)
            )
            val = norm.value(x)
            assert all(norm.value(T.apply(x)) == val for T in group)
    report(9, "isometry group orders 2, 8, 48, 8; all elements preserve "
              "the norm on 100 sampled vectors each")


@pytest.mark.slow
def test_criterion_10_oracle_never_contradicts_engine(
    octahedron, rigid_k4_linf2, rigid_k5_linf2, linf2, l1_2
):
    t0 = time.perf_counter()
    linf1 = preset("linf", 1)
    instances = []
    for _, fw in rigid_k4_linf2:
        instances.append(fw)
    for _, fw in rigid_k5_linf2[:3]:
        instances.append(fw)
    instances.append(octahedron)
    pos = dict(octahedron.positions)
    pos["v2"] = (pos["v2"][0] + Fraction(1, 997), pos["v2"][1])
    instances.append(octahedron.with_positions(pos))
    for g in (complete_graph(list("abcd")), complete_graph(list("abcde"))):
        for norm in (linf2, l1_2):
            instances.append(build_flexible_open(g, norm))
    for seed in range(5):
        instances.append(
            randomize_realisation(
                complete_graph(list("abc")), 2, linf2, seed=seed, denominator_bound=50
            )
        )
    for offset in range(5):
        rngp = random.Random(offset)
        pts = sorted(rngp.sample(range(40), 4))
        instances.append(
            Framework(
                path_graph(["a", "b", "c", "d"]),
                linf1,
                {v: (p,) for v, p in zip("abcd", pts)},
            )
        )
    instances.append(build_k2d(2))
    for seed in (101, 202, 303, 404, 505, 606, 707, 808, 909, 1010):
        instances.append(
            randomize_realisation(
                complete_graph(list("abcd")), 2, l1_2, seed=seed, denominator_bound=60
            )
        )
    instances = instances[:50]
    assert len(instances) == 50
    contradictions = 0
    for i, fw in enumerate(instances):
        witness = numeric_witness_search(
            fw, SearchParams(restarts=60, steps=80, seed=1000 + i)
        )
        verdict = decide_global_rigidity(fw, budget=2_000_000)
        if witness is not None:
            assert edge_lengths(fw.with_positions(witness)) == edge_lengths(fw)
            assert not congruence_check(fw, witness)
            if verdict.outcome == GLOBALLY_RIGID:
                contradictions += 1
    assert contradictions == 0
    elapsed = time.perf_counter() - t0
    report(10, f"50-instance suite: oracle witnesses never contradict the "
               f"exact engine ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_11_octahedron_stability(octahedron):
    t0 = time.perf_counter()
    base_phi = induced_colouring(octahedron)
    assert decide_global_rigidity(octahedron).outcome == GLOBALLY_RIGID
    rng = random.Random(71)
    done = 0
    while done < 10:
        vertex = octahedron.graph.vertices[rng.randrange(6)]
        coord = rng.randrange(2)
        delta = Fraction(rng.randint(-9, 9), 10_000 + rng.randint(0, 99))
        if delta == 0:
            continue
        pos = dict(octahedron.positions)
        p = list(pos[vertex])
        p[coord] += delta
        pos[vertex] = tuple(p)
        nudged = octahedron.with_positions(pos)
        if not is_well_positioned(nudged) or induced_colouring(nudged) != base_phi:
            continue
        assert decide_global_rigidity(nudged).outcome == GLOBALLY_RIGID
        done += 1
    elapsed = time.perf_counter() - t0
    report(11, f"octahedron verdict stable under 10 colouring-preserving "
               f"rational perturbations ({elapsed:.1f}s)")
