import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polyrigid.sparsity as sparsity
from polyrigid import (
    Graph,
    ParameterError,
    SparsityParams,
    complete_graph,
    edges_in_circuits,
    fundamental_circuit,
    is_2_connected,
    is_Mdd_connected,
    is_dd_redundant,
    is_sparse,
    is_tight,
    max_sparse_subset,
    pebble_rank,
)

from _oracles import (
    brute_force_max_sparse,
    edge_masks_of,
    plain_edges_in_circuits,
    plain_fundamental_circuit,
    plain_max_sparse_subset,
    reference_edges_in_circuits,
    sparse_by_counting,
    without_edge,
)


def double_banana():
    """Two K5-minus-one-vertex bodies glued along two hinge vertices."""
    vertices = ["t", "b", "l1", "l2", "l3", "r1", "r2", "r3"]
    edges = []
    for side in (["l1", "l2", "l3"], ["r1", "r2", "r3"]):
        for v in side:
            edges.append(("t", v))
            edges.append(("b", v))
        edges.append((side[0], side[1]))
        edges.append((side[1], side[2]))
        edges.append((side[0], side[2]))
    return Graph(vertices, edges)


def test_params_validation():
    with pytest.raises(ParameterError):
        SparsityParams(0, 0)
    with pytest.raises(ParameterError):
        SparsityParams(2, 4)  # k > d(d+1)/2
    assert SparsityParams(2, 3).matroidal
    assert not SparsityParams(3, 6).matroidal


def test_pebble_rank_k4_k5():
    assert pebble_rank(complete_graph(list("abcd")), SparsityParams(2, 2)) == 6
    assert pebble_rank(complete_graph(list("abcde")), SparsityParams(2, 2)) == 8


def test_pebble_rank_matches_brute_force_k4_k5():
    for n in (4, 5):
        g = complete_graph(list("abcde")[:n])
        assert pebble_rank(g, SparsityParams(2, 2)) == brute_force_max_sparse(g, 2, 2)


def test_double_banana_tight_3_6():
    g = double_banana()
    assert len(g.edges) == 18 == 3 * 8 - 6
    assert pebble_rank(g, SparsityParams(3, 6)) == 18
    assert is_tight(g, SparsityParams(3, 6))


def test_k4_tight_k5_not():
    assert is_tight(complete_graph(list("abcd")), SparsityParams(2, 2))
    assert not is_tight(complete_graph(list("abcde")), SparsityParams(2, 2))


def test_trees_are_1_1_tight():
    rng = random.Random(77)
    for trial in range(50):
        n = rng.randint(2, 9)
        vertices = [f"v{i}" for i in range(n)]
        edges = [
            (vertices[rng.randint(0, i - 1)], vertices[i]) for i in range(1, n)
        ]
        g = Graph(vertices, edges)
        assert is_tight(g, SparsityParams(1, 1))


def test_dd_redundant():
    assert is_dd_redundant(complete_graph(list("abcde")), 2)
    assert not is_dd_redundant(complete_graph(list("abcd")), 2)


def test_octahedron_graph_redundant():
    from polyrigid import build_octahedron

    assert is_dd_redundant(build_octahedron().graph, 2)


def test_Mdd_connected():
    assert is_Mdd_connected(complete_graph(list("abcde")), 2)
    assert not is_Mdd_connected(complete_graph(list("abcd")), 2)


def test_Mdd_needs_2_connectivity():
    # two K5 blocks sharing one vertex: redundant but with a cut vertex
    k5a = [f"a{i}" for i in range(4)] + ["c"]
    k5b = [f"b{i}" for i in range(4)] + ["c"]
    vertices = k5a[:4] + ["c"] + k5b[:4]
    edges = []
    for block in (k5a, k5b):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((block[i], block[j]))
    g = Graph(vertices, edges)
    assert is_dd_redundant(g, 2)
    assert not is_2_connected(g)
    assert not is_Mdd_connected(g, 2)


def test_Mdd_implies_redundant_and_2_connected():
    rng = random.Random(5)
    vertices = list("abcdef")
    for _ in range(60):
        edges = [
            (v, w)
            for i, v in enumerate(vertices)
            for w in vertices[i + 1:]
            if rng.random() < 0.6
        ]
        g = Graph(vertices, edges)
        if is_Mdd_connected(g, 2):
            assert is_dd_redundant(g, 2) and is_2_connected(g)


def test_fundamental_circuit_k4_none():
    g = complete_graph(list("abcd"))
    for e in g.edges:
        assert fundamental_circuit(g, SparsityParams(2, 2), e) is None


def test_fundamental_circuit_k5():
    g = complete_graph(list("abcde"))
    params = SparsityParams(2, 2)
    masks_n = len(g.vertices)
    for e in g.edges:
        circuit = fundamental_circuit(g, params, e)
        assert circuit is not None and e in circuit
        assert len(circuit) >= 7
        # minimally dependent: the circuit is not sparse, every proper
        # subset is (checked against the counting oracle)
        sub = g.subgraph_on_edges(circuit)
        assert not sparse_by_counting(masks_n, edge_masks_of(sub), 2, 2)
        for drop in circuit:
            rest = g.subgraph_on_edges([f for f in circuit if f != drop])
            assert sparse_by_counting(masks_n, edge_masks_of(rest), 2, 2)


def test_fundamental_circuit_disjoint_union():
    k5 = [f"a{i}" for i in range(5)]
    k4 = [f"b{i}" for i in range(4)]
    edges = [(k5[i], k5[j]) for i in range(5) for j in range(i + 1, 5)]
    edges += [(k4[i], k4[j]) for i in range(4) for j in range(i + 1, 4)]
    g = Graph(k5 + k4, edges)
    params = SparsityParams(2, 2)
    assert fundamental_circuit(g, params, (k4[0], k4[1])) is None
    assert fundamental_circuit(g, params, (k5[0], k5[1])) is not None


def test_edges_in_circuits_match_fundamental_circuits():
    rng = random.Random(5)
    vertices = list("abcdef")
    graphs = [double_banana(), complete_graph(list("abcde"))]
    for _ in range(10):
        graphs.append(Graph(vertices, [(v, w) for i, v in enumerate(vertices) for w in vertices[i + 1:] if rng.random() < 0.6]))
    for g in graphs:
        for params in (SparsityParams(2, 2), SparsityParams(2, 3), SparsityParams(1, 1)):
            expected = [fundamental_circuit(g, params, e) is not None for e in g.edges]
            assert list(edges_in_circuits(g, params)) == expected


MATROIDAL = ((1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (3, 5))


def differential_graphs():
    """Every graph on 4 vertices, then seeded graphs on 5 and 6 vertices."""
    from _oracles import all_graphs

    graphs = [Graph(list("abcd"), edges) for edges in all_graphs(list("abcd"))]
    rng = random.Random(2008)
    for n in (5,) * 6 + (6,) * 6:
        vertices = list("abcdef")[:n]
        p = rng.uniform(0.3, 0.9)
        graphs.append(Graph(vertices, [(v, w) for i, v in enumerate(vertices) for w in vertices[i + 1:] if rng.random() < p]))
    return graphs


def test_edges_in_circuits_match_rank_drop_by_counting():
    # an edge lies in a circuit exactly when removing it keeps the rank,
    # with ranks from the exhaustive oracle, which plays no pebble game
    for g in differential_graphs():
        for d, k in MATROIDAL:
            full = brute_force_max_sparse(g, d, k)
            expected = [brute_force_max_sparse(without_edge(g, *e), d, k) == full for e in g.edges]
            assert edges_in_circuits(g, SparsityParams(d, k)) == expected, (g.edges, d, k)


def test_fundamental_circuit_matches_basis_exchange_by_counting():
    # the circuit of B + e, B a basis of E - e, is e and the b in B for
    # which B - b + e is sparse, each checked by subset counting
    for g in differential_graphs():
        for d, k in MATROIDAL:
            params = SparsityParams(d, k)

            def sparse(edges):
                return sparse_by_counting(len(g.vertices), edge_masks_of(g.subgraph_on_edges(edges)), d, k)

            for e in g.edges:
                basis = max_sparse_subset(without_edge(g, *e), params)
                expected = None
                if not sparse(basis + (e,)):
                    exchange = [b for b in basis if sparse([f for f in basis if f != b] + [e])]
                    expected = tuple(sorted([e] + exchange, key=g.edges.index))
                assert fundamental_circuit(g, params, e) == expected, (g.edges, d, k, e)


def test_nonmatroidal_edges_in_circuits_rejected():
    with pytest.raises(ParameterError):
        edges_in_circuits(double_banana(), SparsityParams(3, 6))


def test_max_sparse_subset_is_basis():
    g = complete_graph(list("abcde"))
    params = SparsityParams(2, 2)
    basis = max_sparse_subset(g, params)
    assert len(basis) == 8
    assert sparse_by_counting(5, edge_masks_of(g.subgraph_on_edges(basis)), 2, 2)


def test_rank_axioms_sampled():
    rng = random.Random(11)
    vertices = list("abcdef")
    params = SparsityParams(2, 2)
    for _ in range(25):
        edges = [
            (v, w)
            for i, v in enumerate(vertices)
            for w in vertices[i + 1:]
            if rng.random() < 0.5
        ]
        g = Graph(vertices, edges)
        r = pebble_rank(g, params)
        assert 0 <= r <= len(g.edges)
        # monotone + submodular on a sampled pair A <= E, B <= E
        if g.edges:
            a = [e for e in g.edges if rng.random() < 0.5]
            b = [e for e in g.edges if rng.random() < 0.5]
            union = list(dict.fromkeys(a + b))
            inter = [e for e in a if e in b]
            ra = pebble_rank(g.subgraph_on_edges(a), params)
            rb = pebble_rank(g.subgraph_on_edges(b), params)
            ru = pebble_rank(g.subgraph_on_edges(union), params)
            ri = pebble_rank(g.subgraph_on_edges(inter), params)
            assert ra <= ru and rb <= ru <= r  # monotone
            assert ra + rb >= ru + ri  # submodular


def test_nonmatroidal_circuit_rejected():
    g = double_banana()
    with pytest.raises(ParameterError):
        fundamental_circuit(g, SparsityParams(3, 6), g.edges[0])


def test_pebble_rank_all_graphs_on_4_vertices():
    from _oracles import all_graphs

    for edges in all_graphs(list("abcd")):
        g = Graph(list("abcd"), edges)
        for d, k in ((2, 2), (2, 3), (3, 3)):
            assert pebble_rank(g, SparsityParams(d, k)) == brute_force_max_sparse(
                g, d, k
            ), (edges, d, k)


def test_brute_force_oracle_against_naive_enumeration():
    # the pruned search used as the oracle elsewhere agrees with a fully
    # naive scan of all 2^|E| subsets on a few dense instances
    from itertools import combinations

    cases = [complete_graph(list("abcde"))]
    cases.append(Graph(list("abcde"), [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e"),
        ("a", "c"), ("b", "d"), ("c", "e"),
    ]))
    for g in cases:
        n = len(g.vertices)
        masks = edge_masks_of(g)
        for d, k in ((2, 2), (2, 3), (3, 3)):
            naive = 0
            for size in range(len(g.edges), -1, -1):
                for subset in combinations(range(len(masks)), size):
                    if sparse_by_counting(n, [masks[i] for i in subset], d, k):
                        naive = size
                        break
                if naive == size:
                    break
            assert brute_force_max_sparse(g, d, k) == naive
            assert pebble_rank(g, SparsityParams(d, k)) == naive


NONMATROIDAL = ((3, 6), (4, 8), (4, 9), (4, 10))


def random_dense_graphs(count, seed, max_edges):
    """Seeded random graphs on 4 to 7 vertices with at least half of the
    possible edges (at most ``max_edges``), in shuffled order."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        vertices = [f"v{i}" for i in range(rng.randint(4, 7))]
        pairs = [(v, w) for i, v in enumerate(vertices) for w in vertices[i + 1:]]
        graphs.append(Graph(vertices, rng.sample(pairs, rng.randint(len(pairs) // 2, min(len(pairs), max_edges)))))
    return graphs


def test_nonmatroidal_range_matches_the_oracles():
    # k >= 2d: no pebble game, the counting check and the include/exclude
    # search, which keeps per-subset slack along the walk, so K7 under
    # (3,6) and 21-edge graphs stay cheap for it; the oracle takes longer
    assert pebble_rank(complete_graph(list("abcdef")), SparsityParams(3, 6)) == 12
    assert pebble_rank(complete_graph(list("abcdefg")), SparsityParams(3, 6)) == 15
    non_sparse = dict.fromkeys(NONMATROIDAL, 0)
    for d, k in NONMATROIDAL:
        params = SparsityParams(d, k)
        complete = [complete_graph(list("abcdefg")[:n]) for n in (5, 6, 7)]
        for g in complete + random_dense_graphs(185, d * 100 + k, 21):
            n, m = len(g.vertices), len(g.edges)
            sparse = sparse_by_counting(n, edge_masks_of(g), d, k)
            non_sparse[d, k] += not sparse
            assert pebble_rank(g, params) == brute_force_max_sparse(g, d, k), (g.edges, d, k)
            assert is_sparse(g, params) == sparse
            assert is_tight(g, params) == (sparse and m == d * n - k)
    assert all(non_sparse.values()), non_sparse  # every search runs


def test_nonmatroidal_limits_are_parameter_errors(tmp_path, capsys):
    from polyrigid.cli import main

    path17 = [f"v{i}" for i in range(17)]
    star17 = Graph(path17, [(path17[0], v) for v in path17[1:]])
    k8 = complete_graph(list("abcdefgh"))  # 28 edges, not (3,6)-sparse
    for g in (star17, k8):
        with pytest.raises(ParameterError, match="limited to"):
            pebble_rank(g, SparsityParams(3, 6))
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}))
        capsys.readouterr()
        assert main(["sparsity", str(path), "--d", "3", "--k", "6"]) == 2
        assert "limited to" in capsys.readouterr().err
    with pytest.raises(ParameterError, match="limited to 16 vertices"):
        is_sparse(star17, SparsityParams(3, 6))


ALL_MATROIDAL = tuple((d, k) for d in (1, 2, 3) for k in range(2 * d))


def two_k8s_joined():
    a, b = [f"a{i}" for i in range(8)], [f"b{i}" for i in range(8)]
    edges = [(x, y) for block in (a, b) for i, x in enumerate(block) for y in block[i + 1:]]
    return Graph(a + b, edges + [(a[0], b[0])])


def random_pebble_graphs():
    """Seeded random graphs on 1 to 13 vertices, edges in shuffled order."""
    rng = random.Random(1515)
    graphs = []
    for n in range(1, 14):
        vertices = [f"v{i}" for i in range(n)]
        for _ in range(6):
            p = rng.uniform(0.1, 1.0)
            edges = [(v, w) for i, v in enumerate(vertices) for w in vertices[i + 1:] if rng.random() < p]
            rng.shuffle(edges)
            graphs.append(Graph(vertices, edges))
    return graphs


def test_pebble_game_matches_the_plain_game():
    # rejecting edges inside recorded tight sets without a search changes
    # no answer: bases are the same tuples, and ranks, sparsity, tightness
    # and circuits agree with the game in which every edge gathers
    named = [complete_graph([f"v{i}" for i in range(n)]) for n in (30, 60)]
    named += [double_banana(), two_k8s_joined()]
    rng = random.Random(15)
    for g in random_pebble_graphs() + named:
        for d, k in ALL_MATROIDAL:
            params = SparsityParams(d, k)
            basis = plain_max_sparse_subset(g, d, k)
            assert max_sparse_subset(g, params) == basis, (g.edges, d, k)
            assert pebble_rank(g, params) == len(basis)
            assert is_sparse(g, params) == (len(basis) == len(g.edges))
            assert is_tight(g, params) == (len(basis) == len(g.edges) == d * len(g.vertices) - k)
            assert edges_in_circuits(g, params) == plain_edges_in_circuits(g, d, k), (g.edges, d, k)
            for e in rng.sample(g.edges, min(3, len(g.edges))):
                assert fundamental_circuit(g, params, e) == plain_fundamental_circuit(g, d, k, e)


def test_edges_in_circuits_matches_a_circuit_per_rejected_edge():
    # building no circuit while every edge so far is inside changes no answer
    complete = [complete_graph([f"v{i}" for i in range(n)]) for n in (*range(1, 13), 30)]
    for g in complete + random_pebble_graphs():
        for d, k in ((2, 2), (2, 3), (3, 3)):
            params = SparsityParams(d, k)
            assert edges_in_circuits(g, params) == reference_edges_in_circuits(g, params), (g.edges, d, k)


def test_edges_in_circuits_k30_reaches_few_circuits(monkeypatch):
    # K30 under (2,2): its 58 accepted edges are inside after 26 circuits,
    # and the 351 rejected edges after those gather without one (K8, which
    # is_Mdd_connected runs, reads 4 circuits of 14)
    reaches = []
    reach = sparsity._PebbleGame._reach
    monkeypatch.setattr(sparsity._PebbleGame, "_reach", lambda game, *a: reaches.append(a) or reach(game, *a))
    for n, built, rejected in ((30, 26, 377), (8, 4, 14)):
        kn, params = complete_graph([f"v{i}" for i in range(n)]), SparsityParams(2, 2)
        reaches.clear()
        assert all(edges_in_circuits(kn, params))
        assert len(reaches) == built
        reaches.clear()
        assert all(reference_edges_in_circuits(kn, params))
        assert len(reaches) == rejected


def test_recorded_tight_sets_span_d_times_size_minus_k(monkeypatch):
    # each recorded set T, read off the game's state as it is recorded:
    # no accepted edge leaves T, its free pebbles are k, and it spans
    # exactly d|T| - k accepted edges
    recorded = []
    tight_set = sparsity._PebbleGame._tight_set

    def checked(game, v, w):
        t = tight_set(game, v, w)
        assert {v, w} <= t and all(game.out[u].keys() <= t for u in t)
        assert sum(game.pebbles[u] for u in t) == game.pebbles[v] + game.pebbles[w] == game.k
        assert sum(len(game.out[u]) for u in t) == game.d * len(t) - game.k
        recorded.append(len(t))
        return t

    monkeypatch.setattr(sparsity._PebbleGame, "_tight_set", checked)
    for g in random_pebble_graphs() + [two_k8s_joined()]:
        for d, k in ALL_MATROIDAL:
            max_sparse_subset(g, SparsityParams(d, k))
    assert len(recorded) > 100


def test_pebble_rank_k30_pulls_few_pebbles(monkeypatch):
    # one tight set recorded at the first rejected edge covers K30, so the
    # pulls are those of the accepted edges (487 and 510 when every edge
    # gathers); out-edges are expanded in insertion order, so the counts
    # repeat (test_pull_sequence_does_not_depend_on_the_hash_seed)
    pulls = []
    pull = sparsity._PebbleGame._pull_pebble
    monkeypatch.setattr(sparsity._PebbleGame, "_pull_pebble", lambda game, *a: pulls.append(a) or pull(game, *a))
    k30 = complete_graph([f"v{i}" for i in range(30)])
    for (d, k), most in (((2, 2), 60), ((3, 3), 90)):
        pulls.clear()
        assert pebble_rank(k30, SparsityParams(d, k)) == 30 * d - k
        assert len(pulls) <= most, (d, k, len(pulls))


PULL_SEQUENCE = """
import random
import polyrigid.sparsity as sparsity
from polyrigid import Graph, SparsityParams, complete_graph, edges_in_circuits, pebble_rank

pulls, pull = [], sparsity._PebbleGame._pull_pebble


def logged(game, *args):
    pulls.append((args, pull(game, *args)))
    return pulls[-1][1]


sparsity._PebbleGame._pull_pebble = logged
k30 = complete_graph([f"v{i}" for i in range(30)])
pebble_rank(k30, SparsityParams(2, 2))
pebble_rank(k30, SparsityParams(3, 3))
rng, vertices, pairs = random.Random(16), [f"u{i}" for i in range(60)], {}
while len(pairs) < 200:
    a, b = sorted(rng.sample(range(60), 2))
    pairs[vertices[a], vertices[b]] = None
g = Graph(vertices, list(pairs))
pebble_rank(g, SparsityParams(2, 3))
edges_in_circuits(g, SparsityParams(2, 3))
print(len(pulls), pulls)
"""


def test_pull_sequence_does_not_depend_on_the_hash_seed():
    # string hashes change with PYTHONHASHSEED, so a search that expanded
    # out-edges in set order would pull along other paths under another seed
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", PULL_SEQUENCE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            timeout=120,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert int(runs[0].split()[0]) > 200 and runs[0] == runs[1]
