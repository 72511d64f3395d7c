import pytest

from polyrigid import (
    Graph,
    ParameterError,
    complete_graph,
    connected_components,
    cycle_graph,
    is_2_connected,
    is_2_edge_connected,
    path_graph,
)

from _oracles import all_graphs, without_edge, without_vertex


def test_components_edgeless():
    g = Graph(["a", "b", "c"])
    assert connected_components(g) == [("a",), ("b",), ("c",)]


def test_components_path():
    g = path_graph(["a", "b", "c"])
    assert connected_components(g) == [("a", "b", "c")]


def test_components_two_disjoint_edges():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert connected_components(g) == [("a", "b"), ("c", "d")]


def test_components_form_partition():
    for edges in all_graphs(list("abcde")):
        g = Graph(list("abcde"), edges)
        parts = connected_components(g)
        seen = [v for part in parts for v in part]
        assert sorted(seen) == sorted(g.vertices)
        assert len(seen) == len(set(seen))


def test_2_connected_cycle_and_path():
    assert is_2_connected(cycle_graph(["a", "b", "c", "d"]))
    assert not is_2_connected(path_graph(["a", "b", "c"]))


def test_2_connected_two_triangles_sharing_vertex():
    g = Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")],
    )
    assert not is_2_connected(g)


def test_2_connected_small_conventions():
    assert not is_2_connected(Graph(["a"]))
    assert not is_2_connected(Graph(["a", "b"], [("a", "b")]))


def test_2_connected_implies_one_component():
    for edges in all_graphs(list("abcde")):
        g = Graph(list("abcde"), edges)
        if is_2_connected(g):
            assert len(connected_components(g)) == 1


def test_2_connected_matches_vertex_deletion():
    # on every graph with <= 5 vertices, 2-connectedness is exactly
    # "connected and still connected after deleting any one vertex"
    vertices = list("abcde")
    for edges in all_graphs(vertices):
        g = Graph(vertices, edges)
        expected = len(connected_components(g)) == 1 and all(
            len(connected_components(without_vertex(g, v))) == 1 for v in vertices
        )
        assert is_2_connected(g) == expected, edges


def test_2_edge_connected_examples():
    assert is_2_edge_connected(cycle_graph(["a", "b", "c", "d", "e"]))
    assert not is_2_edge_connected(path_graph(["a", "b", "c"]))
    assert not is_2_edge_connected(Graph(["a"]))


def test_2_edge_connected_matches_edge_deletion():
    vertices = list("abcde")
    for edges in all_graphs(vertices):
        g = Graph(vertices, edges)
        expected = len(connected_components(g)) == 1 and len(g.vertices) >= 2 and all(
            len(connected_components(without_edge(g, v, w))) == 1 for v, w in g.edges
        )
        assert is_2_edge_connected(g) == expected, edges


def test_graph_validation():
    with pytest.raises(ParameterError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ParameterError):
        Graph(["a", "b"], [("a", "c")])
    with pytest.raises(ParameterError):
        Graph(["a", "a"])


def test_edges_canonicalised_and_deduped():
    g = Graph(["b", "a"], [("a", "b"), ("b", "a")])
    # canonical endpoint order follows the vertex list, not lexicographic
    assert g.edges == (("b", "a"),)


def test_complete_graph_edge_count():
    assert len(complete_graph(list("abcdef")).edges) == 15
