"""Finite simple graphs with a fixed vertex ordering.

The vertex order is the construction order and is deliberately *not*
re-sorted: row indices and sign conventions of every matrix downstream
depend on it, so runs must be reproducible from the input order alone.
Edges are stored with the lower-ordered endpoint first, in the order they
were given (duplicates collapsed).
"""

from __future__ import annotations

from .errors import ParameterError


class Graph:
    """Immutable simple graph over opaque, hashable vertex identifiers."""

    __slots__ = ("vertices", "edges", "_index", "_edge_set", "_adj")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ParameterError("duplicate vertex identifiers")
        index = {v: i for i, v in enumerate(vertices)}
        canon = []
        seen = set()
        for v, w in edges:
            if v not in index or w not in index:
                raise ParameterError(f"edge endpoint not in vertex list: {(v, w)!r}")
            if v == w:
                raise ParameterError(f"self-loop at {v!r}")
            if index[v] > index[w]:
                v, w = w, v
            if (v, w) in seen:
                continue
            seen.add((v, w))
            canon.append((v, w))
        self.vertices = vertices
        self.edges = tuple(canon)
        self._index = index
        self._edge_set = seen
        adj = {v: [] for v in vertices}
        for v, w in canon:
            adj[v].append(w)
            adj[w].append(v)
        self._adj = {v: tuple(ns) for v, ns in adj.items()}

    def index(self, v):
        return self._index[v]

    def neighbours(self, v):
        return self._adj[v]

    def _canonical(self, v, w):
        return (v, w) if self._index[v] < self._index[w] else (w, v)

    def has_edge(self, v, w):
        return self._canonical(v, w) in self._edge_set

    def edge_index(self, v, w):
        return self.edges.index(self._canonical(v, w))

    def subgraph_on_edges(self, edges):
        """Spanning subgraph with the given edge subset (all vertices kept)."""
        return Graph(self.vertices, edges)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def complete_graph(vertices):
    vertices = tuple(vertices)
    edges = [
        (vertices[i], vertices[j])
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
    ]
    return Graph(vertices, edges)


def path_graph(vertices):
    vertices = tuple(vertices)
    return Graph(vertices, list(zip(vertices, vertices[1:])))


def cycle_graph(vertices):
    vertices = tuple(vertices)
    edges = list(zip(vertices, vertices[1:]))
    if len(vertices) >= 3:
        edges.append((vertices[-1], vertices[0]))
    return Graph(vertices, edges)


def connected_components(g: Graph):
    """Partition of the vertices into maximal connected sets.

    Isolated vertices come back as singletons.  Components are listed in
    order of their lowest-ordered vertex, each sorted by vertex order.
    """
    seen = set()
    parts = []
    for root in g.vertices:
        if root in seen:
            continue
        comp = []
        stack = [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbours(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort(key=g.index)
        parts.append(tuple(comp))
    return parts


def is_connected(g: Graph):
    return len(connected_components(g)) == 1 if g.vertices else False


def _lowpoints(g: Graph):
    """Iterative Hopcroft-Tarjan lowpoint DFS from the first vertex.

    Yields (u, disc[u], low[w]) each time the subtree below a tree edge uw
    (w the child) is finished; the caller may stop at any point.
    """
    root = g.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    parent = {root: None}
    stack = [(root, iter(g.neighbours(root)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in disc:
                parent[w] = v
                disc[w] = low[w] = len(disc)
                stack.append((w, iter(g.neighbours(w))))
                break
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                yield u, disc[u], low[v]


def is_2_connected(g: Graph):
    """True iff the graph has >= 3 vertices, is connected (the DFS makes
    |V| - 1 tree edges), and has no articulation vertex: no non-root u has
    a child w with low[w] >= disc[u], and the root has one child."""
    if len(g.vertices) < 3:
        return False
    root, root_children, tree_edges = g.vertices[0], 0, 0
    for tree_edges, (u, disc_u, low_w) in enumerate(_lowpoints(g), 1):
        if u == root:
            root_children += 1
        elif low_w >= disc_u:
            return False
    return root_children == 1 and tree_edges == len(g.vertices) - 1


def is_2_edge_connected(g: Graph):
    """True iff connected on >= 2 vertices (the DFS makes |V| - 1 tree
    edges) with no bridge: a tree edge uw (w the child) is a bridge exactly
    when low[w] > disc[u]."""
    if len(g.vertices) < 2:
        return False
    bridgeless = [low_w <= disc_u for _, disc_u, low_w in _lowpoints(g)]
    return len(bridgeless) == len(g.vertices) - 1 and all(bridgeless)
