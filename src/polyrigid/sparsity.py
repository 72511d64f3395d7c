"""Counting sparsity and the (d,k)-sparsity matroid.

A graph is (d,k)-sparse when every induced subgraph on at least d vertices
with n' vertices spans at most d*n' - k edges, and (d,k)-tight when it is
sparse with exactly d|V| - k edges in total.

For 0 <= k <= 2d-1 the sparse edge sets form a matroid and ranks are
computed with the Lee-Streinu pebble game: every vertex starts with d
pebbles, an edge is accepted when k+1 pebbles can be gathered on its
endpoints, and accepted edges are oriented away from the endpoint that
paid a pebble.  Pebbles are pulled back along directed paths, reversing
them.  For k >= 2d the family is not matroidal; the sparsity *property*
is still well defined and is checked by direct counting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graph import Graph, is_2_connected

_COUNTING_VERTEX_LIMIT = 16
_FALLBACK_EDGE_LIMIT = 26


@dataclass(frozen=True)
class SparsityParams:
    d: int
    k: int

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"d must be positive, got {self.d}")
        if not 0 <= self.k <= self.d * (self.d + 1) // 2:
            raise ParameterError(f"k must satisfy 0 <= k <= d(d+1)/2, got (d,k)=({self.d},{self.k})")

    @property
    def matroidal(self):
        """Whether the sparse sets form a matroid (k < 2d)."""
        return self.k <= 2 * self.d - 1


class _PebbleGame:
    """Mutable pebble-game state for one run: a rank, a basis or circuits.

    Every vertex keeps pebbles(u) + outdeg(u) = d, so a vertex set S spans
    d|S| - pebbles(S) - out(S) accepted edges, out(S) those leaving S.
    ``out[u]`` maps the head of each edge oriented away from u to the
    edge's name, in insertion order.  ``tight[u]`` has bit i set when u is
    in the i-th recorded tight set."""

    def __init__(self, g, d, k):
        self.d, self.k = d, k
        self.neighbours = g.neighbours
        self.pebbles = {v: d for v in g.vertices}
        self.out = {v: {} for v in g.vertices}
        self.tight = {}
        self.recorded = 0

    def _pull_pebble(self, start, forbidden):
        """Move one pebble to ``start`` along a reversed directed path.

        Breadth-first search along accepted-edge directions, expanding
        out-edges in insertion order, so runs on one input repeat; the first
        pebbled vertex outside ``forbidden`` wins.  A reversed edge's entry
        moves, name and all, to its new tail.  Returns True on success.
        """
        prev, queue, head, found = {start: None}, [start], 0, None
        while head < len(queue) and found is None:
            v = queue[head]
            head += 1
            for w in self.out[v]:
                if w in prev:
                    continue
                prev[w] = v
                if self.pebbles[w] > 0 and w not in forbidden:
                    found = w
                    break
                queue.append(w)
        if found is None:
            return False
        self.pebbles[found] -= 1
        self.pebbles[start] += 1
        w = found
        while prev[w] is not None:
            v = prev[w]
            self.out[w][v] = self.out[v].pop(w)
            w = v
        return True

    def _gather(self, v, w):
        """Gather k+1 pebbles on v and w and accept edge vw, oriented away
        from an end that pays a pebble; False if they cannot be gathered.

        Each successful pull strictly raises the pebble count on {v, w},
        so the loop is bounded; it fails only when neither end can reach a
        free pebble.
        """
        while self.pebbles[v] + self.pebbles[w] <= self.k:
            if self.pebbles[v] < self.d and self._pull_pebble(v, (v, w)):
                continue
            if self.pebbles[w] < self.d and self._pull_pebble(w, (v, w)):
                continue
            return False
        tail, head = (v, w) if self.pebbles[v] else (w, v)
        self.pebbles[tail] -= 1
        self.out[tail][head] = (v, w)
        return True

    def _reach(self, v, w):
        """The vertices reachable from v or w along accepted-edge directions."""
        reach, stack = {v, w}, [v, w]
        while stack:
            new = self.out[stack.pop()].keys() - reach
            reach |= new
            stack.extend(new)
        return reach

    def _tight_set(self, v, w):
        """After a failed gather on vw: R = ``_reach(v, w)``, where a pull
        found no free pebble but those on v and w, and each pebble-free
        vertex whose out-edges all end in the set so far (so none leaves
        it), by a reverse search over the graph's neighbours."""
        tight = self._reach(v, w)
        stack = list(tight)
        while stack:
            for u in self.neighbours(stack.pop()):
                if u not in tight and not self.pebbles[u] and self.out[u].keys() <= tight:
                    tight.add(u)
                    stack.append(u)
        return tight

    def try_accept(self, v, w):
        """Accept edge vw if it is independent of the accepted edges.

        A failed gather records T = ``_tight_set(v, w)``; a later edge with
        both ends in one recorded T is rejected without a search.  Sound:
        no edge leaves T and its only free pebbles are the at most k on v
        and w, so T spans at least d|T| - k accepted edges, and edges are
        only added; k+1 pebbles in T would leave it at most d|T| - k - 1.
        Not conversely (for k = 0 an unrecorded pebble-free set can make an
        edge dependent), so every other edge gathers.
        """
        tight = self.tight
        if tight and tight.get(v, 0) & tight.get(w, 0):
            return False
        if self._gather(v, w):
            return True
        bit, self.recorded = 1 << self.recorded, self.recorded + 1
        for u in self._tight_set(v, w):
            tight[u] = tight.get(u, 0) | bit
        return False

    def circuit(self, v, w):
        """Try vw: None if it is accepted, else the unique circuit of the
        accepted edges + vw: vw and the accepted edges inside R =
        ``_reach(v, w)``.  It always gathers and records nothing.

        No edge leaves R, and after a failed gather its only free pebbles
        are the at most k on v and w, so R spans d|R| - k accepted edges (no
        more: they are sparse).  A vertex set S containing v and w that
        spans d|S| - k accepted edges holds k pebbles on v and w, so no edge
        leaves it and S contains R.  The circuit C of accepted + vw lies in
        the d|R| - k + 1 dependent edges on R, and its vertex set spans
        |C| - 1 = d|S| - k accepted edges, so S = R and C takes every
        accepted edge inside R.  Since R is closed under out-edges, those
        are exactly the out-edges of its vertices.  A rejected edge stays
        dependent, so it may be queried again once the game has ended.
        """
        if self._gather(v, w):
            return None
        return [(v, w), *(e for u in self._reach(v, w) for e in self.out[u].values())]


def _is_sparse_by_counting(g: Graph, params: SparsityParams):
    """Direct check of the counting condition over all vertex subsets."""
    n = len(g.vertices)
    if n > _COUNTING_VERTEX_LIMIT:
        raise ParameterError(f"counting sparsity check limited to {_COUNTING_VERTEX_LIMIT} vertices")
    idx = g.index
    edge_masks = [(1 << idx(v)) | (1 << idx(w)) for v, w in g.edges]
    d, k = params.d, params.k
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < d:
            continue
        count = sum(1 for em in edge_masks if em & mask == em)
        if count > d * size - k:
            return False
    return True


def _max_sparse_subset_size(g: Graph, params: SparsityParams):
    """Largest sparse edge subset in the non-matroidal range, by search.

    Depth-first include/exclude over edges; supersets of non-sparse sets
    are never explored (sparsity is downward closed).  Adding vw keeps a
    sparse set sparse iff every subset X of at least d vertices holding v
    and w spans fewer than d|X| - k of it: the walk keeps that slack.
    """
    if _is_sparse_by_counting(g, params):
        return len(g.edges)
    if len(g.edges) > _FALLBACK_EDGE_LIMIT:
        raise ParameterError(f"exhaustive sparse-subset search limited to {_FALLBACK_EDGE_LIMIT} edges")
    n, idx, d, k = len(g.vertices), g.index, params.d, params.k
    slack = [d * mask.bit_count() - k for mask in range(1 << n)]
    ends = [(1 << idx(v)) | (1 << idx(w)) for v, w in g.edges]
    holding = [[mask for mask in range(1 << n) if mask & e == e and mask.bit_count() >= d] for e in ends]
    m, best = len(g.edges), 0

    def extend(i, chosen):
        nonlocal best
        if chosen + (m - i) <= best:
            return
        if i == m:
            best = chosen
            return
        subsets = holding[i]
        if min(map(slack.__getitem__, subsets)) > 0:  # n >= d: the whole set is one
            for mask in subsets:
                slack[mask] -= 1
            extend(i + 1, chosen + 1)
            for mask in subsets:
                slack[mask] += 1
        extend(i + 1, chosen)

    extend(0, 0)
    return best


def pebble_rank(g: Graph, params: SparsityParams):
    """Size of a maximum (d,k)-sparse subset of the edge set.

    In the matroid range this is the matroid rank, from the pebble game.
    """
    if params.matroidal:
        return len(max_sparse_subset(g, params))
    return _max_sparse_subset_size(g, params)


def max_sparse_subset(g: Graph, params: SparsityParams):
    """A maximum sparse edge subset (a basis of E in the matroid range)."""
    if not params.matroidal:
        raise ParameterError("bases are only well defined for k <= 2d-1")
    game = _PebbleGame(g, params.d, params.k)
    return tuple(e for e in g.edges if game.try_accept(*e))


def is_sparse(g: Graph, params: SparsityParams):
    if params.matroidal:
        return pebble_rank(g, params) == len(g.edges)
    return _is_sparse_by_counting(g, params)


def is_tight(g: Graph, params: SparsityParams):
    target = params.d * len(g.vertices) - params.k
    return len(g.edges) == target and is_sparse(g, params)


def edges_in_circuits(g: Graph, params: SparsityParams):
    """Per edge, in edge order, whether it lies in some circuit of E: from
    one pebble game, exactly the rejected edges and the edges inside their
    circuits (basis exchange).  Once every edge so far is inside, a rejected
    edge's circuit adds only itself, so the game gathers on it and builds none."""
    if not params.matroidal:
        raise ParameterError("circuits are only well defined for k <= 2d-1")
    game, inside = _PebbleGame(g, params.d, params.k), set()
    for i, vw in enumerate(g.edges):  # inside holds only edges before vw
        circuit = game.circuit(*vw) if len(inside) < i else None if game._gather(*vw) else [vw]
        inside.update(circuit or ())
    return [e in inside for e in g.edges]


def is_dd_redundant(g: Graph, d: int):
    """Every edge lies in a circuit of the (d,d)-sparsity matroid."""
    return all(edges_in_circuits(g, SparsityParams(d, d)))


def is_Mdd_connected(g: Graph, d: int):
    """Connectivity in the (d,d)-sparsity matroid: every edge pair shares a
    circuit; equivalent to 2-connected plus (d,d)-redundant, or one vertex."""
    return len(g.vertices) == 1 or is_2_connected(g) and is_dd_redundant(g, d)


def fundamental_circuit(g: Graph, params: SparsityParams, edge):
    """One matroid circuit through ``edge``, or None if it is a coloop.

    Builds a basis B of E - edge with the pebble game; if the edge extends
    B it lies in no circuit, otherwise the game returns the circuit of
    B + edge.
    """
    if not params.matroidal:
        raise ParameterError("circuits are only well defined for k <= 2d-1")
    v, w = sorted(edge, key=g.index)
    if not g.has_edge(v, w):
        raise ParameterError(f"edge {edge!r} not in graph")
    game = _PebbleGame(g, params.d, params.k)
    for e in g.edges:
        if e != (v, w):
            game.try_accept(*e)
    circuit = game.circuit(v, w)
    return None if circuit is None else tuple(sorted(circuit, key=g.edges.index))
