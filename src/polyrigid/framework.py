"""Bar-joint frameworks in a polytope norm and their colouring matrices.

A framework couples a graph with an exact rational position for every
vertex.  Each edge of a well-positioned framework selects exactly one face
normal of the norm (the unique face active on the endpoint difference);
that assignment is the framework's directed colouring, and the matrix it
induces is the Jacobian of the edge-length map.  Rigidity then becomes a
rank question over the rationals.  ``colouring_row`` builds every row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul

from .errors import BudgetExceededError, NotWellPositionedError, ParameterError
from .graph import Graph, connected_components
from .linalg import IncrementalSystem, mat_rank
from .norm import PolytopeNorm, as_vector, linf_axis


class Framework:
    """Graph plus exact rational realisation under a polytope norm.

    Immutable after construction, apart from the edge table that
    ``edge_table`` fills on first use; ``with_positions`` makes a new one.
    """

    __slots__ = ("graph", "norm", "positions", "_table")

    def __init__(self, graph: Graph, norm: PolytopeNorm, positions):
        pos = {}
        for v in graph.vertices:
            if v not in positions:
                raise ParameterError(f"missing position for vertex {v!r}")
            pos[v] = as_vector(positions[v], norm.dim)
        self.graph = graph
        self.norm = norm
        self.positions = pos
        self._table = None

    @property
    def dim(self):
        return self.norm.dim

    def position(self, v):
        return self.positions[v]

    def edge_vector(self, edge):
        """p(v) - p(w) for the edge vw with v first in canonical order."""
        v, w = edge
        pv, pw = self.positions[v], self.positions[w]
        return tuple(a - b for a, b in zip(pv, pw))

    def with_positions(self, positions):
        return Framework(self.graph, self.norm, positions)

    def __repr__(self):
        return f"Framework({self.graph!r}, dim={self.dim})"


def zero_vector(dim):
    return tuple([Fraction(0)] * dim)


def edge_table(fw: Framework):
    """One integer pass over the edges: (active, lengths), where active[e]
    holds the indices of the faces attaining the norm of edge e's vector
    (none for a zero vector).  Positions are taken over their common
    denominator P and faces over the norm's D, so each f.(p(v) - p(w)) is
    an integer over D*P, and the maximum and its ties are exact.  Computed
    on the first call and kept on the framework."""
    if fw._table is not None:
        return fw._table
    scale = lcm(*(x.denominator for p in fw.positions.values() for x in p))
    pos = {v: [x.numerator * (scale // x.denominator) for x in p] for v, p in fw.positions.items()}
    active, tops = [], []
    for v, w in fw.graph.edges:
        vec = [a - b for a, b in zip(pos[v], pos[w])]
        vals = [sum(map(mul, f, vec)) for f in fw.norm.int_faces]
        tops.append(max(vals))
        active.append(tuple(i for i, x in enumerate(vals) if x == tops[-1]) if any(vec) else ())
    den = scale * fw.norm.denominator
    fw._table = tuple(active), tuple(Fraction(x, den) for x in tops)
    return fw._table


def unique_colouring(active):
    """The induced colouring as face indices, or None unless every edge has
    exactly one active face (the framework is well-positioned)."""
    return tuple(a[0] for a in active) if all(len(a) == 1 for a in active) else None


def edge_lengths(fw: Framework):
    """Norm of every edge vector, in canonical edge order."""
    return edge_table(fw)[1]


def induced_colourings(fw: Framework):
    """Per-edge candidate faces, kept factored.

    Every combination (one face per edge) is a colouring consistent with
    the realisation; the full set can be exponentially large, so it is
    never expanded here.  A zero-length edge contributes the zero vector
    as its only candidate.
    """
    zero = zero_vector(fw.dim)
    faces = fw.norm.faces
    return [tuple(faces[i] for i in a) if a else (zero,) for a in edge_table(fw)[0]]


def is_well_positioned(fw: Framework):
    """Every edge vector is nonzero and has a unique active face."""
    return unique_colouring(edge_table(fw)[0]) is not None


def _induced(fw: Framework, faces):
    """faces[i] for each edge's face index i in the induced colouring."""
    phi = unique_colouring(edge_table(fw)[0])
    if phi is None:
        raise NotWellPositionedError("framework is not well-positioned")
    return [faces[i] for i in phi]


def induced_colouring(fw: Framework):
    """The unique directed colouring of a well-positioned framework."""
    return tuple(_induced(fw, fw.norm.faces))


def check_colouring(graph: Graph, phi, dim):
    """Raise ParameterError unless phi gives every edge a face of length dim."""
    if len(phi) != len(graph.edges):
        raise ParameterError("colouring does not match the edge list")
    if any(len(face) != dim for face in phi):
        raise ParameterError("face vector has wrong dimension")


def colouring_row(graph: Graph, dim, edge, face):
    """The one colouring-row builder: edge vw's row as {column: nonzero
    entry}, face on v's block and -face on w's, d columns per vertex in
    vertex order.  With unit tags, a colouring's dependent rows leave tag
    vectors spanning the left kernel (``_elimination``)."""
    ends = (dim * graph.index(edge[0]), 1), (dim * graph.index(edge[1]), -1)
    return {b + k: sign * x for b, sign in ends for k, x in enumerate(face) if x}


def colouring_matrix(graph: Graph, phi, dim):
    """The |E| x d|V| matrix of a directed colouring: the dense view of
    one colouring_row per edge."""
    check_colouring(graph, phi, dim)
    cols = range(dim * len(graph.vertices))
    return [[row.get(c, 0) for c in cols] for row in (colouring_row(graph, dim, e, f) for e, f in zip(graph.edges, phi))]


# -- the pinned system ---------------------------------------------------
#
# Equivalent realisations are sought with vertex 0 held at its position.
# Colouring rows are laid out with vertex 0 moved last: vertex i > 0 owns
# the pinned columns d(i-1) ... d(i-1)+d-1, and vertex 0's block starts at
# column d(|V| - 1), the right-hand side's, to which it moves.


def pinned_rows(fw: Framework):
    """The one builder of pinned rows: rows[e][i] is the sparse augmented row
    (pinned coefficients, then the right-hand side at column d(|V| - 1)) of
    f_i.(q(v) - q(w)) = length(e) for the e-th edge vw and face index i: its
    ``colouring_row`` with vertex 0's block moved to the right-hand side, at
    most 2d + 1 entries.  All are multiplied by one S = D*M > 0 (the norm's
    denominator, and the common denominator of vertex 0's position and the
    lengths): at a pinned point x, coefficients . x <= right-hand side says
    the face does not exceed the length.  One S, no gcd per row, so a leaf's
    LP read off the rows pivots as the Fraction LP does (``_settle_leaf``).
    Face -f's row is f's negated, bar the length in the right-hand side."""
    d, graph, lengths = fw.dim, fw.graph, edge_lengths(fw)
    v0, *others = graph.vertices
    scale = lcm(*(x.denominator for x in fw.position(v0)), *(x.denominator for x in lengths))
    p0 = [int(x * scale) for x in fw.position(v0)]
    faces = [[scale * x for x in f] for f in fw.norm.int_faces]
    pinned, last = Graph(others + [v0]), d * len(others)
    rows = []
    for edge, length in zip(graph.edges, lengths):
        rhs0 = int(length * scale) * fw.norm.denominator
        per_face = [None] * len(faces)
        for f, g in fw.norm.pairs:
            row = colouring_row(pinned, d, edge, faces[f])
            pin = sum(row.pop(last + k, 0) * x for k, x in enumerate(p0)) // scale if v0 in edge else 0
            per_face[f], per_face[g] = row, {c: -x for c, x in row.items()}
            for row, rhs in ((row, rhs0 - pin), (per_face[g], rhs0 + pin)):
                if rhs:
                    row[last] = rhs
        rows.append(per_face)
    return rows


def pinned_system(fw: Framework, rows, phi=()):
    """The pinned system (right-hand side at column d(|V| - 1)) with the
    row rows[e][phi[e]] of ``pinned_rows`` pushed for every edge e of the
    colouring phi, given as face indices; None when a push is inconsistent."""
    system = IncrementalSystem(fw.dim * (len(fw.graph.vertices) - 1) + 1)
    for per_face, i in zip(rows, phi):
        if not system.push(per_face[i])[0]:
            return None
    return system


def unpin(fw: Framework, vec):
    """The realisation with vertex 0 at its position, i > 0 at vec[d(i-1) : di]."""
    d = fw.dim
    v0, *others = fw.graph.vertices
    q = {v0: fw.position(v0)}
    for i, u in enumerate(others):
        q[u] = tuple(vec[d * i:d * i + d])
    return q


rank_exact = mat_rank  # rank over the rationals


def rigidity_matrix(fw: Framework):
    """Colouring matrix of the induced colouring (the Jacobian of the
    length map at a well-positioned realisation)."""
    return colouring_matrix(fw.graph, induced_colouring(fw), fw.dim)


def rigid_rank(fw: Framework):
    """d|V| - d: full rank of a colouring matrix once the translation
    kernel is accounted for."""
    return fw.dim * len(fw.graph.vertices) - fw.dim


def _elimination(fw: Framework, faces):
    """The one sparse integer elimination of a colouring matrix: the row of
    integer face faces[e] on edge e (() gives an empty row), in edge order.
    Row e has a unit tag at column d|V| + e, past ``keylen``.  Yields (rank
    so far, tags) per row: None when the row adds a pivot, else the tag
    vector z = {e': z_e'} left when the rest reduces to zero, a left-kernel
    vector with z_e > 0 and nothing after e; these |E| - rank vectors span
    the left kernel.  The rank never exceeds d|V| - d (translations are in
    the kernel), so a rank-only caller may stop there (``_rank``)."""
    graph, d = fw.graph, fw.dim
    width = d * len(graph.vertices)
    system = IncrementalSystem(width + len(graph.edges), keylen=width)
    for e, (edge, face) in enumerate(zip(graph.edges, faces)):
        lead, row = system.reduce({**colouring_row(graph, d, edge, face), width + e: 1})
        if lead is not None:
            system.pivots[lead] = row
        yield len(system.pivots), None if lead is not None else {c - width: x for c, x in row.items()}


def _rank(fw: Framework, faces):
    rank, full = 0, rigid_rank(fw)
    for rank, _ in _elimination(fw, faces):
        if rank == full:
            break
    return rank


def induced_rank(fw: Framework):
    """Rank of the induced colouring matrix (well-positioned only)."""
    return _rank(fw, _induced(fw, fw.norm.int_faces))


def is_infinitesimally_rigid(fw: Framework):
    """Rank of the induced colouring matrix reaches d|V| - d (well-positioned only)."""
    return induced_rank(fw) == rigid_rank(fw)


def rank_and_redundancy(fw: Framework):
    """(rank, redundantly rigid) from one ``_elimination`` of the induced
    colouring's integer faces (same rank and left kernel as its faces).

    Redundantly rigid: still infinitesimally rigid after deleting any
    single edge.  The matrix must have rank d|V| - d, and deleting edge e's
    row keeps it exactly when some left-kernel vector is nonzero on e; the
    dependent rows' tag vectors span the left kernel, so that holds exactly
    when some tag vector names e.  Well-positioned only.
    """
    rank, named = 0, set()
    for rank, tags in _elimination(fw, _induced(fw, fw.norm.int_faces)):
        named.update(tags or ())
    return rank, rank == rigid_rank(fw) and len(named) == len(fw.graph.edges)


def is_redundantly_rigid(fw: Framework):
    """``rank_and_redundancy``'s second half.  With |E| <= d|V| - d no edge
    can go (a single vertex has none to delete), and nothing is eliminated."""
    m, full = len(_induced(fw, fw.norm.faces)), rigid_rank(fw)
    return m == full == 0 if m <= full else rank_and_redundancy(fw)[1]


def monochromatic_subgraphs(graph: Graph, phi, dim):
    """Split the edges by the coordinate axis of their face vector.

    Only meaningful when every face is a signed standard basis vector
    (the hypercube-ball norm); returns one spanning subgraph per
    coordinate of R^dim, together partitioning the edge set.
    """
    buckets = [[] for _ in range(dim)]
    for e, face in zip(graph.edges, phi):
        axis = linf_axis(face)
        if axis is None:
            raise ParameterError(
                f"face {face} is not a signed standard basis vector (zero entries "
                "and general polytope faces have no colour class)"
            )
        buckets[axis[0]].append(e)
    return [graph.subgraph_on_edges(b) for b in buckets]


def is_rigid_linf_by_colour(fw: Framework):
    """Connectivity test for rigidity under the hypercube-ball norm.

    A well-positioned framework in that norm is infinitesimally rigid
    exactly when every colour class spans a connected subgraph on the
    full vertex set.
    """
    if not fw.norm.is_linf:
        raise ParameterError("colour-class rigidity test needs the linf preset norm")
    phi = induced_colouring(fw)
    return all(
        len(connected_components(sub)) == 1
        for sub in monochromatic_subgraphs(fw.graph, phi, fw.dim)
    )


def is_rigid_all_induced_colourings(fw: Framework, budget=100_000):
    """Advisory sufficient test for rigidity without well-positionedness.

    True when every colouring compatible with the realisation (the full
    product of per-edge candidates, zero faces included for zero-length
    edges) has matrix rank d|V| - d.  A True result proves rigidity; a
    False result proves nothing, since the criterion is sufficient only.
    Budget-guarded: the candidate product can be exponential.
    """
    faces = fw.norm.int_faces
    candidates = [[faces[i] for i in active] or [()] for active in edge_table(fw)[0]]
    if prod(map(len, candidates)) > budget:
        raise BudgetExceededError(f"candidate colouring product exceeds budget {budget}")
    return all(_rank(fw, phi) == rigid_rank(fw) for phi in product(*candidates))
