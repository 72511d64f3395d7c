"""Independent oracles used by the tests.

Everything here is deliberately written from the definitions, separately
from the library's algorithms: sparsity by explicit subset counting, the
maximum sparse subset by exhaustive branch-and-bound over edge subsets,
matrix rank and linear systems by plain Fraction elimination, edge lengths
and active faces by the Fraction norm, pinned rows as dense Fraction rows
scaled to coprime integers, the global-rigidity search's leaf
settlement along the plain Fraction route (unpin, per-edge norm, then the
exact LP; only the simplex is the library's, so that witnesses can be
compared), the isometry group by a Fraction matrix per candidate,
congruence by the Fraction loop over the group matrices, the
whole decision by enumerating every colouring in input order, the
lex-leader of each colouring orbit by trying every group element, and the
greedy search order by its definition.  Slow and simple on purpose.
The one algorithm kept here is the plain (d,k) pebble game, in which every
edge gathers pebbles: it is the reference for the library's game, which
rejects some edges from recorded tight sets without a search; and
``edges_in_circuits`` as it was, building the circuit of every rejected
edge.  The
numeric falsifier is kept too, in its per-vertex-dict form, as the
reference for the descent over coordinate columns: both must produce the
same floats, and so is the colouring walk with symmetry broken on the
first edge only, the reference for the stabiliser chain.  The helpers at
the end (one wrapper that records or alters the decision's walk, a
matrix-vector product, edge and vertex deletion, moved frameworks, the
isometry action on colourings and column-space containment) are reached
from the tests alone.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul, sub


def sparse_by_counting(n_vertices, edge_masks, d, k):
    """(d,k)-sparsity straight from the definition: every vertex subset of
    size >= d spans at most d*size - k edges.  Vertices are 0..n-1 and
    edges come as bitmasks over them."""
    for mask in range(1, 1 << n_vertices):
        size = bin(mask).count("1")
        if size < d:
            continue
        spanned = sum(1 for em in edge_masks if em & mask == em)
        if spanned > d * size - k:
            return False
    return True


def edge_masks_of(graph):
    idx = {v: i for i, v in enumerate(graph.vertices)}
    return [(1 << idx[v]) | (1 << idx[w]) for v, w in graph.edges]


def brute_force_max_sparse(graph, d, k):
    """Size of a maximum (d,k)-sparse edge subset by exhaustive search.

    Include/exclude recursion over the edge list; including an edge is
    only explored while the chosen set stays sparse (sparsity is downward
    closed, so this prunes no maximal candidate), and branches that cannot
    beat the best known size are cut.
    """
    n = len(graph.vertices)
    masks = edge_masks_of(graph)
    m = len(masks)
    best = 0

    # per-subset spanned-edge counters, updated incrementally
    counts = [0] * (1 << n)
    subsets_of = [
        [mask for mask in range(1 << n) if mask & em == em] for em in masks
    ]

    def violates(ei):
        em = masks[ei]
        for mask in subsets_of[ei]:
            size = bin(mask).count("1")
            if size >= d and counts[mask] + 1 > d * size - k:
                return True
        return False

    def rec(i, chosen):
        nonlocal best
        if chosen + (m - i) <= best:
            return
        if i == m:
            best = max(best, chosen)
            return
        if not violates(i):
            for mask in subsets_of[i]:
                counts[mask] += 1
            rec(i + 1, chosen + 1)
            for mask in subsets_of[i]:
                counts[mask] -= 1
        rec(i + 1, chosen)

    rec(0, 0)
    return best


def sparse_row(row):
    """A dense row in the library's sparse form: column -> nonzero entry."""
    return {c: x for c, x in enumerate(row) if x}


def fraction_rank(rows):
    """Rank by textbook Gauss elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def all_graphs(vertices):
    """Every labeled simple graph on the given vertices."""
    from itertools import combinations

    pairs = list(combinations(vertices, 2))
    for bits in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


def fraction_solve(rows, rhs):
    """Solve A x = b by Gauss-Jordan elimination over Fraction.

    Returns (particular, kernel, free) or None when inconsistent: the
    particular solution has every free variable at zero, kernel vector j
    has free column free[j] at one and the other free variables at zero.
    """
    ncols = len(rows[0]) if rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    leads = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        leads.append(col)
        r += 1
    if any(row[-1] != 0 for row in m[r:]):
        return None
    free = [c for c in range(ncols) if c not in leads]
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(leads):
        particular[col] = m[i][-1]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, col in enumerate(leads):
            vec[col] = -m[i][fc]
        kernel.append(vec)
    return particular, kernel, free


def reference_edge_table(fw):
    """Per edge, (length, active faces) by the norm's Fraction methods:
    ``norm.value`` of the edge vector and ``norm.active_faces``, with no
    active face for a zero vector."""
    out = []
    for e in fw.graph.edges:
        vec = fw.edge_vector(e)
        zero = all(x == 0 for x in vec)
        out.append((fw.norm.value(vec), () if zero else fw.norm.active_faces(vec)))
    return out


def fraction_pinned_row(fw, edge, face, length):
    """The equation  face.(q(v) - q(w)) = length  for edge vw with vertex 0
    held at its position, as (Fraction coefficients on the pinned columns,
    right-hand side); vertex i > 0 owns columns d(i-1) .. d(i-1)+d-1."""
    d = fw.dim
    v0, *others = fw.graph.vertices
    p0 = fw.position(v0)
    col = {u: d * i for i, u in enumerate(others)}
    row = [Fraction(0)] * (d * len(others))
    b = Fraction(length)
    for u, sign in ((edge[0], 1), (edge[1], -1)):
        for k in range(d):
            if u == v0:
                b -= sign * Fraction(face[k]) * p0[k]
            else:
                row[col[u] + k] += sign * Fraction(face[k])
    return row, b


def reference_pinned_row(fw, edge, face, length):
    """The augmented pinned row [coefficients, rhs], scaled by the least
    common denominator and divided by the gcd: coprime integers, sign kept."""
    row, b = fraction_pinned_row(fw, edge, face, length)
    row = row + [b]
    scale = lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def reference_leaf_settlement(fw, lengths, phi):
    """Settle one consistent leaf colouring along the plain Fraction route.

    Vertex 0 is pinned at its position.  The pinned system of phi is
    solved by ``fraction_solve``; the particular solution is a witness
    when every edge's norm equals its length; otherwise, with a nonempty
    kernel, the face inequalities over the kernel coordinates go to the
    exact simplex (rows deduplicated by coefficient vector, keeping the
    least bound, in edge-then-face order; rows without coefficients are
    checked directly).  Returns a realisation or None.
    """
    from polyrigid.simplex import feasible_point

    d, norm = fw.dim, fw.norm
    v0, *others = fw.graph.vertices
    p0 = fw.position(v0)
    col = {u: d * i for i, u in enumerate(others)}
    rows, rhs = [], []
    for edge, face, length in zip(fw.graph.edges, phi, lengths):
        row, b = fraction_pinned_row(fw, edge, face, length)
        rows.append(row)
        rhs.append(b)
    particular, kernel, _ = fraction_solve(rows, rhs)

    def realisation(x, origin):
        q = {v0: origin}
        for u in others:
            q[u] = tuple(x[col[u]:col[u] + d])
        return q

    def diff(q, v, w):
        return [a - b for a, b in zip(q[v], q[w])]

    q0 = realisation(particular, p0)
    if all(norm.value(diff(q0, v, w)) == length for (v, w), length in zip(fw.graph.edges, lengths)):
        return q0
    if not kernel:
        return None
    zero = tuple(Fraction(0) for _ in range(d))
    moves = [realisation(k, zero) for k in kernel]
    ineq = {}
    for (v, w), length in zip(fw.graph.edges, lengths):
        base = diff(q0, v, w)
        steps = [diff(m, v, w) for m in moves]
        for face in norm.faces:
            bound = length - sum(f * x for f, x in zip(face, base))
            key = tuple(sum(f * x for f, x in zip(face, step)) for step in steps)
            if all(c == 0 for c in key):
                if bound < 0:
                    return None
            elif key not in ineq or bound < ineq[key]:
                ineq[key] = bound
    t = feasible_point([list(k) for k in ineq], list(ineq.values()))
    if t is None:
        return None
    point = [x + sum(tj * k[i] for tj, k in zip(t, kernel)) for i, x in enumerate(particular)]
    return realisation(point, p0)


def reference_isometry_group(norm):
    """The isometry group by the plain Fraction route: (matrices, perms).

    The base is the first d linearly independent faces (by
    ``fraction_rank``) and its inverse comes column by column from
    ``fraction_solve``.  For every d-tuple of target faces, in product
    order, the Fraction matrix T = B^-1 [targets] sending the base faces
    to the targets under T^T is kept when T^T maps the face set onto
    itself; perm[i] is the index of T^T applied to face i.
    """
    from itertools import product

    d, faces = norm.dim, norm.faces
    base = []
    for f in faces:
        if len(base) < d and fraction_rank(base + [f]) > len(base):
            base.append(f)
    cols = [fraction_solve(base, [int(i == k) for i in range(d)])[0] for k in range(d)]
    binv = [[col[j] for col in cols] for j in range(d)]
    matrices, perms = [], []
    for targets in product(range(len(faces)), repeat=d):
        T = tuple(
            tuple(sum(binv[j][k] * faces[t][i] for k, t in enumerate(targets)) for i in range(d))
            for j in range(d)
        )
        images = [tuple(sum(T[j][i] * f[j] for j in range(d)) for i in range(d)) for f in faces]
        perm = tuple(norm.face_index.get(x) for x in images)
        if None not in perm and len(set(perm)) == len(faces):
            matrices.append(T)
            perms.append(perm)
    return matrices, perms


def reference_congruence_check(fw, q):
    """Congruence by the plain Fraction loop: every isometry's Fraction
    matrix, with the translation pinned by the first vertex, applied vertex
    by vertex by its own product."""
    v0 = fw.graph.vertices[0]
    p = fw.positions
    q = {v: tuple(Fraction(x) for x in q[v]) for v in fw.graph.vertices}
    for T in fw.norm.isometry_group():
        def move(x, M=T.matrix):
            return tuple(sum(a * b for a, b in zip(row, x)) for row in M)

        t = tuple(a - b for a, b in zip(q[v0], move(p[v0])))
        if all(q[v] == tuple(a + b for a, b in zip(move(p[v]), t)) for v in fw.graph.vertices):
            return True
    return False


def reference_decide(fw):
    """Global rigidity by the plain enumeration of every colouring.

    NotWellPositioned and NotRigid come from ``reference_edge_table`` and
    the ``fraction_rank`` of the pinned induced rows.  Otherwise edges are
    taken in input order and faces in face order, and a prefix whose
    pinned system (the coprime rows of ``reference_pinned_row``, by
    fraction-free elimination) is inconsistent is cut.  Every consistent
    full colouring (a leaf) is settled by ``reference_leaf_settlement``,
    and its point is a witness when ``reference_congruence_check`` rejects
    it; no leaf is skipped, since the leaves isometric to the induced
    colouring only hold congruent copies of a rigid framework.  Returns
    (outcome, witness or None, leaves visited).
    """
    edges, faces = fw.graph.edges, fw.norm.faces
    table = reference_edge_table(fw)
    if any(len(active) != 1 for _, active in table):
        return "NotWellPositioned", None, 0
    lengths = [length for length, _ in table]
    induced = [fraction_pinned_row(fw, e, active[0], length)[0] for e, (length, active) in zip(edges, table)]
    if fraction_rank(induced) < fw.dim * (len(fw.graph.vertices) - 1):
        return "NotRigid", None, 0
    rows = [[reference_pinned_row(fw, e, f, length) for f in faces] for e, length in zip(edges, lengths)]
    leaves = 0

    def reduce(pivots, row):
        """The echelon pivots (column, integer row) with the augmented row
        added, by fraction-free elimination, or None when it reduces to
        0 = nonzero."""
        for col, prow in pivots:
            if row[col]:
                row = [x * prow[col] - y * row[col] for x, y in zip(row, prow)]
        lead = next((i for i, x in enumerate(row[:-1]) if x), None)
        if lead is None:
            return None if row[-1] else pivots
        g = gcd(*row)
        return pivots + [(lead, [x // g for x in row])]

    def walk(i, pivots, phi):
        nonlocal leaves
        if i == len(edges):
            leaves += 1
            q = reference_leaf_settlement(fw, lengths, phi)
            return None if q is None or reference_congruence_check(fw, q) else q
        for face, row in zip(faces, rows[i]):
            reduced = reduce(pivots, row)
            if reduced is not None:
                q = walk(i + 1, reduced, phi + [face])
                if q is not None:
                    return q
        return None

    witness = walk(0, [], [])
    return ("GloballyRigid" if witness is None else "NotGloballyRigid"), witness, leaves


def first_edge_walk(walk):
    """The colouring walk ``walk`` (the library's ``_consistent_leaves``)
    with symmetry broken on the first edge only: it takes the least face
    of each orbit of the group, and every later edge takes every face, as
    the engine did before the stabiliser chain.  The differential
    reference for the chain: the same verdicts, and witnesses that
    verify."""

    def first_edge_only(system, options, checked=None, perms=()):
        first = [o for o in options[0] if all(g[o[0]] >= o[0] for g in perms)]
        return walk(system, [first, *options[1:]], checked)

    return first_edge_only


def lex_leaders(perms, colourings):
    """The least image of each colouring (face-index tuples) under the
    face permutations: one per orbit, by trying every group element."""
    return sorted({min(tuple(g[f] for f in phi) for g in perms) for phi in colourings})


def reference_search_order(graph):
    """The greedy edge order by its definition: from the first vertex,
    repeatedly the edge with the most endpoints already touched, the
    earliest in input order among ties."""
    touched, left, order = {graph.vertices[0]}, list(range(len(graph.edges))), []
    while left:
        best = max(left, key=lambda i: (sum(v in touched for v in graph.edges[i]), -i))
        left.remove(best)
        order.append(best)
        touched.update(graph.edges[best])
    return order


class PlainPebbleGame:
    """The (d,k) pebble game without recorded tight sets: every edge
    gathers k+1 pebbles on its ends or is rejected, and a rejected edge's
    circuit is the edge and the accepted edges inside the vertices its
    ends reach."""

    def __init__(self, vertices, d, k):
        self.d, self.k = d, k
        self.order = {v: i for i, v in enumerate(vertices)}
        self.pebbles = {v: d for v in vertices}
        self.out = {v: set() for v in vertices}

    def pull_pebble(self, start, forbidden):
        prev, queue, head, found = {start: None}, [start], 0, None
        while head < len(queue) and found is None:
            v = queue[head]
            head += 1
            for w in sorted(self.out[v], key=self.order.get):
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
            self.out[v].discard(w)
            self.out[w].add(v)
            w = v
        return True

    def try_accept(self, v, w):
        while self.pebbles[v] + self.pebbles[w] < self.k + 1:
            if self.pebbles[v] < self.d and self.pull_pebble(v, (v, w)):
                continue
            if self.pebbles[w] < self.d and self.pull_pebble(w, (v, w)):
                continue
            return False
        tail, head = (v, w) if self.pebbles[v] > 0 else (w, v)
        self.pebbles[tail] -= 1
        self.out[tail].add(head)
        return True

    def circuit(self, v, w, accepted):
        if self.try_accept(v, w):
            accepted.append((v, w))
            return None
        reach, stack = {v, w}, [v, w]
        while stack:
            new = self.out[stack.pop()] - reach
            reach |= new
            stack.extend(new)
        return [(v, w)] + [e for e in accepted if reach.issuperset(e)]


def plain_max_sparse_subset(graph, d, k):
    game = PlainPebbleGame(graph.vertices, d, k)
    return tuple(e for e in graph.edges if game.try_accept(*e))


def plain_edges_in_circuits(graph, d, k):
    game, accepted, inside = PlainPebbleGame(graph.vertices, d, k), [], set()
    for v, w in graph.edges:
        inside.update(game.circuit(v, w, accepted) or ())
    return [e in inside for e in graph.edges]


def reference_edges_in_circuits(graph, params):
    """``edges_in_circuits`` building the library game's circuit of every
    rejected edge, also once every earlier edge is known to be inside one."""
    from polyrigid.sparsity import _PebbleGame

    game = _PebbleGame(graph, params.d, params.k)
    inside = {e for vw in graph.edges for e in game.circuit(*vw) or ()}
    return [e in inside for e in graph.edges]


def plain_fundamental_circuit(graph, d, k, edge):
    game = PlainPebbleGame(graph.vertices, d, k)
    basis = [e for e in graph.edges if e != edge and game.try_accept(*e)]
    circuit = game.circuit(*edge, basis)
    return None if circuit is None else tuple(sorted(circuit, key=graph.edges.index))


# -- the numeric falsifier with per-vertex dicts and per-edge face calls ----


def _reference_norm_and_face(faces_f, delta):
    """The largest f.delta over the faces, and the first face attaining it.
    Each f.delta is the left fold from 0 that sum() computes up to Python
    3.11; sum() compensates from 3.12 on, so the fold is spelled out."""
    vals = [reduce(add, map(mul, f, delta), 0) for f in faces_f]
    best = max(vals)
    return best, faces_f[vals.index(best)]


def reference_restart_endpoints(fw, params):
    """Yield (mismatch, q) at the end of each restart of the falsifier's
    descent, q as a dict of float lists: subgradient descent on per-vertex
    dicts, one face evaluation per edge (no float-range check)."""
    from polyrigid.framework import edge_lengths

    graph, norm = fw.graph, fw.norm
    d = fw.dim
    if not graph.edges:
        return
    lengths_f = [float(x) for x in edge_lengths(fw)]
    faces_f = [tuple(float(x) for x in f) for f in norm.faces]
    p_float = {v: [float(x) for x in fw.position(v)] for v in graph.vertices}
    v0 = graph.vertices[0]
    others = [v for v in graph.vertices if v != v0]

    span = max(max(lengths_f), 1e-9)  # the graph has an edge
    scale2 = reduce(add, (x * x for x in lengths_f), 0.0) or 1.0  # the sum up to Python 3.11
    rng = random.Random(params.seed)

    def mismatch_and_gradient(q):
        """Relative squared length mismatch at q, and its subgradient."""
        grad = {v: [0.0] * d for v in others}
        total = 0.0
        for (v, w), length in zip(graph.edges, lengths_f):
            val, face = _reference_norm_and_face(faces_f, list(map(sub, q[v], q[w])))
            res = val - length
            total += res * res
            step = 2.0 * res
            if v in grad:
                grad[v] = [g + step * x for g, x in zip(grad[v], face)]
            if w in grad:
                grad[w] = [g - step * x for g, x in zip(grad[w], face)]
        return total / scale2, grad

    for _ in range(params.restarts):
        q = {v0: p_float[v0][:]}
        for v in others:
            q[v] = [
                p_float[v0][i] + rng.uniform(-2.5 * span, 2.5 * span)
                for i in range(d)
            ]
        for it in range(params.steps):
            mismatch, grad = mismatch_and_gradient(q)
            if mismatch < params.tolerance:
                break
            step = 0.5 / (1.0 + it) ** 0.5
            for v in others:
                qv = q[v]
                gv = grad[v]
                for i in range(d):
                    qv[i] -= step * gv[i]
        else:
            mismatch, _ = mismatch_and_gradient(q)
        yield mismatch, q


def reference_colouring(fw, q_float):
    """The face index read off q_float edge by edge with
    ``_reference_norm_and_face``."""
    faces_f = [tuple(float(x) for x in f) for f in fw.norm.faces]
    phi = []
    for v, w in fw.graph.edges:
        delta = [a - b for a, b in zip(q_float[v], q_float[w])]
        _, face_f = _reference_norm_and_face(faces_f, delta)
        phi.append(faces_f.index(face_f))
    return phi


def reference_exactify_via_colouring(fw, q_float):
    """The exact point of ``reference_colouring(fw, q_float)``, its kernel
    part fitted to q_float."""
    from polyrigid.framework import pinned_rows, pinned_system, unpin
    from polyrigid.linalg import affine_point
    from polyrigid.oracle import _lstsq

    graph = fw.graph
    system = pinned_system(fw, pinned_rows(fw), reference_colouring(fw, q_float))
    if system is None:
        return None
    particular, kernel = system.solve()
    target = [x for v in graph.vertices[1:] for x in q_float[v]]
    resid = [t - float(x) for t, x in zip(target, particular)]
    coeffs = _lstsq([[float(x) for x in k] for k in kernel], resid)
    if coeffs is None:
        return None
    t = [Fraction(c).limit_denominator(10**4) for c in coeffs]
    return unpin(fw, affine_point(particular, kernel, t))


def reference_numeric_witness_search(fw, params):
    """The first reference endpoint below tolerance whose snapped point, or
    else the exact point of its colouring, is a verified witness."""
    from polyrigid.oracle import is_witness

    v0 = fw.graph.vertices[0]
    for mismatch, q in reference_restart_endpoints(fw, params):
        if mismatch >= params.tolerance:
            continue
        snapped = {v: tuple(Fraction(x).limit_denominator(10**6) for x in q[v]) for v in fw.graph.vertices}
        snapped[v0] = fw.position(v0)
        for candidate in (snapped, reference_exactify_via_colouring(fw, q)):
            if candidate is not None and is_witness(fw, candidate):
                return candidate
    return None


# -- helpers that only the tests call ------------------------------------


@contextmanager
def patched_walk(wrap=None, **overrides):
    """Within the block, ``decide_global_rigidity`` walks the colouring
    tree with ``wrap(walk)`` (e.g. ``first_edge_walk``), or the library's
    walk itself, called with the keyword arguments in ``overrides``
    replaced (``checked=None`` turns the forward check off).  Yields the
    list that receives every event of every walk, in order."""
    from polyrigid import global_rigidity as gr

    library = gr._consistent_leaves
    walk, events = wrap(library) if wrap else library, []

    def recording(*args, **kwargs):
        for event in walk(*args, **{**kwargs, **overrides}):
            events.append(event)
            yield event

    gr._consistent_leaves = recording
    try:
        yield events
    finally:
        gr._consistent_leaves = library


def mat_vec(rows, x):
    """The matrix-vector product of dense rows."""
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def without_edge(graph, v, w):
    """The graph with the edge vw deleted."""
    from polyrigid import Graph

    return Graph(graph.vertices, [e for e in graph.edges if set(e) != {v, w}])


def without_vertex(graph, u):
    """The graph with the vertex u and its edges deleted."""
    from polyrigid import Graph

    return Graph([v for v in graph.vertices if v != u], [e for e in graph.edges if u not in e])


def apply_isometry(T, fw):
    """The framework with every position mapped through the linear map."""
    return fw.with_positions({v: T.apply(p) for v, p in fw.positions.items()})


def translate(fw, t):
    """The framework with every position moved by the vector t."""
    return fw.with_positions({v: tuple(a + b for a, b in zip(p, t)) for v, p in fw.positions.items()})


def apply_colouring(T, phi):
    """The image of a colouring under the isometry T.

    An isometry acts on face vectors through its transpose: T^T is the
    map that permutes the face set, and the induced colouring of the
    moved framework T o p picks up exactly the transposed action
    (for the hypercube- and cross-polytope-ball norms the group is
    orthogonal, so the distinction is invisible there).
    """
    return tuple(T.transpose_apply(f) for f in phi)


def is_isometric_colouring(phi, psi, group):
    """Whether some isometry in the group carries psi to phi edge-wise."""
    assert len(phi) == len(psi), "colourings live on different edge sets"
    return any(apply_colouring(T, psi) == tuple(phi) for T in group)


def column_space_contains(rows, vec):
    """Whether vec lies in the column space: rows x = vec is solvable,
    by the library's exact solver."""
    from polyrigid.linalg import solve_affine

    assert len(vec) == len(rows), "vector length must match the row count"
    return solve_affine(rows, vec) is not None
