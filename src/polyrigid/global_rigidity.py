"""Deciding global rigidity of well-positioned frameworks, exactly.

The decision rests on a complete case split over directed colourings: an
equivalent realisation q of (G, p) must satisfy M(G, phi) q = lengths(p)
for some colouring phi of its own, plus the per-edge inequalities saying
no face exceeds the prescribed length.  The engine enumerates zero-free
colourings depth-first, pruning a branch once the partial affine system
(one vertex pinned) is inconsistent or fixes a face of any edge above its
length, skipping the colourings obtained from the induced one by a
linear isometry (they only give congruent copies), and settling the rest
in integers: a fraction-free leaf solution and integer face inequalities.
Only the exact LP, run when the leaf's kernel leaves room, and the final
witness check use Fractions.  A feasible point is an explicit equivalent,
non-congruent realisation; if the whole tree is exhausted without one,
the framework is globally rigid - exactly, with no genericity caveat.

Alongside the exact engine live the certificate routes: strong directed
colourings (all colour classes 2-connected certifies global rigidity of
generic realisations in the hypercube-ball norm) and the planar
characterisation through connectivity in the (2,2)-sparsity matroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul

from .errors import (
    BudgetExceededError,
    InconsistentSystemError,
    NotWellPositionedError,
    ParameterError,
)
from . import simplex
from .framework import (
    Framework,
    check_colouring,
    colouring_row,
    edge_table,
    induced_colouring,
    induced_rank,
    is_infinitesimally_rigid,
    is_redundantly_rigid,
    is_well_positioned,
    monochromatic_subgraphs,
    pinned_rows,
    pinned_system,
    rigid_rank,
    unique_colouring,
    unpin,
    zero_vector,
)
from .graph import Graph, is_2_connected
from .linalg import IncrementalSystem, affine_point, primitive
from .oracle import is_witness
from .sparsity import is_Mdd_connected

GLOBALLY_RIGID = "GloballyRigid"
NOT_GLOBALLY_RIGID = "NotGloballyRigid"
NOT_RIGID = "NotRigid"
NOT_WELL_POSITIONED = "NotWellPositioned"
BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass
class GlobalVerdict:
    outcome: str
    witness: dict | None = None
    certificate: dict = field(default_factory=dict)

    def __bool__(self):
        return self.outcome == GLOBALLY_RIGID


def _level(row, vec):
    """row . vec for a sparse row and a dense vector as wide as the system."""
    return sum(map(mul, row.values(), map(vec.__getitem__, row)))


def _settle_leaf(fw: Framework, faces, system):
    """An equivalent realisation on a consistent leaf's affine set, or None.

    ``system`` holds the leaf's pinned rows; ``faces`` holds each edge's
    rows, one per face, with ``pinned_rows``' one scale S: a point of the
    set is equivalent iff it meets them all.  The set is
    (X + sum_j w_j K_j) / D, for the particular solution X / D and kernel
    basis K_j / D_j; a row reads key . w <= -level, key_j = row . K_j,
    level = row . (X, -D), taken once per opposite-face pair: -f's row is
    f's negated but for its right-hand side, so it has key -key and level
    -level - (r_f + r_-f) D.  w = 0 is tested first; a violated row with a
    zero key rules the set out, as do two opposite rows (keys over their
    gcds) whose bounds leave nothing between them; then the exact LP runs
    on the rows in edge, then face order, equal keys merged to the least
    bound: the Fraction LP over t_j = w_j D_j / D, each row scaled by S*D
    and column j by D_j / D.  Two-phase Bland pivots by the sign of
    reduced costs and the argmin of ratios in a column, and phase one's
    objective only scales uniformly: the pivots, and so the point, agree."""
    X, D = system.back_substitute()
    point, rhs, pairs = X + [-D], system.width - 1, fw.norm.pairs
    levels = [[0] * len(per_face) for per_face in faces]  # per edge, per face
    for per_face, level in zip(faces, levels):
        for f, g in pairs:
            level[f] = x = _level(per_face[f], point)
            level[g] = -x - (per_face[f].get(rhs, 0) + per_face[g].get(rhs, 0)) * D
    if max(map(max, levels), default=0) <= 0:
        return unpin(fw, [Fraction(x, D) for x in X])
    kernel = [system.back_substitute(c)[0] + [0] for c in system.free_columns()]
    bounds = {}  # key -> least bound
    for per_face, level in zip(faces, levels):
        keys = [None] * len(per_face)
        for f, g in pairs:
            keys[f] = key = tuple([_level(per_face[f], K) for K in kernel])
            keys[g] = tuple([-k for k in key])
        for key, level in zip(keys, level):
            if any(key):
                bounds[key] = min(-level, bounds.get(key, -level))
            elif level > 0:
                return None
    least = {}  # key over its gcd -> least bound over the gcd
    for key, b in bounds.items():
        g = gcd(*key)
        unit, bound = tuple([k // g for k in key]), Fraction(b, g)
        least[unit] = min(bound, least.get(unit, bound))
    # unit . w <= b and -unit . w <= b' leave nothing when b + b' < 0
    if any(b + least.get(tuple([-k for k in unit]), -b) < 0 for unit, b in least.items()):
        return None
    t = simplex.feasible_point([list(k) for k in bounds], list(bounds.values()))
    if t is None:
        return None
    return unpin(fw, [Fraction(x, D) for x in affine_point(X, kernel, t)])


def equivalent_witness_lp(fw: Framework, phi):
    """Search X_phi for an equivalent realisation, by exact LP feasibility.

    X_phi is the affine solution set of the pinned system
    M'(G, phi) q = lengths with the first vertex held at its position.
    On top of it sit the inequalities  f.(q(v) - q(w)) <= length(e)  for
    every edge and every face f: together with the equalities they force
    every edge of q to have exactly the prescribed length, with phi among
    q's active faces; they are settled as the search settles a leaf.
    Returns a realisation map or None when infeasible; raises
    InconsistentSystemError when X_phi itself is empty.
    """
    phi = [fw.norm.face_index.get(tuple(f)) for f in phi]
    if None in phi:
        raise ParameterError("witness search needs a colouring by faces of the norm (zero-free)")
    if not is_well_positioned(fw):
        raise NotWellPositionedError("witness search needs a well-positioned framework")
    if not is_infinitesimally_rigid(fw):
        raise ParameterError("witness search is only meaningful for rigid frameworks")
    rows = pinned_rows(fw)
    system = pinned_system(fw, rows, phi)
    if system is None:
        raise InconsistentSystemError("affine system of the colouring has no solution")
    return _settle_leaf(fw, rows, system)


def _consistent_leaves(system, options, checked=None, perms=()):
    """Depth-first walk of the colouring tree, with an explicit stack.

    ``options[i]`` lists the (face index, integer row) choices for edge i.
    The walk yields one event per colouring examined: None for a cut, and
    each consistent full colouring, as face indices, while its rows are
    still pushed (no edge, no colouring).  A push that leaves the system
    inconsistent cuts its subtree.

    With ``checked = (faces, pairs)`` (per edge, ``pinned_rows``' row
    a . x <= r per face; the norm's pairs (f, -f), -f's row (-a | r')) every
    face row is forward-checked through one kept row per opposite-face
    pair, (a | r_f | delta) with delta = r_f + r_-f = 2S length >= 0 one
    column past the right-hand side: divided by its gcd once, then kept as
    ``system.reduce`` gives it against the pivots, watched under its lead.
    Pivots never touch the delta column, so reduction scales delta by the
    row's multiplier lam > 0 and gcds divide it exactly: f's view
    (a' | r_f') and -f's (-a' | lam delta - r_f') are positive multiples of
    each face row reduced on its own.  An option pushes its face's view.
    ``reduce`` stops at the first lead without a pivot and pivots never
    change, so a push adding a pivot at column c re-reduces only the pairs
    watched at c, bar the pushed pair (now 0 on f's side, lam delta >= 0 on
    -f's; unread until the pop), and a pop undoes that from a trail
    (watched literals: Moskewicz et al., "Chaff", DAC 2001).  A pair
    reduced to a constant with r_f' < 0 or lam delta - r_f' < 0 is violated
    on the prefix's whole affine set: the prefix is cut, one None per
    option of the next edge (one for a full colouring).

    Complete: every face row holds on every leaf's feasible set, so each
    leaf below a cut would settle to None.  The views being positive
    multiples, the pivots, the constants' signs and so the cuts and leaves,
    in order, are those of one kept row per face, and each leaf's affine
    set is the same, so the first witness is too; p and its isometric
    images (moved back onto the pinned vertex) meet every row, so the
    skipped set and the symmetry cut still hold.

    With ``perms``, face permutations forming a group G that maps leaves
    with a witness to leaves with a witness, symmetry is broken down G's
    stabiliser chain (lex-leader: Crawford, Ginsberg, Luks & Roy, KR
    1996).  H_0 = G, and H_i+1 keeps the h in H_i that fix the face edge i
    took; edge i takes face f only if h(f) >= f for every h in H_i.  A cut
    counts the filtered options of the next edge.  Complete: for a
    witness's colouring psi, pick g_0 in G taking psi_0 to the least face
    of its orbit, then g_1 in the stabiliser of g_0(psi_0) taking
    g_0(psi_1) to the least face of its orbit under that stabiliser, and
    so on; each g_k fixes the faces before it, so g_k ... g_0 . psi, a
    witness's colouring too, passes every filter, and it is the least
    image of psi in lexicographic order.  So the walk keeps exactly one
    colouring per G-orbit, and a G-invariant skipped set still holds."""
    m, rhs, reduce, trail = len(options), system.width - 1, system.reduce, []
    faces, pairs = checked or ((), ())
    kept, side = [], {}  # kept pair rows, reduced; (edge, face) -> (pair, is -f)
    for i, per_face in enumerate(faces):
        for f, g in pairs:
            side[i, f], side[i, g] = (len(kept), False), (len(kept), True)
            kept.append(primitive({**per_face[f], rhs + 1: per_face[f].get(rhs, 0) + per_face[g].get(rhs, 0)}))
    watch = [[] for _ in range(rhs)]  # lead column -> (index, kept pair row)
    for k, pair in enumerate(kept):
        watch[min(pair)].append((k, pair))

    def push(i, face, row):
        """Push an option of edge i: (consistent, no kept row violated)."""
        if checked is not None:
            k, flip = side[i, face]
            pair, sign = kept[k], -1 if flip else 1
            row = {c: sign * x for c, x in pair.items() if c < rhs}
            if r := (pair.get(rhs + 1, 0) - pair.get(rhs, 0) if flip else pair.get(rhs, 0)):
                row[rhs] = r
        consistent, added = system.push(row)
        if checked is None or not added:
            trail.append(None)
            return consistent, True
        c = min(row)
        moved, watch[c], leads = watch[c], [], []
        trail.append((c, moved, leads))
        for s, pair in moved:
            if s != k:
                lead, kept[s] = reduce(pair)
                if lead is not None:
                    watch[lead].append((s, kept[s]))
                    leads.append(lead)
                elif (r := kept[s].get(rhs, 0)) < 0 or kept[s].get(rhs + 1, 0) < r:
                    return True, False
        return True, True

    def retract():
        system.pop()
        if undo := trail.pop():
            c, moved, leads = undo
            for lead in leads:
                watch[lead].pop()
            for k, pair in moved:
                kept[k] = pair
            watch[c] = moved

    def below(i, face):
        """H_i+1, the h in H_i fixing edge i's face, and edge i+1's options."""
        if len(group := groups[i]) < 2:
            return group, options[i + 1]
        group = [h for h in group if h[face] == face]
        return group, [o for o in options[i + 1] if all(h[o[0]] >= o[0] for h in group)]

    assign, groups = [None] * m, [perms]  # groups[i] is H_i
    stack = [iter([o for o in options[0] if all(h[o[0]] >= o[0] for h in perms)])] if m else []
    while stack:
        i = len(stack) - 1
        for face, row in stack[-1]:
            consistent, holds = push(i, face, row)
            if not (consistent and holds):
                retract()  # one cut for a failed push or a full colouring
                for _ in below(i, face)[1] if consistent and i + 1 < m else [face]:
                    yield None
                continue
            assign[i] = face
            if i + 1 == m:
                yield tuple(assign)
            else:
                group, next_options = below(i, face)
                groups.append(group)
                stack.append(iter(next_options))
                break
            retract()
        else:
            stack.pop()
            groups.pop()
            if stack:
                retract()


def _search_order(graph: Graph):
    """The search's static edge order, as input edge indices: from vertex
    0, next the edge with the most endpoints already touched, ties by
    input order.  A pushed row can only be inconsistent if a cycle closes
    in the prefix, so closing cycles early cuts the tree near its root
    (fail-first ordering: Haralick & Elliott, AI 1980).  The consistent
    full colourings do not depend on the order."""
    edges = graph.edges
    incident = {v: [] for v in graph.vertices}
    for i, edge in enumerate(edges):
        for v in edge:
            incident[v].append(i)
    score = [0] * len(edges)  # minus the touched endpoints; None once taken
    heap = [(0, i) for i in range(len(edges))]  # sorted, so already a heap
    touched, order, fresh = set(), [], [graph.vertices[0]]
    while heap:
        for v in [v for v in fresh if v not in touched]:
            touched.add(v)
            for i in incident[v]:
                if score[i] is not None:
                    score[i] -= 1
                    heappush(heap, (score[i], i))
        s, i = heappop(heap)
        if score[i] == s:  # scores only fall, so older entries come later
            score[i] = None
            order.append(i)
            fresh = edges[i]
    return order


def decide_global_rigidity(fw: Framework, budget=None):
    """Full decision for a framework in its polytope norm.

    Verdicts are exact: NotWellPositioned and NotRigid short-circuit;
    otherwise the colouring tree is searched and the answer is either
    NotGloballyRigid with a verified witness realisation or GloballyRigid
    after exhausting the tree.  ``budget`` bounds the number of colourings
    examined (leaves plus cuts, each one event of the walk); exceeding it
    yields a BudgetExceeded verdict carrying the progress counters.  A
    leaf is settled (skipped as isometric, or solved) before the budget is
    enforced, so a witness on the event past the budget wins, and a cut
    certificate keeps lp_runs = leaves - isometric_skipped.

    The search takes the edges in ``_search_order`` (only
    ``witness_colouring`` is mapped back to the input order) and breaks
    symmetry down the stabiliser chain of the isometry group G, so it
    meets one colouring per G-orbit.  This is complete: if q is a witness
    with colouring psi and T is in G, then T o q, moved back onto the
    pinned vertex, is a witness with colouring T.psi; the skipped set, the
    G-orbit of the induced colouring, is G-invariant, and the walk meets
    it once.
    """
    cert = {"criterion": "exact colouring enumeration"}
    phi_p = unique_colouring(edge_table(fw)[0])
    if phi_p is None:
        return GlobalVerdict(NOT_WELL_POSITIONED, certificate=cert)
    cert["rank"] = rank = induced_rank(fw)
    cert["rank_required"] = rigid_rank(fw)
    if rank < rigid_rank(fw):
        return GlobalVerdict(NOT_RIGID, certificate=cert)
    if not fw.graph.edges:
        cert["note"] = "single vertex: trivially globally rigid"
        return GlobalVerdict(GLOBALLY_RIGID, certificate=cert)
    table = pinned_rows(fw)

    perms = fw.norm.face_permutations()
    cert["isometry_group_order"] = len(perms)
    order = _search_order(fw.graph)
    iso_set = {tuple(perm[phi_p[i]] for i in order) for perm in perms}
    faces = [table[i] for i in order]  # per search edge, one row per face
    options = [list(enumerate(per_face)) for per_face in faces]
    system = pinned_system(fw, faces)
    outcome, q, examined, leaves, skipped = GLOBALLY_RIGID, None, 0, 0, 0
    for phi in _consistent_leaves(system, options, checked=(faces, fw.norm.pairs), perms=perms):
        examined += 1
        if phi is not None:
            leaves += 1
            if phi in iso_set:
                skipped += 1
            elif (q := _settle_leaf(fw, faces, system)) is not None:
                outcome = NOT_GLOBALLY_RIGID
                break
        if budget is not None and examined > budget:
            outcome = BUDGET_EXCEEDED
            break
    cert.update(colourings_examined=examined, leaves=leaves, pruned_subtrees=examined - leaves,
                isometric_skipped=skipped, lp_runs=leaves - skipped)
    if q is not None:
        if not is_witness(fw, q):
            raise AssertionError("witness failed exact verification")
        cert["witness_colouring"] = tuple(fw.norm.faces[f] for _, f in sorted(zip(order, phi)))
    return GlobalVerdict(outcome, witness=q, certificate=cert)


# -- certificate routes ------------------------------------------------


def is_strong_colouring_linf(graph: Graph, phi, dim):
    """Sufficient test for strongness under the hypercube-ball norm of R^dim:
    every colour class is 2-connected on the full vertex set."""
    return all(is_2_connected(sub) for sub in monochromatic_subgraphs(graph, phi, dim))


def is_strong_colouring_exhaustive(graph: Graph, phi, norm, budget=2_000_000):
    """Decide strongness of a colouring by enumerating all colourings.

    phi is strong when every colouring whose matrix's column space
    contains col M(G, phi) is an isometric image of phi.  The enumeration
    runs depth-first: rows of the candidate colouring are paired with the
    rows of phi, and any left-kernel vector of the partial candidate
    matrix that fails to annihilate the matrix of phi kills the whole
    subtree (such a vector survives every completion).  Colourings with a
    zero face die immediately, since a zero row pairs with a nonzero row
    of phi; a phi with zero entries is rejected as never strong.

    Every cut prefix and every settled leaf counts against the budget.
    This is exponential and budget-guarded; the 2-connectivity test above
    is the practical route.
    """
    d = norm.dim
    zero = zero_vector(d)
    if any(f == zero for f in phi):
        return False
    phi_index = [norm.face_index.get(tuple(f)) for f in phi]  # None: not a face, no image
    perms = norm.face_permutations() if None not in phi_index else ()
    iso_set = {tuple(perm[i] for i in phi_index) for perm in perms}
    check_colouring(graph, phi, d)
    n = len(graph.vertices)
    # paired rows, one per (edge, candidate face): the candidate's row as the
    # key part, phi's as the check part, both times one S making faces integral
    scale = lcm(*(x.denominator for f in (*norm.faces, *phi) for x in f))
    cand_faces = [[int(x * scale) for x in f] for f in (*norm.faces, zero)]  # the zero face has index |F|
    paired = []
    for e, f in zip(graph.edges, phi):
        check = {c + d * n: x for c, x in colouring_row(graph, d, e, [int(x * scale) for x in f]).items()}
        paired.append([(i, primitive({**colouring_row(graph, d, e, face), **check})) for i, face in enumerate(cand_faces)])

    system = IncrementalSystem(2 * d * n, keylen=d * n)
    for examined, psi in enumerate(_consistent_leaves(system, paired), 1):
        if psi is not None and psi not in iso_set:
            return False  # containment held all the way down: not isometric
        if examined > budget:
            raise BudgetExceededError("strongness enumeration budget exhausted")
    return True


def certify_generic_global(fw: Framework):
    """Certificate for generic global rigidity in the hypercube-ball norm.

    True when every colour class of the induced colouring is 2-connected;
    that makes the colouring strong, so every generic realisation sharing
    it is globally rigid.  For the concrete rational input this is a
    certificate with a generic caveat, but two exact consequences are
    cross-checked here: the framework must be redundantly rigid and the
    graph connected in the (d,d)-sparsity matroid.
    """
    if not fw.norm.is_linf:
        raise ParameterError("certificate requires the linf preset norm")
    phi_p = induced_colouring(fw)  # NotWellPositionedError unless well-positioned
    strong = is_strong_colouring_linf(fw.graph, phi_p, fw.dim)
    if strong:
        if not is_redundantly_rigid(fw):
            raise AssertionError("strong colouring without redundant rigidity")
        if not is_Mdd_connected(fw.graph, fw.dim):
            raise AssertionError("strong colouring without matroid connectivity")
    return strong


def decide_generic_global_linf2(graph: Graph):
    """Generic global rigidity in the 2-dimensional hypercube-ball norm.

    Graph level: the graph has a generic globally rigid realisation iff
    it is connected in the (2,2)-sparsity matroid.  For a planar framework
    (linf, or l1, its linear image) only the necessary direction is used:
    one whose graph is not connected is not globally rigid.  A rigid one
    on a connected graph may still be NotGloballyRigid (the exact engine
    refutes such K5 realisations, and the refutations survive small
    perturbations), so the exact verdict decides it.
    """
    return is_Mdd_connected(graph, 2)
