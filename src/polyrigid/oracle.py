"""Independent numeric falsifier for global rigidity claims.

The search minimises the squared mismatch between target edge lengths and
those of a candidate realisation, by subgradient descent from random
starts (the norm is piecewise linear; an active face is always a valid
subgradient).  Float hits are only ever reported after exact
reconstruction: coordinates are snapped to nearby rationals, or the
affine system of the float point's colouring is solved exactly, and the
candidate survives only if its edge lengths match exactly and it fails
the congruence test.  A returned witness disproves global rigidity
outright; returning None proves nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul, sub

from .errors import ParameterError
from .framework import Framework, edge_lengths, pinned_rows, pinned_system, unpin
from .linalg import affine_point


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the numeric search.

    ``tolerance`` is the relative squared-mismatch level at which a float
    iterate is handed to exact reconstruction; it can be generous, since
    only exactly verified witnesses are ever returned.
    """

    restarts: int = 200
    steps: int = 120
    tolerance: float = 1e-3
    seed: int = 0


def congruence_check(fw: Framework, q) -> bool:
    """Whether q is an isometric copy of the framework's realisation.

    Isometries of a polytope norm are linear isometries plus translations,
    so it suffices to try every group element with the translation pinned
    by the first vertex.  Exact comparison, in integers: with p and q
    relative to vertex 0 over their common denominators P and Q, and each
    matrix T = A / M over its own, q - q0 = T (p - p0) reads
    M P (q - q0) = Q A (p - p0).
    """
    P, p = _relative_integers(fw, fw.positions)
    Q, q = _relative_integers(fw, {v: tuple(Fraction(x) for x in q[v]) for v in fw.graph.vertices})
    for T in fw.norm.isometry_group():
        M = lcm(*(x.denominator for row in T.matrix for x in row))
        A = [[x.numerator * (M // x.denominator) for x in row] for row in T.matrix]
        if all([Q * sum(map(mul, row, pv)) for row in A] == [M * P * x for x in qv] for pv, qv in zip(p, q)):
            return True
    return False


def _relative_integers(fw, positions):
    """(S, rows): the positions over their common denominator S, as integer
    numerators of q(v) - q(v0) for every vertex v after the first."""
    S = lcm(*(x.denominator for x in chain.from_iterable(positions.values())))
    v0, *others = fw.graph.vertices
    base = [x.numerator * (S // x.denominator) for x in positions[v0]]
    return S, [[x.numerator * (S // x.denominator) - b for x, b in zip(positions[v], base)] for v in others]


def is_witness(fw: Framework, q) -> bool:
    """Whether q realises exactly the framework's edge lengths without being
    congruent to its realisation: an exact disproof of global rigidity."""
    return edge_lengths(fw.with_positions(q)) == edge_lengths(fw) and not congruence_check(fw, q)


def _float_norm_and_face(faces_f, delta):
    """The largest f.delta over the faces, and the first face attaining it."""
    vals = [sum(map(mul, f, delta)) for f in faces_f]
    best = max(vals)
    return best, faces_f[vals.index(best)]


def _snap_positions(q_float, vertices, v0, p0):
    snapped = {v0: p0}
    for v in vertices:
        if v == v0:
            continue
        snapped[v] = tuple(
            Fraction(x).limit_denominator(10**6) for x in q_float[v]
        )
    return snapped


def _exactify_via_colouring(fw, q_float):
    """Solve the affine system of the float point's apparent colouring.

    The float iterate sits near a polyhedron of exact solutions; its
    per-edge maximising faces identify the polyhedron's affine span, which
    is then solved exactly and the kernel component fitted to the float
    point (coefficients snapped to small rationals).
    """
    graph, norm = fw.graph, fw.norm
    faces_f = [tuple(float(x) for x in f) for f in norm.faces]
    phi = []
    for v, w in graph.edges:
        delta = [a - b for a, b in zip(q_float[v], q_float[w])]
        _, face_f = _float_norm_and_face(faces_f, delta)
        phi.append(faces_f.index(face_f))
    system = pinned_system(fw, pinned_rows(fw, edge_lengths(fw)), phi)
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


def _lstsq(columns_as_rows, resid):
    """Least-squares coefficients for resid ~ sum c_j * columns[j], via the
    normal equations in plain float Gaussian elimination."""
    k = len(columns_as_rows)
    ata = [[sum(a * b for a, b in zip(columns_as_rows[i], columns_as_rows[j])) for j in range(k)] for i in range(k)]
    atb = [sum(a * b for a, b in zip(columns_as_rows[i], resid)) for i in range(k)]
    aug = [row[:] + [atb[i]] for i, row in enumerate(ata)]
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) < 1e-12:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def numeric_witness_search(fw: Framework, params: SearchParams = SearchParams()):
    """Look for an equivalent, non-congruent realisation numerically.

    Multi-restart subgradient descent on the squared length mismatch; any
    float candidate below tolerance goes through exact reconstruction and
    is returned only when its edge lengths match exactly and the
    congruence test fails.  None means the budget ran out, nothing more.
    A coordinate, length or face beyond the float range is a ParameterError.
    """
    graph, norm = fw.graph, fw.norm
    d = fw.dim
    if not graph.edges:
        return None
    try:
        lengths_f = [float(x) for x in edge_lengths(fw)]
        faces_f = [tuple(float(x) for x in f) for f in norm.faces]
        p_float = {v: [float(x) for x in fw.position(v)] for v in graph.vertices}
    except OverflowError:  # so the largest value is beyond the float range
        far = max(chain(*fw.positions.values(), edge_lengths(fw), *norm.faces), key=abs)
        raise ParameterError(f"value {far} is beyond the float range of the numeric search") from None
    v0 = graph.vertices[0]
    p0 = fw.position(v0)
    others = [v for v in graph.vertices if v != v0]

    span = max(max(lengths_f), 1e-9)  # the graph has an edge
    scale2 = sum(x * x for x in lengths_f) or 1.0
    rng = random.Random(params.seed)

    def mismatch_and_gradient(q):
        """Relative squared length mismatch at q, and its subgradient."""
        grad = {v: [0.0] * d for v in others}
        total = 0.0
        for (v, w), length in zip(graph.edges, lengths_f):
            val, face = _float_norm_and_face(faces_f, list(map(sub, q[v], q[w])))
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
        if mismatch >= params.tolerance:
            continue

        for candidate in (
            _snap_positions(q, graph.vertices, v0, p0),
            _exactify_via_colouring(fw, q),
        ):
            if candidate is not None and is_witness(fw, candidate):
                return candidate
    return None
