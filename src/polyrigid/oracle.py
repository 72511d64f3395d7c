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
from functools import reduce
from itertools import chain
from math import isfinite, lcm
from operator import mul, sub

from .errors import ParameterError
from .framework import Framework, edge_lengths, edge_maxima, exact_positions, pinned_rows, pinned_system, unpin
from .linalg import affine_point


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the numeric search.

    ``tolerance`` is the relative squared-mismatch level at which a float
    iterate is handed to exact reconstruction; it can be generous, since
    only exactly verified witnesses are ever returned.  Negative counts and
    a tolerance that is not a finite positive number are ParameterErrors.
    """

    restarts: int = 200
    steps: int = 120
    tolerance: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "steps"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be at least 0, got {getattr(self, name)}")
        if not (self.tolerance > 0 and isfinite(self.tolerance)):
            raise ParameterError(f"tolerance must be a finite positive number, got {self.tolerance}")


def congruence_check(fw: Framework, q, over=None) -> bool:
    """Whether q is an isometric copy of the framework's realisation.

    Isometries of a polytope norm are linear isometries plus translations,
    so it suffices to try every group element with the translation pinned
    by the first vertex.  Exact comparison, in integers: with p and q
    relative to vertex 0 over their common denominators P and Q, and each
    group element's integer matrix T = A / M (``T.ints`` over ``T.den``),
    q - q0 = T (p - p0) reads M P (q - q0) = Q A (p - p0).  ``over`` may
    give q's ``_relative_integers`` when they are known.
    """
    P, p = _relative_integers(fw, fw.positions)
    Q, q = over or _relative_integers(fw, {v: tuple(Fraction(x) for x in q[v]) for v in fw.graph.vertices})
    for T in fw.norm.isometry_group():
        A, M = T.ints, T.den
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
    congruent to its realisation: an exact disproof of global rigidity.
    Over q's common denominator Q, relative to vertex 0 (edge vectors do
    not change), ``edge_maxima`` gives each edge's norm as t / (D Q), equal
    to a length a / b exactly when t b = a D Q."""
    q = exact_positions(fw.graph, fw.dim, q)
    over = Q, rows = _relative_integers(fw, q)
    tops = edge_maxima(fw, dict(zip(fw.graph.vertices, [[0] * fw.dim, *rows])))
    scale = Q * fw.norm.denominator
    exact = all(t * x.denominator == x.numerator * scale for (t, _), x in zip(tops, edge_lengths(fw)))
    return exact and not congruence_check(fw, q, over)


def _face_terms(norm):
    """Per face, its nonzero float coefficients as (k, f_k); (0, 0.0) if none."""
    return [[(k, x) for k, x in enumerate(map(float, f)) if x] or [(0, 0.0)] for f in norm.faces]


def _face_values(pairs, terms, opposite, cols):
    """Per edge (i, j), in order: the largest f.(q_i - q_j) over the faces
    and the index of the first face attaining it, q as coordinate columns.
    Face f of each opposite pair (f, g) adds its nonzero ``terms`` from 0.0
    by plain float addition (sum() compensates from Python 3.12 on); g's
    row is 0.0 - f's.  For finite q that is every face's full sum bit for
    bit: a sum starts as 0.0 + t, so is never -0.0, a skipped +-0.0 changes
    nothing, and round-to-nearest is symmetric (0.0 - x keeps 0.0 at +0.0)."""
    deltas = [[c[i] - c[j] for i, j in pairs] for c in cols]
    per_face = [None] * len(terms)
    for f, g in opposite:
        (k, fk), *rest = terms[f]
        row = [0.0 + fk * x for x in deltas[k]]
        for k, fk in rest:
            row = [a + fk * x for a, x in zip(row, deltas[k])]
        per_face[f], per_face[g] = row, [0.0 - x for x in row]
    values = list(zip(*per_face))
    best = list(map(max, values))
    return best, list(map(tuple.index, values, best))


def _snap_positions(fw, q_float):
    v0, *others = fw.graph.vertices
    snapped = {v0: fw.position(v0)}
    snapped.update((v, tuple(Fraction(x).limit_denominator(10**6) for x in q_float[v])) for v in others)
    return snapped


def _exactify_via_colouring(fw, q_float):
    """Solve the affine system of the float point's apparent colouring.

    The float iterate sits near a polyhedron of exact solutions; its
    per-edge maximising faces identify the polyhedron's affine span, which
    is then solved exactly and the kernel component fitted to the float
    point (coefficients snapped to small rationals).
    """
    graph = fw.graph
    pairs = [(graph.index(v), graph.index(w)) for v, w in graph.edges]
    _, phi = _face_values(pairs, _face_terms(fw.norm), fw.norm.pairs, list(zip(*map(q_float.get, graph.vertices))))
    system = pinned_system(fw, pinned_rows(fw), phi)
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


def _restart_endpoints(fw: Framework, params: SearchParams):
    """Yield (mismatch, q) at the end of each restart's descent: the same
    floats for a given seed on one Python version.  Vertex 0 is index 0 and
    stays put; q is held as d coordinate columns, and each gradient entry
    adds its edges' nonzero face terms in edge order: entries start at 0.0
    and are never -0.0, so for finite q a skipped +-0.0 would change no bit."""
    graph = fw.graph
    if not graph.edges:
        return
    try:
        lengths_f = [float(x) for x in edge_lengths(fw)]
        terms = _face_terms(fw.norm)
        p0 = [float(x) for x in fw.position(graph.vertices[0])]
        scale2 = reduce(lambda t, x: t + x * x, lengths_f, 0.0) or 1.0  # sum() may compensate
        if not isfinite(scale2):  # a finite scale2 keeps the start box, 2.5 * span, finite too
            raise OverflowError
    except OverflowError:  # so the largest value is beyond the float range
        far = max(chain(*fw.positions.values(), edge_lengths(fw), *fw.norm.faces), key=abs)
        raise ParameterError(f"value {far} is beyond the float range of the numeric search") from None
    pairs = [(graph.index(v), graph.index(w)) for v, w in graph.edges]
    n = len(graph.vertices)
    span = max(max(lengths_f), 1e-9)  # the graph has an edge
    rng = random.Random(params.seed)

    def mismatch(cols):
        """Relative squared length mismatch, the residuals and the faces."""
        best, phi = _face_values(pairs, terms, fw.norm.pairs, cols)
        res = list(map(sub, best, lengths_f))
        total = 0.0
        for r in res:
            total += r * r
        return total / scale2, res, phi

    for _ in range(params.restarts):
        starts = [[x + rng.uniform(-2.5 * span, 2.5 * span) for x in p0] for _ in range(n - 1)]
        cols = [list(c) for c in zip(p0, *starts)]
        for it in range(params.steps):
            total, res, phi = mismatch(cols)
            if total < params.tolerance:
                break
            step = 0.5 / (1.0 + it) ** 0.5
            grads = [[0.0] * n for _ in cols]
            for (i, j), s, face in zip(pairs, [2.0 * r for r in res], phi):
                for k, fk in terms[face]:
                    term, grad = s * fk, grads[k]
                    grad[i] += term
                    grad[j] -= term
            for k, grad in enumerate(grads):
                grad[0] = 0.0
                cols[k] = [x - step * g for x, g in zip(cols[k], grad)]
        else:
            total = mismatch(cols)[0]
        yield total, dict(zip(graph.vertices, map(list, zip(*cols))))


def numeric_witness_search(fw: Framework, params: SearchParams = SearchParams()):
    """Look for an equivalent, non-congruent realisation numerically.

    Multi-restart subgradient descent on the squared length mismatch; any
    float candidate below tolerance goes through exact reconstruction and
    is returned only when its edge lengths match exactly and the
    congruence test fails.  None means the budget ran out, nothing more.
    A value, or the sum of squared lengths, beyond the float range is a ParameterError.
    """
    for mismatch, q in _restart_endpoints(fw, params):
        if not (mismatch < params.tolerance and all(map(isfinite, chain(*q.values())))):
            continue  # a NaN mismatch fails the test too
        for candidate in (_snap_positions(fw, q), _exactify_via_colouring(fw, q)):
            if candidate is not None and is_witness(fw, candidate):
                return candidate
    return None
