"""Independent checkers for the benchmark's outputs.

Nothing here imports polyrigid or reuses its algorithms.  Norms are the
hypercube ball (``linf``) and the cross-polytope ball (``l1``) only; for
both, the linear isometries are exactly the 2^d * d! signed permutation
matrices, and every isometry of a normed space is linear plus a
translation (Mazur-Ulam), so congruence is decided by trying each signed
permutation with the translation fixed by the first vertex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product


def faces(kind, d):
    """Face normals of the unit ball, as a set of tuples of Fractions."""
    if kind == "linf":
        out = set()
        for i in range(d):
            for s in (1, -1):
                out.add(tuple(Fraction(s if j == i else 0) for j in range(d)))
        return out
    if kind == "l1":
        return {tuple(Fraction(s) for s in signs) for signs in product((1, -1), repeat=d)}
    raise ValueError(f"unknown norm {kind!r}")


def norm_value(face_set, x):
    """The polytope norm: the largest dot product with a face normal."""
    return max(sum(f_i * x_i for f_i, x_i in zip(f, x)) for f in face_set)


def signed_permutations(d):
    """All d x d signed permutation matrices, as tuples of row tuples."""
    out = []
    for perm in permutations(range(d)):
        for signs in product((1, -1), repeat=d):
            out.append(tuple(
                tuple(Fraction(signs[i]) if j == perm[i] else Fraction(0) for j in range(d))
                for i in range(d)
            ))
    return out


def apply(matrix, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in matrix)


def transpose(matrix):
    return tuple(zip(*matrix))


def diff(x, y):
    return tuple(a - b for a, b in zip(x, y))


def edge_lengths(face_set, positions, edges):
    return [norm_value(face_set, diff(positions[v], positions[w])) for v, w in edges]


def active_faces(face_set, x):
    values = {f: sum(a * b for a, b in zip(f, x)) for f in face_set}
    top = max(values.values())
    return [f for f, value in values.items() if value == top]


def is_well_positioned(face_set, positions, edges):
    """Every edge vector is nonzero and has exactly one active face."""
    for v, w in edges:
        x = diff(positions[v], positions[w])
        if all(c == 0 for c in x) or len(active_faces(face_set, x)) != 1:
            return False
    return True


def is_congruent(positions, other, vertices):
    """Whether some signed permutation plus translation maps positions onto other."""
    d = len(positions[vertices[0]])
    first = vertices[0]
    for matrix in signed_permutations(d):
        shift = diff(other[first], apply(matrix, positions[first]))
        if all(
            tuple(a + b for a, b in zip(apply(matrix, positions[v]), shift)) == tuple(other[v])
            for v in vertices
        ):
            return True
    return False


def witness_error(face_set, positions, witness, vertices, edges):
    """None when witness is an equivalent, non-congruent realisation; else why not."""
    witness = {v: tuple(Fraction(x) for x in witness[v]) for v in vertices}
    if edge_lengths(face_set, positions, edges) != edge_lengths(face_set, witness, edges):
        return "witness edge lengths differ from the input's"
    if is_congruent(positions, witness, vertices):
        return "witness is congruent to the input"
    return None


def rank(rows):
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def colouring_rows(face_set, positions, vertices, edges):
    """Rows of the rigidity matrix of a well-positioned realisation."""
    d = len(positions[vertices[0]])
    col = {v: i for i, v in enumerate(vertices)}
    rows = []
    for v, w in edges:
        (face,) = active_faces(face_set, diff(positions[v], positions[w]))
        row = [Fraction(0)] * (d * len(vertices))
        for i, x in enumerate(face):
            row[d * col[v] + i] += x
            row[d * col[w] + i] -= x
        rows.append(row)
    return rows


def rigidity_rank(face_set, positions, vertices, edges):
    return rank(colouring_rows(face_set, positions, vertices, edges))


def is_redundantly_rigid(face_set, positions, vertices, edges):
    d = len(positions[vertices[0]])
    target = d * len(vertices) - d
    rows = colouring_rows(face_set, positions, vertices, edges)
    return all(rank(rows[:i] + rows[i + 1:]) == target for i in range(len(rows)))


def colour_classes(face_set, positions, edges):
    """linf only: the edges grouped by the axis of their active face."""
    classes = {}
    for v, w in edges:
        (face,) = active_faces(face_set, diff(positions[v], positions[w]))
        axis = next(i for i, x in enumerate(face) if x != 0)
        classes.setdefault(axis, []).append((v, w))
    return [classes.get(axis, []) for axis in range(len(next(iter(face_set))))]


def _connected(vertices, edges):
    if not vertices:
        return True
    adjacent = {v: set() for v in vertices}
    for v, w in edges:
        adjacent[v].add(w)
        adjacent[w].add(v)
    seen, todo = {vertices[0]}, [vertices[0]]
    while todo:
        for w in adjacent[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == len(vertices)


def is_2_connected(vertices, edges):
    """Connected on all vertices, and still connected after deleting any one."""
    if len(vertices) < 3 or not _connected(vertices, edges):
        return False
    for u in vertices:
        rest = [v for v in vertices if v != u]
        if not _connected(rest, [e for e in edges if u not in e]):
            return False
    return True


def a_map(x):
    """A(x, y) = (x + y, x - y): an isometry from the plane's l1 onto its linf."""
    return (x[0] + x[1], x[0] - x[1])


def a_inverse(x):
    """A^-1(u, v) = ((u + v)/2, (u - v)/2): linf onto l1 in the plane."""
    return (Fraction(x[0] + x[1], 2), Fraction(x[0] - x[1], 2))
