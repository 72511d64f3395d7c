"""Centrally symmetric polytope norms and their linear isometries.

A norm here is given by the outward normal vectors of the unit ball's
facets; evaluating the norm is a maximum of dot products over that face
set.  All coordinates are exact rationals, so questions like "which faces
attain the maximum" have exact answers: ties are meaningful, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import simplex
from .errors import DimensionMismatchError, ParameterError
from .linalg import dot, mat_rank


def as_vector(values, dim=None):
    vec = tuple(Fraction(x) for x in values)
    if dim is not None and len(vec) != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {len(vec)}")
    return vec


def _neg(vec):
    return tuple(-x for x in vec)


def linf_axis(face):
    """For a signed standard basis vector, its (coordinate, sign); else None."""
    nonzero = [(i, v) for i, v in enumerate(face) if v != 0]
    if len(nonzero) == 1 and abs(nonzero[0][1]) == 1:
        return nonzero[0][0], 1 if nonzero[0][1] > 0 else -1
    return None


@dataclass(frozen=True)
class LinearIsometry:
    """A linear map preserving the norm; its transpose permutes the faces."""

    matrix: tuple  # d x d tuple of tuples of Fraction

    def apply(self, x):
        return tuple(dot(row, x) for row in self.matrix)

    def transpose_apply(self, x):
        d = len(self.matrix)
        return tuple(
            sum(self.matrix[i][j] * x[i] for i in range(d)) for j in range(d)
        )

    @property
    def dim(self):
        return len(self.matrix)


class PolytopeNorm:
    """Norm of a centrally symmetric polytope, via its face normals.

    The face set must be symmetric (F = -F), span the space, and be
    minimal; a normal that never uniquely attains the maximum describes no
    facet and is rejected rather than silently dropped.
    """

    def __init__(self, dim, faces):
        if dim < 1:
            raise ParameterError(f"dimension must be positive, got {dim}")
        face_tuples = [as_vector(f, dim) for f in faces]
        if len(set(face_tuples)) != len(face_tuples):
            raise ParameterError("duplicate face normals")
        face_set = set(face_tuples)
        for f in face_tuples:
            if all(x == 0 for x in f):
                raise ParameterError("zero vector cannot be a face normal")
            if _neg(f) not in face_set:
                raise ParameterError(f"face set is not centrally symmetric: {f} unmatched")
        if mat_rank(face_tuples) != dim:
            raise ParameterError("face normals do not span the space (unit ball unbounded)")
        self.dim = dim
        self.faces = tuple(face_tuples)
        self._check_minimal()
        self._group = None

    def _check_minimal(self):
        # f is a facet normal iff some x satisfies f.x > 1 while g.x <= 1
        # for every other face g, i.e. the LP maximum exceeds 1.
        for f in self.faces:
            others = [g for g in self.faces if g != f]
            status, _, value = simplex.maximize(f, others, [Fraction(1)] * len(others))
            if status == simplex.OPTIMAL and value <= 1:
                raise ParameterError(f"redundant face normal {f}: not a facet of the unit ball")

    def __eq__(self, other):
        return (
            isinstance(other, PolytopeNorm)
            and self.dim == other.dim
            and set(self.faces) == set(other.faces)
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.faces)))

    def __repr__(self):
        return f"PolytopeNorm(dim={self.dim}, {len(self.faces)} faces)"

    # -- evaluation ----------------------------------------------------

    def value(self, x):
        """The norm of x: max of f.x over all faces f.  Exact rational."""
        x = as_vector(x, self.dim)
        return max(dot(f, x) for f in self.faces)

    def active_faces(self, x):
        """Faces attaining the maximum at a nonzero point, in face order."""
        x = as_vector(x, self.dim)
        if all(v == 0 for v in x):
            raise ParameterError("active faces are undefined at the zero vector")
        vals = [dot(f, x) for f in self.faces]
        m = max(vals)
        return tuple(f for f, v in zip(self.faces, vals) if v == m)

    def is_smooth_point(self, x):
        """Exactly one face active: the norm is differentiable at x."""
        return len(self.active_faces(x)) == 1

    # -- structure -----------------------------------------------------

    @property
    def is_linf(self):
        """Whether the face set is exactly the signed standard basis."""
        return len(self.faces) == 2 * self.dim and all(
            linf_axis(f) is not None for f in self.faces
        )

    @property
    def is_l1(self):
        """Whether the face set is exactly the sign vectors {1, -1}^d."""
        return len(self.faces) == 2 ** self.dim and all(
            abs(x) == 1 for f in self.faces for x in f
        )

    def isometry_group(self):
        """All linear isometries of the norm, as a finite group.

        A linear map T preserves the norm exactly when its transpose
        permutes the face set.  Candidates are generated by sending d
        linearly independent faces to every d-tuple of faces and keeping
        the maps whose transpose action is a genuine permutation of F.
        The result is cached; it always contains +/- identity.
        """
        if self._group is not None:
            return self._group
        d = self.dim
        base = []
        for f in self.faces:
            if mat_rank(base + [f]) > len(base):
                base.append(f)
            if len(base) == d:
                break
        # With B the matrix of base rows, row i of the transpose candidate S
        # solves B s = (targets' i-th coordinates), so S = (B^-1 applied
        # per coordinate); invert B once.
        from .linalg import solve_affine

        unit = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        binv_cols = []
        for col in range(d):
            sol = solve_affine(base, unit[col])
            binv_cols.append(sol[0])
        binv_rows = list(zip(*binv_cols))  # B^-1 as rows

        face_set = set(self.faces)
        group = []
        for targets in product(self.faces, repeat=d):
            s_rows = []
            for coord in range(d):
                rhs = [t[coord] for t in targets]
                s_rows.append(tuple(dot(row, rhs) for row in binv_rows))
            image = {tuple(dot(r, f) for r in s_rows) for f in self.faces}
            if image != face_set:
                continue
            t_matrix = tuple(zip(*s_rows))  # T = S^T
            group.append(LinearIsometry(t_matrix))
        self._group = tuple(group)
        return self._group


def preset(kind, dim):
    """The classic polytope norms: 'linf' (hypercube ball) or 'l1'
    (cross-polytope ball)."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    one = Fraction(1)
    if kind == "linf":
        faces = []
        for i in range(dim):
            e = [Fraction(0)] * dim
            e[i] = one
            faces.append(tuple(e))
            faces.append(_neg(tuple(e)))
        return PolytopeNorm(dim, faces)
    if kind == "l1":
        faces = [tuple(Fraction(s) for s in signs) for signs in product((1, -1), repeat=dim)]
        return PolytopeNorm(dim, faces)
    raise ParameterError(f"unknown preset {kind!r} (expected 'linf' or 'l1')")
