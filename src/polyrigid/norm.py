"""Centrally symmetric polytope norms and their linear isometries.

A norm here is given by the outward normal vectors of the unit ball's
facets; evaluating the norm is a maximum of dot products over that face
set.  All coordinates are exact rationals, so questions like "which faces
attain the maximum" have exact answers: ties are meaningful, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import gcd, lcm
from operator import mul

from . import simplex
from .errors import DimensionMismatchError, ParameterError
from .linalg import IncrementalSystem, dot, integerize_row, mat_rank, solve_affine


def as_vector(values, dim=None):
    vec = tuple(Fraction(x) for x in values)
    if dim is not None and len(vec) != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {len(vec)}")
    return vec


def linf_axis(face):
    """For a signed standard basis vector, its (coordinate, sign); else None."""
    nonzero = [(i, v) for i, v in enumerate(face) if v != 0]
    if len(nonzero) == 1 and abs(nonzero[0][1]) == 1:
        return nonzero[0][0], 1 if nonzero[0][1] > 0 else -1
    return None


@dataclass(frozen=True)
class LinearIsometry:
    """A linear map preserving the norm; its transpose permutes the faces.

    The map is the integer matrix ``ints`` over ``den``: d x d tuples of
    ints, reduced on construction to den > 0 with no factor common to den
    and every entry, so equal maps compare equal (den == 0 raises).
    ``matrix`` is its view as Fractions, computed on first read.
    """

    ints: tuple
    den: int

    def __post_init__(self):
        if self.den == 0:
            raise ParameterError("isometry denominator must be nonzero")
        common = gcd(self.den, *chain.from_iterable(self.ints)) * (1 if self.den > 0 else -1)
        object.__setattr__(self, "ints", tuple(tuple(x // common for x in row) for row in self.ints))
        object.__setattr__(self, "den", self.den // common)

    @cached_property
    def matrix(self):
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    def apply(self, x):
        return tuple(Fraction(dot(row, x), self.den) for row in self.ints)

    def transpose_apply(self, x):
        return tuple(Fraction(dot(col, x), self.den) for col in zip(*self.ints))


class PolytopeNorm:
    """Norm of a centrally symmetric polytope, via its face normals.

    The face set must be symmetric (F = -F), span the space, and be
    minimal; a normal that never uniquely attains the maximum describes no
    facet and is rejected rather than silently dropped.  A norm is immutable
    after construction, apart from its lazily filled group cache, and so
    safe to share between frameworks.
    """

    def __init__(self, dim, faces):
        if dim < 1:
            raise ParameterError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.faces = tuple(as_vector(f, dim) for f in faces)
        # every check runs on the faces as integers: faces[i] == int_faces[i] / denominator
        self.denominator = den = lcm(*(x.denominator for f in self.faces for x in f))
        self.int_faces = ints = tuple(tuple(x.numerator * (den // x.denominator) for x in f) for f in self.faces)
        index = {g: i for i, g in enumerate(ints)}
        if len(index) != len(ints):
            raise ParameterError("duplicate face normals")
        opposite = [index.get(tuple(-x for x in g)) for g in ints]
        for f, g, j in zip(self.faces, ints, opposite):
            if not any(g):
                raise ParameterError("zero vector cannot be a face normal")
            if j is None:
                raise ParameterError(f"face set is not centrally symmetric: {f} unmatched")
        if mat_rank(ints) != dim:
            raise ParameterError("face normals do not span the space (unit ball unbounded)")
        self._check_minimal()
        self.face_index = {f: i for i, f in enumerate(self.faces)}
        # the opposite-face pairs (i, j), i < j: faces[j] = -faces[i]
        self.pairs = tuple((i, j) for i, j in enumerate(opposite) if i < j)
        self._group = None
        self._perms = None

    def _check_minimal(self):
        # f is a facet normal iff some x satisfies f.x > 1 while g.x <= 1
        # for every other face g, i.e. the LP maximum exceeds 1.  With m the
        # largest g.f, x = t f for large t is such a point when m <= 0, and
        # x = f / m when f.f > m; the LP settles the rest, among them every
        # redundant f, which lies in conv(others) and so has f.f <= m.  The
        # dot products are taken on the integer faces, all scaled alike.
        ints = self.int_faces
        for i, f in enumerate(ints):
            m = max(dot(f, g) for j, g in enumerate(ints) if j != i)
            if m <= 0 or dot(f, f) > m:
                continue
            face, others = self.faces[i], self.faces[:i] + self.faces[i + 1:]
            status, _, value = simplex.maximize(face, others, [Fraction(1)] * len(others))
            if status == simplex.OPTIMAL and value <= 1:
                raise ParameterError(f"redundant face normal {face}: not a facet of the unit ball")

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

    @cached_property
    def is_linf(self):
        """Whether the face set is exactly the signed standard basis."""
        return len(self.faces) == 2 * self.dim and all(
            linf_axis(f) is not None for f in self.faces
        )

    @cached_property
    def is_l1(self):
        """Whether the face set is exactly the sign vectors {1, -1}^d."""
        return len(self.faces) == 2 ** self.dim and all(
            abs(x) == 1 for f in self.faces for x in f
        )

    def isometry_group(self):
        """All linear isometries of the norm, as a finite group.

        A linear map T preserves the norm exactly when its transpose
        permutes the face set.  Candidates send d linearly independent base
        faces to every d-tuple of faces, in product order.  Everything runs
        on the integer faces: with the base's inverse as integers over one
        scale, a candidate's transpose sends each face to an integer
        combination of the targets, looked up among the scaled faces; the
        candidate is kept when the images are distinct faces.  The result
        is cached with the face permutations; it always contains +/-
        identity.
        """
        if self._group is not None:
            return self._group
        d, n, ints = self.dim, len(self.faces), self.int_faces
        base, system = [], IncrementalSystem(d, keylen=d)
        for g in ints:
            if system.push(integerize_row(g))[1]:
                base.append(g)
                if len(base) == d:
                    break
            else:
                system.pop()
        # B^-1 = binv / scale for the base rows B; face g = sum_k c_k(g) B_k with
        # scale * c_k(g) = (column k of binv) . g, so the transpose S of the
        # candidate sending B_k to t_k maps scale * g to sum_k (scale * c_k(g)) t_k
        binv_cols = [solve_affine(base, [int(i == k) for i in range(d)])[0] for k in range(d)]
        scale = lcm(*(c.denominator for col in binv_cols for c in col))
        binv = [[c.numerator * (scale // c.denominator) for c in row] for row in zip(*binv_cols)]
        terms = [[(k, c) for k, c in enumerate(dot(col, g) for col in zip(*binv)) if c] for g in ints]
        times = {c: [tuple(c * x for x in g) for g in ints] for term in terms for _, c in term}
        terms = [[(k, times[c]) for k, c in term] for term in terms]  # c * every face
        lookup = {tuple(scale * x for x in g): j for j, g in enumerate(ints)}
        # T = S^T has entry (j, i) = sum_k B^-1[j][k] t_k[i]: integers over scale

        group, perms = [], []
        for targets in product(range(n), repeat=d):
            perm = []
            for term in terms:
                image = [table[targets[k]] for k, table in term]
                j = lookup.get(image[0] if len(image) == 1 else tuple(map(sum, zip(*image))))
                if j is None:
                    break
                perm.append(j)
            else:
                if len(set(perm)) == n:
                    vecs = [ints[t] for t in targets]
                    matrix = [tuple(sum(map(mul, row, col)) for col in zip(*vecs)) for row in binv]
                    group.append(LinearIsometry(matrix, scale))
                    perms.append(tuple(perm))
        self._group, self._perms = tuple(group), tuple(perms)
        return self._group

    def face_permutations(self):
        """The isometry group as face-index permutations, in the order of
        ``isometry_group()``: perm[i] is the index of T^T applied to face i."""
        self.isometry_group()
        return self._perms


def preset(kind, dim):
    """The classic polytope norms: 'linf' (hypercube ball) or 'l1'
    (cross-polytope ball)."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    if kind == "linf":
        return PolytopeNorm(dim, [[s * (i == j) for j in range(dim)] for i in range(dim) for s in (1, -1)])
    if kind == "l1":
        return PolytopeNorm(dim, list(product((1, -1), repeat=dim)))
    raise ParameterError(f"unknown preset {kind!r} (expected 'linf' or 'l1')")
