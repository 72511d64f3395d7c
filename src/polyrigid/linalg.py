"""Exact linear algebra over the rationals.

Everything here works on plain lists of ``fractions.Fraction`` (or ints).
Ranks are computed with fraction-free Bareiss elimination after clearing
denominators row by row; solving and kernel extraction run the one
incremental integer elimination, ``IncrementalSystem``, and back-substitute
its echelon rows fraction-free.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def integerize_row(row):
    """Scale a rational row to coprime integers (sign preserved).

    Row scaling by a positive rational leaves rank, consistency and
    solution sets of homogeneous comparisons unchanged.  Zeros are skipped.
    """
    scale = lcm(*(x.denominator for x in row if x))
    ints = [x.numerator * (scale // x.denominator) if x else 0 for x in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def mat_rank(rows):
    """Rank of a rational matrix, via fraction-free (Bareiss) elimination."""
    m = [integerize_row(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            row_r, row_p = m[r], m[rank]
            m[r] = [(p * row_r[c] - f * row_p[c]) // prev for c in range(ncols)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def kernel_basis(rows, ncols=None):
    """Basis of the right null space {x : A x = 0} of a rational matrix."""
    if rows:
        return solve_affine(rows, [0] * len(rows))[1]
    return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols or 0)]


def left_kernel_basis(rows):
    """Basis of {z : z^T A = 0}, i.e. the null space of the transpose."""
    if not rows:
        return []
    transpose = [list(col) for col in zip(*rows)]
    return kernel_basis(transpose, ncols=len(rows))


def solve_affine(rows, rhs):
    """Solve A x = b exactly.

    Returns (particular, kernel) where ``particular`` is one solution and
    ``kernel`` is a basis of the homogeneous solutions, or None if the
    system is inconsistent.  An empty ``rows`` is the all-of-space system.
    The particular solution has every free variable at zero, and kernel
    vector j has free variable j at one and the others at zero.
    """
    if not rows:
        return [], []
    system = IncrementalSystem(len(rows[0]) + 1)
    for r, b in zip(rows, rhs):
        consistent, _ = system.push(integerize_row(list(r) + [b]))
        if not consistent:
            return None
    return system.solve()


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(rows, x):
    return [dot(r, x) for r in rows]


def affine_point(particular, kernel, t):
    """particular + sum_j t[j] * kernel[j]."""
    return [x + sum(tj * k[i] for tj, k in zip(t, kernel)) for i, x in enumerate(particular)]


class IncrementalSystem:
    """Row-by-row consistency tracking for an augmented system [A | b].

    Rows are pushed (and popped, stack-wise) as integer sequences whose last
    entry is the right-hand side.  ``push`` reduces the new row against the
    pivot rows accumulated so far and reports whether the system stays
    consistent.  Pivoting never touches earlier rows, so popping is O(1).

    The same machine doubles as a relative-kernel checker: with ``keylen``
    set, only the first ``keylen`` entries act as the coefficient part and
    everything after is a check part that must vanish whenever the
    coefficient part reduces to zero.
    """

    def __init__(self, width, keylen=None):
        self.width = width
        self.keylen = width - 1 if keylen is None else keylen
        self.pivots = {}  # lead column -> integer row
        self._trail = []  # lead columns added, for popping

    def _reduce(self, row):
        keylen = self.keylen
        start = 0
        while True:
            lead = None
            for c in range(start, keylen):
                if row[c] != 0:
                    lead = c
                    break
            if lead is None:
                return None, row
            piv = self.pivots.get(lead)
            if piv is None:
                return lead, row
            a, b = piv[lead], row[lead]
            row = [a * x - b * y for x, y in zip(row, piv)]
            # normalize only once entries grow; small-int arithmetic is the
            # common case and gcd passes dominate otherwise
            if max(map(abs, row)) > 0xFFFFFFFFFFFF:
                g = gcd(*row)
                if g > 1:
                    row = [v // g for v in row]
            start = lead + 1

    def free_columns(self):
        """The coefficient columns without a pivot."""
        return [c for c in range(self.keylen) if c not in self.pivots]

    def back_substitute(self, free=None):
        """One solution X / D (D > 0) of the accumulated system, in integers.

        With ``free`` None it is the particular solution, else the kernel
        vector of that free column (x_free = 1, zero right-hand side);
        other free variables stay at zero.  D grows only by what each new
        entry's reduced denominator needs, so it ends as the least common
        denominator.  Only valid when every pushed row reported consistent.
        """
        n = self.keylen
        X, D = [0] * n, 1
        if free is not None:
            X[free] = 1  # stays equal to D
        with_rhs = free is None and self.width > n
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            s = (row[n] * D if with_rhs else 0) - sum(map(mul, row[lead + 1:n], X[lead + 1:n]))
            den = row[lead] * D
            g = gcd(s, den) if den > 0 else -gcd(s, den)
            num, den = s // g, den // g
            grow = den // gcd(den, D)
            if grow != 1:
                X = [x * grow for x in X]
                D *= grow
            X[lead] = num * (D // den)
        return X, D

    def solve(self):
        """Particular solution and kernel basis as Fractions: the view
        X / D of ``back_substitute``."""
        views = [self.back_substitute(c) for c in [None] + self.free_columns()]
        particular, *kernel = [[Fraction(x, D) for x in X] for X, D in views]
        return particular, kernel

    def push(self, row):
        """Add a row; returns (consistent, pivot_added)."""
        lead, reduced = self._reduce(list(row))
        if lead is None:
            ok = all(v == 0 for v in reduced[self.keylen:])
            self._trail.append(None)
            return ok, False
        self.pivots[lead] = reduced
        self._trail.append(lead)
        return True, True

    def pop(self):
        lead = self._trail.pop()
        if lead is not None:
            del self.pivots[lead]

    def depth(self):
        return len(self._trail)
