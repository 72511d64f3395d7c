"""Exact linear algebra over the rationals.

Everything here works on plain lists of ``fractions.Fraction`` (or ints).
Ranks are computed with fraction-free Bareiss elimination after clearing
denominators row by row; solving and kernel extraction run the one
incremental integer elimination, ``IncrementalSystem``, and back-substitute
its echelon rows.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def integerize_row(row):
    """Scale a rational row to coprime integers (sign preserved).

    Row scaling by a positive rational leaves rank, consistency and
    solution sets of homogeneous comparisons unchanged.
    """
    lcm = 1
    for x in row:
        d = Fraction(x).denominator
        lcm = lcm // gcd(lcm, d) * d
    ints = [int(x * lcm) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


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
                g = 0
                for v in row:
                    g = gcd(g, abs(v))
                if g > 1:
                    row = [v // g for v in row]
            start = lead + 1

    def solve(self):
        """Particular solution and kernel basis of the accumulated system.

        Back-substitutes the integer echelon pivots directly (free
        variables at zero), avoiding a fresh elimination.  Only valid when
        every pushed row reported consistent.
        """
        n = self.keylen
        leads = sorted(self.pivots)
        lead_set = self.pivots.keys()
        free = [c for c in range(n) if c not in lead_set]

        def back_substitute(rhs_of):
            x = [Fraction(0)] * n
            for l in reversed(leads):
                row = self.pivots[l]
                s = rhs_of(row)
                for c in range(l + 1, n):
                    if row[c] and x[c]:
                        s -= row[c] * x[c]
                x[l] = Fraction(s, row[l])
            return x

        particular = back_substitute(lambda row: row[n] if len(row) > n else 0)
        kernel = []
        for fc in free:
            vec = back_substitute(lambda row: -row[fc])
            vec[fc] = Fraction(1)
            kernel.append(vec)
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
