"""Exact linear algebra over the rationals.

Matrices come in as plain lists of ``fractions.Fraction`` (or ints).  Every
rank, solve and kernel runs the one incremental integer elimination,
``IncrementalSystem``, on sparse rows: a row is a dict from column to
nonzero int.  Solutions are back-substituted fraction-free.  No floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# a row is divided by its gcd once its leading entry exceeds this in size
_NORMALIZE_ABOVE = 1 << 24


def integerize_row(row):
    """A rational row as a sparse row of coprime integers (sign preserved).

    Row scaling by a positive rational leaves rank, consistency and
    solution sets of homogeneous comparisons unchanged.  Zeros are dropped.
    """
    scale = lcm(*(x.denominator for x in row if x))
    return primitive({c: x.numerator * (scale // x.denominator) for c, x in enumerate(row) if x})


def primitive(row):
    """A sparse integer row divided by the gcd of its entries (sign kept)."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def mat_rank(rows):
    """Rank of a rational matrix: the pivots left by pushing its rows."""
    if not rows:
        return 0
    width = len(rows[0])
    system = IncrementalSystem(width, keylen=width)
    for row in rows:
        if len(system.pivots) == width:
            break
        system.push(integerize_row(row))
    return len(system.pivots)


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


def affine_point(particular, kernel, t):
    """particular + sum_j t[j] * kernel[j]."""
    return [x + sum(tj * k[i] for tj, k in zip(t, kernel)) for i, x in enumerate(particular)]


class IncrementalSystem:
    """Row-by-row consistency tracking for an augmented system [A | b].

    Rows are pushed (and popped, stack-wise) as sparse integer rows, dicts
    from column to nonzero int, with the right-hand side at column
    ``width - 1``.  ``push`` reduces the new row against the pivot rows
    accumulated so far and reports whether the system stays consistent.
    Pivoting never touches earlier rows, so popping is O(1).

    The same machine doubles as a relative-kernel checker: with ``keylen``
    set, only the columns below ``keylen`` act as the coefficient part and
    the columns from ``keylen`` on are a check part that must vanish
    whenever the coefficient part reduces to zero.
    """

    def __init__(self, width, keylen=None):
        self.width = width
        self.keylen = width - 1 if keylen is None else keylen
        self.pivots = {}  # lead column -> sparse integer row
        self._trail = []  # lead columns added, for popping

    def reduce(self, row):
        """(lead, reduced row), lead None once the coefficient part is zero.
        The row is a positive multiple of the input minus pivot rows, so a
        constant row's right-hand side is negative exactly when coef . x >
        rhs at every solution x.  New dicts: pushed rows are never mutated."""
        pivots, keylen = self.pivots, self.keylen
        while row:
            lead = min(row)
            if lead >= keylen:
                break
            b = row[lead]
            # entries grow by the leads they are multiplied with; dividing
            # by the gcd only once the lead is large keeps the check O(1)
            if not -_NORMALIZE_ABOVE <= b <= _NORMALIZE_ABOVE:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
                    b = row[lead]
            piv = pivots.get(lead)
            if piv is None:
                return lead, row
            a = piv[lead]
            if a < 0:  # scale by |a|: the input's multiplier stays positive
                a, b = -a, -b
            row = {c: a * x for c, x in row.items()} if a != 1 else row.copy()
            for c, y in piv.items():
                v = row.get(c, 0) - b * y
                if v:
                    row[c] = v
                else:
                    del row[c]
        return None, row

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
        X, D = [0] * self.width, 1  # entries from n on stay zero
        if free is not None:
            X[free] = 1  # stays equal to D
        with_rhs = free is None and self.width > n
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            s = (row.get(n, 0) * D if with_rhs else 0) - sum(y * X[c] for c, y in row.items())
            den = row[lead] * D
            g = gcd(s, den) if den > 0 else -gcd(s, den)
            num, den = s // g, den // g
            grow = den // gcd(den, D)
            if grow != 1:
                X = [x * grow for x in X]
                D *= grow
            X[lead] = num * (D // den)
        return X[:n], D

    def solve(self):
        """Particular solution and kernel basis as Fractions: the view
        X / D of ``back_substitute``."""
        views = [self.back_substitute(c) for c in [None] + self.free_columns()]
        particular, *kernel = [[Fraction(x, D) for x in X] for X, D in views]
        return particular, kernel

    def push(self, row):
        """Add a sparse row; returns (consistent, pivot_added)."""
        lead, reduced = self.reduce(row)
        if lead is None:
            self._trail.append(None)
            return not reduced, False
        self.pivots[lead] = reduced
        self._trail.append(lead)
        return True, True

    def pop(self):
        lead = self._trail.pop()
        if lead is not None:
            del self.pivots[lead]
