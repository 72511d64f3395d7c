"""Exact rational linear programming by two-phase simplex.

Solves  maximize c.x  subject to  A x <= b  with x free, entirely over
``fractions.Fraction``.  Free variables are split into positive parts,
slacks complete the rows, and phase one drives artificial variables out
of the basis.  Pivoting uses Bland's rule throughout, so the method
terminates without cycling; answers are exact feasibility or optimality
certificates, never approximations.
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _Tableau:
    def __init__(self, rows, basis, nvars):
        self.rows = rows          # m x (nvars + 1), last column is rhs
        self.basis = basis        # basic variable index per row
        self.nvars = nvars
        self.obj = None           # reduced-cost row, length nvars + 1

    def set_objective(self, costs):
        """Install a minimization objective given per-variable costs."""
        obj = [Fraction(x) for x in costs] + [Fraction(0)]
        for i, bv in enumerate(self.basis):
            cb = obj[bv]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.nvars + 1):
                    obj[j] -= cb * row[j]
        self.obj = obj

    def pivot(self, row, col):
        r = self.rows[row]
        p = r[col]
        self.rows[row] = [x / p for x in r]
        r = self.rows[row]
        for i, other in enumerate(self.rows):
            if i != row and other[col] != 0:
                f = other[col]
                self.rows[i] = [a - f * b for a, b in zip(other, r)]
        f = self.obj[col]
        if f != 0:
            self.obj = [a - f * b for a, b in zip(self.obj, r)]
        self.basis[row] = col

    def run(self, allowed):
        """Minimize until optimal; returns False when unbounded.

        ``allowed`` bounds the entering-variable indices (used to keep
        phase-two pivots out of the artificial columns).
        """
        while True:
            enter = None
            for j in range(allowed):
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return True
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return False
            self.pivot(leave, enter)


def maximize(costs, ineq_rows, ineq_rhs):
    """Maximize costs.x over {x : ineq_rows @ x <= ineq_rhs}, x free.

    Returns (status, x, value); x and value are None unless optimal.
    """
    n = len(costs)
    m = len(ineq_rows)
    if m == 0:
        if all(c == 0 for c in costs):
            return OPTIMAL, [Fraction(0)] * n, Fraction(0)
        return UNBOUNDED, None, None

    # variables: u (n), w (n), slacks (m), artificials appended as needed
    base_vars = 2 * n + m
    rows = []
    basis = []
    artificial_cols = []
    for i in range(m):
        a = [Fraction(x) for x in ineq_rows[i]]
        rhs = Fraction(ineq_rhs[i])
        row = a + [-x for x in a] + [Fraction(0)] * m + [rhs]
        row[2 * n + i] = Fraction(1)
        if rhs < 0:
            row = [-x for x in row]
            artificial_cols.append(i)
            basis.append(None)  # artificial, column assigned below
        else:
            basis.append(2 * n + i)
        rows.append(row)

    nart = len(artificial_cols)
    nvars = base_vars + nart
    for row in rows:
        rhs = row.pop()
        row.extend([Fraction(0)] * nart)
        row.append(rhs)
    for j, i in enumerate(artificial_cols):
        col = base_vars + j
        rows[i][col] = Fraction(1)
        basis[i] = col

    tab = _Tableau(rows, basis, nvars)

    if nart:
        tab.set_objective([Fraction(0)] * base_vars + [Fraction(1)] * nart)
        tab.run(nvars)
        if -tab.obj[-1] != 0:  # objective row keeps -z in the rhs slot
            return INFEASIBLE, None, None
        # Pivot artificials stuck in the basis (necessarily at value 0) out;
        # rows whose non-artificial part vanished are redundant and must be
        # dropped, or later pivots could push the artificial off zero.
        keep = []
        for i in range(len(tab.rows)):
            if tab.basis[i] >= base_vars:
                for j in range(base_vars):
                    if tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break
            if tab.basis[i] < base_vars:
                keep.append(i)
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    # minimize -c.(u - w)
    phase2 = (
        [-Fraction(c) for c in costs]
        + [Fraction(c) for c in costs]
        + [Fraction(0)] * (m + nart)
    )
    tab.set_objective(phase2)
    if not tab.run(base_vars):
        return UNBOUNDED, None, None

    values = [Fraction(0)] * nvars
    for i, bv in enumerate(tab.basis):
        values[bv] = tab.rows[i][-1]
    x = [values[j] - values[n + j] for j in range(n)]
    return OPTIMAL, x, tab.obj[-1]


def feasible_point(ineq_rows, ineq_rhs):
    """A point of {x : A x <= b} with x free (A has rows), or None when empty."""
    return maximize([Fraction(0)] * len(ineq_rows[0]), ineq_rows, ineq_rhs)[1]  # None unless optimal
