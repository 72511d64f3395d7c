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


def maximize(costs, ineq_rows, ineq_rhs):
    """Maximize costs.x over {x : ineq_rows @ x <= ineq_rhs}, x free.

    Returns (status, x, value); x and value are None unless optimal.

    The tableau ``tab`` holds one row per constraint and, while a phase
    runs, the reduced costs as its last row; its last column is the
    right-hand side (-z in the cost row).  The columns are u and w with
    x = u - w, one slack per constraint, and one artificial per negative
    right-hand side, whose row is negated.
    """
    n, m = len(costs), len(ineq_rows)
    base = 2 * n + m
    width = base + sum(1 for b in ineq_rhs if b < 0)
    artificials = iter(range(base, width))
    tab, basis = [], []
    for i, (a, b) in enumerate(zip(ineq_rows, ineq_rhs)):
        sign = -1 if b < 0 else 1
        a = [sign * Fraction(x) for x in a]
        row = a + [-x for x in a] + [Fraction(0)] * (width - 2 * n) + [sign * Fraction(b)]
        row[2 * n + i] = Fraction(sign)  # the slack
        basis.append(next(artificials) if b < 0 else 2 * n + i)
        row[basis[-1]] = Fraction(1)  # a unit column for the basic variable
        tab.append(row)

    def pivot(r, col):
        p = tab[r][col]
        tab[r] = [x / p for x in tab[r]]
        for i, row in enumerate(tab):
            f = row[col]
            if i != r and f != 0:
                tab[i] = [x - f * y for x, y in zip(row, tab[r])]
        basis[r] = col

    def run(phase_costs, allowed):
        """Append the reduced costs of ``phase_costs`` and minimize them,
        entering only columns below ``allowed``; False when unbounded."""
        obj = [Fraction(c) for c in phase_costs] + [Fraction(0)]
        for row, col in zip(tab, basis):
            f = obj[col]
            if f != 0:
                obj = [x - f * y for x, y in zip(obj, row)]
        tab.append(obj)
        while True:
            enter = next((j for j in range(allowed) if tab[-1][j] < 0), None)
            if enter is None:
                return True
            # Bland: least ratio, ties to the least basic column
            ratios = [
                (row[-1] / row[enter], basis[i], i)
                for i, row in enumerate(tab[:-1]) if row[enter] > 0
            ]
            if not ratios:
                return False
            pivot(min(ratios)[2], enter)

    if width > base:
        run([0] * base + [1] * (width - base), width)
        if tab[-1][-1] != 0:
            return INFEASIBLE, None, None
        # Pivot artificials stuck in the basis (necessarily at value 0) out;
        # rows whose non-artificial part vanished are redundant and must be
        # dropped, or later pivots could push the artificial off zero.
        for i in range(m):
            if basis[i] >= base:
                j = next((j for j in range(base) if tab[i][j] != 0), None)
                if j is not None:
                    pivot(i, j)
        kept = [i for i in range(m) if basis[i] < base]
        tab[:] = [tab[i] for i in kept]
        basis[:] = [basis[i] for i in kept]

    # minimize -c.(u - w)
    if not run([-c for c in costs] + list(costs) + [0] * (width - 2 * n), base):
        return UNBOUNDED, None, None
    values = [Fraction(0)] * width
    for row, col in zip(tab, basis):
        values[col] = row[-1]
    return OPTIMAL, [values[j] - values[n + j] for j in range(n)], tab[-1][-1]


def feasible_point(ineq_rows, ineq_rhs):
    """A point of {x : A x <= b} with x free (A has rows), or None when empty."""
    return maximize([Fraction(0)] * len(ineq_rows[0]), ineq_rows, ineq_rhs)[1]  # None unless optimal
