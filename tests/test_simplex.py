import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyrigid import simplex

scipy_linprog = pytest.importorskip("scipy.optimize").linprog

# what ``test_pivot_paths_are_pinned`` reads off its 2,400 LPs
PINNED_STATUSES = {simplex.OPTIMAL: 668, simplex.INFEASIBLE: 665, simplex.UNBOUNDED: 1067}
PINNED_DIGEST = "03d8a48b204f6446872cf67bcbdb0e1c577315c8e9b41763b8bfe06b91586163"


def test_trivial_feasible():
    x = simplex.feasible_point([[1, 0], [0, 1]], [1, 1])
    assert x is not None
    assert x[0] <= 1 and x[1] <= 1


def test_empty_constraints():
    assert simplex.maximize([0, 0, 0], [], []) == (simplex.OPTIMAL, [0, 0, 0], 0)


def test_infeasible_pair():
    # x <= 0 and -x <= -1 cannot both hold
    assert simplex.feasible_point([[1], [-1]], [0, -1]) is None


def test_feasible_negative_rhs():
    x = simplex.feasible_point([[-1], [1]], [-3, 10])
    assert x is not None and 3 <= x[0] <= 10


def test_maximize_box():
    status, x, value = simplex.maximize(
        [1, 1], [[1, 0], [0, 1], [-1, 0], [0, -1]], [2, 3, 0, 0]
    )
    assert status == simplex.OPTIMAL
    assert value == 5
    assert x == [2, 3]


def test_maximize_unbounded():
    status, _, _ = simplex.maximize([1], [[-1]], [0])
    assert status == simplex.UNBOUNDED


def test_maximize_infeasible():
    status, _, _ = simplex.maximize([1], [[1], [-1]], [-1, 0])
    assert status == simplex.INFEASIBLE


def test_degenerate_equalities_via_pairs():
    # x = 1 encoded as two inequalities plus a redundant copy
    rows = [[1], [-1], [1], [-1]]
    rhs = [1, -1, 1, -1]
    x = simplex.feasible_point(rows, rhs)
    assert x == [1]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_feasibility_agrees_with_scipy(nvars, nrows, data):
    coeff = st.integers(-4, 4)
    rows = [
        [Fraction(data.draw(coeff)) for _ in range(nvars)] for _ in range(nrows)
    ]
    rhs = [Fraction(data.draw(coeff)) for _ in range(nrows)]
    ours = simplex.feasible_point(rows, rhs)
    res = scipy_linprog(
        [0.0] * nvars,
        A_ub=[[float(x) for x in row] for row in rows],
        b_ub=[float(b) for b in rhs],
        bounds=[(None, None)] * nvars,
        method="highs",
    )
    assert (ours is not None) == res.success
    if ours is not None:
        # exact verification of our certificate
        for row, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(row, ours)) <= b


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_optimum_agrees_with_scipy(nvars, nrows, data):
    coeff = st.integers(-4, 4)
    costs = [Fraction(data.draw(coeff)) for _ in range(nvars)]
    rows = [
        [Fraction(data.draw(coeff)) for _ in range(nvars)] for _ in range(nrows)
    ]
    rhs = [Fraction(data.draw(coeff)) for _ in range(nrows)]
    status, x, value = simplex.maximize(costs, rows, rhs)
    res = scipy_linprog(
        [-float(c) for c in costs],
        A_ub=[[float(v) for v in row] for row in rows],
        b_ub=[float(b) for b in rhs],
        bounds=[(None, None)] * nvars,
        method="highs",
    )
    if status == simplex.INFEASIBLE:
        assert not res.success and res.status == 2
    elif status == simplex.UNBOUNDED:
        # HiGHS can call an unbounded LP infeasible: for max y + z subject to
        # x - y <= 0, z <= 0, -x + y + z <= 1 it answers status 2, though 0 is
        # feasible and x = y -> oo is a ray.  So unboundedness is checked by
        # its definition, with two bounded LPs: the constraints are feasible,
        # and some d in the unit box with A d <= 0 has c.d > 0.
        a_ub = [[float(v) for v in row] for row in rows]
        feasible = scipy_linprog(
            [0.0] * nvars, A_ub=a_ub, b_ub=[float(b) for b in rhs],
            bounds=[(None, None)] * nvars, method="highs",
        )
        ray = scipy_linprog(
            [-float(c) for c in costs], A_ub=a_ub, b_ub=[0.0] * nrows,
            bounds=[(-1, 1)] * nvars, method="highs",
        )
        assert feasible.success and ray.success and -ray.fun > 1e-9
    else:
        assert res.success
        assert abs(float(value) + res.fun) < 1e-7
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, x)) <= b


def seeded_lps(count, seed):
    """``count`` small LPs (costs, rows, rhs) from one seed: 1-4 variables
    and 0-7 rows of small fractions.  About a third pair their first row
    with its negation (an equality, degenerate at every vertex on it), a
    fifth repeat a row, and a fifth have zero costs."""
    rng = random.Random(seed)

    def value():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))

    for _ in range(count):
        n = rng.randint(1, 4)
        m = rng.randint(0, 7)
        rows = [[value() for _ in range(n)] for _ in range(m)]
        rhs = [value() for _ in range(m)]
        if m and rng.random() < 0.3:
            rows.append([-a for a in rows[0]])
            rhs.append(-rhs[0])
        if m and rng.random() < 0.2:
            i = rng.randrange(len(rows))
            rows.append(list(rows[i]))
            rhs.append(rhs[i])
        costs = [0] * n if rng.random() < 0.2 else [value() for _ in range(n)]
        yield costs, rows, rhs


def test_pivot_paths_are_pinned():
    # Bland's rule picks one vertex among the optima, and an LP leaf's
    # witness is that vertex; so any change of pivot path changes reports.
    # The digest was taken from the two-phase tableau that preceded the
    # present one, over the reprs (types included) of both entry points.
    outputs = []
    statuses = Counter()
    for costs, rows, rhs in seeded_lps(2400, seed=27):
        result = simplex.maximize(costs, rows, rhs)
        statuses[result[0]] += 1
        point = simplex.feasible_point(rows, rhs) if rows else None
        outputs.append(repr((result, point)))
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert dict(statuses) == PINNED_STATUSES
    assert digest == PINNED_DIGEST
