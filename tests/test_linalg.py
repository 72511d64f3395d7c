from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from polyrigid.linalg import (
    IncrementalSystem,
    dot,
    integerize_row,
    mat_rank,
    solve_affine,
)

from _oracles import fraction_rank, fraction_solve, mat_vec, sparse_row

# the values of st.fractions(min_value=-5, max_value=5, max_denominator=6),
# simplest first (Hypothesis shrinks towards the front); that strategy's
# flat-mapped draw of each entry costs far more than the code under test
small_fraction = st.sampled_from(sorted(
    {Fraction(p, q) for q in range(1, 7) for p in range(-5 * q, 5 * q + 1)},
    key=lambda x: (x.denominator, abs(x), x < 0),
))


def vectors(elements, size):
    # whole rows and matrices in one draw, not one data.draw per entry
    return st.lists(elements, min_size=size, max_size=size)


def test_integerize_row():
    assert integerize_row([Fraction(1, 2), Fraction(1, 3)]) == sparse_row([3, 2])
    assert integerize_row([Fraction(-2), Fraction(4)]) == sparse_row([-1, 2])
    assert integerize_row([0, 0]) == sparse_row([0, 0])


def test_rank_basics():
    assert mat_rank([]) == 0
    assert mat_rank([[0, 0], [0, 0]]) == 0
    assert mat_rank([[1, 0], [0, 1]]) == 2
    assert mat_rank([[1, 2], [2, 4]]) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(1, 7),
    st.data(),
)
def test_rank_matches_plain_elimination(nrows, ncols, data):
    # tall, wide and empty shapes; zero rows and repeated (scaled) rows
    rows = data.draw(vectors(vectors(small_fraction, ncols), nrows))
    kinds = data.draw(st.lists(st.sampled_from(["drawn", "drawn", "zero", "repeat"]), min_size=nrows, max_size=nrows))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            rows[i] = [Fraction(0)] * ncols
        elif kind == "repeat" and i:
            scale = data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            rows[i] = [scale * x for x in rows[data.draw(st.integers(0, i - 1))]]
    assert mat_rank(rows) == fraction_rank(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_solve_affine_solution_and_kernel(nrows, ncols, data):
    rows = data.draw(vectors(vectors(small_fraction, ncols), nrows))
    x0 = data.draw(vectors(small_fraction, ncols))
    rhs = mat_vec(rows, x0)  # consistent by construction
    solved = solve_affine(rows, rhs)
    assert solved is not None
    particular, kernel = solved
    assert mat_vec(rows, particular) == rhs
    for k in kernel:
        assert all(v == 0 for v in mat_vec(rows, k))
    assert len(kernel) == ncols - fraction_rank(rows)


def test_solve_affine_inconsistent():
    assert solve_affine([[1, 1], [1, 1]], [1, 2]) is None


def test_kernels():
    # the homogeneous system's kernel basis
    rows = [[1, 1, 0], [0, 0, 1]]
    particular, ker = solve_affine(rows, [0, 0])
    assert particular == [0, 0, 0] and len(ker) == 1
    assert all(all(x == 0 for x in mat_vec(rows, k)) for k in ker)


def test_incremental_system_consistency_tracking():
    # x + y = 2; x - y = 0; their sum forces 2x = 2, so x + 0y = 3 clashes
    sys_ = IncrementalSystem(3)
    ok, _ = sys_.push(sparse_row([1, 1, 2]))
    assert ok
    ok, _ = sys_.push(sparse_row([1, -1, 0]))
    assert ok
    ok, added = sys_.push(sparse_row([1, 0, 3]))
    assert not ok and not added
    sys_.pop()
    ok, _ = sys_.push(sparse_row([1, 0, 1]))  # consistent with x = y = 1
    assert ok


def test_incremental_system_pop_restores_state():
    sys_ = IncrementalSystem(3)
    sys_.push(sparse_row([1, 0, 1]))
    pivots = dict(sys_.pivots)
    ok, _ = sys_.push(sparse_row([1, 0, 2]))  # contradicts
    assert not ok
    sys_.pop()
    assert sys_.pivots == pivots
    ok, _ = sys_.push(sparse_row([0, 1, 5]))
    assert ok


def test_incremental_solve_matches_solve_affine():
    rows = [[2, 1, 0], [0, 3, 1]]
    rhs = [4, 6]
    sys_ = IncrementalSystem(4)
    for r, b in zip(rows, rhs):
        ok, _ = sys_.push(sparse_row(r + [b]))
        assert ok
    particular, kernel = sys_.solve()
    assert mat_vec(rows, particular) == [Fraction(4), Fraction(6)]
    assert len(kernel) == 1
    assert all(v == 0 for v in mat_vec(rows, kernel[0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_back_substitution_matches_fraction_elimination(nrows, ncols, consistent, data):
    # a few distinct small values and repeated rows make rank deficiency common
    entry = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 5)])
    rows = data.draw(vectors(vectors(entry, ncols), nrows))
    if nrows > 1 and data.draw(st.booleans()):
        rows[-1] = [2 * x for x in rows[0]]
    x0 = data.draw(vectors(small_fraction, ncols))
    rhs = mat_vec(rows, x0) if consistent else data.draw(vectors(small_fraction, nrows))
    reference = fraction_solve(rows, rhs)

    system = IncrementalSystem(ncols + 1)
    pushed = [system.push(integerize_row(r + [b]))[0] for r, b in zip(rows, rhs)]
    assert all(pushed) == (reference is not None)
    if reference is None:
        return
    particular, kernel, free = reference
    assert system.free_columns() == free
    X, D = system.back_substitute()
    assert D > 0 and [Fraction(x, D) for x in X] == particular
    assert D == lcm(*(x.denominator for x in particular))  # least common denominator
    for fc, k in zip(free, kernel):
        K, E = system.back_substitute(fc)
        assert E > 0 and [Fraction(x, E) for x in K] == k
    assert system.solve() == (particular, kernel)
    assert solve_affine(rows, rhs) == (particular, kernel)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_reduce_signs_a_constant_row_by_its_gap(nrows, ncols, data):
    # a row whose coefficients are a combination of the pushed rows is
    # constant on their solutions: it reduces to lead None, with its
    # right-hand side of the sign of rhs - coef . x; adding a kernel
    # vector takes the coefficients out of the row space, and gives a lead
    entry = st.sampled_from([Fraction(0)] * 2 + [Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 5)])
    rows = data.draw(vectors(vectors(entry, ncols), nrows))
    x0 = data.draw(vectors(small_fraction, ncols))
    rhs = mat_vec(rows, x0)
    particular, kernel, _ = fraction_solve(rows, rhs)
    system = IncrementalSystem(ncols + 1)
    assert all(system.push(integerize_row(r + [b]))[0] for r, b in zip(rows, rhs))

    weights = data.draw(vectors(small_fraction, nrows))
    coef = [dot(weights, col) for col in zip(*rows)]
    b = data.draw(small_fraction)
    lead, reduced = system.reduce(integerize_row(coef + [b]))
    assert lead is None and set(reduced) <= {ncols}
    gap = b - dot(coef, particular)
    assert (reduced.get(ncols, 0) > 0) - (reduced.get(ncols, 0) < 0) == (gap > 0) - (gap < 0)

    if kernel:
        outside = [x + k for x, k in zip(coef, data.draw(st.sampled_from(kernel)))]
        lead, reduced = system.reduce(integerize_row(outside + [b]))
        assert lead is not None and lead < ncols and lead not in system.pivots


def test_dot():
    assert dot([1, 2], [3, 4]) == 11
