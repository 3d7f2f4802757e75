"""Exact linear algebra: the integer row reduction behind spans, rank and
null space, checked against the Fraction row reduction, solver and
nonnegative feasibility solver of ``fraction_oracle``, which are tested here
too."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracle import (cone_contains, lp_feasible, rref, rref_null_space,
                             solve_linear)
from moment_strata.linalg import SpanBasis, dot, frac, matrix_rank, null_space

entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                           min_size=1, max_size=max_rows))


def test_frac_accepts_ints_strings_fractions():
    assert frac(3) == Fraction(3)
    assert frac("2/7") == Fraction(2, 7)
    assert frac(Fraction(1, 2)) == Fraction(1, 2)


def test_rref_of_identity_like_matrix():
    rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0] == [Fraction(1), Fraction(0)]
    assert reduced[1] == [Fraction(0), Fraction(1)]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_bounded_and_rref_idempotent(rows):
    r = matrix_rank(rows)
    assert 0 <= r <= min(len(rows), len(rows[0]))
    reduced, pivots = rref([list(row) for row in rows])
    assert len(pivots) == r
    again, pivots2 = rref([list(row) for row in reduced])
    assert pivots2 == pivots
    assert again[:len(pivots)] == reduced[:len(pivots)]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_null_space_vectors_annihilate_rows(rows):
    ncols = len(rows[0])
    basis = null_space(rows, ncols)
    assert len(basis) == ncols - matrix_rank(rows)
    for v in basis:
        for row in rows:
            assert dot(tuple(row), v) == 0
    # basis vectors are independent
    assert matrix_rank([list(v) for v in basis]) == len(basis)


@settings(max_examples=80, deadline=None)
@given(matrices(max_rows=4, max_cols=4),
       st.lists(entries, min_size=4, max_size=4))
def test_solve_linear_solutions_check_out(rows, x):
    ncols = len(rows[0])
    x = x[:ncols]
    b = [dot(tuple(row), tuple(x)) for row in rows]
    sol = solve_linear(rows, b)
    assert sol is not None
    for row, rhs in zip(rows, b):
        assert dot(tuple(row), tuple(sol)) == rhs


def test_solve_linear_detects_inconsistency():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_linear(rows, [Fraction(1), Fraction(3)]) is None


# rows from a few random rows and their combinations, so that dependent and
# zero rows are common; an empty row list has no column count of its own
@st.composite
def dependent_matrices(draw):
    ncols = draw(st.integers(1, 6))
    seeds = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=1, max_size=4))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(seeds), max_size=len(seeds))
    combos = draw(st.lists(coeffs, max_size=4))
    rows = seeds + [[sum((Fraction(c) * r[i] for c, r in zip(cs, seeds)), Fraction(0))
                     for i in range(ncols)] for cs in combos]
    rows = draw(st.permutations(rows))
    return draw(st.integers(0, len(rows)).map(lambda k: rows[:k])), ncols


@settings(max_examples=200, deadline=None)
@given(dependent_matrices())
def test_rank_and_null_space_match_the_rref_oracle(case):
    rows, ncols = case
    assert matrix_rank(rows) == len(rref(rows)[1])
    assert null_space(rows, ncols) == rref_null_space(rows, ncols)


def test_rank_and_null_space_of_empty_and_zero_rows():
    zero = [[Fraction(0)] * 3, [Fraction(0)] * 3]
    identity = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    for rows in ([], zero):
        assert matrix_rank(rows) == 0
        assert null_space(rows, 3) == rref_null_space(rows, 3) == identity


@settings(max_examples=100, deadline=None)
@given(dependent_matrices())
def test_reduced_rows_are_zero_at_every_other_pivot(case):
    rows, _ = case
    sb = SpanBasis()
    for row in rows:
        sb.add({i: v for i, v in enumerate(row) if v})
    reduced = sb.reduced_rows()
    assert set(reduced) == set(sb.rows)
    for c, row in reduced.items():
        assert min(row) == c and row[c] > 0
        assert not any(k in reduced for k in row if k != c)
        # the same span, row by row
        assert sb.contains({k: Fraction(v) for k, v in row.items()})


def test_span_basis_scales_whole_row_during_reduction():
    # the incoming row must be rescaled entirely, including coordinates the
    # pivot row does not touch; a partial rescale fabricates a wrong span
    sb = SpanBasis()
    assert sb.add({0: Fraction(2), 2: Fraction(1)})
    assert sb.add({0: Fraction(3), 1: Fraction(5)})
    assert sb.dim == 2
    # 1*(2,0,1) + 1*(3,5,0) = (5,5,1)
    assert sb.contains({0: Fraction(5), 1: Fraction(5), 2: Fraction(1)})
    # and a near miss stays out
    assert not sb.contains({0: Fraction(5), 1: Fraction(5), 2: Fraction(2)})


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=6, max_cols=5))
def test_span_basis_agrees_with_matrix_rank(rows):
    sb = SpanBasis()
    accepted = 0
    for row in rows:
        entries_dict = {i: v for i, v in enumerate(row) if v != 0}
        if sb.add(entries_dict):
            accepted += 1
    assert accepted == sb.dim == matrix_rank(rows)
    for row in rows:
        assert sb.contains({i: v for i, v in enumerate(row) if v != 0})


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=4, max_cols=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_span_basis_contains_matches_rank_test(rows, coeffs):
    sb = SpanBasis()
    for row in rows:
        sb.add({i: v for i, v in enumerate(row) if v != 0})
    ncols = len(rows[0])
    combo = [sum((Fraction(c) * row[i] for c, row in zip(coeffs, rows)),
                 Fraction(0)) for i in range(ncols)]
    assert sb.contains({i: v for i, v in enumerate(combo) if v != 0})


def test_lp_feasible_finds_nonnegative_solution():
    # x + y = 3, x - y = 1 has the nonnegative solution (2, 1)
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    sol = lp_feasible(a, [Fraction(3), Fraction(1)])
    assert sol is not None
    assert all(x >= 0 for x in sol)
    assert sol[0] + sol[1] == 3
    assert sol[0] - sol[1] == 1


def test_lp_feasible_rejects_impossible_system():
    # x + y = -1 has no nonnegative solution
    a = [[Fraction(1), Fraction(1)]]
    assert lp_feasible(a, [Fraction(-1)]) is None


def test_cone_membership():
    gens = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    assert cone_contains(gens, (Fraction(3), Fraction(1)))
    assert cone_contains(gens, (Fraction(0), Fraction(0)))
    assert not cone_contains(gens, (Fraction(-1), Fraction(0)))
    assert not cone_contains(gens, (Fraction(0), Fraction(1)))


int_rows = st.lists(st.dictionaries(st.integers(0, 6), st.integers(-6, 6), max_size=5),
                    max_size=8)


@settings(max_examples=100, deadline=None)
@given(int_rows)
def test_add_int_row_matches_add(rows):
    # the integer path must build the same basis as the Fraction path
    by_int, by_frac = SpanBasis(), SpanBasis()
    for row in rows:
        grew = by_int.add_int_row(row)
        assert grew == by_frac.add({k: Fraction(v) for k, v in row.items()})
        assert by_int.basis_rows() == by_frac.basis_rows()
