"""Differential tests against sympy: _linalg.rref and _linalg.rank against
sympy.Matrix.rref() and .rank() on random small rational matrices, including
rank-deficient and empty ones.  sympy is a test-only dependency."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf._linalg import rank, rref

sympy = pytest.importorskip("sympy")


def sympy_matrix(rows, ncols):
    entries = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    return sympy.Matrix(len(rows), ncols, entries)


def sympy_rref(rows, ncols):
    """sympy's reduced row echelon form cut to its nonzero rows, as rref
    returns it."""
    reduced, pivots = sympy_matrix(rows, ncols).rref()
    nonzero = tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
        for i in range(len(pivots))
    )
    return nonzero, tuple(pivots)


@st.composite
def rational_matrices(draw):
    """Up to 5 x 5; every row past the first ``independent`` ones is a small
    integer combination of those, so most draws are rank-deficient."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    independent = draw(st.integers(0, nrows))
    rows = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=independent,
            max_size=independent,
        )
    )
    for _ in range(nrows - independent):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=independent, max_size=independent))
        rows.append(
            [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]
        )
    return draw(st.permutations(rows)), ncols


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_and_rank_match_sympy(matrix):
    rows, ncols = matrix
    assert rref(rows) == sympy_rref(rows, ncols)
    assert rank(rows) == sympy_matrix(rows, ncols).rank()


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([], 3),  # no rows
        ([[], []], 0),  # no columns
        ([[0, 0, 0], [0, 0, 0]], 3),  # zero matrix
        ([[1, 2, 3], [2, 4, 6], [Fraction(-1, 2), -1, Fraction(-3, 2)]], 3),  # rank 1
        ([[0, 1], [1, 0], [1, 1]], 2),  # more rows than rank
        ([[Fraction(1, 3), 0, 1], [0, 0, 2]], 3),  # pivot skips a column
    ],
)
def test_rref_and_rank_on_edge_cases(rows, ncols):
    rows = [[Fraction(x) for x in row] for row in rows]
    assert rref(rows) == sympy_rref(rows, ncols)
    assert rank(rows) == sympy_matrix(rows, ncols).rank()
