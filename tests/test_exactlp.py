from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import linprog

from hiddenpartition.exactlp import minimise


def as_fractions(optimum):
    return (Fraction(optimum.value, optimum.den),
            [Fraction(pi, optimum.den) for pi in optimum.duals])


def test_optimum_and_duals_of_a_small_lp():
    # maximise x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6: the vertex
    # (8/5, 6/5), and the duals solve pi B = c_B there
    optimum = minimise([[1, 2, 1, 0], [3, 1, 0, 1]], [4, 6], [-1, -1, 0, 0])
    assert optimum.den > 0
    assert as_fractions(optimum) == (Fraction(-14, 5), [Fraction(-2, 5), Fraction(-1, 5)])


def test_blands_rule_does_not_cycle_on_beales_example():
    # Beale's LP, on which the largest-coefficient rule cycles, scaled to
    # integers (objective by 4, rows by 4 and 2); its optimum is -5/4 * 4
    a = [[1, -32, -4, 36, 1, 0, 0], [1, -24, -1, 6, 0, 1, 0], [0, 0, 1, 0, 0, 0, 1]]
    optimum = minimise(a, [0, 0, 1], [-3, 80, -2, 24, 0, 0, 0])
    value, duals = as_fractions(optimum)
    assert value == -5
    assert sum(pi * b for pi, b in zip(duals, [0, 0, 1])) == value


@pytest.mark.parametrize(
    "a, b, c, reason",
    [([[1, 1], [1, 1]], [1, 2], [0, 0], "no feasible point"),
     ([[1, -1]], [0], [-1, 0], "unbounded"),
     ([[1, 1], [2, 2]], [1, 2], [1, 1], "dependent"),
     ([[1, 1]], [-1], [1, 1], "nonnegative")],
    ids=["infeasible", "unbounded", "dependent-rows", "negative-rhs"],
)
def test_refusals(a, b, c, reason):
    with pytest.raises(ValueError, match=reason):
        minimise(a, b, c)


@given(rows=st.integers(1, 4), cols=st.integers(1, 6), data=st.data())
def test_feasible_bounded_lps_match_highs_with_exact_duals(rows, cols, data):
    # b = A x0 for an integer x0 >= 0, each row negated where b < 0, so x0
    # is feasible; c >= 0 bounds the minimum below by 0
    entries = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    a = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    x0 = data.draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols))
    c = data.draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols))
    assume(np.linalg.matrix_rank(np.array(a)) == rows)
    b = [sum(aij * xj for aij, xj in zip(row, x0)) for row in a]
    a = [row if bi >= 0 else [-v for v in row] for row, bi in zip(a, b)]
    b = [abs(bi) for bi in b]
    optimum = minimise(a, b, c)
    highs = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert highs.status == 0
    assert optimum.den > 0
    assert optimum.value / optimum.den == pytest.approx(highs.fun, abs=1e-9)
    for j in range(cols):  # dual feasibility, c - pi A >= 0, in integers
        assert optimum.den * c[j] - sum(pi * row[j] for pi, row in zip(optimum.duals, a)) >= 0
    assert sum(pi * bi for pi, bi in zip(optimum.duals, b)) == optimum.value
