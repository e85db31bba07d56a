from fractions import Fraction

import pytest

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
