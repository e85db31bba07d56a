"""Exact linear programming over the integers.

``minimise`` is a two-phase simplex on an integer LP in standard form,

    minimise c.x  s.t.  A x = b,  x >= 0,   b >= 0,

kept fraction-free: the tableau holds D times each true entry, D the
determinant of the current basis, so every entry is an integer (the
determinant of a submatrix of [A | I | b]) and each pivot's division by
the previous D is exact (Bareiss; Edmonds' integer-preserving pivot).
Entering and leaving columns follow Bland's rule over the fixed column
order, so the simplex cannot cycle, and the optimal basis, its vertex and
its duals are a function of (A, b, c) alone.  Nothing is rounded.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class Optimum(NamedTuple):
    """An optimal basis of ``minimise``'s LP, as integers over ``den``.

    ``value / den`` is the optimum c.x and ``duals[i] / den`` the
    multiplier of row i: pi = c_B B^-1, so pi.b is the optimum and
    c - pi A >= 0.  ``den`` > 0 is the determinant of the optimal basis
    matrix.  A read-only tuple."""

    den: int
    value: int
    duals: tuple[int, ...]


def minimise(a: Sequence[Sequence[int]], b: Sequence[int], c: Sequence[int]) -> Optimum:
    """An optimal basis of min c.x s.t. a x = b, x >= 0, for integer a, b
    and c with b >= 0 and a of full row rank.

    Phase 1 starts from one artificial column per row and minimises their
    sum; artificials left in the basis at 0 are pivoted out, and phase 2
    then minimises c.  Raises ValueError when no x is feasible, when the
    LP is unbounded and when a has dependent rows."""
    rows, cols = len(a), len(c)
    if any(v < 0 for v in b):
        raise ValueError("the right-hand side must be nonnegative")
    # Row i: a[i], then artificial column i, then b[i].  The two objective
    # rows hold D times the reduced costs and, last, -D times the value.
    tableau = [[*a[i], *(int(i == r) for r in range(rows)), b[i]] for i in range(rows)]
    phase1 = [-sum(row[j] for row in tableau) for j in range(cols)] + [0] * rows + [-sum(b)]
    phase2 = [*c, *[0] * rows, 0]
    basis = list(range(cols, cols + rows))
    lp = _Tableau(tableau, [phase1, phase2], basis)
    lp.solve(cols)
    if phase1[-1] != 0:
        raise ValueError("the LP has no feasible point")
    del lp.objectives[0]
    for r, var in enumerate(basis):
        if var >= cols:  # an artificial at 0: swap in any original column
            s = next((j for j in range(cols) if tableau[r][j]), None)
            if s is None:
                raise ValueError("the constraint rows are linearly dependent")
            lp.pivot(r, s)
    lp.solve(cols)
    return Optimum(lp.den, -phase2[-1], tuple(-v for v in phase2[cols:-1]))


class _Tableau:
    """A fraction-free simplex tableau: constraint rows, objective rows
    (the first is the one being minimised), the basic column of each
    constraint row and the common denominator ``den``."""

    def __init__(self, rows: list[list[int]], objectives: list[list[int]], basis: list[int]):
        self.rows, self.objectives, self.basis, self.den = rows, objectives, basis, 1

    def pivot(self, r: int, s: int) -> None:
        pivot_row = self.rows[r]
        p, den = pivot_row[s], self.den
        for row in (*self.rows, *self.objectives):
            if row is pivot_row:
                continue
            m = row[s]
            if m:
                row[:] = [(p * v - m * w) // den for v, w in zip(row, pivot_row)]
            else:
                row[:] = [p * v // den for v in row]
        self.basis[r] = s
        self.den = p
        if p < 0:  # keep den > 0, so a sign in the tableau is a true sign
            for row in (*self.rows, *self.objectives):
                row[:] = [-v for v in row]
            self.den = -p

    def solve(self, eligible: int) -> None:
        """Pivot by Bland's rule until no column below ``eligible`` has a
        negative reduced cost in the first objective row."""
        cost = self.objectives[0]
        while True:
            s = next((j for j in range(eligible) if cost[j] < 0), None)
            if s is None:
                return
            r = None
            for i, row in enumerate(self.rows):
                if row[s] > 0 and (
                    r is None
                    or (key := row[-1] * self.rows[r][s] - self.rows[r][-1] * row[s]) < 0
                    or (key == 0 and self.basis[i] < self.basis[r])
                ):
                    r = i
            if r is None:
                raise ValueError("the LP is unbounded")
            self.pivot(r, s)
