"""Sign-representing polynomials via linear programming.

A multilinear polynomial p sign-represents f when f(x) = sgn(p(x)) on all
of {-1,+1}^t; normalised means |p(x)| <= 1 everywhere, and the bias is
min_x |p(x)|.  The best bias at degree d is the bounded LP

    maximise beta  s.t.  f(x) p(x) >= beta,  -1 <= p(x) <= 1,  0 <= beta <= 1,

and sign_degree poses its degree search in one of two ways:

  * symmetric f (value fixed by the Hamming weight |x|): by Minsky-Papert
    symmetrization the best degree-d polynomial may be averaged over all
    coordinate permutations, so it is p = sum_j c_j sum_{|S|=j} chi_S,
    whose value at weight w is sum_j c_j K_j(w) with K_j the Krawtchouk
    polynomial.  The max-bias LP then has t+1 weights and d+1 level
    coefficients; it is bounded, so it needs no feasibility probe, and
    it is solved for d = 0, 1, ... until the bias is positive.  The
    witness has the best bias at the sign-degree;
  * any other f: dense LPs over all 2^t points and every monomial of
    degree <= d.  The degree search solves the scale-free feasibility LP
    f(x) p(x) >= 1 (feasible exactly when the degree suffices) and falls
    back to the max-bias LP when HiGHS leaves the probe without a
    certificate; its witness need not have the best bias.
    best_sign_polynomial always solves the dense max-bias LP.

Dense LPs whose constraint matrix would exceed MAX_DENSE_LP_BYTES are
refused before anything is built.  The solver runs in floating point with
a feasibility margin; every witness is then normalised and certified by
exact re-evaluation of the sign conditions on all 2^t points (for a
symmetric witness, the Walsh-Hadamard transform of its lifted coefficient
vector), so a returned polynomial is correct independent of solver
tolerances and of the symmetrization argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .boolfn import (
    BooleanFunction,
    SymmetricSpec,
    symmetric_spec_of,
    walsh_hadamard,
    weight_profile,
)

FEASIBILITY_MARGIN = 1e-8
COEFF_PRUNE_TOL = 1e-12
MAX_DENSE_LP_BYTES = 256 * 2**20  # float64 A_ub of one dense LP


class BelowSignDegreeError(ValueError):
    """Requested degree cannot sign-represent the function."""


class LpSolverError(RuntimeError):
    """The LP solver failed numerically (distinct from infeasibility)."""


@dataclass(frozen=True)
class SignPolynomial:
    """Normalised multilinear polynomial with certified bias.

    ``coeffs`` maps subset bitmasks to real coefficients; ``bias`` is the
    exhaustively re-evaluated min_x |p(x)| for the function it represents.
    """

    t: int
    coeffs: dict[int, float]
    degree: int
    bias: float

    def coefficient(self, mask: int) -> float:
        return self.coeffs.get(mask, 0.0)

    def evaluate(self, x: Sequence[int]) -> float:
        if len(x) != self.t:
            raise ValueError(f"expected {self.t} coordinates")
        total = 0.0
        for mask, c in self.coeffs.items():
            term = c
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                term *= x[i]
                m &= m - 1
            total += term
        return total

    def evaluate_all(self) -> np.ndarray:
        """Values on every row of the cube, in row-encoding order."""
        dense = np.zeros(2**self.t)
        dense[list(self.coeffs)] = list(self.coeffs.values())
        return walsh_hadamard(dense)


def monomial_masks(t: int, degree: int) -> list[int]:
    """All subset bitmasks of [t] with |S| <= degree, sorted."""
    return [m for m in range(2**t) if int(m).bit_count() <= degree]


def _chi_matrix(t: int, masks: Sequence[int]) -> np.ndarray:
    """(2^t, len(masks)) matrix of character values chi_S(row)."""
    rows = np.arange(2**t, dtype=np.uint64)
    inter = np.bitwise_count(rows[:, None] & np.asarray(masks, dtype=np.uint64))
    return 1.0 - 2.0 * (inter.astype(np.int64) % 2)


def _check_dense_lp_size(t: int, degree: int, rows_per_point: int, columns: int) -> None:
    """Refuse a dense LP whose float64 A_ub would exceed MAX_DENSE_LP_BYTES."""
    nbytes = rows_per_point * 2**t * columns * 8
    if nbytes > MAX_DENSE_LP_BYTES:
        raise ValueError(
            f"the dense degree-{degree} LP at t = {t} needs a {nbytes / 2**20:.0f} MiB "
            f"constraint matrix, over the {MAX_DENSE_LP_BYTES // 2**20} MiB limit"
        )


def _max_bias_lp(
    fvals: np.ndarray, basis: np.ndarray, degree: int, margin: float
) -> np.ndarray:
    """Coefficients of the basis columns maximising beta subject to
    fvals * p >= beta and -1 <= p <= 1 on every row, where p = basis @ coeff.

    Raises BelowSignDegreeError when the LP bias is below ``margin`` and
    LpSolverError on solver breakdown.
    """
    npoints, ncols = basis.shape
    # Variables: basis coefficients, then beta.
    cost = np.zeros(ncols + 1)
    cost[-1] = -1.0
    sign_rows = np.hstack([-fvals[:, None] * basis, np.ones((npoints, 1))])
    upper_rows = np.hstack([basis, np.zeros((npoints, 1))])
    a_ub = np.vstack([sign_rows, upper_rows, -upper_rows])
    b_ub = np.concatenate([np.zeros(npoints), np.ones(2 * npoints)])
    bounds = [(None, None)] * ncols + [(0.0, 1.0)]

    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if result.status != 0:
        raise LpSolverError(f"LP solver status {result.status}: {result.message}")
    beta_lp = float(result.x[-1])
    if beta_lp < margin:
        raise BelowSignDegreeError(
            f"no degree-{degree} sign representation (LP bias {beta_lp:.2e})"
        )
    return result.x[:-1]


def best_sign_polynomial(
    f: BooleanFunction, degree: int, margin: float = FEASIBILITY_MARGIN
) -> SignPolynomial:
    """Maximum-bias normalised sign-representation of f with the given
    degree budget, from the dense LP.

    Raises BelowSignDegreeError when the degree cannot represent f,
    ValueError when the LP is over MAX_DENSE_LP_BYTES, and LpSolverError
    on solver breakdown or failed certification.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    t = f.t
    masks = monomial_masks(t, degree)
    _check_dense_lp_size(t, degree, 3, len(masks) + 1)
    chi = _chi_matrix(t, masks)
    fvals = np.asarray(f.table, dtype=np.float64)
    coeff = _max_bias_lp(fvals, chi, degree, margin)
    return _certified(t, masks, coeff, chi @ coeff, fvals)


def sign_degree(f: BooleanFunction) -> tuple[int, SignPolynomial]:
    """Minimum representing degree with a certified normalised witness.

    A symmetric f takes the reduced Hamming-weight LP, and its witness has
    the maximum bias at that degree; any other f takes the dense degree
    search, whose witness need not (see best_sign_polynomial for that).
    Raises ValueError when a dense LP is over MAX_DENSE_LP_BYTES.
    """
    sym = symmetric_spec_of(f)
    if sym is None:
        return _dense_sign_degree(f)
    return _symmetric_sign_degree(f, sym)


def _krawtchouk(t: int) -> np.ndarray:
    """(t+1, t+1) matrix whose entry [w, j] is K_j(w), the sum of chi_S
    over the C(t, j) sets |S| = j at any point of Hamming weight w."""
    return np.array(
        [
            [sum((-1) ** i * comb(w, i) * comb(t - w, j - i) for i in range(j + 1))
             for j in range(t + 1)]
            for w in range(t + 1)
        ],
        dtype=np.float64,
    )


def _symmetric_sign_degree(
    f: BooleanFunction, sym: SymmetricSpec
) -> tuple[int, SignPolynomial]:
    """Degree search on the max-bias LP over the Hamming weights of the
    symmetric f that ``sym`` describes."""
    t = f.t
    profile = np.asarray(weight_profile(sym), dtype=np.float64)
    krawtchouk = _krawtchouk(t)
    # K_j(0) = C(t, j) is the largest |K_j|; entries reach C(16, 8), so
    # the LP solves for y_j = C(t, j) c_j against columns in [-1, 1].
    level_sizes = krawtchouk[0]
    scaled = krawtchouk / level_sizes
    level = np.bitwise_count(np.arange(2**t, dtype=np.uint64)).astype(np.int64)
    fvals = np.asarray(f.table, dtype=np.float64)
    for d in range(t + 1):
        try:
            y = _max_bias_lp(profile, scaled[:, : d + 1], d, FEASIBILITY_MARGIN)
        except BelowSignDegreeError:
            continue
        # Lift: every monomial of level j <= d gets c_j.
        masks = np.flatnonzero(level <= d)
        coeff = (y / level_sizes[: d + 1])[level[masks]]
        dense = np.zeros(2**t)
        dense[masks] = coeff
        return d, _certified(t, masks, coeff, walsh_hadamard(dense), fvals)
    raise LpSolverError("no representation found up to full degree")  # pragma: no cover


def _dense_sign_degree(f: BooleanFunction) -> tuple[int, SignPolynomial]:
    """Degree search by the dense feasibility LP "f(x) p(x) >= 1 for all
    x" at degree 0, 1, 2, ...; the witness is rescaled to the normalised
    form.  f must not be constant."""
    fvals = np.asarray(f.table, dtype=np.float64)
    for d in range(f.t + 1):
        masks = monomial_masks(f.t, d)
        _check_dense_lp_size(f.t, d, 1, len(masks))
        chi = _chi_matrix(f.t, masks)
        result = linprog(
            np.zeros(len(masks)),
            A_ub=-fvals[:, None] * chi,
            b_ub=-np.ones(chi.shape[0]),
            bounds=[(None, None)] * len(masks),
            method="highs",
        )
        if result.status == 2:  # infeasible: degree too low
            continue
        if result.status == 0:
            values = chi @ result.x
            if (fvals * values).min() >= 1 - FEASIBILITY_MARGIN:
                return d, _certified(f.t, masks, result.x, values, fvals)
        # Inconclusive probe (free variables can leave HiGHS without a
        # certificate): decide with the bounded maximum-bias LP instead.
        try:
            witness = best_sign_polynomial(f, d)
        except BelowSignDegreeError:
            continue
        return d, witness
    raise LpSolverError("no representation found up to full degree")  # pragma: no cover


def _certified(
    t: int, masks: Sequence[int], coeff: np.ndarray, values: np.ndarray, fvals: np.ndarray
) -> SignPolynomial:
    """Normalise a witness, given its values on every row of the cube, and
    certify its sign conditions exhaustively."""
    scale = max(1.0, float(np.abs(values).max()))
    values = values / scale
    coeff = coeff / scale
    margins = fvals * values
    if not np.all(margins > 0):
        raise LpSolverError("witness failed exhaustive sign certification")
    coeffs = {
        int(m): float(c) for m, c in zip(masks, coeff) if abs(c) > COEFF_PRUNE_TOL
    }
    degree = max((int(m).bit_count() for m in coeffs), default=0)
    return SignPolynomial(t, coeffs, degree, float(margins.min()))
