"""Sign-representing polynomials via linear programming.

A multilinear polynomial p sign-represents f when f(x) = sgn(p(x)) on all
of {-1,+1}^t; normalised means |p(x)| <= 1 everywhere, and the bias is
min_x |p(x)|.  The best bias at degree d is the bounded LP

    maximise beta  s.t.  f(x) p(x) >= beta,  -1 <= p(x) <= 1,  0 <= beta <= 1,

and sign_degree solves it for d = 0, 1, ... until the bias reaches
FEASIBILITY_MARGIN, so its witness has the best bias at the sign-degree.
The LP is posed over one of two bases:

  * symmetric f (value fixed by the Hamming weight |x|): by Minsky-Papert
    symmetrization the best degree-d polynomial may be averaged over all
    coordinate permutations, so it is p = sum_j c_j sum_{|S|=j} chi_S,
    whose value at weight w is sum_j c_j K_j(w) with K_j the Krawtchouk
    polynomial: t+1 weights and d+1 level coefficients;
  * any other f: all 2^t points and every monomial of degree <= d, the
    dense LP best_sign_polynomial solves.

Dense LPs whose constraint matrix would exceed MAX_DENSE_LP_BYTES are
refused before anything is built.  The solver runs in floating point;
every witness is then written as its dense coefficient vector, normalised
and certified on all 2^t points by the Walsh-Hadamard transform, with
every margin above the transform's rounding bound (see _certified), so a
returned polynomial sign-represents f in exact arithmetic, independent of
solver tolerances and of the symmetrization argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Sequence

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
UNIT_ROUNDOFF = 2.0**-53  # float64, round to nearest
MAX_DENSE_LP_BYTES = 256 * 2**20  # float64 A_ub of one dense LP


class BelowSignDegreeError(ValueError):
    """Requested degree cannot sign-represent the function."""


class LpSolverError(RuntimeError):
    """The LP solver failed numerically (distinct from infeasibility)."""


@dataclass(frozen=True, eq=False)
class SignPolynomial:
    """Normalised multilinear polynomial with certified bias.

    ``coeffs[S]`` is the coefficient of chi_S, with S a subset bitmask: a
    read-only float64 array of length 2^t, as FourierSpectrum.values, in
    which entries with |c| <= COEFF_PRUNE_TOL are stored as 0.0.
    ``degree`` is the largest |S| with a nonzero coefficient; ``bias`` is
    the exhaustively certified min_x |p(x)| for the function it represents.
    """

    t: int
    coeffs: np.ndarray
    bias: float
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (2**self.t,):
            raise ValueError("coefficient array length must be 2^t")
        coeffs = np.where(np.abs(coeffs) > COEFF_PRUNE_TOL, coeffs, 0.0)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        support = np.flatnonzero(coeffs)
        object.__setattr__(self, "degree", int(np.bitwise_count(support).max(initial=0)))

    def coefficient(self, mask: int) -> float:
        return float(self.coeffs[mask])

    def evaluate_all(self) -> np.ndarray:
        """Values on every row of the cube, in row-encoding order."""
        return walsh_hadamard(self.coeffs)


def monomial_masks(t: int, degree: int) -> list[int]:
    """All subset bitmasks of [t] with |S| <= degree, sorted."""
    return [m for m in range(2**t) if int(m).bit_count() <= degree]


def _chi_matrix(t: int, masks: Sequence[int]) -> np.ndarray:
    """(2^t, len(masks)) matrix of character values chi_S(row): the dense
    LP's basis."""
    rows = np.arange(2**t, dtype=np.uint64)
    inter = np.bitwise_count(rows[:, None] & np.asarray(masks, dtype=np.uint64))
    return 1.0 - 2.0 * (inter.astype(np.int64) % 2)


def _check_dense_lp_size(t: int, degree: int, columns: int) -> None:
    """Refuse a dense LP whose float64 A_ub (three rows per point) would
    exceed MAX_DENSE_LP_BYTES."""
    nbytes = 3 * 2**t * columns * 8
    if nbytes > MAX_DENSE_LP_BYTES:
        raise ValueError(
            f"the dense degree-{degree} LP at t = {t} needs a {nbytes / 2**20:.0f} MiB "
            f"constraint matrix, over the {MAX_DENSE_LP_BYTES // 2**20} MiB limit"
        )


def _max_bias_lp(fvals: np.ndarray, basis: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of the basis columns maximising beta subject to
    fvals * p >= beta and -1 <= p <= 1 on every row, where p = basis @ coeff.

    Raises BelowSignDegreeError when the LP bias is below
    FEASIBILITY_MARGIN and LpSolverError on solver breakdown.
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
    if beta_lp < FEASIBILITY_MARGIN:
        raise BelowSignDegreeError(
            f"no degree-{degree} sign representation (LP bias {beta_lp:.2e})"
        )
    return result.x[:-1]


def best_sign_polynomial(f: BooleanFunction, degree: int) -> SignPolynomial:
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
    _check_dense_lp_size(t, degree, len(masks) + 1)
    fvals = np.asarray(f.table, dtype=np.float64)
    coeff = np.zeros(2**t)
    coeff[masks] = _max_bias_lp(fvals, _chi_matrix(t, masks), degree)
    return _certified(fvals, coeff)


def sign_degree(f: BooleanFunction) -> tuple[int, SignPolynomial]:
    """Minimum representing degree with a certified normalised witness of
    the maximum bias at that degree.

    A symmetric f takes the reduced Hamming-weight LP, any other f the
    dense one.  Raises ValueError when a dense LP is over
    MAX_DENSE_LP_BYTES.
    """
    sym = symmetric_spec_of(f)
    if sym is None:
        return _dense_sign_degree(f)
    return _symmetric_sign_degree(f, sym)


def _least_degree(
    t: int, witness_at: Callable[[int], SignPolynomial]
) -> tuple[int, SignPolynomial]:
    """The first d = 0, 1, ..., t at which ``witness_at(d)`` does not raise
    BelowSignDegreeError, with its witness."""
    for d in range(t + 1):
        try:
            return d, witness_at(d)
        except BelowSignDegreeError:
            continue
    raise LpSolverError("no representation found up to full degree")  # pragma: no cover


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

    def witness_at(d: int) -> SignPolynomial:
        c = np.zeros(t + 1)
        c[: d + 1] = _max_bias_lp(profile, scaled[:, : d + 1], d) / level_sizes[: d + 1]
        return _certified(fvals, c[level])  # every level-j monomial gets c_j

    return _least_degree(t, witness_at)


def _dense_sign_degree(f: BooleanFunction) -> tuple[int, SignPolynomial]:
    """Degree search on the dense max-bias LP; the tests' reference for the
    reduced path."""
    return _least_degree(f.t, lambda d: best_sign_polynomial(f, d))


def _certified(fvals: np.ndarray, coeff: np.ndarray) -> SignPolynomial:
    """Normalise the witness with dense coefficient vector ``coeff`` and
    certify its sign conditions on every row of the cube.

    The values v = walsh_hadamard(coeff) are divided, with the
    coefficients, by scale = max(1, max|v|).  In float64 with unit
    roundoff u = UNIT_ROUNDOFF, each margin f(x) v(x) / scale then differs
    from f(x) p(x), p the stored polynomial in exact arithmetic, by at
    most

        gamma * ||c||_1 + ||dropped||_1,   gamma = k u / (1 - k u),

    with k = t + 2 roundings on every path: t levels of pairwise sums and
    differences in the transform, the division of the value by scale and
    the division of each coefficient by it.  ||c||_1 is the l1 norm of the
    normalised coefficients and ||dropped||_1 that of the entries
    SignPolynomial prunes.  The witness is refused with LpSolverError
    unless every margin exceeds that bound, so f(x) p(x) > 0 holds
    exactly.
    """
    t = fvals.size.bit_length() - 1
    values = walsh_hadamard(coeff)
    scale = max(1.0, float(np.abs(values).max()))
    coeff = coeff / scale
    margins = fvals * (values / scale)
    poly = SignPolynomial(t, coeff, float(margins.min()))
    k = (t + 2) * UNIT_ROUNDOFF
    bound = k / (1 - k) * float(np.abs(coeff).sum()) + float(np.abs(coeff - poly.coeffs).sum())
    if not poly.bias > bound:
        raise LpSolverError(
            f"witness failed exhaustive sign certification: "
            f"margin {poly.bias:.3e} <= rounding bound {bound:.3e}"
        )
    return poly
