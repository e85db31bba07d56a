"""Sign-representing polynomials via linear programming.

A multilinear polynomial p sign-represents f when f(x) = sgn(p(x)) on all
of {-1,+1}^t; normalised means |p(x)| <= 1 everywhere, and the bias is
min_x |p(x)|.  The best bias at degree d is the bounded LP

    maximise beta  s.t.  beta <= f(x) p(x) <= 1,  beta >= 0,

in which f p >= beta >= 0 turns the box |p(x)| <= 1 into the one bound
f(x) p(x) <= 1.  It is solved in its dual form (see _max_bias_lp), one
equality row per coefficient of p, and the coefficients are that
solve's duals.  best_sign_polynomial solves it at one degree, picking the
LP from f alone, so sign_degree and the protocols share one witness per
(f, d), and it is both protocols' sign-degree guard:

  * f = g(|x_U xor a|), a symmetric function g of the m = |U| inputs in
    U, some of them negated (the inputs in a), and constant in the rest:
    every symmetric f (U = [t], a = empty) and every signed-symmetric
    junta.  By Minsky-Papert symmetrization over the signed permutations
    of U that fix f, and averaging over the inputs outside U, the best
    degree-d polynomial may be taken as p = sum_j c_j sum_{S in U, |S|=j}
    (-1)^|S & a| chi_S, whose value at weight w = |x_U xor a| is
    sum_j c_j K_j(w) with K_j the Krawtchouk polynomial on m inputs: m+1
    weights and min(d, m)+1 level coefficients.  That LP has integer
    data and is solved exactly (exactlp), so its beta is exact and each
    c_j is the nearest float to its exact value;
  * any other f: all 2^t points and every monomial of degree <= d, solved
    by HiGHS in floating point.  Only this path imports scipy.optimize.

Dense LPs whose equality matrix would exceed MAX_DENSE_LP_BYTES are
refused before anything is built.  Every witness is written as its dense
coefficient vector, normalised and certified on all 2^t points by the
Walsh-Hadamard transform, with every margin above the transform's
rounding bound (see _certified), so a returned polynomial
sign-represents f in exact arithmetic, independent of solver tolerances
and of the symmetrization argument.  That certifies the upper side of
sign_degree.

The lower side (no polynomial of degree d - 1 works) rests on an integer
dual polynomial psi, checked exactly on all 2^t points by _check_dual.
For f = g(|x_U xor a|) the divided-difference psi of g at its number k of
sign changes, lifted to the cube, proves sdeg >= k, so one exact LP at
d = k settles the degree and FEASIBILITY_MARGIN plays no part in it; a
degree d < k is refused from psi alone, with no LP.  For any other f,
psi = f proves only sdeg >= phdeg, the pure high degree; the dense LP is
then solved for d = phdeg, phdeg + 1, ..., and a degree above phdeg is
ruled out, on the solver's word alone, when the optimum of its dual LP is
below FEASIBILITY_MARGIN.  A guard at one dense degree solves that one LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb, lcm, prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import exactlp
from .boolfn import (
    BooleanFunction,
    SymmetricSpec,
    fourier_transform,
    pure_high_degree,
    row_weights,
    spec_of_profile,
    symmetric_spec_of,
    walsh_hadamard,
    weight_profile,
)

FEASIBILITY_MARGIN = 1e-8
UNIT_ROUNDOFF = 2.0**-53  # float64, round to nearest
MAX_DENSE_LP_BYTES = 160 * 2**20  # float64 A_eq of one dense LP


class BelowSignDegreeError(ValueError):
    """Requested degree cannot sign-represent the function."""


class LpSolverError(RuntimeError):
    """The LP solver failed numerically (distinct from infeasibility), or a
    witness or dual certificate failed its exact check."""


@dataclass(frozen=True, eq=False)
class SignPolynomial:
    """Normalised multilinear polynomial with certified bias.

    ``coeffs[S]`` is the coefficient of chi_S, with S a subset bitmask: a
    read-only float64 copy, of length 2^t, of the certified vector, indexed
    as fourier_transform's spectrum.  ``degree`` is the largest |S| with a
    nonzero coefficient; ``bias`` is the exhaustively certified min_x |p(x)|.
    """

    t: int
    coeffs: np.ndarray
    bias: float
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        # + 0.0 copies and turns -0.0 into 0.0, on which LAPACK's sign
        # choices (block matrix norm, dilation) would otherwise hinge
        coeffs = np.asarray(self.coeffs, dtype=np.float64) + 0.0
        if coeffs.shape != (2**self.t,):
            raise ValueError("coefficient array length must be 2^t")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        support = np.flatnonzero(coeffs)
        object.__setattr__(self, "degree", int(np.bitwise_count(support).max(initial=0)))

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


def _check_dense_lp_size(t: int, degree: int, monomials: int) -> None:
    """Refuse a dense LP whose float64 A_eq (one row per monomial, two
    columns per point) would exceed MAX_DENSE_LP_BYTES."""
    nbytes = monomials * 2 * 2**t * 8
    if nbytes > MAX_DENSE_LP_BYTES:
        raise ValueError(
            f"the dense degree-{degree} LP at t = {t} needs a {nbytes / 2**20:.0f} MiB "
            f"constraint matrix, over the {MAX_DENSE_LP_BYTES // 2**20} MiB limit"
        )


def _max_bias_lp(fvals: np.ndarray, basis: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of the basis columns maximising beta subject to
    beta <= fvals * p <= 1 on every row and beta >= 0, where
    p = basis @ coeff.

    With A = fvals * basis row by row, the LP solved is its dual

        minimise sum z  s.t.  A^T (z - y) = 0,  sum y >= 1,  y, z >= 0,

    with y and z one entry per row: one equality row per basis column.
    Its optimum is the best beta, and the coefficients are the equality
    rows' marginals.  Those meet beta <= fvals * p only to the solver's
    dual feasibility tolerance (1e-7 in HiGHS), so the bias they certify
    may fall that far short of the optimum.  HiGHS is imported here, on
    the first dense solve, and nowhere else in the package.

    Raises BelowSignDegreeError when the optimum is below
    FEASIBILITY_MARGIN and LpSolverError on solver breakdown.
    """
    from scipy.optimize import linprog

    npoints, ncols = basis.shape
    signed = (fvals[:, None] * basis).T
    # Variables: y, then z.  Presolve is off because with it on the
    # protocol-and-lab benchmark workload ran slower end to end.
    cost = np.concatenate([np.zeros(npoints), np.ones(npoints)])
    a_ub = np.concatenate([-np.ones(npoints), np.zeros(npoints)])[None, :]
    result = linprog(
        cost, A_ub=a_ub, b_ub=[-1.0], A_eq=np.hstack([-signed, signed]), b_eq=np.zeros(ncols),
        method="highs", options={"presolve": False},
    )
    if result.status != 0:
        raise LpSolverError(f"LP solver status {result.status}: {result.message}")
    if result.fun < FEASIBILITY_MARGIN:
        raise BelowSignDegreeError(f"sdeg(f) > {degree} (LP bias {result.fun:.2e})")
    return result.eqlin.marginals


def best_sign_polynomial(f: BooleanFunction, degree: int) -> SignPolynomial:
    """Maximum-bias normalised sign-representation of f with the given
    degree budget: the exact Hamming-weight LP when f is a symmetric
    function of some of its inputs, some negated, the dense LP otherwise.

    Raises BelowSignDegreeError when the degree cannot represent f (with
    no LP when f reduces, after the one dense LP otherwise), ValueError
    when a dense LP is over MAX_DENSE_LP_BYTES, and LpSolverError on
    solver breakdown or failed certification.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    reduction = _reduce(f)
    if reduction is None:
        return _dense_witness(f, degree)
    return _reduced_witness(f, reduction, degree)


def sign_degree(f: BooleanFunction) -> tuple[int, SignPolynomial]:
    """Minimum representing degree with a certified normalised witness of
    the maximum bias at that degree: exact for f = g(|x_U xor a|), up to
    the LP solver's dual feasibility tolerance (see _max_bias_lp) for any
    other f.

    A lower bound is proven before any LP runs.  For f = g(|x_U xor a|) it
    is k, the number of sign changes of g, by g's divided-difference dual
    polynomial lifted to the cube, which _check_dual verifies exactly; one
    exact LP at d = k then gives the witness.  For any other f it is
    phdeg, by psi = f; the dense LP is then solved for d = phdeg,
    phdeg + 1, ... until its bias reaches FEASIBILITY_MARGIN.

    Raises ValueError when a dense LP is over MAX_DENSE_LP_BYTES, and
    LpSolverError when a certificate or witness fails its check, the LP
    at the certified degree k finds no witness, or the solver breaks down.
    """
    reduction = _reduce(f)
    if reduction is not None:
        k = reduction.proven_sign_degree(f.table)
        return k, _reduced_witness(f, reduction, k)
    # psi = f is a dual certificate at phdeg: f_hat(S) = 0 for |S| < phdeg
    for d in range(pure_high_degree(fourier_transform(f)), f.t + 1):
        try:
            return d, _dense_witness(f, d)
        except BelowSignDegreeError:
            continue
    raise LpSolverError("no representation found up to full degree")  # pragma: no cover


class _Reduction(NamedTuple):
    """f(x) = g(|x_U xor a|): g the symmetric function that ``sym``
    describes, on the m = sym.t inputs in the bitmask ``relevant`` (U),
    after negating those in the bitmask ``negated`` (a, a subset of U).
    ``weights`` holds |x_U xor a| at every row of the cube.  A read-only
    tuple, never compared or hashed (its array makes == meaningless)."""

    sym: SymmetricSpec
    relevant: int
    negated: int
    weights: np.ndarray

    def lift(self, t: int, levels: np.ndarray) -> np.ndarray:
        """Dense coefficient vector of sum_j levels[j] sum_{S in U, |S|=j}
        (-1)^|S & a| chi_S, the polynomial whose value at every x is
        sum_j levels[j] K_j(|x_U xor a|)."""
        masks = np.arange(2**t, dtype=np.uint64)
        signs = 1 - 2 * (np.bitwise_count(masks & self.negated) & 1).astype(np.int64)
        inside = (masks & ~np.uint64(self.relevant)) == 0
        return np.where(inside, signs * levels[np.bitwise_count(masks)], 0.0)

    def proven_sign_degree(self, fvals: np.ndarray) -> int:
        """k, g's number of sign changes, once g's dual (_symmetric_dual)
        lifted to f's table ``fvals`` has proven sdeg(f) >= k (_check_dual)."""
        k = len(self.sym.thresholds)
        _check_dual(fvals, _symmetric_dual(self.sym)[self.weights], k)
        return k


def _reduce(f: BooleanFunction) -> Optional[_Reduction]:
    """f as g(|x_U xor a|), or None when it is not one.

    A symmetric f is g itself, with U = [t] and a empty.  Otherwise U is
    the set of relevant inputs, those i with f(x) != f(x xor e_i) at some
    x.  With u its first element, a_u = 0, and every other i in U must
    leave f unchanged when x_u and x_i are swapped (then a_i = 0) or
    swapped and both negated (then a_i = 1).  The weight profile g is
    then read off, and checked, on every row.
    """
    sym = symmetric_spec_of(f)
    if sym is not None:
        return _Reduction(sym, 2**f.t - 1, 0, row_weights(f.t))
    t = f.t
    cube = f.table.reshape((2,) * t)  # axis t - 1 - i is input i
    relevant = [i for i in range(t) if not np.array_equal(cube, np.flip(cube, t - 1 - i))]
    u, negated = relevant[0], 0
    for i in relevant[1:]:
        axes = (t - 1 - u, t - 1 - i)
        swapped = np.swapaxes(cube, *axes)
        if np.array_equal(swapped, cube):
            continue
        if not np.array_equal(np.flip(swapped, axes), cube):
            return None
        negated |= 1 << i
    mask = sum(1 << i for i in relevant)
    weights = np.bitwise_count((np.arange(2**t) ^ negated) & mask).astype(np.int64)
    sym = spec_of_profile(f.table, weights, len(relevant))
    return None if sym is None else _Reduction(sym, mask, negated, weights)


def _symmetric_dual(sym: SymmetricSpec) -> np.ndarray:
    """Integer dual polynomial, one entry per Hamming weight 0..t, proving
    that the symmetric f which ``sym`` describes has sign-degree >= k, its
    number of sign changes; indexed by the weights of the rows of a cube it
    is psi there.

    One node w_i is taken in each of the profile's k+1 constant intervals,
    its lowest weight.  phi(w_i) = 1/prod_{m != i}(w_i - w_m) are the
    weights of a k-th divided difference, so sum_i phi(w_i) q(w_i) = 0 for
    every polynomial q of degree < k, and their signs alternate as f's do.
    psi(x) = +-phi(|x|)/C(t, |x|) on the node weights and 0 elsewhere,
    scaled by the least common multiple of its denominators.  Over all
    2^17 symmetric f at t = 16 the largest sum |psi| is 758,557,800 < 2^30.
    Lifted to a junta on m < t of t inputs, the sum grows by 2^(t - m).
    """
    t = sym.t
    nodes = (0, *(theta + 1 for theta in sym.thresholds))
    denominators = [prod(w - m for m in nodes if m != w) * comb(t, w) for w in nodes]
    scale = lcm(*denominators)
    # (-1)^k is the sign of denominators[0], so psi(w_0) takes f's sign there
    sign = sym.leading_sign * (-1) ** (len(nodes) - 1)
    by_weight = np.zeros(t + 1, dtype=np.int64)
    by_weight[list(nodes)] = [sign * scale // q for q in denominators]
    return by_weight


def _check_dual(fvals: np.ndarray, psi: np.ndarray, degree: int) -> None:
    """Check exactly that the integer vector ``psi`` proves that no
    polynomial of degree < ``degree`` sign-represents the table ``fvals``.

    The conditions (Gordan's theorem): psi != 0, psi(x) f(x) >= 0 on every
    row, and psi_hat(S) = sum_x psi(x) chi_S(x) = 0 for every |S| <= degree
    - 1.  A sign-representing p of that degree would then give both
    sum_x psi p = 0, by orthogonality, and sum_x (psi f)(f p) > 0.  The
    transform runs in float64 and is exact because every partial sum is an
    integer of size at most sum |psi|; psi is refused unless that l1 norm,
    itself summed in float64 and so compared exactly, is below 2^53.
    Raises LpSolverError when psi is refused.
    """
    t = fvals.size.bit_length() - 1
    if not np.abs(psi.astype(np.float64)).sum() < 2.0**53:
        raise LpSolverError("dual certificate refused: sum |psi| is not below 2^53")
    if not np.any(psi) or np.any(psi * fvals < 0):
        raise LpSolverError("dual certificate refused: psi is 0 or disagrees in sign with f")
    if np.any(walsh_hadamard(psi)[row_weights(t) < degree]):
        raise LpSolverError(
            f"dual certificate refused: psi is not orthogonal to every degree-{degree - 1} character"
        )


def _dense_witness(f: BooleanFunction, degree: int) -> SignPolynomial:
    """The max-bias LP over all 2^t points and every monomial of degree
    <= degree, refused from its shape when over MAX_DENSE_LP_BYTES."""
    t = f.t
    masks = monomial_masks(t, degree)
    _check_dense_lp_size(t, degree, len(masks))
    coeff = np.zeros(2**t)
    coeff[masks] = _max_bias_lp(f.table, _chi_matrix(t, masks), degree)
    return _certified(f.table, coeff)


@cache
def _krawtchouk(m: int) -> tuple[tuple[int, ...], ...]:
    """K_j(w) at [w][j], w, j = 0..m: the sum of chi_S over the C(m, j)
    sets |S| = j at any point of Hamming weight w, on m inputs."""
    return tuple(
        tuple(sum((-1) ** i * comb(w, i) * comb(m - w, j - i) for i in range(j + 1))
              for j in range(m + 1))
        for w in range(m + 1)
    )


def _reduced_lp(sym: SymmetricSpec, degree: int) -> exactlp.Optimum:
    """The max-bias LP over the weights 0..m of the symmetric g that
    ``sym`` describes, with one coefficient per level j <= degree <= m,
    solved exactly in the dual form of _max_bias_lp: A[w][j] = g(w) K_j(w),
    variables y_0..y_m, z_0..z_m and the surplus of sum y >= 1, one row per
    level and then sum y - surplus = 1.  Its value is beta, and its duals
    are c_0, ..., c_degree, then beta."""
    m = sym.t
    profile = weight_profile(sym).tolist()
    signed = [[g * k for k in row[: degree + 1]] for g, row in zip(profile, _krawtchouk(m))]
    rows = [[-row[j] for row in signed] + [row[j] for row in signed] + [0]
            for j in range(degree + 1)]
    rows.append([1] * (m + 1) + [0] * (m + 1) + [-1])
    return exactlp.minimise(rows, [0] * (degree + 1) + [1], [0] * (m + 1) + [1] * (m + 1) + [0])


def _reduced_witness(f: BooleanFunction, reduction: _Reduction, degree: int) -> SignPolynomial:
    """The exact max-bias LP of g at degree min(degree, m), each level
    coefficient rounded to the nearest float, lifted to f and certified.
    Raises BelowSignDegreeError, before any LP, when degree < k, g's number
    of sign changes, once g's lifted divided-difference dual has proven
    sdeg(f) >= k (sign_degree checks that dual for its lower side; a witness
    at degree >= k rests on its certification alone), and LpSolverError
    when a check fails or the exact optimum at degree >= k is 0."""
    k = len(reduction.sym.thresholds)
    if degree < k:
        reduction.proven_sign_degree(f.table)
        raise BelowSignDegreeError(f"sdeg(f) = {k} > {degree}")
    degree = min(degree, reduction.sym.t)
    optimum = _reduced_lp(reduction.sym, degree)
    if optimum.value == 0:
        raise LpSolverError(f"no witness at degree {degree} >= the certified sign-degree {k}")
    levels = np.zeros(f.t + 1)
    levels[: degree + 1] = [c / optimum.den for c in optimum.duals[:-1]]
    return _certified(f.table, reduction.lift(f.t, levels))


def _certified(fvals: np.ndarray, coeff: np.ndarray) -> SignPolynomial:
    """Normalise the witness with dense coefficient vector ``coeff`` and
    certify its sign conditions on every row of the cube.

    The values v = walsh_hadamard(coeff) are divided, with the
    coefficients, by scale = max(1, max|v|).  In float64 with unit
    roundoff u = UNIT_ROUNDOFF, each margin f(x) v(x) / scale then differs
    from f(x) p(x), p the stored polynomial in exact arithmetic, by at
    most

        gamma * ||c||_1,   gamma = k u / (1 - k u),

    with k = t + 2 roundings on every path: t levels of pairwise sums and
    differences in the transform, the division of the value by scale and
    the division of each coefficient by it, and ||c||_1 the l1 norm of the
    normalised coefficients, which SignPolynomial stores unchanged.  The
    witness is refused with LpSolverError unless every margin exceeds that
    bound, so f(x) p(x) > 0 holds exactly.
    """
    t = fvals.size.bit_length() - 1
    values = walsh_hadamard(coeff)
    scale = max(1.0, float(np.abs(values).max()))
    coeff = coeff / scale
    margins = fvals * (values / scale)
    poly = SignPolynomial(t, coeff, float(margins.min()))
    k = (t + 2) * UNIT_ROUNDOFF
    bound = k / (1 - k) * float(np.abs(coeff).sum())
    if not poly.bias > bound:
        raise LpSolverError(
            f"witness failed exhaustive sign certification: "
            f"margin {poly.bias:.3e} <= rounding bound {bound:.3e}"
        )
    return poly
