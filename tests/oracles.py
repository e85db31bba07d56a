"""Independent references for package routines.

Each one is the straightforward or per-point form of a package routine,
or a second construction of what it computes; the tests check that the
package still gives exactly what these give.  An instance here is what
the package draws, the rows ``(x, sigma, w)`` (int8, the narrowest
unsigned type that holds n, and int8), with its ``PartitionParams`` and
hidden bit ``b`` beside them.  ``promise_bit``, the instance JSON helpers
and ``reduce_instance`` are tools only the tests use: they check the
promise, pin ``generate_instance``'s draws and check the reduction on
whole instances.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from hiddenpartition import signpoly
from hiddenpartition.boolfn import (
    BooleanFunction,
    all_points,
    walsh_hadamard,
    weight_profile,
)
from hiddenpartition.instances import PartitionParams, b_map_rows, inverse_permutation
from hiddenpartition.quantum import hadamard_test_probs, unitary_dilation
from hiddenpartition.reduction import (
    ReductionGadget,
    extended_permutation,
    extended_string_rows,
)

STATEVECTOR_MAX_ARITY = 10


# --- points and truth tables -------------------------------------------------


def row_of_point(x) -> int:
    """Table row index of a point in {-1,+1}^t (bit i-1 set where x_i = -1)."""
    r = 0
    for i, xi in enumerate(x):
        if xi == -1:
            r |= 1 << i
        elif xi != 1:
            raise ValueError(f"coordinate {i + 1} is {xi}, expected +-1")
    return r


def point_of_row(t: int, r: int) -> tuple[int, ...]:
    """The point encoded by row r, coordinate by coordinate."""
    return tuple(-1 if (r >> i) & 1 else 1 for i in range(t))


def hamming_weight(x) -> int:
    """Number of -1 coordinates."""
    return sum(1 for xi in x if xi == -1)


def negate(f: BooleanFunction) -> BooleanFunction:
    """f with every table entry negated."""
    return BooleanFunction(f.t, -f.table)


def stacked_walsh_hadamard(values) -> np.ndarray:
    """The butterfly of ``walsh_hadamard`` with every stage building its
    sums and differences as new arrays and stacking them back together;
    each stage adds and subtracts the same pairs, in the same order."""
    a = np.asarray(values, dtype=np.float64)
    n = a.shape[-1]
    h = 1
    while h < n:
        pairs = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        top = pairs[..., 0, :] + pairs[..., 1, :]
        bot = pairs[..., 0, :] - pairs[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape(a.shape[:-1] + (n,))
        h *= 2
    return a


def inverse_fourier(spec: np.ndarray) -> BooleanFunction:
    """Reconstruct the truth table from a spectrum; exact round-trip for
    +-1 functions."""
    table = walsh_hadamard(spec)
    rounded = np.rint(table).astype(np.int64)
    if np.max(np.abs(table - rounded)) > 1e-9 or not np.all(np.abs(rounded) == 1):
        raise ValueError("spectrum does not describe a +-1-valued function")
    return BooleanFunction(spec.size.bit_length() - 1, rounded)


# --- sign-degree -------------------------------------------------------------


def primal_max_bias(fvals: np.ndarray, basis: np.ndarray, degree: int) -> np.ndarray:
    """The max-bias LP in its primal form, with the contract of
    ``signpoly._max_bias_lp``: the basis coefficients and beta are the
    variables, and every row gives three inequalities, f p >= beta,
    p <= 1 and -p <= 1, with 0 <= beta <= 1."""
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
        raise signpoly.LpSolverError(f"LP solver status {result.status}: {result.message}")
    beta_lp = float(result.x[-1])
    if beta_lp < signpoly.FEASIBILITY_MARGIN:
        raise signpoly.BelowSignDegreeError(
            f"no degree-{degree} sign representation (LP bias {beta_lp:.2e})"
        )
    return result.x[:-1]


def dense_witness(f: BooleanFunction, degree: int) -> signpoly.SignPolynomial:
    """The primal LP over all 2^t points and every monomial of degree <=
    degree, certified as the package certifies its witnesses."""
    masks = signpoly.monomial_masks(f.t, degree)
    coeff = np.zeros(2**f.t)
    coeff[masks] = primal_max_bias(f.table, signpoly._chi_matrix(f.t, masks), degree)
    return signpoly._certified(f.table, coeff)


def krawtchouk_by_enumeration(t: int) -> np.ndarray:
    """(t+1, t+1) float matrix whose [w, j] entry is the sum of chi_S(x)
    over every S with |S| = j, at the point x whose first w coordinates
    are -1, summed set by set."""
    table = np.zeros((t + 1, t + 1))
    for w in range(t + 1):
        point = (1 << w) - 1
        for mask in range(2**t):
            table[w, mask.bit_count()] += (-1) ** (mask & point).bit_count()
    return table


def reduced_primal_witness(f: BooleanFunction, sym, degree: int) -> signpoly.SignPolynomial:
    """The primal LP over the t+1 Hamming weights of the symmetric f that
    ``sym`` describes, with one coefficient per level j <= degree (each
    column divided by its largest entry, C(t, j)), every level-j monomial
    given c_j and certified as the package certifies its witnesses."""
    kraw = krawtchouk_by_enumeration(f.t)[:, : degree + 1]
    levels = np.zeros(f.t + 1)
    levels[: degree + 1] = primal_max_bias(weight_profile(sym), kraw / kraw[0], degree) / kraw[0]
    weights = [row.bit_count() for row in range(2**f.t)]
    return signpoly._certified(f.table, levels[weights])


def dense_sign_degree(f: BooleanFunction):
    """Degree search on the dense primal LP alone, for d = 0, 1, ...
    whatever f is: the solver-only reference for sign_degree, which proves
    its lower side with a dual certificate and solves the dual LP from
    there."""
    for d in range(f.t + 1):
        try:
            return d, dense_witness(f, d)
        except signpoly.BelowSignDegreeError:
            continue
    raise AssertionError("no dense witness up to full degree")


# --- instances ---------------------------------------------------------------


def apply_permutation(sigma, x) -> tuple:
    """Permuted string y with y_i = x at sigma^-1(i), position by position;
    the reference for ``active_blocks``, whose view is y's active prefix."""
    n = len(x)
    if len(sigma) != n:
        raise ValueError("length mismatch")
    y = [0] * n
    seen = [False] * n
    for i, image in enumerate(sigma):
        if not 1 <= image <= n or seen[image - 1]:
            raise ValueError("sigma is not a bijection on [n]")
        seen[image - 1] = True
        y[image - 1] = x[i]
    return tuple(y)


def promise_bit(f, x, sigma, w, params):
    """The hidden bit if B_f(x, sigma) o w is constant, else None (the
    promise is violated)."""
    z = b_map_rows(f, np.asarray(x)[None, :], sigma, params)[0]
    products = np.unique(z * np.asarray(w))
    return int(products[0]) if len(products) == 1 else None


def instance_to_json(params, x, sigma, w, b) -> dict:
    """JSON document of an instance, b left out when None; pins
    ``generate_instance``'s draws."""
    doc = {
        "n": params.n,
        "t": params.t,
        "alpha_num": params.alpha.numerator,
        "alpha_den": params.alpha.denominator,
        "x": x.tolist(),
        "sigma": sigma.tolist(),
        "w": w.tolist(),
    }
    if b is not None:
        doc["b"] = b
    return doc


def instance_from_json(doc: dict) -> tuple:
    """Inverse of ``instance_to_json``: (params, x, sigma, w, b), the rows
    in the package's dtypes and b None when the document has none."""
    params = PartitionParams(
        int(doc["n"]),
        int(doc["t"]),
        Fraction(int(doc["alpha_num"]), int(doc["alpha_den"])),
    )
    x, sigma, w = (np.asarray(doc[key], dtype=dtype)
                   for key, dtype in (("x", np.int8), ("sigma", np.min_scalar_type(params.n)),
                                      ("w", np.int8)))
    return params, x, sigma, w, int(doc["b"]) if "b" in doc else None


# --- quantum protocol --------------------------------------------------------


def statevector_oracle(a, z) -> float:
    """Outcome-0 probability computed by simulating the circuit itself.

    Prepares the block state (1, z_1, ..., z_t)/sqrt(t+1) padded into the
    dilated space, runs ancilla-controlled U followed by the final
    Hadamard on a dense state vector, and reads off the probability by
    direct amplitude computation.  Must agree with ``hadamard_test_probs``
    to within 1e-9.
    """
    t = len(a) - 1
    if t > STATEVECTOR_MAX_ARITY:
        raise ValueError(f"state-vector oracle supports t <= {STATEVECTOR_MAX_ARITY}")
    if len(z) != t:
        raise ValueError("block length mismatch")
    dim = 2 * (t + 1)
    psi = np.zeros(dim)
    psi[0] = 1.0
    psi[1 : t + 1] = np.asarray(z, dtype=np.float64)
    psi /= math.sqrt(t + 1)

    u = unitary_dilation(a)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    state = np.kron(plus, psi)

    controlled = np.zeros((2 * dim, 2 * dim))
    controlled[:dim, :dim] = np.eye(dim)
    controlled[dim:, dim:] = u
    state = controlled @ state

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    state = np.kron(hadamard, np.eye(dim)) @ state

    return float(state[:dim] @ state[:dim])


def quantum_statistics_by_blocks(params, xs, sigmas, ws, matrix, m, rngs) -> list[float]:
    """``run_quantum``'s statistic per row, trial by trial and copy by copy,
    with the closed form evaluated on each block of that row's sigma(x)."""
    statistics = []
    for x, sigma, w, rng in zip(xs, sigmas, ws, rngs):
        blocks = np.array(apply_permutation(sigma.tolist(), x.tolist())).reshape(-1, params.t)
        probs0 = hadamard_test_probs(matrix, blocks)
        js = rng.integers(0, params.num_blocks, size=m)
        uniforms = rng.random(m)
        total = 0.0
        for j, uniform in zip(js.tolist(), uniforms.tolist()):
            if j < params.active_blocks:
                total += (1.0 if uniform < probs0[j] else -1.0) * float(w[j])
        statistics.append(total)
    return statistics


def povm_block_distribution(params) -> tuple[Fraction, ...]:
    """Exact outcome distribution of Bob's block-collapsing measurement,
    the audit of ``run_quantum``'s uniform block draw.

    Each block j captures its t permuted coordinates plus the one marker
    state, so its weight is (t+1)/(n + n/t) = t/n: uniform over the n/t
    blocks.
    """
    weight = Fraction(params.t + 1, params.n + params.num_blocks)
    return (weight,) * params.num_blocks


# --- reduction ---------------------------------------------------------------


def closed_form_gadget(spec):
    """Direct construction from an odd gap between interior thresholds:
    a = (gap+1)/2, b = lower threshold, flipped when the function is +1
    on that interval.  None when every interior gap is even."""
    th = spec.thresholds
    if len(th) < 2:
        return None
    profile = weight_profile(spec)
    for k in range(len(th) - 1):
        gap = th[k + 1] - th[k]
        if gap % 2 == 1:
            a = (gap + 1) // 2
            b = th[k]
            flipped = profile[th[k] + 1] == 1
            return ReductionGadget(a, b, spec.t, flipped)
    return None


def extended_permutation_by_blocks(sigma, gadget: ReductionGadget) -> np.ndarray:
    """extended_permutation block by block: block j lists the a copies of
    its pair (sigma^-1(2j-1), sigma^-1(2j)), shifted by c*n for copy c,
    then position a*n + j + c*n/2 of each padding band c, and gives them
    the slots (j-1)*t + 1, (j-1)*t + 2, ... in that order."""
    n, t = len(sigma), gadget.t
    half = n // 2
    inverse = inverse_permutation(sigma)
    sigma_f = np.empty(n * t // 2, dtype=np.int64)
    for j in range(1, half + 1):
        first, second = inverse[2 * j - 2], inverse[2 * j - 1]
        members = []
        for c in range(gadget.a):
            members.append(c * n + first)
            members.append(c * n + second)
        for c in range(t - 2 * gadget.a):
            members.append(gadget.a * n + j + c * half)
        for k, position in enumerate(members, start=1):
            sigma_f[position - 1] = (j - 1) * t + k
    return sigma_f


def reduce_instance(params, x, sigma, w, b, gadget: ReductionGadget) -> tuple:
    """Map a 2-bit-parity instance to an equivalent instance of the
    gadget's symmetric function, preserving the hidden bit; returns
    (params, x, sigma, w, b) of the new instance.

    The transformed instance has length n*t/2, block size t and the same
    partition fraction; w is flipped when the gadget records a global
    sign flip so the promise bit is unchanged.
    """
    if params.t != 2:
        raise ValueError("reduction starts from block size 2 (parity pairs)")
    x_f = extended_string_rows(x[None, :], gadget)[0]
    sigma_f = extended_permutation(sigma, gadget)
    w_sign = -1 if gadget.flipped else 1
    new_params = PartitionParams(params.n * gadget.t // 2, gadget.t, params.alpha)
    return new_params, x_f, sigma_f, w_sign * w, b


# --- shuffle -----------------------------------------------------------------


def list_fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Swap-from-the-back shuffle of [n] on a Python list, all swap
    indices drawn from ``rng`` in one call; 1-based int64 images."""
    perm = list(range(1, n + 1))
    draws = rng.integers(0, np.arange(n, 1, -1))  # draws[k] is uniform on [0, n-k)
    for k, j in enumerate(draws.tolist()):
        i = n - 1 - k
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def int64_lockstep_shuffle(n: int, rngs) -> np.ndarray:
    """``fisher_yates_rows`` with every array int64: each generator's swap
    draws in one call, then all rows swapped in lockstep, one position at
    a time, with the flat indices of every draw made at once."""
    count = len(rngs)
    flat = np.empty((n - 1, count), dtype=np.int64)
    for r, rng in enumerate(rngs):
        flat[:, r] = rng.integers(0, np.arange(n, 1, -1))
    flat = flat * count + np.arange(count)
    perm = np.repeat(np.arange(1, n + 1, dtype=np.int64)[:, None], count, axis=1)
    cells = perm.reshape(-1)
    for i, targets in zip(range(n - 1, 0, -1), flat):
        drawn = cells[targets]
        cells[targets] = perm[i]
        perm[i] = drawn
    return perm.T


def int64_instances(f, params, bs, rngs) -> tuple:
    """``generate_instances`` with every array int64: x drawn row by row,
    sigma from ``int64_lockstep_shuffle``, w = b * B_f(x, sigma)."""
    xs = np.array([1 - 2 * rng.integers(0, 2, size=params.n, dtype=np.int64) for rng in rngs])
    sigmas = int64_lockstep_shuffle(params.n, rngs)
    ws = np.asarray(bs, dtype=np.int64)[:, None] * b_map_rows(f, xs, sigmas, params)
    return xs, sigmas, ws


# --- hardness lab ------------------------------------------------------------


def message_points(message_set) -> np.ndarray:
    """(|A|, n) matrix of +-1 member strings, in sorted mask order."""
    bits = (message_set.members[:, None] >> np.arange(message_set.n)) & 1
    return 1 - 2 * bits


def promise_masks_by_points(f, message_set, sigma, params) -> np.ndarray:
    """Row-encoded promise strings of the members, by ``b_map_rows`` over
    their +-1 matrix."""
    zs = b_map_rows(f, message_points(message_set), sigma, params)
    bits = (1 - zs) // 2
    return bits @ (1 << np.arange(params.active_blocks, dtype=np.int64))


def induced_counts_by_points(f, message_set, sigma, params) -> np.ndarray:
    """|A| p_sigma, the histogram of ``promise_masks_by_points``."""
    masks = promise_masks_by_points(f, message_set, sigma, params)
    return np.bincount(masks, minlength=2**params.active_blocks)


def u_by_points(f, sigma, w, s_mask, params) -> float:
    """u(sigma, w, S) summed over the +-1 matrix of every string, chi_S as
    a product of coordinates."""
    n = params.n
    in_s = ((s_mask >> np.arange(n)) & 1) == 1
    xs = all_points(n)
    zs = b_map_rows(f, xs, sigma, params)
    block_weights = 1 << np.arange(params.active_blocks, dtype=np.int64)
    zmasks = ((1 - zs) // 2) @ block_weights
    w_mask = int(((1 - np.asarray(w, dtype=np.int64)) // 2) @ block_weights)
    full = 2**params.active_blocks - 1
    chi = xs[:, in_s].prod(axis=1)
    indicator = (zmasks == w_mask).astype(np.float64) - (zmasks == (full ^ w_mask)).astype(np.float64)
    p_x = 1 / 2**n
    p_sigma = 1 / math.factorial(n)
    return float(0.5 * p_x * p_sigma * (chi * indicator).sum())


# --- uniform sender ----------------------------------------------------------


def block_and_slot(position: int, t: int) -> tuple[int, int]:
    """j = ceil(pos/t) and k = ((pos-1) mod t) + 1 for a 1-based position."""
    return (position + t - 1) // t, (position - 1) % t + 1


def uniform_statistic_by_scan(params, x, sigma, w, slots, subset) -> float:
    """The uniform sender's statistic, scanning the subset index by index
    for the first one whose slot carries a nonzero level-1 coefficient
    inside an active block."""
    for i in subset.tolist():
        j, k = block_and_slot(int(sigma[i - 1]), params.t)
        if j <= params.active_blocks and slots[k - 1] != 0:
            sign = 1 if slots[k - 1] > 0 else -1
            return float(sign * x[i - 1] * w[j - 1])
    return 0.0
