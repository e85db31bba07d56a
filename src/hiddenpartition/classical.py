"""Classical one-way protocols.

Two senders are implemented:

  * The sampled-bits protocol for functions of sign-degree <= 1: Alice
    sends m uniformly random bits of x with their indices (sampling with
    replacement); Bob folds each into the statistic
    X(i) = (a_{k(i)} x_i + a_0/t) * w_{j(i)} for indices landing in active
    blocks and outputs sgn(sum X(i)).  Over the promise the two Chernoff
    tails each fail with probability at most epsilon, so a run succeeds
    with probability at least 1 - 2*epsilon.

  * The uniform-distribution sender for pure high degree <= 1: Alice sends
    a uniformly random index subset (without replacement); Bob looks for a
    sent index matched to a nonzero level-1 coefficient inside an active
    block and decides from that single bit, succeeding with probability
    1/2 + |level-1 coefficient|/2 conditioned on a hit.

A run's message (m sampled bits, or |I| indices) is fixed before Alice
sees x and costs m * (ceil(log2 n) + 1) bits.  The runs return (guess,
statistic) and take the trial's tie-break stream for a zero statistic.
"""

from __future__ import annotations

import math

import numpy as np

from .boolfn import BooleanFunction, fourier_transform, pure_high_degree
from .instances import PartitionParams
from .rng import coin
from .signpoly import BelowSignDegreeError, SignPolynomial, best_sign_polynomial, sign_degree


class UnsupportedFunctionError(ValueError):
    """The function does not meet the protocol's degree guard."""


def required_samples(t: int, alpha, beta: float, epsilon: float) -> int:
    """Samples needed so each one-sided Chernoff tail is at most epsilon.

    m = ceil((t/(alpha*beta))^2 * ln(1/epsilon) / 2), the smallest m with
    exp(-2 u^2 / m) <= epsilon at deviation u = alpha*beta*m/t.
    """
    if beta <= 0:
        raise ValueError("bias must be positive (function not represented)")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    value = (t / (alpha * beta)) ** 2 * math.log(1 / epsilon) / 2
    # tiny slack so float noise cannot bump an exact integer to its successor
    return max(1, math.ceil(value - 1e-9))


def protocol_witness(f: BooleanFunction, degree: int) -> SignPolynomial:
    """Maximum-bias sign polynomial of degree <= min(degree, t), the
    witness a sampled-bits (degree 1) or quantum (degree 2) run decides
    from; the guard of both protocols."""
    degree = min(degree, f.t)
    try:
        return best_sign_polynomial(f, degree)
    except BelowSignDegreeError as exc:
        actual, _ = sign_degree(f)
        raise UnsupportedFunctionError(f"sdeg(f) = {actual} > {degree}") from exc


def decide(statistic: float, tie_rng: np.random.Generator) -> int:
    """sgn(statistic); a fair coin from tie_rng on 0."""
    if statistic > 0:
        return 1
    if statistic < 0:
        return -1
    return coin(tie_rng)


def alice_sample(
    x: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """m i.i.d. uniform 1-based indices of x (an int64 array), drawn with
    replacement, and the bits of x at them."""
    if m < 1:
        raise ValueError("sample count must be positive")
    indices = rng.integers(1, len(x) + 1, size=m)
    return indices, x[indices - 1]


def message_cost_bits(m: int, n: int) -> int:
    return m * (math.ceil(math.log2(n)) + 1)


def _locate(
    indices: np.ndarray, sigma: np.ndarray, w: np.ndarray, params: PartitionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each 1-based index of x: the 0-based slot of its permuted
    position, whether its block lies in the active prefix, and that
    block's w (clamped to the last active block outside the prefix)."""
    blocks, slots = np.divmod(sigma[indices - 1] - 1, params.t)
    return slots, blocks < params.active_blocks, w[np.minimum(blocks, len(w) - 1)]


def bob_decide(
    indices: np.ndarray,
    bits: np.ndarray,
    sigma: np.ndarray,
    w: np.ndarray,
    poly: SignPolynomial,
    params: PartitionParams,
    tie_rng: np.random.Generator,
) -> tuple[int, float]:
    """Fold the sampled bits into X and return (sgn X, X), a fair coin on
    X = 0; indices, bits, sigma and w are int64 arrays."""
    if poly.degree > 1:
        raise ValueError("decision statistic needs a degree <= 1 polynomial")
    t = params.t
    alpha0 = poly.coeffs[0]
    linear = poly.coeffs[1 << np.arange(t)]

    slots, active, weights = _locate(indices, sigma, w, params)
    terms = np.where(active, (linear[slots] * bits + alpha0 / t) * weights, 0.0)
    x_stat = float(terms.sum())
    return decide(x_stat, tie_rng), x_stat


def run_classical(
    params: PartitionParams,
    x: np.ndarray,
    sigma: np.ndarray,
    w: np.ndarray,
    poly: SignPolynomial,
    m: int,
    rng: np.random.Generator,
    tie_rng: np.random.Generator,
) -> tuple[int, float]:
    """Full sampled-bits run on one instance (int64 arrays x, sigma, w)
    from a degree-1 witness, the one ``protocol_witness(f, 1)`` returns
    when sdeg(f) <= 1, sending m bits (``required_samples``)."""
    indices, bits = alice_sample(x, m, rng)
    return bob_decide(indices, bits, sigma, w, poly, params, tie_rng)


def level_one_slots(f: BooleanFunction) -> np.ndarray:
    """Level-1 coefficients by 0-based slot, 0.0 where |c| <= 1e-12; the
    uniform sender's guard (raises unless phdeg(f) <= 1 with level-1 mass
    to decode from)."""
    if f.is_constant:
        raise UnsupportedFunctionError("constant function")
    spec = fourier_transform(f)
    if pure_high_degree(spec) >= 2:
        raise UnsupportedFunctionError("phdeg(f) >= 2")
    level1 = spec.values[1 << np.arange(f.t)]
    level1 = np.where(np.abs(level1) > 1e-12, level1, 0.0)
    if not level1.any():
        raise UnsupportedFunctionError("no level-1 Fourier mass to decode from")
    return level1


def run_uniform_phd1(
    params: PartitionParams,
    x: np.ndarray,
    sigma: np.ndarray,
    w: np.ndarray,
    slots: np.ndarray,
    subset: np.ndarray,
    tie_rng: np.random.Generator,
) -> tuple[int, float]:
    """Uniform-distribution sender for phdeg(f) <= 1 on one instance
    (int64 arrays x, sigma, w), decoding from the nonzero level-1
    coefficients ``level_one_slots(f)`` returns.

    Alice sends ``subset``, a uniform index subset (1-based int64 indices
    in the order drawn, e.g. the first entries of a ``fisher_yates``
    permutation); Bob takes the first index whose slot carries a nonzero
    level-1 coefficient inside an active block and returns (guess,
    statistic) with statistic sgn(level-1 coefficient) * x_i * w_{j(i)};
    a fair coin if no index qualifies.
    """
    if not 1 <= len(subset) <= params.n:
        raise ValueError("subset size must lie in [1, n]")
    subset_slots, active, weights = _locate(subset, sigma, w, params)
    coeffs = slots[subset_slots]
    hits = np.flatnonzero(active & (coeffs != 0))

    statistic = 0.0
    if hits.size:
        first = hits[0]
        sign = 1 if coeffs[first] > 0 else -1
        statistic = float(sign * x[subset[first] - 1] * weights[first])
    return decide(statistic, tie_rng), statistic
