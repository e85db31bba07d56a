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

Costs are counted in bits: m * (ceil(log2 n) + 1) per message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boolfn import BooleanFunction, fourier_transform, pure_high_degree
from .instances import PartitionParams
from .rng import coin
from .signpoly import BelowSignDegreeError, SignPolynomial, best_sign_polynomial, sign_degree


class UnsupportedFunctionError(ValueError):
    """The function does not meet the protocol's degree guard."""


@dataclass(frozen=True)
class ProtocolOutcome:
    guess: int
    statistic: float
    message_bits: int
    m: int  # samples or copies sent


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


def decide(statistic: float, tie_rng: Optional[np.random.Generator]) -> int:
    """sgn(statistic); a fair coin from tie_rng (+1 without one) on 0."""
    if statistic > 0:
        return 1
    if statistic < 0:
        return -1
    return coin(tie_rng) if tie_rng is not None else 1


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


def bob_decide(
    indices: np.ndarray,
    bits: np.ndarray,
    sigma: np.ndarray,
    w: np.ndarray,
    poly: SignPolynomial,
    params: PartitionParams,
    tie_rng: Optional[np.random.Generator] = None,
) -> ProtocolOutcome:
    """Fold the sampled bits into X and guess its sign (fair coin on X=0);
    indices, bits, sigma and w are int64 arrays."""
    if poly.degree > 1:
        raise ValueError("decision statistic needs a degree <= 1 polynomial")
    t = params.t
    alpha0 = poly.coeffs[0]
    linear = poly.coeffs[1 << np.arange(t)]

    positions = sigma[indices - 1]
    j = (positions + t - 1) // t
    k = (positions - 1) % t  # 0-based slot
    active = j <= params.active_blocks
    terms = np.where(
        active,
        (linear[k] * bits + alpha0 / t) * w[np.minimum(j, len(w)) - 1],
        0.0,
    )
    x_stat = float(terms.sum())
    m = len(indices)
    return ProtocolOutcome(decide(x_stat, tie_rng), x_stat, message_cost_bits(m, params.n), m)


def run_classical(
    params: PartitionParams,
    x: np.ndarray,
    sigma: np.ndarray,
    w: np.ndarray,
    poly: SignPolynomial,
    epsilon: float,
    rng: np.random.Generator,
    tie_rng: Optional[np.random.Generator] = None,
) -> ProtocolOutcome:
    """Full sampled-bits run on one instance (int64 arrays x, sigma, w)
    from a degree-1 witness, the one ``protocol_witness(f, 1)`` returns
    when sdeg(f) <= 1."""
    m = required_samples(params.t, params.alpha, poly.bias, epsilon)
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
    tie_rng: Optional[np.random.Generator] = None,
) -> ProtocolOutcome:
    """Uniform-distribution sender for phdeg(f) <= 1 on one instance
    (int64 arrays x, sigma, w), decoding from the nonzero level-1
    coefficients ``level_one_slots(f)`` returns.

    Alice sends ``subset``, a uniform index subset (1-based int64 indices
    in the order drawn, e.g. the first entries of a ``fisher_yates``
    permutation); Bob takes the first index whose slot carries a nonzero
    level-1 coefficient inside an active block and outputs
    sgn(level-1 coefficient) * x_i * w_{j(i)}; a fair coin if no index
    qualifies.
    """
    if not 1 <= len(subset) <= params.n:
        raise ValueError("subset size must lie in [1, n]")
    positions = sigma[subset - 1]
    j = (positions + params.t - 1) // params.t
    coeffs = slots[(positions - 1) % params.t]
    hits = np.flatnonzero((j <= params.active_blocks) & (coeffs != 0))

    statistic = 0.0
    if hits.size:
        first = hits[0]
        sign = 1 if coeffs[first] > 0 else -1
        statistic = float(sign * x[subset[first] - 1] * w[j[first] - 1])
    cost = message_cost_bits(len(subset), params.n)
    return ProtocolOutcome(decide(statistic, tie_rng), statistic, cost, len(subset))
