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
sees x and costs m * (ceil(log2 n) + 1) bits.  The runs take a chunk of
trials whole and return Bob's statistic per trial; the guess is its sign
(``experiments.run_protocol_trials``).
"""

from __future__ import annotations

import math

import numpy as np

from .boolfn import BooleanFunction, fourier_transform, pure_high_degree
from .instances import PartitionParams, string_values
from .signpoly import SignPolynomial


class UnsupportedFunctionError(ValueError):
    """The function does not meet the uniform sender's guard
    (``level_one_slots``); the sign-degree guards of the other two
    protocols raise signpoly.BelowSignDegreeError."""


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
    if not math.isfinite(value):
        raise ValueError(f"no finite sample count reaches epsilon = {epsilon!r} at bias {beta!r}")
    # tiny slack so float noise cannot bump an exact integer to its successor
    return max(1, math.ceil(value - 1e-9))


def alice_sample(
    xs: np.ndarray, n: int, m: int, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Per packed row of xs (``generate_instances``' x, of length n), m
    i.i.d. uniform 1-based indices drawn with replacement from that row's
    rng, and the bits at them: (T, m) int64 indices and int8 bits."""
    if m < 1:
        raise ValueError("sample count must be positive")
    indices = np.empty((len(rngs), m), dtype=np.int64)
    for row, rng in zip(indices, rngs):
        row[:] = rng.integers(1, n + 1, size=m)
    return indices, string_values(xs, indices)


def message_cost_bits(m: int, n: int) -> int:
    return m * (math.ceil(math.log2(n)) + 1)


def _locate(
    indices: np.ndarray, sigmas: np.ndarray, ws: np.ndarray, params: PartitionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each 1-based index of x in a (T, k) array, one row per trial: the
    0-based slot of its permuted position, whether its block lies in the
    active prefix, and that block's w (clamped to the last active block)."""
    if ((indices < 1) | (indices > params.n)).any():
        raise ValueError("indices must lie in [1, n]")
    blocks, slots = np.divmod(np.take_along_axis(sigmas, indices - 1, axis=1) - 1, params.t)
    weights = np.take_along_axis(ws, np.minimum(blocks, ws.shape[1] - 1), axis=1)
    return slots, blocks < params.active_blocks, weights


def bob_decide(
    indices: np.ndarray,
    bits: np.ndarray,
    sigmas: np.ndarray,
    ws: np.ndarray,
    poly: SignPolynomial,
    params: PartitionParams,
) -> np.ndarray:
    """Fold each row's sampled bits (``alice_sample``'s (T, m) arrays) into
    its statistic X; the (T,) float64 array of them."""
    if poly.degree > 1:
        raise ValueError("decision statistic needs a degree <= 1 polynomial")
    t = params.t
    alpha0 = poly.coeffs[0]
    linear = poly.coeffs[1 << np.arange(t)]

    slots, active, weights = _locate(indices, sigmas, ws, params)
    terms = np.where(active, (linear[slots] * bits + alpha0 / t) * weights, 0.0)
    return terms.sum(axis=1)


def run_classical(
    params: PartitionParams,
    xs: np.ndarray,
    sigmas: np.ndarray,
    ws: np.ndarray,
    poly: SignPolynomial,
    m: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Sampled-bits runs on a chunk of instances (``generate_instances``,
    x as packed bits) from a degree-1 witness, the one
    ``best_sign_polynomial(f, 1)`` returns when sdeg(f) <= 1, each sending
    m bits (``required_samples``)."""
    indices, bits = alice_sample(xs, params.n, m, rngs)
    return bob_decide(indices, bits, sigmas, ws, poly, params)


def level_one_slots(f: BooleanFunction) -> np.ndarray:
    """Level-1 coefficients by 0-based slot, exact (the spectrum of a +-1
    table is integers over 2^t in float64, so a zero is 0.0); the uniform
    sender's guard (raises unless phdeg(f) <= 1 with level-1 mass to
    decode from)."""
    if f.is_constant:
        raise UnsupportedFunctionError("constant function")
    spec = fourier_transform(f)
    if pure_high_degree(spec) >= 2:
        raise UnsupportedFunctionError("phdeg(f) >= 2")
    level1 = spec[1 << np.arange(f.t)]
    if not level1.any():
        raise UnsupportedFunctionError("no level-1 Fourier mass to decode from")
    return level1


def run_uniform_phd1(
    params: PartitionParams,
    xs: np.ndarray,
    sigmas: np.ndarray,
    ws: np.ndarray,
    slots: np.ndarray,
    subsets: np.ndarray,
) -> np.ndarray:
    """Uniform-distribution sender for phdeg(f) <= 1 on a chunk of
    instances (``generate_instances``, x as packed bits), decoding from
    the nonzero level-1 coefficients ``level_one_slots(f)`` returns.

    Row r's Alice sends ``subsets[r]``, a uniform index subset (1-based
    indices in the order drawn, e.g. the first columns of
    ``fisher_yates_rows``); Bob takes the first index whose slot carries a
    nonzero level-1 coefficient inside an active block; the statistic
    is sgn(level-1 coefficient) * x_i * w_{j(i)}, or 0 (a coin flip) if no
    index qualifies.  Returns the (T,) float64 array of statistics.
    """
    if not 1 <= subsets.shape[1] <= params.n:
        raise ValueError("subset size must lie in [1, n]")
    subset_slots, active, weights = _locate(subsets, sigmas, ws, params)
    coeffs = slots[subset_slots]
    hits = active & (coeffs != 0)
    bits = string_values(xs, subsets)
    candidates = np.where(hits, np.sign(coeffs) * bits * weights, 0.0)
    first = hits.argmax(axis=1)[:, None]  # column 0, a +0.0 candidate, where no index hits
    return np.take_along_axis(candidates, first, axis=1)[:, 0]
