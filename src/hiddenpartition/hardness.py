"""Desk-scale verification lab for the Fourier-analytic hardness quantities.

Everything here comes in pairs: a closed-form expression (the system under
test) and a brute-force evaluation straight from the definitions (the
ground truth).  The quantities covered:

  * the induced distributions (p_sigma, q_sigma) of the promise string
    and its complement over a message set A, as the int64 histogram
    |A| p_sigma (|A| q_sigma is it reversed), and their total variation
    distance (sum-of-absolute-differences normalisation, range [0, 2]);
  * the Fourier coefficients of r_sigma = p_sigma - q_sigma, whose closed
    form is a sum over per-block subset tuples weighted by coefficients of
    f and of the characteristic function of A;
  * the correlation u(sigma, w, S) between a character chi_S and the
    promise indicator, whose closed form is a product over the nonempty
    blocks of sigma(S);
  * the level-weighted spectral-mass inequality for sparse-support
    functions (0/1 indicators here).

Each side of the r_sigma and u pairs is an integer numerator divided once
by its exact integer denominator; Python's int / int and float64 division
of integers that float64 holds exactly both round correctly, so a closed form
and its brute force are equal floats unless the rationals differ.

Exhaustive enumeration bounds every routine, so sizes are capped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .boolfn import BooleanFunction, row_weights, walsh_hadamard
from .instances import PartitionParams, blocks_to_rows, inverse_permutation, promise_masks
from .rng import fisher_yates, stream

# Largest string length any routine here enumerates (induced_distributions);
# message sets are refused above it before their 2^n-sized draw is made.
MAX_MESSAGE_BITS = 20
# The largest n each hardness check enumerates (rhat also caps t), applied by
# the check's routine and by run_check before any draw.
CHECK_CAPS = {"tvd": 16, "rhat": 12, "u": 12, "kkl": 14}
MAX_RHAT_ARITY = 4
# A kkl_check margin counts as a violation only below -KKL_TOL.
KKL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MessageSet:
    """Nonempty set of strings, stored as a sorted, unique, read-only int64
    array of row-encoded bitmasks (converted once from whatever iterable or
    array it is given)."""

    n: int
    members: np.ndarray

    def __post_init__(self) -> None:
        members = self.members
        if not isinstance(members, np.ndarray):  # a set, list or other iterable
            members = np.fromiter(members, dtype=np.int64)
        # np.unique's hash path costs ~20x a sort plus an adjacent-inequality mask
        members = np.sort(members.astype(np.int64, copy=False), axis=None)
        distinct = np.ones(members.size, dtype=bool)
        np.not_equal(members[1:], members[:-1], out=distinct[1:])
        members = members[distinct]
        if members.size == 0:
            raise ValueError("message set must be nonempty")
        if members[0] < 0 or members[-1] >= 2**self.n:
            raise ValueError("member out of range")
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def characteristic_spectrum(self) -> np.ndarray:
        """Spectrum of the 0/1 characteristic function (computed on demand)."""
        indicator = np.zeros(2**self.n)
        indicator[self.members] = 1.0
        return walsh_hadamard(indicator) / 2**self.n


def check_cap(check: str, n: int, t: int = 1) -> None:
    """Refuse an n over the check's CHECK_CAPS row (for rhat, also a t over MAX_RHAT_ARITY)."""
    arity = f", t <= {MAX_RHAT_ARITY}" if check == "rhat" else ""
    if n > CHECK_CAPS[check] or (arity and t > MAX_RHAT_ARITY):
        raise ValueError(f"{check} is capped at n <= {CHECK_CAPS[check]}{arity}")


def draw_message_set(n: int, size: int, rng: np.random.Generator) -> MessageSet:
    """The full cube when size is 2^n (drawing nothing from rng), else a
    random set of that size."""
    if n > MAX_MESSAGE_BITS:
        raise ValueError(f"message sets are capped at n <= {MAX_MESSAGE_BITS}")
    if not 1 <= size <= 2**n:
        raise ValueError("size out of range")
    members = np.arange(2**n) if size == 2**n else rng.choice(2**n, size=size, replace=False)
    return MessageSet(n, members)


def induced_distributions(
    f: BooleanFunction,
    message_set: MessageSet,
    sigma: Sequence[int],
    params: PartitionParams,
) -> np.ndarray:
    """|A| p_sigma: the int64 histogram, indexed by row-encoded mask, of the
    promise string over Alice's strings in the message set A.  The
    complement flips every bit (mask -> full - mask), so |A| q_sigma is
    the same histogram reversed."""
    if params.n > MAX_MESSAGE_BITS:
        raise ValueError(f"exhaustive enumeration capped at n <= {MAX_MESSAGE_BITS}")
    if message_set.n != params.n:
        raise ValueError("dimension mismatch")
    masks = promise_masks(f, message_set.members, sigma, params)
    return np.bincount(masks, minlength=2**params.active_blocks)


class TvdEstimate(NamedTuple):
    """expected_tvd's mean over the sigmas and its standard error (a read-only tuple)."""
    mean: float
    stderr: float


def expected_tvd(
    f: BooleanFunction,
    message_set: MessageSet,
    params: PartitionParams,
    sigma_samples: int,
    rng: np.random.Generator,
) -> TvdEstimate:
    """Monte-Carlo estimate of the permutation-averaged distance between
    the induced distributions.  Larger message sets drive this toward 0.

    Each sigma's distance is kept as the integer sum |(|A| p) - (|A| q)|,
    |A| times the distance; the mean is their total over |A| * sigmas,
    rounded once."""
    check_cap("tvd", params.n)
    if sigma_samples < 1:
        raise ValueError(f"--sigmas must be at least 1, got {sigma_samples}")
    distances = np.empty(sigma_samples, dtype=np.int64)
    for i in range(sigma_samples):
        counts = induced_distributions(f, message_set, fisher_yates(params.n, rng), params)
        distances[i] = np.abs(counts - counts[::-1]).sum()
    values = distances / len(message_set)
    stderr = float(values.std(ddof=1) / math.sqrt(sigma_samples)) if sigma_samples > 1 else 0.0
    return TvdEstimate(int(distances.sum()) / (len(message_set) * sigma_samples), stderr)


# ---------------------------------------------------------------------------
# Fourier coefficients of r_sigma = p_sigma - q_sigma
# ---------------------------------------------------------------------------


def r_hat_bruteforce(
    f: BooleanFunction,
    message_set: MessageSet,
    sigma: Sequence[int],
    params: PartitionParams,
) -> np.ndarray:
    """Every Fourier coefficient of r_sigma, straight from the histogram:
    entry V (bit j-1 for block j) is the coefficient of chi_V, computed as
    the transform of the count difference |A| (p - q) over |A| 2^len."""
    counts = induced_distributions(f, message_set, sigma, params)
    return walsh_hadamard(counts - counts[::-1]) / (len(message_set) * counts.size)


def r_hat_formula(
    f: BooleanFunction,
    message_set: MessageSet,
    sigma: Sequence[int],
    params: PartitionParams,
) -> np.ndarray:
    """Closed form of every coefficient, indexed like r_hat_bruteforce:
    zero for even |V|; otherwise, with the integers F = 2^t f^ and G = 2^n g^,
    2/(|A| 2^len 2^(t|V|)) * sum over subset tuples (T_v)_{v in V} of
    prod F(T_v) * G(sigma^-1(V bullet T))."""
    check_cap("rhat", params.n, params.t)
    n, t, length = params.n, params.t, params.active_blocks
    fhat = walsh_hadamard(f.table).astype(np.int64).tolist()  # F = 2^t f^
    support = [(mask, c) for mask, c in enumerate(fhat) if c != 0]
    ghat = (message_set.characteristic_spectrum() * 2**n).astype(np.int64).tolist()
    inverse = inverse_permutation(sigma)

    # placed[j][tmask]: the sigma^-1 image of slots tmask of block j+1, as an n-bit mask
    preimage_bits = 1 << (inverse[: length * t].reshape(length, t) - 1)
    slot_bits = (np.arange(2**t)[:, None] >> np.arange(t)) & 1
    placed = (preimage_bits @ slot_bits.T).tolist()

    denominator = len(message_set) * 2**length
    spectrum = np.zeros(2**length)
    for v_mask in range(1, 2**length):
        blocks = [j for j in range(length) if (v_mask >> j) & 1]
        if len(blocks) % 2 == 0:
            continue
        total = 0
        for assignment in itertools.product(support, repeat=len(blocks)):
            coeff = 1
            gmask = 0
            for j, (tmask, c) in zip(blocks, assignment):
                coeff *= c
                gmask |= placed[j][tmask]
            total += coeff * ghat[gmask]
        spectrum[v_mask] = 2 * total / (denominator << (t * len(blocks)))
    return spectrum


# ---------------------------------------------------------------------------
# The correlation u(sigma, w, S), with S a position bitmask (bit i-1 for i)
# ---------------------------------------------------------------------------


def _check_positions(s_mask: int, n: int) -> None:
    if not 0 <= s_mask < 2**n:
        raise ValueError(f"S must be a bitmask of positions in [n], 0 <= S < 2^{n}")


def u_bruteforce(
    f: BooleanFunction,
    sigma: Sequence[int],
    w: Sequence[int],
    s_mask: int,
    params: PartitionParams,
) -> float:
    """Definitional sum over all strings:
    (1/2) sum_x p_x p_sigma chi_S(x) (1[B_f = w] - 1[B_f = complement]),
    an integer sum over 2^(n+1) n!."""
    check_cap("u", params.n)
    n = params.n
    _check_positions(s_mask, n)

    rows = np.arange(2**n, dtype=np.int64)  # every string, row-encoded
    zmasks = promise_masks(f, rows, sigma, params)
    w_mask = int(blocks_to_rows(np.asarray(w)))
    full = 2**params.active_blocks - 1

    chi = 1 - 2 * (np.bitwise_count(rows & s_mask) & 1).astype(np.int64)
    indicator = (zmasks == w_mask).astype(np.int64) - (zmasks == (full ^ w_mask))
    return int((chi * indicator).sum()) / (2 ** (n + 1) * math.factorial(n))


def u_formula(
    f: BooleanFunction,
    sigma: Sequence[int],
    w: Sequence[int],
    s_mask: int,
    params: PartitionParams,
) -> float:
    """Closed form: zero unless sigma(S) sits inside the active prefix and
    has an odd number of nonempty blocks; otherwise
    p_sigma / 2^len * prod over the k nonempty blocks of f^(U_j) w_j, that
    is prod F(U_j) w_j / (n! 2^(len + t k)) with the integers F = 2^t f^."""
    n, t = params.n, params.t
    _check_positions(s_mask, n)
    in_s = ((s_mask >> np.arange(n)) & 1) == 1
    fhat = walsh_hadamard(f.table)  # F = 2^t f^, exact integers
    if fhat[0] != 0:
        raise ValueError("closed form requires a balanced function (zero mean)")
    image = np.asarray(sigma, dtype=np.int64)[in_s]
    if np.any(image > params.active_len):
        return 0.0
    slot_masks = [0] * params.active_blocks  # U_j as a subset-of-[t] mask
    for p in image.tolist():
        slot_masks[(p - 1) // t] |= 1 << ((p - 1) % t)
    nonempty = [j for j, mask in enumerate(slot_masks) if mask]
    if len(nonempty) % 2 == 0:
        return 0.0
    numerator = 1
    for j in nonempty:
        numerator *= int(fhat[slot_masks[j]]) * int(w[j])
    return numerator / (math.factorial(n) << (params.active_blocks + t * len(nonempty)))


# ---------------------------------------------------------------------------
# Level-weighted spectral mass inequality
# ---------------------------------------------------------------------------


class KklReport(NamedTuple):
    """kkl_check's sides and margin (right - left) per delta; violations: margins < -KKL_TOL."""
    deltas: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    margins: tuple[float, ...]
    violations: int


def kkl_check(message_set: MessageSet, deltas: Sequence[float]) -> KklReport:
    """Evaluate sum_S delta^|S| g^(S)^2 <= (|A|/2^n)^(2/(1+delta)) for the
    0/1 characteristic function of the set, over a grid of deltas."""
    n = message_set.n
    check_cap("kkl", n)
    spectrum = message_set.characteristic_spectrum()
    weights = np.bincount(row_weights(n), weights=spectrum**2, minlength=n + 1)
    density = len(message_set) / 2**n

    lhs, rhs, margins = [], [], []
    for delta in deltas:
        if not 0 <= delta <= 1:
            raise ValueError("delta must lie in [0, 1]")
        left = float(weights @ np.power(delta, np.arange(n + 1)))
        right = float(density ** (2 / (1 + delta)))
        lhs.append(left)
        rhs.append(right)
        margins.append(right - left)
    violations = sum(1 for m in margins if m < -KKL_TOL)
    return KklReport(tuple(deltas), tuple(lhs), tuple(rhs), tuple(margins), violations)


# ---------------------------------------------------------------------------
# The hardness command's checks
# ---------------------------------------------------------------------------


def run_check(check: str, f: BooleanFunction, params: PartitionParams, cases: int,
              set_size: int | None, sigmas: int, seed: int) -> dict:
    """The record of ``hardness --check`` (tvd, rhat, u or kkl), each case
    drawn from its own stream, after the check's cap is met.  rhat and u
    count every value where a closed form and its brute force differ as a
    violation; ``max_discrepancy`` is the largest absolute difference.  A
    set size of None is 2^(n-1), or random per kkl case."""
    check_cap(check, params.n, params.t)
    for flag, count in (("--cases", cases), ("--sigmas", sigmas), ("--set-size", set_size)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    n = params.n
    if check == "kkl":
        deltas = [round(0.1 * k, 1) for k in range(1, 10)]
        reports = []
        for case in range(cases):
            rng = stream(seed, "hardness", "kkl", case)
            size = int(rng.integers(1, 2**n + 1)) if set_size is None else set_size
            reports.append(kkl_check(draw_message_set(n, size, rng), deltas))
        return {"check": "kkl", "cases": cases,
                "violations": sum(report.violations for report in reports),
                "min_margin": min(min(report.margins) for report in reports)}
    size = 2 ** (n - 1) if set_size is None else set_size  # tvd and rhat
    if check == "tvd":
        rng = stream(seed, "hardness", "tvd")
        estimate = expected_tvd(f, draw_message_set(n, size, rng), params, sigmas, rng)
        return {"check": "tvd", "cases": sigmas, "set_size": size,
                "mean": estimate.mean, "stderr": estimate.stderr, "violations": 0}
    worst = 0.0
    violations = 0
    for case in range(cases):
        rng = stream(seed, "hardness", check, case)
        if check == "rhat":
            message_set = draw_message_set(n, size, rng)
            sigma = fisher_yates(n, rng)
            formula = r_hat_formula(f, message_set, sigma, params)
            brute = r_hat_bruteforce(f, message_set, sigma, params)
        else:
            sigma = fisher_yates(n, rng)
            w = 1 - 2 * rng.integers(0, 2, size=params.active_blocks)
            mask = int(rng.integers(0, 2**n))
            formula = u_formula(f, sigma, w, mask, params)
            brute = u_bruteforce(f, sigma, w, mask, params)
        worst = max(worst, float(np.max(np.abs(formula - brute))))
        violations += int(np.count_nonzero(formula != brute))
    return {"check": check, "cases": cases, "max_discrepancy": worst, "violations": violations}
