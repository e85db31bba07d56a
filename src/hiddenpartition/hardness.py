"""Desk-scale verification lab for the Fourier-analytic hardness quantities.

Everything here comes in pairs: a closed-form expression (the system under
test) and a brute-force evaluation straight from the definitions (the
ground truth).  The quantities covered:

  * the induced distribution pair (p_sigma, q_sigma) of the promise string
    over a message set A, and their total variation distance
    (sum-of-absolute-differences normalisation, range [0, 2]);
  * the Fourier coefficients of r_sigma = p_sigma - q_sigma, whose closed
    form is a sum over per-block subset tuples weighted by coefficients of
    f and of the characteristic function of A;
  * the correlation u(sigma, w, S) between a character chi_S and the
    promise indicator, whose closed form is a product over the nonempty
    blocks of sigma(S);
  * the level-weighted spectral-mass inequality for sparse-support
    functions (0/1 indicators here).

Exhaustive enumeration bounds every routine, so sizes are capped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boolfn import BooleanFunction, fourier_transform, walsh_hadamard
from .instances import PartitionParams, b_map_rows
from .rng import fisher_yates

FORMULA_TOL = 1e-10
# Largest string length any routine here enumerates (induced_distributions);
# message sets are refused above it before their 2^n-sized draw is made.
MAX_MESSAGE_BITS = 20


@dataclass(frozen=True)
class MessageSet:
    """Nonempty set of strings, stored as row-encoded bitmasks."""

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("message set must be nonempty")
        if any(not 0 <= m < 2**self.n for m in self.members):
            raise ValueError("member out of range")

    def __len__(self) -> int:
        return len(self.members)

    def indicator(self) -> np.ndarray:
        """0/1 characteristic vector over all 2^n rows."""
        g = np.zeros(2**self.n)
        g[sorted(self.members)] = 1.0
        return g

    def characteristic_spectrum(self) -> np.ndarray:
        """Spectrum of the 0/1 characteristic function (computed on demand)."""
        return walsh_hadamard(self.indicator()) / 2**self.n

    def points(self) -> np.ndarray:
        """(|A|, n) matrix of +-1 member strings, in sorted mask order."""
        masks = np.array(sorted(self.members), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(self.n)) & 1
        return 1 - 2 * bits


def random_message_set(n: int, size: int, rng: np.random.Generator) -> MessageSet:
    if n > MAX_MESSAGE_BITS:
        raise ValueError(f"message sets are capped at n <= {MAX_MESSAGE_BITS}")
    if not 1 <= size <= 2**n:
        raise ValueError("size out of range")
    masks = rng.choice(2**n, size=size, replace=False)
    return MessageSet(n, frozenset(int(m) for m in masks))


def full_cube(n: int) -> MessageSet:
    if n > MAX_MESSAGE_BITS:
        raise ValueError(f"message sets are capped at n <= {MAX_MESSAGE_BITS}")
    return MessageSet(n, frozenset(range(2**n)))


@dataclass(frozen=True)
class InducedDistributions:
    """Histogram pair over promise strings, indexed by row-encoded mask."""

    length: int
    p: np.ndarray
    q: np.ndarray


def induced_distributions(
    f: BooleanFunction,
    message_set: MessageSet,
    sigma: Sequence[int],
    params: PartitionParams,
) -> InducedDistributions:
    """Distributions of the promise string and its complement when Alice's
    string is uniform over the message set."""
    if params.n > MAX_MESSAGE_BITS:
        raise ValueError(f"exhaustive enumeration capped at n <= {MAX_MESSAGE_BITS}")
    if message_set.n != params.n:
        raise ValueError("dimension mismatch")
    length = params.active_blocks
    zs = b_map_rows(f, message_set.points(), sigma, params)
    bits = (1 - zs) // 2
    masks = bits @ (1 << np.arange(length, dtype=np.int64))
    p = np.bincount(masks, minlength=2**length).astype(np.float64)
    p /= len(message_set)
    q = p[::-1].copy()  # complement flips every bit: mask -> full - mask
    return InducedDistributions(length, p, q)


def tvd(d1: np.ndarray, d2: np.ndarray) -> float:
    """Total variation distance, sum |d1 - d2| (range [0, 2])."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if d1.shape != d2.shape:
        raise ValueError("distributions must share a support")
    return float(np.abs(d1 - d2).sum())


@dataclass(frozen=True)
class TvdEstimate:
    mean: float
    stderr: float
    samples: int


def expected_tvd(
    f: BooleanFunction,
    message_set: MessageSet,
    params: PartitionParams,
    sigma_samples: int,
    rng: np.random.Generator,
) -> TvdEstimate:
    """Monte-Carlo estimate of the permutation-averaged distance between
    the induced distributions.  Larger message sets drive this toward 0."""
    if params.n > 16:
        raise ValueError("capped at n <= 16")
    values = np.empty(sigma_samples)
    for i in range(sigma_samples):
        sigma = fisher_yates(params.n, rng)
        dists = induced_distributions(f, message_set, sigma, params)
        values[i] = tvd(dists.p, dists.q)
    stderr = float(values.std(ddof=1) / math.sqrt(sigma_samples)) if sigma_samples > 1 else 0.0
    return TvdEstimate(float(values.mean()), stderr, sigma_samples)


# ---------------------------------------------------------------------------
# Fourier coefficients of r_sigma = p_sigma - q_sigma
# ---------------------------------------------------------------------------


def _inverse_permutation(sigma: Sequence[int]) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.int64)
    inverse = np.empty(len(sigma) + 1, dtype=np.int64)
    inverse[sigma] = np.arange(1, len(sigma) + 1)
    return inverse


def r_hat_bruteforce(
    f: BooleanFunction,
    message_set: MessageSet,
    sigma: Sequence[int],
    v_blocks: Iterable[int],
    params: PartitionParams,
) -> float:
    """Coefficient of chi_V in r_sigma, straight from the histograms."""
    v_mask = _block_set_mask(v_blocks, params.active_blocks)
    dists = induced_distributions(f, message_set, sigma, params)
    r = dists.p - dists.q
    zmasks = np.arange(2**dists.length, dtype=np.uint64)
    chi = 1 - 2 * (np.bitwise_count(zmasks & np.uint64(v_mask)).astype(np.int64) % 2)
    return float((r * chi).sum() / 2**dists.length)


def r_hat_formula(
    f: BooleanFunction,
    message_set: MessageSet,
    sigma: Sequence[int],
    v_blocks: Iterable[int],
    params: PartitionParams,
) -> float:
    """Closed form: zero for even |V|; otherwise
    2^(n+1)/(|A| 2^len) * sum over subset tuples (T_1..T_k) of
    prod f^(T_i) * g^(sigma^-1(V bullet T))."""
    v_sorted = sorted(set(int(v) for v in v_blocks))
    if any(not 1 <= v <= params.active_blocks for v in v_sorted):
        raise ValueError("V must be a set of active block indices")
    k = len(v_sorted)
    if k % 2 == 0:
        return 0.0
    if params.n > 12 or params.t > 4:
        raise ValueError("closed-form sum capped at n <= 12, t <= 4")

    n, t = params.n, params.t
    fhat = fourier_transform(f)
    support = [(mask, c) for mask, c in enumerate(fhat.values) if c != 0.0]
    ghat = message_set.characteristic_spectrum()
    inverse = _inverse_permutation(sigma)

    # per block v and per subset-of-[t] mask: the sigma^-1 image as an n-bit mask
    placed = {}
    for v in v_sorted:
        base = (v - 1) * t
        images = [0] * 2**t
        for tmask in range(2**t):
            mask = 0
            m = tmask
            while m:
                i = (m & -m).bit_length()  # slot index, 1-based
                mask |= 1 << (inverse[base + i] - 1)
                m &= m - 1
            images[tmask] = mask
        placed[v] = images

    total = 0.0
    for assignment in itertools.product(support, repeat=k):
        coeff = 1.0
        gmask = 0
        for v, (tmask, c) in zip(v_sorted, assignment):
            coeff *= c
            gmask |= placed[v][tmask]
        total += coeff * ghat[gmask]
    scale = 2 ** (n + 1) / (len(message_set) * 2**params.active_blocks)
    return float(scale * total)


def _block_set_mask(v_blocks: Iterable[int], active_blocks: int) -> int:
    mask = 0
    for v in v_blocks:
        if not 1 <= v <= active_blocks:
            raise ValueError("V must be a set of active block indices")
        mask |= 1 << (v - 1)
    return mask


# ---------------------------------------------------------------------------
# The correlation u(sigma, w, S) and its block decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Split of a position set V into per-block slot subsets."""

    v: frozenset[int]
    blocks: tuple[frozenset[int], ...]
    nonempty: tuple[tuple[int, frozenset[int]], ...]  # (block index, slots)


def decompose_blocks(positions: Iterable[int], n: int, t: int) -> BlockDecomposition:
    v = frozenset(int(p) for p in positions)
    if any(not 1 <= p <= n for p in v):
        raise ValueError("positions must lie in [n]")
    blocks = []
    nonempty = []
    for j in range(1, n // t + 1):
        lo = (j - 1) * t
        slots = frozenset(p - lo for p in v if lo < p <= lo + t)
        blocks.append(slots)
        if slots:
            nonempty.append((j, slots))
    return BlockDecomposition(v, tuple(blocks), tuple(nonempty))


def compose_blocks(blocks: Sequence[Iterable[int]], t: int) -> frozenset[int]:
    """Inverse of decompose_blocks: position the per-block subsets."""
    positions = set()
    for j, slots in enumerate(blocks, start=1):
        for k in slots:
            positions.add((j - 1) * t + k)
    return frozenset(positions)


def u_bruteforce(
    f: BooleanFunction,
    sigma: Sequence[int],
    w: Sequence[int],
    positions: Iterable[int],
    params: PartitionParams,
) -> float:
    """Definitional sum over all strings:
    (1/2) sum_x p_x p_sigma chi_S(x) (1[B_f = w] - 1[B_f = complement])."""
    if params.n > 12:
        raise ValueError("brute force capped at n <= 12")
    n = params.n
    s_mask = 0
    for p in positions:
        if not 1 <= p <= n:
            raise ValueError("positions must lie in [n]")
        s_mask |= 1 << (p - 1)

    rows = np.arange(2**n, dtype=np.int64)
    xs = 1 - 2 * ((rows[:, None] >> np.arange(n)) & 1)
    zs = b_map_rows(f, xs, sigma, params)
    zbits = (1 - zs) // 2
    zmasks = zbits @ (1 << np.arange(params.active_blocks, dtype=np.int64))
    w_bits = np.asarray([(1 - wi) // 2 for wi in w], dtype=np.int64)
    w_mask = int(w_bits @ (1 << np.arange(len(w_bits), dtype=np.int64)))
    full = 2**params.active_blocks - 1

    chi = 1 - 2 * (np.bitwise_count(rows.astype(np.uint64) & np.uint64(s_mask)).astype(np.int64) % 2)
    indicator = (zmasks == w_mask).astype(np.float64) - (zmasks == (full ^ w_mask)).astype(np.float64)
    p_x = 1 / 2**n
    p_sigma = 1 / math.factorial(n)
    return float(0.5 * p_x * p_sigma * (chi * indicator).sum())


def u_formula(
    f: BooleanFunction,
    sigma: Sequence[int],
    w: Sequence[int],
    positions: Iterable[int],
    params: PartitionParams,
) -> float:
    """Closed form: zero unless sigma(S) sits inside the active prefix and
    has an odd number of nonempty blocks; otherwise
    p_sigma / 2^len * prod over nonempty blocks of f^(U_j) w_j."""
    fhat = fourier_transform(f)
    if abs(fhat.coefficient(0)) > 1e-12:
        raise ValueError("closed form requires a balanced function (zero mean)")
    sigma = np.asarray(sigma, dtype=np.int64)
    image = {int(sigma[p - 1]) for p in positions}
    if any(p > params.active_len for p in image):
        return 0.0
    decomposition = decompose_blocks(image, params.n, params.t)
    if len(decomposition.nonempty) % 2 == 0:
        return 0.0
    p_sigma = 1 / math.factorial(params.n)
    value = p_sigma / 2**params.active_blocks
    for j, slots in decomposition.nonempty:
        mask = 0
        for k in slots:
            mask |= 1 << (k - 1)
        value *= fhat.coefficient(mask) * w[j - 1]
    return float(value)


# ---------------------------------------------------------------------------
# Level-weighted spectral mass inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KklReport:
    deltas: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    margins: tuple[float, ...]
    violations: int


def kkl_check(
    message_set: MessageSet, deltas: Sequence[float], tol: float = 1e-12
) -> KklReport:
    """Evaluate sum_S delta^|S| g^(S)^2 <= (|A|/2^n)^(2/(1+delta)) for the
    0/1 characteristic function of the set, over a grid of deltas."""
    n = message_set.n
    if n > 14:
        raise ValueError("capped at n <= 14")
    spectrum = message_set.characteristic_spectrum()
    levels = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(np.int64)
    weights = np.bincount(levels, weights=spectrum**2, minlength=n + 1)
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
    violations = sum(1 for m in margins if m < -tol)
    return KklReport(tuple(deltas), tuple(lhs), tuple(rhs), tuple(margins), violations)
