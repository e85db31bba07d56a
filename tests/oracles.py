"""Independent references for vectorised package routines.

Each one is the straightforward form a package routine replaced; the
tests check that the package still gives exactly what these give.
"""

import math

import numpy as np

from hiddenpartition.boolfn import all_points
from hiddenpartition.instances import b_map_rows


def list_fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Swap-from-the-back shuffle of [n] on a Python list, all swap
    indices drawn from ``rng`` in one call; 1-based int64 images."""
    perm = list(range(1, n + 1))
    draws = rng.integers(0, np.arange(n, 1, -1))  # draws[k] is uniform on [0, n-k)
    for k, j in enumerate(draws.tolist()):
        i = n - 1 - k
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


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


def induced_p_by_points(f, message_set, sigma, params) -> np.ndarray:
    """p_sigma as a histogram of ``promise_masks_by_points``."""
    masks = promise_masks_by_points(f, message_set, sigma, params)
    p = np.bincount(masks, minlength=2**params.active_blocks).astype(np.float64)
    return p / len(message_set)


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


def block_and_slot(position: int, t: int) -> tuple[int, int]:
    """j = ceil(pos/t) and k = ((pos-1) mod t) + 1 for a 1-based position."""
    return (position + t - 1) // t, (position - 1) % t + 1


def uniform_statistic_by_scan(instance, slots, subset) -> float:
    """The uniform sender's statistic, scanning the subset index by index
    for the first one whose slot carries a nonzero level-1 coefficient
    inside an active block."""
    params = instance.params
    for i in subset.tolist():
        j, k = block_and_slot(int(instance.sigma[i - 1]), params.t)
        if j <= params.active_blocks and slots[k - 1] != 0:
            sign = 1 if slots[k - 1] > 0 else -1
            return float(sign * instance.x[i - 1] * instance.w[j - 1])
    return 0.0
