"""Parity-to-symmetric-function instance reduction.

A symmetric function f with at least two sign changes can absorb 2-bit
parity instances: a pair (a, b) with 2a + b <= t is chosen so that

    f(weight b) = +1,   f(weight a+b) = -1,   f(weight 2a+b) = +1,

possibly after a recorded global sign flip of f.  Alice repeats her
string a times and pads with b "-1" bits and (t-2a-b) "+1" bits per
half-block so that every size-t block of the transformed instance has
Hamming weight a*|pair| + b, making f on the block equal parity on the
original pair.  The sign flip, when present, is absorbed by flipping w.

The only family admitting no such pair is not-all-equal on odd arity,
where the required 2a = t has no integer solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boolfn import (
    BooleanFunction, SymmetricSpec, all_points, parity, sign_changes, symmetric_spec_of,
    weight_profile,
)
from .instances import PartitionParams, b_map_rows, inverse_permutation
from .rng import fisher_yates

# Parity-instance sizes verify_reduction checks exhaustively: pairs of bits,
# up to the 2^10 strings it enumerates
PARITY_SIZES = (2, 4, 6, 8, 10)


class NoGadgetError(ValueError):
    """No weight pair exists (the odd-arity not-all-equal family)."""


@dataclass(frozen=True)
class ReductionGadget:
    """Weight pair (a, b) embedding 2-bit parity into a symmetric function."""

    a: int
    b: int
    t: int
    flipped: bool

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 0 or 2 * self.a + self.b > self.t:
            raise ValueError("gadget must satisfy a >= 1, b >= 0, 2a+b <= t")


def find_gadget(spec: SymmetricSpec) -> ReductionGadget:
    """Smallest (a, b) in lexicographic order satisfying the three weight
    conditions, preferring the unflipped orientation.

    Raises NoGadgetError exactly for not-all-equal on odd arity.
    """
    s = sign_changes(spec)
    if s < 2:
        raise ValueError("reduction needs at least two sign changes")
    profile = weight_profile(spec)
    t = spec.t
    for flipped in (False, True):
        sign = -1 if flipped else 1
        for a in range(1, t // 2 + 1):
            for b in range(0, t - 2 * a + 1):
                if (profile[b], profile[a + b], profile[2 * a + b]) == (sign, -sign, sign):
                    return ReductionGadget(a, b, t, flipped)
    # Exhaustion is only possible for the excluded family.
    th = spec.thresholds
    if t % 2 == 1 and th[1] - th[0] == t - 1:
        raise NoGadgetError("NAE-odd: no gadget")
    raise AssertionError(  # pragma: no cover - would contradict the search domain
        "gadget search exhausted outside the excluded family"
    )


def gadget_to_json(gadget: ReductionGadget) -> dict:
    return {"a": gadget.a, "b": gadget.b, "flipped": gadget.flipped}


# ---------------------------------------------------------------------------
# Instance transformation
# ---------------------------------------------------------------------------


def extended_string_rows(xs: np.ndarray, gadget: ReductionGadget) -> np.ndarray:
    """Transform parity-instance strings (rows of xs, length n) into
    strings of length n*t/2: a copies of x, then b*n/2 entries -1, then
    (t-2a-b)*n/2 entries +1.

    Each transformed block then carries exactly b extra -1s and
    (t-2a-b) extra +1s, giving block weight a*|pair| + b.
    """
    count, n = xs.shape
    half = n // 2
    parts = [np.tile(xs, (1, gadget.a))]
    parts.append(np.full((count, gadget.b * half), -1, dtype=xs.dtype))
    tail = (gadget.t - 2 * gadget.a - gadget.b) * half
    parts.append(np.full((count, tail), 1, dtype=xs.dtype))
    return np.hstack(parts)


def extended_permutation(sigma: Sequence[int], gadget: ReductionGadget) -> np.ndarray:
    """Extend a permutation of [n] (pair blocks) to one of [n*t/2]
    (size-t blocks): block j collects the a copies of its original pair
    followed by its t-2a padding positions, one from each padding band.

    Row j-1 of ``members`` lists block j's 1-based positions in x_f in
    that order, so one scatter sends them to slots (j-1)*t + 1 .. j*t."""
    sigma = np.asarray(sigma, dtype=np.int64)
    n = len(sigma)
    if n % 2 != 0:
        raise ValueError("parity instances need even n")
    half, a, length = n // 2, gadget.a, n * gadget.t // 2
    pairs = inverse_permutation(sigma).reshape(half, 1, 2)
    copies = (pairs + n * np.arange(a).reshape(1, a, 1)).reshape(half, 2 * a)
    padding = a * n + np.arange(1, half + 1)[:, None] + half * np.arange(gadget.t - 2 * a)
    members = np.hstack([copies, padding])

    sigma_f = np.empty(length, dtype=np.int64)
    sigma_f[members.ravel() - 1] = np.arange(1, length + 1)
    return sigma_f


def blockwise_identity_counterexamples(
    f: BooleanFunction,
    gadget: ReductionGadget,
    sigma: Sequence[int],
    xs: np.ndarray,
) -> Optional[dict]:
    """Check sign * f(transformed block) == parity(original pair) on every
    block of every row of xs; returns the first violation or None."""
    n = xs.shape[1]
    pair_parities = b_map_rows(parity(2), xs, sigma, PartitionParams(n, 2, 1))

    x_f = extended_string_rows(xs, gadget)
    sigma_f = extended_permutation(sigma, gadget)
    params_f = PartitionParams(n * gadget.t // 2, gadget.t, 1)
    f_values = b_map_rows(f, x_f, sigma_f, params_f)
    sign = -1 if gadget.flipped else 1

    mismatches = np.argwhere(sign * f_values != pair_parities)
    if len(mismatches) == 0:
        return None
    row, block = (int(v) for v in mismatches[0])
    return {
        "x": [int(v) for v in xs[row]],
        "sigma": [int(v) for v in sigma],
        "block": block + 1,
    }


def verify_reduction(
    f: BooleanFunction,
    n_small: int,
    sigma_samples: int,
    rng: np.random.Generator,
) -> dict:
    """Exhaustive desk-scale check of the reduction for the symmetric f:
    every x in {-1,+1}^n_small under ``sigma_samples`` permutations (the
    identity, then sigma_samples - 1 drawn from rng), up to the first sigma
    at which a transformed promise block differs from its pair's parity.

    Returns the record ``reduce`` prints: ``status`` ("pass", "fail" or
    "no-gadget"), ``gadget`` (``gadget_to_json``), ``cases`` (the x
    checked, 2^n_small per sigma) and the first ``counterexample``.
    Raises ValueError for a non-symmetric f, then for a bad n_small or
    sigma_samples, then (``find_gadget``) for fewer than two sign changes.
    """
    sym = symmetric_spec_of(f)
    if sym is None:
        raise ValueError("function is not symmetric")
    if n_small not in PARITY_SIZES:
        raise ValueError(f"parity-instance size n must be one of "
                         f"{', '.join(map(str, PARITY_SIZES))}, got {n_small}")
    if sigma_samples < 1:
        raise ValueError("sigma_samples must be at least 1")
    try:
        gadget = find_gadget(sym)
    except NoGadgetError:
        return {"status": "no-gadget", "gadget": None, "cases": 0, "counterexample": None}

    xs = all_points(n_small)
    for k in range(sigma_samples):
        sigma = fisher_yates(n_small, rng) if k else np.arange(1, n_small + 1, dtype=np.int64)
        counterexample = blockwise_identity_counterexamples(f, gadget, sigma, xs)
        if counterexample is not None:
            break
    status = "pass" if counterexample is None else "fail"
    return {"status": status, "gadget": gadget_to_json(gadget), "cases": (k + 1) * len(xs),
            "counterexample": counterexample}
