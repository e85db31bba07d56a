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

from .boolfn import SymmetricSpec, all_points, make_symmetric, sign_changes, weight_profile
from .instances import (
    PartitionInstance,
    PartitionParams,
    permute_rows,
    _blocks_to_rows,
)
from .rng import fisher_yates


class NoGadgetError(ValueError):
    """No weight pair exists (the odd-arity not-all-equal family)."""


@dataclass(frozen=True)
class ReductionGadget:
    """Weight pair (a, b) embedding 2-bit parity into a symmetric function."""

    a: int
    b: int
    t: int
    spec: SymmetricSpec
    flipped: bool

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 0 or 2 * self.a + self.b > self.t:
            raise ValueError("gadget must satisfy a >= 1, b >= 0, 2a+b <= t")


def _satisfies_conditions(profile: Sequence[int], a: int, b: int, sign: int) -> bool:
    return (
        profile[b] == sign
        and profile[a + b] == -sign
        and profile[2 * a + b] == sign
    )


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
                if _satisfies_conditions(profile, a, b, sign):
                    return ReductionGadget(a, b, t, spec, flipped)
    # Exhaustion is only possible for the excluded family.
    th = spec.thresholds
    if t % 2 == 1 and th[1] - th[0] == t - 1:
        raise NoGadgetError("NAE-odd: no gadget")
    raise AssertionError(  # pragma: no cover - would contradict the search domain
        "gadget search exhausted outside the excluded family"
    )


def closed_form_gadget(spec: SymmetricSpec) -> Optional[ReductionGadget]:
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
            return ReductionGadget(a, b, spec.t, spec, flipped)
    return None


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
    followed by its t-2a padding positions, one from each padding band."""
    sigma = np.asarray(sigma, dtype=np.int64)
    n = len(sigma)
    if n % 2 != 0:
        raise ValueError("parity instances need even n")
    half = n // 2
    t = gadget.t
    inverse = np.empty(n + 1, dtype=np.int64)
    inverse[sigma] = np.arange(1, n + 1)

    sigma_f = np.empty(n * t // 2, dtype=np.int64)
    for j in range(1, half + 1):
        first, second = inverse[2 * j - 1], inverse[2 * j]
        members = []
        for c in range(gadget.a):
            members.append(c * n + first)
            members.append(c * n + second)
        for c in range(t - 2 * gadget.a):
            members.append(gadget.a * n + j + c * half)
        base = (j - 1) * t
        for k, position in enumerate(members, start=1):
            sigma_f[position - 1] = base + k
    return sigma_f


def reduce_instance(
    instance: PartitionInstance, gadget: ReductionGadget
) -> PartitionInstance:
    """Map a 2-bit-parity instance to an equivalent instance of the
    gadget's symmetric function, preserving the hidden bit.

    The transformed instance has length n*t/2, block size t and the same
    partition fraction; w is flipped when the gadget records a global
    sign flip so the promise bit is unchanged.
    """
    params = instance.params
    if params.t != 2:
        raise ValueError("reduction starts from block size 2 (parity pairs)")
    x_f = extended_string_rows(instance.x[None, :], gadget)[0]
    sigma_f = extended_permutation(instance.sigma, gadget)
    w_sign = -1 if gadget.flipped else 1
    new_params = PartitionParams(params.n * gadget.t // 2, gadget.t, params.alpha)
    return PartitionInstance(new_params, x_f, sigma_f, w_sign * instance.w, instance.b)


@dataclass(frozen=True)
class ReductionReport:
    status: str  # "pass" | "fail" | "no-gadget"
    gadget: Optional[ReductionGadget]
    cases: int
    counterexample: Optional[dict]


def blockwise_identity_counterexamples(
    spec: SymmetricSpec,
    gadget: ReductionGadget,
    sigma: Sequence[int],
    xs: np.ndarray,
) -> Optional[dict]:
    """Check sign * f(transformed block) == parity(original pair) on every
    block of every row of xs; returns the first violation or None."""
    f_s = make_symmetric(spec)
    n = xs.shape[1]
    half = n // 2

    permuted = permute_rows(np.asarray(sigma), xs)
    pair_parities = permuted.reshape(-1, half, 2).prod(axis=2)

    x_f = extended_string_rows(xs, gadget)
    sigma_f = extended_permutation(sigma, gadget)
    permuted_f = permute_rows(sigma_f, x_f)
    blocks = permuted_f.reshape(-1, half, gadget.t)
    f_values = f_s.evaluate_rows(_blocks_to_rows(blocks))
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
    spec: SymmetricSpec,
    n_small: int,
    sigma_samples: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> ReductionReport:
    """Exhaustive desk-scale check of the reduction.

    Runs over every x in {-1,+1}^n_small and ``sigma_samples`` sampled
    permutations (identity always included) and compares the transformed
    instance's promise blocks against the original parities.
    """
    if n_small > 10 or n_small % 2 != 0:
        raise ValueError("n_small must be even and at most 10")
    if sigma_samples < 1:
        raise ValueError("sigma_samples must be at least 1")
    try:
        gadget = find_gadget(spec)
    except NoGadgetError:
        return ReductionReport("no-gadget", None, 0, None)

    xs = all_points(n_small)

    sigmas = [np.arange(1, n_small + 1, dtype=np.int64)]
    if rng is not None:
        sigmas += [fisher_yates(n_small, rng) for _ in range(sigma_samples - 1)]
    cases = 0
    for sigma in sigmas:
        counterexample = blockwise_identity_counterexamples(spec, gadget, sigma, xs)
        cases += xs.shape[0]
        if counterexample is not None:
            return ReductionReport("fail", gadget, cases, counterexample)
    return ReductionReport("pass", gadget, cases, None)
