"""Deterministic, named randomness streams.

Every random choice in the package flows through a stream obtained from
``stream(seed, *labels)``.  Streams are backed by the Philox counter-based
bit generator and keyed by a hash of ``(seed, labels)``, so distinct labels
give statistically independent streams and the same key always reproduces
the same draws.  Each trial gets its own labelled streams; no generator is
shared between trials.  That is what lets ``fisher_yates_rows`` shuffle a
chunk of trials in lockstep: every generator still gives exactly the draws
a shuffle of its own would take from it.  The shuffles keep their draws
and return their permutations in the narrowest unsigned type that holds
their values (``np.min_scalar_type``): uint16 at n = 3000, a quarter of
the bytes of int64.  Only SHUFFLE_BLOCK positions of draws at a time are
widened to intp swap indices, so a shuffle holds no intp copy of them all.
A trial chunk's memory peaks in its shuffle of sigma, beside nothing
wider than x's packed bits: ``generate_instances`` holds x as bits while
it shuffles, and run-uniform's subset shuffle ends before the chunk's
instances are drawn.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

# Positions of a lockstep shuffle whose swap indices are made intp at once:
# about 30 KB at 116 rows.  The swaps cost one numpy call per position
# whatever the block, so a small one costs no measurable time.
SHUFFLE_BLOCK = 32


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Return an independent generator keyed by (seed, labels...)."""
    material = "/".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    # Philox keys are 128 bits; the first half of the digest is enough.
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fisher_yates_rows(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One uniform random permutation of [n] per generator: row r of the
    (len(rngs), n) result, in ``np.min_scalar_type(n)``, holds the 1-based
    images drawn from rngs[r].

    Swap-from-the-back shuffle.  Each generator gives all its swap indices
    in one call, ``rng.integers(0, arange(n, 1, -1))`` (draw k is uniform
    on [0, n-k)), whatever it was asked for before, so each row and each
    generator's next draw are those of a shuffle of that generator alone.
    The draws are kept in ``np.min_scalar_type(n - 1)``, the narrowest
    unsigned type that holds them (n < 2^31, so at most uint32).  The
    swaps then run once over positions for every row in lockstep, on an
    (n, T) array with one vectorised swap per position; SHUFFLE_BLOCK
    positions at a time, the draws become intp indices into the flattened
    array, since numpy copies a narrower index array to intp on every
    fancy index.
    """
    if n < 1:
        raise ValueError("permutation size must be positive")
    if n >= 2**31:
        raise ValueError("permutation size must be below 2^31")
    count = len(rngs)
    highs = np.arange(n, 1, -1)
    draws = np.empty((n - 1, count), dtype=np.min_scalar_type(n - 1))  # draws[k, r]: row r's draw k
    for r, rng in enumerate(rngs):
        draws[:, r] = rng.integers(0, highs)
    columns = np.arange(count)
    perm = np.repeat(np.arange(1, n + 1, dtype=np.min_scalar_type(n))[:, None], count, axis=1)
    cells = perm.reshape(-1)
    for first in range(0, n - 1, SHUFFLE_BLOCK):
        # flat[k, r]: row r's draw first + k, as an index into cells
        flat = draws[first:first + SHUFFLE_BLOCK].astype(np.intp)
        flat *= count
        flat += columns
        for i, targets in zip(range(n - 1 - first, 0, -1), flat):
            drawn = cells[targets]
            cells[targets] = perm[i]
            perm[i] = drawn
    return perm.T


def fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of [n] as an array of 1-based images in
    ``np.min_scalar_type(n)``: ``fisher_yates_rows`` with a single row."""
    return fisher_yates_rows(n, [rng])[0]


def coin(rng: np.random.Generator) -> int:
    """Fair +-1 coin."""
    return 1 if int(rng.integers(0, 2)) == 1 else -1
