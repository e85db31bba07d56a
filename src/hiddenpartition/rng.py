"""Deterministic, named randomness streams.

Every random choice in the package flows through a stream obtained from
``stream(seed, *labels)``.  Streams are backed by the Philox counter-based
bit generator and keyed by a hash of ``(seed, labels)``, so distinct labels
give statistically independent streams and the same key always reproduces
the same draws.  The key is handed to Philox as its seed sequence, so no
stream draws OS entropy.  Each trial gets its own labelled streams; no
generator is shared between trials.  That is what lets
``fisher_yates_rows`` shuffle a chunk of trials in lockstep: every
generator still gives exactly the draws a shuffle of its own would take
from it.  The shuffles keep their draws and return their permutations in
the narrowest unsigned type that holds their values
(``np.min_scalar_type``): uint16 at n = 3000, a quarter of the bytes of
int64.  They hold half of the draws at a time, and only SHUFFLE_BLOCK
positions of them are widened to intp swap indices at once.  A trial
chunk's memory peaks in its shuffle of sigma, beside nothing wider than
x's packed bits, the chunk's only form of x; run-uniform's subset
shuffle ends before the chunk's instances are drawn.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

# Positions of a lockstep shuffle whose swap indices are made intp at once:
# about 30 KB at 116 rows.  The swaps cost one numpy call per position
# whatever the block, so a small one costs no measurable time.
SHUFFLE_BLOCK = 32


class _PhiloxKey:
    """A Philox key handed to ``np.random.Philox`` as its seed sequence:
    ``generate_state`` returns the key itself, so building a stream draws
    no OS entropy (``Philox(key=...)`` seeds a throwaway ``SeedSequence``
    from the OS first).  numpy takes only ``ISeedSequence`` instances;
    ``stream`` registers the class with it, so that importing the package
    does not import ``numpy.random``."""

    __slots__ = ("key",)

    def __init__(self, key: bytes) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, np.dtype(dtype)) != (2, np.uint64):
            raise ValueError("a Philox key is two uint64 words")
        return np.frombuffer(self.key, dtype=np.uint64)


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Return an independent generator keyed by (seed, labels...)."""
    material = "/".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    np.random.bit_generator.ISeedSequence.register(_PhiloxKey)  # a no-op after the first
    # Philox keys are 128 bits; the first half of the digest is enough.
    return np.random.Generator(np.random.Philox(_PhiloxKey(digest[:16])))


def fisher_yates_rows(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One uniform random permutation of [n] per generator: row r of the
    (len(rngs), n) result, in ``np.min_scalar_type(n)``, holds the 1-based
    images drawn from rngs[r].

    Swap-from-the-back shuffle: draw k of a generator is uniform on
    [0, n-k).  Each generator gives its draws in two calls,
    ``rng.integers(0, highs)`` for the first n // 2 values of
    ``highs = arange(n, 1, -1)`` and then for the rest, after whatever it
    was asked for before.  An array-bounded call draws element by
    element, so the two calls take the draws of one, and each row and
    each generator's next draw are those of a shuffle of that generator
    alone.  One half's draws are held at a time, in
    ``np.min_scalar_type(n - 1)`` (n < 2^31, so at most uint32), and that
    half's swaps run before the next half is drawn: over positions, for
    every row in lockstep, on an (n, T) array with one vectorised swap
    per position.  SHUFFLE_BLOCK positions at a time, the draws become
    intp indices into the flattened array, since numpy copies a narrower
    index array to intp on every fancy index.
    """
    if n < 1:
        raise ValueError("permutation size must be positive")
    if n >= 2**31:
        raise ValueError("permutation size must be below 2^31")
    count = len(rngs)
    highs = np.arange(n, 1, -1)
    # one half's draws at a time; the second half is no longer than the first
    buffer = np.empty((n // 2, count), dtype=np.min_scalar_type(n - 1))
    columns = np.arange(count)
    perm = np.repeat(np.arange(1, n + 1, dtype=np.min_scalar_type(n))[:, None], count, axis=1)
    cells = perm.reshape(-1)
    for half in (highs[:n // 2], highs[n // 2:]):
        draws = buffer[:len(half)]  # draws[k, r]: row r's draw at high half[k]
        for r, rng in enumerate(rngs):
            draws[:, r] = rng.integers(0, half)
        for first in range(0, len(half), SHUFFLE_BLOCK):
            # flat[k, r]: row r's draw first + k, as an index into cells
            flat = draws[first:first + SHUFFLE_BLOCK].astype(np.intp)
            flat *= count
            flat += columns
            for i, targets in zip(range(half[first] - 1, 0, -1), flat):
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
