"""Deterministic, named randomness streams.

Every random choice in the package flows through a stream obtained from
``stream(seed, *labels)``.  Streams are backed by the Philox counter-based
bit generator and keyed by a hash of ``(seed, labels)``, so distinct labels
give statistically independent streams and the same key always reproduces
the same draws.  Callers parallelise across trials by giving each trial its
own label; no generator is ever shared.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Return an independent generator keyed by (seed, labels...)."""
    material = "/".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    # Philox keys are 128 bits; the first half of the digest is enough.
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of [n] as an array of 1-based images.

    Classic swap-from-the-back shuffle; all index draws are taken from
    ``rng`` in one vectorised call, the swaps themselves are deterministic
    and run on a Python list (numpy scalar swaps cost several times more).
    """
    if n < 1:
        raise ValueError("permutation size must be positive")
    perm = list(range(1, n + 1))
    draws = rng.integers(0, np.arange(n, 1, -1))  # draws[k] is uniform on [0, n-k)
    for k, j in enumerate(draws.tolist()):
        i = n - 1 - k
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def coin(rng: np.random.Generator) -> int:
    """Fair +-1 coin."""
    return 1 if int(rng.integers(0, 2)) == 1 else -1
