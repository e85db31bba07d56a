"""Hidden-partition problem instances.

An instance pairs Alice's string x in {-1,+1}^n with Bob's permutation
sigma of [n] and target string w of length alpha*n/t.  The induced string
z = B_f(x, sigma) applies f to each of the first alpha*n/t size-t blocks
of the permuted string sigma(x), where sigma(x)_i = x_{sigma^-1(i)}.  The
promise is z o w = b^(alpha*n/t) for a hidden bit b.

Blocks are 1-indexed and contiguous in the permuted string; the partition
fraction alpha is stored as an exact rational so the promise length is an
integer by construction.  ``active_blocks`` is the one view of sigma(x)'s
active blocks, and ``block_slices`` the one way to take it a row slice
at a time, which the block map and the quantum run's gather both use,
so a chunk holds no wider copy of the strings than one slice's.
``row_slices`` cuts every row slice, those of a trial chunk's decision
too, under the one budget SLICE_BYTES.
``generate_instances`` draws a chunk of trials
as (x, sigma, w) arrays, which the protocol runs take whole; that triple
of rows is the one form of an instance.  Each is stored in as few bytes
as hold its values: x as packed bits (``np.packbits``, a bit set where
x_i = -1, n/8 bytes a row), w as int8 and sigma's 1-based images in the
narrowest unsigned type that holds n.  The packed bits are x's only form
in a chunk: ``block_slices`` unpacks them one row slice at a time
(``unpack_strings``), and the classical senders read them at their
sampled indices (``string_values``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .boolfn import BooleanFunction
from .rng import fisher_yates_rows

# Bound on the temporaries of one row slice: the block map's scattered
# strings, block signs and int64 codes, or a protocol decision's length-m
# arrays.  It is in bytes, not rows, so a 116-trial chunk at n = 3000
# takes about ten map slices while many short strings (the reduction's)
# take one or two.  run-quantum gathers its sampled blocks in map slices.
SLICE_BYTES = 2**17


def exact_fraction(text: str) -> Fraction:
    """``Fraction(text)`` for a command-line alpha such as "1/2"; a zero
    denominator raises ValueError, which argparse reports as a usage error
    (it lets ``Fraction``'s ZeroDivisionError escape as a traceback)."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


@dataclass(frozen=True)
class PartitionParams:
    """Problem-size parameters (n total bits, t block size, alpha exact).

    The block counts are plain ints worked out once from them: ``num_blocks``
    = n/t, ``active_blocks`` = alpha*n/t (the blocks carrying promise
    information) and ``active_len`` = active_blocks*t.
    """

    n: int
    t: int
    alpha: Fraction
    num_blocks: int = field(init=False, repr=False, compare=False)
    active_blocks: int = field(init=False, repr=False, compare=False)
    active_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.t < 1 or self.n < 1:
            raise ValueError("n and t must be positive")
        if self.n % self.t != 0:
            raise ValueError(f"block size {self.t} must divide n={self.n}")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        active = self.alpha * self.n / self.t
        if active.denominator != 1 or active.numerator < 1:
            raise ValueError(
                f"alpha*n/t = {active} must be a positive integer"
            )
        object.__setattr__(self, "num_blocks", self.n // self.t)
        object.__setattr__(self, "active_blocks", active.numerator)
        object.__setattr__(self, "active_len", active.numerator * self.t)


def inverse_permutation(sigma: Sequence[int]) -> np.ndarray:
    """sigma^-1 as 1-based int64 images: entry p-1 holds sigma^-1(p)."""
    sigma = np.asarray(sigma, dtype=np.int64)
    inverse = np.empty_like(sigma)
    inverse[sigma - 1] = np.arange(1, len(sigma) + 1)
    return inverse


def active_blocks(xs: np.ndarray, sigma: np.ndarray, params: PartitionParams) -> np.ndarray:
    """The (N, active_blocks, t) blocks of sigma(x)'s active prefix for a
    stack of strings (rows of xs), under one sigma (shape (n,)) or one
    sigma per row (shape (N, n)), in the dtype of xs.  The 1-based images
    index a buffer one column wider, whose unused column 0 the view drops."""
    out = np.empty((xs.shape[0], xs.shape[1] + 1), dtype=xs.dtype)
    out[np.arange(xs.shape[0])[:, None], sigma] = xs
    return out[:, 1:params.active_len + 1].reshape(len(xs), params.active_blocks, params.t)


def blocks_to_rows(blocks: np.ndarray) -> np.ndarray:
    """Row-encoding indices for a (..., t) array of +-1 block values.  The
    sum runs in einsum, which casts the signs to int64 in buffered pieces
    (matmul would make an int64 copy of them whole)."""
    return np.einsum("...i,i->...", blocks < 0, 1 << np.arange(blocks.shape[-1], dtype=np.int64))


def row_slices(count: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices of count rows, each of as many rows (at least
    one) as keep row_bytes a row within SLICE_BYTES."""
    rows = max(1, SLICE_BYTES // row_bytes)
    return (slice(start, start + rows) for start in range(0, count, rows))


def unpack_strings(bits: np.ndarray, n: int) -> np.ndarray:
    """The int8 +-1 strings of x's packed bits (``np.packbits`` along the
    last axis, a bit set where x_i = -1), of length n."""
    xs = np.unpackbits(bits, axis=-1, count=n).view(np.int8)
    xs *= -2  # 0 -> +1 and 1 -> -1 in place, so no second array sits beside x
    xs += 1
    return xs


def string_values(bits: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """x_i of each row of x's packed bits (as ``unpack_strings`` reads
    them) at that row of 1-based indices (shape (T, k)), as int8 +-1."""
    positions = indices - 1
    shifts = 7 - (positions & 7)  # np.packbits puts a byte's first position in its top bit
    minus = (np.take_along_axis(bits, positions >> 3, axis=1) >> shifts) & 1
    return 1 - 2 * minus.astype(np.int8)


def block_slices(
    xs: np.ndarray, sigma: Sequence[int], params: PartitionParams
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (part, blocks) for the ``row_slices`` of xs: the slice and
    its ``active_blocks`` view, under one sigma or one per row.  Rows of
    uint8 are x's packed bits (``generate_instances``' xs), unpacked a
    slice at a time; any other rows are the +-1 strings themselves.  A
    row's bytes are the block map's temporaries for it: the unpacked
    string, if any, the scattered one, its block signs and int64 codes.
    The unpacked slice is freed once scattered, before the signs and
    codes exist."""
    sigma = np.asarray(sigma)
    packed = xs.dtype == np.uint8
    width, itemsize = (params.n, 1) if packed else (xs.shape[1], xs.itemsize)
    row_bytes = (width + 1) * itemsize + params.active_len + 8 * params.active_blocks
    if packed:
        row_bytes += width  # the unpacked slice, alive while it is scattered
    for part in row_slices(len(xs), row_bytes):
        strings = unpack_strings(xs[part], width) if packed else xs[part]
        blocks = active_blocks(strings, sigma if sigma.ndim == 1 else sigma[part], params)
        del strings
        yield part, blocks


def b_map_rows(
    f: BooleanFunction, xs: np.ndarray, sigma: Sequence[int], params: PartitionParams
) -> np.ndarray:
    """Vectorised block map: (N, n) strings, or N rows of their packed
    bits, -> (N, active_blocks) values, under one sigma or one per string
    (as ``active_blocks``), in the dtype of the strings (int8 for packed
    bits).

    Runs over ``block_slices`` and writes each slice's values into the
    one result."""
    if f.t != params.t:
        raise ValueError(f"function arity {f.t} != block size {params.t}")
    xs = np.asarray(xs)
    dtype = np.int8 if xs.dtype == np.uint8 else xs.dtype
    table = f.table.astype(dtype)
    values = np.empty((len(xs), params.active_blocks), dtype=dtype)
    for part, blocks in block_slices(xs, sigma, params):
        values[part] = table[blocks_to_rows(blocks)]
    return values


_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1  # row v: the 8 bits of v


def promise_masks(
    f: BooleanFunction, members: np.ndarray, sigma: Sequence[int], params: PartitionParams
) -> np.ndarray:
    """B_f(x, sigma) for row-encoded strings x (bit i-1 set where x_i = -1),
    row-encoded too: bit j-1 of entry r is set where block j of sigma(x)
    evaluates to -1.  Works on the masks themselves, with no +-1 matrix.

    Two rounds of table lookups, each table indexed by at most 8 bits (or
    one block, when t > 8): one 256-entry table per byte of x moves its
    bits to their places in sigma(x)'s active prefix, then one table of
    floor(8/t) whole blocks applies f to each block of every such group
    of the prefix."""
    if f.t != params.t:
        raise ValueError(f"function arity {f.t} != block size {params.t}")
    t = params.t
    targets = np.asarray(sigma, dtype=np.int64) - 1  # bit i of x lands on bit sigma(i+1)-1
    moves = np.zeros(-(-params.n // 8) * 8, dtype=np.int64)
    moves[: params.n] = np.where(targets < params.active_len, 1 << targets, 0)
    prefix = np.zeros(len(members), dtype=np.int64)
    for k, table in enumerate(moves.reshape(-1, 8) @ _BYTE_BITS.T):
        prefix |= table[(members >> 8 * k) & 255]

    minus = (1 - f.table) // 2  # 1 where f is -1
    per_table = max(1, 8 // t)
    values = np.arange(2 ** (per_table * t))
    table = sum(minus[(values >> i * t) & (2**t - 1)] << i for i in range(per_table))
    masks = np.zeros_like(prefix)
    for first in range(0, params.active_blocks, per_table):
        masks |= table[(prefix >> first * t) & (values.size - 1)] << first
    # a last, partial group reads all-(+1) blocks past the prefix: drop their bits
    return masks & ((1 << params.active_blocks) - 1)


def generate_instances(
    f: BooleanFunction,
    params: PartitionParams,
    bs: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One instance per (b, rng), as arrays xs ((len(bs), ceil(n/8))
    uint8: x's packed bits, set where x_i = -1), sigmas ((len(bs), n) in
    ``np.min_scalar_type(n)``) and ws ((len(bs), active_blocks) int8): x
    uniform, then sigma uniform (Fisher-Yates), both drawn from that rng,
    and w = b * B_f(x, sigma) so the promise holds with hidden bit b.
    The shuffles run in lockstep (``fisher_yates_rows``), and B_f is one
    block map of all of them (``b_map_rows``, which unpacks x a row
    slice at a time); ``unpack_strings`` gives the +-1 strings."""
    if len(bs) != len(rngs):
        raise ValueError("one hidden bit per generator")
    if any(b not in (-1, 1) for b in bs):
        raise ValueError("b must be +-1")
    xs = np.empty((len(rngs), -(-params.n // 8)), dtype=np.uint8)
    for row, rng in zip(xs, rngs):
        row[:] = np.packbits(rng.integers(0, 2, size=params.n, dtype=np.int64))
    sigmas = fisher_yates_rows(params.n, rngs)
    ws = b_map_rows(f, xs, sigmas, params)
    ws *= np.asarray(bs, dtype=np.int8)[:, None]
    return xs, sigmas, ws


def generate_instance(
    f: BooleanFunction,
    params: PartitionParams,
    b: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``generate_instances`` for a single (b, rng): its one row, as
    (x, sigma, w), with x as packed bits."""
    xs, sigmas, ws = generate_instances(f, params, [b], [rng])
    return xs[0], sigmas[0], ws[0]
