import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hiddenpartition.rng import SHUFFLE_BLOCK, coin, fisher_yates, fisher_yates_rows, stream

from oracles import int64_lockstep_shuffle, list_fisher_yates


def test_same_key_reproduces():
    a = stream(42, "instance", 3).integers(0, 1000, size=10)
    b = stream(42, "instance", 3).integers(0, 1000, size=10)
    assert np.array_equal(a, b)


def test_distinct_labels_differ():
    a = stream(42, "instance", 0).integers(0, 2**30, size=8)
    b = stream(42, "instance", 1).integers(0, 2**30, size=8)
    c = stream(42, "protocol", 0).integers(0, 2**30, size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_fisher_yates_is_permutation(n, seed):
    perm = fisher_yates(n, stream(seed, "p"))
    assert sorted(perm) == list(range(1, n + 1))


def test_fisher_yates_uniform_smoke():
    # each image roughly equally often in each slot
    counts = np.zeros((4, 4))
    for trial in range(4000):
        perm = fisher_yates(4, stream(9, trial))
        for slot, image in enumerate(perm):
            counts[slot, image - 1] += 1
    assert np.all(np.abs(counts / 4000 - 0.25) < 0.05)


def test_fisher_yates_pinned_at_n3000():
    perm = fisher_yates(3000, stream(1, "fy"))
    assert perm.dtype == np.uint16
    assert hashlib.sha256(perm.astype(np.int64).tobytes()).hexdigest() == (
        "6eeca32e02198ec627ee3f39d87d3a506ba9ffdf6d8c95c1eb29ab6ea55786ae"
    )


def test_fisher_yates_rejects_nonpositive():
    with pytest.raises(ValueError):
        fisher_yates(0, stream(0))


def test_coin_values():
    values = {coin(stream(5, i)) for i in range(64)}
    assert values == {-1, 1}


def _instance_streams(seeds, n):
    """Generators that have made an instance's earlier draws (coin, x)."""
    rngs = [stream(seed, "instance", 0) for seed in seeds]
    for rng in rngs:
        coin(rng)
        rng.integers(0, 2, size=n)
    return rngs


# n -> the narrowest unsigned type that holds the images 1..n
IMAGE_TYPES = {1: np.uint8, 2: np.uint8, 3: np.uint8, 10: np.uint8, 24: np.uint8, 255: np.uint8,
               256: np.uint16, 3000: np.uint16, 65535: np.uint16, 65536: np.uint32}


@pytest.mark.parametrize("n", list(IMAGE_TYPES))
@pytest.mark.parametrize("seeds", [[5], [0, 1, 2], list(range(10, 30))], ids=["T1", "T3", "T20"])
def test_lockstep_rows_match_list_shuffle(n, seeds):
    rngs = _instance_streams(seeds, n)
    rows = fisher_yates_rows(n, rngs)
    assert rows.shape == (len(seeds), n)
    assert rows.dtype == IMAGE_TYPES[n]
    oracle_rngs = _instance_streams(seeds, n)
    for row, oracle_rng in zip(rows, oracle_rngs):
        assert np.array_equal(row, list_fisher_yates(n, oracle_rng))
    # every generator is left exactly where a shuffle of its own leaves it
    for rng, oracle_rng in zip(rngs, oracle_rngs):
        assert rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)


@pytest.mark.parametrize("n", [1, 2, 3, SHUFFLE_BLOCK - 1, SHUFFLE_BLOCK + 1, 255, 257, 3000])
@pytest.mark.parametrize("count", [1, 3, 116])
def test_lockstep_rows_match_the_int64_shuffle(n, count):
    # the narrow unsigned draws, made intp a block of positions at a time,
    # give the int64 shuffle's rows and leave every generator where it leaves it
    seeds = range(count)
    rngs = _instance_streams(seeds, n)
    oracle_rngs = _instance_streams(seeds, n)
    assert np.array_equal(fisher_yates_rows(n, rngs), int64_lockstep_shuffle(n, oracle_rngs))
    for rng, oracle_rng in zip(rngs, oracle_rngs):
        assert rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)


@pytest.mark.parametrize("n", [1, 2, 24, 3000])
def test_single_shuffle_matches_list_shuffle(n):
    for seed in range(3):
        rng, oracle_rng = stream(seed, "one"), stream(seed, "one")
        assert np.array_equal(fisher_yates(n, rng), list_fisher_yates(n, oracle_rng))
        assert rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)


def test_lockstep_rows_reject_nonpositive():
    with pytest.raises(ValueError):
        fisher_yates_rows(0, [stream(0), stream(1)])


def test_lockstep_rows_reject_sizes_past_int32_before_drawing():
    rng = stream(0)
    with pytest.raises(ValueError, match="below 2"):
        fisher_yates_rows(2**31, [rng])
    assert rng.integers(0, 2**62) == stream(0).integers(0, 2**62)
