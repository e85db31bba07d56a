import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hiddenpartition import instances
from hiddenpartition.boolfn import BooleanFunction, majority, parity
from hiddenpartition.instances import (
    PartitionParams,
    active_blocks,
    b_map_rows,
    generate_instance,
    generate_instances,
    string_values,
    unpack_strings,
)
from hiddenpartition.rng import SHUFFLE_BLOCK, coin, fisher_yates, fisher_yates_rows, stream

from oracles import (
    apply_permutation,
    instance_from_json,
    instance_to_json,
    int64_instances,
    promise_bit,
)

GOLDEN = Path(__file__).parent / "golden"


def test_params_validation():
    PartitionParams(8, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        PartitionParams(9, 2, Fraction(1))  # t does not divide n
    with pytest.raises(ValueError):
        PartitionParams(8, 2, Fraction(1, 3))  # alpha*n/t not integral
    with pytest.raises(ValueError):
        PartitionParams(8, 2, Fraction(3, 2))  # alpha > 1
    with pytest.raises(ValueError):
        PartitionParams(8, 2, Fraction(0))


def test_params_block_accounting():
    params = PartitionParams(12, 3, Fraction(1, 2))
    assert params.num_blocks == 4
    assert params.active_blocks == 2
    assert params.active_len == 6


def test_params_block_counts_are_plain_ints():
    params = PartitionParams(12, 3, Fraction(1, 2))
    for value in (params.num_blocks, params.active_blocks, params.active_len):
        assert type(value) is int
    assert params == PartitionParams(12, 3, Fraction(2, 4))
    assert hash(params) == hash(PartitionParams(12, 3, Fraction(2, 4)))


def test_apply_permutation_identity():
    x = (1, -1, 1)
    assert apply_permutation((1, 2, 3), x) == x


def test_apply_permutation_swap():
    assert apply_permutation((2, 1), (1, -1)) == (-1, 1)


def test_apply_permutation_cycle():
    # sigma: 1->3, 2->1, 3->2; output position i holds x at sigma^-1(i)
    assert apply_permutation((3, 1, 2), ("a", "b", "c")) == ("b", "c", "a")


def test_apply_permutation_errors():
    with pytest.raises(ValueError):
        apply_permutation((1, 2), (1, -1, 1))
    with pytest.raises(ValueError):
        apply_permutation((1, 1, 3), (1, -1, 1))


@pytest.mark.parametrize("shared", [True, False], ids=["one-sigma", "sigma-per-row"])
@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 3)])
def test_active_blocks_are_the_permuted_prefix(alpha, shared):
    # sigma(x)'s first alpha*n/t blocks, as the reference permutes x, in x's dtype
    params = PartitionParams(12, 2, alpha)
    rng = np.random.default_rng(7)
    xs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, 12))
    sigmas = np.array([rng.permutation(12) + 1 for _ in xs], dtype=np.int32)
    view = active_blocks(xs, sigmas[0] if shared else sigmas, params)
    assert view.dtype == np.int8
    assert view.shape == (4, params.active_blocks, 2)
    for x, sigma, blocks in zip(xs, sigmas[[0] * 4] if shared else sigmas, view):
        permuted = apply_permutation(sigma.tolist(), x.tolist())
        assert blocks.ravel().tolist() == list(permuted[: params.active_len])


def test_b_map_parity_blocks():
    params = PartitionParams(4, 2, Fraction(1))
    z = b_map_rows(parity(2), np.array([1, -1, 1, 1])[None], np.arange(1, 5), params)[0]
    assert z.tolist() == [-1, 1]


def test_b_map_half_alpha():
    params = PartitionParams(4, 2, Fraction(1, 2))
    z = b_map_rows(parity(2), np.array([1, -1, 1, 1])[None], np.arange(1, 5), params)[0]
    assert z.tolist() == [-1]


def test_b_map_majority():
    params = PartitionParams(6, 3, Fraction(1))
    z = b_map_rows(majority(3), np.array([-1, -1, 1, 1, 1, -1])[None], np.arange(1, 7), params)[0]
    assert z.tolist() == [-1, 1]


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_b_map_values_take_the_dtype_of_the_strings(dtype):
    # int8 strings (a trial chunk's) give int8 values, with no int64 gather
    params = PartitionParams(6, 3, Fraction(1))
    xs = np.array([[-1, -1, 1, 1, 1, -1], [1, 1, -1, 1, -1, -1]], dtype=dtype)
    z = b_map_rows(majority(3), xs, np.arange(1, 7), params)
    assert z.dtype == dtype
    assert z.tolist() == [[-1, 1], [1, -1]]


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("shared", [True, False], ids=["one-sigma", "sigma-per-row"])
@pytest.mark.parametrize("f", [parity(2), majority(3)], ids=["t2", "t3"])
def test_b_map_row_slices_give_the_row_by_row_values(monkeypatch, f, shared, dtype):
    # a 300-byte slice bound cuts 10 strings into slices of 2 to 8 rows;
    # the values are those of one call per string, in the strings' dtype
    params = PartitionParams(12, f.t, Fraction(1, 2))
    xs = (1 - 2 * stream(f.t, "map-slices").integers(0, 2, size=(10, 12))).astype(dtype)
    sigmas = fisher_yates_rows(12, [stream(seed, "map-slices") for seed in range(10)])
    rows = [b_map_rows(f, x[None], sigmas[0] if shared else sigma, params)[0]
            for x, sigma in zip(xs, sigmas)]
    sizes = []
    view = instances.active_blocks
    monkeypatch.setattr(instances, "active_blocks",
                        lambda part, *args: sizes.append(len(part)) or view(part, *args))
    monkeypatch.setattr(instances, "SLICE_BYTES", 300)
    values = b_map_rows(f, xs, sigmas[0] if shared else sigmas, params)
    assert len(sizes) > 1 and min(sizes[:-1]) > 1 and sum(sizes) == 10
    assert values.dtype == dtype
    assert np.array_equal(values, np.array(rows))


def test_b_map_arity_guard():
    params = PartitionParams(4, 2, Fraction(1))
    with pytest.raises(ValueError):
        b_map_rows(majority(3), np.ones((1, 4), dtype=np.int64), np.arange(1, 5), params)


@given(st.integers(min_value=0, max_value=2**31))
def test_b_map_depends_only_on_permuted_string(seed):
    rng = stream(seed, "bmap")
    params = PartitionParams(8, 2, Fraction(1, 2))
    f = parity(2)
    x = 1 - 2 * rng.integers(0, 2, size=8)
    sigma = fisher_yates(8, rng)
    permuted = np.array(apply_permutation(sigma.tolist(), x.tolist()))
    assert np.array_equal(
        b_map_rows(f, x[None], sigma, params)[0],
        b_map_rows(f, permuted[None], np.arange(1, 9), params)[0],
    )


@given(st.integers(min_value=0, max_value=2**31), st.data())
def test_b_map_equivariant_under_relabelling(seed, data):
    # relabelling the input positions by pi in both x and sigma leaves B_f unchanged
    rng = stream(seed, "relabel")
    t = data.draw(st.integers(min_value=1, max_value=4))
    blocks = data.draw(st.integers(min_value=1, max_value=4))
    active = data.draw(st.integers(min_value=1, max_value=blocks))
    n = t * blocks
    params = PartitionParams(n, t, Fraction(active, blocks))
    f = BooleanFunction(t, 1 - 2 * rng.integers(0, 2, size=2**t))
    x = 1 - 2 * rng.integers(0, 2, size=n)
    sigma = fisher_yates(n, rng)
    pi = fisher_yates(n, rng)
    assert np.array_equal(
        b_map_rows(f, x[pi - 1][None], sigma[pi - 1], params)[0],
        b_map_rows(f, x[None], sigma, params)[0],
    )


@pytest.mark.parametrize("n", [12, 3001], ids=["whole-bytes", "partial-last-byte"])
def test_string_values_read_the_unpacked_strings_at_every_index(n):
    # x's packed bits, read at every index of every row, are the +-1 strings
    # unpacking them gives, and those are 1 - 2 * the drawn bits
    drawn = stream(n, "values").integers(0, 2, size=(3, n))
    bits = np.packbits(drawn, axis=1)
    strings = unpack_strings(bits, n)
    assert strings.dtype == np.int8 and np.array_equal(strings, 1 - 2 * drawn)
    every = np.tile(np.arange(1, n + 1), (3, 1))
    values = string_values(bits, every)
    assert values.dtype == np.int8 and np.array_equal(values, strings)
    backwards = every[:, ::-1].astype(np.uint16)  # as run-uniform's subsets
    assert np.array_equal(string_values(bits, backwards), strings[:, ::-1])


@pytest.mark.parametrize("n, t, alpha", [(12, 3, Fraction(1, 2)), (3000, 3, Fraction(1, 2))])
def test_generate_instances_match_one_at_a_time(n, t, alpha):
    params = PartitionParams(n, t, alpha)
    f = majority(3)
    bs = [1, -1, -1, 1, 1]
    xs, sigmas, ws = generate_instances(f, params, bs, [stream(4, "instance", k) for k in range(5)])
    sigma_type = np.uint8 if n <= 255 else np.uint16
    for array, dtype, width in ((xs, np.uint8, -(-n // 8)), (sigmas, sigma_type, n),
                                (ws, np.int8, params.active_blocks)):
        assert array.dtype == dtype and array.shape == (len(bs), width)
    assert (np.sort(sigmas, axis=1) == np.arange(1, n + 1)).all()
    strings = unpack_strings(xs, n)
    assert np.all(np.abs(strings) == 1) and np.all(np.abs(ws) == 1)
    for k, (b, x, sigma, w) in enumerate(zip(bs, xs, sigmas, ws)):
        single = generate_instance(f, params, b, stream(4, "instance", k))
        for row, single_row in zip((x, sigma, w), single):
            assert np.array_equal(row, single_row)
        assert promise_bit(f, strings[k], sigma, w, params) == b


@pytest.mark.parametrize(
    "n, t, alpha",
    [(1, 1, Fraction(1)), (2, 2, Fraction(1)), (3, 3, Fraction(1)),
     (255, 1, Fraction(1)), (257, 1, Fraction(1)), (3000, 3, Fraction(1, 2)),
     (SHUFFLE_BLOCK - 1, 1, Fraction(1)), (SHUFFLE_BLOCK + 1, 1, Fraction(1))],
)
@pytest.mark.parametrize("count", [1, 3, 116])
def test_generate_instances_match_the_int64_builder(n, t, alpha, count):
    # the int8/unsigned chunk holds exactly the int64 builder's values, and
    # leaves every generator where the int64 builder leaves it
    params = PartitionParams(n, t, alpha)
    f = majority(t) if t % 2 else parity(t)
    seeds = range(count)

    def streams():
        rngs = [stream(seed, "instance", n) for seed in seeds]
        return rngs, [coin(rng) for rng in rngs]

    rngs, bs = streams()
    oracle_rngs, oracle_bs = streams()
    xs, sigmas, ws = generate_instances(f, params, bs, rngs)
    got = (unpack_strings(xs, n), sigmas, ws)
    for got_rows, expected in zip(got, int64_instances(f, params, oracle_bs, oracle_rngs)):
        assert np.array_equal(got_rows, expected)
    for rng, oracle_rng in zip(rngs, oracle_rngs):
        assert rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)


def test_generate_instances_reject_bad_bits_before_drawing():
    rng = stream(0, "instance")
    with pytest.raises(ValueError):
        generate_instances(majority(3), PartitionParams(6, 3, Fraction(1)), [1, 0], [rng, rng])
    with pytest.raises(ValueError):
        generate_instances(majority(3), PartitionParams(6, 3, Fraction(1)), [1], [rng, rng])
    assert rng.integers(0, 2**62) == stream(0, "instance").integers(0, 2**62)


@given(
    st.sampled_from([-1, 1]),
    st.integers(min_value=0, max_value=2**31),
)
def test_generated_instance_promise(b, seed):
    params = PartitionParams(12, 3, Fraction(1, 2))
    f = majority(3)
    x, sigma, w = generate_instance(f, params, b, stream(seed, "gen"))
    assert promise_bit(f, unpack_strings(x, params.n), sigma, w, params) == b


def test_promise_violation_detected():
    params = PartitionParams(8, 2, Fraction(1))
    f = parity(2)
    x, sigma, w = generate_instance(f, params, 1, stream(3, "gen"))
    w[0] = -w[0]
    assert promise_bit(f, unpack_strings(x, params.n), sigma, w, params) is None


def test_verify_promise_direct_example():
    params = PartitionParams(4, 2, Fraction(1))
    assert promise_bit(parity(2), (1, -1, 1, 1), (1, 2, 3, 4), (1, -1), params) == -1


def test_generation_is_deterministic_golden():
    params = PartitionParams(8, 2, Fraction(1))
    docs = []
    for _ in range(2):
        x, sigma, w = generate_instance(parity(2), params, 1, stream(42, "instance", 0))
        docs.append(instance_to_json(params, unpack_strings(x, params.n), sigma, w, 1))
    golden = json.loads((GOLDEN / "instance_seed42.json").read_text())
    assert docs[0] == docs[1] == golden


def assert_same_instance(got, expected):
    got_params, *got_rows, got_b = got
    params, *rows, b = expected
    assert got_params == params and got_b == b
    for got_row, row in zip(got_rows, rows):
        assert got_row.dtype == row.dtype and np.array_equal(got_row, row)


def test_json_round_trip():
    params = PartitionParams(8, 2, Fraction(1, 2))
    x, sigma, w = generate_instance(parity(2), params, -1, stream(7, "instance", 1))
    instance = (params, unpack_strings(x, params.n), sigma, w, -1)
    doc = json.loads(json.dumps(instance_to_json(*instance)))
    assert_same_instance(instance_from_json(doc), instance)


def test_json_round_trip_without_b():
    params = PartitionParams(4, 2, Fraction(1))
    rows = (((1, 1, -1, 1), np.int8), ((2, 1, 4, 3), np.uint8), ((1, -1), np.int8))
    instance = (params, *(np.array(row, dtype=dtype) for row, dtype in rows), None)
    assert_same_instance(instance_from_json(instance_to_json(*instance)), instance)
