import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hiddenpartition.boolfn import (
    SymmetricSpec,
    all_points,
    make_symmetric,
    parity,
    sign_changes,
    weight_profile,
)
from hiddenpartition.instances import PartitionParams, generate_instance, unpack_strings
from hiddenpartition.reduction import (
    PARITY_SIZES,
    NoGadgetError,
    ReductionGadget,
    blockwise_identity_counterexamples,
    extended_permutation,
    extended_string_rows,
    find_gadget,
    gadget_to_json,
    verify_reduction,
)
from hiddenpartition.rng import fisher_yates, stream

from conftest import all_symmetric_specs
from oracles import (
    apply_permutation,
    closed_form_gadget,
    extended_permutation_by_blocks,
    hamming_weight,
    promise_bit,
    reduce_instance,
)


def eligible_specs(t_max):
    for t in range(2, t_max + 1):
        for spec in all_symmetric_specs(t):
            if sign_changes(spec) >= 2:
                yield spec


def is_nae_odd(spec: SymmetricSpec) -> bool:
    th = spec.thresholds
    return (
        spec.t % 2 == 1
        and len(th) == 2
        and th[1] - th[0] == spec.t - 1
    )


# --- gadget search -----------------------------------------------------------


def test_gadget_examples():
    g = find_gadget(SymmetricSpec(4, (1, 3), 1))
    assert (g.a, g.b) == (2, 0)
    g = find_gadget(SymmetricSpec(2, (0, 1), 1))
    assert (g.a, g.b) == (1, 0)


def test_gadget_conditions_hold():
    for spec in eligible_specs(6):
        if is_nae_odd(spec):
            continue
        gadget = find_gadget(spec)
        profile = weight_profile(spec)
        sign = -1 if gadget.flipped else 1
        assert profile[gadget.b] == sign
        assert profile[gadget.a + gadget.b] == -sign
        assert profile[2 * gadget.a + gadget.b] == sign
        assert 2 * gadget.a + gadget.b <= spec.t


def test_nae_odd_has_no_gadget():
    with pytest.raises(NoGadgetError):
        find_gadget(SymmetricSpec(3, (0, 2), -1))
    with pytest.raises(NoGadgetError):
        find_gadget(SymmetricSpec(5, (0, 4), -1))
    with pytest.raises(NoGadgetError):
        find_gadget(SymmetricSpec(5, (0, 4), 1))  # either sign: same family


def test_nae_even_has_gadget():
    gadget = find_gadget(SymmetricSpec(4, (0, 3), -1))
    assert 2 * gadget.a + gadget.b <= 4


def test_low_sign_change_guard():
    with pytest.raises(ValueError):
        find_gadget(SymmetricSpec(3, (1,), 1))


def test_closed_form_gadget_odd_gap():
    # whenever some interior gap is odd, the direct construction
    # a = (gap+1)/2, b = lower threshold satisfies the conditions
    for spec in eligible_specs(6):
        candidate = closed_form_gadget(spec)
        if candidate is None:
            assert all(
                (b - a) % 2 == 0
                for a, b in zip(spec.thresholds, spec.thresholds[1:])
            )
            continue
        profile = weight_profile(spec)
        sign = -1 if candidate.flipped else 1
        assert profile[candidate.b] == sign
        assert profile[candidate.a + candidate.b] == -sign
        assert profile[2 * candidate.a + candidate.b] == sign


def test_gadget_json():
    g = find_gadget(SymmetricSpec(4, (1, 3), 1))
    assert gadget_to_json(g) == {"a": 2, "b": 0, "flipped": False}


def test_gadget_validation():
    with pytest.raises(ValueError):
        ReductionGadget(0, 0, 4, False)
    with pytest.raises(ValueError):
        ReductionGadget(2, 1, 4, False)


# --- instance transformation -------------------------------------------------


def test_extended_permutation_is_bijection():
    rng = stream(3, "perm")
    for t_target, n in ((4, 8), (5, 6), (6, 4)):
        spec_pool = [s for s in eligible_specs(t_target) if s.t == t_target and not is_nae_odd(s)]
        gadget = find_gadget(spec_pool[0])
        sigma = fisher_yates(n, rng)
        sigma_f = extended_permutation(sigma, gadget)
        assert sorted(sigma_f) == list(range(1, n * t_target // 2 + 1))


def test_extended_permutation_matches_the_block_by_block_oracle():
    # every gadget (a, b) at t <= 16, five seeded sigma at each parity size
    gadgets = [ReductionGadget(a, b, t, False) for t in range(2, 17)
               for a in range(1, t // 2 + 1) for b in range(t - 2 * a + 1)]
    for n in PARITY_SIZES:
        rng = stream(5, "extend", n)
        for sigma in [fisher_yates(n, rng) for _ in range(5)]:
            for gadget in gadgets:
                assert np.array_equal(extended_permutation(sigma, gadget),
                                      extended_permutation_by_blocks(sigma, gadget)), (gadget, n)


def test_weight_identity():
    # |transformed block| = a * |original pair| + b, for all inputs and blocks
    spec = SymmetricSpec(5, (1, 2), 1)
    gadget = find_gadget(spec)
    assert (gadget.a, gadget.b) == (1, 1)
    n = 6
    rng = stream(4, "w")
    rows = np.arange(2**n, dtype=np.int64)
    xs = 1 - 2 * ((rows[:, None] >> np.arange(n)) & 1)
    for _ in range(5):
        sigma = fisher_yates(n, rng)
        x_f = extended_string_rows(xs, gadget)
        sigma_f = extended_permutation(sigma, gadget)
        for row in range(0, 2**n, 7):
            x = tuple(int(v) for v in xs[row])
            permuted = apply_permutation(tuple(int(v) for v in sigma), x)
            permuted_f = apply_permutation(
                tuple(int(v) for v in sigma_f), tuple(int(v) for v in x_f[row])
            )
            for j in range(n // 2):
                pair = permuted[2 * j : 2 * j + 2]
                block = permuted_f[gadget.t * j : gadget.t * (j + 1)]
                assert hamming_weight(block) == gadget.a * hamming_weight(pair) + gadget.b


@st.composite
def reduction_cases(draw):
    """A symmetric spec at t = 7..8 with at least two sign changes and a
    gadget, an even n_small <= 6 and a permutation of [n_small]."""
    t = draw(st.integers(min_value=7, max_value=8))
    thresholds = draw(st.lists(st.integers(0, t - 1), min_size=2, max_size=t, unique=True))
    spec = SymmetricSpec(t, tuple(sorted(thresholds)), draw(st.sampled_from((1, -1))))
    assume(not is_nae_odd(spec))
    n = draw(st.sampled_from((2, 4, 6)))
    sigma = np.array(draw(st.permutations(range(1, n + 1))), dtype=np.int64)
    rows = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=4))
    return spec, sigma, rows


@given(reduction_cases())
def test_reduction_identity_on_random_symmetric_specs(case):
    spec, sigma, rows = case
    gadget = find_gadget(spec)
    n, t = len(sigma), spec.t
    xs = all_points(n)
    assert blockwise_identity_counterexamples(make_symmetric(spec), gadget, sigma, xs) is None
    # the same identity, block by block through the per-point references
    profile = weight_profile(spec)
    sign = -1 if gadget.flipped else 1
    x_f = extended_string_rows(xs, gadget)
    sigma_f = extended_permutation(sigma, gadget)
    for row in rows:
        permuted = apply_permutation(sigma.tolist(), xs[row].tolist())
        permuted_f = apply_permutation(sigma_f.tolist(), x_f[row].tolist())
        for j in range(n // 2):
            pair = permuted[2 * j : 2 * j + 2]
            block = permuted_f[t * j : t * (j + 1)]
            assert hamming_weight(block) == gadget.a * hamming_weight(pair) + gadget.b
            assert sign * profile[hamming_weight(block)] == math.prod(pair)


def test_block_weights_map_example():
    # weights 0,1,2 of the pair map to 0,2,4 under the (2,0) gadget
    spec = SymmetricSpec(4, (1, 3), 1)
    gadget = find_gadget(spec)
    n = 4
    identity = np.arange(1, 5, dtype=np.int64)
    for pair_rows, expected in (((1, 1, 1, 1), 0), ((-1, 1, 1, 1), 2), ((-1, -1, 1, 1), 4)):
        xs = np.asarray(pair_rows, dtype=np.int64)[None, :]
        x_f = extended_string_rows(xs, gadget)[0]
        sigma_f = extended_permutation(identity, gadget)
        permuted_f = apply_permutation(
            tuple(int(v) for v in sigma_f), tuple(int(v) for v in x_f)
        )
        assert hamming_weight(permuted_f[: gadget.t]) == expected


def test_reduced_instance_preserves_promise():
    spec = SymmetricSpec(4, (1, 3), 1)
    gadget = find_gadget(spec)
    f_target = make_symmetric(spec)
    for trial in range(40):
        b = 1 if trial % 2 else -1
        params = PartitionParams(8, 2, Fraction(1, 2))
        x, sigma, w = generate_instance(parity(2), params, b, stream(6, "inst", trial))
        x = unpack_strings(x, params.n)
        reduced_params, *reduced, reduced_b = reduce_instance(params, x, sigma, w, b, gadget)
        assert reduced_params.n == 16
        assert reduced_params.t == 4
        assert reduced_params.alpha == params.alpha
        assert reduced_b == b
        assert promise_bit(f_target, *reduced, reduced_params) == b


def test_reduced_instance_preserves_promise_flipped_gadget():
    # a spec whose gadget needs the global sign flip
    flipped_specs = []
    for spec in eligible_specs(6):
        if is_nae_odd(spec):
            continue
        gadget = find_gadget(spec)
        if gadget.flipped:
            flipped_specs.append((spec, gadget))
    assert flipped_specs, "expected at least one flipped gadget in the family"
    spec, gadget = flipped_specs[0]
    f_target = make_symmetric(spec)
    params = PartitionParams(8, 2, Fraction(1))
    for b in (1, -1):
        x, sigma, w = generate_instance(parity(2), params, b, stream(8, "inst", b))
        x = unpack_strings(x, params.n)
        reduced_params, *reduced, _ = reduce_instance(params, x, sigma, w, b, gadget)
        assert promise_bit(f_target, *reduced, reduced_params) == b


def test_reduce_requires_pair_blocks():
    spec = SymmetricSpec(4, (1, 3), 1)
    gadget = find_gadget(spec)
    params = PartitionParams(9, 3, Fraction(1))
    from hiddenpartition.boolfn import majority

    x, sigma, w = generate_instance(majority(3), params, 1, stream(1, "x"))
    x = unpack_strings(x, params.n)
    with pytest.raises(ValueError):
        reduce_instance(params, x, sigma, w, 1, gadget)


# --- exhaustive verification ---------------------------------------------------


def test_verify_reduction_passes():
    record = verify_reduction(make_symmetric(SymmetricSpec(4, (1, 3), 1)), 8, 6, stream(10, "v"))
    assert record["status"] == "pass"
    assert record["counterexample"] is None
    assert record["cases"] == 6 * 2**8


def test_verify_reduction_negative_control():
    # corrupting the gadget must produce a counterexample
    spec = SymmetricSpec(4, (1, 3), 1)
    good = find_gadget(spec)
    bad = ReductionGadget(good.a - 1, good.b, good.t, good.flipped)
    rows = np.arange(2**6, dtype=np.int64)
    xs = 1 - 2 * ((rows[:, None] >> np.arange(6)) & 1)
    sigma = np.arange(1, 7, dtype=np.int64)
    assert blockwise_identity_counterexamples(make_symmetric(spec), bad, sigma, xs) is not None


def test_verify_reduction_nae_odd_status():
    record = verify_reduction(make_symmetric(SymmetricSpec(3, (0, 2), -1)), 6, 4, stream(11, "v"))
    assert record["status"] == "no-gadget"
    assert record["gadget"] is None


def test_verify_reduction_guards():
    with pytest.raises(ValueError):
        verify_reduction(make_symmetric(SymmetricSpec(4, (1, 3), 1)), 12, 20, stream(12, "v"))
    with pytest.raises(ValueError):
        verify_reduction(make_symmetric(SymmetricSpec(4, (1, 3), 1)), 7, 20, stream(12, "v"))
