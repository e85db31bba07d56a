"""sigma's integer type is storage, not meaning.

The package draws sigma in the narrowest unsigned type that holds n.
Every consumer must read its values alone: given the same sigma as
int64 it returns the same bytes.  Unsigned arithmetic wraps where
signed arithmetic goes negative (``sigma - n``, or ``sigma - 1`` before
sigma >= 1 is known), so a consumer that did that would differ here.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from hiddenpartition.boolfn import SymmetricSpec, all_points, majority, make_symmetric
from hiddenpartition.classical import level_one_slots, run_classical, run_uniform_phd1
from hiddenpartition.hardness import draw_message_set, r_hat_formula, u_formula
from hiddenpartition.instances import PartitionParams, b_map_rows, generate_instances, promise_masks
from hiddenpartition.quantum import block_multilinear_matrix, hadamard_test_probs, run_quantum
from hiddenpartition.reduction import (
    ReductionGadget,
    blockwise_identity_counterexamples,
    find_gadget,
)
from hiddenpartition.rng import coin, fisher_yates, fisher_yates_rows, stream
from hiddenpartition.signpoly import best_sign_polynomial


def assert_same_bytes(narrow, wide):
    narrow, wide = np.asarray(narrow), np.asarray(wide)
    assert narrow.dtype == wide.dtype and narrow.shape == wide.shape
    assert narrow.tobytes() == wide.tobytes()


@pytest.mark.parametrize("n, alpha", [(255, Fraction(1, 5)), (3000, Fraction(1, 2))],
                         ids=["uint8", "uint16"])
def test_the_block_map_and_protocols_read_sigma_values_not_its_type(n, alpha):
    f = majority(3)
    params = PartitionParams(n, 3, alpha)
    instance_rngs = [stream(seed, "instance", n) for seed in range(5)]
    xs, sigmas, ws = generate_instances(f, params, [coin(rng) for rng in instance_rngs],
                                        instance_rngs)
    subsets = fisher_yates_rows(n, [stream(seed, "subset", n) for seed in range(5)])[:, :32]
    assert sigmas.dtype.kind == subsets.dtype.kind == "u"
    degree_one = best_sign_polynomial(f, 1)
    probs = hadamard_test_probs(block_multilinear_matrix(best_sign_polynomial(f, 2)),
                                all_points(3))
    slots = level_one_slots(f)

    def results(sigmas, subsets):
        def rngs():
            return [stream(seed, "protocol", n) for seed in range(5)]
        return [
            b_map_rows(f, xs, sigmas, params),
            b_map_rows(f, xs, sigmas[0], params),
            run_classical(params, xs, sigmas, ws, degree_one, 40, rngs()),
            run_quantum(params, xs, sigmas, ws, probs, 40, rngs()),
            run_uniform_phd1(params, xs, sigmas, ws, slots, subsets),
        ]

    for narrow, wide in zip(results(sigmas, subsets),
                            results(sigmas.astype(np.int64), subsets.astype(np.int64))):
        assert_same_bytes(narrow, wide)


def test_the_hardness_forms_and_the_reduction_read_sigma_values_not_its_type():
    f = majority(3)
    params = PartitionParams(12, 3, Fraction(3, 4))
    rng = stream(2, "sigma-type")
    sigma = fisher_yates(12, rng)
    assert sigma.dtype == np.uint8
    wide = sigma.astype(np.int64)
    message_set = draw_message_set(12, 300, rng)
    w = 1 - 2 * rng.integers(0, 2, size=params.active_blocks)
    positions = [1 << i for i in range(12)] + [int(v) for v in rng.integers(0, 2**12, size=20)]

    assert_same_bytes(promise_masks(f, message_set.members, sigma, params),
                      promise_masks(f, message_set.members, wide, params))
    assert_same_bytes(r_hat_formula(f, message_set, sigma, params),
                      r_hat_formula(f, message_set, wide, params))
    us = [[u_formula(f, s, w, mask, params) for mask in positions] for s in (sigma, wide)]
    assert any(us[0])
    assert_same_bytes(*us)

    # a gadget that works passes at either type; one a copy short names
    # the same counterexample at either
    spec = SymmetricSpec(4, (1, 3), 1)
    good = find_gadget(spec)
    bad = ReductionGadget(good.a - 1, good.b, good.t, good.flipped)
    xs = all_points(8)
    small = fisher_yates(8, rng)
    for gadget in (good, bad):
        narrow, wide = (blockwise_identity_counterexamples(make_symmetric(spec), gadget, s, xs)
                        for s in (small, small.astype(np.int64)))
        assert (narrow is None) == (gadget is good)
        assert json.dumps(narrow) == json.dumps(wide)
