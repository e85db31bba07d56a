import math
from fractions import Fraction

import numpy as np
import pytest

from hiddenpartition.boolfn import dictator, majority, parity
from hiddenpartition.classical import (
    SampleMessage,
    UnsupportedFunctionError,
    alice_sample,
    block_and_slot,
    bob_decide,
    level_one_slots,
    message_cost_bits,
    protocol_witness,
    required_samples,
    run_classical,
    run_uniform_phd1,
)
from hiddenpartition.experiments import run_protocol_trials
from hiddenpartition.instances import PartitionParams, generate_instance
from hiddenpartition.rng import stream
from hiddenpartition.signpoly import SignPolynomial, best_sign_polynomial

from conftest import poly_from_terms


def test_required_samples_examples():
    assert required_samples(2, Fraction(1, 2), 1.0, 1 / 3) == 9
    assert required_samples(2, 1, 1.0, math.exp(-2)) == 4
    assert required_samples(3, 1, 1 / 3, 1 / 3) == 45


def test_required_samples_guards():
    with pytest.raises(ValueError):
        required_samples(2, 1, 0.0, 0.1)
    with pytest.raises(ValueError):
        required_samples(2, 1, 1.0, 0.6)
    with pytest.raises(ValueError):
        required_samples(2, 0, 1.0, 0.1)


def test_alice_sample_guards_and_constants():
    with pytest.raises(ValueError):
        alice_sample((1, 1), 0, stream(0))
    msg = alice_sample(tuple([1] * 10), 5, stream(1))
    assert msg.bits == (1, 1, 1, 1, 1)
    assert all(1 <= i <= 10 for i in msg.indices)


def test_alice_sample_deterministic_golden():
    x = tuple([1] * 16)
    msg = alice_sample(x, 6, stream(42, "protocol", 0))
    assert msg.indices == (10, 16, 9, 8, 5, 7)
    assert msg == alice_sample(x, 6, stream(42, "protocol", 0))


def test_block_and_slot():
    assert block_and_slot(1, 3) == (1, 1)
    assert block_and_slot(3, 3) == (1, 3)
    assert block_and_slot(4, 3) == (2, 1)
    assert block_and_slot(7, 2) == (4, 1)


def dictator_poly(t: int) -> SignPolynomial:
    return poly_from_terms(t, {1: 1.0}, 1.0)


def test_bob_decide_dictator_single_hit():
    # one sampled index whose permuted position is slot 1 of block 1
    params = PartitionParams(4, 2, Fraction(1))
    sigma = (1, 2, 3, 4)
    msg = SampleMessage((1,), (1,))
    outcome = bob_decide(msg, sigma, (1, 1), dictator_poly(2), params)
    assert outcome.statistic == pytest.approx(1.0)
    assert outcome.guess == 1


def test_bob_decide_zero_coefficient_slot():
    params = PartitionParams(4, 2, Fraction(1))
    sigma = (2, 1, 3, 4)  # index 1 lands on slot 2, coefficient 0
    msg = SampleMessage((1,), (1,))
    outcome = bob_decide(msg, sigma, (1, 1), dictator_poly(2), params)
    assert outcome.statistic == 0.0


def test_bob_decide_inactive_indices_random_tie():
    params = PartitionParams(4, 2, Fraction(1, 2))
    sigma = (3, 4, 1, 2)  # indices 1,2 land outside the active prefix
    msg = SampleMessage((1, 2), (1, -1))
    guesses = set()
    for i in range(32):
        outcome = bob_decide(msg, sigma, (1,), dictator_poly(2), params, stream(9, i))
        assert outcome.statistic == 0.0
        guesses.add(outcome.guess)
    assert guesses == {-1, 1}


def test_bob_decide_order_invariant():
    params = PartitionParams(6, 2, Fraction(1))
    sigma = (5, 3, 1, 2, 6, 4)
    w = (1, -1, 1)
    msg = SampleMessage((1, 3, 5), (1, -1, -1))
    shuffled = SampleMessage((5, 1, 3), (-1, 1, -1))
    poly = dictator_poly(2)
    assert (
        bob_decide(msg, sigma, w, poly, params).statistic
        == bob_decide(shuffled, sigma, w, poly, params).statistic
    )


def test_bob_decide_rejects_quadratic():
    params = PartitionParams(4, 2, Fraction(1))
    quad = poly_from_terms(2, {0b11: 1.0}, 1.0)
    with pytest.raises(ValueError):
        bob_decide(SampleMessage((1,), (1,)), (1, 2, 3, 4), (1, 1), quad, params)


def test_message_cost_grows_logarithmically():
    m = 10
    assert message_cost_bits(m, 256) == 10 * 9
    assert message_cost_bits(m, 1024) == 10 * 11


def test_run_classical_guard():
    with pytest.raises(UnsupportedFunctionError):
        protocol_witness(parity(2), 1)


def test_run_classical_dictator_success_rate():
    # n=100, t=2, alpha=1, eps=0.05: empirical success over 2000 trials >= 0.9
    f = dictator(2)
    params = PartitionParams(100, 2, Fraction(1))
    _, summary = run_protocol_trials(
        "classical", f, "dictator:2", params, trials=2000, seed=11, epsilon=0.05
    )
    assert summary.success_rate >= 0.9


def test_expected_statistic_sign_and_magnitude():
    # Monte-Carlo mean of X has the sign of b and magnitude >= alpha*beta*m/t - 3 SE
    f = majority(3)
    poly = best_sign_polynomial(f, 1)
    params = PartitionParams(60, 3, Fraction(1, 2))
    epsilon = 0.2
    stats = []
    for trial in range(12000):
        rng = stream(77, "instance", trial)
        instance = generate_instance(f, params, 1, rng)
        outcome = run_classical(instance, poly, epsilon, stream(77, "protocol", trial))
        stats.append(outcome.statistic)
    stats = np.asarray(stats)
    m = required_samples(params.t, params.alpha, poly.bias, epsilon)
    lower = float(params.alpha) * poly.bias * m / params.t
    stderr = stats.std(ddof=1) / math.sqrt(len(stats))
    assert stats.mean() > 0
    assert abs(stats.mean()) >= lower - 3 * stderr


def test_run_uniform_guard_parity():
    with pytest.raises(UnsupportedFunctionError):
        level_one_slots(parity(2))


def test_run_uniform_dictator_exact_on_hit():
    f = dictator(4)
    slots = level_one_slots(f)
    params = PartitionParams(40, 4, Fraction(1, 2))
    for trial in range(200):
        rng = stream(5, "instance", trial)
        b = 1 if trial % 2 else -1
        instance = generate_instance(f, params, b, rng)
        outcome = run_uniform_phd1(
            instance, slots, 40, stream(5, "protocol", trial), stream(5, "tie", trial)
        )
        if outcome.statistic != 0.0:
            assert outcome.guess == b


def test_run_uniform_majority_conditional_success():
    # conditional success on a hit is 3/4 for majority on 3 bits
    f = majority(3)
    slots = level_one_slots(f)
    params = PartitionParams(30, 3, Fraction(1))
    hits = correct_hits = 0
    for trial in range(4000):
        rng = stream(13, "instance", trial)
        instance = generate_instance(f, params, 1, rng)
        outcome = run_uniform_phd1(instance, slots, 10, stream(13, "protocol", trial))
        if outcome.statistic != 0.0:
            hits += 1
            correct_hits += int(outcome.guess == 1)
    assert hits > 3000
    assert correct_hits / hits == pytest.approx(0.75, abs=0.03)
