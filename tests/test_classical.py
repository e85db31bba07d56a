import math
from fractions import Fraction

import numpy as np
import pytest

from hiddenpartition.boolfn import dictator, majority, parity
from hiddenpartition.classical import (
    UnsupportedFunctionError,
    alice_sample,
    bob_decide,
    level_one_slots,
    message_cost_bits,
    required_samples,
    run_classical,
    run_uniform_phd1,
)
from hiddenpartition.experiments import run_protocol_trials
from hiddenpartition.instances import PartitionParams, generate_instances, unpack_strings
from hiddenpartition.rng import fisher_yates, fisher_yates_rows, stream
from hiddenpartition.signpoly import BelowSignDegreeError, SignPolynomial, best_sign_polynomial

from conftest import poly_from_terms
from oracles import block_and_slot, uniform_statistic_by_scan


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
    with pytest.raises(ValueError, match="no finite sample count"):  # ln(1/epsilon) = inf
        required_samples(2, 1, 1.0, 5e-324)


def test_alice_sample_guards_and_constants():
    with pytest.raises(ValueError):
        alice_sample(np.zeros((1, 1), dtype=np.uint8), 2, 0, [stream(0)])
    # packed bits of x = (1, ..., 1) at n = 10: no bit set
    indices, bits = alice_sample(np.zeros((1, 2), dtype=np.uint8), 10, 5, [stream(1)])
    assert tuple(bits[0]) == (1, 1, 1, 1, 1)
    assert all(1 <= i <= 10 for i in indices[0])


def test_alice_sample_deterministic_golden():
    xs = np.zeros((1, 2), dtype=np.uint8)
    indices, bits = alice_sample(xs, 16, 6, [stream(42, "protocol", 0)])
    assert tuple(indices[0]) == (10, 16, 9, 8, 5, 7)
    again = alice_sample(xs, 16, 6, [stream(42, "protocol", 0)])
    assert np.array_equal(indices, again[0]) and np.array_equal(bits, again[1])


def test_block_and_slot():
    assert block_and_slot(1, 3) == (1, 1)
    assert block_and_slot(3, 3) == (1, 3)
    assert block_and_slot(4, 3) == (2, 1)
    assert block_and_slot(7, 2) == (4, 1)


def dictator_poly(t: int) -> SignPolynomial:
    return poly_from_terms(t, {1: 1.0}, 1.0)


def test_protocol_runs_return_one_float64_statistic_per_row():
    # Bob's statistic per trial; run_protocol_trials takes its sign as the guess
    f = majority(3)
    params = PartitionParams(30, 3, Fraction(1, 5))
    trials = range(5)
    xs, sigmas, ws = generate_instances(
        f, params, [1, -1, 1, -1, 1], [stream(3, "instance", trial) for trial in trials])
    poly = best_sign_polynomial(f, 1)
    indices, bits = alice_sample(xs, 30, 4, [stream(3, "protocol", trial) for trial in trials])
    subsets = fisher_yates_rows(30, [stream(3, "protocol", trial) for trial in trials])[:, :6]
    for statistics in (
        bob_decide(indices, bits, sigmas, ws, poly, params),
        run_classical(params, xs, sigmas, ws, poly, 4,
                      [stream(3, "protocol", trial) for trial in trials]),
        run_uniform_phd1(params, xs, sigmas, ws, level_one_slots(f), subsets),
    ):
        assert isinstance(statistics, np.ndarray)
        assert (statistics.dtype, statistics.shape) == (np.float64, (5,))


def test_bob_decide_dictator_single_hit():
    # one sampled index whose permuted position is slot 1 of block 1
    params = PartitionParams(4, 2, Fraction(1))
    sigma = np.array([1, 2, 3, 4])
    [statistic] = bob_decide(
        np.array([[1]]), np.array([[1]]), sigma[None], np.array([[1, 1]]), dictator_poly(2),
        params,
    )
    assert statistic == pytest.approx(1.0)


def test_bob_decide_zero_coefficient_slot():
    params = PartitionParams(4, 2, Fraction(1))
    sigma = np.array([2, 1, 3, 4])  # index 1 lands on slot 2, coefficient 0
    [statistic] = bob_decide(
        np.array([[1]]), np.array([[1]]), sigma[None], np.array([[1, 1]]), dictator_poly(2),
        params,
    )
    assert statistic == 0.0


def test_bob_decide_inactive_indices_random_tie():
    # a zero statistic, which run_protocol_trials decides with the trial's coin
    params = PartitionParams(4, 2, Fraction(1, 2))
    sigma = np.array([3, 4, 1, 2])  # indices 1,2 land outside the active prefix
    indices, bits = np.array([[1, 2]]), np.array([[1, -1]])
    [statistic] = bob_decide(
        indices, bits, sigma[None], np.array([[1]]), dictator_poly(2), params
    )
    assert statistic == 0.0


def test_bob_decide_order_invariant():
    params = PartitionParams(6, 2, Fraction(1))
    sigma = np.array([[5, 3, 1, 2, 6, 4]])
    w = np.array([[1, -1, 1]])
    msg = (np.array([[1, 3, 5]]), np.array([[1, -1, -1]]))
    shuffled = (np.array([[5, 1, 3]]), np.array([[-1, 1, -1]]))
    poly = dictator_poly(2)
    assert (
        bob_decide(*msg, sigma, w, poly, params)[0]
        == bob_decide(*shuffled, sigma, w, poly, params)[0]
    )


def test_bob_decide_rejects_quadratic():
    params = PartitionParams(4, 2, Fraction(1))
    quad = poly_from_terms(2, {0b11: 1.0}, 1.0)
    with pytest.raises(ValueError):
        bob_decide(
            np.array([[1]]), np.array([[1]]), np.array([[1, 2, 3, 4]]), np.array([[1, 1]]), quad,
            params,
        )


def test_bob_decide_rejects_indices_outside_one_to_n():
    params = PartitionParams(4, 2, Fraction(1))
    for index in (0, 5):
        with pytest.raises(ValueError, match=r"indices must lie in \[1, n\]"):
            bob_decide(
                np.array([[index]]), np.array([[1]]), np.array([[1, 2, 3, 4]]),
                np.array([[1, 1]]), dictator_poly(2), params,
            )


def test_message_cost_grows_logarithmically():
    m = 10
    assert message_cost_bits(m, 256) == 10 * 9
    assert message_cost_bits(m, 1024) == 10 * 11


def test_run_classical_guard():
    with pytest.raises(BelowSignDegreeError):
        best_sign_polynomial(parity(2), 1)


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
    m = required_samples(params.t, params.alpha, poly.bias, epsilon)
    stats = []
    for start in range(0, 12000, 2000):  # the same draws as one trial at a time
        trials = range(start, start + 2000)
        rngs = [stream(77, "instance", trial) for trial in trials]
        stats.append(run_classical(
            params, *generate_instances(f, params, [1] * 2000, rngs), poly, m,
            [stream(77, "protocol", trial) for trial in trials],
        ))
    stats = np.concatenate(stats)
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
        [statistic] = run_uniform_phd1(
            params, *generate_instances(f, params, [b], [rng]), slots,
            fisher_yates(40, stream(5, "protocol", trial))[None, :40],
        )
        if statistic != 0.0:
            assert np.sign(statistic) == b


def test_run_uniform_majority_conditional_success():
    # conditional success on a hit is 3/4 for majority on 3 bits
    f = majority(3)
    slots = level_one_slots(f)
    params = PartitionParams(30, 3, Fraction(1))
    hits = correct_hits = 0
    for trial in range(4000):
        rng = stream(13, "instance", trial)
        [statistic] = run_uniform_phd1(
            params, *generate_instances(f, params, [1], [rng]), slots,
            fisher_yates(30, stream(13, "protocol", trial))[None, :10],
        )
        if statistic != 0.0:
            hits += 1
            correct_hits += int(np.sign(statistic) == 1)
    assert hits > 3000
    assert correct_hits / hits == pytest.approx(0.75, abs=0.03)


def test_run_uniform_scan_matches_index_by_index_oracle():
    # the vectorised first-hit scan against the per-index loop it replaced
    for f, n, alpha in ((dictator(4), 40, Fraction(1, 2)), (majority(3), 30, Fraction(1, 5))):
        slots = level_one_slots(f)
        params = PartitionParams(n, f.t, alpha)
        for trial in range(100):
            xs, sigmas, ws = generate_instances(f, params, [1], [stream(21, "instance", trial)])
            subset = fisher_yates(n, stream(21, "protocol", trial))[: 1 + trial % 12]
            [statistic] = run_uniform_phd1(params, xs, sigmas, ws, slots, subset[None])
            assert statistic == uniform_statistic_by_scan(
                params, unpack_strings(xs[0], n), sigmas[0], ws[0], slots, subset
            )
        # the message is fixed per run: |I| indices, the same cost in every trial
        for sample_count in (1, 7, 12):
            records, summary = run_protocol_trials(
                "uniform", f, "f", params, trials=20, seed=21, sample_count=sample_count
            )
            assert {r.cost_bits for r in records} == {message_cost_bits(sample_count, n)}
            assert summary.samples == sample_count


def test_run_uniform_rejects_subsets_outside_one_to_n():
    f = dictator(2)
    params = PartitionParams(4, 2, Fraction(1))
    rows = generate_instances(f, params, [1], [stream(0, "instance")])
    n = params.n
    for subset in (np.array([], dtype=np.int64), np.arange(1, 6), [0], [-3], [n + 1]):
        with pytest.raises(ValueError):
            run_uniform_phd1(
                params, *rows, level_one_slots(f),
                np.array(subset, dtype=np.int64)[None],
            )
