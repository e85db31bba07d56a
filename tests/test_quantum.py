import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenpartition import instances
from hiddenpartition.boolfn import (
    SymmetricSpec, all_points, and_fn, dictator, majority, make_symmetric, named_function, parity,
)
from hiddenpartition.experiments import _make_runner, run_protocol_trials
from hiddenpartition.instances import (
    PartitionParams, active_blocks, blocks_to_rows, generate_instances, unpack_strings,
)
from hiddenpartition.quantum import (
    _lifted_forms,
    block_multilinear_matrix,
    hadamard_test_probs,
    qubits_per_copy,
    required_copies,
    run_quantum,
    spectral_norm,
)
from hiddenpartition.rng import stream
from hiddenpartition.signpoly import BelowSignDegreeError, best_sign_polynomial

from conftest import poly_from_terms, poly_value, random_degree2_poly, random_table
from oracles import (
    povm_block_distribution, quantum_statistics_by_blocks, row_of_point, statevector_oracle,
    unitary_dilation,
)


# --- bilinear lift -----------------------------------------------------------


def test_parity2_matrix():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    expected = np.zeros((3, 3))
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.allclose(a, expected, atol=1e-9)
    assert spectral_norm(a) == pytest.approx(0.5, abs=1e-12)
    assert a.dtype == np.float64 and not a.flags.writeable


def test_linear_matrix():
    p = poly_from_terms(1, {0b1: 1.0}, 1.0)
    a = block_multilinear_matrix(p)
    assert a[0, 1] == pytest.approx(0.5)
    assert a[1, 0] == pytest.approx(0.5)
    forms = _lifted_forms(a, all_points(1))
    for z, form in zip(all_points(1), forms):
        assert form == pytest.approx(z[0])


def test_constant_matrix():
    p = poly_from_terms(2, {0: 0.5}, 0.5)
    a = block_multilinear_matrix(p)
    assert a[0, 0] == pytest.approx(0.5)
    assert spectral_norm(a) == pytest.approx(0.5)


def test_degree_guard():
    p = poly_from_terms(3, {0b111: 1.0}, 1.0)
    with pytest.raises(ValueError):
        block_multilinear_matrix(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_quadratic_form_reproduces_polynomial(t, seed):
    poly = random_degree2_poly(t, np.random.default_rng(seed))
    a = block_multilinear_matrix(poly)
    forms = _lifted_forms(a, all_points(t))
    for point, form in zip(all_points(t), forms):
        assert form == pytest.approx(poly_value(poly, tuple(point)), abs=1e-10)


def test_spectral_norm_matches_eigen_recomputation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = block_multilinear_matrix(random_degree2_poly(3, rng))
        eig = float(np.abs(np.linalg.eigvalsh(a)).max())
        assert abs(spectral_norm(a) - eig) <= 1e-10


# --- dilation ----------------------------------------------------------------


def test_dilation_identity_scaled():
    u = unitary_dilation(np.eye(3) / 2)
    assert np.allclose(u[:3, :3], np.eye(3), atol=1e-12)


def test_dilation_parity2():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    u = unitary_dilation(a)
    assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-10
    assert np.abs(u[:3, :3] - 2 * a).max() <= 1e-10


def test_dilation_rank_deficient():
    entries = np.zeros((4, 4))
    entries[1, 2] = 0.3
    u = unitary_dilation(entries)
    assert np.abs(u.T @ u - np.eye(8)).max() <= 1e-10
    assert np.abs(u[:4, :4] - entries / spectral_norm(entries)).max() <= 1e-10


def test_dilation_zero_matrix_rejected():
    with pytest.raises(ValueError):
        unitary_dilation(np.zeros((3, 3)))


def test_dilation_is_a_function_of_the_matrix():
    # and(4)'s lift repeats the singular value 1/16 three times; a 1-ulp
    # nudge of every entry must not move the dilation (an SVD basis would)
    a = block_multilinear_matrix(best_sign_polynomial(named_function("and", 4), 2))
    nudged = np.nextafter(a, np.inf)
    assert np.abs(unitary_dilation(nudged) - unitary_dilation(a)).max() <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
def test_dilation_invariants_random(t, seed):
    a = block_multilinear_matrix(random_degree2_poly(t, np.random.default_rng(seed)))
    u = unitary_dilation(a)
    dim = len(a)
    assert np.abs(u.T @ u - np.eye(2 * dim)).max() <= 1e-10
    assert np.abs(u[:dim, :dim] - a / spectral_norm(a)).max() <= 1e-10


# --- Hadamard test -----------------------------------------------------------


def test_hadamard_prob_parity2():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    probs = hadamard_test_probs(a, all_points(2))
    assert probs[row_of_point((1, 1))] == pytest.approx(5 / 6, abs=1e-12)
    assert probs[row_of_point((1, -1))] == pytest.approx(1 / 6, abs=1e-12)


def test_hadamard_prob_zero_value():
    p = poly_from_terms(2, {0b01: 0.5, 0b10: 0.5}, 0.0)  # p(1,-1) = 0
    a = block_multilinear_matrix(p)
    probs = hadamard_test_probs(a, all_points(2))
    assert probs[row_of_point((1, -1))] == pytest.approx(0.5, abs=1e-12)
    assert statevector_oracle(a, (1, -1)) == pytest.approx(0.5, abs=1e-12)


def test_statevector_matches_closed_form_parity():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    assert statevector_oracle(a, (1, 1)) == pytest.approx(5 / 6, abs=1e-9)
    assert statevector_oracle(a, (-1, 1)) == pytest.approx(1 / 6, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
def test_statevector_matches_closed_form_random(t, seed):
    rng = np.random.default_rng(seed)
    a = block_multilinear_matrix(random_degree2_poly(t, rng))
    for point, closed in zip(all_points(t), hadamard_test_probs(a, all_points(t))):
        simulated = statevector_oracle(a, tuple(point))
        assert 0.0 <= closed <= 1.0
        assert abs(closed - simulated) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
def test_hadamard_prob_deviation_bound(t, seed):
    a = block_multilinear_matrix(random_degree2_poly(t, np.random.default_rng(seed)))
    bound = 1 / (2 * spectral_norm(a) * (t + 1))
    for closed in hadamard_test_probs(a, all_points(t)):
        assert abs(closed - 0.5) <= bound + 1e-12


@pytest.mark.parametrize("f", [parity(2), and_fn(3), majority(3),
                               random_table(4, np.random.default_rng([4, 1])),
                               random_table(4, np.random.default_rng([4, 2]))],
                         ids=["parity2", "and3", "majority3", "dense4-1", "dense4-2"])
def test_tabulated_probs_equal_the_closed_form_on_every_block(f):
    # a quantum run evaluates the closed form once per block value and looks
    # it up by row code; that must be the very float of the per-block stack.
    a = block_multilinear_matrix(best_sign_polynomial(f, 2))
    params = PartitionParams(960, f.t, Fraction(1, 2))
    rngs = [stream(row, "tabulated", f.t) for row in range(100)]
    xs, sigmas, _ = generate_instances(f, params, [1] * len(rngs), rngs)
    blocks = active_blocks(unpack_strings(xs, params.n), sigmas, params).reshape(-1, f.t)
    rows = blocks_to_rows(blocks)
    assert np.array_equal(np.unique(rows), np.arange(2**f.t))  # every value occurs
    table = hadamard_test_probs(a, all_points(f.t))
    assert np.array_equal(table[rows], hadamard_test_probs(a, blocks))


@pytest.mark.parametrize(
    "f, alpha",
    [pytest.param(f, alpha, id=name + suffix)
     for name, f in [("and3", and_fn(3)),
                     ("dense4-1", random_table(4, np.random.default_rng([4, 1])))]
     for alpha, suffix in [(Fraction(1, 2), ""), (Fraction(1), "-all-active"),
                           (Fraction(1, 4), "-quarter-active")]],
)
def test_run_quantum_statistics_match_the_per_block_oracle(f, alpha):
    # the quantum runner tabulates the closed form once per run; its
    # statistics must be those of the closed form on each block of each trial
    params = PartitionParams(48, f.t, alpha)
    prepare, decide, m, _ = _make_runner("quantum", f, params, 0.4, None)
    trials = range(40)
    xs, sigmas, ws = generate_instances(
        f, params, [1] * len(trials), [stream(trial, "instance") for trial in trials])
    statistics = decide(xs, sigmas, ws, prepare([stream(trial, "protocol") for trial in trials]))
    a = block_multilinear_matrix(best_sign_polynomial(f, 2))
    strings = unpack_strings(xs, params.n)
    expected = quantum_statistics_by_blocks(params, strings, sigmas, ws, a, m,
                                            [stream(trial, "protocol") for trial in trials])
    assert statistics.tolist() == expected


def test_run_quantum_gathers_the_same_blocks_a_row_slice_at_a_time(monkeypatch):
    # a 370-byte row-slice budget gathers 40 rows' sampled blocks 2 rows at
    # a time (185 bytes a row: the unpacked string and the block map's
    # temporaries); each slice must read its own rows' draws
    f = and_fn(3)
    params = PartitionParams(48, 3, Fraction(1, 2))
    prepare, decide, _, _ = _make_runner("quantum", f, params, 0.4, None)
    xs, sigmas, ws = generate_instances(
        f, params, [1] * 40, [stream(trial, "instance") for trial in range(40)])

    def statistics():
        return decide(xs, sigmas, ws, prepare([stream(trial, "protocol") for trial in range(40)]))

    whole = statistics()
    sizes = []
    view = instances.active_blocks
    monkeypatch.setattr(instances, "active_blocks",
                        lambda part, *args: sizes.append(len(part)) or view(part, *args))
    monkeypatch.setattr(instances, "SLICE_BYTES", 370)
    assert statistics().tolist() == whole.tolist()
    assert sizes == [2] * 20


def test_run_quantum_returns_one_float64_statistic_per_row():
    # Bob's statistic per trial; run_protocol_trials takes its sign as the guess
    f = parity(2)
    params = PartitionParams(24, 2, Fraction(1, 2))
    a = block_multilinear_matrix(best_sign_polynomial(f, 2))
    trials = range(3)
    xs, sigmas, ws = generate_instances(
        f, params, [1, -1, 1], [stream(trial, "instance") for trial in trials])
    statistics = run_quantum(params, xs, sigmas, ws, hadamard_test_probs(a, all_points(2)), 5,
                             [stream(trial, "protocol") for trial in trials])
    assert isinstance(statistics, np.ndarray)
    assert (statistics.dtype, statistics.shape) == (np.float64, (3,))


# --- measurement accounting --------------------------------------------------


def test_povm_block_distribution_examples():
    dist = povm_block_distribution(PartitionParams(4, 2, Fraction(1)))
    assert dist == (Fraction(1, 2), Fraction(1, 2))
    dist = povm_block_distribution(PartitionParams(6, 3, Fraction(1)))
    assert dist == (Fraction(1, 2), Fraction(1, 2))
    params = PartitionParams(20, 2, Fraction(1, 2))
    dist = povm_block_distribution(params)
    assert sum(dist) == 1
    # run_quantum draws the block index uniformly from [0, num_blocks)
    assert dist == (Fraction(1, params.num_blocks),) * params.num_blocks


def test_qubit_accounting():
    assert qubits_per_copy(PartitionParams(200, 2, Fraction(1, 2))) == math.ceil(math.log2(300)) + 1


def test_quantum_message_is_fixed_per_run():
    # m = ceil((t / (alpha * 2/3))^2 ln(10) / 2) copies at the effective bias 1 / (||A|| (t+1))
    params = PartitionParams(60, 2, Fraction(1, 2))
    poly = best_sign_polynomial(parity(2), 2)
    m = required_copies(params, poly.bias, block_multilinear_matrix(poly), 0.1)
    assert m == math.ceil(36 * math.log(10) / 2)
    records, summary = run_protocol_trials(
        "quantum", parity(2), "parity:2", params, trials=20, seed=23, epsilon=0.1
    )
    assert summary.m == m
    assert {r.cost_bits for r in records} == {m * qubits_per_copy(params)}


# --- full protocol -----------------------------------------------------------


def test_run_quantum_guard_sdeg3():
    f = make_symmetric(SymmetricSpec(3, (0, 1, 2), 1))
    with pytest.raises(BelowSignDegreeError):
        best_sign_polynomial(f, 2)


def test_run_quantum_parity_success():
    params = PartitionParams(60, 2, Fraction(1, 2))
    _, summary = run_protocol_trials(
        "quantum", parity(2), "parity:2", params, trials=800, seed=23, epsilon=0.1
    )
    assert summary.success_rate >= 0.8


def test_run_quantum_dictator_consistent_with_classical():
    params = PartitionParams(64, 2, Fraction(1))
    _, qsummary = run_protocol_trials(
        "quantum", dictator(2), "dictator:2", params, trials=600, seed=31, epsilon=0.1
    )
    _, csummary = run_protocol_trials(
        "classical", dictator(2), "dictator:2", params, trials=600, seed=31, epsilon=0.1
    )
    assert qsummary.success_rate >= 1 - 2 * 0.1 - 0.05
    assert csummary.success_rate >= 1 - 2 * 0.1 - 0.05
