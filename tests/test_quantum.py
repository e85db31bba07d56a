import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenpartition.boolfn import all_points, dictator, make_symmetric, parity, SymmetricSpec
from hiddenpartition.classical import UnsupportedFunctionError, protocol_witness
from hiddenpartition.experiments import run_protocol_trials
from hiddenpartition.instances import PartitionParams
from hiddenpartition.quantum import (
    BlockMatrix,
    block_multilinear_matrix,
    hadamard_test_prob,
    matrix_audit_record,
    povm_block_distribution,
    quadratic_form,
    qubits_per_copy,
    statevector_oracle,
    unitary_dilation,
)
from hiddenpartition.signpoly import best_sign_polynomial

from conftest import poly_from_terms, poly_value, random_degree2_poly


# --- bilinear lift -----------------------------------------------------------


def test_parity2_matrix():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    expected = np.zeros((3, 3))
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.allclose(a.entries, expected, atol=1e-9)
    assert a.spectral_norm == pytest.approx(0.5, abs=1e-12)


def test_linear_matrix():
    p = poly_from_terms(1, {0b1: 1.0}, 1.0)
    a = block_multilinear_matrix(p)
    assert a.entries[0, 1] == pytest.approx(0.5)
    assert a.entries[1, 0] == pytest.approx(0.5)
    for z in ((1,), (-1,)):
        assert quadratic_form(a, z) == pytest.approx(z[0])


def test_constant_matrix():
    p = poly_from_terms(2, {0: 0.5}, 0.5)
    a = block_multilinear_matrix(p)
    assert a.entries[0, 0] == pytest.approx(0.5)
    assert a.spectral_norm == pytest.approx(0.5)


def test_degree_guard():
    p = poly_from_terms(3, {0b111: 1.0}, 1.0)
    with pytest.raises(ValueError):
        block_multilinear_matrix(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_quadratic_form_reproduces_polynomial(t, seed):
    poly = random_degree2_poly(t, np.random.default_rng(seed))
    a = block_multilinear_matrix(poly)
    for point in all_points(t):
        assert quadratic_form(a, tuple(point)) == pytest.approx(
            poly_value(poly, tuple(point)), abs=1e-10
        )


def test_spectral_norm_matches_eigen_recomputation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = block_multilinear_matrix(random_degree2_poly(3, rng))
        eig = float(np.abs(np.linalg.eigvalsh(a.entries)).max())
        assert abs(a.spectral_norm - eig) <= 1e-10


# --- dilation ----------------------------------------------------------------


def test_dilation_identity_scaled():
    a = BlockMatrix.from_entries(np.eye(3) / 2)
    u = unitary_dilation(a).entries
    assert np.allclose(u[:3, :3], np.eye(3), atol=1e-12)


def test_dilation_parity2():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    u = unitary_dilation(a).entries
    assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-10
    assert np.abs(u[:3, :3] - 2 * a.entries).max() <= 1e-10


def test_dilation_rank_deficient():
    entries = np.zeros((4, 4))
    entries[1, 2] = 0.3
    a = BlockMatrix.from_entries(entries)
    u = unitary_dilation(a).entries
    assert np.abs(u.T @ u - np.eye(8)).max() <= 1e-10
    assert np.abs(u[:4, :4] - entries / a.spectral_norm).max() <= 1e-10


def test_dilation_zero_matrix_rejected():
    with pytest.raises(ValueError):
        unitary_dilation(BlockMatrix.from_entries(np.zeros((3, 3))))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
def test_dilation_invariants_random(t, seed):
    a = block_multilinear_matrix(random_degree2_poly(t, np.random.default_rng(seed)))
    u = unitary_dilation(a).entries
    dim = a.dim
    assert np.abs(u.T @ u - np.eye(2 * dim)).max() <= 1e-10
    assert np.abs(u[:dim, :dim] - a.entries / a.spectral_norm).max() <= 1e-10


# --- Hadamard test -----------------------------------------------------------


def test_hadamard_prob_parity2():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    assert hadamard_test_prob(a, (1, 1)) == pytest.approx(5 / 6, abs=1e-12)
    assert hadamard_test_prob(a, (1, -1)) == pytest.approx(1 / 6, abs=1e-12)


def test_hadamard_prob_zero_value():
    p = poly_from_terms(2, {0b01: 0.5, 0b10: 0.5}, 0.0)  # p(1,-1) = 0
    a = block_multilinear_matrix(p)
    assert hadamard_test_prob(a, (1, -1)) == pytest.approx(0.5, abs=1e-12)
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
    for point in all_points(t):
        closed = hadamard_test_prob(a, tuple(point))
        simulated = statevector_oracle(a, tuple(point))
        assert 0.0 <= closed <= 1.0
        assert abs(closed - simulated) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
def test_hadamard_prob_deviation_bound(t, seed):
    a = block_multilinear_matrix(random_degree2_poly(t, np.random.default_rng(seed)))
    bound = 1 / (2 * a.spectral_norm * (t + 1))
    for point in all_points(t):
        assert abs(hadamard_test_prob(a, tuple(point)) - 0.5) <= bound + 1e-12


# --- measurement accounting --------------------------------------------------


def test_povm_block_distribution_examples():
    dist = povm_block_distribution(PartitionParams(4, 2, Fraction(1)))
    assert dist == (Fraction(1, 2), Fraction(1, 2))
    dist = povm_block_distribution(PartitionParams(6, 3, Fraction(1)))
    assert dist == (Fraction(1, 2), Fraction(1, 2))
    dist = povm_block_distribution(PartitionParams(20, 2, Fraction(1, 2)))
    assert sum(dist) == 1


def test_qubit_accounting():
    assert qubits_per_copy(PartitionParams(200, 2, Fraction(1, 2))) == math.ceil(math.log2(300)) + 1


# --- full protocol -----------------------------------------------------------


def test_run_quantum_guard_sdeg3():
    f = make_symmetric(SymmetricSpec(3, (0, 1, 2), 1))
    with pytest.raises(UnsupportedFunctionError):
        protocol_witness(f, 2)


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


def test_matrix_audit_record():
    a = block_multilinear_matrix(best_sign_polynomial(parity(2), 2))
    record = matrix_audit_record(a, unitary_dilation(a))
    assert record["dim"] == 3
    assert record["spectral_norm"] == pytest.approx(0.5)
    assert len(record["dilation"]) == 6
