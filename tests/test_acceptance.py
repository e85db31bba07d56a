"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure shows the offending assertion instead.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hiddenpartition.boolfn import (
    and_fn,
    dictator,
    fourier_transform,
    inverse_fourier,
    majority,
    make_symmetric,
    parity,
    pure_high_degree,
    sign_changes,
)
from hiddenpartition.classical import required_samples
from hiddenpartition.experiments import run_protocol_trials
from hiddenpartition.hardness import (
    MessageSet,
    expected_tvd,
    full_cube,
    kkl_check,
    r_hat_bruteforce,
    r_hat_formula,
    random_message_set,
    u_bruteforce,
    u_formula,
)
from hiddenpartition.instances import PartitionParams
from hiddenpartition.quantum import (
    BlockMatrix,
    block_multilinear_matrix,
    hadamard_test_prob,
    qubits_per_copy,
    statevector_oracle,
    unitary_dilation,
)
from hiddenpartition.reduction import (
    NoGadgetError,
    blockwise_identity_counterexamples,
    find_gadget,
    verify_reduction,
)
from hiddenpartition.rng import fisher_yates, stream
from hiddenpartition.signpoly import best_sign_polynomial, sign_degree

from conftest import all_symmetric_specs, random_degree2_poly, random_table


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def symmetric_family():
    """sdeg (LP), phdeg, and sign-change count for every symmetric
    function with t <= 8, plus the wall time the LP sweep took."""
    start = time.perf_counter()
    results = []
    for t in range(1, 9):
        for spec in all_symmetric_specs(t):
            f = make_symmetric(spec)
            lp_degree, _ = sign_degree(f)
            phd = pure_high_degree(fourier_transform(f))
            results.append((spec, lp_degree, phd))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_c01_fourier_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for t in range(1, 11):
        for _ in range(500):
            f = random_table(t, rng)
            spec = fourier_transform(f)
            worst = max(worst, abs(float(np.sum(spec.values**2)) - 1.0))
            assert inverse_fourier(spec).table == f.table
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    report("C01 fourier", f"5000 functions, parseval residual {worst:.2e}, {elapsed:.1f}s")


def test_c02_sign_degree_agreement(symmetric_family):
    results, elapsed = symmetric_family
    for spec, lp_degree, _ in results:
        assert lp_degree == sign_changes(spec), spec
    assert elapsed < 120.0
    report(
        "C02 sign-degree",
        f"{len(results)} symmetric functions t<=8, LP == sign changes, {elapsed:.1f}s",
    )


def test_c03_phdeg_le_sdeg(symmetric_family):
    results, _ = symmetric_family
    for spec, lp_degree, phd in results:
        assert phd <= lp_degree, spec
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(200):
        t = int(rng.integers(1, 7))
        f = random_table(t, rng)
        d, _ = sign_degree(f)
        assert pure_high_degree(fourier_transform(f)) <= d
        checked += 1
    report("C03 phdeg<=sdeg", f"{len(results)} symmetric + {checked} random functions")


def test_c04_classical_protocol_majority3():
    start = time.perf_counter()
    f = majority(3)
    params = PartitionParams(300, 3, Fraction(1, 2))
    epsilon = 0.1
    trials = 2000
    _, summary = run_protocol_trials(
        "classical", f, "majority:3", params, trials=trials, seed=404, epsilon=epsilon
    )
    elapsed = time.perf_counter() - start
    threshold = (1 - 2 * epsilon) - 3 * math.sqrt(0.2 * 0.8 / trials)
    assert summary.success_rate >= threshold
    poly = best_sign_polynomial(f, 1)
    assert summary.m == required_samples(3, Fraction(1, 2), poly.bias, epsilon)
    assert elapsed < 30.0
    report(
        "C04 classical",
        f"majority3 success {summary.success_rate:.4f} >= {threshold:.4f}, "
        f"m={summary.m}, {elapsed:.1f}s",
    )


def test_c05_quantum_protocol_parity2():
    start = time.perf_counter()
    params = PartitionParams(200, 2, Fraction(1, 2))
    epsilon = 0.1
    trials = 2000
    records, summary = run_protocol_trials(
        "quantum", parity(2), "parity:2", params, trials=trials, seed=505, epsilon=epsilon
    )
    elapsed = time.perf_counter() - start
    threshold = (1 - 2 * epsilon) - 3 * math.sqrt(0.2 * 0.8 / trials)
    assert summary.success_rate >= threshold
    per_copy = qubits_per_copy(params)
    assert per_copy == math.ceil(math.log2(300)) + 1
    assert all(r.cost_bits == summary.m * per_copy for r in records)
    assert elapsed < 30.0
    report(
        "C05 quantum",
        f"parity2 success {summary.success_rate:.4f} >= {threshold:.4f}, "
        f"qubits/copy={per_copy}, {elapsed:.1f}s",
    )


def test_c06_hadamard_closed_form_vs_statevector():
    rng = np.random.default_rng(606)
    worst = 0.0
    cases = 0
    for i in range(1000):
        t = 1 + i % 4
        a = block_multilinear_matrix(random_degree2_poly(t, rng))
        for r in range(2**t):
            z = tuple(-1 if (r >> k) & 1 else 1 for k in range(t))
            worst = max(worst, abs(hadamard_test_prob(a, z) - statevector_oracle(a, z)))
            cases += 1
    assert worst <= 1e-9
    report("C06 hadamard-test", f"{cases} (poly, z) cases, max |dprob| {worst:.2e}")


def test_c07_dilation_invariants():
    rng = np.random.default_rng(707)
    worst_orth = worst_block = 0.0
    for i in range(1000):
        if i % 10 == 9:
            # rank-deficient: one off-diagonal entry
            dim = int(rng.integers(2, 7))
            entries = np.zeros((dim, dim))
            entries[int(rng.integers(0, dim)), int(rng.integers(0, dim))] = float(
                rng.uniform(0.1, 1.0)
            )
            a = BlockMatrix.from_entries(entries)
            if a.spectral_norm == 0:
                continue
        else:
            t = 1 + i % 4
            a = block_multilinear_matrix(random_degree2_poly(t, rng))
        u = unitary_dilation(a).entries
        dim = a.dim
        worst_orth = max(worst_orth, float(np.abs(u.T @ u - np.eye(2 * dim)).max()))
        worst_block = max(
            worst_block,
            float(np.abs(u[:dim, :dim] - a.entries / a.spectral_norm).max()),
        )
    assert worst_orth <= 1e-10
    assert worst_block <= 1e-10
    report(
        "C07 dilation",
        f"1000 matrices, orthogonality {worst_orth:.2e}, block {worst_block:.2e}",
    )


def test_c08_reduction_family():
    start = time.perf_counter()
    n_small = 8
    rows = np.arange(2**n_small, dtype=np.int64)
    xs = 1 - 2 * ((rows[:, None] >> np.arange(n_small)) & 1)
    rng = stream(808, "sigmas")
    checked = nae_odd = 0
    for t in range(2, 7):
        for spec in all_symmetric_specs(t):
            if sign_changes(spec) < 2:
                continue
            try:
                gadget = find_gadget(spec)
            except NoGadgetError:
                th = spec.thresholds
                assert t % 2 == 1 and len(th) == 2 and th[1] - th[0] == t - 1
                report_obj = verify_reduction(spec, 4, 1, None)
                assert report_obj.status == "no-gadget"
                nae_odd += 1
                continue
            sigmas = [np.arange(1, n_small + 1, dtype=np.int64)]
            sigmas += [fisher_yates(n_small, rng) for _ in range(19)]
            for sigma in sigmas:
                assert (
                    blockwise_identity_counterexamples(spec, gadget, sigma, xs) is None
                ), (spec, gadget)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        "C08 reduction",
        f"{checked} specs t<=6 verified on 20 sigmas x 256 x, "
        f"{nae_odd} NAE-odd reported no-gadget, {elapsed:.1f}s",
    )


def test_c09_r_hat_formula_vs_bruteforce():
    params = PartitionParams(8, 2, Fraction(1))
    worst = 0.0
    cases = 0
    for name, f in (("parity", parity(2)), ("and", and_fn(2))):
        for case in range(50):
            rng = stream(909, name, case)
            ms = random_message_set(8, int(rng.integers(1, 257)), rng)
            sigma = tuple(int(v) for v in fisher_yates(8, rng))
            formula = r_hat_formula(f, ms, sigma, params)
            brute = r_hat_bruteforce(f, ms, sigma, params)
            for v_mask in range(1, 2**params.active_blocks):
                worst = max(worst, abs(formula[v_mask] - brute[v_mask]))
                if v_mask.bit_count() % 2 == 0:
                    assert formula[v_mask] == 0.0
                cases += 1
    assert worst <= 1e-10
    report("C09 r-hat", f"{cases} (f, A, sigma, V) cases, max discrepancy {worst:.2e}")


def test_c10_u_formula_vs_bruteforce():
    params = PartitionParams(8, 2, Fraction(1, 2))
    f = parity(2)
    worst = 0.0
    zero_outside = zero_even = nonzero = 0
    cases = []
    for case in range(100):
        rng = stream(1010, "u", case)
        sigma = tuple(int(v) for v in fisher_yates(8, rng))
        w = tuple(int(v) for v in 1 - 2 * rng.integers(0, 2, size=params.active_blocks))
        mask = int(rng.integers(0, 2**8))
        cases.append((sigma, w, mask))
    # engineered nonzero and zero cases on top of the random sweep
    rng = stream(1010, "u", "engineered")
    for _ in range(10):
        sigma = tuple(int(v) for v in fisher_yates(8, rng))
        bit = {image: 1 << i for i, image in enumerate(sigma)}  # position sigma^-1(image)
        w = tuple(int(v) for v in 1 - 2 * rng.integers(0, 2, size=2))
        cases.append((sigma, w, bit[1] | bit[2]))  # one full active block
        cases.append((sigma, w, bit[1] | bit[2] | bit[3] | bit[4]))
        cases.append((sigma, w, bit[5] | bit[6]))  # outside active prefix
    for sigma, w, mask in cases:
        formula = u_formula(f, sigma, w, mask, params)
        brute = u_bruteforce(f, sigma, w, mask, params)
        worst = max(worst, abs(formula - brute))
        image = {sigma[i] for i in range(8) if (mask >> i) & 1}
        if any(p > params.active_len for p in image):
            assert formula == 0.0
            zero_outside += 1
        elif formula != 0.0:
            nonzero += 1
        else:
            zero_even += 1
    assert worst <= 1e-12
    assert zero_outside and zero_even and nonzero
    report(
        "C10 u-correlation",
        f"{len(cases)} cases ({nonzero} nonzero, {zero_outside}+{zero_even} zero), "
        f"max discrepancy {worst:.2e}",
    )


def test_c11_kkl_inequality():
    violations = 0
    deltas = [round(0.1 * k, 1) for k in range(1, 10)]
    for case in range(100):
        rng = stream(1111, "kkl", case)
        n = int(rng.integers(4, 13))
        ms = random_message_set(n, int(rng.integers(1, 2**n + 1)), rng)
        violations += kkl_check(ms, deltas).violations
    assert violations == 0
    n = 10
    singleton = kkl_check(MessageSet(n, frozenset({77})), deltas)
    for delta, lhs, rhs in zip(singleton.deltas, singleton.lhs, singleton.rhs):
        assert abs(lhs - ((1 + delta) / 4) ** n) <= 1e-12
        assert abs(rhs - 2 ** (-2 * n / (1 + delta))) <= 1e-12
    cube = kkl_check(full_cube(n), deltas)
    assert all(abs(lhs - 1) <= 1e-12 and abs(rhs - 1) <= 1e-12
               for lhs, rhs in zip(cube.lhs, cube.rhs))
    report("C11 kkl", "100 random sets x 9 deltas, 0 violations; closed forms match")


def test_c12_uniform_protocol_dictator():
    f = dictator(4)
    params = PartitionParams(200, 4, Fraction(1, 2))
    trials = 2000
    _, summary = run_protocol_trials(
        "uniform", f, "dictator:4", params, trials=trials, seed=1212, sample_count=32
    )
    assert summary.success_rate >= 0.9
    report(
        "C12 uniform",
        f"dictator success {summary.success_rate:.4f} >= 0.9 "
        f"(hit prob >= 1 - e^-4, exact on hit)",
    )


def test_c13_tvd_trend():
    f = parity(2)
    params = PartitionParams(12, 2, Fraction(1))
    wins = 0
    for seed in range(20):
        rng = stream(1313, "trend", seed)
        small = random_message_set(12, 2**4, rng)
        large = random_message_set(12, 2**11, rng)
        small_mean = expected_tvd(f, small, params, 30, rng).mean
        large_mean = expected_tvd(f, large, params, 30, rng).mean
        wins += int(large_mean < small_mean)
    assert wins >= 19  # >= 95% of 20 seeds
    cube_est = expected_tvd(f, full_cube(12), params, 5, stream(1313, "cube"))
    assert cube_est.mean == 0.0
    report("C13 tvd-trend", f"large set smaller mean in {wins}/20 seeds; full cube exactly 0")
