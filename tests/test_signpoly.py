import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hiddenpartition import boolfn, exactlp, signpoly
from hiddenpartition.cli import main
from hiddenpartition.experiments import run_protocol_trials
from hiddenpartition.instances import PartitionParams
from hiddenpartition.boolfn import (
    BooleanFunction,
    SymmetricSpec,
    all_points,
    dictator,
    fourier_transform,
    majority,
    make_symmetric,
    parity,
    pure_high_degree,
    sign_changes,
    walsh_hadamard,
    weight_profile,
)
from hiddenpartition.signpoly import (
    BelowSignDegreeError,
    LpSolverError,
    SignPolynomial,
    best_sign_polynomial,
    monomial_masks,
    sign_degree,
)

from conftest import all_symmetric_specs, poly_from_terms, poly_value, random_table
from oracles import dense_sign_degree, dense_witness, primal_max_bias, reduced_primal_witness


def must_not_run(*args, **kwargs):
    raise AssertionError("called where it must not be")


def exhaustively_valid(f: BooleanFunction, p: SignPolynomial) -> bool:
    values = p.evaluate_all()
    if np.abs(values).max() > 1 + 1e-9:
        return False
    return bool(np.all(np.asarray(f.table) * values > 0))


def test_monomial_masks():
    assert monomial_masks(3, 1) == [0b000, 0b001, 0b010, 0b100]
    assert len(monomial_masks(4, 4)) == 16


def test_sign_polynomial_stores_a_read_only_copy_of_every_coefficient():
    coeffs = np.zeros(8)
    coeffs[[0, 0b011, 0b101]] = [0.5, -0.0, 1e-13]
    p = SignPolynomial(3, coeffs, 0.1)
    assert p.coeffs[0b101] == 1e-13 and p.degree == 2
    assert not np.signbit(p.coeffs[0b011])  # a signed zero is stored as 0.0
    assert not p.coeffs.flags.writeable
    assert coeffs.flags.writeable  # the caller's array is neither frozen
    assert not np.shares_memory(p.coeffs, coeffs)  # nor aliased
    coeffs[0] = 9.0
    assert p.coeffs[0] == 0.5


def test_dictator_degree_one():
    d, p = sign_degree(dictator(3))
    assert d == 1
    assert p.bias > 0
    assert exhaustively_valid(dictator(3), p)


def test_parity2_degree_two():
    d, p = sign_degree(parity(2))
    assert d == 2
    assert p.bias > 0
    assert exhaustively_valid(parity(2), p)
    best = best_sign_polynomial(parity(2), 2)
    assert best.bias == pytest.approx(1.0, abs=1e-7)
    assert best.coeffs[0b11] == pytest.approx(1.0, abs=1e-7)


def test_majority3_degree_one():
    d, p = sign_degree(majority(3))
    assert d == 1


def test_majority3_best_bias_at_degree_one():
    p = best_sign_polynomial(majority(3), 1)
    assert p.bias == pytest.approx(1 / 3, abs=1e-7)
    assert exhaustively_valid(majority(3), p)
    # the symmetric witness (x1+x2+x3)/3 achieves the same value
    witness = poly_from_terms(3, {0b001: 1 / 3, 0b010: 1 / 3, 0b100: 1 / 3}, 1 / 3)
    margins = np.asarray(majority(3).table) * witness.evaluate_all()
    assert margins.min() == pytest.approx(p.bias, abs=1e-9)


def test_best_bias_trivial_witnesses():
    p = best_sign_polynomial(parity(2), 2)
    assert p.bias == pytest.approx(1.0, abs=1e-7)
    p = best_sign_polynomial(dictator(2), 1)
    assert p.bias == pytest.approx(1.0, abs=1e-7)


def test_below_degree_raises():
    with pytest.raises(BelowSignDegreeError):
        best_sign_polynomial(parity(2), 1)
    with pytest.raises(BelowSignDegreeError):
        best_sign_polynomial(parity(3), 2)


def test_constant_function_degree_zero():
    f = BooleanFunction(2, (-1, -1, -1, -1))
    d, p = sign_degree(f)
    assert d == 0
    assert p.bias == 1.0
    assert poly_value(p, (1, -1)) == -1.0


def test_sign_degree_symmetric_small():
    # LP against the sign-change oracle on every symmetric function, t <= 5
    for t in range(1, 6):
        for spec in all_symmetric_specs(t):
            f = make_symmetric(spec)
            d, p = sign_degree(f)
            assert d == sign_changes(spec), spec
            if not f.is_constant:
                assert exhaustively_valid(f, p), spec


BIAS_AGREEMENT_TOL = 1e-9


def test_reduced_sign_degree_matches_dense_search():
    # Every symmetric f with t <= 6 takes the reduced Hamming-weight LP in
    # best_sign_polynomial; the dense degree search and the dense max-bias
    # LP are its reference, at the sign-degree and at each protocol budget
    # (1 classical, 2 quantum, capped at t) that it can meet.
    for t in range(1, 7):
        for spec in all_symmetric_specs(t):
            f = make_symmetric(spec)
            d, p = sign_degree(f)
            assert d == dense_sign_degree(f)[0], spec
            for degree in sorted({d} | {min(b, t) for b in (1, 2) if b >= d}):
                reduced = p if degree == d else best_sign_polynomial(f, degree)
                assert reduced.degree <= degree, (spec, degree)
                assert exhaustively_valid(f, reduced), (spec, degree)
                dense = dense_witness(f, degree)
                assert abs(reduced.bias - dense.bias) <= BIAS_AGREEMENT_TOL, (spec, degree)


FORMULATION_REL_TOL = 1e-9


def test_exact_symmetric_lp_agrees_with_the_primal_oracle():
    # every symmetric f with t <= 8: the exact LP's degree and bias against
    # the HiGHS primal LP over the same weights, feasible at the degree and
    # infeasible one below it, where the exact optimum is exactly 0
    for t in range(1, 9):
        for sym in all_symmetric_specs(t):
            f = make_symmetric(sym)
            d, p = sign_degree(f)
            oracle = reduced_primal_witness(f, sym, d)
            assert abs(p.bias - oracle.bias) <= FORMULATION_REL_TOL * oracle.bias, sym
            if d > 0:
                with pytest.raises(BelowSignDegreeError):
                    reduced_primal_witness(f, sym, d - 1)
                assert signpoly._reduced_lp(sym, d - 1).value == 0


def test_dual_lp_agrees_with_the_primal_oracle(monkeypatch):
    # sign_degree solved once with the package's dual LP and once with the
    # primal oracle in its place, on 40 seeded random tables per t <= 6
    # (the dense sweep from phdeg; a table that is a signed-symmetric junta
    # takes the exact LP both times)
    rng = np.random.default_rng(19)
    functions = [random_table(t, rng) for t in range(1, 7) for _ in range(40)]
    dual = [sign_degree(f) for f in functions]
    monkeypatch.setattr(signpoly, "_max_bias_lp", primal_max_bias)
    for f, (d, p) in zip(functions, dual):
        primal_degree, primal = sign_degree(f)
        assert primal_degree == d, f.table
        assert abs(p.bias - primal.bias) <= FORMULATION_REL_TOL * primal.bias, f.table


def test_symmetric_witnesses_never_build_the_dense_lp(monkeypatch, capsys):
    # analyze and the runs share the reduced witness of a symmetric f; the
    # dense LP is only for tables that are not symmetric
    monkeypatch.setattr(signpoly, "_chi_matrix", must_not_run)
    assert main(["analyze", "--named", "majority", "--t", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sign_degree"] == 1
    assert report["block_matrix_norm"] > 0
    f = majority(5)
    for degree in (1, 2):
        p = best_sign_polynomial(f, degree)
        assert p.degree <= degree
        assert exhaustively_valid(f, p)


def relabelled(f: BooleanFunction, perm, flips: int, sign: int) -> BooleanFunction:
    """sign * f with coordinate i moved to perm[i], then the inputs in the
    bitmask ``flips`` negated."""
    rows = np.arange(2**f.t)
    source = np.zeros_like(rows)
    for i, j in enumerate(perm):
        source |= ((rows >> i) & 1) << j
    return BooleanFunction(f.t, sign * f.table[source ^ flips])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_sign_degree_invariant_under_cube_symmetries(t, seed):
    # the dense degree search on non-symmetric f; an image may be symmetric
    rng = np.random.default_rng(seed)
    f = random_table(t, rng)
    assume(boolfn.symmetric_spec_of(f) is None)
    d, p = sign_degree(f)
    images = {
        "permuted coordinates": relabelled(f, rng.permutation(t), 0, 1),
        "negated f": relabelled(f, range(t), 0, -1),
        "negated inputs": relabelled(f, range(t), int(rng.integers(1, 2**t)), 1),
    }
    for name, g in images.items():
        dg, pg = sign_degree(g)
        assert dg == d, name
        assert abs(pg.bias - p.bias) <= BIAS_AGREEMENT_TOL, name


def padded(f: BooleanFunction, extra: int) -> BooleanFunction:
    """f on t + extra inputs, constant in the last ``extra``."""
    rows = np.arange(2 ** (f.t + extra))
    return BooleanFunction(f.t + extra, f.table[rows & (2**f.t - 1)])


def junta(t: int, sym: SymmetricSpec, used, negated: int) -> BooleanFunction:
    """g(|x_U xor a|) on t inputs: g = make_symmetric(sym), U the inputs in
    ``used`` and a the bitmask ``negated``, as the benchmark builds its
    truth tables."""
    rows = np.arange(2**t)
    weights = sum(((rows ^ negated) >> i) & 1 for i in used)
    return BooleanFunction(t, weight_profile(sym)[weights])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2**31))
def test_signed_juntas_keep_the_degree_and_bias_of_their_symmetric_core(t, extra, seed):
    # a random symmetric table, padded with irrelevant inputs, its inputs
    # permuted and some negated, keeps its degree and bias, and takes the
    # exact path
    rng = np.random.default_rng(seed)
    thresholds = sorted(rng.choice(t, int(rng.integers(0, t + 1)), replace=False))
    g = make_symmetric(SymmetricSpec(t, thresholds, int(rng.choice((-1, 1)))))
    d, p = sign_degree(g)
    n = t + extra
    f = relabelled(padded(g, extra), rng.permutation(n), int(rng.integers(0, 2**n)), 1)
    assert signpoly._reduce(f) is not None
    df, pf = sign_degree(f)
    assert df == d
    assert abs(pf.bias - p.bias) <= 1e-12 * p.bias


# The analyze tables of the benchmark's protocol-and-lab workload, seeds
# 1101-1103: (t, the symmetric g, its inputs U, the negated bitmask a), and
# the exact optimum at the sign-degree 3
BENCHMARK_JUNTAS = [
    (7, SymmetricSpec(6, (0, 2, 3), -1), (1, 2, 0, 5, 4, 6), 77, Fraction(1, 35)),
    (9, SymmetricSpec(8, (0, 3, 5), -1), (3, 1, 0, 6, 2, 8, 5, 4), 281, Fraction(9, 199)),
    (7, SymmetricSpec(6, (0, 2, 5), 1), (4, 5, 1, 0, 3, 2), 4, Fraction(5, 13)),
    (9, SymmetricSpec(8, (4, 5, 6), -1), (3, 6, 8, 0, 4, 2, 7, 5), 276, Fraction(1, 209)),
    (7, SymmetricSpec(6, (0, 3, 4), -1), (2, 3, 5, 1, 6, 0), 45, Fraction(5, 51)),
    (9, SymmetricSpec(8, (0, 3, 6), 1), (0, 3, 5, 2, 7, 8, 6, 4), 446, Fraction(7, 57)),
]


@pytest.mark.parametrize("t, sym, used, negated, beta", BENCHMARK_JUNTAS)
def test_benchmark_juntas_take_the_exact_path(monkeypatch, t, sym, used, negated, beta):
    import scipy.optimize

    monkeypatch.setattr(signpoly, "_chi_matrix", must_not_run)
    monkeypatch.setattr(scipy.optimize, "linprog", must_not_run)
    f = junta(t, sym, used, negated)
    assert boolfn.symmetric_spec_of(f) is None
    d, p = sign_degree(f)
    assert d == 3 == p.degree
    assert exhaustively_valid(f, p)
    assert abs(p.bias - beta) <= 1e-12 * beta
    optimum = signpoly._reduced_lp(sym, 3)
    assert Fraction(optimum.value, optimum.den) == beta


def test_junta_witnesses_match_the_dense_oracle(rng):
    # random signed-symmetric juntas with t <= 6, at the sign-degree and at
    # the protocol budgets 1 and 2, against the dense primal LP
    for t in range(2, 7):
        for _ in range(6):
            m = int(rng.integers(1, t + 1))
            sym = SymmetricSpec(m, sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False)))
            f = junta(t, sym, rng.permutation(t)[:m], int(rng.integers(0, 2**t)))
            d, p = sign_degree(f)
            assert (d, signpoly._reduce(f) is None) == (dense_sign_degree(f)[0], False)
            for degree in sorted({d} | {b for b in (1, 2) if b >= d}):
                reduced = p if degree == d else best_sign_polynomial(f, degree)
                assert exhaustively_valid(f, reduced)
                dense = dense_witness(f, degree)
                assert abs(reduced.bias - dense.bias) <= FORMULATION_REL_TOL * dense.bias


def test_only_signed_symmetric_juntas_reduce():
    x = all_points(5)
    block = BooleanFunction(5, x[:, 0] * x[:, 1] * np.sign(x[:, 2:].sum(axis=1)))
    # swapping x1 and x2 fixes it, swapping x1 and x3 does not
    assert signpoly._reduce(block) is None
    assert signpoly._reduce(random_table(16, np.random.default_rng(16))) is None
    reduction = signpoly._reduce(dictator(4))
    assert (reduction.sym, reduction.relevant, reduction.negated) == \
        (SymmetricSpec(1, (0,), 1), 0b0001, 0)


def test_certificate_refuses_a_margin_below_the_rounding_bound():
    # p = x_1 + a x_2 sign-represents the dictator x_1 for every a < 1; at
    # a = 1 - 2^-52 its float64 margins are positive but under the bound
    fvals = np.asarray(dictator(2).table, dtype=np.float64)
    a = 1 - 2.0**-52
    coeff = np.array([0.0, 1.0, a, 0.0])
    assert (fvals * walsh_hadamard(coeff)).min() > 0
    with pytest.raises(LpSolverError, match="rounding bound"):
        signpoly._certified(fvals, coeff)
    p = signpoly._certified(fvals, np.array([0.0, 1.0, 0.5, 0.0]))
    assert p.bias == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize(
    "t, thresholds",
    [
        (12, (5,)),
        (12, (0, 11)),
        (12, (2, 3, 7, 10)),
        (12, tuple(range(12))),
        (16, (7,)),
        (16, (0, 15)),
        (16, (1, 4, 8, 9, 13)),
        (16, tuple(range(7))),  # clustered flips: bias ~1e-6 at the sign-degree
        (16, tuple(range(16))),
    ],
)
def test_sign_degree_at_max_arity(monkeypatch, t, thresholds):
    # sign_degree proves its degree on both sides; it does not take it
    # from the sign-change count it is checked against
    monkeypatch.setattr(boolfn, "sign_changes", must_not_run)
    f = make_symmetric(SymmetricSpec(t, thresholds, -1))
    d, p = sign_degree(f)
    assert d == len(thresholds)
    assert p.degree == d
    assert exhaustively_valid(f, p)


DUAL_CASES = {
    "majority3": SymmetricSpec(3, (1,), 1),
    "nae6": SymmetricSpec(6, (0, 5), -1),
    "parity4": SymmetricSpec(4, (0, 1, 2, 3), 1),
    "t10-k4": SymmetricSpec(10, (1, 4, 5, 8), -1),
    "t12-k4": SymmetricSpec(12, (2, 3, 7, 10), 1),
}


@pytest.mark.parametrize("sym", DUAL_CASES.values(), ids=DUAL_CASES.keys())
def test_dual_certificate_refuses_a_mutated_psi(sym):
    f = make_symmetric(sym)
    k = sign_changes(sym)
    weights = boolfn.row_weights(sym.t)
    psi = signpoly._symmetric_dual(sym)[weights]
    signpoly._check_dual(f.table, psi, k)
    row = int(np.flatnonzero(psi)[-1])
    dropped = np.where(weights == weights[row], 0, psi)  # one node's weight
    flipped = psi.copy()
    flipped[row] = -psi[row]
    perturbed = psi.copy()
    perturbed[row] += f.table[row]  # keeps its sign, so only the transform can catch it
    for mutant, reason in ((dropped, "orthogonal"), (flipped, "sign"), (perturbed, "orthogonal")):
        with pytest.raises(LpSolverError, match=reason):
            signpoly._check_dual(f.table, mutant, k)
    # the certificate proves sdeg >= k and no more
    with pytest.raises(LpSolverError, match="orthogonal"):
        signpoly._check_dual(f.table, psi, k + 1)
    # a multiple of a valid psi is refused once its transform could round
    scaled = psi * (2**53 // int(np.abs(psi).sum()) + 1)
    with pytest.raises(LpSolverError, match="2\\^53"):
        signpoly._check_dual(f.table, scaled, k)


def test_dual_certificate_stays_inside_the_exactness_bound():
    # every symmetric f with t <= 10 (largest sum |psi| 82,530), parity(16)
    # (65,536) and 100 random profiles at t = 16 (193,803,456 < 2^28); over
    # all 2^17 symmetric f at t = 16 the largest is 758,557,800 < 2^30
    rng = np.random.default_rng(16)
    random16 = [
        SymmetricSpec(16, sorted(rng.choice(16, int(rng.integers(0, 17)), replace=False)),
                      int(rng.choice((-1, 1))))
        for _ in range(100)
    ]
    cases = [s for t in range(1, 11) for s in all_symmetric_specs(t)]
    cases += [SymmetricSpec(16, tuple(range(16)), 1), *random16]
    largest = 0
    for sym in cases:
        psi = signpoly._symmetric_dual(sym)[boolfn.row_weights(sym.t)]
        signpoly._check_dual(make_symmetric(sym).table, psi, sign_changes(sym))
        largest = max(largest, int(np.abs(psi).sum()))
    assert largest < 2**30


def counting(monkeypatch, name, module=signpoly):
    """Replace module.<name> by a wrapper that records each call's args."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "f",
    [majority(7), parity(9), make_symmetric(SymmetricSpec(8, (0, 2, 3, 6), -1))],
    ids=["majority7", "parity9", "t8-k4"],
)
def test_symmetric_sign_degree_solves_one_lp(monkeypatch, f):
    import scipy.optimize

    solves = counting(monkeypatch, "minimise", exactlp)
    highs = counting(monkeypatch, "linprog", scipy.optimize)
    d, p = sign_degree(f)
    assert (len(solves), len(highs)) == (1, 0)
    assert d == sign_changes(boolfn.symmetric_spec_of(f)) == p.degree


def test_dense_sign_degree_solves_nothing_below_phdeg(monkeypatch):
    # x1 x2 maj(x3, x4, x5) is not symmetric and has phdeg 3
    x = all_points(5)
    f = BooleanFunction(5, x[:, 0] * x[:, 1] * np.sign(x[:, 2:].sum(axis=1)))
    assert boolfn.symmetric_spec_of(f) is None
    phdeg = pure_high_degree(fourier_transform(f))
    assert phdeg == 3
    calls = counting(monkeypatch, "_max_bias_lp")
    d, p = sign_degree(f)
    assert min(degree for _, _, degree in calls) == phdeg
    assert p.bias == signpoly._dense_witness(f, d).bias
    reference_degree, reference = dense_sign_degree(f)
    assert d == reference_degree
    assert abs(p.bias - reference.bias) <= FORMULATION_REL_TOL * reference.bias


def test_psi_equal_to_f_certifies_exactly_up_to_phdeg(rng):
    for t in range(1, 8):
        f = random_table(t, rng)
        phdeg = pure_high_degree(fourier_transform(f))
        signpoly._check_dual(f.table, f.table, phdeg)
        with pytest.raises(LpSolverError, match="orthogonal"):
            signpoly._check_dual(f.table, f.table, phdeg + 1)


def test_symmetric_lp_failing_at_the_certified_degree_is_a_solver_error(monkeypatch):
    def zero_bias(a, b, c):
        return exactlp.Optimum(1, 0, (0,) * len(b))

    monkeypatch.setattr(exactlp, "minimise", zero_bias)
    with pytest.raises(LpSolverError, match="certified sign-degree 1"):
        sign_degree(majority(5))


def test_reduced_guard_is_refused_from_its_certificate_with_no_lp(monkeypatch):
    monkeypatch.setattr(exactlp, "minimise", must_not_run)
    monkeypatch.setattr(signpoly, "_max_bias_lp", must_not_run)
    with pytest.raises(BelowSignDegreeError, match=r"sdeg\(f\) = 3 > 2"):
        best_sign_polynomial(parity(3), 2)
    params = PartitionParams(16, 2, Fraction(1, 2))
    with pytest.raises(BelowSignDegreeError, match=r"sdeg\(f\) = 2 > 1"):
        run_protocol_trials("classical", parity(2), "parity:2", params, 4, 0, epsilon=0.1)


def test_the_lifted_dual_is_checked_only_where_a_lower_bound_rests_on_it(monkeypatch):
    # a witness at d >= k stands on its own certification; only sign_degree's
    # lower side and a refusal at d < k read psi
    checks = counting(monkeypatch, "_check_dual")
    best_sign_polynomial(majority(5), 1)
    assert len(checks) == 0
    sign_degree(majority(5))
    assert len(checks) == 1
    monkeypatch.setattr(exactlp, "minimise", must_not_run)
    monkeypatch.setattr(signpoly, "_max_bias_lp", must_not_run)
    with pytest.raises(BelowSignDegreeError):
        best_sign_polynomial(parity(3), 2)
    assert len(checks) == 2


def test_dense_guard_solves_exactly_one_lp(monkeypatch):
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    f = random_table(8, np.random.default_rng(8))
    assert signpoly._reduce(f) is None
    params = PartitionParams(16, 8, 1)
    with pytest.raises(BelowSignDegreeError, match=r"sdeg\(f\) > 1"):
        run_protocol_trials("classical", f, "table", params, 4, 0, epsilon=0.1)
    assert len(calls) == 1


def test_dense_lp_over_the_byte_limit_is_refused_from_its_shape(monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(signpoly, "_chi_matrix", must_not_run)
    monkeypatch.setattr(scipy.optimize, "linprog", must_not_run)
    f = random_table(14, np.random.default_rng(14))
    assert boolfn.symmetric_spec_of(f) is None
    with pytest.raises(ValueError, match="MiB limit"):
        best_sign_polynomial(f, 14)


def test_dense_lp_size_limit_boundary():
    # the least refused degree per arity; every degree at t <= 11 is admitted
    least_refused = {12: 7, 13: 5, 14: 4, 15: 3, 16: 3}
    for t in range(1, 17):
        refused = []
        for degree in range(t + 1):
            try:
                signpoly._check_dense_lp_size(t, degree, len(monomial_masks(t, degree)))
            except ValueError:
                refused.append(degree)
        first = least_refused.get(t, t + 1)
        assert refused == list(range(first, t + 1)), t


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_phdeg_at_most_sdeg(t, seed):
    f = random_table(t, np.random.default_rng(seed))
    d, _ = sign_degree(f)
    assert pure_high_degree(fourier_transform(f)) <= d


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_full_degree_bias_floor(t, seed):
    # any f represents itself at degree t with bias 1 >= 2^(1-t)
    f = random_table(t, np.random.default_rng(seed))
    p = best_sign_polynomial(f, t)
    assert p.bias >= 2 ** (1 - t) - 1e-9
    assert exhaustively_valid(f, p)


def test_evaluate_matches_evaluate_all():
    p = best_sign_polynomial(majority(3), 1)
    values = p.evaluate_all()
    for r, point in enumerate(all_points(3)):
        assert poly_value(p, tuple(point)) == pytest.approx(values[r], abs=1e-12)
