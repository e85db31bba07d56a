import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hiddenpartition import boolfn, signpoly
from hiddenpartition.classical import protocol_witness
from hiddenpartition.cli import main
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
from oracles import dense_sign_degree, dense_witness, primal_max_bias


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
    assert best.coefficient(0b11) == pytest.approx(1.0, abs=1e-7)


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


def test_dual_lp_agrees_with_the_primal_oracle(monkeypatch):
    # sign_degree solved once with the package's dual LP and once with the
    # primal oracle in its place: every symmetric f with t <= 8 (the
    # reduced LP at the certified degree) and 40 seeded random tables per
    # t <= 6 (the dense sweep from phdeg)
    rng = np.random.default_rng(19)
    functions = [make_symmetric(spec) for t in range(1, 9) for spec in all_symmetric_specs(t)]
    functions += [random_table(t, rng) for t in range(1, 7) for _ in range(40)]
    dual = [sign_degree(f) for f in functions]
    monkeypatch.setattr(signpoly, "_max_bias_lp", primal_max_bias)
    for f, (d, p) in zip(functions, dual):
        primal_degree, primal = sign_degree(f)
        assert primal_degree == d, f.table
        assert abs(p.bias - primal.bias) <= FORMULATION_REL_TOL * primal.bias, f.table


def test_symmetric_witnesses_never_build_the_dense_lp(monkeypatch, capsys):
    # analyze, protocol_witness and the runs share the reduced witness of a
    # symmetric f; the dense LP is only for tables that are not symmetric
    monkeypatch.setattr(signpoly, "_chi_matrix", must_not_run)
    assert main(["analyze", "--named", "majority", "--t", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sign_degree"] == 1
    assert report["block_matrix_norm"] > 0
    f = majority(5)
    for degree in (1, 2):
        p = protocol_witness(f, degree)
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
    psi = signpoly._symmetric_dual(sym)
    signpoly._check_dual(f.table, psi, k)
    weights = boolfn.row_weights(sym.t)
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
        psi = signpoly._symmetric_dual(sym)
        signpoly._check_dual(make_symmetric(sym).table, psi, sign_changes(sym))
        largest = max(largest, int(np.abs(psi).sum()))
    assert largest < 2**30


def counting(monkeypatch, name):
    """Replace signpoly.<name> by a wrapper that records each call's args."""
    calls = []
    real = getattr(signpoly, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(signpoly, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "f",
    [majority(7), parity(9), make_symmetric(SymmetricSpec(8, (0, 2, 3, 6), -1))],
    ids=["majority7", "parity9", "t8-k4"],
)
def test_symmetric_sign_degree_solves_one_lp(monkeypatch, f):
    calls = counting(monkeypatch, "linprog")
    d, p = sign_degree(f)
    assert len(calls) == 1
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
    def below(fvals, basis, degree):
        raise BelowSignDegreeError(f"no degree-{degree} sign representation")

    monkeypatch.setattr(signpoly, "_max_bias_lp", below)
    with pytest.raises(LpSolverError, match="certified sign-degree 1"):
        sign_degree(majority(5))


def test_dense_lp_over_the_byte_limit_is_refused_from_its_shape(monkeypatch):
    monkeypatch.setattr(signpoly, "_chi_matrix", must_not_run)
    monkeypatch.setattr(signpoly, "linprog", must_not_run)
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
