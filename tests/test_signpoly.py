import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hiddenpartition import boolfn, signpoly
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
    _dense_sign_degree,
    best_sign_polynomial,
    monomial_masks,
    sign_degree,
)

from conftest import all_symmetric_specs, poly_from_terms, poly_value, random_table


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
    # sign_degree; the dense degree search and the dense max-bias LP at
    # the same degree are its reference.
    for t in range(1, 7):
        for spec in all_symmetric_specs(t):
            f = make_symmetric(spec)
            d, p = sign_degree(f)
            assert d == _dense_sign_degree(f)[0], spec
            assert exhaustively_valid(f, p), spec
            best = best_sign_polynomial(f, d)
            assert abs(p.bias - best.bias) <= BIAS_AGREEMENT_TOL, spec


def relabelled(f: BooleanFunction, perm, flips: int, sign: int) -> BooleanFunction:
    """sign * f with coordinate i moved to perm[i], then the inputs in the
    bitmask ``flips`` negated."""
    rows = np.arange(2**f.t)
    source = np.zeros_like(rows)
    for i, j in enumerate(perm):
        source |= ((rows >> i) & 1) << j
    table = sign * np.asarray(f.table)[source ^ flips]
    return BooleanFunction(f.t, tuple(int(v) for v in table))


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
    # sign_degree must not consult the sign-change count it is checked against
    monkeypatch.setattr(boolfn, "sign_changes", must_not_run)
    f = make_symmetric(SymmetricSpec(t, thresholds, -1))
    d, p = sign_degree(f)
    assert d == len(thresholds)
    assert p.degree == d
    assert exhaustively_valid(f, p)


def test_dense_lp_over_the_byte_limit_is_refused_from_its_shape(monkeypatch):
    monkeypatch.setattr(signpoly, "_chi_matrix", must_not_run)
    monkeypatch.setattr(signpoly, "linprog", must_not_run)
    f = random_table(14, np.random.default_rng(14))
    assert boolfn.symmetric_spec_of(f) is None
    with pytest.raises(ValueError, match="MiB limit"):
        best_sign_polynomial(f, 14)


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
