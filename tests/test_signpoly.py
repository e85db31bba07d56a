import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from hiddenpartition.signpoly import (
    BelowSignDegreeError,
    SignPolynomial,
    _dense_sign_degree,
    best_sign_polynomial,
    monomial_masks,
    sign_degree,
)

from conftest import all_symmetric_specs, random_table


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
    witness = SignPolynomial(3, {0b001: 1 / 3, 0b010: 1 / 3, 0b100: 1 / 3}, 1, 1 / 3)
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
    assert p.evaluate((1, -1)) == -1.0


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
        assert p.evaluate(tuple(point)) == pytest.approx(values[r], abs=1e-12)
