import math

import hypothesis
import numpy as np
import pytest

from hiddenpartition import boolfn
from hiddenpartition.signpoly import SignPolynomial, monomial_masks

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50
)
hypothesis.settings.load_profile("default")


def random_table(t: int, rng: np.random.Generator) -> boolfn.BooleanFunction:
    table = 1 - 2 * rng.integers(0, 2, size=2**t)
    return boolfn.BooleanFunction(t, tuple(int(v) for v in table))


def all_symmetric_specs(t: int):
    """Every threshold configuration and both leading signs at arity t."""
    for mask in range(2**t):
        thresholds = tuple(k for k in range(t) if (mask >> k) & 1)
        for sign in (1, -1):
            yield boolfn.SymmetricSpec(t, thresholds, sign)


def poly_from_terms(t: int, terms: dict[int, float], bias: float) -> SignPolynomial:
    """Hand-built polynomial with coefficient c on chi_S for each {S: c}."""
    coeffs = np.zeros(2**t)
    coeffs[list(terms)] = list(terms.values())
    return SignPolynomial(t, coeffs, bias)


def poly_value(p: SignPolynomial, x) -> float:
    """p(x) = sum_S c_S prod_{i in S} x_i at one point, term by term."""
    return sum(
        float(c) * math.prod(x[i] for i in range(p.t) if (mask >> i) & 1)
        for mask, c in enumerate(p.coeffs)
        if c
    )


def random_degree2_poly(t: int, rng: np.random.Generator) -> SignPolynomial:
    """Random multilinear polynomial of degree <= 2 with max |p(x)| = 1."""
    masks = monomial_masks(t, 2)
    coeffs = np.zeros(2**t)
    coeffs[masks] = rng.normal(size=len(masks))
    peak = float(np.abs(boolfn.walsh_hadamard(coeffs)).max())
    return SignPolynomial(t, coeffs / peak, 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
