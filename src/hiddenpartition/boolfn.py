"""Boolean functions on the {-1,+1} hypercube.

Truth-table representation, exact Walsh-Fourier spectra, symmetric
(weight-defined) constructions, the named standard functions, and the JSON
function-spec format.

Conventions used throughout the package:

  * Points of {-1,+1}^t are the rows of ``all_points(t)``, coordinates
    x_1..x_t; row ``r`` is the point with x_i = +1 when bit (i-1) of ``r``
    is 0 and x_i = -1 when it is 1, and table row ``r`` holds f there.
  * Hamming weight ``|x|`` counts the -1 coordinates.
  * Subsets S of [t] are bitmasks with bit (i-1) standing for element i,
    so the character chi_S at row r is (-1)^popcount(r & S).

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

MAX_ARITY = 16

NAMED_FUNCTIONS = ("parity", "and", "or", "majority", "nae", "dictator")


def all_points(t: int) -> np.ndarray:
    """(2^t, t) matrix whose row r is the point encoded by r."""
    rows = np.arange(2**t, dtype=np.int64)
    bits = (rows[:, None] >> np.arange(t)) & 1
    return 1 - 2 * bits


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis.

    Output index S receives sum_r values[r] * (-1)^popcount(r & S).  The
    transform is its own inverse up to a factor 2^t.  All arithmetic is
    exact in float64 for the magnitudes this package produces.
    """
    a = np.asarray(values, dtype=np.float64).copy()
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        shape = a.shape[:-1] + (n // (2 * h), 2, h)
        a = a.reshape(shape)
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape(a.shape[:-3] + (n,))
        h *= 2
    return a


@dataclass(frozen=True)
class BooleanFunction:
    """Total function {-1,+1}^t -> {-1,+1} stored as a truth table."""

    t: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.t <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {self.t}")
        if len(self.table) != 2**self.t:
            raise ValueError(
                f"table length {len(self.table)} != 2^{self.t}"
            )
        if any(v not in (-1, 1) for v in self.table):
            raise ValueError("table entries must be +-1")

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised lookup for an array of row indices."""
        return np.asarray(self.table, dtype=np.int64)[rows]

    @property
    def is_constant(self) -> bool:
        return len(set(self.table)) == 1


class FourierSpectrum:
    """Dense Fourier spectrum of a function on {-1,+1}^t.

    ``values[S]`` is the coefficient of chi_S, with S a subset bitmask.
    For a +-1-valued source these are exact integer multiples of 2^-t.
    """

    __slots__ = ("t", "values")

    def __init__(self, t: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (2**t,):
            raise ValueError("spectrum length must be 2^t")
        values.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FourierSpectrum is immutable")

    def coefficient(self, mask: int) -> float:
        return float(self.values[mask])

    def support(self) -> dict[int, float]:
        """Nonzero coefficients as {subset mask: value}."""
        return {int(m): float(v) for m, v in enumerate(self.values) if v != 0.0}


def fourier_transform(f: BooleanFunction) -> FourierSpectrum:
    """Exact spectrum: coeff[S] = 2^-t sum_x f(x) chi_S(x)."""
    table = np.asarray(f.table, dtype=np.float64)
    return FourierSpectrum(f.t, walsh_hadamard(table) / 2**f.t)


ZERO_COEFF_TOL = 1e-12  # true coefficients are multiples of 2^-t, t <= 16


def pure_high_degree(spec: FourierSpectrum) -> int:
    """Largest d such that every level below d vanishes.

    Equivalently the minimum |S| with a nonzero coefficient; 0 for
    constant functions (and any function with nonzero mean).
    """
    masks = np.arange(2**spec.t, dtype=np.uint64)
    nonzero = np.abs(spec.values) > ZERO_COEFF_TOL
    if not nonzero.any():
        return 0
    return int(np.bitwise_count(masks[nonzero]).min())


def fourier_l1(spec: FourierSpectrum) -> float:
    """Sum of absolute Fourier coefficients."""
    return float(np.abs(spec.values).sum())


def alpha_upper_bound(f: BooleanFunction) -> Optional[float]:
    """Partition-fraction bound min(1/2, (t/2d) * l1^(-2/d)) with d the
    pure high degree; None when d = 0 (the bound is vacuous there)."""
    spec = fourier_transform(f)
    d = pure_high_degree(spec)
    if d == 0:
        return None
    l1 = fourier_l1(spec)
    return min(0.5, (f.t / (2 * d)) * l1 ** (-2 / d))


# ---------------------------------------------------------------------------
# Symmetric functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricSpec:
    """Weight-interval description of a symmetric function.

    ``thresholds`` are the interior flip points theta_1 < ... < theta_s
    (each in [0, t-1]); the value is ``leading_sign`` for |x| <= theta_1
    and alternates after each threshold.  An empty sequence describes the
    constant function.
    """

    t: int
    thresholds: tuple[int, ...]
    leading_sign: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.t <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}]")
        if self.leading_sign not in (-1, 1):
            raise ValueError("leading_sign must be +-1")
        th = self.thresholds
        if any(int(v) != v for v in th):
            raise ValueError("thresholds must be integers")
        if any(not 0 <= v <= self.t - 1 for v in th):
            raise ValueError("thresholds must lie in [0, t-1]")
        if any(b - a < 1 for a, b in zip(th, th[1:])):
            raise ValueError("thresholds must be strictly increasing")


def sign_changes(spec: SymmetricSpec) -> int:
    """Number of sign flips of the weight profile (= len(thresholds)).

    Equals the LP sign-degree of ``make_symmetric(spec)``; used both as a
    fast path and as an independent cross-check oracle for the LP.
    """
    return len(spec.thresholds)


def weight_profile(spec: SymmetricSpec) -> tuple[int, ...]:
    """Function value at each Hamming weight 0..t."""
    th = np.asarray(spec.thresholds, dtype=np.int64)
    weights = np.arange(spec.t + 1)
    flips = np.searchsorted(th, weights, side="left")  # thresholds < w
    return tuple(int(v) for v in spec.leading_sign * (-1) ** flips)


def make_symmetric(spec: SymmetricSpec) -> BooleanFunction:
    profile = np.asarray(weight_profile(spec), dtype=np.int64)
    rows = np.arange(2**spec.t, dtype=np.uint64)
    w = np.bitwise_count(rows).astype(np.int64)
    return BooleanFunction(spec.t, tuple(int(v) for v in profile[w]))


def symmetric_spec_of(f: BooleanFunction) -> Optional[SymmetricSpec]:
    """Recover the weight-interval description, or None if f is not
    symmetric (value not determined by |x|)."""
    rows = np.arange(2**f.t, dtype=np.uint64)
    w = np.bitwise_count(rows).astype(np.int64)
    table = np.asarray(f.table, dtype=np.int64)
    profile = np.zeros(f.t + 1, dtype=np.int64)
    for weight in range(f.t + 1):
        vals = table[w == weight]
        if not np.all(vals == vals[0]):
            return None
        profile[weight] = vals[0]
    thresholds = tuple(
        int(k) for k in range(f.t) if profile[k + 1] != profile[k]
    )
    return SymmetricSpec(f.t, thresholds, int(profile[0]))


# ---------------------------------------------------------------------------
# Named functions
# ---------------------------------------------------------------------------


def parity(t: int) -> BooleanFunction:
    """f(x) = x_1 * ... * x_t."""
    rows = np.arange(2**t, dtype=np.uint64)
    table = 1 - 2 * (np.bitwise_count(rows).astype(np.int64) % 2)
    return BooleanFunction(t, tuple(int(v) for v in table))


def and_fn(t: int) -> BooleanFunction:
    """+1 iff every coordinate is +1."""
    return make_symmetric(SymmetricSpec(t, (0,), 1))


def or_fn(t: int) -> BooleanFunction:
    """-1 iff every coordinate is -1."""
    return make_symmetric(SymmetricSpec(t, (t - 1,), 1))


def majority(t: int) -> BooleanFunction:
    """Sign of the majority value; odd arity only."""
    if t % 2 == 0:
        raise ValueError("majority needs odd arity")
    return make_symmetric(SymmetricSpec(t, (t // 2,), 1))


def nae(t: int) -> BooleanFunction:
    """Not-all-equal: -1 on the two constant inputs and +1 elsewhere.  The
    literature uses both global signs; the sign is irrelevant to every
    quantity computed here."""
    if t < 2:
        raise ValueError("nae needs arity >= 2")
    return make_symmetric(SymmetricSpec(t, (0, t - 1), -1))


def dictator(t: int) -> BooleanFunction:
    """f(x) = x_1."""
    rows = np.arange(2**t, dtype=np.int64)
    table = 1 - 2 * (rows & 1)
    return BooleanFunction(t, tuple(int(v) for v in table))


def named_function(name: str, t: int) -> BooleanFunction:
    builders = {
        "parity": parity,
        "and": and_fn,
        "or": or_fn,
        "majority": majority,
        "nae": nae,
        "dictator": dictator,
    }
    if name not in builders:
        raise ValueError(f"unknown function name {name!r}; known: {NAMED_FUNCTIONS}")
    return builders[name](t)


# ---------------------------------------------------------------------------
# JSON function-spec format
# ---------------------------------------------------------------------------


def function_from_spec(spec: Mapping) -> BooleanFunction:
    """Build a function from the JSON-structured text form.

    Accepted shapes:
      {"kind": "truth_table", "t": T, "values": [+-1, ...]}
      {"kind": "symmetric", "t": T, "thresholds": [...], "leading_sign": +-1}
      {"kind": "named", "name": NAME, "t": T}
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"a function spec must be a JSON object, not {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "truth_table":
            return BooleanFunction(int(spec["t"]), tuple(int(v) for v in spec["values"]))
        if kind == "symmetric":
            return make_symmetric(
                SymmetricSpec(
                    int(spec["t"]),
                    tuple(int(v) for v in spec["thresholds"]),
                    int(spec.get("leading_sign", 1)),
                )
            )
        if kind == "named":
            return named_function(str(spec["name"]), int(spec["t"]))
    except KeyError as exc:
        raise ValueError(f"{kind} function spec is missing key {exc.args[0]!r}") from None
    raise ValueError(f"unknown function spec kind {kind!r}")
