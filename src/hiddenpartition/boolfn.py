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
from typing import Mapping, Optional, Sequence

import numpy as np

MAX_ARITY = 16
ARITIES = range(1, MAX_ARITY + 1)


def _check_int(name: str, value, allowed: Sequence[int]) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value not in allowed:
        raise ValueError(f"{name} {value!r} is not an integer in {allowed}")


def row_weights(t: int) -> np.ndarray:
    """Popcount of every row (or subset mask) 0..2^t - 1, as int64."""
    return np.bitwise_count(np.arange(2**t, dtype=np.uint64)).astype(np.int64)


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

    Constant geometry: each of the t passes writes the sums of adjacent
    pairs into the first half of a second buffer and their differences
    into the second half, then swaps the buffers.  Pass i so forms
    (bit i of the input index clear) +- (bit i set), the stride-2^i
    butterfly, and after t passes the index order is back.
    """
    a = np.array(values, dtype=np.float64, order="C")  # a fresh copy: the second pass writes it
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    out = np.empty_like(a)
    for _ in range(n.bit_length() - 1):
        np.add(a[..., 0::2], a[..., 1::2], out=out[..., : n // 2])
        np.subtract(a[..., 0::2], a[..., 1::2], out=out[..., n // 2 :])
        a, out = out, a
    return a


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """Total function {-1,+1}^t -> {-1,+1}; ``table[r]`` is f at row r, a
    read-only int64 copy of whatever sequence or array of +-1 it is given."""

    t: int
    table: np.ndarray

    def __post_init__(self) -> None:
        _check_int("arity", self.t, ARITIES)
        table = np.asarray(self.table)
        if table.shape != (2**self.t,) or table.dtype.kind not in "iuf" or np.any(abs(table) != 1):
            raise ValueError(f"a table at arity {self.t} must be 2^{self.t} numbers +-1")
        table = table.astype(np.int64)  # a copy, even of an int64 array
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.table, other.table)

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.table == self.table[0]))


def fourier_transform(f: BooleanFunction) -> np.ndarray:
    """Exact spectrum: coeff[S] = 2^-t sum_x f(x) chi_S(x) at index S, a
    subset bitmask, as a fresh read-only float64 array.  For a +-1 table
    these are exact integer multiples of 2^-t."""
    spectrum = walsh_hadamard(f.table) / 2**f.t
    spectrum.setflags(write=False)
    return spectrum


def support(spectrum: np.ndarray) -> dict[int, float]:
    """Nonzero coefficients as {subset mask: value}, in mask order."""
    return {int(m): float(spectrum[m]) for m in np.flatnonzero(spectrum)}


def pure_high_degree(spectrum: np.ndarray) -> int:
    """Largest d such that every level below d vanishes.

    Equivalently the minimum |S| with a nonzero coefficient; 0 for
    constant functions (and any function with nonzero mean).
    """
    nonzero = spectrum != 0.0
    if not nonzero.any():
        return 0
    return int(row_weights(spectrum.size.bit_length() - 1)[nonzero].min())


def fourier_l1(spectrum: np.ndarray) -> float:
    """Sum of absolute Fourier coefficients."""
    return float(np.abs(spectrum).sum())


def alpha_upper_bound(spectrum: np.ndarray) -> Optional[float]:
    """Partition-fraction bound min(1/2, (t/2d) * l1^(-2/d)) for the
    function with this spectrum, d its pure high degree; None when d = 0
    (the bound is vacuous there)."""
    d = pure_high_degree(spectrum)
    if d == 0:
        return None
    t = spectrum.size.bit_length() - 1
    return min(0.5, (t / (2 * d)) * fourier_l1(spectrum) ** (-2 / d))


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
        _check_int("arity", self.t, ARITIES)
        _check_int("leading_sign", self.leading_sign, (-1, 1))
        if not isinstance(self.thresholds, (tuple, list, np.ndarray)):
            raise ValueError(f"thresholds must be a list, got {self.thresholds!r}")
        for v in self.thresholds:
            _check_int("threshold", v, range(self.t))
        th = tuple(int(v) for v in self.thresholds)
        if any(b - a < 1 for a, b in zip(th, th[1:])):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", th)


def sign_changes(spec: SymmetricSpec) -> int:
    """Number of sign flips of the weight profile (= len(thresholds)).

    Equals the sign-degree of ``make_symmetric(spec)`` (Minsky-Papert);
    the tests check signpoly.sign_degree against it.
    """
    return len(spec.thresholds)


def weight_profile(spec: SymmetricSpec) -> np.ndarray:
    """Function value at each Hamming weight 0..t, as an int64 array."""
    flips = np.searchsorted(spec.thresholds, np.arange(spec.t + 1))  # thresholds < w
    return spec.leading_sign * (-1) ** flips


def make_symmetric(spec: SymmetricSpec) -> BooleanFunction:
    return BooleanFunction(spec.t, weight_profile(spec)[row_weights(spec.t)])


def symmetric_spec_of(f: BooleanFunction) -> Optional[SymmetricSpec]:
    """Recover the weight-interval description, or None if f is not
    symmetric (value not determined by |x|)."""
    return spec_of_profile(f.table, row_weights(f.t), f.t)


def spec_of_profile(table: np.ndarray, weights: np.ndarray, m: int) -> Optional[SymmetricSpec]:
    """The description of the g on m inputs with table[r] = g(weights[r])
    at every row r, where ``weights`` takes every value 0..m; None when no
    such g exists."""
    profile = np.empty(m + 1, dtype=np.int64)
    profile[weights] = table  # a g that exists writes one value per weight
    if not np.array_equal(profile[weights], table):
        return None
    return SymmetricSpec(m, np.flatnonzero(np.diff(profile)), int(profile[0]))


# ---------------------------------------------------------------------------
# Named functions
# ---------------------------------------------------------------------------


def parity(t: int) -> BooleanFunction:
    """f(x) = x_1 * ... * x_t."""
    return BooleanFunction(t, 1 - 2 * (row_weights(t) % 2))


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
    return BooleanFunction(t, 1 - 2 * (np.arange(2**t, dtype=np.int64) & 1))


_BUILDERS = {"parity": parity, "and": and_fn, "or": or_fn, "majority": majority, "nae": nae,
             "dictator": dictator}
NAMED_FUNCTIONS = tuple(_BUILDERS)


def named_function(name: str, t: int) -> BooleanFunction:
    if name not in _BUILDERS:
        raise ValueError(f"unknown function name {name!r}; known: {NAMED_FUNCTIONS}")
    _check_int("arity", t, ARITIES)
    return _BUILDERS[name](t)


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
            return BooleanFunction(spec["t"], spec["values"])
        if kind == "symmetric":
            return make_symmetric(
                SymmetricSpec(spec["t"], spec["thresholds"], spec.get("leading_sign", 1))
            )
        if kind == "named":
            return named_function(str(spec["name"]), spec["t"])
    except KeyError as exc:
        raise ValueError(f"{kind} function spec is missing key {exc.args[0]!r}") from None
    raise ValueError(f"unknown function spec kind {kind!r}")
