import numpy as np
import pytest
from hypothesis import given, strategies as st

from hiddenpartition.boolfn import (
    BooleanFunction,
    SymmetricSpec,
    all_points,
    alpha_upper_bound,
    and_fn,
    dictator,
    fourier_l1,
    fourier_transform,
    function_from_spec,
    majority,
    make_symmetric,
    nae,
    named_function,
    or_fn,
    parity,
    pure_high_degree,
    sign_changes,
    support,
    symmetric_spec_of,
    walsh_hadamard,
    weight_profile,
)

from oracles import (
    hamming_weight, inverse_fourier, negate, point_of_row, row_of_point, stacked_walsh_hadamard,
)

tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda t: st.tuples(
        st.just(t),
        st.lists(st.sampled_from((-1, 1)), min_size=2**t, max_size=2**t),
    )
)


def fn(t, table):
    return BooleanFunction(t, table)


# --- representation -------------------------------------------------------


def test_row_encoding_round_trip():
    for t in (1, 3, 5):
        for r in range(2**t):
            assert row_of_point(point_of_row(t, r)) == r


def test_row_encoding_convention():
    # bit 0 of the row drives x_1, with bit value 0 meaning +1
    assert point_of_row(3, 0) == (1, 1, 1)
    assert point_of_row(3, 1) == (-1, 1, 1)
    assert point_of_row(3, 6) == (1, -1, -1)


def test_evaluate_parity():
    f = parity(2)
    assert f.table[row_of_point((1, 1))] == 1
    assert f.table[row_of_point((1, -1))] == -1


def test_evaluate_nae_all_minus():
    f = nae(3)
    assert f.table[row_of_point((-1, -1, -1))] == -1
    assert f.table[row_of_point((1, 1, 1))] == -1
    assert f.table[row_of_point((1, -1, 1))] == 1


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, (1, 1, 1))
    with pytest.raises(ValueError):
        BooleanFunction(2, (1, 1, 0, 1))
    with pytest.raises(ValueError):
        BooleanFunction(17, tuple([1] * 2**17))


@pytest.mark.parametrize("kind", ["table", "spectrum"])
def test_stored_arrays_are_read_only_copies(kind):
    source = np.array([1, -1, -1, 1])
    f = BooleanFunction(2, source)
    if kind == "table":
        assert f.table is not source
        assert not f.table.flags.writeable
        assert source.flags.writeable
        source[0] = 5
        assert f.table[0] != 5
        assert f == BooleanFunction(2, f.table.copy())
        assert f != BooleanFunction(2, -f.table)
    else:
        # a new float64 array per transform, read-only, sharing memory with
        # neither the table nor an earlier spectrum
        spectrum, again = fourier_transform(f), fourier_transform(f)
        assert spectrum.dtype == np.float64 and spectrum.shape == (4,)
        assert not spectrum.flags.writeable
        assert not np.shares_memory(spectrum, f.table)
        assert again is not spectrum and not np.shares_memory(again, spectrum)
        assert np.array_equal(again, spectrum)


def test_all_points_matches_rows():
    pts = all_points(3)
    for r in range(8):
        assert tuple(pts[r]) == point_of_row(3, r)


# --- Fourier ---------------------------------------------------------------


def test_parity_spectrum_single_character():
    spec = fourier_transform(parity(2))
    assert support(spec) == {0b11: 1.0}


def test_constant_spectrum():
    f = BooleanFunction(3, tuple([1] * 8))
    spec = fourier_transform(f)
    assert support(spec) == {0: 1.0}
    assert fourier_l1(spec) == 1.0


def test_majority3_spectrum():
    # expected values frozen from the brute-force sum over all 8 points
    f = majority(3)
    spec = fourier_transform(f)
    assert support(spec) == {0b001: 0.5, 0b010: 0.5, 0b100: 0.5, 0b111: -0.5}
    assert list(support(spec)) == [0b001, 0b010, 0b100, 0b111]  # mask order
    for mask in (0b001, 0b010, 0b100, 0b111):
        assert spec[mask] == brute_force_coefficient(f, mask)


def brute_force_coefficient(f: BooleanFunction, mask: int) -> float:
    total = 0.0
    for r in range(2**f.t):
        x = point_of_row(f.t, r)
        chi = 1
        for i in range(f.t):
            if (mask >> i) & 1:
                chi *= x[i]
        total += f.table[r] * chi
    return total / 2**f.t


@given(tables)
def test_fourier_matches_brute_force(args):
    # exact, not approximate: 2^t c is an even integer (a sum of 2^t terms
    # +-1), so a zero coefficient is exactly 0.0 and a nonzero one is >= 2^(1-t)
    t, table = args
    f = fn(t, table)
    spec = fourier_transform(f)
    scaled = spec * 2**t
    assert np.array_equal(scaled, np.rint(scaled)) and not np.any(scaled % 2)
    for mask in range(2**t):
        assert spec[mask] == brute_force_coefficient(f, mask)


@given(tables)
def test_parseval(args):
    t, table = args
    spec = fourier_transform(fn(t, table))
    assert abs(np.sum(spec**2) - 1.0) <= 1e-12


@given(tables)
def test_round_trip_exact(args):
    t, table = args
    f = fn(t, table)
    assert np.array_equal(inverse_fourier(fourier_transform(f)).table, f.table)


@given(tables)
def test_coefficients_are_dyadic(args):
    t, table = args
    spec = fourier_transform(fn(t, table))
    scaled = spec * 2**t
    assert np.array_equal(scaled, np.rint(scaled))


@given(st.integers(0, 11), st.integers(1, 3), st.booleans(), st.integers(0, 2**31))
def test_walsh_hadamard_in_place_matches_stacked_bit_for_bit(k, rows, fortran, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, 2**k)) * 10.0 ** rng.integers(-8, 9, size=(rows, 2**k))
    # rows of -1, +-0 and +1 cancel exactly, so zeros of both signs reach the output
    signed = np.copysign(rng.integers(-1, 2, size=values.shape), rng.standard_normal(values.shape))
    values = np.where(rng.random((rows, 1)) < 0.5, signed, values)
    if fortran:
        values = np.asfortranarray(values)
    before = values.copy()
    result = walsh_hadamard(values)
    # bytes, not values: array_equal takes -0.0 for 0.0, and LAPACK's sign
    # choices downstream read that bit
    assert result.tobytes() == stacked_walsh_hadamard(before).tobytes()
    assert np.array_equal(walsh_hadamard(values[0]), result[0])
    assert np.array_equal(values, before)  # the input is not transformed in place


def test_pure_high_degree_examples():
    assert pure_high_degree(fourier_transform(parity(5))) == 5
    assert pure_high_degree(fourier_transform(majority(3))) == 1
    # NAE3 is unbalanced: the empty coefficient is +-1/2, so the minimum
    # level carrying mass is 0 even though level 1 vanishes by symmetry.
    nae_spec = fourier_transform(nae(3))
    assert nae_spec[0] == 0.5
    assert all(nae_spec[1 << i] == 0.0 for i in range(3))
    assert pure_high_degree(nae_spec) == 0


def test_pure_high_degree_constant_is_zero():
    assert pure_high_degree(fourier_transform(BooleanFunction(2, (1, 1, 1, 1)))) == 0


def test_fourier_l1_examples():
    assert fourier_l1(fourier_transform(parity(2))) == 1.0
    assert fourier_l1(fourier_transform(majority(3))) == pytest.approx(2.0, abs=1e-12)


def test_alpha_upper_bound():
    # parity2: d=2, l1=1 -> min(1/2, (2/4)*1) = 1/2
    assert alpha_upper_bound(fourier_transform(parity(2))) == pytest.approx(0.5)
    # maj3: d=1, l1=2 -> min(1/2, (3/2)*2^-2) = 0.375
    assert alpha_upper_bound(fourier_transform(majority(3))) == pytest.approx(0.375)
    assert alpha_upper_bound(fourier_transform(nae(3))) is None  # phdeg 0, bound vacuous


# --- symmetric functions ---------------------------------------------------


def test_make_symmetric_parity2():
    f = make_symmetric(SymmetricSpec(2, (0, 1), 1))
    assert np.array_equal(f.table, parity(2).table)


def test_make_symmetric_nae3():
    f = make_symmetric(SymmetricSpec(3, (0, 2), -1))
    assert np.array_equal(f.table, nae(3).table)


def test_make_symmetric_interval_read():
    f = make_symmetric(SymmetricSpec(4, (1, 3), 1))
    for r in range(16):
        w = hamming_weight(point_of_row(4, r))
        expected = 1 if w <= 1 else (-1 if w <= 3 else 1)
        assert f.table[r] == expected


def test_weight_profile_alternates():
    spec = SymmetricSpec(5, (0, 2, 4), 1)
    assert np.array_equal(weight_profile(spec), (1, -1, -1, 1, 1, -1))


def test_sign_changes():
    assert sign_changes(SymmetricSpec(2, (0, 1), 1)) == 2
    assert sign_changes(SymmetricSpec(4, (1, 3), 1)) == 2
    assert sign_changes(SymmetricSpec(3, (1,), 1)) == 1
    assert sign_changes(SymmetricSpec(3, (), 1)) == 0


def test_symmetric_spec_validation():
    with pytest.raises(ValueError):
        SymmetricSpec(3, (0, 0), 1)
    with pytest.raises(ValueError):
        SymmetricSpec(3, (3,), 1)
    with pytest.raises(ValueError):
        SymmetricSpec(3, (0,), 2)


def test_symmetric_spec_of_round_trip():
    for t in range(1, 6):
        for mask in range(2**t):
            thresholds = tuple(k for k in range(t) if (mask >> k) & 1)
            for sign in (1, -1):
                spec = SymmetricSpec(t, thresholds, sign)
                recovered = symmetric_spec_of(make_symmetric(spec))
                assert recovered == spec


@given(tables)
def test_symmetric_spec_of_matches_weight_classes(args):
    # reference: collect the values each Hamming weight takes, row by row
    t, table = args
    values_at = {}
    for r, v in enumerate(table):
        values_at.setdefault(hamming_weight(point_of_row(t, r)), set()).add(v)
    spec = symmetric_spec_of(fn(t, table))
    if any(len(values) > 1 for values in values_at.values()):
        assert spec is None
    else:
        assert make_symmetric(spec) == fn(t, table)


def test_symmetric_spec_of_rejects_asymmetric():
    assert symmetric_spec_of(dictator(2)) is None


# --- named functions and the JSON function format ---------------------------


def test_named_functions():
    assert np.array_equal(named_function("parity", 3).table, parity(3).table)
    assert and_fn(2).table[row_of_point((1, 1))] == 1
    assert and_fn(2).table[row_of_point((1, -1))] == -1
    assert or_fn(2).table[row_of_point((-1, -1))] == -1
    assert or_fn(2).table[row_of_point((1, -1))] == 1
    assert dictator(4).table[row_of_point((-1, 1, 1, 1))] == -1
    with pytest.raises(ValueError):
        majority(4)
    with pytest.raises(ValueError):
        named_function("xor", 2)


def test_nae_both_conventions():
    f_flipped = make_symmetric(SymmetricSpec(3, (0, 2), 1))
    assert np.array_equal(f_flipped.table, negate(nae(3)).table)


def test_function_from_spec():
    f = function_from_spec({"kind": "truth_table", "t": 2, "values": [1, -1, -1, 1]})
    assert np.array_equal(f.table, parity(2).table)
    g = function_from_spec(
        {"kind": "symmetric", "t": 3, "thresholds": [0, 2], "leading_sign": -1}
    )
    assert np.array_equal(g.table, nae(3).table)
    h = function_from_spec({"kind": "named", "name": "majority", "t": 3})
    assert np.array_equal(h.table, majority(3).table)
    with pytest.raises(ValueError):
        function_from_spec({"kind": "mystery"})
