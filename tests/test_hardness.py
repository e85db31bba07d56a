import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hiddenpartition import hardness
from hiddenpartition.boolfn import BooleanFunction, and_fn, majority, parity
from hiddenpartition.hardness import (
    MAX_MESSAGE_BITS,
    MessageSet,
    draw_message_set,
    expected_tvd,
    induced_distributions,
    kkl_check,
    r_hat_bruteforce,
    r_hat_formula,
    run_check,
    u_bruteforce,
    u_formula,
)
from hiddenpartition.instances import PartitionParams, promise_masks
from hiddenpartition.rng import fisher_yates, stream

from conftest import random_table
from oracles import induced_counts_by_points, promise_masks_by_points, row_of_point, u_by_points

PARAMS_4 = PartitionParams(4, 2, Fraction(1))
IDENTITY_4 = (1, 2, 3, 4)


def random_sigma(n, rng):
    return tuple(int(v) for v in fisher_yates(n, rng))


def balanced_table(t, rng):
    """Random truth table with as many +1 as -1 rows (zero mean)."""
    return BooleanFunction(t, rng.permutation(np.repeat([1, -1], 2 ** (t - 1))))


# --- message sets ------------------------------------------------------------


def test_message_set_validation():
    with pytest.raises(ValueError):
        MessageSet(3, frozenset())
    with pytest.raises(ValueError):
        MessageSet(3, frozenset({8}))


@pytest.mark.parametrize(
    "members",
    [frozenset({9, 2, 5}), [9, 2, 5, 2, 9], np.array([9, 5, 2], dtype=np.int32)],
    ids=["frozenset", "list-with-duplicates", "array"],
)
def test_message_set_members_are_a_sorted_read_only_int64_array(members):
    ms = MessageSet(4, members)
    assert ms.members.dtype == np.int64
    assert ms.members.tolist() == [2, 5, 9]
    assert not ms.members.flags.writeable
    assert len(ms) == 3
    if isinstance(members, np.ndarray):
        assert members.flags.writeable  # the caller's array is not frozen


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), kind=st.sampled_from(["list", "set", "array"]), data=st.data())
def test_message_set_members_equal_np_unique(n, kind, data):
    # unsorted, with duplicates, and at times empty or with one member out of range
    members = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=40))
    stray = data.draw(st.none() | st.sampled_from([-1, -2**40, 2**n]))
    if stray is not None:
        members.insert(data.draw(st.integers(0, len(members))), stray)
    given_members = {"list": members, "set": set(members),
                     "array": np.array(members, dtype=np.int64)}[kind]
    if stray is not None or not members:
        with pytest.raises(ValueError):
            MessageSet(n, given_members)
        return
    ms = MessageSet(n, given_members)
    assert ms.members.dtype == np.int64
    assert np.array_equal(ms.members, np.unique(np.array(members)))
    assert not ms.members.flags.writeable


def test_message_sets_over_the_cap_are_refused_before_drawing():
    n = MAX_MESSAGE_BITS + 1
    for size in (1, 2**n):  # a random set, and the full cube
        with pytest.raises(ValueError, match="message sets are capped at n <= 20"):
            draw_message_set(n, size, stream(0, "ms"))


def test_full_size_message_set_is_the_cube_and_draws_nothing():
    cube = draw_message_set(4, 2**4, _NoDraws())
    assert cube.members.tolist() == list(range(16))
    with pytest.raises(ValueError, match="size out of range"):
        draw_message_set(4, 2**4 + 1, _NoDraws())


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used over a cap")


def test_library_message_set_caps_refuse_n21_before_any_allocation(monkeypatch):
    # The CLI's hardness caps are all below MAX_MESSAGE_BITS, so only library
    # callers reach these refusals; none may allocate anything 2^n-sized first.
    n = MAX_MESSAGE_BITS + 1
    params = PartitionParams(n, 1, Fraction(1))
    cube_bytes = 8 * 2**n

    def no_masks(*args, **kwargs):
        raise AssertionError("promise masks computed over the cap")

    monkeypatch.setattr(hardness, "promise_masks", no_masks)
    refusals = {
        "draw_message_set-random": (lambda: draw_message_set(n, 1, _NoDraws()),
                                    "message sets are capped at n <= 20"),
        "draw_message_set-cube": (lambda: draw_message_set(n, 2**n, _NoDraws()),
                                  "message sets are capped at n <= 20"),
        "induced_distributions": (
            lambda: induced_distributions(parity(1), MessageSet(n, [0, 5]), range(1, n + 1),
                                          params),
            "exhaustive enumeration capped at n <= 20"),
    }
    for name, (call, message) in refusals.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube_bytes // 64, name


@pytest.mark.parametrize("check, n, t", [*((check, cap + 1, 1) for check, cap in
                                           hardness.CHECK_CAPS.items()), ("rhat", 10, 5)])
def test_each_routine_refuses_above_its_check_cap(monkeypatch, check, n, t):
    def no_masks(*args, **kwargs):
        raise AssertionError("promise masks computed over the cap")

    monkeypatch.setattr(hardness, "promise_masks", no_masks)
    f, params = parity(t), PartitionParams(n, t, Fraction(1))
    sigma, ms = range(1, n + 1), MessageSet(n, [0, 5])
    routine = {
        "tvd": lambda: expected_tvd(f, ms, params, 1, _NoDraws()),
        "rhat": lambda: r_hat_formula(f, ms, sigma, params),
        "u": lambda: u_bruteforce(f, sigma, [1] * params.active_blocks, 0, params),
        "kkl": lambda: kkl_check(ms, [0.5]),
    }[check]
    reason = f"{check} is capped at n <= {hardness.CHECK_CAPS[check]}"
    with pytest.raises(ValueError, match=f"^{reason}{', t <= 4' if check == 'rhat' else ''}$"):
        routine()


def test_characteristic_spectrum_parseval():
    # for a 0/1 indicator, sum of squared coefficients equals |A|/2^n
    rng = stream(0, "ms")
    for _ in range(20):
        n = 6
        ms = draw_message_set(n, int(rng.integers(1, 65)), rng)
        spectrum = ms.characteristic_spectrum()
        assert np.sum(spectrum**2) == pytest.approx(len(ms) / 2**n, abs=1e-12)


# --- induced distributions -----------------------------------------------------


def test_point_mass_for_singleton():
    x = (1, -1, 1, 1)
    ms = MessageSet(4, frozenset({row_of_point(x)}))
    counts = induced_distributions(parity(2), ms, IDENTITY_4, PARAMS_4)
    z_mask = 0b01  # z = (-1, +1)
    assert counts.tolist() == [0, 1, 0, 0]
    assert counts[z_mask] == 1
    assert counts[::-1][0b10] == 1  # the complement z = (+1, -1)
    assert np.abs(counts - counts[::-1]).sum() == 2 * len(ms)  # distance 2


def test_two_element_example():
    members = frozenset(
        {row_of_point((1, 1, 1, 1)), row_of_point((1, -1, 1, 1))}
    )
    counts = induced_distributions(parity(2), MessageSet(4, members), IDENTITY_4, PARAMS_4)
    assert counts.tolist() == [1, 1, 0, 0]
    assert np.abs(counts - counts[::-1]).sum() == 2 * 2  # disjoint supports: distance 2


def test_full_cube_distributions_coincide():
    cube = MessageSet(4, np.arange(2**4))
    counts = induced_distributions(parity(2), cube, IDENTITY_4, PARAMS_4)
    assert np.array_equal(counts, counts[::-1])
    assert np.abs(counts - counts[::-1]).sum() == 0


@given(st.integers(min_value=0, max_value=2**31))
def test_induced_counts_are_int64_and_sum_to_the_set_size(seed):
    rng = stream(seed, "c")
    params = PartitionParams(6, 2, Fraction(2, 3))
    ms = draw_message_set(6, int(rng.integers(1, 65)), rng)
    counts = induced_distributions(parity(2), ms, random_sigma(6, rng), params)
    assert counts.dtype == np.int64
    assert counts.shape == (2**params.active_blocks,)
    assert counts.sum() == len(ms)


@given(st.integers(min_value=0, max_value=2**31))
def test_complement_relation(seed):
    # |A| q_sigma counted from the negated promise string of every member
    rng = stream(seed, "c")
    params = PartitionParams(6, 2, Fraction(2, 3))
    f = random_table(2, rng)
    ms = draw_message_set(6, int(rng.integers(1, 65)), rng)
    sigma = random_sigma(6, rng)
    counts = induced_distributions(f, ms, sigma, params)
    full = 2**params.active_blocks - 1
    complements = full ^ promise_masks_by_points(f, ms, sigma, params)
    assert np.array_equal(np.bincount(complements, minlength=full + 1), counts[::-1])


@pytest.mark.parametrize(
    "n, t, alpha",
    [(6, 1, Fraction(1, 2)), (10, 2, Fraction(3, 5)), (12, 3, Fraction(3, 4)),
     (16, 4, Fraction(1, 2)), (8, 4, Fraction(1, 2))],
)
def test_packed_promise_masks_match_points_oracle(n, t, alpha):
    params = PartitionParams(n, t, alpha)
    for case in range(4):
        rng = stream(case, "packed", n, t)
        f = random_table(t, rng)
        ms = draw_message_set(n, int(rng.integers(1, min(2**n, 3000) + 1)), rng)
        sigma = fisher_yates(n, rng)
        masks = promise_masks(f, ms.members, sigma, params)
        assert masks.dtype == np.int64
        assert np.array_equal(masks, promise_masks_by_points(f, ms, sigma, params))
        counts = induced_distributions(f, ms, sigma, params)
        assert np.array_equal(counts, induced_counts_by_points(f, ms, sigma, params))


@st.composite
def _promise_cases(draw):
    t = draw(st.sampled_from([1, 2, 3, 5, 9]))
    blocks = draw(st.integers(1, MAX_MESSAGE_BITS // t))
    active = draw(st.integers(1, blocks))
    return t, blocks * t, Fraction(active, blocks), draw(st.integers(0, 2**31))


@settings(max_examples=60, deadline=None)
@given(_promise_cases())
@example((1, 20, Fraction(1, 2), 0))  # n at the cap, eight blocks per table
@example((5, 20, Fraction(3, 4), 1))  # n at the cap, one block per table
@example((3, 15, Fraction(2, 5), 2))  # two blocks per table, a partial byte of x
@example((9, 18, Fraction(1, 2), 3))  # t > 8: f's own table, one block at a time
@example((2, 14, Fraction(3, 7), 4))  # three active blocks: a partial group of four
def test_table_promise_masks_match_points_oracle(case):
    t, n, alpha, seed = case
    params = PartitionParams(n, t, alpha)
    rng = stream(seed, "tables", n, t)
    f = random_table(t, rng)
    ms = draw_message_set(n, int(rng.integers(1, min(2**n, 2000) + 1)), rng)
    sigma = fisher_yates(n, rng)
    masks = promise_masks(f, ms.members, sigma, params)
    assert masks.dtype == np.int64
    assert np.array_equal(masks, promise_masks_by_points(f, ms, sigma, params))


def test_promise_masks_check_the_arity():
    with pytest.raises(ValueError):
        promise_masks(parity(3), np.arange(16), IDENTITY_4, PARAMS_4)


def test_expected_tvd_endpoints():
    rng = stream(1, "tvd")
    est = expected_tvd(parity(2), MessageSet(4, np.arange(2**4)), PARAMS_4, 10, rng)
    assert est.mean == 0.0 and est.stderr == 0.0
    singleton = MessageSet(4, frozenset({3}))
    est = expected_tvd(parity(2), singleton, PARAMS_4, 10, rng)
    assert est.mean == 2.0 and est.stderr == 0.0
    for sigma_samples in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            expected_tvd(parity(2), singleton, PARAMS_4, sigma_samples, rng)


def test_expected_tvd_mean_is_the_exact_rational_rounded_once():
    # |A| = 1000 is not a power of two, so float per-sigma distances would
    # carry rounding into the mean (0.11840000000000002 here)
    f, params = majority(3), PartitionParams(12, 3, Fraction(1))
    replay = stream(1, "hardness", "tvd")  # the stream run_check draws from at seed 1
    message_set = draw_message_set(12, 1000, replay)
    total = 0
    for _ in range(40):
        counts = induced_counts_by_points(f, message_set, fisher_yates(12, replay), params)
        total += int(np.abs(counts - counts[::-1]).sum())
    exact = float(Fraction(total, 1000 * 40))

    rng = stream(1, "hardness", "tvd")
    estimate = expected_tvd(f, draw_message_set(12, 1000, rng), params, 40, rng)
    assert estimate.mean == exact == 0.1184
    record = run_check("tvd", f, params, cases=1, set_size=1000, sigmas=40, seed=1)
    assert record["mean"] == exact


def test_expected_tvd_trend_with_set_size():
    # larger message sets give smaller average distance
    params = PartitionParams(10, 2, Fraction(1))
    wins = 0
    for seed in range(10):
        rng = stream(seed, "trend")
        small = draw_message_set(10, 2**3, rng)
        large = draw_message_set(10, 2**8, rng)
        small_est = expected_tvd(parity(2), small, params, 20, rng)
        large_est = expected_tvd(parity(2), large, params, 20, rng)
        wins += int(large_est.mean < small_est.mean)
    assert wins >= 9


# --- r-hat -------------------------------------------------------------------


def test_r_hat_even_sets_are_zero():
    rng = stream(2, "rhat")
    ms = draw_message_set(4, 5, rng)
    formula = r_hat_formula(parity(2), ms, IDENTITY_4, PARAMS_4)
    assert formula[0b00] == 0.0
    assert formula[0b11] == 0.0
    assert r_hat_bruteforce(parity(2), ms, IDENTITY_4, PARAMS_4)[0b11] == pytest.approx(
        0.0, abs=1e-15
    )


def test_r_hat_half_cube_example():
    members = frozenset(m for m in range(16) if not (m & 1))  # x_1 = +1
    ms = MessageSet(4, members)
    formula = r_hat_formula(parity(2), ms, IDENTITY_4, PARAMS_4)
    brute = r_hat_bruteforce(parity(2), ms, IDENTITY_4, PARAMS_4)
    for v_mask in (0b01, 0b10):  # V = {1}, V = {2}
        assert abs(formula[v_mask] - brute[v_mask]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(["parity2", "and2", "balanced3"]))
@example(0, "balanced3")
def test_r_hat_formula_matches_bruteforce(seed, function):
    rng = stream(seed, "rh")
    if function == "balanced3":
        f, params = balanced_table(3, rng), PartitionParams(9, 3, Fraction(1))
    else:
        f = parity(2) if function == "parity2" else and_fn(2)
        params = PartitionParams(8, 2, Fraction(1))
    n = params.n
    ms = draw_message_set(n, int(rng.integers(1, 2**n + 1)), rng)
    sigma = random_sigma(n, rng)
    v_mask = int(rng.integers(1, 2**params.active_blocks))
    formula = r_hat_formula(f, ms, sigma, params)
    brute = r_hat_bruteforce(f, ms, sigma, params)
    assert abs(formula[v_mask] - brute[v_mask]) <= 1e-10
    assert np.array_equal(formula, brute)  # both are the correctly rounded rational


def test_r_hat_formula_cap():
    at_cap = PartitionParams(12, 4, Fraction(1))
    spectrum = r_hat_formula(parity(4), MessageSet(12, {0}), tuple(range(1, 13)), at_cap)
    assert spectrum.shape == (2**at_cap.active_blocks,)
    for n, t in ((14, 2), (10, 5)):
        with pytest.raises(ValueError, match="capped"):
            r_hat_formula(parity(t), MessageSet(n, {0}), tuple(range(1, n + 1)),
                          PartitionParams(n, t, Fraction(1)))


# --- u correlation --------------------------------------------------------------


def test_u_example_full_block():
    params = PARAMS_4
    w = (1, 1)
    value = u_bruteforce(parity(2), IDENTITY_4, w, 0b0011, params)
    expected = (1 / math.factorial(4)) / 4  # p_sigma / 2^2 * |f^({1,2})|
    assert value == pytest.approx(expected, abs=1e-15)
    assert u_formula(parity(2), IDENTITY_4, w, 0b0011, params) == pytest.approx(
        expected, abs=1e-15
    )


def test_u_zero_outside_active_prefix():
    params = PartitionParams(4, 2, Fraction(1, 2))
    # sigma sends position 1 to 3, outside the active prefix [2]
    sigma = (3, 1, 2, 4)
    assert u_formula(parity(2), sigma, (1,), 0b0001, params) == 0.0
    assert u_bruteforce(parity(2), sigma, (1,), 0b0001, params) == pytest.approx(0.0, abs=1e-18)


def test_u_zero_even_nonempty_blocks():
    params = PARAMS_4
    value = u_formula(parity(2), IDENTITY_4, (1, -1), 0b1111, params)
    assert value == 0.0
    brute = u_bruteforce(parity(2), IDENTITY_4, (1, -1), 0b1111, params)
    assert brute == pytest.approx(0.0, abs=1e-18)


def test_u_requires_balanced_function():
    with pytest.raises(ValueError):
        u_formula(and_fn(2), IDENTITY_4, (1, 1), 0b0001, PARAMS_4)


@pytest.mark.parametrize("s_mask", [2**4, -1])
def test_u_rejects_masks_outside_the_positions(s_mask):
    with pytest.raises(ValueError):
        u_formula(parity(2), IDENTITY_4, (1, 1), s_mask, PARAMS_4)
    with pytest.raises(ValueError):
        u_bruteforce(parity(2), IDENTITY_4, (1, 1), s_mask, PARAMS_4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(["parity2", "balanced3"]))
@example(0, "balanced3")
def test_u_formula_matches_bruteforce(seed, function):
    rng = stream(seed, "u")
    if function == "balanced3":
        f, params = balanced_table(3, rng), PartitionParams(9, 3, Fraction(2, 3))
    else:
        f, params = parity(2), PartitionParams(8, 2, Fraction(1, 2))
    n = params.n
    sigma = random_sigma(n, rng)
    w = tuple(int(v) for v in 1 - 2 * rng.integers(0, 2, size=params.active_blocks))
    mask = int(rng.integers(0, 2**n))
    formula = u_formula(f, sigma, w, mask, params)
    brute = u_bruteforce(f, sigma, w, mask, params)
    assert abs(formula - brute) <= 1e-12
    assert formula == brute  # both are the correctly rounded rational


def test_u_sign_matches_bruteforce_on_constructed_case():
    # engineer a nonzero case: sigma(S) = one full block inside the prefix
    params = PartitionParams(8, 2, Fraction(1, 2))
    rng = stream(9, "ucase")
    sigma = random_sigma(8, rng)
    inverse = {image: i + 1 for i, image in enumerate(sigma)}
    s_mask = (1 << (inverse[1] - 1)) | (1 << (inverse[2] - 1))  # sigma(S) = {1, 2} = block 1
    for w1 in (1, -1):
        w = (w1, 1)
        formula = u_formula(parity(2), sigma, w, s_mask, params)
        brute = u_bruteforce(parity(2), sigma, w, s_mask, params)
        assert formula == pytest.approx(brute, abs=1e-18)
        assert formula != 0.0


# --- spectral mass inequality ----------------------------------------------------


def test_kkl_full_cube_equality():
    report = kkl_check(MessageSet(6, np.arange(2**6)), [0.1, 0.5, 0.9])
    assert report.violations == 0
    for lhs, rhs in zip(report.lhs, report.rhs):
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)


def test_kkl_singleton_closed_form():
    n = 8
    report = kkl_check(MessageSet(n, frozenset({17})), [0.1 * k for k in range(1, 10)])
    assert report.violations == 0
    for delta, lhs, rhs in zip(report.deltas, report.lhs, report.rhs):
        assert lhs == pytest.approx(((1 + delta) / 4) ** n, abs=1e-12)
        assert rhs == pytest.approx(2 ** (-2 * n / (1 + delta)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_kkl_never_violated(seed):
    rng = stream(seed, "kkl")
    n = int(rng.integers(4, 11))
    ms = draw_message_set(n, int(rng.integers(1, 2**n + 1)), rng)
    report = kkl_check(ms, [0.1 * k for k in range(1, 10)])
    assert report.violations == 0


@pytest.mark.parametrize("n, t, alpha", [(8, 2, Fraction(1, 2)), (9, 3, Fraction(2, 3)), (12, 4, Fraction(1))])
def test_u_bruteforce_matches_points_oracle(n, t, alpha):
    # chi_S as the parity of the masked bit count, against the product of coordinates
    params = PartitionParams(n, t, alpha)
    for case in range(5):
        rng = stream(case, "u-oracle", n)
        f = random_table(t, rng)
        sigma = fisher_yates(n, rng)
        w = 1 - 2 * rng.integers(0, 2, size=params.active_blocks)
        mask = int(rng.integers(0, 2**n))
        assert u_bruteforce(f, sigma, w, mask, params) == u_by_points(f, sigma, w, mask, params)


# --- the hardness checks ----------------------------------------------------------


@pytest.mark.parametrize("f", [parity(2), majority(3)], ids=["parity2", "majority3"])
@pytest.mark.parametrize("check, closed_form, cases",
                         [("u", "u_formula", 200), ("rhat", "r_hat_formula", 3)])
def test_a_closed_form_one_percent_off_is_a_violation(monkeypatch, f, check, closed_form, cases):
    # |u| at n = 12 is about 1e-11: only an exact comparison sees a 1% error
    params = PartitionParams(12, f.t, Fraction(1))
    record = run_check(check, f, params, cases, None, 1, 3)
    assert record["violations"] == 0 and record["max_discrepancy"] == 0.0

    exact = getattr(hardness, closed_form)
    values = []

    def one_percent_off(*args):
        values.append(exact(*args))
        return 1.01 * values[-1]

    monkeypatch.setattr(hardness, closed_form, one_percent_off)
    record = run_check(check, f, params, cases, None, 1, 3)
    assert len(values) == cases
    nonzero = sum(int(np.count_nonzero(value)) for value in values)
    assert nonzero > 0
    assert record["violations"] == nonzero
    assert record["max_discrepancy"] > 0.0
