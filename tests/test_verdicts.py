"""The three verdict rules, pinned on synthetic inputs: a change to a rule
shows here as a changed expectation."""

import itertools
import math

import pytest

from dilatest.verdicts import EXIT_CODE, FAIL, INCONCLUSIVE, PASS, trend, within, worst


@pytest.mark.parametrize("values", [
    [1.0, 2.0, 4.0],  # exact powers of two
    [0.5, 1.0, 2.0, 4.0],
    [3.0, 6.0, 12.0],
    [1.0, 2.5, 6.25],
    [7.0, 1.0, 2.0, 4.0],  # only the last three values count
])
def test_doubling_per_step_reads_fail(values):
    assert trend(values) == FAIL


def test_growth_just_under_two_is_not_fail():
    assert trend([1.0, 1.99, 1.99**2]) == INCONCLUSIVE
    assert trend([1.0, 4.0, 7.99]) == INCONCLUSIVE  # one step of 2x is not two


@pytest.mark.parametrize("values", [
    [1.0, 1.05, 1.09],
    [1.0, 1.0, 1.0],
    [1.0, 1.0, 0.95],
    [5.0, 100.0, 105.0],  # a plateau after a jump
    [2.0, 2.19],
])
def test_flat_within_ten_percent_reads_pass(values):
    assert trend(values) == PASS


def test_a_step_of_ten_percent_or_more_is_not_a_plateau():
    assert trend([1.0, 1.0, 1.1]) == INCONCLUSIVE
    assert trend([1.0, 0.5]) == INCONCLUSIVE


def test_falling_by_half_reads_inconclusive():
    assert trend([4.0, 2.0, 1.0]) == INCONCLUSIVE
    assert trend([8.0, 4.0, 2.0, 1.0]) == INCONCLUSIVE


@pytest.mark.parametrize("values", [[], [1.0], [math.inf]])
def test_fewer_than_two_values_read_inconclusive(values):
    assert trend(values) == INCONCLUSIVE


def test_a_zero_denominator_reads_the_1e300_floor():
    # growth 1e-290 / 1e-300 = 1e10 twice, with no ZeroDivisionError
    assert trend([0.0, 1e-290, 1e-280]) == FAIL
    # |1e-302 - 0| / 1e-300 = 0.01 < 0.1, and 0 / 1e-300 = 0 < 0.1
    assert trend([1.0, 0.0, 1e-302]) == PASS
    assert trend([1.0, 0.0, 0.0]) == PASS
    # |5e-301 - 0| / 1e-300 = 0.5
    assert trend([0.0, 0.0, 5e-301]) == INCONCLUSIVE


@pytest.mark.parametrize("value, hi, lo, verdict", [
    (1.0, 1.0, -math.inf, PASS),  # at the bound
    (1.0, 2.0, 1.0, PASS),  # at the lower end of a bracket
    (math.nextafter(1.0, 0.0), 2.0, 1.0, FAIL),
    (math.nextafter(1.0, 2.0), 1.0, -math.inf, FAIL),
    (math.nan, 1.0, -math.inf, FAIL),
    (math.nan, math.inf, -math.inf, FAIL),
    (math.inf, 1.0, -math.inf, FAIL),
    (math.inf, math.inf, -math.inf, PASS),
    (-math.inf, 1.0, -math.inf, PASS),
    (-math.inf, 1.0, 0.0, FAIL),
])
def test_within(value, hi, lo, verdict):
    assert within(value, hi, lo) == verdict


def test_within_reads_a_bound_when_lo_is_left_out():
    assert within(-1e308, 1.0) == PASS
    assert within(1.5, 1.0) == FAIL


_WORST_OF_PAIRS = {
    (PASS, PASS): PASS,
    (PASS, INCONCLUSIVE): INCONCLUSIVE,
    (PASS, FAIL): FAIL,
    (INCONCLUSIVE, PASS): INCONCLUSIVE,
    (INCONCLUSIVE, INCONCLUSIVE): INCONCLUSIVE,
    (INCONCLUSIVE, FAIL): FAIL,
    (FAIL, PASS): FAIL,
    (FAIL, INCONCLUSIVE): FAIL,
    (FAIL, FAIL): FAIL,
}


@pytest.mark.parametrize("pair", list(itertools.product((PASS, INCONCLUSIVE, FAIL), repeat=2)))
def test_worst_of_every_pair(pair):
    assert worst(pair) == _WORST_OF_PAIRS[pair]
    assert worst(iter(pair)) == _WORST_OF_PAIRS[pair]


def test_worst_of_none_is_pass():
    assert worst([]) == PASS


def test_a_verdict_outside_the_three_has_no_rank_and_no_exit_code():
    with pytest.raises(KeyError):
        worst([PASS, "OK"])
    assert EXIT_CODE == {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}
