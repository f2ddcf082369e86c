"""Stage payoffs, transcript aggregation, and serialization."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab.game import Action, as_fraction, round_value

from support import (
    cumulative_payoff,
    discounted_payoff,
    format_transcript,
    parse_transcript,
    round_weights,
    stage_payoff,
)

H, T = Action.H, Action.T

transcripts = st.lists(
    st.tuples(st.sampled_from([H, T]), st.sampled_from([H, T])), max_size=12
).map(tuple)


def test_stage_payoff_matrix():
    assert stage_payoff(H, H) == 1
    assert stage_payoff(H, T) == -1
    assert stage_payoff(T, H) == -1
    assert stage_payoff(T, T) == 1


def test_flip_is_an_involution():
    assert H.flip() is T
    assert T.flip() is H
    assert H.flip().flip() is H


def test_cumulative_examples():
    assert cumulative_payoff(((H, H), (T, T))) == 2
    assert cumulative_payoff(((H, T), (T, H))) == -2
    assert cumulative_payoff(((H, H), (H, T), (T, T))) == 1


def test_discounted_examples():
    assert discounted_payoff(((H, H),), Fraction(1, 2)) == Fraction(1, 2)
    assert discounted_payoff(((H, T), (H, H)), Fraction(1, 2)) == Fraction(-1, 4)
    assert discounted_payoff(((H, H), (H, H)), Fraction(9, 10)) == Fraction(171, 100)


@pytest.mark.parametrize("delta", [0, 1, Fraction(3, 2), Fraction(-1, 2)])
def test_discounted_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="invalid discount factor"):
        discounted_payoff(((H, H),), delta)


@given(transcripts)
def test_zero_sum_and_antisymmetry(t):
    p2 = sum(-stage_payoff(a, b) for a, b in t)
    assert cumulative_payoff(t) + p2 == 0
    for a, b in t:
        assert stage_payoff(a, b) == -stage_payoff(a, b.flip())


@given(transcripts, transcripts)
def test_cumulative_is_linear_under_concatenation(t1, t2):
    assert cumulative_payoff(t1 + t2) == cumulative_payoff(t1) + cumulative_payoff(t2)


@given(st.integers(min_value=1, max_value=30), st.fractions(min_value="1/100", max_value="99/100"))
def test_all_wins_discounted_closed_form(n, delta):
    t = ((H, H),) * n
    assert discounted_payoff(t, delta) == (delta - delta ** (n + 1)) / (1 - delta)


# A delta whose terms have 200 digits each.
WIDE_DELTA = Fraction(10**199 + 1, 10**199 + 3)
DELTAS = [None, Fraction(1, 2), Fraction(9, 10), Fraction(999, 1000), Fraction(12345, 98765), WIDE_DELTA]


@settings(deadline=None)
@given(st.sampled_from(DELTAS), st.integers(min_value=1, max_value=10**6), st.data())
def test_round_value_matches_the_weighted_sum(delta, den, data):
    # Round t pays values[t - 1] / den, and past the list the cycle's pays over
    # and over; the cycle [den], every later round paying 1, is always checked.
    # Each addition of the reference sum takes a gcd the size of the sum so
    # far, so its cost is cubic in the horizon: the wide delta draws lists of
    # at most 40 rounds.
    d = data.draw(st.integers(0, 40 if delta == WIDE_DELTA else 300), label="d")
    values = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d), label="values")
    n = max(d + data.draw(st.integers(0, 50), label="extra"), 1)
    c = data.draw(st.integers(0 if n == d else 1, 3), label="c")
    drawn = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=c, max_size=c), label="cycle")
    for cycle in (drawn, [den]):
        pays = [Fraction(v, den) for v in values + [cycle[j % len(cycle)] for j in range(n - d)]]
        if delta is None:
            expected = sum(pays, Fraction(0)) / n
        else:
            expected = sum((w * e for w, e in zip(round_weights(delta, n)[1:], pays)), Fraction(0))
        assert round_value(values, den, n, delta, cycle) == expected, cycle


def test_cumulative_parity_matches_horizon():
    for t in (((H, H),), ((H, T), (T, T)), ((H, H), (H, T), (T, H))):
        assert (cumulative_payoff(t) - len(t)) % 2 == 0


def test_transcript_round_trip():
    text = "HH,HT,TT"
    t = parse_transcript(text)
    assert t == ((H, H), (H, T), (T, T))
    assert format_transcript(t) == text
    assert parse_transcript("") == ()


@pytest.mark.parametrize("bad", ["HX", "H", "HHH", "HH,,TT"])
def test_transcript_rejects_malformed_rounds(bad):
    with pytest.raises(ValueError, match="malformed transcript"):
        parse_transcript(bad)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter has no int digit limit")
def test_a_rational_may_not_outgrow_the_int_digit_limit():
    assert as_fraction(f"1e-{_DIGIT_LIMIT - 1}") == Fraction(1, 10 ** (_DIGIT_LIMIT - 1))
    assert as_fraction(f"10e-{_DIGIT_LIMIT}") == Fraction(1, 10 ** (_DIGIT_LIMIT - 1))
    for spelling in (f"1e-{_DIGIT_LIMIT}", f"1e{_DIGIT_LIMIT}", "0." + "0" * (_DIGIT_LIMIT - 1) + "1", "1e99999999"):
        with pytest.raises(ValueError, match="int limit"):
            as_fraction(spelling)


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter has no int digit limit")
def test_an_int_or_a_fraction_is_measured_by_its_terms():
    # Neither may be printed in the error: a number past the limit cannot be.
    assert as_fraction(10**_DIGIT_LIMIT - 1) == 10**_DIGIT_LIMIT - 1
    for number in (10**_DIGIT_LIMIT, Fraction(1, 10**_DIGIT_LIMIT), Fraction(10**_DIGIT_LIMIT, 3)):
        with pytest.raises(ValueError, match="outgrows"):
            as_fraction(number)
