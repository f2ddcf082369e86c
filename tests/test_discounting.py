"""Discounted-game thresholds, tail bounds, and infinite-play certification."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pennylab import (
    DiscountParams,
    broken_repeat,
    certify_discounted_eq,
    exact_value,
    generator_backed,
    min_rounds,
    passthrough,
    tail_gain,
    uniform_table,
)
from pennylab.oracle import best_response_value

deltas = st.fractions(min_value="1/100", max_value="99/100")


def test_tail_gain_examples():
    assert tail_gain(Fraction(1, 2), 2) == Fraction(1, 2)
    assert tail_gain(Fraction(1, 2), 0) == 2
    assert tail_gain(Fraction(9, 10), 44) < Fraction(1, 10)
    assert tail_gain(Fraction(9, 10), 43) > Fraction(1, 10)


def test_tail_gain_rejects_bad_delta():
    with pytest.raises(ValueError, match="invalid discount factor"):
        tail_gain(Fraction(3, 2), 4)
    with pytest.raises(ValueError, match="invalid discount factor"):
        tail_gain(0, 4)


def test_min_rounds_examples():
    assert min_rounds(DiscountParams.of("9/10", "1/10")) == 44
    # Boundary case: n=1 leaves tail gain exactly 1, so the threshold is 2.
    assert min_rounds(DiscountParams.of("1/2", "1")) == 2
    assert min_rounds(DiscountParams.of("1/10", "1/10")) == 2


def test_min_rounds_handles_generous_epsilon():
    # epsilon so large even n=0 undercuts it.
    assert min_rounds(DiscountParams.of("1/2", "3")) == 0


@given(deltas, st.integers(min_value=0, max_value=40))
def test_tail_gain_monotonicity(delta, n):
    assert tail_gain(delta, n + 1) < tail_gain(delta, n)
    if delta < Fraction(98, 100):
        bigger = delta + Fraction(1, 100)
        assert tail_gain(bigger, n) > tail_gain(delta, n)


@given(deltas, st.fractions(min_value="1/50", max_value="3"))
def test_threshold_characterization(delta, epsilon):
    p = DiscountParams(delta, epsilon)
    n = min_rounds(p)
    assert tail_gain(delta, n) < epsilon
    if n > 0:
        assert tail_gain(delta, n - 1) >= epsilon


def test_params_validation():
    with pytest.raises(ValueError, match="invalid discount factor"):
        DiscountParams.of("1", "1/10")
    with pytest.raises(ValueError, match="epsilon"):
        DiscountParams.of("1/2", "0")


def test_uniform_prefix_certifies_exactly_at_the_threshold():
    p = DiscountParams.of("9/10", "1/10")
    good = certify_discounted_eq(44, p)
    assert good.certified
    assert good.prefix_gap == 0
    assert good.epsilon_prime == tail_gain(p.delta, 44)
    bad = certify_discounted_eq(43, p)
    assert not bad.certified
    assert bad.epsilon_prime == tail_gain(p.delta, 43)


def test_uniform_prefix_gap_is_zero_even_when_measured():
    # At enumerable size, the closed-form 0 agrees with the discounted oracle.
    delta = Fraction(1, 2)
    spec = uniform_table(5)
    assert exact_value(spec, spec, 5, delta=delta) == 0
    assert best_response_value(spec, 5, delta=delta) == 0


def test_generator_prefix_certificate_hand_computed():
    # Repeat-stream prefix at n=4, delta=1/2: a deviator learns both seed bits
    # in two rounds, then wins rounds 3 and 4 for delta^3 + delta^4 = 3/16;
    # the profile value is 0, so each gap is 3/16 and the tail adds 1/8.
    p = DiscountParams.of("1/2", "1/2")
    cert = certify_discounted_eq(4, p, generator=broken_repeat(4))
    assert cert.prefix_gap == Fraction(3, 16)
    assert cert.tail == Fraction(1, 8)
    assert cert.epsilon_prime == Fraction(5, 16)
    assert cert.certified  # 5/16 <= 1/2
    tight = DiscountParams.of("1/2", "1/4")
    assert not certify_discounted_eq(4, tight, generator=broken_repeat(4)).certified


def test_passthrough_prefix_behaves_like_uniform():
    p = DiscountParams.of("1/2", "1/2")
    cert = certify_discounted_eq(4, p, generator=passthrough(4))
    assert cert.prefix_gap == 0
    assert cert.epsilon_prime == tail_gain(p.delta, 4)


def test_passthrough_discounted_value_is_zero_exactly():
    from pennylab import alternator, constant, predictor_backed
    from pennylab.game import Action

    player = generator_backed(passthrough(5))
    for s in (constant(Action.T), alternator(Action.H), predictor_backed("markov1")):
        assert exact_value(player, s, 5, delta=Fraction(1, 2)) == 0


def test_discounted_distinguisher_uses_weighted_rounds():
    from pennylab import payoff_to_distinguisher, predictor_backed

    s = predictor_backed("periodicity", beat=True)
    delta = Fraction(1, 2)
    round_idx, advantage = payoff_to_distinguisher(s, broken_repeat(6), 6, delta=delta)
    # |E[A_3]| = 1 discounted by delta**3, halved.
    assert (round_idx, advantage) == (3, Fraction(1, 16))


def test_certify_validates_inputs():
    p = DiscountParams.of("1/2", "1/2")
    with pytest.raises(ValueError, match="uniform prefix"):
        certify_discounted_eq(4, p, seed_len=2)
    with pytest.raises(ValueError, match="horizon"):
        certify_discounted_eq(0, p)
    with pytest.raises(ValueError, match="stream too short"):
        certify_discounted_eq(6, p, generator=broken_repeat(4))
