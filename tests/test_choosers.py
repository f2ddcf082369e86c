"""Stepping choosers: each against the prefix function or per-round reference player it stands in for along a walk."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab import (
    Action,
    broken_counter,
    constant,
    eval_next_bit_predictor,
    exploiter_vs,
    play_match,
    predictor_accuracy,
    predictor_backed,
    register_predictor,
    simulate,
    uniform_table,
)
from pennylab.oracle import round_payoffs
from pennylab.prng import PREDICTORS, predictor_chooser
from pennylab.strategies import horizon, parse_strategy

from support import (
    PREDICTOR_NAMES,
    adaptive_population,
    reference_accuracy,
    reference_play_rows,
    reference_prediction_hits,
    reference_round_payoffs,
    reference_simulate,
)
from test_words import specs

bits = st.integers(0, 1)


@st.composite
def prefixes(draw):
    """A bit prefix: uniform bits, or a short pattern repeated with the odd flip, so periods hold for a while."""
    if draw(st.booleans()):
        return draw(st.lists(bits, max_size=40))
    pattern = draw(st.lists(bits, min_size=1, max_size=5))
    prefix = (pattern * 40)[: draw(st.integers(0, 40))]
    for j in draw(st.lists(st.integers(0, 39), max_size=2)):
        if j < len(prefix):
            prefix[j] ^= 1
    return prefix


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PREDICTOR_NAMES), prefixes())
def test_each_builtin_chooser_folds_to_its_prefix_function(name, prefix):
    fn = PREDICTORS[name]
    init, guess, step = predictor_chooser(fn)
    state = init
    for j, bit in enumerate(prefix):
        assert guess(state) == fn(tuple(prefix[:j]))
        state = step(state, bit)
    assert guess(state) == fn(tuple(prefix))


def test_a_registered_predictor_steps_its_prefix(monkeypatch):
    calls = []

    def parity(prefix):
        calls.append(prefix)
        return sum(prefix) & 1

    monkeypatch.setitem(PREDICTORS, "parity", None)  # teardown removes the registration
    register_predictor("parity", parity)
    chooser = predictor_chooser(parity)
    assert chooser.init == () and chooser.guess is parity
    g = broken_counter(3, 6)
    hits = reference_prediction_hits(g, "parity")
    assert eval_next_bit_predictor(g, "parity").per_position == tuple(Fraction(h, 8) - Fraction(1, 2) for h in hits)
    assert calls and all(type(prefix) is tuple for prefix in calls)
    assert predictor_accuracy("parity", uniform_table(3), 7) == reference_accuracy("parity", uniform_table(3), 7)
    player = predictor_backed("parity", beat=True)
    assert round_payoffs(uniform_table(3), player, 7) == reference_round_payoffs(uniform_table(3), player, 7)
    # A built-in name registered to another function takes that function.
    monkeypatch.setitem(PREDICTORS, "markov1", parity)
    assert round_payoffs(predictor_backed("markov1"), uniform_table(3), 7) == reference_round_payoffs(
        predictor_backed("parity"), uniform_table(3), 7
    )
    # A guess of 2 is a miss for prng-test, which compares it to the bit, but
    # plays H in a match, as `reference_act` plays any truthy guess.
    monkeypatch.setitem(PREDICTORS, "twos", None)
    register_predictor("twos", lambda prefix: 2 * (sum(prefix) & 1))
    assert eval_next_bit_predictor(g, "twos").per_position == tuple(
        Fraction(h, 8) - Fraction(1, 2) for h in reference_prediction_hits(g, "twos")
    )
    assert predictor_accuracy("twos", uniform_table(3), 7) == reference_accuracy("twos", uniform_table(3), 7)
    for beat in (False, True):
        player = predictor_backed("twos", beat=beat)
        for s1, s2 in ((uniform_table(3), player), (player, uniform_table(3))):
            assert round_payoffs(s1, s2, 7) == reference_round_payoffs(s1, s2, 7)
        assert simulate(player, 0, uniform_table(3), 5, 7) == reference_simulate(player, 0, uniform_table(3), 5, 7)
        exploiter = parse_strategy("exploit:vs=pred:twos" + ",beat=1" * beat, 7)
        assert simulate(exploiter, 0, player, 0, 7) == reference_simulate(exploiter, 0, player, 0, 7)
        assert round_payoffs(exploiter, player, 7) == reference_round_payoffs(exploiter, player, 7)
        assert round_payoffs(player, uniform_table(3), 7) == round_payoffs(
            predictor_backed("parity", beat=beat), uniform_table(3), 7
        )


SEATS = (
    *(f"pred:{name}" for name in PREDICTOR_NAMES),
    *(f"pred:{name},beat=1" for name in PREDICTOR_NAMES),
    "exploit:",
    "exploit:beat=1",
    "exploit:vs=uniform:2",
    "exploit:beat=1,vs=pred:markov1",
)


@settings(max_examples=80, deadline=None)
@given(specs(), st.sampled_from(SEATS), st.booleans())
def test_round_payoffs_with_any_adaptive_seat_match_seed_pair_simulation(case, seat, first):
    # "exploit:" and "exploit:beat=1" model the opponent they face; the last
    # two model another one, so its plays refute them.
    spec, n = case
    n = min(n, horizon(spec), 5) if spec.kind == "generator" else min(n, 6)
    if seat.startswith("exploit:") and "vs=" not in seat:
        player = exploiter_vs(spec, beat=seat.endswith("beat=1"))
    else:
        player = parse_strategy(seat, n)
    s1, s2 = (player, spec) if first else (spec, player)
    assert round_payoffs(s1, s2, n) == reference_round_payoffs(s1, s2, n)


ADAPTIVE = (
    "pred:markov1",
    "pred:periodicity,beat=1",
    "pred:frequency",
    "exploit:vs=pred:markov1",
    "exploit:beat=1,vs=pred:periodicity,beat=1",
    "exploit:vs=exploit:vs=pred:frequency",
    "exploit:vs=uniform:3",
    "exploit:beat=1,vs=alt:T",
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ADAPTIVE), st.sampled_from(ADAPTIVE + ("uniform:3", "gen:bm,perm=add1,m=2")), st.data())
def test_simulate_steps_each_adaptive_seat_as_act_plays(d1, d2, data):
    n = data.draw(st.integers(1, 12), label="n")
    s1, s2 = parse_strategy(d1, n), parse_strategy(d2, n)
    seed2 = data.draw(st.integers(0, (1 << s2.seed_len) - 1), label="seed2")
    expected = reference_simulate(s1, 0, s2, seed2, n)
    assert simulate(s1, 0, s2, seed2, n) == expected
    assert simulate(s2, seed2, s1, 0, n) == tuple((b, a) for a, b in expected)
    if not s2.oblivious:
        assert round_payoffs(s1, s2, n) == reference_round_payoffs(s1, s2, n)


@pytest.mark.parametrize("name, spec", adaptive_population() + [("const-H", constant(Action.H))])
def test_play_match_against_a_seedless_opponent_matches_the_seed_list_walk(name, spec):
    n = 9
    nested = exploiter_vs(spec, beat=True)
    for opponent in (spec, nested):
        assert [tuple(row) for row in play_match(opponent, 0, n).rows] == reference_play_rows(opponent, 0, n)
