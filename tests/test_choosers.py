"""Stepping choosers: each against the prefix function or per-round reference player it stands in for along a walk.

The built-in predictors are defined by their choosers; the prefix functions
they are checked against are the independent bodies in `support`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab import (
    Action,
    Chooser,
    broken_counter,
    constant,
    eval_next_bit_predictor,
    exact_value,
    exploiter_vs,
    play_match,
    predictor_accuracy,
    predictor_backed,
    register_predictor,
    simulate,
    uniform_table,
)
from pennylab.prng import PREDICTORS, predictor_chooser
from pennylab.strategies import chooser, horizon, match, parse_strategy, play_words
from pennylab.words import prediction_hits

from support import (
    PREDICTOR_NAMES,
    REFERENCE_PREDICTORS,
    adaptive_population,
    payoff_fractions,
    reference_accuracy,
    reference_play_rows,
    reference_prediction_hits,
    reference_round_payoffs,
    reference_simulate,
    register_prefix_predictor,
)
from test_words import _past_stream, specs

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
    fn = REFERENCE_PREDICTORS[name]
    init, guess, step = predictor_chooser(name)
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

    register_prefix_predictor(monkeypatch, "parity", parity)
    assert predictor_chooser("parity").init == ()
    g = broken_counter(3, 6)
    hits = reference_prediction_hits(g, "parity")
    assert eval_next_bit_predictor(g, "parity").per_position == tuple(Fraction(h, 8) - Fraction(1, 2) for h in hits)
    assert calls and all(type(prefix) is tuple for prefix in calls)
    assert predictor_accuracy("parity", uniform_table(3), 7) == reference_accuracy("parity", uniform_table(3), 7)
    player = predictor_backed("parity", beat=True)
    assert payoff_fractions(uniform_table(3), player, 7) == reference_round_payoffs(uniform_table(3), player, 7)
    # A built-in name registered to another predictor takes that one.
    register_prefix_predictor(monkeypatch, "markov1", parity)
    assert payoff_fractions(predictor_backed("markov1"), uniform_table(3), 7) == reference_round_payoffs(
        predictor_backed("parity"), uniform_table(3), 7
    )
    # A guess of 2 is read as 1 everywhere: prng-test counts it a hit on a 1,
    # and a match plays it as H, as the reference reads any truthy guess.
    register_prefix_predictor(monkeypatch, "twos", lambda prefix: 2 * (sum(prefix) & 1))
    for mode in ("exact", "sampled"):
        report = eval_next_bit_predictor(g, "twos", mode=mode, samples=20, eval_seed=3)
        assert report == eval_next_bit_predictor(g, "parity", mode=mode, samples=20, eval_seed=3)
    assert eval_next_bit_predictor(g, "twos").per_position == tuple(
        Fraction(h, 8) - Fraction(1, 2) for h in reference_prediction_hits(g, "twos")
    )
    assert predictor_accuracy("twos", uniform_table(3), 7) == reference_accuracy("twos", uniform_table(3), 7)
    for beat in (False, True):
        player = predictor_backed("twos", beat=beat)
        for s1, s2 in ((uniform_table(3), player), (player, uniform_table(3))):
            assert payoff_fractions(s1, s2, 7) == reference_round_payoffs(s1, s2, 7)
        assert simulate(player, 0, uniform_table(3), 5, 7) == reference_simulate(player, 0, uniform_table(3), 5, 7)
        exploiter = parse_strategy("exploit:vs=pred:twos" + ",beat=1" * beat, 7)
        assert simulate(exploiter, 0, player, 0, 7) == reference_simulate(exploiter, 0, player, 0, 7)
        assert payoff_fractions(exploiter, player, 7) == reference_round_payoffs(exploiter, player, 7)
        assert payoff_fractions(player, uniform_table(3), 7) == payoff_fractions(
            predictor_backed("parity", beat=beat), uniform_table(3), 7
        )


def test_register_predictor_takes_only_a_chooser_of_callables():
    for bad in (
        lambda prefix: 1,
        ((), lambda state: 1, lambda state, bit: state),  # a plain tuple
        Chooser((), 1, lambda state, bit: state),
        Chooser((), lambda state: 1, None),
    ):
        with pytest.raises(ValueError, match="Chooser"):
            register_predictor("bad", bad)
    assert "bad" not in PREDICTORS


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PREDICTOR_NAMES), specs(), st.booleans(), st.data())
def test_a_registered_chooser_twin_of_each_builtin_equals_it(name, case, beat, data):
    spec, n = case
    if _past_stream(spec, n):
        return
    builtin = predictor_chooser(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(PREDICTORS, "twin", None)  # the context's exit removes the registration
        register_predictor("twin", Chooser(*builtin))
        pw = play_words(spec, n)
        assert prediction_hits(predictor_chooser("twin"), pw, n) == prediction_hits(builtin, pw, n)
        assert predictor_accuracy("twin", spec, n) == predictor_accuracy(name, spec, n)
        if spec.kind == "generator":
            g = spec.param("generator")
            samples, eval_seed = data.draw(st.integers(1, 40), label="samples"), data.draw(st.integers(0, 9))
            sampled = {"samples": samples, "eval_seed": eval_seed}
            assert eval_next_bit_predictor(g, "twin") == eval_next_bit_predictor(g, name)
            assert eval_next_bit_predictor(g, "twin", "sampled", **sampled) == eval_next_bit_predictor(
                g, name, "sampled", **sampled
            )
        seed = data.draw(st.integers(0, (1 << spec.seed_len) - 1), label="seed")
        twin, same = (chooser(predictor_backed(p, beat), n) for p in ("twin", name))
        plays = [list(match(c, chooser(spec, n, seed), n)) for c in (twin, same)]
        assert plays[0] == plays[1]


def test_a_registered_chooser_steps_its_own_state_once_a_round(monkeypatch):
    # The registry keeps the chooser as given, so a seat of n rounds costs n
    # steps on markov1's five counters, with no prefix copied.
    n = 4 * 10**4
    markov1 = predictor_chooser("markov1")
    widths = []

    def step(state, bit):
        widths.append(len(state))
        return markov1.step(state, bit)

    monkeypatch.setitem(PREDICTORS, "twin", None)  # teardown removes the registration
    register_predictor("twin", Chooser(markov1.init, markov1.guess, step))
    model = predictor_backed("markov1")
    assert exact_value(predictor_backed("twin"), model, n) == exact_value(model, model, n)
    assert len(widths) < n and set(widths) == {5}


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
    assert payoff_fractions(s1, s2, n) == reference_round_payoffs(s1, s2, n)


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
        assert payoff_fractions(s1, s2, n) == reference_round_payoffs(s1, s2, n)


@pytest.mark.parametrize("name, spec", adaptive_population() + [("const-H", constant(Action.H))])
def test_play_match_against_a_seedless_opponent_matches_the_seed_list_walk(name, spec):
    n = 9
    nested = exploiter_vs(spec, beat=True)
    for opponent in (spec, nested):
        assert [tuple(row) for row in play_match(opponent, 0, n)] == reference_play_rows(opponent, 0, n)
