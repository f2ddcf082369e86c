"""Play words: every walk over an oblivious opponent's consistent sets against its seed-list reference."""

import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab import (
    Action,
    alternator,
    blum_micali,
    broken_counter,
    broken_repeat,
    constant,
    eval_next_bit_predictor,
    exploiter_vs,
    generator_backed,
    passthrough,
    per_round_payoffs,
    play_match,
    predictor_backed,
    predictor_accuracy,
    prefix_tail,
    simulate,
    uniform_table,
)
from pennylab import strategies
from pennylab.prng import bits_to_int, predictor_chooser, round_bits, seed_stream
from pennylab.exploiter import final_phi
from pennylab.game import round_value
from pennylab.oracle import best_response_value, exact_value, round_payoffs
from pennylab.strategies import _compile_words, chooser, describe, horizon, parse_strategy, play_words
from pennylab.words import compile_words, distinct_words, prediction_hits

from support import (
    PERMUTATION_NAMES,
    PREDICTOR_NAMES,
    chooser_play,
    generator_population,
    payoff_fractions,
    reference_accuracy,
    reference_exploiter_act,
    reference_greedy_value,
    reference_play,
    reference_play_rows,
    reference_prediction_hits,
    reference_predictor,
    reference_round_payoffs,
    reference_round_plays,
    reference_simulate,
    reference_stream_hits,
    seed_plays,
)

H, T = Action.H, Action.T
actions = st.sampled_from((H, T))


@st.composite
def specs(draw, families=("uniform", "constant", "alternator", "prefix-tail", "generator")):
    """A small oblivious spec of one of `families`, and a horizon n below, at or above its horizon L."""
    family = draw(st.sampled_from(families))
    if family == "uniform":
        spec = uniform_table(draw(st.integers(0, 5)))
    elif family == "constant":
        spec = constant(draw(actions))
    elif family == "alternator":
        spec = alternator(draw(actions))
    elif family == "prefix-tail":
        spec = prefix_tail(draw(st.integers(0, 5)), draw(st.sampled_from(("constant", "alternator"))), draw(actions))
    else:
        out_len = draw(st.integers(1, 7))
        kind = draw(st.sampled_from(("bm", "counter", "passthrough", "repeat")))
        if kind == "bm":
            g = blum_micali(draw(st.sampled_from(PERMUTATION_NAMES)), draw(st.integers(1, 3)), out_len)
        elif kind == "counter":
            g = broken_counter(draw(st.integers(1, 5)), out_len)
        else:
            g = passthrough(min(out_len, 5)) if kind == "passthrough" else broken_repeat(out_len)
        spec = generator_backed(g)
    n = max(1, horizon(spec) + draw(st.integers(-2, 3)))
    return spec, n


def _past_stream(spec, n):
    """A generator spec asked about rounds past its stream."""
    return spec.kind == "generator" and n > horizon(spec)


@settings(max_examples=80, deadline=None)
@given(specs())
def test_greedy_value_matches_the_seed_list_walk(case):
    spec, n = case
    if _past_stream(spec, n):
        with pytest.raises(ValueError, match="generator stream too short"):
            best_response_value(spec, n)
        return
    assert best_response_value(spec, n) == reference_greedy_value(spec, n)
    delta = Fraction(2, 3)
    assert best_response_value(spec, n, delta=delta) == reference_greedy_value(spec, n, delta)


@settings(max_examples=60, deadline=None)
@given(specs(), st.data())
def test_play_match_rows_match_the_seed_list_walk(case, data):
    spec, n = case
    n = min(n, horizon(spec)) if spec.kind == "generator" else n
    seed = data.draw(st.integers(0, (1 << spec.seed_len) - 1), label="seed")
    rows = list(play_match(spec, seed, n))
    reference_rows, reference_final_phi = reference_play(spec, seed, n)
    assert [tuple(row) for row in rows] == reference_rows
    assert final_phi(rows[-1], sum(row.payoff for row in rows)) == reference_final_phi  # bit for bit


@settings(max_examples=60, deadline=None)
@given(specs(), st.data())
def test_exploiter_act_matches_the_seed_list_filter(case, data):
    spec, n = case
    seed = data.draw(st.integers(0, (1 << spec.seed_len) - 1), label="seed")
    own = data.draw(st.lists(actions, min_size=n, max_size=n), label="own")
    refuted = data.draw(st.lists(actions, min_size=n, max_size=n), label="refuted")
    # The seed's own plays keep the history consistent; the drawn column may refute it.
    rounds = min(n, horizon(spec)) if spec.kind == "generator" else n
    plays = seed_plays(spec, seed, rounds)
    for column in (plays, refuted):
        for length in range(len(column) + 1):
            history = tuple(zip(own[:length], column[:length]))
            for beat in (False, True):
                player = exploiter_vs(spec, beat=beat)
                try:
                    expected = reference_exploiter_act(spec, history, beat)
                except ValueError as error:
                    with pytest.raises(ValueError, match=str(error)):
                        chooser_play(player, history)
                    continue
                assert chooser_play(player, history) is expected


@settings(max_examples=40, deadline=None)
@given(specs(), st.sampled_from(("pred:markov1", "exploit", "exploit:beat=1")), st.booleans())
def test_round_payoffs_with_an_adaptive_seat_match_seed_pair_simulation(case, kind, first):
    spec, n = case
    n = min(n, horizon(spec), 5) if spec.kind == "generator" else min(n, 6)
    if kind == "pred:markov1":
        player = predictor_backed("markov1")
    else:
        player = exploiter_vs(spec, beat=kind.endswith("beat=1"))
    s1, s2 = (player, spec) if first else (spec, player)
    assert payoff_fractions(s1, s2, n) == reference_round_payoffs(s1, s2, n)


def _hit_walk(s1, s2, n):
    """`round_payoffs` of an adaptive seat against an oblivious one by the `prediction_hits` walk alone."""
    player, other = (s2, s1) if s1.oblivious else (s1, s2)
    pw = play_words(other, n)
    space = pw.below[-1]
    return [2 * h - space for h in prediction_hits(chooser(player, n), pw, n)], space


@settings(max_examples=80, deadline=None)
@given(specs(), st.booleans(), st.booleans())
def test_an_exploiter_of_the_other_seat_earns_its_majority_wins(case, beat, first):
    # Against the very spec it models, the exploiter's value is read off
    # `round_payoffs`; the hit walk with its chooser must agree, past the
    # words' depth too, averaged and discounted.
    spec, n = case
    if _past_stream(spec, n):
        return
    player = exploiter_vs(spec, beat=beat)
    s1, s2 = (player, spec) if first else (spec, player)
    for delta in (None, Fraction(2, 3)):
        assert exact_value(s1, s2, n, delta) == round_value(*_hit_walk(s1, s2, n), n, delta), delta


@settings(max_examples=60, deadline=None)
@given(specs(families=("generator",)), st.booleans())
def test_per_round_payoffs_against_an_exploiter_of_the_generator_match_the_hit_walk(case, beat):
    # `round_payoffs` lists an exploiter of the generator seat's own spec by
    # its majority wins up to the words' depth, which covers every round the
    # stream has; the hit walk with the exploiter's chooser must agree.
    spec, n = case
    n = min(n, horizon(spec))
    player = exploiter_vs(spec, beat=beat)
    values, space = _hit_walk(spec, player, n)
    assert per_round_payoffs(player, spec.param("generator"), n) == [Fraction(v, space) for v in values]


@pytest.mark.parametrize(
    "model, opponent",
    [
        ("uniform:5", "uniform:6"),
        ("uniform:6", "uniform:5"),
        ("gen:bm,perm=mulmod,m=3", "gen:bm,perm=add1,m=3"),
        ("prefix-tail:prefix=2", "prefix-tail:prefix=3"),
    ],
)
@pytest.mark.parametrize("beat, first", [(False, True), (True, False), (True, True)])
def test_an_exploiter_of_a_near_model_takes_the_hit_walk(model, opponent, beat, first):
    # A model of the opponent's kind with another parameter is not the
    # opponent: its exploiter's value comes from the walk, not the majority.
    for n in range(1, 10):
        player = exploiter_vs(parse_strategy(model, n), beat=beat)
        other = parse_strategy(opponent, n)
        s1, s2 = (player, other) if first else (other, player)
        assert exact_value(s1, s2, n) == round_value(*_hit_walk(s1, s2, n), n), n


@settings(max_examples=40, deadline=None)
@given(specs(), st.sampled_from(PREDICTOR_NAMES))
def test_exact_hits_match_the_stream_loop(case, predictor):
    spec, n = case
    if _past_stream(spec, n):
        return
    assert predictor_accuracy(predictor, spec, n) == reference_accuracy(predictor, spec, n)
    if spec.kind == "generator" and n == horizon(spec):
        g = spec.param("generator")
        space = 1 << g.seed_len
        hits = reference_prediction_hits(g, predictor)
        assert eval_next_bit_predictor(g, predictor).per_position == tuple(
            Fraction(h, space) - Fraction(1, 2) for h in hits
        )


# Past the depth a uniform table's words replay their own bits, in full by
# n = 2 * depth and once more from the start at 2 * depth + 1; a
# prefix-tail's share its tail cycle.  `specs()` stops short of both.
TWICE_POPULATION = [uniform_table(3)] + [prefix_tail(3, tail, a) for tail in ("constant", "alternator") for a in (H, T)]


@pytest.mark.parametrize("offset", (0, 1))
@pytest.mark.parametrize("spec", TWICE_POPULATION, ids=describe)
def test_late_plays_match_the_references_at_twice_the_depth(spec, offset):
    n = 2 * horizon(spec) + offset
    seeds = range(1 << spec.seed_len)
    streams = [tuple(int(a is H) for a, _ in reference_simulate(spec, s, constant(H), 0, n)) for s in seeds]
    pw = play_words(spec, n)
    for predictor in PREDICTOR_NAMES:
        expected = reference_stream_hits(reference_predictor(predictor), streams, n)
        assert prediction_hits(predictor_chooser(predictor), pw, n) == expected, predictor
    for beat in (False, True):
        player = exploiter_vs(spec, beat=beat)
        for s in seeds:
            assert simulate(player, 0, spec, s, n) == reference_simulate(player, 0, spec, s, n), (beat, s)
        # The exploiter's chooser walked over every word, as a near model's exploiter is.
        values, space = _hit_walk(player, spec, n)
        assert [Fraction(v, space) for v in values] == reference_round_payoffs(player, spec, n), beat


@pytest.mark.parametrize("predictor", PREDICTOR_NAMES)
def test_exact_passthrough_reports_compile_nothing(predictor, monkeypatch):
    def refuse(*args):
        raise AssertionError("compile_words called")

    monkeypatch.setattr(strategies, "compile_words", refuse)
    g = passthrough(12)
    before = _compile_words.cache_info()
    report = eval_next_bit_predictor(g, predictor)
    assert _compile_words.cache_info() == before
    hits = reference_prediction_hits(g, predictor)
    assert report.per_position == tuple(Fraction(h, 1 << 12) - Fraction(1, 2) for h in hits)


@pytest.mark.parametrize("predictor", PREDICTOR_NAMES)
def test_exact_reports_average_to_the_predictor_accuracy(predictor):
    for label, g in generator_population(9):
        report = eval_next_bit_predictor(g, predictor)
        accuracy = predictor_accuracy(predictor, generator_backed(g), g.out_len)
        assert sum(report.per_position) / g.out_len + Fraction(1, 2) == accuracy, label


def _sampled_reference(g, predictor, samples, eval_seed):
    rng = random.Random(eval_seed)
    streams = [seed_stream(g, rng.randrange(1 << g.seed_len)) for _ in range(samples)]
    return tuple(h / samples - 0.5 for h in reference_stream_hits(reference_predictor(predictor), streams, g.out_len))


@settings(max_examples=30, deadline=None)
@given(specs(families=("generator",)), st.sampled_from(PREDICTOR_NAMES), st.integers(1, 60), st.integers(0, 9))
def test_sampled_hits_match_the_stream_loop(case, predictor, samples, eval_seed):
    g = case[0].param("generator")
    report = eval_next_bit_predictor(g, predictor, mode="sampled", samples=samples, eval_seed=eval_seed)
    assert report.per_position == _sampled_reference(g, predictor, samples, eval_seed)


def test_words_wider_than_64_bits_take_the_same_walk():
    # gen:repeat at n=70: 70-round words, held as Python ints.
    n = 70
    spec = generator_backed(broken_repeat(n))
    pw = play_words(spec, n)
    assert pw.depth == n and isinstance(pw.words, list) and len(pw.words) == 4
    assert best_response_value(spec, n) == reference_greedy_value(spec, n) == Fraction(n - 2, n)
    delta = Fraction(9, 10)
    assert best_response_value(spec, n, delta=delta) == reference_greedy_value(spec, n, delta)
    for seed in range(4):
        assert [tuple(row) for row in play_match(spec, seed, n)] == reference_play_rows(spec, seed, n)
        history = simulate(exploiter_vs(spec), 0, spec, seed, n)[:40]
        for beat in (False, True):
            assert chooser_play(exploiter_vs(spec, beat=beat), history) is reference_exploiter_act(spec, history, beat)
    refuted = tuple((H, H) for _ in range(40))
    assert chooser_play(exploiter_vs(spec), refuted) is reference_exploiter_act(spec, refuted)
    for predictor in PREDICTOR_NAMES:
        assert predictor_accuracy(predictor, spec, n) == reference_accuracy(predictor, spec, n)
        g = spec.param("generator")
        hits = reference_prediction_hits(g, predictor)
        assert eval_next_bit_predictor(g, predictor).per_position == tuple(Fraction(h, 4) - Fraction(1, 2) for h in hits)
        sampled = eval_next_bit_predictor(g, predictor, mode="sampled", samples=50, eval_seed=3)
        assert sampled.per_position == _sampled_reference(g, predictor, 50, 3)


def test_large_seed_spaces_sort_their_words_in_parts():
    # 2**18 seeds of unordered 20-round words, too sparse for a table of every
    # word: the sort runs in four parts, by the first two plays.
    g = blum_micali("mulmod", 9, 20)
    tables = [round_bits(g, t) for t in range(1, 21)]
    words, below = compile_words(lambda t: tables[t - 1], 20, 1 << 18)
    counts = Counter(map(bits_to_int, zip(*tables)))
    assert list(words) == sorted(counts)
    assert [b - a for a, b in zip(below, below[1:])] == [counts[w] for w in sorted(counts)]


# Blum-Micali, counter and repeat words, each at depths one below, at and one
# above its seed length: a table of every word is no larger than the seed
# space up to the seed length, and sparser one round past it.
COMPILE_POPULATION = [
    ("bm-mulmod", generator_backed(blum_micali("mulmod", 3, 7))),
    ("bm-identity", generator_backed(blum_micali("identity", 2, 5))),
    ("counter", generator_backed(broken_counter(4, 5))),
    ("repeat", generator_backed(broken_repeat(3))),
]


@pytest.mark.parametrize("offset", (-1, 0, 1))
@pytest.mark.parametrize("spec", [spec for _, spec in COMPILE_POPULATION], ids=[name for name, _ in COMPILE_POPULATION])
def test_compiled_words_are_the_sorted_distinct_seed_words(spec, offset):
    depth, space = spec.seed_len + offset, 1 << spec.seed_len
    g = spec.param("generator")
    tables = [reference_round_plays(spec, t) for t in range(1, depth + 1)]
    seed_words = [sum(table[s] << (depth - t) for t, table in enumerate(tables, 1)) for s in range(space)]
    words, below = compile_words(partial(round_bits, g), depth, space)
    expected_words, expected_below = distinct_words(sorted(seed_words))
    assert (list(words), list(below)) == (expected_words, list(expected_below))
