"""Generators, the permutation registry, predictors, and the two reductions."""

from fractions import Fraction

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
    exact_value,
    exploiter_vs,
    generator_backed,
    passthrough,
    payoff_to_distinguisher,
    predictor_accuracy,
    predictor_backed,
    register_permutation,
    uniform_table,
)
from pennylab import prng
from pennylab.prng import (
    GeneratorSpec,
    bits_to_int,
    int_to_bits,
    parse_generator,
    permutation,
    predictor_chooser,
    round_bits,
    seed_stream,
)
from pennylab.strategies import play_words
from pennylab.words import PlayWords, distinct_words, prediction_hits

from support import (
    PERMUTATION_NAMES,
    PREDICTOR_NAMES,
    REFERENCE_PREDICTORS,
    generator_population,
    inner_product_bit,
    oblivious_population,
    reference_prediction_hits,
    reference_stream,
    register_prefix_predictor,
    stage_payoff,
)

H, T = Action.H, Action.T


def test_inner_product_examples():
    assert inner_product_bit((1, 0, 1), (1, 1, 0)) == 1
    assert inner_product_bit((0, 0, 0), (1, 1, 1)) == 0
    assert inner_product_bit((1, 1), (1, 1)) == 0


def test_inner_product_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        inner_product_bit((1, 0), (1, 0, 1))


def test_identity_permutation_gives_constant_stream():
    g = blum_micali("identity", 3, 5)
    for x in range(8):
        for y in range(8):
            stream = seed_stream(g, x << 3 | y)
            expected = inner_product_bit(int_to_bits(x, 3), int_to_bits(y, 3))
            assert stream == (expected,) * 5


def test_bm_hand_iteration_example():
    # perm +1 mod 8, x=000, y=001, n=2: bits (f^2(x) ip y, f(x) ip y) = (0, 1)
    g = blum_micali("add1", 3, 2)
    assert seed_stream(g, 0b000001) == (0, 1)


def test_passthrough_reproduces_the_seed():
    g = passthrough(6)
    assert seed_stream(g, 0b101100) == (1, 0, 1, 1, 0, 0)


def test_broken_repeat_has_period_two():
    g = broken_repeat(9)
    for value in range(4):
        stream = seed_stream(g, value)
        for i in range(2, 9):
            assert stream[i] == stream[i - 2]


def test_broken_counter_emits_incrementing_words():
    g = broken_counter(3, 9)
    assert seed_stream(g, 0b110) == (1, 1, 0, 1, 1, 1, 0, 0, 0)


def test_streams_are_deterministic_and_sized():
    for label, g in generator_population(7):
        for value in range(min(16, 1 << g.seed_len)):
            stream = seed_stream(g, value)
            assert len(stream) == 7, label
            assert seed_stream(g, value) == stream, label


def test_integer_seed_stream_matches_bitstream():
    # The per-seed reference reads each family's definition off the seed's bit tuple.
    for label, g in generator_population(7):
        for value in range(1 << g.seed_len):
            assert seed_stream(g, value) == reference_stream(g, int_to_bits(value, g.seed_len)), (label, value)


def _per_seed_round(g, t):
    return bytes(seed_stream(g, value)[t - 1] for value in range(1 << g.seed_len))


@pytest.mark.parametrize("perm", PERMUTATION_NAMES)
def test_bm_round_bits_match_per_seed_streams(perm):
    for m in range(1, 7):
        for out_len in sorted({1, m, 2 * m + 3}):
            g = blum_micali(perm, m, out_len)
            for t in range(1, out_len + 1):
                assert round_bits(g, t) == _per_seed_round(g, t), (m, out_len, t)
            with pytest.raises(ValueError, match="generator stream too short"):
                round_bits(g, out_len + 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PERMUTATION_NAMES),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
def test_bm_round_bits_property(perm, m, out_len, data):
    g = blum_micali(perm, m, out_len)
    t = data.draw(st.integers(min_value=1, max_value=out_len))
    assert round_bits(g, t) == _per_seed_round(g, t)


def _seed_bit_generators():
    # Every family but Blum-Micali; a counter of out_len 40 wraps for m <= 5.
    yield from (passthrough(n) for n in range(1, 11))
    yield from (broken_repeat(n) for n in (1, 2, 7))
    for m in range(1, 7):
        yield from (broken_counter(m, out_len) for out_len in sorted({1, m, 3 * m + 1, 40}))


def test_seed_bit_round_bits_match_per_seed_streams():
    for g in _seed_bit_generators():
        for t in range(1, g.out_len + 1):
            assert round_bits(g, t) == _per_seed_round(g, t), (g, t)
        with pytest.raises(ValueError, match="generator stream too short"):
            round_bits(g, g.out_len + 1)


def test_seed_bit_round_bits_compute_no_per_seed_stream(monkeypatch):
    calls = []
    monkeypatch.setattr(prng, "seed_stream", lambda g, value: calls.append(value))
    for g in _seed_bit_generators():
        for t in range(1, g.out_len + 1):
            round_bits(g, t)
    assert calls == []


@pytest.mark.parametrize("predictor", PREDICTOR_NAMES)
def test_exact_predictor_matches_per_seed_streams(predictor):
    for label, g in generator_population(9) + [("bm-mulmod-5", blum_micali("mulmod", 5, 11))]:
        report = eval_next_bit_predictor(g, predictor)
        hits = reference_prediction_hits(g, predictor)
        space = 1 << g.seed_len
        assert report.per_position == tuple(Fraction(h, space) - Fraction(1, 2) for h in hits), label


def test_registry_rejects_non_bijections():
    register_permutation("squash", lambda m: lambda x: x & ~1)
    with pytest.raises(ValueError, match="not a bijection"):
        permutation("squash", 3)


def test_registry_binds_each_name_once():
    # Tables built from a permutation are cached under its name, so rebinding one would leave them stale.
    with pytest.raises(ValueError, match="permutation already registered: 'mulodd'"):
        register_permutation("mulodd", lambda m: lambda x: (x + 1) & ((1 << m) - 1))
    assert permutation("mulodd", 3)(1) == 5
    g = blum_micali("mulodd", 3, 6)
    for t in range(1, 7):
        assert round_bits(g, t) == _per_seed_round(g, t)


def test_registry_rejects_unknown_and_oversized_widths():
    with pytest.raises(ValueError, match="unknown permutation"):
        permutation("nope", 3)
    with pytest.raises(ValueError, match="width"):
        permutation("add1", 21)


def test_builtin_permutations_verify_at_small_widths():
    for name in ("identity", "add1", "mulodd", "mulmod"):
        for m in (1, 2, 3, 6):
            fn = permutation(name, m)
            assert sorted(fn(x) for x in range(1 << m)) == list(range(1 << m))


def test_registry_verifies_exhaustively_at_the_width_limit():
    fn = permutation("add1", 20)
    assert fn((1 << 20) - 1) == 0


def test_win_probability_normalization():
    from pennylab import per_round_payoffs

    s = constant(T)
    g = broken_repeat(4)
    payoffs = per_round_payoffs(s, g, 4)
    probs = [(e + 1) / 2 for e in payoffs]
    assert all(0 <= p <= 1 for p in probs)
    # Same advantage under either normalization.
    assert [abs(e) / 2 for e in payoffs] == [abs(p - Fraction(1, 2)) for p in probs]


def test_uniform_passthrough_is_unpredictable_by_constants():
    g = passthrough(6)
    for name in ("const0", "const1"):
        report = eval_next_bit_predictor(g, name)
        assert report.exact
        assert report.advantage == 0
        assert all(p == 0 for p in report.per_position)


def test_frequency_predictor_nails_broken_repeat():
    report = eval_next_bit_predictor(broken_repeat(8), "frequency")
    assert report.advantage == Fraction(1, 2)
    assert report.best_position == 3
    for i, p in enumerate(report.per_position, start=1):
        assert p == (Fraction(1, 2) if i >= 3 else 0)


def test_bm_add1_regression_fixture():
    # Frozen from full 2**16-seed enumeration of this exact configuration.
    report = eval_next_bit_predictor(blum_micali("add1", 8, 16), "frequency")
    assert report.exact
    assert report.samples == 1 << 16
    assert report.advantage == Fraction(3, 16)
    assert report.best_position == 15


def test_sampled_mode_is_reproducible_and_reports_half_width():
    g = broken_repeat(8)
    a = eval_next_bit_predictor(g, "frequency", mode="sampled", samples=500, eval_seed=7)
    b = eval_next_bit_predictor(g, "frequency", mode="sampled", samples=500, eval_seed=7)
    assert a == b
    assert not a.exact
    assert a.half_width is not None and a.half_width >= 0
    assert abs(a.advantage - 0.5) <= 0.1


def test_prediction_hits_calls_the_predictor_once_per_distinct_prefix(monkeypatch):
    calls = []
    reference = REFERENCE_PREDICTORS["markov1"]

    def markov1(prefix):
        calls.append(prefix)
        return reference(prefix)

    register_prefix_predictor(monkeypatch, "counted-markov1", markov1)
    register_prefix_predictor(monkeypatch, "reference-markov1", reference)
    n = 4
    streams = [int_to_bits(value, n) for value in range(1 << n)] * 2
    words, below = distinct_words(sorted(map(bits_to_int, streams)))
    hits = prediction_hits(predictor_chooser("counted-markov1"), PlayWords(words, below, n), n)
    # Every prefix of length 0..n-1 occurs, each asked about once.
    assert sorted(calls) == sorted(int_to_bits(v, i) for i in range(n) for v in range(1 << i))
    expected = [sum(reference(s[:i]) == s[i] for s in streams) for i in range(n)]
    assert hits == expected
    # Streams of 20 bits and more are counted the same way.
    long_streams = [tuple((v >> (i % 3)) & 1 for i in range(23)) for v in range(8)]
    expected = [sum(reference(s[:i]) == s[i] for s in long_streams) for i in range(23)]
    words, below = distinct_words(sorted(map(bits_to_int, long_streams)))
    assert prediction_hits(predictor_chooser("reference-markov1"), PlayWords(words, below, 23), 23) == expected


def test_exact_mode_enforces_cap(monkeypatch):
    monkeypatch.setenv("PENNY_CAP", "16")
    with pytest.raises(ValueError, match="seed space too large"):
        eval_next_bit_predictor(passthrough(8), "const1")


@pytest.mark.parametrize(
    "build",
    [
        lambda: blum_micali("mulmod", 3, 0),
        lambda: passthrough(0),
        lambda: broken_repeat(0),
        lambda: broken_counter(3, 0),
    ],
    ids=["bm", "passthrough", "repeat", "counter"],
)
def test_generators_reject_empty_output(build):
    with pytest.raises(ValueError, match="output length must be positive"):
        build()


def test_distinguisher_is_zero_for_passthrough():
    for s in (constant(T), alternator(H), uniform_table(2)):
        round_idx, advantage = payoff_to_distinguisher(s, passthrough(6), 6)
        assert advantage == 0


def test_passthrough_is_exactly_unexploitable():
    from pennylab import best_response_value

    for n in (4, 6, 8):
        opponent = generator_backed(passthrough(n))
        assert best_response_value(opponent, n) == 0


def test_distinguisher_finds_deterministic_round():
    # The periodicity predictor in the mismatcher seat beats broken-repeat
    # with certainty from round 3 on, making the round outcome deterministic.
    s = predictor_backed("periodicity", beat=True)
    round_idx, advantage = payoff_to_distinguisher(s, broken_repeat(6), 6)
    assert (round_idx, advantage) == (3, Fraction(1, 2))


def test_distinguisher_dominates_half_the_game_value():
    n = 8
    strategies = [
        ("const-H", constant(H)),
        ("alt", alternator(H)),
        ("uniform-2", uniform_table(2)),
        ("pred-freq-beat", predictor_backed("frequency", beat=True)),
    ]
    for glabel, g in generator_population(n):
        player = generator_backed(g)
        for slabel, s in strategies + [("exploit-beat", exploiter_vs(player, beat=True))]:
            _, advantage = payoff_to_distinguisher(s, g, n)
            value = exact_value(player, s, n)
            assert advantage >= abs(value) / 2, (glabel, slabel)


def test_predictor_payoff_identity():
    n = 8
    for name in PREDICTOR_NAMES:
        for olabel, opponent in oblivious_population(n, max_bits=3):
            accuracy = predictor_accuracy(name, opponent, n)
            payoff = exact_value(predictor_backed(name), opponent, n)
            assert payoff == 2 * accuracy - 1, (name, olabel)


def test_perfect_and_chance_predictor_payoffs():
    # Constant predictor against the matching constant opponent is always right.
    assert predictor_accuracy("const1", constant(H), 6) == 1
    assert exact_value(predictor_backed("const1"), constant(H), 6) == 1
    # Any predictor against fresh uniform bits is right exactly half the time.
    for name in PREDICTOR_NAMES:
        assert predictor_accuracy(name, uniform_table(6), 6) == Fraction(1, 2)
        assert exact_value(predictor_backed(name), uniform_table(6), 6) == 0


def test_predictor_accuracy_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown predictor: 'bogus'"):
        predictor_accuracy("bogus", uniform_table(2), 3)


def test_predictor_entry_points_take_registered_names_only(monkeypatch):
    const1 = lambda prefix: 1
    g = broken_repeat(4)
    with pytest.raises(ValueError, match="unknown predictor"):
        eval_next_bit_predictor(g, const1)
    with pytest.raises(ValueError, match="unknown predictor"):
        predictor_accuracy(const1, uniform_table(2), 3)
    register_prefix_predictor(monkeypatch, "ones", const1)
    assert eval_next_bit_predictor(g, "ones") == eval_next_bit_predictor(g, "const1")
    assert predictor_accuracy("ones", constant(H), 3) == 1


def test_frequency_wins_every_affected_round_against_repeat():
    # Payoff +1 on every round from 3 on, for every seed of the repeat stream.
    from pennylab.strategies import simulate

    opponent = generator_backed(broken_repeat(8))
    striker = predictor_backed("frequency")
    for value in range(4):
        transcript = simulate(striker, 0, opponent, value, 8)
        for t, (a, b) in enumerate(transcript, start=1):
            if t >= 3:
                assert stage_payoff(a, b) == 1


def test_describe_round_trips_through_parse_generator():
    n = 8
    for g in (blum_micali("add1", 3, n), broken_counter(4, n), broken_repeat(n), passthrough(n)):
        assert parse_generator(g.describe(), n) == g


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("blum-micali-ip", "broken-counter", "broken-repeat", "uniform-passthrough", "bm", "")),
    st.integers(min_value=-1, max_value=9),
    st.integers(min_value=-1, max_value=5),
    st.sampled_from((None, "mulmod", "add1", "identity", "nope", "")),
)
def test_every_generator_spec_that_builds_is_whole(kind, out_len, m, perm):
    # Bad kinds, widths, perms and stray keys are refused when the spec is built, never later.
    try:
        g = GeneratorSpec(kind, out_len, m, perm)
    except ValueError:
        return
    assert parse_generator(g.describe(), g.out_len) == g
    for t in range(1, g.out_len + 1):
        assert round_bits(g, t) == _per_seed_round(g, t), t
    play_words(generator_backed(g), g.out_len)


def test_describe_rejects_an_unknown_generator_kind():
    with pytest.raises(ValueError, match="unknown generator kind: 'bogus'"):
        GeneratorSpec("bogus", 4, 2).describe()
