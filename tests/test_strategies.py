"""Strategy families: determinism, budgets, obliviousness, and the equilibrium pair."""

import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab import (
    Action,
    Seed,
    alternator,
    blum_micali,
    broken_counter,
    broken_repeat,
    constant,
    exploiter_vs,
    generator_backed,
    make_gamma_equilibrium,
    passthrough,
    play_match,
    predictor_backed,
    prefix_tail,
    simulate,
    uniform_table,
)
from pennylab import prng, strategies, words
from pennylab.prng import Chooser, GeneratorSpec, int_to_bits, predictor_chooser, seed_stream
from pennylab.strategies import (
    MAX_NESTING,
    StrategySpec,
    chooser,
    describe,
    match,
    parse_strategy,
    play_words,
    round_heads,
)
from pennylab.words import PlayWords, is_identity, late_plays, prediction_hits

from support import (
    adaptive_population,
    bit_to_action,
    generator_population,
    oblivious_population,
    reference_act,
    reference_round_plays,
    reference_split,
    register_prefix_predictor,
    round_plays,
    seed_plays,
)

H, T = Action.H, Action.T


def test_constant_ignores_everything():
    assert seed_plays(constant(H), 0, 3)[2] is H


def test_alternator_round_four_is_t():
    spec = alternator(H)
    assert seed_plays(spec, 0, 4)[3] is T
    assert seed_plays(spec, 0, 1)[0] is H


def test_uniform_table_reads_round_indexed_bit():
    spec = uniform_table(3)
    assert seed_plays(spec, 0b101, 2) == (H, T)  # bit 2 of the seed is 0
    seed = Seed("101")
    assert reference_act(spec, seed, ((H, H),), 2) is T
    assert reference_act(spec, seed, (), 1) is H
    assert seed.reads == {0, 1}


def test_uniform_table_cycles_its_bits():
    spec = uniform_table(2)
    seq = [a for a, _ in simulate(spec, 0b10, constant(H), 0, 5)]
    assert seq == [H, T, H, T, H]


def test_zero_bit_uniform_table_is_constant_h():
    assert seed_plays(uniform_table(0), 0, 1) == (H,)


def test_act_rejects_wrong_seed_length():
    with pytest.raises(ValueError, match="budget violation"):
        reference_act(uniform_table(3), Seed("10"), (), 1)


@pytest.mark.parametrize(
    "construct",
    [
        lambda: StrategySpec("predictor", (("predictor", "markov1"), ("beat", False)), 2),
        lambda: StrategySpec("prefix-tail", (("prefix_len", 5), ("tail_kind", "constant"), ("tail_start", H)), 3),
        lambda: StrategySpec("uniform-table", (("seed_len", 3),), seed_len=3),
        lambda: GeneratorSpec("blum-micali-ip", 6, seed_len=3, m=3, perm="mulmod"),
        lambda: GeneratorSpec("uniform-passthrough", 4, 0, None, 4),
    ],
    ids=["adaptive", "prefix-tail", "uniform-keyword", "blum-micali-keyword", "passthrough-extra-field"],
)
def test_specs_take_no_seed_length(construct):
    # A seed length is derived from the family's parameters, so no spec can claim another.
    with pytest.raises(TypeError):
        construct()


@pytest.mark.parametrize(
    "spec, bits",
    [
        (uniform_table(0), 0),
        (uniform_table(3), 3),
        (constant(T), 0),
        (alternator(H), 0),
        (prefix_tail(0, "constant"), 0),
        (prefix_tail(3, "alternator", T), 3),
        (generator_backed(blum_micali("mulmod", 2, 5)), 4),
        (generator_backed(blum_micali("add1", 3, 5)), 6),
        (generator_backed(broken_counter(3, 5)), 3),
        (generator_backed(broken_repeat(5)), 2),
        (generator_backed(passthrough(5)), 5),
    ],
    ids=lambda x: describe(x) if isinstance(x, StrategySpec) else str(x),
)
def test_each_constructors_seed_len_is_the_bits_it_reads(spec, bits):
    assert spec.seed_len == bits
    assert len(seed_plays(spec, (1 << bits) - 1, 5)) == 5
    with pytest.raises(ValueError, match="budget violation"):
        seed_plays(spec, 1 << bits, 5)


@pytest.mark.parametrize(
    "spec",
    [
        StrategySpec("uniform-table", (("seed_len", 3),)),
        StrategySpec("constant", (("play", T),)),
        StrategySpec("alternator", (("first", H),)),
        StrategySpec("prefix-tail", (("prefix_len", 5), ("tail_kind", "constant"), ("tail_start", H))),
        StrategySpec("prefix-tail", (("prefix_len", 2), ("tail_kind", "alternator"), ("tail_start", T))),
        StrategySpec("generator", (("generator", GeneratorSpec("blum-micali-ip", 8, 3, "mulmod")),)),
        StrategySpec("generator", (("generator", GeneratorSpec("broken-counter", 8, 2)),)),
        StrategySpec("generator", (("generator", GeneratorSpec("broken-repeat", 8)),)),
        StrategySpec("generator", (("generator", GeneratorSpec("uniform-passthrough", 8)),)),
        StrategySpec("predictor", (("predictor", "markov1"), ("beat", True))),
        StrategySpec("exploiter", (("opponent", StrategySpec("constant", (("play", H),))), ("beat", False))),
    ],
    ids=describe,
)
def test_specs_built_directly_round_trip(spec):
    again = parse_strategy(describe(spec), 8)
    assert again == spec and again.seed_len == spec.seed_len


def test_act_rejects_history_round_mismatch():
    with pytest.raises(ValueError, match="history length mismatch"):
        reference_act(constant(H), Seed(""), ((H, H),), 1)


@pytest.mark.parametrize(
    "spec, seed",
    [(uniform_table(3), -1), (uniform_table(3), 8), (uniform_table(3), 9), (predictor_backed("markov1"), 1)],
    ids=["negative", "2**k", "2**k+1", "seedless-adaptive"],
)
def test_seeds_outside_the_declared_space_are_budget_violations(spec, seed):
    # Nothing wraps a seed into the space: each entry point rejects it.
    for call in (
        lambda: chooser(spec, 3, seed),
        lambda: simulate(spec, seed, constant(H), 0, 3),
        lambda: simulate(constant(H), 0, spec, seed, 3),
        lambda: play_match(spec, seed, 3),
    ):
        with pytest.raises(ValueError, match="budget violation"):
            call()


def test_budget_honesty_reads_exactly_declared_bits():
    # Over a full game of n >= seed_len rounds, every shipped family touches
    # exactly the bits it declared and no others, in the per-round reference.
    n = 8
    specs = [
        uniform_table(4),
        prefix_tail(3, "alternator", H),
        generator_backed(passthrough(n)),
        constant(T),
        alternator(H),
        exploiter_vs(uniform_table(2)),
    ]
    from pennylab import blum_micali, broken_counter, broken_repeat

    specs.append(generator_backed(blum_micali("add1", 2, n)))
    specs.append(generator_backed(broken_repeat(n)))
    specs.append(generator_backed(broken_counter(3, n)))
    for spec in specs:
        seed, history = Seed("0" * spec.seed_len), ()
        for t in range(1, n + 1):
            history += ((reference_act(spec, seed, history, t), H),)
        assert seed.reads == set(range(spec.seed_len)), spec.kind


SEED_PLAYS_N = 6
SEED_PLAYS_POPULATION = oblivious_population(SEED_PLAYS_N) + [
    ("gen-" + name, generator_backed(g)) for name, g in generator_population(SEED_PLAYS_N)
]


@pytest.mark.parametrize(
    "spec", [spec for _, spec in SEED_PLAYS_POPULATION], ids=[name for name, _ in SEED_PLAYS_POPULATION]
)
def test_seed_plays_read_the_compiled_round_tables(spec):
    n = SEED_PLAYS_N
    tables = [round_plays(spec, t) for t in range(1, n + 1)]
    for value in range(1 << spec.seed_len):
        plays = seed_plays(spec, value, n)
        assert [play is H for play in plays] == [table[value] == 1 for table in tables], value


@pytest.mark.parametrize(
    "spec", [spec for _, spec in SEED_PLAYS_POPULATION], ids=[name for name, _ in SEED_PLAYS_POPULATION]
)
def test_budget_honesty_of_the_compiled_form(spec):
    # Every table covers exactly the declared seed space, and each declared
    # bit changes some seed's plays.  Some seeds hide a bit: Blum-Micali's
    # y = 0 plays T whatever x is, so no single seed stands for all.
    n = SEED_PLAYS_N
    space = 1 << spec.seed_len
    assert all(len(round_plays(spec, t)) == space for t in range(1, n + 1))
    for i in range(spec.seed_len):
        assert any(seed_plays(spec, v, n) != seed_plays(spec, v ^ 1 << i, n) for v in range(space)), i


@pytest.mark.parametrize(
    "spec", [spec for _, spec in SEED_PLAYS_POPULATION], ids=[name for name, _ in SEED_PLAYS_POPULATION]
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_an_oblivious_chooser_plays_its_seed_whatever_it_sees(spec, data):
    n = SEED_PLAYS_N
    seed = data.draw(st.integers(0, (1 << spec.seed_len) - 1), label="seed")
    seen = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="seen")
    c, plays = chooser(spec, n, seed), seed_plays(spec, seed, n)
    state = c.init
    for play, bit in zip(plays, seen):
        assert c.guess(state) == (play is H)
        state = c.step(state, bit)


# Every oblivious family, by the rounds its chooser reads: a seedless table;
# seeded tables, whose seed is replayed past 2k; each prefix-tail tail, from
# an odd prefix, where a cycle read from the round and not from the prefix's
# end plays the wrong phase; const; alt; and each generator.
RULE_ROUNDS = (1, 2, 3, 4, 7, 9)
RULE_POPULATION = (
    [(f"uniform-{k}", uniform_table(k)) for k in (0, 1, 3)]
    + [(f"prefix-tail-3-{kind}-{s.value}", prefix_tail(3, kind, s)) for kind in ("constant", "alternator") for s in (H, T)]
    + [("const-T", constant(T)), ("alt-H", alternator(H)), ("alt-T", alternator(T))]
    + [("gen-" + name, generator_backed(g)) for name, g in generator_population(max(RULE_ROUNDS))]
)


@pytest.mark.parametrize("spec", [spec for _, spec in RULE_POPULATION], ids=[name for name, _ in RULE_POPULATION])
@pytest.mark.parametrize("n", RULE_ROUNDS)
def test_an_oblivious_chooser_plays_the_per_round_rule(spec, n):
    # Below, at and past the seed length of 3, and past twice it.  The rule
    # reads the seed's bit (t-1) mod k, the stream, or `reference_fixed_play`.
    for value in range(1 << spec.seed_len):
        seed = Seed(int_to_bits(value, spec.seed_len))
        guess = chooser(spec, n, value).guess
        expected = [reference_act(spec, seed, ((H, H),) * (t - 1), t) for t in range(1, n + 1)]
        assert [bit_to_action(guess(t)) for t in range(n)] == expected, value
        assert seed_plays(spec, value, n) == tuple(expected)


SPLIT_N = 5
SPLIT_POPULATION = oblivious_population(SPLIT_N) + adaptive_population()


@pytest.mark.parametrize(
    "spec", [spec for _, spec in SPLIT_POPULATION], ids=[name for name, _ in SPLIT_POPULATION]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_matches_seed_by_seed_reference(spec, data):
    # Follow a drawn history, mostly along consistent plays, so ranges reach
    # the last round, one word past the horizon, and the empty range.  The
    # exploiter's chooser splits an oblivious spec's words by one bisect, or
    # past their depth by `words.late_plays`, and an adaptive one's single seed by
    # that spec's chooser, stepped with the exploiter's own plays, which are
    # its guesses.
    init, guess, step = chooser(exploiter_vs(spec, data.draw(st.booleans(), label="beat")), SPLIT_N)
    pw, view = play_words(spec, SPLIT_N), init
    seeds = range(1 << spec.seed_len)
    tables = [reference_round_plays(spec, t) for t in range(1, pw.depth + 1)] if spec.oblivious else []
    word = [sum(table[s] << (pw.depth - t) for t, table in enumerate(tables, 1)) for s in seeds]
    alive, history = list(seeds), ()
    for t in range(1, SPLIT_N + 1):
        if history:
            view = step(view, history[-1][1] is H)
        lo, mid, hi, _ = view
        heads, tails = reference_split(spec, alive, history, t)
        assert list(pw.words[lo:mid]) == sorted({word[s] for s in tails})
        assert list(pw.words[mid:hi]) == sorted({word[s] for s in heads})
        assert pw.below[mid] - pw.below[lo] == len(tails)
        assert pw.below[hi] - pw.below[mid] == len(heads)
        consistent = [a for a, group in ((H, heads), (T, tails)) if group]
        seen = data.draw(st.sampled_from(consistent or [H, T]) | st.sampled_from((H, T)), label="seen")
        history += ((bit_to_action(guess(view)), seen),)
        alive = heads if seen is H else tails


# Above every seed length in the populations but passthrough's, so uniform
# tables wrap around and prefix-tail specs reach their tails.
TABLE_N = 8
TABLE_POPULATION = (
    oblivious_population(TABLE_N)
    + [("gen-" + name, generator_backed(g)) for name, g in generator_population(TABLE_N)]
    + [
        ("uniform-7", uniform_table(7)),
        ("prefix-tail-5-const-T", prefix_tail(5, "constant", T)),
        ("prefix-tail-5-alt-T", prefix_tail(5, "alternator", T)),
    ]
)


@pytest.mark.parametrize(
    "spec", [spec for _, spec in TABLE_POPULATION], ids=[name for name, _ in TABLE_POPULATION]
)
def test_round_plays_matches_seed_by_seed_reference(spec):
    # Up to TABLE_N, past the seed length of uniform tables and prefix-tails.
    for t in range(1, TABLE_N + 1):
        reference = reference_round_plays(spec, t)
        assert round_plays(spec, t) == reference, t
        assert round_heads(spec, t) == reference.count(1), t
    if spec.kind == "generator":
        with pytest.raises(ValueError, match="generator stream too short") as fast:
            round_heads(spec, TABLE_N + 1)
        with pytest.raises(ValueError) as slow:
            reference_round_plays(spec, TABLE_N + 1)
        assert str(fast.value) == str(slow.value)


def seedless_plays(spec, rounds):
    """Each round's play where every seed makes it, else None, read off `round_heads` and seed 0's `seed_plays`."""
    plays = seed_plays(spec, 0, max(rounds))
    return [plays[t - 1] if round_heads(spec, t) == (plays[t - 1] is H) << spec.seed_len else None for t in rounds]


def test_fixed_plays_of_seedless_rounds():
    assert seedless_plays(constant(T), (1, 2, 9)) == [T, T, T]
    assert seedless_plays(alternator(T), range(1, 5)) == [T, H, T, H]
    assert seedless_plays(uniform_table(0), (7,)) == [H]
    for spec in (uniform_table(2), generator_backed(passthrough(4))):
        assert seedless_plays(spec, range(1, 5)) == [None] * 4


def test_tail_plays_after_an_odd_and_an_even_prefix():
    # Both tails start with tail_start on the first round past the prefix.
    assert seedless_plays(prefix_tail(3, "alternator", T), range(1, 8)) == [None, None, None, T, H, T, H]
    assert seedless_plays(prefix_tail(4, "alternator", T), range(1, 9)) == [None, None, None, None, T, H, T, H]
    assert seedless_plays(prefix_tail(3, "constant", T), range(1, 6)) == [None, None, None, T, T]
    assert seedless_plays(prefix_tail(4, "constant", H), range(1, 7)) == [None] * 4 + [H, H]
    assert round_heads(prefix_tail(3, "alternator", T), 5) == 8
    assert round_heads(prefix_tail(4, "alternator", T), 5) == 0


def test_tail_rounds_build_no_play_table(monkeypatch):
    calls = []
    real_round_bits = strategies.round_bits

    def counting_round_bits(g, t):
        calls.append(t)
        return real_round_bits(g, t)

    monkeypatch.setattr(strategies, "round_bits", counting_round_bits)
    opponent = prefix_tail(4, "alternator", H)
    pw = play_words(opponent, 300)
    hits = prediction_hits(predictor_chooser("markov1"), pw, 300)
    assert (len(hits), pw.below[-1]) == (300, 16)
    assert sum(row.payoff for row in play_match(opponent, 5, 300)) > 0
    assert calls == []


# Every family that plays on past its play words' depth.
LATE_POPULATION = (
    [(f"uniform-{k}", uniform_table(k)) for k in range(5)]
    + [
        (f"prefix-tail-{k}-{tail}-{start.value}", prefix_tail(k, tail, start))
        for k in range(4)
        for tail in ("constant", "alternator")
        for start in (H, T)
    ]
    + [(f"{name}-{a.value}", make(a)) for name, make in (("const", constant), ("alt", alternator)) for a in (H, T)]
)


@pytest.mark.parametrize("spec", [spec for _, spec in LATE_POPULATION], ids=[name for name, _ in LATE_POPULATION])
def test_late_plays_are_each_words_seed_plays(spec):
    # Past its words' depth a word is its seed: its late plays are seed
    # words[lo]'s plays there, by the per-round reference on that seed.
    k = spec.seed_len
    for n in range(k + 1, 3 * k + 3):
        pw = play_words(spec, n)
        for lo, word in enumerate(pw.words):
            seed = Seed(int_to_bits(word, k))
            plays = [reference_act(spec, seed, ((H, H),) * (t - 1), t) for t in range(pw.depth + 1, n + 1)]
            late = islice(cycle(late_plays(pw, lo)), n - pw.depth)
            assert tuple(late) == tuple(int(a is H) for a in plays), (n, lo)


def test_identity_play_words_are_plain_data():
    # Every family but a compiled generator has identity words; a seedless
    # one's are its one empty word.  Past the depth they hold a cycle, not a
    # closure, so two calls give equal words.
    for desc in ("const:H", "alt:T", "uniform:0", "prefix-tail:prefix=0", "uniform:3", "prefix-tail:prefix=2"):
        spec = parse_strategy(desc, 9)
        assert is_identity(play_words(spec, 9)), desc
        assert play_words(spec, 9) == play_words(spec, 9), desc
    assert play_words(prefix_tail(2, "alternator", T), 9).cycle == (0, 1)
    assert play_words(uniform_table(3), 9).cycle == ()  # each word replays its own bits
    spec = generator_backed(passthrough(5))
    assert is_identity(play_words(spec, 5)) and play_words(spec, 5) == play_words(spec, 5)


def test_seedless_words_have_no_late_plays():
    # An adaptive spec's one empty word has no plays past its depth of 0 until
    # its exploiter gives it a cycle: reading them is a ValueError, not a
    # division by the empty cycle's length.
    pw = play_words(predictor_backed("markov1"), 5)
    assert (pw.depth, pw.cycle) == (0, ())
    with pytest.raises(ValueError, match="no plays past their depth"):
        late_plays(pw, 0)
    assert tuple(islice(cycle(late_plays(pw._replace(cycle=b"\x01\x00"), 0)), 3)) == (1, 0, 1)
    assert tuple(islice(cycle(late_plays(PlayWords((0b110,), (0, 1), 3), 0)), 7)) == (1, 1, 0, 1, 1, 0, 1)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("desc", ["pred:markov1", "alt:H", "uniform:10"])
def test_an_exploiters_match_holds_no_copy_of_its_late_plays(desc):
    # Past the depth a word's plays are read off its cycle by round: neither
    # the exploiter's chooser nor the match copies a tail of n plays, and a
    # seedless model's plays are held once, one byte a round.
    n = 2 * 10**5
    opponent = parse_strategy(desc, n)
    seed = opponent.seed_len and 0b1011001110

    def play():
        deque(match(chooser(exploiter_vs(opponent), n), chooser(opponent, n, seed), n), maxlen=0)

    peak = _traced_peak(play)
    assert peak < 1 << 20, peak


def test_a_one_word_hit_walk_holds_no_copy_of_its_late_plays():
    # The hits list is the walk's only O(n) allocation.
    n = 2 * 10**5
    pw = play_words(alternator(H), n)
    peak = _traced_peak(lambda: prediction_hits(predictor_chooser("markov1"), pw, n))
    assert peak < sys.getsizeof([0] * n) + (1 << 20), peak


def test_a_chooser_builds_a_uniform_tables_late_plays_once(monkeypatch):
    # It reads the one word's late plays each round past the depth; a rebuild
    # per round would make a game of n rounds cost O(n**2).
    calls = []
    real_int_to_bits = words.int_to_bits

    def counting_int_to_bits(value, length):
        calls.append(value)
        return real_int_to_bits(value, length)

    monkeypatch.setattr(words, "int_to_bits", counting_int_to_bits)
    simulate(exploiter_vs(uniform_table(3)), 0, uniform_table(3), 0b101, 50)
    assert calls == [0b101]  # the exploiter's late plays of its word, built once


def test_a_seedless_models_plays_are_computed_once_when_its_exploiter_is_built(monkeypatch):
    # While consistent, the model plays against the exploiter's own plays, one
    # fixed sequence: building the chooser guesses once per round and steps
    # once per round but the last, and a walk of its views (lo, mid, hi, t)
    # calls the model no more.
    calls, steps = [], []

    def counted(prefix):
        calls.append(prefix)
        return sum(prefix) & 1

    def counting_chooser(spec, n, seed=0):
        model = real_chooser(spec, n, seed)
        return Chooser(model.init, model.guess, lambda state, bit: steps.append(bit) or model.step(state, bit))

    real_chooser = strategies.chooser
    monkeypatch.setattr(strategies, "chooser", counting_chooser)  # the exploiter's chooser of its model
    register_prefix_predictor(monkeypatch, "counted", counted)
    seat = chooser(exploiter_vs(predictor_backed("counted")), 7)
    assert (len(calls), len(steps)) == (7, 6)
    views = [seat.init]

    def step(view, seen):
        views.append(seat.step(view, seen))
        return views[-1]

    prediction_hits(Chooser(seat.init, seat.guess, step), play_words(uniform_table(4), 7), 7)
    assert len(calls) == 7
    assert all(len(view) == 4 and all(type(x) is int for x in view) and 1 <= view[3] <= 7 for view in views)


def test_compiled_bm_tables_compute_no_per_seed_stream(monkeypatch):
    n = 10
    spec = parse_strategy("gen:bm,m=9", n)

    def no_stream(*args):
        raise AssertionError("a compiled table computed a per-seed stream")

    with monkeypatch.context() as patch:
        patch.setattr(prng, "_bm_stream", no_stream)
        tables = [round_plays(spec, t) for t in range(1, n + 1)]
    g = spec.param("generator")
    for value in (0, 1, 511, 512, 77_777, (1 << 18) - 1):
        assert bytes(table[value] for table in tables) == bytes(seed_stream(g, value)), value


def test_simulate_examples():
    assert simulate(constant(H), 0, constant(T), 0, 2) == ((H, T), (H, T))
    assert simulate(constant(H), 0, alternator(H), 0, 2) == ((H, H), (H, T))


def test_simulate_exploiter_vs_uniform_seed_11():
    opponent = uniform_table(2)
    transcript = simulate(exploiter_vs(opponent), 0, opponent, 0b11, 2)
    assert [b for _, b in transcript] == [H, H]
    assert transcript == ((H, H), (H, H))


def test_simulate_is_replay_stable():
    s1 = generator_backed(passthrough(4))
    s2 = uniform_table(3)
    first = simulate(s1, 0b1010, s2, 0b011, 4)
    second = simulate(s1, 0b1010, s2, 0b011, 4)
    assert first == second


def test_gamma_equilibrium_half():
    p1, p2 = make_gamma_equilibrium(8, Fraction(1, 2))
    assert p1.seed_len == p2.seed_len == 4
    assert p1.oblivious and p2.oblivious
    tail1 = [a for a, _ in simulate(p1, 0b0000, constant(H), 0, 8)[4:]]
    tail2 = [a for a, _ in simulate(p2, 0b0000, constant(H), 0, 8)[4:]]
    assert tail1 == [H, H, H, H]
    assert tail2 == [H, T, H, T]


def test_gamma_equilibrium_zero_is_uniform_table():
    p1, p2 = make_gamma_equilibrium(4, 0)
    assert p1.kind == p2.kind == "uniform-table"
    assert p1.seed_len == p2.seed_len == 4


def test_gamma_equilibrium_quarter_admissible():
    p1, p2 = make_gamma_equilibrium(8, Fraction(1, 4))
    assert p1.seed_len == p2.seed_len == 6


def test_gamma_equilibrium_rejects_odd_budget():
    with pytest.raises(ValueError, match="inadmissible gamma"):
        make_gamma_equilibrium(6, Fraction(1, 2))  # gamma*n = 3 is odd
    with pytest.raises(ValueError, match="inadmissible gamma"):
        make_gamma_equilibrium(8, Fraction(1, 3))  # gamma*n is not an integer


def test_describe_round_trips_through_cli_parser():
    n = 8
    gamma_pair = make_gamma_equilibrium(n, Fraction(1, 2))
    specs = [
        uniform_table(4),
        constant(T),
        alternator(H),
        prefix_tail(3, "alternator", H),
        *gamma_pair,
        generator_backed(passthrough(n)),
        generator_backed(broken_repeat(n)),
        generator_backed(broken_counter(3, n)),
        generator_backed(blum_micali("add1", 3, n)),
        predictor_backed("markov1"),
        predictor_backed("frequency", beat=True),
        exploiter_vs(alternator(H), beat=True),
        exploiter_vs(generator_backed(blum_micali("mulmod", 2, n))),
        exploiter_vs(exploiter_vs(constant(H)), beat=True),
    ]
    for spec in specs:
        assert parse_strategy(describe(spec), n) == spec
    for player, spec in zip((1, 2), gamma_pair):
        assert parse_strategy(f"prefix-tail:n={n},gamma=1/2", n, player=player) == spec
        nested = parse_strategy(f"exploit:beat=1,vs=prefix-tail:n={n},gamma=1/2", n, player=3 - player)
        assert nested == exploiter_vs(spec, beat=True)
        assert parse_strategy(describe(nested), n) == nested


def test_exploiter_chains_stop_at_the_nesting_limit():
    spec = constant(H)
    for _ in range(MAX_NESTING):
        spec = exploiter_vs(spec, beat=True)
    assert parse_strategy(describe(spec), 4) == spec
    with pytest.raises(ValueError, match=f"nest more than {MAX_NESTING} deep"):
        exploiter_vs(spec)
    with pytest.raises(ValueError, match=f"nest more than {MAX_NESTING} deep"):
        parse_strategy("exploit:vs=" + describe(spec), 4)
