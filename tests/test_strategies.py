"""Strategy families: determinism, budgets, obliviousness, and the equilibrium pair."""

from fractions import Fraction

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
    seed_plays,
    simulate,
    uniform_table,
)
from pennylab import prng, strategies
from pennylab.exploiter import tracker
from pennylab.prng import PREDICTORS, predictor_chooser, seed_stream
from pennylab.strategies import (
    MAX_NESTING,
    StrategySpec,
    describe,
    fixed_play,
    parse_strategy,
    round_plays,
    word_hits,
)

from support import (
    adaptive_population,
    generator_population,
    oblivious_population,
    reference_act,
    reference_round_plays,
    reference_split,
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


def test_adaptive_specs_read_no_seed():
    with pytest.raises(ValueError, match="adaptive strategies read no seed"):
        StrategySpec("predictor", (("predictor", "markov1"), ("beat", False)), 2)


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
        lambda: seed_plays(spec, seed, 3),
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
    # exploiter's tracker splits an oblivious spec with `split` and an
    # adaptive one's single seed by its chooser, stepped with the drawn own
    # plays.
    pw, view, advance = tracker(spec, SPLIT_N)
    seeds = range(1 << spec.seed_len)
    tables = [reference_round_plays(spec, t) for t in range(1, pw.depth + 1)] if spec.oblivious else []
    word = [sum(table[s] << (pw.depth - t) for t, table in enumerate(tables, 1)) for s in seeds]
    alive, history = list(seeds), ()
    for t in range(1, SPLIT_N + 1):
        if history:
            view = advance(view, history[-1][0] is H, history[-1][1] is H)
        lo, mid, hi, _ = view
        heads, tails = reference_split(spec, alive, history, t)
        assert list(pw.words[lo:mid]) == sorted({word[s] for s in tails})
        assert list(pw.words[mid:hi]) == sorted({word[s] for s in heads})
        assert pw.below[mid] - pw.below[lo] == len(tails)
        assert pw.below[hi] - pw.below[mid] == len(heads)
        consistent = [a for a, group in ((H, heads), (T, tails)) if group]
        seen = data.draw(st.sampled_from(consistent or [H, T]) | st.sampled_from((H, T)), label="seen")
        history += ((data.draw(st.sampled_from((H, T)), label="own"), seen),)
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
    for t in range(1, TABLE_N + 1):
        assert round_plays(spec, t) == reference_round_plays(spec, t), t
    if spec.kind == "generator":
        with pytest.raises(ValueError, match="generator stream too short") as fast:
            round_plays(spec, TABLE_N + 1)
        with pytest.raises(ValueError) as slow:
            reference_round_plays(spec, TABLE_N + 1)
        assert str(fast.value) == str(slow.value)


def test_fixed_plays_of_seedless_rounds():
    assert [fixed_play(constant(T), t) for t in (1, 2, 9)] == [T, T, T]
    assert [fixed_play(alternator(T), t) for t in range(1, 5)] == [T, H, T, H]
    assert fixed_play(uniform_table(0), 7) is H
    for spec in (uniform_table(2), generator_backed(passthrough(4)), predictor_backed("markov1")):
        assert [fixed_play(spec, t) for t in range(1, 5)] == [None] * 4


def test_tail_plays_after_an_odd_and_an_even_prefix():
    # Both tails start with tail_start on the first round past the prefix.
    assert [fixed_play(prefix_tail(3, "alternator", T), t) for t in range(1, 8)] == [
        None, None, None, T, H, T, H
    ]
    assert [fixed_play(prefix_tail(4, "alternator", T), t) for t in range(1, 9)] == [
        None, None, None, None, T, H, T, H
    ]
    assert [fixed_play(prefix_tail(3, "constant", T), t) for t in range(1, 6)] == [None, None, None, T, T]
    assert [fixed_play(prefix_tail(4, "constant", H), t) for t in range(1, 7)] == [None] * 4 + [H, H]
    assert round_plays(prefix_tail(3, "alternator", T), 5) == b"\1" * 8
    assert round_plays(prefix_tail(4, "alternator", T), 5) == b"\0" * 16


def test_tail_rounds_build_no_play_table(monkeypatch):
    calls = []
    real_round_plays = strategies.round_plays

    def counting_round_plays(spec, t):
        calls.append(t)
        return real_round_plays(spec, t)

    monkeypatch.setattr(strategies, "round_plays", counting_round_plays)
    opponent = prefix_tail(4, "alternator", H)
    hits, space = word_hits(predictor_chooser(PREDICTORS["markov1"], as_play=True), opponent, 300)
    assert (len(hits), space) == (300, 16)
    assert play_match(opponent, 5, 300).cumulative > 0
    assert calls == []


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
