"""Level tables and identity play words: `best_response_value` and `play_words` against the walks they replace."""

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
    generator_backed,
    passthrough,
    prefix_tail,
    uniform_table,
)
from pennylab.oracle import best_response_value
from pennylab.strategies import _compile_words, horizon, parse_strategy, play_words
from pennylab.words import _DENSE, PlayWords, majority_wins

from support import (
    PERMUTATION_NAMES,
    compiled_words,
    reference_greedy_value,
    reference_range_greedy_value,
    reference_range_wins,
)

H, T = Action.H, Action.T
DELTA = Fraction(2, 3)


def _dense(spec, n):
    """Whether `best_response_value` counts every round of the spec's words from tables, with nothing to walk."""
    words, _, depth, _ = play_words(spec, n)
    return 1 << depth <= _DENSE * len(words)


@st.composite
def word_sets(draw):
    """Any sorted distinct words of some depth with seed counts, and a horizon at or past the depth.

    The shipped families play stationary words (each window of rounds is
    spread alike), so these also catch a table that sums the wrong slots.
    """
    depth = draw(st.integers(0, 9))
    words = sorted(draw(st.sets(st.integers(0, (1 << depth) - 1), min_size=1, max_size=64)))
    below = [0]
    for count in draw(st.lists(st.integers(1, 4), min_size=len(words), max_size=len(words))):
        below.append(below[-1] + count)
    return PlayWords(words, below, depth), max(1, depth + draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(word_sets())
def test_majority_wins_match_the_range_walk_on_any_words(case):
    pw, n = case
    assert majority_wins(pw) == reference_range_wins(pw, n)[: pw.depth + 1]


@st.composite
def budgeted_specs(draw):
    """An oblivious spec of any family, and a horizon below, at or past its seed length."""
    families = ("uniform", "constant", "alternator", "prefix-tail", "bm", "counter", "passthrough", "repeat")
    family = draw(st.sampled_from(families))
    k = draw(st.integers(0, 7))
    n = max(1, k + draw(st.integers(-3, 3)))
    if family == "uniform":
        spec = uniform_table(k)
    elif family == "constant":
        spec = constant(draw(st.sampled_from((H, T))))
    elif family == "alternator":
        spec = alternator(draw(st.sampled_from((H, T))))
    elif family == "prefix-tail":
        spec = prefix_tail(k, draw(st.sampled_from(("constant", "alternator"))), draw(st.sampled_from((H, T))))
    elif family == "passthrough":
        spec, n = generator_backed(passthrough(max(1, k))), min(n, max(1, k))
    else:
        # A stream at least n long, often longer than the seed, so the words are sparse.
        out_len = n + draw(st.integers(0, 8))
        if family == "bm":
            g = blum_micali(draw(st.sampled_from(PERMUTATION_NAMES)), max(1, k // 2), out_len)
        elif family == "counter":
            g = broken_counter(max(1, k), out_len)
        else:
            g = broken_repeat(out_len)
        spec = generator_backed(g)
        n = draw(st.integers(1, out_len))
    return spec, n


@settings(max_examples=150, deadline=None)
@given(budgeted_specs())
def test_level_tables_match_both_walks(case):
    spec, n = case
    value = best_response_value(spec, n)
    assert value == reference_range_greedy_value(spec, n) == reference_greedy_value(spec, n)
    discounted = best_response_value(spec, n, delta=DELTA)
    assert discounted == reference_range_greedy_value(spec, n, DELTA) == reference_greedy_value(spec, n, DELTA)


@pytest.mark.parametrize("delta", [None, DELTA], ids=["plain", "discounted"])
@pytest.mark.parametrize(
    "spec",
    [
        uniform_table(0),
        uniform_table(3),
        constant(T),
        alternator(H),
        prefix_tail(3, "constant"),
        prefix_tail(3, "alternator"),
    ],
    ids=["uniform:0", "uniform:3", "const:T", "alt:H", "prefix-tail:3-constant", "prefix-tail:3-alternator"],
)
def test_rounds_far_past_the_depth_are_credited_to_every_seed(spec, delta):
    # 300 rounds past the words' depth, where `best_response_value` adds a closed
    # form and the reference walks each round.
    n = horizon(spec) + 300
    assert play_words(spec, n).depth == n - 300
    assert best_response_value(spec, n, delta=delta) == reference_range_greedy_value(spec, n, delta)


@pytest.mark.parametrize(
    "desc, n, dense",
    [
        ("gen:bm,perm=mulmod,m=6", 14, True),  # 2,423 words of 14 rounds: tables to the depth
        ("gen:bm,perm=mulmod,m=5", 12, False),  # 32 words of 12 rounds: the walk from the root
        ("gen:repeat", 8, False),  # four words, fewer than _DENSE: the walk from the root
        ("gen:bm,perm=mulmod,m=4", 16, False),
        ("gen:counter,m=6", 20, False),
        ("gen:bm,perm=add1,m=3", 7, True),
        ("uniform:10", 14, True),
        ("prefix-tail:prefix=9,tail=alternator,start=T", 13, True),
        ("alt:T", 5, True),
    ],
)
def test_specs_on_both_sides_of_the_table_switch(desc, n, dense):
    spec = parse_strategy(desc, n)
    assert _dense(spec, n) is dense
    assert best_response_value(spec, n) == reference_range_greedy_value(spec, n) == reference_greedy_value(spec, n)
    assert best_response_value(spec, n, delta=DELTA) == reference_greedy_value(spec, n, DELTA)


@pytest.mark.parametrize(
    "desc, n", [("gen:bm,perm=mulmod,m=8", 24), ("gen:bm,perm=mulmod,m=8", 40), ("gen:counter,m=15", 30)]
)
def test_large_sparse_tries_are_walked_from_the_root(desc, n):
    # 2**16 and 2**15 seeds, 32,768 to 56,970 words of 24 to 40 rounds: far too
    # sparse for tables, so one walk from the root visits every split.
    spec = parse_strategy(desc, n)
    assert not _dense(spec, n)
    assert best_response_value(spec, n) == reference_range_greedy_value(spec, n)
    assert best_response_value(spec, n, delta=DELTA) == reference_range_greedy_value(spec, n, DELTA)


def _identity_cases():
    """Each identity family at a horizon below, at and past its seed length."""
    for k in (0, 1, 5, 8):
        for n in sorted({max(1, k - 2), max(1, k), k + 3}):
            yield pytest.param(uniform_table(k), n, id=f"uniform:{k}-n{n}")
            yield pytest.param(prefix_tail(k, "alternator", T), n, id=f"prefix-tail:{k}-n{n}")
            if k:
                yield pytest.param(generator_backed(passthrough(k)), n, id=f"passthrough:{k}-n{n}")


@pytest.mark.parametrize("spec, n", _identity_cases())
def test_identity_words_are_the_compiled_words(spec, n):
    depth = min(n, horizon(spec))
    if spec.kind == "generator" and depth < n:
        with pytest.raises(ValueError, match="generator stream too short"):
            play_words(spec, n)
        return
    before = _compile_words.cache_info()
    pw = play_words(spec, n)
    assert _compile_words.cache_info() == before  # nothing compiled, nothing cached
    assert isinstance(pw.words, range) and isinstance(pw.below, range)
    compiled = compiled_words(spec, depth)
    assert pw.depth == compiled.depth == depth
    assert list(pw.words) == list(compiled.words)
    assert list(pw.below) == list(compiled.below)
