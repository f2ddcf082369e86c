"""Play words, the one compiled form of an oblivious opponent, and the walks over their trie.

Every consistent set is an index range of the sorted distinct words.  Nothing
here reads a strategy spec: `strategies.play_words` picks a spec's words.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from functools import partial
from itertools import accumulate, chain, compress, cycle, islice
from operator import add, le, ne, sub
from typing import Callable, NamedTuple, Sequence

from .prng import Chooser, int_to_bits

# Typecodes by item size: play words up to 64 bits wide live in an `array`,
# and seed counts (at most 2**20, or the sample count) in four bytes.
_CODES = {array(code).itemsize: code for code in "BHILQ"}


class PlayWords(NamedTuple):
    """An oblivious spec compiled to the sorted distinct play words of its seeds, for a game of n rounds.

    Bit depth - t of a word is its seeds' play at round t (1 is H), for rounds
    1..depth.  below[j] counts the seeds whose word is below words[j], so the
    seeds of a range [lo, hi) of words number below[hi] - below[lo].  Every
    consistent set is such a range: the words agreeing with the plays seen.
    Past the depth every word repeats `cycle`, or its own bits if the cycle is
    empty (`late_plays`).  A seedless adaptive spec compiles to one empty word
    of its one seed and no cycle; its exploiter sets the cycle to its plays, one byte a round.
    """

    words: Sequence[int]
    below: Sequence[int]
    depth: int
    cycle: Sequence[int] = ()


def identity_words(depth: int, space: int) -> PlayWords:
    """Words of seeds whose round t plays seed bit t-1: every depth-bit integer, each held by space >> depth seeds."""
    return PlayWords(range(1 << depth), range(0, space + 1, space >> depth), depth)


def is_identity(pw: PlayWords) -> bool:
    """Whether `pw` are `identity_words`: every depth-bit word, each held by the same number of seeds."""
    return isinstance(pw.below, range) and len(pw.words) == 1 << pw.depth


def late_plays(pw: PlayWords, lo: int) -> Sequence[int]:
    """The plays c (1 is H) word `lo` repeats past the depth, round t > depth playing c[(t - 1 - depth) % len(c)]."""
    c = pw.cycle or int_to_bits(pw.words[lo], pw.depth)
    if not c:
        raise ValueError("seedless play words have no plays past their depth")
    return c


def compile_words(table: Callable[[int], bytes], depth: int, space: int) -> tuple[Sequence[int], Sequence[int]]:
    """The sorted distinct play words of `space` seeds over rounds 1..depth: `distinct_words`' pair.

    table(t) is round t's plays, byte s 1 iff seed s plays H; bit depth - t of
    seed s's word is that play.  Eight tables at a time are added into one
    integer with a byte per seed, which fills one byte of every word, so the
    build runs at C speed.  Words take the narrowest of 1, 2, 4 or 8 bytes
    that fits, else Python ints.  Only generators other than passthrough
    come here (every other family has `identity_words`).  Dense words, where
    a table of every depth-bit word is no larger than the seed space, are
    counted into that table, and the distinct words and `below` are read off
    its nonzero counts.  Sparser words that grow with the seed need no sort:
    counter and repeat generators, whose first plays are the seed's bits.
    Others are sorted in buckets of about 2**16 seeds by their top bits, so
    the sort holds no more than that many as Python ints at once, and the
    sorted words are deduplicated once.
    """
    size = -(-depth // 8)
    width = next((w for w in (1, 2, 4, 8) if w >= size), size)
    field = bytearray(width * space)
    for b in range(size):  # byte b of a word holds rounds depth-8b-7..depth-8b
        acc = 0
        for t in range(max(1, depth - 8 * b - 7), depth - 8 * b + 1):
            acc = (acc << 1) + int.from_bytes(table(t), "little")
        field[b::width] = acc.to_bytes(space, "little")
    if width in _CODES:
        store = partial(array, _CODES[width])
        words = store(field)
        if sys.byteorder == "big":
            words.byteswap()
    else:
        store = list
        words = [int.from_bytes(field[i : i + width], "little") for i in range(0, len(field), width)]
    del field  # the words hold it now
    if 1 << depth <= space:  # the 2**20 seed cap keeps depth <= 20, so the words are an array
        counts = array(_CODES[4], bytes(4 << depth))
        for word in words:
            counts[word] += 1
        below = array(_CODES[4], [0])
        below.extend(accumulate(compress(counts, counts)))
        return store(compress(range(1 << depth), counts)), below
    if not all(map(le, words, islice(words, 1, None))):
        parts = [words]
        lead = min(depth, max(0, space.bit_length() - 17))
        if lead:
            parts = [store() for _ in range(1 << lead)]
            for word in words:
                parts[word >> (depth - lead)].append(word)
        del words  # the parts hold them now
        words = store(chain.from_iterable(map(sorted, parts)))
        del parts  # the words hold them now
    return distinct_words(words)


def distinct_words(words: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    """The distinct words of the sorted `words`, and below[j], how many words lie below the j-th.

    below ends with the total, so the words in a range [lo, hi) of the
    distinct words number below[hi] - below[lo].
    """
    first = bytes(chain((1,), map(ne, islice(words, 1, None), words)))
    below = array(_CODES[4], compress(range(len(words)), first))
    below.append(len(words))
    distinct = compress(words, first)
    return (array(words.typecode, distinct) if isinstance(words, array) else list(distinct)), below


def split_words(words: Sequence[int], lo: int, hi: int, shift: int) -> int:
    """The first index of the sorted words[lo:hi], which agree above bit `shift`, with that bit set.

    The words before it have the bit clear: one bisect splits a range of play
    words by the next play.
    """
    return bisect_left(words, (words[lo] >> shift | 1) << shift, lo, hi)


def prediction_hits(chooser: Chooser, pw: PlayWords, n: int) -> list[int]:
    """Per-position hit counts: hits[i] counts the streams whose bit i the chooser guesses from bits [:i].

    The streams are the play words `pw` of a game of n positions, each
    weighted by its seed count.  One walk over the trie of their prefixes
    carries the chooser's state: `guess` once per node, `step` once per edge.
    A range of one word finishes its remaining positions in a loop that
    guesses and steps once per position, past the depth on its `late_plays`.
    """
    init, guess, step = chooser
    words, below, depth, _ = pw
    hits = [0] * n
    stack = [(0, 0, len(words), init)]
    while stack:
        i, lo, hi, state = stack.pop()
        if hi - lo == 1:
            count = below[hi] - below[lo]
            c = late_plays(pw, lo) if depth < n else ()
            bits = chain(int_to_bits(words[lo], depth - i), islice(cycle(c), n - depth))
            for j, bit in enumerate(bits, i):
                if guess(state) == bit:
                    hits[j] += count
                if j + 1 < n:
                    state = step(state, bit)
            continue
        # Two words differ within the depth, so i < depth here.
        mid = split_words(words, lo, hi, depth - 1 - i)
        g = guess(state)
        if g == 1:
            hits[i] += below[hi] - below[mid]
        elif g == 0:
            hits[i] += below[mid] - below[lo]
        if i + 1 < n:
            if lo < mid:
                stack.append((i + 1, lo, mid, step(state, 0)))
            if mid < hi:
                stack.append((i + 1, mid, hi, step(state, 1)))
    return hits


# How much larger than the number of play words a level table may be; a sparser
# trie is walked from its root instead (see `majority_wins`).
_DENSE = 8


def _word_table(words: Sequence[int], below: Sequence[int], depth: int) -> array:
    """The seed count of each depth-bit word, 0 for a word no seed plays."""
    counts = map(sub, islice(below, 1, None), below)
    if len(words) == 1 << depth:
        return array("I", counts)
    table = array("I", [0]) * (1 << depth)
    deque(map(table.__setitem__, words, counts), maxlen=0)
    return table


def majority_wins(pw: PlayWords) -> list[int]:
    """The majority strategy's wins per round over play words: wins[t] for t in 1..depth, and wins[0] = 0.

    Round t's wins are the sum, over the prefixes of rounds 1..t-1 of the
    words, of |heads - tails|: the prefix's seeds that play the majority
    action at round t minus the rest.  When 2**depth is at most _DENSE
    times the word count, they come from level tables down to the words'
    depth: h[p] is the seed count of the level-L prefix p, round L wins the
    sum of |h[2p+1] - h[2p]|, and level L-1 sums each pair, all at C speed
    with no Python code per node.  Any sparser trie is walked depth-first
    from its root off a stack of `(round, lo, hi)` ranges of words, adding
    |heads - tails| per node; a range of one word wins every later round
    with all its seeds.  Identity words (`identity_words`) need no table:
    no round up to their depth has a majority.  Past the depth every word is
    alone in its range and every seed wins, which `oracle.round_payoffs`
    credits as a cycle of the whole seed space.
    """
    words, below, depth, _ = pw
    wins = [0] * (depth + 1)
    # lone[t]: seeds of one-word nodes at round t; each wins every round from t on.
    lone = [0] * (depth + 2)
    if 1 << depth <= _DENSE * len(words):
        if not is_identity(pw):  # identity words split every prefix evenly
            h = _word_table(words, below, depth)
            for t in range(depth, 0, -1):
                wins[t] = sum(map(abs, map(sub, islice(h, 1, None, 2), islice(h, 0, None, 2))))
                h = array("I", map(add, islice(h, 0, None, 2), islice(h, 1, None, 2)))
    else:
        stack = [(1, 0, len(words))]
        while stack:
            t, lo, hi = stack.pop()
            if hi - lo == 1:
                lone[t] += below[hi] - below[lo]
                continue
            # Two words differ within the words' depth, so t <= depth here.
            mid = split_words(words, lo, hi, depth - t)
            wins[t] += abs(below[hi] + below[lo] - 2 * below[mid])
            if lo < mid:
                stack.append((t + 1, lo, mid))
            if mid < hi:
                stack.append((t + 1, mid, hi))
    running = 0
    for t in range(1, depth + 1):
        running += lone[t]
        wins[t] += running
    return wins
