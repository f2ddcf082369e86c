"""Shared populations, and the slow reference paths the fast ones are checked against."""

from __future__ import annotations

import argparse
import math
import os
from fractions import Fraction
from typing import NamedTuple

from pennylab import cli
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
    passthrough,
    predictor_backed,
    prefix_tail,
    register_predictor,
    simulate,
    uniform_table,
)
from pennylab.exploiter import potential_step
from pennylab.game import RationalLike, Transcript, as_fraction
from pennylab.oracle import round_payoffs
from pennylab.prng import (
    PREDICTORS,
    Chooser,
    bits_to_int,
    check_seed_space,
    int_to_bits,
    permutation,
    round_bits,
    seed_bit_column,
    seed_stream,
)
from pennylab.strategies import StrategySpec, chooser, horizon
from pennylab.words import PlayWords, compile_words, split_words


def _const0(prefix):
    return 0


def _const1(prefix):
    return 1


def _frequency(prefix):
    # Majority vote among previously seen bits in the same parity class as the
    # target position; ties and empty classes guess 1.  The parity split is
    # what lets the predictor lock onto period-2 structure.
    same = prefix[len(prefix) % 2 :: 2]
    ones = sum(same)
    return 1 if 2 * ones >= len(same) else 0


def _markov1(prefix):
    if not prefix:
        return 1
    prev = prefix[-1]
    successors = [prefix[j + 1] for j in range(len(prefix) - 1) if prefix[j] == prev]
    ones = sum(successors)
    return 1 if 2 * ones >= len(successors) else 0


def _periodicity(prefix):
    # Smallest period consistent with the whole prefix; the prefix-length
    # period is vacuously consistent, so this always resolves.
    length = len(prefix)
    if length == 0:
        return 1
    for p in range(1, length + 1):
        if all(prefix[j] == prefix[j - p] for j in range(p, length)):
            return prefix[length - p]
    raise AssertionError("unreachable")


# The built-in predictors as prefix functions, written independently of the
# choosers that define them in `pennylab.prng`.
REFERENCE_PREDICTORS = {
    "const0": _const0,
    "const1": _const1,
    "frequency": _frequency,
    "markov1": _markov1,
    "periodicity": _periodicity,
}

# The prefix functions tests registered through `register_prefix_predictor`, by name.
REGISTERED_PREFIX_FUNCTIONS = {}


def prefix_chooser(fn):
    """The prefix function `fn` as a `Chooser` whose state is the prefix itself, so each step copies it."""
    return Chooser((), fn, lambda prefix, bit: prefix + (bit,))


def register_prefix_predictor(monkeypatch, name, fn):
    """Register `fn` as the predictor `name` through `prefix_chooser`, and as its reference; teardown removes both."""
    monkeypatch.setitem(PREDICTORS, name, None)
    monkeypatch.setitem(REGISTERED_PREFIX_FUNCTIONS, name, fn)
    register_predictor(name, prefix_chooser(fn))


def reference_predictor(name):
    """The prefix function a predictor name stands for.

    The function a test registered, any truthy guess read as 1, else a
    built-in's reference body above.
    """
    if name in REGISTERED_PREFIX_FUNCTIONS:
        fn = REGISTERED_PREFIX_FUNCTIONS[name]
        return lambda prefix: 1 if fn(prefix) else 0
    return REFERENCE_PREDICTORS[name]


def round_weights(delta: Fraction, n: int) -> list[Fraction]:
    """Discount weights [delta**0, delta**1, ..., delta**n]; round t is weighted delta**t."""
    weights = [Fraction(1)]
    for _ in range(n):
        weights.append(weights[-1] * delta)
    return weights


def payoff_fractions(s1, s2, n):
    """`oracle.round_payoffs` as one Fraction per round, its cycle expanded to all n rounds."""
    values, den, cycle = round_payoffs(s1, s2, n)
    values = list(values) + [cycle[j % len(cycle)] for j in range(n - len(values))]
    return [Fraction(v, den) for v in values]


def discounted_payoff(t: Transcript, delta: RationalLike) -> Fraction:
    """Sum of delta**round * stage payoff, with round 1 weighted delta**1.

    `delta` must be a rational in (0, 1); pass a Fraction or a 'p/q' string to
    keep the result exact.
    """
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ValueError("invalid discount factor")
    weights = round_weights(d, len(t))
    return sum((w * stage_payoff(a, b) for w, (a, b) in zip(weights[1:], t)), Fraction(0))


def bit_to_action(bit: int) -> Action:
    """Seed/stream bit to action: 1 plays H, 0 plays T."""
    return Action.H if bit else Action.T


def stage_payoff(a: Action, b: Action) -> int:
    """Player 1's payoff for a single round: +1 on matching plays, -1 otherwise.

    Player 1 is the matcher; player 2's payoff is the negation.
    """
    return 1 if a is b else -1


def cumulative_payoff(t: Transcript) -> int:
    """Player 1's total payoff over the whole transcript."""
    return sum(stage_payoff(a, b) for a, b in t)


def seed_plays(spec, seed, n):
    """An oblivious strategy's plays at rounds 1..n for one seed: its `chooser`'s guesses, as actions."""
    return tuple(map(bit_to_action, map(chooser(spec, n, seed).guess, range(n))))


def format_transcript(t: Transcript) -> str:
    """"HH,HT,TT" for a transcript, player 1's symbol first in each pair: `parse_transcript`'s inverse."""
    return ",".join(a.value + b.value for a, b in t)


def parse_transcript(text: str) -> Transcript:
    """Parse "HH,HT,TT" (player 1's symbol first in each pair)."""
    text = text.strip()
    if not text:
        return ()
    rounds = []
    for token in text.split(","):
        token = token.strip()
        if len(token) != 2 or any(c not in "HT" for c in token):
            raise ValueError(f"malformed transcript round: {token!r}")
        rounds.append((Action(token[0]), Action(token[1])))
    return tuple(rounds)


def expected_potential_step(p: Fraction | float) -> float:
    """Closed-form expected per-round potential increase 2p - 1 + H(p).

    At least 1 on the whole domain [1/2, 1], with equality exactly at the
    endpoints.
    """
    p = float(p)
    if not 0.5 <= p <= 1.0:
        raise ValueError("majority fraction must lie in [1/2, 1]")
    entropy = 0.0
    if 0.0 < p < 1.0:
        entropy = -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    return 2.0 * p - 1.0 + entropy


def mirror(history):
    """Swap the two columns, converting one seat's view into the other's."""
    return tuple((b, a) for a, b in history)


def inner_product_bit(x, y):
    """Parity of the bitwise AND of two equal-length bit tuples."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return sum(a & b for a, b in zip(x, y)) & 1


def reference_stream(g, bits):
    """A generator's output for the seed bit tuple `bits`, from each family's definition.

    The reference `prng.seed_stream`, which works on the seed integer, is
    checked against.  Blum-Micali bit i is perm**(n-i+1)(x) ip y, by
    `inner_product_bit` on the bit tuples of the two halves.
    """
    n = g.out_len
    if g.kind == "uniform-passthrough":
        return tuple(bits)
    if g.kind == "broken-repeat":
        return tuple(bits[i % 2] for i in range(n))
    if g.kind == "broken-counter":
        return sum((int_to_bits(bits_to_int(bits) + j, g.m) for j in range((n + g.m - 1) // g.m)), ())[:n]
    fn, x, y = permutation(g.perm, g.m), bits_to_int(bits[: g.m]), bits[g.m :]
    chain = [x]
    for _ in range(n):
        chain.append(fn(chain[-1]))
    return tuple(inner_product_bit(int_to_bits(chain[n - i + 1], g.m), y) for i in range(1, n + 1))


def reference_fixed_play(spec, t):
    """Round t's play when it reads no seed bit, else None: the per-round rule `strategies.tail_cycle` must match.

    Every round of a `constant`, an `alternator` or a seedless uniform table
    (constant H), and a `prefix-tail` round past its prefix, whose
    alternating tail starts with `tail_start` on round prefix_len + 1.
    """
    if spec.kind == "constant":
        return spec.param("play")
    if spec.kind == "uniform-table" and not spec.seed_len:
        return Action.H
    if spec.kind == "alternator":
        return spec.param("first") if t % 2 else spec.param("first").flip()
    if spec.kind == "prefix-tail" and t > spec.seed_len:
        start, offset = spec.param("tail_start"), t - spec.seed_len
        return start if spec.param("tail_kind") == "constant" or offset % 2 else start.flip()
    return None


def reference_act(spec, seed, history, round):
    """A strategy's play at `round` in the paper's (seed, history, round) form.

    `seed` is a `Seed`, so its reads are tracked, and `history` holds the
    previous round - 1 entries as (own, opponent) pairs.  An oblivious spec
    reads only the seed; a predictor rereads the opponent's whole column, and
    an exploiter refilters its opponent's seed list with
    `reference_exploiter_act`.
    """
    if len(seed) != spec.seed_len:
        raise ValueError("budget violation")
    if round < 1:
        raise ValueError("rounds are indexed from 1")
    if len(history) != round - 1:
        raise ValueError("history length mismatch")
    play = reference_fixed_play(spec, round)
    if play is not None:
        return play
    if spec.kind in ("uniform-table", "prefix-tail"):
        return bit_to_action(seed.bit((round - 1) % spec.seed_len))
    if spec.kind == "generator":
        g = spec.param("generator")
        if round > g.out_len:
            raise ValueError("generator stream too short for this round")
        return bit_to_action(reference_stream(g, seed.all_bits())[round - 1])
    if spec.kind == "predictor":
        column = tuple(int(opp is Action.H) for _, opp in history)
        guess = bit_to_action(reference_predictor(spec.param("predictor"))(column))
        return guess.flip() if spec.param("beat") else guess
    return reference_exploiter_act(spec.param("opponent"), history, spec.param("beat"))


def chooser_play(spec, history):
    """An adaptive spec's play after `history` (its own view), by folding its chooser over the opponent's column."""
    c = chooser(spec, len(history) + 1)
    state = c.init
    for _, seen in history:
        state = c.step(state, seen is Action.H)
    return bit_to_action(c.guess(state))


def opponents_with_budget(n: int, k: int):
    """Shipped oblivious opponents whose declared budget is exactly k bits."""
    out = [("uniform", uniform_table(k))]
    if k == 0:
        out.append(("const-H", constant(Action.H)))
        out.append(("alt-H", alternator(Action.H)))
    if 0 < k < n:
        out.append(("prefix-tail", prefix_tail(k, "alternator", Action.H)))
    if k >= 1:
        out.append(("counter", generator_backed(broken_counter(k, n))))
    if k == 2:
        out.append(("repeat", generator_backed(broken_repeat(n))))
    if k >= 2 and k % 2 == 0:
        out.append(("bm-add1", generator_backed(blum_micali("add1", k // 2, n))))
        out.append(("bm-mulmod", generator_backed(blum_micali("mulmod", k // 2, n))))
    if k == n:
        out.append(("passthrough", generator_backed(passthrough(n))))
    return out


def oblivious_population(n: int, max_bits: int = 4):
    """A cross-section of oblivious strategies with budgets up to max_bits."""
    out = [
        ("const-H", constant(Action.H)),
        ("const-T", constant(Action.T)),
        ("alt-H", alternator(Action.H)),
        ("alt-T", alternator(Action.T)),
    ]
    for k in range(0, max_bits + 1):
        out.append((f"uniform-{k}", uniform_table(k)))
    if n > 2:
        out.append(("prefix-tail-2", prefix_tail(2, "alternator", Action.H)))
        out.append(("prefix-tail-const", prefix_tail(2, "constant", Action.H)))
    out.append(("repeat", generator_backed(broken_repeat(n))))
    out.append(("counter", generator_backed(broken_counter(3, n))))
    out.append(("bm-identity", generator_backed(blum_micali("identity", 2, n))))
    out.append(("bm-add1", generator_backed(blum_micali("add1", 2, n))))
    out.append(("bm-mulmod", generator_backed(blum_micali("mulmod", 3, n))))
    return out


def generator_population(n: int):
    return [
        ("bm-identity", blum_micali("identity", 2, n)),
        ("bm-add1", blum_micali("add1", 2, n)),
        ("bm-mulodd", blum_micali("mulodd", 3, n)),
        ("bm-mulmod", blum_micali("mulmod", 3, n)),
        ("repeat", broken_repeat(n)),
        ("counter", broken_counter(3, n)),
        ("passthrough", passthrough(n)),
    ]


def adaptive_population():
    return [
        ("pred-frequency", predictor_backed("frequency")),
        ("pred-markov1-beat", predictor_backed("markov1", beat=True)),
        ("exploit-uniform2", exploiter_vs(uniform_table(2))),
    ]


# SHA-256 of the acceptance criterion-8 artifacts, recorded before the front
# end was rebuilt around one command table; any byte change shows up here, on
# the running interpreter (`test_cli.py`) and on every other one found
# (`test_interpreters.py`).
GOLDEN_DIGESTS = {
    "simulate --n 4 --p1 uniform:4 --p2 alt:H --seed1 1010": "f5f3e37b380b58118d938cd4c82c795c3fb950adc34b3c5498dfe6f5b33437c4",
    "exploit --n 10 --opponent uniform:4 --opponent-seed 7": "0d52a230de41b1fa22e5dd95f33678a8b021ee368e15a34087a1c7bad998612e",
    "verify-eq --n 8 --gamma 1/2": "f7be5b732ac5fa4a994f88be8a2b37cd94543cd820005ff4cdde4b4ab7618634",
    "prng-test --gen repeat --n 8 --predictor frequency": "ca1ca1759fb8883242967c82b36a60716105f627309de2ac8d4e5bc86d850bbd",
    "discounted --delta 9/10 --epsilon 1/10": "9beafcc8b4c3f2ed9cb188e22bb268e224909a8d4da2b608e6a7826ddb228e1b",
    "sweep --n 10 --k 0..8": "1bac9a26ba28d511863e9ca74b2a9d7172bc9b749a9f60888340464e027644e6",
}

# SHA-256 of artifacts near the 2**20 seed cap, recorded before the per-round
# artifacts stopped holding per-round objects.  They run the paths that show
# only on many words: dense level tables over Blum-Micali m=10 (whose rows
# come in a row, so they share one compiled table), identity words under a
# predictor, a sparse root walk over a 2**20-seed counter, and the identity
# control.
CAP_DIGESTS = {
    "exploit --n 20 --opponent gen:bm,perm=mulmod,m=10 --opponent-seed 7": "f7cbbee61344ab21bb888fcdf7f709c46e100a3b81871a282232c72ca7cf8111",
    "verify-eq --n 20 --p1 gen:bm,perm=mulmod,m=10 --p2 gen:bm,perm=mulmod,m=10": "0041d01012ce09ab54d81ed37b12f35dec2d63b5704c8f36f2541379d3b6207f",
    "verify-eq --n 20 --p1 exploit:vs=gen:bm,perm=mulmod,m=10 --p2 gen:bm,perm=mulmod,m=10": "04f0022a580ec979b82b9dac424d1c5c95271814df80523ff99517f20a27bb7d",
    "discounted --delta 1/2 --epsilon 1/2 --n 20 --prefix gen:bm,perm=mulmod,m=10": "6e3d4d9b266dbf901f1d5e596843f02b9b879c04828e5ea7bcf20d14127bd071",
    "prng-test --gen bm --m 10 --n 20 --predictor markov1": "a73fda247dec2c2cd9a7be12f5249b4b90b7f641d9eb55023d70701510012b98",
    "verify-eq --n 20 --p1 pred:markov1 --p2 uniform:18": "6e78815cff61772f09ba71f343d57bd779069f2b7ab1b8a7b69b494c2d060c28",
    "verify-eq --n 40 --p1 exploit:vs=gen:counter,m=20 --p2 gen:counter,m=20": "376eea543cebf3288c46ec5b06cc1d570db7793c778f8a9ed9637f101469e608",
    "exploit --n 22 --opponent uniform:20 --opponent-seed 7": "2be7b7ffa11d1a6b2e962667c4cff5c09ec7bce87573e284f982ac096e77ec86",
}


PREDICTOR_NAMES = tuple(REFERENCE_PREDICTORS)
PERMUTATION_NAMES = ("identity", "add1", "mulodd", "mulmod")


def reference_split(opponent, alive, history, t):
    """Seed-by-seed partition of `alive` by the opponent's round-t action: (H's, T's).

    The slow path the exploiter's chooser (`strategies.majority_chooser`) is
    checked against.  An oblivious opponent replays its own first t actions,
    seeing them in its own column and H in the other; an adaptive one acts
    on the mirror of `history`.
    """
    heads, tails = [], []
    for value in alive:
        seed = Seed(int_to_bits(value, opponent.seed_len))
        if opponent.oblivious:
            seq = []
            for r in range(1, t + 1):
                seq.append(reference_act(opponent, seed, tuple((a, Action.H) for a in seq), r))
            action = seq[-1]
        else:
            action = reference_act(opponent, seed, mirror(history), t)
        (heads if action is Action.H else tails).append(value)
    return heads, tails


def round_plays(spec, t):
    """An oblivious strategy's plays at round `t`: byte s is 1 iff seed s plays H.

    The table `strategies.round_heads` counts, compiled family by family from
    the seed integer, with no per-seed stream:

    - a round that reads no seed bit repeats its `reference_fixed_play` for all seeds;
    - a `generator` round is `prng.round_bits`;
    - every other round reads seed bit (t-1) mod seed_len, a
      `prng.seed_bit_column`.
    """
    play = reference_fixed_play(spec, t)
    if play is not None:
        return bytes([play is Action.H]) * (1 << spec.seed_len)
    if spec.kind == "generator":
        return round_bits(spec.param("generator"), t)
    return seed_bit_column(spec.seed_len, (t - 1) % spec.seed_len)


def compiled_words(spec, depth):
    """Any oblivious spec's play words over rounds 1..depth, compiled from its `round_plays` tables.

    `strategies.play_words` compiles only generators other than passthrough;
    every other family's identity words are checked against these.
    """
    return PlayWords(*compile_words(lambda t: round_plays(spec, t), depth, 1 << spec.seed_len), depth)


def reference_round_plays(spec, t):
    """Seed-by-seed play table of an oblivious spec at round t: byte s is 1 iff seed s plays H.

    The fast table `round_plays`, and through it `strategies.round_heads`, is
    checked against: one `Seed` and one `reference_act` per seed, on a filler
    history an oblivious family never reads.
    """
    filler = ((Action.H, Action.H),) * (t - 1)
    return bytes(
        reference_act(spec, Seed(int_to_bits(value, spec.seed_len)), filler, t) is Action.H
        for value in range(1 << spec.seed_len)
    )


def reference_prediction_hits(g, predictor):
    """Exact per-position hit counts of `predictor` on `g`, one `seed_stream` per seed.

    The reference `reductions.eval_next_bit_predictor`'s exact mode, which reads
    compiled `round_bits` tables and memoizes guesses by prefix, is checked
    against: one predictor call per seed and position, on that seed's prefix.
    """
    fn = reference_predictor(predictor)
    hits = [0] * g.out_len
    for value in range(check_seed_space(g.seed_len)):
        stream = seed_stream(g, value)
        for i in range(g.out_len):
            hits[i] += fn(stream[:i]) == stream[i]
    return hits


def reference_tree_best_response(opponent, n, deviator, delta):
    """Expectimax over full histories; the opponent's seed is the only hidden state.

    The reference `oracle.best_response_value`'s consistent-set walk is
    checked against: at every history it tries both plays, so it is optimal
    against any opponent, not only oblivious or seedless ones.
    """
    space = check_seed_space(opponent.seed_len)
    weights = None if delta is None else round_weights(delta, n)
    memo = {}
    zero = Fraction(0)

    def value(t, history, alive):
        if t > n:
            return zero
        if opponent.oblivious:
            # Our own actions never influence an oblivious opponent, so states
            # collapse onto the observed opponent-action prefix.
            key = tuple(b for _, b in history)
        else:
            key = history
        hit = memo.get(key)
        if hit is not None:
            return hit
        heads, tails = list_split(opponent, alive, history, t)
        best = None
        for play in (Action.H, Action.T):
            acc = zero
            for branch, group in ((Action.H, heads), (Action.T, tails)):
                if not group:
                    continue
                win = (play is branch) if deviator == 1 else (play is not branch)
                step = Fraction(1) if win else Fraction(-1)
                if weights is not None:
                    step = weights[t] if win else -weights[t]
                prob = Fraction(len(group), len(alive))
                acc += prob * (step + value(t + 1, history + ((play, branch),), group))
            if best is None or acc > best:
                best = acc
        memo[key] = best
        return best

    result = value(1, (), list(range(space)))
    return result / n if delta is None else result


class ConsistentSet(NamedTuple):
    """Opponent seeds still consistent with observed play, at a given round."""

    opponent: StrategySpec
    alive: tuple[int, ...]
    round: int


def init_consistent(opponent):
    """Start a match: every opponent seed is alive, round index 1."""
    space = check_seed_space(opponent.seed_len)
    return ConsistentSet(opponent, tuple(range(space)), 1)


def potential(cs, accumulated_payoff):
    """phi at the set's current round, given payoff accumulated so far."""
    return accumulated_payoff - math.log2(len(cs.alive))


def list_split(opponent, alive, history, t):
    """Partition the seed list `alive` by the action each plays at round `t`: (H's, T's).

    The seed-list partition that `strategies.majority_chooser`'s word ranges
    replaced, kept as a reference: oblivious opponents read this module's
    `round_plays` table, and a seedless adaptive one acts on the mirror of
    `history`.  Order within `alive` is kept.
    """
    if opponent.oblivious:
        plays = round_plays(opponent, t)
        return [s for s in alive if plays[s]], [s for s in alive if not plays[s]]
    if alive and reference_act(opponent, Seed(()), mirror(history), t) is Action.H:
        return list(alive), []
    return [], list(alive)


def majority_action(cs, history):
    """The opponent action the largest fraction of alive seeds implies, with that fraction.

    Under the matcher convention the exploiter then plays the same action.
    Ties predict H.
    """
    if not cs.alive:
        raise ValueError("inconsistent observation")
    heads, tails = list_split(cs.opponent, cs.alive, history, cs.round)
    if len(heads) >= len(tails):
        return Action.H, Fraction(len(heads), len(cs.alive))
    return Action.T, Fraction(len(tails), len(cs.alive))


def filter_consistent(cs, observed, history):
    """Keep exactly the seeds that predicted `observed` this round; advance the round."""
    heads, tails = list_split(cs.opponent, cs.alive, history, cs.round)
    kept = heads if observed is Action.H else tails
    if not kept:
        raise ValueError("inconsistent observation")
    return ConsistentSet(cs.opponent, tuple(kept), cs.round + 1)


def reference_greedy_value(opponent, n, delta=None):
    """The majority strategy's exact value by a walk over seed lists.

    The reference `oracle.best_response_value`'s play-word walk is checked
    against: nodes are `(round, alive seeds)`, split with `list_split`, and a
    node with one live seed wins every remaining round.
    """
    space = check_seed_space(opponent.seed_len)
    wins = [0] * (n + 1)
    lone = [0] * (n + 1)
    stack = [(1, list(range(space)))]
    while stack:
        t, alive = stack.pop()
        if len(alive) == 1:
            lone[t] += 1
            continue
        heads, tails = list_split(opponent, alive, (), t)
        wins[t] += abs(len(heads) - len(tails))
        if t < n:
            stack.extend((t + 1, group) for group in (tails, heads) if group)
    running = 0
    for t in range(1, n + 1):
        running += lone[t]
        wins[t] += running
    if delta is None:
        return Fraction(sum(wins), space * n)
    return sum((w * d for w, d in zip(round_weights(delta, n)[1:], wins[1:])), Fraction(0)) / space


def reference_range_wins(pw, n):
    """`words.majority_wins` by a walk over every node of the trie of the play words `pw`.

    `majority_wins` before its level tables: depth-first off a stack
    of `(round, lo, hi)` ranges of words, where a range of one word wins
    every remaining round.
    """
    words, below, depth, _ = pw
    wins = [0] * (n + 1)
    lone = [0] * (n + 1)
    stack = [(1, 0, len(words))]
    while stack:
        t, lo, hi = stack.pop()
        if hi - lo == 1:
            lone[t] += below[hi] - below[lo]
            continue
        mid = split_words(words, lo, hi, depth - t)
        wins[t] += abs(below[hi] + below[lo] - 2 * below[mid])
        if t < n:
            stack.extend((t + 1, a, b) for a, b in ((lo, mid), (mid, hi)) if a < b)
    running = 0
    for t in range(1, n + 1):
        running += lone[t]
        wins[t] += running
    return wins


def reference_range_greedy_value(opponent, n, delta=None):
    """`oracle.best_response_value` by `reference_range_wins` over the words `compiled_words` builds, never the identity words."""
    check_seed_space(opponent.seed_len)
    depth = min(n, horizon(opponent))
    if opponent.kind == "generator" and depth < n:
        raise ValueError("generator stream too short for this round")
    pw = compiled_words(opponent, depth)
    space, wins = pw.below[-1], reference_range_wins(pw, n)
    if delta is None:
        return Fraction(sum(wins), space * n)
    return sum((w * d for w, d in zip(round_weights(delta, n)[1:], wins[1:])), Fraction(0)) / space


def reference_play_rows(opponent, seed, n):
    """`play_match`'s trace rows by seed lists: (round, p, alive size, payoff, phi, delta_phi) per round."""
    return reference_play(opponent, seed, n)[0]


def reference_play(opponent, seed, n):
    """`reference_play_rows` and the potential after the match: its payoff less log2 of the seeds left."""
    alive = list(range(check_seed_space(opponent.seed_len)))
    history, rows, accumulated = [], [], 0
    seed = Seed(int_to_bits(seed, opponent.seed_len))
    for t in range(1, n + 1):
        heads, tails = list_split(opponent, alive, tuple(history), t)
        predicted = Action.H if len(heads) >= len(tails) else Action.T
        p = Fraction(max(len(heads), len(tails)), len(alive))
        observed = reference_act(opponent, seed, mirror(tuple(history)), t)
        payoff = 1 if observed is predicted else -1
        phi = accumulated - math.log2(len(alive))
        rows.append((t, p, len(alive), payoff, phi, potential_step(p, observed is predicted)))
        alive = heads if observed is Action.H else tails
        history.append((predicted, observed))
        accumulated += payoff
    return rows, accumulated - math.log2(len(alive))


def reference_exploiter_act(opponent, history, beat=False):
    """The exploiter's play after `history` (its own view), by filtering the seed list round by round."""
    alive = list(range(check_seed_space(opponent.seed_len)))
    for t in range(1, len(history) + 1):
        heads, tails = list_split(opponent, alive, history[: t - 1], t)
        alive = heads if history[t - 1][1] is Action.H else tails
    heads, tails = list_split(opponent, alive, history, len(history) + 1)
    predicted = Action.H if len(heads) >= len(tails) else Action.T
    return predicted.flip() if beat else predicted


def reference_stream_hits(fn, streams, n):
    """Per-position hit counts over explicit streams, one `fn` call per distinct short prefix.

    The memoized stream loop `words.prediction_hits`' trie walk replaced, kept
    as a reference: guesses for prefixes under 20 bits are memoized by the
    prefix read as a binary number after a leading 1; longer prefixes are
    each passed to `fn`.
    """
    hits = [0] * n
    unknown = 0xFF
    guesses = bytearray([unknown]) * (1 << min(n, 20))
    size = len(guesses)
    for stream in streams:
        key = 1
        for i in range(n):
            bit = stream[i]
            if key < size:
                guess = guesses[key]
                if guess == unknown:
                    guess = guesses[key] = fn(stream[:i])
                key = key << 1 | bit
            else:
                guess = fn(stream[:i])
            if guess == bit:
                hits[i] += 1
    return hits


def reference_simulate(s1, seed1, s2, seed2, n):
    """The transcript of two strategies by `reference_act` on each seat's view of the whole history, every round.

    The slow path `strategies.simulate`, which steps an adaptive seat's
    chooser instead, is checked against: a predictor rereads the whole
    prefix and an exploiter refilters its opponent's seeds each round.
    """
    sd1, sd2 = Seed(int_to_bits(seed1, s1.seed_len)), Seed(int_to_bits(seed2, s2.seed_len))
    rounds = []
    for t in range(1, n + 1):
        rounds.append((reference_act(s1, sd1, tuple(rounds), t), reference_act(s2, sd2, mirror(tuple(rounds)), t)))
    return tuple(rounds)


def reference_round_payoffs(s1, s2, n):
    """Player 1's per-round expected payoff by simulating every seed pair with `reference_act`."""
    transcripts = [
        reference_simulate(s1, v1, s2, v2, n) for v1 in range(1 << s1.seed_len) for v2 in range(1 << s2.seed_len)
    ]
    return [Fraction(sum(stage_payoff(*t[i]) for t in transcripts), len(transcripts)) for i in range(n)]


def reference_accuracy(predictor, opponent, n):
    """A predictor's exact accuracy against an oblivious opponent, one replayed stream per seed."""
    fn = reference_predictor(predictor)
    streams = [
        tuple(a is Action.H for a, _ in simulate(opponent, value, constant(Action.H), 0, n))
        for value in range(1 << opponent.seed_len)
    ]
    return Fraction(sum(reference_stream_hits(fn, [tuple(map(int, s)) for s in streams], n)), len(streams) * n)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser `cli.parse_config`'s reader replaced, with every command.

    Abbreviated flags are off, as the reader has none, and a usage error
    raises `ValueError` with argparse's message instead of exiting.
    """

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = Parser(prog="pennylab", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for field, cast, _ in command.fields:
            p.add_argument("--" + field.replace("_", "-"), dest=field, type=cast)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--run-id", dest="run_id")
    return parser


def reference_config_file(path, keys):
    """A config file's `key = value` lines as a dict, by the loop `cli.parse_config` had before its reader."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as e:
        raise ValueError(f"{path}: cannot read config: {e.strerror}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown config key: {key!r}")
        values[key] = value.strip()
    return values


def reference_parse_config(argv):
    """`cli.parse_config` by `reference_parser` and `reference_config_file`.

    It keeps the reader's two rules argparse had no part in: a config-file
    value is cast even when a flag overrides it, and an `--out` that names a
    directory is bad input.
    """
    args = reference_parser().parse_args(argv)
    command = cli.COMMANDS[args.command]
    keys = {name for name, _, _ in command.fields} | {"out", "run_id"}
    filecfg = reference_config_file(args.config, keys) if args.config else {}
    values = {}
    for name, cast, default in command.fields:
        value = getattr(args, name)
        if name in filecfg:
            cast(filecfg[name])
        if value is None and name in filecfg:
            value = cast(filecfg[name])
        elif value is None and default is cli.REQUIRED:
            raise ValueError(f"missing required field: {name}")
        elif value is None:
            value = default(values) if callable(default) else default
        values[name] = value
    if values["n"] < 1:
        raise ValueError("horizon must be positive")
    command.inputs(values)
    out = args.out or filecfg.get("out")
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise ValueError(f"bad output path: {out}")
    canonical = args.command + ";" + ";".join(f"{k}={values[k]}" for k in sorted(values))
    run_id = args.run_id or filecfg.get("run_id") or cli.sha256(canonical.encode()).hexdigest()[:12]
    return cli.ExperimentConfig(args.command, values, run_id, out)
