"""Shared populations, and the slow reference paths the fast ones are checked against."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

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
    simulate,
    stage_payoff,
    uniform_table,
)
from pennylab.exploiter import potential_step
from pennylab.game import bit_to_action, round_weights
from pennylab.prng import PREDICTORS, bits_to_int, check_seed_space, int_to_bits, permutation, seed_stream
from pennylab.strategies import StrategySpec, _compile_words, chooser, fixed_play, horizon, round_plays
from pennylab.words import split_words


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
    play = fixed_play(spec, round)
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
        guess = bit_to_action(PREDICTORS[spec.param("predictor")](tuple(int(opp is Action.H) for _, opp in history)))
        return guess.flip() if spec.param("beat") else guess
    return reference_exploiter_act(spec.param("opponent"), history, spec.param("beat"))


def chooser_play(spec, history):
    """An adaptive spec's play after `history` (its own view), by folding its chooser over the opponent's column."""
    c = chooser(spec)
    state = c.init
    for _, seen in history:
        state = c.step(state, seen is Action.H)
    return bit_to_action(c.guess(state) ^ spec.param("beat"))


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


PREDICTOR_NAMES = ("const0", "const1", "frequency", "markov1", "periodicity")
PERMUTATION_NAMES = ("identity", "add1", "mulodd", "mulmod")


def reference_split(opponent, alive, history, t):
    """Seed-by-seed partition of `alive` by the opponent's round-t action: (H's, T's).

    The slow path `strategies.split` is checked against.  An oblivious
    opponent replays its own first t actions, seeing them in its own column
    and H in the other; an adaptive one acts on the mirror of `history`.
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


def reference_round_plays(spec, t):
    """Seed-by-seed play table of an oblivious spec at round t: byte s is 1 iff seed s plays H.

    The slow path `strategies.round_plays` is checked against: one `Seed` and
    one `reference_act` per seed, on a filler history an oblivious family
    never reads.
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
    fn = PREDICTORS[predictor]
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

    The seed-list partition the range-based `strategies.split` replaced, kept
    as a reference: oblivious opponents read `round_plays`, and a seedless
    adaptive one acts on the mirror of `history`.  Order within `alive` is kept.
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

    The reference `exploiter.greedy_value`'s play-word walk is checked
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

    `greedy_value`'s walk before its level tables: depth-first off a stack
    of `(round, lo, hi)` ranges of words, where a range of one word wins
    every remaining round.
    """
    words, below, depth = pw
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
    """`greedy_value` by `reference_range_wins` over the words `_compile_words` builds, never the identity words."""
    check_seed_space(opponent.seed_len)
    depth = min(n, horizon(opponent))
    if opponent.kind == "generator" and depth < n:
        raise ValueError("generator stream too short for this round")
    pw = _compile_words(opponent, depth)
    space, wins = pw.below[-1], reference_range_wins(pw, n)
    if delta is None:
        return Fraction(sum(wins), space * n)
    return sum((w * d for w, d in zip(round_weights(delta, n)[1:], wins[1:])), Fraction(0)) / space


def reference_play_rows(opponent, seed, n):
    """`play_match`'s trace rows by seed lists: (round, p, alive size, payoff, phi, delta_phi) per round."""
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
    return rows


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
    fn = PREDICTORS[predictor]
    streams = [
        tuple(a is Action.H for a, _ in simulate(opponent, value, constant(Action.H), 0, n))
        for value in range(1 << opponent.seed_len)
    ]
    return Fraction(sum(reference_stream_hits(fn, [tuple(map(int, s)) for s in streams], n)), len(streams) * n)
