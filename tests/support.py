"""Shared strategy/generator populations used across the test modules."""

from __future__ import annotations

from fractions import Fraction

from pennylab import (
    Action,
    Seed,
    act,
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
    uniform_table,
)
from pennylab.game import round_weights
from pennylab.prng import PREDICTORS, check_seed_space, int_to_bits, seed_stream
from pennylab.strategies import mirror, split


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
                seq.append(act(opponent, seed, tuple((a, Action.H) for a in seq), r))
            action = seq[-1]
        else:
            action = act(opponent, seed, mirror(history), t)
        (heads if action is Action.H else tails).append(value)
    return heads, tails


def reference_round_plays(spec, t):
    """Seed-by-seed play table of an oblivious spec at round t: byte s is 1 iff seed s plays H.

    The slow path `strategies.round_plays` is checked against: one `Seed` and
    one `act` per seed, on a filler history an oblivious family never reads.
    """
    filler = ((Action.H, Action.H),) * (t - 1)
    return bytes(
        act(spec, Seed(int_to_bits(value, spec.seed_len)), filler, t) is Action.H
        for value in range(1 << spec.seed_len)
    )


def reference_prediction_hits(g, predictor):
    """Exact per-position hit counts of `predictor` on `g`, one `seed_stream` per seed.

    The reference `prng.eval_next_bit_predictor`'s exact mode, which reads
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
        heads, tails = split(opponent, alive, history, t)
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
