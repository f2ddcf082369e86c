"""Exact expected payoffs, best responses, and Nash-gap certification.

Everything is computed by exhaustive seed enumeration with rational
arithmetic; no sampling appears anywhere on a certification path.  Every best
response is the Bayes-greedy rule (track the posterior over opponent seeds and
play against the posterior-majority action each round), valued as the
`exact_value` of that exploiter seated against its opponent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .game import round_value
from .prng import check_seed_space
from .strategies import StrategySpec, check_seed_spaces, chooser, horizon, match, play_words, round_heads
from .words import majority_wins, prediction_hits


class GapReport(NamedTuple):
    """Exact equilibrium-gap certificate for a strategy profile.

    `value` is player 1's expected average payoff at the profile; player 2's is
    its negation.  `gap_i` is how much player i could gain by an optimal
    unilateral deviation.  The profile is a gamma-Nash equilibrium exactly when
    certified_epsilon <= gamma.
    """

    value: Fraction
    best_response_1: Fraction
    best_response_2: Fraction
    gap_1: Fraction
    gap_2: Fraction
    certified_epsilon: Fraction


def round_payoffs(s1: StrategySpec, s2: StrategySpec, n: int) -> tuple[list[int], int, list[int]]:
    """Player 1's exact expected stage payoff E[h_t] for each round t = 1..n, as integers over one denominator.

    Returns `(values, den, cycle)` for `game.round_value`, the list stopped where
    the pay starts to cycle, uniform over both seed spaces.  An exploiter of the
    other seat's whole spec wins `majority_wins` up to the words' depth and every
    seed past it (`beat` negates), its chain's seed spaces capped.  Two oblivious
    seats factor through their `round_heads` counts, and pay with period 2 past both
    horizons, as every tail cycle has length 1 or 2.  An adaptive seat against an
    oblivious one earns 2 * hits / space - 1 per round, a hit being a seed of the
    other seat whose play it matches, from one `words.prediction_hits` walk over
    that seat's `play_words`.  Two adaptive seats play one `match`, over 1.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    space1 = check_seed_space(s1.seed_len)
    space2 = check_seed_space(s2.seed_len)
    for player, other in ((s1, s2), (s2, s1)):
        if player.kind == "exploiter" and player.param("opponent") == other:
            check_seed_spaces(player)
            pw = play_words(other, n)
            sign = -1 if player.param("beat") else 1
            return [sign * w for w in majority_wins(pw)[1:]], pw.below[-1], [sign * pw.below[-1]]
    if s1.oblivious and s2.oblivious:
        # Independent seeds: E[h_t] = (2*p1 - 1)(2*p2 - 1) over the two marginal H-frequencies.
        last = max(horizon(s1), horizon(s2))
        rounds = range(1, min(n, last + 2) + 1)
        values = [(2 * round_heads(s1, t) - space1) * (2 * round_heads(s2, t) - space2) for t in rounds]
        return values[:last], space1 * space2, values[last:]
    if not (s1.oblivious or s2.oblivious):
        # Two seedless seats play one path.
        return [1 if a == b else -1 for _, a, b in match(chooser(s1, n), chooser(s2, n), n)], 1, []
    player, other = (s2, s1) if s1.oblivious else (s1, s2)
    # A match pays seat 1, whichever seat the adaptive player sits in.
    pw = play_words(other, n)
    space = pw.below[-1]
    hits = prediction_hits(chooser(player, n), pw, n)
    return [2 * h - space for h in hits], space, []


def exact_value(s1: StrategySpec, s2: StrategySpec, n: int, delta: Optional[Fraction] = None) -> Fraction:
    """Player 1's exact expected payoff, uniform over both seed spaces.

    Returns the average payoff, or the discounted sum E[sum delta**t h_t] when
    `delta` is given; by linearity both are sums over `round_payoffs`.
    """
    values, den, cycle = round_payoffs(s1, s2, n)
    return round_value(values, den, n, delta, cycle)


def _deviator(opponent: StrategySpec) -> StrategySpec:
    # Built directly, not by `exploiter_vs`: an opponent MAX_NESTING deep still has a best response.
    return StrategySpec("exploiter", (("opponent", opponent), ("beat", False)))


def best_response_value(opponent: StrategySpec, n: int, *, delta: Optional[Fraction] = None) -> Fraction:
    """The exact optimum over all adaptive deviations against `opponent`, from either seat.

    It is the `exact_value` of the majority strategy seated against the
    opponent, which `round_payoffs` counts with `majority_wins`.  The value
    takes no seat: the matcher copies the majority action and the mismatcher
    flips it, so either wins on exactly the seeds that play it.  With `delta`
    set, returns the discounted sum E[sum delta**t h_t] instead.  It is the
    best response against an oblivious opponent, whose play ignores the
    deviation, and against an adaptive one, which reads no seed (every
    adaptive family's `seed_len` is 0) and so loses every round.
    """
    return exact_value(_deviator(opponent), opponent, n, delta)


def certify_gap(
    s1: StrategySpec,
    s2: StrategySpec,
    n: int,
    delta: Optional[Fraction] = None,
) -> GapReport:
    """Exact deviation gaps for both players at the profile (s1, s2).

    Each distinct pair among the profile and the two best responses is valued
    once, in order: a set's order would follow PYTHONHASHSEED and change
    which error surfaces first.
    """
    pairs = ((s1, s2), (_deviator(s2), s2), (_deviator(s1), s1))
    values = {pair: exact_value(*pair, n, delta) for pair in dict.fromkeys(pairs)}
    value, br1, br2 = (values[pair] for pair in pairs)
    gap_1 = br1 - value
    gap_2 = br2 - (-value)
    return GapReport(value, br1, br2, gap_1, gap_2, max(gap_1, gap_2))
