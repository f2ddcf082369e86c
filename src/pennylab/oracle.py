"""Exact expected payoffs, best responses, and Nash-gap certification.

Everything is computed by exhaustive seed enumeration with rational
arithmetic; no sampling appears anywhere on a certification path.  Every best
response is the Bayes-greedy rule (track the posterior over opponent seeds and
play against the posterior-majority action each round), computed by one walk
over the consistent sets, `exploiter.greedy_value`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .game import round_weights, stage_payoff
from .prng import check_seed_space
from .strategies import StrategySpec, chooser, round_plays, simulate, word_hits
from . import exploiter


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


def round_payoffs(s1: StrategySpec, s2: StrategySpec, n: int) -> list[Fraction]:
    """Player 1's exact expected stage payoff E[h_t] for each round t = 1..n.

    Uniform over both seed spaces.  Two oblivious seats factor through their
    play tables.  An adaptive seat against an oblivious one earns
    2 * hits / space - 1 at each round, negated when it plays against its
    guess: one `strategies.word_hits` walk over the other seat's play
    words, which guesses once per node.  Two adaptive seats play one path.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    space1 = check_seed_space(s1.seed_len)
    space2 = check_seed_space(s2.seed_len)
    if s1.oblivious and s2.oblivious:
        # Independent seeds: per-round expectations factor through the two
        # marginal H-frequencies, E[h_t] = (2*p1 - 1)(2*p2 - 1).
        return [
            Fraction(2 * sum(round_plays(s1, t)) - space1, space1)
            * Fraction(2 * sum(round_plays(s2, t)) - space2, space2)
            for t in range(1, n + 1)
        ]
    if not (s1.oblivious or s2.oblivious):
        # Two seedless seats play one path.
        return [Fraction(stage_payoff(a, b)) for a, b in simulate(s1, 0, s2, 0, n)]
    player, other = (s2, s1) if s1.oblivious else (s1, s2)
    hits, space = word_hits(chooser(player), other, n)
    # Either seat plays the opponent's guessed play (its flip when `beat`),
    # and a match pays seat 1, so a guess that hits scores +1.
    sign = -1 if player.param("beat") else 1
    return [Fraction(sign * (2 * h - space), space) for h in hits]


def exact_value(
    s1: StrategySpec,
    s2: StrategySpec,
    n: int,
    delta: Optional[Fraction] = None,
) -> Fraction:
    """Player 1's exact expected payoff, uniform over both seed spaces.

    Returns the average payoff, or the discounted sum E[sum delta**t h_t] when
    `delta` is given; by linearity both are sums over `round_payoffs`.
    """
    payoffs = round_payoffs(s1, s2, n)
    if delta is None:
        return sum(payoffs, Fraction(0)) / n
    return sum((w * e for w, e in zip(round_weights(delta, n)[1:], payoffs)), Fraction(0))


def best_response_value(
    opponent: StrategySpec,
    n: int,
    *,
    delta: Optional[Fraction] = None,
) -> Fraction:
    """The exact optimum over all adaptive deviations against `opponent`, from either seat.

    It is the Bayes-greedy walk over the opponent's consistent sets, optimal
    against an oblivious opponent, whose future play does not depend on the
    deviation, and against an adaptive one, which reads no seed
    (`StrategySpec` rejects any other) and so loses every round.  Either seat
    wins a round on exactly the seeds that play the posterior-majority
    action, the matcher by copying it and the mismatcher by flipping it.
    """
    return exploiter.greedy_value(opponent, n, delta=delta)


def certify_gap(
    s1: StrategySpec,
    s2: StrategySpec,
    n: int,
    delta: Optional[Fraction] = None,
) -> GapReport:
    """Exact deviation gaps for both players at the profile (s1, s2)."""
    value = exact_value(s1, s2, n, delta=delta)
    br1 = best_response_value(s2, n, delta=delta)
    br2 = best_response_value(s1, n, delta=delta)
    gap_1 = br1 - value
    gap_2 = br2 - (-value)
    return GapReport(value, br1, br2, gap_1, gap_2, max(gap_1, gap_2))
