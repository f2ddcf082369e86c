"""Reductions between game payoff and stream distinguishing/prediction.

`payoff_to_distinguisher` turns a generator-backed player's payoff advantage
into an exact single-round distinguishing advantage; `predictor_accuracy` gives
a next-bit predictor's exact accuracy q against an oblivious opponent, and the
adaptive `strategies.predictor_backed` player built on that predictor earns
2q - 1 per round, twice its prediction advantage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .game import round_weights
from .oracle import round_payoffs
from .prng import GeneratorSpec, predictor_chooser, resolve_predictor
from .strategies import StrategySpec, generator_backed, word_hits


def per_round_payoffs(s: StrategySpec, g: GeneratorSpec, n: int) -> list[Fraction]:
    """Exact per-round payoffs E[A_i] of the generator-backed seat-1 player against s.

    A_i takes values in {-1, +1}; the equivalent {0, 1} win-indicator
    normalization is Pr[seat 1 wins round i] = (E[A_i] + 1)/2, so both carry
    the same distinguishing advantage |E[A_i]| / 2.
    """
    if g.out_len < n:
        raise ValueError("generator stream too short for this horizon")
    return round_payoffs(generator_backed(g), s, n)


def round_win_probabilities(s: StrategySpec, g: GeneratorSpec, n: int) -> list[Fraction]:
    """Per-round probabilities that the generator-backed player wins: (E[A_i] + 1)/2."""
    return [(e + 1) / 2 for e in per_round_payoffs(s, g, n)]


def payoff_to_distinguisher(
    s: StrategySpec,
    g: GeneratorSpec,
    n: int,
    delta: Optional[Fraction] = None,
) -> tuple[int, Fraction]:
    """Best single-round distinguishing advantage of playing generator g against s.

    The generator-backed player sits in seat 1.  The returned advantage is
    max_i |E[A_i]| / 2, which equals |Pr[test accepts G] - 1/2| for the test
    that outputs 1 iff seat 1 wins round i: against true uniform bits that
    round is a coin flip.  Since the maximum dominates the mean, the advantage
    is at least |E[U]| / 2.

    With `delta` set, each round's payoff is weighted delta**i first.
    """
    per_round = per_round_payoffs(s, g, n)
    if delta is not None:
        per_round = [w * e for w, e in zip(round_weights(delta, n)[1:], per_round)]
    best = max(range(n), key=lambda i: (abs(per_round[i]), -i))
    return best + 1, abs(per_round[best]) / 2


def predictor_accuracy(predictor: str, opponent: StrategySpec, n: int) -> Fraction:
    """Exact per-round prediction accuracy of a registered predictor against an oblivious opponent.

    Averaged over the opponent's uniform seed and all n rounds.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    if not opponent.oblivious:
        raise ValueError("accuracy is defined against oblivious opponents")
    hits, space = word_hits(predictor_chooser(resolve_predictor(predictor)), opponent, n)
    return Fraction(sum(hits), space * n)
