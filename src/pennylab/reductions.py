"""Reductions between game payoff and stream distinguishing/prediction.

`payoff_to_distinguisher` turns a generator-backed player's payoff advantage
into an exact single-round distinguishing advantage; `predictor_accuracy` gives
a next-bit predictor's exact accuracy q against an oblivious opponent, and the
adaptive `strategies.predictor_backed` player built on that predictor earns
2q - 1 per round, twice its prediction advantage.  `eval_next_bit_predictor`
measures the same predictor against a generator's own stream, position by
position.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .game import round_weights
from .oracle import round_payoffs
from .prng import GeneratorSpec, bits_to_int, predictor_chooser, resolve_predictor, seed_stream
from .strategies import StrategySpec, generator_backed, word_hits
from .words import distinct_words, prediction_hits


def per_round_payoffs(s: StrategySpec, g: GeneratorSpec, n: int) -> list[Fraction]:
    """Exact per-round payoffs E[A_i] of the generator-backed seat-1 player against s.

    A_i takes values in {-1, +1}; the equivalent {0, 1} win-indicator
    normalization is Pr[seat 1 wins round i] = (E[A_i] + 1)/2, so both carry
    the same distinguishing advantage |E[A_i]| / 2.
    """
    if g.out_len < n:
        raise ValueError("generator stream too short for this horizon")
    return round_payoffs(generator_backed(g), s, n)


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


class PredictorReport(NamedTuple):
    """Measured next-bit prediction advantage for one generator/predictor pair.

    `advantage` is max over positions of |success probability - 1/2|;
    `per_position` keeps the signed per-position values.  Exact reports carry
    rationals computed by full seed enumeration.
    """

    advantage: Union[Fraction, float]
    samples: int
    per_position: tuple
    exact: bool
    best_position: int
    half_width: Optional[float] = None


def eval_next_bit_predictor(
    g: GeneratorSpec,
    predictor: str,
    mode: str = "exact",
    samples: int = 10_000,
    eval_seed: int = 0,
) -> PredictorReport:
    """Per-position success of the predictor registered as `predictor` on `g`'s output.

    Exact mode enumerates every seed, under the enumeration cap, by one
    `word_hits` walk over the play words of `g`'s stream.  Sampled mode draws
    seeds from an explicit `eval_seed`-keyed stream and reports a 95%
    confidence half-width for the best position's estimate.
    """
    chooser = predictor_chooser(resolve_predictor(predictor))
    n = g.out_len
    if mode == "exact":
        hits, space = word_hits(chooser, generator_backed(g), n)
        per_position = tuple(Fraction(h, space) - Fraction(1, 2) for h in hits)
        advantage = max(abs(p) for p in per_position)
        best = max(range(n), key=lambda i: (abs(per_position[i]), -i)) + 1
        return PredictorReport(advantage, space, per_position, True, best)
    if mode == "sampled":
        if samples < 1:
            raise ValueError("sample count must be positive")
        rng = random.Random(eval_seed)
        words = [bits_to_int(seed_stream(g, rng.randrange(1 << g.seed_len))) for _ in range(samples)]
        hits = prediction_hits(chooser, *distinct_words(sorted(words)), n)
        per_position = tuple(h / samples - 0.5 for h in hits)
        advantage = max(abs(p) for p in per_position)
        best = max(range(n), key=lambda i: (abs(per_position[i]), -i)) + 1
        rate = hits[best - 1] / samples
        half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / samples)
        return PredictorReport(advantage, samples, per_position, False, best, half_width)
    raise ValueError(f"unknown mode: {mode!r}")
