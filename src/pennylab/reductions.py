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
from typing import NamedTuple, Optional, Sequence, Union

from .oracle import round_payoffs
from .prng import GeneratorSpec, bits_to_int, predictor_chooser, seed_stream
from .strategies import StrategySpec, generator_backed, play_words
from .words import PlayWords, distinct_words, prediction_hits


def per_round_payoffs(s: StrategySpec, g: GeneratorSpec, n: int) -> list[Fraction]:
    """Exact per-round payoffs E[A_i] of the generator-backed seat-1 player against s.

    A_i takes values in {-1, +1}; the equivalent {0, 1} win-indicator
    normalization is Pr[seat 1 wins round i] = (E[A_i] + 1)/2, so both carry
    the same distinguishing advantage |E[A_i]| / 2.
    """
    if g.out_len < n:
        raise ValueError("generator stream too short for this horizon")
    values, den, _ = round_payoffs(generator_backed(g), s, n)  # the generator's horizon covers n: no cycle
    return [Fraction(v, den) for v in values]


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
        weight = 1
        for i in range(n):
            weight *= delta
            per_round[i] *= weight
    best, top = _best_position(per_round)
    return best, top / 2


def _best_position(values: Sequence[Union[Fraction, float]]) -> tuple[int, Union[Fraction, float]]:
    """The largest |value| and the 1-based position where it first occurs, as (position, |value|)."""
    best = max(range(len(values)), key=lambda i: (abs(values[i]), -i))
    return best + 1, abs(values[best])


def predictor_accuracy(predictor: str, opponent: StrategySpec, n: int) -> Fraction:
    """Exact per-round prediction accuracy of the named predictor against an oblivious opponent.

    Averaged over the opponent's uniform seed and all n rounds.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    if not opponent.oblivious:
        raise ValueError("accuracy is defined against oblivious opponents")
    pw = play_words(opponent, n)
    return Fraction(sum(prediction_hits(predictor_chooser(predictor), pw, n)), pw.below[-1] * n)


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
    """Per-position success of the predictor named `predictor` on `g`'s output.

    Exact mode enumerates every seed, under the enumeration cap, by one
    `prediction_hits` walk over the `play_words` of `g`'s stream.  Sampled
    mode draws seeds from an explicit `eval_seed`-keyed stream and reports a
    95% confidence half-width for the best position's estimate.
    """
    chooser = predictor_chooser(predictor)
    n = g.out_len
    if mode == "exact":
        pw = play_words(generator_backed(g), n)
        hits, space = prediction_hits(chooser, pw, n), pw.below[-1]
        per_position = tuple(Fraction(h, space) - Fraction(1, 2) for h in hits)
        best, advantage = _best_position(per_position)
        return PredictorReport(advantage, space, per_position, True, best)
    if mode == "sampled":
        if samples < 1:
            raise ValueError("sample count must be positive")
        rng = random.Random(eval_seed)
        words = [bits_to_int(seed_stream(g, rng.randrange(1 << g.seed_len))) for _ in range(samples)]
        hits = prediction_hits(chooser, PlayWords(*distinct_words(sorted(words)), n), n)
        per_position = tuple(h / samples - 0.5 for h in hits)
        best, advantage = _best_position(per_position)
        rate = hits[best - 1] / samples
        half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / samples)
        return PredictorReport(advantage, samples, per_position, False, best, half_width)
    raise ValueError(f"unknown mode: {mode!r}")
