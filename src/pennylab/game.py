"""Stage game primitives: the two-action alphabet, transcripts, and payoff sums.

All aggregation is exact: integer payoffs and `fractions.Fraction` averages, so
equilibrium-gap comparisons downstream never need a float tolerance.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]


class Action(Enum):
    """One play of the stage game."""

    H = "H"
    T = "T"

    def flip(self) -> "Action":
        return Action.T if self is Action.H else Action.H

    def __repr__(self) -> str:
        return self.value


Round = tuple[Action, Action]
Transcript = tuple[Round, ...]


def bit_to_action(bit: int) -> Action:
    """Seed/stream bit to action: 1 plays H, 0 plays T."""
    return Action.H if bit else Action.T


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to an exact rational whose terms fit the int digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is no limit
    try:  # Fraction expands an exponent unchecked; past 2 * limit no term could fit, so it is never built
        huge = limit and isinstance(x, str) and abs(int(x.lower().partition("e")[2] or 0)) > 2 * limit
        value = Fraction(0 if huge else x)
    except (ValueError, ZeroDivisionError) as e:  # a RationalLike fails here only as a string, which prints
        raise ValueError(f"malformed fraction: {x!r}") from e
    if huge or limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ValueError(f"fraction outgrows the {limit}-digit int limit")
    return value


def round_weights(delta: Fraction, n: int) -> list[Fraction]:
    """Discount weights [delta**0, delta**1, ..., delta**n]; round t is weighted delta**t."""
    weights = [Fraction(1)]
    for _ in range(n):
        weights.append(weights[-1] * delta)
    return weights


def stage_payoff(a: Action, b: Action) -> int:
    """Player 1's payoff for a single round: +1 on matching plays, -1 otherwise.

    Player 1 is the matcher; player 2's payoff is the negation.
    """
    return 1 if a is b else -1


def cumulative_payoff(t: Transcript) -> int:
    """Player 1's total payoff over the whole transcript."""
    return sum(stage_payoff(a, b) for a, b in t)


def average_payoff(t: Transcript) -> Fraction:
    """Cumulative payoff divided by the number of rounds, exact."""
    if len(t) == 0:
        raise ValueError("zero-length game")
    return Fraction(cumulative_payoff(t), len(t))


def format_transcript(t: Transcript) -> str:
    return ",".join(a.value + b.value for a, b in t)
