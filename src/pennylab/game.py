"""Stage game primitives: the two-action alphabet, transcripts, and exact round values.

All aggregation is exact: integer payoffs and `fractions.Fraction` values, so
equilibrium-gap comparisons downstream never need a float tolerance.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

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


def round_value(
    values: Sequence[int], den: int, n: int, delta: Optional[Fraction] = None, cycle: Sequence[int] = ()
) -> Fraction:
    """Exact value of n rounds where round t pays values[t - 1] / den, and past the list `cycle` over and over.

    The average, or with `delta` the sum of delta**t times round t's pay, the
    list's by one product tree with no list of powers (a run (a, P, Q) of
    rounds is worth a / Q, its rounds discounted from its start, and P / Q is
    delta to its length) and each cycle phase's by one geometric sum.  Only a
    list of all n rounds may have an empty cycle.
    """
    d, c = len(values), len(cycle)
    firsts = range(d + 1, d + 1 + c)  # each cycle phase's first round
    counts = [len(range(t, n + 1, c)) for t in firsts]
    if delta is None:
        return Fraction(sum(values) + sum(v * k for v, k in zip(cycle, counts)), den * n)
    r = delta**c
    tail = sum(Fraction(v, den) * delta**t * (1 - r**k) / (1 - r) for t, v, k in zip(firsts, cycle, counts))
    p, q = delta.numerator, delta.denominator
    runs = [(v * p, p, q) for v in values]
    while len(runs) > 1:
        merged = [(a1 * q2 + p1 * a2, p1 * p2, q1 * q2) for (a1, p1, q1), (a2, p2, q2) in zip(runs[::2], runs[1::2])]
        runs = merged + runs[2 * len(merged) :]  # an odd last run is carried up a level
    a, _, scale = runs[0] if runs else (0, 1, 1)
    return Fraction(a, scale * den) + tail

