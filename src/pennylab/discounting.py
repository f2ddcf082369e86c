"""Infinite play under time discounting: thresholds, tail bounds, certification.

The infinite game is never simulated.  Certification decomposes into an exact
finite-horizon computation on the random (or generator-backed) prefix plus the
closed-form tail bound delta**n / (1 - delta), which upper-bounds what any
deviation can collect from the deterministic tail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .game import RationalLike, as_fraction
from .oracle import certify_gap
from .prng import GeneratorSpec, check_seed_space
from .strategies import generator_backed

# The most bits an exact tail delta**n may take, n * q.bit_length() for
# delta = p/q: building and printing a larger power takes seconds or more.
TAIL_BITS = 1 << 21


class _DiscountFields(NamedTuple):
    delta: Fraction
    epsilon: Fraction


class DiscountParams(_DiscountFields):
    """Discount factor and equilibrium slack for the infinite game.

    `delta` here is the time-discount factor, unrelated to any seed-length
    exponent elsewhere.
    """

    __slots__ = ()

    def __new__(cls, delta: RationalLike, epsilon: RationalLike) -> "DiscountParams":
        delta, epsilon = as_fraction(delta), as_fraction(epsilon)
        if not 0 < delta < 1:
            raise ValueError("invalid discount factor")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if _rounds_estimate(delta, epsilon) * delta.denominator.bit_length() > TAIL_BITS:
            raise ValueError("discount threshold out of reach")
        return super().__new__(cls, delta, epsilon)


class DiscountedCertificate(NamedTuple):
    """Result of certifying the prefix-plus-tails profile at horizon n.

    epsilon_prime = prefix_gap + tail; the profile is certified as an
    epsilon-Nash equilibrium of the infinite discounted game when
    epsilon_prime <= epsilon.
    """

    n: int
    delta: Fraction
    epsilon: Fraction
    prefix_gap: Fraction
    tail: Fraction
    epsilon_prime: Fraction
    certified: bool


def tail_gain(delta: RationalLike, n: int) -> Fraction:
    """Exact delta**n / (1 - delta): the largest discounted gain a deviation can
    collect from a deterministic tail starting at round n."""
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ValueError("invalid discount factor")
    if n < 0:
        raise ValueError("round index must be non-negative")
    return d**n / (1 - d)


def _rounds_estimate(delta: Fraction, epsilon: Fraction) -> float:
    """log(epsilon*(1-delta)) / log(delta) from the exact terms, not floats; inf if log(delta) rounds to 0."""
    (p, q), bound = delta.as_integer_ratio(), epsilon * (1 - delta)
    log_delta = math.log1p((p - q) / q) if 2 * p > q else math.log(p) - math.log(q)
    return (math.log(bound.numerator) - math.log(bound.denominator)) / log_delta if log_delta else math.inf


@lru_cache(maxsize=1)
def min_rounds(p: DiscountParams) -> int:
    """Least n with tail_gain(delta, n) strictly below epsilon.

    That is the least n with delta**n < epsilon * (1 - delta).  The boundary
    is resolved by exact rational comparison, not by comparing floating-point
    logarithms; each probe steps delta**n by one multiplication or division.
    The last answer is kept: the CLI's default --n and its artifact both ask.
    """
    bound = p.epsilon * (1 - p.delta)
    candidate = max(0, int(_rounds_estimate(p.delta, p.epsilon)) - 2)  # the estimate only picks where the walk starts
    power = p.delta**candidate
    while power >= bound:
        power *= p.delta
        candidate += 1
    while candidate > 0 and power / p.delta < bound:
        power /= p.delta
        candidate -= 1
    return candidate


def check_prefix(n: int, seed_len: Optional[int], generator: Optional[GeneratorSpec]) -> None:
    """The input checks of `certify_discounted_eq`, which the CLI also runs before any work.

    They include the cap on the generator's seed space, which the prefix gap enumerates.
    A `seed_len` (the CLI's --seed-len) may only confirm the prefix's own seed length.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    if generator is None:
        if seed_len is not None and seed_len != n:
            raise ValueError("uniform prefix consumes exactly n bits")
        return
    if generator.out_len < n:
        raise ValueError("generator stream too short for this horizon")
    if seed_len is not None and seed_len != generator.seed_len:
        raise ValueError("seed length disagrees with the generator")
    if generator.seed_len > n:
        raise ValueError("prefix budget exceeds the horizon")
    check_seed_space(generator.seed_len)


def certify_discounted_eq(
    n: int, p: DiscountParams, generator: Optional[GeneratorSpec] = None
) -> DiscountedCertificate:
    """Certify the profile (n-round prefix, then constant-H vs alternator tails).

    With no generator the prefix is full-entropy uniform play: round-wise
    uniform play is unexploitable at any discounting, so the prefix gap is
    exactly 0 and no enumeration is needed.  With a generator, both players
    play its output for the prefix and the gap is computed exactly by the
    discounted oracle.
    """
    check_prefix(n, None, generator)
    prefix_gap = Fraction(0)
    if generator is not None:
        spec = generator_backed(generator)
        prefix_gap = certify_gap(spec, spec, n, delta=p.delta).certified_epsilon
    tail = tail_gain(p.delta, n)
    epsilon_prime = prefix_gap + tail
    return DiscountedCertificate(
        n=n,
        delta=p.delta,
        epsilon=p.epsilon,
        prefix_gap=prefix_gap,
        tail=tail,
        epsilon_prime=epsilon_prime,
        certified=epsilon_prime <= p.epsilon,
    )
