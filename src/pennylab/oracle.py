"""Exact expected payoffs, best responses, and Nash-gap certification.

Everything is computed by exhaustive seed enumeration with rational
arithmetic; no sampling appears anywhere on a certification path.  Against an
oblivious opponent the best response is the Bayes-greedy rule (track the
posterior over opponent seeds and match the posterior-majority action each
round), which is optimal because an oblivious opponent's future play is
independent of the deviator's actions.  Against adaptive opponents a full
alternating-move expectimax over histories is used instead, with the horizon
capped at 14 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .game import Action, round_weights, stage_payoff
from .prng import check_seed_space
from .strategies import StrategySpec, round_plays, simulate, split
from . import exploiter

TREE_HORIZON = 14


@dataclass(frozen=True)
class GapReport:
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


def round_payoffs(
    s1: StrategySpec,
    s2: StrategySpec,
    n: int,
    cap: Optional[int] = None,
) -> list[Fraction]:
    """Player 1's exact expected stage payoff E[h_t] for each round t = 1..n.

    Uniform over both seed spaces.  Adaptive strategies are allowed: each seed
    pair yields one deterministic transcript.
    """
    space1 = check_seed_space(s1.seed_len, cap)
    space2 = check_seed_space(s2.seed_len, cap)
    if s1.oblivious and s2.oblivious:
        # Independent seeds: per-round expectations factor through the two
        # marginal H-frequencies, E[h_t] = (2*p1 - 1)(2*p2 - 1).
        return [
            Fraction(2 * sum(round_plays(s1, t)) - space1, space1)
            * Fraction(2 * sum(round_plays(s2, t)) - space2, space2)
            for t in range(1, n + 1)
        ]
    sums = [0] * n
    for v1 in range(space1):
        for v2 in range(space2):
            for i, (a, b) in enumerate(simulate(s1, v1, s2, v2, n)):
                sums[i] += stage_payoff(a, b)
    pairs = space1 * space2
    return [Fraction(total, pairs) for total in sums]


def exact_value(
    s1: StrategySpec,
    s2: StrategySpec,
    n: int,
    delta: Optional[Fraction] = None,
    cap: Optional[int] = None,
) -> Fraction:
    """Player 1's exact expected payoff, uniform over both seed spaces.

    Returns the average payoff, or the discounted sum E[sum delta**t h_t] when
    `delta` is given; by linearity both are sums over `round_payoffs`.
    """
    payoffs = round_payoffs(s1, s2, n, cap)
    if delta is None:
        return sum(payoffs, Fraction(0)) / n
    return sum((w * e for w, e in zip(round_weights(delta, n)[1:], payoffs)), Fraction(0))


def _tree_best_response(
    opponent: StrategySpec,
    n: int,
    deviator: int,
    delta: Optional[Fraction],
    cap: Optional[int],
) -> Fraction:
    """Expectimax over full histories; the opponent's seed is the only hidden state."""
    if n > TREE_HORIZON:
        raise ValueError("tree too large")
    space = check_seed_space(opponent.seed_len, cap)
    weights = None if delta is None else round_weights(delta, n)
    memo: dict = {}
    zero = Fraction(0)

    def value(t: int, history: tuple, alive: list[int]) -> Fraction:
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
        best: Optional[Fraction] = None
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


def best_response_value(
    opponent: StrategySpec,
    n: int,
    opponent_player: int,
    delta: Optional[Fraction] = None,
    cap: Optional[int] = None,
) -> Fraction:
    """The deviator's exact optimum over all adaptive deviations against `opponent`.

    `opponent_player` names the seat the opponent occupies (1 or 2); the value
    returned is from the other seat's perspective.  Oblivious opponents use the
    Bayes-greedy computation (which coincides with the majority-elimination
    strategy); adaptive opponents use game-tree recursion.
    """
    if opponent_player not in (1, 2):
        raise ValueError("opponent seat must be 1 or 2")
    deviator = 3 - opponent_player
    if opponent.oblivious:
        return exploiter.greedy_value(opponent, n, deviator=deviator, delta=delta, cap=cap)
    return _tree_best_response(opponent, n, deviator, delta, cap)


def certify_gap(
    s1: StrategySpec,
    s2: StrategySpec,
    n: int,
    delta: Optional[Fraction] = None,
    cap: Optional[int] = None,
) -> GapReport:
    """Exact deviation gaps for both players at the profile (s1, s2)."""
    value = exact_value(s1, s2, n, delta=delta, cap=cap)
    br1 = best_response_value(s2, n, opponent_player=2, delta=delta, cap=cap)
    br2 = best_response_value(s1, n, opponent_player=1, delta=delta, cap=cap)
    gap_1 = br1 - value
    gap_2 = br2 - (-value)
    return GapReport(value, br1, br2, gap_1, gap_2, max(gap_1, gap_2))
