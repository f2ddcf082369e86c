"""Exact values, best responses, and gap certification."""

from fractions import Fraction

import pytest

from pennylab import (
    Action,
    alternator,
    best_response_value,
    blum_micali,
    certify_gap,
    constant,
    exact_value,
    expected_average_payoff,
    exploiter_vs,
    generator_backed,
    make_gamma_equilibrium,
    payoff_to_distinguisher,
    per_round_payoffs,
    predictor_accuracy,
    predictor_backed,
    prefix_tail,
    simulate,
    uniform_table,
)
from pennylab.exploiter import greedy_value, guarantee
from pennylab.game import cumulative_payoff, discounted_payoff, stage_payoff
from pennylab.oracle import round_payoffs
from pennylab.prng import PREDICTORS
from pennylab.strategies import parse_strategy

from support import PREDICTOR_NAMES, adaptive_population, oblivious_population, reference_tree_best_response

H, T = Action.H, Action.T


def test_full_entropy_play_is_worth_zero_against_anything():
    for n in (2, 4, 6):
        for label, s in oblivious_population(n, max_bits=2):
            assert exact_value(uniform_table(n), s, n) == 0, label
        for label, s in adaptive_population():
            assert exact_value(uniform_table(n), s, n) == 0, label


def test_exact_value_examples():
    assert exact_value(constant(H), constant(H), 4) == 1
    assert exact_value(constant(H), alternator(H), 4) == 0


def test_exact_value_oblivious_fast_path_matches_generic_path():
    # The marginal-product shortcut for oblivious pairs must agree with plain
    # seed-pair enumeration, round by round and summed, plain and discounted;
    # the pairs with an adaptive seat (either seat, or both) check the
    # consistent-set walk against the same enumeration.
    n = 5
    delta = Fraction(2, 3)
    g = blum_micali("add1", 2, n)
    pairs = [
        (uniform_table(2), alternator(H)),
        (uniform_table(3), uniform_table(2)),
        (alternator(T), constant(H)),
        (generator_backed(g), uniform_table(3)),
        (generator_backed(g), prefix_tail(2, "alternator", H)),
        (generator_backed(g), predictor_backed("markov1")),
        (uniform_table(3), predictor_backed("frequency", beat=True)),
        (exploiter_vs(generator_backed(g)), generator_backed(g)),
        (prefix_tail(2, "alternator", H), exploiter_vs(prefix_tail(2, "alternator", H), beat=True)),
        (exploiter_vs(uniform_table(2)), alternator(T)),
        (predictor_backed("markov1"), exploiter_vs(predictor_backed("markov1"), beat=True)),
    ]
    for s1, s2 in pairs:
        transcripts = [
            simulate(s1, v1, s2, v2, n) for v1 in range(1 << s1.seed_len) for v2 in range(1 << s2.seed_len)
        ]
        count = len(transcripts)
        per_round = [Fraction(sum(stage_payoff(*t[i]) for t in transcripts), count) for i in range(n)]
        assert round_payoffs(s1, s2, n) == per_round
        assert exact_value(s1, s2, n) == Fraction(sum(map(cumulative_payoff, transcripts)), count * n)
        discounted = sum(discounted_payoff(t, delta) for t in transcripts) / count
        assert exact_value(s1, s2, n, delta=delta) == discounted
        if s1.kind == "generator":
            assert per_round_payoffs(s2, g, n) == per_round


def test_round_payoffs_acts_once_per_opponent_prefix(monkeypatch):
    # uniform:4 over 6 rounds has 1 + 2 + 4 + 8 + 16 + 16 = 47 distinct
    # prefixes; the adaptive seat predicts once at each, from either seat.
    calls = []
    markov1 = PREDICTORS["markov1"]
    monkeypatch.setitem(PREDICTORS, "markov1", lambda prefix: calls.append(prefix) or markov1(prefix))
    round_payoffs(predictor_backed("markov1"), uniform_table(4), 6)
    assert len(calls) == 47
    calls.clear()
    round_payoffs(uniform_table(4), predictor_backed("markov1", beat=True), 6)
    assert len(calls) == 47


def test_best_response_examples():
    assert best_response_value(uniform_table(6), 6) == 0
    _, p2 = make_gamma_equilibrium(8, Fraction(1, 2))
    assert best_response_value(p2, 8) == Fraction(1, 2)
    assert best_response_value(uniform_table(3), 6) == Fraction(1, 2)


def test_best_response_dominates_every_population_strategy():
    # Also the determinism-without-loss statement: mixed deviations average
    # deterministic ones, so no population strategy can beat the optimum.
    for n in (6, 8):
        opponents = [spec for _, spec in oblivious_population(n, max_bits=3)]
        challengers = opponents + [spec for _, spec in adaptive_population()]
        for opponent in opponents:
            br = best_response_value(opponent, n)
            for challenger in challengers:
                assert br >= exact_value(challenger, opponent, n)


def test_greedy_equals_tree_search_for_oblivious_opponents():
    # The walk takes no seat: its one value is the tree's optimum from both.
    n = 6
    for label, opponent in oblivious_population(n, max_bits=3):
        for delta in (None, Fraction(2, 3)):
            fast = greedy_value(opponent, n, delta=delta)
            for deviator in (1, 2):
                slow = reference_tree_best_response(opponent, n, deviator, delta)
                assert fast == slow, (label, deviator, delta)


def test_tree_search_handles_adaptive_opponents():
    # Against the matcher-seated exploiter a deviator feeds it wrong
    # predictions; the optimum is a win every round.
    opponent = exploiter_vs(uniform_table(2))
    assert reference_tree_best_response(opponent, 4, 2, None) == 1
    assert best_response_value(opponent, 15) == 1


def test_best_response_equals_tree_search_for_adaptive_opponents():
    # Every adaptive family reads no seed, so the consistent-set walk wins
    # every round; the expectimax over histories must agree, in both seats,
    # plain and discounted.
    for n in (1, 4, 8):
        opponents = [spec for _, spec in adaptive_population()]
        opponents += [predictor_backed(name, beat=beat) for name in PREDICTOR_NAMES for beat in (False, True)]
        opponents.append(parse_strategy("exploit:vs=gen:bm,perm=mulmod,m=3", n))
        opponents.append(parse_strategy("exploit:beat=1,vs=uniform:3", n))
        for opponent in opponents:
            for delta in (None, Fraction(2, 3)):
                fast = best_response_value(opponent, n, delta=delta)
                for deviator in (1, 2):
                    slow = reference_tree_best_response(opponent, n, deviator, delta)
                    assert fast == slow, (opponent, n, deviator, delta)


def test_exploiter_achieves_the_best_response_value():
    n = 6
    for label, opponent in oblivious_population(n, max_bits=3):
        br = best_response_value(opponent, n)
        achieved = exact_value(exploiter_vs(opponent), opponent, n)
        assert achieved == br, label


def test_certify_gamma_construction_is_tight():
    s1, s2 = make_gamma_equilibrium(8, Fraction(1, 2))
    report = certify_gap(s1, s2, 8)
    assert report.value == 0
    assert report.certified_epsilon == Fraction(1, 2)
    assert report.gap_1 == report.gap_2 == Fraction(1, 2)


def test_certify_full_randomness_profile():
    report = certify_gap(uniform_table(6), uniform_table(6), 6)
    assert report.certified_epsilon == 0
    assert report.value == 0


def test_gamma_zero_profile_is_an_exact_nash_equilibrium():
    s1, s2 = make_gamma_equilibrium(4, 0)
    assert certify_gap(s1, s2, 4).certified_epsilon == 0
    for label, challenger in oblivious_population(4, max_bits=2):
        assert exact_value(challenger, s2, 4) == 0, label


def test_certify_constant_profile_gaps():
    report = certify_gap(constant(H), constant(T), 4)
    assert report.value == -1
    assert report.gap_1 == 2  # switching to constant T turns -1 into +1
    assert report.gap_2 == 0
    assert report.certified_epsilon == 2


def test_gaps_are_never_negative():
    n = 4
    population = [spec for _, spec in oblivious_population(n, max_bits=2)]
    for s1 in population[:6]:
        for s2 in population[:6]:
            report = certify_gap(s1, s2, n)
            assert report.gap_1 >= 0
            assert report.gap_2 >= 0
            assert report.certified_epsilon == max(report.gap_1, report.gap_2)


def test_asymmetric_budgets_certify_without_claimed_bound():
    report = certify_gap(uniform_table(4), uniform_table(2), 4)
    assert report.gap_1 == Fraction(1, 2)  # player 1 can read the short table
    assert report.gap_2 == 0


def test_seed_space_cap_enforced():
    with pytest.raises(ValueError, match="seed space too large"):
        exact_value(uniform_table(25), constant(H), 4)
    with pytest.raises(ValueError, match="seed space too large"):
        best_response_value(uniform_table(25), 4)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "entry",
    [
        lambda n: round_payoffs(uniform_table(2), uniform_table(2), n),
        lambda n: exact_value(uniform_table(2), uniform_table(2), n),
        lambda n: best_response_value(uniform_table(2), n),
        lambda n: certify_gap(uniform_table(2), uniform_table(2), n),
        lambda n: greedy_value(uniform_table(2), n),
        lambda n: expected_average_payoff(uniform_table(2), n),
        lambda n: payoff_to_distinguisher(uniform_table(2), blum_micali("add1", 2, 4), n),
        lambda n: predictor_accuracy("markov1", uniform_table(2), n),
        lambda n: guarantee(n, 0),
    ],
    ids=[
        "round_payoffs",
        "exact_value",
        "best_response_value",
        "certify_gap",
        "greedy_value",
        "expected_average_payoff",
        "payoff_to_distinguisher",
        "predictor_accuracy",
        "guarantee",
    ],
)
def test_nonpositive_horizons_are_rejected(entry, n):
    with pytest.raises(ValueError, match="horizon must be positive"):
        entry(n)
