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
    exploiter_vs,
    generator_backed,
    make_gamma_equilibrium,
    payoff_to_distinguisher,
    per_round_payoffs,
    play_match,
    predictor_accuracy,
    predictor_backed,
    prefix_tail,
    simulate,
    uniform_table,
)
from pennylab.exploiter import guarantee
from pennylab.game import round_value
from pennylab.oracle import round_payoffs
from pennylab.prng import check_seed_space
from pennylab.strategies import horizon, parse_strategy, round_heads
from pennylab.words import majority_wins

from support import (
    PREDICTOR_NAMES,
    REFERENCE_PREDICTORS,
    adaptive_population,
    cumulative_payoff,
    discounted_payoff,
    oblivious_population,
    payoff_fractions,
    reference_tree_best_response,
    register_prefix_predictor,
    stage_payoff,
)
from test_game import WIDE_DELTA

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
        assert payoff_fractions(s1, s2, n) == per_round
        assert exact_value(s1, s2, n) == Fraction(sum(map(cumulative_payoff, transcripts)), count * n)
        discounted = sum(discounted_payoff(t, delta) for t in transcripts) / count
        assert exact_value(s1, s2, n, delta=delta) == discounted
        if s1.kind == "generator":
            assert per_round_payoffs(s2, g, n) == per_round


TAIL_SPECS = [uniform_table(k) for k in range(4)] + [constant(H), constant(T), alternator(H), alternator(T)]
TAIL_SPECS += [prefix_tail(k, tail, start) for k in range(3) for tail in ("constant", "alternator") for start in (H, T)]


@pytest.mark.parametrize("delta", [None, Fraction(9, 10), Fraction(12345, 98765), WIDE_DELTA])
def test_exact_value_past_both_horizons_matches_every_round_listed(delta):
    # Two oblivious seats list rounds only up to both horizons plus 2 and
    # cycle past them; listing all n rounds by their `round_heads` counts
    # must give the same rounds and the same value, averaged and discounted.
    for s1 in TAIL_SPECS:
        for s2 in TAIL_SPECS:
            space1, space2 = check_seed_space(s1.seed_len), check_seed_space(s2.seed_len)
            last = max(horizon(s1), horizon(s2))
            for n in range(max(last, 1), last + 4):
                rounds = range(1, n + 1)
                listed = [(2 * round_heads(s1, t) - space1) * (2 * round_heads(s2, t) - space2) for t in rounds]
                den = space1 * space2
                assert payoff_fractions(s1, s2, n) == [Fraction(v, den) for v in listed], (s1, s2, n)
                assert exact_value(s1, s2, n, delta) == round_value(listed, den, n, delta), (s1, s2, n)


def test_round_payoffs_acts_once_per_opponent_prefix(monkeypatch):
    # uniform:4 over 6 rounds has 1 + 2 + 4 + 8 + 16 + 16 = 47 distinct
    # prefixes; the adaptive seat predicts once at each, from either seat.
    calls = []
    markov1 = REFERENCE_PREDICTORS["markov1"]
    register_prefix_predictor(monkeypatch, "markov1", lambda prefix: calls.append(prefix) or markov1(prefix))
    round_payoffs(predictor_backed("markov1"), uniform_table(4), 6)
    assert len(calls) == 47
    calls.clear()
    round_payoffs(uniform_table(4), predictor_backed("markov1", beat=True), 6)
    assert len(calls) == 47


def test_an_exploiter_of_an_adaptive_model_is_valued_without_a_match(monkeypatch):
    # The model is seedless, so its exploiter wins every round: the value is
    # read off `majority_wins`, with no round simulated.
    def refuse(*args):
        raise AssertionError("simulated a match")

    monkeypatch.setattr("pennylab.oracle.match", refuse)
    m = predictor_backed("markov1")
    assert exact_value(exploiter_vs(m), m, 50) == 1
    d = Fraction(2, 3)
    assert exact_value(m, exploiter_vs(m, beat=True), 50, d) == -sum(d**t for t in range(1, 51))


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
            fast = best_response_value(opponent, n, delta=delta)
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
        space = 1 << opponent.seed_len
        replayed = Fraction(sum(row.payoff for seed in range(space) for row in play_match(opponent, seed, n)), space * n)
        assert achieved == br == replayed, label


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


@pytest.mark.parametrize(
    "p1, p2, calls, walks",
    [
        ("uniform:5", "uniform:5", 2, [32]),
        ("uniform:5", "uniform:6", 3, [64, 32]),
        # The exploiter already plays seat 1's best response: one walk over the
        # generator's 64 seeds, then one over the seedless exploiter's word.
        ("exploit:vs=gen:bm,perm=mulmod,m=3", "gen:bm,perm=mulmod,m=3", 2, [64, 1]),
    ],
    ids=["equal-seats", "distinct-seats", "exploiter-of-its-model"],
)
def test_equal_seats_share_one_best_response(monkeypatch, p1, p2, calls, walks):
    # certify_gap values each distinct pair among the profile and the two best
    # responses once; `walks` holds the seed count of each `majority_wins` walk.
    n = 6
    s1, s2 = parse_strategy(p1, n), parse_strategy(p2, n)
    expected = (exact_value(s1, s2, n), best_response_value(s2, n), best_response_value(s1, n))
    seen, walked = [], []

    def spy(*args):
        seen.append(args)
        return exact_value(*args)

    def count_walk(pw):
        walked.append(pw.below[-1])
        return majority_wins(pw)

    monkeypatch.setattr("pennylab.oracle.exact_value", spy)
    monkeypatch.setattr("pennylab.oracle.majority_wins", count_walk)
    report = certify_gap(s1, s2, n)
    assert len(seen) == calls and walked == walks
    assert (report.value, report.best_response_1, report.best_response_2) == expected


def test_seed_space_cap_enforced():
    with pytest.raises(ValueError, match="seed space too large"):
        exact_value(uniform_table(25), constant(H), 4)
    with pytest.raises(ValueError, match="seed space too large"):
        best_response_value(uniform_table(25), 4)
    # An exploiter against its own model enumerates that model's models too.
    model = exploiter_vs(uniform_table(25))
    for s1, s2 in ((exploiter_vs(model), model), (model, exploiter_vs(model, beat=True))):
        for call in (exact_value, certify_gap):
            with pytest.raises(ValueError, match="seed space too large"):
                call(s1, s2, 4)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "entry",
    [
        lambda n: round_payoffs(uniform_table(2), uniform_table(2), n),
        lambda n: exact_value(uniform_table(2), uniform_table(2), n),
        lambda n: best_response_value(uniform_table(2), n),
        lambda n: certify_gap(uniform_table(2), uniform_table(2), n),
        lambda n: payoff_to_distinguisher(uniform_table(2), blum_micali("add1", 2, 4), n),
        lambda n: predictor_accuracy("markov1", uniform_table(2), n),
        lambda n: guarantee(n, 0),
        lambda n: play_match(uniform_table(3), 0, n),
        lambda n: play_match(constant(H), 0, n),
        lambda n: play_match(predictor_backed("markov1"), 0, n),
        lambda n: simulate(uniform_table(2), 0, constant(H), 0, n),
    ],
    ids=[
        "round_payoffs",
        "exact_value",
        "best_response_value",
        "certify_gap",
        "payoff_to_distinguisher",
        "predictor_accuracy",
        "guarantee",
        "play_match",
        "play_match-seedless",
        "play_match-adaptive",
        "simulate",
    ],
)
def test_nonpositive_horizons_are_rejected(entry, n):
    with pytest.raises(ValueError, match="horizon must be positive"):
        entry(n)
