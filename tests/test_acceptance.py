"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons on certified quantities are exact rational equalities or
inequalities; the only tolerance anywhere is the stated 1e-9 on the potential
inequality, whose terms are inherently logarithmic.
"""

import contextlib
import hashlib
import time
from fractions import Fraction

import pytest

from pennylab import (
    Action,
    best_response_value,
    certify_discounted_eq,
    certify_gap,
    constant,
    alternator,
    exact_value,
    exploiter_vs,
    generator_backed,
    make_gamma_equilibrium,
    min_rounds,
    passthrough,
    payoff_to_distinguisher,
    predictor_accuracy,
    predictor_backed,
    prefix_tail,
    tail_gain,
    uniform_table,
    DiscountParams,
    broken_repeat,
    eval_next_bit_predictor,
)
from pennylab.exploiter import expected_potential_step, greedy_value, guarantee, play_match

from support import generator_population, oblivious_population, opponents_with_budget, reference_tree_best_response

H, T = Action.H, Action.T


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


# Criteria 1 and 2 range over the same opponents: every shipped oblivious
# family whose budget is exactly k bits, for 4 <= n <= 12 and k <= min(n, 8).
def _criterion_1_opponents():
    for n in range(4, 13):
        for k in range(0, min(n, 8) + 1):
            for label, opponent in opponents_with_budget(n, k):
                yield n, k, label, opponent


def test_criterion_1_exploiter_guarantee():
    with criterion(1, "exploiter payoff guarantee, exact"):
        shortfalls = []
        start = time.monotonic()
        for n, k, label, opponent in _criterion_1_opponents():
            achieved = greedy_value(opponent, n)
            if achieved < guarantee(n, k):
                shortfalls.append((n, k, label, achieved))
        elapsed = time.monotonic() - start
        assert shortfalls == []
        assert elapsed < 10.0, f"guarantee sweep took {elapsed:.1f}s"


def test_criterion_2_potential_growth():
    with criterion(2, "potential increases by at least 1 per round"):
        seen = set()
        for n, k, label, opponent in _criterion_1_opponents():
            space = 1 << opponent.seed_len
            steps = [0.0] * n
            for seed in range(space):
                for row in play_match(opponent, seed, n).rows:
                    assert expected_potential_step(row.p) >= 1.0 - 1e-9, (n, k, label, seed, row)
                    steps[row.round - 1] += row.delta_phi
                    seen.add(row.p)
            # The seeds are uniform, so their mean realized step is the expected one.
            assert min(steps) / space >= 1.0 - 1e-9, (n, k, label)
        assert Fraction(1, 2) in seen  # equality case p = 1/2
        assert Fraction(1, 1) in seen  # equality case p = 1
        for i in range(10_001):
            p = 0.5 + 0.5 * i / 10_000
            assert expected_potential_step(p) >= 1.0 - 1e-9


def test_criterion_3_tightness_both_directions():
    with criterion(3, "gamma-equilibrium tight at n(1-gamma) coins"):
        # (a) the construction meets gamma with equality.
        for gamma in (Fraction(1, 4), Fraction(1, 2)):
            s1, s2 = make_gamma_equilibrium(8, gamma)
            report = certify_gap(s1, s2, 8)
            assert report.certified_epsilon == gamma, gamma
        # (b) any smaller budget strictly exceeds gamma.
        gamma = Fraction(1, 2)
        for k_prime in range(0, 4):
            s1 = prefix_tail(k_prime, "constant", H)
            s2 = prefix_tail(k_prime, "alternator", H)
            report = certify_gap(s1, s2, 8)
            assert report.certified_epsilon > gamma, k_prime


def test_criterion_4_payoff_to_distinguisher():
    with criterion(4, "payoff advantage converts to distinguishing advantage"):
        n = 8
        base = [
            ("const-H", constant(H)),
            ("alt-H", alternator(H)),
            ("uniform-2", uniform_table(2)),
            ("pred-freq-beat", predictor_backed("frequency", beat=True)),
        ]
        for glabel, g in generator_population(n):
            player = generator_backed(g)
            pairs = base + [("exploit-beat", exploiter_vs(player, beat=True))]
            for slabel, s in pairs:
                _, advantage = payoff_to_distinguisher(s, g, n)
                value = exact_value(player, s, n)
                assert advantage >= abs(value) / 2, (glabel, slabel)
                if g.kind == "uniform-passthrough":
                    assert advantage == 0, slabel
        # A couple of pairs at the full n = 10 horizon.
        from pennylab import broken_counter

        for g in (broken_repeat(10), broken_counter(3, 10)):
            player = generator_backed(g)
            for slabel, s in base[:3]:
                _, advantage = payoff_to_distinguisher(s, g, 10)
                assert advantage >= abs(exact_value(player, s, 10)) / 2


def test_criterion_5_predictor_payoff_identity():
    with criterion(5, "predictor payoff equals twice its advantage"):
        n = 10
        population = oblivious_population(n, max_bits=3)
        population.append(("passthrough", generator_backed(passthrough(n))))
        for name in ("const0", "const1", "frequency", "markov1", "periodicity"):
            for olabel, opponent in population:
                accuracy = predictor_accuracy(name, opponent, n)
                payoff = exact_value(predictor_backed(name), opponent, n)
                assert payoff == 2 * accuracy - 1, (name, olabel)
        # Frequency vs broken-repeat: advantage exactly 1/2 at every affected
        # position, payoff +1 on every affected round.
        report = eval_next_bit_predictor(broken_repeat(n), "frequency")
        for i, p in enumerate(report.per_position, start=1):
            assert p == (Fraction(1, 2) if i >= 3 else 0)
        from pennylab.game import stage_payoff
        from pennylab.strategies import simulate

        repeat_player = generator_backed(broken_repeat(n))
        for seed_value in range(4):
            transcript = simulate(predictor_backed("frequency"), 0, repeat_player, seed_value, n)
            assert all(stage_payoff(a, b) == 1 for a, b in transcript[2:])


def test_criterion_6_oracle_self_consistency():
    with criterion(6, "Bayes-greedy equals game-tree best response"):
        n = 8
        population = oblivious_population(n, max_bits=4)
        population.append(("uniform-8", uniform_table(8)))
        for label, opponent in population:
            fast = greedy_value(opponent, n)
            for deviator in (1, 2):
                slow = reference_tree_best_response(opponent, n, deviator, None)
                assert fast == slow, (label, deviator)
        for n_small in range(1, 9):
            assert best_response_value(uniform_table(n_small), n_small) == 0


def test_criterion_7_discounted_thresholds():
    with criterion(7, "discounted threshold and certification"):
        p = DiscountParams.of("9/10", "1/10")
        n_star = min_rounds(p)
        assert n_star == 44
        assert tail_gain(p.delta, 44) < Fraction(1, 10) <= tail_gain(p.delta, 43)
        assert certify_discounted_eq(44, p).certified
        assert not certify_discounted_eq(43, p).certified
        grid_deltas = [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)]
        grid_epsilons = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 2), Fraction(2)]
        points = [(d, e) for d in grid_deltas for e in grid_epsilons]
        assert len(points) == 20
        for d, e in points:
            n = min_rounds(DiscountParams(d, e))
            assert tail_gain(d, n) < e
            if n > 0:
                assert tail_gain(d, n - 1) >= e


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "byte-identical artifacts across reruns"):
        from pennylab.cli import main

        commands = [
            ["simulate", "--n", "4", "--p1", "uniform:4", "--p2", "alt:H", "--seed1", "1010"],
            ["exploit", "--n", "10", "--opponent", "uniform:4", "--opponent-seed", "7"],
            ["verify-eq", "--n", "8", "--gamma", "1/2"],
            ["prng-test", "--gen", "repeat", "--n", "8", "--predictor", "frequency"],
            ["discounted", "--delta", "9/10", "--epsilon", "1/10"],
            ["sweep", "--n", "10", "--k", "0..8"],
        ]
        for idx, args in enumerate(commands):
            digests = set()
            for attempt in range(3):
                out = tmp_path / f"artifact-{idx}-{attempt}"
                status = main(args + ["--out", str(out)])
                assert status == 0, args
                digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
            assert len(digests) == 1, args
