"""Mutation checks: each listed mutation of the package must make its named test file fail.

    python tests/mutants.py [NAME ...]

For each mutation (all of them, or those NAMEd), the script copies `src`,
`tests` and `pyproject.toml` into a temporary directory, replaces one
snippet of one source file there (the snippet must occur exactly once), and
runs `python -m pytest -x -q` on the named test file in that copy, with a
fixed Hypothesis seed so that a run's verdicts repeat.  It first runs every
named file on the unmutated copy, which must pass.  The exit status is 1 if
any mutation survives or no longer applies.  Standard library only; not part
of the tier-1 suite, since it runs a test file per mutation.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/pennylab
    old: str
    new: str
    tests: str  # the test file that must fail


MUTANTS = [
    # The play-word walks.
    Mutant(
        "split-words-key-off-by-one",
        "words.py",
        "bisect_left(words, (words[lo] >> shift | 1) << shift, lo, hi)",
        "bisect_left(words, ((words[lo] >> shift | 1) << shift) + 1, lo, hi)",
        "test_words.py",
    ),
    Mutant(
        "greedy-one-word-shortcut-a-round-late",
        "words.py",
        "lone[t] += below[hi] - below[lo]",
        "lone[min(t + 1, depth + 1)] += below[hi] - below[lo]",
        "test_words.py",
    ),
    Mutant(
        "hits-one-word-range-a-position-late",
        "words.py",
        "for j, bit in enumerate(bits, i):",
        "for j, bit in enumerate(islice(bits, 1, None), i + 1):",
        "test_words.py",
    ),
    Mutant(
        "greedy-split-counts-words-not-seeds",
        "words.py",
        "wins[t] += abs(below[hi] + below[lo] - 2 * below[mid])",
        "wins[t] += abs(hi + lo - 2 * mid)",
        "test_level_tables.py",
    ),
    Mutant(
        "greedy-one-word-counts-words-not-seeds",
        "words.py",
        "lone[t] += below[hi] - below[lo]",
        "lone[t] += hi - lo",
        "test_exploiter.py",
    ),
    Mutant(
        "play-match-counts-words-not-seeds",
        "exploiter.py",
        "heads, tails = below[hi] - below[mid], below[mid] - below[lo]",
        "heads, tails = hi - mid, mid - lo",
        "test_words.py",
    ),
    Mutant(
        "final-phi-keeps-the-wrong-side",
        "exploiter.py",
        "kept if last.payoff == 1 else last.alive_size - kept",
        "last.alive_size - kept if last.payoff == 1 else kept",
        "test_words.py",
    ),
    Mutant(
        "play-match-alive-read-from-the-wrong-side",
        "exploiter.py",
        "alive = heads if seen else tails",
        "alive = tails if seen else heads",
        "test_exploiter.py",
    ),
    Mutant(
        "exploiter-majority-counts-words-not-seeds",
        "strategies.py",
        "1 if below[hi] - below[mid] >= below[mid] - below[lo] else 0",
        "1 if hi - mid >= mid - lo else 0",
        "test_words.py",
    ),
    Mutant(
        "hits-count-words-not-seeds",
        "words.py",
        "count = below[hi] - below[lo]",
        "count = hi - lo",
        "test_words.py",
    ),
    Mutant(
        "uniform-table-not-wrapped-past-its-horizon",
        "words.py",
        "c = pw.cycle or int_to_bits(pw.words[lo], pw.depth)",
        "c = pw.cycle or int_to_bits(pw.words[lo], pw.depth) + (1,) * pw.depth",
        "test_words.py",
    ),
    Mutant(
        "dense-below-counts-unplayed-words",
        "words.py",
        "below.extend(accumulate(compress(counts, counts)))",
        "below.extend(accumulate(counts))",
        "test_words.py",
    ),
    Mutant(
        "dense-words-read-one-off",
        "words.py",
        "compress(range(1 << depth), counts)",
        "compress(range(1, (1 << depth) + 1), counts)",
        "test_words.py",
    ),
    Mutant(
        "sort-buckets-swapped",
        "words.py",
        "parts[word >> (depth - lead)].append(word)",
        "parts[word >> (depth - lead) ^ 1].append(word)",
        "test_words.py",
    ),
    Mutant(
        "last-sort-bucket-dropped",
        "words.py",
        "map(sorted, parts)",
        "map(sorted, parts[:-1])",
        "test_words.py",
    ),
    Mutant(
        "sort-buckets-left-unsorted",
        "words.py",
        "chain.from_iterable(map(sorted, parts))",
        "chain.from_iterable(parts)",
        "test_words.py",
    ),
    Mutant(
        "split-without-its-empty-range-guard",
        "strategies.py",
        "return lo, lo if lo == hi else split_words(words, lo, hi, depth - t), hi, t",
        "return lo, split_words(words, lo, hi, depth - t), hi, t",
        "test_strategies.py",
    ),
    # One seed's plays.
    Mutant(
        "seed-plays-reads-a-bit-late",
        "strategies.py",
        "head = int_to_bits(seed >> max(0, k - n), min(n, k))",
        "head = (lambda b: b[1:] + b[:1])(int_to_bits(seed >> max(0, k - n), min(n, k)))",
        "test_strategies.py",
    ),
    Mutant(
        "seed-bits-read-from-the-low-end",
        "strategies.py",
        "int_to_bits(seed >> max(0, k - n), min(n, k))",
        "int_to_bits(seed, min(n, k))",
        "test_strategies.py",
    ),
    Mutant(
        "oblivious-cycle-read-from-the-round",
        "strategies.py",
        "cycle[(t - k) % len(cycle)]",
        "cycle[t % len(cycle)]",
        "test_strategies.py",
    ),
    Mutant(
        "play-match-reads-the-next-round",
        "strategies.py",
        "def _next_round(t: int, seen: int) -> int:\n    return t + 1\n",
        "def _next_round(t: int, seen: int) -> int:\n    return t + 2\n",
        "test_words.py",
    ),
    Mutant(
        "chooser-oblivious-plays-seed-zero",
        "strategies.py",
        'seed_stream(spec.param("generator"), seed).__getitem__',
        'seed_stream(spec.param("generator"), 0).__getitem__',
        "test_strategies.py",
    ),
    Mutant(
        "chooser-skips-the-adaptive-seed-check",
        "strategies.py",
        '    _check_seed(spec, seed)\n    if spec.kind == "generator":\n',
        '    if spec.kind == "generator":\n',
        "test_strategies.py",
    ),
    # The seedless rounds.
    Mutant(
        "fixed-round-counted-as-half",
        "strategies.py",
        "return cycle[(t - 1 - k) % len(cycle)] << k",
        "return (1 << k) // 2",
        "test_strategies.py",
    ),
    Mutant(
        "generator-round-counted-as-half",
        "strategies.py",
        'return round_bits(spec.param("generator"), t).count(1)',
        "return 1 << (spec.seed_len - 1)",
        "test_strategies.py",
    ),
    Mutant(
        "fixed-play-alternator-tail-parity-flipped",
        "strategies.py",
        '(s,) if spec.param("tail_kind") == "constant" else (s, s ^ 1)',
        '(s,) if spec.param("tail_kind") == "constant" else (s ^ 1, s)',
        "test_strategies.py",
    ),
    Mutant(
        "alternator-cycle-order-flipped",
        "strategies.py",
        '(f,) if spec.kind == "constant" else (f, f ^ 1)',
        '(f,) if spec.kind == "constant" else (f ^ 1, f)',
        "test_strategies.py",
    ),
    Mutant(
        "repeat-one-play-short",
        "words.py",
        "islice(cycle(c), n - depth)",
        "islice(cycle(c), max(n - depth - 1, 0))",  # one play short, not an islice error at depth n
        "test_words.py",
    ),
    Mutant(
        "round-heads-cycle-phase-off-by-one",
        "strategies.py",
        "cycle[(t - 1 - k) % len(cycle)]",
        "cycle[(t - k) % len(cycle)]",
        "test_strategies.py",
    ),
    Mutant(
        "seedless-table-cycle-plays-T",
        "strategies.py",
        "return () if spec.seed_len else (1,)",
        "return () if spec.seed_len else (0,)",
        "test_strategies.py",
    ),
    Mutant(
        "split-past-depth-always-hi",
        "strategies.py",
        "return lo, lo if lo < hi and (c := late(lo))[(t - 1 - depth) % len(c)] else hi, hi, t",
        "return lo, hi, hi, t",
        "test_words.py",
    ),
    Mutant(
        "uniform-late-plays-rebuilt-every-read",
        "strategies.py",
        "late = lru_cache(maxsize=1)(lambda lo: late_plays(pw, lo))",
        "late = lambda lo: late_plays(pw, lo)",
        "test_strategies.py",
    ),
    Mutant(
        "chooser-late-index-wraps-at-the-depth",
        "strategies.py",
        "[(t - 1 - depth) % len(c)]",
        "[(t - 1 - depth) % max(depth, 1)]",
        "test_words.py",
    ),
    Mutant(
        "seedless-plays-stored-one-round-short",
        "strategies.py",
        "pw._replace(cycle=bytes(plays))",
        "pw._replace(cycle=bytes(plays[:-1]))",
        "test_choosers.py",
    ),
    Mutant(
        "late-plays-a-round-early",
        "strategies.py",
        "pw._replace(cycle=tail_cycle(spec))",
        "pw._replace(cycle=tail_cycle(spec)[::-1])",
        "test_strategies.py",
    ),
    Mutant(
        "exploiter-chooser-accepts-a-zero-round-game",
        "strategies.py",
        '    if n < 1:\n        raise ValueError("horizon must be positive")\n    pw = play_words(opponent, n)\n',
        "    pw = play_words(opponent, n)\n",
        "test_package.py",
    ),
    Mutant(
        "chooser-reads-its-late-plays-a-round-early",
        "strategies.py",
        "[(t - 1 - depth) % len(c)]",
        "[(t - 2 - depth) % len(c)]",
        "test_words.py",
    ),
    Mutant(
        "word-hits-shares-a-uniform-tables-tail",
        "words.py",
        "int_to_bits(pw.words[lo], pw.depth)",
        "int_to_bits(pw.words[0], pw.depth)",
        "test_words.py",
    ),
    Mutant(
        "word-hits-uniform-tail-a-round-late",
        "words.py",
        "c = pw.cycle or int_to_bits(pw.words[lo], pw.depth)",
        "c = pw.cycle or int_to_bits(pw.words[lo] << 1 | pw.words[lo] >> (pw.depth - 1), pw.depth)",
        "test_words.py",
    ),
    Mutant(
        "own-late-plays-read-from-the-low-end",
        "words.py",
        "int_to_bits(pw.words[lo], pw.depth)",
        "int_to_bits(pw.words[lo], pw.depth)[::-1]",
        "test_strategies.py",
    ),
    Mutant(
        "late-cycle-phase-starts-a-round-late",
        "words.py",
        "islice(cycle(c), n - depth)",
        "islice(cycle(c), 1, n - depth + 1)",
        "test_words.py",
    ),
    Mutant(
        "seedless-late-plays-unguarded",
        "words.py",
        "    if not c:\n        raise ValueError",
        "    if False:\n        raise ValueError",
        "test_strategies.py",
    ),
    # The level tables and identity play words.
    Mutant(
        "level-up-sums-the-two-halves",
        "words.py",
        'h = array("I", map(add, islice(h, 0, None, 2), islice(h, 1, None, 2)))',
        'h = array("I", map(add, islice(h, 0, len(h) // 2), islice(h, len(h) // 2, None)))',
        "test_level_tables.py",
    ),
    Mutant(
        "every-generator-read-as-identity-words",
        "strategies.py",
        'compiled = spec.kind == "generator" and spec.param("generator").kind != "uniform-passthrough"',
        "compiled = False",
        "test_words.py",
    ),
    Mutant(
        "identity-below-step-twice-too-wide",
        "words.py",
        "range(0, space + 1, space >> depth)",
        "range(0, space + 1, space >> depth << 1)",
        "test_level_tables.py",
    ),
    Mutant(
        "dense-tables-skipped-for-every-trie",
        "words.py",
        "if not is_identity(pw):",
        "if not is_identity(pw) and False:",
        "test_level_tables.py",
    ),
    Mutant(
        "identity-test-without-range-check",
        "words.py",
        "return isinstance(pw.below, range) and len(pw.words) == 1 << pw.depth",
        "return len(pw.words) == 1 << pw.depth",
        "test_level_tables.py",
    ),
    Mutant(
        "walk-starts-a-level-below-the-tables",
        "words.py",
        "stack = [(1, 0, len(words))]",
        "stack = [(2, 0, len(words))]",
        "test_level_tables.py",
    ),
    # The value rule.
    Mutant(
        "late-rounds-counted-from-n-depth-1",
        "game.py",
        "len(range(t, n + 1, c))",
        "len(range(t, n, c))",
        "test_exploiter.py",
    ),
    Mutant(
        "geometric-tail-from-delta-depth",
        "game.py",
        "delta**t * (1 - r**k)",
        "delta ** (t - 1) * (1 - r**k)",
        "test_exploiter.py",
    ),
    Mutant(
        "cycle-phase-starts-a-round-late",
        "game.py",
        "firsts = range(d + 1, d + 1 + c)",
        "firsts = range(d + 2, d + 2 + c)",
        "test_exploiter.py",
    ),
    Mutant(
        "cycle-ratio-not-raised-to-its-length",
        "game.py",
        "r = delta**c",
        "r = delta",
        "test_oracle.py",
    ),
    Mutant(
        "discount-runs-merged-with-the-wrong-scale",
        "game.py",
        "a1 * q2",
        "a1 * q1",
        "test_exploiter.py",
    ),
    Mutant(
        "discount-leaf-without-its-factor",
        "game.py",
        "(v * p, p, q)",
        "(v, p, q)",
        "test_exploiter.py",
    ),
    Mutant(
        "discount-odd-run-dropped",
        "game.py",
        "merged + runs[2 * len(merged) :]",
        "merged",
        "test_exploiter.py",
    ),
    # The stepping choosers.
    Mutant(
        "chooser-stepped-one-edge-late",
        "words.py",
        "state = step(state, bit)",
        "state = step(state, bits[j - i - 1]) if j > i else state",
        "test_choosers.py",
    ),
    Mutant(
        "periodicity-without-the-vacuous-period",
        "prng.py",
        "periods & (shifted if bit else ~shifted) | 1 << (length + 1)",
        "periods & (shifted if bit else ~shifted)",
        "test_choosers.py",
    ),
    Mutant(
        "builtin-shadows-a-registered-name",
        "prng.py",
        "c = PREDICTORS.get(name) or _BUILTINS.get(name)",
        "c = _BUILTINS.get(name) or PREDICTORS.get(name)",
        "test_choosers.py",
    ),
    Mutant(
        "registered-guess-played-unnormalized",
        "prng.py",
        "chooser._replace(guess=lambda state: 1 if guess(state) else 0)",
        "chooser",
        "test_choosers.py",
    ),
    Mutant(
        "register-predictor-accepts-a-bare-function",
        "prng.py",
        "if not isinstance(chooser, Chooser) or not callable(chooser.guess) or not callable(chooser.step):",
        "if False:",
        "test_choosers.py",
    ),
    Mutant(
        "markov1-counters-swapped",
        "prng.py",
        "(2 * ones1 >= after1 if last else 2 * ones0 >= after0)",
        "(2 * ones0 >= after0 if last else 2 * ones1 >= after1)",
        "test_choosers.py",
    ),
    Mutant(
        "exploiter-kept-on-the-wrong-side",
        "strategies.py",
        "return at(mid, hi, t + 1) if seen else at(lo, mid, t + 1)",
        "return at(lo, mid, t + 1) if seen else at(mid, hi, t + 1)",
        "test_choosers.py",
    ),
    Mutant(
        "predictor-seat-beat-not-flipped",
        "strategies.py",
        "lambda state: c.guess(state) ^ 1",
        "lambda state: c.guess(state)",
        "test_choosers.py",
    ),
    Mutant(
        "modeled-adaptive-opponent-steps-with-the-exploiters-flip",
        "strategies.py",
        "state = inner.step(state, plays[-1] ^ beat)",
        "state = inner.step(state, plays[-1] ^ beat ^ 1)",
        "test_strategies.py",
    ),
    Mutant(
        "modeled-adaptive-plays-stepped-past-round-n",
        "strategies.py",
        "            if t + 1 < n:\n                state = inner.step(state, plays[-1] ^ beat)\n",
        "            state = inner.step(state, plays[-1] ^ beat)\n",
        "test_strategies.py",
    ),
    Mutant(
        "exploiter-chooser-built-for-its-models-horizon",
        "strategies.py",
        'majority_chooser(spec.param("opponent"), spec.param("beat"), n)',
        'majority_chooser(spec.param("opponent"), spec.param("beat"), horizon(spec.param("opponent")))',
        "test_words.py",
    ),
    Mutant(
        "match-steps-seat-1-on-its-own-play",
        "strategies.py",
        "c1.step(state1, b)",
        "c1.step(state1, a)",
        "test_exploiter.py",
    ),
    Mutant(
        "match-yields-the-stepped-state",
        "strategies.py",
        "        yield state1, a, b\n        if t + 1 < n:\n            state1, state2 = c1.step(state1, b), c2.step(state2, a)\n",
        "        if t + 1 < n:\n            state1, state2 = c1.step(state1, b), c2.step(state2, a)\n        yield state1, a, b\n",
        "test_exploiter.py",
    ),
    Mutant(
        "round-payoffs-hits-one-round-off",
        "oracle.py",
        "for h in hits]",
        "for h in hits[1:] + hits[:1]]",
        "test_choosers.py",
    ),
    Mutant(
        "oblivious-listing-one-round-short",
        "oracle.py",
        "min(n, last + 2)",
        "min(n, last + 1)",
        "test_oracle.py",
    ),
    Mutant(
        "round-payoffs-own-model-beat-sign-dropped",
        "oracle.py",
        "[sign * w for w in majority_wins(pw)[1:]]",
        "majority_wins(pw)[1:]",
        "test_words.py",
    ),
    Mutant(
        "round-payoffs-own-model-when-only-the-kind-matches",
        "oracle.py",
        'player.param("opponent") == other',
        'player.param("opponent").kind == other.kind',
        "test_words.py",
    ),
    Mutant(
        "round-payoffs-own-model-tail-sign-dropped",
        "oracle.py",
        "[sign * pw.below[-1]]",
        "[pw.below[-1]]",
        "test_oracle.py",
    ),
    Mutant(
        "round-payoffs-own-model-skips-the-cap",
        "oracle.py",
        "            check_seed_spaces(player)\n",
        "",
        "test_oracle.py",
    ),
    Mutant(
        "round-payoffs-own-model-values-the-exploiter",
        "oracle.py",
        "            pw = play_words(other, n)\n",
        "            pw = play_words(player, n)\n",
        "test_oracle.py",
    ),
    # Certification.
    Mutant(
        "distinguisher-weight-one-power-off",
        "reductions.py",
        "            weight *= delta\n            per_round[i] *= weight\n",
        "            per_round[i] *= weight\n            weight *= delta\n",
        "test_discounting.py",
    ),
    Mutant(
        "best-response-shared-when-only-the-kind-matches",
        "oracle.py",
        "(values[pair] for pair in pairs)",
        "(next(v for (a, b), v in values.items() if (a.kind, b.kind) == (pair[0].kind, pair[1].kind)) for pair in pairs)",
        "test_oracle.py",
    ),
    Mutant(
        "deviator-built-by-exploiter_vs",
        "oracle.py",
        '    return StrategySpec("exploiter", (("opponent", opponent), ("beat", False)))\n',
        "    from .strategies import exploiter_vs\n\n    return exploiter_vs(opponent)\n",
        "test_cli.py",
    ),
    Mutant(
        "deviator-plays-the-flip",
        "oracle.py",
        '(("opponent", opponent), ("beat", False))',
        '(("opponent", opponent), ("beat", True))',
        "test_oracle.py",
    ),
    Mutant(
        "discount-threshold-bound-not-strict",
        "discounting.py",
        "while power >= bound:",
        "while power > bound:",
        "test_discounting.py",
    ),
    Mutant(
        "min-rounds-uncached",
        "discounting.py",
        "@lru_cache(maxsize=1)\n",
        "",
        "test_cli.py",
    ),
    Mutant(
        "min-rounds-without-its-downward-walk",
        "discounting.py",
        "    while candidate > 0 and power / p.delta < bound:\n        power /= p.delta\n        candidate -= 1\n",
        "",
        "test_discounting.py",
    ),
    Mutant(
        "discount-threshold-budget-counts-rounds-not-bits",
        "discounting.py",
        "_rounds_estimate(delta, epsilon) * delta.denominator.bit_length() > TAIL_BITS",
        "_rounds_estimate(delta, epsilon) > TAIL_BITS",
        "test_package.py",
    ),
    Mutant(
        "discount-params-take-raw-text",
        "discounting.py",
        "        delta, epsilon = as_fraction(delta), as_fraction(epsilon)\n",
        "",
        "test_package.py",
    ),
    Mutant(
        "uniform-prefix-takes-any-seed-len",
        "discounting.py",
        '        if seed_len is not None and seed_len != n:\n            raise ValueError("uniform prefix consumes exactly n bits")\n',
        "",
        "test_discounting.py",
    ),
    # Rational inputs bounded by the int digit limit.
    Mutant(
        "fraction-digit-bound-off-by-one",
        "game.py",
        ">= 10**limit:",
        "> 10**limit:",
        "test_game.py",
    ),
    # The descriptor tables.
    Mutant(
        "flat-field-parse-and-format-disagree",
        "strategies.py",
        '("tail", str, "constant"), ("start", _parse_action, "H")',
        '("start", str, "constant"), ("tail", _parse_action, "H")',
        "test_cli.py",
    ),
    Mutant(
        "counter-row-drops-m",
        "prng.py",
        '"broken-counter": ("counter", ("m",),',
        '"broken-counter": ("counter", (),',
        "test_prng.py",
    ),
    # Bad input refused before any work.
    Mutant(
        "sweep-inputs-skip-the-cap",
        "cli.py",
        "check_seed_space(max(ks))",
        "max(ks)",
        "test_cli.py",
    ),
    Mutant(
        "discounted-prefix-skips-the-cap",
        "discounting.py",
        "    check_seed_space(generator.seed_len)\n",
        "",
        "test_cli.py",
    ),
    Mutant(
        "seed-space-shifted-before-the-cap",
        "prng.py",
        "if seed_len > MAX_SEED_LEN or 1 << seed_len > cap:",
        "if 1 << seed_len > cap:",
        "test_cli.py",
    ),
    Mutant(
        "simulate-average-over-n-plus-one",
        "cli.py",
        "avg = Fraction(cumulative, n)",
        "avg = Fraction(cumulative, n + 1)",
        "test_cli.py",
    ),
    Mutant(
        "simulate-code-swaps-the-seats",
        "cli.py",
        "bytearray(2 * a + b for",
        "bytearray(a + 2 * b for",
        "test_cli.py",
    ),
    Mutant(
        "round-text-seats-swapped",
        "cli.py",
        '("TT", "TH", "HT", "HH")',
        '("TT", "HT", "TH", "HH")',
        "test_cli.py",
    ),
    Mutant(
        "simulate-counts-matched-heads-as-a-loss",
        "cli.py",
        "codes.count(1) + codes.count(2))",
        "codes.count(1) + codes.count(2) + codes.count(3))",
        "test_cli.py",
    ),
    Mutant(
        "seed-space-walk-stops-at-the-first-exploiter",
        "strategies.py",
        'while spec.kind == "exploiter":',
        'if spec.kind == "exploiter":',
        "test_cli.py",
    ),
    # Seed lengths derived from each family's parameters.
    Mutant(
        "blum-micali-budget-read-as-m",
        "prng.py",
        "lambda out_len, m: 2 * m",
        "lambda out_len, m: m",
        "test_strategies.py",
    ),
    Mutant(
        "prefix-tail-budget-read-as-zero",
        "strategies.py",
        'if self.kind in ("uniform-table", "prefix-tail"):',
        'if self.kind in ("uniform-table",):',
        "test_strategies.py",
    ),
    # A generator spec checked against its family's row when built.
    Mutant(
        "generator-spec-takes-any-key",
        "prng.py",
        "if key not in keys and value != unset:",
        "if False:",
        "test_cli.py",
    ),
    Mutant(
        "generator-spec-takes-a-stray-m",
        "prng.py",
        '(("m", m, 0), ("perm", perm, None))',
        '(("perm", perm, None),)',
        "test_prng.py",
    ),
    Mutant(
        "generator-spec-skips-the-width-check",
        "prng.py",
        '        if "m" in keys and m < 1:\n            raise ValueError(f"generator {name} requires a width m")\n',
        "",
        "test_package.py",
    ),
    Mutant(
        "permutation-name-rebound",
        "prng.py",
        '    if name in _PERM_FACTORIES:\n        raise ValueError(f"permutation already registered: {name!r}")\n',
        "",
        "test_prng.py",
    ),
    # The descriptor grammar's space rules.
    Mutant(
        "bare-value-left-unstripped",
        "strategies.py",
        'params[""] = bare.strip()',
        'params[""] = bare',
        "test_cli.py",
    ),
    # The command-line reader.
    Mutant(
        "config-file-overrides-flag",
        "cli.py",
        "for where, texts in sources:",
        "for where, texts in reversed(sources):",
        "test_cli.py",
    ),
    Mutant(
        "sweep-range-built-before-its-check",
        "cli.py",
        "if min(ks) < 0",
        "if not list(range(ks[0], ks[-1] + 1)) and dots or min(ks) < 0",
        "test_cli.py",
    ),
    Mutant(
        "equals-form-dropped",
        "cli.py",
        'flag, eq, text = token.partition("=")',
        'flag, eq, text = token, "", ""',
        "test_cli.py",
    ),
    # The one writer and the error report.
    # Exact numbers printed in full.
    Mutant(
        "frac-str-uncached",
        "cli.py",
        "@lru_cache(maxsize=1)\n",
        "",
        "test_cli.py",
    ),
    Mutant(
        "digits-high-half-shifted-a-bit-short",
        "cli.py",
        "Decimal(_digits(v >> h))",
        "Decimal(_digits(v >> (h - 1)))",
        "test_cli.py",
    ),
    Mutant(
        "digits-low-half-dropped",
        "cli.py",
        "_EXACT.add(_EXACT.multiply(hi, _EXACT.power(2, h)), lo)",
        "_EXACT.multiply(hi, _EXACT.power(2, h))",
        "test_cli.py",
    ),
    Mutant(
        "digits-base-case-past-the-lowest-limit",
        "cli.py",
        "if v.bit_length() <= 2048:",
        "if v.bit_length() <= 4096:",
        "test_cli.py",
    ),
    Mutant(
        "out-may-name-a-fifo",
        "cli.py",
        "if out and os.path.exists(out) and not os.path.isfile(out):",
        "if out and os.path.isdir(out):",
        "test_cli.py",
    ),
    Mutant(
        "error-report-unguarded",
        "cli.py",
        "        except Exception:\n            pass\n",
        "        except ArithmeticError:\n            pass\n",
        "test_cli.py",
    ),
    Mutant(
        "run-drops-the-body-status",
        "cli.py",
        "        sys.stdout.write(text)\n    return status\n",
        "        sys.stdout.write(text)\n    return 0\n",
        "test_cli.py",
    ),
    Mutant(
        "failed-write-leaves-its-temporary",
        "cli.py",
        "        if os.path.exists(tmp):\n            os.unlink(tmp)\n",
        "        pass\n",
        "test_cli.py",
    ),
    Mutant(
        "run-ignores-out",
        "cli.py",
        "    if cfg.out:\n",
        "    if False:\n",
        "test_cli.py",
    ),
]


def _copy(into: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _fails(copy: pathlib.Path, tests: str) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    command.append(f"tests/{tests}")
    done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode != 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory(prefix="pennylab-mutants-") as tmp:
        base = pathlib.Path(tmp) / "base"
        _copy(base)
        for tests in sorted({m.tests for m in chosen}):
            if _fails(base, tests):
                print(f"unmutated tests/{tests} fails; fix it before checking mutants")
                return 1
        for mutant in chosen:
            copy = pathlib.Path(tmp) / mutant.name
            _copy(copy)
            target = copy / "src" / "pennylab" / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                print(f"STALE    {mutant.name}: the snippet occurs {text.count(mutant.old)} times in {mutant.path}")
                bad += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            killed = _fails(copy, mutant.tests)
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{verdict} {mutant.name} ({mutant.path}, tests/{mutant.tests}, {time.perf_counter() - start:.1f} s)")
            bad += not killed
            shutil.rmtree(copy)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
