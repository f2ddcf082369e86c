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
        "lone[min(t + 1, n)] += below[hi] - below[lo]",
        "test_words.py",
    ),
    Mutant(
        "hits-one-word-range-a-position-late",
        "words.py",
        "for j, bit in enumerate(bits, i):",
        "for j, bit in enumerate(bits[1:], i + 1):",
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
        "exploiter-majority-counts-words-not-seeds",
        "exploiter.py",
        "return 1 if below[hi] - below[mid] >= below[mid] - below[lo] else 0",
        "return 1 if hi - mid >= mid - lo else 0",
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
        "strategies.py",
        "t = (t - 1) % opponent.seed_len + 1",
        "pass",
        "test_words.py",
    ),
    Mutant(
        "sort-buckets-swapped",
        "words.py",
        "parts[g].append(word)",
        "parts[g ^ 1].append(word)",
        "test_words.py",
    ),
    Mutant(
        "last-sort-bucket-dropped",
        "words.py",
        "for part in parts:",
        "for part in parts[:-1]:",
        "test_words.py",
    ),
    Mutant(
        "split-without-its-empty-range-guard",
        "strategies.py",
        "return lo if lo == hi else split_words(pw.words, lo, hi, pw.depth - t)",
        "return split_words(pw.words, lo, hi, pw.depth - t)",
        "test_strategies.py",
    ),
    # One seed's plays.
    Mutant(
        "seed-plays-reads-a-bit-late",
        "strategies.py",
        "seed >> (k - 1 - (t - 1) % k)",
        "seed >> (k - 1 - t % k)",
        "test_strategies.py",
    ),
    Mutant(
        "play-match-reads-the-next-round",
        "exploiter.py",
        "plays[t - 1]",
        "plays[min(t, n - 1)]",
        "test_words.py",
    ),
    # The seedless rounds.
    Mutant(
        "fixed-play-alternator-tail-parity-flipped",
        "strategies.py",
        'return start if spec.param("tail_kind") == "constant" or offset % 2 else start.flip()',
        'return start if spec.param("tail_kind") == "constant" or (offset + 1) % 2 else start.flip()',
        "test_strategies.py",
    ),
    Mutant(
        "split-past-depth-always-hi",
        "strategies.py",
        "return lo if play is Action.H else hi",
        "return hi",
        "test_words.py",
    ),
    Mutant(
        "word-hits-shares-a-uniform-tables-tail",
        "strategies.py",
        'if not (opponent.kind == "uniform-table" and opponent.seed_len):',
        "if True:",
        "test_words.py",
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
        "rounds-past-the-depth-not-credited",
        "words.py",
        "lone[top + 1] = below[-1]",
        "lone[top + 1] = 0",
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
        "identity-words-credited-from-the-depth",
        "words.py",
        "return [0] * (depth + 1) + [below[-1]] * (n - depth)",
        "return [0] * depth + [below[-1]] * (n - depth + 1)",
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
        "stack = [(top + 1, lo, hi)] if lo < hi else []",
        "stack = [(top + 2, lo, hi)] if lo < hi else []",
        "test_level_tables.py",
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
        "markov1-counters-swapped",
        "prng.py",
        "(2 * ones1 >= after1 if last else 2 * ones0 >= after0)",
        "(2 * ones0 >= after0 if last else 2 * ones1 >= after1)",
        "test_choosers.py",
    ),
    Mutant(
        "exploiter-kept-on-the-wrong-side",
        "exploiter.py",
        "return at(mid, hi, t + 1) if seen else at(lo, mid, t + 1)",
        "return at(lo, mid, t + 1) if seen else at(mid, hi, t + 1)",
        "test_choosers.py",
    ),
    Mutant(
        "round-payoffs-hits-one-round-off",
        "oracle.py",
        "for h in hits]",
        "for h in hits[1:] + hits[:1]]",
        "test_choosers.py",
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
