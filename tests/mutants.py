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
        "prng.py",
        "bisect_left(words, (words[lo] >> shift | 1) << shift, lo, hi)",
        "bisect_left(words, ((words[lo] >> shift | 1) << shift) + 1, lo, hi)",
        "test_words.py",
    ),
    Mutant(
        "greedy-one-word-shortcut-a-round-late",
        "exploiter.py",
        "lone[t] += below[hi] - below[lo]",
        "lone[min(t + 1, n)] += below[hi] - below[lo]",
        "test_words.py",
    ),
    Mutant(
        "hits-one-word-range-a-position-late",
        "prng.py",
        "for j, bit in enumerate(bits, i):",
        "for j, bit in enumerate(bits[1:], i + 1):",
        "test_words.py",
    ),
    Mutant(
        "greedy-split-counts-words-not-seeds",
        "exploiter.py",
        "wins[t] += abs(below[hi] + below[lo] - 2 * below[mid])",
        "wins[t] += abs(hi + lo - 2 * mid)",
        "test_words.py",
    ),
    Mutant(
        "greedy-one-word-counts-words-not-seeds",
        "exploiter.py",
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
        "prng.py",
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
        "prng.py",
        "parts[g].append(word)",
        "parts[g ^ 1].append(word)",
        "test_words.py",
    ),
    Mutant(
        "last-sort-bucket-dropped",
        "prng.py",
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
    # The stepping choosers.
    Mutant(
        "chooser-stepped-one-edge-late",
        "prng.py",
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
