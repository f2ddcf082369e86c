"""The benchmark's workloads: named sequences of cold pennylab operations.

An operation is either a CLI invocation (argv for `pennylab.cli.main`) or a
library call named in `LIBRARY`.  Sizes are scaled down from the ROADMAP
baseline rows so that one pass of a workload takes a few seconds on a 2-CPU
host, which leaves room for several passes per run; each workload keeps the
layer mix that motivated it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    `name` keys the op's pinned results.  `seed_bits` > 0 marks an `exploit`
    op whose `--opponent-seed` is drawn from the workload seed.
    """

    name: str
    argv: tuple[str, ...]
    seed_bits: int = 0

    @property
    def library(self) -> bool:
        return self.argv[0] == "lib"

    def argv_for(self, seed: int) -> list[str]:
        if not self.seed_bits:
            return list(self.argv)
        return [*self.argv, "--opponent-seed", str(opponent_seed(self, seed))]


def opponent_seed(op: Op, seed: int) -> int:
    return random.Random(f"{seed}:{op.name}").randrange(1 << op.seed_bits)


def generator_play_digest(pl, s, g, n: int) -> str:
    """SHA-256 of the generator seat's actions, for each of its seeds, against seed 0 of `s`."""
    player = pl.generator_backed(g)
    plays = (pl.simulate(player, seed, s, 0, n) for seed in range(1 << g.seed_len))
    return hashlib.sha256(" ".join("".join(a.name for a, _ in t) for t in plays).encode()).hexdigest()


# Library operations: name -> (function name in the `pennylab` package,
# a function building its arguments from the package, and None or a function
# of the package and those arguments whose output is pinned with the result).
# Building the arguments counts as set-up, like `parse_config` does for a CLI
# op.  The check runs after the body and outside the trace.
LIBRARY = {
    "payoff_to_distinguisher": (
        "payoff_to_distinguisher",
        lambda pl: (pl.uniform_table(6), pl.blum_micali("mulmod", 4, 10), 10),
        # Against a uniform table every round is a coin flip, so the result
        # is (1, 0) whatever the generator seat plays; pin that seat's play.
        generator_play_digest,
    ),
    "predictor_accuracy": (
        "predictor_accuracy",
        lambda pl: ("markov1", pl.generator_backed(pl.blum_micali("mulmod", 6, 14)), 14),
        None,
    ),
}


_BM = "gen:bm,perm=mulmod,m="

WORKLOADS: dict[str, tuple[Op, ...]] = {
    # The consistent-set walk over large oblivious seed spaces, with no
    # expectimax tree and no predictors: where compiling oblivious opponents
    # once must show.
    "oblivious-exploit": (
        Op("exploit-uniform12", ("exploit", "--n", "14", "--opponent", "uniform:12"), seed_bits=12),
        Op("exploit-bm6", ("exploit", "--n", "14", "--opponent", _BM + "6"), seed_bits=12),
        Op("sweep-n14", ("sweep", "--n", "14", "--k", "0..12")),
    ),
    # The same greedy walk with exact Fraction discount weights from both
    # seats, the factorized exact_value, and the reductions layer (16,384
    # pairwise simulate calls), which only the library reaches.
    "generator-certify": (
        Op("discounted-bm6", ("discounted", "--delta", "1/2", "--epsilon", "1/2", "--n", "12", "--prefix", _BM + "6")),
        Op("verify-uniform10-bm5", ("verify-eq", "--n", "12", "--p1", "uniform:10", "--p2", _BM + "5")),
        Op("payoff-to-distinguisher", ("lib", "payoff_to_distinguisher")),
        Op("predictor-accuracy", ("lib", "predictor_accuracy")),
    ),
    # Adaptive players: the expectimax tree, pairwise simulation, the
    # exploiter_act cache and the next-bit predictors.  The oblivious compile
    # path is barely used here.
    "adaptive-predict": (
        Op("verify-markov1-uniform10", ("verify-eq", "--n", "12", "--p1", "pred:markov1", "--p2", "uniform:10")),
        Op("verify-exploit-bm3", ("verify-eq", "--n", "12", "--p1", "exploit:vs=" + _BM + "3", "--p2", _BM + "3")),
        Op("prng-periodicity", ("prng-test", "--gen", "bm", "--m", "7", "--n", "14", "--predictor", "periodicity")),
        Op("prng-markov1", ("prng-test", "--gen", "bm", "--m", "7", "--n", "14", "--predictor", "markov1")),
    ),
}
