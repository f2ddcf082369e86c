"""In-process tracer for one pennylab operation, installed from outside the package.

Each target function is wrapped at every place it is bound: the module that
defines it, every module that imported it with `from .x import f`, the
package namespace, and dict entries such as `prng.PREDICTORS`.  A target a
later version of the package no longer has is reported as absent.

Span targets record one span per call (name, start, end, parent).  Hot
targets, called once per seed and round, only sum their calls and self time.
Self time is a call's duration minus the time of the traced calls inside it.
"""

from __future__ import annotations

import importlib.util
import sys
from time import perf_counter

SPANS = (
    "cli.parse_config",
    "cli.run",
    "strategies.simulate",
    "exploiter.greedy_value",
    "exploiter.play_match",
    "exploiter.exploiter_act",
    "oracle.exact_value",
    "oracle.best_response_value",
    "oracle.certify_gap",
    "prng.eval_next_bit_predictor",
    "prng.blum_micali",
    "reductions.per_round_payoffs",
    "reductions.predictor_accuracy",
    "reductions.payoff_to_distinguisher",
    "discounting.certify_discounted_eq",
    "discounting.min_rounds",
)

HOT = (
    "strategies.act",
    "strategies.predicted_action",
    "strategies.oblivious_actions",
    "strategies.Seed.__init__",
    "prng.bitstream",
    "prng.int_to_bits",
    "game.stage_payoff",
    "game.cumulative_payoff",
)

# Every entry of this registry is traced under one name.
PREDICTORS = "prng.predictor"


def _pairs(s1, s2) -> int:
    return (1 << s1.seed_len) * (1 << s2.seed_len)


# Seed-rounds an oracle entry point has to resolve: the seeds it enumerates
# (seed pairs, for pairwise simulation, where both seats act) times rounds.
# This is the base of `strategies.act_per_seed_round`.
SEED_ROUNDS = {
    "exploiter.greedy_value": lambda opponent, n, *a, **k: (1 << opponent.seed_len) * n,
    "oracle.exact_value": lambda s1, s2, n, *a, **k: (
        ((1 << s1.seed_len) + (1 << s2.seed_len)) * n
        if s1.oblivious and s2.oblivious
        else 2 * _pairs(s1, s2) * n
    ),
    "reductions.per_round_payoffs": lambda s, g, n, *a, **k: 2 * _pairs(s, g) * n,
    "reductions.predictor_accuracy": lambda predictor, opponent, n, *a, **k: (1 << opponent.seed_len) * n,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, self_s]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]; hot targets only
        self.absent: list[str] = []
        self.seed_rounds = 0
        # One frame per active traced call: [time of traced calls inside it,
        # index of the innermost enclosing span].
        self._stack: list[list] = []

    def _hot(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        seed_rounds = SEED_ROUNDS.get(name)

        def wrapper(*args, **kwargs):
            if seed_rounds is not None:
                try:
                    self.seed_rounds += seed_rounds(*args, **kwargs)
                except (AttributeError, TypeError):
                    pass  # signature changed: this call adds nothing to the base
            span = [name, 0.0, 0.0, stack[-1][1] if stack else -1, 0.0]
            frame = [0.0, len(spans)]
            spans.append(span)
            stack.append(frame)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                elapsed = span[2] - span[1]
                span[4] = elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def install(self, spans=SPANS, hot=HOT) -> None:
        """Wrap every target in the loaded `pennylab` modules."""
        modules = [m for name, m in list(sys.modules.items()) if name == "pennylab" or name.startswith("pennylab.")]
        for target in (*spans, *hot):
            module = "pennylab." + target.partition(".")[0]
            if module not in sys.modules and importlib.util.find_spec(module) is not None:
                continue  # this operation never imports the module
            owner, attr, original = _resolve(target)
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._hot(target, original) if target in hot else self._span(target, original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        prng = sys.modules.get("pennylab.prng")
        registry = getattr(prng, "PREDICTORS", None)
        if not isinstance(registry, dict):
            self.absent.append(PREDICTORS)
            return
        for key, fn in list(registry.items()):
            registry[key] = self._hot(PREDICTORS, fn)

    def report(self) -> dict:
        """A copy of what was recorded so far; later calls do not change it."""
        return {
            "spans": [list(span) for span in self.spans],
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "absent": list(self.absent),
            "seed_rounds": self.seed_rounds,
        }


def _resolve(target: str):
    """(object holding the attribute, attribute name, function); None for what is missing."""
    module, *path = target.split(".")
    owner = sys.modules.get("pennylab." + module)
    for part in path[:-1]:
        owner = getattr(owner, part, None) if owner is not None else None
    return owner, path[-1], getattr(owner, path[-1], None)
