"""Package-wide rules: pennylab imports nothing outside the standard library, its
cold import stays light, and its records keep their value semantics."""

import ast
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import pennylab
from pennylab.cli import ExperimentConfig
from pennylab import game, strategies
from pennylab.discounting import DiscountParams, certify_discounted_eq, tail_gain
from pennylab.exploiter import play_match
from pennylab.game import Action
from pennylab.oracle import certify_gap
from pennylab.prng import GeneratorSpec, broken_repeat, passthrough
from pennylab.reductions import eval_next_bit_predictor, per_round_payoffs, predictor_accuracy
from pennylab.strategies import (
    StrategySpec,
    constant,
    describe,
    exploiter_vs,
    generator_backed,
    make_gamma_equilibrium,
    predictor_backed,
    prefix_tail,
    uniform_table,
)

from support import init_consistent

PACKAGE = pathlib.Path(pennylab.__file__).parent
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()


def _imports() -> list[tuple[str, str]]:
    """(file name, module name) for every import in the package, function-level ones included.

    A relative import keeps its leading dots: `from . import exploiter` is
    ".exploiter" and `from .prng import Chooser` is ".prng".
    """
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [alias.name for alias in node.names]
                found += [(path.name, "." * node.level + name) for name in names]
    return found


def _imported_modules() -> list[tuple[str, str]]:
    """(file name, absolute module name) for every absolute import; relative ones stay inside the package."""
    return [(file, name) for file, name in _imports() if not name.startswith(".")]


def test_play_words_sit_on_the_leaf_module_alone():
    # prng <- words <- strategies: prng imports no pennylab module, and words
    # only prng, so neither can join an import cycle.
    relative = [(file, name) for file, name in _imports() if name.startswith(".")]
    assert [name for file, name in relative if file == "prng.py"] == []
    assert {name for file, name in relative if file == "words.py"} == {".prng"}


def test_best_responses_are_valued_by_the_oracle_alone():
    # A best response is an exploiter seat's `exact_value`: the oracle needs
    # no exploiter module, which keeps only a match's potential trace and
    # reads the match itself from strategies alone.
    relative = [(file, name) for file, name in _imports() if name.startswith(".")]
    assert {name for file, name in relative if file == "exploiter.py"} == {".strategies"}
    assert ".exploiter" not in {name for file, name in relative if file == "oracle.py"}


def test_the_library_plays_in_bits_alone():
    # The Action forms of payoffs and one seed's plays are test references
    # (tests/support.py); the package keeps only `Action`, `Transcript` and `simulate`.
    for name in ("stage_payoff", "cumulative_payoff", "average_payoff", "format_transcript", "seed_plays"):
        assert not hasattr(pennylab, name), name
    assert not hasattr(game, "bit_to_action")
    assert not hasattr(strategies, "seed_plays")


def test_relative_imports_form_no_cycle():
    # Function-level imports count: importing a module inside a function
    # hides a cycle from the interpreter, not from the design.
    graph: dict[str, set[str]] = {}
    for file, name in _imports():
        if name.startswith("."):
            graph.setdefault(file.removesuffix(".py"), set()).add(name.lstrip("."))
    assert graph["strategies"]  # the search finds the package's imports at all
    while graph:
        done = [module for module, needs in graph.items() if not needs & graph.keys()]
        assert done, f"import cycle among {sorted(graph)}"
        for module in done:
            del graph[module]


def test_package_imports_only_the_standard_library():
    outside = [
        f"{file}: {name}" for file, name in _imported_modules() if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_package_never_imports_dataclasses():
    assert [file for file, name in _imported_modules() if name.partition(".")[0] == "dataclasses"] == []


# Modules a CLI run should not pay for at start-up: dataclasses and what it
# pulls in, traceback (only the exit-3 path prints one), json (only JSON
# artifacts and error lines write it), hashlib, which loads OpenSSL (the
# run id takes SHA-256 from the built-in module), argparse and the gettext
# and locale lookups it makes (the command table has its own reader), and
# tempfile (only --out writes through it).
_HEAVY = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "traceback", "json", "hashlib", "_hashlib",
    "argparse", "gettext", "locale", "tempfile",
)


def test_cold_cli_import_loads_no_heavy_module():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import pennylab.cli; "
        "pennylab.cli.parse_config(['exploit', '--n', '3', '--opponent', 'uniform:2']); "
        f"print(pennylab.cli.__file__); print(sorted(m for m in {_HEAVY!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout
    origin, loaded = out.splitlines()
    assert pathlib.Path(origin) == PACKAGE / "cli.py"
    assert loaded == "[]"


_H = Action.H

# (maker, a field name, pinned repr); each maker returns a fresh record.
RECORDS = {
    "ExperimentConfig": (
        lambda: ExperimentConfig("sweep", {"k": "0", "n": 2}, "abc", None),
        "run_id",
        "ExperimentConfig(command='sweep', values={'k': '0', 'n': 2}, run_id='abc', out=None)",
    ),
    "DiscountParams": (
        lambda: DiscountParams("1/2", "1/3"),
        "delta",
        "DiscountParams(delta=Fraction(1, 2), epsilon=Fraction(1, 3))",
    ),
    "DiscountedCertificate": (
        lambda: certify_discounted_eq(2, DiscountParams("1/2", "1/2")),
        "certified",
        "DiscountedCertificate(n=2, delta=Fraction(1, 2), epsilon=Fraction(1, 2), prefix_gap=Fraction(0, 1), "
        "tail=Fraction(1, 2), epsilon_prime=Fraction(1, 2), certified=True)",
    ),
    "ConsistentSet": (
        lambda: init_consistent(uniform_table(1)),
        "alive",
        "ConsistentSet(opponent=StrategySpec(kind='uniform-table', params=(('seed_len', 1),)), alive=(0, 1), round=1)",
    ),
    "TraceRow": (
        lambda: next(play_match(constant(_H), 0, 1)),
        "p",
        "TraceRow(round=1, p=Fraction(1, 1), alive_size=1, payoff=1, phi=0.0, delta_phi=1.0)",
    ),
    "GapReport": (
        lambda: certify_gap(constant(_H), uniform_table(1), 1),
        "certified_epsilon",
        "GapReport(value=Fraction(0, 1), best_response_1=Fraction(0, 1), best_response_2=Fraction(1, 1), "
        "gap_1=Fraction(0, 1), gap_2=Fraction(1, 1), certified_epsilon=Fraction(1, 1))",
    ),
    "GeneratorSpec": (
        lambda: passthrough(3),
        "out_len",
        "GeneratorSpec(kind='uniform-passthrough', out_len=3, m=0, perm=None)",
    ),
    "PredictorReport": (
        lambda: eval_next_bit_predictor(broken_repeat(3), "const1"),
        "advantage",
        "PredictorReport(advantage=Fraction(0, 1), samples=4, per_position=(Fraction(0, 1), Fraction(0, 1), "
        "Fraction(0, 1)), exact=True, best_position=1, half_width=None)",
    ),
    "StrategySpec": (
        lambda: uniform_table(3),
        "seed_len",
        "StrategySpec(kind='uniform-table', params=(('seed_len', 3),))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_values_with_pinned_reprs(name):
    make, field, pinned = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == pinned
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0)
    assert repr(record) == pinned
    again = make()
    assert again is not record and again == record
    if name != "ExperimentConfig":  # its `values` is a dict, so it has no hash
        assert hash(again) == hash(record)
        assert {record: 1}[again] == 1


@pytest.mark.parametrize(
    "construct, message",
    [
        (lambda: GeneratorSpec("uniform-passthrough", 0), "output length must be positive"),
        (lambda: GeneratorSpec(kind="broken-counter", out_len=0, m=2), "output length must be positive"),
        (lambda: GeneratorSpec("broken-counter", 4), "generator counter requires a width m"),
        (lambda: GeneratorSpec("blum-micali-ip", 4), "generator bm requires a width m"),
        (lambda: GeneratorSpec("broken-repeat", 4, 3, "add1"), "unknown descriptor parameter: 'm'"),
        (lambda: GeneratorSpec("uniform-passthrough", 4, perm="mulmod"), "unknown descriptor parameter: 'perm'"),
        (lambda: GeneratorSpec("blum-micali-ip", 4, 2), "unknown permutation: None"),
        (lambda: GeneratorSpec("blum-micali", 4, 2, "mulmod"), "unknown generator kind: 'blum-micali'"),
        (lambda: DiscountParams(Fraction(1), Fraction(1, 2)), "invalid discount factor"),
        (lambda: DiscountParams(Fraction(0), Fraction(1, 2)), "invalid discount factor"),
        (lambda: DiscountParams(Fraction(1, 2), Fraction(0)), "epsilon must be positive"),
        (lambda: DiscountParams("99999/100000", "1/2"), "discount threshold out of reach"),
    ],
    ids=[
        "generator-empty", "generator-empty-keywords", "counter-no-width", "bm-no-width", "repeat-stray-keys",
        "passthrough-stray-perm", "bm-no-perm", "generator-unknown-kind", "delta-1", "delta-0", "epsilon-0",
        "threshold-out-of-reach",
    ],
)
def test_validated_records_reject_bad_fields_when_built_directly(construct, message):
    with pytest.raises(ValueError, match=message):
        construct()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tail_gain("1/2", -1), ValueError, "round index must be non-negative"),
        (lambda: strategies.chooser(generator_backed(passthrough(3)), 4), ValueError, "generator stream too short for this round"),
        (lambda: strategies.chooser(exploiter_vs(uniform_table(2)), 0), ValueError, "horizon must be positive"),
        (
            lambda: strategies.chooser(exploiter_vs(predictor_backed("markov1")), 0),
            ValueError,
            "horizon must be positive",
        ),
        (lambda: uniform_table(2).param("nope"), KeyError, "nope"),
        (lambda: describe(StrategySpec("bogus", ())), ValueError, "unknown strategy kind: 'bogus'"),
        (lambda: prefix_tail(-1, "constant"), ValueError, "prefix length must be non-negative"),
        (lambda: make_gamma_equilibrium(0, 0), ValueError, "horizon must be positive"),
        (
            lambda: per_round_payoffs(uniform_table(2), passthrough(3), 4),
            ValueError,
            "generator stream too short for this horizon",
        ),
        (
            lambda: predictor_accuracy("markov1", predictor_backed("markov1"), 3),
            ValueError,
            "accuracy is defined against oblivious opponents",
        ),
        (
            lambda: eval_next_bit_predictor(passthrough(3), "markov1", mode="sampled", samples=0),
            ValueError,
            "sample count must be positive",
        ),
        (lambda: eval_next_bit_predictor(passthrough(3), "markov1", mode="bogus"), ValueError, "unknown mode: 'bogus'"),
        pytest.param(
            lambda: DiscountParams(Fraction(1, 10**_DIGIT_LIMIT), "1/2"),
            ValueError,
            f"fraction outgrows the {_DIGIT_LIMIT}-digit int limit",
            marks=pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter has no int digit limit"),
        ),
    ],
    ids=[
        "tail-gain-negative-round", "seed-plays-short-stream",
        "exploit-chooser-zero-rounds-vs-uniform", "exploit-chooser-zero-rounds-vs-pred",
        "param-unknown", "describe-unknown-kind", "prefix-tail-negative", "gamma-empty-horizon",
        "per-round-short-stream", "accuracy-against-adaptive", "predictor-zero-samples", "predictor-unknown-mode",
        "discount-delta-past-digit-limit",
    ],
)
def test_library_calls_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
