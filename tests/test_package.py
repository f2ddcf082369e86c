"""Package-wide rules: pennylab imports nothing outside the standard library, its
cold import stays light, and its records keep their value semantics."""

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import pennylab
from pennylab.cli import ExperimentConfig
from pennylab.discounting import DiscountParams, certify_discounted_eq
from pennylab.exploiter import play_match
from pennylab.game import Action
from pennylab.oracle import certify_gap
from pennylab.prng import GeneratorSpec, broken_repeat, eval_next_bit_predictor, passthrough
from pennylab.strategies import StrategySpec, constant, uniform_table

from support import init_consistent

PACKAGE = pathlib.Path(pennylab.__file__).parent


def _imported_modules() -> list[tuple[str, str]]:
    """(file name, absolute module name) for every absolute import in the package."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
            # relative imports stay inside the package
    return found


def test_package_imports_only_the_standard_library():
    outside = [
        f"{file}: {name}" for file, name in _imported_modules() if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_package_never_imports_dataclasses():
    assert [file for file, name in _imported_modules() if name.partition(".")[0] == "dataclasses"] == []


# Modules a CLI run should not pay for at start-up: dataclasses and what it
# pulls in, traceback (only the exit-3 path prints one), json (only JSON
# artifacts and error lines write it) and hashlib, which loads OpenSSL (the
# run id takes SHA-256 from the built-in module).
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "traceback", "json", "hashlib", "_hashlib")


def test_cold_cli_import_loads_no_heavy_module():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import pennylab.cli; "
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
        lambda: DiscountParams.of("1/2", "1/3"),
        "delta",
        "DiscountParams(delta=Fraction(1, 2), epsilon=Fraction(1, 3))",
    ),
    "DiscountedCertificate": (
        lambda: certify_discounted_eq(2, DiscountParams.of("1/2", "1/2")),
        "certified",
        "DiscountedCertificate(n=2, delta=Fraction(1, 2), epsilon=Fraction(1, 2), prefix_gap=Fraction(0, 1), "
        "tail=Fraction(1, 2), epsilon_prime=Fraction(1, 2), certified=True)",
    ),
    "ConsistentSet": (
        lambda: init_consistent(uniform_table(1)),
        "alive",
        "ConsistentSet(opponent=StrategySpec(kind='uniform-table', params=(), seed_len=1), alive=(0, 1), round=1)",
    ),
    "TraceRow": (
        lambda: play_match(constant(_H), 0, 1).rows[0],
        "p",
        "TraceRow(round=1, p=Fraction(1, 1), alive_size=1, payoff=1, phi=0.0, delta_phi=1.0)",
    ),
    "MatchResult": (
        lambda: play_match(constant(_H), 0, 1),
        "cumulative",
        "MatchResult(transcript=((H, H),), rows=(TraceRow(round=1, p=Fraction(1, 1), alive_size=1, payoff=1, "
        "phi=0.0, delta_phi=1.0),), cumulative=1, final_phi=1.0)",
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
        "GeneratorSpec(kind='uniform-passthrough', out_len=3, seed_len=3, m=0, perm=None)",
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
        "StrategySpec(kind='uniform-table', params=(), seed_len=3)",
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
        (lambda: StrategySpec("exploiter", (("opponent", constant(_H)), ("beat", False)), 1), "read no seed"),
        (lambda: GeneratorSpec("uniform-passthrough", 0, 0), "output length must be positive"),
        (lambda: GeneratorSpec(kind="broken-counter", out_len=0, seed_len=2, m=2), "output length must be positive"),
        (lambda: DiscountParams(Fraction(1), Fraction(1, 2)), "invalid discount factor"),
        (lambda: DiscountParams(Fraction(0), Fraction(1, 2)), "invalid discount factor"),
        (lambda: DiscountParams(Fraction(1, 2), Fraction(0)), "epsilon must be positive"),
    ],
    ids=["adaptive-seeded", "generator-empty", "generator-empty-keywords", "delta-1", "delta-0", "epsilon-0"],
)
def test_validated_records_reject_bad_fields_when_built_directly(construct, message):
    with pytest.raises(ValueError, match=message):
        construct()
