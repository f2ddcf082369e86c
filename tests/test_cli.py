"""CLI parsing, artifact schemas, exit statuses, and byte-level reproducibility."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import traceback
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab import cli
from pennylab.cli import main, parse_config
from pennylab.discounting import DiscountParams, min_rounds, tail_gain
from pennylab.game import as_fraction
from pennylab.strategies import MAX_NESTING, describe, parse_strategy, simulate

from support import (
    CAP_DIGESTS,
    GOLDEN_DIGESTS,
    PERMUTATION_NAMES,
    PREDICTOR_NAMES,
    cumulative_payoff,
    format_transcript,
    reference_parse_config,
    reference_play,
)


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    status = main(args + ["--out", str(out)])
    return status, out.read_bytes()


def test_parse_config_happy_path():
    cfg = parse_config(["verify-eq", "--n", "8", "--gamma", "1/2"])
    assert cfg.command == "verify-eq"
    assert cfg.values["n"] == 8
    assert cfg.run_id  # derived from the canonical config


def test_parse_config_rejects_odd_gamma_budget():
    with pytest.raises(ValueError, match="inadmissible gamma"):
        parse_config(["verify-eq", "--n", "6", "--gamma", "1/2"])


def test_parse_config_rejects_unknown_strategy():
    for p1, message in [
        ("bogus:1", "unknown strategy family"),
        ("gen:bm,m=2,bogus=1", "unknown descriptor parameter"),
        ("gen:passthrough,m=3", "unknown descriptor parameter"),
        ("pred:markov1,beat=maybe", "malformed boolean"),
        ("exploit:beat=maybe,vs=const:H", "malformed boolean"),
        ("exploit:seat=2,vs=const:H", "unknown descriptor parameter"),
        ("prefix-tail:prefix=2,tail=constant,stop=H", "unknown descriptor parameter"),
        ("prefix-tail:n=4,gamma=1/0", "malformed fraction"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_config(["simulate", "--n", "4", "--p1", p1, "--p2", "const:H"])


@pytest.mark.parametrize(
    "args, message",
    [
        (["--predictor", "bogus"], "unknown predictor: 'bogus'"),
        (["--predictor", "markov1", "--mode", "bogus"], "unknown mode: 'bogus'"),
        (["--predictor", "markov1", "--mode", "sampled", "--samples", "0"], "sample count must be positive"),
    ],
    ids=["predictor", "mode", "samples"],
)
def test_parse_config_rejects_bad_prng_test_input(args, message):
    with pytest.raises(ValueError, match=message):
        parse_config(["prng-test", "--gen", "repeat", "--n", "4"] + args)


def test_parse_config_refuses_an_exact_tail_past_its_budget():
    # n * q.bit_length() bits: 600,000 * 4 is past discounting.TAIL_BITS, 500,000 * 4 is not.
    with pytest.raises(ValueError, match="exact tail too large"):
        parse_config(["discounted", "--delta", "9/10", "--epsilon", "1/2", "--n", "600000"])
    assert parse_config(["discounted", "--delta", "9/10", "--epsilon", "1/2", "--n", "500000"])


def test_parse_config_reads_samples_in_sampled_mode_only():
    cfg = parse_config(["prng-test", "--gen", "repeat", "--n", "4", "--predictor", "const1", "--samples", "0"])
    assert cfg.values["mode"] == "exact" and cfg.values["samples"] == 0


def test_parse_config_sweep_range():
    cfg = parse_config(["sweep", "--n", "10", "--k", "0..8"])
    assert cfg.values["k"] == "0..8"
    with pytest.raises(ValueError, match="k values"):
        parse_config(["sweep", "--n", "4", "--k", "0..9"])


def test_parse_strategy_descriptors():
    assert parse_strategy("uniform:8", 8).seed_len == 8
    assert parse_strategy("const:H", 4).kind == "constant"
    assert parse_strategy("alt:H", 4).kind == "alternator"
    gamma_side = parse_strategy("prefix-tail:n=8,gamma=1/2", 8, player=2)
    assert gamma_side.param("tail_kind") == "alternator"
    gen = parse_strategy("gen:bm,perm=add1,m=3", 8)
    assert gen.seed_len == 6
    nested = parse_strategy("exploit:vs=gen:counter,m=3", 8)
    assert nested.param("opponent").seed_len == 3
    for word, beat in (("1", True), ("TRUE", True), ("yes", True), ("0", False), ("false", False), ("No", False)):
        assert parse_strategy(f"pred:frequency,beat={word}", 4).param("beat") is beat
    with pytest.raises(ValueError, match="malformed fraction"):
        as_fraction("1/0")
    with pytest.raises(ValueError, match="unknown descriptor parameter"):
        parse_strategy("pred:markov1,bet=1", 4)


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n", "0", "--k", "0"],
        ["exploit", "--n", "0", "--opponent", "const:H"],
    ],
    ids=["sweep", "exploit"],
)
def test_empty_horizon_is_bad_input(capsys, args):
    assert main(args) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "horizon must be positive", "type": "ValueError"}


@pytest.mark.parametrize(
    "args, field, value",
    [
        (["exploit", "--n", "1500", "--opponent", "const:H"], "achieved", "1/1"),
        (["sweep", "--n", "1500", "--k", "0"], "margin", "0/1"),
        (["verify-eq", "--n", "1500", "--p1", "const:H", "--p2", "alt:H"], "certified_epsilon", "1/1"),
        (["exploit", "--n", "1500", "--opponent", "pred:markov1"], "achieved", "1/1"),
        (["verify-eq", "--n", "16", "--p1", "exploit:vs=uniform:6", "--p2", "uniform:6"], "certified_epsilon", "13/8"),
        (["verify-eq", "--n", "15", "--p1", "pred:markov1", "--p2", "uniform:8"], "certified_epsilon", "2147/1920"),
        (["verify-eq", "--n", "1500", "--p1", "pred:markov1", "--p2", "const:H"], "certified_epsilon", "2/1"),
    ],
    ids=["exploit", "sweep", "verify-eq", "exploit-adaptive", "verify-eq-exploit", "verify-eq-predictor", "verify-eq-adaptive"],
)
def test_long_horizons_never_report_not_certified(tmp_path, args, field, value):
    status, blob = run_cli(args, tmp_path, "artifact")
    assert status == 0
    text = blob.decode()
    if args[0] == "verify-eq":
        assert json.loads(text)[field] == value
    elif args[0] == "sweep":
        rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
        assert [row[field] for row in rows] == [value]
    else:
        assert f"# {field}={value}" in text.splitlines()


def _one_line_error(capsys) -> dict:
    """A status-2 exit prints exactly one line on stderr: a JSON {error, type} object."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert sorted(record) == ["error", "type"]
    return record


_EXPLOIT = ["exploit", "--n", "4", "--opponent"]
_PRNG = ["prng-test", "--gen", "repeat", "--n", "4", "--predictor", "const1"]
_SIMULATE = ["simulate", "--n", "2", "--p1", "uniform:3", "--p2", "const:H"]
# Without an int digit limit, Fraction would expand a huge exponent in full.
_NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="this interpreter has no int digit limit"
)


@pytest.mark.parametrize(
    "args, message",
    [
        (_EXPLOIT + ["const:X"], "malformed action"),
        (_EXPLOIT + ["uniform:"], "uniform requires a seed length"),
        (_EXPLOIT + ["uniform:-1"], "seed length must be non-negative"),
        (_EXPLOIT + ["prefix-tail:tail=constant"], "prefix-tail requires gamma=... or prefix=..."),
        (_EXPLOIT + ["prefix-tail:prefix=2,tail=zigzag"], "unknown tail kind"),
        (["exploit", "--n", "8", "--opponent", "prefix-tail:n=6,gamma=1/2"], "horizon disagrees with --n"),
        (_EXPLOIT + ["prefix-tail:prefix=2,n=5"], "horizon disagrees with --n"),
        (_EXPLOIT + ["prefix-tail:prefix=2,n=abc"], "invalid literal for int()"),
        (_EXPLOIT + ["exploit:beat=1"], "exploit requires vs="),
        (_EXPLOIT + ["gen:bm,m"], "malformed descriptor parameter"),
        (_EXPLOIT + ["gen:bogus"], "unknown generator family"),
        (_EXPLOIT + ["gen:counter"], "requires a width m"),
        (_EXPLOIT + ["pred:markov1,beat=maybe"], "malformed boolean"),
        (_EXPLOIT + ["uniform:2", "--opponent-seed", "-1"], "outside the declared seed space"),
        (["sweep", "--n", "4", "--k", "0..1000000000000000000000"], "k values must lie in [0, n]"),
        (["verify-eq", "--n", "4", "--p1", "const:H"], "needs --gamma or both --p1 and --p2"),
        (
            ["verify-eq", "--n", "4", "--gamma", "1/2", "--p1", "const:H", "--p2", "const:T"],
            "verify-eq takes --gamma or --p1 and --p2, not both",
        ),
        (_SIMULATE + ["--seed1", "012"], "malformed bit string: '012'"),
        (_SIMULATE + ["--seed1", "10"], "budget violation"),
        (_SIMULATE + ["--seed1", "101", "--seed2", "0"], "budget violation"),
        (["discounted", "--delta", "1/2", "--epsilon", "1/2", "--prefix", "bogus"], "prefix must be uniform or gen:"),
        (
            ["discounted", "--delta", "1/2", "--epsilon", "1/2", "--n", "3", "--prefix", "gen:bm,m=2"],
            "prefix budget exceeds the horizon",
        ),
        (_PRNG + ["--mode", "bogus"], "unknown mode"),
        (_PRNG + ["--mode", "sampled", "--samples", "0"], "sample count must be positive"),
        (
            ["prng-test", "--gen", "passthrough", "--m", "3", "--n", "4", "--predictor", "const1"],
            "unknown descriptor parameter: 'm'",
        ),
        (
            ["prng-test", "--gen", "counter", "--perm", "bogus", "--m", "2", "--n", "4", "--predictor", "const1"],
            "unknown descriptor parameter: 'perm'",
        ),
        (["prng-test", "--gen", "bm", "--m", "0", "--n", "4", "--predictor", "const1"], "generator bm requires a width m"),
        (["exploit", "--n", "x", "--opponent", "uniform:2"], "argument --n: invalid int value: 'x'"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["exploit", "--n", "3", "--gamma", "1"], "unrecognized arguments: --gamma 1"),
        (_EXPLOIT + ["exploit:vs=" * 1000 + "uniform:1"], f"nest more than {MAX_NESTING} deep"),
        (_EXPLOIT + ["uniform:2", "--opponent-s", "1"], "unrecognized arguments: --opponent-s 1"),
        (_EXPLOIT + ["uniform:2", "--out"], "argument --out: expected one argument"),
        (["exploit", "--out", "--n", "3", "--opponent", "uniform:2"], "argument --out: expected one argument"),
        (
            ["discounted", "--delta", "1/2", "--epsilon", "1e-5000"],
            "argument --epsilon: invalid as_fraction value: '1e-5000'",
        ),
        pytest.param(
            ["verify-eq", "--n", "4", "--gamma", "1e99999999"],
            "argument --gamma: invalid as_fraction value: '1e99999999'",
            marks=_NEEDS_DIGIT_LIMIT,
        ),
        pytest.param(_EXPLOIT + ["prefix-tail:gamma=1e99999999"], "digit int limit", marks=_NEEDS_DIGIT_LIMIT),
        (["discounted", "--delta", "99999999999999999/100000000000000000", "--epsilon", "1/2"], "threshold out of reach"),
        (
            ["discounted", "--delta", "99999999999999999/100000000000000000", "--epsilon", "1/2", "--n", "5"],
            "threshold out of reach",
        ),
    ],
    ids=[
        "const-X", "uniform-empty", "uniform-negative", "prefix-tail-no-prefix", "prefix-tail-bad-tail",
        "prefix-tail-gamma-horizon", "prefix-tail-prefix-horizon", "prefix-tail-non-integer-horizon", "exploit-no-vs", "gen-bare-key", "gen-bogus", "gen-counter-no-m",
        "pred-bad-beat", "negative-opponent-seed", "sweep-k-huge-range", "verify-eq-p1-only", "verify-eq-gamma-and-profile",
        "simulate-malformed-seed", "simulate-short-seed", "simulate-seed-for-a-seedless-seat", "discounted-bogus-prefix",
        "discounted-short-prefix", "prng-bogus-mode", "prng-zero-samples", "prng-passthrough-m", "prng-counter-perm", "prng-bm-no-width",
        "argparse-bad-int",
        "argparse-unknown-command", "argparse-no-command", "argparse-unrecognized", "exploit-nested-1000",
        "abbreviated-flag", "flag-at-the-end", "flag-before-a-flag", "epsilon-past-digit-limit",
        "gamma-exponent-past-digit-limit", "prefix-tail-gamma-exponent-past-digit-limit",
        "discounted-delta-near-1", "discounted-delta-near-1-explicit-n",
    ],
)
def test_bad_input_exits_2_with_one_json_line(capsys, args, message):
    assert main(args) == 2
    record = _one_line_error(capsys)
    assert record["type"] == "ValueError" and message in record["error"]


def test_simulate_seeds_are_parsed_before_anything_runs():
    cfg = parse_config(_SIMULATE + ["--seed1", "101"])
    assert cli.COMMANDS["simulate"].inputs(cfg.values)[1::2] == (0b101, 0)
    with pytest.raises(ValueError, match="budget violation"):
        parse_config(_SIMULATE + ["--seed1", "1010"])


@pytest.mark.parametrize(
    "path, text, message",
    [
        ("nonexistent.cfg", None, "cannot read config"),
        (".", None, "cannot read config"),
        ("run.cfg", "n = 4\nopponnent = uniform:2\n", "unknown config key: 'opponnent'"),
        ("run.cfg", "n = 4\nopponent uniform:2\n", "expected key = value"),
        ("run.cfg", "n = x\nopponent = uniform:2\n", "n: invalid int value: 'x'"),
    ],
    ids=["missing-file", "directory", "misspelled-key", "no-equals", "bad-value"],
)
def test_bad_config_file_exits_2_naming_the_path(tmp_path, monkeypatch, capsys, path, text, message):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / path).write_text(text)
    assert main(["exploit", "--n", "3", "--opponent", "uniform:2", "--config", path]) == 2
    record = _one_line_error(capsys)
    assert record["type"] == "ValueError"
    assert record["error"].startswith(path) and message in record["error"]


def test_config_file_accepts_out_and_run_id(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"n = 3\nopponent = uniform:2\nout = {tmp_path / 'x.csv'}\nrun-id = fixed\n")
    cfg = parse_config(["exploit", "--config", str(config)])
    assert (cfg.out, cfg.run_id) == (str(tmp_path / "x.csv"), "fixed")


@pytest.mark.parametrize(
    "out, message",
    [
        (os.path.join("missing", "x.csv"), "output directory does not exist"),
        (".", "output path is a directory"),
        ("existing", "output path is a directory"),
        ("fifo", "output path is not a regular file"),
    ],
    ids=["missing-directory", "dot", "existing-directory", "fifo"],
)
def test_missing_out_directory_is_rejected_before_running(tmp_path, monkeypatch, capsys, out, message):
    def crash(cfg, inputs):
        raise AssertionError("the body ran")

    monkeypatch.setitem(cli.COMMANDS, "exploit", cli.COMMANDS["exploit"]._replace(body=crash))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing").mkdir()
    os.mkfifo(tmp_path / "fifo")  # stands in for a device: writing it must never replace it
    (tmp_path / "run.cfg").write_text(f"out = {out}\n")
    for via in (["--out", out], ["--config", "run.cfg"]):
        assert main(["exploit", "--n", "3", "--opponent", "uniform:2", *via]) == 2
        assert _one_line_error(capsys) == {"error": f"{message}: {out}", "type": "ValueError"}
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(cfg, inputs):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "sweep", cli.COMMANDS["sweep"]._replace(body=crash))
    assert main(["sweep", "--n", "4", "--k", "0"]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "boom", "type": "RuntimeError"}


@pytest.mark.parametrize(
    "k, broken, status",
    [("9", (json, "dumps"), 2), ("0", (traceback, "print_exc"), 3)],
    ids=["bad-input", "internal-error"],
)
def test_a_failing_error_report_keeps_the_status(monkeypatch, capsys, k, broken, status):
    def crash(cfg, inputs):
        raise RuntimeError("boom")

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "sweep", cli.COMMANDS["sweep"]._replace(body=crash))
    monkeypatch.setattr(*broken, fail)
    assert main(["sweep", "--n", "4", "--k", k]) == status


def test_value_error_after_validation_exits_3(monkeypatch, capsys):
    # Bad input is refused before the body runs, so a ValueError from the body is an internal error.
    def crash(cfg, inputs):
        raise ValueError("inconsistent observation")

    monkeypatch.setitem(cli.COMMANDS, "sweep", cli.COMMANDS["sweep"]._replace(body=crash))
    assert main(["sweep", "--n", "4", "--k", "0"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0].startswith("Traceback")
    assert json.loads(lines[-1]) == {"error": "inconsistent observation", "type": "ValueError"}


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--n", "8", "--k", "0..7"], "seed space too large"),
        (["simulate", "--n", "3", "--p1", "exploit:vs=exploit:vs=uniform:7", "--p2", "const:H"], "seed space too large"),
        (["exploit", "--n", "3", "--opponent", "exploit:beat=1,vs=exploit:vs=uniform:7"], "seed space too large"),
        (["verify-eq", "--n", "3", "--p1", "uniform:2", "--p2", "exploit:vs=exploit:vs=gen:counter,m=7"], "seed space too large"),
        (["discounted", "--delta", "1/2", "--epsilon", "1/2", "--n", "4", "--seed-len", "3"], "uniform prefix consumes exactly n bits"),
        (
            ["discounted", "--delta", "1/2", "--epsilon", "1/2", "--n", "4", "--seed-len", "3", "--prefix", "gen:repeat"],
            "seed length disagrees with the generator",
        ),
        (["discounted", "--delta", "1/2", "--epsilon", "1/2", "--n", "8", "--prefix", "gen:counter,m=7"], "seed space too large"),
    ],
    ids=["sweep-cap", "simulate-nested-exploiter", "exploit-nested-exploiter", "verify-eq-nested-exploiter",
         "discounted-uniform-seed-len", "discounted-generator-seed-len", "discounted-generator-cap"],
)
def test_bad_input_is_refused_before_the_body_runs(monkeypatch, capsys, args, message):
    def crash(cfg, inputs):
        raise AssertionError("the body ran")

    monkeypatch.setenv("PENNY_CAP", "64")
    monkeypatch.setitem(cli.COMMANDS, args[0], cli.COMMANDS[args[0]]._replace(body=crash))
    assert main(args) == 2
    assert _one_line_error(capsys) == {"error": message, "type": "ValueError"}


def test_a_simulated_oblivious_seat_plays_one_seed_under_any_cap(monkeypatch):
    monkeypatch.setenv("PENNY_CAP", "64")
    assert parse_config(["simulate", "--n", "3", "--p1", "uniform:21", "--p2", "exploit:vs=uniform:6"])


@pytest.mark.parametrize("args", [["--help"], ["exploit", "--help"]], ids=["top", "command"])
def test_help_still_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pennylab") and err == ""


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name, command in cli.COMMANDS.items():
        assert name in out and command.help in out


def test_command_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit):
        main(["prng-test", "--n", "4", "--help"])
    out = capsys.readouterr().out
    assert "usage: pennylab prng-test" in out and "exploit" not in out
    flags = ["--n", "--gen", "--perm", "--m", "--predictor", "--mode", "--samples", "--eval-seed", "--config", "--out", "--run-id"]
    assert [flag for flag in flags if flag not in out.split()] == []


def test_unknown_command_exits_2_naming_every_choice(capsys):
    assert main(["bogus"]) == 2
    error = _one_line_error(capsys)["error"]
    assert "invalid choice: 'bogus'" in error
    assert all(repr(name) in error for name in cli.COMMANDS)


def test_exploiters_nested_to_the_limit_run(tmp_path, capsys):
    opponent = "exploit:vs=" * MAX_NESTING + "uniform:1"
    status, artifact = run_cli(["exploit", "--n", "2", "--opponent", opponent], tmp_path, "deep.csv")
    assert status == 0 and "# achieved=1/1" in artifact.decode()
    # Either seat may hold the chain; its best response nests one level deeper.
    for p1, p2 in ((opponent, "uniform:2"), ("uniform:2", opponent)):
        status, _ = run_cli(["verify-eq", "--n", "3", "--p1", p1, "--p2", p2], tmp_path, "deep.json")
        assert status == 0
    assert capsys.readouterr().err == ""


def test_cli_reports_errors_as_json(capsys):
    status = main(["verify-eq", "--n", "6", "--gamma", "1/2"])
    assert status == 2
    record = json.loads(capsys.readouterr().err)
    assert "inadmissible gamma" in record["error"]


def test_simulate_artifact(tmp_path):
    status, blob = run_cli(
        ["simulate", "--n", "2", "--p1", "const:H", "--p2", "alt:H"], tmp_path, "sim.json"
    )
    assert status == 0
    record = json.loads(blob)
    assert record["transcript"] == "HH,HT"
    assert record["average"] == "0/1"


def test_exploit_artifact_schema_and_status(tmp_path):
    status, blob = run_cli(
        ["exploit", "--n", "6", "--opponent", "uniform:3", "--opponent-seed", "5"],
        tmp_path,
        "exploit.csv",
    )
    assert status == 0
    lines = blob.decode().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# achieved=") for l in comments)
    assert any(l.startswith("# guaranteed=") for l in comments)
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    assert len(rows) == 6
    assert list(rows[0]) == ["round", "p_t", "alive_size", "payoff", "phi", "delta_phi"]
    assert rows[0]["alive_size"] == "8"


def test_verify_eq_artifact_and_certification(tmp_path):
    status, blob = run_cli(["verify-eq", "--n", "8", "--gamma", "1/2"], tmp_path, "eq.json")
    assert status == 0
    record = json.loads(blob)
    assert record["certified_epsilon"] == "1/2"
    assert record["certified"] is True

    status, blob = run_cli(
        ["verify-eq", "--n", "4", "--p1", "const:H", "--p2", "const:T"], tmp_path, "eq2.json"
    )
    assert status == 0  # no gamma claim, nothing to certify
    assert json.loads(blob)["gap_1"] == "2/1"


def test_prng_test_artifact(tmp_path):
    status, blob = run_cli(
        ["prng-test", "--gen", "repeat", "--n", "6", "--predictor", "frequency"],
        tmp_path,
        "prng.json",
    )
    assert status == 0
    record = json.loads(blob)
    assert record["advantage"] == "1/2"
    assert record["per_position"][:3] == ["0/1", "0/1", "1/2"]


def test_discounted_exit_status_tracks_certification(tmp_path):
    ok, _ = run_cli(
        ["discounted", "--delta", "9/10", "--epsilon", "1/10", "--n", "44"], tmp_path, "d44.json"
    )
    bad, blob = run_cli(
        ["discounted", "--delta", "9/10", "--epsilon", "1/10", "--n", "43"], tmp_path, "d43.json"
    )
    assert ok == 0 and bad == 1
    assert json.loads(blob)["certified"] is False


def test_discounted_default_horizon_is_at_least_one(tmp_path):
    # delta 1/2 makes the threshold 0: round 1's tail gain 1 is already below 3.
    status, blob = run_cli(["discounted", "--delta", "1/2", "--epsilon", "3"], tmp_path, "d0.json")
    record = json.loads(blob)
    assert status == 0
    assert (record["n"], record["min_rounds"], record["certified"]) == (1, 0, True)


@pytest.mark.parametrize(
    "args, n, min_rounds",
    [
        (["--delta", "1e-400", "--epsilon", "1/2", "--n", "3"], 3, 1),
        (["--delta", "1e-400", "--epsilon", "1/2"], 1, 1),
        (["--delta", "1/2", "--epsilon", "1e400", "--n", "3"], 3, 0),
        (["--delta", "1/2", "--epsilon", "1e400"], 1, 0),
    ],
    ids=["delta-below-float", "delta-below-float-default-n", "epsilon-above-float", "epsilon-above-float-default-n"],
)
def test_discounted_reads_rationals_no_float_can_hold(tmp_path, args, n, min_rounds):
    status, blob = run_cli(["discounted"] + args, tmp_path, "d.json")
    record = json.loads(blob)
    assert status == 0
    assert (record["n"], record["min_rounds"], record["certified"]) == (n, min_rounds, True)


def test_discounted_prints_exact_fractions_of_any_length(tmp_path):
    # At delta 999/1000 the threshold is 7,598 rounds, and the tail gain's
    # numerator and denominator run past CPython's 4,300-digit print limit.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    status, blob = run_cli(["discounted", "--delta", "999/1000", "--epsilon", "1/2"], tmp_path, "long.json")
    assert status == 0
    assert (get_limit() if get_limit else None) == limit  # restored after printing
    record = json.loads(blob)
    assert record["certified"] is True and len(record["tail_gain"]) > 4300
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        assert Fraction(record["tail_gain"]) == tail_gain(Fraction(999, 1000), record["n"])
    finally:
        if get_limit:
            sys.set_int_max_str_digits(limit)


def test_discounted_formats_each_long_number_once(capsys, monkeypatch):
    # Under a uniform prefix the tail gain and epsilon' are one number, whose
    # 75,710-bit numerator is formatted once and printed twice.
    params = DiscountParams(Fraction(999, 1000), Fraction(1, 2))
    numerator = tail_gain(params.delta, min_rounds(params)).numerator
    assert numerator.bit_length() == 75_710
    digits, formatted = cli._digits, []

    def counting(v):
        if v == numerator:
            formatted.append(v)
        return digits(v)

    monkeypatch.setattr(cli, "_digits", counting)
    cli.frac_str.cache_clear()  # another test may have printed this number already
    assert main(["discounted", "--delta", "999/1000", "--epsilon", "1/2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["tail_gain"] == record["epsilon_prime"]
    assert len(formatted) == 1


def test_discounted_walks_to_its_default_horizon_once(capsys):
    # The default --n and the artifact's min_rounds field are one exact walk.
    min_rounds.cache_clear()
    assert main(["discounted", "--delta", "999/1000", "--epsilon", "1/2"]) == 0
    capsys.readouterr()
    assert min_rounds.cache_info().misses == 1


@contextlib.contextmanager
def _digit_limit(limit):
    """The interpreter's int digit limit set to `limit` (0 lifts it) for the block, where it has one."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    saved = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if get_limit:
            sys.set_int_max_str_digits(saved)


def _wide_ints():
    """Ints each side of `_digits`' base case and first split, powers of 2 and 10, widths up to 10**6 bits."""
    rng = random.Random(43)
    for bits in (0, 1, 2, 2047, 2048, 2049, 4095, 4096, 4097, 10_000):
        yield from (rng.getrandbits(bits), 1 << bits, (1 << bits) - 1)
    for e in (616, 617, 1233, 1234, 20_000):
        yield from (10**e, 10**e - 1)
    for bits in (rng.randrange(4097, 200_000), rng.randrange(200_000, 600_000), 10**6):
        yield rng.getrandbits(bits) | 1 << (bits - 1)


def test_exact_numbers_print_as_str_prints_them():
    with _digit_limit(0):
        for v in _wide_ints():
            text = str(v)
            for p, expected in ((v, text), (-v, "-" + text if v else text)):
                assert cli._digits(p) == expected, p.bit_length()
                assert cli.frac_str(Fraction(p)) == f"{expected}/1"
            if v & 1:  # odd, so coprime to a power of 2
                assert cli.frac_str(Fraction(-v, 1 << 4097)) == f"-{text}/{1 << 4097}"


def test_printing_never_touches_the_digit_limit(tmp_path, monkeypatch):
    def refuse(limit):
        raise AssertionError("set_int_max_str_digits called")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    status, blob = run_cli(["discounted", "--delta", "999/1000", "--epsilon", "1/2"], tmp_path, "long.json")
    assert status == 0
    assert len(json.loads(blob)["tail_gain"]) > 4300


@_NEEDS_DIGIT_LIMIT
def test_exact_numbers_print_under_the_lowest_digit_limit():
    # CPython accepts no limit below 640 digits; every width prints under it.
    rng = random.Random(640)
    x = Fraction(-rng.getrandbits(315_000), rng.getrandbits(315_000) | 1)
    with _digit_limit(640):
        texts = [cli.frac_str(x)] + [cli._digits(v) for v in (1 << 2048, 1 << 4095, 10**1232)]
        assert sys.get_int_max_str_digits() == 640
    with _digit_limit(0):
        assert Fraction(texts[0]) == x and min(map(len, texts[0].split("/"))) > 90_000
        assert texts[1:] == [str(1 << 2048), str(1 << 4095), str(10**1232)]


def test_a_failed_write_keeps_the_old_artifact_and_leaves_no_temporary(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    out = tmp_path / "sweep.csv"
    out.write_bytes(b"an earlier artifact\n")
    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["sweep", "--n", "4", "--k", "0", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["type"] == "OSError"
    assert os.listdir(tmp_path) == ["sweep.csv"]  # no .pennylab-* temporary is left
    assert out.read_bytes() == b"an earlier artifact\n"


def test_sweep_artifact_margins(tmp_path):
    status, blob = run_cli(["sweep", "--n", "10", "--k", "0..4"], tmp_path, "sweep.csv")
    assert status == 0
    lines = [l for l in blob.decode().splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3", "4"]
    for row in rows:
        num, den = row["margin"].split("/")
        assert int(num) >= 0 and int(den) > 0


def _small_address_space_run():
    """A runner of the CLI in a child that caps its own address space at 512 MiB."""
    resource = pytest.importorskip("resource")
    limit = 512 << 20
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", "from pennylab.cli import entry; entry()", *args],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True,
            timeout=120,
        )

    return run


def test_a_long_sweep_runs_in_a_small_address_space():
    # The child caps its own address space at 512 MiB.  10**8 rounds past a
    # one-bit table's depth are counted, never listed, which a list per round
    # overruns; a 60000-round discounted sum is one product tree, which a list
    # of 60000 exact powers of 9/10 overruns; an exploiter of a constant is
    # valued by its greedy count, which credits its 10**8 wins without
    # listing them; the paper's equilibrium lists its rounds only up to
    # both seats' horizons plus 2, past which its pay cycles; and two
    # adaptive seats list their 10**7 rounds' pay from one match of their
    # choosers, with no transcript of actions beside it.
    run = _small_address_space_run()
    done = run("sweep", "--n", "100000000", "--k", "0..1")
    assert done.returncode == 0, done.stderr.decode()
    lines = [l for l in done.stdout.decode().splitlines() if not l.startswith("#")]
    assert [r["k"] for r in csv.DictReader(lines)] == ["0", "1"]
    done = run("discounted", "--delta", "9/10", "--epsilon", "1/2", "--n", "60000", "--prefix", "gen:repeat")
    assert done.returncode == 1, done.stderr.decode()
    assert json.loads(done.stdout)["certified"] is False
    done = run("verify-eq", "--n", "100000000", "--p1", "exploit:vs=const:H", "--p2", "const:H")
    assert done.returncode == 0, done.stderr.decode()
    record = json.loads(done.stdout)
    assert (record["value"], record["certified_epsilon"]) == ("1/1", "2/1")
    done = run("verify-eq", "--n", "100000000", "--gamma", "4999999/5000000")
    assert done.returncode == 0, done.stderr.decode()
    done = run("verify-eq", "--n", "10000000", "--p1", "pred:markov1", "--p2", "pred:frequency,beat=1")
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout)["value"] == "87/5000000"


@pytest.mark.parametrize(
    "args",
    [
        "verify-eq --n 4 --p1 uniform:100000000000 --p2 const:H",
        "verify-eq --n 4 --p1 gen:counter,m=100000000000 --p2 const:H",
        "verify-eq --n 100000000000 --gamma 0",
        "sweep --n 100000000000 --k 0..100000000000",
        "exploit --n 4 --opponent prefix-tail:prefix=100000000000",
        "prng-test --gen passthrough --n 100000000000 --predictor const1",
    ],
)
def test_an_oversized_seed_length_is_bad_input_in_a_small_address_space(args):
    # Run in a child only: a check that built 2**seed_len first would ask for
    # gigabytes.  The length alone is refused, past the 2**20 cap's 20 bits.
    done = _small_address_space_run()(*args.split())
    assert done.returncode == 2, done.stderr.decode()
    assert json.loads(done.stderr.decode().splitlines()[-1])["error"] == "seed space too large"


def test_a_long_simulate_runs_in_a_small_address_space():
    # Each round is one byte of the match's codes until the text is built: a
    # pair of Actions per round, or a tuple of every round's play per seat,
    # overruns 512 MiB here.
    done = _small_address_space_run()("simulate", "--n", "10000000", "--p1", "prefix-tail:prefix=12", "--p2", "alt:H")
    assert done.returncode == 0, done.stderr.decode()
    record = json.loads(done.stdout)
    transcript = record["transcript"]
    assert len(transcript) == 3 * 10**7 - 1 and transcript.count(",") == 10**7 - 1
    # Seed 0 plays T for 12 rounds and then H, against H, T, H, ...: each seat wins every other round.
    assert transcript[:6] == "TH,TT," and transcript[-6:] == ",HH,HT"
    assert (record["cumulative"], record["average"]) == (0, "0/1")


def test_a_seat_with_an_oversized_seed_length_plays_only_the_bits_of_its_rounds():
    # simulate enumerates no seeds, so no cap applies; four rounds read four seed bits.
    done = _small_address_space_run()("simulate", "--n", "4", "--p1", "uniform:100000000000", "--p2", "const:H")
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout)["transcript"] == "TH,TH,TH,TH"


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n = 8\ngamma = 1/2\n")
    cfg = parse_config(["verify-eq", "--config", str(config)])
    assert cfg.values["n"] == 8
    override = parse_config(["verify-eq", "--config", str(config), "--gamma", "1/4"])
    assert override.values["gamma"].numerator == 1
    assert override.values["gamma"].denominator == 4


def test_missing_required_field_is_diagnosed():
    with pytest.raises(ValueError, match="missing required field: n"):
        parse_config(["sweep", "--k", "0..2"])


def test_penny_cap_env_rejects_large_spaces(tmp_path, monkeypatch):
    monkeypatch.setenv("PENNY_CAP", "16")
    status = main(
        ["exploit", "--n", "6", "--opponent", "uniform:5", "--out", str(tmp_path / "x.csv")]
    )
    assert status == 2


@pytest.mark.parametrize("cap", ["abc", "1/2"])
def test_a_malformed_penny_cap_is_named(monkeypatch, capsys, cap):
    monkeypatch.setenv("PENNY_CAP", cap)
    assert main(["sweep", "--n", "4", "--k", "0..2"]) == 2
    assert _one_line_error(capsys) == {"error": "PENNY_CAP must be an integer", "type": "ValueError"}


def test_penny_cap_env_bounds_the_exploiter_seat(monkeypatch, capsys):
    # The exploiter enumerates its model's seeds, so the cap covers it too.
    monkeypatch.setenv("PENNY_CAP", "16")
    assert main(["verify-eq", "--n", "4", "--p1", "exploit:vs=uniform:5", "--p2", "const:H"]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "seed space too large", "type": "ValueError"}


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--n", "3", "--p1", "uniform:3", "--p2", "exploit:vs=uniform:3", "--seed1", "101"],
        ["exploit", "--n", "8", "--opponent", "gen:counter,m=3", "--opponent-seed", "2"],
        ["verify-eq", "--n", "8", "--gamma", "1/4"],
        ["prng-test", "--gen", "bm", "--perm", "mulmod", "--m", "3", "--n", "8", "--predictor", "markov1"],
        ["discounted", "--delta", "1/2", "--epsilon", "1/2", "--n", "4", "--prefix", "gen:repeat"],
        ["sweep", "--n", "8", "--k", "0..3"],
    ],
    ids=["simulate", "exploit", "verify-eq", "prng-test", "discounted", "sweep"],
)
def test_identical_configs_reproduce_byte_identical_artifacts(tmp_path, args):
    digests = set()
    for i in range(3):
        _, blob = run_cli(args, tmp_path, f"artifact-{i}")
        digests.add(hashlib.sha256(blob).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
def test_criterion_8_artifacts_match_golden_digests(tmp_path, command):
    status, blob = run_cli(command.split(), tmp_path, "artifact")
    assert status == 0
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[command]


@pytest.mark.parametrize("command", list(CAP_DIGESTS))  # in order, so the Blum-Micali rows share one compiled table
def test_cap_scale_artifacts_match_their_digests(tmp_path, command):
    status, blob = run_cli(command.split(), tmp_path, "artifact")
    assert status == 0
    assert hashlib.sha256(blob).hexdigest() == CAP_DIGESTS[command]


def _seed_text(draw, spec):
    return "".join(draw(st.lists(st.sampled_from("01"), min_size=spec.seed_len, max_size=spec.seed_len)))


def _run_to_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


_LEAVES = st.one_of(
    st.integers(0, 6).map("uniform:{}".format),
    st.sampled_from(("const:H", "const:T", "alt:H", "alt:T")),
    st.builds(
        "prefix-tail:prefix={},tail={},start={}".format,
        st.integers(0, 6),
        st.sampled_from(("constant", "alternator")),
        st.sampled_from("HT"),
    ),
    st.sampled_from(("gen:repeat", "gen:passthrough", "gen:counter,m=2", "gen:counter,m=7"))
    | st.builds("gen:bm,perm={},m={}".format, st.sampled_from(PERMUTATION_NAMES), st.integers(1, 3)),
    st.builds("pred:{}{}".format, st.sampled_from(PREDICTOR_NAMES), st.sampled_from(("", ",beat=1"))),
)
# Valid strategy descriptors, with exploiters wrapped around any family.
_DESCRIPTORS = st.recursive(
    _LEAVES, lambda inner: st.builds("exploit:{}vs={}".format, st.sampled_from(("", "beat=1,")), inner), max_leaves=3
)


@settings(max_examples=100, deadline=None)
@given(_LEAVES, st.data())
def test_spaces_after_separators_are_ignored(descriptor, data):
    # A bare value is stripped as a keyed one is: "const: H" is "const:H", "prefix-tail:prefix= 2, tail= constant" ...
    spaced = "".join(c + " " * data.draw(st.integers(1, 2)) if c in ":,=" else c for c in descriptor)
    assert parse_strategy(spaced, 6) == parse_strategy(descriptor, 6)


@settings(max_examples=80, deadline=None)
@given(_DESCRIPTORS, _DESCRIPTORS, st.integers(1, 12), st.data())
def test_the_simulate_artifact_is_the_librarys_match(d1, d2, n, data):
    # The command writes its match from one byte per round; the library's is a tuple of Action pairs.
    s1, s2 = parse_strategy(d1, n, player=1), parse_strategy(d2, n, player=2)
    seed1, seed2 = _seed_text(data.draw, s1), _seed_text(data.draw, s2)
    status, text = _run_to_text(["simulate", "--n", str(n), "--p1", d1, "--p2", d2, "--seed1", seed1, "--seed2", seed2])
    assert status == 0
    record = json.loads(text)
    transcript = simulate(s1, int(seed1 or "0", 2), s2, int(seed2 or "0", 2), n)
    assert record["transcript"] == format_transcript(transcript)
    assert record["cumulative"] == cumulative_payoff(transcript)
    average = Fraction(record["cumulative"], n)
    assert record["average"] == f"{average.numerator}/{average.denominator}"


@settings(max_examples=60, deadline=None)
@given(_LEAVES, st.integers(1, 10), st.data())
def test_the_exploit_rows_are_the_seed_list_walk(descriptor, n, data):
    # Each CSV row is formatted as its trace row is played, and the header's
    # final potential and traced payoff come from the same pass.
    opponent = parse_strategy(descriptor, n, player=2)
    seed = data.draw(st.integers(0, (1 << opponent.seed_len) - 1), label="seed")
    status, text = _run_to_text(["exploit", "--n", str(n), "--opponent", descriptor, "--opponent-seed", str(seed)])
    assert status in (0, 1)
    lines = text.splitlines()
    header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows, phi = reference_play(opponent, seed, n)
    expected = [
        ",".join([str(t), f"{p.numerator}/{p.denominator}", str(size), str(payoff), format(phi_t, ".12g"), format(d, ".12g")])
        for t, p, size, payoff, phi_t, d in rows
    ]
    assert [line for line in lines if not line.startswith("#")][1:] == expected
    assert header["final_phi"] == format(phi, ".12g")
    assert header["traced_cumulative"] == str(sum(row[3] for row in rows))


def test_a_spaced_bare_action_simulates(capsys):
    assert main(["simulate", "--n", "4", "--p1", "const: H", "--p2", "const:H"]) == 0
    assert json.loads(capsys.readouterr().out)["transcript"] == "HH,HH,HH,HH"


@st.composite
def _mutated(draw, text):
    """`text` with one character dropped, inserted or replaced."""
    at = draw(st.integers(0, len(text)))
    junk = draw(st.sampled_from(list(":=,.-/HTx019") + ["99", ""]))
    return text[:at] + junk + text[at + draw(st.integers(0, 1)) :]


@st.composite
def _fuzzed_argv(draw):
    """One argv for a random command: small horizons, or long ones (past 64 rounds) for generators."""
    long = draw(st.booleans())
    n = draw(st.integers(65, 70)) if long else draw(st.integers(1, 6))
    descriptor = st.sampled_from(("gen:repeat", "gen:counter,m=2", "gen:bm,m=1", "exploit:vs=gen:repeat")) if long else _DESCRIPTORS
    d1, d2 = draw(descriptor), draw(descriptor)
    command = draw(st.sampled_from(("simulate", "exploit", "verify-eq", "prng-test", "discounted", "sweep")))
    if command == "simulate":
        argv = ["--p1", d1, "--p2", d2]
        for flag, descriptor in (("--seed1", d1), ("--seed2", d2)):
            if draw(st.booleans()):  # a seed of the right length, the wrong length, or with a non-binary digit
                width = parse_strategy(descriptor, n).seed_len
                width = draw(st.sampled_from((width, width, width + 1, max(width - 1, 0))))
                seed = "".join(draw(st.lists(st.sampled_from("01"), min_size=width, max_size=width)))
                argv += [flag, draw(st.sampled_from((seed, seed, seed + "2", "x" + seed)))]
    elif command == "exploit":
        argv = ["--opponent", d1, "--opponent-seed", str(draw(st.sampled_from((0, 0, 1, 3))))]
    elif command == "verify-eq":
        gamma = ["--gamma", draw(st.sampled_from(("1/2", "0", "1", "1/3", "1e-5000")))]
        argv = draw(st.sampled_from((gamma, ["--p1", d1, "--p2", d2], gamma + ["--p1", d1, "--p2", d2])))
    elif command == "prng-test":
        n = min(n, 12)
        argv = [
            "--gen", draw(st.sampled_from(("bm", "counter", "passthrough", "repeat"))),
            "--m", str(draw(st.integers(0, 4))),
            "--predictor", draw(st.sampled_from(PREDICTOR_NAMES)),
            "--mode", draw(st.sampled_from(("exact", "sampled"))),
            "--samples", str(draw(st.integers(0, 40))),
        ]
    elif command == "discounted":
        delta = draw(st.sampled_from(("1/2", "2/3", "3/2", "1e-400")))
        argv = ["--delta", delta, "--epsilon", draw(st.sampled_from(("1/2", "1/4", "0", "1e400", "1e-5000")))]
        argv += ["--prefix", draw(st.sampled_from(("uniform", "gen:repeat", "gen:bm,m=1", "gen:counter,m=2")))]
    else:
        argv = ["--k", draw(st.sampled_from(("0", "0..3", "1,2", "2..1", "9")))]
    if draw(st.booleans()):  # one mutated value
        at = draw(st.integers(0, len(argv) // 2 - 1)) * 2 + 1
        argv[at] = draw(_mutated(argv[at]))
    return [command, "--n", str(n)] + argv, [d for d in (d1, d2) if d in argv]


@settings(max_examples=120, deadline=None)
@given(_fuzzed_argv())
def test_fuzzed_commands_keep_the_exit_contract(case):
    # PENNY_CAP=64 lowers the cap, so most seed spaces above 6 bits are bad input.
    argv, valid = case
    n = int(argv[2])
    for descriptor in valid:
        spec = parse_strategy(descriptor, n)
        assert parse_strategy(describe(spec), n) == spec
        if n <= 64:  # drawn from _DESCRIPTORS, whose every descriptor is canonical
            assert describe(spec) == descriptor
    err = io.StringIO()
    with mock.patch.dict(os.environ, PENNY_CAP="64"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), (argv, err.getvalue())
    if status == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert sorted(json.loads(lines[0])) == ["error", "type"]


# Texts a field's flag or config-file key may take: (ones its cast accepts,
# ones it rejects).  None starts with "-" except a negative integer.
_FIELD_TEXTS = {
    "n": (("1", "3", "6", "0", "-1"), ("x", "", "2.5")),
    "opponent": (("uniform:2", "const:H", "gen:counter,m=2", "bogus:1"), ()),
    "opponent_seed": (("0", "1", "3", "-1"), ("x",)),
    "p1": (("uniform:2", "const:H", "pred:markov1", "bogus:1"), ()),
    "p2": (("uniform:1", "alt:T", "exploit:vs=uniform:1"), ()),
    "seed1": (("", "0", "01", "2"), ()),
    "seed2": (("", "1", "10"), ()),
    "gamma": (("1/2", "1/4", "0"), ("x", "1/0")),
    "gen": (("bm", "repeat", "counter", "passthrough", "bogus"), ()),
    "perm": (("mulmod", "add1", "bogus"), ()),
    "m": (("0", "2", "3"), ("x",)),
    "predictor": (("markov1", "const1", "bogus"), ()),
    "mode": (("exact", "sampled", "bogus"), ()),
    "samples": (("10", "0"), ("x",)),
    "eval_seed": (("0", "3"), ("x",)),
    "delta": (("1/2", "9/10", "3/2"), ("x",)),
    "epsilon": (("1/2", "1/10", "0"), ("x",)),
    "seed_len": (("0", "2"), ("x",)),
    "prefix": (("uniform", "gen:repeat", "bogus"), ()),
    "k": (("0", "0..3", "1,2", "9"), ()),
    "run_id": (("fixed", ""), ()),
}


@st.composite
def _reader_case(draw, root):
    """An argv for the reader, and the text of the config file `root/run.cfg` it may name.

    Every field of a random command, most of them present, then `--config`,
    `--out` and `--run-id`, some repeated, in any order and each as `--key
    value` or `--key=value`; sometimes one unknown or abbreviated flag, stray
    positional or flag without a value goes in at a random place.
    """
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    fields = [key for key, _, _ in cli.COMMANDS[command].fields]
    paths = {
        "out": (str(root / "a.csv"), str(root / "missing" / "a.csv"), str(root), ""),
        "config": (str(root / "run.cfg"), str(root / "run.cfg"), str(root / "absent.cfg"), ""),
    }

    def rarely(k):  # true one time in k + 1; Hypothesis leans to the low end of a range
        return draw(st.integers(0, k)) == k

    def text(key):
        if key in paths:
            return draw(st.sampled_from(paths[key]))
        good, bad = _FIELD_TEXTS[key]
        return draw(st.sampled_from(bad if bad and rarely(7) else good))

    keys = [key for key in fields if not rarely(7)] + [key for key in paths if draw(st.booleans())]
    keys += draw(st.lists(st.sampled_from(fields + ["out", "run_id"]), max_size=2))
    argv = [command]
    for key in draw(st.permutations(keys)):
        flag = "--" + key.replace("_", "-")
        argv += [f"{flag}={text(key)}"] if draw(st.booleans()) else [flag, text(key)]
    if rarely(3):
        stray = ("--bogus", "--" + fields[-1].replace("_", "-")[:-1], "stray", "--" + fields[0].replace("_", "-"))
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(stray)))
    lines = ["# a comment", "bogus = 1" if rarely(7) else ""]
    for key in draw(st.lists(st.sampled_from(fields + ["out", "run_id"]), max_size=4)):
        lines.append(f"{key.replace('_', draw(st.sampled_from('_-')))} = {text(key)}")
    return argv, "\n".join(lines)


@pytest.fixture(scope="module")
def reader_root(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_agrees_with_the_argparse_reference(reader_root, data):
    argv, config_text = data.draw(_reader_case(reader_root))
    (reader_root / "run.cfg").write_text(config_text)
    outcomes = []
    for parse in (parse_config, reference_parse_config):
        try:
            outcomes.append(parse(argv))
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1], argv
