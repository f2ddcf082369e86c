"""CLI parsing, artifact schemas, exit statuses, and byte-level reproducibility."""

import contextlib
import csv
import hashlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennylab import cli
from pennylab.cli import main, parse_config
from pennylab.game import as_fraction
from pennylab.strategies import MAX_NESTING, describe, parse_strategy

from support import PERMUTATION_NAMES, PREDICTOR_NAMES


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


@pytest.mark.parametrize(
    "args, message",
    [
        (_EXPLOIT + ["const:X"], "malformed action"),
        (_EXPLOIT + ["uniform:"], "uniform requires a seed length"),
        (_EXPLOIT + ["uniform:-1"], "seed length must be non-negative"),
        (_EXPLOIT + ["prefix-tail:tail=constant"], "prefix-tail requires gamma=... or prefix=..."),
        (_EXPLOIT + ["prefix-tail:prefix=2,tail=zigzag"], "unknown tail kind"),
        (["exploit", "--n", "8", "--opponent", "prefix-tail:n=6,gamma=1/2"], "horizon disagrees with --n"),
        (_EXPLOIT + ["exploit:beat=1"], "exploit requires vs="),
        (_EXPLOIT + ["gen:bm,m"], "malformed descriptor parameter"),
        (_EXPLOIT + ["gen:bogus"], "unknown generator family"),
        (_EXPLOIT + ["gen:counter"], "requires a width m"),
        (_EXPLOIT + ["pred:markov1,beat=maybe"], "malformed boolean"),
        (_EXPLOIT + ["uniform:2", "--opponent-seed", "-1"], "outside the declared seed space"),
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
        (["exploit", "--n", "x", "--opponent", "uniform:2"], "argument --n: invalid int value: 'x'"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["exploit", "--n", "3", "--gamma", "1"], "unrecognized arguments: --gamma 1"),
        (_EXPLOIT + ["exploit:vs=" * 1000 + "uniform:1"], f"nest more than {MAX_NESTING} deep"),
    ],
    ids=[
        "const-X", "uniform-empty", "uniform-negative", "prefix-tail-no-prefix", "prefix-tail-bad-tail",
        "prefix-tail-gamma-horizon", "exploit-no-vs", "gen-bare-key", "gen-bogus", "gen-counter-no-m",
        "pred-bad-beat", "negative-opponent-seed", "verify-eq-p1-only", "verify-eq-gamma-and-profile",
        "simulate-malformed-seed", "simulate-short-seed", "simulate-seed-for-a-seedless-seat", "discounted-bogus-prefix",
        "discounted-short-prefix", "prng-bogus-mode", "prng-zero-samples", "argparse-bad-int",
        "argparse-unknown-command", "argparse-no-command", "argparse-unrecognized", "exploit-nested-1000",
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
    ],
    ids=["missing-file", "directory", "misspelled-key", "no-equals"],
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


def test_missing_out_directory_is_rejected_before_running(tmp_path, monkeypatch, capsys):
    def crash(cfg, inputs):
        raise AssertionError("the body ran")

    monkeypatch.setitem(cli.COMMANDS, "exploit", cli.COMMANDS["exploit"]._replace(body=crash))
    out = str(tmp_path / "missing" / "x.csv")
    assert main(["exploit", "--n", "3", "--opponent", "uniform:2", "--out", out]) == 2
    assert _one_line_error(capsys) == {"error": f"output directory does not exist: {out}", "type": "ValueError"}


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(cfg, inputs):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "sweep", cli.COMMANDS["sweep"]._replace(body=crash))
    assert main(["sweep", "--n", "4", "--k", "0"]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "boom", "type": "RuntimeError"}


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


def test_unknown_command_exits_2_naming_every_choice(capsys):
    assert main(["bogus"]) == 2
    error = _one_line_error(capsys)["error"]
    assert "invalid choice: 'bogus'" in error
    assert all(repr(name) in error for name in cli.COMMANDS)


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--n", "3", "--p1", "uniform:3", "--p2", "alt:T", "--seed1", "101"],
        ["exploit", "--n", "8", "--opponent", "gen:counter,m=3", "--opponent-seed", "2", "--run-id", "x"],
        ["verify-eq", "--n", "8", "--p1", "uniform:4", "--p2", "pred:markov1"],
        ["prng-test", "--gen", "bm", "--m", "3", "--n", "8", "--predictor", "markov1", "--mode", "sampled"],
        ["discounted", "--delta", "1/2", "--epsilon", "1/2"],
        ["sweep", "--n", "8", "--k", "0..3", "--out", "sweep.csv"],
    ],
    ids=list(cli.COMMANDS),
)
def test_one_subparser_parses_as_the_full_parser(monkeypatch, args):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: built.append(only) or build(only))
    one = parse_config(args)
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: build())
    assert built == [args[0]]
    assert parse_config(args) == one


def test_exploiters_nested_to_the_limit_run(tmp_path, capsys):
    opponent = "exploit:vs=" * MAX_NESTING + "uniform:1"
    status, artifact = run_cli(["exploit", "--n", "2", "--opponent", opponent], tmp_path, "deep.csv")
    assert status == 0 and "# achieved=1/1" in artifact.decode()
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


def test_sweep_artifact_margins(tmp_path):
    status, blob = run_cli(["sweep", "--n", "10", "--k", "0..4"], tmp_path, "sweep.csv")
    assert status == 0
    lines = [l for l in blob.decode().splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3", "4"]
    for row in rows:
        num, den = row["margin"].split("/")
        assert int(num) >= 0 and int(den) > 0


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


# SHA-256 of the acceptance criterion-8 artifacts, recorded before the front
# end was rebuilt around one command table; any byte change shows up here.
GOLDEN_DIGESTS = {
    "simulate --n 4 --p1 uniform:4 --p2 alt:H --seed1 1010": "f5f3e37b380b58118d938cd4c82c795c3fb950adc34b3c5498dfe6f5b33437c4",
    "exploit --n 10 --opponent uniform:4 --opponent-seed 7": "0d52a230de41b1fa22e5dd95f33678a8b021ee368e15a34087a1c7bad998612e",
    "verify-eq --n 8 --gamma 1/2": "f7be5b732ac5fa4a994f88be8a2b37cd94543cd820005ff4cdde4b4ab7618634",
    "prng-test --gen repeat --n 8 --predictor frequency": "ca1ca1759fb8883242967c82b36a60716105f627309de2ac8d4e5bc86d850bbd",
    "discounted --delta 9/10 --epsilon 1/10": "9beafcc8b4c3f2ed9cb188e22bb268e224909a8d4da2b608e6a7826ddb228e1b",
    "sweep --n 10 --k 0..8": "1bac9a26ba28d511863e9ca74b2a9d7172bc9b749a9f60888340464e027644e6",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
def test_criterion_8_artifacts_match_golden_digests(tmp_path, command):
    status, blob = run_cli(command.split(), tmp_path, "artifact")
    assert status == 0
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[command]


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
        gamma = ["--gamma", draw(st.sampled_from(("1/2", "0", "1", "1/3")))]
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
        argv = ["--delta", draw(st.sampled_from(("1/2", "2/3", "3/2"))), "--epsilon", draw(st.sampled_from(("1/2", "1/4", "0")))]
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
    err = io.StringIO()
    with mock.patch.dict(os.environ, PENNY_CAP="64"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), (argv, err.getvalue())
    if status == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert sorted(json.loads(lines[0])) == ["error", "type"]
