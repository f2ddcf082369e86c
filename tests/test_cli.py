"""CLI parsing, artifact schemas, exit statuses, and byte-level reproducibility."""

import csv
import hashlib
import json

import pytest

from pennylab import cli
from pennylab.cli import main, parse_config
from pennylab.game import as_fraction
from pennylab.strategies import parse_strategy


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


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(cfg, inputs):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "sweep", cli.COMMANDS["sweep"]._replace(body=crash))
    assert main(["sweep", "--n", "4", "--k", "0"]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "boom", "type": "RuntimeError"}


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
