"""Command-line front end: experiment configs in, reproducible CSV/JSON artifacts out.

Every run is fully determined by its config: flags override config-file values,
the effective config is echoed into each artifact header, and the run id is a
hash of the canonical config, so re-running an identical config reproduces
byte-identical output.

Exit status: 0 ran (and certified, where the command certifies), 1 not
certified, 2 bad input, 3 internal error.  Statuses 2 and 3 print one JSON
line {"error", "type"} on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import tempfile
from fractions import Fraction
from typing import Any, Callable, NamedTuple, NoReturn, Optional

# The run id's SHA-256 comes from the interpreter's built-in module, as
# `random` takes its SHA-512, because `hashlib` would load OpenSSL at
# start-up.  The module is `_sha2` from Python 3.12 and `_sha256` before.
try:
    sha256 = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

from .discounting import DiscountParams, certify_discounted_eq, min_rounds
from .exploiter import greedy_value, guarantee, play_match
from .game import as_fraction, average_payoff, cumulative_payoff, format_transcript
from .oracle import certify_gap
from .prng import check_seed_space, make_generator, parse_generator
from .reductions import eval_next_bit_predictor
from .strategies import describe, make_gamma_equilibrium, parse_strategy, simulate, uniform_table


class ExperimentConfig(NamedTuple):
    """A fully resolved run: command, canonical field values, derived run id."""

    command: str
    values: dict[str, Any]
    run_id: str
    out: Optional[str]


# --------------------------------------------------------------------------
# Artifact formatting
# --------------------------------------------------------------------------


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def dec_str(x) -> str:
    return "%.15g" % float(x)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pennylab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def json_artifact(cfg: ExperimentConfig, payload: dict) -> str:
    import json  # imported on use, like traceback in `main`: a CSV run never loads it

    record = {
        "command": cfg.command,
        "config": {k: str(v) for k, v in sorted(cfg.values.items()) if v is not None},
        "run_id": cfg.run_id,
    }
    record.update(payload)
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def csv_artifact(cfg: ExperimentConfig, header: list[str], rows: list[list[str]], extra: dict) -> str:
    lines = [f"# command={cfg.command}", f"# run_id={cfg.run_id}"]
    for key in sorted(cfg.values):
        if cfg.values[key] is not None:
            lines.append(f"# {key}={cfg.values[key]}")
    for key in sorted(extra):
        lines.append(f"# {key}={extra[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Per-command validation: each turns resolved values into the command's
# inputs, raising ValueError on bad input.  `parse_config` runs it to reject
# a config up front; `run` runs it again to hand the inputs to the body.
# --------------------------------------------------------------------------


def _seed_bits(text: str, seed_len: int) -> int:
    """A `--seed1`/`--seed2` bit string as the seed integer; empty means all zeros."""
    if any(c not in "01" for c in text):
        raise ValueError(f"malformed bit string: {text!r}")
    if text and len(text) != seed_len:
        raise ValueError("budget violation")
    return int(text or "0", 2)


def _simulate_inputs(v: dict):
    s1, s2 = parse_strategy(v["p1"], v["n"], player=1), parse_strategy(v["p2"], v["n"], player=2)
    return s1, _seed_bits(v["seed1"], s1.seed_len), s2, _seed_bits(v["seed2"], s2.seed_len)


def _exploit_inputs(v: dict):
    spec = parse_strategy(v["opponent"], v["n"], player=2)
    check_seed_space(spec.seed_len)
    if not 0 <= v["opponent_seed"] < (1 << spec.seed_len):
        raise ValueError("opponent seed outside the declared seed space")
    return spec


def _verify_eq_inputs(v: dict):
    n = v["n"]
    if v["gamma"] is not None and (v["p1"] or v["p2"]):
        raise ValueError("verify-eq takes --gamma or --p1 and --p2, not both")
    if v["gamma"] is not None:
        pair = make_gamma_equilibrium(n, v["gamma"])
    elif not (v["p1"] and v["p2"]):
        raise ValueError("verify-eq needs --gamma or both --p1 and --p2")
    else:
        pair = parse_strategy(v["p1"], n, player=1), parse_strategy(v["p2"], n, player=2)
    for spec in pair:
        check_seed_space(spec.seed_len)
    return pair


def _prng_test_inputs(v: dict):
    generator = make_generator(v["gen"], v["n"], v["m"], v["perm"])
    if v["mode"] == "exact":
        check_seed_space(generator.seed_len)
    return generator


def _discounted_inputs(v: dict):
    params = DiscountParams.of(v["delta"], v["epsilon"])
    prefix = v["prefix"]
    if prefix == "uniform":
        return params, None
    if not prefix.startswith("gen:"):
        raise ValueError("prefix must be uniform or gen:<descriptor>")
    return params, parse_generator(prefix[len("gen:") :], v["n"])


def _sweep_inputs(v: dict) -> list[int]:
    text = v["k"]
    if ".." in text:
        lo, _, hi = text.partition("..")
        ks = list(range(int(lo), int(hi) + 1))
    else:
        ks = [int(part) for part in text.split(",")]
    if not ks or any(k < 0 or k > v["n"] for k in ks):
        raise ValueError("k values must lie in [0, n]")
    return ks


# --------------------------------------------------------------------------
# Command bodies
# --------------------------------------------------------------------------


def _cmd_simulate(cfg: ExperimentConfig, seats) -> int:
    transcript = simulate(*seats, cfg.values["n"])
    avg = average_payoff(transcript)
    payload = {
        "transcript": format_transcript(transcript),
        "cumulative": cumulative_payoff(transcript),
        "average": frac_str(avg),
        "average_dec": dec_str(avg),
    }
    emit(cfg, json_artifact(cfg, payload))
    return 0


def _cmd_exploit(cfg: ExperimentConfig, opponent) -> int:
    n = cfg.values["n"]
    achieved = greedy_value(opponent, n)
    bound = guarantee(n, opponent.seed_len)
    match = play_match(opponent, cfg.values["opponent_seed"], n)
    rows = [
        [str(r.round), frac_str(r.p), str(r.alive_size), str(r.payoff), "%.12g" % r.phi, "%.12g" % r.delta_phi]
        for r in match.rows
    ]
    extra = {
        "achieved": frac_str(achieved),
        "achieved_dec": dec_str(achieved),
        "guaranteed": frac_str(bound),
        "guaranteed_dec": dec_str(bound),
        "margin": frac_str(achieved - bound),
        "final_phi": "%.12g" % match.final_phi,
        "traced_cumulative": str(match.cumulative),
    }
    header = ["round", "p_t", "alive_size", "payoff", "phi", "delta_phi"]
    emit(cfg, csv_artifact(cfg, header, rows, extra))
    return 0 if achieved >= bound else 1


def _cmd_verify_eq(cfg: ExperimentConfig, pair) -> int:
    n = cfg.values["n"]
    gamma = cfg.values["gamma"]
    s1, s2 = pair
    report = certify_gap(s1, s2, n)
    payload = {
        "n": n,
        "p1": describe(s1),
        "p2": describe(s2),
        "value": frac_str(report.value),
        "value_dec": dec_str(report.value),
        "best_response_1": frac_str(report.best_response_1),
        "best_response_2": frac_str(report.best_response_2),
        "gap_1": frac_str(report.gap_1),
        "gap_2": frac_str(report.gap_2),
        "certified_epsilon": frac_str(report.certified_epsilon),
        "certified_epsilon_dec": dec_str(report.certified_epsilon),
    }
    status = 0
    if gamma is not None:
        certified = report.certified_epsilon <= gamma
        payload["gamma"] = frac_str(gamma)
        payload["certified"] = certified
        status = 0 if certified else 1
    emit(cfg, json_artifact(cfg, payload))
    return status


def _cmd_prng_test(cfg: ExperimentConfig, generator) -> int:
    report = eval_next_bit_predictor(
        generator,
        cfg.values["predictor"],
        mode=cfg.values["mode"],
        samples=cfg.values["samples"],
        eval_seed=cfg.values["eval_seed"],
    )
    if report.exact:
        advantage = frac_str(report.advantage)
        per_position = [frac_str(p) for p in report.per_position]
    else:
        advantage = dec_str(report.advantage)
        per_position = [dec_str(p) for p in report.per_position]
    payload = {
        "generator": generator.describe(),
        "advantage": advantage,
        "advantage_dec": dec_str(report.advantage),
        "per_position": per_position,
        "best_position": report.best_position,
        "samples": report.samples,
        "exact": report.exact,
        "half_width": None if report.half_width is None else dec_str(report.half_width),
    }
    emit(cfg, json_artifact(cfg, payload))
    return 0


def _cmd_discounted(cfg: ExperimentConfig, inputs) -> int:
    params, generator = inputs
    n = cfg.values["n"]
    cert = certify_discounted_eq(n, params, seed_len=cfg.values["seed_len"], generator=generator)
    payload = {
        "n": cert.n,
        "delta": frac_str(cert.delta),
        "epsilon": frac_str(cert.epsilon),
        "min_rounds": min_rounds(params),
        "prefix": cfg.values["prefix"],
        "prefix_gap": frac_str(cert.prefix_gap),
        "tail_gain": frac_str(cert.tail),
        "tail_gain_dec": dec_str(cert.tail),
        "epsilon_prime": frac_str(cert.epsilon_prime),
        "epsilon_prime_dec": dec_str(cert.epsilon_prime),
        "certified": cert.certified,
    }
    emit(cfg, json_artifact(cfg, payload))
    return 0 if cert.certified else 1


def _cmd_sweep(cfg: ExperimentConfig, ks) -> int:
    n = cfg.values["n"]
    rows = []
    all_ok = True
    for k in ks:
        achieved = greedy_value(uniform_table(k), n)
        bound = guarantee(n, k)
        margin = achieved - bound
        all_ok = all_ok and margin >= 0
        exact = (bound, achieved, margin)
        rows.append([str(k), str(n), *map(frac_str, exact), *map(dec_str, exact)])
    header = ["k", "n", "guaranteed", "achieved", "margin", "guaranteed_dec", "achieved_dec", "margin_dec"]
    emit(cfg, csv_artifact(cfg, header, rows, {"opponent_family": "uniform-table"}))
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# The command table and config resolution
# --------------------------------------------------------------------------

REQUIRED = object()


def _default_rounds(values: dict) -> int:
    return max(1, min_rounds(DiscountParams.of(values["delta"], values["epsilon"])))


class Command(NamedTuple):
    """One subcommand.  Each field (name, type, default) is both the flag
    --name (underscores spelled "-") and the config-file key `name`; `type`
    casts either.  A callable default is computed from the fields before it.
    """

    help: str
    fields: tuple[tuple[str, Callable[[str], Any], Any], ...]
    inputs: Callable[[dict], Any]
    body: Callable[[ExperimentConfig, Any], int]


COMMANDS = {
    "simulate": Command(
        "play two strategies with fixed seeds",
        (("n", int, REQUIRED), ("p1", str, REQUIRED), ("p2", str, REQUIRED), ("seed1", str, ""), ("seed2", str, "")),
        _simulate_inputs,
        _cmd_simulate,
    ),
    "exploit": Command(
        "run the consistent-set exploiter against an opponent",
        (("n", int, REQUIRED), ("opponent", str, REQUIRED), ("opponent_seed", int, 0)),
        _exploit_inputs,
        _cmd_exploit,
    ),
    "verify-eq": Command(
        "certify equilibrium gaps for a profile",
        (("n", int, REQUIRED), ("gamma", as_fraction, None), ("p1", str, None), ("p2", str, None)),
        _verify_eq_inputs,
        _cmd_verify_eq,
    ),
    "prng-test": Command(
        "measure a next-bit predictor against a generator",
        (
            ("n", int, REQUIRED), ("gen", str, REQUIRED), ("perm", str, "mulmod"), ("m", int, 0),
            ("predictor", str, REQUIRED), ("mode", str, "exact"), ("samples", int, 10_000), ("eval_seed", int, 0),
        ),
        _prng_test_inputs,
        _cmd_prng_test,
    ),
    "discounted": Command(
        "certify the discounted infinite-game construction",
        (
            ("delta", as_fraction, REQUIRED), ("epsilon", as_fraction, REQUIRED), ("n", int, _default_rounds),
            ("seed_len", int, None), ("prefix", str, "uniform"),
        ),
        _discounted_inputs,
        _cmd_discounted,
    ),
    "sweep": Command(
        "exploiter guarantee sweep over opponent budgets",
        (("n", int, REQUIRED), ("k", str, REQUIRED)),
        _sweep_inputs,
        _cmd_sweep,
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are bad input (exit 2, one JSON
    line) rather than a usage block; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with the subparser of command `only`, or of every command."""
    parser = _Parser(
        prog="pennylab",
        description="Randomness-budgeted repeated Matching Pennies laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=command.help)
        for field, cast, _ in command.fields:
            p.add_argument("--" + field.replace("_", "-"), dest=field, type=cast)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="artifact path (stdout if omitted)")
        p.add_argument("--run-id", dest="run_id", help="override the derived run id")
    return parser


def _load_config_file(path: str, keys: set[str]) -> dict[str, str]:
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as e:
        raise ValueError(f"{path}: cannot read config: {e.strerror}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown config key: {key!r}")
        values[key] = value.strip()
    return values


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Parse argv (plus any --config file) into a validated ExperimentConfig.

    Only the subparser of the command argv[0] names is built; any other
    argv (`--help`, an unknown command) gets every command, so the help
    and the invalid-choice error list them all.
    """
    args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    command = COMMANDS[args.command]
    keys = {name for name, _, _ in command.fields} | {"out", "run_id"}
    filecfg = _load_config_file(args.config, keys) if args.config else {}
    values: dict[str, Any] = {}
    for name, cast, default in command.fields:
        value = getattr(args, name)
        if value is None and name in filecfg:
            value = cast(filecfg[name])
        elif value is None and default is REQUIRED:
            raise ValueError(f"missing required field: {name}")
        elif value is None:
            value = default(values) if callable(default) else default
        values[name] = value
    if values["n"] < 1:
        raise ValueError("horizon must be positive")
    command.inputs(values)
    out = args.out or filecfg.get("out")
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"output directory does not exist: {out}")

    canonical = args.command + ";" + ";".join(f"{k}={values[k]}" for k in sorted(values))
    run_id = args.run_id or filecfg.get("run_id") or sha256(canonical.encode()).hexdigest()[:12]
    return ExperimentConfig(args.command, values, run_id, out)


def run(cfg: ExperimentConfig) -> int:
    """Execute a resolved config; returns the process exit status."""
    command = COMMANDS[cfg.command]
    return command.body(cfg, command.inputs(cfg.values))


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_config(argv))
    except Exception as e:
        import json

        bad_input = isinstance(e, ValueError)
        if not bad_input:
            import traceback

            traceback.print_exc()
        print(json.dumps({"error": str(e), "type": type(e).__name__}, sort_keys=True), file=sys.stderr)
        return 2 if bad_input else 3


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
