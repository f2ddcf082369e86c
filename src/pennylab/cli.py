"""Command-line front end: experiment configs in, reproducible CSV/JSON artifacts out.

Every run is fully determined by its config: flags override config-file values,
the effective config is echoed into each artifact header, and the run id is a
hash of the canonical config, so re-running an identical config reproduces
byte-identical output.

Exit status: 0 ran (and certified, where the command certifies), 1 not
certified, 2 bad input, refused before any work, 3 any exception after the
config is validated, an internal error.  Statuses 2 and 3 print one JSON line
{"error", "type"} on stderr.
"""

from __future__ import annotations

import importlib
import io
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional

# The run id's SHA-256 comes from the interpreter's built-in module, as
# `random` takes its SHA-512, because `hashlib` would load OpenSSL at
# start-up.  The module is `_sha2` from Python 3.12 and `_sha256` before.
try:
    sha256 = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

from .discounting import TAIL_BITS, DiscountParams, certify_discounted_eq, check_prefix, min_rounds
from .exploiter import final_phi, guarantee, play_match
from .game import as_fraction
from .oracle import best_response_value, certify_gap
from .prng import check_seed_space, make_generator, parse_generator, predictor_chooser
from .reductions import eval_next_bit_predictor
from .strategies import check_seed_spaces, chooser, describe, make_gamma_equilibrium, match, parse_strategy, uniform_table


class ExperimentConfig(NamedTuple):
    """A fully resolved run: command, canonical field values, derived run id."""

    command: str
    values: dict[str, Any]
    run_id: str
    out: Optional[str]


# --------------------------------------------------------------------------
# Artifact formatting
# --------------------------------------------------------------------------


# Every sum and product in this context is exact: its precision and exponent range are the widest libmpdec allows.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)


def _digits(v: int) -> str:
    """str(v) at any length, in subquadratic time, within any int digit limit.

    An int of at most 2,048 bits has under 640 digits, the lowest limit
    CPython accepts, so `str` prints it.  A wider one splits at half its width,
    v = hi * 2**h + lo, and sums its halves' digits in exact decimal: CPython
    3.12's `_pylong` rule, whose products libmpdec takes in subquadratic time.
    """
    if v.bit_length() <= 2048:
        return str(v)
    h = v.bit_length() // 2
    hi, lo = Decimal(_digits(v >> h)), Decimal(_digits(v & ((1 << h) - 1)))
    return str(_EXACT.add(_EXACT.multiply(hi, _EXACT.power(2, h)), lo))


# One slot: an artifact may print the same long number twice in a row.
@lru_cache(maxsize=1)
def frac_str(x: Fraction) -> str:
    """x as "p/q", exact at any length."""
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def dec_str(x) -> str:
    return "%.15g" % float(x)


def _atomic_write(path: str, data: str) -> None:
    import tempfile  # imported on use, like json: only an --out run needs it
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


def json_artifact(cfg: ExperimentConfig, payload: dict) -> str:
    import json  # imported on use, like traceback in `main`: a CSV run never loads it

    record = {
        "command": cfg.command,
        "config": {k: str(v) for k, v in sorted(cfg.values.items()) if v is not None},
        "run_id": cfg.run_id,
    }
    record.update(payload)
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def csv_artifact(cfg: ExperimentConfig, header: list[str], rows: str, extra: dict) -> str:
    lines = [f"# command={cfg.command}", f"# run_id={cfg.run_id}"]
    for key in sorted(cfg.values):
        if cfg.values[key] is not None:
            lines.append(f"# {key}={cfg.values[key]}")
    for key in sorted(extra):
        lines.append(f"# {key}={extra[key]}")
    lines.append(",".join(header))
    return "\n".join([*lines, rows])  # each of the rows ends in a newline


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
    for spec in (s1, s2):
        if spec.kind == "exploiter":  # an oblivious seat plays one seed, so only a model's seeds are enumerated
            check_seed_spaces(spec)
    return s1, _seed_bits(v["seed1"], s1.seed_len), s2, _seed_bits(v["seed2"], s2.seed_len)


def _exploit_inputs(v: dict):
    spec = parse_strategy(v["opponent"], v["n"], player=2)
    check_seed_spaces(spec)
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
        check_seed_spaces(spec)
    return pair


def _prng_test_inputs(v: dict):
    generator = make_generator(v["gen"], v["n"], v["m"], v["perm"])
    predictor_chooser(v["predictor"])
    if v["mode"] == "exact":
        check_seed_space(generator.seed_len)
    elif v["mode"] != "sampled":
        raise ValueError(f"unknown mode: {v['mode']!r}")
    elif v["samples"] < 1:
        raise ValueError("sample count must be positive")
    return generator


def _discounted_inputs(v: dict):
    params = DiscountParams(v["delta"], v["epsilon"])
    if v["n"] * params.delta.denominator.bit_length() > TAIL_BITS:
        raise ValueError("exact tail too large")
    prefix = v["prefix"]
    if prefix != "uniform" and not prefix.startswith("gen:"):
        raise ValueError("prefix must be uniform or gen:<descriptor>")
    generator = None if prefix == "uniform" else parse_generator(prefix[len("gen:") :], v["n"])
    check_prefix(v["n"], v["seed_len"], generator)
    return params, generator


def _sweep_inputs(v: dict) -> list[int]:
    text = v["k"]
    lo, dots, hi = text.partition("..")
    # A range is checked by its two ends, before its list is built.
    ks = [int(lo), int(hi)] if dots else [int(part) for part in text.split(",")]
    if min(ks) < 0 or max(ks) > v["n"] or (dots and ks[0] > ks[1]):
        raise ValueError("k values must lie in [0, n]")
    check_seed_space(max(ks))
    return list(range(ks[0], ks[1] + 1)) if dots else ks


# --------------------------------------------------------------------------
# Command bodies: each returns (artifact text, exit status); `run` writes it.
# --------------------------------------------------------------------------


def _cmd_simulate(cfg: ExperimentConfig, seats) -> tuple[str, int]:
    s1, seed1, s2, seed2 = seats
    n = cfg.values["n"]
    # One byte per round, 2 * a + b for plays a and b (1 is H): so codes 1 and 2 are seat 1's losses.
    codes = bytearray(2 * a + b for _, a, b in match(chooser(s1, n, seed1), chooser(s2, n, seed2), n))
    cumulative = n - 2 * (codes.count(1) + codes.count(2))
    avg = Fraction(cumulative, n)
    payload = {
        "transcript": ",".join(map(("TT", "TH", "HT", "HH").__getitem__, codes)),
        "cumulative": cumulative,
        "average": frac_str(avg),
        "average_dec": dec_str(avg),
    }
    return json_artifact(cfg, payload), 0


def _cmd_exploit(cfg: ExperimentConfig, opponent) -> tuple[str, int]:
    n = cfg.values["n"]
    achieved = best_response_value(opponent, n)
    bound = guarantee(n, opponent.seed_len)
    rows, cumulative = io.StringIO(), 0
    for r in play_match(opponent, cfg.values["opponent_seed"], n):
        rows.write("%d,%s,%d,%d,%.12g,%.12g\n" % (r.round, frac_str(r.p), r.alive_size, r.payoff, r.phi, r.delta_phi))
        cumulative += r.payoff
    extra = {
        "achieved": frac_str(achieved),
        "achieved_dec": dec_str(achieved),
        "guaranteed": frac_str(bound),
        "guaranteed_dec": dec_str(bound),
        "margin": frac_str(achieved - bound),
        "final_phi": "%.12g" % final_phi(r, cumulative),
        "traced_cumulative": str(cumulative),
    }
    header = ["round", "p_t", "alive_size", "payoff", "phi", "delta_phi"]
    return csv_artifact(cfg, header, rows.getvalue(), extra), 0 if achieved >= bound else 1


def _cmd_verify_eq(cfg: ExperimentConfig, pair) -> tuple[str, int]:
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
    return json_artifact(cfg, payload), status


def _cmd_prng_test(cfg: ExperimentConfig, generator) -> tuple[str, int]:
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
    return json_artifact(cfg, payload), 0


def _cmd_discounted(cfg: ExperimentConfig, inputs) -> tuple[str, int]:
    params, generator = inputs
    n = cfg.values["n"]
    cert = certify_discounted_eq(n, params, generator)
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
    return json_artifact(cfg, payload), 0 if cert.certified else 1


def _cmd_sweep(cfg: ExperimentConfig, ks) -> tuple[str, int]:
    n = cfg.values["n"]
    rows = []
    all_ok = True
    for k in ks:
        achieved = best_response_value(uniform_table(k), n)
        bound = guarantee(n, k)
        margin = achieved - bound
        all_ok = all_ok and margin >= 0
        exact = (bound, achieved, margin)
        rows.append(",".join([str(k), str(n), *map(frac_str, exact), *map(dec_str, exact)]) + "\n")
    header = ["k", "n", "guaranteed", "achieved", "margin", "guaranteed_dec", "achieved_dec", "margin_dec"]
    return csv_artifact(cfg, header, "".join(rows), {"opponent_family": "uniform-table"}), 0 if all_ok else 1


# --------------------------------------------------------------------------
# The command table and config resolution
# --------------------------------------------------------------------------

REQUIRED = object()


def _default_rounds(values: dict) -> int:
    return max(1, min_rounds(DiscountParams(values["delta"], values["epsilon"])))


class Command(NamedTuple):
    """One subcommand.  Each field (name, type, default) is both the flag
    --name (underscores spelled "-") and the config-file key `name`; `type`
    casts either.  A callable default is computed from the fields before it.
    """

    help: str
    fields: tuple[tuple[str, Callable[[str], Any], Any], ...]
    inputs: Callable[[dict], Any]
    body: Callable[[ExperimentConfig, Any], tuple[str, int]]


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


def _help(name: Optional[str]) -> None:
    """Print the usage of every command, or of command `name`, with its help and flags, and exit 0."""
    sys.stdout.write(f"usage: pennylab {name or 'COMMAND'} [--KEY VALUE ...]\n\n{__doc__ or ''}")
    for command in COMMANDS if name is None else [name]:
        flags = "".join(f" --{key.replace('_', '-')}" for key, _, _ in COMMANDS[command].fields)
        sys.stdout.write(f"\n  {command:<12}{COMMANDS[command].help}\n  {'':<11}{flags} --config --out --run-id\n")
    raise SystemExit(0)


def _is_value(token: str) -> bool:
    """argparse's test: a token that starts with "-" is a flag, not a value,
    unless it is "-" itself, a negative number ("-1", "-.5") or holds a space."""
    number = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    return not token.startswith("-") or token == "-" or number or " " in token


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Parse argv (plus any --config file) into a validated ExperimentConfig.

    argv is a command, then `--key value` or `--key=value` tokens, each key
    spelled in full; a flag overrides the file, which overrides the default.
    """
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        _help(None)
    if name is None or not _is_value(name):
        raise ValueError("the following arguments are required: command")
    if name not in COMMANDS:
        raise ValueError(f"argument command: invalid choice: {name!r} (choose from {', '.join(map(repr, COMMANDS))})")
    command = COMMANDS[name]
    keys = [key for key, _, _ in command.fields] + ["out", "run_id"]
    spelled = {"--" + key.replace("_", "-"): key for key in keys + ["config"]}
    flags: dict[Optional[str], list[str]] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(name)
        flag, eq, text = token.partition("=")
        key = spelled.get(flag)  # None gathers the unrecognized tokens
        if key and not eq and not _is_value(text := next(tokens, "--")):  # argv's end reads as "--"
            raise ValueError(f"argument {flag}: expected one argument")
        flags.setdefault(key, []).append(text if key else token)
    if None in flags:
        raise ValueError("unrecognized arguments: " + " ".join(flags[None]))
    config = flags.get("config", [""])[-1]
    filed: dict[str, list[str]] = {}
    if config:
        try:
            with open(config) as handle:
                lines = handle.readlines()
        except OSError as e:
            raise ValueError(f"{config}: cannot read config: {e.strerror}") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{config}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"{config}:{lineno}: unknown config key: {key!r}")
            filed[key] = [value.strip()]
    values: dict[str, Any] = {}
    for key, cast, default in command.fields:
        sources = ((f"{config}: {key}", filed.get(key, [])), (f"argument --{key.replace('_', '-')}", flags.get(key, [])))
        for where, texts in sources:  # every text is cast; the last, a flag's if any, wins
            for text in texts:
                try:
                    values[key] = cast(text)
                except ValueError:
                    raise ValueError(f"{where}: invalid {cast.__name__} value: {text!r}") from None
        if key not in values:
            if default is REQUIRED:
                raise ValueError(f"missing required field: {key}")
            values[key] = default(values) if callable(default) else default
    if values["n"] < 1:
        raise ValueError("horizon must be positive")
    command.inputs(values)
    out = flags.get("out", [""])[-1] or filed.get("out", [None])[0]
    if out and os.path.exists(out) and not os.path.isfile(out):  # the write would replace a device or FIFO
        raise ValueError(f"output path is {'a directory' if os.path.isdir(out) else 'not a regular file'}: {out}")
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"output directory does not exist: {out}")

    canonical = name + ";" + ";".join(f"{k}={values[k]}" for k in sorted(values))
    run_id = flags.get("run_id", [""])[-1] or filed.get("run_id", [None])[0] or sha256(canonical.encode()).hexdigest()[:12]
    return ExperimentConfig(name, values, run_id, out)


def run(cfg: ExperimentConfig) -> int:
    """Execute a resolved config and write its artifact (to --out, else stdout); returns the exit status."""
    command = COMMANDS[cfg.command]
    text, status = command.body(cfg, command.inputs(cfg.values))
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)
    return status


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cfg = None
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except Exception as e:
        bad_input = cfg is None and isinstance(e, ValueError)
        try:  # a failure while reporting drops the report, never the status
            import json

            if not bad_input:
                import traceback

                traceback.print_exc()
            print(json.dumps({"error": str(e), "type": type(e).__name__}, sort_keys=True), file=sys.stderr)
        except Exception:
            pass
        return 2 if bad_input else 3


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
