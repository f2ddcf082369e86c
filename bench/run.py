"""pennylab benchmark: cold certification jobs, timed end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A workload (see `workloads.py`) is a closed loop with one client: its
operations run one at a time, each in a fresh interpreter against this
checkout's `src`, so no module-level cache survives from one operation to the
next.  An untimed warm-up import compiles the bytecode; then a fixed number
of whole passes over the workload runs, as many as fit into `--seconds` at
the nominal pass time `PASS_S`.  Every operation's exit code and output is
checked against `pins.json`; any mismatch makes the run incorrect and the
exit status 1.

With `--trace 0` the run reports:
  wall_s       time to finish every operation of the workload once, in
               sequence: the sum over its operations of each one's median
               host-scaled time over the passes
  setup_s      the same sum for the time from spawning an operation to the
               start of its body (interpreter start, imports, `parse_config`)
  peak_rss_mb  the largest peak RSS of any one operation in a pass, in MiB,
               as the median over passes
Host-scaled: every operation's child process runs the fixed reference job of
`calibrate.py` just before and just after the operation; the operation's
times exclude the job and are multiplied by `calibrate.NOMINAL_S` over the
job's mean time.  On a shared 2-vCPU VM the speed of a vCPU changes by up to
2.5x for seconds to minutes with other tenants' load, and unscaled medians
of 40 s windows moved by ~16%; the scaled ones moved by ~2-4%.  Unscaled
per-pass times are kept in the run record.

With `--trace 1` untraced and traced passes alternate, and the run reports
the per-layer metrics of BENCHMARK.json (see `tracer.py`) and the tracing
overhead.  The last line of stdout is one JSON object; run records, with
the spans of the last traced pass, go to `.bench-out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_S
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench-out"
PINS_PATH = HERE / "pins.json"
OP_TIMEOUT_S = 150

# Result fields that do not depend on `--opponent-seed`; pinned for every op.
PINNED_FIELDS = ("achieved", "guaranteed", "margin", "certified_epsilon", "advantage", "epsilon_prime")

# Metric names and units, as BENCHMARK.json declares them.  Per-layer
# `<target>.calls` and `<target>.self_s` read the tracer target of that name;
# `_SPECIAL` defines the others but `trace.overhead_s`.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# A run makes a fixed number of passes, set by `--seconds` and these nominal
# pass times, never by the speed of the code under test, so that every commit
# is measured over the same number of samples.  On a shared 2-vCPU Linux VM a
# pass, with its reference jobs, took 4.0-5.8 s untraced, slower while other
# tenants were busy; the nominal times keep a run within `--seconds` even then.
PASS_S = 5.5
TRACED_PASS_S = 6.0

# Metrics other than `<target>.calls` and `<target>.self_s`: the tracer
# target each reads (None if it needs no tracer target) and how.
_SPECIAL = {
    "cli.import_s": (None, lambda t: t.import_s),
    "cli.parse_config_s": ("cli.parse_config", lambda t: t.total_s.get("cli.parse_config", 0.0)),
    "cli.self_s": ("cli.run", lambda t: t.self_s.get("cli.run", 0.0)),
    "cli.artifact_bytes": (None, lambda t: t.artifact_bytes),
    "strategies.seed_objects": ("strategies.Seed.__init__", lambda t: t.calls.get("strategies.Seed.__init__", 0)),
    "strategies.act_per_seed_round": (
        "strategies.act",
        lambda t: t.calls.get("strategies.act", 0) / t.seed_rounds if t.seed_rounds else 0.0,
    ),
}


@dataclass
class OpRun:
    op: Op
    returncode: int
    problem: str  # empty when the op's exit code and output match the pins
    raw_wall_s: float  # unscaled, without the reference job
    scale: float  # calibrate.NOMINAL_S over the reference job's mean time
    setup_s: float  # scaled
    rss_mib: float
    import_s: float
    artifact: bytes
    trace: dict | None

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.scale


@dataclass
class Pass:
    ops: list[OpRun]
    steal_share: float | None
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mib for r in self.ops)


@dataclass
class Layers:
    """Tracer output of one traced pass, summed over its operations."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    seed_rounds: int = 0
    import_s: float = 0.0
    artifact_bytes: int = 0

    @classmethod
    def of(cls, traced: Pass) -> "Layers":
        layers = cls()
        for run in traced.ops:
            scale = run.scale
            layers.import_s += run.import_s * scale
            layers.artifact_bytes += len(run.artifact)
            trace = run.trace or {"spans": [], "stats": {}, "absent": [], "seed_rounds": 0}
            layers.absent.update(trace["absent"])
            layers.seed_rounds += trace["seed_rounds"]
            for name, start, end, _parent, own in trace["spans"]:
                layers._add(name, 1, own * scale, (end - start) * scale)
            for name, (calls, own) in trace["stats"].items():
                layers._add(name, calls, own * scale, own * scale)
        return layers

    def _add(self, name: str, calls: int, own: float, total: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + calls
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.total_s[name] = self.total_s.get(name, 0.0) + total

    def value(self, metric: str) -> float:
        if metric in _SPECIAL:
            return _SPECIAL[metric][1](self)
        target, _, kind = metric.rpartition(".")
        return self.calls.get(target, 0) if kind == "calls" else self.self_s.get(target, 0.0)


def source(metric: str) -> str | None:
    """The tracer target a per-layer metric reads, if any."""
    return _SPECIAL[metric][0] if metric in _SPECIAL else metric.rpartition(".")[0]


# --------------------------------------------------------------------------
# Running operations
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    drop = ("PENNY_CAP", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_op(op: Op, seed: int, trace: bool, pins: dict | None, env: dict[str, str]) -> OpRun:
    """Run one op in a fresh interpreter; `pins` None skips the check."""
    report_path, artifact_path, stderr_path = OUT / "report.json", OUT / "artifact", OUT / "stderr"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), "1" if trace else "0", *op.argv_for(seed)]
    with open(artifact_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be
            # the running maximum over every child so far.  The child's own
            # figure, read before its closing reference job, leaves that out.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    artifact = artifact_path.read_bytes()
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    # The reference job ran inside the child: its time is not the op's.
    calibration = report.get("calibration", [])
    scale = NOMINAL_S / statistics.fmean(calibration) if calibration else 1.0
    before = calibration[0] if calibration else 0.0
    problem = check(op, seed, proc.returncode, artifact, pins) if pins is not None else ""
    if not problem and "body_start" not in report:
        problem = "operation body never started"
    if problem:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        problem = f"{op.name}: {problem}" + (f" ({tail[0]})" if tail else "")
    return OpRun(
        op=op,
        returncode=proc.returncode,
        problem=problem,
        raw_wall_s=end - start - sum(calibration),
        scale=scale,
        # On Linux perf_counter reads CLOCK_MONOTONIC, one clock for parent and child.
        setup_s=(report.get("body_start", end) - start - before) * scale,
        rss_mib=report.get("peak_rss_kib", usage.ru_maxrss) / 1024,
        import_s=report.get("import_s", 0.0),
        artifact=artifact,
        trace=report.get("trace"),
    )


def artifact_fields(artifact: bytes) -> dict[str, str]:
    """The `PINNED_FIELDS` of a JSON artifact or of a CSV artifact's `# key=value` header."""
    text = artifact.decode(errors="replace")
    try:
        record = json.loads(text)
        values = {k: str(v) for k, v in record.items()} if isinstance(record, dict) else {}
    except ValueError:
        values = {}
        for line in text.splitlines():
            if line.startswith("# ") and "=" in line:
                key, _, value = line[2:].partition("=")
                values[key] = value
    return {k: values[k] for k in PINNED_FIELDS if k in values}


def digest(artifact: bytes) -> str:
    return hashlib.sha256(artifact).hexdigest()


def check(op: Op, seed: int, returncode: int, artifact: bytes, pins: dict) -> str:
    """Why this op's result differs from its pin, or "" if it matches."""
    pin = pins.get(op.name)
    if pin is None:
        return "no pinned result"
    if returncode != pin["exit"]:
        return f"exit code {returncode}, pinned {pin['exit']}"
    if op.library:
        value = artifact.decode(errors="replace").strip()
        return "" if value == pin["value"] else f"result {value!r}, pinned {pin['value']!r}"
    fields = artifact_fields(artifact)
    for key, value in pin["fields"].items():
        if fields.get(key) != value:
            return f"{key}={fields.get(key)!r}, pinned {value!r}"
    # Seeded ops have digests for the workload seeds that were pinned; other
    # seeds are checked by their fields alone.
    expected = pin["sha256"] if "sha256" in pin else pin["digests"].get(str(seed))
    if expected is not None and digest(artifact) != expected:
        return "artifact digest differs from the pinned one"
    return ""


def read_steal() -> tuple[int, int] | None:
    """(steal, total) CPU ticks from /proc/stat, or None where it is unreadable."""
    try:
        with open("/proc/stat") as handle:
            ticks = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else None


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_pass(ops, seed: int, trace: bool, pins: dict | None, env: dict[str, str]) -> Pass:
    before = read_steal()
    runs = [run_op(op, seed, trace, pins, env) for op in ops]
    return Pass(runs, steal_share(before, read_steal()), trace)


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------


def git_sha() -> str:
    # The ceiling keeps git from reporting an enclosing repository's HEAD.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pass_count(seconds: float, trace: bool) -> int:
    """Passes in a run; with tracing, each is an untraced and a traced pass."""
    return max(1, int(seconds // (PASS_S + (TRACED_PASS_S if trace else 0))))


def typical(passes: list[Pass], attr: str) -> float:
    """Sum over a workload's ops of each op's median `attr` across the passes."""
    return sum(statistics.median(getattr(p.ops[i], attr) for p in passes) for i in range(len(passes[0].ops)))


def pass_quartiles(values: list[float]) -> dict:
    """Median and quartiles of per-pass values, for the record."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def warm_up(env: dict[str, str]) -> None:
    """Compile the package's bytecode, so that no timed op pays for it."""
    code = "import pennylab.cli, pennylab.reductions, tracer, workloads"
    subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE, check=True, timeout=OP_TIMEOUT_S)


def measure(workload: str, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    ops = WORKLOADS[workload]
    env = child_env()
    warm_up(env)
    plain: list[Pass] = []
    traced: list[Pass] = []
    before = read_steal()
    for _ in range(pass_count(seconds, trace)):
        plain.append(run_pass(ops, seed, False, pins, env))
        if trace:
            traced.append(run_pass(ops, seed, True, pins, env))
    every = [*plain, *traced]
    problems = [r.problem for p in every for r in p.ops if r.problem]
    result = {
        "workload": workload,
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "steal_share": steal_share(before, read_steal()),
        },
        "attempted": sum(len(p.ops) for p in every),
        "failed": len(problems),
        "problems": problems,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "setup_s": p.setup_s, "peak_rss_mb": p.peak_rss_mb,
             "raw_wall_s": sum(r.raw_wall_s for r in p.ops), "steal_share": p.steal_share,
             "ops": {r.op.name: {"wall_s": r.wall_s, "setup_s": r.setup_s, "raw_wall_s": r.raw_wall_s,
                                 "scale": r.scale} for r in p.ops}}
            for p in every
        ],
    }
    if not trace:
        values = {
            "wall_s": typical(plain, "wall_s"),
            "setup_s": typical(plain, "setup_s"),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit, "samples": len(plain)} for name, unit in END_TO_END
        }
        result["per_pass"] = {name: pass_quartiles([getattr(p, name) for p in plain]) for name, _ in END_TO_END}
        result["per_pass"]["raw_wall_s"] = pass_quartiles([sum(r.raw_wall_s for r in p.ops) for p in plain])
        return result

    layers = [Layers.of(p) for p in traced]
    absent = set().union(*(layer.absent for layer in layers))
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = typical(traced, "wall_s") - typical(plain, "wall_s")
        elif unit == "s":
            value = statistics.median(layer.value(name) for layer in layers)
        else:
            value = layers[-1].value(name)
        metrics[name] = {"value": value, "unit": unit, "samples": len(traced)}
    result["metrics"] = metrics
    result["absent"] = sorted(m for m, _ in PER_LAYER if source(m) in absent)
    result["absent_targets"] = sorted(absent)
    result["seed_rounds"] = layers[-1].seed_rounds
    result["calls_repeat"] = all(layer.calls == layers[0].calls for layer in layers)
    result["spans"] = {r.op.name: r.trace["spans"] for r in traced[-1].ops if r.trace}
    return result


def describe(result: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    lines = [
        f"workload {result['workload']}: {len(result['passes'])} passes, "
        f"ops_failed {result['failed']}/{result['attempted']} attempted",
        "  meta " + json.dumps(result["meta"], sort_keys=True),
    ]
    for name, metric in result["metrics"].items():
        extra = ""
        if name in result.get("per_pass", {}):
            q = result["per_pass"][name]
            extra = f"  per pass: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g}"
        lines.append(f"  {name:<40} {metric['value']:.6g} {metric['unit']}  ({metric['samples']} passes){extra}")
    if "per_pass" in result:
        q = result["per_pass"]["raw_wall_s"]
        lines.append(f"  unscaled wall_s per pass: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g}")
    if "seed_rounds" in result:
        lines.append(f"  strategies.act_per_seed_round base: {result['seed_rounds']} seed-rounds enumerated")
        lines.append(f"  calls counters identical across traced passes: {result['calls_repeat']}")
        lines.append("  absent: " + (", ".join(result["absent"]) or "none"))
    lines.extend(f"  FAILED {p}" for p in result["problems"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pennylab" / "cli.py").is_file():
        print(f"no pennylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = json.loads(PINS_PATH.read_text())["ops"]
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(name, args.seed, args.seconds, bool(args.trace), pins) for name in names]
    for result in results:
        record = OUT / f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(describe(result)))

    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
