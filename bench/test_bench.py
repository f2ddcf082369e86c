"""Tests of the benchmark itself: `python3 -m pytest bench`.

These spawn real pennylab operations, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)


def test_every_op_is_pinned():
    pins = json.loads(run.PINS_PATH.read_text())["ops"]
    assert {op.name for ops in WORKLOADS.values() for op in ops} == set(pins)


def test_wrong_pin_is_a_failed_op_and_a_nonzero_exit(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.PINS_PATH.read_text())
    pins["ops"]["sweep-n14"]["sha256"] = "0" * 64
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS_PATH", wrong)

    status = run.main(["--workload", "oblivious-exploit", "--seconds", "0"])

    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert summary["correct"] is False
    # With no time to fill, one pass runs, and its sweep op fails.
    assert (summary["attempted"], summary["failed"]) == (3, 1)


def test_an_op_is_timed_without_the_reference_job_and_scaled_by_it():
    run.OUT.mkdir(exist_ok=True)
    op = WORKLOADS["adaptive-predict"][0]
    result = run.run_op(op, 0, False, None, run.child_env())
    report = json.loads((run.OUT / "report.json").read_text())
    assert len(report["calibration"]) == 2
    assert result.scale == pytest.approx(run.NOMINAL_S * 2 / sum(report["calibration"]))
    assert 0 < result.setup_s < result.wall_s == pytest.approx(result.raw_wall_s * result.scale)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_two_traced_passes_count_the_same_calls(workload):
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    pins = json.loads(run.PINS_PATH.read_text())["ops"]
    first, second = (run.Layers.of(run.run_pass(WORKLOADS[workload], 3, True, pins, env)) for _ in range(2))
    assert first.calls == second.calls
    assert first.seed_rounds == second.seed_rounds > 0
    assert first.absent == set()
    assert all(first.value(m) >= 0 for m, _ in run.PER_LAYER if m != "trace.overhead_s")
    assert first.calls["cli.parse_config"] + first.calls.get("reductions.payoff_to_distinguisher", 0) > 0


def test_a_missing_target_is_absent_and_every_binding_is_wrapped():
    script = """
import json, pennylab
from pennylab import oracle, prng, reductions, strategies
from tracer import Tracer
tracer = Tracer()
tracer.install(spans=("strategies.no_such_function",), hot=("prng.int_to_bits",))
wrapped = [m.int_to_bits is prng.int_to_bits for m in (oracle, reductions, strategies)]
prng.int_to_bits(5, 3)
strategies.Seed.from_int(5, 3)
print(json.dumps([tracer.absent, wrapped, tracer.stats["prng.int_to_bits"][0]]))
"""
    env = dict(run.child_env(), PYTHONPATH=f"{run.ROOT / 'src'}:{run.HERE}")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    absent, wrapped, calls = json.loads(out.stdout)
    assert absent == ["strategies.no_such_function"]
    assert wrapped == [True, True, True]
    assert calls == 2


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "oblivious-exploit", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
