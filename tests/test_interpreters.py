"""The code that behaves by interpreter version, run on every other Python on the host.

The run id's hash comes from `_sha2` on 3.12 and later and `_sha256` before,
and `cli._digits` works around an int digit limit whose `str` differs by
version.  Each Python found other than the running one runs, with `-S` and
only the standard library, the golden commands, `_digits` against `str`, and
the run id against `hashlib`.  Interpreters come from `PENNY_PYTHONS` (a path
list), else from `python3.10` ... `python3.13` on `PATH` and pyenv's
`~/.pyenv/versions/3.1*/bin/python`; with none found the test is one skip.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from pennylab import cli

from support import GOLDEN_DIGESTS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
BITS = (2047, 2049, 4097, 100_000)

# Run in the child: argv[1] is a JSON list of golden commands, argv[2] a
# directory for their artifacts; prints one JSON report on stdout.
CHILD = r"""
import hashlib, json, os, random, sys
from pennylab import cli

commands, out = json.loads(sys.argv[1]), sys.argv[2]
digests = {}
for i, command in enumerate(commands):
    path = os.path.join(out, f"artifact-{i}")
    status = cli.main(command.split() + ["--out", path])
    with open(path, "rb") as f:
        digests[command] = (status, hashlib.sha256(f.read()).hexdigest())
numbers = [sign * (random.Random(bits).getrandbits(bits) | 1 << (bits - 1)) for bits in BITS for sign in (1, -1)]
setter = getattr(sys, "set_int_max_str_digits", None)
if setter:
    setter(0)  # str prints the reference with no limit; _digits runs under the lowest one
expected = [str(v) for v in numbers]
if setter:
    setter(640)
wrong = [v.bit_length() * (1 if v > 0 else -1) for v, e in zip(numbers, expected) if cli._digits(v) != e]
cfg = cli.parse_config(["verify-eq", "--n", "8", "--gamma", "1/2"])
canonical = cfg.command + ";" + ";".join(f"{k}={cfg.values[k]}" for k in sorted(cfg.values))
run_id = hashlib.sha256(canonical.encode()).hexdigest()[:12]
print(json.dumps({"digests": digests, "wrong_digits": wrong, "run_id": [cfg.run_id, run_id]}))
""".replace("BITS", repr(BITS))


def _interpreters():
    """(version, path) of each distinct Python found other than the running one."""
    listed = os.environ.get("PENNY_PYTHONS")
    if listed:
        candidates = [p for p in listed.split(os.pathsep) if p]
    else:
        candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
        candidates += sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.1*/bin/python")))
    seen = {os.path.realpath(sys.executable)}
    found = []
    for path in filter(None, candidates):
        try:  # a pyenv shim for a version not selected exits non-zero
            probe = subprocess.run(
                [path, "-S", "-c", "import sys; print(sys.version.split()[0]); print(sys.executable)"],
                capture_output=True,
                text=True,
                timeout=10,
            )
        except OSError:
            continue
        if probe.returncode != 0:
            continue
        version, executable = probe.stdout.split()
        if os.path.realpath(executable) not in seen:
            seen.add(os.path.realpath(executable))
            found.append(pytest.param(path, id=version))
    return found or [pytest.param(None, marks=pytest.mark.skip(reason="no Python other than the running one found"))]


@pytest.mark.parametrize("python", _interpreters())
def test_other_interpreters_print_the_golden_artifacts(python, tmp_path):
    commands = sorted(GOLDEN_DIGESTS)
    done = subprocess.run(
        [python, "-S", "-c", CHILD, json.dumps(commands), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["digests"] == {command: [0, GOLDEN_DIGESTS[command]] for command in commands}
    assert report["wrong_digits"] == []
    run_id, expected = report["run_id"]
    assert run_id == expected
