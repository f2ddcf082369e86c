"""Record `pins.json`: the exact results every benchmark operation must reproduce.

    python3 bench/pin.py

Each op runs once, cold, as the benchmark runs it.  A CLI op pins its exit
code, its `PINNED_FIELDS` and the SHA-256 of its artifact; an op that takes
an opponent seed pins one digest per workload seed below `PINNED_SEEDS`, and
its fields must agree across those seeds.  A library op pins its exit code
and its output: the result and, if it has one, its check.
Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

PINNED_SEEDS = 32


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    pins = {}
    for op in (op for ops in WORKLOADS.values() for op in ops):
        seeds = range(PINNED_SEEDS) if op.seed_bits else [0]
        results = []
        returncodes = set()
        for seed in seeds:
            result = run.run_op(op, seed, False, None, env)
            if result.problem:
                print(result.problem, file=sys.stderr)
                return 1
            results.append((seed, result.artifact))
            returncodes.add(result.returncode)
            print(f"{op.name} seed {seed}: {result.wall_s:.2f} s", file=sys.stderr)
        if len(returncodes) != 1:
            print(f"{op.name}: exit code differs across seeds", file=sys.stderr)
            return 1
        pin: dict = {"exit": returncodes.pop()}
        if op.library:
            pin["value"] = results[0][1].decode().strip()
        else:
            fields = {json.dumps(run.artifact_fields(a), sort_keys=True) for _, a in results}
            if len(fields) != 1:
                print(f"{op.name}: pinned fields differ across seeds", file=sys.stderr)
                return 1
            pin["fields"] = json.loads(fields.pop())
            if op.seed_bits:
                pin["digests"] = {str(seed): run.digest(a) for seed, a in results}
            else:
                pin["sha256"] = run.digest(results[0][1])
        pins[op.name] = pin
    run.PINS_PATH.write_text(json.dumps({"ops": pins}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
