"""Run one pennylab operation in this fresh interpreter and report its timings.

    python child.py REPORT TRACE OP...

OP is CLI argv (`exploit --n 14 ...`) or `lib NAME` for a call from
`workloads.LIBRARY`.  The CLI artifact, or the library result as one line
and the output of its check, if it has one, as another, goes to stdout, and
the exit status is the CLI's.  REPORT receives a JSON object with the import
time, the monotonic time the operation body started (after `parse_config`,
or after building the library call's arguments), the times of the reference
job (`calibrate.py`) run just before and just after the operation, the
process's peak RSS before that last job, and with TRACE=1 the tracer's spans
and counters.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

from calibrate import calibrate


def main(argv: list[str]) -> int:
    report_path, trace, op = argv[0], argv[1] == "1", argv[2:]
    report: dict = {"calibration": [calibrate()]}
    tracer = None
    start = perf_counter()
    try:
        if op[0] == "lib":
            import pennylab

            report["import_s"] = perf_counter() - start
            tracer = _tracer() if trace else None
            import workloads

            fn_name, build, check = workloads.LIBRARY[op[1]]
            args = build(pennylab)
            report["body_start"] = perf_counter()
            print(repr(getattr(pennylab, fn_name)(*args)))
            if tracer is not None:
                report["trace"], tracer = tracer.report(), None
            if check is not None:
                print(check(pennylab, *args))
            return 0

        from pennylab import cli

        report["import_s"] = perf_counter() - start
        tracer = _tracer() if trace else None
        _mark_body_start(cli, report)
        return cli.main(op)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.report()
        report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["calibration"].append(calibrate())
        with open(report_path, "w") as handle:
            json.dump(report, handle)


def _tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _mark_body_start(cli, report: dict) -> None:
    """Record when `parse_config` returns, or when `main` starts if it is gone."""
    parse = getattr(cli, "parse_config", None)
    if parse is None:
        report["body_start"] = perf_counter()
        return

    def parse_config(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        finally:
            report["body_start"] = perf_counter()

    cli.parse_config = parse_config


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
