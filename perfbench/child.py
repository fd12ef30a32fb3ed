"""One measured run of the hh-verify CLI in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job file names the source tree, the sweep config, the CLI calls and the
stats file to write. Set-up ends once ``hhverify`` is imported and the config
is validated; each CLI call is then timed up to its return, by which point
``Report.write`` has closed the report file. Times use CLOCK_MONOTONIC, which
the parent shares, so the parent can time set-up from the moment it spawned
this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    import hhverify.cli as cli
    from hhverify.harness import SuiteConfig

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    SuiteConfig.from_file(job["config"])
    ready = _now()

    calls = []
    for argv in job["commands"]:
        start = _now()
        rc = cli.main(argv)
        calls.append({"argv": argv, "rc": rc, "start": start, "end": _now()})
    sys.stdout.flush()

    stats = {
        "run_id": job["run_id"],
        "ready": ready,
        "calls": calls,
        "maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    with open(job["stats"], "w", encoding="utf-8") as handle:
        json.dump(stats, handle, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
