"""hhverify benchmark: time the hh-verify CLI on seeded sweep workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload sweep_sampled --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each measured run is a fresh child interpreter (``perfbench/child.py``) that
imports ``hhverify`` from ``src/``, validates the config and calls
``hhverify.cli.main``. Children run one at a time: the reference machine has
two cores and the harness's thread pool stays off (``HH_VERIFY_THREADS`` is
removed from their environment). Every child's reports are checked
(``checks.py``); the first child is an untimed warm-up.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced children alternate and it holds the
per-layer metrics from the traced ones, plus the tracing overhead. Human
readable lines (machine record, each metric with its unit and sample count,
failed_frac, report digest) come first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CHILDREN = 5      # per kind of timed child, whatever --seconds says
SETUP_SAMPLES = 20    # set-up times behind each setup_s median
RUN_LIMIT_S = 170.0   # no child starts that could end after this
CHILD_TIMEOUT_S = 120.0
# getrusage(2): ru_maxrss is in KiB on Linux and in bytes on macOS.
RU_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ru_maxrss_unit": "bytes" if RU_MAXRSS_BYTES == 1 else "KiB",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HH_VERIFY_THREADS", None)
    # Bytecode caching on, as for a user, whatever the caller's setting:
    # the warm-up child writes the caches and set-up then reads them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Spawns children for one workload in a private work directory."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        self.env = child_env()
        self.count = 0
        self.checked: dict[str, tuple[list[str], int]] = {}
        self.digest: str | None = None

    def spawn(self, commands: list, trace: bool) -> dict:
        """Run one child; returns its stats, or ``{"error": ...}``."""
        self.count += 1
        run_id = f"{self.workload.name}-s{self.seed}-{self.count}"
        reports = [str(self.work / f"report{i}.{fmt}") for i, fmt in enumerate(self.workload.formats)]
        argv = [
            [arg.format(config=self.config_path, out=reports[i]) for arg in cmd]
            for i, cmd in enumerate(commands)
        ]
        stats_path = self.work / "stats.json"
        stats_path.unlink(missing_ok=True)
        job = {"src": str(SRC), "config": str(self.config_path), "commands": argv,
               "trace": trace, "run_id": run_id, "stats": str(stats_path)}
        job_path = self.work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline + 10.0 - _now()))
        spawned = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{run_id}: timed out after {timeout:.0f} s"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no stderr"]
            return {"error": f"{run_id}: child exited {proc.returncode}: {tail[0]}"}
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        stats["setup_s"] = stats["ready"] - spawned
        stats["run_s"] = sum(c["end"] - c["start"] for c in stats["calls"])
        if commands:
            problem = self._check(stats, reports, out)
            if problem:
                stats["error"] = f"{run_id}: {problem}"
        return stats

    def _check(self, stats: dict, reports: list[str], stdout: str) -> str | None:
        from checks import check_reports

        missing = [path for path in reports if not os.path.exists(path)]
        if missing:
            rcs = [c["rc"] for c in stats["calls"]]
            return f"exit codes {rcs}, no report at {missing}"
        sha = hashlib.sha256()
        for path in reports:
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(block)
        digest = sha.hexdigest()
        if digest not in self.checked:
            rcs = [c["rc"] for c in stats["calls"]]
            try:
                self.checked[digest] = check_reports(self.workload, self.seed, reports, rcs, stdout)
            except (ValueError, KeyError, TypeError) as exc:  # malformed report
                self.checked[digest] = ([f"unreadable report: {exc!r}"], 0)
        problems, records = self.checked[digest]
        stats["records"] = records
        for path in reports:
            os.remove(path)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems = problems + [f"report digest {digest[:16]} differs from {self.digest[:16]}"]
        return "; ".join(problems) if problems else None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _layer_metrics(spans: list) -> dict:
    """Per-layer counts and times of one traced child."""
    children_ns: dict[int, int] = {}
    for _run, sid, parent, _name, start, end, _ok, _attrs in spans:
        children_ns[parent] = children_ns.get(parent, 0) + (end - start)
    agg: dict[str, dict] = {}
    quad = {"evals": 0, "nonconverged": 0, "max_err": 0.0}
    records = violations = report_bytes = 0
    for _run, sid, _parent, name, start, end, ok, attrs in spans:
        a = agg.setdefault(name, {"calls": 0, "ok": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["ok"] += ok
        a["s"] += (end - start) * 1e-9
        a["self_s"] += (end - start - children_ns.get(sid, 0)) * 1e-9
        if attrs is None:
            continue
        if name == "quadrature.integrate":
            quad["evals"] += attrs[0]
            quad["nonconverged"] += not attrs[1]
            quad["max_err"] = max(quad["max_err"], attrs[2])
        elif name == "harness.run_suite":
            records += attrs[0]
            violations += attrs[1]
        elif name == "harness.serialize":
            report_bytes += attrs[0]

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # A preset attempt either is rejected by validate() or reaches display().
    preset_calls = get("presets.validate", "calls") - get("presets.validate", "ok") + get("presets.display", "calls")
    return {
        "functions.sampled_calls": get("functions.sampled", "calls"),
        "functions.sampled_s": get("functions.sampled", "s"),
        "functions.analytic_calls": get("functions.analytic", "calls"),
        "quadrature.calls": get("quadrature.integrate", "calls"),
        "quadrature.evals": quad["evals"],
        "quadrature.self_s": get("quadrature.integrate", "self_s"),
        "quadrature.nonconverged": quad["nonconverged"],
        "quadrature.max_err_estimate": quad["max_err"],
        "moments.oracle_calls": get("moments.oracle", "calls"),
        "moments.oracle_self_s": get("moments.oracle", "self_s"),
        "moments.closed_calls": get("moments.closed", "calls"),
        "moments.closed_s": get("moments.closed", "s"),
        "bounds.calls": get("bounds.case", "calls"),
        "bounds.s": get("bounds.case", "s"),
        "bounds.useful_ratio": ratio(get("bounds.case", "ok"), get("bounds.case", "calls")),
        "presets.calls": preset_calls,
        "presets.s": get("presets.validate", "s") + get("presets.display", "s"),
        "presets.useful_ratio": ratio(get("presets.display", "ok"), preset_calls),
        "means.calls": get("means.eval", "calls"),
        "means.s": get("means.eval", "s"),
        "means.useful_ratio": ratio(get("means.eval", "ok"), get("means.eval", "calls")),
        "identity.calls": get("identity.hh_lhs", "calls"),
        "identity.s": get("identity.hh_lhs", "s"),
        "harness.config_s": get("harness.config", "s"),
        "harness.run_suite_self_s": get("harness.run_suite", "self_s"),
        "harness.records": records,
        "harness.violations": violations,
        "harness.serialize_s": get("harness.serialize", "s"),
        "harness.report_bytes": report_bytes,
        "harness.errata_s": get("harness.errata", "s"),
    }


def measure(workload, seed: int, seconds: int, trace: bool, units: dict) -> dict:
    """Measure one workload; returns the result object of the contract."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    started = _now()
    runner = Runner(workload, seed, work, started + RUN_LIMIT_S)
    runs: dict[bool, list[dict]] = {False: [], True: []}
    setups: list[float] = []
    errors: list[str] = []
    attempted = 0
    try:
        warm = runner.spawn([], False)  # fills bytecode and file caches
        attempted += 1
        if "error" in warm:
            errors.append(warm["error"])
        modes = (False, True) if trace else (False,)
        measured = 0.0
        longest = 0.0
        while len(errors) < MIN_CHILDREN:
            enough = measured >= seconds and all(len(runs[m]) >= MIN_CHILDREN for m in modes)
            if enough or _now() + 2.0 * longest > started + RUN_LIMIT_S:
                break
            for mode in modes:
                t0 = _now()
                stats = runner.spawn(list(workload.commands), mode)
                longest = max(longest, _now() - t0)
                measured += _now() - t0
                attempted += 1
                if "error" in stats:
                    errors.append(stats["error"])
                    continue
                runs[mode].append(stats)
                if not mode:
                    setups.append(stats["setup_s"])
            if not trace and len(setups) < SETUP_SAMPLES:
                # Set-up is short and noisy: top it up with set-up-only children.
                probe = runner.spawn([], False)
                attempted += 1
                if "error" in probe:
                    errors.append(probe["error"])
                else:
                    setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    plain = runs[False]
    run_s = _median([r["run_s"] for r in plain])
    lines = []
    if trace:
        traced = runs[True]
        per_child = [_layer_metrics(r["spans"]) for r in traced]
        values = {name: _median([m[name] for m in per_child]) for name in per_child[0]} if per_child else {}
        values["trace.overhead_s"] = _median([r["run_s"] for r in traced]) - run_s
        counts = {name: len(traced) for name in values}
    else:
        records = plain[0]["records"] if plain else 0
        values = {
            "run_s": run_s,
            "rows_per_s": records / run_s if plain else float("nan"),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["maxrss"] * RU_MAXRSS_BYTES / 2**20 for r in plain]),
        }
        counts = {"run_s": len(plain), "rows_per_s": len(plain), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    # A metric with no successful sample is left out rather than reported as NaN.
    values = {name: value for name, value in values.items() if value == value}
    for name, value in values.items():
        lines.append(f"{workload.name} {name} = {value:.6g} {units[name]} (n={counts[name]})")
    if len(plain) >= 2:
        samples = sorted(r["run_s"] for r in plain)
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        lines.append(f"{workload.name} run_s samples: min {samples[0]:.4f} q1 {q1:.4f} "
                     f"median {q2:.4f} q3 {q3:.4f} max {samples[-1]:.4f} s")
    failed = len(errors)
    lines.append(f"{workload.name} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} runs)")
    lines.append(f"{workload.name} report_sha256 = {runner.digest} (seed {seed})")
    for error in errors:
        lines.append(f"{workload.name} FAILED {error}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        },
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "hhverify" / "cli.py").is_file():
        print(f"error: no hhverify source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("machine " + json.dumps(machine_record()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = measure(WORKLOADS[name](args.seed), args.seed, args.seconds, bool(args.trace), units)
        print("\n".join(out["lines"]), flush=True)
        results[name] = out["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
