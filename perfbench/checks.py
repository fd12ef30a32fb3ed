"""Output checks on the reports one child wrote.

``check_reports`` returns a list of problems; an empty list means the run is
correct. It checks:

* exit codes: 0, or 1 only when every violation is a known-defective display;
* the record and violation counts the CLI printed match the report;
* violations appear only in ``KNOWN_DEFECTIVE`` cases;
* a seeded subsample of records, recomputed through the public scalar path
  (``eval_case``/``eval_preset``, whose lhs runs ``hh_lhs`` with its own
  quadrature, and ``eval_mean_bound``), agrees in lhs and bound to ``REL_TOL``;
* ``oracle_residuals`` are at most ``ORACLE_TOL``;
* the erratum scan tally equals ``ERRATA_TALLY``;
* on a certified workload every row is ``certified-analytic``.
"""

from __future__ import annotations

import collections
import csv
import json
import random
import re

from hhverify import BoundParams, MeanParams, eval_case, eval_mean_bound, eval_preset, from_id
from hhverify.bounds import VIOLATION_TOL
from hhverify.errors import HHVerifyError
from hhverify.means import MEAN_THEOREMS
from workloads import ERRATA_TALLY, KNOWN_DEFECTIVE, Workload

REL_TOL = 1e-9
ABS_TOL = 1e-13
ORACLE_TOL = 1e-9
SUBSAMPLE = 200

_WROTE = re.compile(r"^wrote .* \((\d+) records, (\d+) violations\)$", re.M)
_PARAM_KEYS = ("a", "b", "lambda", "mu", "s", "q")


def _load(path: str, fmt: str) -> dict:
    if fmt == "json":
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    records = []
    for row in rows:
        records.append({
            "family": row["family"],
            "case": row["case"],
            "preset": row["preset"] or None,
            "params": {k: float(row[k]) for k in _PARAM_KEYS if row[k] != ""},
            "lhs": float(row["lhs"]),
            "bound": float(row["bound"]),
            "slack": float(row["slack"]),
            "certified": row["certified"],
        })
    return {"records": records, "violations": None, "errata": [], "oracle_residuals": {}}


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def _recompute(rec: dict, tol: float):
    p = rec["params"]
    if rec["case"] in MEAN_THEOREMS:
        return eval_mean_bound(rec["case"], MeanParams(p["a"], p["b"], p["s"], p["q"], p["lambda"]))
    f = from_id(rec["family"], p["a"], p["b"])
    params = BoundParams(p["a"], p["b"], p["lambda"], p["mu"], p["s"], p["q"])
    if rec["preset"]:
        return eval_preset(rec["preset"], f, params, tol)
    return eval_case(rec["case"], f, params, tol)


def _check_records(doc: dict, workload: Workload, seed: int, problems: list) -> int:
    records = doc["records"]
    flagged = [r for r in records if r["slack"] < -VIOLATION_TOL * (1.0 + abs(r["bound"]))]
    if doc["violations"] is not None and len(doc["violations"]) != len(flagged):
        problems.append(f"violations list has {len(doc['violations'])} rows, slack gives {len(flagged)}")
    unknown = sorted({r["case"] for r in flagged} - KNOWN_DEFECTIVE)
    if unknown:
        problems.append(f"violations outside the known-defective displays: {unknown}")
    if workload.all_certified:
        other = collections.Counter(r["certified"] for r in records if r["certified"] != "certified-analytic")
        if other:
            problems.append(f"rows not certified-analytic: {dict(other)}")
    rng = random.Random(seed)
    tol = workload.config["tol"]
    for rec in rng.sample(records, min(SUBSAMPLE, len(records))):
        try:
            res = _recompute(rec, tol)
        except HHVerifyError as exc:
            problems.append(f"{rec['case']}/{rec['preset']} {rec['family']} {rec['params']}: scalar path raised {exc!r}")
            break
        if not (_close(res.lhs, rec["lhs"]) and _close(res.bound, rec["bound"])):
            problems.append(
                f"{rec['case']}/{rec['preset']} {rec['family']} {rec['params']}: report "
                f"lhs={rec['lhs']!r} bound={rec['bound']!r}, scalar path "
                f"lhs={res.lhs!r} bound={res.bound!r}"
            )
            break
    return len(flagged)


def check_reports(workload: Workload, seed: int, reports: list[str], rcs: list[int], stdout: str) -> tuple[list[str], int]:
    """Check one child's reports; returns (problems, records written)."""
    problems: list[str] = []
    printed = [(int(n), int(v)) for n, v in _WROTE.findall(stdout)]
    if len(printed) != len(reports):
        return [f"expected {len(reports)} 'wrote' lines, got {len(printed)}"], 0
    total = 0
    for argv, path, fmt, rc, (n_printed, v_printed) in zip(workload.commands, reports, workload.formats, rcs, printed):
        doc = _load(path, fmt)
        n_violations = _check_records(doc, workload, seed, problems)
        total += len(doc["records"])
        if (n_printed, v_printed) != (len(doc["records"]), n_violations):
            problems.append(f"{argv[0]}: CLI printed {n_printed}/{v_printed} records/violations, report has "
                            f"{len(doc['records'])}/{n_violations}")
        if rc != (1 if n_violations else 0):
            problems.append(f"{argv[0]}: exit code {rc} with {n_violations} violations")
        residuals = doc["oracle_residuals"]
        if argv[0] == "sweep" and workload.config.get("moment_oracle_draws"):
            worst = max(residuals.get("max_moment_residual", float("inf")),
                        residuals.get("max_harmonic_residual", float("inf")))
            if not worst <= ORACLE_TOL:
                problems.append(f"oracle residual {worst!r} > {ORACLE_TOL}")
        if argv[0] == "errata":
            tally = collections.Counter((e["kind"], e["classification"]) for e in doc["errata"])
            if dict(tally) != ERRATA_TALLY:
                problems.append(f"errata tally {dict(tally)} != {ERRATA_TALLY}")
    return problems, total
