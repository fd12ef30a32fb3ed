"""Time 10^6 (row x case) closed-form bound evaluations, array against float.

Usage (from the root of a source checkout):

    python3 tools/closed_forms_bench.py [--rows 100000] [--seed 0]

Draws `rows` seeded rows (a, b, lambda, mu, |f'|^q samples) as the sweep's
draws are drawn, then evaluates each of the ten bound cases on all of them:
once as one `case_bound_from_values` call over the columns, and once as
one float call per row.  Each case runs at one (s, q) on its branch.  Each
of the 36 preset displays is evaluated the same way, on the same rows with
their weights set to its pins, at one (s, q) its pins admit.  Each of the
six mean-theorem displays is evaluated over the same rows with s and q as
seeded columns, as the mean draws of a sweep give them (s uniform in
[0.05, 2], q in {1, 1.5, 2, 4}), on the rows whose (s, q) lie on its branch.
Two more checks compare whole row builders with their scalar reference:
(`oracle_*`) the moment oracle over the oracle audit's seeded draws (as
many as `rows`, at most 3,000), one column call against one float call per
draw; and (`mean_rows_*`) the mean rows of all six theorems over the first
(at most 5,000) of the same (a, b, s, q, λ) tuples, one
`harness.add_mean_rows` call against one `means.eval_mean_bound` call per row.
Prints one JSON line: seconds for each path, summed over the cases,
(`preset_*`) the presets and (`mean_*`) the mean theorems, and whether
every array entry has the bits of its float call.  Exits 1 when one does not.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hhverify.bounds import CASES, BoundCase, case_bound_from_values  # noqa: E402
from hhverify.functions import power_rule_holds  # noqa: E402
from hhverify.harness import Report, add_mean_rows, oracle_draws  # noqa: E402
from hhverify.means import MEAN_SPECS, MEAN_THEOREMS, MeanParams, MeanSpec, eval_mean_bound  # noqa: E402
from hhverify.moments import moment_oracle  # noqa: E402
from hhverify.presets import PRESETS, PresetSpec  # noqa: E402


def branch(case: BoundCase) -> tuple[float, float]:
    """One (s, q) on the case's branch, read from its `CASES` row."""
    row = CASES[case]
    return (-1.0 if row.step == "harmonic" else 0.5), (1.0 if row.q_branch == "1" else 2.0)


def preset_branch(spec: PresetSpec) -> tuple[float, float]:
    """One (s, q) the preset's pins admit."""
    return (0.5 if spec.pin_s is None else spec.pin_s), (1.0 if spec.pin_q == "1" else 2.0)


def case_bound(case: BoundCase, *args) -> float:
    return case_bound_from_values(case, *args)[0]


def mean_display(spec: MeanSpec, a, b, lam, mu, s, q, qa, qb, qm):
    """The theorem's display at μ = λ and its case order s + s_shift."""
    return spec.display(a, b, lam, lam, s + spec.s_shift, q, qa, qb, qm)


def timed(evaluate, args) -> tuple[float, float, bool]:
    """Seconds for one array call of evaluate(a, b, lam, mu, s, q, qa, qb, qm),
    each argument a column or a float, and for one float call per row, and
    whether each array entry has the bits of its float call."""
    start = time.perf_counter()
    bound = evaluate(*args)
    array_s = time.perf_counter() - start
    n = len(args[0])
    rows = list(zip(*(x.tolist() if isinstance(x, np.ndarray) else itertools.repeat(x, n) for x in args)))
    start = time.perf_counter()
    floats = [evaluate(*row) for row in rows]
    float_s = time.perf_counter() - start
    return array_s, float_s, bound.tobytes() == np.array(floats, dtype=np.float64).tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    a = rng.uniform(0.05, 2.0, args.rows)
    b = a + rng.uniform(0.1, 3.0, args.rows)
    lam, mu = rng.uniform(size=(2, args.rows))
    qa, qb, qm = rng.uniform(0.0, 4.0, size=(3, args.rows))
    s = rng.uniform(0.05, 2.0, args.rows)
    q = rng.choice([1.0, 1.5, 2.0, 4.0], args.rows)
    q[[not power_rule_holds(x, y) for x, y in zip(s.tolist(), q.tolist())]] = 1.0
    columns = (a, b, lam, mu, s, q, qa, qb, qm)

    def mean_rows(spec: MeanSpec) -> tuple:
        on_branch = np.array([not spec.branch_mismatch(x, y) for x, y in zip(s.tolist(), q.tolist())])
        return tuple(column[on_branch] for column in columns)

    jobs = {
        "": [(partial(case_bound, case), (a, b, lam, mu, *branch(case), qa, qb, qm)) for case in BoundCase],
        # Each preset's weights at its pins, broadcast to a column.
        "preset_": [(spec.display, (a, b, *np.broadcast_arrays(*spec.pinned_weights(lam, mu), lam)[:2],
                                    *preset_branch(spec), qa, qb, qm))
                    for spec in PRESETS.values()],
        "mean_": [(partial(mean_display, spec), mean_rows(spec)) for spec in MEAN_SPECS.values()],
    }
    out = {}
    identical = True
    for prefix, evaluations in jobs.items():
        array_s = float_s = 0.0
        for evaluate, call in evaluations:
            took_array, took_float, same = timed(evaluate, call)
            array_s, float_s, identical = array_s + took_array, float_s + took_float, identical and same
        out |= {f"{prefix}evaluations": sum(len(call[0]) for _, call in evaluations),
                f"{prefix}array_s": round(array_s, 4), f"{prefix}float_s": round(float_s, 4)}
    draws = oracle_draws(min(args.rows, 3000), args.seed)
    start = time.perf_counter()
    column = moment_oracle(*draws)
    out["oracle_array_s"] = round(time.perf_counter() - start, 4)
    start = time.perf_counter()
    floats = [moment_oracle(*row) for row in draws.T.tolist()]
    out["oracle_float_s"] = round(time.perf_counter() - start, 4)
    out["oracle_draws"] = len(floats)
    identical = identical and column.tobytes() == np.array(floats, dtype=np.float64).tobytes()

    tuples = list(zip(*(column[:5000].tolist() for column in (a, b, s, q, lam))))
    report = Report()
    start = time.perf_counter()
    errors = add_mean_rows(report, MEAN_THEOREMS, tuples)
    out["mean_rows_array_s"] = round(time.perf_counter() - start, 4)
    records = report.records
    start = time.perf_counter()
    results = [eval_mean_bound(r["case"], MeanParams(*r["params"].values())) for r in records]
    out["mean_rows_float_s"] = round(time.perf_counter() - start, 4)
    out["mean_rows"] = len(records)
    swept = np.array([(r["lhs"], r["bound"]) for r in records], dtype=np.float64)
    expected = np.array([(res.lhs, res.bound) for res in results], dtype=np.float64)
    identical = (identical and not errors and swept.tobytes() == expected.tobytes()
                 and [(r["certified"], r["branch_notes"]) for r in records]
                 == [(res.certificate, res.branch_notes) for res in results])
    print(json.dumps({**out, "bit_identical": identical}))
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
