"""Time 10^6 (row x case) closed-form bound evaluations, array against float.

Usage (from the root of a source checkout):

    python3 tools/closed_forms_bench.py [--rows 100000] [--seed 0]

Draws `rows` seeded rows (a, b, lambda, mu, |f'|^q samples) as the sweep's
draws are drawn, then evaluates each of the ten bound cases on all of them:
once as one `case_bound_from_values` call over the columns, and once as
one float call per row.  Each case runs at one (s, q) on its branch.
Prints one JSON line: seconds for each path, summed over the cases, and
whether every array entry equals its float call.  Exits 1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hhverify.bounds import CASES, BoundCase, case_bound_from_values  # noqa: E402


def branch(case: BoundCase) -> tuple[float, float]:
    """One (s, q) on the case's branch, read from its `CASES` row."""
    row = CASES[case]
    return (-1.0 if row.step == "harmonic" else 0.5), (1.0 if row.q_branch == "1" else 2.0)


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
    columns = (a, b, lam, mu, qa, qb, qm)
    rows = list(zip(*(c.tolist() for c in columns)))
    array_s = float_s = 0.0
    identical = True
    for case in BoundCase:
        s, q = branch(case)
        start = time.perf_counter()
        bound, _ = case_bound_from_values(case, a, b, lam, mu, s, q, qa, qb, qm)
        array_s += time.perf_counter() - start
        start = time.perf_counter()
        floats = [case_bound_from_values(case, *r[:4], s, q, *r[4:])[0] for r in rows]
        float_s += time.perf_counter() - start
        identical = identical and bound.tolist() == floats
    print(json.dumps({"evaluations": args.rows * len(BoundCase), "array_s": round(array_s, 4),
                      "float_s": round(float_s, 4), "bit_identical": identical}))
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
