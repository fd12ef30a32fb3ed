"""Time 10^6 (row x case) closed-form bound evaluations, array against float.

Usage (from the root of a source checkout):

    python3 tools/closed_forms_bench.py [--rows 100000] [--seed 0]

Draws `rows` seeded rows (a, b, lambda, mu, |f'|^q samples) as the sweep's
draws are drawn, then evaluates each of the ten bound cases on all of them:
once as one `case_bound_from_values` call over the columns, and once as
one float call per row.  Each case runs at one (s, q) on its branch.  Each
of the 36 preset displays is evaluated the same way, on the same rows with
their weights set to its pins, at one (s, q) its pins admit.
Prints one JSON line: seconds for each path, summed over the cases and
(`preset_*`) over the presets, and whether every array entry has the bits
of its float call.  Exits 1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hhverify.bounds import CASES, BoundCase, case_bound_from_values  # noqa: E402
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


def timed(evaluate, s: float, q: float, columns) -> tuple[float, float, bool]:
    """Seconds for one array call of evaluate(a, b, lam, mu, s, q, qa, qb, qm)
    and for one float call per row, and whether each array entry has the
    bits of its float call."""
    a, b, lam, mu, qa, qb, qm = columns
    start = time.perf_counter()
    bound = evaluate(a, b, lam, mu, s, q, qa, qb, qm)
    array_s = time.perf_counter() - start
    rows = list(zip(*(c.tolist() for c in columns)))
    start = time.perf_counter()
    floats = [evaluate(*r[:4], s, q, *r[4:]) for r in rows]
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
    jobs = {
        "": [(partial(case_bound, case), *branch(case), lam, mu) for case in BoundCase],
        # Each preset's weights at its pins, broadcast to a column.
        "preset_": [(spec.display, *preset_branch(spec), *np.broadcast_arrays(*spec.pinned_weights(lam, mu), lam)[:2])
                    for spec in PRESETS.values()],
    }
    out = {}
    identical = True
    for prefix, evaluations in jobs.items():
        array_s = float_s = 0.0
        for evaluate, s, q, weights_lam, weights_mu in evaluations:
            took_array, took_float, same = timed(evaluate, s, q, (a, b, weights_lam, weights_mu, qa, qb, qm))
            array_s, float_s, identical = array_s + took_array, float_s + took_float, identical and same
        out |= {f"{prefix}evaluations": args.rows * len(evaluations), f"{prefix}array_s": round(array_s, 4),
                f"{prefix}float_s": round(float_s, 4)}
    print(json.dumps({**out, "bit_identical": identical}))
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
