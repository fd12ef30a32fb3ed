"""Workload definitions: each builds its sweep config and CLI calls from a seed.

The program only ever sees the generated config file; the seed picks the
random draws (and, for the certified grid, the intervals and part of the
lambda/mu grid), never the size of the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Displays that are false as printed (ROADMAP aim 3). A violation in any
# other case fails the run.
KNOWN_DEFECTIVE = frozenset({"T34_q1_tier1", "T34_q1_tier2", "T43_q1", "T44_q1"})

# (kind, classification) tally of `hh-verify errata` at the commit that
# introduced this benchmark. A change to it is a change in what the scan
# reports, and fails the run until the benchmark is updated on purpose.
ERRATA_TALLY = {
    ("flagged-display", "erratum-confirmed"): 8,
    ("identity", "consistent"): 1,
    ("moment-display", "consistent"): 4,
    ("preset", "consistent"): 36,
}

# Listed here rather than read from hhverify.presets.PRESETS, so that a new
# preset in the program does not silently grow the workload.
ALL_PRESETS = (
    "C31_q1", "C31_s_minus1_q1", "C32_lambda_eq_mu", "C32_q1", "C32_trapezoid",
    "C32x_lambda_mu_tier1", "C32x_lambda_mu_tier2", "C32x_q1_tier1", "C32x_q1_tier2",
    "C32x_s1_tier1", "C32x_s1_tier2", "C33_s1", "C33_s1_lambda_mu", "C33_s1_q1",
    "C33_s1_q1_lambda_mu", "C33x_lambda_mu_qgt1", "C33x_midpoint_qgt1", "C33x_s1_q1",
    "C33x_s1_q1_lambda_mu", "C33x_s1_qgt1", "C33x_s1_qgt1_lambda_mu",
    "C33x_trapezoid_qgt1", "C34x_q1_lambda_mu_tier1", "C34x_q1_lambda_mu_tier2",
    "C34x_q1_s1_tier1", "C34x_q1_s1_tier2", "C34x_qgt1_lambda_mu_tier1",
    "C34x_qgt1_lambda_mu_tier2", "C34x_qgt1_s1_tier1", "C34x_qgt1_s1_tier2",
    "C35_half", "C35_simpson", "C35_third", "E112", "E15", "E19",
)
ALL_MEAN_THEOREMS = ("T41", "T42", "T43_q1", "T43_qgt1", "T44_q1", "T44_qgt1")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Each entry is the argv after `hh-verify`, with "{out}" standing for the
    # report path of that call; the "sweep" call also gets "{config}".
    commands: tuple[tuple[str, ...], ...]
    formats: tuple[str, ...]
    all_certified: bool = False


def sweep_sampled(seed: int) -> Workload:
    """`sweep.example.json` at draws 2000 (ROADMAP's scaled sweep), JSON report."""
    config = {
        "families": ["pow:2", "pow:1.5", "exp"],
        "grid": {
            "a": [0.0, 1.0],
            "b": [2.0],
            "lambda": [0.0, 0.3333333333333333, 0.5, 1.0],
            "q": [1.0, 2.0],
        },
        "draws": 2000,
        "ranges": {"a": [0.05, 2.0], "width": [0.1, 3.0]},
        "cases": "all",
        "presets": ["E15", "C32_q1", "C35_half", "C33_s1_q1_lambda_mu"],
        "mean_theorems": ["T41", "T42", "T43_qgt1", "T44_qgt1"],
        "mean_grid": {
            "a": [0.5, 1.0],
            "b": [2.0, 4.0],
            "s": [0.5, 1.0, 1.5, 2.0],
            "q": [1.0, 2.0],
            "lambda": [0.0, 0.5, 1.0],
        },
        "moment_oracle_draws": 200,
        "tol": 1e-12,
        "seed": seed,
        "format": "json",
    }
    return Workload(
        "sweep_sampled", config,
        (("sweep", "--config", "{config}", "--out", "{out}"),), ("json",),
    )


def sweep_certified_grid(seed: int) -> Workload:
    """Power families inside the power rule over a dense crossed lambda x mu grid.

    Every row is certified analytically, so no sampling and only one mean
    quadrature per interval; the cost is row assembly and closed forms.
    """
    rng = random.Random(seed)
    a_values = sorted(round(rng.uniform(0.2, 1.0), 6) for _ in range(2))
    b_values = sorted(round(rng.uniform(1.5, 3.5), 6) for _ in range(2))
    # The values presets pin (0, 1/3, 1/2, 2/3, 1) are always on the grid,
    # so the number of admitted preset rows does not depend on the seed.
    pinned = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0]
    lam = sorted(pinned + [round(rng.uniform(0.02, 0.98), 6) for _ in range(8)])
    config = {
        "families": ["pow:1.25", "pow:1.5"],
        "grid": {"a": a_values, "b": b_values, "lambda": lam, "mu": lam, "q": [1.0, 1.5, 2.0]},
        "cases": "all",
        "presets": list(ALL_PRESETS),
        "tol": 1e-12,
        "seed": seed,
        "format": "csv",
    }
    return Workload(
        "sweep_certified_grid", config,
        (("sweep", "--config", "{config}", "--out", "{out}"),), ("csv",),
        all_certified=True,
    )


def oracle_audit(seed: int) -> Workload:
    """Moment oracle draws and all six mean theorems, then the erratum scan."""
    config = {
        "mean_theorems": list(ALL_MEAN_THEOREMS),
        "mean_draws": 5000,
        "moment_oracle_draws": 3000,
        "tol": 1e-12,
        "seed": seed,
        "format": "json",
    }
    return Workload(
        "oracle_audit", config,
        (
            ("sweep", "--config", "{config}", "--out", "{out}"),
            ("errata", "--out", "{out}", "--format", "json"),
        ),
        ("json", "json"),
    )


WORKLOADS = {w.__name__: w for w in (sweep_sampled, sweep_certified_grid, oracle_audit)}
