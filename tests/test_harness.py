import collections
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import re

import pytest

import hhverify.harness as harness
import hhverify.means as means
from hhverify.bounds import BoundCase, branch_mismatch, eval_case
from hhverify.errors import ConfigError, FunctionDomainError, PresetMismatchError, WrongBranchError
from hhverify.functions import canonical_id, from_id, parse_id
from hhverify.harness import CASE_KEYS, MEAN_KEYS, Report, SuiteConfig, erratum_scan, run_suite
from hhverify.identity import BoundParams
from hhverify.means import MEAN_SPECS, MEAN_THEOREMS, MeanParams, eval_mean_bound, mean_values
from hhverify.presets import PRESETS, PresetSpec, eval_preset


def paired_x2_config():
    return SuiteConfig.from_dict(
        {
            "families": ["pow:2"],
            "grid": {
                "a": [0.0],
                "b": [1.0],
                "lambda": [0.0, 1.0 / 3.0, 0.5, 1.0],
                "s": [1.0],
                "q": [1.0, 2.0],
            },
            "cases": "all",
        }
    )


def seeded_mix_config():
    """Seeded draws with case, preset and mean rows, a few of them violating."""
    return SuiteConfig.from_dict(
        {
            "families": ["pow:2", "pow:1.5", "exp"],
            "grid": {"a": [0.0, 1.0], "b": [2.0], "lambda": [0.0, 0.5, 1.0], "q": [1.0, 2.0]},
            "draws": 12,
            "seed": 4,
            "cases": "all",
            "presets": ["E15", "C32_q1", "C33_s1_q1_lambda_mu", "C35_half"],
            "mean_theorems": ["T41", "T44_q1", "T44_qgt1"],
            "mean_grid": {"a": [1.0], "b": [2.0, 4.0], "s": [0.5, 2.0], "q": [1.0, 2.0], "lambda": [0.0, 0.5]},
            "mean_draws": 6,
            "moment_oracle_draws": 5,
        }
    )


def all_means_config():
    """All six mean theorems over a mean grid and seeded mean draws."""
    return SuiteConfig.from_dict(
        {
            "mean_theorems": list(MEAN_THEOREMS),
            "mean_grid": {"a": [0.5, 1.0], "b": [1.0, 2.0, 4.0], "s": [0.5, 1.0, 1.5, 2.0],
                          "q": [1.0, 2.0], "lambda": [0.0, 0.5, 1.0]},
            "mean_draws": 24,
            "seed": 3,
        }
    )


def seeded_draws_config():
    """Seeded draws plus a small grid over three families, every case and a
    few presets, at s in {-1, 0.5, 1} and q in {1, 1.5, 2}."""
    return SuiteConfig.from_dict(
        {
            "families": ["pow:2", "pow:1.5", "exp"],
            "grid": {"a": [0.5], "b": [2.0], "lambda": [0.0, 0.5, 1.0], "s": [-1.0, 0.5, 1.0], "q": [1.0, 1.5, 2.0]},
            "draws": 30,
            "seed": 9,
            "cases": "all",
            "presets": ["C31_s_minus1_q1", "C32_q1", "C33_s1", "C33x_midpoint_qgt1", "C34x_qgt1_s1_tier2", "E15"],
        }
    )


PINNED_CONFIGS = {
    "paired": paired_x2_config,
    "mix": seeded_mix_config,
    "means": all_means_config,
    "draws": seeded_draws_config,
}

# sha256 of the reports as the record-dict writer (json.dump(indent=2) and a
# csv.writer loop) wrote them, on x86-64 Linux with CPython 3.11 and
# numpy 2.4.  The digests depend on the platform's libm only through the
# computed values; a mismatch elsewhere first needs the values compared.
PINNED_DIGESTS = {
    # All eight were re-recorded when every Hölder display came to take its
    # conjugate-exponent norm from `moments.holder_norm`.  Matched row by
    # row, only the rows of T33_qgt1, T34_qgt1_tier1/_tier2, T43_qgt1,
    # T44_qgt1 and the qgt1 presets changed, and only in `bound` and
    # `slack`, by at most 5 ulp of the bound; record and violation counts
    # were unchanged.  Before that, the last six were re-recorded when every
    # lhs came to take its mean from the closed form the function carries
    # (case and preset rows had a GK15 mean, mean rows their own L_s
    # formula): only `lhs` and `slack` changed then, by at most 1.4e-14.
    ("paired", "json"): "3e0295a173e5c44dcbce2fca122deb9ccb6ead41b82a37392c45c0cc20110146",
    ("paired", "csv"): "d69bd760e06f4419e5acdbe2b27015af22c1d71f014866b528da073d714662ee",
    ("mix", "json"): "499dbbee667799b684493117ae057217d2b50541972c394a3cf35b7ca55e3cb7",
    ("mix", "csv"): "6db7f5869c974a432a1162d8f00b6ea63804c0c95b39fc9d1a3ee1196afe76aa",
    ("means", "json"): "78f1ada19e43427455acfaccf06961de257c47b7237df59b4c2373c70addd112",
    ("means", "csv"): "e04230bbc741fff116bb4abccc97154fbba7cf02d1f74890f3b5556053951d6e",
    ("draws", "json"): "5cfe5736260d699392e57c7705f9242a6b5e9ed58b6db717405562e4944d4b28",
    ("draws", "csv"): "3fd0661977d56d02e7ef0a8bd4a3cb2a6c795182bd0b123f91c13ecc9333cd56",
}


@pytest.mark.parametrize("name,fmt", sorted(PINNED_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, name, fmt):
    cfg = PINNED_CONFIGS[name]()
    path = tmp_path / f"report.{fmt}"
    run_suite(cfg).write(str(path), fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name, fmt]


def test_sweep_skips_an_overflowing_interval_whole():
    # e^711 overflows in f and in the mean on [1, 711] and [710, 711]; only
    # [1, 2] gives rows, and the sweep runs to the end.
    cfg = SuiteConfig.from_dict(
        {"families": ["exp"], "grid": {"a": [1.0, 710.0], "b": [2.0, 711.0], "q": [1.0, 2.0]},
         "cases": "all", "presets": ["E15"]}
    )
    records = run_suite(cfg).records
    assert records and {(r["params"]["a"], r["params"]["b"]) for r in records} == {(1.0, 2.0)}


def test_sweep_leaves_out_a_bound_that_is_not_finite():
    # On [1, 709.7] e^x, its mean and |f'| are finite but every q = 1 bound
    # overflows, which would read "holds".  Those rows are left out, each
    # with its error, and the rows of [1, 2], which share their case blocks,
    # are the ones a sweep of [1, 2] alone writes.
    raw = {"families": ["exp"], "grid": {"a": [1.0], "b": [2.0, 709.7], "lambda": [0.5], "q": [1.0]},
           "cases": "all", "presets": ["C32_q1"]}
    records = run_suite(SuiteConfig.from_dict(raw)).records
    raw["grid"]["b"] = [2.0]
    assert records and records == run_suite(SuiteConfig.from_dict(raw)).records
    cases = [case for case in BoundCase if not branch_mismatch(case, 1.0, 1.0)]
    intervals = [(from_id("exp", 1.0, b), [(0.5, 0.5)]) for b in (2.0, 709.7)]
    report = Report()
    errors = harness.add_interval_rows(report, SuiteConfig(), intervals, [(1.0, 1.0, cases, [PRESETS["C32_q1"]])])
    assert report.record_count == len(cases) + 1
    assert [str(e) for e in errors] == [
        f"{name} bound for exp is not finite on [1.0, 709.7]" for name in [c.value for c in cases] + ["C32_q1"]
    ]
    assert all(isinstance(e, FunctionDomainError) for e in errors)


def test_paired_sweep_has_no_violations():
    report = run_suite(paired_x2_config())
    assert len(report.records) > 0
    assert report.violations == []
    assert all(r["certified"] == "certified-analytic" for r in report.records if r["params"]["q"] == 1.0)


def test_summary_recomputable_from_records():
    report = run_suite(paired_x2_config())
    for key, entry in report.summary.items():
        slacks = [r["slack"] for r in report.records if (r["preset"] or r["case"]) == key]
        assert entry["count"] == len(slacks)
        assert entry["min_slack"] == min(slacks)


def test_reports_are_byte_identical(tmp_path):
    cfg = paired_x2_config()
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_suite(cfg).write(str(p1), "json")
    run_suite(cfg).write(str(p2), "json")
    assert p1.read_bytes() == p2.read_bytes()
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    run_suite(cfg).write(str(c1), "csv")
    run_suite(cfg).write(str(c2), "csv")
    assert c1.read_bytes() == c2.read_bytes()


def test_seeded_draws_are_deterministic():
    cfg = SuiteConfig.from_dict(
        {
            "families": ["pow:2"],
            "grid": {"s": [1.0], "q": [1.0]},
            "draws": 25,
            "seed": 9,
            "cases": ["T31_general"],
        }
    )
    r1, r2 = run_suite(cfg), run_suite(cfg)
    assert dumped(r1, "json") == dumped(r2, "json")
    assert len(r1.records) == 25


def test_oracle_suite_config():
    cfg = SuiteConfig.from_dict({"moment_oracle_draws": 150, "seed": 3})
    report = run_suite(cfg)
    assert report.oracle_residuals["max_moment_residual"] <= 1e-9
    assert report.oracle_residuals["max_harmonic_residual"] <= 1e-9


def test_empty_config_is_empty_report():
    report = run_suite(SuiteConfig.from_dict({}))
    assert report.records == [] and report.violations == []


def test_config_validation_paths():
    with pytest.raises(ConfigError, match="config.grid.alpha"):
        SuiteConfig.from_dict({"grid": {"alpha": [1]}})
    with pytest.raises(ConfigError, match=r"config.cases\[0\]"):
        SuiteConfig.from_dict({"cases": ["T99"]})
    with pytest.raises(ConfigError, match="config.tol"):
        SuiteConfig.from_dict({"tol": -1.0})
    with pytest.raises(ConfigError, match=r"config.grid.b\[1\]"):
        SuiteConfig.from_dict({"grid": {"b": [1.0, "x"]}})
    with pytest.raises(ConfigError, match="config.unknown"):
        SuiteConfig.from_dict({"unknown": 1})


# One value outside its field's domain, the path it must be reported at,
# and what else the config needs for that value to be used.
OUT_OF_DOMAIN = [
    ({"grid": {"lambda": [0.5, 1.5]}}, "config.grid.lambda[1]"),
    ({"grid": {"mu": [-0.1]}}, "config.grid.mu[0]"),
    ({"grid": {"s": [3.0]}}, "config.grid.s[0]"),
    ({"grid": {"q": [0.5]}}, "config.grid.q[0]"),
    ({"mean_grid": {"lambda": [1.5]}}, "config.mean_grid.lambda[0]"),
    ({"mean_grid": {"s": [3.0]}}, "config.mean_grid.s[0]"),
    ({"mean_grid": {"s": [0.0]}}, "config.mean_grid.s[0]"),
    ({"mean_grid": {"q": [0.5]}}, "config.mean_grid.q[0]"),
    ({"mean_grid": {"a": [1.0, -1.0]}}, "config.mean_grid.a[1]"),
    ({"ranges": {"a": [0.0, 1.0]}, "mean_draws": 1}, "config.ranges.a"),
    # JSON true/false load as Python bools, which are ints; none is a number here.
    ({"draws": True}, "config.draws"),
    ({"mean_draws": True}, "config.mean_draws"),
    ({"seed": False}, "config.seed"),
    ({"convexity_samples": True}, "config.convexity_samples"),
    ({"grid": {"lambda": [True]}}, "config.grid.lambda[0]"),
    ({"grid": {"q": [1.0, True]}}, "config.grid.q[1]"),
    ({"mean_grid": {"s": [True]}}, "config.mean_grid.s[0]"),
    # A repeated name would emit each of its rows once per repeat.
    ({"families": ["exp", "exp"]}, "config.families[1]"),
    # Two spellings of one function are one family.
    ({"families": ["pow:2", "pow:2.0"]}, 'config.families[1]: repeated "pow:2.0"'),
    ({"cases": ["T31_general", "T33_q1", "T31_general"]}, "config.cases[2]"),
    ({"presets": ["E15", "E15"]}, "config.presets[1]"),
    ({"mean_theorems": ["T41", "T41"]}, "config.mean_theorems[1]"),
]


@pytest.mark.parametrize("bad,path", OUT_OF_DOMAIN, ids=[json.dumps(b) for b, _ in OUT_OF_DOMAIN])
def test_config_rejects_values_outside_their_domain(bad, path):
    cfg = {"families": ["pow:2"], "cases": "all", "mean_theorems": ["T41"], **bad}
    with pytest.raises(ConfigError, match=re.escape(path)):
        SuiteConfig.from_dict(cfg)


def test_ranges_a_may_start_at_0_without_mean_draws():
    cfg = SuiteConfig.from_dict({"ranges": {"a": [0.0, 1.0]}, "mean_theorems": ["T41"]})
    assert cfg.a_range == (0.0, 1.0)


def test_config_defaults_are_the_dataclass_defaults():
    assert SuiteConfig.from_dict({}) == SuiteConfig()
    assert SuiteConfig.from_dict({"cases": "all", "grid": None, "ranges": {}}) == SuiteConfig()


def test_a_branch_that_admits_nothing_is_skipped(monkeypatch):
    # pow:3 defaults to s = p - 1 = 2, past every case and preset, so the
    # sweep neither builds its rows nor samples its certificate.
    monkeypatch.setattr(harness, "check_extended_s_convex", None)
    cfg = SuiteConfig.from_dict(
        {"families": ["pow:3"], "grid": {"a": [1.0], "b": [2.0]}, "cases": "all", "presets": sorted(PRESETS)}
    )
    assert run_suite(cfg).record_count == 0


@pytest.mark.parametrize("fid", ["foo", "pow:abc", "pow:nan", "pow:0", "pow:-1"])
def test_config_rejects_bad_family_ids(fid):
    with pytest.raises(ConfigError, match=r"config.families\[1\]"):
        SuiteConfig.from_dict({"families": ["exp", fid]})


def test_families_name_the_evaluated_function():
    # A mean row names the x^s it evaluated, s spelled exactly, and a case
    # or preset row the canonical id of its configured family.
    cfg = SuiteConfig.from_dict(
        {
            "families": ["pow:2.0", "pow:1.50", "exp", "const:3e0"],
            "grid": {"a": [1.0], "b": [2.0], "lambda": [0.5], "s": [1.0], "q": [1.0]},
            "cases": ["T31_general"],
            "presets": ["E15"],
            "mean_theorems": list(MEAN_THEOREMS),
            "mean_draws": 40,
            "seed": 2,
        }
    )
    assert cfg.families == ("pow:2", "pow:1.5", "exp", "const:3")
    records = run_suite(cfg).records
    means = [r for r in records if r["case"] in MEAN_THEOREMS]
    assert len(means) > 40 and any(f"{r['params']['s']:g}" != r["family"][4:] for r in means)
    for r in means:
        assert parse_id(r["family"]) == ("pow", r["params"]["s"]), r
    interval = [r for r in records if r["case"] not in MEAN_THEOREMS]
    assert {r["family"] for r in interval} == set(cfg.families)
    for r in interval:
        assert r["family"] == canonical_id(r["family"]), r


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"families": ["exp"], "grid": {"a": [0.0], "b": [1.0], "s": [1.0]}}))
    cfg = SuiteConfig.from_file(str(path))
    assert cfg.families == ("exp",)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        SuiteConfig.from_file(str(bad))


def test_uncertified_rows_are_flagged_not_hidden():
    # Forcing s = 1 on pow:1.5 makes the convexity claim false; the sweep
    # still evaluates the bounds but the certificate marks those rows, so
    # any violations there are attributable to the bad claim.
    cfg = SuiteConfig.from_dict(
        {
            "families": ["pow:1.5"],
            "grid": {"a": [0.5], "b": [2.0], "lambda": [0.0, 0.5, 1.0], "s": [1.0], "q": [1.0]},
            "cases": ["T31_general"],
            "convexity_samples": 64,
        }
    )
    report = run_suite(cfg)
    assert all(r["certified"] == "falsified" for r in report.records)


def test_s_minus1_sweep_path():
    # An explicit s = -1 grid routes rows to the midpoint-deviation case and
    # still rides the power-rule certificate (order -1 <= certified order 1).
    cfg = SuiteConfig.from_dict(
        {
            "families": ["pow:2"],
            "grid": {"a": [1.0], "b": [2.0], "lambda": [0.0, 1.0], "s": [-1.0], "q": [1.0]},
            "cases": "all",
        }
    )
    report = run_suite(cfg)
    assert {r["case"] for r in report.records} == {"T31_s_minus1"}
    assert all(r["certified"] == "certified-analytic" for r in report.records)
    assert report.violations == []


def test_mean_theorem_sweep():
    cfg = SuiteConfig.from_dict(
        {
            "mean_theorems": ["T41", "T42"],
            "mean_grid": {"a": [0.5, 1.0], "b": [2.0], "s": [0.5, 1.0, 2.0], "q": [1.0], "lambda": [0.0, 0.5, 1.0]},
        }
    )
    report = run_suite(cfg)
    assert len(report.records) == 2 * 2 * 3 * 3
    assert report.violations == []


# The displays that are false as printed; a certified violation anywhere
# else is a wrong verdict.
KNOWN_DEFECTIVE = frozenset({"T34_q1_tier1", "T34_q1_tier2", "T43_q1", "T44_q1"})


def edges_config():
    """q just above 1, s near -1, widths down to 1e-10 and b down to 1e-6,
    over every case, preset and mean theorem."""
    q = [1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3]
    weights = [0.0, 0.3, 0.5, 1.0]
    return SuiteConfig.from_dict(
        {
            "families": ["pow:2", "pow:3", "pow:1.5", "exp"],
            "grid": {"a": [1e-7, 1.0], "b": [1e-6, 1.0 + 1e-10, 1.0 + 1e-7, 2.0, 4.0], "lambda": weights,
                     "mu": weights, "s": [-1.0 + 1e-6, -0.5, 0.0, 0.5, 1.0], "q": q},
            "cases": "all",
            "presets": list(PRESETS),
            "mean_theorems": list(MEAN_THEOREMS),
            "mean_grid": {"a": [0.5, 1.0], "b": [1.0 + 1e-7, 4.0], "s": [0.5, 1.0, 1.5, 2.0], "q": q,
                          "lambda": weights},
        }
    )


def test_edges_have_no_certified_violation_outside_the_known_defects():
    # Where q - 1 < ~1e-3 the Hölder integral underflows to 0, so a bound
    # that raised it to 1 - 1/q read 0 on certified rows.
    report = run_suite(edges_config())
    wrong = collections.Counter(
        r["preset"] or r["case"] for r in report.violations
        if r["certified"] == "certified-analytic" and r["case"] not in KNOWN_DEFECTIVE
    )
    assert report.record_count > 70_000
    assert not wrong, dict(wrong)


def test_erratum_scan_classifications():
    report = erratum_scan()
    by_item = {e["item"]: e for e in report.errata}
    assert by_item["moment_case(-1,2) verbatim"]["classification"] == "erratum-confirmed"
    assert by_item["T32_tier2 verbatim"]["classification"] == "erratum-confirmed"
    presets = [e for e in report.errata if e["kind"] == "preset"]
    assert presets and all(e["classification"] == "consistent" for e in presets)
    moments = [e for e in report.errata if e["kind"] == "moment-display"]
    assert len(moments) == 4 and all(e["classification"] == "consistent" for e in moments)
    assert by_item["E19 == C32_trapezoid"]["classification"] == "consistent"
    # scan itself reports no inequality violations
    assert report.violations == []


SCAN_PRESETS = [
    "C31_q1", "C31_s_minus1_q1", "C32_lambda_eq_mu", "C32_q1", "C32_trapezoid",
    "C32x_lambda_mu_tier1", "C32x_lambda_mu_tier2", "C32x_q1_tier1", "C32x_q1_tier2",
    "C32x_s1_tier1", "C32x_s1_tier2", "C33_s1", "C33_s1_lambda_mu", "C33_s1_q1",
    "C33_s1_q1_lambda_mu", "C33x_lambda_mu_qgt1", "C33x_midpoint_qgt1", "C33x_s1_q1",
    "C33x_s1_q1_lambda_mu", "C33x_s1_qgt1", "C33x_s1_qgt1_lambda_mu", "C33x_trapezoid_qgt1",
    "C34x_q1_lambda_mu_tier1", "C34x_q1_lambda_mu_tier2", "C34x_q1_s1_tier1", "C34x_q1_s1_tier2",
    "C34x_qgt1_lambda_mu_tier1", "C34x_qgt1_lambda_mu_tier2", "C34x_qgt1_s1_tier1",
    "C34x_qgt1_s1_tier2", "C35_half", "C35_simpson", "C35_third", "E112", "E15", "E19",
]


def test_every_unpinned_preset_has_scan_orders():
    # The erratum scan indexes its s grid by a preset's s_range.
    for pid, spec in PRESETS.items():
        if spec.pin_s is None:
            assert spec.s_range in harness._SCAN_S_BY_RANGE, pid


def test_erratum_scan_items_in_order():
    expected = (
        ["moment_case(1,0)", "moment_case(1,1)", "moment_case(-1,1)", "moment_case(-1,2)",
         "moment_case(-1,2) verbatim", "T32_tier2 verbatim", "T33_q1 verbatim",
         "T42 general-q verbatim"]
        + [f"preset {pid}" for pid in SCAN_PRESETS]
        + [f"preset {pid} verbatim"
           for pid in ("C32x_lambda_mu_tier2", "C32x_s1_tier1", "C33_s1_q1", "C33x_s1_q1")]
        + ["E19 == C32_trapezoid"]
    )
    report = erratum_scan()
    assert [e["item"] for e in report.errata] == expected
    tally = collections.Counter((e["kind"], e["classification"]) for e in report.errata)
    assert tally == {
        ("flagged-display", "erratum-confirmed"): 8,
        ("identity", "consistent"): 1,
        ("moment-display", "consistent"): 4,
        ("preset", "consistent"): 36,
    }


def hand_built_report():
    """Rows out of report order, with non-finite floats, -0.0 and awkward labels.

    Slack is bound - lhs: nan twice, inf, -inf (not a violation: its bound
    is -inf too) and the violating -0.5.
    """
    nan, inf = math.nan, math.inf
    report = Report()
    report.add("pow:2", "T31_general", "E15", (1.0, 2.0, 1.0, 1.0, 1.0, 1.0),
               inf, nan, "sampled", "unicode \u03bb and 100% %s")
    report.add("exp", "T31_general", None, (-0.0, 1.0, 0.5, 0.5, 1.0, 1.0),
               nan, inf, "unchecked", 'a note, with "quotes"\nand a newline')
    report.add("pow:1.5", "T41", None, (1.0, 2.0, 0.5, 0.0, 0.5, 2.0),
               -inf, 1e-300, "certified-analytic", "")
    report.add("pow:1.5", "T42", None, (1.0, 2.0, 0.0, 0.0, 0.5, 1.0),
               5e-324, -inf, "certified-analytic", "")
    report.add("exp", "T31_general", None, (0.0, 1.0, 0.0, 1.0, 1.0, 1.0),
               1.0, 0.5, "unchecked", "violating")
    return report.finalize()


REFERENCE_REPORTS = {
    "mix": lambda: run_suite(seeded_mix_config()),
    "paired": lambda: run_suite(paired_x2_config()),
    "empty": lambda: run_suite(SuiteConfig.from_dict({})),
    "errata": erratum_scan,
    "hand_built": hand_built_report,
}


def json_reference(report) -> str:
    doc = {
        "records": report.records,
        "violations": report.violations,
        "errata": report.errata,
        "summary": report.summary,
        "oracle_residuals": report.oracle_residuals,
    }
    return json.dumps(doc, indent=2) + "\n"


def dumped(report, fmt: str) -> str:
    buf = io.StringIO()
    report.dump(buf, fmt)
    return buf.getvalue()


def csv_reference(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "case", "preset", *CASE_KEYS, "lhs", "bound", "slack", "certified", "branch_notes"])
    for r in report.records:
        p = r["params"]
        writer.writerow(
            [r["family"], r["case"], r["preset"] or "", *(p.get(k, "") for k in CASE_KEYS),
             repr(r["lhs"]), repr(r["bound"]), repr(r["slack"]), r["certified"], r["branch_notes"]]
        )
    return buf.getvalue()


def test_write_streams_the_to_json_bytes(tmp_path):
    # The report writer is checked against json.dumps(indent=2) of the
    # record views, on case, preset and mean rows, violations, an empty
    # report, the erratum scan and non-finite floats.
    path = tmp_path / "r.json"
    for name, build in REFERENCE_REPORTS.items():
        report = build()
        report.write(str(path), "json")
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == json_reference(report), name
        assert dumped(report, "json") == json_reference(report), name


def test_csv_matches_a_csv_writer_loop(tmp_path):
    path = tmp_path / "r.csv"
    for name, build in REFERENCE_REPORTS.items():
        report = build()
        report.write(str(path), "csv")
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == csv_reference(report), name
        assert dumped(report, "csv") == csv_reference(report), name


def test_views_and_counts_agree():
    for name in ("mix", "hand_built", "empty"):
        report = REFERENCE_REPORTS[name]()
        assert report.record_count == len(report.records)
        assert report.violation_count == len(report.violations)
        assert report.violations == [r for r in report.records if r["violation"]]
    mix = REFERENCE_REPORTS["mix"]()
    assert mix.violation_count == 4
    assert {tuple(r["params"]) for r in mix.records} == {CASE_KEYS, MEAN_KEYS}
    assert any(r["preset"] for r in mix.records)
    hand = REFERENCE_REPORTS["hand_built"]()
    assert [r["branch_notes"] for r in hand.violations] == ["violating"]


def test_finalize_sorts_like_the_record_key():
    # Rows re-added in a shuffled order come back in the order of the
    # per-record key (case, preset or "", family, params with a missing one
    # as 0.0), ties in insertion order.
    def key(rec):
        p = rec["params"].get
        return (rec["case"], rec["preset"] or "", rec["family"],
                p("a", 0.0), p("b", 0.0), p("lambda", 0.0), p("mu", 0.0), p("s", 0.0), p("q", 0.0))

    records = run_suite(seeded_mix_config()).records
    records += records[:50]  # exact ties
    random.Random(3).shuffle(records)
    report = Report()
    for i, r in enumerate(records):
        params = tuple(r["params"].get(k, 0.0) for k in CASE_KEYS)
        report.add(r["family"], r["case"], r["preset"], params,
                   r["lhs"], r["bound"], r["certified"], str(i))
    got = report.finalize().records
    assert [int(r["branch_notes"]) for r in got] == sorted(range(len(records)), key=lambda i: key(records[i]))
    for r in got:
        assert r == {**records[int(r["branch_notes"])], "branch_notes": r["branch_notes"]}


def test_convex_envelopes_skip_the_sampler(monkeypatch):
    def sampler(*args, **kwargs):
        raise AssertionError("sampler called for an analytically certified id")

    monkeypatch.setattr(harness, "check_extended_s_convex", sampler)
    cfg = SuiteConfig.from_dict(
        {
            "families": ["exp", "pow:2", "const:3"],
            "grid": {"a": [0.0, 1.0], "b": [2.0], "lambda": [0.0, 1.0], "q": [1.0, 2.0]},
            "cases": ["T31_general"],
        }
    )
    report = run_suite(cfg)
    assert {r["family"] for r in report.records} == {"exp", "pow:2", "const:3"}
    assert all(r["certified"] == "certified-analytic" for r in report.records)


def test_not_falsified_only_where_the_sampler_ran(monkeypatch):
    # Case, preset and mean rows with every certificate kind: pow:1.5 at
    # q = 1 is sampled at s = 0.75 (not falsified) and s = 1 (falsified);
    # T43_qgt1 at (s-1)q = -1 and 2 lies outside the power rule.
    sampled = {}
    real = harness.check_extended_s_convex

    def sampler(g, lo, hi, s, **kwargs):
        cert = real(g, lo, hi, s, **kwargs)
        sampled[(g.fid, lo, hi, s)] = cert.status
        return cert

    monkeypatch.setattr(harness, "check_extended_s_convex", sampler)
    cfg = SuiteConfig.from_dict(
        {
            "families": ["pow:1.5", "exp"],
            "grid": {"a": [0.5], "b": [2.0], "lambda": [0.0, 0.5, 1.0], "s": [0.5, 0.75, 1.0], "q": [1.0, 2.0]},
            "cases": "all",
            "presets": ["E15", "C32_q1"],
            "mean_theorems": list(MEAN_THEOREMS),
            "mean_grid": {"a": [1.0], "b": [2.0], "s": [0.5, 1.0, 2.0], "q": [1.0, 2.0], "lambda": [0.5]},
        }
    )
    records = run_suite(cfg).records
    assert {r["case"] for r in records} >= set(MEAN_THEOREMS) and any(r["preset"] for r in records)
    outside = [r for r in records if r["case"] == "T43_qgt1" and r["params"]["s"] != 1.0]
    assert len(outside) == 2
    kinds = collections.Counter(r["certified"] for r in records)
    assert kinds["not-falsified"] and kinds["falsified"] and kinds["certified-analytic"]
    for r in records:
        if r["certified"] in ("not-falsified", "falsified"):
            p = r["params"]
            key = (f"|{r['family']}'|^{p['q']:g}", p["a"], p["b"], p["s"])
            assert sampled.get(key) == r["certified"], r
        elif r["case"] in MEAN_THEOREMS:
            assert r["certified"] in ("certified-analytic", "unchecked"), r
    assert len(sampled) == 2


def test_sweep_rows_match_the_scalar_path():
    # Every case and every preset is admitted somewhere on this grid; the
    # sweep must emit exactly the rows eval_case/eval_preset admit, with the
    # same numbers and notes.  Only the certificate differs: the scalar path
    # is given none.
    pinned = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0]
    cfg = SuiteConfig.from_dict(
        {
            "families": ["pow:2", "exp"],
            "grid": {"a": [1.0], "b": [2.0], "lambda": pinned, "s": [-1.0, 1.0], "q": [1.0, 2.0]},
            "cases": "all",
            "presets": sorted(PRESETS),
        }
    )
    report = run_suite(cfg)
    swept = {
        (r["family"], r["case"], r["preset"], tuple(r["params"].values())): r
        for r in report.records
    }
    expected = {}
    for fid in cfg.families:
        f = from_id(fid, 1.0, 2.0)
        for lam in pinned:
            for s in (-1.0, 1.0):
                for q in (1.0, 2.0):
                    p = BoundParams(1.0, 2.0, lam, lam, s, q)
                    key = (1.0, 2.0, lam, lam, s, q)
                    for case in BoundCase:
                        try:
                            res = eval_case(case, f, p, cfg.tol)
                        except WrongBranchError:
                            continue
                        expected[(fid, res.case, None, key)] = res
                    for pid in PRESETS:
                        try:
                            res = eval_preset(pid, f, p, cfg.tol)
                        except (WrongBranchError, PresetMismatchError):
                            continue
                        expected[(fid, res.case, pid, key)] = res
    assert {k[1] for k in expected} == {c.value for c in BoundCase}
    assert {k[2] for k in expected} - {None} == set(PRESETS)
    assert swept.keys() == expected.keys()
    for key, res in expected.items():
        rec = swept[key]
        assert (rec["lhs"], rec["bound"], rec["slack"], rec["branch_notes"]) == (
            res.lhs, res.bound, res.slack, res.branch_notes
        ), key


def test_seeded_sweep_rows_match_the_scalar_path():
    # The twin of the test above over many intervals: every case and preset
    # row of the seeded draws equals eval_case/eval_preset on its own params.
    cfg = seeded_draws_config()
    records = run_suite(cfg).records
    assert {r["case"] for r in records} == {c.value for c in BoundCase}
    assert {r["preset"] for r in records} - {None} == set(cfg.presets)
    assert len({(r["params"]["a"], r["params"]["b"]) for r in records}) > 30
    functions = {}
    for r in records:
        p = BoundParams(*(r["params"][key] for key in CASE_KEYS))
        key = (r["family"], p.a, p.b)
        if key not in functions:
            functions[key] = from_id(r["family"], p.a, p.b)
        f = functions[key]
        if r["preset"] is None:
            res = eval_case(r["case"], f, p, cfg.tol)
        else:
            res = eval_preset(r["preset"], f, p, cfg.tol)
        assert (r["lhs"], r["bound"], r["slack"], r["branch_notes"]) == (
            res.lhs, res.bound, res.slack, res.branch_notes
        ), r


def test_each_case_is_one_call_per_family_and_branch(monkeypatch):
    calls = collections.Counter()
    evaluate = harness.case_bound_from_values

    def counted(case, *args):
        calls[case, args[4], args[5]] += 1
        return evaluate(case, *args)

    monkeypatch.setattr(harness, "case_bound_from_values", counted)
    cfg = seeded_draws_config()
    report = run_suite(cfg)
    # Each (s, q) branch admits its cases for every family: one call each.
    expected = collections.Counter()
    for case in BoundCase:
        for s in cfg.s_values:
            for q in cfg.q_values:
                if not harness.branch_mismatch(case, s, q):
                    expected[case, s, q] = len(cfg.families)
    assert calls == expected
    assert report.record_count > 30 * sum(calls.values())


def test_each_preset_is_one_display_call_per_family_and_branch(monkeypatch):
    # A preset's rows are one block per (family, s, q): its weight pins are
    # matched as a mask over the columns, never row by row.
    calls = collections.Counter()
    cfg = seeded_draws_config()
    for pid in cfg.presets:
        def counted(*args, pid=pid, display=PRESETS[pid].display):
            calls[pid, args[4], args[5]] += 1
            return display(*args)

        monkeypatch.setitem(PRESETS, pid, dataclasses.replace(PRESETS[pid], display=counted))
    monkeypatch.setattr(PresetSpec, "weight_mismatch", None)
    report = run_suite(cfg)
    expected = collections.Counter()
    for pid in cfg.presets:
        for s in cfg.s_values:
            for q in cfg.q_values:
                if not PRESETS[pid].branch_mismatch(s, q):
                    expected[pid, s, q] = len(cfg.families)
    assert calls == expected
    assert sum(report.summary[pid]["count"] for pid in cfg.presets) > 3 * sum(calls.values())


def test_sweep_mean_rows_match_the_scalar_path():
    # Power-rule drops, the parentless T43_qgt1 and the unchecked rows past
    # the parent branch at s' = s > 1 all occur on this grid; the sweep must
    # emit exactly the rows eval_mean_bound admits, with the same numbers,
    # certificates and notes.
    s_values, q_values, lams = [0.5, 1.0, 1.5, 2.0], [1.0, 2.0], [0.0, 0.3, 1.0]
    cfg = SuiteConfig.from_dict(
        {
            "mean_theorems": list(MEAN_THEOREMS),
            "mean_grid": {"a": [0.5], "b": [2.0], "s": s_values, "q": q_values, "lambda": lams},
        }
    )
    swept = {(r["case"], tuple(r["params"].values())): r for r in run_suite(cfg).records}
    expected = {}
    rejected = set()
    for theorem in MEAN_THEOREMS:
        for s in s_values:
            for q in q_values:
                for lam in lams:
                    try:
                        res = eval_mean_bound(theorem, MeanParams(0.5, 2.0, s, q, lam))
                    except WrongBranchError:
                        rejected.add(theorem)
                        continue
                    expected[(theorem, (0.5, 2.0, s, q, lam))] = res
    assert {k[0] for k in expected} == rejected == set(MEAN_THEOREMS)
    assert {res.certificate for res in expected.values()} == {"certified-analytic", "unchecked"}
    assert swept.keys() == expected.keys()
    for key, res in expected.items():
        rec = swept[key]
        assert (rec["lhs"], rec["bound"], rec["slack"], rec["certified"], rec["branch_notes"]) == (
            res.lhs, res.bound, res.slack, res.certificate, res.branch_notes
        ), key


def test_each_mean_theorem_is_one_display_call_and_one_add(monkeypatch):
    # A theorem's rows are one block over every tuple it admits, with s and
    # q as columns (the seeded draws give each tuple its own s), never row
    # by row.
    displays, adds = collections.Counter(), collections.Counter()
    for theorem, spec in MEAN_SPECS.items():
        def counted(*args, theorem=theorem, display=spec.display):
            displays[theorem] += 1
            return display(*args)

        monkeypatch.setitem(MEAN_SPECS, theorem, dataclasses.replace(spec, display=counted))
    add = Report.add

    def counted_add(self, family, case, *args):
        adds[case] += 1
        return add(self, family, case, *args)

    monkeypatch.setattr(Report, "add", counted_add)
    report = run_suite(all_means_config())
    assert displays == adds == collections.Counter(dict.fromkeys(MEAN_THEOREMS, 1))
    assert report.record_count > 20 * len(MEAN_THEOREMS)


def test_mean_tuples_are_one_prologue_call_not_one_per_tuple(monkeypatch):
    # x^s and its lhs are built once over the columns of every tuple, and the
    # branch masks format no refusal message.
    calls = collections.Counter()
    for module in (harness, means):
        for name in ("make_power", "hh_lhs"):
            if hasattr(module, name):
                def counted(*args, name=name, original=getattr(module, name)):
                    calls[name] += 1
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    mismatch = means.MeanSpec.branch_mismatch

    def counted_mismatch(self, s, q):
        calls["branch_mismatch"] += 1
        return mismatch(self, s, q)

    monkeypatch.setattr(means.MeanSpec, "branch_mismatch", counted_mismatch)
    report = run_suite(all_means_config())
    assert calls == collections.Counter({"make_power": 1, "hh_lhs": 1})
    assert report.record_count > 20 * len(MEAN_THEOREMS)


def test_a_mean_tuple_that_overflows_is_refused_alone():
    # x^2 overflows at 1e200 (the float call names it), |f'|^4 of x^0.1 at
    # 1e-100; every other tuple keeps the rows it gets on its own.
    ordinary = [(0.5, 2.0, s, q, lam) for s in (0.1, 0.5, 1.5, 2.0) for q in (1.0, 2.0, 4.0) for lam in (0.0, 0.7)]
    bad = [(1e200, 1e300, 2.0, 1.0, 0.5), (1e-100, 1.0, 0.1, 4.0, 0.5)]
    tuples = ordinary[:7] + bad[:1] + ordinary[7:20] + bad[1:] + ordinary[20:]
    report = Report()
    errors = harness.add_mean_rows(report, MEAN_THEOREMS, tuples)
    expected_errors = []
    for row in bad:
        with pytest.raises(FunctionDomainError) as info:
            mean_values(*row)
        expected_errors.append(str(info.value))
    assert [str(e) for e in errors] == expected_errors
    assert "pow:2 overflows on [1e+200, 1e+300]" in expected_errors
    one_by_one = Report()
    for row in ordinary:
        assert not harness.add_mean_rows(one_by_one, MEAN_THEOREMS, [row])
    def key(record):
        return record["case"], tuple(record["params"].values())

    assert sorted(report.records, key=key) == sorted(one_by_one.records, key=key)
    assert report.record_count > len(ordinary)
