import collections
import csv
import hashlib
import io
import json
import math
import random
import re

import pytest

import hhverify.harness as harness
from hhverify.bounds import BoundCase, BoundResult, eval_case
from hhverify.errors import ConfigError, PresetMismatchError, WrongBranchError
from hhverify.functions import from_id
from hhverify.harness import CASE_KEYS, MEAN_KEYS, Report, SuiteConfig, erratum_scan, run_suite
from hhverify.identity import BoundParams
from hhverify.means import MEAN_THEOREMS
from hhverify.presets import PRESETS, eval_preset


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


# sha256 of the reports as the record-dict writer (json.dump(indent=2) and a
# csv.writer loop) wrote them, on x86-64 Linux with CPython 3.11 and
# numpy 2.4.  The digests depend on the platform's libm only through the
# computed values; a mismatch elsewhere first needs the values compared.
PINNED_DIGESTS = {
    ("paired", "json"): "a8d82db95f6bb1212c4dc87473aa17f8d1d91dae7768413f9cc07a0c8e378eea",
    ("paired", "csv"): "3210aa87aae2bf117a518a8024801ff30879f59b295b894fffd0dc0acd06ced3",
    ("mix", "json"): "a5577a3fe670308f282484bbf5d246aefb1fb8b3bb0de506d333c64505bb31dd",
    ("mix", "csv"): "f3a8e8006f8e41e39867714c2688a0672ff043bb7086ebca12859db7f26142b0",
}


@pytest.mark.parametrize("name,fmt", sorted(PINNED_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, name, fmt):
    cfg = paired_x2_config() if name == "paired" else seeded_mix_config()
    path = tmp_path / f"report.{fmt}"
    run_suite(cfg).write(str(path), fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name, fmt]


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


def test_add_result_reads_params_by_name():
    # A result's params dict in any key order gives the same record: the
    # layout follows from the case, not from the dict.
    def record(case, params, order):
        result = BoundResult(0.25, 1.5, 1.25, case, {k: params[k] for k in order}, "unchecked", "note")
        report = Report()
        report.add_result("pow:2", result)
        return dumped(report.finalize(), "json"), dumped(report, "csv")

    case_params = dict(zip(CASE_KEYS, (1.0, 2.0, 0.25, 0.75, 0.5, 2.0)))
    mean_params = dict(zip(MEAN_KEYS, (1.0, 2.0, 0.5, 2.0, 0.25)))
    for case, params in (("T31_general", case_params), ("T41", mean_params)):
        shuffled = list(params)
        random.Random(5).shuffle(shuffled)
        orders = [list(params), list(reversed(params)), shuffled]
        assert len({record(case, params, order) for order in orders}) == 1, case
    shown = json.loads(record("T41", mean_params, sorted(mean_params))[0])["records"][0]["params"]
    assert list(shown.items()) == list(mean_params.items())


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
