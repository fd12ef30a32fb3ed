import csv
import dataclasses
import io
import json
import math
import re
import shlex
import shutil
from pathlib import Path

import pytest

from hhverify.bounds import eval_case
from hhverify.cli import main
from hhverify.errors import HHVerifyError
from hhverify.functions import make_exp, make_power
from hhverify.harness import SuiteConfig, run_suite
from hhverify.identity import BoundParams
from hhverify.means import MEAN_SPECS, MEAN_THEOREMS, MeanParams, eval_mean_bound
from hhverify.presets import PRESETS, eval_preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_command(capsys):
    code, out, _ = run_cli(capsys, "moment", "--xi", "1", "--omega", "1", "--eta", "0", "--s", "1")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["value"] - 1.0 / 6.0) < 1e-12
    assert doc["residual"] <= 1e-9


def test_moment_command_refuses_a_nonconverged_oracle(capsys):
    code, out, err = run_cli(capsys, "moment", "--xi", "0.3", "--omega", "1", "--eta", "0", "--s", "-0.9999")
    assert code == 2 and out == ""
    assert err.startswith("error: moment oracle did not converge to tol=1e-12 (error estimate ")


def test_harmonic_command(capsys):
    code, out, _ = run_cli(capsys, "harmonic", "--xi", "1", "--omega", "1", "--eta", "1")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["value"] - 0.3862943611198906) < 1e-12


def test_identity_command(capsys):
    code, out, _ = run_cli(
        capsys, "identity", "--f", "pow:3", "--a", "1", "--b", "2", "--lambda", "0.3", "--mu", "0.7"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["residual"] <= 1e-10


def test_bound_command_spot(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--case", "T31_general", "--f", "pow:2",
        "--a", "0", "--b", "1", "--lambda", "1", "--mu", "1", "--s", "1", "--q", "1",
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["lhs"] - 1.0 / 6.0) < 1e-10
    assert abs(doc["bound"] - 0.25) < 1e-12
    assert abs(doc["slack"] - 1.0 / 12.0) < 1e-10


def test_bound_command_reports_violation_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--case", "T34_q1_tier1", "--f", "pow:2",
        "--a", "1", "--b", "4", "--lambda", "0", "--mu", "1", "--s", "1", "--q", "1",
    )
    assert code == 1
    assert json.loads(out)["slack"] < 0


def test_means_command(capsys):
    code, out, _ = run_cli(
        capsys, "means", "--theorem", "T43_q1", "--a", "1", "--b", "2", "--s", "2", "--q", "1", "--lambda", "1"
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["lhs"] - 1.0 / 6.0) < 1e-10
    assert abs(doc["bound"] - 0.5) < 1e-12


def test_certify_command(capsys):
    # γ = -0.5 on a positive interval: the convexity rule gives order 1,
    # above the power rule's p - 1 = -0.5.
    code, out, _ = run_cli(capsys, "certify", "--f", "pow:0.5", "--q", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "certified-analytic" and doc["s"] == 1.0


def test_certify_agrees_with_the_sweep(capsys):
    # Outside the power rule ((p-1)q = 2) the envelope 4x^2 is convex; the
    # sweep's `bound` row for the same envelope at s = 1 is certified too.
    code, out, _ = run_cli(capsys, "certify", "--f", "pow:2", "--q", "2")
    doc = json.loads(out)
    assert code == 0
    assert (doc["status"], doc["s"], doc["note"]) == ("certified-analytic", 1.0, "convexity rule")
    code, out, _ = run_cli(
        capsys, "bound", "--case", "T31_general", "--f", "pow:2", "--a", "1", "--b", "2",
        "--lambda", "0.5", "--mu", "0.5", "--s", "1", "--q", "2",
    )
    assert code == 0 and json.loads(out)["certified"] == "certified-analytic"


def test_t43_qgt1_outside_the_power_rule_is_certified(capsys):
    # (s-1)q = -1: the power rule does not hold, the convexity rule does.
    code, out, _ = run_cli(
        capsys, "means", "--theorem", "T43_qgt1", "--a", "1", "--b", "2",
        "--s", "0.5", "--q", "2", "--lambda", "0.5",
    )
    assert code == 0 and json.loads(out)["certified"] == "certified-analytic"


def test_certify_rejects_non_power(capsys):
    code, _, err = run_cli(capsys, "certify", "--f", "exp", "--q", "1")
    assert code == 2 and "pow:<p>" in err


@pytest.mark.parametrize("fid", ["pow:abc", "pow:nan", "pow:inf"])
def test_certify_rejects_bad_power_id(capsys, fid):
    code, out, err = run_cli(capsys, "certify", "--f", fid, "--q", "1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_preset_command_csv(capsys):
    code, out, _ = run_cli(
        capsys, "preset", "--preset", "C35_half", "--f", "pow:2",
        "--a", "0", "--b", "1", "--q", "1", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "family" and len(rows) == 2
    header = rows[0]
    bound = float(rows[1][header.index("bound")])
    assert abs(bound - 0.125) < 1e-12


def test_bound_csv_quotes_its_notes(capsys):
    # The T33_q1 note has a comma in it; the row must still parse.
    code, out, _ = run_cli(
        capsys, "bound", "--case", "T33_q1", "--f", "pow:2", "--a", "0", "--b", "1",
        "--lambda", "0.5", "--mu", "0.5", "--s", "1", "--q", "1", "--format", "csv",
    )
    assert code == 0
    header, row = rows = list(csv.reader(io.StringIO(out)))
    assert [len(r) for r in rows] == [14, 14]
    assert row[header.index("branch_notes")] == "q=1 product display, corrected prefactor 2^(s+1)"


# Every certificate kind (power rule, convexity rule, sampled: pow:1.5 at
# s = 1, q = 1), presets, a violating row (x^2 on [1, 4], λ=0, μ=1) and all
# six mean theorems.
PARITY_CONFIG = {
    "families": ["pow:2", "pow:1.5", "exp"],
    "grid": {"a": [1.0], "b": [4.0], "lambda": [0.0, 1.0], "mu": [0.0, 1.0], "s": [0.5, 1.0], "q": [1.0, 2.0]},
    "cases": "all",
    "presets": ["E15", "C32_q1", "C33_s1", "C34x_q1_lambda_mu_tier1", "C34x_qgt1_s1_tier2"],
    "mean_theorems": list(MEAN_THEOREMS),
    "mean_grid": {"a": [1.0], "b": [2.0], "s": [0.5, 1.0, 1.5, 2.0], "q": [1.0, 2.0], "lambda": [0.0, 0.5]},
}


def _single_row_argv(rec):
    p = {k: repr(v) for k, v in rec["params"].items()}
    if rec["case"] in MEAN_THEOREMS:
        head = ["means", "--theorem", rec["case"]]
        keys = ("a", "b", "s", "q", "lambda")
    else:
        head = ["preset", "--preset", rec["preset"]] if rec["preset"] else ["bound", "--case", rec["case"]]
        head += ["--f", rec["family"]]
        keys = ("a", "b", "lambda", "mu", "s", "q")
    return [*head, *(arg for k in keys for arg in (f"--{k}", p[k]))]


def test_single_row_commands_print_the_sweep_record(capsys):
    records = run_suite(SuiteConfig.from_dict(PARITY_CONFIG)).records
    sampled = {r["certified"] for r in records
               if r["family"] == "pow:1.5" and r["params"]["s"] == 1.0 and r["params"]["q"] == 1.0}
    assert sampled and sampled <= {"falsified", "not-falsified"}
    assert {r["case"] for r in records} >= set(MEAN_THEOREMS)
    assert any(r["preset"] for r in records) and any(r["violation"] for r in records)
    for rec in records:
        code, out, _ = run_cli(capsys, *_single_row_argv(rec))
        assert json.loads(out) == rec
        assert code == int(rec["violation"])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--case", "NOPE"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["bound --case T31_general", "preset --preset E15"])
def test_single_row_commands_take_no_tol(capsys, command):
    # Their lhs is exact, so a quadrature tolerance would set nothing.
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--f", "pow:2", "--a", "0", "--b", "1", "--lambda", "1", "--mu", "1",
              "--s", "1", "--q", "1", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err


def test_parameter_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--case", "T33_qgt1", "--f", "pow:2",
        "--a", "0", "--b", "1", "--lambda", "1", "--mu", "1", "--s", "1", "--q", "1",
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--case", "T33_qgt1", "--f", "pow:2", "--a", "0", "--b", "1",
         "--lambda", "0.5", "--mu", "0.5", "--s", "1", "--q", "inf"),
        ("means", "--theorem", "T43_qgt1", "--a", "1", "--b", "2", "--s", "1", "--q", "inf", "--lambda", "0.5"),
        ("means", "--theorem", "T43_qgt1", "--a", "1", "--b", "inf", "--s", "0.5", "--q", "2", "--lambda", "0.5"),
        ("certify", "--f", "pow:2", "--q", "nan"),
        ("certify", "--f", "pow:2", "--q", "inf"),
    ],
    ids=["bound-q-inf", "means-q-inf", "means-b-inf", "certify-q-nan", "certify-q-inf"],
)
def test_non_finite_parameters_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_preset_names_a_nan_endpoint(capsys):
    code, out, err = run_cli(
        capsys, "preset", "--preset", "E15", "--f", "pow:2", "--a", "0", "--b", "nan", "--q", "1"
    )
    assert code == 2 and out == "" and "nan" in err


def test_sweep_command_roundtrip(tmp_path, capsys):
    cfg = {
        "families": ["pow:2"],
        "grid": {"a": [0.0], "b": [1.0], "lambda": [0.0, 0.5, 1.0], "s": [1.0], "q": [1.0]},
        "cases": ["T31_general", "T33_q1"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["records"]) == 6
    assert doc["violations"] == []
    # exit code 1 when the report contains a violation
    cfg["cases"] = ["T34_q1_tier1"]
    cfg["grid"]["mu"] = [1.0]
    cfg["grid"]["lambda"] = [0.0]
    cfg["grid"]["a"] = [1.0]
    cfg["grid"]["b"] = [4.0]
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
    assert code == 1
    assert json.loads(out_path.read_text())["violations"]


def test_sweep_rejects_an_out_of_domain_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mean_theorems": ["T41"], "mean_grid": {"a": [-1.0], "b": [2.0]}}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2 and out == "" and "config.mean_grid.a[0]" in err


def test_sweep_rejects_a_boolean_for_a_number(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"families": ["pow:2"], "cases": "all", "draws": true}')
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2 and out == "" and "config.draws" in err


def test_sweep_rejects_a_repeated_name(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"families": ["exp", "exp"], "cases": ["T31_general"]}')
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2 and out == "" and "config.families[1]" in err


def test_sweep_rejects_a_second_spelling_of_a_family(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"families": ["pow:2", "pow:2.0"], "cases": ["T31_general"]}')
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2 and out == "" and 'config.families[1]: repeated "pow:2.0"' in err


def test_sweep_with_a_missing_config_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
    assert code == 2 and out == "" and err.startswith("error: config: cannot read")


@pytest.mark.parametrize("argv", [("sweep", "--config", "{config}"), ("errata",)], ids=["sweep", "errata"])
def test_an_unwritable_out_exits_2(tmp_path, capsys, argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"families": ["pow:2"], "grid": {"a": [0.0], "b": [1.0]}, "cases": ["T31_general"]}')
    out_path = tmp_path / "missing" / "report.json"
    argv = [arg.replace("{config}", str(cfg_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("error: cannot write")
    assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bound_labels_its_row_with_the_canonical_id(capsys, fmt):
    argv = ("--a", "1", "--b", "2", "--lambda", "0.5", "--mu", "0.5", "--s", "1", "--q", "1", "--format", fmt)
    code, out, _ = run_cli(capsys, "bound", "--case", "T31_general", "--f", "pow:2", *argv)
    code_long, out_long, _ = run_cli(capsys, "bound", "--case", "T31_general", "--f", "pow:2.0", *argv)
    assert code == code_long == 0
    assert out_long == out
    family = json.loads(out)["family"] if fmt == "json" else out.splitlines()[1].split(",")[0]
    assert family == "pow:2"


def _readme_cli_lines() -> list[list[str]]:
    """The `hh-verify` lines of the README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # Each documented command exits 0, except the sweep of the example
    # config, whose documented T34_q1_* violations give it 1.
    shutil.copy(Path(__file__).resolve().parents[1] / "sweep.example.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 9 and all(argv[0] == "hh-verify" for argv in lines)
    for argv in lines:
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == (1 if argv[1] == "sweep" else 0), (argv, err)


def test_means_on_an_interval_whose_power_overflows(capsys):
    # b^(s+1) overflows on [1, 1e300]; the lhs and the bound do not.
    code, out, err = run_cli(
        capsys, "means", "--theorem", "T41", "--a", "1", "--b", "1e300", "--s", "0.5", "--q", "1", "--lambda", "0.5"
    )
    assert code == 0, err
    assert json.loads(out)["bound"] == 1.44620882993407e+299


@pytest.mark.parametrize(
    "argv",
    [
        "bound --case T33_qgt1 --f pow:2 --a 1 --b 4 --lambda 0.3 --mu 0.6 --s 1 --q 1.0001",
        "means --theorem T43_qgt1 --a 1 --b 4 --s 0.5 --q 1.0001 --lambda 0.3",
        "means --theorem T44_qgt1 --a 1 --b 4 --s 0.5 --q 1.0001 --lambda 0.3",
        "preset --preset C33x_lambda_mu_qgt1 --f pow:2 --a 1 --b 4 --lambda 0.3 --s 1 --q 1.0001",
    ],
    ids=["T33_qgt1", "T43_qgt1", "T44_qgt1", "C33x_lambda_mu_qgt1"],
)
def test_holder_rows_hold_just_above_q_1(capsys, argv):
    # The conjugate-exponent integral underflows to 0 here; its norm tends
    # to max(ξ, 1 - ξ) and must not turn a certified row into a violation.
    code, out, err = run_cli(capsys, *argv.split())
    doc = json.loads(out)
    assert code == 0 and doc["certified"] == "certified-analytic" and not doc["violation"], err
    if argv.startswith("bound"):
        assert math.isclose(doc["bound"], 4.757973411239618, rel_tol=1e-12)


def test_bound_on_a_mixed_sign_interval_whose_power_overflows(capsys):
    # b^2 overflows on [-1e200, 1e200]; the mean of x is 0, and so is the lhs.
    code, out, err = run_cli(
        capsys, "bound", "--case", "T31_general", "--f", "pow:1", "--a=-1e200", "--b", "1e200",
        "--lambda", "0.5", "--mu", "0.5", "--s", "1", "--q", "1",
    )
    assert code == 0, err
    assert json.loads(out)["lhs"] == 0.0


def test_means_rejects_a_degenerate_interval(capsys):
    # No sweep has a mean row with a = b, so neither does the single-row command.
    code, out, err = run_cli(
        capsys, "means", "--theorem", "T41", "--a", "1", "--b", "1", "--s", "2", "--q", "1", "--lambda", "1"
    )
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        "bound --case T31_general --f exp --a 1 --b 709.9 --lambda 0.5 --mu 0.5 --s 1 --q 2",
        "preset --preset C32_q1 --f exp --a 1 --b 709.9",
        "bound --case T31_general --f exp --a 1 --b 709 --lambda 0.5 --mu 0.5 --s 1 --q 2",
        "means --theorem T41 --a 1 --b 1e200 --s 2 --q 1 --lambda 0.5",
    ],
    ids=["bound-f", "preset-f", "bound-derivative", "means-f"],
)
def test_an_overflow_exits_2(capsys, argv):
    # An overflowing f value, mean or |f'|^q is a parameter error, not a
    # traceback with the exit code of a violation.
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "overflows on [1.0, " in err


_X2 = make_power(2, 0, 2)  # x² on [0, 2], which holds every interval below
# Each row kind (case, preset, mean) on each input every row path refuses:
# (kind, input, CLI argv, scalar reference call, message).  The sweep and the
# single-row commands share the builders, so the CLI stands for both.
REFUSALS = [
    ("case", "a=b", "bound --case T31_general --f pow:2 --a 1 --b 1 --lambda 0.5 --mu 0.5 --s 1 --q 1",
     lambda: eval_case("T31_general", _X2, BoundParams(1, 1, 0.5, 0.5, 1, 1)), "need finite a < b"),
    ("case", "off-branch", "bound --case T33_qgt1 --f pow:2 --a 0 --b 1 --lambda 0.5 --mu 0.5 --s 1 --q 1",
     lambda: eval_case("T33_qgt1", _X2, BoundParams(0, 1, 0.5, 0.5, 1, 1)), "needs q >= 1"),
    ("case", "overflowing-f", "bound --case T31_general --f exp --a 1 --b 711 --lambda 0.5 --mu 0.5 --s 1 --q 1",
     lambda: eval_case("T31_general", make_exp(1, 711), BoundParams(1, 711, 0.5, 0.5, 1, 1)), "exp overflows"),
    ("case", "overflowing-bound",
     "bound --case T31_general --f exp --a 1 --b 709.7 --lambda 0.5 --mu 0.5 --s 1 --q 1",
     lambda: eval_case("T31_general", make_exp(1.0, 709.7), BoundParams(1.0, 709.7, 0.5, 0.5, 1, 1)),
     r"T31_general bound for exp is not finite on \[1\.0, 709\.7\]"),
    ("preset", "a=b", "preset --preset C32_q1 --f pow:2 --a 1 --b 1",
     lambda: eval_preset("C32_q1", _X2, BoundParams(1, 1, 0.5, 0.5, 1, 1)), "need finite a < b"),
    ("preset", "off-branch", "preset --preset C32_q1 --f pow:2 --a 0 --b 1 --q 2",
     lambda: eval_preset("C32_q1", _X2, BoundParams(0, 1, 0.5, 0.5, 1, 2)), "pins q = 1"),
    ("preset", "overflowing-f", "preset --preset C32_q1 --f exp --a 1 --b 711",
     lambda: eval_preset("C32_q1", make_exp(1, 711), BoundParams(1, 711, 0.5, 0.5, 1, 1)), "exp overflows"),
    ("preset", "overflowing-bound", "preset --preset C32_q1 --f exp --a 1 --b 709.7",
     lambda: eval_preset("C32_q1", make_exp(1.0, 709.7), BoundParams(1.0, 709.7, 0.5, 0.5, 1, 1)),
     r"C32_q1 bound for exp is not finite on \[1\.0, 709\.7\]"),
    ("mean", "a=b", "means --theorem T41 --a 1 --b 1 --s 2 --q 1 --lambda 1",
     lambda: eval_mean_bound("T41", MeanParams(1, 1, 2, 1, 1)), "need finite 0 < a < b"),
    ("mean", "off-branch", "means --theorem T43_qgt1 --a 1 --b 2 --s 1 --q 1 --lambda 0.5",
     lambda: eval_mean_bound("T43_qgt1", MeanParams(1, 2, 1, 1, 0.5)), "needs q > 1"),
    ("mean", "overflowing-f", "means --theorem T41 --a 1 --b 1e200 --s 2 --q 1 --lambda 0.5",
     lambda: eval_mean_bound("T41", MeanParams(1, 1e200, 2, 1, 0.5)), "pow:2 overflows"),
    ("mean", "overflowing-bound", "means --theorem T41 --a 1 --b 2 --s 2 --q 1 --lambda 0.5",
     lambda: eval_mean_bound("T41", MeanParams(1.0, 2.0, 2, 1, 0.5)),
     r"T41 bound for pow:2 is not finite on \[1\.0, 2\.0\]"),
]


@pytest.mark.parametrize("kind,given,argv,scalar,message", REFUSALS, ids=[f"{k}-{g}" for k, g, *_ in REFUSALS])
def test_every_row_path_refuses(capsys, monkeypatch, kind, given, argv, scalar, message):
    if (kind, given) == ("mean", "overflowing-bound"):
        # No mean tuple with a finite lhs has a bound that is not finite
        # (the exact mean of x^s overflows first), so a display that
        # returns inf, a float or a column of them as a is, stands in for one.
        overflowing = dataclasses.replace(MEAN_SPECS["T41"], display=lambda a, *_: a * math.inf)
        monkeypatch.setitem(MEAN_SPECS, "T41", overflowing)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith("error: ")
    assert re.search(message, err), err
    with pytest.raises(HHVerifyError, match=message):
        scalar()


def test_sweep_csv_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "families": ["exp"],
                "grid": {"a": [0.0], "b": [1.0], "lambda": [0.5], "s": [1.0], "q": [2.0]},
                "cases": ["T31_general"],
                "format": "csv",
            }
        )
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["family", "case", "preset"]
    assert len(rows) == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_stdout_is_the_out_file(tmp_path, capsys, fmt):
    # Case, preset and mean rows, one of them violating (x^2 on [1, 4]).
    cfg = {
        "families": ["pow:2"],
        "grid": {"a": [0.0, 1.0], "b": [4.0], "lambda": [0.0, 1.0], "mu": [0.0, 1.0], "q": [1.0, 2.0]},
        "cases": "all",
        "presets": ["E15", "C32_q1"],
        "mean_theorems": ["T41"],
        "mean_grid": {"a": [1.0], "b": [2.0], "s": [0.5], "q": [1.0], "lambda": [0.5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / f"report.{fmt}"
    code_out, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--format", fmt, "--out", str(out_path))
    code_stdout, printed, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--format", fmt)
    with open(out_path, encoding="utf-8", newline="") as handle:
        assert printed == handle.read()
    report = run_suite(SuiteConfig.from_dict(cfg))
    assert out == f"wrote {out_path} ({len(report.records)} records, {len(report.violations)} violations)\n"
    assert report.violations and report.records
    assert code_out == code_stdout == 1


def test_errata_command(capsys):
    code, out, _ = run_cli(capsys, "errata")
    doc = json.loads(out)
    assert code == 0
    confirmed = [e for e in doc["errata"] if e["classification"] == "erratum-confirmed"]
    assert any(e["item"] == "moment_case(-1,2) verbatim" for e in confirmed)


def test_errata_has_no_csv_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["errata", "--format", "csv"])
    assert exc.value.code == 2


def test_errata_fails_on_a_drifted_shipped_display(capsys, monkeypatch):
    shipped = PRESETS["E15"]

    def drifted(*args):
        return 2.0 * shipped.display(*args)

    monkeypatch.setitem(PRESETS, "E15", dataclasses.replace(shipped, display=drifted))
    code, out, _ = run_cli(capsys, "errata")
    assert code == 1
    by_item = {e["item"]: e for e in json.loads(out)["errata"]}
    assert by_item["preset E15"]["classification"] == "erratum-confirmed"
