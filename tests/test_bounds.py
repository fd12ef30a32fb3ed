import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhverify.bounds import (
    CASES,
    BoundCase,
    VIOLATION_TOL,
    branch_mismatch,
    case_bound_from_values,
    case_formula,
    derivative_values,
    eval_case,
    midpoint_envelope,
)
from hhverify.cli import main
from hhverify.errors import FunctionDomainError, MomentParameterError, WrongBranchError
from hhverify.functions import from_id, make_const, make_power
from hhverify.identity import BoundParams
from hhverify.quadrature import mean_integral

X2 = make_power(2, 0, 1)
UNIT = BoundParams(0, 1, 1, 1, 1, 1)


def test_t31_spot():
    r = eval_case(BoundCase.T31_general, X2, UNIT)
    assert math.isclose(r.lhs, 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(r.bound, 0.25, rel_tol=1e-13)
    assert r.slack > 0


def test_t33_q1_spot():
    r = eval_case(BoundCase.T33_q1, X2, UNIT)
    assert math.isclose(r.lhs, 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(r.bound, 0.5, rel_tol=1e-13)


def test_t34_q1_tier1_spot():
    r = eval_case(BoundCase.T34_q1_tier1, X2, UNIT)
    assert math.isclose(r.lhs, 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(r.bound, 0.25, rel_tol=1e-13)


def test_t33_q1_specializes_to_the_printed_lambda_mu_display():
    # at mu = lambda, s = 1 the case must equal (b-a)/4 (1-2λ+2λ²)(A+B)
    for lam in (0.0, 0.3, 0.5, 0.8, 1.0):
        bound, _ = case_bound_from_values(BoundCase.T33_q1, 0, 1, lam, lam, 1.0, 1.0, 0.7, 2.3, 0.0)
        expected = 0.25 * (1.0 - 2.0 * lam + 2.0 * lam * lam) * 3.0
        assert math.isclose(bound, expected, rel_tol=1e-13)


def test_const_function_all_cases_zero():
    f = make_const(4, 0, 1)
    for case in BoundCase:
        q = 2.0 if "qgt1" in case.value else 1.0
        s = -1.0 if case is BoundCase.T31_s_minus1 else 1.0
        r = eval_case(case, f, BoundParams(0, 1, 0.4, 0.9, s, q))
        assert r.lhs == pytest.approx(0.0, abs=1e-13)
        assert r.bound == pytest.approx(0.0, abs=1e-13)
        assert not r.violated


def test_degenerate_interval():
    # Every row has a < b, as the builders and the CLI already require.
    with pytest.raises(WrongBranchError, match="a < b"):
        eval_case(BoundCase.T31_general, make_power(2, 0, 2), BoundParams(1, 1, 0.5, 0.5, 1, 1))


def test_wrong_branch_errors():
    with pytest.raises(WrongBranchError):
        eval_case(BoundCase.T33_qgt1, X2, UNIT)  # q = 1
    with pytest.raises(WrongBranchError):
        eval_case(BoundCase.T33_q1, X2, BoundParams(0, 1, 1, 1, 1, 2))
    with pytest.raises(WrongBranchError):
        eval_case(BoundCase.T31_s_minus1, X2, UNIT)  # s != -1
    with pytest.raises(WrongBranchError):
        case_bound_from_values(BoundCase.T31_general, 0, 1, 0.5, 0.5, -1.0, 1.0, 1.0, 1.0, 1.0)


def test_s_minus1_ignores_lambda_mu():
    f = make_power(2, 0, 1)
    r1 = eval_case(BoundCase.T31_s_minus1, f, BoundParams(0, 1, 0.1, 0.9, -1.0, 1))
    r2 = eval_case(BoundCase.T31_s_minus1, f, BoundParams(0, 1, 1.0, 0.0, -1.0, 1))
    assert r1.lhs == r2.lhs and r1.bound == r2.bound
    # the lhs is the midpoint deviation |f(m) - mean|
    mean = mean_integral(f, 0.0, 1.0)
    assert math.isclose(r1.lhs, abs(f.eval(0.5) - mean), rel_tol=1e-12)


def test_tier_ordering():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lam, mu = rng.uniform(size=2)
        s = rng.uniform(-0.9, 1.0)
        q = float(rng.choice([1.0, 1.5, 3.0]))
        qa, qb = rng.uniform(0.0, 4.0, size=2)
        qm = rng.uniform(0.0, 1.0) * midpoint_envelope(s, qa, qb)
        if q == 1.0:
            pairs = [(BoundCase.T34_q1_tier1, BoundCase.T34_q1_tier2)]
        else:
            pairs = [(BoundCase.T34_qgt1_tier1, BoundCase.T34_qgt1_tier2)]
        pairs.append((BoundCase.T32_tier1, BoundCase.T32_tier2))
        for low, high in pairs:
            b1, _ = case_bound_from_values(low, 0, 1, lam, mu, s, q, qa, qb, qm)
            b2, _ = case_bound_from_values(high, 0, 1, lam, mu, s, q, qa, qb, qm)
            assert b1 <= b2 * (1.0 + 1e-12) + 1e-12


def test_q_continuity_at_boundary_weights():
    # The q = 1 product display matches the Hölder q -> 1 limit only where
    # the kernel mass is 1/2 (lambda, mu in {0, 1}).
    for lam, mu in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]:
        for s in (-0.5, 0.3, 1.0):
            qa, qb = 0.7, 2.3
            b_q1, _ = case_bound_from_values(BoundCase.T33_q1, 0, 1, lam, mu, s, 1.0, qa, qb, 0.0)
            b_lim, _ = case_bound_from_values(
                BoundCase.T33_qgt1, 0, 1, lam, mu, s, 1.0 + 1e-6, qa, qb, 0.0
            )
            assert abs(b_lim - b_q1) <= 1e-4 * abs(b_q1)
    # At any weights, each Hölder case tends to its sup-kernel display: the
    # same bracket with K = max(ξ, 1 - ξ) and p = 1.
    qa, qb, qm = 0.7, 2.3, 1.1
    for case in (BoundCase.T33_qgt1, BoundCase.T34_qgt1_tier1, BoundCase.T34_qgt1_tier2):
        row = CASES[case]
        for lam, mu in [(0.3, 0.6), (0.5, 0.5), (0.0, 1.0)]:
            for s in (-0.5, 0.3, 1.0):
                left, right = row.envelope(lam, mu, s, qa, qb, qm)
                divisor, factor = row.scale(s, 1.0)
                sup = factor / divisor * (max(lam, 1.0 - lam) * left + max(mu, 1.0 - mu) * right)
                bound, _ = case_bound_from_values(case, 0, 1, lam, mu, s, 1.0 + 1e-9, qa, qb, qm)
                assert abs(bound - sup) <= 1e-6 * sup, (case, lam, mu, s, bound, sup)


def test_symmetry_under_reflection():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam, mu = rng.uniform(size=2)
        s = rng.uniform(-0.9, 1.0)
        q = float(rng.choice([1.0, 2.0]))
        qa, qb, qm = rng.uniform(0.1, 3.0, size=3)
        for case in BoundCase:
            if case is BoundCase.T31_s_minus1:
                continue
            if ("q1" in case.value) != (q == 1.0):
                continue
            b1, _ = case_bound_from_values(case, 0, 1, lam, mu, s, q, qa, qb, qm)
            b2, _ = case_bound_from_values(case, 0, 1, mu, lam, s, q, qb, qa, qm)
            assert math.isclose(b1, b2, rel_tol=1e-12, abs_tol=1e-13)


def test_bounds_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(200):
        lam, mu = rng.uniform(size=2)
        s = rng.uniform(-0.9, 1.0)
        q = float(rng.choice([1.0, 1.5, 4.0]))
        qa, qb, qm = rng.uniform(0.0, 5.0, size=3)
        for case in BoundCase:
            if case is BoundCase.T31_s_minus1:
                continue
            if "qgt1" in case.value and q == 1.0:
                continue
            if ("_q1" in case.value) and q != 1.0:
                continue
            bound, _ = case_bound_from_values(case, 0, 2, lam, mu, s, q, qa, qb, qm)
            assert bound >= 0.0


SOUND_CASES = [
    BoundCase.T31_general,
    BoundCase.T31_s_minus1,
    BoundCase.T32_tier1,
    BoundCase.T32_tier2,
    BoundCase.T33_q1,
    BoundCase.T33_qgt1,
    BoundCase.T34_qgt1_tier1,
    BoundCase.T34_qgt1_tier2,
]


def test_validity_sound_cases_mini_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        q = float(rng.choice([1.0, 2.0, 5.0]))
        gamma = float(rng.uniform(-0.95, 1.0))
        p = 1.0 + gamma / q
        a = float(rng.uniform(0.02, 1.5))
        b = a + float(rng.uniform(0.1, 2.5))
        f = from_id(f"pow:{p}", a, b)
        lam, mu = (float(x) for x in rng.uniform(size=2))
        for case in SOUND_CASES:
            s = -1.0 if case is BoundCase.T31_s_minus1 else p - 1.0
            if "qgt1" in case.value and q == 1.0:
                continue
            if case is BoundCase.T33_q1 and q != 1.0:
                continue
            r = eval_case(case, f, BoundParams(a, b, lam, mu, s, q))
            assert r.slack >= -VIOLATION_TOL * (1.0 + abs(r.bound)), (case, p, q, a, b, lam, mu)


def test_t34_q1_printed_display_admits_certified_violation():
    # Documented defect of the printed q = 1 product display: for x^2 on
    # [1, 4] with lambda = 0, mu = 1 the deviation exceeds the bound.
    f = make_power(2, 1, 4)
    p = BoundParams(1, 4, 0.0, 1.0, 1, 1)
    r = eval_case(BoundCase.T34_q1_tier1, f, p)
    assert math.isclose(r.lhs, 4.125, rel_tol=1e-12)
    assert math.isclose(r.bound, 3.75, rel_tol=1e-13)
    assert r.violated


def test_result_serialization_shape(capsys):
    # One case row as the CLI prints it: a record of the sweep report's schema.
    argv = ["bound", "--case", "T31_general", "--f", "pow:2", "--a", "0", "--b", "1",
            "--lambda", "1", "--mu", "1", "--s", "1", "--q", "1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"case", "preset", "params", "lhs", "bound", "slack", "certified",
                        "branch_notes", "family", "violation"}
    assert list(doc["params"]) == ["a", "b", "lambda", "mu", "s", "q"]
    assert main(argv + ["--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert row[header.index("case")] == "T31_general"
    assert header[header.index("a"):header.index("lhs")] == ["a", "b", "lambda", "mu", "s", "q"]
    assert len(row) == len(header)


def _seeded_rows(n=400, seed=11):
    """Seeded (a, b, lambda, mu, qa, qb, qm) columns; lambda and mu include
    exact 0, 0.5 and 1, which hit every branch of the Hölder weight's power."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 2.0, n)
    b = a + rng.uniform(0.05, 3.0, n)
    lam, mu = rng.uniform(size=(2, n))
    edges = np.array([0.0, 0.5, 1.0])
    lam[:9], mu[:9] = np.repeat(edges, 3), np.tile(edges, 3)
    qa, qb, qm = rng.uniform(0.0, 4.0, size=(3, n))
    qa[9] = qb[9] = qm[9] = 0.0
    return a, b, lam, mu, qa, qb, qm


def _admitted(case):
    # q = 1 + 1e-6 is where the Hölder norm's integral underflows.
    for s in ((-1.0,) if case is BoundCase.T31_s_minus1 else (-0.9, 0.0, 0.5, 1.0)):
        for q in (1.0, 1.0 + 1e-6, 1.5, 2.0, 4.0):
            if not branch_mismatch(case, s, q):
                yield s, q


@pytest.mark.parametrize("case", list(BoundCase))
def test_array_call_is_bit_identical_to_the_float_calls(case):
    a, b, lam, mu, qa, qb, qm = _seeded_rows()
    branches = list(_admitted(case))
    assert branches
    for s, q in branches:
        bound, note = case_bound_from_values(case, a, b, lam, mu, s, q, qa, qb, qm)
        assert isinstance(note, str) and bound.dtype == np.float64
        for i, row in enumerate(zip(a.tolist(), b.tolist(), lam.tolist(), mu.tolist())):
            ref = case_bound_from_values(case, *row, s, q, qa[i].item(), qb[i].item(), qm[i].item())
            assert (bound[i].item(), note) == ref, (case, s, q, i)


@pytest.mark.parametrize("case", list(BoundCase))
def test_s_and_q_columns_are_bit_identical_to_the_float_calls(case):
    # Mean rows pass s and q as columns: s' reaches 2, past the s' <= 1
    # branch that `case_formula` leaves to its caller, and q mixes 1,
    # 1 + 1e-6, 1.5, 2 and 4 as far as the case's q branch allows.
    a, b, lam, mu, qa, qb, qm = _seeded_rows()
    rng = np.random.default_rng(12)
    harmonic = case is BoundCase.T31_s_minus1
    s = np.full(a.size, -1.0) if harmonic else rng.uniform(-0.9, 2.0, a.size)
    q_values = [q for q in (1.0, 1.0 + 1e-6, 1.5, 2.0, 4.0) if not branch_mismatch(case, -1.0 if harmonic else 0.5, q)]
    q = rng.choice(q_values, a.size)
    assert harmonic or (s > 1.0).any()
    bound, note = case_formula(case, a, b, lam, mu, s, q, qa, qb, qm)
    rows = zip(*(column.tolist() for column in (a, b, lam, mu, s, q, qa, qb, qm)))
    floats = [case_formula(case, *row) for row in rows]
    assert bound.tobytes() == np.array([value for value, _ in floats]).tobytes()
    assert {note} == {row_note for _, row_note in floats}


# sha256 of the array bounds and notes of `case_bound_from_values` over
# `_seeded_rows()`, at every (s, q) that `_admitted` yields for the case.
# The three Hölder digests were re-recorded when the Hölder step came to
# take its weight from `moments.holder_norm` (the bounds moved by a few ulp
# on the old grid, and no other digest did); then every digest whose case
# admits q = 1 + 1e-6 was re-recorded when `_admitted` gained that q.
CASE_DIGESTS = {
    "T31_general": "1a42247bebccc3366333613725869758cc94629aa4d8091fd87fa12eb167dcc3",
    "T31_s_minus1": "02aae774e8995835ac8fd9cca2285e3b985005f959c7ba983f7682397d57a9af",
    "T32_tier1": "a5610f6876f36c10403534c5a43d5f42d215a548e2523e029b133113f21bbd52",
    "T32_tier2": "559a9e6f6a7bca6390f198c35415fdfd01fe8cec24461f25712924ef8ed67c65",
    "T33_q1": "c6ca7e849de32a0bb840e2a4eed004bb1eaf66fac81e323735d1fa867cccb0ca",
    "T33_qgt1": "1053c552dd9ec9e1b2eb88dcb6ea36a2ceee5d5b240be1963dbc2af1e74f2b11",
    "T34_q1_tier1": "65507c349af332a39d90afc0b2cda5980ca0bbbf56c09868b5021a4cbbd02960",
    "T34_q1_tier2": "57f97489c41fb98216b4063a2e8d83aa7c5a4f1b4ef356db9dd51e788a68c2e8",
    "T34_qgt1_tier1": "d0719349d5fe86cdfe0ba5a7a28b0e361e1ed4685bb6c970665b7c872f10fb1f",
    "T34_qgt1_tier2": "b92dca9230b6e77948c8c42d4abacc8c9adee45e8cd4f39b8daab8a26fb847e6",
}


@pytest.mark.parametrize("case", list(BoundCase))
def test_case_bits_are_pinned_on_every_branch(case):
    # The pinned reports reach neither s < 0, q = 4 nor edge weights in
    # every case; these digests do.
    columns = _seeded_rows()
    digest = hashlib.sha256()
    for s, q in _admitted(case):
        bound, note = case_bound_from_values(case, *columns[:4], s, q, *columns[4:])
        digest.update(bound.tobytes())
        digest.update(note.encode())
    assert digest.hexdigest() == CASE_DIGESTS[case.value]


def test_array_call_keeps_the_float_errors():
    a, b, lam, mu, qa, qb, qm = _seeded_rows(n=20)
    with pytest.raises(WrongBranchError):
        case_bound_from_values(BoundCase.T33_q1, a, b, lam, mu, 0.5, 2.0, qa, qb, qm)
    lam[7] = 1.25
    with pytest.raises(MomentParameterError, match=r"got -0\.25"):
        case_bound_from_values(BoundCase.T31_general, a, b, lam, mu, 0.5, 2.0, qa, qb, qm)


def test_closed_forms_bench_tool_passes():
    # The tool exits 1 when an array entry differs from its float call.
    tool = Path(__file__).resolve().parents[1] / "tools" / "closed_forms_bench.py"
    proc = subprocess.run([sys.executable, "-B", str(tool), "--rows", "500"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["bit_identical"] is True


def test_derivative_values_refuse_an_overflow():
    # e^709.9 overflows itself; 2e200 squared overflows as |f'|^q.
    with pytest.raises(FunctionDomainError, match="overflows"):
        derivative_values(from_id("exp", 1.0, 709.9), 1.0, 709.9, 2.0)
    with pytest.raises(FunctionDomainError, match="overflows"):
        derivative_values(make_power(2, 1.0, 1e200), 1.0, 1e200, 2.0)
