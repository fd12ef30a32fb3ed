import csv
import io
import json
import math

import numpy as np
import pytest

from hhverify.bounds import (
    BoundCase,
    VIOLATION_TOL,
    case_bound_from_values,
    eval_case,
    midpoint_envelope,
)
from hhverify.cli import main
from hhverify.errors import WrongBranchError
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
    r = eval_case(BoundCase.T31_general, make_power(2, 0, 2), BoundParams(1, 1, 0.5, 0.5, 1, 1))
    assert r.lhs == r.bound == r.slack == 0.0


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
