import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.cli import main
from hhverify.errors import FunctionDomainError, WrongBranchError
from hhverify.functions import from_id
from hhverify.identity import BoundParams
from hhverify.means import (
    MEAN_THEOREMS,
    MeanParams,
    arithmetic_mean,
    eval_mean_bound,
    generalized_log_mean,
    mean_bound_from_values,
    mean_lhs,
)
from hhverify.presets import eval_preset


def test_arithmetic_mean():
    assert arithmetic_mean(2, 4) == 3.0
    assert arithmetic_mean(1.3, 1.3) == 1.3
    assert arithmetic_mean(1, 9) == 5.0


def test_log_mean_branches():
    assert math.isclose(generalized_log_mean(2, 4, 1.0), 3.0, rel_tol=1e-14)
    assert math.isclose(generalized_log_mean(1, math.e, -1.0), math.e - 1.0, rel_tol=1e-14)
    assert math.isclose(
        generalized_log_mean(1, math.e, 0.0), math.exp(1.0 / (math.e - 1.0)), rel_tol=1e-14
    )
    assert generalized_log_mean(2.5, 2.5, 0.7) == 2.5
    with pytest.raises(FunctionDomainError):
        generalized_log_mean(0.0, 1.0, 1.0)


def test_log_mean_branch_continuity():
    for a, b in [(0.5, 1.5), (1.0, 10.0), (0.01, 0.3), (3.0, 3.2)]:
        l0 = generalized_log_mean(a, b, 0.0)
        lm1 = generalized_log_mean(a, b, -1.0)
        assert abs(generalized_log_mean(a, b, 1e-6) - l0) <= 1e-4 * l0
        assert abs(generalized_log_mean(a, b, -1e-6) - l0) <= 1e-4 * l0
        assert abs(generalized_log_mean(a, b, -1.0 + 1e-6) - lm1) <= 1e-4 * lm1
        assert abs(generalized_log_mean(a, b, -1.0 - 1e-6) - lm1) <= 1e-4 * lm1


@settings(max_examples=150, deadline=None)
@given(
    a=st.floats(0.01, 50.0),
    b=st.floats(0.01, 50.0),
    s=st.floats(-2.0, 2.0),
)
def test_log_mean_ordering_and_symmetry(a, b, s):
    value = generalized_log_mean(a, b, s)
    assert min(a, b) * (1.0 - 1e-12) <= value <= max(a, b) * (1.0 + 1e-12)
    swapped = generalized_log_mean(b, a, s)
    assert math.isclose(value, swapped, rel_tol=1e-12)


def test_mean_lhs_examples():
    assert mean_lhs(MeanParams(1.3, 2.9, 1.0, 1, 0.37)) == pytest.approx(0.0, abs=1e-14)
    assert math.isclose(mean_lhs(MeanParams(1, 2, 2.0, 1, 1.0)), 1.0 / 6.0, rel_tol=1e-12)
    assert mean_lhs(MeanParams(1.7, 1.7, 1.4, 1, 0.6)) == pytest.approx(0.0, abs=1e-14)


def test_theorem_spot_values():
    r = eval_mean_bound("T43_q1", MeanParams(1, 2, 2.0, 1.0, 1.0))
    assert math.isclose(r.lhs, 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(r.bound, 0.5, rel_tol=1e-13)
    r = eval_mean_bound("T41", MeanParams(1, 2, 2.0, 1.0, 1.0))
    assert math.isclose(r.bound, 0.75, rel_tol=1e-13)


def test_degenerate_s1_lhs_below_every_bound():
    for theorem in MEAN_THEOREMS:
        q = 2.0 if "qgt1" in theorem else 1.0
        r = eval_mean_bound(theorem, MeanParams(0.7, 2.4, 1.0, q, 0.35))
        assert r.lhs == pytest.approx(0.0, abs=1e-13)
        assert r.bound >= 0.0


def test_t41_matches_endpoint_pair_preset_on_power_functions():
    # The endpoint-pair mean bound is the lambda=mu catalog display applied
    # to f = x^s with convexity order s-1; the two code paths must agree.
    for s in (0.5, 1.0, 1.5, 2.0):
        for q in (1.0, 2.0):
            if not -1.0 < (s - 1.0) * q <= 1.0:
                continue
            for a, b in [(0.5, 1.0), (1.0, 2.0), (0.25, 3.0)]:
                for lam in (0.0, 0.3, 0.7, 1.0):
                    bound, _ = mean_bound_from_values("T41", a, b, s, q, lam)
                    f = from_id(f"pow:{s}", a, b)
                    p = BoundParams(a, b, lam, lam, s - 1.0, q)
                    preset = eval_preset("C32_lambda_eq_mu", f, p)
                    assert abs(bound - preset.bound) <= 1e-12 * (1.0 + abs(preset.bound))


def test_validity_sound_theorems_mini_sweep():
    rng = np.random.default_rng(77)
    for _ in range(120):
        s = float(rng.uniform(0.05, 2.0))
        q = float(rng.choice([1.0, 1.5, 3.0]))
        if not -1.0 < (s - 1.0) * q <= 1.0:
            q = 1.0
        a = float(rng.uniform(0.01, 2.0))
        b = a + float(rng.uniform(0.05, 3.0))
        lam = float(rng.uniform())
        mp = MeanParams(a, b, s, q, lam)
        lhs = mean_lhs(mp)
        theorems = ["T41", "T42"] + (["T43_qgt1", "T44_qgt1"] if q > 1 else [])
        for theorem in theorems:
            bound, _ = mean_bound_from_values(theorem, a, b, s, q, lam)
            assert bound - lhs >= -1e-10 * (1.0 + abs(bound)), (theorem, s, q, a, b, lam)


# Bounds of the hand-written displays these theorems were evaluated from
# before they were derived from their Section 3 parents, at
# (a, b, lambda) = PINNED_POINTS; keyed by (theorem, s, q).
PINNED_POINTS = ((0.5, 2.0, 0.3), (0.05, 4.0, 0.85))
PINNED_BOUNDS = {
    ('T41', 0.05, 1.0): (0.527191957432692, 27.18886362472909),
    ('T41', 0.5, 1.0): (0.4272451112719524, 4.668492890383239),
    ('T41', 0.5, 1.5): (0.28302125654309845, 3.0419508475646135),
    ('T41', 1.0, 1.0): (0.4349999999999999, 1.4713749999999992),
    ('T41', 1.0, 1.5): (0.34525972880308325, 1.1678311114198543),
    ('T41', 1.0, 2.0): (0.3075914498161483, 1.040419240168356),
    ('T41', 1.0, 3.0): (0.2740328283521349, 0.9269081673945342),
    ('T41', 1.5, 1.0): (0.47233218033730207, 1.5664760378016152),
    ('T41', 1.5, 1.5): (0.4372247877408334, 1.6444549202104264),
    ('T41', 1.5, 2.0): (0.4254469294097242, 1.7311169988646553),
    ('T41', 2.0, 1.0): (0.5437499999999997, 2.9795343749999996),
    ('T42', 0.05, 1.0): (0.7771713290965931, 3.5310574074561827),
    ('T42', 0.5, 1.0): (0.49883689432799727, 2.013593117799304),
    ('T42', 0.5, 1.5): (0.30239090391385137, 1.422206144754077),
    ('T42', 1.0, 1.0): (0.43499999999999994, 1.4713749999999999),
    ('T42', 1.0, 1.5): (0.34525972880308337, 1.1678311114198545),
    ('T42', 1.0, 2.0): (0.3075914498161483, 1.0404192401683563),
    ('T42', 1.0, 3.0): (0.2740328283521349, 0.9269081673945344),
    ('T42', 1.5, 1.0): (0.46597536454750565, 1.7984772245836265),
    ('T42', 1.5, 1.5): (0.42940358671159556, 1.7230338857745824),
    ('T42', 1.5, 2.0): (0.4135064937070107, 1.7134336509324852),
    ('T42', 2.0, 1.0): (0.54375, 2.9795343749999996),
    ('T43_q1', 0.05, 1.0): (0.025369874454764654, 0.6125746303474869),
    ('T43_q1', 0.5, 1.0): (0.1537957249080741, 1.2193127567979176),
    ('T43_q1', 1.0, 1.0): (0.21750000000000003, 0.7356874999999999),
    ('T43_q1', 1.5, 1.0): (0.27683230483453347, 0.9815278356118126),
    ('T43_q1', 2.0, 1.0): (0.36250000000000004, 1.9863562499999996),
    ('T43_qgt1', 0.05, 1.5): (0.01783559323375514, 0.45350085716266936),
    ('T43_qgt1', 0.05, 2.0): (0.01620873486587662, 0.43964225001600293),
    ('T43_qgt1', 0.05, 3.0): (0.01570331681289129, 0.4585840814629664),
    ('T43_qgt1', 0.5, 1.5): (0.12296573323227858, 1.0850649333582654),
    ('T43_qgt1', 0.5, 2.0): (0.11927442838865246, 1.1389105143309601),
    ('T43_qgt1', 0.5, 3.0): (0.12210216166470499, 1.253566189490766),
    ('T43_qgt1', 1.0, 1.5): (0.18704891565915385, 0.631285771007843),
    ('T43_qgt1', 1.0, 2.0): (0.18624580532189172, 0.6335923949327886),
    ('T43_qgt1', 1.0, 3.0): (0.19236646246575195, 0.654724252928907),
    ('T43_qgt1', 1.5, 1.5): (0.2630075860777829, 1.0447916362326024),
    ('T43_qgt1', 1.5, 2.0): (0.27827965543752176, 1.1969795603967117),
    ('T43_qgt1', 1.5, 3.0): (0.3108697222179077, 1.4337086245664474),
    ('T43_qgt1', 2.0, 1.5): (0.3822625145671619, 2.3581187478491605),
    ('T43_qgt1', 2.0, 2.0): (0.4318342804950826, 2.8270111002323257),
    ('T43_qgt1', 2.0, 3.0): (0.5208764826958697, 3.5198577691973685),
    ('T44_q1', 0.05, 1.0): (0.0210636143356476, 0.3242086480299734),
    ('T44_q1', 0.5, 1.0): (0.14174383380153097, 0.7819858707037828),
    ('T44_q1', 1.0, 1.0): (0.21750000000000003, 0.7356874999999999),
    ('T44_q1', 1.5, 1.0): (0.28431958794912804, 1.1189049172569898),
    ('T44_q1', 2.0, 1.0): (0.36250000000000004, 1.9863562499999996),
    ('T44_qgt1', 0.5, 1.5): (0.17737057320084254, 1.073965607496756),
    ('T44_qgt1', 1.0, 1.5): (0.29692164548685185, 1.0021036969904056),
    ('T44_qgt1', 1.0, 2.0): (0.26339134382131846, 0.8960349579304),
    ('T44_qgt1', 1.0, 3.0): (0.24236655535441298, 0.8249008681418251),
    ('T44_qgt1', 1.5, 1.5): (0.4211626445865468, 1.7208921563897548),
    ('T44_qgt1', 1.5, 2.0): (0.39051100958947127, 1.6555102642262844),
}


def test_derived_bounds_match_the_pinned_displays():
    for (theorem, s, q), values in PINNED_BOUNDS.items():
        for (a, b, lam), expected in zip(PINNED_POINTS, values):
            bound, _ = mean_bound_from_values(theorem, a, b, s, q, lam)
            assert abs(bound - expected) <= 1e-13 * abs(expected), (theorem, s, q, a, b, lam)


@pytest.mark.parametrize(
    ("theorem", "q", "parent"),
    [("T44_q1", 1.0, "T34_q1_tier1"), ("T44_qgt1", 2.0, "T34_qgt1_tier1")],
)
def test_rows_outside_the_parent_branch_are_unchecked(theorem, q, parent):
    # s' = s = 1.5 lies past the parent's s' <= 1 branch: evaluated, not certified.
    for (a, b, lam), expected in zip(PINNED_POINTS, PINNED_BOUNDS[(theorem, 1.5, q)]):
        r = eval_mean_bound(theorem, MeanParams(a, b, 1.5, q, lam))
        assert abs(r.bound - expected) <= 1e-13 * abs(expected)
        assert r.certificate == "unchecked"
        assert parent in r.branch_notes
    r = eval_mean_bound(theorem, MeanParams(0.5, 2.0, 1.0, q, 0.3))
    assert r.certificate == "certified-analytic"
    assert parent not in r.branch_notes


def test_q1_product_display_violations_are_not_certified():
    # Documented defect of the printed q = 1 displays: at s = 2 with a << b
    # and lambda near 0.85 the deviation exceeds both bounds.  s' = s = 2 is
    # outside the parents' branch, so no violating row is certified.
    mp = MeanParams(0.05, 4.0, 2.0, 1.0, 0.85)
    lhs = mean_lhs(mp)
    for theorem in ("T43_q1", "T44_q1"):
        r = eval_mean_bound(theorem, mp)
        assert lhs > r.bound
        assert r.certificate != "certified-analytic"


def test_branch_and_constraint_errors():
    with pytest.raises(WrongBranchError):
        mean_bound_from_values("T43_qgt1", 1, 2, 1.0, 1.0, 0.5)
    with pytest.raises(WrongBranchError):
        mean_bound_from_values("T43_q1", 1, 2, 1.0, 2.0, 0.5)
    with pytest.raises(WrongBranchError):
        mean_bound_from_values("T41", 1, 2, 2.0, 3.0, 0.5)  # (s-1)q = 3
    with pytest.raises(WrongBranchError):
        mean_bound_from_values("T41", 1, 2, 2.5, 1.0, 0.5)  # s > 2
    for theorem in ("T41", "T42"):  # s' = s - 1 within 1e-6 of the moment pole
        with pytest.raises(WrongBranchError):
            mean_bound_from_values(theorem, 1, 2, 1e-7, 1.0, 0.5)
    with pytest.raises(FunctionDomainError):
        MeanParams(-1.0, 2.0, 1.0, 1.0, 0.5)
    with pytest.raises(WrongBranchError):
        MeanParams(1.0, 2.0, 1.0, 1.0, 1.5)


def test_mean_result_serialization(capsys):
    # One mean row as the CLI prints it, with the family the sweep gives it.
    argv = ["means", "--theorem", "T41", "--a", "1", "--b", "2", "--s", "2", "--q", "1", "--lambda", "1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"case", "preset", "params", "lhs", "bound", "slack", "certified",
                        "branch_notes", "family", "violation"}
    assert list(doc["params"]) == ["a", "b", "s", "q", "lambda"]
    assert doc["case"] == "T41" and doc["family"] == "pow:2"
    assert main(argv + ["--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(row) == len(header)
    assert row[header.index("mu")] == "" and row[header.index("case")] == "T41"
