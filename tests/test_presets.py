import math
import re

import numpy as np
import pytest

from hhverify.bounds import case_bound_from_values
from hhverify.errors import PresetMismatchError
from hhverify.functions import make_power
from hhverify.identity import BoundParams
from hhverify.presets import PRESETS, VERBATIM_DISPLAYS, eval_preset

SYNTH = [(0.7, 2.3, 1.1), (0.0, 2.0, 1.0), (3.0, 0.5, 1.75), (1.0, 1.0, 1.0), (0.2, 5.0, 2.4)]
LAMS = [0.0, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 1.0]
SVALS = [-0.9, -0.5, 0.3, 0.7, 1.0]


def _grid(spec):
    out = []
    ss = [spec.pin_s] if spec.pin_s is not None else [
        s for s in SVALS if spec.s_range[0] <= s <= spec.s_range[1]
    ]
    qq = [1.0] if spec.pin_q == "1" else ([1.3, 2.0, 5.0] if spec.pin_q == ">1" else [1.0, 2.0])
    ll = [spec.pin_lam] if spec.pin_lam is not None else LAMS
    for s in ss:
        for q in qq:
            for lam in ll:
                if spec.pin_mu == "lam":
                    mus = [lam]
                elif spec.pin_mu is not None:
                    mus = [spec.pin_mu]
                else:
                    mus = [0.0, 0.4, 1.0]
                for mu in mus:
                    out.append((lam, mu, s, q))
    return out


@pytest.mark.parametrize("pid", sorted(PRESETS), ids=str)
def test_preset_against_parent(pid):
    spec = PRESETS[pid]
    for a, b in [(0.0, 1.0), (1.0, 3.5)]:
        for lam, mu, s, q in _grid(spec):
            for qa, qb, qm in SYNTH:
                shown = spec.display(a, b, lam, mu, s, q, qa, qb, qm)
                derived, _ = case_bound_from_values(spec.parent, a, b, lam, mu, s, q, qa, qb, qm)
                if spec.kind == "specialization":
                    assert abs(shown - derived) <= 1e-12 * (1.0 + abs(derived)), (lam, mu, s, q)
                else:
                    assert shown >= derived - 1e-12 * (1.0 + abs(derived)), (lam, mu, s, q)


def test_preset_spot_values():
    x2 = make_power(2, 0, 1)
    r = eval_preset("C33_s1_q1_lambda_mu", x2, BoundParams(0, 1, 1, 1, 1, 1))
    assert math.isclose(r.bound, 0.25, rel_tol=1e-13)
    r = eval_preset("C35_half", x2, BoundParams(0, 1, 0.5, 0.5, 1, 1))
    assert math.isclose(r.bound, 0.125, rel_tol=1e-13)
    f = make_power(2, 1, 2)
    r = eval_preset("C31_s_minus1_q1", f, BoundParams(1, 2, 0, 0, -1, 1))
    assert math.isclose(r.bound, math.log(2.0) * (2.0 + 4.0), rel_tol=1e-13)


def test_preset_pin_mismatch():
    x2 = make_power(2, 0, 1)
    with pytest.raises(PresetMismatchError):
        eval_preset("C35_half", x2, BoundParams(0, 1, 0.4, 0.4, 1, 1))
    with pytest.raises(PresetMismatchError):
        eval_preset("C33_s1_q1", x2, BoundParams(0, 1, 1, 1, 0.5, 1))
    with pytest.raises(PresetMismatchError):
        eval_preset("C33x_lambda_mu_qgt1", x2, BoundParams(0, 1, 1, 1, 1, 1))
    with pytest.raises(PresetMismatchError):
        eval_preset("E112", x2, BoundParams(0, 1, 1.0 / 3.0, 1.0 / 3.0, -0.5, 1))


def test_validate_is_the_weight_and_order_halves():
    # A sweep settles the (s, q) half once per (s, q) and checks only the
    # (lambda, mu) half per row; validate() must reject exactly what either
    # half rejects, with the same message.
    for spec in PRESETS.values():
        for lam in LAMS:
            for mu in (lam, 0.0, 1.0, 0.5):
                for s in SVALS + [-1.0]:
                    for q in (1.0, 2.0):
                        problem = spec.weight_mismatch(lam, mu) or spec.branch_mismatch(s, q)
                        p = BoundParams(0.0, 1.0, lam, mu, s, q)
                        if problem:
                            with pytest.raises(PresetMismatchError, match=re.escape(problem)):
                                spec.validate(p)
                        else:
                            spec.validate(p)
    assert PRESETS["C35_half"].weight_mismatch(0.4, 0.5) == "C35_half pins lambda = 0.5"
    assert PRESETS["E112"].branch_mismatch(-0.5, 1.0) == "E112 needs s in [1e-12, 1]"
    # The sweep takes the weight half on arrays, as a mask; it must admit
    # exactly the rows weight_mismatch admits, pins met to within 1e-12 too.
    pairs = [(lam, mu) for lam in LAMS for mu in (lam, 0.0, 1.0, 0.5)]
    pairs += [(0.5 + 5e-13, 0.5 - 5e-13), (0.5 + 2e-12, 0.5), (1.0 / 3.0, 1.0 / 3.0 + 2e-12)]
    lam, mu = np.array(pairs).T
    for spec in PRESETS.values():
        assert spec.weights_match(lam, mu).tolist() == [not spec.weight_mismatch(l, m) for l, m in pairs], spec.pid


ARRAY_QS = [1.0, 1.0 + 1e-6, 1.5, 2.0, 4.0]


@pytest.mark.parametrize(
    "spec",
    [*PRESETS.values(), *VERBATIM_DISPLAYS.values()],
    ids=[*PRESETS, *(f"{key}-verbatim" for key in VERBATIM_DISPLAYS)],
)
def test_display_on_arrays_has_the_bits_of_its_float_calls(spec):
    # The sweep calls each display once over a block of rows; every entry
    # must have the bits the float call for its row gives.  Seeded rows at
    # the spec's weight pins, with λ and μ at 0 and 1 and zero samples among
    # them, at every (s, q) the pins admit.
    rng = np.random.default_rng(7)
    n = 64
    a = rng.uniform(0.05, 2.0, n)
    b = a + rng.uniform(0.1, 3.0, n)
    lam, mu = rng.uniform(size=(2, n))
    lam[:4], mu[:4] = [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]
    lam, mu = np.broadcast_arrays(*spec.pinned_weights(lam, mu), lam)[:2]
    qa, qb, qm = rng.uniform(0.0, 4.0, size=(3, n))
    qa[4:6], qb[5:7], qm[6:8] = 0.0, 0.0, 0.0
    rows = list(zip(*(c.tolist() for c in (a, b, lam, mu, qa, qb, qm))))
    admitted = [(s, q) for s in SVALS + [-1.0] for q in ARRAY_QS if not spec.branch_mismatch(s, q)]
    assert admitted
    for s, q in admitted:
        got = spec.display(a, b, lam, mu, s, q, qa, qb, qm)
        want = [spec.display(*r[:4], s, q, *r[4:]) for r in rows]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), (s, q)


def test_e19_equals_trapezoid_preset():
    e19 = PRESETS["E19"].display
    trap = PRESETS["C32_trapezoid"].display
    for s in np.linspace(0.05, 1.0, 20):
        for q in (1.0, 1.7, 4.0):
            for qa, qb, qm in SYNTH:
                v1 = e19(0, 1, 1.0, 1.0, float(s), q, qa, qb, qm)
                v2 = trap(0, 1, 1.0, 1.0, float(s), q, qa, qb, qm)
                assert math.isclose(v1, v2, rel_tol=1e-12, abs_tol=1e-13)


def test_c35_displays_pin_to_lambda_values():
    # The three numeric endpoint-weight displays are the general lambda=mu
    # family at lambda = 1/2, 2/3, 1/3 and s = 1.
    general = PRESETS["C32_lambda_eq_mu"].display
    for pid, lam in [("C35_half", 0.5), ("C35_third", 2.0 / 3.0), ("C35_simpson", 1.0 / 3.0)]:
        display = PRESETS[pid].display
        for q in (1.0, 2.0, 3.0):
            for qa, qb, qm in SYNTH:
                v1 = display(0, 1, lam, lam, 1.0, q, qa, qb, qm)
                v2 = general(0, 1, lam, lam, 1.0, q, qa, qb, qm)
                assert math.isclose(v1, v2, rel_tol=1e-12, abs_tol=1e-13)


def test_verbatim_variants_deviate():
    # Each as-printed display deviates from what ships: the corrected preset
    # display, or for a theorem-level entry the parent case itself.
    assert {"T32_tier2", "T33_q1"} <= set(VERBATIM_DISPLAYS)
    for pid, spec in VERBATIM_DISPLAYS.items():
        s = spec.pin_s if spec.pin_s is not None else 0.5
        q = 1.0 if spec.pin_q == "1" else 2.0
        lam = 0.3
        mu = lam if spec.pin_mu == "lam" else 0.8
        worst = 0.0
        for qa, qb, qm in SYNTH:
            shown = spec.display(0, 1, lam, mu, s, q, qa, qb, qm)
            if pid in PRESETS:
                shipped = PRESETS[pid].display(0, 1, lam, mu, s, q, qa, qb, qm)
            else:
                shipped, _ = case_bound_from_values(spec.parent, 0, 1, lam, mu, s, q, qa, qb, qm)
            worst = max(worst, abs(shown - shipped))
        assert worst > 1e-6, pid


def test_preset_result_carries_preset_id():
    x2 = make_power(2, 0, 1)
    r = eval_preset("E15", x2, BoundParams(0, 1, 1, 1, 1, 1))
    assert r.preset == "E15" and r.case == "T31_general"
    assert math.isclose(r.bound, 0.25, rel_tol=1e-13)
    assert math.isclose(r.lhs, 1.0 / 6.0, rel_tol=1e-12)
