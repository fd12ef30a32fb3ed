import math
import sys

import numpy as np
import pytest

from hhverify.errors import (
    DegenerateIntervalError,
    InvalidToleranceError,
    NonFiniteIntegrandError,
)
from hhverify.functions import make_const, make_power
from hhverify.quadrature import _WG, _WGK, _XGK, _gk15, _pointwise, integrate, integrate_batch, mean_integral


def test_polynomials_match_antiderivative():
    rng = np.random.default_rng(42)
    for deg in range(11):
        coeffs = rng.uniform(-2, 2, size=deg + 1)

        def f(x, c=coeffs):
            return sum(ci * x**i for i, ci in enumerate(c))

        exact = sum(c / (i + 1) * (2.0 ** (i + 1) - (-1.0) ** (i + 1)) for i, c in enumerate(coeffs))
        res = integrate(f, -1.0, 2.0)
        assert res.converged
        assert math.isclose(res.value, exact, rel_tol=1e-12, abs_tol=1e-13)


def test_single_panel_on_low_degree():
    res = integrate(lambda t: t, 0.0, 1.0)
    assert res.value == 0.5
    assert res.evaluations == 15


def test_kink_with_breakpoint():
    res = integrate(lambda t: abs(0.5 - t) * (1.0 + t), 0.0, 1.0, breakpoints=[0.5])
    # piecewise antiderivative: 7/48 + 11/48
    assert math.isclose(res.value, 0.375, rel_tol=1e-13)


def test_log_constant():
    res = integrate(lambda t: (1.0 - t) / (1.0 + t), 0.0, 1.0)
    assert math.isclose(res.value, 2.0 * math.log(2.0) - 1.0, rel_tol=1e-13)


def test_left_endpoint_singularity_graded():
    res = integrate(lambda t: t**-0.9, 0.0, 1.0)
    assert res.converged
    assert math.isclose(res.value, 10.0, rel_tol=1e-12)


def test_right_endpoint_singularity_is_honest():
    # (1-t)^(-1/2) cannot be resolved to 1e-12 in t-coordinates near t = 1;
    # the contract is a best-effort value with converged=False, not a lie.
    res = integrate(lambda t: (1.0 - t) ** -0.5, 0.0, 1.0)
    assert not res.converged
    assert abs(res.value - 2.0) <= 10.0 * max(res.err_estimate, 1e-9)


def test_singular_grading_stays_within_the_panel_budget():
    # Grading happens as panels are split, so the budget bounds it too.
    res = integrate(lambda t: t**-0.5, 0.0, 1.0, max_panels=64)
    assert res.converged
    assert abs(res.value - 2.0) <= 2e-12
    assert res.evaluations <= 30 * 64


def test_singular_grading_goes_only_as_deep_as_the_target():
    res = integrate(lambda t: t**-0.5, 0.0, 1.0)
    assert res.converged
    assert math.isclose(res.value, 2.0, rel_tol=1e-12)
    assert res.evaluations <= 2000


def _gk15_reference(f, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    kron = 0.0
    gauss = 0.0
    for i, x in enumerate(_XGK):
        if x == 0.0:
            v = f(c)
            kron += _WGK[i] * v
            gauss += _WG[3] * v
            continue
        s = f(c - h * x) + f(c + h * x)
        kron += _WGK[i] * s
        if i % 2 == 1:
            gauss += _WG[i // 2] * s
    return h * kron, abs(h * (kron - gauss))


def test_gk15_is_bit_identical_to_the_node_loop():
    rng = np.random.default_rng(23)
    integrands = (
        lambda t: 0.3 - 1.7 * t + 2.2 * t**3 - 0.4 * t**7,
        lambda t: math.exp(-1.3 * t),
        lambda t: abs(t - 0.37) * (1.0 + t * t),
    )
    for _ in range(300):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(10.0 ** rng.uniform(-9.0, 1.0))
        for f in integrands:
            value, err = _gk15(_pointwise(f), np.zeros(1, dtype=int), np.array([lo]), np.array([hi]))
            ref_value, ref_err = _gk15_reference(f, lo, hi)
            assert value.tolist() == [ref_value] and err.tolist() == [ref_err]


@pytest.mark.parametrize("raise_later", [False, True])
def test_gk15_names_the_first_bad_node_in_scan_order(raise_later):
    # NaN past the cut; optionally a node sampled later also raises.  Either
    # way the first NaN node in scan order is the one named.
    first_nan = 0.5 + 0.5 * _XGK[0]
    raising = 0.5 - 0.5 * _XGK[6]

    def f(t):
        if raise_later and t == raising:
            raise ValueError("later node")
        return t if t < 0.3 else math.nan

    with pytest.raises(NonFiniteIntegrandError) as info:
        _gk15(_pointwise(f), np.zeros(1, dtype=int), np.array([0.0]), np.array([1.0]))
    assert str(info.value) == f"integrand not finite at {first_nan!r}"


def test_linearity():
    f = lambda t: math.sin(3.0 * t)
    g = lambda t: t**3 - t
    alpha, beta = 2.5, -1.25
    tol = 1e-12
    combo = integrate(lambda t: alpha * f(t) + beta * g(t), 0.0, 2.0, tol).value
    parts = alpha * integrate(f, 0.0, 2.0, tol).value + beta * integrate(g, 0.0, 2.0, tol).value
    assert abs(combo - parts) <= 2.0 * tol * (1.0 + abs(combo))


def test_interval_additivity():
    f = lambda t: math.exp(-t) * math.cos(4.0 * t)
    tol = 1e-12
    for split in (0.1, 0.5, 1.7):
        whole = integrate(f, 0.0, 2.0, tol).value
        parts = integrate(f, 0.0, split, tol).value + integrate(f, split, 2.0, tol).value
        assert abs(whole - parts) <= 2.0 * tol * (1.0 + abs(whole))


def test_degenerate_interval_is_zero():
    res = integrate(math.exp, 1.0, 1.0)
    assert res.value == 0.0 and res.converged


def test_invalid_tolerance():
    with pytest.raises(InvalidToleranceError):
        integrate(math.exp, 0.0, 1.0, tol=0.0)
    with pytest.raises(InvalidToleranceError):
        integrate(math.exp, 1.0, 0.0)


def test_interior_pole_raises():
    # The pole is the centre node of the first panel; the message names it.
    with pytest.raises(NonFiniteIntegrandError, match=r"integrand failed at 0\.5: "):
        integrate(lambda t: 1.0 / (t - 0.5), 0.0, 1.0)


def test_budget_exhaustion_reports_nonconverged():
    res = integrate(lambda t: math.sin(1.0 / (t + 1e-3)), 0.0, 1.0, tol=1e-14, max_panels=64)
    assert not res.converged
    assert res.err_estimate > 0.0


def test_grading_stops_at_the_width_floor_near_the_pole():
    # t^-0.99 needs panels far below the normal float range; grading stops
    # at the floor, so no node is subnormal (where t^s overflows) and the
    # result comes back unconverged instead of raising.
    nodes = []

    def f(t):
        nodes.append(t)
        return t**-0.99

    res = integrate(f, 0.0, 1.0)
    assert not res.converged
    assert math.isfinite(res.value) and res.err_estimate > 0.0
    assert min(t for t in nodes if t > 0.0) >= sys.float_info.min


def test_mean_integral_examples():
    assert math.isclose(mean_integral(make_power(2, 0, 1), 0.0, 1.0), 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(mean_integral(make_const(7, 2, 5), 2.0, 5.0), 7.0, rel_tol=1e-14)
    assert math.isclose(mean_integral(make_power(1, 0, 2), 0.0, 2.0), 1.0, rel_tol=1e-14)


def test_mean_integral_degenerate_raises():
    with pytest.raises(DegenerateIntervalError):
        mean_integral(make_power(2, 0, 1), 0.5, 0.5)


def test_converged_respects_error_target():
    rng = np.random.default_rng(17)
    for _ in range(25):
        freq = float(rng.uniform(0.5, 12.0))
        tol = float(rng.choice([1e-8, 1e-10, 1e-12]))
        res = integrate(lambda t: math.sin(freq * t) * math.exp(-t), 0.0, 3.0, tol)
        assert res.converged
        target = max(1e-14, tol * abs(res.value))
        assert res.err_estimate <= target * (1.0 + 1e-9)
        assert res.evaluations % 15 == 0 and res.evaluations > 0


def test_a_batch_gives_each_integral_its_own_result():
    # Integrals share the calls of f, never panels, sums or stops: a smooth
    # one, a kink at a breakpoint, a graded singularity, one that runs out of
    # panels and a degenerate one each give what integrate gives alone.
    cases = [
        (lambda t: math.sin(3.0 * t), 0.0, 2.0, ()),
        (lambda t: abs(t - 0.37) * (1.0 + t * t), 0.0, 1.0, (0.37,)),
        (lambda t: t**-0.9 if t > 0.0 else math.inf, 0.0, 1.0, ()),
        (lambda t: math.sin(1.0 / (t + 1e-5)), 0.0, 1.0, ()),
        (math.exp, 1.0, 1.0, ()),
    ]

    def f(rows, x):
        return [cases[r][0](v) for r, v in zip(rows.tolist(), x.tolist())]

    batch = integrate_batch(f, [c[1] for c in cases], [c[2] for c in cases], [c[3] for c in cases], 1e-12, 400)
    alone = [integrate(g, a, b, 1e-12, cuts, 400) for g, a, b, cuts in cases]
    assert batch == alone
    assert [res.converged for res in batch] == [True, True, True, False, True]
