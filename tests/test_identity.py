import math

import numpy as np
import pytest

from hhverify.errors import FunctionDomainError, WrongBranchError
from hhverify.functions import FunctionSpec, from_id, make_const, make_exp, make_power
from hhverify.identity import BoundParams, check_identity, hh_lhs, identity_rhs


def test_lhs_spot_values():
    f = make_power(2, 0, 1)
    assert math.isclose(hh_lhs(f, 0, 1, 1, 1), 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(hh_lhs(f, 0, 1, 0, 0), -1.0 / 12.0, rel_tol=1e-12)
    assert hh_lhs(make_const(5, 0, 1), 0, 1, 0.3, 0.9) == pytest.approx(0.0, abs=1e-14)


def test_rhs_matches_lhs_spot_values():
    f = make_power(2, 0, 1)
    assert math.isclose(identity_rhs(f, BoundParams(0, 1, 1, 1, 1, 1)), 1.0 / 6.0, rel_tol=1e-12)
    assert math.isclose(identity_rhs(f, BoundParams(0, 1, 0, 0, 1, 1)), -1.0 / 12.0, rel_tol=1e-12)


def test_linear_function_identity():
    f = make_power(1, 0, 2)
    # both sides equal (b-a)(mu-lambda)/4 for f = x; zero when the weights match
    p = BoundParams(0, 2, 0.3, 0.9, 1, 1)
    assert math.isclose(identity_rhs(f, p), hh_lhs(f, 0, 2, 0.3, 0.9), rel_tol=0, abs_tol=1e-13)
    assert hh_lhs(f, 0, 2, 0.7, 0.7) == pytest.approx(0.0, abs=1e-13)


def test_identity_residual_examples():
    assert check_identity(make_power(3, 1, 2), BoundParams(1, 2, 0.3, 0.7, 1, 1)) <= 1e-10
    assert check_identity(make_exp(0, 1), BoundParams(0, 1, 0.5, 0.5, 1, 1)) <= 1e-10
    assert check_identity(make_const(2, 0, 1), BoundParams(0, 1, 0.1, 0.8, 1, 1)) <= 1e-14


def test_identity_residual_seeded_draws():
    rng = np.random.default_rng(5)
    for _ in range(30):
        fid = ["pow:2", "pow:3", "exp", "pow:1.5"][rng.integers(4)]
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.2, 2.0))
        f = from_id(fid, a, b)
        p = BoundParams(a, b, float(rng.uniform()), float(rng.uniform()), 1, 1)
        assert check_identity(f, p) <= 1e-10


def test_lhs_is_affine_in_f():
    f = make_power(2, 0, 1)
    g = make_exp(0, 1)
    alpha, beta = 1.7, -0.4
    combo = FunctionSpec(
        "combo", 0.0, 1.0,
        lambda x: alpha * f.eval(x) + beta * g.eval(x),
        lambda x: alpha * f.deriv(x) + beta * g.deriv(x),
    )
    # combo carries no closed-form mean, so its lhs takes the quadrature fallback.
    tol = 1e-12
    lhs_combo = hh_lhs(combo, 0, 1, 0.25, 0.6, tol)
    lhs_parts = alpha * hh_lhs(f, 0, 1, 0.25, 0.6) + beta * hh_lhs(g, 0, 1, 0.25, 0.6)
    assert abs(lhs_combo - lhs_parts) <= 2.0 * tol * (1.0 + abs(lhs_combo))


def test_reflection_preserves_abs_lhs():
    f = make_power(3, 1, 2)
    a, b = 1.0, 2.0
    reflected = FunctionSpec(
        "reflected", a, b,
        lambda x: f.eval(a + b - x),
        lambda x: -f.deriv(a + b - x),
    )
    tol = 1e-12
    direct = hh_lhs(f, a, b, 0.2, 0.9)
    mirrored = hh_lhs(reflected, a, b, 0.9, 0.2, tol)
    assert abs(abs(direct) - abs(mirrored)) <= 2.0 * tol * (1.0 + abs(direct))


def test_degenerate_interval_returns_zero():
    # hh_lhs, a numeric helper, extends to a = b; BoundParams, and so every
    # row path and identity_rhs, refuses it.
    f = make_power(2, 0, 1)
    assert hh_lhs(f, 0.5, 0.5, 1, 1) == 0.0
    with pytest.raises(WrongBranchError, match="a < b"):
        identity_rhs(f, BoundParams(0.5, 0.5, 1, 1, 1, 1))


def test_overflow_is_a_domain_error():
    # e^711 overflows, as an f value and inside the mean; a value that is
    # not finite (from a hand-built spec) is refused the same way.
    with pytest.raises(FunctionDomainError, match="overflows"):
        hh_lhs(make_exp(1, 711), 1, 711, 0.5, 0.5)
    with pytest.raises(FunctionDomainError, match="overflows"):
        hh_lhs(make_power(3, 1, 1e120), 1, 1e120, 0.0, 0.0)
    infinite = FunctionSpec("inf", 0.0, 1.0, lambda x: math.inf, None, lambda a, b: 1.0)
    with pytest.raises(FunctionDomainError, match="not finite"):
        hh_lhs(infinite, 0, 1, 0.5, 0.5)
