import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhverify.errors import FunctionDomainError
from hhverify.functions import (
    FunctionSpec,
    analytic_order,
    canonical_id,
    certify_power_extended_s,
    check_extended_s_convex,
    convex_power_envelope,
    derivative_q_envelope,
    from_id,
    make_const,
    make_exp,
    make_power,
    parse_id,
    power_rule_holds,
)


def test_make_power_examples():
    f = make_power(2, 0, 1)
    assert f.eval(0.5) == 0.25 and f.deriv(0.5) == 1.0
    assert make_power(1, 1, 2).deriv(1.7) == 1.0
    assert math.isclose(make_power(0.5, 1, 4).deriv(4.0), 0.25, rel_tol=1e-15)


def test_make_power_domain_errors():
    with pytest.raises(FunctionDomainError):
        make_power(0.5, 0.0, 1.0)  # p < 1 needs lo > 0
    with pytest.raises(FunctionDomainError):
        make_power(1.5, -1.0, 1.0)  # non-integer power on negatives
    with pytest.raises(FunctionDomainError):
        make_power(2, 1.0, 1.0)  # empty interval


def test_derivative_q_envelope():
    f = make_power(2, 0, 2)
    assert derivative_q_envelope(f, 1).eval(1.0) == 2.0
    assert derivative_q_envelope(f, 2).eval(1.0) == 4.0
    g = derivative_q_envelope(make_power(3, 0, 1), 1)
    assert math.isclose(g.eval(0.5), 0.75, rel_tol=1e-15)
    assert g.deriv is None


def test_certify_power_rule():
    # The power rule gives order p - 1 where the convexity rule does not
    # reach order 1; on positive intervals one of the two always applies.
    assert power_rule_holds(2, 1) and analytic_order("pow", 2.0, 0.0, 1.0) == 1.0
    assert power_rule_holds(1.5, 1) and analytic_order("pow", 1.5, 0.5, 1.0) == 0.5
    assert power_rule_holds(0.5, 1) and analytic_order("pow", 0.5, 0.5, 1.0) == 1.0
    assert not power_rule_holds(2, 3) and analytic_order("pow", 2.0, 0.0, 3.0) == 1.0
    for p, q, s, note in [(2, 1, 1.0, "convexity rule"), (1.5, 1, 0.5, "power rule"),
                          (0.5, 1, 1.0, "convexity rule"), (2, 3, 1.0, "convexity rule")]:
        cert = certify_power_extended_s(p, q)
        assert (cert.status, cert.s, cert.note) == ("certified-analytic", s, note)


def test_power_rule_at_lo_0_needs_p_ge_1():
    # At lo = 0 the power rule covers p >= 1 only; pow:0.5 has no rule there.
    assert analytic_order("pow", 1.5, 0.0, 1.0) == 0.5
    assert analytic_order("pow", 0.5, 0.0, 1.0) is None
    assert analytic_order("pow", 1.5, -1.0, 1.0) is None


def test_certify_boundary_inclusion():
    # (p-1)q = 1 is included, (p-1)q = -1 is not
    assert power_rule_holds(1.5, 2)
    assert not power_rule_holds(0.5, 2)


def test_check_convex_not_falsified():
    g = FunctionSpec("x2", 0.0, 10.0, lambda x: x * x, None)
    assert check_extended_s_convex(g, 0.0, 10.0, 1.0).status == "not-falsified"


def test_check_concave_falsified_with_witness():
    g = FunctionSpec("sqrt", 0.0, 4.0, math.sqrt, None)
    cert = check_extended_s_convex(g, 0.0, 4.0, 1.0)
    assert cert.status == "falsified"
    x, y, lam = cert.witness
    lhs = g.eval(lam * x + (1.0 - lam) * y)
    rhs = lam * g.eval(x) + (1.0 - lam) * g.eval(y)
    assert lhs - rhs > 1e-12 * (1.0 + abs(rhs))


def test_check_constant_p_convex():
    g = FunctionSpec("one", -5.0, 5.0, lambda x: 1.0, None)
    assert check_extended_s_convex(g, -5.0, 5.0, 0.0).status == "not-falsified"


def test_check_is_deterministic():
    g = FunctionSpec("sqrt", 0.0, 4.0, math.sqrt, None)
    a = check_extended_s_convex(g, 0.0, 4.0, 1.0, samples=40, seed=11)
    b = check_extended_s_convex(g, 0.0, 4.0, 1.0, samples=40, seed=11)
    assert a.witness == b.witness and a.status == b.status


def test_check_rejects_negative_functions():
    g = FunctionSpec("neg", 0.0, 1.0, lambda x: -1.0, None)
    with pytest.raises(FunctionDomainError):
        check_extended_s_convex(g, 0.0, 1.0, 0.0)


def test_certified_power_never_falsified():
    for p, q, seed in [(2.0, 1.0, 0), (0.5, 1.0, 1), (1.5, 2.0, 2), (0.8, 3.0, 3)]:
        assert power_rule_holds(p, q) and analytic_order("pow", p, 0.1, q) >= p - 1.0
        f = make_power(p, 0.1, 3.0)
        envelope = derivative_q_envelope(f, q)
        check = check_extended_s_convex(envelope, 0.1, 3.0, p - 1.0, samples=150, seed=seed)
        assert check.status == "not-falsified"


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.05, 2.0),
    q=st.floats(1.0, 5.0),
    seed=st.integers(0, 2**16),
)
def test_certified_power_never_falsified_property(p, q, seed):
    assume(-1.0 < (p - 1.0) * q <= 1.0)
    assert power_rule_holds(p, q) and analytic_order("pow", p, 0.05, q) >= p - 1.0
    envelope = derivative_q_envelope(make_power(p, 0.05, 2.5), q)
    check = check_extended_s_convex(envelope, 0.05, 2.5, p - 1.0, samples=40, seed=seed)
    assert check.status == "not-falsified"


def derivative_consistency(f: FunctionSpec, points: int = 100) -> float:
    """Worst relative gap between f.deriv and a central difference of f.eval.

    Interior sample points only; step h = max(1e-6, 1e-6·|x|).
    """
    worst = 0.0
    span = f.hi - f.lo
    for i in range(1, points + 1):
        x = f.lo + span * i / (points + 1.0)
        h = max(1e-6, 1e-6 * abs(x))
        h = min(h, 0.49 * min(x - f.lo, f.hi - x))
        fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h)
        d = f.deriv(x)
        worst = max(worst, abs(fd - d) / (1.0 + abs(d)))
    return worst


@pytest.mark.parametrize(
    "f",
    [
        make_power(2, 0, 1),
        make_power(3, -1, 2),
        make_power(1.5, 0, 2),
        make_power(0.5, 0.5, 4),
        make_exp(-1, 1),
        make_const(3, 0, 1),
    ],
    ids=lambda f: f.fid,
)
def test_derivative_consistency(f):
    assert derivative_consistency(f, points=100) <= 1e-6


def test_from_id_registry():
    assert from_id("pow:2", 0, 1).fid == "pow:2"
    assert from_id("exp", 0, 1).eval(0.0) == 1.0
    assert from_id("const:4", 0, 1).eval(0.3) == 4.0
    with pytest.raises(FunctionDomainError):
        from_id("sin", 0, 1)


@pytest.mark.parametrize(
    "fid, q, lo",
    [
        ("exp", 1.0, -1.0),
        ("exp", 2.0, 0.5),
        ("const:3", 1.0, 0.0),
        ("pow:2", 1.0, 0.0),   # γ = 1
        ("pow:2", 2.0, 0.0),   # γ = 2, outside the power rule
        ("pow:3", 1.0, -1.0),  # γ = 2 on an interval through 0
        ("pow:1", 3.0, 0.0),   # γ = 0
        ("pow:0.5", 1.0, 0.2),  # γ = -0.5 with lo > 0
        ("pow:0.5", 3.0, 0.2),  # γ = -1.5, outside the power rule
    ],
)
def test_convexity_rule_never_falsified(fid, q, lo):
    assert analytic_order(*parse_id(fid), lo, q) == 1.0
    hi = lo + 2.5
    envelope = derivative_q_envelope(from_id(fid, lo, hi), q)
    for s in (-1.0, 0.0, 1.0):
        check = check_extended_s_convex(envelope, lo, hi, s, samples=100, seed=5)
        assert check.status == "not-falsified"


def test_convexity_rule_needs_positive_interval_for_negative_gamma():
    assert not convex_power_envelope(0.5, 1.0, 0.0)
    assert analytic_order("pow", 0.5, 0.0, 1.0) is None
    assert convex_power_envelope(0.5, 1.0, 0.1)
    assert analytic_order("pow", 0.5, 0.1, 1.0) == 1.0


def test_convexity_rule_leaves_concave_envelopes_to_the_sampler():
    # pow:1.5 at q = 1 has envelope 1.5·x^0.5 (γ = 0.5): concave, so only
    # the power rule applies, at order 0.5; order s = 1 is left to the
    # sampler, which falsifies it.
    assert not convex_power_envelope(1.5, 1.0, 0.5)
    assert analytic_order("pow", 1.5, 0.5, 1.0) == 0.5
    envelope = derivative_q_envelope(make_power(1.5, 0.5, 2.0), 1.0)
    assert check_extended_s_convex(envelope, 0.5, 2.0, 1.0, samples=64).status == "falsified"


@pytest.mark.parametrize("q", [math.nan, math.inf, 0.5])
def test_envelope_rules_reject_q_outside_finite_q_ge_1(q):
    # NaN fails every comparison, so only a check that q lies in [1, inf)
    # rejects it.
    with pytest.raises(FunctionDomainError, match="finite q >= 1"):
        analytic_order("exp", None, 0.0, q)
    with pytest.raises(FunctionDomainError, match="finite q >= 1"):
        analytic_order("pow", 1.5, 0.5, q)
    with pytest.raises(FunctionDomainError, match="finite q >= 1"):
        derivative_q_envelope(from_id("exp", 0.0, 1.0), q)
    with pytest.raises(FunctionDomainError, match="finite q >= 1"):
        certify_power_extended_s(2.0, q)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(p=_FINITE)
def test_power_ids_name_their_exact_power(p):
    fid = make_power(p, 1.0, 2.0).fid
    assert parse_id(fid) == ("pow", p)
    assert from_id(fid, 1.0, 2.0).fid == fid


@settings(max_examples=200, deadline=None)
@given(c=_FINITE)
def test_const_ids_name_their_exact_constant(c):
    fid = make_const(c, 1.0, 2.0).fid
    assert parse_id(fid) == ("const", c)
    assert from_id(fid, 1.0, 2.0).fid == fid


def test_ids_are_spelled_short_when_exact():
    assert make_power(2, 0, 1).fid == make_power(2.0, 0, 1).fid == "pow:2"
    assert make_power(1.25, 0, 1).fid == "pow:1.25"
    assert make_const(3, 0, 1).fid == "const:3"
    assert make_power(1.0993794607775926, 1, 2).fid == "pow:1.0993794607775926"
    assert certify_power_extended_s(1.0993794607775926, 1.0).target == "|d(pow:1.0993794607775926)|^1"
    assert [canonical_id(f) for f in ("pow:2.0", "pow:1.50", "exp", "const:3e0")] == [
        "pow:2", "pow:1.5", "exp", "const:3"
    ]


def test_parse_id():
    assert parse_id("exp") == ("exp", None)
    assert parse_id("pow:2.5") == ("pow", 2.5)
    assert parse_id("const:-1") == ("const", -1.0)
    for bad in ("foo", "pow:abc", "pow:nan", "const:inf", "exp:1"):
        with pytest.raises(FunctionDomainError):
            parse_id(bad)


def _exact_mean(fid: str, a: float, b: float):
    """(1/(b-a))∫ₐᵇ f at 50 digits, on the float endpoints as given."""
    import mpmath

    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(a), mpmath.mpf(b)
        family, value = parse_id(fid)
        if family == "exp":
            return (mpmath.exp(hi) - mpmath.exp(lo)) / (hi - lo)
        if family == "const":
            return mpmath.mpf(value)
        p = mpmath.mpf(value)
        if p == -1:
            return mpmath.log(hi / lo) / (hi - lo)
        return (hi ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (hi - lo))


def _mean_intervals():
    """(fid, a, b) at widths 1e-1 down to 1e-10: positive and zero left
    endpoints, and for integer powers intervals across and left of 0; then
    wide intervals, where x^p's mean is the direct difference."""
    widths = [10.0**-k for k in range(1, 11)]
    for fid in ("pow:0.5", "pow:1.5", "pow:2", "pow:3", "pow:-1", "pow:-2", "pow:0", "exp", "const:2.5"):
        family, p = parse_id(fid)
        for w in widths:
            spans = [(a, a + w) for a in (0.3, 1.0, 7.5)]
            if family != "pow" or p >= 1.0:
                spans.append((0.0, w))
            if family != "pow" or p in (2.0, 3.0):
                spans += [(-w / 3.0, 2.0 * w / 3.0), (-w, 0.0), (-1.0 - w, -1.0)]
            for a, b in spans:
                yield fid, a, b
        for a, b in ((1.0, 2.0), (1.0, 3.0), (0.01, 5.0), (3.0, 400.0)):
            yield fid, a, b


def test_power_mean_survives_an_overflowing_difference():
    # b^(p+1) = 1e450 overflows while the mean, (2/3)·1e150, does not.
    got = make_power(0.5, 1.0, 1e300).mean(1.0, 1e300)
    assert math.isfinite(got) and math.isclose(got, (2.0 / 3.0) * 1e150, rel_tol=1e-14)
    # At b = 1.5e308, (p+1)·(b-a) overflows too.
    got = make_power(0.5, 1.0, 1.5e308).mean(1.0, 1.5e308)
    assert math.isclose(got, math.sqrt(1.5e308) / 1.5, rel_tol=1e-14)


def test_mixed_sign_power_mean_survives_an_overflowing_difference():
    # Across 0, b^(p+1) and a^(p+1) overflow while the mean does not.
    assert make_power(1, -1e200, 1e200).mean(-1e200, 1e200) == 0.0
    assert make_power(3, -1e100, 1e100).mean(-1e100, 1e100) == 0.0
    got = make_power(2, -1e150, 1e120).mean(-1e150, 1e120)
    exact = float(_exact_mean("pow:2", -1e150, 1e120))
    assert math.isclose(exact, 3.33e299, rel_tol=1e-3)
    assert abs(got - exact) <= 4.0 * math.ulp(exact), (got, exact)
    # Here b - a overflows too; the mean of x is (a + b)/2.
    got = make_power(1, -1e308, 1.5e308).mean(-1e308, 1.5e308)
    assert abs(got - 2.5e307) <= 4.0 * math.ulp(2.5e307), got


def test_exact_means_agree_with_mpmath_and_quadrature():
    from hhverify.quadrature import ABS_FLOOR, mean_integral

    eps = 2.0**-52
    count = 0
    for fid, a, b in _mean_intervals():
        f = from_id(fid, a, b)
        got = f.mean(a, b)
        exact = _exact_mean(fid, a, b)
        # The function's size on [a, b]: across 0, x^3's mean is far smaller.
        scale = max(abs(float(exact)), abs(f.eval(a)), abs(f.eval(b)))
        assert abs(got - exact) <= 4.0 * eps * scale, (fid, a, b, got, float(exact))
        # GK15 aims at max(ABS_FLOOR, 1e-12·|∫f|) by its own error estimate,
        # which is not a bound (x^1.5 on [0, 0.01] is 7e-12 off): 10x that.
        gk15_target = max(ABS_FLOOR / (b - a), 1e-12 * scale)
        assert abs(got - mean_integral(f, a, b)) <= 10.0 * gk15_target, (fid, a, b)
        count += 1
    assert count > 300
