import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhverify.errors import FunctionDomainError
from hhverify.functions import (
    FunctionSpec,
    analytic_order,
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


def test_parse_id():
    assert parse_id("exp") == ("exp", None)
    assert parse_id("pow:2.5") == ("pow", 2.5)
    assert parse_id("const:-1") == ("const", -1.0)
    for bad in ("foo", "pow:abc", "pow:nan", "const:inf", "exp:1"):
        with pytest.raises(FunctionDomainError):
            parse_id(bad)
