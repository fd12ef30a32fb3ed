import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhverify.errors import FunctionDomainError
from hhverify.functions import (
    FunctionSpec,
    certify_convex_envelope,
    certify_power_extended_s,
    check_extended_s_convex,
    derivative_consistency,
    derivative_q_envelope,
    from_id,
    make_const,
    make_exp,
    make_power,
    parse_id,
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
    cert = certify_power_extended_s(2, 1)
    assert cert.status == "certified-analytic" and cert.s == 1.0
    cert = certify_power_extended_s(0.5, 1)
    assert cert.status == "certified-analytic" and cert.s == -0.5
    cert = certify_power_extended_s(2, 3)
    assert cert.status == "not-falsified" and cert.s is None


def test_certify_boundary_inclusion():
    # (p-1)q = 1 is included, (p-1)q = -1 is not
    assert certify_power_extended_s(1.5, 2).status == "certified-analytic"
    assert certify_power_extended_s(0.5, 2).status == "not-falsified"


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
        cert = certify_power_extended_s(p, q)
        assert cert.status == "certified-analytic"
        f = make_power(p, 0.1, 3.0)
        envelope = derivative_q_envelope(f, q)
        check = check_extended_s_convex(envelope, 0.1, 3.0, cert.s, samples=150, seed=seed)
        assert check.status == "not-falsified"


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.05, 2.0),
    q=st.floats(1.0, 5.0),
    seed=st.integers(0, 2**16),
)
def test_certified_power_never_falsified_property(p, q, seed):
    assume(-1.0 < (p - 1.0) * q <= 1.0)
    cert = certify_power_extended_s(p, q)
    assert cert.status == "certified-analytic"
    envelope = derivative_q_envelope(make_power(p, 0.05, 2.5), q)
    check = check_extended_s_convex(envelope, 0.05, 2.5, cert.s, samples=40, seed=seed)
    assert check.status == "not-falsified"


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
    cert = certify_convex_envelope(fid, lo, q)
    assert cert is not None and cert.status == "certified-analytic" and cert.s == 1.0
    hi = lo + 2.5
    envelope = derivative_q_envelope(from_id(fid, lo, hi), q)
    for s in (-1.0, 0.0, 1.0):
        check = check_extended_s_convex(envelope, lo, hi, s, samples=100, seed=5)
        assert check.status == "not-falsified"


def test_convexity_rule_needs_positive_interval_for_negative_gamma():
    assert certify_convex_envelope("pow:0.5", 0.0, 1.0) is None
    assert certify_convex_envelope("pow:0.5", 0.1, 1.0) is not None


def test_convexity_rule_leaves_concave_envelopes_to_the_sampler():
    # pow:1.5 at q = 1 has envelope 1.5·x^0.5 (γ = 0.5): concave, so no rule
    # covers order s = 1 and the sampler falsifies it.
    assert certify_convex_envelope("pow:1.5", 0.5, 1.0) is None
    envelope = derivative_q_envelope(make_power(1.5, 0.5, 2.0), 1.0)
    assert check_extended_s_convex(envelope, 0.5, 2.0, 1.0, samples=64).status == "falsified"


@pytest.mark.parametrize("q", [math.nan, math.inf, 0.5])
def test_envelope_rules_reject_q_outside_finite_q_ge_1(q):
    # NaN fails every comparison, so only a check that q lies in [1, inf)
    # rejects it; the power rule already has that check.
    with pytest.raises(FunctionDomainError, match="finite q >= 1"):
        certify_convex_envelope("exp", 0.0, q)
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
