import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import moments
from hhverify.errors import (
    HolderExponentError,
    MomentParameterError,
    NonIntegrableSingularityError,
    QuadratureNonConvergenceError,
)
from hhverify.moments import (
    MOMENT_CASES,
    MomentSpec,
    holder_norm,
    kernel_mass,
    libm,
    moment_case,
    moment_general,
    moment_harmonic,
    moment_oracle,
    power,
)
from hhverify.quadrature import integrate, integrate_batch

TWO_LN2_MINUS_1 = 2.0 * math.log(2.0) - 1.0


def test_general_spot_values():
    assert math.isclose(moment_general(MomentSpec(1, 1, 0, 1)), 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(moment_general(MomentSpec(0, 1, 0, 0)), 0.5, rel_tol=1e-14)
    assert math.isclose(moment_general(MomentSpec(0.5, 1, 1, 1)), 0.375, rel_tol=1e-14)


def test_case_spot_values():
    assert math.isclose(moment_case((1, 0), 1.0, 1.0), 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(moment_case((-1, 1), 0.0, 1.0), 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(moment_case((1, 1), 0.5, 1.0), 0.375, rel_tol=1e-14)


def test_harmonic_spot_values():
    assert math.isclose(moment_harmonic(1, 1, 1), TWO_LN2_MINUS_1, rel_tol=1e-14)
    assert math.isclose(moment_harmonic(0, 1, 0), 1.0, rel_tol=1e-14)
    assert math.isclose(moment_harmonic(0, -1, 2), TWO_LN2_MINUS_1, rel_tol=1e-14)


def test_holder_spot_values():
    # At q = 2 the norm is the square root of ∫|ξ - t|² dt: 1/3, 1/12, 1/3.
    assert math.isclose(holder_norm(0.0, 2.0), math.sqrt(1.0 / 3.0), rel_tol=1e-14)
    assert math.isclose(holder_norm(0.5, 2.0), math.sqrt(1.0 / 12.0), rel_tol=1e-14)
    assert math.isclose(holder_norm(1.0, 2.0), math.sqrt(1.0 / 3.0), rel_tol=1e-14)


def test_holder_extreme_exponent_underflows_cleanly():
    # The integral underflows to 0 here; the norm tends to max(ξ, 1 - ξ).
    q = 1.0 + 1e-8
    assert math.isclose(holder_norm(0.5, q), 0.5, rel_tol=1e-6)


def _holder_norm_exact(xi, q):
    """(∫₀¹ |ξ - t|^(q/(q-1)) dt)^(1-1/q) at 50 digits, on the float ξ and q as given."""
    import mpmath

    with mpmath.workdps(50):
        x, q = mpmath.mpf(xi), mpmath.mpf(q)
        r = (2 * q - 1) / (q - 1)
        return float(((q - 1) / (2 * q - 1) * (x**r + (1 - x) ** r)) ** ((q - 1) / q))


def test_holder_norm_agrees_with_mpmath():
    # q - 1 from 1e-9, where the integral itself underflows to 0, to 10.
    rng = np.random.default_rng(17)
    steps = 1.0 + 10.0 ** np.linspace(-9.0, 1.0, 41)
    points = [(xi, float(q)) for xi in (0.0, 0.5, 1.0, 1e-6, 1.0 - 1e-6) for q in steps]
    points += [(float(xi), float(1.0 + 10.0**e)) for xi, e in zip(rng.uniform(size=300), rng.uniform(-9.0, 1.0, 300))]
    for xi, q in points:
        exact = _holder_norm_exact(xi, q)
        assert abs(holder_norm(xi, q) - exact) <= 4.0 * math.ulp(exact), (xi, q)


def test_oracle_equivalence_seeded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        xi = rng.uniform()
        s = rng.uniform(-0.9, 1.0)
        om = rng.uniform(0.25, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        if rng.uniform() < 0.15:
            eta = 0.0 if om > 0 else -om
        else:
            eta = rng.uniform(max(0.0, -om), max(0.0, -om) + 2.0)
        closed = moment_general(MomentSpec(xi, om, eta, s))
        orc = moment_oracle(xi, om, eta, s)
        assert abs(closed - orc) <= 1e-9 * (1.0 + abs(orc))


def test_oracle_with_a_vanishing_weight_and_negative_s():
    # The weight ωt vanishes at t = 0 and s < 0, so the integrand is singular
    # there and the oracle grades that endpoint on demand.
    rng = np.random.default_rng(11)
    for _ in range(300):
        xi = float(rng.uniform())
        om = float(rng.uniform(0.25, 2.0))
        s = float(rng.uniform(-0.9, 0.0))
        closed = moment_general(MomentSpec(xi, om, 0.0, s))
        orc = moment_oracle(xi, om, 0.0, s)
        assert abs(orc - closed) <= 1e-12 * (1.0 + abs(closed))


def test_transcription_equivalence_grids():
    for case in MOMENT_CASES:
        for xi in np.linspace(0.0, 1.0, 50):
            for s in np.linspace(-0.9, 1.0, 50):
                shown = moment_case(case, float(xi), float(s))
                general = moment_general(MomentSpec(float(xi), case[0], case[1], float(s)))
                assert abs(shown - general) <= 1e-12 * (1.0 + abs(general))


def test_kernel_mass_is_unit_weight_moment():
    for xi in np.linspace(0.0, 1.0, 21):
        assert math.isclose(moment_case((1, 0), float(xi), 0.0), kernel_mass(float(xi)), rel_tol=1e-13)


def test_s_zero_collapses_to_kernel_mass_for_any_weight():
    # (ωt + η)^0 = 1, so the general closed form must cancel ω and η exactly.
    for om, eta in [(1.0, 0.0), (2.0, 0.5), (-1.0, 1.0), (-0.7, 2.3), (0.3, 0.0)]:
        for xi in np.linspace(0.0, 1.0, 11):
            value = moment_general(MomentSpec(float(xi), om, eta, 0.0))
            assert math.isclose(value, kernel_mass(float(xi)), rel_tol=1e-12)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 10.0])
@pytest.mark.parametrize("xi", [0.0, 0.25, 0.5, 1.0])
def test_holder_against_oracle(q, xi):
    r = q / (q - 1.0)
    res = integrate(lambda t: abs(xi - t) ** r, 0.0, 1.0, breakpoints=[xi])
    norm = res.value ** ((q - 1.0) / q)
    assert abs(holder_norm(xi, q) - norm) <= 1e-9 * (1.0 + norm)


def test_verbatim_case_deviates():
    corrected = moment_case((-1, 2), 0.3, 0.5)
    verbatim = moment_case((-1, 2), 0.3, 0.5, verbatim=True)
    assert abs(verbatim - corrected) > 1e-3
    # the flag changes nothing on the other three cases
    for case in MOMENT_CASES[:3]:
        assert moment_case(case, 0.3, 0.5, verbatim=True) == moment_case(case, 0.3, 0.5)


def test_parameter_errors():
    with pytest.raises(MomentParameterError):
        MomentSpec(1.5, 1, 0, 1)
    with pytest.raises(MomentParameterError):
        MomentSpec(0.5, 0, 0, 1)
    with pytest.raises(MomentParameterError):
        MomentSpec(0.5, 1, -0.5, 1)
    with pytest.raises(MomentParameterError):
        MomentSpec(0.5, -2, 1, 1)  # omega + eta < 0
    with pytest.raises(MomentParameterError):
        moment_general(MomentSpec(0.5, 1, 1, -1.0))
    with pytest.raises(HolderExponentError):
        holder_norm(0.5, 1.0)


def test_harmonic_divergence_detected():
    with pytest.raises(NonIntegrableSingularityError):
        moment_harmonic(0.5, 1, 0)  # weight vanishes at t=0, kernel zero at 0.5
    with pytest.raises(NonIntegrableSingularityError):
        moment_harmonic(0.3, -1, 1)  # weight vanishes at t=1


@settings(max_examples=200, deadline=None)
@given(
    xi=st.floats(0.0, 1.0),
    s=st.floats(-0.9, 1.0),
    om=st.floats(0.25, 2.0),
    eta=st.floats(0.0, 2.0),
)
def test_moment_nonnegative_and_bounded(xi, s, om, eta):
    value = moment_general(MomentSpec(xi, om, eta, s))
    assert value >= 0.0
    # |ξ-t| <= 1, so the moment is at most the full weight integral
    full = ((om + eta) ** (s + 1.0) - eta ** (s + 1.0)) / (om * (s + 1.0))
    assert value <= full * (1.0 + 1e-12) + 1e-12


def _xi_column(n=2000, seed=5):
    """Seeded ξ in [0, 1] with the exact 0, 0.5 and 1 at its head."""
    xi = np.random.default_rng(seed).uniform(size=n)
    xi[:3] = (0.0, 0.5, 1.0)
    return xi


@pytest.mark.parametrize("verbatim", [False, True])
@pytest.mark.parametrize("case", MOMENT_CASES)
def test_moment_case_array_is_bit_identical(case, verbatim):
    xi = _xi_column()
    for s in (-0.9, 0.0, 0.5, 1.0):
        values = moment_case(case, xi, s, verbatim=verbatim)
        assert values.tolist() == [moment_case(case, x, s, verbatim=verbatim) for x in xi.tolist()]


def test_holder_weight_and_kernel_mass_arrays_are_bit_identical():
    xi = _xi_column()
    for q in (1.5, 2.0, 4.0, 1.0 + 1e-6):
        assert holder_norm(xi, q).tolist() == [holder_norm(x, q) for x in xi.tolist()], q
    assert kernel_mass(xi).tolist() == [kernel_mass(x) for x in xi.tolist()]


def test_power_maps_libm_pow_over_arrays():
    # numpy's own power differs from libm in the last bit on a few percent
    # of these; `power` must give exactly the float result, fast paths included.
    x = np.random.default_rng(9).uniform(0.0, 3.0, 5000)
    x[:2] = (0.0, 1.0)
    for y in (2.5, 2.0, 0.5, 1.0 / 3.0, 1.0, 0.0):
        assert power(x, y).tolist() == [v**y for v in x.tolist()], y
        assert power(float(x[7]), y) == float(x[7]) ** y
    assert power(x, 1.0).dtype == power(x, 0.0).dtype == np.float64
    assert libm(math.exp, -x).tolist() == [math.exp(-v) for v in x.tolist()]
    assert libm(math.exp, 0.25) == math.exp(0.25)


@pytest.mark.parametrize("bad", [-1e-12, 1.5, math.nan])
def test_array_xi_outside_unit_interval_raises_like_the_float(bad):
    xi = _xi_column(n=10)
    xi[6] = bad
    for call in (
        lambda x: moment_case((1, 1), x, 0.5),
        lambda x: holder_norm(x, 2.0),
    ):
        with pytest.raises(MomentParameterError) as scalar:
            call(bad)
        with pytest.raises(MomentParameterError) as array:
            call(xi)
        assert str(array.value) == str(scalar.value)


def test_oracle_refuses_a_nonconverged_value():
    # Near the harmonic pole the singular panel reaches its width floor
    # before the tolerance, so the oracle has no value to give.
    with pytest.raises(QuadratureNonConvergenceError, match="did not converge"):
        moment_oracle(0.3, 1.0, 0.0, -0.9999)


def _vanishing_moment_exact(xi, s):
    """∫₀¹ |ξ - t| t^s dt at 50 digits, on the float ξ and s as given."""
    import mpmath

    with mpmath.workdps(50):
        x, s = mpmath.mpf(xi), mpmath.mpf(s)
        return float((2 * x ** (s + 2) + (s + 1) - (s + 2) * x) / ((s + 1) * (s + 2)))


def _vanishing_weights(xi, s, om=1.3):
    """(ω, η, exact) for the weights ωt, zero at t = 0, and ω(1 - t), zero at
    t = 1; exact is ω^s ∫₀¹ |ξ' - t| t^s dt with ξ' = ξ or 1 - ξ."""
    scale = om ** s
    return [(om, 0.0, scale * _vanishing_moment_exact(xi, s)),
            (-om, om, scale * _vanishing_moment_exact(1.0 - xi, s))]


@pytest.mark.parametrize("s", [-0.5, -0.9, -0.95, -0.99, -0.999, -0.9999, -0.99999, -1.0 + 1e-6])
def test_oracle_is_never_silently_wrong_near_the_pole(s):
    # A value within tolerance, or a refusal, which only s <= -0.9999 may
    # give.  An uncapped m would make u^m underflow at every node and
    # return ~0 as converged.
    for xi in (0.0, 0.3, 1.0):
        for om, eta, exact in _vanishing_weights(xi, s):
            try:
                value = moment_oracle(xi, om, eta, s)
            except QuadratureNonConvergenceError:
                assert s <= -0.9999, (xi, om, s)
                continue
            assert abs(value - exact) <= 1e-12 * (1.0 + abs(exact)), (xi, om, s)


def test_oracle_substitution_cuts_the_panels_at_a_vanishing_weight(monkeypatch):
    # Graded toward t = 0 at ratio 0.25, t^-0.8 took 5,340 evaluations.
    evaluations = []

    def counted(*args, **kwargs):
        results = integrate_batch(*args, **kwargs)
        evaluations.append([res.evaluations for res in results])
        return results

    monkeypatch.setattr(moments, "integrate_batch", counted)
    value = moment_oracle(0.37, 1.3, 0.0, -0.8)
    assert abs(value - moment_general(MomentSpec(0.37, 1.3, 0.0, -0.8))) <= 1e-12 * (1.0 + abs(value))
    assert len(evaluations) == 1 and len(evaluations[0]) == 1 and evaluations[0][0] <= 400


def _q_column(n=2000, seed=6):
    """Seeded q > 1 (down to 1 + 1e-6) with 1.5, 2 and 4 at its head."""
    q = 1.0 + 10.0 ** np.random.default_rng(seed).uniform(-6.0, 1.0, n)
    q[:3] = (1.5, 2.0, 4.0)
    return q


def test_s_and_q_columns_are_bit_identical():
    # Mean rows pass s and q as columns, alone or with a ξ column.
    xi, q = _xi_column(), _q_column()
    s = np.random.default_rng(8).uniform(-0.9, 1.0, xi.size)
    for case in MOMENT_CASES:
        for x in (xi, 0.3):
            expected = [moment_case(case, v, w) for v, w in zip(np.broadcast_to(x, s.shape).tolist(), s.tolist())]
            assert moment_case(case, x, s).tolist() == expected, case
    for x in (xi, 0.3):
        expected = [holder_norm(v, w) for v, w in zip(np.broadcast_to(x, q.shape).tolist(), q.tolist())]
        assert holder_norm(x, q).tolist() == expected
    assert power(2.0, s).tolist() == [2.0**v for v in s.tolist()]
    assert power(xi, q).tolist() == [v**w for v, w in zip(xi.tolist(), q.tolist())]


def test_s_and_q_columns_refuse_their_first_bad_entry_like_the_float():
    s, q = np.full(5, 0.5), np.full(5, 2.0)
    s[2:4], q[3:] = -0.9999999, 1.0
    with pytest.raises(MomentParameterError, match=r"^s=-0\.9999999 too close"):
        moment_case((1, 0), 0.5, s)
    with pytest.raises(HolderExponentError, match=r"^q=1\.0 too close"):
        holder_norm(0.5, q)


@pytest.mark.parametrize("args", [(1.5, 1.0, 1.0, 0.5), (0.3, -1.0, 0.0, 0.5), (0.3, -1.0, 0.5, 0.5),
                                  (0.3, 0.0, 1.0, 0.5), (0.3, 1.0, -0.5, 0.5), (0.3, 1.0, 1.0, -1.5)])
def test_oracle_refuses_what_moment_spec_refuses(args):
    # ξ = 1.5 used to return 0.6, and a weight negative on (0, 1) escaped as
    # a bare TypeError from the quadrature.
    with pytest.raises(MomentParameterError) as spec:
        MomentSpec(*args)
    with pytest.raises(MomentParameterError) as oracle:
        moment_oracle(*args)
    assert str(oracle.value) == str(spec.value)
    # On columns the first bad entry is refused, with the same message.
    good = np.array([0.3, 1.0, 1.0, 0.5])
    columns = np.array([good, args, good, args]).T
    with pytest.raises(MomentParameterError) as column:
        moment_oracle(*columns)
    assert str(column.value) == str(spec.value)


def _oracle_column(n=60, seed=9):
    """Seeded (ξ, ω, η, s) rows: smooth weights, weights vanishing at 0 and
    at 1 (ω t and ω (1 - t)), s = -1 rows, and ξ at 0 and 1."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(n):
        xi, s, om = float(rng.uniform()), float(rng.uniform(-0.9, 1.0)), float(rng.uniform(0.25, 2.0))
        kind = k % 4
        if kind == 0:
            rows.append((xi, -om, om + float(rng.uniform(0.1, 2.0)), s))
        elif kind == 1:
            rows.append((xi, om, 0.0, s))
        elif kind == 2:
            rows.append((xi, -om, om, s))
        else:
            rows.append((xi, om, float(rng.uniform(0.1, 2.0)), -1.0))
    rows += [(0.0, 1.0, 0.0, -1.0), (1.0, 1.0, 1.0, -1.0), (0.0, 1.3, 0.0, -0.5), (1.0, -0.7, 0.7, 0.25)]
    return np.array(rows).T


# sha256 of the float64 bytes of `_oracle_column()`'s moments, one float
# oracle call each, as the per-draw loop over `integrate` gave them.
ORACLE_COLUMN_DIGEST = "9ce8161025d06a2a5eacd15d739cbba2cf998180a4622c7a96d86bd07d2ead72"


def test_oracle_column_is_bit_identical_to_its_float_calls():
    xi, om, eta, s = _oracle_column()
    column = moment_oracle(xi, om, eta, s)
    floats = [moment_oracle(*row) for row in zip(xi.tolist(), om.tolist(), eta.tolist(), s.tolist())]
    assert column.tobytes() == np.array(floats).tobytes()
    assert hashlib.sha256(column.tobytes()).hexdigest() == ORACLE_COLUMN_DIGEST
    # Floats broadcast against the columns, as in moment_case.
    assert moment_oracle(0.3, om, np.abs(om) + 0.5, 0.5).tolist() == [
        moment_oracle(0.3, w, abs(w) + 0.5, 0.5) for w in om.tolist()]


def test_oracle_column_refuses_its_nonconverged_draw_like_the_float_call():
    xi, om, eta, s = _oracle_column(n=12)
    xi, om, eta, s = (np.insert(c, 5, v) for c, v in zip((xi, om, eta, s), (0.3, 1.0, 0.0, -0.9999)))
    with pytest.raises(QuadratureNonConvergenceError) as single:
        moment_oracle(0.3, 1.0, 0.0, -0.9999)
    with pytest.raises(QuadratureNonConvergenceError) as column:
        moment_oracle(xi, om, eta, s)
    assert str(column.value) == str(single.value)
    assert "error estimate" in str(column.value) and "evaluations" in str(column.value)


def test_moment_general_columns_are_bit_identical():
    xi, om, eta, s = _oracle_column(n=400, seed=4)
    keep = s > -1.0
    xi, om, eta, s = xi[keep], om[keep], eta[keep], s[keep]
    column = moment_general(MomentSpec(xi, om, eta, s))
    floats = [moment_general(MomentSpec(*row)) for row in zip(xi.tolist(), om.tolist(), eta.tolist(), s.tolist())]
    assert column.tobytes() == np.array(floats).tobytes()
    with pytest.raises(MomentParameterError, match=r"^eta must be >= 0, got -0\.5$"):
        MomentSpec(xi[:3], om[:3], np.array([1.0, -0.5, -0.7]), s[:3])
