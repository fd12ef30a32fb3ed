"""Closed forms for the kernel moments  ∫₀¹ |ξ - t| (ωt + η)^s dt.

These weights are what every bound in the catalog reduces to, so each closed
form here is paired with an independent quadrature oracle (`moment_oracle`)
in the test suite.  The four named special cases mirror the published
displays; the (ω, η) = (-1, 2) display is shipped in corrected form — its
final bracket must read (s+2)ξ, which follows from substituting into the
general formula — and the verbatim transcription stays available behind a
flag so the erratum scan can measure the discrepancy.

`holder_norm` is the kernel's conjugate-exponent norm, the weight of every
q > 1 Hölder display.  It, `kernel_mass` and `moment_case` take ξ, and
`holder_norm` and `moment_case` take q and s, as floats or as float64
arrays, one entry per row, so a sweep evaluates a whole block of rows in
one call; an s or q too close to its pole is refused for the first row
that has one.  `MomentSpec` fields, and so `moment_general`, and
`moment_oracle`'s ξ, ω, η and s take columns too, validated once
(`_check_moment`) for both: the oracle integrates all the moments of a
column in one `quadrature.integrate_batch` call, its integrand written
through `power`.  Each formula is written once for both: its arithmetic runs
in the same order on a float as on every element of an array, and every
power goes through `power`, which maps the platform libm's pow over the
broadcast base and exponent element by element; on floats it is the float
power itself.  numpy's own power is a vectorised approximation that differs from libm in
the last bit on a few percent of inputs (even x**2 and x**0.5 take their
own fast paths), so only this keeps each array element bit-identical to the
float the same row would give on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HolderExponentError,
    MomentParameterError,
    NonIntegrableSingularityError,
    QuadratureNonConvergenceError,
)
# `integrate` is not called here; `perfbench/tracer.py` patches it here.
from .quadrature import DEFAULT_TOL, integrate, integrate_batch  # noqa: F401

__all__ = [
    "MomentSpec",
    "MOMENT_CASES",
    "Q_BRANCH_EPS",
    "kernel_mass",
    "moment_general",
    "moment_case",
    "moment_harmonic",
    "moment_oracle",
    "holder_norm",
    "libm",
    "power",
]

# s may not approach the harmonic pole; exact s = -1 goes to moment_harmonic.
S_MIN = -1.0 + 1e-6
# q < 1 + Q_BRANCH_EPS has no conjugate exponent and takes the q = 1 branches.
Q_BRANCH_EPS = 1e-9
# moment_oracle's substitution t = u^m at a weight vanishing at 0: the least
# m with m(s+1) >= SUBST_ORDER, but no more than SUBST_CAP (see there for why).
SUBST_ORDER = 4.0
SUBST_CAP = 48

MOMENT_CASES = ((1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, 2.0))


@dataclass(frozen=True)
class MomentSpec:
    """(ξ, ω, η, s), each a float or a float64 column, one entry per moment."""

    xi: float
    omega: float
    eta: float
    s: float

    def __post_init__(self) -> None:
        _check_moment(self.xi, self.omega, self.eta, self.s)


def libm(fn, *args):
    """fn(*args) for floats; where some arguments are float64 arrays (of one
    shape), fn on each element with the floats repeated, so each element has
    the bits the floats give."""
    first = next((x for x in args if isinstance(x, np.ndarray)), None)
    if first is None:
        return fn(*args)
    columns = (x.ravel().tolist() if isinstance(x, np.ndarray) else itertools.repeat(x) for x in args)
    return np.fromiter(map(fn, *columns), np.float64, first.size).reshape(first.shape)


def power(x, y):
    """x ** y for floats, or libm's pow on each element where x or y is an array.

    pow(x, 1) = x and pow(x, 0) = 1 exactly, so an array x skips the calls
    for those float exponents (q = 1 gives both).
    """
    if not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray):
        return x ** y
    if isinstance(y, np.ndarray) or y not in (0.0, 1.0):
        return libm(math.pow, x, y)
    return x if y == 1.0 else np.ones_like(x)


def _refuse(bad, error, message: str, *columns) -> None:
    """Raise error(message) formatted with the entries of columns at the
    first place where bad holds, if there is one.  bad is a bool, or a bool
    array with one entry per row; each column is a float, one value for
    every row, or an array or list with one entry per row."""
    if bad is False:  # a float check that holds nowhere
        return
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        at = int(np.flatnonzero(bad)[0])
        columns = [c.ravel()[at].item() if isinstance(c, np.ndarray) else c[at] if isinstance(c, list) else c
                   for c in columns]
    elif not bad:
        return
    raise error(message.format(*columns))


def _refuse_nonfinite(values: tuple, error, message: str, *columns) -> None:
    """`_refuse` where some entry of values (floats, or arrays of one shape)
    is not finite."""
    if isinstance(values[0], np.ndarray):
        _refuse(~np.logical_and.reduce([np.isfinite(v) for v in values]), error, message, *columns)
    elif not all(map(math.isfinite, values)):
        raise error(message.format(*columns))


def _check_xi(xi) -> None:
    """Raise MomentParameterError naming the first ξ outside [0, 1]."""
    # x != x holds for NaN alone, which lies outside too.
    _refuse((xi < 0.0) | (xi > 1.0) | (xi != xi), MomentParameterError, "xi must lie in [0, 1], got {!r}", xi)


def _check_moment(xi, omega, eta, s) -> None:
    """Raise MomentParameterError for the first entry of the first of
    ξ, ω, η, ω + η and s outside the domain of ∫₀¹ |ξ - t| (ωt + η)^s dt."""
    _check_xi(xi)
    _refuse(omega == 0.0, MomentParameterError, "omega must be nonzero and finite")
    _refuse_nonfinite((omega,), MomentParameterError, "omega must be nonzero and finite")
    _refuse(eta < 0.0, MomentParameterError, "eta must be >= 0, got {!r}", eta)
    _refuse(omega + eta < 0.0, MomentParameterError, "need omega + eta >= 0 so the weight is nonnegative")
    _refuse(s < -1.0, MomentParameterError, "s must be >= -1, got {!r}", s)


def kernel_mass(xi: float) -> float:
    """∫₀¹ |ξ - t| dt, the unweighted kernel mass ξ² - ξ + 1/2."""
    return xi * xi - xi + 0.5


def moment_general(m: MomentSpec) -> float:
    """Closed form of ∫₀¹ |ξ - t| (ωt + η)^s dt for s > -1, on floats or
    on the columns of `m`.

    Terms 0^(s+1) with s+1 > 0 evaluate to 0 (eta = 0 or omega + eta = 0).
    """
    xi, om, eta, s = m.xi, m.omega, m.eta, m.s
    _refuse(s < S_MIN, MomentParameterError,
            "s={!r} is within 1e-6 of the harmonic pole; use moment_harmonic for s = -1", s)
    t1 = 2.0 * power(om * xi + eta, s + 2.0)
    t2 = (eta + (s + 2.0) * om * xi) * power(eta, s + 1.0)
    t3 = (2.0 * om * xi + eta + s * om * (xi - 1.0) - om) * power(om + eta, s + 1.0)
    return (t1 - t2 - t3) / (om * om * (s + 1.0) * (s + 2.0))


def moment_case(case: tuple[float, float], xi: float, s: float, verbatim: bool = False) -> float:
    """Special-case displays of `moment_general` for the four named (ω, η).

    ξ and s are floats or float64 arrays.  With ``verbatim=True`` the (-1, 2)
    case reproduces the published bracket "(s+2)η" instead of the corrected
    "(s+2)ξ"; every other case is identical either way.  Must agree with
    `moment_general` (verbatim=False).
    """
    _check_xi(xi)
    _refuse(s < S_MIN, MomentParameterError, "s={!r} too close to -1; use moment_harmonic", s)
    s2 = (s + 1.0) * (s + 2.0)
    key = tuple(case)  # (1, 0) == (1.0, 0.0)
    if key == (1.0, 0.0):
        return (2.0 * power(xi, s + 2.0) - (s + 2.0) * xi + s + 1.0) / s2
    if key == (1.0, 1.0):
        return (
            2.0 * power(xi + 1.0, s + 2.0)
            - ((s + 2.0) * xi - s) * power(2.0, s + 1.0)
            - (s + 2.0) * xi
            - 1.0
        ) / s2
    if key == (-1.0, 1.0):
        return (2.0 * power(1.0 - xi, s + 2.0) + (s + 2.0) * xi - 1.0) / s2
    if key == (-1.0, 2.0):
        # Corrected bracket is (s+2)ξ; the verbatim display prints (s+2)η with η = 2.
        last = (s + 2.0) * (2.0 if verbatim else xi)
        return (
            2.0 * power(2.0 - xi, s + 2.0)
            + ((s + 2.0) * xi - 2.0) * power(2.0, s + 1.0)
            + last
            - s
            - 3.0
        ) / s2
    raise MomentParameterError(f"unknown moment case {case!r}")


def moment_harmonic(xi: float, omega: float, eta: float) -> float:
    """Exact piecewise-log value of ∫₀¹ |ξ - t| (ωt + η)^(-1) dt.

    Integrable only when the weight is positive on (0, 1) or its zero sits
    exactly at the kernel zero t = ξ (matching first-order zeros cancel).
    """
    _check_xi(xi)
    if omega == 0.0:
        raise MomentParameterError("omega must be nonzero")
    w0 = eta
    w1 = omega + eta
    if w0 < 0.0 or w1 < 0.0:
        raise MomentParameterError("weight must be nonnegative on [0, 1]")
    c = omega * xi + eta
    if (w0 == 0.0 or w1 == 0.0) and c != 0.0:
        raise NonIntegrableSingularityError(
            "weight vanishes on [0, 1] away from the kernel zero; integral diverges"
        )

    def g(lo: float, hi: float) -> float:
        # ∫ (ξ - t)/(ωt + η) dt over [lo, hi]
        lin = -(hi - lo) / omega
        if c == 0.0:
            return lin
        return (c / (omega * omega)) * (
            math.log(omega * hi + eta) - math.log(omega * lo + eta)
        ) + lin

    return g(0.0, xi) - g(xi, 1.0)


def moment_oracle(xi: float, omega: float, eta: float, s: float, tol: float = DEFAULT_TOL) -> float:
    """Adaptive-quadrature evaluation of ∫₀¹ |ξ - t| (ωt + η)^s dt.

    Independent cross-check for the closed forms.  ξ, ω, η and s are
    floats, or float64 columns with one entry per moment, validated as
    `MomentSpec` validates them (a column is refused at its first bad
    entry).  All moments of a column are one `integrate_batch` call, each
    with its own panels, and each entry has the bits of its float call.

    A weight vanishing at t = 1 is reflected (u = 1 - t) so the zero lands
    at 0, where float resolution is effectively unbounded.

    A weight ωt vanishing at 0 (η = 0, s > -1) is integrated in u, with
    t = u^m: (ωt)^s dt = m ω^s u^(m(s+1)-1) du, an exact change of
    variables, so the integrand is m ω^s |ξ - u^m| u^(m(s+1)-1), with its
    kink at u = ξ^(1/m).  m is the least integer with m(s+1) >= SUBST_ORDER
    = 4, so the power of u is at least 3 and the integrand is at least C³
    at 0: GK15 converges on it without grading, where t^s itself would be
    graded toward 0 at ratio 0.25, each cut gaining only 4^(s+1) (~1.15 at
    s = -0.9).  m is capped at SUBST_CAP = 48 for correctness: as s -> -1
    an uncapped m grows without bound (40,000 at s = -0.9999), u^m
    underflows at every node, and the quadrature returns ~0 as converged.
    Capped, the power of u is below 3 once s + 1 < 1/12 and negative once
    s + 1 < 1/48, where the quadrature grades toward the singularity as
    before.  Every other moment is integrated in t; both integrands are
    scale·|ξ - u^m|·(w·u + c)^e, with (scale, m, w, c, e) = (1, 1, ω, η, s)
    in t and (m ω^s, m, 1, 0, m(s+1) - 1) in u.

    Raises QuadratureNonConvergenceError, for the first moment that has
    one, when the quadrature stops short of `tol` (for s near -1 the panels
    reach their width floor first): its error estimate then understates
    the missing tail, so no value is returned.
    """
    _check_moment(xi, omega, eta, s)
    columns = np.array(np.broadcast_arrays(xi, omega, eta, s), dtype=np.float64)
    shape = columns.shape[1:]
    xi, omega, eta, s = columns.reshape(4, -1)
    # |ξ - (1-u)| ((ω+η) - ωu)^s = |(1-ξ) - u| (-ω u)^s exactly.
    flip = omega + eta == 0.0
    xi[flip], omega[flip], eta[flip] = 1.0 - xi[flip], -omega[flip], 0.0

    subst = (eta == 0.0) & (s > -1.0)
    m, scale = np.ones_like(s), np.ones_like(s)
    m[subst] = np.minimum(SUBST_CAP, np.ceil(SUBST_ORDER / (s[subst] + 1.0)))
    scale[subst] = m[subst] * power(omega[subst], s[subst])
    w, c, e = np.where(subst, 1.0, omega), np.where(subst, 0.0, eta), np.where(subst, m * (s + 1.0) - 1.0, s)

    def f(rows, u):
        # t = u^m on the rows integrated in u; elsewhere m = 1 and t = u.
        t, sub = u, subst[rows]
        if sub.any():
            t = u.copy()
            t[sub] = power(u[sub], m[rows[sub]])
        return scale[rows] * abs(xi[rows] - t) * power(w[rows] * u + c[rows], e[rows])

    kinks = power(xi, 1.0 / m)
    results = integrate_batch(f, [0.0] * xi.size, [1.0] * xi.size, kinks[:, None].tolist(), tol)
    for res in results:
        if not res.converged:
            raise QuadratureNonConvergenceError(
                f"moment oracle did not converge to tol={tol!r} (error estimate "
                f"{res.err_estimate!r} after {res.evaluations} evaluations)"
            )
    values = [res.value for res in results]
    return np.array(values).reshape(shape) if shape else values[0]


def holder_norm(xi: float, q: float) -> float:
    """(∫₀¹ |ξ - t|^(q/(q-1)) dt)^(1-1/q) for q > 1, ξ and q floats or arrays.

    With ρ = (q-1)/q, r = (2q-1)/(q-1), M = max(ξ, 1-ξ) and m = min(ξ, 1-ξ)
    it is ((q-1)/(2q-1))^ρ · M^((2q-1)/q) · (1 + (m/M)^r)^ρ, which tends to
    M as q -> 1; the integral itself underflows to 0 once q - 1 < ~1e-3.
    ρ is (q-1)/q because 1 - 1/q loses about 8 digits at q - 1 = 1e-8.
    """
    _check_xi(xi)
    _refuse(q < 1.0 + Q_BRANCH_EPS, HolderExponentError,
            "q={!r} too close to 1 for the conjugate exponent; use a q = 1 branch", q)
    hi, lo = (np.maximum, np.minimum) if isinstance(xi, np.ndarray) else (max, min)
    big, small = hi(xi, 1.0 - xi), lo(xi, 1.0 - xi)
    rho = (q - 1.0) / q
    r = (2.0 * q - 1.0) / (q - 1.0)
    return (power((q - 1.0) / (2.0 * q - 1.0), rho) * power(big, (2.0 * q - 1.0) / q)
            * power(1.0 + power(small / big, r), rho))
