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
that has one.  Each formula is written once for both: its arithmetic runs
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
from .quadrature import DEFAULT_TOL, integrate

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
    xi: float
    omega: float
    eta: float
    s: float

    def __post_init__(self) -> None:
        _check_xi(self.xi)
        if self.omega == 0.0 or not math.isfinite(self.omega):
            raise MomentParameterError("omega must be nonzero and finite")
        if self.eta < 0.0:
            raise MomentParameterError(f"eta must be >= 0, got {self.eta!r}")
        if self.omega + self.eta < 0.0:
            raise MomentParameterError("need omega + eta >= 0 so the weight is nonnegative")
        if self.s < -1.0:
            raise MomentParameterError(f"s must be >= -1, got {self.s!r}")


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


def _refuse(x, bad, error, message: str) -> None:
    """Raise error(message) naming the first entry of x (a float or an
    array) where bad holds, if there is one."""
    first = x[bad(x)].tolist()[:1] if isinstance(x, np.ndarray) else [x] if bad(x) else []
    if first:
        raise error(message.format(first[0]))


def _check_xi(xi) -> None:
    """Raise MomentParameterError naming the first ξ outside [0, 1]."""
    # x != x holds for NaN alone, which lies outside too.
    _refuse(xi, lambda x: (x < 0.0) | (x > 1.0) | (x != x), MomentParameterError, "xi must lie in [0, 1], got {!r}")


def kernel_mass(xi: float) -> float:
    """∫₀¹ |ξ - t| dt, the unweighted kernel mass ξ² - ξ + 1/2."""
    return xi * xi - xi + 0.5


def moment_general(m: MomentSpec) -> float:
    """Closed form of ∫₀¹ |ξ - t| (ωt + η)^s dt for s > -1.

    Terms 0^(s+1) with s+1 > 0 evaluate to 0 (eta = 0 or omega + eta = 0).
    """
    if m.s < S_MIN:
        raise MomentParameterError(
            f"s={m.s!r} is within 1e-6 of the harmonic pole; use moment_harmonic for s = -1"
        )
    xi, om, eta, s = m.xi, m.omega, m.eta, m.s
    t1 = 2.0 * (om * xi + eta) ** (s + 2.0)
    t2 = (eta + (s + 2.0) * om * xi) * eta ** (s + 1.0)
    t3 = (2.0 * om * xi + eta + s * om * (xi - 1.0) - om) * (om + eta) ** (s + 1.0)
    return (t1 - t2 - t3) / (om * om * (s + 1.0) * (s + 2.0))


def moment_case(case: tuple[float, float], xi: float, s: float, verbatim: bool = False) -> float:
    """Special-case displays of `moment_general` for the four named (ω, η).

    ξ and s are floats or float64 arrays.  With ``verbatim=True`` the (-1, 2)
    case reproduces the published bracket "(s+2)η" instead of the corrected
    "(s+2)ξ"; every other case is identical either way.  Must agree with
    `moment_general` (verbatim=False).
    """
    _check_xi(xi)
    _refuse(s, lambda s: s < S_MIN, MomentParameterError, "s={!r} too close to -1; use moment_harmonic")
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


def moment_oracle(
    xi: float, omega: float, eta: float, s: float, tol: float = DEFAULT_TOL
) -> float:
    """Adaptive-quadrature evaluation of ∫₀¹ |ξ - t| (ωt + η)^s dt.

    Independent cross-check for the closed forms.  A weight vanishing at
    t = 1 is reflected (u = 1 - t) so the zero lands at 0, where float
    resolution is effectively unbounded.

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
    s + 1 < 1/48, where `integrate` grades toward the singularity as before.

    Raises QuadratureNonConvergenceError when the quadrature stops short of
    `tol` (for s near -1 the panels reach their width floor first): its
    error estimate then understates the missing tail, so no value is
    returned.
    """
    if omega + eta == 0.0:
        # |ξ - (1-u)| ((ω+η) - ωu)^s = |(1-ξ) - u| (-ω u)^s exactly.
        return moment_oracle(1.0 - xi, -omega, 0.0, s, tol)

    if eta == 0.0 and s > -1.0:
        m = min(SUBST_CAP, math.ceil(SUBST_ORDER / (s + 1.0)))
        scale, e = m * omega ** s, m * (s + 1.0) - 1.0

        def f(u: float) -> float:
            return scale * abs(xi - u ** m) * u ** e

        kink = xi ** (1.0 / m)
    else:
        def f(t: float) -> float:
            return abs(xi - t) * (omega * t + eta) ** s

        kink = xi

    res = integrate(f, 0.0, 1.0, tol, breakpoints=(kink,))
    if not res.converged:
        raise QuadratureNonConvergenceError(
            f"moment oracle did not converge to tol={tol!r} (error estimate "
            f"{res.err_estimate!r} after {res.evaluations} evaluations)"
        )
    return res.value


def holder_norm(xi: float, q: float) -> float:
    """(∫₀¹ |ξ - t|^(q/(q-1)) dt)^(1-1/q) for q > 1, ξ and q floats or arrays.

    With ρ = (q-1)/q, r = (2q-1)/(q-1), M = max(ξ, 1-ξ) and m = min(ξ, 1-ξ)
    it is ((q-1)/(2q-1))^ρ · M^((2q-1)/q) · (1 + (m/M)^r)^ρ, which tends to
    M as q -> 1; the integral itself underflows to 0 once q - 1 < ~1e-3.
    ρ is (q-1)/q because 1 - 1/q loses about 8 digits at q - 1 = 1e-8.
    """
    _check_xi(xi)
    _refuse(q, lambda q: q < 1.0 + Q_BRANCH_EPS, HolderExponentError,
            "q={!r} too close to 1 for the conjugate exponent; use a q = 1 branch")
    hi, lo = (np.maximum, np.minimum) if isinstance(xi, np.ndarray) else (max, min)
    big, small = hi(xi, 1.0 - xi), lo(xi, 1.0 - xi)
    rho = (q - 1.0) / q
    r = (2.0 * q - 1.0) / (q - 1.0)
    return (power((q - 1.0) / (2.0 * q - 1.0), rho) * power(big, (2.0 * q - 1.0) / q)
            * power(1.0 + power(small / big, r), rho))
