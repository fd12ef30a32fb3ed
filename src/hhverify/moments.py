"""Closed forms for the kernel moments  ∫₀¹ |ξ - t| (ωt + η)^s dt.

These weights are what every bound in the catalog reduces to, so each closed
form here is paired with an independent quadrature oracle (`moment_oracle`)
in the test suite.  The four named special cases mirror the published
displays; the (ω, η) = (-1, 2) display is shipped in corrected form — its
final bracket must read (s+2)ξ, which follows from substituting into the
general formula — and the verbatim transcription stays available behind a
flag so the erratum scan can measure the discrepancy.

`holder_norm` is the kernel's conjugate-exponent norm, the weight of every
q > 1 Hölder display.  It, `kernel_mass`, `moment_case` and
`holder_weight_integral` take ξ as a float or as a float64 array, one
entry per row (s and q stay floats), so a sweep evaluates a whole block of
rows in one call.  Each formula is written once for both: its arithmetic
runs in the same order on a float as on every element of an array, and on
an array every power of a per-row value goes through `power`, which maps
the platform libm's pow over it element by element; on a float it is the
float power itself, and powers of s and q alone are always floats.
numpy's own power is a vectorised approximation that differs from libm in
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
    "holder_weight_integral",
    "holder_norm",
    "libm",
    "power",
]

# s may not approach the harmonic pole; exact s = -1 goes to moment_harmonic.
S_MIN = -1.0 + 1e-6
# q < 1 + Q_BRANCH_EPS has no conjugate exponent and takes the q = 1 branches.
Q_BRANCH_EPS = 1e-9

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


def libm(fn, x, *args):
    """fn(x, *args) for a float x; for a float64 array x, fn on each element
    with the same float args, so each element has the bits the float gives."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    values = map(fn, x.tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, np.float64, x.size).reshape(x.shape)


def power(x, y: float):
    """x ** y for a float x, or libm's pow on each element of an array x.

    pow(x, 1) = x and pow(x, 0) = 1 exactly, so an array skips the calls
    for those exponents (q = 1 gives both).
    """
    if not isinstance(x, np.ndarray):
        return x ** y
    if y == 1.0:
        return x
    if y == 0.0:
        return np.ones_like(x)
    return libm(math.pow, x, y)


def _check_xi(xi) -> None:
    """Raise MomentParameterError naming the first ξ outside [0, 1]."""
    if isinstance(xi, np.ndarray):
        outside = ~((xi >= 0.0) & (xi <= 1.0))
        if not outside.any():
            return
        xi = float(xi[outside][0])
    elif 0.0 <= xi <= 1.0:
        return
    raise MomentParameterError(f"xi must lie in [0, 1], got {xi!r}")


def _checked_pw(xi):
    """`pow` for a float ξ in [0, 1], else `power` once ξ is checked."""
    if isinstance(xi, float) and 0.0 <= xi <= 1.0:
        return pow  # the float path of `power`, without its call
    _check_xi(xi)
    return power


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

    ξ is a float or a float64 array.  With ``verbatim=True`` the (-1, 2)
    case reproduces the published bracket "(s+2)η" instead of the corrected
    "(s+2)ξ"; every other case is identical either way.  Must agree with
    `moment_general` (verbatim=False).
    """
    pw = _checked_pw(xi)
    if s < S_MIN:
        raise MomentParameterError(f"s={s!r} too close to -1; use moment_harmonic")
    s2 = (s + 1.0) * (s + 2.0)
    key = tuple(case)  # (1, 0) == (1.0, 0.0)
    if key == (1.0, 0.0):
        return (2.0 * pw(xi, s + 2.0) - (s + 2.0) * xi + s + 1.0) / s2
    if key == (1.0, 1.0):
        return (
            2.0 * pw(xi + 1.0, s + 2.0)
            - ((s + 2.0) * xi - s) * 2.0 ** (s + 1.0)
            - (s + 2.0) * xi
            - 1.0
        ) / s2
    if key == (-1.0, 1.0):
        return (2.0 * pw(1.0 - xi, s + 2.0) + (s + 2.0) * xi - 1.0) / s2
    if key == (-1.0, 2.0):
        # Corrected bracket is (s+2)ξ; the verbatim display prints (s+2)η with η = 2.
        last = (s + 2.0) * (2.0 if verbatim else xi)
        return (
            2.0 * pw(2.0 - xi, s + 2.0)
            + ((s + 2.0) * xi - 2.0) * 2.0 ** (s + 1.0)
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
    t = 1 is reflected (u = 1 - t) so the singular point lands at 0, where
    float resolution is effectively unbounded.  Raises
    QuadratureNonConvergenceError when the quadrature stops short of `tol`
    (for s near -1 the panels reach their width floor first): its error
    estimate then understates the missing tail, so no value is returned.
    """
    if omega + eta == 0.0:
        # |ξ - (1-u)| ((ω+η) - ωu)^s = |(1-ξ) - u| (-ω u)^s exactly.
        return moment_oracle(1.0 - xi, -omega, 0.0, s, tol)

    def f(t: float) -> float:
        return abs(xi - t) * (omega * t + eta) ** s

    res = integrate(f, 0.0, 1.0, tol, breakpoints=(xi,))
    if not res.converged:
        raise QuadratureNonConvergenceError(
            f"moment oracle did not converge to tol={tol!r} (error estimate "
            f"{res.err_estimate!r} after {res.evaluations} evaluations)"
        )
    return res.value


def _holder_pw(xi, q: float):
    """`_checked_pw(ξ)`, after refusing a q with no conjugate exponent."""
    pw = _checked_pw(xi)
    if q < 1.0 + Q_BRANCH_EPS:
        raise HolderExponentError(f"q={q!r} too close to 1 for the conjugate exponent; use a q = 1 branch")
    return pw


def holder_weight_integral(xi: float, q: float) -> float:
    """Closed form of ∫₀¹ |ξ - t|^(q/(q-1)) dt for q > 1, ξ a float or array.

    Its bases lie in [0, 1], so the large exponent (2q-1)/(q-1) can only
    underflow, to 0, never overflow.
    """
    pw = _holder_pw(xi, q)
    r = (2.0 * q - 1.0) / (q - 1.0)
    return (q - 1.0) / (2.0 * q - 1.0) * (pw(xi, r) + pw(1.0 - xi, r))


def holder_norm(xi: float, q: float) -> float:
    """(∫₀¹ |ξ - t|^(q/(q-1)) dt)^(1-1/q) for q > 1, ξ a float or array.

    With ρ = (q-1)/q, r = (2q-1)/(q-1), M = max(ξ, 1-ξ) and m = min(ξ, 1-ξ)
    it is ((q-1)/(2q-1))^ρ · M^((2q-1)/q) · (1 + (m/M)^r)^ρ, which tends to
    M as q -> 1; the integral itself underflows to 0 once q - 1 < ~1e-3.
    ρ is (q-1)/q because 1 - 1/q loses about 8 digits at q - 1 = 1e-8.
    """
    pw = _holder_pw(xi, q)
    hi, lo = (np.maximum, np.minimum) if isinstance(xi, np.ndarray) else (max, min)
    big, small = hi(xi, 1.0 - xi), lo(xi, 1.0 - xi)
    rho = (q - 1.0) / q
    r = (2.0 * q - 1.0) / (q - 1.0)
    return ((q - 1.0) / (2.0 * q - 1.0)) ** rho * pw(big, (2.0 * q - 1.0) / q) * pw(1.0 + pw(small / big, r), rho)
