"""Both sides of the weighted trapezoid-midpoint integral identity.

For differentiable f on [a, b] and weights λ, μ:

    λf(a)/2 + μf(b)/2 + (2-λ-μ)/2 · f(m) - (1/(b-a))∫f
        = (b-a)/4 · ∫₀¹ [(1-λ-t) f'(ta + (1-t)m) + (μ-t) f'(tm + (1-t)b)] dt

with m = (a+b)/2.  The left side (`hh_lhs`) is the quantity every bound in
the catalog controls, and this is the one place it is written: case,
preset and mean rows (the Section 4 means are it at f = x^s) all take their
lhs from `hh_lhs`, over the exact mean the function carries, mean rows
over the columns of every tuple at once.  It is kept signed here, callers
take absolute values.  `BoundParams` needs a < b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntervalError, FunctionDomainError, WrongBranchError
from .functions import FunctionSpec
from .moments import _refuse, _refuse_nonfinite
from .quadrature import DEFAULT_TOL, integrate

__all__ = ["BoundParams", "hh_lhs", "identity_rhs", "check_identity"]


@dataclass(frozen=True)
class BoundParams:
    a: float
    b: float
    lam: float
    mu: float
    s: float
    q: float

    def __post_init__(self) -> None:
        if not -math.inf < self.a < self.b < math.inf:
            raise WrongBranchError(f"need finite a < b, got a={self.a!r} b={self.b!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise WrongBranchError(f"need lambda in [0, 1], got {self.lam!r}")
        if not 0.0 <= self.mu <= 1.0:
            raise WrongBranchError(f"need mu in [0, 1], got {self.mu!r}")
        if not -1.0 <= self.s <= 1.0:
            raise WrongBranchError(f"need s in [-1, 1], got {self.s!r}")
        if not 1.0 <= self.q < math.inf:
            raise WrongBranchError(f"need finite q >= 1, got {self.q!r}")


def hh_lhs(f: FunctionSpec, a: float, b: float, lam: float, mu: float) -> float:
    """Signed left-hand quantity on [a, b] at weights (λ, μ); zero for a = b
    by continuous extension.

    The mean is `f.mean(a, b)`, which every registry function carries in
    closed form, so no lhs runs a quadrature.  a, b, λ and μ may be
    columns, one entry per row, when f was built from columns
    (`functions.make_power`); each entry then has the bits of its float
    call, and every row needs a != b.  Raises WrongBranchError for a spec
    built without a mean, and FunctionDomainError when a value of f or the
    mean overflows or is not finite: for the first row with a value that is
    not finite, and for a block of rows as a whole when libm's pow overflows
    on one of them.
    """
    if f.mean is None:
        raise WrongBranchError(f"{f.fid} carries no closed-form mean")
    if isinstance(a, np.ndarray):
        _refuse(a == b, DegenerateIntervalError, "hh_lhs on columns needs a != b, got a = b = {!r}", a)
    elif a == b:
        return 0.0
    m = 0.5 * (a + b)
    try:
        weighted = 0.5 * lam * f.eval(a) + 0.5 * mu * f.eval(b) + 0.5 * (2.0 - lam - mu) * f.eval(m)
        mean = f.mean(a, b)
    except OverflowError as exc:
        raise FunctionDomainError(f"a value of f or its mean overflows on one of {a.size} rows" if isinstance(a, np.ndarray)
                                  else f"{f.fid} overflows on [{a!r}, {b!r}]") from exc
    if isinstance(weighted, np.ndarray) or not (math.isfinite(weighted) and math.isfinite(mean)):
        _refuse_nonfinite((weighted, mean), FunctionDomainError, "{} is not finite on [{!r}, {!r}]", f.fid, a, b)
    return weighted - mean


def identity_rhs(f: FunctionSpec, p: BoundParams, tol: float = DEFAULT_TOL) -> float:
    """Kernel-weighted integral of f' that the identity equates to `hh_lhs`."""
    if f.deriv is None:
        raise WrongBranchError(f"{f.fid} carries no derivative")
    a, b = p.a, p.b
    m = 0.5 * (a + b)
    df = f.deriv

    def integrand(t: float) -> float:
        left = (1.0 - p.lam - t) * df(t * a + (1.0 - t) * m)
        right = (p.mu - t) * df(t * m + (1.0 - t) * b)
        return left + right

    res = integrate(integrand, 0.0, 1.0, tol, breakpoints=(1.0 - p.lam, p.mu))
    return 0.25 * (b - a) * res.value


def check_identity(f: FunctionSpec, p: BoundParams, tol: float = DEFAULT_TOL) -> float:
    """|lhs - rhs|; at most ~10·tol for f with continuous f' on [a, b]."""
    return abs(hh_lhs(f, p.a, p.b, p.lam, p.mu) - identity_rhs(f, p, tol))
