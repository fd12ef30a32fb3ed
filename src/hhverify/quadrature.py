"""Adaptive 1-D quadrature oracle.

Panel rule is an embedded Gauss(7)/Kronrod(15) pair; the per-panel error
estimate is the plain difference of the two rules, and the global estimate is
the sum over panels.  The worst panel is split until the summed estimate
meets the requested tolerance or the panel budget runs out, in which case the
result is returned with ``converged=False`` rather than silently trusted.

Integrable endpoint singularities (power weights with exponent in (-1, 0))
are graded on demand: ``integrate`` probes f at a and b, and a panel touching
an endpoint where f is non-finite or raises is cut at ratio 0.25 toward that
endpoint instead of at its midpoint.  Grading therefore goes only as deep as
the error target asks, and never below panels `_MIN_WIDTH` wide: a panel
whose cut would make a narrower one is kept whole, with its error estimate,
so the result is returned with converged=False rather than evaluating f
at subnormal nodes (where t^s overflows for s near -1).  The panel rule
itself never samples panel edges.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    DegenerateIntervalError,
    InvalidToleranceError,
    NonFiniteIntegrandError,
)

__all__ = ["QuadResult", "integrate", "mean_integral"]

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights sit on
# the odd-index abscissae.  Standard 20-digit values.
_XGK = (
    0.99145537112081263921,
    0.94910791234275852453,
    0.86486442335976907279,
    0.74153118559939443986,
    0.58608723546769113029,
    0.40584515137739716691,
    0.20778495500789846760,
    0.0,
)
_WGK = (
    0.02293532201052922496,
    0.06309209262997855329,
    0.10479001032225018384,
    0.14065325971552591875,
    0.16900472663926790283,
    0.19035057806478540991,
    0.20443294007529889241,
    0.20948214108472782801,
)
_WG = (
    0.12948496616886969327,
    0.27970539148927666790,
    0.38183005050511894495,
    0.41795918367346938776,
)

DEFAULT_TOL = 1e-12
ABS_FLOOR = 1e-14
DEFAULT_PANEL_BUDGET = 1 << 20

# Singular-endpoint grading: a panel touching a singular endpoint is cut this
# fraction of its width away from that endpoint.
_GRADE_RATIO = 0.25
# No panel narrower than this is made.  GK15's outermost nodes lie 0.0043 of
# a panel's width inside its edges, so every node is a normal float, where
# t^s is finite for every s > -1.
_MIN_WIDTH = 1e-300


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int
    converged: bool


def _sample(f: Callable[[float], float], x: float) -> float:
    try:
        v = f(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteIntegrandError(f"integrand failed at {x!r}: {exc}") from exc
    if not math.isfinite(v):
        raise NonFiniteIntegrandError(f"integrand not finite at {x!r}")
    return v


def _gk15_rule(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Gauss7/Kronrod15 application on [lo, hi] -> (K15 value, |K15-G7|)."""
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


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """``_gk15_rule`` on f, with the panel's value checked once.

    Every node value reaches the value with a positive weight, so it is
    finite only if all of them are.  On a failure the panel is redone node
    by node through ``_sample``, which raises for the first bad node in
    sampling order; node and summation order are the same either way, so
    the result is too.
    """
    try:
        value, err = _gk15_rule(f, lo, hi)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    else:
        if math.isfinite(value):
            return value, err
    return _gk15_rule(lambda x: _sample(f, x), lo, hi)


def _splittable(lo: float, hi: float) -> bool:
    """A panel may be split only while its children's quadrature nodes
    remain representable floats distinct from the panel edges."""
    return (hi - lo) > 1024.0 * math.ulp(max(abs(lo), abs(hi)))


def _probe_finite(f: Callable[[float], float], x: float) -> bool:
    try:
        v = f(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    return math.isfinite(v)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] | Iterable[float] = (),
    max_panels: int = DEFAULT_PANEL_BUDGET,
) -> QuadResult:
    """Integrate f over [a, b] to relative tolerance ``tol``.

    ``breakpoints`` pre-split the initial partition (kinks, branch points).
    The target is ``max(ABS_FLOOR, tol * |integral|)``, so a small integral
    is only absolutely accurate: ``mean_integral`` of x^1.5 on [0, 1e-3]
    (∫ = 1.3e-8) is 1.3e-9 relative off at tol 1e-12.  When the panel
    budget is exhausted first, the best estimate is returned with converged=False.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidToleranceError(f"tolerance must be positive, got {tol!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidToleranceError("integration endpoints must be finite")
    if a > b:
        raise InvalidToleranceError(f"need a <= b, got a={a!r} b={b!r}")
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)

    cuts = {float(a), float(b)}
    for p in breakpoints:
        p = float(p)
        if a < p < b:
            cuts.add(p)
    edges = sorted(cuts)

    # An endpoint where the integrand is singular (non-finite or raising when
    # probed) is graded toward as its panel is split.
    lo_singular = not _probe_finite(f, edges[0])
    hi_singular = not _probe_finite(f, edges[-1])

    evaluations = 0
    heap: list[tuple[float, float, float, float]] = []  # (-err, lo, hi, value)
    done: list[tuple[float, float, float, float]] = []  # unsplittable panels
    total_value = 0.0
    live_err = 0.0
    done_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _gk15(f, lo, hi)
        evaluations += 15
        total_value += v
        live_err += e
        heapq.heappush(heap, (-e, lo, hi, v))

    while True:
        target = max(ABS_FLOOR, tol * abs(total_value))
        if live_err + done_err <= target:
            converged = True
            break
        if not heap or done_err > target or len(heap) + len(done) >= max_panels:
            converged = False
            break
        neg_e, lo, hi, v = heapq.heappop(heap)
        live_err += neg_e
        grade_lo = lo_singular and lo == edges[0]
        grade_hi = hi_singular and hi == edges[-1]
        if grade_lo == grade_hi:
            cut = 0.5 * (lo + hi)
        elif grade_lo:
            cut = lo + _GRADE_RATIO * (hi - lo)
        else:
            cut = hi - _GRADE_RATIO * (hi - lo)
        if not _splittable(lo, hi) or min(cut - lo, hi - cut) < _MIN_WIDTH:
            # Panel is at float resolution and cannot be refined further.
            done.append((neg_e, lo, hi, v))
            done_err += -neg_e
            continue
        v1, e1 = _gk15(f, lo, cut)
        v2, e2 = _gk15(f, cut, hi)
        evaluations += 30
        total_value += (v1 + v2) - v
        live_err += e1 + e2
        heapq.heappush(heap, (-e1, lo, cut, v1))
        heapq.heappush(heap, (-e2, cut, hi, v2))

    # Re-sum panels in position order for a deterministic, drift-free value.
    panels = sorted(heap + done, key=lambda p: p[1])
    value = math.fsum(p[3] for p in panels)
    err = math.fsum(-p[0] for p in panels)
    return QuadResult(value, err, evaluations, converged)


def mean_integral(f, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Average value of f over [a, b]: integral divided by the length."""
    if not a < b:
        raise DegenerateIntervalError(f"need a < b, got a={a!r} b={b!r}")
    eval_fn = f.eval if hasattr(f, "eval") else f
    res = integrate(eval_fn, a, b, tol)
    return res.value / (b - a)
