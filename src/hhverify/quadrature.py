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

There is one adaptive loop, `integrate_batch`, and it runs over a batch of
integrals: each keeps its own panels, heap order, convergence test,
grading, width floor, panel budget and final `fsum`, and each round calls
the integrand once at every node of every panel split in that round.  The
rule's sums run in one order for every panel, so an integral's result has
the same bits in a batch as alone.  `integrate` is a batch of one whose
integrand is called node by node, in the sampling order of a panel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateIntervalError,
    InvalidToleranceError,
    NonFiniteIntegrandError,
)

__all__ = ["QuadResult", "integrate", "integrate_batch", "mean_integral"]

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


# A panel's 15 nodes in sampling order are c + h·_OFFSETS: the outermost
# pair first, inward, the left node of each pair first, then the centre.
_OFFSETS = np.array([sign * x for x in _XGK[:7] for sign in (-1.0, 1.0)] + [0.0])
# The rule sums its terms left to right from 0: the Kronrod weights apply to
# the seven pair sums and the centre, the Gauss weights to pairs 1, 3, 5 and
# the centre.  np.add.accumulate adds in that order.
_KRONROD = np.array((0.0,) + _WGK)
_GAUSS = np.array((0.0,) + _WG)


def _nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (panels, 15) nodes of the panels [lo, hi] in sampling order, and
    each panel's half-width."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = c[:, None] + h[:, None] * _OFFSETS
    nodes[:, 14] = c
    return nodes, h


def _gk15_rule(values: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss7/Kronrod15 on each panel from its node values in sampling order
    -> (K15 value, |K15-G7|)."""
    terms = np.zeros((len(h), 9))
    terms[:, 1:8] = values[:, 0:14:2] + values[:, 1:14:2]
    terms[:, 8] = values[:, 14]
    kron = np.add.accumulate(terms * _KRONROD, axis=1)[:, -1]
    gauss = np.add.accumulate(terms[:, 0::2] * _GAUSS, axis=1)[:, -1]
    return h * kron, np.abs(h * (kron - gauss))


def _sample(f, row: int, x: float) -> float:
    try:
        v = f(np.array([row]), np.array([x]))[0]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteIntegrandError(f"integrand failed at {x!r}: {exc}") from exc
    if not math.isfinite(v):
        raise NonFiniteIntegrandError(f"integrand not finite at {x!r}")
    return v


def _values(f, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f at the nodes x of the integrals rows, in one call.

    When the call raises or gives a value that is not finite, the nodes are
    redone one by one through ``_sample``, which raises for the first bad
    node in sampling order.  Node and summation order are the same either
    way, so a panel's value is too.
    """
    try:
        values = np.asarray(f(rows, x), dtype=np.float64)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    else:
        if np.isfinite(values).all():
            return values
    return np.array([_sample(f, r, v) for r, v in zip(rows.tolist(), x.tolist())])


def _gk15(f, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 on the panels [lo, hi] of the integrals rows, every node in one
    call of f -> (values, error estimates)."""
    nodes, h = _nodes(lo, hi)
    values = _values(f, rows.repeat(15), nodes.ravel())
    return _gk15_rule(values.reshape(-1, 15), h)


def _finite_at(f, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether f is finite at each point x of the integrals rows: one call,
    or, where it raises, one for each half, down to the points that raise."""
    try:
        return np.isfinite(np.asarray(f(rows, x), dtype=np.float64))
    except (ValueError, ZeroDivisionError, OverflowError):
        if len(x) == 1:
            return np.zeros(1, dtype=bool)
    half = len(x) // 2
    return np.concatenate([_finite_at(f, rows[:half], x[:half]), _finite_at(f, rows[half:], x[half:])])


def _splittable(lo: float, hi: float) -> bool:
    """A panel may be split only while its children's quadrature nodes
    remain representable floats distinct from the panel edges."""
    return (hi - lo) > 1024.0 * math.ulp(max(abs(lo), abs(hi)))


_LO = itemgetter(1)  # a panel's left edge


class _Integral:
    """One integral's adaptive state: its panels in a heap by error, the
    panels too narrow to split, and running sums."""

    __slots__ = ("row", "edges", "lo_singular", "hi_singular", "heap", "done", "total_value", "live_err",
                 "done_err", "evaluations", "converged", "pending")

    def __init__(self, row: int, a: float, b: float, breakpoints) -> None:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidToleranceError("integration endpoints must be finite")
        if a > b:
            raise InvalidToleranceError(f"need a <= b, got a={a!r} b={b!r}")
        cuts = {float(a), float(b)}
        for p in breakpoints:
            p = float(p)
            if a < p < b:
                cuts.add(p)
        self.row = row
        self.edges = sorted(cuts)
        self.lo_singular = self.hi_singular = False
        self.heap: list[tuple[float, float, float, float]] = []  # (-err, lo, hi, value)
        self.done: list[tuple[float, float, float, float]] = []  # unsplittable panels
        self.total_value = self.live_err = self.done_err = 0.0
        self.evaluations = 0
        self.converged = a == b
        self.pending = (0.0, 0.0, 0.0, 0.0)  # the panel being split: (lo, cut, hi, value)

    def add(self, lo: float, hi: float, v: float, e: float) -> None:
        self.evaluations += 15
        self.total_value += v
        self.live_err += e
        heapq.heappush(self.heap, (-e, lo, hi, v))

    def next_split(self, tol: float, max_panels: int) -> bool:
        """Whether a panel is to be split, set as ``pending``; False once the
        integral has converged or stopped short (``converged`` says which).
        A panel at float resolution is set aside on the way."""
        heap, done = self.heap, self.done
        while True:
            target = max(ABS_FLOOR, tol * abs(self.total_value))
            if self.live_err + self.done_err <= target:
                self.converged = True
                return False
            if not heap or self.done_err > target or len(heap) + len(done) >= max_panels:
                return False
            neg_e, lo, hi, v = heapq.heappop(heap)
            self.live_err += neg_e
            grade_lo = self.lo_singular and lo == self.edges[0]
            grade_hi = self.hi_singular and hi == self.edges[-1]
            if grade_lo == grade_hi:
                cut = 0.5 * (lo + hi)
            elif grade_lo:
                cut = lo + _GRADE_RATIO * (hi - lo)
            else:
                cut = hi - _GRADE_RATIO * (hi - lo)
            if not _splittable(lo, hi) or min(cut - lo, hi - cut) < _MIN_WIDTH:
                # Panel is at float resolution and cannot be refined further.
                done.append((neg_e, lo, hi, v))
                self.done_err += -neg_e
                continue
            self.pending = (lo, cut, hi, v)
            return True

    def split(self, v1: float, e1: float, v2: float, e2: float) -> None:
        """Replace the pending panel by its two halves."""
        lo, cut, hi, v = self.pending
        self.evaluations += 30
        self.total_value += (v1 + v2) - v
        self.live_err += e1 + e2
        heapq.heappush(self.heap, (-e1, lo, cut, v1))
        heapq.heappush(self.heap, (-e2, cut, hi, v2))

    def result(self) -> QuadResult:
        # Re-sum panels in position order for a deterministic, drift-free value.
        panels = sorted(self.heap + self.done, key=_LO)
        value = math.fsum([p[3] for p in panels])
        err = math.fsum([-p[0] for p in panels])
        return QuadResult(value, err, self.evaluations, self.converged)


def integrate_batch(
    f,
    a: Sequence[float],
    b: Sequence[float],
    breakpoints: Sequence[Iterable[float]],
    tol: float = DEFAULT_TOL,
    max_panels: int = DEFAULT_PANEL_BUDGET,
) -> list[QuadResult]:
    """Integrate each of a batch of integrands, the k-th over [a[k], b[k]]
    with breakpoints[k], to relative tolerance ``tol``; one QuadResult each.

    ``f(rows, x)`` takes two arrays of one length, integral indices and
    points, and returns the k-th integrand at each point x of an integral
    k as a sequence of floats.  Every integral runs the adaptive loop
    ``integrate`` describes on its own panels; the batch only shares the
    calls of f.  Each round splits the worst panel of every integral still
    short of its target, and evaluates f at all nodes of the new panels in
    one call.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidToleranceError(f"tolerance must be positive, got {tol!r}")
    integrals = [_Integral(row, lo, hi, cuts) for row, (lo, hi, cuts) in enumerate(zip(a, b, breakpoints))]
    live = [one for one in integrals if not one.converged]
    if live:
        # An endpoint where the integrand is singular (non-finite or raising
        # when probed) is graded toward as its panel is split.
        ends = [x for one in live for x in (one.edges[0], one.edges[-1])]
        finite = _finite_at(f, np.array([one.row for one in live]).repeat(2), np.array(ends)).tolist()
        for one, lo_finite, hi_finite in zip(live, finite[0::2], finite[1::2]):
            one.lo_singular, one.hi_singular = not lo_finite, not hi_finite
        panels = [(one, lo, hi) for one in live for lo, hi in zip(one.edges[:-1], one.edges[1:])]
        rows = np.array([one.row for one, _, _ in panels])
        values, errs = _gk15(f, rows, np.array([lo for _, lo, _ in panels]), np.array([hi for _, _, hi in panels]))
        for (one, lo, hi), v, e in zip(panels, values.tolist(), errs.tolist()):
            one.add(lo, hi, v, e)
    while live := [one for one in live if one.next_split(tol, max_panels)]:
        # Each pending panel's two halves, left then right.
        cuts = np.array([x for one in live for x in one.pending[:3]]).reshape(-1, 3)
        values, errs = _gk15(f, np.array([one.row for one in live]).repeat(2), cuts[:, :2].ravel(), cuts[:, 1:].ravel())
        values, errs = values.tolist(), errs.tolist()
        for one, v1, e1, v2, e2 in zip(live, values[0::2], errs[0::2], values[1::2], errs[1::2]):
            one.split(v1, e1, v2, e2)
    return [one.result() for one in integrals]


def _pointwise(f: Callable[[float], float]):
    """A scalar integrand as a batch integrand, called node by node."""
    return lambda rows, x: [f(v) for v in x.tolist()]


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
    It is `integrate_batch` on a batch of one, f called node by node.
    """
    return integrate_batch(_pointwise(f), [a], [b], [breakpoints], tol, max_panels)[0]


def mean_integral(f, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Average value of f over [a, b]: integral divided by the length."""
    if not a < b:
        raise DegenerateIntervalError(f"need a < b, got a={a!r} b={b!r}")
    eval_fn = f.eval if hasattr(f, "eval") else f
    res = integrate(eval_fn, a, b, tol)
    return res.value / (b - a)
