"""Generalized logarithmic means, and bounds between means.

L_s is the power-family mean with the logarithmic mean at s = -1 and the
identric mean at s = 0; L_1 is the arithmetic mean A.  The bounds control
| λ A(a^s, b^s) + (1-λ) A(a,b)^s - L_s(a,b)^s |, which is |hh_lhs| of
f(x) = x^s at μ = λ, since L_s(a,b)^s is the mean of x^s over [a, b].
Each theorem applies a Section 3 display to that f (as Dragomir &
Agarwal, Appl. Math. Lett. 11, 1998) at the case order s' that
`MEAN_SPECS` names: T41 -> T31_general and T42 -> T32_tier1 at
s' = s - 1; T43_q1 -> the as-printed T33_q1, T44_q1 -> T34_q1_tier1 and
T44_qgt1 -> T34_qgt1_tier1 at s' = s.  T43_qgt1 matches no case (its
weight fits order s - 1, its prefactors order s) and is the one display
written out here; it assumes order s - 1.  A row is `certified-analytic`
when `functions.analytic_order` of |f'|^q reaches the theorem's order,
otherwise `unchecked`; nothing is sampled.  A row at s' = s > 1 lies past
its parent's s' <= 1 branch: it is evaluated but `unchecked`, and that is
where the violations T43_q1 and T44_q1 inherit from their parents lie.
A mean row has one builder, `harness.add_mean_rows`, which the sweep and
the CLI's `means` command both call, over the float64 columns of every
tuple: `MeanSpec.admits` (the branch rule as a mask), one `mean_values`
call over the tuples some theorem admits, then one `MeanSpec.bound` call
per theorem over the tuples it admits.  `eval_mean_bound`, the scalar
reference, takes the same steps for one tuple of floats:
`MeanSpec.branch_mismatch` (the same rule, with its message), then
`mean_values` (f = x^s from `functions.make_power`, whose id labels the
row; the lhs from `identity.hh_lhs` on f, the routine case and preset rows
use; |f'|^q from `bounds.derivative_values`; the order from
`functions.analytic_order`), `MeanSpec.bound` (refused when not finite)
and `MeanSpec.certificate`.  `MeanParams` needs 0 < a < b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .bounds import (BRANCH_CHECKS, BoundCase, BoundResult, BranchChecks, Q_BRANCH_EPS, case_formula,
                     derivative_values, first_mismatch, nonfinite_bound, on_branch)
from .errors import FunctionDomainError, WrongBranchError
from .functions import analytic_order, make_power, power_rule_holds
from .identity import hh_lhs
from .moments import holder_norm, power
from .presets import VERBATIM_DISPLAYS, Display

__all__ = [
    "MeanParams",
    "MeanSpec",
    "MEAN_SPECS",
    "MEAN_THEOREMS",
    "generalized_log_mean",
    "mean_lhs",
    "mean_values",
    "eval_mean_bound",
]

_S_IDENTRIC_EPS = 1e-8
_S_LOG_EPS = 1e-8
_EQUAL_EPS = 1e-12


@dataclass(frozen=True)
class MeanParams:
    a: float
    b: float
    s: float
    q: float = 1.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.a < self.b < math.inf:
            raise FunctionDomainError(f"need finite 0 < a < b, got a={self.a!r} b={self.b!r}")
        if not 0.0 < self.s < math.inf:
            raise WrongBranchError(f"need finite s > 0, got {self.s!r}")
        if not 1.0 <= self.q < math.inf:
            raise WrongBranchError(f"need finite q >= 1, got {self.q!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise WrongBranchError(f"need lambda in [0, 1], got {self.lam!r}")


def generalized_log_mean(a: float, b: float, s: float) -> float:
    """L_s(a, b) with its logarithmic (s=-1) and identric (s=0) branches."""
    if a <= 0.0 or b <= 0.0:
        raise FunctionDomainError(f"need a, b > 0, got a={a!r} b={b!r}")
    if abs(b - a) <= _EQUAL_EPS * max(a, b):
        return a
    if abs(s) < _S_IDENTRIC_EPS:
        # identric: (1/e) (b^b / a^a)^(1/(b-a))
        return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
    if abs(s + 1.0) < _S_LOG_EPS:
        return (b - a) / (math.log(b) - math.log(a))
    num = b ** (s + 1.0) - a ** (s + 1.0)
    base = num / ((s + 1.0) * (b - a))
    return math.exp(math.log(base) / s)


def mean_lhs(mp: MeanParams) -> float:
    """|λ A(a^s, b^s) + (1-λ) A(a,b)^s - L_s(a,b)^s|: |hh_lhs| of x^s at μ = λ."""
    return abs(hh_lhs(make_power(mp.s, mp.a, mp.b), mp.a, mp.b, mp.lam, mp.lam))


def _case_display(case: BoundCase) -> Display:
    return lambda *args: case_formula(case, *args)[0]


def _d_t43_qgt1(a, b, lam, mu, s, q, qa, qb, qm):
    # As printed; no case has this weight and these prefactors together.
    w = power(2.0, s) - 1.0
    return (
        (b - a)
        / power(2.0, s / q + 2.0)
        * power(1.0 / (s + 1.0), 1.0 / q)
        * holder_norm(lam, q)
        * (power(w * qa + qb, 1.0 / q) + power(qa + w * qb, 1.0 / q))
    )


@dataclass(frozen=True)
class MeanSpec:
    """A mean theorem as `display` for f(x) = x^s at μ = λ and order
    s' = s + s_shift.  `parent` (None for T43_qgt1) settles the (s', q)
    branch; the theorem assumes |f'|^q extended (s + cert_shift)-convex,
    which is s' where there is a parent; a `power_rule` theorem is stated
    only where the power rule holds."""

    theorem: str
    parent: Optional[BoundCase]
    display: Display
    s_shift: float
    cert_shift: float
    note: str
    power_rule: bool = False

    @cached_property
    def branch_checks(self) -> BranchChecks:
        """The theorem's branch rule (see `bounds.BranchChecks`): 0 < s <= 2,
        then the parent's branch short of s' <= 1 (rows past it are
        evaluated and labelled rather than dropped) or, with no parent,
        q > 1, then the power rule where the theorem needs it."""
        checks = [(lambda s, q: (s <= 0.0) | (s > 2.0) | (s != s),
                   lambda s, q: f"mean bounds need 0 < s <= 2, got {s!r}")]
        if self.parent is None:
            checks.append((lambda s, q: q < 1.0 + Q_BRANCH_EPS,
                           lambda s, q: f"{self.theorem} needs q > 1, got q={q!r}"))
        else:
            checks += [(lambda s, q, off=off: off(np.minimum(s + self.s_shift, 1.0), q),
                        lambda s, q, why=why: why(min(s + self.s_shift, 1.0), q))
                       for off, why in BRANCH_CHECKS[self.parent]]
        if self.power_rule:
            checks.append((lambda s, q: np.logical_not(power_rule_holds(s, q)),
                           lambda s, q: f"{self.theorem} needs -1 < (s-1)q <= 1, got (s-1)q={(s - 1.0) * q!r}"))
        return tuple(checks)

    def branch_mismatch(self, s: float, q: float) -> str:
        """Why (s, q) lie off the theorem's branch, or "" when they lie on it."""
        return first_mismatch(self.branch_checks, s, q)

    def admits(self, s, q) -> np.ndarray:
        """Where the columns (s, q) lie on the theorem's branch, as a mask."""
        return on_branch(self.branch_checks, s, q)

    def bound(self, a, b, s, q, lam, qa, qb, qm) -> tuple:
        """(bound, note) on [a, b] at (s, q, λ) from |f'|^q at a, b and m,
        floats or columns; the note says where s' passes the parent's branch."""
        bound = self.display(a, b, lam, lam, s + self.s_shift, q, qa, qb, qm)
        past = f"{self.note}; parent {self.parent and self.parent.value} at s' = s > 1 is outside its branch"
        return bound, np.where((s + self.s_shift > 1.0) & (self.parent is not None), past, self.note).tolist()

    def certificate(self, s, order):
        """`certified-analytic` where `order`, the `analytic_order` of |f'|^q
        (None or NaN where it has none), reaches the theorem's order
        s + cert_shift, else `unchecked`."""
        # No slack needed: s + cert_shift is the same float as the power rule's p - 1 at p = s.
        reached = s + self.cert_shift <= np.asarray(order, dtype=np.float64)
        return np.where(reached, "certified-analytic", "unchecked").tolist()


_M = MeanSpec
_T33_Q1_PRINTED = VERBATIM_DISPLAYS["T33_q1"]

MEAN_SPECS: dict[str, MeanSpec] = {
    m.theorem: m
    for m in [
        _M("T41", BoundCase.T31_general, _case_display(BoundCase.T31_general), -1.0,
           -1.0, "endpoint-pair display", power_rule=True),
        _M("T42", BoundCase.T32_tier1, _case_display(BoundCase.T32_tier1), -1.0,
           -1.0, "midpoint-pair display, corrected 2λ^(s+1)", power_rule=True),
        _M("T43_q1", _T33_Q1_PRINTED.parent, _T33_Q1_PRINTED.display, 0.0,
           0.0, "q=1 product display as printed (known-defective corners)"),
        _M("T43_qgt1", None, _d_t43_qgt1, 0.0,
           -1.0, "conjugate-exponent display as printed"),
        _M("T44_q1", BoundCase.T34_q1_tier1, _case_display(BoundCase.T34_q1_tier1), 0.0,
           0.0, "q=1 product display as printed (known-defective corners)"),
        _M("T44_qgt1", BoundCase.T34_qgt1_tier1, _case_display(BoundCase.T34_qgt1_tier1), 0.0,
           0.0, "conjugate-exponent midpoint display", power_rule=True),
    ]
}

MEAN_THEOREMS = tuple(MEAN_SPECS)


def t42_verbatim_gap() -> float:
    """Deviation of the general-q T42 bracket as printed (2λ^(s+2)) from the
    2λ^(s+1) of its q = 1 display, over a fixed (s, q, λ) grid."""
    worst = 0.0
    for s in (0.3, 0.8, 1.3, 1.7, 2.0):
        for q in (1.0, 1.5, 2.0):
            if not power_rule_holds(s, q):
                continue
            for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
                da = 2.0 * lam ** (s + 1.0) - (s + 1.0) * lam + s
                da_verbatim = 2.0 * lam ** (s + 2.0) - (s + 1.0) * lam + s
                worst = max(worst, abs(da - da_verbatim))
    return worst


def mean_values(a, b, s, q, lam) -> tuple:
    """(id, lhs, |f'|^q at a, b and m, analytic order) of f = x^s on [a, b]
    at μ = λ, for one tuple of floats or for columns with one entry per
    tuple: f from `functions.make_power`, the lhs from `identity.hh_lhs`,
    |f'|^q from `bounds.derivative_values` and the order from
    `functions.analytic_order` (None, or NaN in a column, where there is
    none).  Raises as those do; on columns, for the block."""
    f = make_power(s, a, b)
    lhs = abs(hh_lhs(f, a, b, lam, lam))
    return (f.fid, lhs, *derivative_values(f, a, b, q), analytic_order("pow", s, a, q))


def eval_mean_bound(theorem: str, mp: MeanParams) -> BoundResult:
    """The theorem's lhs, bound, certificate and note at `mp`: the scalar
    reference for one mean row.

    No analytic order exceeds 1, so a row outside its parent's branch is
    `unchecked`.
    """
    spec = MEAN_SPECS.get(theorem)
    problem = spec.branch_mismatch(mp.s, mp.q) if spec else f"unknown mean theorem {theorem!r}"
    if problem:
        raise WrongBranchError(problem)
    fid, lhs, qa, qb, qm, order = mean_values(mp.a, mp.b, mp.s, mp.q, mp.lam)
    bound, note = spec.bound(mp.a, mp.b, mp.s, mp.q, mp.lam, qa, qb, qm)
    if not math.isfinite(bound):
        raise nonfinite_bound(theorem, fid, mp.a, mp.b)
    return BoundResult(lhs, bound, bound - lhs, theorem, spec.certificate(mp.s, order), note)
