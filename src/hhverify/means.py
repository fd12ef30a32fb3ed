"""Arithmetic and generalized logarithmic means, and bounds between them.

L_s is the power-family mean with the logarithmic mean at s = -1 and the
identric mean at s = 0; L_1 is the arithmetic mean.  The bounds control
| λ A(a^s, b^s) + (1-λ) A(a,b)^s - L_s(a,b)^s |, which is |hh_lhs| of
f(x) = x^s at μ = λ.  Each theorem applies a Section 3 display to that f
(as Dragomir & Agarwal, Appl. Math. Lett. 11, 1998) at the case order s'
that `MEAN_SPECS` names: T41 -> T31_general and T42 -> T32_tier1 at
s' = s - 1; T43_q1 -> the as-printed T33_q1, T44_q1 -> T34_q1_tier1 and
T44_qgt1 -> T34_qgt1_tier1 at s' = s.  T43_qgt1 matches no case (its
weight fits order s - 1, its prefactors order s) and is the one display
written out here; it assumes order s - 1.  A row is `certified-analytic`
when `functions.analytic_order` of |f'|^q reaches the theorem's order,
otherwise `unchecked`; nothing is sampled.  A row at s' = s > 1 lies past
its parent's s' <= 1 branch: it is evaluated but `unchecked`, and that is
where the violations T43_q1 and T44_q1 inherit from their parents lie.
`eval_mean_bound` gives a row's values, its params by name; `mean_family`
names the row's family, and `harness.Report` lays the record out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundCase, BoundResult, Q_BRANCH_EPS, case_formula, check_branch
from .errors import FunctionDomainError, WrongBranchError
from .functions import analytic_order, power_rule_holds
from .moments import holder_weight_integral
from .presets import VERBATIM_DISPLAYS, Display

__all__ = [
    "MeanParams",
    "MeanSpec",
    "MEAN_SPECS",
    "MEAN_THEOREMS",
    "arithmetic_mean",
    "generalized_log_mean",
    "mean_lhs",
    "mean_bound_from_values",
    "eval_mean_bound",
    "mean_family",
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
        if not 0.0 < self.a <= self.b < math.inf:
            raise FunctionDomainError(f"need finite 0 < a <= b, got a={self.a!r} b={self.b!r}")
        if not 0.0 < self.s < math.inf:
            raise WrongBranchError(f"need finite s > 0, got {self.s!r}")
        if not 1.0 <= self.q < math.inf:
            raise WrongBranchError(f"need finite q >= 1, got {self.q!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise WrongBranchError(f"need lambda in [0, 1], got {self.lam!r}")


def arithmetic_mean(a: float, b: float) -> float:
    return 0.5 * (a + b)


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
    """|λ A(a^s, b^s) + (1-λ) A(a,b)^s - L_s(a,b)^s|."""
    a, b, s, lam = mp.a, mp.b, mp.s, mp.lam
    value = (
        lam * arithmetic_mean(a**s, b**s)
        + (1.0 - lam) * arithmetic_mean(a, b) ** s
        - generalized_log_mean(a, b, s) ** s
    )
    return abs(value)


def _case_display(case: BoundCase) -> Display:
    return lambda *args: case_formula(case, *args)[0]


def _d_t43_qgt1(a, b, lam, mu, s, q, qa, qb, qm):
    # As printed; no case has this weight and these prefactors together.
    w = 2.0**s - 1.0
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * (1.0 / (s + 1.0)) ** (1.0 / q)
        * holder_weight_integral(lam, q) ** (1.0 - 1.0 / q)
        * ((w * qa + qb) ** (1.0 / q) + (qa + w * qb) ** (1.0 / q))
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

    def outside_parent(self, s: float) -> bool:
        """True when the order s' lies past the parent's s' <= 1 branch."""
        return self.parent is not None and s + self.s_shift > 1.0


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


def mean_family(s: float) -> str:
    """The family id of a mean row at s: the f(x) = x^s the theorems apply to."""
    return f"pow:{s:g}"


def mean_bound_from_values(
    theorem: str, a: float, b: float, s: float, q: float, lam: float
) -> tuple[float, str]:
    """Bound value for one theorem variant; returns (bound, display note)."""
    spec = MEAN_SPECS.get(theorem)
    if spec is None:
        raise WrongBranchError(f"unknown mean theorem {theorem!r}")
    if not 0.0 < s <= 2.0:
        raise WrongBranchError(f"mean bounds need 0 < s <= 2, got {s!r}")
    if b - a == 0.0:
        return 0.0, "degenerate interval"
    s_case = s + spec.s_shift
    if spec.parent is None:
        if q < 1.0 + Q_BRANCH_EPS:
            raise WrongBranchError(f"{theorem} needs q > 1, got q={q!r}")
    else:
        # The parent's branch check, short of s' <= 1: rows past it are
        # evaluated and labelled rather than dropped.
        check_branch(spec.parent, min(s_case, 1.0), q)
    if spec.power_rule and not power_rule_holds(s, q):
        raise WrongBranchError(f"{theorem} needs -1 < (s-1)q <= 1, got (s-1)q={(s - 1.0) * q!r}")
    # |f'|^q of f(x) = x^s at a, b and the midpoint.
    qa, qb, qm = [(s * x ** (s - 1.0)) ** q for x in (a, b, arithmetic_mean(a, b))]
    bound = spec.display(a, b, lam, lam, s_case, q, qa, qb, qm)
    if spec.outside_parent(s):
        return bound, f"{spec.note}; parent {spec.parent.value} at s' = s > 1 is outside its branch"
    return bound, spec.note


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


def eval_mean_bound(theorem: str, mp: MeanParams) -> BoundResult:
    """lhs = mean_lhs, bound per the theorem's spec, packaged as BoundResult.

    `certified` is `certified-analytic` when the `analytic_order` of |f'|^q
    on [a, b] reaches the theorem's order s + cert_shift, else `unchecked`.
    No analytic order exceeds 1, so a row outside its parent's branch is
    `unchecked`.
    """
    bound, note = mean_bound_from_values(theorem, mp.a, mp.b, mp.s, mp.q, mp.lam)
    lhs = mean_lhs(mp)
    spec = MEAN_SPECS[theorem]
    # No slack needed: s + cert_shift is the same float as the power rule's p - 1 at p = s.
    order = analytic_order("pow", mp.s, mp.a, mp.q)
    certified = order is not None and mp.s + spec.cert_shift <= order
    return BoundResult(
        lhs=lhs,
        bound=bound,
        slack=bound - lhs,
        case=theorem,
        params={"a": mp.a, "b": mp.b, "s": mp.s, "q": mp.q, "lambda": mp.lam},
        certificate="certified-analytic" if certified else "unchecked",
        branch_notes=note,
    )
