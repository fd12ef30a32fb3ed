"""Arithmetic and generalized logarithmic means, and bounds between them.

L_s is the power-family mean with the logarithmic mean at s = -1 and the
identric mean at s = 0; L_1 is the arithmetic mean.  The bounds control

    | λ A(a^s, b^s) + (1-λ) A(a,b)^s - L_s(a,b)^s |

which is the trapezoid-midpoint deviation of x ↦ x^s, whose derivative
envelope is extended (s-1)-convex by the power rule.  The six theorem
variants are transcribed from their published displays; the two q = 1
product-form displays (T43_q1, T44_q1) inherit the same defect as their
parent and can be violated in corners, which the validity sweep reports
honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FunctionDomainError, WrongBranchError
from .bounds import BoundResult, Q_BRANCH_EPS
from .moments import holder_weight_integral, kernel_mass

__all__ = [
    "MeanParams",
    "MEAN_THEOREMS",
    "arithmetic_mean",
    "generalized_log_mean",
    "mean_lhs",
    "mean_bound_from_values",
    "eval_mean_bound",
]

MEAN_THEOREMS = ("T41", "T42", "T43_q1", "T43_qgt1", "T44_q1", "T44_qgt1")

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
        if not (self.a > 0.0 and self.b > 0.0):
            raise FunctionDomainError(f"need a, b > 0, got a={self.a!r} b={self.b!r}")
        if not self.s > 0.0:
            raise WrongBranchError(f"need s > 0, got {self.s!r}")
        if not self.q >= 1.0:
            raise WrongBranchError(f"need q >= 1, got {self.q!r}")
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


def _require_power_rule(theorem: str, s: float, q: float) -> None:
    gamma = (s - 1.0) * q
    if not -1.0 < gamma <= 1.0:
        raise WrongBranchError(
            f"{theorem} needs -1 < (s-1)q <= 1, got (s-1)q={gamma!r}"
        )


def mean_bound_from_values(
    theorem: str, a: float, b: float, s: float, q: float, lam: float
) -> tuple[float, str]:
    """Bound value for one theorem variant; returns (bound, display note)."""
    if theorem not in MEAN_THEOREMS:
        raise WrongBranchError(f"unknown mean theorem {theorem!r}")
    if not 0.0 < s <= 2.0:
        raise WrongBranchError(f"mean bounds need 0 < s <= 2, got {s!r}")
    width = b - a
    if width == 0.0:
        return 0.0, "degenerate interval"
    rho = 1.0 - 1.0 / q
    m_lam = kernel_mass(lam)
    asq = a ** ((s - 1.0) * q)
    bsq = b ** ((s - 1.0) * q)
    amid = arithmetic_mean(a, b) ** ((s - 1.0) * q)

    if theorem == "T41":
        _require_power_rule(theorem, s, q)
        ka = (
            2.0 * (2.0 - lam) ** (s + 1.0)
            + 2.0**s * ((s + 1.0) * lam - 2.0)
            + (s + 1.0) * lam
            - s
            - 2.0
        )
        kb = 2.0 * lam ** (s + 1.0) + s - (s + 1.0) * lam
        bound = (
            width
            * s
            / 2.0 ** ((s - 1.0) / q + 2.0)
            * (1.0 / (s * (s + 1.0))) ** (1.0 / q)
            * m_lam**rho
            * ((ka * asq + kb * bsq) ** (1.0 / q) + (kb * asq + ka * bsq) ** (1.0 / q))
        )
        return bound, "endpoint-pair display"

    if theorem == "T42":
        _require_power_rule(theorem, s, q)
        ca = 2.0 * (1.0 - lam) ** (s + 1.0) + (s + 1.0) * lam - 1.0
        # Second bracket term is 2λ^(s+1); the published general-q display
        # prints 2λ^(s+2) once, contradicting its own q = 1 display.
        da = 2.0 * lam ** (s + 1.0) - (s + 1.0) * lam + s
        bound = (
            width
            * s
            / 4.0
            * (1.0 / (s * (s + 1.0))) ** (1.0 / q)
            * m_lam**rho
            * ((ca * asq + da * amid) ** (1.0 / q) + (da * amid + ca * bsq) ** (1.0 / q))
        )
        return bound, "midpoint-pair display, corrected 2λ^(s+1)"

    if theorem == "T43_q1":
        if q >= 1.0 + Q_BRANCH_EPS:
            raise WrongBranchError(f"T43_q1 is a q = 1 branch, got q={q!r}")
        bound = width * s / (s + 1.0) * m_lam * arithmetic_mean(a ** (s - 1.0), b ** (s - 1.0))
        return bound, "q=1 product display as printed (known-defective corners)"

    if theorem == "T43_qgt1":
        if q < 1.0 + Q_BRANCH_EPS:
            raise WrongBranchError(f"T43_qgt1 needs q > 1, got q={q!r}")
        h = holder_weight_integral(lam, q)
        w = 2.0**s - 1.0
        bound = (
            width
            * s
            / 2.0 ** (s / q + 2.0)
            * (1.0 / (s + 1.0)) ** (1.0 / q)
            * h**rho
            * ((w * asq + bsq) ** (1.0 / q) + (asq + w * bsq) ** (1.0 / q))
        )
        return bound, "conjugate-exponent display as printed"

    if theorem == "T44_q1":
        if q >= 1.0 + Q_BRANCH_EPS:
            raise WrongBranchError(f"T44_q1 is a q = 1 branch, got q={q!r}")
        bound = (
            width
            * s
            / (2.0 * (s + 1.0))
            * m_lam
            * (arithmetic_mean(a ** (s - 1.0), b ** (s - 1.0)) + arithmetic_mean(a, b) ** (s - 1.0))
        )
        return bound, "q=1 product display as printed (known-defective corners)"

    # T44_qgt1
    if q < 1.0 + Q_BRANCH_EPS:
        raise WrongBranchError(f"T44_qgt1 needs q > 1, got q={q!r}")
    _require_power_rule(theorem, s, q)
    h = holder_weight_integral(lam, q)
    bound = (
        width
        * s
        / 4.0
        * (1.0 / (s + 1.0)) ** (1.0 / q)
        * h**rho
        * ((asq + amid) ** (1.0 / q) + (amid + bsq) ** (1.0 / q))
    )
    return bound, "conjugate-exponent midpoint display"


def t42_verbatim_gap() -> float:
    """Deviation of the general-q T42 bracket as printed (2λ^(s+2)) from the
    2λ^(s+1) of its q = 1 display, over a fixed (s, q, λ) grid."""
    worst = 0.0
    for s in (0.3, 0.8, 1.3, 1.7, 2.0):
        for q in (1.0, 1.5, 2.0):
            if not -1.0 < (s - 1.0) * q <= 1.0:
                continue
            for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
                da = 2.0 * lam ** (s + 1.0) - (s + 1.0) * lam + s
                da_verbatim = 2.0 * lam ** (s + 2.0) - (s + 1.0) * lam + s
                worst = max(worst, abs(da - da_verbatim))
    return worst


def eval_mean_bound(theorem: str, mp: MeanParams) -> BoundResult:
    """lhs = mean_lhs, bound per the theorem display, packaged as BoundResult."""
    lhs = mean_lhs(mp)
    bound, note = mean_bound_from_values(theorem, mp.a, mp.b, mp.s, mp.q, mp.lam)
    gamma = (mp.s - 1.0) * mp.q
    status = "certified-analytic" if -1.0 < gamma <= 1.0 else "not-falsified"
    return BoundResult(
        lhs=lhs,
        bound=bound,
        slack=bound - lhs,
        case=theorem,
        params={"a": mp.a, "b": mp.b, "s": mp.s, "q": mp.q, "lambda": mp.lam},
        certificate=status,
        branch_notes=note,
    )
