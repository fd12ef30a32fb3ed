"""Bound cases for the weighted trapezoid-midpoint deviation.

Every case controls |hh_lhs| for functions whose derivative envelope |f'|^q
is extended s-convex.  Formulas are assembled from the moment closed forms
(the derivation path); `branch_notes` records which display produced the
number.  Two q = 1 product-form displays are known to be misprinted at the
source: T33_q1 ships with the corrected prefactor 2^(s+1) (the as-printed
2^(s+2) version is numerically falsifiable; it is
`presets.VERBATIM_DISPLAYS["T33_q1"]`, which the erratum scan compares with
this case), while T34_q1 ships as printed because its spot values are
pinned that way; the validity sweep exposes its defect honestly.

`eval_case` is the scalar reference path for one row: its lhs runs its own
quadrature, and its certificate status is whatever the caller passes in
(the CLI passes `harness.certificate_status`, the sweep's rule).  How a row
is written out is `harness.Report`'s business; `is_violation` is the one
violation predicate, shared by `BoundResult.violated` and the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import WrongBranchError
from .functions import FunctionSpec
from .identity import BoundParams, hh_lhs
from .moments import holder_weight_integral, kernel_mass, moment_case
from .quadrature import DEFAULT_TOL

__all__ = [
    "BoundCase",
    "BoundResult",
    "VIOLATION_TOL",
    "Q_BRANCH_EPS",
    "S_BRANCH_EPS",
    "case_bound_from_values",
    "case_formula",
    "check_branch",
    "deviation_params",
    "derivative_values",
    "eval_case",
    "is_violation",
    "midpoint_envelope",
]

VIOLATION_TOL = 1e-10
Q_BRANCH_EPS = 1e-9   # q < 1 + eps routes to q = 1 branches
S_BRANCH_EPS = 1e-6   # s must stay this far above -1 except in the s = -1 case

TWO_LN2_MINUS_1 = 2.0 * math.log(2.0) - 1.0


class BoundCase(str, Enum):
    T31_general = "T31_general"
    T31_s_minus1 = "T31_s_minus1"
    T32_tier1 = "T32_tier1"
    T32_tier2 = "T32_tier2"
    T33_q1 = "T33_q1"
    T33_qgt1 = "T33_qgt1"
    T34_q1_tier1 = "T34_q1_tier1"
    T34_q1_tier2 = "T34_q1_tier2"
    T34_qgt1_tier1 = "T34_qgt1_tier1"
    T34_qgt1_tier2 = "T34_qgt1_tier2"


def is_violation(slack, bound):
    """True where slack < -VIOLATION_TOL·(1 + |bound|); floats or numpy arrays."""
    return slack < -VIOLATION_TOL * (1.0 + abs(bound))


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound instance; `harness.Report.add_result` writes it.

    `params` maps parameter names to values (a, b, lambda, mu, s, q; a mean
    row has no mu); its key order is not read.  Which params a record shows,
    and in what order, is `harness.Report`'s to decide.
    """

    lhs: float
    bound: float
    slack: float
    case: str
    params: dict
    certificate: str = "unchecked"
    branch_notes: str = ""
    preset: Optional[str] = None

    @property
    def violated(self) -> bool:
        return is_violation(self.slack, self.bound)


def params_dict(p: BoundParams) -> dict:
    return {
        "a": p.a,
        "b": p.b,
        "lambda": p.lam,
        "mu": p.mu,
        "s": p.s,
        "q": p.q,
    }


def midpoint_envelope(s: float, qa: float, qb: float) -> float:
    """Bound on |f'(m)|^q from the endpoint values: 2^(-s) (A + B)."""
    return 2.0 ** (-s) * (qa + qb)


_Q1_CASES = frozenset(
    {BoundCase.T33_q1, BoundCase.T34_q1_tier1, BoundCase.T34_q1_tier2}
)
_QGT1_CASES = frozenset(
    {BoundCase.T33_qgt1, BoundCase.T34_qgt1_tier1, BoundCase.T34_qgt1_tier2}
)


def check_branch(case: BoundCase, s: float, q: float) -> None:
    """Raise WrongBranchError unless (s, q) lie on the branch of `case`.

    The branch depends on (s, q) alone, so a sweep can settle it once per
    (s, q) instead of once per row.
    """
    if case is BoundCase.T31_s_minus1:
        if s != -1.0:
            raise WrongBranchError(f"T31_s_minus1 needs s = -1 exactly, got {s!r}")
        return
    if s < -1.0 + S_BRANCH_EPS:
        raise WrongBranchError(
            f"{case.value} needs s > -1 + 1e-6, got s={s!r}; s = -1 is T31_s_minus1 only"
        )
    if s > 1.0:
        raise WrongBranchError(f"{case.value} needs s <= 1, got s={s!r}")
    if case in _Q1_CASES and q >= 1.0 + Q_BRANCH_EPS:
        raise WrongBranchError(f"{case.value} is a q = 1 branch, got q={q!r}")
    if case in _QGT1_CASES and q < 1.0 + Q_BRANCH_EPS:
        raise WrongBranchError(f"{case.value} needs q >= 1 + 1e-9, got q={q!r}")


def case_bound_from_values(
    case: BoundCase,
    a: float,
    b: float,
    lam: float,
    mu: float,
    s: float,
    q: float,
    qa: float,
    qb: float,
    qm: float = 0.0,
) -> tuple[float, str]:
    """Bound value from the derivative-envelope samples.

    qa, qb, qm are |f'(a)|^q, |f'(b)|^q, |f'((a+b)/2)|^q.  Returns the bound
    together with a note naming the display used.  Raises WrongBranchError
    when (s, q) belong to another case.
    """
    case = BoundCase(case)
    if b - a == 0.0:
        return 0.0, "degenerate interval"
    check_branch(case, s, q)
    return case_formula(case, a, b, lam, mu, s, q, qa, qb, qm)


def case_formula(case: BoundCase, a, b, lam, mu, s, q, qa, qb, qm) -> tuple[float, str]:
    """`case_bound_from_values` without its branch check, for a caller that
    settles the branch itself (the mean theorems, whose order may pass it)."""
    width = b - a
    rho = 1.0 - 1.0 / q
    m_lam = kernel_mass(lam)
    m_mu = kernel_mass(mu)

    if case is BoundCase.T31_s_minus1:
        c = TWO_LN2_MINUS_1
        brackets = (c * qa + qb) ** (1.0 / q) + (qa + c * qb) ** (1.0 / q)
        return width / 2.0 ** (3.0 - 2.0 / q) * brackets, "s=-1 harmonic display"

    if case is BoundCase.T31_general:
        lam_block = (
            moment_case((1, 1), 1.0 - lam, s) * qa
            + moment_case((-1, 1), 1.0 - lam, s) * qb
        )
        mu_block = (
            moment_case((1, 0), mu, s) * qa + moment_case((-1, 2), mu, s) * qb
        )
        bound = width / 2.0 ** (s / q + 2.0) * (
            m_lam**rho * lam_block ** (1.0 / q) + m_mu**rho * mu_block ** (1.0 / q)
        )
        return bound, "general-s display via moment closed forms"

    if case in (BoundCase.T32_tier1, BoundCase.T32_tier2):
        qm_eff = qm
        note = "tier1 moment display"
        if case is BoundCase.T32_tier2:
            qm_eff = midpoint_envelope(s, qa, qb)
            note = "tier2 = tier1 with midpoint envelope (mechanical)"
        lam_block = (
            moment_case((1, 0), 1.0 - lam, s) * qa
            + moment_case((-1, 1), 1.0 - lam, s) * qm_eff
        )
        mu_block = (
            moment_case((1, 0), mu, s) * qm_eff + moment_case((-1, 1), mu, s) * qb
        )
        bound = width / 4.0 * (
            m_lam**rho * lam_block ** (1.0 / q) + m_mu**rho * mu_block ** (1.0 / q)
        )
        return bound, note

    if case is BoundCase.T33_q1:
        w = 2.0 ** (s + 1.0) - 1.0
        bound = (
            width
            / (2.0 ** (s + 1.0) * (s + 1.0))
            * (m_lam * (w * qa + qb) + m_mu * (qa + w * qb))
        )
        return bound, "q=1 product display, corrected prefactor 2^(s+1)"

    if case is BoundCase.T33_qgt1:
        w = 2.0 ** (s + 1.0) - 1.0
        h_lam = holder_weight_integral(1.0 - lam, q)
        h_mu = holder_weight_integral(mu, q)
        bound = (
            width
            / 2.0 ** (s / q + 2.0)
            * (1.0 / (s + 1.0)) ** (1.0 / q)
            * (
                h_lam**rho * (w * qa + qb) ** (1.0 / q)
                + h_mu**rho * (qa + w * qb) ** (1.0 / q)
            )
        )
        return bound, "conjugate-exponent display"

    if case in (BoundCase.T34_q1_tier1, BoundCase.T34_q1_tier2):
        if case is BoundCase.T34_q1_tier1:
            bound = (
                width
                / (4.0 * (s + 1.0))
                * (m_lam * (qa + qm) + m_mu * (qm + qb))
            )
            return bound, "q=1 product display as printed (known-defective)"
        w = 2.0**s + 1.0
        bound = (
            width
            / (2.0 ** (s + 2.0) * (s + 1.0))
            * (m_lam * (w * qa + qb) + m_mu * (qa + w * qb))
        )
        return bound, "q=1 tier2 via midpoint envelope (known-defective tier1)"

    if case in (BoundCase.T34_qgt1_tier1, BoundCase.T34_qgt1_tier2):
        h_lam = holder_weight_integral(1.0 - lam, q)
        h_mu = holder_weight_integral(mu, q)
        inv_s1 = (1.0 / (s + 1.0)) ** (1.0 / q)
        if case is BoundCase.T34_qgt1_tier1:
            bound = (
                width
                / 4.0
                * inv_s1
                * (
                    h_lam**rho * (qa + qm) ** (1.0 / q)
                    + h_mu**rho * (qm + qb) ** (1.0 / q)
                )
            )
            return bound, "conjugate-exponent tier1 display"
        w = 2.0**s + 1.0
        bound = (
            width
            / 2.0 ** (s / q + 2.0)
            * inv_s1
            * (
                h_lam**rho * (w * qa + qb) ** (1.0 / q)
                + h_mu**rho * (qa + w * qb) ** (1.0 / q)
            )
        )
        return bound, "conjugate-exponent tier2 via midpoint envelope"

    raise WrongBranchError(f"unhandled case {case!r}")


def derivative_values(f: FunctionSpec, p: BoundParams) -> tuple[float, float, float]:
    """(|f'(a)|^q, |f'(b)|^q, |f'(m)|^q) for the bound formulas."""
    if f.deriv is None:
        raise WrongBranchError(f"{f.fid} carries no derivative")
    qa = abs(f.deriv(p.a)) ** p.q
    qb = abs(f.deriv(p.b)) ** p.q
    qm = abs(f.deriv(p.midpoint())) ** p.q
    return qa, qb, qm


def deviation_params(case: BoundCase, p: BoundParams) -> BoundParams:
    """Parameters of the deviation a case controls.

    T31_s_minus1 bounds the midpoint deviation, the lhs at λ = μ = 0; every
    other case bounds the lhs at the row's own weights.
    """
    if case is BoundCase.T31_s_minus1:
        return BoundParams(p.a, p.b, 0.0, 0.0, p.s, p.q)
    return p


def eval_case(
    case: BoundCase | str,
    f: FunctionSpec,
    p: BoundParams,
    tol: float = DEFAULT_TOL,
    certificate: str = "unchecked",
) -> BoundResult:
    """Evaluate one bound case: lhs by quadrature, bound from closed forms.

    `certificate` is the status the row reports; bounds are computed either
    way so uncertified configurations can still be explored.  Raises
    WrongBranchError when (s, q) belong to another case.
    """
    case = BoundCase(case)
    lhs = abs(hh_lhs(f, deviation_params(case, p), tol))
    qa, qb, qm = derivative_values(f, p)
    bound, note = case_bound_from_values(case, p.a, p.b, p.lam, p.mu, p.s, p.q, qa, qb, qm)
    return BoundResult(lhs, bound, bound - lhs, case.value, params_dict(p), certificate, note)
