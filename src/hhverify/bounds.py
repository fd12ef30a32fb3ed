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

`case_formula` and `case_bound_from_values` take a, b, λ, μ and the
derivative samples as floats or as float64 arrays (s and q stay floats),
so one call evaluates a case over a whole block of rows.  When any of them
is an array, every power of a per-row value goes through `moments.power`,
which maps libm's pow over the array (on floats it is x ** y), and the
arithmetic runs in the same order either way, so each array entry has
exactly the bits of the float call for its row.

A case row has one builder, `harness.add_interval_rows`: the sweep and
the CLI's `bound` command both call it, and it makes one array call per
(s, q) branch and case.  `eval_case` is the scalar reference the tests
compare that builder with; it labels no certificate.  Both take the lhs
from `identity.hh_lhs`, the one lhs routine, so the two agree bit for bit,
and both refuse a bound that is not finite (`nonfinite_bound`).
`is_violation` is the one violation predicate, shared by
`BoundResult.violated` and the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import FunctionDomainError, WrongBranchError
from .functions import FunctionSpec
from .identity import BoundParams, hh_lhs
from .moments import holder_weight_integral, kernel_mass, moment_case, power
from .quadrature import DEFAULT_TOL

__all__ = [
    "BoundCase",
    "BoundResult",
    "MIDPOINT_CASES",
    "VIOLATION_TOL",
    "Q_BRANCH_EPS",
    "S_BRANCH_EPS",
    "branch_mismatch",
    "case_bound_from_values",
    "case_formula",
    "check_branch",
    "deviation_weights",
    "derivative_values",
    "eval_case",
    "is_violation",
    "midpoint_envelope",
    "nonfinite_bound",
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
    """One bound instance as a scalar reference path evaluates it."""

    lhs: float
    bound: float
    slack: float
    case: str
    certificate: str = "unchecked"
    branch_notes: str = ""
    preset: Optional[str] = None

    @property
    def violated(self) -> bool:
        return is_violation(self.slack, self.bound)


def midpoint_envelope(s: float, qa: float, qb: float) -> float:
    """Bound on |f'(m)|^q from the endpoint values: 2^(-s) (A + B)."""
    return 2.0 ** (-s) * (qa + qb)


_Q1_CASES = frozenset(
    {BoundCase.T33_q1, BoundCase.T34_q1_tier1, BoundCase.T34_q1_tier2}
)
_QGT1_CASES = frozenset(
    {BoundCase.T33_qgt1, BoundCase.T34_qgt1_tier1, BoundCase.T34_qgt1_tier2}
)
# The tier pairs `case_formula` shares a display between.
_T32_TIERS = frozenset({BoundCase.T32_tier1, BoundCase.T32_tier2})
_T34_Q1_TIERS = frozenset({BoundCase.T34_q1_tier1, BoundCase.T34_q1_tier2})
_T34_QGT1_TIERS = frozenset({BoundCase.T34_qgt1_tier1, BoundCase.T34_qgt1_tier2})


def branch_mismatch(case: BoundCase, s: float, q: float) -> str:
    """Why (s, q) lie off the branch of `case`, or "" when they lie on it.

    It depends on (s, q) alone, so a sweep settles it once per (s, q)
    instead of once per row.
    """
    if case is BoundCase.T31_s_minus1:
        return "" if s == -1.0 else f"T31_s_minus1 needs s = -1 exactly, got {s!r}"
    if s < -1.0 + S_BRANCH_EPS:
        return f"{case.value} needs s > -1 + 1e-6, got s={s!r}; s = -1 is T31_s_minus1 only"
    if s > 1.0:
        return f"{case.value} needs s <= 1, got s={s!r}"
    if case in _Q1_CASES and q >= 1.0 + Q_BRANCH_EPS:
        return f"{case.value} is a q = 1 branch, got q={q!r}"
    if case in _QGT1_CASES and q < 1.0 + Q_BRANCH_EPS:
        return f"{case.value} needs q >= 1 + 1e-9, got q={q!r}"
    return ""


def check_branch(case: BoundCase, s: float, q: float) -> None:
    """Raise WrongBranchError unless (s, q) lie on the branch of `case`."""
    problem = branch_mismatch(case, s, q)
    if problem:
        raise WrongBranchError(problem)


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

    a, b, lam, mu, qa, qb and qm may be float64 arrays, one entry per row;
    the bound is then an array whose every entry has the bits the float
    call for that row gives, and the note is one string for the block.
    """
    if not isinstance(case, BoundCase):
        case = BoundCase(case)
    check_branch(case, s, q)
    return case_formula(case, a, b, lam, mu, s, q, qa, qb, qm)


def case_formula(case: BoundCase, a, b, lam, mu, s, q, qa, qb, qm) -> tuple[float, str]:
    """`case_bound_from_values` without its branch check, for a caller that
    settles the branch itself (the mean theorems, whose order may pass it)."""
    # Every base of a power is built from lam, mu and the samples; when they
    # are all floats, the builtin pow (x ** y) spares `power`'s call.
    pw = pow if type(lam) is type(mu) is type(qa) is type(qb) is type(qm) is float else power
    width = b - a
    rho = 1.0 - 1.0 / q
    m_lam = kernel_mass(lam)
    m_mu = kernel_mass(mu)

    if case is BoundCase.T31_s_minus1:
        c = TWO_LN2_MINUS_1
        brackets = pw(c * qa + qb, 1.0 / q) + pw(qa + c * qb, 1.0 / q)
        return width / 2.0 ** (3.0 - 2.0 / q) * brackets, "s=-1 harmonic display"

    if case is BoundCase.T31_general:
        lam_block = (
            moment_case((1.0, 1.0), 1.0 - lam, s) * qa
            + moment_case((-1.0, 1.0), 1.0 - lam, s) * qb
        )
        mu_block = (
            moment_case((1.0, 0.0), mu, s) * qa + moment_case((-1.0, 2.0), mu, s) * qb
        )
        bound = width / 2.0 ** (s / q + 2.0) * (
            pw(m_lam, rho) * pw(lam_block, 1.0 / q)
            + pw(m_mu, rho) * pw(mu_block, 1.0 / q)
        )
        return bound, "general-s display via moment closed forms"

    if case in _T32_TIERS:
        qm_eff = qm
        note = "tier1 moment display"
        if case is BoundCase.T32_tier2:
            qm_eff = midpoint_envelope(s, qa, qb)
            note = "tier2 = tier1 with midpoint envelope (mechanical)"
        lam_block = (
            moment_case((1.0, 0.0), 1.0 - lam, s) * qa
            + moment_case((-1.0, 1.0), 1.0 - lam, s) * qm_eff
        )
        mu_block = (
            moment_case((1.0, 0.0), mu, s) * qm_eff + moment_case((-1.0, 1.0), mu, s) * qb
        )
        bound = width / 4.0 * (
            pw(m_lam, rho) * pw(lam_block, 1.0 / q)
            + pw(m_mu, rho) * pw(mu_block, 1.0 / q)
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
                pw(h_lam, rho) * pw(w * qa + qb, 1.0 / q)
                + pw(h_mu, rho) * pw(qa + w * qb, 1.0 / q)
            )
        )
        return bound, "conjugate-exponent display"

    if case in _T34_Q1_TIERS:
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

    if case in _T34_QGT1_TIERS:
        h_lam = holder_weight_integral(1.0 - lam, q)
        h_mu = holder_weight_integral(mu, q)
        inv_s1 = (1.0 / (s + 1.0)) ** (1.0 / q)
        if case is BoundCase.T34_qgt1_tier1:
            bound = (
                width
                / 4.0
                * inv_s1
                * (
                    pw(h_lam, rho) * pw(qa + qm, 1.0 / q)
                    + pw(h_mu, rho) * pw(qm + qb, 1.0 / q)
                )
            )
            return bound, "conjugate-exponent tier1 display"
        w = 2.0**s + 1.0
        bound = (
            width
            / 2.0 ** (s / q + 2.0)
            * inv_s1
            * (
                pw(h_lam, rho) * pw(w * qa + qb, 1.0 / q)
                + pw(h_mu, rho) * pw(qa + w * qb, 1.0 / q)
            )
        )
        return bound, "conjugate-exponent tier2 via midpoint envelope"

    raise WrongBranchError(f"unhandled case {case!r}")


def nonfinite_bound(name: str, fid: str, a: float, b: float) -> FunctionDomainError:
    """Refusal of a `name` row whose bound overflowed, which would read "holds"."""
    return FunctionDomainError(f"{name} bound for {fid} is not finite on [{a!r}, {b!r}]")


def derivative_values(f: FunctionSpec, a: float, b: float, q: float) -> tuple[float, float, float]:
    """(|f'(a)|^q, |f'(b)|^q, |f'(m)|^q), m = (a+b)/2, for the bound formulas.

    Raises FunctionDomainError when one of them overflows or is not finite.
    """
    df = f.deriv
    if df is None:
        raise WrongBranchError(f"{f.fid} carries no derivative")
    try:
        qa, qb, qm = abs(df(a)) ** q, abs(df(b)) ** q, abs(df(0.5 * (a + b))) ** q
    except OverflowError as exc:
        raise FunctionDomainError(f"|{f.fid}'|^{q:g} overflows on [{a!r}, {b!r}]") from exc
    if not (math.isfinite(qa) and math.isfinite(qb) and math.isfinite(qm)):
        raise FunctionDomainError(f"|{f.fid}'|^{q:g} is not finite on [{a!r}, {b!r}]")
    return qa, qb, qm


# Cases that bound the midpoint deviation, the lhs at λ = μ = 0, whatever
# the row's weights; every other case bounds the lhs at the row's own.
MIDPOINT_CASES = frozenset({BoundCase.T31_s_minus1})


def deviation_weights(case: BoundCase, lam: float, mu: float) -> tuple[float, float]:
    """The (λ, μ) of the deviation a case controls (see `MIDPOINT_CASES`)."""
    return (0.0, 0.0) if case in MIDPOINT_CASES else (lam, mu)


def eval_case(case: BoundCase | str, f: FunctionSpec, p: BoundParams, tol: float = DEFAULT_TOL) -> BoundResult:
    """Evaluate one bound case: lhs from `hh_lhs`, bound from closed forms.

    Raises WrongBranchError when (s, q) belong to another case.
    """
    case = BoundCase(case)
    lhs = abs(hh_lhs(f, p.a, p.b, *deviation_weights(case, p.lam, p.mu), tol))
    qa, qb, qm = derivative_values(f, p.a, p.b, p.q)
    bound, note = case_bound_from_values(case, p.a, p.b, p.lam, p.mu, p.s, p.q, qa, qb, qm)
    if not math.isfinite(bound):
        raise nonfinite_bound(case.value, f.fid, p.a, p.b)
    return BoundResult(lhs, bound, bound - lhs, case.value, branch_notes=note)
