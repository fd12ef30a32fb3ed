"""Bound cases for the weighted trapezoid-midpoint deviation.

Every case bounds |hh_lhs| for functions whose |f'|^q is extended
s-convex, in three steps: the identity's kernels K_λ = 1 - λ - t and
K_μ = μ - t, a kernel step, and the s-convexity envelope of |f'|^q.
`CASES` holds one `CaseRow` per case: its q branch, its kernel step (a key
of `KERNEL_STEPS`), its envelope blocks (L, R) from |f'|^q at a, b and
(a+b)/2, its scale (divisor, factor) and its note.  `case_formula`
evaluates the one bracket all ten share, (b - a)/divisor · factor ·
(K_λ·L^p + K_μ·R^p), with (K_λ, K_μ, p) from the step; a quantity derived
through the same steps, such as the Hölder step's `moments.holder_norm` or
a display's function-free lower limit, attaches to the `step` column.

Two q = 1 product-form displays are misprinted at the source.  T33_q1
ships with the corrected prefactor 2^(s+1); the as-printed 2^(s+2) is
falsifiable and is `presets.VERBATIM_DISPLAYS["T33_q1"]`, which the
erratum scan compares with this case.  T34_q1 ships as printed, because
its spot values are pinned that way; the validity sweep exposes its defect.

a, b, λ, μ and the derivative samples may be float64 arrays, one entry per
row (s and q stay floats).  Every power of a per-row value then goes
through `moments.power`, libm's pow on each element, and the arithmetic
runs in the float call's order, so each entry has the bits of the float
call for its row.  x·1.0 and x^1 are exact, so a weight, factor or power
of 1 in the bracket changes no bit.

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
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import FunctionDomainError, WrongBranchError
from .functions import FunctionSpec
from .identity import BoundParams, hh_lhs
from .moments import Q_BRANCH_EPS, holder_norm, kernel_mass, moment_case, power
from .quadrature import DEFAULT_TOL

__all__ = [
    "BoundCase",
    "BoundResult",
    "CASES",
    "CaseRow",
    "KERNEL_STEPS",
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


# Kernel steps: (λ, μ, q, pw) -> (K_λ, K_μ, p), the weights of the two
# envelope blocks and the power the blocks are raised to.  The weights are
# (∫|K|)^(1-1/q) for "power-mean", the conjugate-exponent norm
# (∫|K|^(q/(q-1)))^(1-1/q) from `moments.holder_norm` for "holder", ∫|K|
# for "product" (q = 1) and 1 for "harmonic" (s = -1).
KERNEL_STEPS = {
    "power-mean": lambda lam, mu, q, pw: (pw(kernel_mass(lam), 1.0 - 1.0 / q), pw(kernel_mass(mu), 1.0 - 1.0 / q), 1.0 / q),
    "holder": lambda lam, mu, q, pw: (holder_norm(1.0 - lam, q), holder_norm(mu, q), 1.0 / q),
    "product": lambda lam, mu, q, pw: (kernel_mass(lam), kernel_mass(mu), 1.0),
    "harmonic": lambda lam, mu, q, pw: (1.0, 1.0, 1.0 / q),
}


# Envelopes: (λ, μ, s, A, B, M) -> (L, R).
def _whole(lam, mu, s, qa, qb, qm):
    """Kernel moments of the envelope over [a, b], from A and B."""
    return (
        moment_case((1.0, 1.0), 1.0 - lam, s) * qa + moment_case((-1.0, 1.0), 1.0 - lam, s) * qb,
        moment_case((1.0, 0.0), mu, s) * qa + moment_case((-1.0, 2.0), mu, s) * qb,
    )


def _split(lam, mu, s, qa, qb, qm):
    """Kernel moments of the envelope over each half, from A, M and B."""
    return (
        moment_case((1.0, 0.0), 1.0 - lam, s) * qa + moment_case((-1.0, 1.0), 1.0 - lam, s) * qm,
        moment_case((1.0, 0.0), mu, s) * qm + moment_case((-1.0, 1.0), mu, s) * qb,
    )


def _split_midpoint(lam, mu, s, qa, qb, qm):
    """`_split` with M replaced by its bound `midpoint_envelope`."""
    return _split(lam, mu, s, qa, qb, midpoint_envelope(s, qa, qb))


def _halves(lam, mu, s, qa, qb, qm):
    """Envelope (A + M, M + B), one block per half."""
    return qa + qm, qm + qb


def _pair(weight):
    """Envelope (w·A + B, A + w·B) with w = weight(s)."""

    def blocks(lam, mu, s, qa, qb, qm):
        w = weight(s)
        return w * qa + qb, qa + w * qb

    return blocks


def _inv_s1(s, q):
    return (1.0 / (s + 1.0)) ** (1.0 / q)


@dataclass(frozen=True)
class CaseRow:
    """One bound case: (b - a)/divisor · factor · (K_λ·L^p + K_μ·R^p)."""

    q_branch: str  # "1", ">1", or "" for any q
    step: str  # a key of KERNEL_STEPS: (K_λ, K_μ, p)
    envelope: Callable  # (λ, μ, s, A, B, M) -> (L, R)
    scale: Callable  # (s, q) -> (divisor, factor)
    note: str


_T33 = _pair(lambda s: 2.0 ** (s + 1.0) - 1.0)
_T34 = _pair(lambda s: 2.0**s + 1.0)
_R = CaseRow
CASES = {
    BoundCase.T31_general: _R("", "power-mean", _whole, lambda s, q: (2.0 ** (s / q + 2.0), 1.0),
                              "general-s display via moment closed forms"),
    BoundCase.T31_s_minus1: _R("", "harmonic", _pair(lambda s: TWO_LN2_MINUS_1),
                               lambda s, q: (2.0 ** (3.0 - 2.0 / q), 1.0), "s=-1 harmonic display"),
    BoundCase.T32_tier1: _R("", "power-mean", _split, lambda s, q: (4.0, 1.0), "tier1 moment display"),
    BoundCase.T32_tier2: _R("", "power-mean", _split_midpoint, lambda s, q: (4.0, 1.0),
                            "tier2 = tier1 with midpoint envelope (mechanical)"),
    BoundCase.T33_q1: _R("1", "product", _T33, lambda s, q: (2.0 ** (s + 1.0) * (s + 1.0), 1.0),
                         "q=1 product display, corrected prefactor 2^(s+1)"),
    BoundCase.T33_qgt1: _R(">1", "holder", _T33, lambda s, q: (2.0 ** (s / q + 2.0), _inv_s1(s, q)),
                           "conjugate-exponent display"),
    BoundCase.T34_q1_tier1: _R("1", "product", _halves, lambda s, q: (4.0 * (s + 1.0), 1.0),
                               "q=1 product display as printed (known-defective)"),
    BoundCase.T34_q1_tier2: _R("1", "product", _T34, lambda s, q: (2.0 ** (s + 2.0) * (s + 1.0), 1.0),
                               "q=1 tier2 via midpoint envelope (known-defective tier1)"),
    BoundCase.T34_qgt1_tier1: _R(">1", "holder", _halves, lambda s, q: (4.0, _inv_s1(s, q)),
                                 "conjugate-exponent tier1 display"),
    BoundCase.T34_qgt1_tier2: _R(">1", "holder", _T34, lambda s, q: (2.0 ** (s / q + 2.0), _inv_s1(s, q)),
                                 "conjugate-exponent tier2 via midpoint envelope"),
}

# The cases that bound the midpoint deviation, the lhs at λ = μ = 0,
# whatever the row's weights; every other case bounds the lhs at the row's own.
MIDPOINT_CASES = frozenset(case for case, row in CASES.items() if row.step == "harmonic")


def branch_mismatch(case: BoundCase, s: float, q: float) -> str:
    """Why (s, q) lie off the branch of `case`, or "" when they lie on it.

    It depends on (s, q) alone, so a sweep settles it once per (s, q)
    instead of once per row.
    """
    row = CASES[case]
    if row.step == "harmonic":  # the s = -1 display
        return "" if s == -1.0 else f"{case.value} needs s = -1 exactly, got {s!r}"
    if s < -1.0 + S_BRANCH_EPS:
        return f"{case.value} needs s > -1 + 1e-6, got s={s!r}; s = -1 is T31_s_minus1 only"
    if s > 1.0:
        return f"{case.value} needs s <= 1, got s={s!r}"
    if row.q_branch == "1" and q >= 1.0 + Q_BRANCH_EPS:
        return f"{case.value} is a q = 1 branch, got q={q!r}"
    if row.q_branch == ">1" and q < 1.0 + Q_BRANCH_EPS:
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
    row = CASES[case]
    k_lam, k_mu, p = KERNEL_STEPS[row.step](lam, mu, q, pw)
    left, right = row.envelope(lam, mu, s, qa, qb, qm)
    divisor, factor = row.scale(s, q)
    return (b - a) / divisor * factor * (k_lam * pw(left, p) + k_mu * pw(right, p)), row.note


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


def deviation_weights(case: BoundCase, lam: float, mu: float) -> tuple[float, float]:
    """The (λ, μ) of the deviation a case controls (see `MIDPOINT_CASES`)."""
    return (0.0, 0.0) if case in MIDPOINT_CASES else (lam, mu)


def eval_case(case: BoundCase | str, f: FunctionSpec, p: BoundParams, tol: float = DEFAULT_TOL) -> BoundResult:
    """Evaluate one bound case: lhs from `hh_lhs`, bound from closed forms.

    Raises WrongBranchError when (s, q) belong to another case.
    """
    # `tol` is unused, since the lhs is exact; perfbench/checks.py still passes it.
    case = BoundCase(case)
    lhs = abs(hh_lhs(f, p.a, p.b, *deviation_weights(case, p.lam, p.mu)))
    qa, qb, qm = derivative_values(f, p.a, p.b, p.q)
    bound, note = case_bound_from_values(case, p.a, p.b, p.lam, p.mu, p.s, p.q, qa, qb, qm)
    if not math.isfinite(bound):
        raise nonfinite_bound(case.value, f.fid, p.a, p.b)
    return BoundResult(lhs, bound, bound - lhs, case.value, branch_notes=note)
