"""Scalar functions with exact derivatives, plus extended s-convexity checks.

A function g is extended s-convex on an interval, for s in [-1, 1], when

    g(λx + (1-λ)y) <= λ^s g(x) + (1-λ)^s g(y)    for all x, y, λ in (0, 1).

s = 1 is ordinary convexity, s = 0 allows the P-convex doubling bound, and
s = -1 is the Godunova-Levin class.  Each registry spec carries its exact
mean over any [a, b] in its domain, written without cancellation, which is
what `identity.hh_lhs` subtracts.  Only this module spells and parses
registry ids ("exp", "pow:<p>", "const:<c>"), a parameter as `{:g}` writes
it when that reads back exactly and as `repr` otherwise, so the registry's
`from_id(f.fid, f.lo, f.hi)` rebuilds f.  Two analytic rules certify |f'|^q for
registry functions: the convexity rule, which covers every nonnegative
convex envelope at every order, and the power rule, which covers x^p at
order p - 1.  `analytic_order` is the one place they are composed; the
sweep, the mean theorems and `certify_power_extended_s` all read it.
Anything neither rule covers can merely be sampled, so a sampling check
reports not-falsified, never certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import FunctionDomainError
from .moments import _refuse, libm, power

__all__ = [
    "FunctionSpec",
    "ConvexityCertificate",
    "make_power",
    "make_exp",
    "make_const",
    "parse_id",
    "canonical_id",
    "from_id",
    "derivative_q_envelope",
    "power_rule_holds",
    "convex_power_envelope",
    "analytic_order",
    "certify_power_extended_s",
    "check_extended_s_convex",
]

# λ is kept away from {0, 1}: the defining inequality quantifies over the
# open interval and λ^s blows up at 0 for s < 0.
LAMBDA_CLAMP = 1e-6


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function on [lo, hi] with an exact first derivative."""

    fid: str
    lo: float
    hi: float
    eval: Callable[[float], float]
    deriv: Optional[Callable[[float], float]]
    # (a, b) ↦ (1/(b-a))∫ₐᵇ f for lo <= a < b <= hi, exact up to rounding;
    # None for a spec with no closed form, whose lhs `hh_lhs` refuses.
    mean: Optional[Callable[[float, float], float]] = None


@dataclass(frozen=True)
class ConvexityCertificate:
    """Claim about extended s-convexity of a target function.

    status is one of:
      - "certified-analytic": backed by an analytic rule, the power rule or
        the convexity rule, for every order up to `s`;
      - "not-falsified": sampling found no violation (not a proof);
      - "falsified": `witness` is a triple (x, y, lam) violating the
        defining inequality by more than tolerance.
    """

    s: Optional[float]
    q: float
    target: str
    status: str
    witness: Optional[tuple[float, float, float]] = None
    note: str = ""


def _spell(family: str, value: Optional[float]) -> str:
    """The registry id of (family, value), spelled as the module docstring says."""
    if family == "exp":
        return "exp"
    short = f"{value:g}"
    return f"{family}:{short if float(short) == value else repr(float(value))}"


def make_power(p: float, lo: float, hi: float) -> FunctionSpec:
    """x ↦ x^p on [lo, hi] with derivative p·x^(p-1).

    p, lo and hi may be float64 columns, one function per entry: each is
    checked at its first bad entry, `fid` is then the list of each entry's
    id, and eval, deriv and mean take columns too, each entry with the bits
    of its own float spec (`moments.power` and `moments.libm`).
    """
    _refuse(lo >= hi, FunctionDomainError, "need lo < hi, got [{!r}, {!r}]", lo, hi)
    _refuse((p < 1.0) & (lo <= 0.0), FunctionDomainError, "power p={!r} < 1 needs lo > 0, got lo={!r}", p, lo)
    _refuse((p % 1.0 != 0.0) & (lo < 0.0), FunctionDomainError, "non-integer power p={!r} needs lo >= 0", p)
    if isinstance(p, np.ndarray):
        spelled = {value: _spell("pow", value) for value in set(p.tolist())}
        return FunctionSpec([spelled[value] for value in p.tolist()], lo, hi, lambda x: power(x, p),
                            lambda x: p * power(x, p - 1.0), partial(libm, _mean_of_power, p))
    # `power` is ** on floats; a float spec binds ** itself.
    return FunctionSpec(_spell("pow", p), float(lo), float(hi), lambda x: x**p, lambda x: p * x ** (p - 1.0),
                        partial(_mean_of_power, p))


def _mean_of_power(p: float, a: float, b: float) -> float:
    """(1/(b-a))∫ₐᵇ x^p dx for a < b, on either side of 0."""
    if b <= 0.0:
        # Mirrored: x ↦ -x maps [a, b] onto [-b, -a]; p is an integer here.
        return (-1.0) ** p * _power_mean(p, -b, -a)
    if a < 0.0:
        # Summed over [a, 0] and [0, b]; p is an integer >= 1 here.  Where
        # that overflows, each term is divided by b - a first, as in
        # `_power_mean`, through halves: b - a itself may overflow.
        half = 0.5 * b - 0.5 * a
        try:
            direct = (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))
        except OverflowError:
            direct = math.inf
        return direct if math.isfinite(direct) else (b**p * (0.5 * b / half) - a**p * (0.5 * a / half)) / (p + 1.0)
    return _power_mean(p, a, b)


def _power_mean(p: float, a: float, b: float) -> float:
    """(1/(b-a))∫ₐᵇ x^p dx for 0 <= a < b, without cancellation.

    b^(p+1) - a^(p+1) = a^(p+1)·expm1((p+1)·log1p(w/a)), w = b - a, except
    where that exponent exceeds 1 in size: there the direct difference
    loses at most a bit or two, while expm1 would magnify the rounding of
    its argument (and overflow sooner).  The direct form raises to p, not
    to the rounded p + 1, whose error grows with |log b|.  Where b^(p+1)
    overflows but the mean does not, each term is divided by w before the
    subtraction and the difference by p + 1 after it; (p+1)·w itself may
    overflow.
    """
    if a == 0.0:
        return b**p / (p + 1.0)
    w = b - a
    r = w / a
    if p == -1.0:
        return math.log1p(r) / w
    e = (p + 1.0) * math.log1p(r)
    if abs(e) > 1.0:
        direct = (b**p * b - a**p * a) / ((p + 1.0) * w)
        return direct if math.isfinite(direct) else (b**p * (b / w) - a**p * (a / w)) / (p + 1.0)
    return a**p * (math.expm1(e) / ((p + 1.0) * r))


def _exp_mean(a: float, b: float) -> float:
    """(1/(b-a))∫ₐᵇ e^x dx = e^b·(1 - e^(-w))/w, w = b - a.

    Written from e^b, not e^a·expm1(w)/w: the rounding of w, up to
    ε·|b|/2, would pass into e^w as a relative error of that size (205 ulp
    on [1.3, 600.1]), while 1 - e^(-w) barely depends on it.
    """
    w = b - a
    return math.exp(b) * (-math.expm1(-w) / w)


def make_exp(lo: float, hi: float) -> FunctionSpec:
    if lo >= hi:
        raise FunctionDomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    return FunctionSpec("exp", float(lo), float(hi), math.exp, math.exp, _exp_mean)


def make_const(c: float, lo: float, hi: float) -> FunctionSpec:
    if lo >= hi:
        raise FunctionDomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    return FunctionSpec(_spell("const", c), float(lo), float(hi), lambda x: c, lambda x: 0.0, lambda a, b: c)


def parse_id(fid: str) -> tuple[str, Optional[float]]:
    """Split a family id into ("pow", p), ("const", c) or ("exp", None).

    Raises FunctionDomainError for an unknown family or a parameter that is
    not a finite number.
    """
    if fid == "exp":
        return "exp", None
    family, _, raw = fid.partition(":")
    if family not in ("pow", "const"):
        raise FunctionDomainError(f"unknown function id {fid!r}")
    try:
        value = float(raw)
    except ValueError:
        raise FunctionDomainError(f"{fid!r}: parameter is not a number") from None
    if not math.isfinite(value):
        raise FunctionDomainError(f"{fid!r}: parameter must be finite")
    return family, value


def canonical_id(fid: str) -> str:
    """The one spelling of a registry id: "pow:2.0" and "pow:2" are "pow:2"."""
    return _spell(*parse_id(fid))


def from_id(fid: str, lo: float, hi: float) -> FunctionSpec:
    """Resolve a family id ("pow:<p>", "exp", "const:<c>") on [lo, hi]."""
    family, value = parse_id(fid)
    if family == "exp":
        return make_exp(lo, hi)
    if family == "pow":
        return make_power(value, lo, hi)
    return make_const(value, lo, hi)


def derivative_q_envelope(f: FunctionSpec, q: float) -> FunctionSpec:
    """|f'|^q as a FunctionSpec; its own derivative is left absent."""
    if not 1.0 <= q < math.inf:
        raise FunctionDomainError(f"need finite q >= 1, got {q!r}")
    if f.deriv is None:
        raise FunctionDomainError(f"{f.fid} carries no derivative")
    df = f.deriv

    def g(x: float) -> float:
        return abs(df(x)) ** q

    return FunctionSpec(f"|{f.fid}'|^{q:g}", f.lo, f.hi, g, None)


def power_rule_holds(p: float, q: float) -> bool:
    """The power rule: -1 < (p-1)q <= 1 and -1 < p-1 <= 1 (floats, or a
    mask over columns)."""
    gamma = (p - 1.0) * q
    return (-1.0 < gamma) & (gamma <= 1.0) & (-1.0 < p - 1.0) & (p - 1.0 <= 1.0)


def convex_power_envelope(p: float, q: float, lo: float) -> bool:
    """True when |d(x^p)|^q, a multiple of x^γ with γ = (p-1)q, is convex
    on [lo, ∞): γ >= 1, γ = 0, or γ < 0 with lo > 0 (floats, or a mask
    over columns)."""
    gamma = (p - 1.0) * q
    return (gamma >= 1.0) | (gamma == 0.0) | ((gamma < 0.0) & (lo > 0.0))


def analytic_order(family: str, p: Optional[float], lo: float, q: float) -> Optional[float]:
    """Highest order s* at which an analytic rule certifies |f'|^q of the
    parsed registry id (family, p) on every interval starting at lo, or None.
    p, lo and q may be columns of a pow family: the orders are then a
    column, NaN where there is none.

    A certificate at order s* covers every order s <= s* (the nesting of
    s-convex classes, Hudzik & Maligranda, Aequationes Math. 48, 1994).
    The convexity rule gives 1.0: a nonnegative convex g is extended
    s-convex for every s in [-1, 1], since λ^s >= λ on (0, 1), and |f'|^q
    is convex for exp (e^(qx)), for const (identically 0) and for pow:p
    when `convex_power_envelope` holds.  Otherwise the power rule gives
    p - 1 for pow:p: p^q x^((p-1)q) is extended (p-1)-convex when
    `power_rule_holds`, on an interval with lo > 0, or lo = 0 with p >= 1
    (a nonnegative exponent, so x = 0 is harmless).
    """
    if isinstance(q, np.ndarray) or not 1.0 <= q < math.inf:
        _refuse((q < 1.0) | (q == math.inf) | (q != q), FunctionDomainError, "need finite q >= 1, got {!r}", q)
    if family != "pow":
        return 1.0
    convex = convex_power_envelope(p, q, lo)
    if isinstance(convex, np.ndarray):
        return np.where(convex, 1.0, np.where(_power_rule_covers(p, q, lo), p - 1.0, np.nan))
    return 1.0 if convex else p - 1.0 if _power_rule_covers(p, q, lo) else None


def _power_rule_covers(p: float, q: float, lo: float) -> bool:
    """The power rule holds and covers [lo, ∞): lo > 0, or lo = 0 with
    p >= 1 (a nonnegative exponent, so x = 0 is harmless)."""
    return power_rule_holds(p, q) & ((lo > 0.0) | ((lo == 0.0) & (p >= 1.0)))


def certify_power_extended_s(p: float, q: float) -> ConvexityCertificate:
    """Analytic certificate for |f'|^q of f = x^p on positive intervals.

    The order is `analytic_order` at any lo > 0, which one rule always
    covers for finite p > 0 and q >= 1: γ = (p-1)q < 0, γ = 0 and γ >= 1
    are convex, and 0 < γ < 1 forces 0 < p - 1 < 1, inside the power rule.
    """
    if not 0.0 < p < math.inf:
        raise FunctionDomainError(f"need finite p > 0, got {p!r}")
    order = analytic_order("pow", p, 1.0, q)
    assert order is not None
    return ConvexityCertificate(
        s=order,
        q=q,
        target=f"|d({_spell('pow', p)})|^{q:g}",
        status="certified-analytic",
        # The power rule reaches order 1 only at p = 2, where γ = q >= 1.
        note="convexity rule" if order == 1.0 else "power rule",
    )


def _halton(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def check_extended_s_convex(
    g: FunctionSpec,
    lo: float,
    hi: float,
    s: float,
    samples: int = 200,
    seed: int = 0,
) -> ConvexityCertificate:
    """Sampling check of the defining inequality on [lo, hi].

    Evaluates a Halton set plus seeded random triples (x, y, λ) with λ
    clamped to [1e-6, 1 - 1e-6].  Returns falsified with the first witness
    whose violation exceeds 1e-12·(1 + scale); otherwise not-falsified.
    Deterministic for fixed (seed, samples).
    """
    if samples < 1:
        raise FunctionDomainError(f"need samples >= 1, got {samples!r}")
    if not (g.lo <= lo < hi <= g.hi):
        raise FunctionDomainError(
            f"[{lo!r}, {hi!r}] is not inside the domain of {g.fid}"
        )
    if not -1.0 <= s <= 1.0:
        raise FunctionDomainError(f"need s in [-1, 1], got {s!r}")

    def value(x: float) -> float:
        try:
            v = g.eval(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise FunctionDomainError(f"{g.fid} not evaluable at {x!r}: {exc}") from exc
        if not math.isfinite(v):
            raise FunctionDomainError(f"{g.fid} not finite at {x!r}")
        if v < 0.0:
            raise FunctionDomainError(
                f"{g.fid} is negative at {x!r}; extended s-convexity needs g >= 0"
            )
        return v

    def triple(u1: float, u2: float, u3: float) -> Optional[tuple[float, float, float]]:
        x = lo + u1 * (hi - lo)
        y = lo + u2 * (hi - lo)
        lam = min(1.0 - LAMBDA_CLAMP, max(LAMBDA_CLAMP, u3))
        lhs = value(lam * x + (1.0 - lam) * y)
        rhs = lam**s * value(x) + (1.0 - lam) ** s * value(y)
        if lhs - rhs > 1e-12 * (1.0 + abs(rhs)):
            return (x, y, lam)
        return None

    target = f"{g.fid} (s={s:g})"
    for k in range(1, samples + 1):
        w = triple(_halton(k, 2), _halton(k, 3), _halton(k, 5))
        if w is not None:
            return ConvexityCertificate(s, 1.0, target, "falsified", w, "halton witness")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        u = rng.uniform(size=3)
        w = triple(u[0], u[1], u[2])
        if w is not None:
            return ConvexityCertificate(s, 1.0, target, "falsified", w, "random witness")
    return ConvexityCertificate(s, 1.0, target, "not-falsified", None, f"{2 * samples} triples")
