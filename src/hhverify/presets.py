"""Catalog of corollary presets: pinned-parameter displays of the bound cases.

Each preset carries two evaluation paths: its printed display (transcription)
and its parent case at the pinned parameters (derivation).  For most entries
the two agree to roundoff; `kind="weakening"` marks displays that the source
derives through an extra power-sum collapse, so they sit above the parent
value by design and only validity, not equality, can be checked.  Every
q > 1 display takes its kernel norm from `moments.holder_norm`.

Every display takes a, b, λ, μ and the |f'|^q samples as floats or as
float64 arrays, one entry per row (s and q stay floats, but for the mean
rows' `_d_t33_q1_verbatim`), as the case formulas in `bounds` do: every
power of a per-row value goes through `moments.power` and the arithmetic
runs in the float call's order, so each array entry has the bits of the
float call for its row.

Displays shipped here are corrected where the printed version demonstrably
contradicts its own derivation (a sign slip, one wrong exponent, and the
q = 1 prefactor family).  VERBATIM_DISPLAYS is the one table of as-printed
displays: the verbatim printing of every corrected preset, plus the
theorem-level T32_tier2 and T33_q1 printings whose shipped form is the
parent case itself.  Each entry is a PresetSpec (parent, pins, display)
whose note is its erratum-scan note; the scan compares it with its parent.

A preset row has one builder, `harness.add_interval_rows`, which the sweep
and the CLI's `preset` command both call: per (s, q) branch it makes one
display call over the rows that `PresetSpec.weights_match` admits.  The
weight pins are read in one place, `PresetSpec.pinned_weights`.
`eval_preset` is the scalar reference for one preset row, as
`bounds.eval_case` is for a case row; its lhs is `identity.hh_lhs` at the
weights its parent case bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .bounds import BoundCase, BoundResult, Q_BRANCH_EPS, derivative_values, deviation_weights, nonfinite_bound
from .errors import PresetMismatchError
from .functions import FunctionSpec
from .identity import BoundParams, hh_lhs
from .moments import holder_norm, kernel_mass, power
from .quadrature import DEFAULT_TOL

__all__ = [
    "PresetSpec",
    "PRESETS",
    "VERBATIM_DISPLAYS",
    "eval_preset",
]

LN2 = math.log(2.0)

# Display helpers ----------------------------------------------------------


def _s2(s: float) -> float:
    return (s + 1.0) * (s + 2.0)


def _p_outer(lam: float, s: float) -> float:
    """Coefficient 2(2-λ)^(s+2) + ((s+2)λ-2)2^(s+1) + (s+2)λ - s - 3."""
    return (
        2.0 * power(2.0 - lam, s + 2.0)
        + ((s + 2.0) * lam - 2.0) * 2.0 ** (s + 1.0)
        + (s + 2.0) * lam
        - s
        - 3.0
    )


def _p_inner(lam: float, s: float) -> float:
    """Coefficient 2λ^(s+2) - (s+2)λ + s + 1."""
    return 2.0 * power(lam, s + 2.0) - (s + 2.0) * lam + s + 1.0


def _c_near(lam: float, s: float) -> float:
    """Coefficient 2(1-λ)^(s+2) + (s+2)λ - 1 (midpoint-pair family)."""
    return 2.0 * power(1.0 - lam, s + 2.0) + (s + 2.0) * lam - 1.0


def _poly_outer_s1(lam: float) -> float:
    return 4.0 - 9.0 * lam + 12.0 * lam * lam - 2.0 * power(lam, 3.0)


def _poly_inner_s1(lam: float) -> float:
    return 2.0 - 3.0 * lam + 2.0 * power(lam, 3.0)


def _rho(q: float) -> float:
    return 1.0 - 1.0 / q


# Transcription displays ----------------------------------------------------
# Signature: (a, b, lam, mu, s, q, qa, qb, qm) -> bound, each argument but s
# and q a float or a float64 array (see the module docstring).


def _d_c31_q1(a, b, lam, mu, s, q, qa, qb, qm):
    coef_a = (
        2.0 * power(2.0 - lam, s + 2.0)
        + 2.0 * power(mu, s + 2.0)
        + ((s + 2.0) * lam - 2.0) * 2.0 ** (s + 1.0)
        + (s + 2.0) * (lam - mu)
        - 2.0
    )
    coef_b = (
        2.0 * power(lam, s + 2.0)
        + 2.0 * power(2.0 - mu, s + 2.0)
        + ((s + 2.0) * mu - 2.0) * 2.0 ** (s + 1.0)
        + (s + 2.0) * (mu - lam)
        - 2.0
    )
    return (b - a) / (2.0 ** (s + 2.0) * _s2(s)) * (coef_a * qa + coef_b * qb)


def _d_c31_sm1_q1(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) * LN2 * (qa + qb)


def _d_c32_lambda_eq_mu(a, b, lam, mu, s, q, qa, qb, qm):
    pa, pb = _p_outer(lam, s), _p_inner(lam, s)
    m = power(kernel_mass(lam), _rho(q))
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * (1.0 / _s2(s)) ** (1.0 / q)
        * m
        * (power(pa * qa + pb * qb, 1.0 / q) + power(pb * qa + pa * qb, 1.0 / q))
    )


def _d_c32_q1(a, b, lam, mu, s, q, qa, qb, qm):
    brace = (
        power(2.0 - lam, s + 2.0)
        + power(lam, s + 2.0)
        + ((s + 2.0) * lam - 2.0) * 2.0**s
        - 1.0
    )
    return (b - a) * brace * (qa + qb) / (_s2(s) * 2.0 ** (s + 1.0))


def _d_c32_trapezoid(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / 4.0
        * ((4.0 + 2.0 ** (1.0 - s)) / _s2(s)) ** (1.0 / q)
        * power(qa + qb, 1.0 / q)
    )


def _d_c33_s1(a, b, lam, mu, s, q, qa, qb, qm):
    p1l, p2l = _poly_outer_s1(lam), _poly_inner_s1(lam)
    p1m, p2m = _poly_outer_s1(mu), _poly_inner_s1(mu)
    r = _rho(q)
    return (
        (b - a)
        / 2.0 ** (1.0 / q + 2.0)
        * (1.0 / 6.0) ** (1.0 / q)
        * (
            power(kernel_mass(lam), r) * power(p1l * qa + p2l * qb, 1.0 / q)
            + power(kernel_mass(mu), r) * power(p2m * qa + p1m * qb, 1.0 / q)
        )
    )


def _d_c33_s1_q1(a, b, lam, mu, s, q, qa, qb, qm):
    lam2, lam3, mu3 = power(lam, 2.0), power(lam, 3.0), power(mu, 3.0)
    coef_a = 6.0 - 9.0 * lam + 12.0 * lam2 - 2.0 * lam3 - 3.0 * mu + 2.0 * mu3
    coef_b = 6.0 - 3.0 * lam + 2.0 * lam3 - 9.0 * mu + 12.0 * power(mu, 2.0) - 2.0 * mu3
    return (b - a) / 48.0 * (coef_a * qa + coef_b * qb)


def _d_c33_s1_q1_verbatim(a, b, lam, mu, s, q, qa, qb, qm):
    # As printed: "+3λ" in the qb coefficient where the derivation gives -3λ.
    lam2, lam3, mu3 = power(lam, 2.0), power(lam, 3.0), power(mu, 3.0)
    coef_a = 6.0 - 9.0 * lam + 12.0 * lam2 - 2.0 * lam3 - 3.0 * mu + 2.0 * mu3
    coef_b = 6.0 + 3.0 * lam + 2.0 * lam3 - 9.0 * mu + 12.0 * power(mu, 2.0) - 2.0 * mu3
    return (b - a) / 48.0 * (coef_a * qa + coef_b * qb)


def _d_c33_s1_lambda_mu(a, b, lam, mu, s, q, qa, qb, qm):
    p1, p2 = _poly_outer_s1(lam), _poly_inner_s1(lam)
    return (
        (b - a)
        / 4.0
        * (1.0 / 12.0) ** (1.0 / q)
        * power(kernel_mass(lam), _rho(q))
        * (power(p1 * qa + p2 * qb, 1.0 / q) + power(p2 * qa + p1 * qb, 1.0 / q))
    )


def _d_c33_s1_q1_lambda_mu(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / 8.0 * (1.0 - 2.0 * lam + 2.0 * lam * lam) * (qa + qb)


def _d_c35(w_hi: float, w_lo: float, denom: float, scale_num: float, scale_den: float):
    def display(a, b, lam, mu, s, q, qa, qb, qm):
        return (
            scale_num
            * (b - a)
            / scale_den
            * (
                power((w_hi * qa + w_lo * qb) / denom, 1.0 / q)
                + power((w_lo * qa + w_hi * qb) / denom, 1.0 / q)
            )
        )

    return display


def _d_e15(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) * (qa + qb) / 8.0


def _d_e19(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / 2.0
        * 0.5 ** (1.0 - 1.0 / q)
        * ((2.0 + 0.5**s) / _s2(s)) ** (1.0 / q)
        * power(qa + qb, 1.0 / q)
    )


def _d_e112(a, b, lam, mu, s, q, qa, qb, qm):
    coef = (
        (s - 4.0) * 6.0 ** (s + 1.0)
        + 2.0 * 5.0 ** (s + 2.0)
        - 2.0 * 3.0 ** (s + 2.0)
        + 2.0
    ) / (6.0 ** (s + 2.0) * _s2(s))
    return coef * (b - a) * (qa + qb)


def _d_c32x_q1_tier1(a, b, lam, mu, s, q, qa, qb, qm):
    mid = (
        2.0 * power(lam, s + 2.0)
        + 2.0 * power(mu, s + 2.0)
        + (s + 2.0) * (1.0 - lam - mu)
        + s
    )
    return (
        (b - a)
        / (4.0 * _s2(s))
        * (_c_near(lam, s) * qa + mid * qm + _c_near(mu, s) * qb)
    )


def _c32x_tier2_coef(lam: float, mu: float, s: float) -> float:
    return (
        power(1.0 - lam, s + 2.0) * 2.0 ** (s + 1.0)
        + 2.0 * power(lam, s + 2.0)
        + 2.0 * power(mu, s + 2.0)
        + ((s + 2.0) * lam - 1.0) * 2.0**s
        + (s + 2.0) * (1.0 - lam - mu)
        + s
    )


def _d_c32x_q1_tier2(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / (2.0 ** (s + 2.0) * _s2(s))
        * (_c32x_tier2_coef(lam, mu, s) * qa + _c32x_tier2_coef(mu, lam, s) * qb)
    )


def _d_c32x_lambda_mu_tier1(a, b, lam, mu, s, q, qa, qb, qm):
    ca, da = _c_near(lam, s), _p_inner(lam, s)
    return (
        (b - a)
        / 4.0
        * (1.0 / _s2(s)) ** (1.0 / q)
        * power(kernel_mass(lam), _rho(q))
        * (power(ca * qa + da * qm, 1.0 / q) + power(da * qm + ca * qb, 1.0 / q))
    )


def _c32x_lm_tier2_coef(lam: float, s: float, verbatim: bool = False) -> float:
    # Verbatim printing has 2λ^(s+1) once; symmetry and the mechanical
    # midpoint substitution both give 2λ^(s+2).
    exponent = s + 1.0 if verbatim else s + 2.0
    return (
        2.0 ** (s + 1.0) * power(1.0 - lam, s + 2.0)
        + 2.0 * power(lam, exponent)
        + ((s + 2.0) * lam - 1.0) * 2.0**s
        - (s + 2.0) * lam
        + s
        + 1.0
    )


def _d_c32x_lambda_mu_tier2(a, b, lam, mu, s, q, qa, qb, qm, verbatim=False):
    ea = _c32x_lm_tier2_coef(lam, s, verbatim)
    da = _p_inner(lam, s)
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * (1.0 / _s2(s)) ** (1.0 / q)
        * power(kernel_mass(lam), _rho(q))
        * (power(ea * qa + da * qb, 1.0 / q) + power(da * qa + ea * qb, 1.0 / q))
    )


def _poly_c1_s1(lam: float) -> float:
    return 1.0 - 3.0 * lam + 6.0 * lam * lam - 2.0 * power(lam, 3.0)


def _poly_d1_s1(lam: float) -> float:
    return 2.0 * power(lam, 3.0) - 3.0 * lam + 2.0


def _d_c32x_s1_tier1(a, b, lam, mu, s, q, qa, qb, qm, verbatim=False):
    # As printed, the λ-block midpoint coefficient reads 2λ³ - 3λ + 3.  The
    # shipped 2λ³ - 3λ + 2 is positive, so adding 0.0 to it changes no bit.
    r = _rho(q)
    mid = _poly_d1_s1(lam) + (1.0 if verbatim else 0.0)
    return (
        (b - a)
        / 4.0
        * (1.0 / 6.0) ** (1.0 / q)
        * (
            power(kernel_mass(lam), r) * power(_poly_c1_s1(lam) * qa + mid * qm, 1.0 / q)
            + power(kernel_mass(mu), r) * power(_poly_d1_s1(mu) * qm + _poly_c1_s1(mu) * qb, 1.0 / q)
        )
    )


def _d_c32x_s1_tier2(a, b, lam, mu, s, q, qa, qb, qm):
    r = _rho(q)
    return (
        (b - a)
        / 2.0 ** (1.0 / q + 2.0)
        * (1.0 / 6.0) ** (1.0 / q)
        * (
            power(kernel_mass(lam), r) * power(_poly_outer_s1(lam) * qa + _poly_d1_s1(lam) * qb, 1.0 / q)
            + power(kernel_mass(mu), r) * power(_poly_d1_s1(mu) * qa + _poly_outer_s1(mu) * qb, 1.0 / q)
        )
    )


def _d_c33x_lambda_mu_qgt1(a, b, lam, mu, s, q, qa, qb, qm):
    w = 2.0 ** (s + 1.0) - 1.0
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * (1.0 / (s + 1.0)) ** (1.0 / q)
        * holder_norm(lam, q)
        * (power(w * qa + qb, 1.0 / q) + power(qa + w * qb, 1.0 / q))
    )


def _d_c33x_boundary_qgt1(a, b, lam, mu, s, q, qa, qb, qm):
    w = 2.0 ** (s + 1.0) - 1.0
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * holder_norm(0.0, q)
        * (1.0 / (s + 1.0)) ** (1.0 / q)
        * (power(w * qa + qb, 1.0 / q) + power(qa + w * qb, 1.0 / q))
    )


def _d_c33x_s1_q1(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / 8.0 * (
        kernel_mass(lam) * (3.0 * qa + qb) + kernel_mass(mu) * (qa + 3.0 * qb)
    )


def _d_c33x_s1_q1_verbatim(a, b, lam, mu, s, q, qa, qb, qm):
    # As printed: prefactor 1/16 and brackets swapped between the blocks.
    return (b - a) / 16.0 * (
        kernel_mass(lam) * (qa + 3.0 * qb) + kernel_mass(mu) * (3.0 * qa + qb)
    )


def _d_c33x_s1_qgt1(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / 2.0 ** (2.0 / q + 2.0)
        * (
            holder_norm(lam, q) * power(3.0 * qa + qb, 1.0 / q)
            + holder_norm(mu, q) * power(qa + 3.0 * qb, 1.0 / q)
        )
    )


def _d_c33x_s1_q1_lambda_mu(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / 4.0 * (1.0 - 2.0 * lam + 2.0 * lam * lam) * (qa + qb)


def _d_c33x_s1_qgt1_lambda_mu(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / 2.0 ** (2.0 / q) * holder_norm(lam, q) * power(qa + qb, 1.0 / q)


def _d_c34x_q1_lambda_mu_tier1(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / (4.0 * (s + 1.0)) * kernel_mass(lam) * (qa + 2.0 * qm + qb)


def _d_c34x_q1_lambda_mu_tier2(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / (2.0 ** (s + 1.0) * (s + 1.0))
        * kernel_mass(lam)
        * (2.0 ** (s - 1.0) + 1.0)
        * (qa + qb)
    )


def _d_c34x_qgt1_lambda_mu_tier1(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / 4.0
        * (1.0 / (s + 1.0)) ** (1.0 / q)
        * holder_norm(lam, q)
        * (power(qa + qm, 1.0 / q) + power(qm + qb, 1.0 / q))
    )


def _d_c34x_qgt1_lambda_mu_tier2(a, b, lam, mu, s, q, qa, qb, qm):
    w = 2.0**s + 1.0
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * (1.0 / (s + 1.0)) ** (1.0 / q)
        * holder_norm(lam, q)
        * (power(w * qa + qb, 1.0 / q) + power(qa + w * qb, 1.0 / q))
    )


def _d_c34x_q1_s1_tier1(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / 8.0 * (
        kernel_mass(lam) * (qa + qm) + kernel_mass(mu) * (qm + qb)
    )


def _d_c34x_q1_s1_tier2(a, b, lam, mu, s, q, qa, qb, qm):
    return (b - a) / 16.0 * (
        kernel_mass(lam) * (3.0 * qa + qb) + kernel_mass(mu) * (qa + 3.0 * qb)
    )


def _d_c34x_qgt1_s1_tier1(a, b, lam, mu, s, q, qa, qb, qm):
    return (
        (b - a)
        / 2.0 ** (1.0 / q + 2.0)
        * (
            holder_norm(lam, q) * power(qm + qa, 1.0 / q)
            + holder_norm(mu, q) * power(qm + qb, 1.0 / q)
        )
    )


def _d_t32_tier2_verbatim(a, b, lam, mu, s, q, qa, qb, qm):
    # Theorem-level tier-2 display as printed: the μ-block carries 2μ^(s+1).
    ea = _c32x_lm_tier2_coef(lam, s)
    da, db = _p_inner(lam, s), _p_inner(mu, s)
    eb = _c32x_lm_tier2_coef(mu, s, verbatim=True)
    return (
        (b - a)
        / 2.0 ** (s / q + 2.0)
        * (1.0 / _s2(s)) ** (1.0 / q)
        * (
            power(kernel_mass(lam), _rho(q)) * power(ea * qa + da * qb, 1.0 / q)
            + power(kernel_mass(mu), _rho(q)) * power(db * qa + eb * qb, 1.0 / q)
        )
    )


def _d_t33_q1_verbatim(a, b, lam, mu, s, q, qa, qb, qm):
    # q = 1 display as printed: prefactor 2^(s+2) and swapped brackets.
    w = power(2.0, s + 1.0) - 1.0
    return (
        (b - a)
        / (power(2.0, s + 2.0) * (s + 1.0))
        * (kernel_mass(lam) * (qa + w * qb) + kernel_mass(mu) * (w * qa + qb))
    )


# Catalog -------------------------------------------------------------------

Display = Callable[..., float]


@dataclass(frozen=True)
class PresetSpec:
    pid: str
    parent: BoundCase
    display: Display
    kind: str = "specialization"  # or "weakening"
    pin_lam: Optional[float] = None
    pin_mu: Optional[float | str] = None  # float, or "lam" for mu == lambda
    pin_s: Optional[float] = None
    pin_q: Optional[str] = None  # "1", ">1", or None
    s_range: tuple[float, float] = (-1.0 + 1e-6, 1.0)
    note: str = ""

    @property
    def branch_notes(self) -> str:
        return self.note or self.kind

    def pinned_weights(self, lam, mu):
        """(λ, μ) with each pinned weight set to its pin: λ to `pin_lam`, μ to
        `pin_mu`, or to the given λ when μ is pinned to it.  This is the one
        place the weight pins are read; floats or float64 arrays."""
        pin_lam = lam if self.pin_lam is None else self.pin_lam
        pin_mu = mu if self.pin_mu is None else lam if self.pin_mu == "lam" else self.pin_mu
        return pin_lam, pin_mu

    def weights_match(self, lam, mu):
        """Whether (λ, μ) meet the weight pins to 1e-12; a bool array for arrays."""
        pin_lam, pin_mu = self.pinned_weights(lam, mu)
        return (abs(lam - pin_lam) <= 1e-12) & (abs(mu - pin_mu) <= 1e-12)

    def weight_mismatch(self, lam: float, mu: float) -> str:
        """Why (lambda, mu) contradict the weight pins, or "" when they match."""
        pin_lam, pin_mu = self.pinned_weights(lam, mu)
        if abs(lam - pin_lam) > 1e-12:
            return f"{self.pid} pins lambda = {self.pin_lam}"
        if abs(mu - pin_mu) > 1e-12:
            return f"{self.pid} pins mu = {'lambda' if self.pin_mu == 'lam' else self.pin_mu}"
        return ""

    def branch_mismatch(self, s: float, q: float) -> str:
        """Why (s, q) contradict the order pins, or "" when they match.

        It depends on (s, q) alone, so a sweep settles it once per (s, q).
        """
        if self.pin_s is not None:
            if abs(s - self.pin_s) > 1e-12:
                return f"{self.pid} pins s = {self.pin_s}"
        elif not self.s_range[0] <= s <= self.s_range[1]:
            return f"{self.pid} needs s in [{self.s_range[0]:g}, {self.s_range[1]:g}]"
        if self.pin_q == "1" and q >= 1.0 + Q_BRANCH_EPS:
            return f"{self.pid} pins q = 1"
        if self.pin_q == ">1" and q < 1.0 + Q_BRANCH_EPS:
            return f"{self.pid} needs q > 1"
        return ""

    def validate(self, p: BoundParams) -> None:
        problem = self.weight_mismatch(p.lam, p.mu) or self.branch_mismatch(p.s, p.q)
        if problem:
            raise PresetMismatchError(problem)


_P = PresetSpec
_T31 = BoundCase.T31_general

PRESETS: dict[str, PresetSpec] = {
    p.pid: p
    for p in [
        _P("C31_q1", _T31, _d_c31_q1, pin_q="1"),
        _P(
            "C31_s_minus1_q1",
            BoundCase.T31_s_minus1,
            _d_c31_sm1_q1,
            pin_q="1",
            pin_s=-1.0,
            note="midpoint deviation vs log-2 endpoint bound",
        ),
        _P("C32_lambda_eq_mu", _T31, _d_c32_lambda_eq_mu, pin_mu="lam"),
        _P("C32_q1", _T31, _d_c32_q1, pin_mu="lam", pin_q="1"),
        _P(
            "C32_trapezoid",
            _T31,
            _d_c32_trapezoid,
            kind="weakening",
            pin_lam=1.0,
            pin_mu=1.0,
            note="collapsed endpoint display; equals the E19 bound",
        ),
        _P("C33_s1", _T31, _d_c33_s1, pin_s=1.0),
        _P(
            "C33_s1_q1",
            _T31,
            _d_c33_s1_q1,
            pin_s=1.0,
            pin_q="1",
            note="shipped with the -3λ sign the derivation gives",
        ),
        _P("C33_s1_lambda_mu", _T31, _d_c33_s1_lambda_mu, pin_s=1.0, pin_mu="lam"),
        _P("C33_s1_q1_lambda_mu", _T31, _d_c33_s1_q1_lambda_mu, pin_s=1.0, pin_q="1", pin_mu="lam"),
        _P("C35_half", _T31, _d_c35(3.0, 1.0, 4.0, 1.0, 16.0), pin_s=1.0, pin_lam=0.5, pin_mu=0.5),
        _P("C35_third", _T31, _d_c35(37.0, 8.0, 45.0, 5.0, 72.0), pin_s=1.0, pin_lam=2.0 / 3.0, pin_mu=2.0 / 3.0),
        _P("C35_simpson", _T31, _d_c35(61.0, 29.0, 90.0, 5.0, 72.0), pin_s=1.0, pin_lam=1.0 / 3.0, pin_mu=1.0 / 3.0),
        _P("E15", _T31, _d_e15, pin_s=1.0, pin_q="1", pin_lam=1.0, pin_mu=1.0,
           note="classical trapezoid deviation bound for convex |f'|"),
        _P("E19", _T31, _d_e19, kind="weakening", pin_lam=1.0, pin_mu=1.0, s_range=(1e-12, 1.0)),
        _P("E112", _T31, _d_e112, pin_lam=1.0 / 3.0, pin_mu=1.0 / 3.0, pin_q="1", s_range=(1e-12, 1.0),
           note="three-point quadrature deviation bound"),
        _P("C32x_q1_tier1", BoundCase.T32_tier1, _d_c32x_q1_tier1, pin_q="1"),
        _P("C32x_q1_tier2", BoundCase.T32_tier2, _d_c32x_q1_tier2, pin_q="1"),
        _P("C32x_lambda_mu_tier1", BoundCase.T32_tier1, _d_c32x_lambda_mu_tier1, pin_mu="lam"),
        _P("C32x_lambda_mu_tier2", BoundCase.T32_tier2, _d_c32x_lambda_mu_tier2, pin_mu="lam",
           note="shipped with 2λ^(s+2); the verbatim 2λ^(s+1) is scan-only"),
        _P("C32x_s1_tier1", BoundCase.T32_tier1, _d_c32x_s1_tier1, pin_s=1.0,
           note="shipped with midpoint coefficient 2λ³-3λ+2"),
        _P("C32x_s1_tier2", BoundCase.T32_tier2, _d_c32x_s1_tier2, pin_s=1.0),
        _P("C33x_lambda_mu_qgt1", BoundCase.T33_qgt1, _d_c33x_lambda_mu_qgt1, pin_mu="lam", pin_q=">1"),
        _P("C33x_midpoint_qgt1", BoundCase.T33_qgt1, _d_c33x_boundary_qgt1, pin_lam=0.0, pin_mu=0.0, pin_q=">1"),
        _P("C33x_trapezoid_qgt1", BoundCase.T33_qgt1, _d_c33x_boundary_qgt1, pin_lam=1.0, pin_mu=1.0, pin_q=">1"),
        _P("C33x_s1_q1", BoundCase.T33_q1, _d_c33x_s1_q1, pin_s=1.0, pin_q="1",
           note="shipped with the corrected 1/8 prefactor"),
        _P("C33x_s1_qgt1", BoundCase.T33_qgt1, _d_c33x_s1_qgt1, pin_s=1.0, pin_q=">1"),
        _P("C33x_s1_q1_lambda_mu", BoundCase.T33_q1, _d_c33x_s1_q1_lambda_mu, pin_s=1.0, pin_q="1", pin_mu="lam"),
        _P("C33x_s1_qgt1_lambda_mu", BoundCase.T33_qgt1, _d_c33x_s1_qgt1_lambda_mu, kind="weakening",
           pin_s=1.0, pin_q=">1", pin_mu="lam",
           note="power-sum collapse of the two bracket terms"),
        _P("C34x_q1_lambda_mu_tier1", BoundCase.T34_q1_tier1, _d_c34x_q1_lambda_mu_tier1, pin_q="1", pin_mu="lam"),
        _P("C34x_q1_lambda_mu_tier2", BoundCase.T34_q1_tier2, _d_c34x_q1_lambda_mu_tier2, pin_q="1", pin_mu="lam"),
        _P("C34x_qgt1_lambda_mu_tier1", BoundCase.T34_qgt1_tier1, _d_c34x_qgt1_lambda_mu_tier1, pin_q=">1", pin_mu="lam"),
        _P("C34x_qgt1_lambda_mu_tier2", BoundCase.T34_qgt1_tier2, _d_c34x_qgt1_lambda_mu_tier2, pin_q=">1", pin_mu="lam"),
        _P("C34x_q1_s1_tier1", BoundCase.T34_q1_tier1, _d_c34x_q1_s1_tier1, pin_q="1", pin_s=1.0),
        _P("C34x_q1_s1_tier2", BoundCase.T34_q1_tier2, _d_c34x_q1_s1_tier2, pin_q="1", pin_s=1.0),
        _P("C34x_qgt1_s1_tier1", BoundCase.T34_qgt1_tier1, _d_c34x_qgt1_s1_tier1, pin_q=">1", pin_s=1.0),
        # At s = 1 the tier-2 midpoint envelope gives T33_qgt1's display.
        _P("C34x_qgt1_s1_tier2", BoundCase.T34_qgt1_tier2, _d_c33x_s1_qgt1, pin_q=">1", pin_s=1.0),
    ]
}

# As-printed displays, each compared with its parent case by the erratum
# scan.  Keys are preset ids, or a case name for a theorem-level display
# whose shipped form is the case itself; each spec's note is its scan note.
VERBATIM_DISPLAYS: dict[str, PresetSpec] = {
    "T32_tier2": _P(
        "T32_tier2",
        BoundCase.T32_tier2,
        _d_t32_tier2_verbatim,
        note="second-tier display prints 2μ^(s+1); the midpoint substitution gives 2μ^(s+2)",
    ),
    "T33_q1": _P(
        "T33_q1",
        BoundCase.T33_q1,
        _d_t33_q1_verbatim,
        pin_q="1",
        note="printed prefactor 1/2^(s+2) is numerically falsifiable; 1/2^(s+1) "
        "restores agreement with the pinned special case",
    ),
    **{
        pid: replace(PRESETS[pid], display=display, note="as-printed variant")
        for pid, display in [
            ("C33_s1_q1", _d_c33_s1_q1_verbatim),
            ("C32x_lambda_mu_tier2", partial(_d_c32x_lambda_mu_tier2, verbatim=True)),
            ("C32x_s1_tier1", partial(_d_c32x_s1_tier1, verbatim=True)),
            ("C33x_s1_q1", _d_c33x_s1_q1_verbatim),
        ]
    },
}


def eval_preset(pid: str, f: FunctionSpec, p: BoundParams, tol: float = DEFAULT_TOL) -> BoundResult:
    """Evaluate a preset: lhs as for the parent case, bound via its display.

    Raises PresetMismatchError when p contradicts the preset's pinned values.
    """
    # `tol` is unused, since the lhs is exact; perfbench/checks.py still passes it.
    if pid not in PRESETS:
        raise PresetMismatchError(f"unknown preset {pid!r}")
    spec = PRESETS[pid]
    spec.validate(p)
    lhs = abs(hh_lhs(f, p.a, p.b, *deviation_weights(spec.parent, p.lam, p.mu)))
    qa, qb, qm = derivative_values(f, p.a, p.b, p.q)
    bound = spec.display(p.a, p.b, p.lam, p.mu, p.s, p.q, qa, qb, qm)
    if not math.isfinite(bound):
        raise nonfinite_bound(pid, f.fid, p.a, p.b)
    return BoundResult(lhs, bound, bound - lhs, spec.parent.value, branch_notes=spec.branch_notes, preset=pid)
