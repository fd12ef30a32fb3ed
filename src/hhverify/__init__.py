"""Verification toolkit for Hermite-Hadamard-type bounds of extended s-convex functions."""

from .functions import (
    ConvexityCertificate,
    FunctionSpec,
    certify_power_extended_s,
    check_extended_s_convex,
    derivative_q_envelope,
    from_id,
    make_const,
    make_exp,
    make_power,
)
from .quadrature import QuadResult, integrate, mean_integral
from .moments import (
    MomentSpec,
    moment_case,
    moment_general,
    moment_harmonic,
)
from .identity import BoundParams, check_identity, hh_lhs, identity_rhs
from .bounds import BoundCase, BoundResult, eval_case
from .presets import PRESETS, eval_preset
from .means import (
    MeanParams,
    eval_mean_bound,
    generalized_log_mean,
    mean_lhs,
)
from .harness import Report, SuiteConfig, erratum_scan, run_suite

__version__ = "0.1.0"
