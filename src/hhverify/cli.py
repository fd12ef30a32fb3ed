"""Command-line surface.

The single-row commands `bound`, `preset` and `means` print one record of
the sweep report's schema: a one-row `Report`, as JSON (the record) or CSV
(header and row), labelled with the sweep's certificate rule and, for
`means`, the sweep's family id (`means.mean_family`).  `Report` alone
decides the record's layout.  `certify` prints the analytic certificate
of |f'|^q for f = x^p on positive intervals: the order
`functions.analytic_order` gives, by the convexity rule or the power
rule.

Exit codes: 0 success, 1 verification failure (a violation, an oracle
mismatch, or a shipped display that no longer matches its parent), 2 usage
or parameter error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import BoundCase, eval_case
from .errors import HHVerifyError
from .functions import certify_power_extended_s, from_id, parse_id
from .harness import Report, SuiteConfig, certificate_status, erratum_scan, run_suite
from .identity import BoundParams, check_identity, hh_lhs, identity_rhs
from .means import MEAN_THEOREMS, MeanParams, eval_mean_bound, mean_family
from .moments import MomentSpec, moment_general, moment_harmonic, moment_oracle
from .presets import PRESETS, eval_preset


def _emit_row(family: str, result, fmt: str) -> int:
    """Print `result` as a one-row report; exit code 1 when it violates."""
    report = Report()
    report.add_result(family, result)
    if fmt == "csv":
        report.dump(sys.stdout, "csv")
    else:
        print(json.dumps(report.records[0], indent=2))
    return 1 if report.violation_count else 0


def _sweep_certificate(fid: str, p: BoundParams) -> str:
    """The sweep's certificate for one tuple, at the sweep's default sampling."""
    cfg = SuiteConfig()
    return certificate_status(fid, p.a, p.b, p.s, p.q, cfg.convexity_samples, cfg.seed)


def _emit_report(report: Report, fmt: str, out: str | None) -> None:
    if out:
        report.write(out, fmt)
        print(f"wrote {out} ({report.record_count} records, {report.violation_count} violations)")
    else:
        report.dump(sys.stdout, fmt)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hh-verify",
        description="Numerical verification of trapezoid-midpoint bounds for "
        "extended s-convex derivative envelopes, and the induced mean inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="closed-form kernel moment plus oracle residual")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("harmonic", help="s = -1 kernel moment plus oracle residual")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("identity", help="residual of the two-sided integral identity")
    p.add_argument("--f", required=True, help='function id, e.g. "pow:2", "exp"')
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("bound", help="evaluate one bound case")
    p.add_argument("--case", required=True, choices=[c.value for c in BoundCase])
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("preset", help="evaluate one catalog preset")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("means", help="evaluate one mean-inequality theorem")
    p.add_argument("--theorem", required=True, choices=MEAN_THEOREMS)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("certify", help="analytic convexity certificate for |f'|^q")
    p.add_argument("--f", required=True, help='must be "pow:<p>"')
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("sweep", help="run a configured verification sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)

    p = sub.add_parser("errata", help="transcription-vs-derivation scan of every display")
    p.add_argument("--out", default=None)
    # The scan's items have no CSV form.
    p.add_argument("--format", choices=("json",), default="json")

    return parser


def _fill_preset_params(spec, lam, mu, s, q) -> tuple[float, float, float, float]:
    if lam is None:
        lam = spec.pin_lam if spec.pin_lam is not None else 0.5
    if mu is None:
        if spec.pin_mu == "lam":
            mu = lam
        elif spec.pin_mu is not None:
            mu = spec.pin_mu
        else:
            mu = lam
    if s is None:
        s = spec.pin_s if spec.pin_s is not None else min(spec.s_range[1], 1.0)
    if q is None:
        q = 1.0 if spec.pin_q in (None, "1") else 2.0
    return lam, mu, s, q


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except HHVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "moment":
        value = moment_general(MomentSpec(args.xi, args.omega, args.eta, args.s))
        oracle = moment_oracle(args.xi, args.omega, args.eta, args.s, args.tol)
        residual = abs(value - oracle) / (1.0 + abs(oracle))
        print(json.dumps({"value": value, "oracle": oracle, "residual": residual}, indent=2))
        return 0 if residual <= 1e-9 else 1

    if args.command == "harmonic":
        value = moment_harmonic(args.xi, args.omega, args.eta)
        oracle = moment_oracle(args.xi, args.omega, args.eta, -1.0, args.tol)
        residual = abs(value - oracle) / (1.0 + abs(oracle))
        print(json.dumps({"value": value, "oracle": oracle, "residual": residual}, indent=2))
        return 0 if residual <= 1e-9 else 1

    if args.command == "identity":
        params = BoundParams(args.a, args.b, args.lam, args.mu, 1.0, 1.0)
        f = from_id(args.f, params.a, params.b)
        lhs = hh_lhs(f, params, args.tol)
        rhs = identity_rhs(f, params, args.tol)
        residual = check_identity(f, params, args.tol)
        print(json.dumps({"lhs": lhs, "rhs": rhs, "residual": residual}, indent=2))
        return 0 if residual <= 10.0 * args.tol + 1e-15 else 1

    if args.command == "bound":
        params = BoundParams(args.a, args.b, args.lam, args.mu, args.s, args.q)
        f = from_id(args.f, params.a, params.b)
        result = eval_case(args.case, f, params, args.tol, _sweep_certificate(args.f, params))
        return _emit_row(args.f, result, args.format)

    if args.command == "preset":
        spec = PRESETS[args.preset]
        lam, mu, s, q = _fill_preset_params(spec, args.lam, args.mu, args.s, args.q)
        params = BoundParams(args.a, args.b, lam, mu, s, q)
        f = from_id(args.f, params.a, params.b)
        result = eval_preset(args.preset, f, params, args.tol, _sweep_certificate(args.f, params))
        return _emit_row(args.f, result, args.format)

    if args.command == "means":
        result = eval_mean_bound(args.theorem, MeanParams(args.a, args.b, args.s, args.q, args.lam))
        return _emit_row(mean_family(args.s), result, args.format)

    if args.command == "certify":
        family, power = parse_id(args.f)
        if family != "pow":
            print("error: certify supports only pow:<p> ids", file=sys.stderr)
            return 2
        cert = certify_power_extended_s(power, args.q)
        print(
            json.dumps(
                {
                    "s": cert.s,
                    "q": cert.q,
                    "target": cert.target,
                    "status": cert.status,
                    "note": cert.note,
                },
                indent=2,
            )
        )
        return 0

    if args.command == "sweep":
        cfg = SuiteConfig.from_file(args.config)
        fmt = args.format or cfg.out_format
        report = run_suite(cfg)
        _emit_report(report, fmt, args.out)
        return 1 if report.violation_count else 0

    if args.command == "errata":
        report = erratum_scan()
        _emit_report(report, args.format, args.out)
        # Flagged displays are expected to deviate; any other confirmed
        # item is a shipped display that disagrees with its parent.
        failing = [
            e for e in report.errata
            if e["kind"] != "flagged-display" and e["classification"] == "erratum-confirmed"
        ]
        return 1 if failing else 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
