"""Command-line surface.

The single-row commands `bound`, `preset` and `means` settle their one
row's branch (a wrong one exits 2), then build the row with the builder
the sweep uses for that row kind (`harness.add_interval_rows` or
`harness.add_mean_rows`) into a one-row `Report`.  They print its record
as JSON, or as CSV (header and row): the sweep's own record, certificate
and family id included (the canonical id of `--f`, or for `means` the
exact `pow:<s>`).  `certify` prints the analytic certificate of |f'|^q
for f = x^p on positive intervals: the order `functions.analytic_order`
gives, by the convexity rule or the power rule.

Exit codes: 0 success, 1 verification failure (a violation, an oracle
mismatch, or a shipped display that no longer matches its parent), 2 usage
or parameter error, an unreadable config or an unwritable `--out`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import BoundCase, check_branch
from .errors import FunctionDomainError, HHVerifyError, WrongBranchError
from .functions import certify_power_extended_s, from_id, parse_id
from .harness import Report, SuiteConfig, add_interval_rows, add_mean_rows, erratum_scan, run_suite
from .identity import BoundParams, check_identity, hh_lhs, identity_rhs
from .means import MEAN_SPECS, MEAN_THEOREMS, MeanParams
from .moments import MomentSpec, moment_general, moment_harmonic, moment_oracle
from .presets import PRESETS


def _emit_row(report: Report, fmt: str) -> int:
    """Print a one-row report's record; exit code 1 when it violates."""
    if fmt == "csv":
        report.dump(sys.stdout, "csv")
    else:
        print(json.dumps(report.records[0], indent=2))
    return 1 if report.violation_count else 0


def _raise_first(errors: list[HHVerifyError]) -> None:
    """A single-row command's builder skips its one row on error; raise it."""
    if errors:
        raise errors[0]


def _interval_row(args, p: BoundParams, branch) -> int:
    """Print the one row `branch`, a settled (s, q, cases, presets), gives at p."""
    report = Report()
    _raise_first(add_interval_rows(report, SuiteConfig(), [(from_id(args.f, p.a, p.b), [(p.lam, p.mu)])], [branch]))
    return _emit_row(report, args.format)


def _emit_report(report: Report, fmt: str, out: str | None, code: int) -> int:
    """Write the report to `out` or stdout; `code`, or 2 if `out` cannot be written."""
    if not out:
        report.dump(sys.stdout, fmt)
        return code
    try:
        report.write(out, fmt)
    except OSError as exc:
        print(f"error: cannot write {out!r} ({exc})", file=sys.stderr)
        return 2
    print(f"wrote {out} ({report.record_count} records, {report.violation_count} violations)")
    return code


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
    """Each omitted param at its pin, else λ = 0.5, μ = λ, s = 1 and q = 1."""
    if lam is None:
        lam = spec.pinned_weights(0.5, 0.5)[0]
    if mu is None:
        mu = spec.pinned_weights(lam, lam)[1]
    if s is None:
        s = spec.pin_s if spec.pin_s is not None else 1.0
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
        lhs = hh_lhs(f, params.a, params.b, params.lam, params.mu)
        rhs = identity_rhs(f, params, args.tol)
        residual = check_identity(f, params, args.tol)
        print(json.dumps({"lhs": lhs, "rhs": rhs, "residual": residual}, indent=2))
        return 0 if residual <= 10.0 * args.tol + 1e-15 else 1

    if args.command == "bound":
        p = BoundParams(args.a, args.b, args.lam, args.mu, args.s, args.q)
        case = BoundCase(args.case)
        check_branch(case, p.s, p.q)
        return _interval_row(args, p, (p.s, p.q, [case], []))

    if args.command == "preset":
        spec = PRESETS[args.preset]
        p = BoundParams(args.a, args.b, *_fill_preset_params(spec, args.lam, args.mu, args.s, args.q))
        spec.validate(p)
        return _interval_row(args, p, (p.s, p.q, [], [spec]))

    if args.command == "means":
        mp = MeanParams(args.a, args.b, args.s, args.q, args.lam)
        problem = MEAN_SPECS[args.theorem].branch_mismatch(mp.s, mp.q)
        if problem:
            raise WrongBranchError(problem)
        report = Report()
        _raise_first(add_mean_rows(report, (args.theorem,), [(mp.a, mp.b, mp.s, mp.q, mp.lam)]))
        return _emit_row(report, args.format)

    if args.command == "certify":
        family, power = parse_id(args.f)
        if family != "pow":
            raise FunctionDomainError("certify supports only pow:<p> ids")
        cert = certify_power_extended_s(power, args.q)
        print(json.dumps({k: getattr(cert, k) for k in ("s", "q", "target", "status", "note")}, indent=2))
        return 0

    if args.command == "sweep":
        cfg = SuiteConfig.from_file(args.config)
        fmt = args.format or cfg.out_format
        report = run_suite(cfg)
        return _emit_report(report, fmt, args.out, 1 if report.violation_count else 0)

    if args.command == "errata":
        report = erratum_scan()
        # Flagged displays are expected to deviate; any other confirmed
        # item is a shipped display that disagrees with its parent.
        failing = any(e["kind"] != "flagged-display" and e["classification"] == "erratum-confirmed"
                      for e in report.errata)
        return _emit_report(report, args.format, args.out, int(failing))

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
