"""In-memory spans around calls into hhverify's public functions.

The hhverify modules import names directly (``from .quadrature import
integrate``), so each wrapper is installed at the binding the caller looks
up, e.g. ``hhverify.moments.integrate`` rather than only
``hhverify.quadrature.integrate``. Nothing inside ``src/`` is edited.

A span is ``[run_id, span_id, parent_id, name, start_ns, end_ns, ok, attrs]``;
``parent_id`` is 0 at the top level and ``ok`` is false when the call raised.
All spans of one child share its run id.
"""

from __future__ import annotations

import itertools
import os
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, result)`` adds fields."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        run_id = self.run_id

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(args, result) if ok and attrs is not None else None
                spans.append([run_id, sid, parent, name, start, end, ok, extra])

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None, static: bool = False) -> None:
        fn = getattr(owner, attr)
        wrapped = self.wrap(name, fn, attrs)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def install(self) -> None:
        """Wrap every binding the CLI's sweep and errata paths call through."""
        import hhverify.bounds as bounds
        import hhverify.cli as cli
        import hhverify.harness as harness
        import hhverify.moments as moments
        import hhverify.presets as presets
        import hhverify.identity as identity
        import hhverify.quadrature as quadrature

        def quad_attrs(_args, res):
            return [res.evaluations, res.converged, res.err_estimate]

        def report_attrs(_args, report):
            return [len(report.records), len(report.violations)]

        def write_attrs(args, _res):
            return [os.path.getsize(args[1])]

        # quadrature: mean_integral resolves `integrate` in its own module.
        for module in (quadrature, moments, identity):
            self.patch(module, "integrate", "quadrature.integrate", quad_attrs)

        # functions: certificates, as the harness calls them.
        self.patch(harness, "check_extended_s_convex", "functions.sampled")
        self.patch(harness, "certify_power_extended_s", "functions.analytic")

        # moments: the oracle and the closed forms the harness calls.
        self.patch(harness, "moment_oracle", "moments.oracle")
        for attr in ("moment_general", "moment_harmonic", "moment_case"):
            self.patch(harness, attr, "moments.closed")

        # bounds, presets, means and identity at their callers' bindings.
        self.patch(harness, "case_bound_from_values", "bounds.case")
        self.patch(harness, "eval_mean_bound", "means.eval")
        for module in (bounds, presets, cli):
            self.patch(module, "hh_lhs", "identity.hh_lhs")
        # The harness reaches a preset through its PresetSpec: a validate()
        # call that may reject the row, then the display formula.
        self.patch(presets.PresetSpec, "validate", "presets.validate")
        for spec in presets.PRESETS.values():
            object.__setattr__(spec, "display", self.wrap("presets.display", spec.display))

        # harness entry points as the CLI calls them.
        self.patch(harness.SuiteConfig, "from_file", "harness.config", static=True)
        self.patch(cli, "run_suite", "harness.run_suite", report_attrs)
        self.patch(cli, "erratum_scan", "harness.errata")
        self.patch(harness.Report, "write", "harness.serialize", write_attrs)
