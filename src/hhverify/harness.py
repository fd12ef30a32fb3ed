"""Grid sweeps, oracle cross-checks, erratum scan, and report generation.

A sweep appends its rows to a `Report`, which holds them column by column
(floats in one array, labels in one list each) rather than as one dict per
row.  `Report.records` and `Report.violations` are views built from the
columns on demand; the report writer reads the columns directly and writes
the same bytes `json.dumps(indent=2)` or `csv.writer` would.  `Report` is
the one place that knows what a record looks like: the CLI's single-row
commands print a one-row report, and `certificate_status` is the one rule
for the `certified` field, used by the sweep and by those commands alike.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from array import array
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .bounds import (
    BoundCase,
    BoundResult,
    case_bound_from_values,
    check_branch,
    derivative_values,
    deviation_params,
    is_violation,
)
from .errors import ConfigError, FunctionDomainError, HHVerifyError, WrongBranchError
# `certify_power_extended_s` is not called here; it stays bound in this
# module, with `check_extended_s_convex`, because `perfbench/tracer.py`
# patches both here.
from .functions import (
    analytic_order,
    certify_power_extended_s,
    check_extended_s_convex,
    derivative_q_envelope,
    from_id,
    parse_id,
    power_rule_holds,
)
from .identity import BoundParams, hh_lhs
from .means import MEAN_SPECS, MEAN_THEOREMS, MeanParams, eval_mean_bound, mean_family, t42_verbatim_gap
from .moments import (
    MOMENT_CASES,
    MomentSpec,
    moment_case,
    moment_general,
    moment_harmonic,
    moment_oracle,
)
from .presets import PRESETS, VERBATIM_DISPLAYS, PresetSpec
from .quadrature import mean_integral

__all__ = ["SuiteConfig", "Report", "certificate_status", "run_suite", "erratum_scan"]

ALL_CASES = tuple(c.value for c in BoundCase)


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _float_list(raw, path: str, default: tuple, domain) -> tuple[float, ...]:
    if raw is None:
        return default
    _expect(isinstance(raw, (list, tuple)), path, "must be a list of numbers")
    holds, what = domain
    out = []
    for i, v in enumerate(raw):
        # JSON true/false load as bool, which Python counts as an int.
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
                f"{path}[{i}]", "must be a finite number")
        _expect(holds(v), f"{path}[{i}]", f"must be {what}, got {v!r}")
        out.append(float(v))
    return tuple(out)


_ANY = (lambda v: True, "")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_Q = (lambda v: v >= 1.0, ">= 1")

# Each numeric list of a config: (section, JSON key, field, domain of one
# value).  A value outside its domain would give rows no case, preset or
# theorem admits, or stop the sweep midway, so it is a config error.
_LISTS = (
    ("grid", "a", "a_values", _ANY),
    ("grid", "b", "b_values", _ANY),
    ("grid", "lambda", "lam_values", _UNIT),
    ("grid", "mu", "mu_values", _UNIT),
    ("grid", "s", "s_values", (lambda v: -1.0 <= v <= 1.0, "in [-1, 1]")),
    ("grid", "q", "q_values", _Q),
    ("ranges", "a", "a_range", _ANY),
    ("ranges", "width", "width_range", _ANY),
    ("mean_grid", "a", "mean_a", (lambda v: v > 0.0, "> 0")),
    ("mean_grid", "b", "mean_b", _ANY),
    ("mean_grid", "s", "mean_s", (lambda v: 0.0 < v <= 2.0, "in (0, 2]")),
    ("mean_grid", "q", "mean_q", _Q),
    ("mean_grid", "lambda", "mean_lam", _UNIT),
)
# Each integer: (JSON key, field, least value).
_INTS = (
    ("draws", "draws", 0),
    ("mean_draws", "mean_draws", 0),
    ("moment_oracle_draws", "moment_oracle_draws", 0),
    ("convexity_samples", "convexity_samples", 1),
    ("seed", "seed", 0),
)


@dataclass(frozen=True)
class SuiteConfig:
    """Validated sweep configuration; see `from_dict` for the JSON schema."""

    families: tuple[str, ...] = ()
    a_values: tuple[float, ...] = ()
    b_values: tuple[float, ...] = ()
    lam_values: tuple[float, ...] = (0.0, 0.5, 1.0)
    mu_values: tuple[float, ...] = ()  # empty: mirror lam_values
    s_values: tuple[float, ...] = ()   # empty: family default (power rule)
    q_values: tuple[float, ...] = (1.0,)
    draws: int = 0
    a_range: tuple[float, float] = (0.05, 2.0)
    width_range: tuple[float, float] = (0.1, 3.0)
    cases: tuple[str, ...] = ALL_CASES
    presets: tuple[str, ...] = ()
    mean_theorems: tuple[str, ...] = ()
    mean_a: tuple[float, ...] = ()
    mean_b: tuple[float, ...] = ()
    mean_s: tuple[float, ...] = ()
    mean_q: tuple[float, ...] = (1.0,)
    mean_lam: tuple[float, ...] = (0.0, 0.5, 1.0)
    mean_draws: int = 0
    moment_oracle_draws: int = 0
    convexity_samples: int = 32
    tol: float = 1e-12
    seed: int = 0
    out_format: str = "json"

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        """Validate a JSON config: `families`, `cases` (a list or "all"),
        `presets`, `mean_theorems`, the numeric lists of `_LISTS` under
        their sections, the integers of `_INTS`, `tol` and `format`.  An
        omitted key keeps the field's default."""
        _expect(isinstance(raw, dict), "config", "must be a JSON object")
        default = SuiteConfig()
        tables = {section: raw.get(section) or {} for section, *_ in _LISTS}
        names = {"cases": ("case", ALL_CASES), "presets": ("preset", PRESETS),
                 "mean_theorems": ("theorem", MEAN_THEOREMS)}
        known = {"families", *tables, *(key for key, *_ in _INTS), *names, "tol", "format"}
        for key in raw:
            _expect(key in known, f"config.{key}", "unknown field")
        out = {}

        families = raw.get("families", [])
        _expect(isinstance(families, list), "config.families", "must be a list")
        for i, fid in enumerate(families):
            path = f"config.families[{i}]"
            _expect(isinstance(fid, str), path, "must be a string")
            try:
                family, param = parse_id(fid)
            except FunctionDomainError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            _expect(family != "pow" or param > 0.0, path, f"{fid!r}: power p must be positive")
        out["families"] = tuple(families)

        for key, (noun, allowed) in names.items():
            value = raw.get(key, getattr(default, key))
            if key == "cases" and value == "all":
                value = ALL_CASES
            _expect(isinstance(value, (list, tuple)), f"config.{key}",
                    'must be a list or "all"' if key == "cases" else "must be a list")
            for i, name in enumerate(value):
                _expect(name in allowed, f"config.{key}[{i}]", f"unknown {noun} {name!r}")
            out[key] = tuple(value)

        for section, table in tables.items():
            _expect(isinstance(table, dict), f"config.{section}", "must be an object")
            keys = {key for sec, key, *_ in _LISTS if sec == section}
            for key in table:
                _expect(key in keys, f"config.{section}.{key}", "unknown field")
        for section, key, field, domain in _LISTS:
            path = f"config.{section}.{key}"
            out[field] = _float_list(tables[section].get(key), path, getattr(default, field), domain)

        for key, field, least in _INTS:
            value = raw.get(key, getattr(default, field))
            what = "a positive integer" if least else "a nonnegative integer"
            _expect(isinstance(value, int) and not isinstance(value, bool) and value >= least,
                    f"config.{key}", f"must be {what}")
            out[field] = value

        a_range, width_range = out["a_range"], out["width_range"]
        _expect(len(a_range) == 2 and a_range[0] <= a_range[1], "config.ranges.a", "must be [lo, hi]")
        _expect(
            len(width_range) == 2 and 0.0 < width_range[0] <= width_range[1],
            "config.ranges.width",
            "must be [lo, hi] with lo > 0",
        )
        # Mean draws take a from this range, and the means need a > 0.
        _expect(out["mean_draws"] == 0 or a_range[0] > 0.0, "config.ranges.a", "must have lo > 0 when mean_draws > 0")
        tol = raw.get("tol", default.tol)
        _expect(isinstance(tol, (int, float)) and 0 < tol < 1, "config.tol", "must be in (0, 1)")
        out["tol"] = float(tol)
        fmt = raw.get("format", default.out_format)
        _expect(fmt in ("json", "csv"), "config.format", 'must be "json" or "csv"')
        out["out_format"] = fmt
        return SuiteConfig(**out)

    @staticmethod
    def from_file(path: str) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON ({exc})") from exc
        return SuiteConfig.from_dict(raw)


# Report rows are held column by column: nine floats per row in one flat
# array, in _FLOATS order, and one list per label.
CASE_KEYS = ("a", "b", "lambda", "mu", "s", "q")
MEAN_KEYS = ("a", "b", "s", "q", "lambda")
_FLOATS = CASE_KEYS + ("lhs", "bound", "slack")  # slack is bound - lhs
_NF = len(_FLOATS)
_SLOT = {key: i for i, key in enumerate(_FLOATS)}
_LHS, _BOUND, _SLACK = _SLOT["lhs"], _SLOT["bound"], _SLOT["slack"]
# Each format's fields in order; "params" stands for the params a record
# shows (JSON) or for all of CASE_KEYS, blank where not shown (CSV).
_JSON_FIELDS = ("case", "preset", "params", "lhs", "bound", "slack", "certified", "branch_notes", "family", "violation")
_CSV_FIELDS = ("family", "case", "preset", "params", "lhs", "bound", "slack", "certified", "branch_notes")
# Params repeat across the rows of one tuple and lhs across the rows of one
# weight pair, so the writer spells each distinct value of these once;
# bound and slack are spelled row by row.
_SHARED = (*range(len(CASE_KEYS)), _LHS)
# Rows per write: bounds the text held at once, whatever the report size.
_CHUNK_ROWS = 2048
# json writes non-finite floats as these JavaScript constants.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _shown(case: str) -> tuple[str, ...]:
    """The params a record of `case` shows, in record order."""
    return MEAN_KEYS if case in MEAN_SPECS else CASE_KEYS


class Report:
    """A sweep's rows, held column by column, with the scan and summaries.

    `add` appends one row from its values and `add_result` one
    `BoundResult`; everything else about a record is derived here: its
    slack is bound - lhs, the params it shows follow from its case
    (`MEAN_KEYS` for a mean theorem, `CASE_KEYS` otherwise), and each
    format's field order is `_JSON_FIELDS` or `_CSV_FIELDS`.  `finalize`
    sorts the rows into report order and summarises their slack per case
    or preset.  `records` and `violations` are views, lists of dicts in the
    report schema built on each access; `record_count` and
    `violation_count` read the columns without building them.

    `dump` writes the JSON report as the bytes `json.dumps(doc, indent=2)`
    gives for {records, violations, errata, summary, oracle_residuals},
    from one template per params layout in chunks of rows; the CSV report
    has one line per record.  Both spell floats with `float.__repr__` (JSON
    spells the non-finite ones NaN, Infinity and -Infinity, as `json` does).
    """

    def __init__(self) -> None:
        self._floats = array("d")
        self._family: list[str] = []
        self._case: list[str] = []
        self._preset: list[str | None] = []
        self._certified: list[str] = []
        self._notes: list[str] = []
        self.errata: list[dict] = []
        self.summary: dict = {}
        self.oracle_residuals: dict = {}

    def add(
        self,
        family: str,
        case: str,
        preset: str | None,
        params: tuple[float, float, float, float, float, float],
        lhs: float,
        bound: float,
        certified: str,
        branch_notes: str,
    ) -> None:
        """Append one row.

        params is (a, b, lambda, mu, s, q); a param the record does not
        show (mu on a mean row) is passed as 0.0, which is where it sorts.
        """
        self._floats.extend(params)
        self._floats.extend((lhs, bound, bound - lhs))
        self._family.append(family)
        self._case.append(case)
        self._preset.append(preset)
        self._certified.append(certified)
        self._notes.append(branch_notes)

    def add_result(self, family: str, result: BoundResult) -> None:
        """Append `result` as one row, reading its params by name."""
        params = tuple(result.params.get(key, 0.0) for key in CASE_KEYS)
        self.add(family, result.case, result.preset, params, result.lhs, result.bound,
                 result.certificate, result.branch_notes)

    def _labels(self) -> dict[str, list]:
        return {
            "family": self._family,
            "case": self._case,
            "preset": self._preset,
            "certified": self._certified,
            "branch_notes": self._notes,
        }

    @property
    def record_count(self) -> int:
        return len(self._case)

    @property
    def violation_count(self) -> int:
        return int(np.count_nonzero(_violating(self._matrix())))

    @property
    def records(self) -> list[dict]:
        return self._dicts(range(self.record_count))

    @property
    def violations(self) -> list[dict]:
        return self._dicts(np.flatnonzero(_violating(self._matrix())).tolist())

    def _matrix(self) -> np.ndarray:
        # A view: the float array cannot grow while it is alive.
        return np.frombuffer(self._floats, dtype=np.float64).reshape(-1, _NF)

    def _dicts(self, rows) -> list[dict]:
        floats = self._matrix()
        labels = self._labels()
        labels["violation"] = _violating(floats).tolist()
        values = floats.tolist()
        out = []
        for i in rows:
            row = values[i]
            record = {}
            for field in _JSON_FIELDS:
                if field == "params":
                    record[field] = {key: row[_SLOT[key]] for key in _shown(self._case[i])}
                elif field in _SLOT:
                    record[field] = row[_SLOT[field]]
                else:
                    record[field] = labels[field][i]
            out.append(record)
        return out

    def finalize(self) -> "Report":
        """Sort the rows into report order and summarise slack per case/preset.

        The order is (case, preset or "", family, a, b, lambda, mu, s, q),
        ties kept in insertion order.
        """
        floats = self._matrix()
        sort_keys = [floats[:, _SLOT[k]] for k in reversed(CASE_KEYS)]
        for column in (self._family, [p or "" for p in self._preset], self._case):
            sort_keys.append(_codes(column)[0])
        order = np.lexsort(sort_keys)
        del sort_keys
        floats = floats[order]
        self._floats = array("d")
        self._floats.frombytes(floats.reshape(-1).view(np.uint8))
        for column in self._labels().values():
            column[:] = np.fromiter(column, dtype=object, count=len(column))[order].tolist()

        group, names = _codes([p or c for p, c in zip(self._preset, self._case)])
        by_group = np.argsort(group, kind="stable")
        edges = np.searchsorted(group[by_group], np.arange(len(names) + 1)).tolist()
        slack = floats[:, _SLACK]
        self.summary = {}
        for i, name in enumerate(names):
            slacks = slack[by_group[edges[i]:edges[i + 1]]].tolist()
            self.summary[name] = {
                "count": len(slacks),
                "min_slack": min(slacks),
                "median_slack": statistics.median(slacks),
            }
        return self

    def dump(self, handle, fmt: str = "json") -> None:
        """Write the report to an open text handle as `write` writes a file."""
        floats = self._matrix()
        cells = _Cells(self._labels(), floats, fmt)
        if fmt == "csv":
            # The header names the fields of a row that shows every param.
            handle.write(",".join(cells.template(CASE_KEYS)[1]) + "\n")
            cells.write(handle, np.arange(len(floats)))
            return
        handle.write('{\n  "records": ')
        cells.write(handle, np.arange(len(floats)))
        handle.write(',\n  "violations": ')
        cells.write(handle, np.flatnonzero(_violating(floats)))
        for key in ("errata", "summary", "oracle_residuals"):
            text = json.dumps(getattr(self, key), indent=2).replace("\n", "\n  ")
            handle.write(f',\n  "{key}": {text}')
        handle.write("\n}\n")

    def write(self, path: str, fmt: str = "json") -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            self.dump(handle, fmt)


def _violating(floats: np.ndarray) -> np.ndarray:
    """`is_violation` for each row of a float matrix."""
    return is_violation(floats[:, _SLACK], floats[:, _BOUND])


def _codes(values: list) -> tuple[np.ndarray, list]:
    """Each value's rank among the sorted distinct values, and those values."""
    names = sorted(set(values))
    rank = {v: i for i, v in enumerate(names)}
    return np.fromiter(map(rank.__getitem__, values), dtype=np.intp, count=len(values)), names


def _spell_floats(values: np.ndarray, fmt: str) -> list[str]:
    spelled = [repr(x) for x in values.tolist()]
    if fmt == "json":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            spelled[i] = _JSON_NONFINITE[spelled[i]]
    return spelled


def _spell_label(value: str | None, fmt: str) -> str:
    if fmt == "json":
        return "null" if value is None else encode_basestring_ascii(value)
    # As csv.writer spells the field inside a row: quoted when it must be.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value or "", "x"])
    return buf.getvalue()[: -len(",x\n")]


class _Cells:
    """A report's cells as one format spells them, for a row template each.

    Labels, and floats of the `_SHARED` columns, are spelled once per
    distinct value (a float keyed by its bit pattern, so -0.0 keeps its
    sign); bound and slack are spelled per chunk of rows.
    """

    def __init__(self, labels: dict[str, list], floats: np.ndarray, fmt: str) -> None:
        self.fmt = fmt
        self.floats = floats
        self.shared = {}
        bits = floats.view(np.int64)
        for k in _SHARED:
            distinct, where = np.unique(bits[:, k], return_inverse=True)
            spelled = np.array(_spell_floats(distinct.view(np.float64), fmt), dtype=object)
            self.shared[k] = spelled[where.ravel()]
        self.labels = {}
        for name, column in labels.items():
            spelled = {v: _spell_label(v, fmt) for v in set(column)}
            self.labels[name] = np.array([spelled[v] for v in column], dtype=object)
        self.labels["violation"] = np.where(_violating(floats), "true", "false").astype(object)
        shown = {case: _shown(case) for case in set(labels["case"])}
        self.layout, self.layouts = _codes([shown[case] for case in labels["case"]])

    def cells(self, field: str, rows: np.ndarray) -> list[str]:
        if field not in _SLOT:
            return self.labels[field][rows].tolist()
        k = _SLOT[field]
        if k in self.shared:
            return self.shared[k][rows].tolist()
        return _spell_floats(self.floats[rows, k], self.fmt)

    def template(self, keys: tuple[str, ...]) -> tuple[str, list[str]]:
        """The row template of one params layout, and the field of each %s."""
        if self.fmt == "csv":
            order = _CSV_FIELDS
            keys = tuple(k for k in CASE_KEYS if k in keys)
            params = ",".join("%s" if k in keys else "" for k in CASE_KEYS)
            text = ",".join(params if f == "params" else "%s" for f in order) + "\n"
        else:
            # One record at the depth json.dumps(indent=2) gives it in the report.
            order = _JSON_FIELDS
            params = ",\n".join(f'        "{k}": %s' for k in keys)
            parts = (f'      "params": {{\n{params}\n      }}' if f == "params" else f'      "{f}": %s' for f in order)
            text = "    {\n" + ",\n".join(parts) + "\n    }"
        return text, [k for f in order for k in (keys if f == "params" else (f,))]

    def segments(self, rows: np.ndarray):
        """(keys, row indices): runs of one params layout, at most _CHUNK_ROWS long."""
        layout = self.layout[rows]
        cuts = [0, *(np.flatnonzero(layout[1:] != layout[:-1]) + 1).tolist(), len(rows)]
        for start, end in zip(cuts, cuts[1:]):
            for i in range(start, end, _CHUNK_ROWS):
                yield self.layouts[layout[i]], rows[i:min(i + _CHUNK_ROWS, end)]

    def write(self, handle, rows: np.ndarray) -> None:
        """The rows at `rows`: CSV lines, or a JSON list at the report's first level."""
        joiner = ",\n" if self.fmt == "json" else ""
        if self.fmt == "json":
            if not len(rows):
                handle.write("[]")
                return
            handle.write("[\n")
        sep = ""
        for keys, ix in self.segments(rows):
            template, fields = self.template(keys)
            columns = [self.cells(field, ix) for field in fields]
            handle.write(sep + joiner.join(map(template.__mod__, zip(*columns))))
            sep = joiner
        if self.fmt == "json":
            handle.write("\n  ]")


def certificate_status(fid: str, a: float, b: float, s: float, q: float, samples: int, seed: int) -> str:
    """Provenance of the claim that |f'|^q is extended s-convex on [a, b].

    `certified-analytic` when s is within 1e-12 of the id's
    `analytic_order` or below it; otherwise the id is sampled (`samples`
    Halton and `samples` seeded random triples), which can falsify but never
    certify.  The sweep and the CLI's `bound` and `preset` commands all
    label rows with it.
    """
    family, p = parse_id(fid)
    order = analytic_order(family, p, a, q)
    if order is not None and s <= order + 1e-12:
        return "certified-analytic"
    try:
        envelope = derivative_q_envelope(from_id(fid, a, b), q)
        return check_extended_s_convex(envelope, a, b, s, samples=samples, seed=seed).status
    except HHVerifyError:
        return "unchecked"


def _bound_intervals(cfg: SuiteConfig) -> dict[tuple[float, float], list[tuple[float, float]]]:
    """Deterministic intervals (a, b), each with its (lam, mu) pairs: grid
    product plus seeded draws.

    An omitted mu grid pairs mu with lambda; an explicit one is crossed.
    """
    intervals: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for a in cfg.a_values:
        for b in cfg.b_values:
            if b <= a:
                continue
            pairs = intervals.setdefault((a, b), [])
            for lam in cfg.lam_values:
                for mu in cfg.mu_values or (lam,):
                    pairs.append((lam, mu))
    if cfg.draws > 0:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.draws):
            a = rng.uniform(*cfg.a_range)
            b = a + rng.uniform(*cfg.width_range)
            lam = rng.uniform()
            mu = rng.uniform()
            intervals.setdefault((float(a), float(b)), []).append((float(lam), float(mu)))
    return intervals


def _family_s_values(fid: str, cfg: SuiteConfig) -> tuple[float, ...]:
    if cfg.s_values:
        return cfg.s_values
    family, p = parse_id(fid)
    if family == "pow":
        return (p - 1.0,)
    return (1.0,)


def _branches(
    fid: str, cfg: SuiteConfig, cases: list[BoundCase], specs: list[PresetSpec]
) -> list[tuple[float, float, list[BoundCase], list[PresetSpec]]]:
    """Each (s, q) a family runs at, with the cases and presets it admits;
    an (s, q) that admits none is left out."""
    branches = []
    for q in cfg.q_values:
        for s in _family_s_values(fid, cfg):
            admitted = []
            for case in cases:
                try:
                    check_branch(case, s, q)
                except WrongBranchError:
                    continue
                admitted.append(case)
            presets = [spec for spec in specs if not spec.branch_mismatch(s, q)]
            if admitted or presets:
                branches.append((s, q, admitted, presets))
    return branches


def _sweep_interval(
    report: Report,
    cfg: SuiteConfig,
    fid: str,
    a: float,
    b: float,
    pairs: list[tuple[float, float]],
    branches: list[tuple[float, float, list[BoundCase], list[PresetSpec]]],
) -> None:
    """Append every admissible case and preset row of one family on [a, b].

    The mean quadrature is shared by every row of the interval, each lhs by
    every row of its weight pair, and |f'|^q and the certificate by every
    row of their (s, q).
    """
    try:
        f = from_id(fid, a, b)
        mean = mean_integral(f, a, b, cfg.tol)
    except HHVerifyError:
        return
    lhs_at: dict[tuple[float, float], float] = {}

    def lhs(parent: BoundCase, p: BoundParams) -> float:
        w = deviation_params(parent, p)
        key = (w.lam, w.mu)
        if key not in lhs_at:
            lhs_at[key] = abs(hh_lhs(f, w, cfg.tol, mean))
        return lhs_at[key]

    add = report.add
    for s, q, cases, specs in branches:
        qa, qb, qm = derivative_values(f, BoundParams(a, b, 0.0, 0.0, s, q))
        cert = certificate_status(fid, a, b, s, q, cfg.convexity_samples, cfg.seed)
        for lam, mu in pairs:
            p = BoundParams(a, b, lam, mu, s, q)
            params = (a, b, lam, mu, s, q)
            for case in cases:
                bound, note = case_bound_from_values(case, a, b, lam, mu, s, q, qa, qb, qm)
                add(fid, case.value, None, params, lhs(case, p), bound, cert, note)
            for spec in specs:
                if spec.weight_mismatch(lam, mu):
                    continue
                bound = spec.display(a, b, lam, mu, s, q, qa, qb, qm)
                add(fid, spec.parent.value, spec.pid, params, lhs(spec.parent, p), bound, cert, spec.branch_notes)


def run_suite(cfg: SuiteConfig) -> Report:
    """Evaluate the configured cases/presets/theorems over the grid."""
    report = Report()
    intervals = _bound_intervals(cfg)
    cases = [BoundCase(c) for c in cfg.cases]
    specs = [PRESETS[pid] for pid in cfg.presets]
    for fid in cfg.families:
        branches = _branches(fid, cfg, cases, specs)
        for (a, b), pairs in intervals.items():
            _sweep_interval(report, cfg, fid, a, b, pairs, branches)

    # Mean-inequality sweep.
    mean_tuples = []
    for a in cfg.mean_a:
        for b in cfg.mean_b:
            if b <= a:
                continue
            for s in cfg.mean_s:
                for q in cfg.mean_q:
                    for lam in cfg.mean_lam:
                        mean_tuples.append((a, b, s, q, lam))
    if cfg.mean_draws > 0:
        rng = np.random.default_rng(cfg.seed + 1)
        for _ in range(cfg.mean_draws):
            a = rng.uniform(*cfg.a_range)
            b = a + rng.uniform(*cfg.width_range)
            s = rng.uniform(0.05, 2.0)
            q = rng.choice([1.0, 1.5, 2.0, 4.0])
            if not power_rule_holds(s, q):
                q = 1.0
            lam = rng.uniform()
            mean_tuples.append((float(a), float(b), float(s), float(q), float(lam)))
    for theorem in cfg.mean_theorems:
        for (a, b, s, q, lam) in mean_tuples:
            try:
                result = eval_mean_bound(theorem, MeanParams(a, b, s, q, lam))
            except WrongBranchError:
                continue
            report.add_result(mean_family(s), result)

    if cfg.moment_oracle_draws > 0:
        report.oracle_residuals = _oracle_suite(cfg.moment_oracle_draws, cfg.seed, cfg.tol)

    return report.finalize()


def _oracle_suite(draws: int, seed: int, tol: float) -> dict:
    """Max closed-form-vs-quadrature residuals over seeded moment draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        xi = float(rng.uniform())
        s = float(rng.uniform(-0.9, 1.0))
        om = float(rng.uniform(0.25, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        u = rng.uniform()
        if u < 0.15:
            eta = 0.0 if om > 0 else -om
        else:
            eta = float(rng.uniform(max(0.0, -om), max(0.0, -om) + 2.0))
        closed = moment_general(MomentSpec(xi, om, eta, s))
        orc = moment_oracle(xi, om, eta, s, tol)
        worst = max(worst, abs(closed - orc) / (1.0 + abs(orc)))
    harmonic_checks = (
        abs(moment_harmonic(1, 1, 1) - moment_oracle(1, 1, 1, -1.0, tol)),
        abs(moment_harmonic(0, 1, 0) - moment_oracle(0, 1, 0, -1.0, tol)),
        abs(moment_harmonic(0, -1, 2) - moment_oracle(0, -1, 2, -1.0, tol)),
    )
    return {
        "draws": draws,
        "max_moment_residual": worst,
        "max_harmonic_residual": max(harmonic_checks),
    }


# Erratum scan ---------------------------------------------------------------

_SCAN_TOL = 1e-12
_SCAN_XI = [k / 24.0 for k in range(25)]
_SCAN_S = [-0.9 + 1.9 * k / 24.0 for k in range(25)]
_SCAN_LAM = [0.0, 0.2, 0.5, 0.8, 1.0]
_SCAN_Q = {"1": [1.0], ">1": [1.5, 3.0], None: [1.0, 2.0]}
_SCAN_S_BY_RANGE = {(-1.0 + 1e-6, 1.0): [-0.9, -0.5, 0.0, 0.5, 1.0], (1e-12, 1.0): [0.1, 0.5, 1.0]}
_SCAN_SYNTH = [(0.7, 2.3, 1.1), (0.0, 2.0, 1.0), (3.0, 0.5, 1.75), (1.0, 4.0, 2.0)]


def _scan_item(item: str, kind: str, deviation: float, note: str = "") -> dict:
    return {
        "item": item,
        "kind": kind,
        "classification": "erratum-confirmed" if deviation > _SCAN_TOL else "consistent",
        "max_deviation": deviation,
        "note": note,
    }


def _max_gap(pairs, one_sided: bool = False) -> float:
    """Max of (shown vs derived) / (1 + |derived|) over (shown, derived) pairs.

    Two-sided measures |shown - derived|; one-sided only how far shown
    falls below derived (a weakening must dominate its parent).
    """
    worst = 0.0
    for shown, derived in pairs:
        gap = derived - shown if one_sided else abs(shown - derived)
        worst = max(worst, gap / (1.0 + abs(derived)))
    return worst


def _moment_pairs(case: tuple[float, float], verbatim: bool = False):
    """(special-case display, general closed form) over the (ξ, s) grid."""
    for xi in _SCAN_XI:
        for s in _SCAN_S:
            general = moment_general(MomentSpec(xi, case[0], case[1], s))
            yield moment_case(case, xi, s, verbatim=verbatim), general


def _display_pairs(spec: PresetSpec, s_list, q_list):
    """(display, parent case) values on [0, 1] over the spec's pinned grid."""
    lam_list = [spec.pin_lam] if spec.pin_lam is not None else _SCAN_LAM
    for s in s_list:
        for q in q_list:
            for lam in lam_list:
                if spec.pin_mu == "lam":
                    mu_list = [lam]
                elif spec.pin_mu is not None:
                    mu_list = [spec.pin_mu]
                else:
                    mu_list = _SCAN_LAM
                for mu in mu_list:
                    for qa, qb, qm in _SCAN_SYNTH:
                        derived, _ = case_bound_from_values(
                            spec.parent, 0.0, 1.0, lam, mu, s, q, qa, qb, qm
                        )
                        yield spec.display(0.0, 1.0, lam, mu, s, q, qa, qb, qm), derived


def erratum_scan() -> Report:
    """Transcription-vs-derivation comparison for every display.

    Flagged verbatim printings are expected to deviate (erratum-confirmed);
    every shipped preset display must agree with its parent to 1e-12.
    """
    report = Report()
    errata = report.errata

    # Moment special-case displays vs the general closed form.
    for case in MOMENT_CASES:
        name = f"moment_case({case[0]:g},{case[1]:g})"
        errata.append(_scan_item(name, "moment-display", _max_gap(_moment_pairs(case))))
    errata.append(
        _scan_item(
            "moment_case(-1,2) verbatim",
            "flagged-display",
            _max_gap(_moment_pairs((-1.0, 2.0), verbatim=True)),
            "final bracket printed as (s+2)η; substitution gives (s+2)ξ",
        )
    )

    # As-printed displays vs their parent cases: theorem-level ones first,
    # then every shipped preset, then the as-printed preset variants.
    def verbatim_item(name: str, spec: PresetSpec) -> dict:
        s_list = [spec.pin_s] if spec.pin_s is not None else [-0.5, 0.0, 0.5, 1.0]
        gap = _max_gap(_display_pairs(spec, s_list, _SCAN_Q[spec.pin_q]))
        return _scan_item(name, "flagged-display", gap, spec.note)

    verbatim = sorted(VERBATIM_DISPLAYS.items())
    for key, spec in verbatim:
        if key not in PRESETS:
            errata.append(verbatim_item(f"{key} verbatim", spec))
    errata.append(
        _scan_item(
            "T42 general-q verbatim",
            "flagged-display",
            t42_verbatim_gap(),
            "one bracket prints 2λ^(s+2); the q = 1 display of the same theorem has 2λ^(s+1)",
        )
    )
    for pid, spec in sorted(PRESETS.items()):
        s_list = [spec.pin_s] if spec.pin_s is not None else _SCAN_S_BY_RANGE.get(spec.s_range, [0.5])
        is_weakening = spec.kind == "weakening"
        gap = _max_gap(_display_pairs(spec, s_list, _SCAN_Q[spec.pin_q]), one_sided=is_weakening)
        note = "display must dominate the parent" if is_weakening else ""
        errata.append(_scan_item(f"preset {pid}", "preset", gap, note))
    for key, spec in verbatim:
        if key in PRESETS:
            errata.append(verbatim_item(f"preset {key} verbatim", spec))

    # The classical three-point display must coincide with the trapezoid preset.
    e19, trap = PRESETS["E19"].display, PRESETS["C32_trapezoid"].display
    pairs = (
        (e19(0.0, 1.0, 1.0, 1.0, s, q, *t), trap(0.0, 1.0, 1.0, 1.0, s, q, *t))
        for s in (0.1, 0.5, 1.0)
        for q in (1.0, 2.0)
        for t in _SCAN_SYNTH
    )
    errata.append(_scan_item("E19 == C32_trapezoid", "identity", _max_gap(pairs)))

    return report.finalize()
