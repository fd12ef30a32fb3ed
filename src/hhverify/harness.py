"""Grid sweeps, oracle cross-checks, erratum scan, and report generation.

A sweep appends its rows to a `Report`, which holds them column by column
(floats in one array, labels in one list each) rather than as one dict per
row.  `Report.records` and `Report.violations` are views built from the
columns on demand; the report writer reads the columns directly and writes
the same bytes `json.dumps(indent=2)` or `csv.writer` would.  `Report` is
the one place that knows what a record looks like, and `Report.add` the
one way a row enters it, one row at a time or a block of rows as columns.
Each row kind has one builder, which `run_suite` and the CLI's single-row
commands both call: `add_interval_rows` (case and preset rows) and
`add_mean_rows`.  `add_interval_rows` evaluates each case, and each preset
over the rows its weight pins admit, once per (s, q) branch over the
columns of every interval and weight pair of a family, since the case
formulas and the preset displays take float64 arrays and give each entry
the bits the float call for that row would (`moments.libm`); mean rows are
built one at a time.  Every row's lhs comes from `identity.hh_lhs` over
the function's exact mean, so no sweep row runs a quadrature.
`eval_case`, `eval_preset` and `eval_mean_bound` are the scalar reference
the tests compare the builders with; they call the same `hh_lhs`.
A row's `family` is the `fid` of the `FunctionSpec` it evaluated: the
config's canonical id, or `make_power(s, a, b)` for a mean row.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import statistics
from array import array
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .bounds import (
    MIDPOINT_CASES,
    BoundCase,
    branch_mismatch,
    case_bound_from_values,
    derivative_values,
    is_violation,
    nonfinite_bound,
)
from .errors import ConfigError, FunctionDomainError, HHVerifyError
# `certify_power_extended_s` is not called here; it stays bound in this
# module, with `check_extended_s_convex`, because `perfbench/tracer.py`
# patches both here.
from .functions import (
    FunctionSpec,
    analytic_order,
    canonical_id,
    certify_power_extended_s,
    check_extended_s_convex,
    derivative_q_envelope,
    from_id,
    make_power,
    parse_id,
    power_rule_holds,
)
from .identity import hh_lhs
# `eval_mean_bound` is not called here either; `perfbench/tracer.py` patches it here.
from .means import MEAN_SPECS, MEAN_THEOREMS, eval_mean_bound, t42_verbatim_gap
from .moments import (
    MOMENT_CASES,
    MomentSpec,
    moment_case,
    moment_general,
    moment_harmonic,
    moment_oracle,
)
from .presets import PRESETS, VERBATIM_DISPLAYS, PresetSpec

__all__ = ["SuiteConfig", "Report", "certificate_status", "add_interval_rows", "add_mean_rows",
           "run_suite", "erratum_scan"]

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
    # Quadrature tolerance of the moment oracle, the only quadrature a sweep
    # runs (every lhs is exact).  Relative only down to the quadrature's
    # absolute floor of 1e-14 on the integral.
    tol: float = 1e-12
    seed: int = 0
    out_format: str = "json"

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        """Validate a JSON config: `families` (as canonical ids), `cases` (a list
        or "all"), `presets` and `mean_theorems`, each name at most once, the numeric
        lists of `_LISTS` under their sections, the integers of `_INTS`,
        `tol` and `format`.  An omitted key keeps the field's default."""
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
        out["families"] = ()
        for i, fid in enumerate(families):
            path = f"config.families[{i}]"
            _expect(isinstance(fid, str), path, "must be a string")
            try:
                family, param = parse_id(fid)
                cid = canonical_id(fid)
            except FunctionDomainError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            _expect(family != "pow" or param > 0.0, path, f"{fid!r}: power p must be positive")
            _expect(cid not in out["families"], path, f'repeated "{fid}"')
            out["families"] += (cid,)

        for key, (noun, allowed) in names.items():
            value = raw.get(key, getattr(default, key))
            if key == "cases" and value == "all":
                value = ALL_CASES
            _expect(isinstance(value, (list, tuple)), f"config.{key}",
                    'must be a list or "all"' if key == "cases" else "must be a list")
            for i, name in enumerate(value):
                _expect(name in allowed, f"config.{key}[{i}]", f"unknown {noun} {name!r}")
                _expect(name not in value[:i], f"config.{key}[{i}]", f'repeated "{name}"')
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
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path!r} ({exc})") from exc
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

    `add` appends one row from its values; everything else about a record
    is derived here: its slack is bound - lhs, the params it shows follow
    from its case (`MEAN_KEYS` for a mean theorem, `CASE_KEYS` otherwise),
    and each format's field order is `_JSON_FIELDS` or `_CSV_FIELDS`.
    `finalize` sorts the rows into report order and summarises their slack
    per case or preset.  `records` and `violations` are views, lists of
    dicts in the report schema built on each access; `record_count` and
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
        self._label_columns = (self._family, self._case, self._preset, self._certified, self._notes)
        self.errata: list[dict] = []
        self.summary: dict = {}
        self.oracle_residuals: dict = {}

    def add(
        self,
        family: str | list[str],
        case: str | list[str],
        preset: str | None | list[str | None],
        params: tuple,
        lhs: float | np.ndarray,
        bound: float | np.ndarray,
        certified: str | list[str],
        branch_notes: str | list[str],
    ) -> None:
        """Append one row, or a block of rows given as columns.

        params is (a, b, lambda, mu, s, q); a param the record does not
        show (mu on a mean row) is passed as 0.0, which is where it sorts.
        A float bound appends one row.  A float64 array bound appends one
        row per entry, and every float given as a float (s and q, say) is
        repeated down the block.  Each label (family, case, preset,
        certified, branch_notes) is one value for every row, or a list
        with one entry per row.
        """
        if not isinstance(bound, np.ndarray):
            self._floats.extend(params)
            self._floats.extend((lhs, bound, bound - lhs))
            self._family.append(family)
            self._case.append(case)
            self._preset.append(preset)
            self._certified.append(certified)
            self._notes.append(branch_notes)
            return
        columns = np.broadcast_arrays(*params, lhs, bound, bound - lhs)
        self._floats.frombytes(np.column_stack(columns).reshape(-1).view(np.uint8))
        labels = (family, case, preset, certified, branch_notes)
        for column, label in zip(self._label_columns, labels):
            column.extend(label if isinstance(label, list) else itertools.repeat(label, len(bound)))

    def _labels(self) -> dict[str, list]:
        return dict(zip(("family", "case", "preset", "certified", "branch_notes"), self._label_columns))

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


def certificate_status(f: FunctionSpec, s: float, q: float, samples: int, seed: int) -> str:
    """Provenance of the claim that |f'|^q is extended s-convex on [f.lo, f.hi].

    `certified-analytic` when s is within 1e-12 of the `analytic_order` of
    f's id or below it; otherwise |f'|^q is sampled (`samples` Halton and
    `samples` seeded random triples), which can falsify but never certify.
    The sweep and the CLI's `bound` and `preset` commands all label rows
    with it.
    """
    family, p = parse_id(f.fid)
    order = analytic_order(family, p, f.lo, q)
    if order is not None and s <= order + 1e-12:
        return "certified-analytic"
    try:
        envelope = derivative_q_envelope(f, q)
        return check_extended_s_convex(envelope, f.lo, f.hi, s, samples=samples, seed=seed).status
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
            admitted = [case for case in cases if not branch_mismatch(case, s, q)]
            presets = [spec for spec in specs if not spec.branch_mismatch(s, q)]
            if admitted or presets:
                branches.append((s, q, admitted, presets))
    return branches


def add_interval_rows(
    report: Report,
    cfg: SuiteConfig,
    intervals: list[tuple[FunctionSpec, list[tuple[float, float]]]],
    branches: list[tuple[float, float, list[BoundCase], list[PresetSpec]]],
) -> list[HHVerifyError]:
    """Append the case and preset rows of one family over its intervals.

    Each interval is (f, pairs): f on [f.lo, f.hi], labelled `f.fid`, with
    its (lambda, mu) weight pairs, and each (interval, pair) is a row.  A
    branch is (s, q, cases, presets), settled on (s, q) by the caller.  The
    lhs does not depend on (s, q), so it is two `hh_lhs` columns shared by
    every branch: one at the rows' weights, and one at (0, 0) for the
    `MIDPOINT_CASES`.  |f'|^q is computed once per interval and q, the
    certificate once per interval and (s, q).

    Case and preset rows take one block path.  Per branch, each case is one
    `case_bound_from_values` call over the columns of every row, and each
    preset one `display` call over the rows whose weights meet its pins
    (`PresetSpec.weights_match`).  A row whose bound is not finite, which
    would read "holds", is refused, and each block is one `Report.add`.

    An interval whose lhs or |f'|^q cannot be evaluated (f or its mean
    overflows, say) adds no rows, nor does a bound that is not finite; the
    error of each is returned.
    """
    q_values = dict.fromkeys(q for _, q, _, _ in branches)
    kept, values, errors = [], [], []
    lhs_at: dict[bool, list[float]] = {False: [], True: []}  # keyed by `case in MIDPOINT_CASES`
    for f, pairs in intervals:
        try:
            lhs = [abs(hh_lhs(f, f.lo, f.hi, l, m)) for l, m in pairs]
            mid = abs(hh_lhs(f, f.lo, f.hi, 0.0, 0.0))
            values.append({q: derivative_values(f, f.lo, f.hi, q) for q in q_values})
        except HHVerifyError as exc:
            errors.append(exc)
            continue
        kept.append((f, pairs))
        lhs_at[False] += lhs
        lhs_at[True] += [mid] * len(pairs)
    if not kept:
        return errors
    sizes = [len(pairs) for _, pairs in kept]
    a = np.repeat([f.lo for f, _ in kept], sizes)
    b = np.repeat([f.hi for f, _ in kept], sizes)
    lam, mu = np.array([w for _, pairs in kept for w in pairs], dtype=np.float64).reshape(-1, 2).T
    lhs_columns = {key: np.array(column) for key, column in lhs_at.items()}
    every_row = np.arange(len(a))
    fid = kept[0][0].fid

    for s, q, cases, specs in branches:
        qa, qb, qm = np.repeat(np.array([v[q] for v in values], dtype=np.float64), sizes, axis=0).T
        certs = [certificate_status(f, s, q, cfg.convexity_samples, cfg.seed) for f, _ in kept]
        cert = np.repeat(np.array(certs, dtype=object), sizes)
        blocks = [(case, None, every_row) for case in cases]
        blocks += [(spec.parent, spec, np.flatnonzero(spec.weights_match(lam, mu))) for spec in specs]
        for case, spec, rows in blocks:
            columns = (a[rows], b[rows], lam[rows], mu[rows], s, q, qa[rows], qb[rows], qm[rows])
            with np.errstate(over="ignore"):  # an overflowed bound is refused below
                if spec is None:
                    bound, note = case_bound_from_values(case, *columns)
                else:
                    bound, note = spec.display(*columns), spec.branch_notes
            ok = np.isfinite(bound)  # a bound that is not finite would read "holds"
            preset = None if spec is None else spec.pid
            errors += [nonfinite_bound(preset or case.value, fid, lo, hi)
                       for lo, hi in zip(a[rows[~ok]].tolist(), b[rows[~ok]].tolist())]
            rows = rows[ok]
            report.add(fid, case.value, preset, (a[rows], b[rows], lam[rows], mu[rows], s, q),
                       lhs_columns[case in MIDPOINT_CASES][rows], bound[ok], cert[rows].tolist(), note)
    return errors


def add_mean_rows(
    report: Report, theorems: tuple[str, ...], tuples: list[tuple[float, float, float, float, float]]
) -> list[HHVerifyError]:
    """Append the row of each theorem at each (a, b, s, q, lambda) in
    `tuples` whose (s, q) lie on the theorem's branch.

    f = x^s (whose id labels the rows), its lhs from `hh_lhs` at μ = λ,
    |f'|^q at a, b and the midpoint, and the analytic order of |f'|^q are
    shared by every theorem of a tuple.  A tuple where x^s cannot be built
    (a = b) or evaluated (an overflow) adds no rows, and a row whose bound
    is not finite is left out; the error of each is returned.
    """
    specs = [MEAN_SPECS[theorem] for theorem in theorems]
    add = report.add
    errors = []
    for a, b, s, q, lam in tuples:
        admitted = [spec for spec in specs if not spec.branch_mismatch(s, q)]
        if not admitted:
            continue
        try:
            f = make_power(s, a, b)
            lhs = abs(hh_lhs(f, a, b, lam, lam))
            values = derivative_values(f, a, b, q)
        except HHVerifyError as exc:
            errors.append(exc)
            continue
        order = analytic_order("pow", s, a, q)
        for spec in admitted:
            bound, note = spec.bound(a, b, s, q, lam, *values)
            if not math.isfinite(bound):
                errors.append(nonfinite_bound(spec.theorem, f.fid, a, b))
                continue
            add(f.fid, spec.theorem, None, (a, b, lam, 0.0, s, q), lhs, bound, spec.certificate(s, order), note)
    return errors


def run_suite(cfg: SuiteConfig) -> Report:
    """Evaluate the configured cases/presets/theorems over the grid.

    An interval whose function cannot be built, or whose lhs or |f'|^q
    cannot be evaluated, is skipped whole; so is such a mean tuple, and a
    row whose bound is not finite.
    """
    report = Report()
    intervals = _bound_intervals(cfg)
    cases = [BoundCase(c) for c in cfg.cases]
    specs = [PRESETS[pid] for pid in cfg.presets]
    for fid in cfg.families:
        branches = _branches(fid, cfg, cases, specs)
        resolved = []
        for (a, b), pairs in intervals.items():
            try:
                resolved.append((from_id(fid, a, b), pairs))
            except HHVerifyError:
                continue
        add_interval_rows(report, cfg, resolved, branches)

    # Mean-inequality sweep.
    grid = itertools.product(cfg.mean_a, cfg.mean_b, cfg.mean_s, cfg.mean_q, cfg.mean_lam)
    mean_tuples = [(a, b, s, q, lam) for a, b, s, q, lam in grid if b > a]
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
    add_mean_rows(report, cfg.mean_theorems, mean_tuples)

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
    weights = dict.fromkeys(spec.pinned_weights(lam, mu) for lam in _SCAN_LAM for mu in _SCAN_LAM)
    for s in s_list:
        for q in q_list:
            for lam, mu in weights:
                for qa, qb, qm in _SCAN_SYNTH:
                    derived, _ = case_bound_from_values(spec.parent, 0.0, 1.0, lam, mu, s, q, qa, qb, qm)
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
        s_list = [spec.pin_s] if spec.pin_s is not None else _SCAN_S_BY_RANGE[spec.s_range]
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
