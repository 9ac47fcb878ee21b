"""Verification-report structures and JSON/CSV persistence.

Reports are plain data: a row compares a computed number against an oracle
(``check="match"``) or against an upper bound (``check="bound"``, errors are
the positive excess only).  Floating values are printed with 17 significant
digits in both formats, so a written report parses back to identical floats.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone


def format_float17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ReportRow:
    name: str
    inputs: str
    computed: float
    oracle: float
    tol_rel: float
    tol_abs: float
    check: str = "match"  # match | bound
    flags: tuple = ()

    def __post_init__(self):
        if self.check not in ("match", "bound"):
            raise ValueError(f"unknown check kind {self.check!r}")

    @property
    def abs_err(self) -> float:
        if self.check == "bound":
            return max(self.computed - self.oracle, 0.0)
        return abs(self.computed - self.oracle)

    @property
    def rel_err(self) -> float:
        scale = abs(self.oracle)
        if scale == 0.0:
            return math.inf if self.abs_err > 0 else 0.0
        return self.abs_err / scale

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.computed):
            return False
        return self.rel_err <= self.tol_rel or self.abs_err <= self.tol_abs

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


def failed_row(name: str, inputs: str, message: str) -> ReportRow:
    """Row recording an error raised while computing a check."""
    return ReportRow(name=name, inputs=inputs, computed=math.nan, oracle=0.0,
                     tol_rel=0.0, tol_abs=0.0, check="match",
                     flags=(f"error:{message}",))


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    timestamp: str
    config: dict
    rows: tuple

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.rows if r.passed)
        flagged = sum(1 for r in self.rows if r.flagged)
        return {"total": len(self.rows), "passed": passed,
                "failed": len(self.rows) - passed, "flagged": flagged}


def make_report(suite: str, config: dict, rows) -> VerificationReport:
    stamp = datetime.now(timezone.utc).isoformat()
    return VerificationReport(suite=suite, timestamp=stamp, config=dict(config),
                              rows=tuple(rows))


# ----------------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------------

def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(f"{pad}  {_json_string(k)}: ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        if math.isnan(obj):
            out.append('"nan"')
        elif math.isinf(obj):
            out.append('"inf"' if obj > 0 else '"-inf"')
        else:
            out.append(format_float17(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(_json_string(obj))


def _json_string(obj) -> str:
    return json.dumps(str(obj), ensure_ascii=False)


def report_to_json(r: VerificationReport) -> str:
    doc = {
        "suite": r.suite,
        "timestamp": r.timestamp,
        "config": r.config,
        "rows": [
            {
                "name": row.name,
                "inputs": row.inputs,
                "computed": row.computed,
                "oracle": row.oracle,
                "abs_err": row.abs_err,
                "rel_err": row.rel_err,
                "pass": row.passed,
                "check": row.check,
                "tol_rel": row.tol_rel,
                "tol_abs": row.tol_abs,
                "flags": list(row.flags),
            }
            for row in r.rows
        ],
        "summary": r.summary,
    }
    out: list = []
    _emit(doc, out, 0)
    return "".join(out) + "\n"


CSV_HEADER = ["suite", "name", "computed", "oracle", "abs_err", "rel_err", "pass"]


def report_to_csv(r: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in r.rows:
        writer.writerow([
            r.suite,
            row.name,
            format_float17(row.computed),
            format_float17(row.oracle),
            format_float17(row.abs_err),
            format_float17(row.rel_err) if math.isfinite(row.rel_err) else "inf",
            "true" if row.passed else "false",
        ])
    return buf.getvalue()


def write_report(r: VerificationReport, format: str = "json", path=None) -> None:
    """Persist a report as JSON (full structure) or CSV (flattened rows)."""
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    text = report_to_json(r) if format == "json" else report_to_csv(r)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc
