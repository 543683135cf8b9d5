"""Check results and the versioned verification report.

Every inequality the package can verify lands in a :class:`CheckResult`:
left-hand side, right-hand side, the tolerance that was applied, and a pass
flag that is exactly ``lhs <= rhs + tol``.  Reports serialize to JSON and
RFC-4180 CSV with floats at 17 significant digits, so that identical runs are
byte-identical.  Wall-clock timings are kept in memory but only serialized on
request, to keep default outputs deterministic.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field

SCHEMA = "lsp-equiv/1"


def fmt_float(x) -> str:
    """17-significant-digit decimal form, stable across runs."""
    return format(float(x), ".17g")


@dataclass
class CheckResult:
    check_id: str
    ref: str            # descriptive lineage id, or "plumbing"
    lhs: float
    rhs: float
    tol: float = 0.0
    # wall time of the check's group, set after the check is made
    runtime_ms: float | None = field(default=None, init=False)
    skipped: bool = False

    @property
    def margin(self) -> float:
        return self.rhs + self.tol - self.lhs

    @property
    def relative_margin(self) -> float:
        """margin / max(|rhs| + tol, tiny): the share of the allowance left."""
        return self.margin / max(abs(self.rhs) + self.tol, sys.float_info.min)

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        return bool(self.lhs <= self.rhs + self.tol)

    def as_dict(self, timings):
        d = {
            "check_id": self.check_id,
            "ref": self.ref,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tol": self.tol,
            "margin": self.margin,
            "pass": self.passed,
            "skipped": self.skipped,
        }
        if timings:
            d["runtime_ms"] = self.runtime_ms
        return d


@dataclass
class VerificationReport:
    config: dict
    entries: list = field(default_factory=list, init=False)

    def extend(self, entries):
        self.entries.extend(entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def to_json(self, timings=False) -> str:
        payload = {
            "schema": SCHEMA,
            "config": self.config,
            "all_pass": self.all_passed,
            "checks": [
                {k: stable_value(v) for k, v in e.as_dict(timings).items()} for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self, timings=False) -> str:
        cols = ["check_id", "ref", "lhs", "rhs", "tol", "margin", "pass", "skipped"]
        if timings:
            cols.append("runtime_ms")
        buf = io.StringIO()
        buf.write(",".join(cols) + "\r\n")
        for e in self.entries:
            d = e.as_dict(timings)
            buf.write(",".join(csv_cell(d[c]) for c in cols) + "\r\n")
        return buf.getvalue()


def stable_value(v):
    """A JSON value whose float round-trips through the 17g form, so json
    output is byte-stable."""
    if isinstance(v, float):
        return float(fmt_float(v))
    return v


def csv_quote(s: str) -> str:
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def csv_cell(v) -> str:
    """One RFC-4180 cell: true/false, empty for None, floats at 17
    significant digits, anything else as quoted text."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    return csv_quote(str(v))


def write_csv_rows(path, header, rows):
    """RFC-4180 writer: CRLF line ends, cells by csv_cell."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(csv_cell(v) for v in row) + "\r\n")
