"""Check results, the versioned verification report, and the file format.

Every inequality the package can verify lands in a :class:`CheckResult`:
left-hand side, right-hand side, the tolerance that was applied, and a pass
flag that is exactly ``lhs <= rhs + tol``.  Every text file the command line
writes is made here: CSV by :func:`csv_text` (RFC 4180, floats at 17
significant digits, CRLF line ends), JSON by :func:`json_text` (sorted keys,
two-space indent, final newline; floats in their shortest round-trip form),
both written by :func:`write_text`, so identical runs give byte-identical
files.  A check's wall-clock time is serialized only when ``run_verify``
recorded it, to keep default outputs deterministic.
"""

from __future__ import annotations

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

    def as_dict(self):
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
        if self.runtime_ms is not None:
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

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "config": self.config,
            "all_pass": self.all_passed,
            "checks": [e.as_dict() for e in self.entries],
        }
        return json_text(payload)

    def to_csv(self) -> str:
        cols = ["check_id", "ref", "lhs", "rhs", "tol", "margin", "pass", "skipped"]
        dicts = [e.as_dict() for e in self.entries]
        if any("runtime_ms" in d for d in dicts):
            cols.append("runtime_ms")
        return csv_text([cols] + [[d.get(c) for c in cols] for d in dicts])


def csv_cell(v) -> str:
    """One RFC-4180 cell: true/false, empty for None, floats at 17
    significant digits, anything else as quoted text."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    s = str(v)
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def csv_text(rows) -> str:
    """RFC-4180 text: cells by csv_cell, CRLF after every line."""
    return "".join(",".join(csv_cell(v) for v in row) + "\r\n" for row in rows)


def json_text(payload) -> str:
    """Sorted two-space JSON with a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path, text):
    """Write text as it is: no newline translation, so CRLF stays CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv_rows(path, header, rows):
    """A header line, then one line per row, as csv_text."""
    write_text(path, csv_text([header, *rows]))
