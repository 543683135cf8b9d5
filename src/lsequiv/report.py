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
    if x is None:
        return ""
    return format(float(x), ".17g")


@dataclass
class CheckResult:
    check_id: str
    ref: str            # descriptive lineage id, or "plumbing"
    lhs: float
    rhs: float
    tol: float = 0.0
    runtime_ms: float | None = None
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

    def as_dict(self, timings=False):
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
    entries: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    schema: str = SCHEMA

    def add(self, *args, **kwargs):
        entry = args[0] if args and isinstance(args[0], CheckResult) else CheckResult(*args, **kwargs)
        self.entries.append(entry)
        return entry

    def extend(self, entries):
        self.entries.extend(entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def to_json(self, timings=False) -> str:
        payload = {
            "schema": self.schema,
            "config": self.config,
            "all_pass": self.all_passed,
            "checks": [_stable_numbers(e.as_dict(timings)) for e in self.entries],
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
            row = []
            for c in cols:
                v = d[c]
                if isinstance(v, bool):
                    row.append("true" if v else "false")
                elif isinstance(v, float) or v is None:
                    row.append(fmt_float(v))
                else:
                    row.append(csv_quote(str(v)))
            buf.write(",".join(row) + "\r\n")
        return buf.getvalue()


def _stable_numbers(d):
    # JSON floats round-trip through the 17g form so json output is byte-stable.
    out = {}
    for k, v in d.items():
        if isinstance(v, bool) or v is None:
            out[k] = v
        elif isinstance(v, float):
            out[k] = float(fmt_float(v))
        else:
            out[k] = v
    return out


def csv_quote(s: str) -> str:
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def write_csv_rows(path, header, rows):
    """RFC-4180 writer: CRLF line ends, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, bool):
                    cells.append("true" if v else "false")
                elif v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(fmt_float(v))
                elif isinstance(v, int):
                    cells.append(str(v))
                else:
                    cells.append(csv_quote(str(v)))
            fh.write(",".join(cells) + "\r\n")
