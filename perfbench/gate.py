"""Correctness gate behind ``failed_frac``.

Each workload's output table is compared with a reference written at
:data:`REFERENCE_SEED`. An operation is one table row (chain, tvdecay) or
one verify check, and it fails when

* the driver tagged an error, crashed, or wrote no file;
* a verify check did not pass, or the set of check ids differs from the
  reference;
* a value that must be a number is missing or non-finite, or is negative
  where the quantity cannot be;
* a column that does not depend on the seed (the schedule) departs from the
  reference;
* at the reference seed, a column that does not depend on the localization
  draw departs from the reference by more than its tolerance.

Columns that do depend on the draw (``summary_kl``, ``pilot_risk_abstract``,
``goe_kl``) are only required to be finite and non-negative: a change to the
sampler may change them on purpose.
"""

import csv
import math
import os
from dataclasses import dataclass, field

REFERENCE_SEED = 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# A tolerance is ("exact", None), ("rel", r) for |got - want| <= r * |want|,
# or ("abs", a) for |got - want| <= a.


@dataclass(frozen=True)
class TableSpec:
    """How one study table is checked; rows are matched on ``key``."""

    file: str
    key: str
    schedule: dict  # compared with the reference at every seed
    at_reference: dict  # compared with the reference at REFERENCE_SEED only
    nonneg: tuple  # finite and >= 0 at every seed
    empty: tuple = ()  # must be blank
    error: str = None  # blank unless the driver tagged an error
    unit_interval: tuple = ()  # must lie in [0, 1]


CHAIN = TableSpec(
    file="chain_study.csv",
    key="n",
    schedule={
        "kappa1": ("exact", None),
        "kappa2": ("exact", None),
        "K": ("exact", None),
        "gamma": ("rel", 1e-12),
    },
    at_reference={
        "presmooth_rel": ("rel", 1e-9),
        "pilot_risk_wn": ("rel", 1e-9),
    },
    nonneg=("presmooth_rel", "pilot_risk_wn", "summary_kl", "pilot_risk_abstract", "goe_kl"),
    empty=("tv",),  # K = 6 > 2: the TV oracle is not defined
    error="error",
)

TV = TableSpec(
    file="tv_decay.csv",
    key="n",
    schedule={"K": ("exact", None)},
    at_reference={
        "mu_n": ("rel", 1e-9),
        "tv": ("abs", 1e-6),
    },
    nonneg=("mu_n", "tv", "tail_bound_used"),
    empty=("runtime_ms",),
    unit_interval=("tv",),
)

VERIFY_FILE = "verify_report.csv"
VERIFY_NUMERIC = ("lhs", "rhs", "tol", "margin")
VERIFY_FIXED = ("ref", "skipped")  # compared with the reference at every seed

SPECS = {"chain-dense": CHAIN, "tv-k2": TV, "verify-256": None}


def output_file(workload):
    spec = SPECS[workload]
    return VERIFY_FILE if spec is None else spec.file


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def reference_rows(workload):
    return read_table(os.path.join(REFERENCE_DIR, workload, output_file(workload)))


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    applied: list = field(default_factory=list)

    def fail(self, reason):
        self.failed += 1
        self.reasons.append(reason)


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def within(got, want, tolerance):
    kind, tol = tolerance
    if kind == "exact":
        return got == want
    g, w = _number(got), _number(want)
    if not (math.isfinite(g) and math.isfinite(w)):
        return False
    if kind == "rel":
        return abs(g - w) <= tol * abs(w)
    return abs(g - w) <= tol


def _fmt_tol(tolerance):
    kind, tol = tolerance
    return kind if tol is None else f"{kind} {tol:g}"


def _check_table(spec, rows, ref_rows, compare_reference):
    res = GateResult()
    res.applied = [
        f"error column blank ({spec.error})" if spec.error else "no error column",
        "finite and >= 0: " + ",".join(spec.nonneg),
        "blank: " + ",".join(spec.empty),
        "schedule equals reference: "
        + ",".join(f"{c} {_fmt_tol(t)}" for c, t in spec.schedule.items()),
    ]
    if spec.unit_interval:
        res.applied.append("in [0, 1]: " + ",".join(spec.unit_interval))
    if compare_reference:
        res.applied.append(
            f"reference at seed {REFERENCE_SEED}: "
            + ",".join(f"{c} {_fmt_tol(t)}" for c, t in spec.at_reference.items())
        )
    got = {row[spec.key]: row for row in rows}
    want = {row[spec.key]: row for row in ref_rows}
    for key in sorted(set(got) | set(want), key=_number):
        res.attempted += 1
        row, ref = got.get(key), want.get(key)
        label = f"{spec.key}={key}"
        if row is None or ref is None:
            res.fail(f"{label}: row {'missing' if row is None else 'not in reference'}")
            continue
        problems = []
        if spec.error and row[spec.error]:
            problems.append(f"error {row[spec.error]}")
        for col in spec.nonneg:
            v = _number(row[col])
            if not (math.isfinite(v) and v >= 0.0):
                problems.append(f"{col}={row[col]!r} not finite and >= 0")
        for col in spec.unit_interval:
            if not 0.0 <= _number(row[col]) <= 1.0:
                problems.append(f"{col}={row[col]} outside [0, 1]")
        for col in spec.empty:
            if row[col] != "":
                problems.append(f"{col}={row[col]!r} should be blank")
        checks = dict(spec.schedule)
        if compare_reference:
            checks.update(spec.at_reference)
        for col, tol in checks.items():
            if not within(row[col], ref[col], tol):
                problems.append(f"{col}={row[col]} departs from {ref[col]} ({_fmt_tol(tol)})")
        if problems:
            res.fail(f"{label}: " + "; ".join(problems))
    return res


def _check_verify(rows, ref_rows):
    res = GateResult()
    res.applied = [
        "check ids equal reference",
        "pass is true",
        "finite: " + ",".join(VERIFY_NUMERIC),
        "equal reference: " + ",".join(VERIFY_FIXED),
    ]
    got = {row["check_id"]: row for row in rows}
    want = {row["check_id"]: row for row in ref_rows}
    order = [r["check_id"] for r in ref_rows] + sorted(set(got) - set(want))
    for cid in order:
        res.attempted += 1
        row, ref = got.get(cid), want.get(cid)
        if row is None or ref is None:
            res.fail(f"{cid}: check {'missing' if row is None else 'not in reference'}")
            continue
        problems = []
        if row["pass"] != "true":
            problems.append(f"failed lhs={row['lhs']} rhs={row['rhs']} tol={row['tol']}")
        for col in VERIFY_NUMERIC:
            if not math.isfinite(_number(row[col])):
                problems.append(f"{col}={row[col]!r} not finite")
        for col in VERIFY_FIXED:
            if row[col] != ref[col]:
                problems.append(f"{col}={row[col]!r} differs from {ref[col]!r}")
        if problems:
            res.fail(f"{cid}: " + "; ".join(problems))
    return res


def check_rows(workload, rows, ref_rows, seed):
    """Gate one table already read into dicts (see :func:`read_table`)."""
    spec = SPECS[workload]
    if spec is None:
        return _check_verify(rows, ref_rows)
    return _check_table(spec, rows, ref_rows, seed == REFERENCE_SEED)


def check_output(workload, out_dir, seed, crash=None):
    """Gate one invocation's output directory."""
    ref_rows = reference_rows(workload)
    path = os.path.join(out_dir, output_file(workload))
    if crash is not None or not os.path.exists(path):
        res = GateResult(attempted=len(ref_rows))
        why = crash or f"no {output_file(workload)} written"
        for _ in ref_rows:
            res.fail(why)
        return res
    return check_rows(workload, read_table(path), ref_rows, seed)
