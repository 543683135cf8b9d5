"""Command-line interface over the verification and study drivers.

Exit codes: 0 when every executed check passes, 1 when a check fails, a
chain row exceeds its risk budget or a driver reports a typed error, 2 for
usage mistakes (argparse default).
File errors (OSError) also exit 2; any other exception is a bug and ends in
a traceback.
"""

import argparse
import dataclasses
import locale  # noqa: F401  argparse's gettext imports it when the first parser is built
import os
import sys

from .errors import ConfigurationError, TypedError
from .harness import (
    RunConfig,
    condition_checker,
    export_basis,
    run_equivalence_chain,
    run_tv_decay,
    run_verify,
)
from .report import SCHEMA, fmt_float, json_text, write_csv_rows, write_text


def _add_flags(p, grid_n: bool, flags, fmt_choices=("csv", "json")):
    p.add_argument("--config", metavar="PATH", help="JSON run configuration")
    if grid_n:
        p.add_argument("--n", type=int, nargs="+", help="sample-size grid")
    else:
        p.add_argument("--n", type=int, help="sample size")
    if "seed" in flags:
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
    if "out" in flags:
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--format", choices=fmt_choices, default=fmt_choices[0], dest="fmt", help="output format"
        )
    if "timings" in flags:
        p.add_argument("--timings", action="store_true", help="include runtime columns")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsequiv",
        description="Verification suites and convergence studies for the "
        "locally-stationary Gaussian equivalence toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags beyond --config and --n that each subcommand reads; "out" brings --format
    specs = [
        ("verify", "run the inequality and identity suite at one n", False, {"seed", "out", "timings"}),
        ("chain", "run the full reduction chain across an n grid", True, {"seed", "out"}),
        ("tvdecay", "total-variation decay study (K <= 2 windows)", True, {"seed", "out", "timings"}),
        ("conditions", "print rate-condition values at one n", False, set()),
        ("export-basis", "write both matrix families plus a manifest", False, {"out"}),
    ]
    for name, help_text, grid_n, flags in specs:
        p = sub.add_parser(name, help=help_text)
        if name == "export-basis":
            _add_flags(p, grid_n, flags, fmt_choices=("csv", "binary"))
            p.add_argument("--k1", type=int, help="time-frequency cutoff")
            p.add_argument("--k2", type=int, help="band-offset cutoff")
        else:
            _add_flags(p, grid_n, flags)
    return parser


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = RunConfig.from_json(fh.read())
    else:
        cfg = RunConfig()
    overrides = {}
    n = getattr(args, "n", None)
    if n is not None:
        overrides["n_grid"] = tuple(n) if isinstance(n, list) else (n,)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _write_study(args, stem, header, rows) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{stem}.{args.fmt}")
    if args.fmt == "csv":
        write_csv_rows(path, header, rows)
    else:
        records = [dict(zip(header, row)) for row in rows]
        write_text(path, json_text({"schema": SCHEMA, "columns": list(header), "rows": records}))
    return path


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    # verify runs the scheduled window on RunConfig's default density class
    read = ("n_grid", "seed")
    ignored = [f.name for f in dataclasses.fields(cfg) if f.name not in read and getattr(cfg, f.name) != f.default]
    if ignored:
        raise ConfigurationError(f"verify reads only n_grid and seed of a config, not {ignored}")
    report = run_verify(cfg.n_grid[0], cfg.seed, args.timings)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"verify_report.{args.fmt}")
    write_text(path, report.to_json() if args.fmt == "json" else report.to_csv())
    for e in report.failures():
        print(f"FAIL {e.check_id}: lhs={fmt_float(e.lhs)} rhs={fmt_float(e.rhs)}")
    passed = sum(1 for e in report.entries if e.passed)
    ranked = sorted((e for e in report.entries if not e.skipped), key=lambda e: e.relative_margin)
    note = ", then ".join(f"{e.check_id} at {e.relative_margin:.3g}" for e in ranked[:2])
    note = f", tightest {note}" if note else ""
    print(f"verify: {passed}/{len(report.entries)} checks passed{note} -> {path}")
    return 0 if report.all_passed else 1


def _cmd_chain(args) -> int:
    cfg = _load_config(args)
    header, rows = run_equivalence_chain(cfg)
    path = _write_study(args, "chain_study", header, rows)
    failed = sum(1 for row in rows if row[-1])
    # risk_pass is None when the pilot-wn stage left no result: an error row
    above = sum(1 for row in rows if row[header.index("risk_pass")] is False)
    print(f"chain: {len(rows)} rows, {failed} with errors, {above} above budget -> {path}")
    return 1 if failed or above else 0


def _cmd_tvdecay(args) -> int:
    cfg = _load_config(args)
    header, rows = run_tv_decay(cfg, timings=args.timings)
    path = _write_study(args, "tv_decay", header, rows)
    print(f"tvdecay: {len(rows)} rows -> {path}")
    return 0


def _cmd_conditions(args) -> int:
    cfg = _load_config(args)
    n = cfg.n_grid[0]
    sched = cfg.window(n)
    entries = condition_checker(sched)
    print(f"n={n} window=({sched.k1},{sched.k2}) K={sched.K} gamma={fmt_float(sched.gamma)}")
    width = max(len(e.check_id) for e in entries)
    for e in entries:
        status = "pass" if e.passed else "FLAG"
        print(f"  {e.check_id:<{width}}  {fmt_float(e.lhs):>24}  budget {fmt_float(e.rhs):>22}  {status}")
    return 0 if all(e.passed for e in entries) else 1


def _cmd_export_basis(args) -> int:
    cfg = _load_config(args)
    n = cfg.n_grid[0]
    sched = cfg.window(n)
    k1 = args.k1 if args.k1 is not None else sched.k1
    k2 = args.k2 if args.k2 is not None else sched.k2
    manifest = export_basis(n, k1, k2, args.out, fmt=args.fmt)
    print(f"export-basis: {manifest['count']} matrices per family -> {args.out}/manifest.json")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "chain": _cmd_chain,
    "tvdecay": _cmd_tvdecay,
    "conditions": _cmd_conditions,
    "export-basis": _cmd_export_basis,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TypedError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
