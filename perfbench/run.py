"""lsequiv benchmark: CLI drivers end to end, layer by layer from a traced run.

    python3 perfbench/run.py --workload chain-dense --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. Every CLI invocation runs in a fresh
child process (``child.py``) with the BLAS and OpenMP thread counts pinned to
1. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's quartiles and sample count, the correctness checks that
were applied, and the run manifest. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracer  # noqa: E402

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ONLY_CHILDREN = 4
DEADLINE_S = 170.0

WORKLOADS = {
    "chain-dense": ["chain", "--n", "512", "1024"],
    "tv-k2": ["tvdecay", "--config", "perfbench/configs/tv-k2.json", "--n", "512"],
    "verify-256": ["verify", "--n", "256"],
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

_SPAN_S = [
    "basis_cov.build_basis",
    "basis_cov.build_theta",
    "basis_cov.presmoothing_residual",
    "basis_cov.theta_lipschitz_check",
    "circulant.build_mcheck_basis",
    "circulant.hom_defect",
    "gaussianize.ExperimentState.build",
    "gaussianize.gaussian_summaries",
    "gaussianize.build_localized_C",
    "gaussianize.likelihood_affinity_check",
    "cltcheck.invert_cf_1d",
    "cltcheck.RadialProfile",
    "cltcheck.tv_oracle",
    "cltcheck.build_char_context",
    "cltcheck.edgeworth_build",
    "whitenoise.goe_connection",
    "whitenoise.pilot_risk_row",
    "whitenoise.pilot_estimate",
    "whitenoise.gamma_variants",
    "spectral.QuadratureGrid.project",
    "linalg.dense_eig",
    "report.write",
]
_CALLS = [
    "cltcheck.invert_cf_1d",
    "cltcheck.RadialProfile",
    "cltcheck.RadialProfile.abs_psi",
    "spectral.QuadratureGrid.project",
    "spectral.QuadratureGrid.inner",
    "linalg.dense_eig",
]

# (metric name, unit); per-layer metric names follow "<module>.<function>.<what>".
PER_LAYER = (
    [(f"{name}.s", "s") for name in _SPAN_S]
    + [(f"{name}.calls", "count") for name in _CALLS]
    + [(f"{name}.peak_mb", "MB") for name in tracer.PEAK_LAYERS]
    + [(f"{name}.self_s", "s") for name in tracer.DRIVERS]
    + [
        ("linalg.dense_eig.n3_sum", "count"),
        ("harness.stage_errors", "count"),
        ("report.output_bytes", "B"),
        ("failed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def summary(values):
    """Median, first and third quartile and count, as statistics.quantiles gives them."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unavailable (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(ROOT, ".git", name)
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return f"unresolved ({name})"


class Runner:
    """Spawns child processes for one benchmark run and keeps their records."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.update({var: THREADS for var in THREAD_VARS})
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def cli_args(self, out_dir):
        rel_out = os.path.relpath(out_dir, ROOT)
        return WORKLOADS[self.workload] + ["--seed", str(self.seed), "--out", rel_out]

    def spawn(self, mode):
        """Run one child; returns its record and output directory."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out_dir = os.path.join(self.workdir, tag)
        result = os.path.join(self.workdir, tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result, mode]
        if mode != "setup":
            cmd += self.cli_args(out_dir)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time budget exhausted before all children ran")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {tag} exceeded the time budget")
        if proc.returncode != 0 or not os.path.exists(result):
            raise BenchError(
                f"child {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(result) as fh:
            record = json.load(fh)
        record["setup_s"] = record["ready_monotonic"] - spawned
        return record, out_dir


def _read_outputs(out_dir):
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _gate(runner, record, out_dir):
    return gate.check_output(runner.workload, out_dir, runner.seed, crash=record.get("crash"))


def run_untraced(runner, seconds):
    setups = []
    for _ in range(SETUP_ONLY_CHILDREN):
        record, _ = runner.spawn("setup")
        setups.append(record["setup_s"])
    records, outputs, gates = [], [], []
    first = time.monotonic()
    while not records or time.monotonic() - first < seconds:
        record, out_dir = runner.spawn("plain")
        records.append(record)
        setups.append(record["setup_s"])
        outputs.append(_read_outputs(out_dir))
        gates.append(_gate(runner, record, out_dir))
    samples = {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    identical = all(o == outputs[0] for o in outputs)
    invariants = {f"outputs byte-identical across {len(outputs)} invocations": identical}
    return samples, records, gates, invariants


def run_traced(runner):
    plain, plain_dir = runner.spawn("plain")
    spans, spans_dir = runner.spawn("spans")
    memory, memory_dir = runner.spawn("memory")
    base = _read_outputs(plain_dir)
    invariants = {
        "traced outputs byte-identical to untraced": _read_outputs(spans_dir) == base,
        "tracemalloc outputs byte-identical to untraced": _read_outputs(memory_dir) == base,
        "every wrapped name restored": not spans["unrestored"] and not memory["unrestored"],
    }
    gates = [_gate(runner, r, d) for r, d in ((plain, plain_dir), (spans, spans_dir), (memory, memory_dir))]

    raw = [tuple(s) for s in spans["spans"]]
    inclusive = tracer.inclusive_times(raw)
    self_s = tracer.self_time_by_name(raw)
    counts = spans["counts"]
    metrics = {}
    for name in _SPAN_S:
        metrics[f"{name}.s"] = inclusive.get(name, 0.0)
    for name in _CALLS:
        metrics[f"{name}.calls"] = counts.get(name, 0)
    for name in tracer.PEAK_LAYERS:
        metrics[f"{name}.peak_mb"] = memory["peaks"].get(name, 0) / 2**20
    for name in tracer.DRIVERS:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["linalg.dense_eig.n3_sum"] = spans["work"].get("linalg.dense_eig", 0)
    metrics["harness.stage_errors"] = sum(spans["errors"].values())
    metrics["report.output_bytes"] = sum(len(b) for b in base.values())
    metrics["failed_frac"] = sum(g.failed for g in gates) / sum(g.attempted for g in gates)
    metrics["trace.overhead_frac"] = spans["wall_s"] / plain["wall_s"] - 1.0
    metrics["trace.coverage"] = tracer.coverage(raw, spans["wall_s"])
    info = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": spans["wall_s"],
        "tracemalloc_wall_s": memory["wall_s"],
        "spans": len(raw),
        "patched_bindings": spans["patched"],
    }
    return metrics, [plain, spans, memory], gates, invariants, info


def manifest(runner, records):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": {var: THREADS for var in THREAD_VARS},
        "blas_threads_effective": sorted({r.get("blas_threads_effective") for r in records}, key=str),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": runner.seed,
        "workload": runner.workload,
        "argv": ["lsequiv"] + runner.cli_args("<out>"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gate.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so subprocess.run kills and
    # reaps the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.exists(os.path.join(ROOT, "src", "lsequiv", "cli.py")):
        print(f"error: no lsequiv sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        try:
            if args.trace:
                metrics, records, gates, invariants, info = run_traced(runner)
                units = dict(PER_LAYER)
                detail = {"trace": info}
            else:
                samples, records, gates, invariants = run_untraced(runner, args.seconds)
                stats = {name: summary(values) for name, values in samples.items()}
                metrics = {name: stats[name]["median"] for name, _ in END_TO_END}
                units = dict(END_TO_END)
                detail = {"quartiles": stats}
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted = sum(g.attempted for g in gates)
        failed = sum(g.failed for g in gates)
        reasons = sorted({r for g in gates for r in g.reasons})
        for name, value in metrics.items():
            extra = ""
            if not args.trace:
                s = detail["quartiles"][name]
                extra = f"  q1={s['q1']:.6g} q3={s['q3']:.6g} count={s['count']}"
            print(f"{name} = {value:.6g} {units[name]}{extra}")
        print(f"operations: attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g}")
        print("checks applied: " + "; ".join(gates[0].applied))
        for text, ok in invariants.items():
            print(f"{'ok  ' if ok else 'FAIL'} {text}")
        for reason in reasons[:20]:
            print(f"FAIL {reason}")
        print("manifest " + json.dumps(manifest(runner, records), sort_keys=True))
        print("detail " + json.dumps(detail, sort_keys=True))
        result = {
            "correct": failed == 0 and all(invariants.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
