"""Layer spans recorded from outside the program.

The benchmark wraps public functions of ``lsequiv`` (and the two dense
eigensolvers of ``numpy.linalg``) where their callers look them up, records
one span per call in memory, and restores every wrapped name afterwards.
Nothing inside ``src/`` is edited.

A span is ``(id, name, start, end, parent_id)``; all spans of one child
process share the run id stored with them in :meth:`Tracer.snapshot`. Analysis functions at the end of
this module are pure so the tests can feed them synthetic spans.
"""

import importlib
import sys
import time
import tracemalloc
from collections import Counter

# (layer name, module, attribute path, kind). kind "span" times each call;
# "count" only counts calls, for functions called thousands of times from
# quadrature callbacks or per-index loops, where a span per call would distort
# the timing; "eig" times each call and adds its computed n^3 work; "errors"
# counts the errors a chain stage recorded. The benchmark writes CSV only, so
# "report.write" covers the two CSV serializers.
# The dense eigensolver layer is named "linalg" after lsequiv._linalg, which
# owns the package's spectral decompositions (names may not start with "_").
TARGETS = [
    ("basis_cov.build_basis", "lsequiv.basis_cov", "build_basis", "span"),
    ("basis_cov.build_theta", "lsequiv.basis_cov", "build_theta", "span"),
    ("basis_cov.presmoothing_residual", "lsequiv.basis_cov", "presmoothing_residual", "span"),
    ("basis_cov.theta_lipschitz_check", "lsequiv.basis_cov", "theta_lipschitz_check", "span"),
    ("circulant.build_mcheck_basis", "lsequiv.circulant", "build_mcheck_basis", "span"),
    ("circulant.hom_defect", "lsequiv.circulant", "hom_defect", "span"),
    ("gaussianize.ExperimentState.build", "lsequiv.gaussianize", "ExperimentState.build", "span"),
    ("gaussianize.gaussian_summaries", "lsequiv.gaussianize", "gaussian_summaries", "span"),
    ("gaussianize.build_localized_C", "lsequiv.gaussianize", "build_localized_C", "span"),
    ("gaussianize.likelihood_affinity_check", "lsequiv.gaussianize", "likelihood_affinity_check", "span"),
    ("cltcheck.build_char_context", "lsequiv.cltcheck", "build_char_context", "span"),
    ("cltcheck.tv_oracle", "lsequiv.cltcheck", "tv_oracle", "span"),
    ("cltcheck.invert_cf_1d", "lsequiv.cltcheck", "invert_cf_1d", "span"),
    ("cltcheck.RadialProfile", "lsequiv.cltcheck", "RadialProfile.__init__", "span"),
    ("cltcheck.RadialProfile.abs_psi", "lsequiv.cltcheck", "RadialProfile.abs_psi", "count"),
    ("cltcheck.edgeworth_build", "lsequiv.cltcheck", "edgeworth_build", "span"),
    ("whitenoise.pilot_risk_row", "lsequiv.whitenoise", "pilot_risk_row", "span"),
    ("whitenoise.pilot_estimate", "lsequiv.whitenoise", "pilot_estimate", "span"),
    ("whitenoise.gamma_variants", "lsequiv.whitenoise", "gamma_variants", "span"),
    ("whitenoise.goe_connection", "lsequiv.whitenoise", "goe_connection", "span"),
    ("spectral.QuadratureGrid.project", "lsequiv.spectral", "QuadratureGrid.project", "span"),
    ("spectral.QuadratureGrid.inner", "lsequiv.spectral", "QuadratureGrid.inner", "count"),
    ("harness.run_equivalence_chain", "lsequiv.harness", "run_equivalence_chain", "span"),
    ("harness.run_tv_decay", "lsequiv.harness", "run_tv_decay", "span"),
    ("harness.run_verify", "lsequiv.harness", "run_verify", "span"),
    ("harness._stage", "lsequiv.harness", "_stage", "errors"),
    ("report.write", "lsequiv.report", "write_csv_rows", "span"),
    ("report.write", "lsequiv.report", "VerificationReport.to_csv", "span"),
    ("linalg.dense_eig", "numpy.linalg", "eigh", "eig"),
    ("linalg.dense_eig", "numpy.linalg", "eigvalsh", "eig"),
]

# Layers whose peak traced allocation is measured in the tracemalloc pass.
PEAK_LAYERS = (
    "basis_cov.build_basis",
    "circulant.build_mcheck_basis",
    "gaussianize.ExperimentState.build",
    "whitenoise.goe_connection",
)

# Driver spans: their self time is what no wrapped layer accounts for.
DRIVERS = ("harness.run_equivalence_chain", "harness.run_tv_decay", "harness.run_verify")


def _resolve(module_name, path):
    """(owner, attribute) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _bindings(module_name, path):
    """Every (owner, attribute) through which callers reach the target.

    A class attribute has one binding. A module-level function is also bound
    in each ``lsequiv`` module that imported it by name, so each of those is
    patched too.
    """
    owner, attr = _resolve(module_name, path)
    if isinstance(owner, type):
        return [(owner, attr)]
    original = vars(owner)[attr]
    found = [(owner, attr)]
    for name, mod in sorted(sys.modules.items()):
        if mod is owner or not (name == "lsequiv" or name.startswith("lsequiv.")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
    return found


def _matrix_work(a):
    """Computed n^3 work of one dense symmetric eigensolve (per stacked matrix)."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch * shape[-1] ** 3


class Tracer:
    """Wraps the target functions and records spans, counts and peaks.

    ``mode="spans"`` records a span per call; ``mode="memory"`` wraps only
    :data:`PEAK_LAYERS` and records the peak of ``tracemalloc`` above the
    level at entry, with tracing switched on only inside those calls.
    """

    def __init__(self, mode="spans", run_id=None):
        if mode not in ("spans", "memory"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.work = Counter()
        self.errors = Counter()
        self.peaks = {}
        self._stack = []
        self._next_id = 0
        self._mem_stack = []
        self._patches = []

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name, kind):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            self.counts[name] += 1
            if kind == "eig" and args:
                self.work[name] += _matrix_work(args[0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent))

        return wrapper

    def _count_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _error_wrapper(self, fn, name):
        # harness._stage(errors, name, fn) appends to ``errors`` when a stage
        # raises a caught error; count what it appended.
        def wrapper(errors, *args, **kwargs):
            before = len(errors)
            try:
                return fn(errors, *args, **kwargs)
            finally:
                self.errors[name] += len(errors) - before

        return wrapper

    def _peak_wrapper(self, fn, name):
        frames = self._mem_stack

        def wrapper(*args, **kwargs):
            if frames:
                peak_now = tracemalloc.get_traced_memory()[1]
                for frame in frames:
                    frame[1] = max(frame[1], peak_now)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            else:
                tracemalloc.start()
                base = 0
            frame = [base, base]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                frames.pop()
                if frames:
                    for outer in frames:
                        outer[1] = max(outer[1], frame[1])
                else:
                    tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), frame[1] - frame[0])

        return wrapper

    def _wrap(self, fn, name, kind):
        if self.mode == "memory":
            return self._peak_wrapper(fn, name)
        if kind == "count":
            return self._count_wrapper(fn, name)
        if kind == "errors":
            return self._error_wrapper(fn, name)
        return self._span_wrapper(fn, name, kind)

    # -- install / restore ---------------------------------------------

    def install(self):
        """Patch every binding of every target; returns the patch count."""
        for name, module_name, path, kind in TARGETS:
            if self.mode == "memory" and name not in PEAK_LAYERS:
                continue
            bindings = _bindings(module_name, path)
            owner, attr = bindings[0]
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, kind))
            else:
                wrapped = self._wrap(raw, name, kind)
            for bound_owner, bound_attr in bindings:
                original = vars(bound_owner)[bound_attr]
                self._patches.append((bound_owner, bound_attr, original))
                setattr(bound_owner, bound_attr, wrapped)
        return len(self._patches)

    def restore(self):
        """Put every original back; returns the bindings that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches = []
        return bad

    def snapshot(self):
        """JSON-ready record of what was traced."""
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "work": dict(self.work),
            "errors": dict(self.errors),
            "peaks": self.peaks,
        }


# ---------------------------------------------------------------------------
# analysis (pure)


def _union_length(intervals):
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover."""
    children = {}
    for sid, _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        covered = _union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out[sid] = (end - start) - covered
    return out


def inclusive_times(spans):
    """Map name -> summed duration of the outermost spans of that name.

    A span nested inside another span of the same name is not counted again.
    """
    by_id = {s[0]: s for s in spans}
    totals = Counter()
    for sid, name, start, end, parent in spans:
        p = parent
        nested = False
        while p is not None:
            ancestor = by_id[p]
            if ancestor[1] == name:
                nested = True
                break
            p = ancestor[4]
        if not nested:
            totals[name] += end - start
    return totals


def self_time_by_name(spans):
    per_span = self_times(spans)
    totals = Counter()
    for sid, name, *_ in spans:
        totals[name] += per_span[sid]
    return totals


def coverage(spans, wall_s):
    """Share of ``wall_s`` inside spans of wrapped layers (drivers excluded)."""
    if wall_s <= 0:
        return 0.0
    inner = [(start, end) for _sid, name, start, end, _p in spans if name not in DRIVERS]
    return _union_length(inner) / wall_s
