"""One measured CLI invocation, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/child.py RESULT_JSON MODE [CLI ARGS...]`` with
MODE one of ``setup`` (import and build the default grid, then stop),
``plain``, ``spans`` or ``memory`` (see ``tracer.Tracer``). The parent sets the
BLAS thread variables and ``PYTHONPATH`` before spawning this process.
The result file holds the ready time on the system-wide monotonic clock, so
the parent can subtract its spawn time.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time


def _openblas_threads():
    """Thread count numpy's OpenBLAS actually uses, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    if not paths:
        return None
    fn = ctypes.CDLL(paths[0]).scipy_openblas_get_num_threads64_
    fn.restype = ctypes.c_int
    return int(fn())


def main(argv):
    result_path, mode, cli_args = argv[0], argv[1], argv[2:]
    import lsequiv.cli as cli
    from lsequiv.spectral import default_grid

    default_grid()
    ready = time.monotonic()
    record = {"ready_monotonic": ready, "mode": mode}
    if mode != "setup":
        tracer = None
        if mode in ("spans", "memory"):
            import tracer as tracing

            run_id = os.path.splitext(os.path.basename(result_path))[0]
            tracer = tracing.Tracer(mode, run_id)
            record["patched"] = tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(cli_args)
        except Exception as exc:  # the gate counts this run's operations as failed
            code = None
            record["crash"] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            record["unrestored"] = tracer.restore()
            record.update(tracer.snapshot())
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            {
                "exit_code": code,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "blas_threads_effective": _openblas_threads(),
            }
        )
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
