"""Every function in src/lsequiv is entered by some command line run.

One subprocess starts sys.settrace before it imports lsequiv and then runs
each of the six subcommands through cli.main, the way a user does: verify
at n = 256 (CSV and JSON) and at n = 64 with --timings, chain with the
default, the tv-k2 and an ill-conditioned configuration (ILL_CONDITIONED of
test_banded.py, whose C takes the exact-inverse fallback of band_function),
tvdecay at K = 1 and K = 2, riskstudy (JSON), conditions and export-basis
in both formats.  The tracer records the code object of every call into src/, and
a function (def, method or nested def) that no run enters fails the test
unless ALLOWED names it with its reason.  An ALLOWED entry that a run enters
or that no longer exists fails too, so the list shrinks with the code.

Run as a script to print every unentered function with its line count:

    python tests/test_reachability.py
"""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from test_banded import ILL_CONDITIONED

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsequiv"

TRACER_REASON = "perfbench tracer target"
SYMBOLS = "driver arrives with ROADMAP item 4 (the moving-average symbol family)"
SAMPLER = "driver arrives with ROADMAP item 7 (sample_experiment)"

# "module.py:qualname" of a function no run enters, each with its reason
ALLOWED = {
    "cltcheck.py:build_char_context": TRACER_REASON,
    "spectral.py:QuadratureGrid.inner": TRACER_REASON,
    "basis_cov.py:build_vartheta": SYMBOLS,
    "spectral.py:TransferFunction.__post_init__": SYMBOLS,
    "spectral.py:TransferFunction.components": SYMBOLS,
    "spectral.py:TransferFunction.eval": SYMBOLS,
    "spectral.py:TransferFunction.to_spectral_density": SYMBOLS,
    "spectral.py:random_transfer": SYMBOLS,
    "spectral.py:table_eval": SYMBOLS,
    "spectral.py:table_profiles": SYMBOLS,
    "gaussianize.py:sample_experiment": SAMPLER,
    "gaussianize.py:_gaussian_vector": SAMPLER,
    "gaussianize.py:ExperimentState.gamma_tilde": SAMPLER,
    "_linalg.py:sym_abs": "reference for test_goe_connection_matches_dense_stacks",
    "_linalg.py:sym_inv_sqrt": "reference for test_goe_connection_matches_dense_stacks",
    "basis_cov.py:BasisSystem.spectral_norms": "reference for test_neumann_residual_below_series_bound",
    "basis_cov.py:abstract_rho": "reference for test_criterion_08_pilot_risk",
    "circulant.py:CirculantElement.to_matrix": "reference for test_element_product_matches_dense",
    "circulant.py:FourierFunction.eval": "reference for test_function_product_is_pointwise",
    "cltcheck.py:EdgeworthExpansion.coefficient_bound": "reference for test_criterion_06_expansion_coefficients_and_remainder",
    "gaussianize.py:neumann_residual": "reference for test_neumann_residual_below_series_bound",
    "gaussianize.py:neumann_residual_bound": "reference for test_neumann_residual_below_series_bound",
    "gaussianize.py:pilot_risk_bound": "reference for test_criterion_08_pilot_risk",
    "harness.py:RunConfig.to_json": "reference for test_run_config_defaults_and_roundtrip",
    "spectral.py:SpectralDensity.mean_level": "reference for test_config_density_deterministic_and_in_span",
    "spectral.py:basis_eval": "reference for test_grid_factors_match_basis_eval",
}

# argv of each cli.main call; {out} is a fresh directory, {tvk2} and {ill}
# the two configuration files
RUNS = [
    ["verify", "--n", "256", "--out", "{out}"],
    ["verify", "--n", "256", "--out", "{out}", "--format", "json"],
    ["verify", "--n", "64", "--out", "{out}", "--timings"],
    ["chain", "--out", "{out}"],
    ["chain", "--config", "{tvk2}", "--out", "{out}"],
    ["chain", "--config", "{ill}", "--n", "64", "--out", "{out}"],
    ["tvdecay", "--out", "{out}"],
    ["tvdecay", "--config", "{tvk2}", "--out", "{out}"],
    ["riskstudy", "--out", "{out}", "--format", "json"],
    ["conditions"],
    ["export-basis", "--out", "{out}"],
    ["export-basis", "--out", "{out}", "--format", "binary"],
]

# the child: trace calls into the package, run every argv, print the
# (file, first line) of each entered code object as JSON
CHILD = """
import contextlib, io, json, sys
package, runs = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((code.co_filename, code.co_firstlineno))

sys.settrace(tracer)
import lsequiv.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        lsequiv.cli.main(argv)
sys.settrace(None)
print(json.dumps(sorted(entered)))
"""


def functions():
    """{"module.py:qualname": (path, first line, line count)} of every def in
    the package; a decorated def starts at its first decorator, as its code
    object does."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[f"{path.name}:{qual}"] = (str(path), first, child.end_lineno - first + 1)
                visit(child, path, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def entered_functions():
    """The (path, first line) of every package function the runs enter."""
    tvk2 = ROOT / "perfbench" / "configs" / "tv-k2.json"
    with tempfile.TemporaryDirectory() as tmp:
        ill = os.path.join(tmp, "ill.json")
        with open(ill, "w") as fh:
            json.dump(ILL_CONDITIONED, fh)
        out = os.path.join(tmp, "out")
        runs = [[a.format(out=out, tvk2=tvk2, ill=ill) for a in argv] for argv in RUNS]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(PACKAGE), json.dumps(runs)],
            env=env, cwd=tmp, capture_output=True, text=True, timeout=300,
        )
    assert proc.returncode == 0, proc.stderr
    return {tuple(entry) for entry in json.loads(proc.stdout)}


def unentered():
    """{"module.py:qualname": line count} of the functions no run enters."""
    entered = entered_functions()
    return {name: lines for name, (path, first, lines) in functions().items() if (path, first) not in entered}


def tracer_targets():
    """"module.py:qualname" of each package function perfbench/tracer.py
    wraps, its TARGETS loaded as the benchmark loads them."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {
        f"{module.split('.')[-1]}.py:{attr}"
        for _, module, attr, _ in tracer.TARGETS
        if module.startswith("lsequiv.")
    }


def modules_of_tests():
    """{test function name: source of the module that defines it} under tests/."""
    out = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                out[node.name] = text
    return out


def test_every_function_is_entered_or_allowed():
    missing = unentered()
    stray = sorted(set(missing) - set(ALLOWED))
    assert stray == [], "no run enters: " + ", ".join(f"{name} ({missing[name]} lines)" for name in stray)
    # the allow-list only names functions that exist and that no run enters
    assert sorted(set(ALLOWED) - set(missing)) == []
    # each reason holds: a tracer target is in TARGETS, and a reference is
    # read in the module of the test it names
    targets, modules = tracer_targets(), modules_of_tests()
    assert [name for name, why in ALLOWED.items() if why == TRACER_REASON and name not in targets] == []
    for name, why in ALLOWED.items():
        if why.startswith("reference for "):
            test = why.removeprefix("reference for ")
            assert name.split(":")[1].split(".")[-1] in modules.get(test, ""), (name, test)


if __name__ == "__main__":
    missing = unentered()
    for name, lines in sorted(missing.items(), key=lambda item: (-item[1], item[0])):
        note = f"  [{ALLOWED[name]}]" if name in ALLOWED else ""
        print(f"{lines:4d}  {name}{note}")
    print(f"{len(missing)} unentered functions, {sum(missing.values())} lines")
