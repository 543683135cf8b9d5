"""One characteristic-function interface.

A CharFnContext is the one place that knows the pencil's spectrum; its
consumers read K, n, mu, mu_tail, log_psi(t, radius) and trace_powers(Q)
only.  The scan fails on any read in src/lsequiv of the context's spectral
data (PRIVATE: the joint spectrum, its symbol, Gamma^{-1/2}, the phase
vector and the exact spectrum) outside CharFnContext's methods and the
span provider (PROVIDER), and on any attribute named lam, wherever it is
read or written: the standardized spectrum is not an attribute of
anything.  Reads are matched by attribute name.

Run as a script to print every offender:

    python tests/test_charfn_interface.py
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsequiv"

PRIVATE = {"joint", "symbol", "gamma_inv_sqrt", "shift", "_exact"}
PROVIDER = {"span_char_context", "_symbol_order", "_joint_symbol"}


def _scoped(node, scope=None, prefix=""):
    """(node, qualified name of its outermost enclosing function or None)."""
    for child in ast.iter_child_nodes(node):
        if scope is None and isinstance(child, ast.ClassDef):
            yield child, None
            yield from _scoped(child, None, prefix + child.name + ".")
        elif scope is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, prefix + child.name
            yield from _scoped(child, prefix + child.name, prefix)
        else:
            yield child, scope
            yield from _scoped(child, scope, prefix)


def _inside(module, scope):
    return module == "cltcheck.py" and scope is not None and (
        scope.startswith("CharFnContext.") or scope in PROVIDER
    )


def offenders_in(module, source):
    """[(line, what)] of the spectrum reads and lam attributes of one module."""
    found = []
    for node, scope in _scoped(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "lam":
            found.append((node.lineno, f".lam in {scope}"))
        elif node.attr in PRIVATE and isinstance(node.ctx, ast.Load) and not _inside(module, scope):
            found.append((node.lineno, f".{node.attr} in {scope}"))
    return found


def offenders():
    """[(module, line, what)] over src/lsequiv."""
    return sorted(
        (path.name, line, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in offenders_in(path.name, path.read_text())
    )


def test_consumers_read_only_the_interface():
    found = offenders()
    assert found == [], "spectrum reads outside CharFnContext and the span provider: " + ", ".join(
        f"{module}:{line} {what}" for module, line, what in found
    )


def test_scan_finds_spectrum_reads():
    source = """
class CharFnContext:
    def log_psi(self, t):
        return self._exact, self.shift, self.joint

    def build(self):
        self.lam = None

def span_char_context(ctx):
    return ctx.joint, ctx.symbol, ctx._exact

def moment_diagnostics(ctx):
    return ctx.lam

class RadialProfile:
    def __init__(self, ctx):
        self.eigs = ctx.gamma_inv_sqrt @ ctx.joint

SPECTRUM = CTX._exact
"""
    found = offenders_in("cltcheck.py", source)
    assert [line for line, _ in found] == [7, 13, 17, 17, 19]
    assert found[2][1] == ".gamma_inv_sqrt in RadialProfile.__init__"
    # the same names are reads from a consumer in any other module
    assert [line for line, _ in offenders_in("harness.py", source)] == [4, 4, 4, 7, 10, 10, 10, 13, 17, 17, 19]


if __name__ == "__main__":
    for module, line, what in offenders():
        print(f"{module}:{line}: {what}")
