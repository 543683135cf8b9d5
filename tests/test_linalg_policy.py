"""One factorization policy, behind _linalg; no private name across modules.

Every dense factorization, eigendecomposition and solve of src/lsequiv goes
through _linalg, whose guarded eigendecomposition and Cholesky factor raise
typed errors on a (near-)singular input.  The scan fails when a module other
than _linalg reads a numpy.linalg name other than norm (a call, or the
function passed as a value), or imports from numpy.linalg.

It also fails when a module imports a _-prefixed name from another module
of the package, or reads as an attribute a _-prefixed name that it does not
define itself and another module of the package does: such a name is that
module's own, and a caller that needs it needs a public name.

Run as a script to print every offending name:

    python tests/test_linalg_policy.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lsequiv"

# numpy.linalg names a module other than _linalg may read
LINALG_ALLOWED = {"norm"}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def defined_names(tree):
    """Names the module binds: functions, classes, methods, assigned names
    and attributes (self._x = ...)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def numpy_linalg_names(tree):
    """[(line, name)] of the numpy.linalg names the module reads or imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            owner = node.value
            if owner.attr == "linalg" and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy"):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, "linalg") for alias in node.names if alias.name == "linalg"]
    return [(line, name) for line, name in found if name not in LINALG_ALLOWED]


def offenders():
    """[(module, line, name, why)] of every name the scan refuses."""
    trees = _trees()
    defined = {module: defined_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        if module != "_linalg.py":
            found += [(module, line, name, "numpy.linalg") for line, name in numpy_linalg_names(tree)]
        elsewhere = set().union(*(names for other, names in defined.items() if other != module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    (module, node.lineno, alias.name, "private import")
                    for alias in node.names
                    if _private(alias.name)
                ]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                if node.attr not in defined[module] and node.attr in elsewhere:
                    found.append((module, node.lineno, node.attr, "private attribute"))
    return sorted(found)


def test_linalg_policy_and_private_names():
    found = offenders()
    assert found == [], "outside the policy: " + ", ".join(
        f"{module}:{line} {name} ({why})" for module, line, name, why in found
    )


if __name__ == "__main__":
    for module, line, name, why in offenders():
        print(f"{module}:{line}: {name} ({why})")
