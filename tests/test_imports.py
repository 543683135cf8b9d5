"""No unused import and no stale export.

Every name that a module in src/lsequiv imports must be read in that module
or listed in its __all__, so that deleting the code that used an import
deletes the import too.  __future__ imports bind no name the module reads
and are skipped.  Every entry of a module's __all__ must be a name the
module defines or imports at its top level, so that deleting a function
deletes its export too.

Run as a script to print the unused imports and stale exports:

    python tests/test_imports.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lsequiv"

# (module, name) imported and not read, each with the reason.
ALLOWED = {
    # argparse's gettext imports locale when the first parser is built
    ("cli.py", "locale"),
}


def imported_names(tree):
    """{bound name: line} of the module's imports; import a.b binds a."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree):
    """The string entries of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def top_level_names(tree):
    """Names the module's top level binds by def, class or assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


def stale_exports():
    """[(module, name)] of __all__ entries the module neither defines nor imports."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = top_level_names(tree) | set(imported_names(tree))
        found += [(path.name, name) for name in sorted(exported_names(tree) - bound)]
    return found


def unused_imports():
    """[(module, name, line)] of imported names neither read nor exported."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # a read of a or of a.b.c is a Load of the Name a
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        used |= exported_names(tree)
        found += [(path.name, name, line) for name, line in imported_names(tree).items() if name not in used]
    return found


def test_every_import_is_used():
    unused = [entry for entry in unused_imports() if entry[:2] not in ALLOWED]
    assert unused == [], "unused imports: " + ", ".join(f"{m}:{line} {name}" for m, name, line in unused)


def test_allowlist_names_unused_imports():
    assert ALLOWED <= {entry[:2] for entry in unused_imports()}


def test_every_export_is_bound():
    stale = stale_exports()
    assert stale == [], "stale exports: " + ", ".join(f"{m} {name}" for m, name in stale)


if __name__ == "__main__":
    for module, name, line in unused_imports():
        print(f"{module}:{line}: {name}")
    for module, name in stale_exports():
        print(f"{module}: __all__ names {name}, which it does not bind")
