"""No unused import.

Every name that a module in src/lsequiv imports must be read in that module
or listed in its __all__, so that deleting the code that used an import
deletes the import too.  __future__ imports bind no name the module reads
and are skipped.

Run as a script to print the unused imports:

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


if __name__ == "__main__":
    for module, name, line in unused_imports():
        print(f"{module}:{line}: {name}")
