"""Signed storage is private to _linalg.

Every _linalg kernel that another module calls takes and returns symmetric
matrices in lower band storage or as wrapped diagonals; signed storage, the
working layout of band products, stays inside _linalg.  The scan fails when
a module of src/lsequiv other than _linalg names a signed-storage helper,
imported or read as an attribute.  The one exception is signed_band in
basis_cov, whose BasisSystem.trace_gram indexes that layout in its windowed
sums.

Run as a script to print every offending name:

    python tests/test_storage.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lsequiv"

# signed_frob and _lower_product are gone (lower_frob and _diagonal_products
# replace them); the scan keeps their names out too
SIGNED_HELPERS = {
    "_diagonal_products",
    "_mirrored",
    "band_product",
    "band_transpose",
    "signed_frob",
    "signed_to_dense",
    "dense_signed",
    "_lower_product",
}


def signed_storage_names():
    """[(module, line, name)] of signed-storage helpers named outside _linalg."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [
                (path.name, node.lineno, name)
                for name in names
                if name in SIGNED_HELPERS or (name == "signed_band" and path.name != "basis_cov.py")
            ]
    return found


def test_signed_storage_stays_in_linalg():
    found = signed_storage_names()
    assert found == [], "signed storage outside _linalg: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in found
    )


if __name__ == "__main__":
    for module, line, name in signed_storage_names():
        print(f"{module}:{line}: {name}")
