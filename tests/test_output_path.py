"""One output path: report.py writes every text file the command line makes.

report.py owns the file format: RFC-4180 CSV with cells at 17 significant
digits and CRLF after every line, and sorted two-space JSON with a final
newline.  The scan fails when a module of src/lsequiv other than report.py
calls json.dump or json.dumps, opens a file in a text write mode, or holds a
"\\r\\n" literal.  Read-mode and binary ("wb") opens are allowed: the binary
basis export is not a text format.  tests/test_report.py pins the bytes of
the format.

Run as a script to print every offender:

    python tests/test_output_path.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lsequiv"

JSON_WRITERS = {"dump", "dumps"}


def _open_mode(call):
    """The mode string of a builtin open or io.open call, "r" when absent,
    None when it is not a string literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    node = given[0]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _is_open(func):
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr == "open" and getattr(func.value, "id", None) == "io"


def writes(tree):
    """[(line, what)] of the module's JSON writers, text write opens and
    CRLF literals."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS and getattr(node.value, "id", None) == "json":
            found.append((node.lineno, f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, f"json.{a.name}") for a in node.names if a.name in JSON_WRITERS]
        elif isinstance(node, ast.Call) and _is_open(node.func):
            mode = _open_mode(node)
            if mode is None or ("b" not in mode and any(ch in mode for ch in "wax+")):
                found.append((node.lineno, f"open mode {mode!r}"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "\r\n" in node.value:
            found.append((node.lineno, "CRLF literal"))
    return found


def offenders():
    """[(module, line, what)] of every write outside report.py."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "report.py":
            found += [(path.name, line, what) for line, what in writes(ast.parse(path.read_text()))]
    return sorted(found)


def test_report_writes_every_text_file():
    found = offenders()
    assert found == [], "written outside report.py: " + ", ".join(
        f"{module}:{line} {what}" for module, line, what in found
    )


if __name__ == "__main__":
    for module, line, what in offenders():
        print(f"{module}:{line}: {what}")
