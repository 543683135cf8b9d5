"""No field that nothing reads.

Every dataclass field, property and cached_property of a class in
src/lsequiv must be read as an attribute (x.name, or getattr(x, "name")) by
some expression in src/.  A value that the program computes and stores but
no code reads is work for nothing: it goes, with the code that computes it.
Reads in tests/ and demos/ do not count, so a field that only a test reads
fails the scan too.  Reads are matched by name only: a field whose name
another class's attribute shares counts as read, so the scan misses it.

Run as a script to print each field with the number of reads in src/:

    python tests/test_fields.py
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsequiv"
READERS = ("src",)

# "module.py:Class.field" that no src/ expression reads, each with the reason.
ALLOWED = {}


def _decorator_names(node):
    names = set()
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        names.add(getattr(target, "id", getattr(target, "attr", None)))
    return names


def fields():
    """{"module.py:Class.name": line} of every dataclass field, property and
    cached_property in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            is_dataclass = "dataclass" in _decorator_names(cls)
            for stmt in cls.body:
                if is_dataclass and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                elif isinstance(stmt, ast.FunctionDef) and _decorator_names(stmt) & {"property", "cached_property"}:
                    name = stmt.name
                else:
                    continue
                out[f"{path.name}:{cls.name}.{name}"] = stmt.lineno
    return out


def reads():
    """{attribute name: number of reads} over the reader trees."""
    count = {}
    for tree in READERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    name = node.args[1].value
                else:
                    continue
                count[name] = count.get(name, 0) + 1
    return count


def _name(key):
    return key.rsplit(".", 1)[1]


def test_every_field_is_read():
    found, count = fields(), reads()
    assert len(found) > 60  # the scan found the package's classes
    unread = sorted(key for key in found if not count.get(_name(key)) and key not in ALLOWED)
    assert unread == [], "fields no src/ expression reads: " + ", ".join(unread)


def test_allowlist_names_existing_unread_fields():
    found, count = fields(), reads()
    assert sorted(set(ALLOWED) - set(found)) == []
    assert sorted(key for key in ALLOWED if count.get(_name(key))) == []
    assert all(reason for reason in ALLOWED.values())


if __name__ == "__main__":
    count = reads()
    for key in sorted(fields()):
        mark = " (allowed)" if key in ALLOWED else ""
        print(f"{key}{mark}: {count.get(_name(key), 0)} reads in src/")
