"""No option with one value in use.

Every parameter with a default in src/lsequiv, and every dataclass field
with a default (a parameter of the generated __init__), must be passed by
some call in src/, by keyword or by position.  A default that no call in the
program overrides is a value only one configuration uses: it belongs in the
code as a constant.  Calls in tests/ and demos/ do not count, so a knob or a
mode that only a test selects fails the scan too.  Calls are matched by name
(the function's name, or the class name for __init__ and dataclass fields);
a call that unpacks *args or **kwargs passes nothing this scan can see.

Run as a script to print, for each defaulted parameter, the calls in src/
that pass it with the values they pass, and how many calls of that name rely
on the default (neither pass it nor unpack arguments).  A default no call
relies on is taken only by tests; a value default such as what= or stream=
may stay so, a default that selects a mode should go:

    python tests/test_options.py
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsequiv"
CALLERS = ("src",)

_FROM_OUTSIDE = (
    "a run setting: it arrives from a JSON run configuration (RunConfig.from_json "
    "unpacks it as **payload) or from a CLI flag through dataclasses.replace"
)

# (module, function, parameter) whose default stays although no call in src/
# passes it, each with the reason.
ALLOWED = {
    **{
        ("harness.py", "RunConfig", field): _FROM_OUTSIDE
        for field in ("n_grid", "seed", "k1", "k2", "s", "L", "rho_star")
        + ("density_mean", "density_amplitude", "replicates")
    },
    ("cli.py", "main", "argv"): (
        "the console entry point: argv=None makes argparse read sys.argv, and "
        "tests pass an argument list"
    ),
}


def _is_dataclass(node):
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value):
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)
    )


def _dataclass_params(cls):
    fields = [
        s
        for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name) and not _init_false(s.value)
    ]
    return [(cls.name, f.target.id, pos) for pos, f in enumerate(fields) if f.value is not None]


def _function_params(fn, owner):
    """(call name, parameter, position in a call) for each defaulted parameter;
    a method's position skips self or cls, a keyword-only one has none."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if owner and positional and positional[0].arg in ("self", "cls") else 0
    name = owner if fn.name == "__init__" else fn.name
    first = len(positional) - len(args.defaults)
    out = [(name, a.arg, pos - skip) for pos, a in enumerate(positional) if pos >= first]
    out += [(name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def defaulted_parameters():
    """{(module, function, parameter): (call name, position)} over src/lsequiv."""
    found = {}

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for name, param, pos in _dataclass_params(child):
                        found[(module, name, param)] = (name, pos)
                visit(child, module, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name, param, pos in _function_params(child, owner):
                    qual = f"{owner}.{child.name}" if owner and child.name != "__init__" else name
                    found[(module, qual, param)] = (name, pos)
                visit(child, module, None)
            else:
                visit(child, module, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def calls_by_name():
    """{called name: [(path, call node)]} over every call in the caller trees."""
    calls = {}
    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append((path.relative_to(ROOT), node))
    return calls


def _passed_value(node, param, pos):
    """The expression a call node passes for param, or None."""
    value = next((k.value for k in node.keywords if k.arg == param), None)
    starred = any(isinstance(a, ast.Starred) for a in node.args)
    if value is None and pos is not None and pos < len(node.args) and not starred:
        value = node.args[pos]
    return value


def passing_calls(call_name, param, pos, calls):
    """[(path, line, value source)] of the calls that pass param."""
    out = []
    for path, node in calls.get(call_name, []):
        value = _passed_value(node, param, pos)
        if value is not None:
            out.append((path, node.lineno, ast.unparse(value)))
    return out


def relying_calls(call_name, param, pos, calls):
    """How many calls of call_name take param's default: they neither pass it
    nor unpack *args or **kwargs."""
    return sum(
        1
        for _, node in calls.get(call_name, [])
        if _passed_value(node, param, pos) is None
        and not any(isinstance(a, ast.Starred) for a in node.args)
        and all(k.arg is not None for k in node.keywords)
    )


def scan():
    calls = calls_by_name()
    return {
        key: passing_calls(name, key[2], pos, calls)
        for key, (name, pos) in sorted(defaulted_parameters().items())
    }


def test_every_defaulted_parameter_is_passed_somewhere():
    report = scan()
    assert len(report) > 30  # the scan found the package's parameters
    unpassed = sorted(key for key, hits in report.items() if not hits and key not in ALLOWED)
    assert unpassed == [], "defaults no call overrides; make them constants: " + ", ".join(
        f"{module}:{fn}({param})" for module, fn, param in unpassed
    )


def test_allowlist_names_existing_parameters():
    assert set(ALLOWED) <= set(scan())
    assert all(reason for reason in ALLOWED.values())


if __name__ == "__main__":
    calls = calls_by_name()
    for (module, fn, param), (name, pos) in sorted(defaulted_parameters().items()):
        hits = passing_calls(name, param, pos, calls)
        values = sorted({value for _, _, value in hits})
        mark = " (allowed)" if (module, fn, param) in ALLOWED else ""
        print(
            f"{module} {fn}({param}){mark}: {len(hits)} calls pass it: {', '.join(values)}; "
            f"{relying_calls(name, param, pos, calls)} rely on the default"
        )
