"""One clock and one stage rule for the drivers.

harness._stopwatch is the package's one clock: the scan fails on
time.perf_counter (read as an attribute or imported from time) anywhere
else in src/lsequiv.  harness._stage is the one place where a typed error
becomes a recorded stage error, and cli.main the one place where it becomes
an exit code: the scan fails on an except clause elsewhere that catches
TypedError or a subclass of it from errors.py, by name or through a
module-level tuple of names, unless the clause only re-raises (a bare
raise).  The benchmark's tracer wraps harness._stage and counts the errors
it appends; the last test runs that count on a chain row.

Run as a script to print every offender:

    python tests/test_stages.py
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsequiv"

CLOCK = {("harness.py", "_stopwatch")}
CATCHERS = {("harness.py", "_stage"), ("cli.py", "main")}


def typed_errors():
    """TypedError and the names of its subclasses in errors.py."""
    names = {"TypedError"}
    for node in ast.parse((PACKAGE / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in names for b in node.bases):
            names.add(node.name)
    return names


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


def _names(node, aliases):
    """The exception names an except clause's type expression reads."""
    if isinstance(node, ast.Name):
        return {node.id} | aliases.get(node.id, set())
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e, aliases) for e in node.elts))
    return set()


def _reads_clock(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "perf_counter" and getattr(node.value, "id", None) == "time"
    if isinstance(node, ast.ImportFrom) and node.module == "time":
        return any(a.name == "perf_counter" for a in node.names)
    return False


def offenders_in(module, source, typed):
    """[(line, what)] of the clock reads and typed catches of one module."""
    tree = ast.parse(source)
    aliases = {
        t.id: _names(node.value, {})
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    found = []
    for node, scope in _scoped(tree):
        if _reads_clock(node) and (module, scope) not in CLOCK:
            found.append((node.lineno, f"time.perf_counter in {scope}"))
        elif isinstance(node, ast.ExceptHandler) and (module, scope) not in CATCHERS:
            caught = sorted(_names(node.type, aliases) & typed)
            reraise = len(node.body) == 1 and isinstance(node.body[0], ast.Raise) and node.body[0].exc is None
            if caught and not reraise:
                found.append((node.lineno, f"except {', '.join(caught)} in {scope}"))
    return found


def offenders():
    """[(module, line, what)] over src/lsequiv."""
    typed = typed_errors()
    return sorted(
        (path.name, line, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in offenders_in(path.name, path.read_text(), typed)
    )


def test_one_clock_and_one_stage_rule():
    found = offenders()
    assert found == [], "outside harness._stopwatch, harness._stage and cli.main: " + ", ".join(
        f"{module}:{line} {what}" for module, line, what in found
    )


def test_scan_finds_timers_and_catches():
    source = """
import time
from time import perf_counter
CAUGHT = (RangeError,)

def _timed():
    started = time.perf_counter()

def run():
    try:
        pass
    except CAUGHT:
        pass
    except (OSError, ConfigurationError) as exc:
        print(exc)
    except TypedError:
        raise
    except ValueError:
        pass

class Config:
    def load(self):
        try:
            pass
        except errors.LocalizationError:
            return None
"""
    found = offenders_in("harness.py", source, typed_errors())
    assert [line for line, _ in found] == [3, 7, 12, 14, 25]
    assert found[-1][1] == "except LocalizationError in Config.load"
    assert offenders_in("harness.py", "def _stopwatch():\n    return time.perf_counter\n", set()) == []


def test_tracer_counts_the_error_a_chain_stage_records():
    # loaded as the benchmark loads it; its wrapper of harness._stage counts
    # what the stage rule appends
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import lsequiv.cli  # noqa: F401  (the drivers' modules, as a traced run loads them)
    from lsequiv import harness

    t = tracer.Tracer()
    assert t.install() > 0
    try:
        _, rows = harness.run_equivalence_chain(harness.RunConfig(n_grid=(8,), k1=0, k2=1, replicates=5))
    finally:
        assert t.restore() == []
    assert rows[0][-1] == "tv:RangeError"
    assert t.errors["harness._stage"] == 1


if __name__ == "__main__":
    for module, line, what in offenders():
        print(f"{module}:{line}: {what}")
