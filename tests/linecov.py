"""Statement coverage of ``src/towerdecomp`` as a pytest plugin.

Run it over the whole suite, outside the Tier-1 command::

    PYTHONPATH=src:tests python -m pytest -q -p linecov

A ``sys.settrace`` line tracer records every line that runs in the package.
At the end of the session the plugin lists each statement that never ran:
every statement of a function body, and every statement nested in a
module-level compound statement (the ``__main__`` guard).  Statements that
run once at import are not counted.  Docstrings and ``nonlocal``/``global``
declarations compile to no instruction, so they are skipped.  A statement
counts as run when a line event falls on its own lines: the whole of a
simple statement, or the header of a compound one.

The session fails when a statement that never ran is missing from
``ALLOWED`` below, or when an entry of ``ALLOWED`` has started to run.  Each
entry is keyed by module, function and the statement's first line of text,
not by line number, and gives its reason.  Code run in a child process is
not seen.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "towerdecomp"

# (module, function, statement text) -> why no test runs it
ALLOWED = {
    ("cli", "<module>", "sys.exit(main())"): (
        "the entry of python -m towerdecomp.cli, which test_cli runs in a "
        "child process; every other test calls main() in process"
    ),
}

_hits = {}


def _tracer_for(lines):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


_locals = {str(path): _tracer_for(_hits.setdefault(str(path), set())) for path in SRC.glob("*.py")}


def _global(frame, event, arg):
    return _locals.get(frame.f_code.co_filename)


# Installed at import: ``-p linecov`` loads the plugin before any conftest
# imports the package, so the ``__main__`` guard's body is traced as well.
sys.settrace(_global)
threading.settrace(_global)


def _own_lines(node):
    """The lines whose events mean that ``node`` itself ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _counted(node):
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return False
    return not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))


def _statements(tree):
    """Yield (function qualname, statement) for each counted statement."""

    def walk(body, scope, counted):
        for node in body:
            if counted and _counted(node):
                yield scope, node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name if scope == "<module>" else f"{scope}.{node.name}"
                yield from walk(node.body, name, True)
                continue
            if isinstance(node, ast.ClassDef):
                name = node.name if scope == "<module>" else f"{scope}.{node.name}"
                yield from walk(node.body, name, counted)
                continue
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []), scope, True)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, scope, True)
            for case in getattr(node, "cases", []):
                yield from walk(case.body, scope, True)

    yield from walk(tree.body, "<module>", False)


def unexecuted():
    """Map (module, function, text) -> line numbers of statements never run."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = _hits[str(path)]
        for scope, node in _statements(ast.parse(source)):
            if not ran.intersection(_own_lines(node)):
                key = (path.stem, scope, lines[node.lineno - 1].strip())
                out.setdefault(key, []).append(node.lineno)
    return out


_report = []


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missed = unexecuted()
    new = {key: lines for key, lines in missed.items() if key not in ALLOWED}
    stale = [key for key in ALLOWED if key not in missed]
    _report.append(f"linecov: {sum(map(len, missed.values()))} statements never ran")
    for (module, scope, text), lines in sorted(new.items()):
        where = ", ".join(map(str, lines))
        _report.append(f"  not run, not allowed: {module}.py:{where} {scope}: {text}")
    for module, scope, text in stale:
        _report.append(f"  allowed but now run: {module} {scope}: {text}")
    if new or stale:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)
