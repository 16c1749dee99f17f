"""A pytest plugin that lists the statements of ``src/cnadapt`` no test reaches.

Run it from the repository root, over the whole suite or any part of it::

    PYTHONPATH=src python -m pytest -q -p tests.statement_trace

It traces the run with ``sys.settrace`` (no ``coverage`` package is
needed) and, after the summary, prints two lists of statements, one
``path:line`` and the statement's first line each:

* the statements no in-process test reached;
* of those, the ones a child Python process reached: the CLI tests that
  start ``python`` themselves.  Children are traced through a
  ``sitecustomize`` module that this plugin puts first on their
  PYTHONPATH; each writes what it reached when it exits.  A process pool
  worker ends without running its exit hooks, so what only a worker
  reaches is in neither list's complement.

A statement is an ``ast`` statement; docstrings, ``global`` statements
and ``try`` headers, which compile to no code of their own, are skipped.
A statement counts as reached when any line of its own is: every line of
a simple statement, and the header lines of a compound one.  Tracing
stops before the interpreter shuts down: at the end of the session, and
at exit in a child.  The module name matches no ``test_*.py`` pattern, so
pytest does not collect it.
"""

import ast
import atexit
import glob
import os
import shutil
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "cnadapt")
_CHILD = """\
import importlib.util
spec = importlib.util.spec_from_file_location("statement_trace", {path!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_child({out!r})
"""

_reached = set()
_state = {}


def _local(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _call(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(SRC + os.sep) else None


def _stop():
    sys.settrace(None)


def trace_child(out):
    """Trace this process and write what it reached to a file in ``out``
    when it exits."""
    def dump():
        _stop()
        with open(os.path.join(out, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{path}\t{line}\n" for path, line in _reached)

    atexit.register(dump)
    sys.settrace(_call)


def statements(path):
    """{line: (first line, last line)} of each statement of the file
    ``path`` the trace can see, keyed by its first line."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = {}

    def visit(body):
        for i, node in enumerate(body):
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            inner = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
            inner += [h.body for h in getattr(node, "handlers", [])]
            inner = [b for b in inner if b]
            if not isinstance(node, ast.Try):
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                last = inner[0][0].lineno - 1 if inner else node.end_lineno
                found[node.lineno] = first, last
            for b in inner:
                visit(b)

    visit(tree.body)
    return found


def missed(reached):
    """(path, line, text) of each statement of ``src/cnadapt`` with no
    line in ``reached``, a set of (path, line)."""
    out = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line, (first, last) in sorted(statements(path).items()):
            if not any((path, n) in reached for n in range(first, last + 1)):
                out.append((path, line, text[line - 1].strip()))
    return out


def pytest_configure(config):
    out = tempfile.mkdtemp(prefix="statement-trace-")
    with open(os.path.join(out, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(_CHILD.format(path=os.path.abspath(__file__), out=out))
    _state["out"], _state["pythonpath"] = out, os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([out] + ([_state["pythonpath"]]
                                                        if _state["pythonpath"] else []))
    sys.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    _stop()


def pytest_terminal_summary(terminalreporter):
    children = set()
    for name in glob.glob(os.path.join(_state["out"], "*.txt")):
        with open(name, encoding="utf-8") as fh:
            for row in fh:
                path, line = row.rstrip("\n").split("\t")
                children.add((path, int(line)))
    root = os.path.dirname(os.path.dirname(SRC))
    in_process = missed(_reached)
    in_child = set(missed(_reached | children))
    write = terminalreporter.write_line
    for title, rows in (
            ("statements of src/cnadapt no test reached",
             [r for r in in_process if r in in_child]),
            ("statements of src/cnadapt reached only in a child process",
             [r for r in in_process if r not in in_child])):
        terminalreporter.section(f"{title}: {len(rows)}")
        for path, line, text in rows:
            write(f"{os.path.relpath(path, root)}:{line}: {text}")


def pytest_unconfigure(config):
    _stop()
    if _state.get("pythonpath") is None:
        os.environ.pop("PYTHONPATH", None)
    else:
        os.environ["PYTHONPATH"] = _state["pythonpath"]
    shutil.rmtree(_state.pop("out"), ignore_errors=True)
