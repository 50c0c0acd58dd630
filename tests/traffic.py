"""Traffic audit: the statements of ``src/cvrsim`` that no workload reaches.

    python tests/traffic.py

Runs "the traffic" in this process under a ``sys.settrace`` line tracer,
installed before ``cvrsim`` is imported, so module-level code counts too:

- every workload of ``perfbench/workloads.py`` at seed 1, through
  ``scenario.build_config`` and ``sim.World(cfg).run()``;
- the four demos of ``demos/``, through ``runpy``;
- ``cli.main`` for ``run``, ``inspect --time 600``, a two-value ``sweep``
  and ``gen-grid``, on ``demos/desk_scenario.json`` as CI runs them. The
  sweep runs with ``AMOD_THREADS=1``, in this process, so the result does
  not depend on the CPU count.

It then compares the statements the traffic never reaches with the
committed list, :data:`LIST`, and exits 1 when they differ: an unreached
statement the list lacks, a listed statement that is now reached, or a
listed statement that no longer exists. Each is printed in the list's
format; an unlisted one has the reason ``?``, which the list rejects. The
script never writes the list: an entry is added, given its reason and
deleted by hand. A list it cannot read exits 2.

The list has one entry per line, five tab-separated fields::

    reason  module  function  occurrence  statement

``module`` is dotted (``cvrsim.sim``); ``function`` is the qualname of the
function or class whose body holds the statement (``<module>`` at module
level, ``SimConfig.validate.<locals>.fail`` in a nested function); and
``statement`` is the statement as ``ast.unparse`` prints it. A compound
statement (``if``, ``for``, ``while``, ``with``, ``try``, ``def``,
``class``) is keyed by its header alone, e.g. ``if m < 0:``, and a text
that repeats within one function by its occurrence, 1 for the first in
source order. Line numbers are never part of a key, so code moving up or
down changes no entry. Blank lines and lines starting with ``#`` are
comments.

A statement counts as reached when any line of its own span fires a line
event: its whole extent for a simple statement, its header for a compound
one, decorators included. Statements that share a line, such as
``if x: return``, are reached together. Docstrings, ``global`` and
``nonlocal`` run no code and are never listed.

Every entry carries exactly one reason from :data:`REASONS`. An entry is
the record of a decision to keep code the traffic does not run; it is
never added only to make this script pass.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cvrsim"
LIST = Path(__file__).resolve().parent / "unreached.tsv"

# Why a statement the traffic never reaches stays in the library.
REASONS = {
    "input": "rejects or reads input from outside the program that the traffic never "
             "gives: a scenario or graph file, a command-line argument, an environment "
             "variable, or a public function's arguments",
    "observed-data": "the graph-file and node_counts paths, the only way to run on "
                     "observed data, which no workload runs yet",
    "benchmark-name": "a name that perfbench/run.py wraps or calls, which the simulator "
                      "never calls",
    "model-branch": "a branch of the model that no workload's parameters take: the "
                    "speed relation's linear ramp, the PI adapter's hold-all rule, or "
                    "the assignment solver's return for a wide matrix",
    "guard": "handles a state or value that none of the traffic produces",
    "cli": "a command path that the traffic does not take",
}

SKIPPED = (ast.Global, ast.Nonlocal)  # declarations: they compile to no code
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


class ListError(ValueError):
    """The committed list cannot be read: a malformed line or a repeated key."""


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _text_and_span(node: ast.stmt) -> tuple[str, range]:
    """A statement's key text and the lines of its own span."""
    first = _first_line(node)
    if not hasattr(node, "body"):
        return ast.unparse(node), range(first, node.end_lineno + 1)
    shell = copy.copy(node)
    for name in _BLOCKS:
        if hasattr(shell, name):
            setattr(shell, name, [])
    shell.body = [ast.Pass()]
    if hasattr(shell, "decorator_list"):
        shell.decorator_list = []
    header = ast.unparse(shell).rsplit("\n", 1)[0]
    return header, range(first, max(node.lineno, _first_line(node.body[0]) - 1) + 1)


def statements(source: str, module: str) -> dict[tuple, range]:
    """Every statement of a module's source, by key, with the lines of its span.

    A key is ``(module, function, occurrence, statement)`` as the list
    holds it, the occurrence counted in source order.
    """
    found = []

    def visit(body, scope, in_function, has_docstring):
        for i, node in enumerate(body):
            if isinstance(node, (ast.excepthandler, ast.match_case)):
                visit(node.body, scope, in_function, False)
                continue
            if isinstance(node, SKIPPED) or (i == 0 and has_docstring and _is_docstring(node)):
                continue
            text, span = _text_and_span(node)
            found.append((span.start, scope, text, span))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else (
                    f"{scope}.<locals>.{node.name}" if in_function else f"{scope}.{node.name}")
                visit(node.body, inner, not isinstance(node, ast.ClassDef), True)
            else:
                for name in _BLOCKS:
                    visit(getattr(node, name, ()), scope, in_function, False)

    visit(ast.parse(source).body, "<module>", False, True)
    found.sort(key=lambda item: item[0])
    keys: dict[tuple, range] = {}
    seen: dict[tuple, int] = {}
    for _, scope, text, span in found:
        n = seen[scope, text] = seen.get((scope, text), 0) + 1
        keys[module, scope, n, text] = span
    return keys


def package_statements(package: Path) -> dict[tuple, tuple[Path, range]]:
    """Every statement of every module under ``package``, with its file and span."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for key, span in statements(path.read_text(), module).items():
            out[key] = (path, span)
    return out


class LineTrace:
    """``with LineTrace(root) as trace:`` records ``trace.lines[filename]``, the
    lines that fire a line event in the files under ``root``, in this thread."""

    def __init__(self, root: Path):
        self.root = os.path.join(str(root), "")
        self.lines: dict[str, set[int]] = {}
        self._local = {}

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self._local.get(filename)
        if local is None and filename.startswith(self.root):
            lines = self.lines.setdefault(filename, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            self._local[filename] = local
        return local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def unreached(found: dict[tuple, tuple[Path, range]], lines: dict[str, set[int]]) -> set[tuple]:
    """The keys of ``found`` none of whose span lines fired."""
    return {key for key, (path, span) in found.items()
            if lines.get(str(path), set()).isdisjoint(span)}


def entry(key: tuple, reason: str) -> str:
    """One line of the list."""
    module, function, n, text = key
    return "\t".join((reason, module, function, str(n), text))


def read_list(text: str) -> dict[tuple, str]:
    """The list's entries, key to reason. Raises ListError on a line without
    exactly five fields, a reason outside :data:`REASONS`, an occurrence that
    is not a whole number >= 1, or a key given twice."""
    listed = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ListError(f"line {number}: need 5 tab-separated fields, got {len(fields)}")
        reason, module, function, n, statement = fields
        if reason not in REASONS:
            raise ListError(f"line {number}: reason {reason!r} is not one of {sorted(REASONS)}")
        if not (n.isdecimal() and int(n) >= 1):
            raise ListError(f"line {number}: occurrence {n!r} is not a whole number >= 1")
        key = (module, function, int(n), statement)
        if key in listed:
            raise ListError(f"line {number}: listed twice")
        listed[key] = reason
    return listed


def compare(found: dict, missed: set[tuple], listed: dict[tuple, str]) -> list[str]:
    """Report lines, in source order, for each unreached statement the list lacks,
    each listed statement now reached and each listed statement that no longer
    exists; empty when the list matches. Each statement follows a comment line
    naming its kind and, when it exists, its file and first line."""
    def order(key):
        return key[0], found[key][1].start if key in found else 0, key

    report = []
    for title, keys in (("reached by no traffic, and not listed", missed - listed.keys()),
                        ("listed, and now reached", (found.keys() - missed) & listed.keys()),
                        ("listed, and no longer in the source", listed.keys() - found.keys())):
        for key in sorted(keys, key=order):
            where = f" {os.path.relpath(found[key][0])}:{found[key][1].start}" if key in found else ""
            report += [f"# {title}{where}", entry(key, listed.get(key, "?"))]
    return report


def run_traffic() -> None:
    """The workloads, the demos and the four commands, in this process."""
    from cvrsim import cli, scenario, sim

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for build in WORKLOADS.values():
        for _, doc in build(1):
            sim.World(scenario.build_config(doc)).run()
    desk = str(ROOT / "demos" / "desk_scenario.json")
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for argv in (["run", "--scenario", desk, "--out", out],
                     ["inspect", "--scenario", desk, "--time", "600", "--out", out],
                     ["sweep", "--scenario", desk, "--param", "control_period_s",
                      "--values", "10,20", "--out", out],
                     ["gen-grid", "--k", "5", "--spacing", "100",
                      "--out", os.path.join(out, "grid.json")]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"cvrsim {' '.join(argv)} failed")


def main() -> int:
    try:
        listed = read_list(LIST.read_text())
    except (OSError, ListError) as exc:
        print(f"traffic: cannot read {LIST.relative_to(ROOT)}: {exc}", file=sys.stderr)
        return 2
    os.environ["AMOD_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    with LineTrace(PACKAGE) as trace:
        run_traffic()
    found = package_statements(PACKAGE)
    missed = unreached(found, trace.lines)
    report = compare(found, missed, listed)
    print("\n".join(report) if report else
          f"traffic: {len(missed)} of {len(found)} statements unreached, all listed")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
