"""List the statements of `src/mama` that the tier-1 tests never execute.

    python tools/unreached.py [PYTEST_ARGS...]

Run from the root of a source checkout.  The tests run in this process
under `sys.settrace` (and `threading.settrace`), which records the line
events of the files in `src/mama` only; a code object stops being traced
once every line it holds has been seen.  A statement counts as executed
when one of its own lines (those not inside a nested statement) raised a
line event, or when a statement nested in it did.  Every statement with
bytecode that does not count is printed as `path:line: source`, followed
by a total.  Code run only in a subprocess that a test starts (the demos,
`python -m mama`) is not seen, so what only such runs reach is listed too.

Without arguments the run is tier-1 minus
`test_criterion_2_ctmc_expected_time_equivalence`, whose 10-s wall-clock
gate tracing exceeds.  The exit status is pytest's.  Uses the standard
library and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mama"
DEFAULT_ARGS = [
    "-q",
    "-p", "no:cacheprovider",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_2_ctmc_expected_time_equivalence",
    "tests",
]


class LineRecorder:
    """Line events of the code objects of `files`."""

    def __init__(self, files: set[str]):
        self.files = files
        # Per code object, its lines with bytecode, and those not yet seen.
        self.lines: dict = {}
        self.remaining: dict = {}

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        left = self.remaining.get(code)
        if left is None:
            if code.co_filename not in self.files:
                return None
            lines = {line for _, _, line in code.co_lines() if line is not None}
            # Line 0 and a function's first line (its RESUME) raise no event.
            lines -= {0} if code.co_name == "<module>" else {0, code.co_firstlineno}
            self.lines[code] = lines
            left = self.remaining[code] = set(lines)
        return self.local_trace if left else None

    def local_trace(self, frame, event, arg):
        if event == "line":
            left = self.remaining[frame.f_code]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return self.local_trace

    def hits(self) -> dict[str, set[int]]:
        """Per file, the lines that raised an event."""
        seen: dict[str, set[int]] = {name: set() for name in self.files}
        for code, lines in self.lines.items():
            seen[code.co_filename] |= lines - self.remaining[code]
        return seen


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(node: ast.AST, parent: ast.stmt | None = None):
    """(statement, innermost enclosing statement or None) for every
    statement under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child, parent
            yield from _statements(child, child)
        else:
            yield from _statements(child, parent)


def unreached(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """The (line, source) of each statement of `path` with bytecode that no
    line event in `hit` reaches, in line order."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    with_code = _code_lines(compile(source, str(path), "exec"))
    parent: dict[ast.stmt, ast.stmt | None] = {}
    owner: dict[int, ast.stmt] = {}
    for stmt, up in sorted(_statements(tree), key=lambda p: (p[0].lineno, -p[0].end_lineno)):
        parent[stmt] = up
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        for line in range(first, stmt.end_lineno + 1):
            owner[line] = stmt  # nested statements come later and take their lines
    own: dict[ast.stmt, set[int]] = {stmt: set() for stmt in parent}
    for line, stmt in owner.items():
        own[stmt].add(line)
    executed: set[ast.stmt] = set()
    for stmt, lines in own.items():
        if lines & hit:
            while stmt is not None and stmt not in executed:
                executed.add(stmt)
                stmt = parent[stmt]
    rows = source.splitlines()
    return sorted(
        (stmt.lineno, rows[stmt.lineno - 1].strip())
        for stmt, lines in own.items()
        if stmt not in executed and lines & with_code
    )


def main(argv: list[str]) -> int:
    import pytest

    files = {str(path) for path in sorted(PACKAGE.glob("*.py"))}
    recorder = LineRecorder(files)
    threading.settrace(recorder.global_trace)
    sys.settrace(recorder.global_trace)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    hits = recorder.hits()
    total = 0
    for name in sorted(files):
        path = Path(name)
        for line, text in unreached(path, hits[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements in src/mama never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
