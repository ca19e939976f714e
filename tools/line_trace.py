"""Executable lines of ``src/fusionkit`` that a pytest run never executes.

    python3 tools/line_trace.py [PYTEST_ARGS...]

Runs pytest in this process under a ``sys.settrace`` line trace, limited to
the package's own modules, so it needs nothing beyond the standard library
and pytest.  A line is executable when the compiler gives it a line-table
entry (``dis.findlinestarts``) in some code object of its module; a
function's ``def`` line belongs to the code that runs the ``def``.  A line
counts as run when any code on it ran, so a lambda never called on a line
that ran is not reported.  Prints one tab-separated row per function that
has unrun lines (module, qualified name, the line numbers), then the unrun
and executable totals.  The trace slows the tests several times over (the
tier-1 suite takes about 6 minutes on a 2-core machine).  Exits with
pytest's exit code.
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusionkit"


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of a module, mapped to the qualified name of
    the innermost code object that runs it (``<module>`` at top level)."""
    lines: dict[int, str] = {}

    def walk(code, name: str) -> None:
        for _, line in dis.findlinestarts(code):
            if line and not (name != "<module>" and line == code.co_firstlineno):
                lines[line] = name
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                walk(const, const.co_qualname)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return lines


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs run in the package."""
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(code), hits


def main(argv: list[str]) -> int:
    if "fusionkit" in sys.modules:
        raise SystemExit("fusionkit was imported before the trace began")
    code, hits = run_traced(argv)
    unrun_total = executable_total = 0
    print("module\tfunction\tunrun lines")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun: dict[str, list[int]] = {}
        for line, name in sorted(lines.items()):
            if (str(path), line) not in hits:
                unrun.setdefault(name, []).append(line)
        for name, missed in unrun.items():
            print(f"{path.stem}\t{name}\t{' '.join(map(str, missed))}")
        unrun_total += sum(map(len, unrun.values()))
        executable_total += len(lines)
    print(f"unrun\t{unrun_total}\tof {executable_total} executable lines")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
