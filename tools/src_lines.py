"""Line counts of the ``src/fusionkit`` modules: total lines and code lines.

    python3 tools/src_lines.py [PACKAGE_DIR]

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or function).
Blank lines, comment lines and docstring lines count only towards the
total.  Prints one tab-separated row per module, then the sums.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fusionkit"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers that a module, class or function docstring spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = code = 0
    print("module\ttotal\tcode")
    for path in sorted(package.glob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{path.stem}\t{t}\t{c}")
    print(f"sum\t{total}\t{code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
