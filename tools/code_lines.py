"""Count the total lines and code lines of Python modules.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (the string that opens a module, class or function body).

    python tools/code_lines.py src/jacobsthal3

prints one row per module, "<total> <code> <path>", and a last row with
the sums.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    skipped = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                          tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(line for line in range(token.start[0], token.end[0] + 1) if line not in skipped)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py DIRECTORY_OR_FILE", file=sys.stderr)
        return 2
    root = Path(argv[0])
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total_sum = code_sum = 0
    for path in paths:
        total, code = count(path.read_text(encoding="utf-8"))
        total_sum += total
        code_sum += code
        print(f"{total:6d} {code:6d} {path}")
    print(f"{total_sum:6d} {code_sum:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
