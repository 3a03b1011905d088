"""Count the code lines of each ``src/motbench`` module and their total.

A code line holds at least one token that is not a comment, ``NL``,
``NEWLINE``, ``INDENT`` or ``DEDENT``.  Docstrings (the first statement of a
module, class or function when it is a string) are left out, so a line
counts only if code other than a docstring or a comment is on it.

Usage: ``python3 tools/code_lines.py [package_dir]``; the default is the
``src/motbench`` of the checkout that holds this script.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# ENCODING and ENDMARKER hold no text of a line.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` begins."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
            if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _SKIPPED and token.start not in docstrings:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "motbench"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
