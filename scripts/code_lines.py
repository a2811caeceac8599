#!/usr/bin/env python3
"""Count code lines.  Usage: python scripts/code_lines.py [PATH ...]

A code line is a line of a Python module that holds some token other than a comment and is not part
of a docstring (the string that opens a module, class or function body).  Blank lines, comment lines
and docstring lines are not counted; a line with code and a trailing comment is.  Each PATH is a
module or a directory, whose *.py files are counted recursively; the default is src/wsep.  One line
per module gives its count and path, and the last line the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def modules(paths: list[Path]) -> list[Path]:
    """Each path that is a file, and the *.py files under each directory, in sorted order."""
    return [m for p in paths for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def main(args: list[str]) -> int:
    total = 0
    for module in modules([Path(a) for a in args] or [ROOT / "src" / "wsep"]):
        n = code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6} {module}")
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
