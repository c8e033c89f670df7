"""Count the code lines of Python modules.

A code line is a line that holds a token which is neither a comment nor
part of a module, class or function docstring. Tokens come from
``tokenize`` and docstrings from ``ast``; blank lines, comment-only lines,
docstring lines and the NEWLINE/INDENT/DEDENT tokens around them do not
count.

    python tools/code_lines.py [PATH ...]    (default: src)

prints one line per module and the total. It reports only; it gates
nothing.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, owners) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT and tok.start[0] not in skip:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src")]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
