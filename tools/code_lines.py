"""Print the code lines of each module of the blockexpm package and their total.

    python tools/code_lines.py [CHECKOUT]

CHECKOUT is a source tree of this repository (default: the one holding
this script); the files ``src/blockexpm/*.py`` under it are counted.  A
line counts when it holds a token other than a comment or the tokenizer's
NL, NEWLINE, INDENT, DEDENT and ENDMARKER, and lies outside every
docstring, the leading string statement of a module, class or function.
So blank lines, comment lines and docstrings do not count.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import token
import tokenize

_LAYOUT = {token.COMMENT, token.NL, token.NEWLINE, token.INDENT, token.DEDENT,
           token.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    total = 0
    for path in sorted(glob.glob(os.path.join(checkout, "src", "blockexpm", "*.py"))):
        with open(path) as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d} {os.path.basename(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
