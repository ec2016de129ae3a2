"""Count the code lines of Python files: every physical line that holds
code, leaving out blank lines, comment lines and docstrings.

A docstring is a string literal that is the first statement of a module,
class or function. A statement that spans several lines counts each line,
including a line that holds only a closing bracket, and so does a string
literal that is not a docstring.

Usage: python3 tools/code_lines.py [path ...]

Each path is a .py file or a directory searched recursively for .py files;
the default is src. Prints one "count path" line per file, sorted by path,
and a last "count total" line.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def python_files(paths) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in os.walk(path):
                files.extend(os.path.join(root, n) for n in names if n.endswith(".py"))
        else:
            files.append(path)
    return sorted(files)


def main(argv=None) -> int:
    total = 0
    for path in python_files((argv if argv is not None else sys.argv[1:]) or ["src"]):
        with open(path, encoding="utf-8") as f:
            count = count_code_lines(f.read())
        print(f"{count} {path}")
        total += count
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
