#!/usr/bin/env python3
"""Count the code lines of ``src/jumploci`` in one or more source trees.

A code line is a line of a ``.py`` file of the package that holds a
token of the program: blank lines, lines of comments alone (found with
``tokenize``) and the lines of docstrings (module, class and function
docstrings, found with ``ast``) do not count.  A line that holds code
and a comment counts.  For each tree the script prints its total and the
count of each file.

Usage: python scripts/code_lines.py [TREE ...]   (default: this checkout)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Tokens that are not code: what a blank or comment-only line holds.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set:
    """The line numbers that the docstrings of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def tree_counts(tree: Path) -> dict:
    """{file name: code lines} of ``src/jumploci`` in ``tree``."""
    package = tree / "src" / "jumploci"
    files = sorted(package.glob("*.py"))
    if not files:
        raise SystemExit(f"error: no Python files in {package}")
    return {f.name: code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Count the code lines of src/jumploci.")
    parser.add_argument("trees", nargs="*", type=Path, default=[REPO],
                        metavar="TREE")
    args = parser.parse_args(argv)
    for tree in args.trees:
        counts = tree_counts(tree)
        print(f"{tree}: {sum(counts.values())} code lines in src/jumploci")
        for name, n in counts.items():
            print(f"  {name}: {n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
