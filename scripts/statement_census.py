#!/usr/bin/env python3
"""List the statements of ``src/jumploci`` that no command entered.

Every command runs in process on each session file given (``compute``,
``dual``, ``crk``, ``betti --n 12``, ``oracle --points 3`` and ``compute
--format text``), and ``realize`` on each chain file (``*.chain``).  A
line tracer is set with ``sys.settrace`` before ``jumploci`` is imported,
so the module-level statements count too.  Then, per file of the package,
the script prints the statements (``ast`` statement nodes, docstrings
and ``global``/``nonlocal`` left out, as they run no code) whose lines saw
no line event: code that none of these runs reached, a candidate for a
test or for deletion.  Commands that end in an error still count; their
output is discarded.

Usage: python scripts/statement_census.py FILE [FILE ...]
"""

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "jumploci"

COMMANDS = (["compute"], ["dual"], ["crk"], ["betti", "--n", "12"],
            ["oracle", "--points", "3"], ["compute", "--format", "text"])


def _tracer():
    """A ``sys.settrace`` function recording the (file, line) pairs of the
    package's frames, and the set it records them in."""
    seen = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    return trace, seen


def _statements(tree):
    """(line, header lines) of each statement that runs code: the lines
    from its decorators to the line before its body for a compound
    statement, all of its lines for a simple one."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(first, max(last, node.lineno) + 1)))
    return sorted(out)


def _run_all(files):
    from jumploci import cli
    for path in files:
        runs = ([["realize", "--chain", str(path)]] if path.suffix == ".chain"
                else [cmd[:1] + ["--input", str(path)] + cmd[1:]
                      for cmd in COMMANDS])
        for argv in runs:
            # the commands write their reports to sys.stdout.buffer
            with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            print(f"{' '.join(argv)}: exit {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(PACKAGE.parent))
    trace, seen = _tracer()
    sys.settrace(trace)
    try:
        _run_all(args.files)
    finally:
        sys.settrace(None)
    total = unentered = 0
    for source in sorted(PACKAGE.glob("*.py")):
        stmts = _statements(ast.parse(source.read_text()))
        name = str(source)
        missed = [line for line, lines in stmts
                  if not any((name, k) in seen for k in lines)]
        total += len(stmts)
        unentered += len(missed)
        print(f"{source.relative_to(REPO)}: {len(missed)} of {len(stmts)}"
              f" statements not entered"
              + (f": lines {', '.join(map(str, missed))}" if missed else ""))
    print(f"total: {unentered} of {total} statements not entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
