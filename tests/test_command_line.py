"""The command line parser against the argparse parser it replaced, and a
guard that starting a command does no warm-up work.

``cli.parse_command_line`` reads argv as ``oracles.build_argument_parser``
did: where argparse parses, the values are equal; where it refuses, the
new parser exits 1 with the same one ``error:`` line; ``--help`` exits 0
with the usage block.  Two differences are deliberate.  argparse took an
abbreviated flag (``--inp``) or a run of short flags after ``-h`` as the
full one; the new parser refuses them as unrecognized.  argparse read the
value of ``--flag=--`` as an empty list (``--input=--`` as no input,
``betti --n=--`` died with a traceback); the new parser reads the text
``--``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumploci.cli import COMMANDS, FLAGS, parse_command_line

from conftest import CHAINS, REPO, SESSIONS
from oracles import build_argument_parser

FINAL = str(SESSIONS / "final.session")
OPTION_STRINGS = (*FLAGS, "-h", "--help")


def _outcome(parse, argv):
    """(values, None, "", "") when ``parse`` reads ``argv``, else (None,
    exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = vars(parse(argv))
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()
    return values, None, out.getvalue(), err.getvalue()


def _argparse_quirk(word: str) -> bool:
    """Whether argparse read ``word`` in a way the new parser leaves out:
    as a flag it does not spell out, a prefix of a long flag (``--inp``,
    ``--=x``) or short flags run together after ``-h`` (``-hh``, ``-h=h``);
    or as the empty list, a flag's value ``--`` given after ``=``, which
    argparse drops as if it were the bare ``--``."""
    if word[:2] == "-h":
        return word != "-h"
    name, eq, value = word.partition("=")
    return word[:2] == "--" and word != "--" and (
        (name in FLAGS and value == "--") or (
            name not in OPTION_STRINGS
            and any(f.startswith(name) for f in OPTION_STRINGS)))


_VALUES = st.sampled_from(
    ["5", "0", "-1", "-3", " 7 ", "+2", "1_0", "١٠", "²", "abc", "", "-",
     "--", "-.5", "-1.", "-1\n", "-1\n\n", "-1,2", "-1, 2", "1,2", "json",
     "text", "xml", "-x", "a b", "=", "f.session", "-١", "-²"]) | st.text(
    alphabet="-0123456789., =ax١²\n\t", max_size=6)
_UNKNOWN = st.sampled_from(["--verbose", "--verbose=3", "-x", "--nx",
                            "--inputs", "--Input", "---", "-1=2", "--5"])
_WORDS = st.one_of(
    st.sampled_from(COMMANDS + ("bogus",)),
    st.sampled_from(OPTION_STRINGS),
    st.builds(lambda f, v: f"{f}={v}", st.sampled_from(OPTION_STRINGS),
              _VALUES),
    _VALUES, _UNKNOWN)


@settings(max_examples=1500, deadline=None, database=None)
@given(st.lists(_WORDS, max_size=8))
@example(["betti", "--n", "-1"])                   # a negative int
@example(["--n", "7", "crk", "--seed=3"])           # flags on both sides
@example(["compute", "--n", "1", "--n", "2"])       # the last one wins
@example(["compute", "--n", "x1"])                  # not an int
@example(["crk", "--point", "-1,2"])                # a value with a -
@example(["crk", "--point", "-1, 2", "--point=-1,2"])
@example(["crk", "--n", "-١", "--point", "-²"])     # \d is str.isdecimal
@example(["crk", "--input"])                        # a missing value
@example(["crk", "--input", "--n", "3"])
@example(["crk", "--verbose", "--input", "f"])      # an unknown flag
@example(["crk", "dual"])                           # a second positional
@example(["bogus", "--help"])                       # --help anywhere
@example(["--n", "x", "--help"])
@example(["--verbose", "--help"])
@example(["crk", "--help", "--n", "x"])
@example(["--input", "--", "f", "crk"])             # the bare --
@example(["--", "--n", "crk"])
def test_the_parser_reads_argv_as_argparse_did(argv):
    if any(map(_argparse_quirk, argv)):
        return
    ref = _outcome(build_argument_parser().parse_args, argv)
    new = _outcome(parse_command_line, argv)
    if ref[1] == 0:  # help, in the words of each
        assert new[0] is None and new[1] == 0 and new[3] == "", argv
        assert new[2].startswith("usage: jumploci")
    else:
        assert new == ref, argv
    if new[1] == 1:  # one line, unless a word of argv holds a line break
        assert new[3].startswith("error: ") and new[3].count("\n") \
            <= 1 + sum(w.count("\n") for w in argv)


def test_an_abbreviated_flag_is_unrecognized():
    """argparse completed ``--inp`` to ``--input``; flags are now spelled
    in full."""
    argv = ["compute", "--inp", FINAL]
    assert build_argument_parser().parse_args(argv).input == FINAL
    assert _outcome(parse_command_line, argv) == (
        None, 1, "", f"error: unrecognized arguments: --inp {FINAL}\n")


def test_help_prints_the_usage_block_of_the_docstring():
    values, code, out, err = _outcome(parse_command_line, ["crk", "-h"])
    assert (values, code, err) == (None, 0, "")
    assert out.startswith("usage: jumploci <compute|")
    assert "\n       jumploci realize --chain FILE" in out
    assert out.endswith("jumploci -h | --help\n")
    # with docstrings stripped there is no block to print, but no traceback
    proc = subprocess.run([sys.executable, "-OO", "-m", "jumploci.cli", "-h"],
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "usage: jumploci\n", "")


# The child: it imports the command line front end, notes which of the
# modules argparse needed are loaded, counts the regular expressions
# compiled while the commands run, and prints the exit codes.
_GUARD = r"""
import io, json, re, sys
before = set(sys.modules)
import jumploci.cli as cli
loaded = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
new = set(sys.modules) - before
added = [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize")
         if m in new]
compiler = getattr(re, "_compiler", None) or __import__("sre_compile")
compiled, real = [], compiler.compile

def counting(pattern, flags=0):
    compiled.append(str(pattern))
    return real(pattern, flags)

compiler.compile = counting
codes, out = [], sys.stdout
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    codes.append(cli.main(argv))
sys.stdout = out
print(json.dumps({"loaded": loaded, "added": added, "compiled": compiled,
                  "codes": codes, "locale": "locale" in sys.modules}))
"""


def test_a_command_starts_without_argparse_or_a_regex_compile():
    """argparse, with gettext and locale, costs a fresh process its import,
    the build of a parser and the compile of its patterns, and the session
    reader compiled its own inline patterns on first use: none of it is
    work of a command.  Nor is ``dataclasses``, which brings ``inspect``,
    ``ast``, ``dis`` and ``tokenize`` and compiles the methods of each
    record as its module loads; only what the import adds counts, so a
    module that ``site`` loaded first does not."""
    flag = str(SESSIONS / "flag.session")
    jobs = [[c, "--input", flag]
            for c in ("compute", "dual", "betti", "crk", "oracle")]
    jobs.append(["realize", "--chain", str(CHAINS / "complete_flag.chain")])
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("JUMPLOCI_VERBOSE", None)
    proc = subprocess.run([sys.executable, "-c", _GUARD, json.dumps(jobs)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"loaded": [], "added": [], "compiled": [],
                      "codes": [0] * 6, "locale": False}
