"""Command line front end.

::

    usage: jumploci <compute|betti|dual|crk|oracle> --input FILE
                    [--n INT] [--seed INT] [--format json|text]
                    [--output FILE] [--point a1,..,ac] [--points K]
           jumploci realize --chain FILE [--format json|text]
                    [--output FILE]
           jumploci -h | --help

Flags come before or after the command, as ``--flag value`` or
``--flag=value``, spelled in full; the last of a repeated flag wins, and
a word after a bare ``--`` is never a flag.  ``-h`` and ``--help`` print
the usage block above and exit 0.
Exit codes: 0 on success, 1 on input error (a malformed command line
too), 2 on an internal assertion failure (for example, the even and odd
parts of Ext disagreeing on the Betti degree).  ``--seed`` (default 0)
picks the sample points of ``oracle``; no other command depends on it.
``--n`` and ``--points`` default to 20 and the report goes to standard
output unless ``--output`` names a file: the input file declares only the
ring, f and the module, and sets nothing.
Setting ``JUMPLOCI_VERBOSE=1`` prints cumulative engine statistics on
standard error.

The JSON report uses a stable key order::

    {"rank": int, "jump_numbers": [int],
     "loci": [{"i_from": int, "i_to": int, "ideal": [str], "dim": int}],
     "complexity": int, "betti_degree": int|null, "bass_degree": int|null,
     "duality": {"per_index_equal": bool, "bdeg_equal": bool}|null}

Each ``loci`` entry is a plateau of the report (``JumpLociReport``):
V^i for i_from <= i <= i_to, with the generators of its jump ideal.  The
zero ideal (all of Spec S) serializes as ``[]``; the final plateau, the
empty set from one past the last jump number on, is recorded with
``i_to`` equal to ``i_from``, the unit ideal ``["1"]`` and dimension -1.
``dual`` adds to the ``compute`` report whether the Betti and Bass
degrees agree; X(M*) = s_dual(X) has the minor ideals of X, so a printed
``per_index_equal`` is always true.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

from .groebner import GBStats
from .resolution import PipelineError
from .loci import (jump_loci_report, betti_degree, betti_numbers, crk_at,
                   realize, section_degree, stable_betti_oracle,
                   JumpLociReport)
from .session import (Session, SessionError, parse_session, build_pipeline,
                      parse_chain_file)

# Largest truncation ``betti`` accepts: ``betti --n 100000`` on the flag
# session takes about 0.5 s (a fresh process on a shared 2-vCPU VM), and
# the list of Betti numbers grows with n.
MAX_TRUNCATION = 100_000

# Most points ``oracle`` samples: past one basis of M per command, a point
# costs the eliminations of its Tate complex and of D at the point, about
# 0.4 ms on the flag session (1,000 points in 0.42 s, in process, on a
# shared 2-vCPU VM) and up to about 7 ms at ``loci.MAX_TATE_DIM``; past
# it a point resolves M over its section, 0.2-70 ms on the sessions and
# bench inputs.
MAX_POINTS = 1_000


# -- report assembly -------------------------------------------------------


def _loci_entries(rep: JumpLociReport):
    """The report's plateaus as JSON entries.

    A plateau prints the generators of its jump ideal, which
    ``jump_locus_ideal`` reduced: the zero ideal has none, and no jump
    ideal is the unit ideal, since V^j = V^{j+2} = {} when V^j is empty;
    the final plateau's unit ideal prints as ``["1"]``.
    """
    return [{"i_from": i_from, "i_to": i_to,
             "ideal": [str(g) for g in I.gens], "dim": dim}
            for i_from, i_to, I, dim in rep.plateaus]


def report_dict(rep: JumpLociReport, bass_degree=None):
    """The JSON report; ``dual`` fills in its ``duality`` key."""
    return {
        "rank": rep.rank,
        "jump_numbers": list(rep.jump_numbers),
        "loci": _loci_entries(rep),
        "complexity": rep.complexity,
        "betti_degree": rep.betti_degree,
        "bass_degree": bass_degree,
        "duality": None,
    }


def emit_report(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=2) + "\n").encode("utf-8")
    return (_report_text(report) + "\n").encode("utf-8")


def _text(value) -> str:
    """A scalar, with JSON's true, false and null, or a list of them."""
    if isinstance(value, list):
        return ", ".join(map(_text, value))
    return (json.dumps(value) if value is None or isinstance(value, bool)
            else str(value))


def _report_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_report_text(value, indent + "  "))
        elif isinstance(value, list) and any(isinstance(v, dict)
                                             for v in value):
            lines.append(f"{indent}{key}:")
            for e in value:
                lines.append(f"{indent}  " + (
                    f"i = {e['i_from']}..{e['i_to']}: "
                    f"({', '.join(e['ideal']) or '0'})  dim {e['dim']}"
                    if key == "loci" else
                    "; ".join(f"{k}: {_text(v)}" for k, v in e.items())))
        else:
            lines.append(f"{indent}{key}: {_text(value)}")
    return "\n".join(lines)


# -- commands --------------------------------------------------------------


def _read_text(path: str) -> str:
    """A session or chain file as text, without one leading UTF-8 byte
    order mark; bytes that are not UTF-8 are an input error naming their
    line, counted in the file as given."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SessionError("the file is not valid UTF-8", line) from exc


def cmd_compute(session: Session, args) -> dict:
    pipe = build_pipeline(session)
    rep = jump_loci_report(pipe.X)
    return report_dict(rep, bass_degree=betti_degree(pipe.X_dual)[1])


def cmd_dual(session: Session, args) -> dict:
    out = cmd_compute(session, args)
    # I_t(D^T) = I_t(D): the loci of X(M*) are those of X by construction
    out["duality"] = {"per_index_equal": True,
                      "bdeg_equal": out["betti_degree"] == out["bass_degree"]}
    return out


def _betti_block(X, n: int) -> dict:
    """beta_0..beta_n of the module with twisted complex X, and the
    quasi-polynomial of their tail (or why it is not printed)."""
    beta, tail = betti_numbers(X, n)
    out = {"betti": {str(i): b for i, b in sorted(beta.items())}}
    if tail is None:
        out["quasi"] = {"error": "tail is not yet quasi-polynomial"}
    else:
        even, odd, valid_from = tail
        out["quasi"] = {"even": [str(c) for c in even],
                        "odd": [str(c) for c in odd],
                        "valid_from": valid_from}
    return out


def cmd_betti(session: Session, args) -> dict:
    if session.module.kind != "coker":
        raise PipelineError(
            "the betti command needs a module given as a cokernel")
    n = args.n
    if n <= 0:
        raise PipelineError(f"the truncation must be positive, not {n}")
    if n > MAX_TRUNCATION:
        raise PipelineError(
            f"the truncation must be at most {MAX_TRUNCATION}, not {n}")
    pipe = build_pipeline(session)
    out = {"n": n, **_betti_block(pipe.X, n)}
    out["dual"] = (_betti_block(pipe.X_dual, n) if pipe.dual_is_module
                   else None)
    return out


def _parse_point(text: str, session: Session):
    fld = session.ring.field
    pieces = [p.strip() for p in text.split(",")]
    point = []
    for p in pieces:
        try:
            point.append(fld.coerce(int(p) if fld.p else Fraction(p)))
        except (ValueError, ZeroDivisionError) as exc:
            raise PipelineError(f"bad point coordinate '{p}'") from exc
    if len(point) != session.ring_data.c:
        raise PipelineError(
            f"point has {len(point)} coordinates, expected "
            f"{session.ring_data.c}")
    return point


def cmd_crk(session: Session, args) -> dict:
    if args.point is None:
        return {"point": None, "crk": crk_at(build_pipeline(session).X)}
    point = _parse_point(args.point, session)  # before the pipeline is built
    return {"point": [str(a) for a in point],
            "crk": crk_at(build_pipeline(session).X, point)}


def cmd_oracle(session: Session, args) -> dict:
    if session.module.kind != "coker":
        raise PipelineError(
            "the oracle command needs a module given as a cokernel")
    fld = session.ring.field
    if not fld.p:
        raise PipelineError("the oracle sweep needs a finite prime field")
    section_degree(session.ring_data)
    count = args.points
    if count <= 0:
        raise PipelineError(f"--points must be positive, not {count}")
    if count > MAX_POINTS:
        raise PipelineError(
            f"--points must be at most {MAX_POINTS}, not {count}")
    pipe = build_pipeline(session)
    rng = random.Random(args.seed)
    points = []
    for _ in range(count):
        while True:
            a = [rng.randrange(fld.p) for _ in range(pipe.rd.c)]
            if any(a):
                break
        points.append(a)
    stables = stable_betti_oracle(pipe.rd, pipe.resolution, points)
    results = []
    for a, stable in zip(points, stables):
        crk = crk_at(pipe.X, a)
        results.append({"point": a, "stable_betti": stable, "crk": crk,
                        "equal": stable == crk})
    return {"points": results,
            "all_equal": all(r["equal"] for r in results)}


def cmd_realize(args) -> dict:
    if not args.chain:
        raise PipelineError("realize needs --chain FILE")
    S, chain = parse_chain_file(_read_text(args.chain))
    X, rep, ok = realize(S, chain)
    out = report_dict(rep)
    out["realized"] = ok
    if not ok:
        raise AssertionError("constructed complex misses a chain plateau")
    return out


# -- dispatch --------------------------------------------------------------


COMMANDS = ("compute", "betti", "dual", "realize", "crk", "oracle")

# flag -> (default, how its value is read: int, a tuple of the choices, or
# None for the text as given)
FLAGS = {"--input": (None, None), "--n": (20, int), "--seed": (0, int),
         "--format": ("json", ("json", "text")), "--output": (None, None),
         "--point": (None, None), "--points": (20, int),
         "--chain": (None, None)}
_HELP = ("-h", "--help")


def _refuse(message: str):
    """A malformed command line: one ``error:`` line and exit 1, with the
    wording argparse used."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _is_flag(word: str) -> bool:
    """Whether ``word`` names a flag rather than a value, as argparse read
    it: it starts with ``-`` and is not ``-`` alone, a negative number or
    a word with a space, unless a flag comes before its ``=``."""
    if word[:1] != "-" or word == "-":
        return False
    if word.partition("=")[0] in (*FLAGS, *_HELP):
        return True
    # ``^-\d+$|^-\d*\.\d+$``: ``$`` matches before a final newline too,
    # and ``\d`` is str.isdecimal
    whole, dot, frac = word[1:].removesuffix("\n").partition(".")
    if (frac if dot else whole).isdecimal() and (
            not dot or not whole or whole.isdecimal()):
        return False
    return " " not in word


def _read(name: str, kind, value: str):
    """The value of a flag (or of the command) as ``kind`` reads it."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _refuse(f"argument {name}: invalid int value: {value!r}")
    if kind and value not in kind:
        _refuse(f"argument {name}: invalid choice: {value!r} (choose from "
                + ", ".join(map(repr, kind)) + ")")
    return value


def parse_command_line(argv) -> SimpleNamespace:
    """The command and the flag values of ``argv``, with the defaults of
    ``FLAGS`` for the flags it does not give."""
    words = list(argv)
    cut = words.index("--") if "--" in words else len(words)
    # each word is a flag (True) or a value (False); every word after a
    # bare ``--`` is a value, and the ``--`` itself (None) is extra unless
    # the command word is next to it
    marked = list(zip(words, [_is_flag(w) for w in words[:cut]] + [None]
                      + [False] * len(words)))
    values = {"command": None, **{f[2:]: d for f, (d, _) in FLAGS.items()}}
    extras = []
    i, at = 0, None
    while i < len(marked):
        word, flag = marked[i]
        i += 1
        name, eq, value = word.partition("=")
        if flag is None:
            if at != i - 1 and (values["command"] or i == len(marked)):
                extras.append(word)
        elif not flag:
            if values["command"] is None:
                values["command"] = _read("command", COMMANDS, word)
                at = i
            else:
                extras.append(word)
        elif name in _HELP:
            if eq:
                _refuse(f"argument -h/--help: ignored explicit argument "
                        f"{value!r}")
            doc = __doc__ or "usage: jumploci\n\n"  # -OO drops docstrings
            usage = doc[doc.index("usage: jumploci"):]
            print(usage[:usage.index("\n\n")].replace("\n    ", "\n"))
            raise SystemExit(0)
        elif name not in FLAGS:
            extras.append(word)
        else:
            if not eq:
                if i == len(marked) or marked[i][1] is not False:
                    _refuse(f"argument {name}: expected one argument")
                value = marked[i][0]
                i += 1
            values[name[2:]] = _read(name, FLAGS[name][1], value)
    if values["command"] is None:
        _refuse("the following arguments are required: command")
    if extras:
        _refuse("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = parse_command_line(sys.argv[1:] if argv is None else argv)
    verbose = os.environ.get("JUMPLOCI_VERBOSE") == "1"
    if verbose:
        GBStats.reset()
    try:
        if args.command == "realize":
            report = cmd_realize(args)
        else:
            if not args.input:
                raise PipelineError(f"{args.command} needs --input FILE")
            session = parse_session(_read_text(args.input))
            handler = {"compute": cmd_compute, "betti": cmd_betti,
                       "dual": cmd_dual, "crk": cmd_crk,
                       "oracle": cmd_oracle}[args.command]
            report = handler(session, args)
        payload = emit_report(report, args.format)
        if args.output is not None:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (SessionError, PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error (internal assertion): {exc}", file=sys.stderr)
        return 2
    finally:
        if verbose:
            stats = GBStats.snapshot()
            print("engine: "
                  + ", ".join(f"{k}={v}" for k, v in stats.items()),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
