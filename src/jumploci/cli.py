"""Command line front end.

Usage::

    jumploci <compute|betti|dual|realize|crk|oracle> --input FILE
             [--n INT] [--seed INT] [--format json|text] [--output FILE]
             [--point a1,..,ac] [--points K] [--chain FILE]

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

The unit ideal (empty variety) serializes as ``["1"]`` and the zero
ideal (all of Spec S) as ``[]``; the final unbounded plateau of empty
loci is recorded with ``i_to`` equal to ``i_from`` and dimension -1.
``dual`` adds to the ``compute`` report whether the Betti and Bass
degrees agree; X(M*) = s_dual(X) has the minor ideals of X, so a printed
``per_index_equal`` is always true.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .groebner import Ideal, GBStats
from .resolution import PipelineError, TruncationNeeded, fit_quasi_polynomial
from .loci import (jump_loci_report, betti_degree, betti_numbers, crk_at,
                   realize, section_degree, stable_betti_oracle,
                   JumpLociReport)
from .session import (Session, SessionError, parse_session, build_pipeline,
                      parse_chain_file)

# Largest truncation ``betti`` accepts: ``betti --n 100000`` on the flag
# session takes a few seconds, and the list of Betti numbers grows with n.
MAX_TRUNCATION = 100_000

# Most points ``oracle`` samples: past one basis of M per command, a point
# costs the eliminations of its Tate complex and of D at the point, about
# 0.4 ms on the flag session (1,000 points in 0.42 s, in process, on a
# shared 2-vCPU VM) and up to about 7 ms at ``loci.MAX_TATE_DIM``; past
# it a point resolves M over its section, 0.2-70 ms on the sessions and
# bench inputs.
MAX_POINTS = 1_000


# -- report assembly -------------------------------------------------------


def _ideal_strings(I: Ideal):
    """The generators of a jump ideal, which ``jump_locus_ideal`` reduced."""
    if I.is_unit_ideal():
        return ["1"]
    if I.is_zero_ideal():
        return []
    return [str(g) for g in I.gens]


def _loci_entries(rep: JumpLociReport):
    """Plateau list: one entry per jump number plus the final empty set."""
    entries = []
    by_index = {i: (I, d) for i, I, d in rep.per_index}
    prev = 0
    for j in rep.jump_numbers:
        I, dim = by_index[j]
        entries.append({"i_from": prev + 1, "i_to": j,
                        "ideal": _ideal_strings(I), "dim": dim})
        prev = j
    entries.append({"i_from": prev + 1, "i_to": prev + 1,
                    "ideal": ["1"], "dim": -1})
    return entries


def report_dict(rep: JumpLociReport, bass_degree=None, duality=None):
    return {
        "rank": rep.rank,
        "jump_numbers": list(rep.jump_numbers),
        "loci": _loci_entries(rep),
        "complexity": rep.complexity,
        "betti_degree": rep.betti_degree,
        "bass_degree": bass_degree,
        "duality": duality,
    }


def emit_report(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=2) + "\n").encode("utf-8")
    return (_report_text(report) + "\n").encode("utf-8")


def _report_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if key == "loci" and isinstance(value, list):
            lines.append(f"{indent}loci:")
            for entry in value:
                ideal = ", ".join(entry["ideal"]) or "0"
                lines.append(
                    f"{indent}  i = {entry['i_from']}..{entry['i_to']}: "
                    f"({ideal})  dim {entry['dim']}")
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_report_text(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: "
                         + ", ".join(str(v) for v in value))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


# -- commands --------------------------------------------------------------


def _read_text(path: str) -> str:
    """A session or chain file as text; bytes that are not UTF-8 are an
    input error naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SessionError("the file is not valid UTF-8", line) from exc


def cmd_compute(session: Session, args) -> dict:
    pipe = build_pipeline(session)
    rep = jump_loci_report(pipe.X)
    return report_dict(rep, bass_degree=betti_degree(pipe.X_dual))


def cmd_dual(session: Session, args) -> dict:
    out = cmd_compute(session, args)
    # I_t(D^T) = I_t(D): the loci of X(M*) are those of X by construction
    out["duality"] = {"per_index_equal": True,
                      "bdeg_equal": out["betti_degree"] == out["bass_degree"]}
    return out


def _quasi_dict(qp):
    return {"even": [str(c) for c in qp.q_ev],
            "odd": [str(c) for c in qp.q_odd],
            "valid_from": qp.valid_from}


def _betti_block(X, n: int) -> dict:
    """beta_0..beta_n of the module with twisted complex X, and the
    quasi-polynomial fit of their tail (or why it failed)."""
    beta = betti_numbers(X, n)
    out = {"betti": {str(i): b for i, b in sorted(beta.items())}}
    try:
        # the fit reads beta_0..beta_n, with the zeros past a finite
        # resolution that the printed dict leaves out
        out["quasi"] = _quasi_dict(fit_quasi_polynomial(
            {i: beta.get(i, 0) for i in range(n + 1)}, n + 1))
    except TruncationNeeded as exc:
        out["quasi"] = {"error": str(exc)}
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
    pipe = build_pipeline(session)
    if args.point:
        point = _parse_point(args.point, session)
        value = crk_at(pipe.X, point)
        return {"point": [str(a) for a in point], "crk": value}
    value = crk_at(pipe.X, None)
    return {"point": None, "crk": value}


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


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Cohomological jump loci of modules over "
                    "complete-intersection quotients.")
    parser.add_argument("command",
                        choices=["compute", "betti", "dual", "realize",
                                 "crk", "oracle"])
    parser.add_argument("--input", help="session file")
    parser.add_argument("--n", type=int, default=20,
                        help="last Betti number to compute (betti)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--output", default=None)
    parser.add_argument("--point", default=None,
                        help="comma-separated coordinates (crk)")
    parser.add_argument("--points", type=int, default=20,
                        help="number of sample points (oracle)")
    parser.add_argument("--chain", default=None,
                        help="chain file (realize)")
    # a malformed command line is an input error: one ``error:`` line and
    # exit 1, with no usage block
    parser.error = lambda message: parser.exit(1, f"error: {message}\n")
    return parser


def main(argv=None) -> int:
    parser = build_argument_parser()
    args = parser.parse_args(argv)
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
        if args.output:
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
