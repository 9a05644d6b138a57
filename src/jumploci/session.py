"""Session and chain files: the line-oriented inputs of the command line
tool.

A session declares the coefficient field, the ambient graded polynomial
ring, the quotient sequence, and the module -- either as the cokernel of
a presentation matrix or as an explicit finite free complex with a
strict multiplication action.  Grammar (one directive per line, ``#``
starts a comment)::

    field GF(101)            # or: field QQ
    ring x, y, z weights 1, 1, 1
    ci x^3, y^3, z^3
    module coker [[x^3, y^3, z^3, x*z, y*z^2]]

    # alternative module input:
    complex d1 [[x^2*y, x*y^2]] d2 [[-y], [x]]
    action e1 [[1], [0]] [[0, x*y]]
    action e2 [[0], [1]] [[-x*y, 0]]

Matrices are written as lists of rows; ``dK`` maps the free module in
homological degree K to the one in degree K-1, and ``action eI`` lists
the blocks F_t -> F_{t+1} for t = 0..L-1.  A chain file for ``realize``
has the same ``field`` and ``ring`` lines, then one ``member`` line per
chain element.  Both are read by one line reader; parsing reports line
and column of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .field import Field, GF, QQ
from .poly import PolyRing
from .matrix import PolyMatrix
from .groebner import Ideal
from .resolution import (RingData, FreeResolution, PipelineError,
                         resolve_over_a, _check_concentration)
from .homotopy import compute_higher_homotopies, ingest_dg_structure
from .twisted import TwistedComplex, build_twisted_complex, s_dual


class SessionError(ValueError):
    """Input error with the offending line (1-based) and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(message + where)


@dataclass
class ModuleInput:
    kind: str                     # "coker" or "complex"
    rows: list = None             # coker: rows of the presentation matrix
    differentials: list = None    # complex: d_1..d_L as PolyMatrix
    actions: list = None          # complex: per e_i, list of L blocks
    degrees: list = None          # complex: inferred generator degrees


@dataclass
class Session:
    ring_data: RingData
    module: ModuleInput

    @property
    def ring(self) -> PolyRing:
        return self.ring_data.ring


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# directive -> (the header it must follow, whether it may appear only once)
_SESSION = {"field": (None, True), "ring": ("field", True),
            "ci": ("ring", True), "module": ("ring", True),
            "complex": ("ring", False), "action": ("ring", False)}
_CHAIN = {"field": (None, True), "ring": ("field", True),
          "member": ("ring", False)}


def _directives(text: str, grammar: dict):
    """Yield (line number, directive, rest, column of rest, line text) for
    each line of ``text`` that is not blank once its comment is cut.  A
    directive outside ``grammar``, one before the header it must follow,
    and a second copy of a header are input errors: a repeat would
    silently replace the first."""
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _NAME.match(line.strip())
        if not m:
            raise SessionError("expected a directive", line_no,
                               len(line) - len(line.lstrip()) + 1)
        directive = m.group(0)
        if directive not in grammar:
            raise SessionError(f"unknown directive '{directive}'", line_no)
        after, once = grammar[directive]
        if once and directive in seen:
            raise SessionError(f"duplicate {directive} declaration", line_no)
        if after is not None and after not in seen:
            raise SessionError(f"{directive} declared before {after}",
                               line_no)
        seen.add(directive)
        rest = line.strip()[len(directive):].strip()
        yield line_no, directive, rest, len(line) - len(rest) + 1, line


def parse_field(text: str, line_no: int) -> Field:
    """The argument of a ``field`` line: ``QQ`` or ``GF(p)``."""
    if text == "QQ":
        return QQ
    gm = re.fullmatch(r"GF\(\s*(\d+)\s*\)", text)
    if not gm:
        raise SessionError(f"unknown field '{text}'", line_no)
    try:
        return GF(int(gm.group(1)))
    except ValueError as exc:
        raise SessionError(str(exc), line_no) from exc


def parse_variable_names(text: str, line_no: int) -> tuple:
    """The comma-separated variable names of a ``ring`` line."""
    if not text.strip():
        raise SessionError("ring needs at least one variable", line_no)
    names = tuple(v.strip() for v in text.split(","))
    for v in names:
        if not _NAME.fullmatch(v):
            raise SessionError(f"bad variable name '{v}'", line_no)
    return names


def split_commas(text: str):
    """Split on top-level commas, keeping each piece's start column."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append((text[start:i], start))
            start = i + 1
    pieces.append((text[start:], start))
    return [(p.strip(), s + len(p) - len(p.lstrip())) for p, s in pieces]


def _polynomials(ring: PolyRing, rest: str, line_no: int, rest_col: int,
                 what: str):
    """The comma-separated polynomials of a ``ci`` or ``member`` line, as
    (polynomial, text, column) triples."""
    out = []
    for piece, off in split_commas(rest):
        try:
            out.append((ring.parse(piece), piece, rest_col + off))
        except ValueError as exc:
            raise SessionError(f"bad {what} '{piece}': {exc}",
                               line_no, rest_col + off) from exc
    return out


def _parse_matrix_text(text: str, pos: int, line_no: int):
    """Parse ``[[e, e], [e, e]]`` starting at ``pos``; return (rows, end).

    Rows are lists of (entry string, column) pairs.
    """
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(pos)
    if i >= n or text[i] != "[":
        raise SessionError("expected '[' opening a matrix", line_no, i + 1)
    i = skip_ws(i + 1)
    rows = []
    while True:
        if i >= n:
            raise SessionError("unterminated matrix", line_no, i)
        if text[i] == "]":
            i += 1
            break
        if text[i] != "[":
            raise SessionError("expected '[' opening a row", line_no, i + 1)
        j = text.find("]", i + 1)
        if j < 0:
            raise SessionError("unterminated row", line_no, i + 1)
        body = text[i + 1:j]
        entries = []
        for piece, off in split_commas(body):
            if not piece:
                raise SessionError("empty matrix entry", line_no, i + 2 + off)
            entries.append((piece, i + 2 + off))
        rows.append(entries)
        i = skip_ws(j + 1)
        if i < n and text[i] == ",":
            i = skip_ws(i + 1)
    return rows, i


def _parse_entries(ring: PolyRing, rows, line_no, require_homogeneous=True):
    """Rows of (text, column) -> rows of Polynomial, with error context."""
    width = None
    out = []
    for row in rows:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SessionError("ragged matrix rows", line_no)
        prow = []
        for text, col in row:
            try:
                p = ring.parse(text)
            except ValueError as exc:
                raise SessionError(f"bad entry '{text}': {exc}",
                                   line_no, col) from exc
            if require_homogeneous and not p.is_homogeneous():
                raise SessionError(f"inhomogeneous entry '{text}'",
                                   line_no, col)
            prow.append(p)
        out.append(prow)
    return out


def parse_session(text: str) -> Session:
    fld = ring = ci = coker_rows = None
    diffs = {}           # label index -> rows (as polynomials)
    actions = {}         # label index -> list of matrices (as rows)
    for line_no, directive, rest, rest_col, line in _directives(text,
                                                                _SESSION):
        if directive == "field":
            fld = parse_field(rest, line_no)

        elif directive == "ring":
            # the keyword only as a word of its own: ``myweights`` is a name
            parts = re.split(r"(?<!\S)weights(?!\S)", rest, maxsplit=1)
            names = parse_variable_names(parts[0], line_no)
            weights = ()
            if len(parts) == 2:
                try:
                    weights = tuple(int(w) for w in parts[1].split(","))
                except ValueError:
                    raise SessionError("weights must be integers", line_no)
            try:
                ring = PolyRing(fld, names, weights)
            except ValueError as exc:
                raise SessionError(str(exc), line_no)

        elif directive == "ci":
            ci = []
            for f, piece, col in _polynomials(ring, rest, line_no, rest_col,
                                              "element"):
                if f.is_zero():
                    raise SessionError(f"ci generator '{piece}' is zero",
                                       line_no, col)
                if not f.is_homogeneous():
                    raise SessionError(f"inhomogeneous element '{piece}'",
                                       line_no, col)
                if f.is_constant():
                    raise SessionError(
                        f"'{piece}' is not in the irrelevant maximal ideal",
                        line_no, col)
                ci.append(f)

        elif directive == "module":
            if not rest.startswith("coker"):
                raise SessionError("module input must be 'coker [[...]]'",
                                   line_no)
            pos = line.find("coker") + len("coker")
            rows, end = _parse_matrix_text(line, pos, line_no)
            if line[end:].strip():
                raise SessionError("trailing text after matrix", line_no,
                                   end + 1)
            coker_rows = _parse_entries(ring, rows, line_no)

        elif directive == "complex":
            pos = line.find(directive) + len(directive)
            while line[pos:].strip():
                lm = _NAME.match(line[pos:].lstrip())
                if lm is None or not re.fullmatch(r"d\d+", lm.group(0)):
                    raise SessionError("expected a differential label dK",
                                       line_no, pos + 1)
                label = lm.group(0)
                k = int(label[1:])
                pos = line.index(label, pos) + len(label)
                rows, pos = _parse_matrix_text(line, pos, line_no)
                if k in diffs:
                    raise SessionError(f"duplicate differential {label}",
                                       line_no)
                diffs[k] = _parse_entries(ring, rows, line_no,
                                          require_homogeneous=False)

        else:  # action
            pos = line.find(directive) + len(directive)
            lm = _NAME.match(line[pos:].lstrip())
            if lm is None or not re.fullmatch(r"e\d+", lm.group(0)):
                raise SessionError("expected an action label eI",
                                   line_no, pos + 1)
            label = lm.group(0)
            idx = int(label[1:])
            pos = line.index(label, pos) + len(label)
            blocks = []
            while line[pos:].strip():
                rows, pos = _parse_matrix_text(line, pos, line_no)
                blocks.append(_parse_entries(ring, rows, line_no,
                                             require_homogeneous=False))
            if idx in actions:
                raise SessionError(f"duplicate action {label}", line_no)
            actions[idx] = blocks

    if fld is None:
        raise SessionError("missing field declaration")
    if ring is None:
        raise SessionError("missing ring declaration")
    if ci is None:
        raise SessionError("missing ci declaration")
    try:
        rd = RingData(ring, ci)
    except (ValueError, PipelineError) as exc:
        raise SessionError(str(exc))

    if coker_rows is not None and diffs:
        raise SessionError("give either a coker module or a complex, not both")
    if coker_rows is not None:
        module = ModuleInput("coker", rows=coker_rows)
    elif diffs:
        labels = sorted(diffs)
        if labels != list(range(1, len(labels) + 1)):
            raise SessionError("differentials must be labelled d1..dL "
                               "consecutively")
        matrices, degrees = _assemble_complex(ring, [diffs[k] for k in labels])
        if sorted(actions) != list(range(1, rd.c + 1)):
            raise SessionError(
                f"a complex module needs actions e1..e{rd.c}")
        acts = [[PolyMatrix.from_rows(ring, rows) for rows in actions[i]]
                for i in range(1, rd.c + 1)]
        module = ModuleInput("complex", differentials=matrices,
                             actions=acts, degrees=degrees)
    else:
        raise SessionError("missing module declaration")
    return Session(rd, module)


def parse_chain_file(text: str):
    """A chain file: ``field`` and ``ring`` lines as in a session (the
    operator ring, each variable of weight 2, with no ``weights``), then
    one ``member`` line per chain element.  ``member 0`` is the zero ideal
    (all of Spec S) and ``member 1`` the unit ideal (the empty set)."""
    fld = ring = None
    chain = []
    for line_no, directive, rest, rest_col, _ in _directives(text, _CHAIN):
        if directive == "field":
            fld = parse_field(rest, line_no)
        elif directive == "ring":
            names = parse_variable_names(rest, line_no)
            try:
                ring = PolyRing(fld, names, (2,) * len(names))
            except ValueError as exc:
                raise SessionError(str(exc), line_no) from exc
        else:  # member
            gens = _polynomials(ring, rest, line_no, rest_col, "generator")
            chain.append(Ideal(ring, [g for g, _, _ in gens
                                      if not g.is_zero()]))
    if ring is None or not chain:
        raise SessionError("chain file needs a ring and members")
    return ring, chain


def _assemble_complex(ring: PolyRing, diff_rows):
    """Build PolyMatrix differentials and infer the generator degrees.

    Generators of the 0-th free module sit in internal degree 0; each
    later degree is forced by homogeneity of the matrix columns.
    """
    matrices = []
    degrees = [[0] * len(diff_rows[0])]
    for k, rows in enumerate(diff_rows, start=1):
        mat = PolyMatrix.from_rows(ring, rows)
        if mat.nrows != len(degrees[-1]):
            raise SessionError(
                f"d{k} has {mat.nrows} rows but the target has "
                f"{len(degrees[-1])} generators")
        col_degs = []
        for j in range(mat.ncols):
            deg = None
            for (r, c), p in mat.entries.items():
                if c != j or p.is_zero():
                    continue
                if not p.is_homogeneous():
                    raise SessionError(f"inhomogeneous entry in d{k}")
                d = degrees[-1][r] + p.degree()
                if deg is None:
                    deg = d
                elif deg != d:
                    raise SessionError(f"column {j + 1} of d{k} is not "
                                       "homogeneous")
            if deg is None:
                raise SessionError(f"column {j + 1} of d{k} is zero; its "
                                   "degree cannot be inferred")
            col_degs.append(deg)
        matrices.append(mat)
        degrees.append(col_degs)
    for a, b in zip(matrices, matrices[1:]):
        if not (a @ b).is_zero():
            raise SessionError("differentials do not compose to zero")
    return matrices, degrees


# -- pipeline glue ---------------------------------------------------------


@dataclass
class Pipeline:
    """Everything the commands need, built once from a session."""

    rd: RingData
    resolution: FreeResolution
    X: TwistedComplex

    @cached_property
    def X_dual(self) -> TwistedComplex:
        """X(M*) = s_dual(X), formed on first read."""
        return s_dual(self.X)

    @cached_property
    def dual_is_module(self) -> bool:
        """Whether M has a dual module M*, whose Betti numbers ``betti``
        prints: Hom_A(F, A) is concentrated.  A resolution of length 0
        resolves the zero module here (f annihilates no nonzero free
        module), and ``betti`` prints no dual for it.  Otherwise it is
        decided on the stage-1 run that the resolution of a cokernel
        keeps; a pipeline built from a complex keeps none and raises
        PipelineError."""
        res = self.resolution
        if res.length and 1 not in res.image_bases:
            raise PipelineError(
                "the dual module is decided for a module given as a "
                "cokernel only")
        return res.length > 0 and _check_concentration(res)


def build_pipeline(session: Session) -> Pipeline:
    rd = session.ring_data
    mod = session.module
    if mod.kind == "coker":
        res = resolve_over_a(rd, PolyMatrix.from_rows(rd.ring, mod.rows))
        sys = compute_higher_homotopies(res, rd)
    else:
        res = FreeResolution(rd, mod.differentials, mod.degrees,
                             complete=True)
        sys = ingest_dg_structure(res, mod.actions, rd)
    X = build_twisted_complex(sys, rd)
    return Pipeline(rd, res, X)
