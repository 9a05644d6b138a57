"""Fuzzing the input grammars.

Mutated copies of the example session and chain files either parse or
raise a SessionError.  ``oracle --points 2`` on mutated session files,
``crk`` and ``oracle --points 2`` on small generated coker sessions,
``compute``, ``dual``, ``crk``, ``betti`` and ``oracle --points 2`` on
small generated complex sessions and ``realize`` on mutated chain files
exit 0, 1 or 2 with no traceback, and print one ``error:`` line exactly
when they do not exit 0.
"""

import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jumploci.cli import main, parse_chain_file
from jumploci.poly import MAX_NESTING
from jumploci.session import SessionError, parse_session

from conftest import CHAINS, SESSIONS

FILES = {p.name: p.read_text() for p in
         sorted(SESSIONS.glob("*.session")) + sorted(CHAINS.glob("*.chain"))}

# a blank run, a word or one other character
_PIECE = re.compile(r"\s+|\w+|[^\w\s]")

# the lines whose words after the directive are polynomial entries
_ENTRY_LINES = ("ci", "module", "complex", "action", "member")

EDITS = st.lists(st.tuples(st.sampled_from(["drop", "dup", "swap", "zero"]),
                           st.integers(0, 999), st.integers(0, 999)),
                 min_size=1, max_size=4)
COKER_FILES = sorted(name for name, text in FILES.items()
                     if "module coker" in text)
TRADES = st.lists(st.tuples(st.just("trade"), st.integers(0, 999),
                            st.integers(0, 999)), min_size=1, max_size=3)


def _mutate(text: str, over_qq: bool, edits) -> str:
    """``text`` without comments, over QQ when ``over_qq``, with each edit
    (op, i, j) applied to its i-th word: dropped, written twice, swapped
    with the j-th word, or, for op "zero", the i-th polynomial entry word
    given a coefficient a/0, and for op "trade", swapped with the j-th
    when both are variables or both are numbers.  No edit moves another
    word's position."""
    text = re.sub(r"#.*", "", text)
    if over_qq:
        text = re.sub(r"GF\(\s*\d+\s*\)", "QQ", text)
    pieces = _PIECE.findall(text)
    words, entries, directive = [], [], None
    for k, p in enumerate(pieces):
        if "\n" in p:
            directive = None
        elif not p.isspace():
            words.append(k)
            if directive is None:
                directive = p
            elif (directive in _ENTRY_LINES and re.fullmatch(r"\w+", p)
                  and not re.fullmatch(r"[de]\d+|coker", p)):
                entries.append(k)
    for op, i, j in edits:
        a, b = words[i % len(words)], words[j % len(words)]
        if op == "drop":
            pieces[a] = ""
        elif op == "dup":
            pieces[a] *= 2
        elif op == "swap":
            pieces[a], pieces[b] = pieces[b], pieces[a]
        elif entries and op == "trade":
            k, m = entries[i % len(entries)], entries[j % len(entries)]
            if pieces[k].isdigit() == pieces[m].isdigit():
                pieces[k], pieces[m] = pieces[m], pieces[k]
        elif entries:
            k = entries[i % len(entries)]
            pieces[k] = f"{j % 9 + 1}/0*{pieces[k]}"
    return "".join(pieces)


@settings(max_examples=150, deadline=2000, database=None)
@given(st.sampled_from(sorted(FILES)), st.booleans(), EDITS)
@example("complete_flag.chain", True, [("zero", 0, 0)])
@example("koszul_residue.session", True, [("zero", 5, 2)])
def test_mutated_inputs_raise_only_session_errors(name, over_qq, edits):
    parse = parse_chain_file if name.endswith(".chain") else parse_session
    try:
        parse(_mutate(FILES[name], over_qq, edits))
    except SessionError:
        pass


@settings(max_examples=40, deadline=10000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(COKER_FILES), TRADES)
@example("flag.session", [("trade", 3, 4)])
def test_oracle_on_mutated_sessions_exits_cleanly(capfd, tmp_path, name,
                                                  edits):
    """Variables and numbers traded between the entries of a cokernel
    session keep it readable, so these sessions reach the pipeline, and
    those whose f still annihilates M reach the oracle itself."""
    path = tmp_path / "mutated.session"
    path.write_text(_mutate(FILES[name], False, edits))
    _run(capfd, ["oracle", "--input", str(path), "--points", "2"])


def _run(capfd, argv):
    """Run the command line; assert a documented exit code, no traceback,
    and one ``error:`` line on stderr exactly when the code is not 0."""
    code = main(argv)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error") and err.count("\n") == 1, err
    else:
        assert err == "" and out
    return code, out, err


def _form_drawer(draw, field, zero_denominators=True):
    """A function giving a random form in x, y of a degree over ``field``
    (the zero form when every drawn coefficient is 0).  Over QQ a
    coefficient may be a/b, and a/0 when ``zero_denominators``."""
    coeffs = ["0", "1", "-1", "2", "3"]
    if field == "QQ":
        coeffs += ["1/2", "-2/3"] + ["1/0"] * zero_denominators

    def form(degree):
        terms = [f"{c}*x^{a}*y^{degree - a}" for a in range(degree + 1)
                 if (c := draw(st.sampled_from(coeffs))) != "0"]
        return " + ".join(terms) or "0"
    return form


FIELDS = st.sampled_from(["GF(2)", "GF(101)", "QQ"])


@st.composite
def small_sessions(draw):
    """A coker session over k[x, y] with forms of degree at most 3: one or
    two ci generators (pure powers, or random forms), and a presentation
    whose columns are homogeneous, often with the f_k e_r among them so
    that the f annihilate the module."""
    field = draw(FIELDS)
    form = _form_drawer(draw, field)
    c = draw(st.integers(1, 2))
    if draw(st.booleans()):
        ci = [f"{v}^{draw(st.integers(1, 3))}" for v in "xy"[:c]]
    else:
        ci = [form(draw(st.integers(1, 3))) for _ in range(c)]
    nrows = draw(st.integers(1, 2))
    columns = []
    if draw(st.booleans()):
        columns += [[f if r == s else "0" for s in range(nrows)]
                    for f in ci for r in range(nrows)]
    for _ in range(draw(st.integers(0 if columns else 1, 3))):
        degree = draw(st.integers(0, 3))
        columns.append([form(degree) for _ in range(nrows)])
    rows = ", ".join("[" + ", ".join(col[r] for col in columns) + "]"
                     for r in range(nrows))
    text = (f"field {field}\nring x, y\nci {', '.join(ci)}\n"
            f"module coker [{rows}]\n")
    point = draw(st.sampled_from([None, "1", "0,0", "2,1", "1/0,1", "a,b"]))
    return text, point


@settings(max_examples=40, deadline=10000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_sessions())
def test_crk_on_small_sessions_exits_cleanly(capfd, tmp_path, case):
    text, point = case
    path = tmp_path / "small.session"
    path.write_text(text)
    argv = ["crk", "--input", str(path)]
    if point is not None:
        argv += ["--point", point]
    _run(capfd, argv)


@settings(max_examples=40, deadline=10000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_sessions())
def test_oracle_on_small_sessions_exits_cleanly(capfd, tmp_path, case):
    text, _ = case
    path = tmp_path / "small.session"
    path.write_text(text)
    _run(capfd, ["oracle", "--input", str(path), "--points", "2"])


@st.composite
def complex_sessions(draw):
    """A session over k[x, y] whose module is the Koszul complex on forms
    g1, g2 of degree 1 or 2, with d1 = [g1, g2] and d2 = [-g2; g1].  Each
    f_i is written as a_i1 g1 + a_i2 g2, and e_i has the blocks [a_i1; a_i2]
    and [-a_i2, a_i1], a strict action.  Often one edit breaks it: a block
    dropped, an entry replaced by a random form, or an action left out."""
    field = draw(FIELDS)
    form = _form_drawer(draw, field, zero_denominators=False)
    g_degrees = [draw(st.integers(1, 2)) for _ in range(2)]
    g = [form(d) for d in g_degrees]
    c = draw(st.integers(1, 2))
    ci, actions, coefficients = [], [], []
    for _ in range(c):
        degree = draw(st.integers(2, 3))
        a = [form(degree - d) for d in g_degrees]
        coefficients.append(a)
        ci.append(f"({a[0]})*({g[0]}) + ({a[1]})*({g[1]})")
        actions.append([f"[[{a[0]}], [{a[1]}]]", f"[[-({a[1]}), {a[0]}]]"])
    edit = draw(st.sampled_from(["none"] * 3 + ["drop block", "entry",
                                              "drop action"]))
    i = draw(st.integers(0, c - 1))
    if edit == "drop block":
        del actions[i][draw(st.integers(0, 1))]
    elif edit == "entry":
        entry = form(draw(st.integers(0, 2)))
        actions[i][0] = f"[[{entry}], [{coefficients[i][1]}]]"
    elif edit == "drop action":
        del actions[i]
    text = (f"field {field}\nring x, y\nci {', '.join(ci)}\n"
            f"complex d1 [[{g[0]}, {g[1]}]] d2 [[-({g[1]})], [{g[0]}]]\n"
            + "".join(f"action e{k} {' '.join(blocks)}\n"
                      for k, blocks in enumerate(actions, start=1)))
    return text


@settings(max_examples=25, deadline=10000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(complex_sessions())
def test_commands_on_small_complex_sessions_exit_cleanly(capfd, tmp_path,
                                                         text):
    path = tmp_path / "small.session"
    path.write_text(text)
    for command in ("compute", "dual", "crk", "betti"):
        _run(capfd, [command, "--input", str(path)])
    _run(capfd, ["oracle", "--input", str(path), "--points", "2"])


@settings(max_examples=60, deadline=5000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans(), EDITS)
@example(True, [("zero", 0, 0)])
def test_realize_on_mutated_chains_exits_cleanly(capfd, tmp_path, over_qq,
                                                 edits):
    path = tmp_path / "mutated.chain"
    path.write_text(_mutate(FILES["complete_flag.chain"], over_qq, edits))
    _run(capfd, ["realize", "--chain", str(path)])


@pytest.mark.parametrize("depth", [100, 101, 400, 5000])
def test_deep_parentheses_exit_cleanly(capfd, tmp_path, depth):
    """A ``ci`` element nested in ``depth`` parentheses: up to
    ``MAX_NESTING`` levels it computes, and past it the run ends in one
    ``error:`` line with exit 1, not in the RecursionError of a recursive
    descent deeper than the interpreter allows."""
    path = tmp_path / "deep.session"
    path.write_text(f"field GF(101)\nring x, y\n"
                    f"ci {'(' * depth}x{')' * depth}^2, y^2\n"
                    f"module coker [[x, y]]\n")
    code, _, err = _run(capfd, ["compute", "--input", str(path)])
    assert code == (0 if depth <= MAX_NESTING else 1)
    assert code == 0 or "nest deeper than the limit" in err
