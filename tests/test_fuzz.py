"""Fuzzing the input grammars.

Mutated copies of the example session and chain files either parse or
raise a SessionError, and ``crk`` on small generated sessions exits 0, 1
or 2 with no traceback.
"""

import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jumploci.cli import main, parse_chain_file
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


def _mutate(text: str, over_qq: bool, edits) -> str:
    """``text`` without comments, over QQ when ``over_qq``, with each edit
    (op, i, j) applied to its i-th word: dropped, written twice, swapped
    with the j-th word, or, for op "zero", the i-th polynomial entry word
    given a coefficient a/0.  No edit moves another word's position."""
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


@st.composite
def small_sessions(draw):
    """A coker session over k[x, y] with forms of degree at most 3: one or
    two ci generators (pure powers, or random forms), and a presentation
    whose columns are homogeneous, often with the f_k e_r among them so
    that the f annihilate the module.  Over QQ a coefficient may be a/b,
    a/0 included."""
    field = draw(st.sampled_from(["GF(2)", "GF(101)", "QQ"]))
    coeffs = ["0", "1", "-1", "2", "3"]
    if field == "QQ":
        coeffs += ["1/2", "-2/3", "1/0"]

    def form(degree):
        terms = [f"{c}*x^{a}*y^{degree - a}" for a in range(degree + 1)
                 if (c := draw(st.sampled_from(coeffs))) != "0"]
        return " + ".join(terms) or "0"

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
    code = main(argv)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2), (text, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == "") and (code == 0) == bool(out)
