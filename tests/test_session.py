"""Session file parsing, printing, and pipeline assembly."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumploci import resolution, twisted
from jumploci.field import GF, QQ
from jumploci.groebner import ModuleGB
from jumploci.poly import MAX_NESTING, _TOKEN
from jumploci.resolution import PipelineError
from jumploci.session import (Session, SessionError, parse_session,
                              build_pipeline, parse_field, _is_label,
                              _split_at_weights)
from jumploci.cli import parse_chain_file

from conftest import REPO, SESSIONS, CHAINS
from oracles import dual_presentation, print_session

FIXTURES = ["flag.session", "final.session", "koszul_residue.session",
            "dg_nonregular.session", "perfect.session"]


def _read(name):
    return (SESSIONS / name).read_text()


# -- parsing fixtures ------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_parses(name):
    session = parse_session(_read(name))
    assert isinstance(session, Session)
    assert session.ring_data.ring.nvars >= 1
    assert len(session.ring_data.ci) >= 1


@pytest.mark.parametrize("name", FIXTURES)
def test_print_parse_round_trip(name):
    session = parse_session(_read(name))
    canonical = print_session(session)
    assert print_session(parse_session(canonical)) == canonical


def test_flag_session_contents():
    session = parse_session(_read("flag.session"))
    assert session.ring.variables == ("x", "y", "z")
    assert [str(f) for f in session.ring_data.ci] == ["x^3", "y^3", "z^3"]
    assert session.module.kind == "coker"
    assert len(session.module.rows[0]) == 5


def test_complex_session_contents():
    session = parse_session(_read("koszul_residue.session"))
    assert session.module.kind == "complex"
    assert len(session.module.differentials) == 2
    assert len(session.module.actions) == 2
    assert session.module.differentials[0].nrows == 1


def test_comments_and_blank_lines_ignored():
    text = ("# header\n\nfield GF(101)\n"
            "ring x, y   # inline comment\n"
            "ci x^2, y^2\n\nmodule coker [[x, y]]\n")
    session = parse_session(text)
    assert session.module.kind == "coker"


def test_rational_field():
    text = "field QQ\nring x\nci x^2\nmodule coker [[x]]\n"
    session = parse_session(text)
    assert session.ring.field.p == 0


# -- error reporting -------------------------------------------------------


def _err(text):
    with pytest.raises(SessionError) as exc_info:
        parse_session(text)
    return exc_info.value


def test_nonprime_field_rejected():
    err = _err("field GF(4)\nring x\nci x^2\nmodule coker [[x]]\n")
    assert "4 is not prime" in str(err) and err.line == 1


def test_unknown_field_rejected():
    assert "unknown field" in str(_err("field RR\nring x\nci x^2\n"
                                       "module coker [[x]]\n"))


def test_inhomogeneous_entry_located():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "module coker [[x + 1, y]]\n")
    assert "inhomogeneous entry 'x + 1'" in str(err)
    assert err.line == 4 and err.column is not None


def test_unknown_variable_in_entry():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "module coker [[x, w]]\n")
    assert "bad entry" in str(err) and err.line == 4


def test_oversized_exponent_located():
    err = _err("field GF(101)\nring x, y\nci x^2, y^99999999\n"
               "module coker [[x, y]]\n")
    assert "exceeds the limit" in str(err) and err.line == 3
    assert err.column == 9
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "module coker [[x, y^1001]]\n")
    assert "exceeds the limit" in str(err) and err.line == 4
    assert err.column == 19


def test_parentheses_nest_up_to_the_limit():
    """``MAX_NESTING`` levels of parentheses parse; one more is an input
    error located at its entry, not a RecursionError."""
    text = "field GF(101)\nring x, y\nci {}^2, y^2\nmodule coker [[x, y]]\n"

    def nested(depth):
        return text.format("(" * depth + "x" + ")" * depth)

    assert parse_session(nested(MAX_NESTING)).ring_data.ci == \
        parse_session(nested(0)).ring_data.ci
    for depth in (MAX_NESTING + 1, 5000):
        err = _err(nested(depth))
        assert f"nest deeper than the limit {MAX_NESTING}" in str(err)
        assert "bad element" in str(err)
        assert err.line == 3 and err.column == 4


def test_duplicate_variable_rejected():
    err = _err("field GF(101)\nring x, x\nci x^2\nmodule coker [[x]]\n")
    assert "duplicate variable name 'x'" in str(err) and err.line == 2


def test_ring_weights_keyword_is_a_word_of_its_own():
    """A variable whose name contains ``weights`` is a name, not the
    keyword; the keyword itself still splits the line."""
    body = "ci y^2\nmodule coker [[y]]\n"
    session = parse_session(f"field GF(101)\nring myweights, y\n{body}")
    assert session.ring.variables == ("myweights", "y")
    assert session.ring.weights == (1, 1)
    session = parse_session(f"field GF(101)\nring x, y weights 1, 2\n{body}")
    assert session.ring.variables == ("x", "y")
    assert session.ring.weights == (1, 2)
    err = _err(f"field GF(101)\nring x weights a\n{body}")
    assert str(err) == "weights must be integers (line 2)"


def test_ragged_rows_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "module coker [[x, y], [x]]\n")
    assert "ragged" in str(err)


def test_missing_directives_reported():
    assert "missing field" in str(_err("# no directive\n"))
    assert "missing ring" in str(_err("field GF(101)\n"))
    assert "missing ci" in str(_err("field GF(101)\nring x\n"
                                    "module coker [[x]]\n"))
    assert "missing module" in str(_err("field GF(101)\nring x\nci x^2\n"))


def test_declaration_order_enforced():
    assert "ring declared before field" in str(_err("ring x\n"))
    assert "ci declared before ring" in str(_err("field GF(101)\nci x^2\n"
                                                 "ring x\n"))


def test_constant_ci_element_rejected():
    err = _err("field GF(101)\nring x\nci 5\nmodule coker [[x]]\n")
    assert "irrelevant maximal ideal" in str(err)


@pytest.mark.parametrize("ci, message", [
    ("x^2, x + y^2", "inhomogeneous element 'x + y^2' (line 3, column 9)"),
    ("x^2, 5", "'5' is not in the irrelevant maximal ideal "
               "(line 3, column 9)"),
])
def test_the_parser_is_the_one_check_of_the_ci_generators(ci, message):
    """``RingData`` checks nothing: the parser refuses an inhomogeneous or
    a constant ci generator and names its line and column (a zero one is
    pinned in ``tests/test_cli.py``)."""
    err = _err(f"field GF(101)\nring x, y\nci {ci}\nmodule coker [[x, y]]\n")
    assert str(err) == message


def test_both_module_kinds_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "module coker [[x, y]]\n"
               "complex d1 [[x, y]]\n")
    assert "not both" in str(err)


def test_action_lines_next_to_a_coker_module_are_rejected():
    """``action`` lines beside a ``module coker`` line were read and then
    dropped, so the session printed the cokernel's report; they are an
    input error at the first of them, and "not both" still comes first."""
    body = ("field GF(101)\nring x, y\nci x^2, y^2\n"
            "module coker [[x, y]]\n")
    err = _err(body + "action e1 [[1]]\naction e7 [[x, y]]\n")
    assert str(err) == ("action lines need a module given as a complex "
                        "(line 5)")
    assert (err.line, err.column) == (5, None)
    err = _err(body + "complex d1 [[x, y]]\naction e1 [[1]]\n")
    assert str(err) == "give either a coker module or a complex, not both"


def test_duplicate_differential_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "complex d1 [[x, y]]\ncomplex d1 [[x, y]]\n")
    assert "duplicate differential" in str(err)


def test_gapped_differential_labels_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "complex d1 [[x, y]]\ncomplex d3 [[x], [y]]\n"
               "action e1 [[x],[0]] [[0, x]]\n"
               "action e2 [[0],[y]] [[-y, 0]]\n")
    assert "d1..dL" in str(err)


def test_nonzero_composition_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "complex d1 [[x, y]]\ncomplex d2 [[y], [x]]\n"
               "action e1 [[x],[0]] [[0, x]]\n"
               "action e2 [[0],[y]] [[-y, 0]]\n")
    assert "compose to zero" in str(err)


def test_zero_column_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "complex d1 [[x, 0]]\n"
               "action e1 [[x, 0]]\naction e2 [[0, 0]]\n")
    assert "zero" in str(err)


@pytest.mark.parametrize("complex_, message", [
    ("d1 [[x, x + y^2]]", "column 2 of d1 is not homogeneous"),
    ("d1 [[x, y], [y^2, x]]", "column 1 of d1 is not homogeneous"),
    ("d1 [[x, y^2]] d2 [[y], [x]]", "column 1 of d2 is not homogeneous"),
    ("d1 [[x, 0]]", "column 2 of d1 is zero; its degree cannot be inferred"),
    ("d1 [[x, y]] d2 [[0], [0]]",
     "column 1 of d2 is zero; its degree cannot be inferred"),
])
def test_a_dg_column_is_read_as_a_presentation_column(complex_, message):
    """Each column of a dg differential has the one degree of its terms,
    each read in the degree of its row (``column_degree``): an
    inhomogeneous entry and terms whose degrees disagree across rows are
    the same error, naming the column."""
    err = _err(f"field GF(101)\nring x, y\nci x^2, y^2\ncomplex {complex_}\n")
    assert str(err) == message


@pytest.mark.parametrize("name, degrees", [
    ("koszul_residue.session", [[0], [1, 1], [2]]),
    ("dg_nonregular.session", [[0], [3, 3], [4]]),
    ("koszul_summand.session", [[0, 0], [1, 1, 0], [2]]),
])
def test_the_generator_degrees_of_a_complex_are_inferred(name, degrees):
    """F_0 sits in degree 0, and each later generator in the degree of its
    column."""
    assert parse_session(_read(name)).module.degrees == degrees


def test_unterminated_matrix_rejected():
    err = _err("field GF(101)\nring x\nci x^2\nmodule coker [[x\n")
    assert "unterminated" in str(err)


def test_unknown_directive_rejected():
    assert "unknown directive" in str(_err("fiend GF(101)\n"))


def test_unknown_option_rejected():
    """A session sets no options: every ``option`` line is an unknown
    directive."""
    for name in ("colour blue", "seed 3", "truncation 9", "output out.json"):
        err = _err("field GF(101)\nring x\nci x^2\nmodule coker [[x]]\n"
                   f"option {name}\n")
        assert str(err) == "unknown directive 'option' (line 5)"


# -- pipeline assembly -----------------------------------------------------


def test_build_pipeline_coker():
    pipeline = build_pipeline(parse_session(_read("final.session")))
    assert pipeline.X.rank == sum(pipeline.resolution.betti().values())
    assert "X_dual" not in vars(pipeline)   # formed on first read only


def test_build_pipeline_coker_with_dual():
    pipeline = build_pipeline(parse_session(_read("final.session")))
    assert "X_dual" not in vars(pipeline)
    assert pipeline.X_dual is vars(pipeline)["X_dual"]
    assert pipeline.X_dual.rank == pipeline.X.rank
    assert pipeline.dual_is_module
    assert dual_presentation(pipeline.resolution) is not None


@pytest.mark.parametrize("name, twin, caller, unit", [
    ("final_unit.session", "final.session", "split_unit_entries", (0, 3)),
    ("koszul_summand.session", "koszul_residue.session", "minimalize",
     (4, 1)),
])
def test_an_example_enters_each_unit_cancelling_loop(monkeypatch, name, twin,
                                                      caller, unit):
    """``final_unit`` cancels the one unit of its presentation and
    ``koszul_summand`` the one unit of its X, each through the one loop
    ``matrix.cancel_units``: the first from ``split_unit_entries``, the
    second from ``minimalize``, and each (r, c) is yielded with its row
    and column already gone.  Each then has the X of its twin."""
    Y = build_pipeline(parse_session(_read(twin))).X
    cancelled = {"split_unit_entries": [], "minimalize": []}
    for module, who in ((resolution, "split_unit_entries"),
                        (twisted, "minimalize")):
        def counting(entries, field, loop=module.cancel_units,
                     got=cancelled[who]):
            for r, c in loop(entries, field):
                assert not [k for k in entries if k[0] == r or k[1] == c]
                got.append((r, c))
                yield r, c

        monkeypatch.setattr(module, "cancel_units", counting)
    X = build_pipeline(parse_session(_read(name))).X
    assert cancelled == {"split_unit_entries": [], "minimalize": [],
                         caller: [unit]}
    assert (X.basis_degrees, X.D) == (Y.basis_degrees, Y.D)


# x^2 - y^2, x*y is a regular sequence whose ideal is not monomial
_BINOMIAL_CI = ("field GF(101)\nring x, y\nci x^2 - y^2, x*y\n"
                "module coker [[x, y]]\n")


@pytest.mark.parametrize("name", ["final.session", "flag.session",
                                  "perfect.session", "binomial-ci"])
def test_build_pipeline_makes_one_run_per_stage_and_the_ci_ideals(
        monkeypatch, name):
    """A coker session costs one tracked graded run per stage of its
    resolution over A, then, for the regular-sequence test, the ci
    ideal's run when that ideal is not monomial, and no other: a monomial
    ci ideal is its own basis, and that f annihilates M is checked on the
    stage-1 run, with no basis of d_1 of its own."""
    runs = []
    init = ModuleGB.__init__

    def counting(self, ring, rank, columns, track=False, row_degrees=None,
                 modulo=()):
        runs.append((self, track, row_degrees is not None))
        init(self, ring, rank, columns, track, row_degrees, modulo)

    monkeypatch.setattr(ModuleGB, "__init__", counting)
    text = _BINOMIAL_CI if name == "binomial-ci" else _read(name)
    session = parse_session(text)
    pipeline = build_pipeline(session)
    stages = pipeline.resolution.length
    assert stages >= 2
    ci_runs = [(False, False)] if name == "binomial-ci" else []
    assert [r[1:] for r in runs] == [(True, True)] * stages + ci_runs
    assert [r[0] for r in runs[:stages]] == \
        [pipeline.resolution.image_bases[t] for t in range(1, stages + 1)]
    ci_basis = session.ring_data.ci_ideal()._basis()
    if ci_runs:
        assert runs[-1][0] is ci_basis
    else:
        assert all(len(v) == 1 for _, v in ci_basis.leads[0])


def test_build_pipeline_complex_route():
    pipeline = build_pipeline(parse_session(_read("koszul_residue.session")))
    assert pipeline.X.rank == 4
    assert pipeline.X.D.is_zero()


def test_build_pipeline_complex_route_with_dual():
    pipeline = build_pipeline(parse_session(_read("dg_nonregular.session")))
    assert "X_dual" not in vars(pipeline)
    assert pipeline.X_dual.rank == pipeline.X.rank


def test_dual_is_module_equals_the_syzygy_route():
    """``dual_is_module`` (Auslander-Buchsbaum on the minimal resolution)
    says what the syzygies of the transposed differentials say, on every
    cokernel session and benchmark input, on the zero module (no dual
    printed) and on a module of depth 0 and dimension 1 (not
    concentrated).  On a session given as a complex, whose resolution
    keeps no stage-1 run, it raises PipelineError."""
    texts = [p.read_text() for p in
             sorted(SESSIONS.glob("*.session"))
             + sorted((REPO / "perfbench" / "inputs").glob("*.session"))]
    texts += ["field GF(101)\nring x, y\nci x^2, y^2\nmodule coker [[1]]\n",
              "field GF(101)\nring x, y, z\nci x^3, y^3\n"
              "module coker [[x^3, y^3, x*z]]\n"]
    outcomes = set()
    for text in texts:
        session = parse_session(text)
        pipeline = build_pipeline(session)
        assert "dual_is_module" not in vars(pipeline)
        if session.module.kind == "complex":
            with pytest.raises(PipelineError, match="cokernel only"):
                pipeline.dual_is_module
            outcomes.add(None)
            continue
        expected = dual_presentation(pipeline.resolution) is not None
        assert pipeline.dual_is_module == expected, text
        outcomes.add(expected)
    assert outcomes == {True, False, None}


# -- the README's examples ------------------------------------------------


README_INPUTS = [block for block in
                 re.findall(r"^```[^\n]*\n(.*?)^```", (REPO / "README.md")
                            .read_text(), re.M | re.S)
                 if block.startswith("field")]


@pytest.mark.parametrize("text", README_INPUTS,
                         ids=[f"block{k}" for k in range(len(README_INPUTS))])
def test_readme_examples_parse(text):
    """Every input file shown in the README parses, so the documented
    grammar cannot drift from the parser."""
    if re.search(r"^member\b", text, re.M):
        parse_chain_file(text)
    else:
        parse_session(text)


def test_readme_shows_sessions_and_a_chain():
    members = [re.search(r"^member\b", t, re.M) is not None
               for t in README_INPUTS]
    assert members.count(True) >= 1 and members.count(False) >= 2


# -- chain files -----------------------------------------------------------


def test_chain_file_parses():
    S, chain = parse_chain_file((CHAINS / "complete_flag.chain").read_text())
    assert S.variables == ("chi1", "chi2", "chi3")
    assert S.weights == (2, 2, 2)
    assert len(chain) == 4
    assert chain[0].is_zero_ideal()
    assert chain[-1].is_unit_ideal()


def test_chain_file_errors():
    with pytest.raises(SessionError):
        parse_chain_file("ring chi1\nmember 0\n")
    with pytest.raises(SessionError):
        parse_chain_file("field GF(101)\nmember 0\n")
    with pytest.raises(SessionError):
        parse_chain_file("field GF(101)\nring chi1\nmember foo\n")


@pytest.mark.parametrize("ring_line, message", [
    ("ring chi1,", "bad variable name ''"),
    ("ring chi1, chi1", "duplicate variable name 'chi1'"),
    ("ring", "ring needs at least one variable"),
    ("ring chi1 weights 2", "bad variable name 'chi1 weights 2'"),
])
def test_chain_ring_line_is_checked_like_a_session(ring_line, message):
    with pytest.raises(SessionError, match=message) as info:
        parse_chain_file(f"field GF(101)\n{ring_line}\nmember 0\n"
                         "member 1\n")
    assert info.value.line == 2


def test_chain_field_line_is_parsed_like_a_session():
    for field in ("GF( 101 )", "QQ"):
        S, _ = parse_chain_file(f"field {field}\nring chi1\nmember 0\n"
                                "member 1\n")
        assert S.field.p == (101 if field != "QQ" else 0)
    with pytest.raises(SessionError, match=r"unknown field 'GF\(-5\)'"):
        parse_chain_file("field GF(-5)\nring chi1\nmember 0\n")


# -- string tests in place of inline patterns --------------------------------
#
# The session reader once matched these with ``re`` patterns compiled on
# first use; the patterns stay here as the oracle.  ``\d`` is
# ``str.isdecimal`` (``١٠١`` is 101; ``²`` is no digit, and ``int``
# rejects it) and ``\s`` is ``str.isspace``.

_SPACE = " \t\n\x1c\x85\u00a0\u2028\u3000\u200b"
_DIGITS = "0123456789١٠٣۳²³"


def _field_by_pattern(text: str):
    if text == "QQ":
        return QQ
    gm = re.fullmatch(r"GF\(\s*(\d+)\s*\)", text)
    if not gm:
        raise SessionError(f"unknown field '{text}'", 1)
    try:
        return GF(int(gm.group(1)))
    except ValueError as exc:
        raise SessionError(str(exc), 1) from exc


def _outcome(read, *args):
    try:
        return read(*args)
    except SessionError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(
    st.builds("GF({}{}{}){}".format, st.text(_SPACE, max_size=2),
              st.text(_DIGITS, max_size=4), st.text(_SPACE, max_size=2),
              st.sampled_from(["", ")", " "])),
    st.text("GF()QQ " + _DIGITS + _SPACE, max_size=9)))
@example("GF(١٠١)")
@example("GF(²)")
@example("GF(\t101 )")
@example("GF( 1 01 )")
@example("GF()")
def test_the_field_is_read_as_the_pattern_read_it(text):
    assert _outcome(parse_field, text, 1) == _outcome(_field_by_pattern, text)


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(st.sampled_from(
    ["weights", "myweights", "weights2", "x", "y", ", ", ",", "1", "w",
     "s", " ", "\t", "\u00a0", "\x85", "\u200b"]), max_size=8).map("".join))
@example("myweights, y")
@example("weights 1")
@example("x, y weights")
@example("x weights 1, 2 weights 3")
@example("x\tweights\t1")
def test_the_weights_word_is_found_as_the_pattern_found_it(text):
    assert _split_at_weights(text) == re.split(r"(?<!\S)weights(?!\S)",
                                                text, maxsplit=1)


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from("de"), st.text("dex_" + _DIGITS, max_size=4))
@example("d", "")
@example("d", "x")
@example("d", "12")
@example("e", "٣")
@example("d", "²")
def test_a_label_is_read_as_the_pattern_read_it(letter, rest):
    word = letter + rest
    assert _is_label(word, letter) == bool(re.fullmatch(letter + r"\d+", word))


@pytest.mark.parametrize("label", ["d", "dx", "e٣", "d1x"])
def test_a_label_without_decimal_digits_is_an_input_error(label):
    body = "field GF(101)\nring x\nci x^2\n"
    line = (f"complex {label} [[x]]" if label[0] == "d"
            else f"complex d1 [[x]]\naction {label} [[x]]")
    err = _err(body + line + "\n")
    assert str(err).startswith("expected a differential label dK"
                               if label[0] == "d"
                               else "expected an action label eI")


@settings(max_examples=300, deadline=None, database=None)
@given(st.text("0123456789١٠²/ xy^*+-()'_", max_size=12))
@example("1/2*x")
@example("١/٢ + x")
def test_a_fraction_token_is_the_one_with_a_slash(text):
    pos = 0
    while (m := _TOKEN.match(text, pos)) and m.end() > pos:
        t = m.group(1)
        assert ("/" in t) == bool(re.fullmatch(r"\d+/\d+", t)), t
        pos = m.end()
