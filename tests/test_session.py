"""Session file parsing, printing, and pipeline assembly."""

import pytest

from jumploci.session import (Session, SessionError, parse_session,
                              build_pipeline)
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


def test_options_parsed():
    text = ("field GF(101)\nring x, y\nci x^2, y^2\n"
            "module coker [[x, y]]\noption truncation 9\n"
            "option seed 4\noption output out.json\n")
    session = parse_session(text)
    assert session.options == {"truncation": 9, "seed": 4,
                               "output": "out.json"}


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
    assert "missing field" in str(_err("option seed 1\n"))
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


def test_both_module_kinds_rejected():
    err = _err("field GF(101)\nring x, y\nci x^2, y^2\n"
               "module coker [[x, y]]\n"
               "complex d1 [[x, y]]\n")
    assert "not both" in str(err)


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


def test_unterminated_matrix_rejected():
    err = _err("field GF(101)\nring x\nci x^2\nmodule coker [[x\n")
    assert "unterminated" in str(err)


def test_unknown_directive_rejected():
    assert "unknown directive" in str(_err("fiend GF(101)\n"))


def test_unknown_option_rejected():
    err = _err("field GF(101)\nring x\nci x^2\nmodule coker [[x]]\n"
               "option colour blue\n")
    assert "unknown option" in str(err)


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
    session and benchmark input, on the zero module (no dual printed) and
    on a module of depth 0 and dimension 1 (not concentrated)."""
    texts = [p.read_text() for p in
             sorted(SESSIONS.glob("*.session"))
             + sorted((REPO / "perfbench" / "inputs").glob("*.session"))]
    texts += ["field GF(101)\nring x, y\nci x^2, y^2\nmodule coker [[1]]\n",
              "field GF(101)\nring x, y, z\nci x^3, y^3\n"
              "module coker [[x^3, y^3, x*z]]\n"]
    outcomes = set()
    for text in texts:
        pipeline = build_pipeline(parse_session(text))
        assert "dual_is_module" not in vars(pipeline)
        expected = dual_presentation(pipeline.resolution) is not None
        assert pipeline.dual_is_module == expected, text
        outcomes.add(expected)
    assert outcomes == {True, False}


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
