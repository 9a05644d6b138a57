"""Command-line interface: commands, exit codes, output formats."""

import json
import os
import time

import pytest

from jumploci import cli, matrix
from jumploci.cli import main
from jumploci.resolution import (TruncationNeeded, fit_quasi_polynomial,
                                 resolve_over_b)
from jumploci.session import build_pipeline, parse_session

from conftest import NON_DESCENDING_CHAINS, SESSIONS, CHAINS
from oracles import dual_presentation

FLAG = str(SESSIONS / "flag.session")
FINAL = str(SESSIONS / "final.session")
KOSZUL = str(SESSIONS / "koszul_residue.session")
NONREG = str(SESSIONS / "dg_nonregular.session")
PERFECT = str(SESSIONS / "perfect.session")
CHAIN = str(CHAINS / "complete_flag.chain")
COKER_SESSIONS = sorted(p.name for p in SESSIONS.glob("*.session")
                        if "module coker" in p.read_text())


def _run(capfd, argv):
    code = main(argv)
    out, err = capfd.readouterr()
    return code, out, err


def _run_json(capfd, argv):
    code, out, err = _run(capfd, argv)
    assert code == 0, err
    return json.loads(out)


# -- compute ----------------------------------------------------------------


def test_compute_residue_field_model(capfd):
    data = _run_json(capfd, ["compute", "--input", KOSZUL])
    assert data["rank"] == 4
    assert data["jump_numbers"] == [4]
    assert data["complexity"] == 2
    assert data["betti_degree"] == 2
    assert data["bass_degree"] == 2
    assert data["loci"][0]["ideal"] == []
    assert data["loci"][-1]["ideal"] == ["1"]
    assert data["loci"][-1]["dim"] == -1
    assert data["duality"] is None


def test_compute_key_order_is_stable(capfd):
    code, out, err = _run(capfd, ["compute", "--input", KOSZUL])
    assert code == 0
    keys = list(json.loads(out).keys())
    assert keys == ["rank", "jump_numbers", "loci", "complexity",
                    "betti_degree", "bass_degree", "duality"]


def test_compute_nonregular_model(capfd):
    data = _run_json(capfd, ["compute", "--input", NONREG])
    assert data["jump_numbers"] == [2, 4]
    assert data["complexity"] == 2
    assert data["betti_degree"] == 1
    loci = data["loci"]
    assert loci[0]["i_from"] == 1 and loci[0]["i_to"] == 2
    assert loci[0]["ideal"] == []
    assert sorted(loci[1]["ideal"]) == ["chi1", "chi2"]
    assert loci[1]["dim"] == 0


def test_compute_is_deterministic(capfd):
    code1, out1, _ = _run(capfd, ["compute", "--input", FINAL, "--seed", "7"])
    code2, out2, _ = _run(capfd, ["compute", "--input", FINAL, "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_text_format(capfd):
    code, out, err = _run(capfd, ["compute", "--input", KOSZUL,
                                  "--format", "text"])
    assert code == 0
    assert "rank: 4" in out
    assert "jump_numbers: 4" in out


def test_output_file(capfd, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = _run(capfd, ["compute", "--input", KOSZUL,
                                  "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rank"] == 4


# -- dual -------------------------------------------------------------------


def test_dual_command(capfd):
    data = _run_json(capfd, ["dual", "--input", NONREG])
    assert data["duality"] == {"per_index_equal": True, "bdeg_equal": True}
    assert data["bass_degree"] == 1


def test_dual_on_final_example(capfd):
    data = _run_json(capfd, ["dual", "--input", FINAL])
    assert data["duality"]["per_index_equal"] is True
    assert data["bass_degree"] == 3


# -- betti ------------------------------------------------------------------


def test_betti_command(capfd):
    data = _run_json(capfd, ["betti", "--input", FINAL, "--n", "12"])
    beta = data["betti"]
    assert beta["0"] == 1 and beta["1"] == 3
    assert beta["4"] == 7 and beta["5"] == 9 and beta["6"] == 10
    assert data["quasi"]["even"] == ["1", "3/2"]
    assert data["quasi"]["odd"] == ["3/2", "3/2"]
    assert data["dual"]["betti"]["0"] == 2
    assert data["dual"]["quasi"]["even"] == ["2", "3/2"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_betti_rejects_a_nonpositive_truncation(capfd, value):
    code, out, err = _run(capfd, ["betti", "--input", FINAL, "--n", value])
    assert code == 1 and out == ""
    assert err == f"error: the truncation must be positive, not {value}\n"


def test_betti_rejects_a_truncation_past_the_limit(capfd, monkeypatch):
    monkeypatch.setattr(cli, "build_pipeline", None)  # never reached
    code, out, err = _run(capfd, ["betti", "--input", FINAL,
                                  "--n", "1000000000"])
    assert code == 1 and out == ""
    assert err == ("error: the truncation must be at most 100000, "
                   "not 1000000000\n")


def test_betti_rejects_a_session_truncation_past_the_limit(capfd, tmp_path,
                                                           monkeypatch):
    """A session sets no truncation: an ``option truncation`` line is an
    unknown directive, reported before any resolution is built."""
    text = (SESSIONS / "final.session").read_text()
    path = tmp_path / "big.session"
    path.write_text(text + "option truncation 100001\n")
    monkeypatch.setattr(cli, "build_pipeline", None)  # never reached
    code, out, err = _run(capfd, ["betti", "--input", str(path)])
    assert code == 1 and out == ""
    line = len(text.splitlines()) + 1
    assert err == f"error: unknown directive 'option' (line {line})\n"


def test_betti_rejects_complex_input(capfd):
    code, out, err = _run(capfd, ["betti", "--input", KOSZUL])
    assert code == 1
    assert "cokernel" in err


def _oracle_betti_report(path, n):
    """The betti report with every table taken from resolve_over_b.  The
    fit reads beta_0..beta_n, zeros past a finite resolution included."""
    session = parse_session(path.read_text())
    pipe = build_pipeline(session)

    def block(presentation, row_degrees=None):
        beta = resolve_over_b(pipe.rd, presentation, n, row_degrees).betti()
        out = {"betti": {str(i): b for i, b in sorted(beta.items())}}
        try:
            out["quasi"] = cli._quasi_dict(fit_quasi_polynomial(
                {i: beta.get(i, 0) for i in range(n + 1)}, n + 1))
        except TruncationNeeded as exc:
            out["quasi"] = {"error": str(exc)}
        return out

    pres_dual = dual_presentation(pipe.resolution)
    presentation = matrix.PolyMatrix.from_rows(session.ring,
                                               session.module.rows)
    report = {"n": n, **block(presentation)}
    report["dual"] = None if pres_dual is None else block(*pres_dual)
    return report


@pytest.mark.parametrize("name", COKER_SESSIONS)
def test_betti_json_equals_the_resolution_oracle(capfd, name):
    path = SESSIONS / name
    code, out, err = _run(capfd, ["betti", "--input", str(path), "--n", "10"])
    assert code == 0, err
    assert out.encode() == cli.emit_report(_oracle_betti_report(path, 10),
                                           "json")


@pytest.mark.parametrize("entries, has_dual", [
    ("x^3, y^3, x*z, y*z", False),
    ("x^3, y^3, x*y", True),
])
def test_betti_json_when_b_is_not_artinian(capfd, tmp_path, entries,
                                           has_dual):
    """Over k[x,y,z]/(x^3, y^3) (c = 2 < n = 3), M* is defined exactly when
    M is perfect: (x^3, y^3, x*z, y*z) has depth 0 and dimension 1,
    (x^3, y^3, x*y) is Cohen-Macaulay of dimension 1.  Every table equals
    the resolution oracle."""
    path = tmp_path / "m.session"
    path.write_text("field GF(101)\nring x, y, z\nci x^3, y^3\n"
                    f"module coker [[{entries}]]\n")
    code, out, err = _run(capfd, ["betti", "--input", str(path), "--n", "10"])
    assert code == 0, err
    assert (json.loads(out)["dual"] is not None) == has_dual
    assert out.encode() == cli.emit_report(_oracle_betti_report(path, 10),
                                           "json")


def test_betti_of_a_module_of_finite_projective_dimension(capfd):
    """B over itself (``sessions/perfect.session``) and its dual B have
    beta_0..beta_20 = 1, 0, ..., 0.  The printed dict stops at beta_0 and
    the fit reads the zeros as the zero quasi-polynomial; a fit of the cut
    dict reported "window exceeds available Betti numbers" at any --n."""
    block = {"betti": {"0": 1},
             "quasi": {"even": [], "odd": [], "valid_from": 2}}
    data = _run_json(capfd, ["betti", "--input", PERFECT, "--n", "20"])
    assert data == {"n": 20, **block, "dual": block}


def test_betti_of_the_zero_module(capfd, tmp_path):
    """coker [[1]] = 0: every beta_i is 0, so its tail is the zero
    quasi-polynomial too, and there is no dual."""
    path = tmp_path / "zero.session"
    path.write_text("field GF(101)\nring x, y\nci x^2, y^2\n"
                    "module coker [[1]]\n")
    data = _run_json(capfd, ["betti", "--input", str(path), "--n", "20"])
    assert data == {"n": 20, "betti": {"0": 0},
                    "quasi": {"even": [], "odd": [], "valid_from": 1},
                    "dual": None}


# -- crk --------------------------------------------------------------------


def test_crk_generic(capfd):
    data = _run_json(capfd, ["crk", "--input", NONREG])
    assert data["crk"] == 2 and data["point"] is None


def test_crk_at_point(capfd):
    data = _run_json(capfd, ["crk", "--input", NONREG, "--point", "0,0"])
    assert data["crk"] == 4


def test_crk_bad_point(capfd):
    code, out, err = _run(capfd, ["crk", "--input", NONREG,
                                  "--point", "0,zebra"])
    assert code == 1 and "zebra" in err


# -- oracle -----------------------------------------------------------------


def test_oracle_on_perfect_module(capfd):
    data = _run_json(capfd, ["oracle", "--input", PERFECT, "--points", "4"])
    assert len(data["points"]) == 4
    assert all(s["stable_betti"] == 0 and s["crk"] == 0
               for s in data["points"])
    assert data["all_equal"] is True


def test_oracle_reports_disagreement_faithfully(capfd):
    data = _run_json(capfd, ["oracle", "--input", FINAL, "--points", "3"])
    assert data["all_equal"] is False
    for s in data["points"]:
        assert s["equal"] is False
        assert s["crk"] == 2 * s["stable_betti"]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_oracle_rejects_a_nonpositive_point_count(capfd, value):
    code, out, err = _run(capfd, ["oracle", "--input", PERFECT,
                                  "--points", value])
    assert code == 1 and out == ""
    assert err == f"error: --points must be positive, not {value}\n"


@pytest.mark.parametrize("count, message", [
    (0, "--points must be positive, not 0"),
    (cli.MAX_POINTS + 1,
     f"--points must be at most {cli.MAX_POINTS}, not {cli.MAX_POINTS + 1}"),
])
def test_oracle_checks_the_point_count_before_the_pipeline(
        capfd, monkeypatch, count, message):
    """A count out of range is an input error before any resolution is
    built; with no upper bound, ``--points 1000000000`` ran for weeks."""
    def not_called(session):
        raise AssertionError("the pipeline was built")

    monkeypatch.setattr(cli, "build_pipeline", not_called)
    code, out, err = _run(capfd, ["oracle", "--input", FLAG,
                                  "--points", str(count)])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_oracle_rejects_ci_generators_of_unequal_degree(capfd, monkeypatch,
                                                       tmp_path):
    """A section sum a_i f_i of unequal degrees is not homogeneous; the
    error names the declared degrees, not a generator never declared, and
    comes before any resolution is built."""
    def not_called(session):
        raise AssertionError("the pipeline was built")

    monkeypatch.setattr(cli, "build_pipeline", not_called)
    session = tmp_path / "weights.session"
    session.write_text("field GF(101)\nring x, y weights 1, 2\n"
                       "ci x^2, y^2\nmodule coker [[x, y]]\n")
    code, out, err = _run(capfd, ["oracle", "--input", str(session),
                                  "--points", "3", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == ("error: the oracle needs ci generators of one degree, "
                   "not 2, 4\n")


# -- realize ----------------------------------------------------------------


def test_realize_command(capfd):
    data = _run_json(capfd, ["realize", "--chain", CHAIN])
    assert data["realized"] is True
    assert len(data["jump_numbers"]) >= 2


def test_realize_needs_chain(capfd):
    code, out, err = _run(capfd, ["realize"])
    assert code == 1 and "chain" in err


@pytest.mark.parametrize("text, says", NON_DESCENDING_CHAINS.values(),
                         ids=list(NON_DESCENDING_CHAINS))
def test_realize_rejects_a_chain_that_does_not_descend(capfd, tmp_path,
                                                       text, says):
    chain = tmp_path / "bad.chain"
    chain.write_text(text)
    code, out, err = _run(capfd, ["realize", "--chain", str(chain)])
    assert (code, out, err) == (1, "", says)


# -- error handling ---------------------------------------------------------


def test_missing_input_flag(capfd):
    code, out, err = _run(capfd, ["compute"])
    assert code == 1 and "--input" in err


def test_missing_input_file(capfd):
    code, out, err = _run(capfd, ["compute", "--input", "/no/such/file"])
    assert code == 1


def test_bad_session_reports_line(capfd, tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text("field GF(4)\nring x\nci x^2\nmodule coker [[x]]\n")
    code, out, err = _run(capfd, ["compute", "--input", str(bad)])
    assert code == 1
    assert "4 is not prime (line 1)" in err


@pytest.mark.parametrize("prime", ["2147483659", "1" + "0" * 40, "0"])
def test_unusable_prime_is_an_input_error(capfd, tmp_path, prime):
    session = tmp_path / "big.session"
    session.write_text(f"field GF({prime})\nring x\nci x^2\n"
                       "module coker [[x]]\n")
    chain = tmp_path / "big.chain"
    chain.write_text(f"field GF({prime})\nring chi1\nmember 0\nmember 1\n")
    for argv in (["compute", "--input", str(session)],
                 ["realize", "--chain", str(chain)]):
        code, out, err = _run(capfd, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(line 1)" in err and "Traceback" not in err


def test_module_not_annihilated_by_f_is_an_input_error(capfd, tmp_path):
    """M = A, the cokernel of a zero map, is not a B-module."""
    session = tmp_path / "free.session"
    session.write_text("field GF(101)\nring x, y\nci x^2, y^2\n"
                       "module coker [[0]]\n")
    for command in ("crk", "compute", "dual", "betti"):
        code, out, err = _run(capfd, [command, "--input", str(session)])
        assert code == 1 and out == ""
        assert err == "error: f_1 = x^2 does not annihilate the module\n"


@pytest.mark.parametrize("rows", ["[[x, 0, x], [0, y^2, y^2]]",
                                  "[[y^2, 0, y^2], [x, x, 0]]"])
def test_inhomogeneous_column_is_an_input_error(capfd, tmp_path, rows):
    """A column with entries x and y^2 has degrees 1 and 2 in its two
    rows.  A graded run reads a column's degree off one term, so the
    resolution over A checks every column before its first run, also the
    second presentation's, which the run would drop as the sum of the
    other two."""
    session = tmp_path / "inhomogeneous.session"
    session.write_text("field GF(101)\nring x, y\nci x^2, y^2\n"
                       f"module coker {rows}\n")
    code, out, err = _run(capfd, ["crk", "--input", str(session)])
    assert code == 1 and out == ""
    assert err == "error: inhomogeneous module column\n"


def test_unit_entry_is_cancelled_with_its_whole_row(capfd, tmp_path):
    """coker [[1, x, y], [1, 0, 0]] is k = coker [[x, y]]: cancelling the
    unit subtracts x and y times its column, so they move to the other
    row instead of being lost with row 1."""
    reports = []
    for name, rows in (("unit", "[[1, x, y], [1, 0, 0]]"),
                       ("residue", "[[x, y]]")):
        session = tmp_path / f"{name}.session"
        session.write_text("field GF(101)\nring x, y\nci x^2, y^2\n"
                           f"module coker {rows}\n")
        reports.append([_run(capfd, [command, "--input", str(session)])
                        for command in ("crk", "compute")])
    assert reports[0] == reports[1]
    assert reports[0][0] == (0, '{\n  "point": null,\n  "crk": 4\n}\n', "")


def test_long_element_that_does_not_annihilate_is_named_briefly(capfd,
                                                                 tmp_path):
    """A long ci element is named by its leading term and term count."""
    session = tmp_path / "long.session"
    session.write_text("field GF(101)\nring x, y\nci x^2, (x+y)^800\n"
                       "module coker [[x]]\n")
    code, out, err = _run(capfd, ["compute", "--input", str(session)])
    assert code == 1 and out == ""
    assert err == ("error: f_2 = x^800 + ... (752 terms) does not annihilate "
                   "the module\n")


def test_dg_action_that_squares_to_nonzero_is_an_input_error(capfd,
                                                             tmp_path):
    """Over GF(2) an action with d e1 + e1 d = x^2 id but e1*e1 != 0 is not
    a strict action; e1*e1 + e1*e1 = 0 holds there, so a check of that
    form would let it through."""
    session = tmp_path / "square.session"
    session.write_text(
        "field GF(2)\n"
        "ring x, y, z weights 1, 1, 1\n"
        "ci x^2\n"
        "complex d1 [[x, y, z]] d2 [[y, z, 0], [x, 0, z], [0, x, y]] "
        "d3 [[z], [y], [x]]\n"
        "action e1 [[x], [z], [y]] [[0, x + z, z], [0, y, x + y], "
        "[x, x + y, x + z]] [[x, x, x + y + z]]\n")
    for command in ("crk", "compute", "dual"):
        code, out, err = _run(capfd, [command, "--input", str(session)])
        assert code == 1 and out == ""
        assert err == "error: e1*e1 != 0 at block 0, entry (0, 0)\n"


def test_huge_exponent_is_an_input_error(capfd, tmp_path):
    session = tmp_path / "huge.session"
    session.write_text("field GF(101)\nring x\nci x^2\n"
                       "module coker [[x^99999999]]\n")
    start = time.perf_counter()
    code, out, err = _run(capfd, ["compute", "--input", str(session)])
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the limit 1000" in err and "(line 4, column" in err


def test_many_ring_variables_compute_quickly(capfd, tmp_path):
    """The regular-sequence test reads the dimension of (a0^2) in 22
    variables off its leading monomial.  A search over all 2^22 subsets of
    the variables takes seconds; the branching search takes milliseconds."""
    names = ", ".join(f"a{i}" for i in range(22))
    session = tmp_path / "wide.session"
    session.write_text(f"field GF(101)\nring {names}\nci a0^2\n"
                       "module coker [[a0]]\n")
    start = time.perf_counter()
    data = _run_json(capfd, ["compute", "--input", str(session)])
    assert time.perf_counter() - start < 1.0
    assert data["rank"] == 2


def test_oversized_minor_table_is_an_input_error(capfd, monkeypatch):
    """The flag session's minor table takes 31 units of work, so a limit of
    10 refuses it with one error line that names the limit."""
    monkeypatch.setattr(matrix, "MAX_MINOR_WORK", 10)
    code, out, err = _run(capfd, ["compute", "--input", FLAG])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "take more than 10 determinant expansions" in err
    assert "(MAX_MINOR_WORK)" in err


def test_power_of_a_sum_is_an_input_error(capfd, tmp_path):
    session = tmp_path / "power.session"
    session.write_text("field GF(101)\nring x, y, z, w\n"
                       "ci x^2, y^2, z^2, w^2\n"
                       "module coker [[(x + y + z + w)^80]]\n")
    start = time.perf_counter()
    code, out, err = _run(capfd, ["compute", "--input", str(session)])
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "term products" in err and "(line 4, column" in err


def test_chain_member_error_keeps_the_reason_and_column(capfd, tmp_path):
    chain = tmp_path / "power.chain"
    chain.write_text("field GF(101)\nring chi1, chi2, chi3, chi4\n"
                     "member 0\n  member 1, (chi1 + chi2 + chi3 + chi4)^80\n")
    code, out, err = _run(capfd, ["realize", "--chain", str(chain)])
    assert code == 1 and out == ""
    assert err.startswith("error: bad generator '(chi1 + chi2 + chi3 + chi4)"
                          "^80': ") and err.count("\n") == 1
    assert "term products" in err and err.endswith("(line 4, column 13)\n")


def test_duplicate_variable_names_are_input_errors(capfd, tmp_path):
    session = tmp_path / "dup.session"
    session.write_text("field GF(101)\nring x, x\nci x^2\n"
                       "module coker [[x]]\n")
    chain = tmp_path / "comma.chain"
    chain.write_text("field GF(101)\nring chi1,\nmember 0\nmember 1\n")
    for argv, message in (
            (["compute", "--input", str(session)],
             "error: duplicate variable name 'x' (line 2)\n"),
            (["realize", "--chain", str(chain)],
             "error: bad variable name '' (line 2)\n")):
        code, out, err = _run(capfd, argv)
        assert code == 1 and out == "" and err == message


@pytest.mark.parametrize("repeat, directive", [
    ("field GF(7)", "field"),
    ("ring x", "ring"),
    ("ci x^3, y^3", "ci"),
    ("module coker [[1]]", "module"),
])
def test_a_repeated_header_directive_is_an_input_error(capfd, tmp_path,
                                                       repeat, directive):
    """A second header line used to replace the first with no message:
    ``module coker [[1]]`` after ``module coker [[x, x]]`` printed rank 0,
    and ``field GF(7)`` after the ring kept the ring over GF(101)."""
    session = tmp_path / "repeat.session"
    session.write_text("field GF(101)\nring x, y\nci x^2, y^2\n"
                       f"module coker [[x, x]]\n{repeat}\n")
    code, out, err = _run(capfd, ["compute", "--input", str(session)])
    assert (code, out) == (1, "")
    assert err == f"error: duplicate {directive} declaration (line 5)\n"


@pytest.mark.parametrize("repeat, directive", [
    ("field GF(7)", "field"),
    ("ring c, d", "ring"),
])
def test_a_repeated_chain_header_is_an_input_error(capfd, tmp_path,
                                                   repeat, directive):
    """``field GF(7)`` after the ring was accepted with the ring still
    over GF(101), and a second ``ring`` after members ended in "Koszul
    element lives in the wrong ring"."""
    chain = tmp_path / "repeat.chain"
    chain.write_text("field GF(101)\nring a, b\nmember 0\nmember a\n"
                     f"{repeat}\nmember 1\n")
    code, out, err = _run(capfd, ["realize", "--chain", str(chain)])
    assert (code, out) == (1, "")
    assert err == f"error: duplicate {directive} declaration (line 5)\n"


def test_input_that_is_not_utf8_is_an_input_error(capfd, tmp_path):
    session = tmp_path / "latin1.session"
    session.write_bytes(b"field GF(101)\nring x\xff\nci x^2\n")
    chain = tmp_path / "latin1.chain"
    chain.write_bytes(b"field GF(101)\n# \xe9\nring chi1\nmember 0\n")
    for argv in (["compute", "--input", str(session)],
                 ["realize", "--chain", str(chain)]):
        code, out, err = _run(capfd, argv)
        assert code == 1 and out == ""
        assert err == "error: the file is not valid UTF-8 (line 2)\n"


_QQ_KOSZUL = ("field QQ\nring x, y\nci x^2, y^2\n"
              "complex d1 [[x, y]] d2 [[-y], [x]]\n"
              "action e1 [[x], [0]] [[0, x]]\n"
              "action e2 [[0], [y]] [[-y, 0]]\n")


_ZERO_DENOMINATOR = {
    "ci": "field QQ\nring x, y\nci x^2, 1/0*y^2\nmodule coker [[x, y]]\n",
    "module": "field QQ\nring x, y\nci x^2, y^2\n"
              "module coker [[x, 1/0*y]]\n",
    "complex": _QQ_KOSZUL.replace("[x]]\n", "[3/0*x]]\n"),
    "action": _QQ_KOSZUL.replace("[[-y, 0]]", "[[-y, 1/0]]"),
    "member": "field QQ\nring chi1, chi2\nmember 0\n"
              "member chi1, 2/0*chi2\nmember 1\n",
}


@pytest.mark.parametrize("kind", list(_ZERO_DENOMINATOR))
def test_a_zero_denominator_is_an_input_error(capfd, tmp_path, kind):
    """Over QQ, ``a/0`` used to end every command in a ZeroDivisionError
    traceback; it is an input error naming the line and column of the
    entry, which starts at its one-digit numerator."""
    text = _ZERO_DENOMINATOR[kind]
    line, bad = next((i, t) for i, t in enumerate(text.splitlines(), 1)
                     if "/0" in t)
    column = bad.index("/0")
    path = tmp_path / f"{kind}.input"
    path.write_text(text)
    commands = ([["realize", "--chain", str(path)]] if kind == "member" else
                [[cmd, "--input", str(path)] for cmd in
                 ("compute", "betti", "dual", "crk", "oracle")])
    for argv in commands:
        code, out, err = _run(capfd, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero denominator" in err
        assert err.endswith(f"(line {line}, column {column})\n"), err


@pytest.mark.parametrize("via", ["--output"])
@pytest.mark.parametrize("target", ["directory", "missing/out.json"])
def test_an_unwritable_output_path_is_an_input_error(capfd, tmp_path, via,
                                                     target):
    """Writing the report to a directory or into a missing directory used
    to end in an OSError traceback; it is one error line and exit 1."""
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    argv = ["compute", "--input", KOSZUL, via, str(path)]
    code, out, err = _run(capfd, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "oracle"])
def test_an_option_line_is_an_input_error(capfd, tmp_path, command):
    """``option seed 3`` used to override an explicit ``--seed 0``, and
    ``option output PATH`` chose where the report went.  Settings come
    from the flags only; an ``option`` line is an unknown directive and
    nothing is written."""
    target = tmp_path / "opt.json"
    sess = tmp_path / "opt.session"
    sess.write_text((SESSIONS / "final.session").read_text()
                    + f"option seed 3\noption output {target}\n")
    line = len((SESSIONS / "final.session").read_text().splitlines()) + 1
    code, out, err = _run(capfd, [command, "--input", str(sess),
                                  "--seed", "0"])
    assert (code, out) == (1, "")
    assert err == f"error: unknown directive 'option' (line {line})\n"
    assert not target.exists()


@pytest.mark.parametrize("argv, says", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["betti", "--input", FINAL, "--n", "abc"], "invalid int value: 'abc'"),
    (["compute", "--input", FINAL, "--format", "xml"],
     "invalid choice: 'xml'"),
    (["compute", "--input", FINAL, "--verbose"],
     "unrecognized arguments: --verbose"),
    ([], "the following arguments are required: command"),
])
def test_a_malformed_command_line_is_an_input_error(capfd, argv, says):
    """argparse's own exit 2 and usage block read as an internal
    assertion; a malformed command line is one error line and exit 1."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capfd.readouterr()
    assert (info.value.code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err and "usage" not in err


def test_help_exits_zero(capfd):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    out, err = capfd.readouterr()
    assert (info.value.code, err) == (0, "")
    assert out.startswith("usage: jumploci")


def test_flag_defaults(capfd):
    """``--n`` and ``--points`` are 20, ``--seed`` 0 and the report goes
    to stdout."""
    args = cli.build_argument_parser().parse_args(["betti"])
    assert (args.n, args.points, args.seed, args.output) == (20, 20, 0, None)
    assert _run_json(capfd, ["betti", "--input", FINAL])["n"] == 20


def test_an_action_with_too_few_blocks_is_an_input_error(capfd, tmp_path):
    """The block count of an action is checked once, where the actions
    are validated, and reported with its label."""
    session = tmp_path / "blocks.session"
    session.write_text((SESSIONS / "koszul_residue.session").read_text()
                       .replace("action e2 [[0], [y]] [[-y, 0]]",
                                "action e2 [[0], [y]]"))
    code, out, err = _run(capfd, ["compute", "--input", str(session)])
    assert (code, out) == (1, "")
    assert err == "error: action e2: expected 2 blocks, got 1\n"


@pytest.mark.parametrize("field", ["GF(101)", "QQ"])
@pytest.mark.parametrize("ci, column", [("0", 4), ("x^2, 0", 9)])
def test_a_zero_ci_generator_is_named_as_zero(capfd, tmp_path, field, ci,
                                             column):
    """A zero ``ci`` generator used to be reported as "'0' is not in the
    irrelevant maximal ideal", which is false."""
    session = tmp_path / "zero.session"
    session.write_text(f"field {field}\nring x, y\nci {ci}\n"
                       "module coker [[x, y]]\n")
    code, out, err = _run(capfd, ["compute", "--input", str(session)])
    assert (code, out) == (1, "")
    assert err == (f"error: ci generator '0' is zero "
                   f"(line 3, column {column})\n")


def test_verbose_prints_engine_stats(capfd, monkeypatch):
    """Every ideal of the Koszul session is monomial, so it runs no
    Groebner basis at all.  The perfect session's ideals are monomial
    too; its one untracked run, the Hilbert data of Ext in rank 4, skips
    the pair of two single-term vectors."""
    monkeypatch.setenv("JUMPLOCI_VERBOSE", "1")
    code, out, err = _run(capfd, ["compute", "--input", KOSZUL])
    assert code == 0
    assert err == ("engine: pairs_processed=0, pairs_skipped=0, "
                   "zero_reductions=0, basis_elements=0, monomial_bases=2\n")
    code, out, err = _run(capfd, ["compute", "--input", PERFECT])
    assert code == 0
    assert err == ("engine: pairs_processed=1, pairs_skipped=1, "
                   "zero_reductions=1, basis_elements=6, monomial_bases=3\n")
