"""Command-line parsing, rendering, exit codes, and output formats."""

import json
import random
import sys

import pytest

import toralzeta.zeta
from toralzeta import cli, oracle
from toralzeta import (
    IntMatrix,
    MatrixParseError,
    SignData,
    artin_mazur_zeta,
    build_report,
    parse_matrix,
    render_matrix,
)
from toralzeta.cli import (
    format_poly_latex,
    format_poly_plain,
    format_ratfunc_latex,
    format_ratfunc_plain,
    main,
    report_to_dict,
)
from toralzeta.polynomials import IntPoly, RatFunc
from helpers import random_matrix

CAT_TEXT = "[[2,1],[1,1]]"


class TestParseMatrix:
    def test_examples(self):
        assert parse_matrix(CAT_TEXT) == IntMatrix([[2, 1], [1, 1]])
        assert parse_matrix("[[-1]]") == IntMatrix([[-1]])
        assert parse_matrix("[[+3]]") == IntMatrix([[3]])

    def test_whitespace_tolerated(self):
        text = " [ [ 2 , 1 ] ,\n [ 1 , 1 ] ] "
        assert parse_matrix(text) == IntMatrix([[2, 1], [1, 1]])

    def test_ragged_row(self):
        with pytest.raises(MatrixParseError, match="ragged row 2"):
            parse_matrix("[[1,2],[3]]")

    def test_not_square(self):
        with pytest.raises(MatrixParseError, match="2x3, not square"):
            parse_matrix("[[1,2,3],[4,5,6]]")

    def test_empty_inputs(self):
        with pytest.raises(MatrixParseError, match="empty matrix"):
            parse_matrix("[]")
        with pytest.raises(MatrixParseError, match="empty row 2"):
            parse_matrix("[[1],[]]")
        with pytest.raises(MatrixParseError, match="position 0"):
            parse_matrix("")

    def test_non_integer_entry(self):
        with pytest.raises(MatrixParseError, match="position 3"):
            parse_matrix("[[1.5]]")
        with pytest.raises(MatrixParseError, match="expected an integer"):
            parse_matrix("[[a]]")

    def test_trailing_input(self):
        with pytest.raises(MatrixParseError, match="trailing input"):
            parse_matrix("[[1]] extra")

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(40):
            m = random_matrix(rng, low=-99, high=99)
            assert parse_matrix(render_matrix(m)) == m


def test_render_matrix():
    assert render_matrix(IntMatrix([[2, 1], [1, 1]])) == "[[2, 1], [1, 1]]"
    assert render_matrix(IntMatrix([[-1]])) == "[[-1]]"


class TestPolyFormatting:
    def test_plain(self):
        assert format_poly_plain(IntPoly((1, -3, 1))) == "1 - 3 z + z^2"
        assert format_poly_plain(IntPoly((0, 1))) == "z"
        assert format_poly_plain(IntPoly((-2, 0, 4))) == "-2 + 4 z^2"
        assert format_poly_plain(IntPoly()) == "0"
        assert format_poly_plain(IntPoly((7,))) == "7"

    def test_latex(self):
        assert format_poly_latex(IntPoly((1, 0, -1))) == "1 - z^{2}"
        assert format_poly_latex(IntPoly((0, 1))) == "z"


class TestRatFuncFormatting:
    def test_reduced_cat(self):
        f = artin_mazur_zeta(IntMatrix([[2, 1], [1, 1]]))
        assert format_ratfunc_plain(f) == "(1 - z)^2 / (1 - 3 z + z^2)"

    def test_reduced_minus_one(self):
        f = artin_mazur_zeta(IntMatrix([[-1]]))
        assert format_ratfunc_plain(f) == "(1 + z) / (1 - z)"

    def test_polynomial_value(self):
        assert format_ratfunc_plain(RatFunc(IntPoly((1, 1)))) == "1 + z"

    def test_latex(self):
        f = artin_mazur_zeta(IntMatrix([[-1]]))
        assert format_ratfunc_latex(f) == "\\frac{(1 + z)}{(1 - z)}"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMainZeta:
    def test_cat_plain(self, capsys):
        code, out, _ = run_main(capsys, "zeta", "--matrix", CAT_TEXT)
        assert code == 0
        assert out == "(1 - z)^2 / (1 - 3 z + z^2)\n"

    def test_minus_one_plain(self, capsys):
        code, out, _ = run_main(capsys, "zeta", "--matrix", "[[-1]]")
        assert code == 0
        assert out == "(1 + z) / (1 - z)\n"

    def test_json(self, capsys):
        code, out, _ = run_main(capsys, "zeta", "--matrix", "[[-1]]", "--format", "json")
        assert code == 0
        data = json.loads(out)
        # canonical form keeps the leading denominator coefficient positive
        assert data == {"artin_mazur_zeta": {"num": ["-1", "-1"], "den": ["-1", "1"]}}

    def test_latex(self, capsys):
        code, out, _ = run_main(capsys, "zeta", "--matrix", "[[-1]]", "--format", "latex")
        assert code == 0
        assert out == "\\frac{(1 + z)}{(1 - z)}\n"

    def test_unreduced_lists_factors(self, capsys):
        code, out, _ = run_main(capsys, "lefschetz", "--matrix", CAT_TEXT, "--unreduced")
        assert code == 0
        assert out.splitlines() == [
            "k=0 exponent=-1 factor=1 - z",
            "k=1 exponent=+1 factor=1 - 3 z + z^2",
            "k=2 exponent=-1 factor=1 - z",
        ]

    def test_lefschetz_plain(self, capsys):
        code, out, _ = run_main(capsys, "lefschetz", "--matrix", CAT_TEXT)
        assert code == 0
        assert out == "(1 - 3 z + z^2) / (1 - z)^2\n"


class TestMainCounts:
    def test_doubling_table(self, capsys):
        code, out, _ = run_main(
            capsys, "counts", "--matrix", "[[2]]", "--max-m", "3"
        )
        assert code == 0
        assert out == "m signed_count count\n1 -1 1\n2 -3 3\n3 -7 7\n"

    def test_json(self, capsys):
        code, out, _ = run_main(
            capsys, "counts", "--matrix", "[[2]]", "--max-m", "3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "signed_counts": ["-1", "-3", "-7"],
            "counts": ["1", "3", "7"],
        }


class TestMainExponents:
    def test_minus_one(self, capsys):
        code, out, _ = run_main(
            capsys, "exponents", "--matrix", "[[-1]]", "--max-m", "6"
        )
        assert code == 0
        assert out.splitlines() == [
            "m exponent",
            "1 2",
            "2 -1",
            "3 0",
            "4 0",
            "5 0",
            "6 0",
        ]


class TestMainClassify:
    def test_swap(self, capsys):
        code, out, _ = run_main(capsys, "classify", "--matrix", "[[0,1],[1,0]]")
        assert code == 0
        assert out.splitlines() == [
            "singular: no",
            "root of unity orders: 1, 2",
            "quasihyperbolic: no",
            "hyperbolic: no (exact)",
        ]

    def test_json(self, capsys):
        code, out, _ = run_main(
            capsys, "classify", "--matrix", CAT_TEXT, "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["singular"] is False
        assert data["root_of_unity_orders"] == []
        assert data["quasihyperbolic"] is True
        assert data["hyperbolic"] is True


class TestMainCheck:
    def test_cat_passes(self, capsys):
        code, out, _ = run_main(capsys, "check", "--matrix", CAT_TEXT, "--max-m", "6")
        assert code == 0
        lines = out.splitlines()
        assert "check functional equation: pass" in lines
        assert "check fixed-point counts (smith oracle): pass" in lines
        assert "check fixed-point enumeration: pass" in lines
        assert "check zeta series (exp sum oracle): pass" in lines
        assert "check signs (sturm oracle): pass" in lines
        assert "check lefschetz series: pass" in lines
        assert "check euler product: pass" in lines

    def test_singular_skips_functional_equation(self, capsys):
        code, out, _ = run_main(capsys, "check", "--matrix", "[[0]]", "--max-m", "3")
        assert code == 0
        assert "check functional equation: skipped (det = 0)" in out.splitlines()

    def test_corrupted_sign_fails(self, capsys, monkeypatch):
        # deliberately flip epsilon after the sign computation; independent
        # oracles must notice and the exit code must say so
        original = toralzeta.zeta._signs

        def corrupted(p):
            data = original(p)
            return SignData(
                sigma=data.sigma,
                tau=data.tau,
                delta=data.delta,
                epsilon=-data.epsilon,
            )

        monkeypatch.setattr(toralzeta.zeta, "_signs", corrupted)
        code, out, _ = run_main(capsys, "check", "--matrix", CAT_TEXT, "--max-m", "4")
        assert code == 2
        lines = out.splitlines()
        assert "check signs (sturm oracle): fail" in lines
        assert "check zeta series (exp sum oracle): fail" in lines

    def test_unchained_smith_diagonal_fails_the_enumeration_row(self, capsys, monkeypatch):
        # 1 - diag(3, 4) = diag(-2, -3): a Smith form diag(2, 3) has the
        # right product but no divisor chain, which the enumeration refutes
        ident = IntMatrix.identity(2)
        unchained = IntMatrix([[2, 0], [0, 3]])
        monkeypatch.setattr(oracle, "smith_normal_form", lambda system: (ident, unchained, ident))
        code, out, err = run_main(capsys, "check", "--matrix", "[[3,0],[0,4]]", "--max-m", "1")
        assert code == 2
        assert err == ""
        lines = out.splitlines()
        assert "check fixed-point counts (smith oracle): pass" in lines
        assert "check fixed-point enumeration: fail" in lines
        assert sum(line.endswith(": fail") for line in lines) == 1

    def test_counts_of_no_product_form_fail_without_a_traceback(self, capsys, monkeypatch):
        # counts 0, 1 give the orbit exponent 1/2 and the series coefficient
        # f_2 = 1/2, so the exponent sieve and the exp-sum recurrence raise
        # ArithmeticError; served counts and iterate determinants both get them
        monkeypatch.setattr(toralzeta.zeta, "_signed_counts", lambda factors, count: [0, 1][:count])
        dets = iter([0, 1])
        monkeypatch.setattr(cli, "det_exact", lambda system: next(dets))
        code, out, err = run_main(capsys, "check", "--matrix", CAT_TEXT, "--max-m", "2")
        assert code == 2
        assert err == ""
        lines = out.splitlines()
        assert "check zeta series (exp sum oracle): fail" in lines
        assert "check euler product: fail" in lines

    def test_json_statuses(self, capsys):
        code, out, _ = run_main(
            capsys, "check", "--matrix", "[[2]]", "--format", "json", "--max-m", "4"
        )
        assert code == 0
        data = json.loads(out)
        assert all(item["status"] == "pass" for item in data["checks"])


class TestMainReport:
    def test_plain_sections(self, capsys):
        code, out, _ = run_main(capsys, "report", "--matrix", CAT_TEXT, "--max-m", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "matrix: [[2, 1], [1, 1]]"
        assert lines[1] == "lefschetz zeta: (1 - 3 z + z^2) / (1 - z)^2"
        assert lines[2] == "artin-mazur zeta: (1 - z)^2 / (1 - 3 z + z^2)"
        assert lines[3] == "signs: sigma=0 tau=0 delta=+1 epsilon=-1"
        assert "m signed_count count exponent" in lines
        assert "4 -45 45 10" in lines
        assert "functional equation: holds" in lines
        assert any(line.startswith("growth rate: 2.618033988") for line in lines)

    def test_json_round_trip(self, capsys):
        code, out, _ = run_main(
            capsys,
            "report",
            "--matrix",
            CAT_TEXT,
            "--max-m",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        parsed = json.loads(out)
        expected = report_to_dict(build_report(IntMatrix([[2, 1], [1, 1]]), max_m=5))
        assert parsed == expected
        # numeric payloads recover the report values exactly
        assert [int(c) for c in parsed["counts"]] == [1, 5, 16, 45, 121]
        assert parsed["signs"] == {"sigma": 0, "tau": 0, "delta": 1, "epsilon": -1}
        assert parsed["functional_equation"] is True

    def test_error_bound_below_float_resolution(self, capsys):
        code, out, _ = run_main(
            capsys, "report", "--matrix", CAT_TEXT, "--max-m", "2", "--tolerance", "1e-300"
        )
        assert code == 0
        assert "growth rate: 2.618033988749895 (error bound 1.7763568394002505e-15)" in out.splitlines()

    def test_singular_report(self, capsys):
        code, out, _ = run_main(capsys, "report", "--matrix", "[[0]]", "--max-m", "2")
        assert code == 0
        assert "functional equation: skipped (det = 0)" in out.splitlines()


class TestMainErrors:
    def test_bad_matrix(self, capsys):
        code, _, err = run_main(capsys, "zeta", "--matrix", "[[1,2],[3]]")
        assert code == 1
        assert "ragged row 2" in err

    def test_bad_max_m(self, capsys):
        code, _, err = run_main(capsys, "counts", "--matrix", "[[2]]", "--max-m", "0")
        assert code == 1
        assert "--max-m" in err

    def test_bad_tolerance(self, capsys):
        code, _, err = run_main(
            capsys, "zeta", "--matrix", "[[2]]", "--tolerance", "0"
        )
        assert code == 1
        assert "--tolerance" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance(self, capsys, tolerance):
        for command in ("classify", "report"):
            code, out, err = run_main(
                capsys, command, "--matrix", CAT_TEXT, f"--tolerance={tolerance}"
            )
            assert (code, out) == (1, "")
            assert "--tolerance must be finite and positive" in err

    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, "zeta", "--file", "/nonexistent/matrix.txt")
        assert code == 1
        assert "error" in err

    def test_missing_arguments(self, capsys):
        assert run_main(capsys, "zeta")[0] == 1
        assert run_main(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_main(capsys, "--help")[0] == 0


def test_parser_is_built_once_and_answers_like_a_fresh_one(capsys):
    sequence = [
        ("zeta", "--matrix", CAT_TEXT, "--format", "xml"),
        ("counts", "--matrix", CAT_TEXT, "--max-m", "3"),
        ("report", "--matrix", "[[2]]", "--max-m", "2", "--format", "json"),
        ("--help",),
        ("check", "--matrix", CAT_TEXT, "--max-m", "2"),
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run_main(capsys, *argv))
    cli._build_parser.cache_clear()
    reused = [run_main(capsys, *argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0]
    assert "invalid choice: 'xml'" in reused[0][2]
    assert cli._build_parser() is cli._build_parser()


def test_file_input(tmp_path, capsys):
    target = tmp_path / "matrix.txt"
    target.write_text(CAT_TEXT + "\n", encoding="utf-8")
    code, out, _ = run_main(capsys, "zeta", "--file", str(target))
    assert code == 0
    assert out == "(1 - z)^2 / (1 - 3 z + z^2)\n"


@pytest.mark.parametrize(
    "command", ["zeta", "lefschetz", "counts", "exponents", "classify", "check", "report"]
)
def test_one_characteristic_polynomial_per_request(capsys, monkeypatch, command):
    calls = []
    original = toralzeta.zeta.characteristic_polynomial

    def counted(mat):
        calls.append(mat)
        return original(mat)

    monkeypatch.setattr(toralzeta.zeta, "characteristic_polynomial", counted)
    for extra in ([], ["--unreduced"], ["--format", "json"]):
        calls.clear()
        code, _, _ = run_main(capsys, command, "--matrix", CAT_TEXT, "--max-m", "4", *extra)
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["counts", "--max-m", "1600"],
        ["exponents", "--max-m", "1600"],
        ["report", "--max-m", "1600"],
        ["counts", "--max-m", "1600", "--format", "latex"],
        ["counts", "--max-m", "1600", "--format", "json"],
    ],
)
def test_output_beyond_the_digit_limit_is_refused_whole(capsys, argv):
    # the counts of the cat map pass 640 digits near m = 1530; the limit is
    # lowered so the refusal comes quickly
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_main(capsys, *argv, "--matrix", CAT_TEXT)
        fits = run_main(capsys, argv[0], "--max-m", "1400", "--matrix", CAT_TEXT)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err == "error: output too large to print: an integer has more than 640 decimal digits\n"
    assert fits[0] == 0 and fits[1].endswith("\n") and fits[2] == ""


def test_matrix_entry_beyond_the_digit_limit_is_an_input_error(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_main(capsys, "zeta", "--matrix", "[[1, " + "9" * 700 + "]]")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err.startswith("error: Exceeds the limit (640 digits) for integer string conversion")
    assert err.count("\n") == 1
