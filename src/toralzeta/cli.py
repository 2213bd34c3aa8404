"""Command line front end.

Subcommands: zeta, lefschetz, counts, exponents, classify, check, report.
The matrix comes inline (--matrix "[[2,1],[1,1]]") or from a file; output
is plain text, LaTeX or JSON.  Exit codes: 0 success, 1 input error, 2 a
failed cross-check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from dataclasses import asdict

from .linalg import IntMatrix, det_exact
from .polynomials import IntPoly, RatFunc, squarefree_decomposition
from . import oracle, zeta


class MatrixParseError(ValueError):
    pass


def parse_matrix(text: str) -> IntMatrix:
    """Parse a bracketed integer matrix like [[2,1],[1,1]].

    Raises MatrixParseError naming the offending row or position for
    ragged, empty, non-square or non-integer input.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            found = text[pos] if pos < n else "end of input"
            raise MatrixParseError(f"expected '{ch}' at position {pos}, found {found!r}")
        pos += 1

    def parse_int():
        nonlocal pos
        skip_ws()
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        digits = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == digits:
            found = text[start] if start < n else "end of input"
            raise MatrixParseError(f"expected an integer at position {start}, found {found!r}")
        return int(text[start:pos])

    def parse_row(index):
        nonlocal pos
        expect("[")
        skip_ws()
        if pos < n and text[pos] == "]":
            raise MatrixParseError(f"empty row {index}")
        entries = [parse_int()]
        while True:
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                entries.append(parse_int())
            else:
                break
        expect("]")
        return entries

    expect("[")
    skip_ws()
    if pos < n and text[pos] == "]":
        raise MatrixParseError("empty matrix")
    rows = [parse_row(1)]
    while True:
        skip_ws()
        if pos < n and text[pos] == ",":
            pos += 1
            rows.append(parse_row(len(rows) + 1))
        else:
            break
    expect("]")
    skip_ws()
    if pos != n:
        raise MatrixParseError(f"trailing input at position {pos}")
    width = len(rows[0])
    for index, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MatrixParseError(
                f"ragged row {index} (got {len(row)} entries, expected {width})"
            )
    if len(rows) != width:
        raise MatrixParseError(f"matrix is {len(rows)}x{width}, not square")
    return IntMatrix(rows)


def render_matrix(mat: IntMatrix) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in mat.rows) + "]"


def format_poly_plain(p: IntPoly) -> str:
    """Ascending plain text, e.g. "1 - 3 z + z^2"."""
    return _format_poly(p, lambda e: "z" if e == 1 else f"z^{e}")


def format_poly_latex(p: IntPoly) -> str:
    return _format_poly(p, lambda e: "z" if e == 1 else f"z^{{{e}}}")


def _format_poly(p: IntPoly, power) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = power(e)
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _lowest_sign_positive(p: IntPoly) -> tuple[IntPoly, bool]:
    for c in p.coeffs:
        if c:
            return (p, False) if c > 0 else (-p, True)
    return p, False


def _display_factored(p: IntPoly, power, exponent) -> str:
    """Render p as a product of squarefree factors, each parenthesized."""
    if p.is_zero():
        return "0"
    scale, factors = squarefree_decomposition(p)
    pieces = []
    for q, mult in factors:
        q, flipped = _lowest_sign_positive(q)
        if flipped and mult % 2:
            scale = -scale
        piece = f"({_format_poly(q, power)})"
        if mult > 1:
            piece += exponent(mult)
        pieces.append(piece)
    if not pieces:
        return str(scale)
    if scale == 1:
        return " ".join(pieces)
    if scale == -1:
        return "-" + " ".join(pieces)
    return f"{scale} " + " ".join(pieces)


def _display_pair(f: RatFunc) -> tuple[IntPoly, IntPoly]:
    # flip both signs when the denominator leads with a negative low-order
    # coefficient; purely cosmetic, the value is unchanged
    den, flipped = _lowest_sign_positive(f.den)
    return (-f.num if flipped else f.num), den


def format_ratfunc_plain(f: RatFunc) -> str:
    num, den = _display_pair(f)
    if den == IntPoly((1,)):
        return format_poly_plain(num)
    top = _display_factored(num, lambda e: "z" if e == 1 else f"z^{e}", lambda m: f"^{m}")
    bottom = _display_factored(den, lambda e: "z" if e == 1 else f"z^{e}", lambda m: f"^{m}")
    return f"{top} / {bottom}"


def format_ratfunc_latex(f: RatFunc) -> str:
    num, den = _display_pair(f)
    power = lambda e: "z" if e == 1 else f"z^{{{e}}}"
    exponent = lambda m: f"^{{{m}}}"
    if den == IntPoly((1,)):
        return format_poly_latex(num)
    top = _display_factored(num, power, exponent)
    bottom = _display_factored(den, power, exponent)
    return f"\\frac{{{top}}}{{{bottom}}}"


def _poly_json(p: IntPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _ratfunc_json(f: RatFunc) -> dict:
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def _classification_json(cls: zeta.ClassificationReport) -> dict:
    return {**asdict(cls), "root_of_unity_orders": list(cls.root_of_unity_orders)}


def report_to_dict(report: zeta.ZetaReport) -> dict:
    """JSON-ready view of a report; unbounded integers become decimal strings."""
    return {
        "matrix": [[str(x) for x in row] for row in report.matrix.rows],
        "lefschetz_zeta": _ratfunc_json(report.lefschetz_zeta),
        "artin_mazur_zeta": _ratfunc_json(report.artin_mazur_zeta),
        "signs": asdict(report.signs),
        "counts": [str(x) for x in report.counts],
        "signed_counts": [str(x) for x in report.signed_counts],
        "exponents": [str(x) for x in report.exponents],
        "classification": _classification_json(report.classification),
        "functional_equation": report.functional_equation_holds,
        "growth_rate": None if report.growth_rate is None else asdict(report.growth_rate),
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Building it costs about as much as a small request; parsing leaves it
    unchanged, so one instance serves every call of main.
    """
    parser = argparse.ArgumentParser(
        prog="toralzeta",
        description="Exact zeta functions of integer matrices acting on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("zeta", "reduced zeta function counting isolated fixed points"),
        ("lefschetz", "reduced zeta function counting signed fixed points"),
        ("counts", "fixed-point counts per iterate"),
        ("exponents", "exponents of the orbit product form"),
        ("classify", "spectral classification"),
        ("check", "run the functional equation and oracle cross-checks"),
        ("report", "everything at once"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--matrix", help="inline matrix, e.g. [[2,1],[1,1]]")
        source.add_argument("--file", help="path to a file holding the matrix")
        cmd.add_argument("--max-m", type=int, default=10, dest="max_m",
                         help="number of iterates (default 10)")
        cmd.add_argument("--format", choices=["plain", "latex", "json"], default="plain")
        cmd.add_argument("--tolerance", type=float, default=zeta.DEFAULT_TOLERANCE,
                         help="numeric tolerance for root moduli (default 1e-9)")
        cmd.add_argument("--unreduced", action="store_true",
                         help="list the determinant factors instead of the reduced form")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if args.file is not None:
        try:
            with open(args.file) as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        source = args.matrix
    if args.max_m < 1:
        print("error: --max-m must be at least 1", file=sys.stderr)
        return 1
    if not 0 < args.tolerance < math.inf:
        print("error: --tolerance must be finite and positive", file=sys.stderr)
        return 1
    try:
        mat = parse_matrix(source)
    except ValueError as exc:  # MatrixParseError, or an entry beyond the digit limit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handler = {
        "zeta": _cmd_zeta,
        "lefschetz": _cmd_lefschetz,
        "counts": _cmd_counts,
        "exponents": _cmd_exponents,
        "classify": _cmd_classify,
        "check": _cmd_check,
        "report": _cmd_report,
    }[args.command]
    # each handler reads the parsed flags: max_m, format, tolerance, unreduced;
    # its output is held back until it is complete, so a refusal prints none
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = handler(mat, args)
    except ValueError as exc:
        # Python refuses to write an integer of more decimal digits than
        # sys.get_int_max_str_digits(), with a ValueError that says so
        if "for integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: output too large to print: an integer has more than {limit} "
              "decimal digits", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


def _print_ratfunc(f: RatFunc, config: argparse.Namespace, json_key: str) -> None:
    if config.format == "json":
        print(json.dumps({json_key: _ratfunc_json(f)}, indent=2))
    elif config.format == "latex":
        print(format_ratfunc_latex(f))
    else:
        print(format_ratfunc_plain(f))


def _print_factor_table(factors, epsilon: int, config: argparse.Namespace) -> None:
    # factor k enters the zeta function to the power epsilon * (-1)^(k+1)
    exponents = [epsilon * (1 if k % 2 else -1) for k in range(len(factors))]
    if config.format == "json":
        data = [
            {"k": k, "exponent": e, "factor": _poly_json(p)}
            for k, (p, e) in enumerate(zip(factors, exponents))
        ]
        print(json.dumps({"factors": data}, indent=2))
        return
    render = format_poly_latex if config.format == "latex" else format_poly_plain
    for k, (p, e) in enumerate(zip(factors, exponents)):
        print(f"k={k} exponent={e:+d} factor={render(p)}")


def _cmd_zeta(mat, config) -> int:
    p = zeta.characteristic_polynomial(mat)
    factors = zeta._factors(p)
    sign_data = zeta._signs(p)
    if config.unreduced:
        signed = [f.substitute_signed(sign_data.delta) for f in factors]
        _print_factor_table(signed, sign_data.epsilon, config)
    else:
        artin_mazur = zeta._compose_signs(zeta._lefschetz(factors), sign_data)
        _print_ratfunc(artin_mazur, config, "artin_mazur_zeta")
    return 0


def _cmd_lefschetz(mat, config) -> int:
    if config.unreduced:
        _print_factor_table(zeta.char_factors(mat), 1, config)
    else:
        _print_ratfunc(zeta.lefschetz_zeta(mat), config, "lefschetz_zeta")
    return 0


def _print_iterate_table(columns: dict, plain_header: str, latex_header: str, config) -> None:
    """One row per iterate m; JSON maps each column name to decimal strings."""
    if config.format == "json":
        print(json.dumps({k: [str(x) for x in v] for k, v in columns.items()}, indent=2))
        return
    rows = list(zip(range(1, config.max_m + 1), *columns.values()))
    if config.format == "latex":
        print(f"\\begin{{tabular}}{{{'r' * (len(columns) + 1)}}}")
        print(latex_header + " \\\\")
        for row in rows:
            print(" & ".join(map(str, row)) + " \\\\")
        print("\\end{tabular}")
    else:
        print(plain_header)
        for row in rows:
            print(" ".join(map(str, row)))


def _cmd_counts(mat, config) -> int:
    signed = zeta._signed_counts(zeta.char_factors(mat), config.max_m)
    columns = {"signed_counts": signed, "counts": [abs(x) for x in signed]}
    _print_iterate_table(columns, "m signed_count count", "m & signed & count", config)
    return 0


def _cmd_exponents(mat, config) -> int:
    exps = zeta.euler_exponents(mat, config.max_m)
    _print_iterate_table({"exponents": exps}, "m exponent", "m & exponent", config)
    return 0


def _print_classification(cls: zeta.ClassificationReport) -> None:
    orders = ", ".join(str(n) for n in cls.root_of_unity_orders) or "none"
    if cls.hyperbolic is None:
        hyperbolic = "indeterminate"
    else:
        hyperbolic = f"{'yes' if cls.hyperbolic else 'no'} ({cls.hyperbolic_flag})"
    print(f"singular: {'yes' if cls.singular else 'no'}")
    print(f"root of unity orders: {orders}")
    print(f"quasihyperbolic: {'yes' if cls.quasihyperbolic else 'no'}")
    print(f"hyperbolic: {hyperbolic}")


def _cmd_classify(mat, config) -> int:
    cls = zeta.classify(mat, config.tolerance)
    if config.format == "json":
        print(json.dumps(_classification_json(cls), indent=2))
    else:
        _print_classification(cls)
    return 0


def _iterates(mat, max_m):
    """(M^m, 1 - M^m, Smith divisors, V) for m = 1..max_m.

    One running power M^m = M^(m-1) M and one Smith form U(1 - M^m)V = D
    per iterate; every row of check that works on the iterates reads them.
    """
    ident = IntMatrix.identity(mat.dim)
    power = ident
    for _ in range(max_m):
        power = power @ mat
        system = ident - power
        yield (power, system, *oracle._smith_form(system))


def _run_checks(mat, config) -> list[tuple[str, str]]:
    results = []
    max_m = config.max_m
    p = zeta.characteristic_polynomial(mat)
    factors = zeta._factors(p)
    lefschetz = zeta._lefschetz(factors)
    sign_data = zeta._signs(p)
    artin_mazur = zeta._compose_signs(lefschetz, sign_data)
    zeta_series = artin_mazur.series(max_m)

    if p.constant_coefficient == 0:
        results.append(("functional equation", "skipped (det = 0)"))
    else:
        holds = zeta._functional_equation(p, lefschetz, sign_data).holds
        results.append(("functional equation", "pass" if holds else "fail"))

    counts = [abs(x) for x in zeta._signed_counts(factors, max_m)]
    dets = []
    smith_ok = enumeration_ok = True
    seen = False
    for m, (power, system, divisors, trans) in enumerate(_iterates(mat, max_m), start=1):
        dets.append(det_exact(system))
        smith_ok = smith_ok and math.prod(divisors) == counts[m - 1]
        try:
            found = oracle._fixed_points(power, divisors, trans)
        except ValueError:
            continue  # beyond the enumeration limit
        except AssertionError:
            enumeration_ok = False  # the enumeration refuted its own input
        else:
            distinct = 0 if found is None else len(found[0])
            enumeration_ok = enumeration_ok and distinct == counts[m - 1]
        seen = True
    results.append(("fixed-point counts (smith oracle)", "pass" if smith_ok else "fail"))
    status = "pass" if enumeration_ok else "fail"
    if not seen:
        status = "skipped (all iterates beyond the enumeration limit)"
    results.append(("fixed-point enumeration", status))

    try:
        ok = oracle._exp_sum_series([abs(x) for x in dets]) == zeta_series
    except ArithmeticError:
        ok = False
    results.append(("zeta series (exp sum oracle)", "pass" if ok else "fail"))

    ok = oracle.sturm_sign_oracle(mat) == (sign_data.delta, sign_data.epsilon)
    results.append(("signs (sturm oracle)", "pass" if ok else "fail"))

    ok = lefschetz.log_derivative().series(max_m)[1:] == dets
    results.append(("lefschetz series", "pass" if ok else "fail"))

    try:
        ok = oracle.euler_product_series(zeta._exponents(counts), max_m) == zeta_series
    except ArithmeticError:
        ok = False
    results.append(("euler product", "pass" if ok else "fail"))
    return results


def _cmd_check(mat, config) -> int:
    results = _run_checks(mat, config)
    if config.format == "json":
        print(json.dumps({"checks": [{"name": n, "status": s} for n, s in results]}, indent=2))
    else:
        for name, status in results:
            print(f"check {name}: {status}")
    return 2 if any(s == "fail" for _, s in results) else 0


def _cmd_report(mat, config) -> int:
    report = zeta.build_report(mat, config.max_m, config.tolerance)
    if config.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
        return 0
    rat = format_ratfunc_latex if config.format == "latex" else format_ratfunc_plain
    print(f"matrix: {render_matrix(report.matrix)}")
    print(f"lefschetz zeta: {rat(report.lefschetz_zeta)}")
    print(f"artin-mazur zeta: {rat(report.artin_mazur_zeta)}")
    s = report.signs
    print(f"signs: sigma={s.sigma} tau={s.tau} delta={s.delta:+d} epsilon={s.epsilon:+d}")
    print("m signed_count count exponent")
    rows = zip(range(1, config.max_m + 1), report.signed_counts, report.counts, report.exponents)
    for row in rows:
        print(" ".join(map(str, row)))
    _print_classification(report.classification)
    if report.functional_equation_holds is None:
        print("functional equation: skipped (det = 0)")
    else:
        print(f"functional equation: {'holds' if report.functional_equation_holds else 'FAILS'}")
    if report.growth_rate is None:
        print("growth rate: absent")
    else:
        print(f"growth rate: {report.growth_rate.value!r} (error bound {report.growth_rate.error!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
