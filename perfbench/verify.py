"""Check every CLI response against references outside the main pipeline.

Responses are parsed back from their plain, LaTeX or JSON text and
compared with:

- counts: toralzeta.oracle.snf_fixed_count (Smith normal form) on the
  first SNF_ITERATES iterates, and on every iterate the determinant of
  1 - M^m computed by reference.py;
- zeta series: toralzeta.oracle.exp_sum_zeta_series for the counting zeta
  function, and the exponential of the reference signed counts for the
  Lefschetz one, through enough terms to pin a rational function of the
  response's degree down exactly;
- exponents: Moebius inversion of the reference counts;
- signs: multiplicities of +-1 in the reference characteristic polynomial
  and toralzeta.oracle.sturm_sign_oracle;
- classification: reference root-of-unity orders and gcd test, and numpy
  root moduli on the numeric path;
- growth rate: the Mahler measure of the characteristic polynomial, on
  quasihyperbolic matrices only;
- check: exit code 0 and no failing line.
"""

from __future__ import annotations

import json
import re

import reference

SNF_ITERATES = 50
GROWTH_TOLERANCE = 1e-6


class ResponseError(Exception):
    pass


def parse_poly(text: str) -> list[int]:
    """Plain or LaTeX polynomial text such as "1 - 3 z + z^{2}"."""
    s = re.sub(r"\^\{(\d+)\}", r"^\1", text.replace(" ", ""))
    if s == "0":
        return []
    coeffs: dict[int, int] = {}
    for term in re.findall(r"[+-]?[^+-]+", s):
        m = re.fullmatch(r"([+-]?)(\d*)(z(?:\^(\d+))?)?", term)
        if not m or not (m.group(2) or m.group(3)):
            raise ResponseError(f"bad polynomial term {term!r}")
        e = int(m.group(4) or 1) if m.group(3) else 0
        coeffs[e] = coeffs.get(e, 0) + (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
    return reference.trim([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


_FACTOR = r"\(([^()]*)\)(?:\^\{?(\d+)\}?)?"


def parse_factored(text: str) -> list[int]:
    """A product like "-2 (1 - z)^2 (1 + z)", or a bare polynomial."""
    text = text.strip()
    first = text.find("(")
    if first < 0:
        return parse_poly(text)
    prefix, rest = text[:first].strip(), text[first:]
    if not re.fullmatch(rf"(\s*{_FACTOR})+\s*", rest):
        raise ResponseError(f"bad factored polynomial {text!r}")
    out = [{"": 1, "-": -1}.get(prefix) or int(prefix)]
    for m in re.finditer(_FACTOR, rest):
        for _ in range(int(m.group(2) or 1)):
            out = reference.poly_mul(out, parse_poly(m.group(1)))
    return out


def _braced(text: str, start: int) -> tuple[str, int]:
    if text[start] != "{":
        raise ResponseError("expected '{'")
    depth = 0
    for i in range(start, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[start + 1:i], i + 1
    raise ResponseError("unbalanced braces")


def parse_ratfunc(text: str) -> tuple[list[int], list[int]]:
    text = text.strip()
    if text.startswith("\\frac"):
        top, end = _braced(text, len("\\frac"))
        bottom, end = _braced(text, end)
        if end != len(text):
            raise ResponseError("trailing text after \\frac")
        return parse_factored(top), parse_factored(bottom)
    if " / " in text:
        top, bottom = text.split(" / ")
        return parse_factored(top), parse_factored(bottom)
    return parse_factored(text), [1]


def _json_poly(values) -> list[int]:
    return reference.trim(int(v) for v in values)


def _table(lines, columns: int) -> list[list[int]]:
    """Rows of integers from a plain table or a LaTeX tabular; headers start with m."""
    rows = []
    for line in lines:
        if line.startswith(("\\", "m ")):
            continue
        cells = line.replace("\\\\", "").replace("&", " ").split()
        if len(cells) != columns:
            raise ResponseError(f"bad table row {line!r}")
        rows.append([int(c) for c in cells])
    return rows


class Verifier:
    """Holds the toralzeta oracle module and caches references per matrix."""

    def __init__(self, oracle, int_matrix):
        self.oracle = oracle
        self.int_matrix = int_matrix
        self._refs: dict = {}
        self._verdicts: dict = {}

    def check(self, req, argv, rc: int, out: str) -> str | None:
        """None when the response is right, else the reason it is not."""
        key = (tuple(argv), rc, out)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(req, rc, out)
            except (ResponseError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self._verdicts[key] = f"unreadable response: {exc}"
        return self._verdicts[key]

    # reference data, computed once per matrix and extended on demand

    def _ref(self, rows) -> dict:
        if rows not in self._refs:
            poly = reference.char_poly(rows)
            self._refs[rows] = {"poly": poly, "signed": [], "zeta": [], "snf": []}
        return self._refs[rows]

    def signed(self, rows, count):
        ref = self._ref(rows)
        if len(ref["signed"]) < count:
            ref["signed"] = reference.signed_counts(rows, count)
        return ref["signed"][:count]

    def _snf(self, rows, count):
        ref = self._ref(rows)
        mat = self.int_matrix(rows)
        while len(ref["snf"]) < count:
            ref["snf"].append(self.oracle.snf_fixed_count(mat, len(ref["snf"]) + 1))
        return ref["snf"][:count]

    def _zeta_series(self, rows, order):
        ref = self._ref(rows)
        if len(ref["zeta"]) <= order:
            ref["zeta"] = self.oracle.exp_sum_zeta_series(self.int_matrix(rows), order)
        return ref["zeta"][: order + 1]

    # comparisons

    def _series_error(self, rows, num, den, lefschetz: bool) -> str | None:
        # Both sides have numerator and denominator degrees below the
        # response's and 2^(d-1) respectively, so agreement through this
        # order makes the cross-multiplied difference vanish identically.
        order = max(len(num), len(den)) - 1 + 2 ** (len(rows) - 1)
        if lefschetz:
            expected = reference.exp_of_count_sum(self.signed(rows, order), order)
        else:
            expected = self._zeta_series(rows, order)
        if reference.series(num, den, order) != list(expected):
            return ("lefschetz" if lefschetz else "zeta") + " series mismatch"
        return None

    def _counts_error(self, rows, signed, counts) -> str | None:
        n = len(counts)
        if len(signed) != n:
            return "counts and signed counts differ in length"
        expected = self.signed(rows, n)
        if list(signed) != expected:
            return "signed counts mismatch"
        if list(counts) != [abs(x) for x in expected]:
            return "counts mismatch"
        if list(counts[:SNF_ITERATES]) != self._snf(rows, min(n, SNF_ITERATES)):
            return "counts disagree with the smith oracle"
        return None

    def _exponents_error(self, rows, exponents) -> str | None:
        counts = [abs(x) for x in self.signed(rows, len(exponents))]
        if list(exponents) != reference.orbit_exponents(counts):
            return "exponents mismatch"
        return None

    def _classification_error(self, rows, cls: dict) -> str | None:
        poly = self._ref(rows)["poly"]
        orders = reference.root_of_unity_orders(poly)
        if cls["singular"] != (poly[0] == 0):
            return "singular flag mismatch"
        if list(cls["root_of_unity_orders"]) != orders:
            return "root of unity orders mismatch"
        if cls["quasihyperbolic"] != (not orders):
            return "quasihyperbolic flag mismatch"
        if orders:
            expected = (False, "exact")
        elif reference.poly_gcd_degree(poly, list(reversed(poly))) == 0:
            expected = (True, "exact")
        else:
            gap = min(abs(r - 1.0) for r in reference.root_moduli(poly))
            if gap < 1e-6:
                return None  # numerically on the unit circle: either verdict may be honest
            expected = (True, "numeric")
        if (cls["hyperbolic"], cls["hyperbolic_flag"]) != expected:
            return "hyperbolicity mismatch"
        return None

    def _growth_error(self, rows, growth, quasihyperbolic: bool) -> str | None:
        if not quasihyperbolic:
            return None
        if growth is None:
            return "growth rate absent on a quasihyperbolic matrix"
        expected = reference.mahler_measure(self._ref(rows)["poly"])
        if abs(growth - expected) > GROWTH_TOLERANCE * max(1.0, expected):
            return f"growth rate {growth} differs from the Mahler measure {expected}"
        return None

    def _signs_error(self, rows, signs: dict) -> str | None:
        poly = self._ref(rows)["poly"]
        if (signs["sigma"], signs["tau"]) != (reference.multiplicity(poly, 1), reference.multiplicity(poly, -1)):
            return "sign multiplicities mismatch"
        if (signs["delta"], signs["epsilon"]) != self.oracle.sturm_sign_oracle(self.int_matrix(rows)):
            return "sign pair disagrees with the sturm oracle"
        return None

    # one parser per subcommand

    def _check(self, req, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        rows = req.rows
        data = json.loads(out) if req.fmt == "json" else None
        lines = out.strip().splitlines()
        command = req.command
        if command in ("zeta", "lefschetz"):
            lefschetz = command == "lefschetz"
            if req.unreduced:
                num, den = self._unreduced(data, lines)
            elif data is not None:
                f = data["lefschetz_zeta" if lefschetz else "artin_mazur_zeta"]
                num, den = _json_poly(f["num"]), _json_poly(f["den"])
            else:
                num, den = parse_ratfunc(out)
            return self._series_error(rows, num, den, lefschetz)
        if command == "counts":
            if data is not None:
                signed = [int(x) for x in data["signed_counts"]]
                counts = [int(x) for x in data["counts"]]
            else:
                table = _table(lines, 3)
                if [r[0] for r in table] != list(range(1, len(table) + 1)):
                    return "counts table rows out of order"
                signed, counts = [r[1] for r in table], [r[2] for r in table]
            if len(counts) != req.max_m:
                return "wrong number of counts"
            return self._counts_error(rows, signed, counts)
        if command == "exponents":
            if data is not None:
                exponents = [int(x) for x in data["exponents"]]
            else:
                exponents = [r[1] for r in _table(lines, 2)]
            if len(exponents) != req.max_m:
                return "wrong number of exponents"
            return self._exponents_error(rows, exponents)
        if command == "classify":
            cls = data if data is not None else _classification_from_text(lines)
            return self._classification_error(rows, cls)
        if command == "check":
            if data is not None:
                statuses = [c["status"] for c in data["checks"]]
            else:
                statuses = [line.split(": ", 1)[1] for line in lines]
            if not statuses or any(s == "fail" for s in statuses):
                return "a cross-check failed"
            return None
        if command == "report":
            return self._report_error(req, data, lines)
        raise ResponseError(f"unknown command {command}")

    def _unreduced(self, data, lines):
        if data is not None:
            factors = [(f["exponent"], _json_poly(f["factor"])) for f in data["factors"]]
        else:
            factors = []
            for line in lines:
                m = re.fullmatch(r"k=\d+ exponent=([+-]\d+) factor=(.*)", line)
                if not m:
                    raise ResponseError(f"bad factor line {line!r}")
                factors.append((int(m.group(1)), parse_poly(m.group(2))))
        num, den = [1], [1]
        for exponent, poly in factors:
            for _ in range(abs(exponent)):
                if exponent > 0:
                    num = reference.poly_mul(num, poly)
                else:
                    den = reference.poly_mul(den, poly)
        return num, den

    def _report_error(self, req, data, lines) -> str | None:
        rows = req.rows
        if data is not None:
            lef = data["lefschetz_zeta"]
            am = data["artin_mazur_zeta"]
            lefschetz = (_json_poly(lef["num"]), _json_poly(lef["den"]))
            artin_mazur = (_json_poly(am["num"]), _json_poly(am["den"]))
            signs = data["signs"]
            signed = [int(x) for x in data["signed_counts"]]
            counts = [int(x) for x in data["counts"]]
            exponents = [int(x) for x in data["exponents"]]
            cls = data["classification"]
            feq = data["functional_equation"]
            growth = None if data["growth_rate"] is None else data["growth_rate"]["value"]
        else:
            fields = {}
            table = []
            for line in lines:
                if re.fullmatch(r"-?\d+( -?\d+){3}", line):
                    table.append([int(x) for x in line.split()])
                elif ": " in line:
                    name, value = line.split(": ", 1)
                    fields[name] = value
            lefschetz = parse_ratfunc(fields["lefschetz zeta"])
            artin_mazur = parse_ratfunc(fields["artin-mazur zeta"])
            signs = {k: int(v) for k, v in re.findall(r"(\w+)=([+-]?\d+)", fields["signs"])}
            if [r[0] for r in table] != list(range(1, len(table) + 1)):
                return "report table rows out of order"
            signed = [r[1] for r in table]
            counts = [r[2] for r in table]
            exponents = [r[3] for r in table]
            cls = _classification_from_text(lines)
            feq = {"holds": True, "FAILS": False, "skipped (det = 0)": None}[fields["functional equation"]]
            text = fields["growth rate"]
            growth = None if text == "absent" else float(text.split(" (")[0])
        if len(counts) != req.max_m:
            return "wrong number of counts"
        singular = self._ref(rows)["poly"][0] == 0
        if feq != (None if singular else True):
            return "functional equation verdict mismatch"
        return (self._series_error(rows, *lefschetz, lefschetz=True)
                or self._series_error(rows, *artin_mazur, lefschetz=False)
                or self._signs_error(rows, signs)
                or self._counts_error(rows, signed, counts)
                or self._exponents_error(rows, exponents)
                or self._classification_error(rows, cls)
                or self._growth_error(rows, growth, cls["quasihyperbolic"]))


def _classification_from_text(lines) -> dict:
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    orders = fields["root of unity orders"]
    hyperbolic = fields["hyperbolic"]
    if hyperbolic == "indeterminate":
        verdict, flag = None, "indeterminate"
    else:
        answer, flag = re.fullmatch(r"(yes|no) \((\w+)\)", hyperbolic).groups()
        verdict = answer == "yes"
    return {
        "singular": fields["singular"] == "yes",
        "root_of_unity_orders": [] if orders == "none" else [int(x) for x in orders.split(", ")],
        "quasihyperbolic": fields["quasihyperbolic"] == "yes",
        "hyperbolic": verdict,
        "hyperbolic_flag": flag,
    }
