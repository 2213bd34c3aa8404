"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every check is exact except the growth-rate criterion, which carries its
stated 1e-9 tolerance.
"""

import math
import random

from toralzeta import (
    IntMatrix,
    IntPoly,
    RatFunc,
    SignData,
    artin_mazur_zeta,
    det_signed_count,
    enumerate_fixed_points,
    euler_exponents,
    euler_product_series,
    exterior_power,
    det_exact,
    functional_equation_check,
    generating_function,
    growth_rate,
    isolated_fixed_count,
    lefschetz_zeta,
    mat_pow,
    signs,
    snf_fixed_count,
    sturm_sign_oracle,
)
import toralzeta.zeta
from toralzeta.cli import main
from helpers import random_matrix, random_nonsingular, random_with_unit_eigenvalue

CAT = IntMatrix([[2, 1], [1, 1]])


def conclude(capsys, name, problems):
    status = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"acceptance {name}: {status}")
    assert not problems, f"{name}: " + "; ".join(str(p) for p in problems[:5])


def test_criterion_01_one_dimensional_closed_form(capsys):
    problems = []
    for n in range(-5, 6):
        if n == 0:
            continue
        sign = 1 if n > 0 else -1
        expected = RatFunc(IntPoly((1, -sign)), IntPoly((1, -abs(n))))
        actual = artin_mazur_zeta(IntMatrix([[n]]))
        if actual != expected:
            problems.append(f"n={n}: {actual!r} != {expected!r}")
    zero_case = artin_mazur_zeta(IntMatrix([[0]]))
    if zero_case != RatFunc(IntPoly((1,)), IntPoly((1, -1))):
        problems.append(f"n=0: {zero_case!r} != 1/(1-z)")
    conclude(capsys, "one-dimensional closed form", problems)


def test_criterion_02_euler_exponents_minus_one(capsys):
    problems = []
    values = euler_exponents(IntMatrix([[-1]]), 6)
    if values != [2, -1, 0, 0, 0, 0]:
        problems.append(f"got {values}")
    conclude(capsys, "euler exponents for n=-1", problems)


def test_criterion_03_cat_map_pipeline(capsys):
    problems = []
    lefschetz = lefschetz_zeta(CAT)
    if lefschetz != RatFunc(IntPoly((1, -3, 1)), IntPoly((1, -2, 1))):
        problems.append(f"lefschetz {lefschetz!r}")
    data = signs(CAT)
    if (data.delta, data.epsilon) != (1, -1):
        problems.append(f"signs ({data.delta}, {data.epsilon})")
    zeta_fn = artin_mazur_zeta(CAT)
    if zeta_fn != RatFunc(IntPoly((1, -2, 1)), IntPoly((1, -3, 1))):
        problems.append(f"zeta {zeta_fn!r}")
    expected_counts = [1, 5, 16, 45]
    determinant_route = [isolated_fixed_count(CAT, m) for m in range(1, 5)]
    snf_route = [snf_fixed_count(CAT, m) for m in range(1, 5)]
    series_route = generating_function(CAT).series(4)[1:]
    if determinant_route != expected_counts:
        problems.append(f"determinant route {determinant_route}")
    if snf_route != expected_counts:
        problems.append(f"smith route {snf_route}")
    if series_route != expected_counts:
        problems.append(f"series route {series_route}")
    conclude(capsys, "cat map pipeline", problems)


def test_criterion_04_trace_identity(capsys):
    problems = []
    rng = random.Random(1004)
    for index in range(200):
        m = random_matrix(rng)
        a = mat_pow(m, rng.randint(1, 4))
        alternating = sum(
            (-1) ** k * exterior_power(a, k).trace() for k in range(a.dim + 1)
        )
        direct = det_exact(IntMatrix.identity(a.dim) - a)
        if alternating != direct:
            problems.append(f"case {index}: {alternating} != {direct}")
    conclude(capsys, "trace identity", problems)


def test_criterion_05_series_consistency(capsys):
    problems = []
    rng = random.Random(1005)
    for index in range(100):
        m = random_matrix(rng)
        lef_series = lefschetz_zeta(m).log_derivative().series(8)
        gen_series = generating_function(m).series(8)
        for idx in range(1, 9):
            if lef_series[idx] != det_signed_count(m, idx):
                problems.append(f"case {index}: signed mismatch at m={idx}")
                break
            if gen_series[idx] != abs(det_signed_count(m, idx)):
                problems.append(f"case {index}: count mismatch at m={idx}")
                break
    conclude(capsys, "series consistency", problems)


def test_criterion_06_euler_product_integrality(capsys):
    problems = []
    rng = random.Random(1006)
    matrices = [random_matrix(rng) for _ in range(75)]
    matrices += [random_with_unit_eigenvalue(rng) for _ in range(25)]
    for index, m in enumerate(matrices):
        try:
            exps = euler_exponents(m, 12)
        except ArithmeticError as exc:
            problems.append(f"case {index}: {exc}")
            continue
        if not all(isinstance(c, int) for c in exps):
            problems.append(f"case {index}: non-integer exponent")
            continue
        product = euler_product_series(exps[:8], 8)
        direct = artin_mazur_zeta(m).series(8)
        if product != direct:
            problems.append(f"case {index}: product series mismatch")
    conclude(capsys, "euler product integrality", problems)


def test_criterion_07_functional_equation(capsys):
    problems = []
    rng = random.Random(1007)
    for index in range(100):
        m = random_nonsingular(rng)
        result = functional_equation_check(m)
        if not result.holds:
            problems.append(f"case {index}: fails on {m!r}")
    for n in range(-5, 6):
        if n == 0:
            continue
        if not functional_equation_check(IntMatrix([[n]])).holds:
            problems.append(f"n={n}: fails")
    conclude(capsys, "functional equation", problems)


def test_criterion_08_sign_oracle_agreement(capsys):
    problems = []
    rng = random.Random(1008)
    matrices = [random_matrix(rng) for _ in range(140)]
    matrices += [random_with_unit_eigenvalue(rng) for _ in range(60)]
    for index, m in enumerate(matrices):
        data = signs(m)
        oracle_pair = sturm_sign_oracle(m)
        if (data.delta, data.epsilon) != oracle_pair:
            problems.append(
                f"case {index}: signs ({data.delta}, {data.epsilon})"
                f" vs oracle {oracle_pair}"
            )
    conclude(capsys, "sign oracle agreement", problems)


def test_criterion_09_subtorus_degeneracy(capsys):
    problems = []
    swap = IntMatrix([[0, 1], [1, 0]])
    counts = [isolated_fixed_count(swap, m) for m in range(1, 7)]
    if counts != [0] * 6:
        problems.append(f"counts {counts}")
    if artin_mazur_zeta(swap) != RatFunc(1):
        problems.append("zeta is not identically 1")
    for m in (1, 2):
        if enumerate_fixed_points(swap, m).finite:
            problems.append(f"m={m} reported finite")
    conclude(capsys, "subtorus degeneracy", problems)


def test_criterion_10_growth_rate(capsys):
    problems = []
    doubling = growth_rate(IntMatrix([[2]]))
    if doubling is None or abs(doubling.value - 2.0) > 1e-9:
        problems.append(f"doubling map: {doubling!r}")
    cat_rate = growth_rate(CAT)
    golden = (3 + math.sqrt(5)) / 2
    if cat_rate is None or abs(cat_rate.value - golden) > 1e-9:
        problems.append(f"cat map: {cat_rate!r}")
    for ident in (IntMatrix.identity(1), IntMatrix.identity(2)):
        if growth_rate(ident) is not None:
            problems.append(f"identity dim {ident.dim}: rate not absent")
    conclude(capsys, "growth rate", problems)


def test_criterion_11_oracle_independence(capsys):
    problems = []
    rng = random.Random(1011)
    for index in range(500):
        m = random_matrix(rng)
        iterate = rng.randint(1, 6)
        smith = snf_fixed_count(m, iterate)
        direct = isolated_fixed_count(m, iterate)
        if smith != direct:
            problems.append(f"case {index}: {smith} != {direct}")
    conclude(capsys, "oracle independence", problems)


def test_criterion_12_cli_conformance(capsys, monkeypatch):
    problems = []

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    code, out = run("zeta", "--matrix", "[[2,1],[1,1]]")
    if (code, out) != (0, "(1 - z)^2 / (1 - 3 z + z^2)\n"):
        problems.append(f"cat zeta: code {code}, output {out!r}")

    code, out = run("zeta", "--matrix", "[[-1]]")
    if (code, out) != (0, "(1 + z) / (1 - z)\n"):
        problems.append(f"minus-one zeta: code {code}, output {out!r}")

    code, out = run("counts", "--matrix", "[[2]]", "--max-m", "3")
    if (code, out) != (0, "m signed_count count\n1 -1 1\n2 -3 3\n3 -7 7\n"):
        problems.append(f"doubling counts: code {code}, output {out!r}")

    code, _ = run("check", "--matrix", "[[2,1],[1,1]]")
    if code != 0:
        problems.append(f"check on cat map exited {code}")

    original = toralzeta.zeta._signs

    def corrupted(p):
        data = original(p)
        return SignData(
            sigma=data.sigma, tau=data.tau, delta=data.delta, epsilon=-data.epsilon
        )

    monkeypatch.setattr(toralzeta.zeta, "_signs", corrupted)
    code, _ = run("check", "--matrix", "[[2,1],[1,1]]")
    monkeypatch.undo()
    if code != 2:
        problems.append(f"corrupted check exited {code}, expected 2")

    conclude(capsys, "cli conformance", problems)
