"""Zeta functions, signs, exponents, growth, classification, and the report."""

import math
import random

import pytest

from toralzeta import (
    IntMatrix,
    IntPoly,
    RatFunc,
    artin_mazur_zeta,
    build_report,
    char_factors,
    characteristic_polynomial,
    classify,
    det_exact,
    det_signed_count,
    euler_exponents,
    exterior_power,
    functional_equation_check,
    generating_function,
    growth_rate,
    isolated_fixed_count,
    lefschetz_zeta,
    mat_pow,
    multiplicity_at,
    signed_count,
    signs,
)
from helpers import random_matrix, random_nonsingular, random_with_unit_eigenvalue

CAT = IntMatrix([[2, 1], [1, 1]])
SWAP = IntMatrix([[0, 1], [1, 0]])
ROTATION = IntMatrix([[0, -1], [1, 0]])


def one_dim_zeta(n: int) -> RatFunc:
    """Closed form (1 - sgn(n) z) / (1 - |n| z) for n != 0."""
    s = 1 if n > 0 else -1
    return RatFunc(IntPoly((1, -s)), IntPoly((1, -abs(n))))


def test_characteristic_polynomial():
    assert characteristic_polynomial(CAT) == IntPoly((1, -3, 1))
    assert characteristic_polynomial(IntMatrix([[-1]])) == IntPoly((1, 1))
    assert characteristic_polynomial(IntMatrix.zero(2)) == IntPoly((0, 0, 1))


def test_characteristic_polynomial_is_monic():
    rng = random.Random(7)
    for _ in range(30):
        m = random_matrix(rng)
        p = characteristic_polynomial(m)
        assert p.degree == m.dim
        assert p.leading_coefficient == 1
        assert p(0) == (-1) ** m.dim * det_exact(m)


def test_char_factors_zero_matrix():
    ones = IntPoly((1,))
    assert char_factors(IntMatrix.zero(2)) == (IntPoly((1, -1)), ones, ones)


def test_char_factors_cat():
    factors = char_factors(CAT)
    assert factors == (IntPoly((1, -1)), IntPoly((1, -3, 1)), IntPoly((1, -1)))


def test_char_factors_shape():
    rng = random.Random(8)
    for _ in range(20):
        m = random_matrix(rng)
        factors = char_factors(m)
        assert len(factors) == m.dim + 1
        assert factors[0] == IntPoly((1, -1))
        assert factors[-1] == IntPoly((1, -det_exact(m)))
        for p in factors:
            assert p.constant_coefficient == 1


def test_lefschetz_zeta_examples():
    assert lefschetz_zeta(CAT) == RatFunc(IntPoly((1, -3, 1)), IntPoly((1, -2, 1)))
    assert lefschetz_zeta(IntMatrix([[-1]])) == RatFunc(
        IntPoly((1, 1)), IntPoly((1, -1))
    )
    assert lefschetz_zeta(IntMatrix([[2]])) == RatFunc(
        IntPoly((1, -2)), IntPoly((1, -1))
    )
    assert lefschetz_zeta(SWAP) == RatFunc(1)


def test_signed_counts_cat():
    assert [signed_count(CAT, m) for m in range(1, 5)] == [-1, -5, -16, -45]
    assert [isolated_fixed_count(CAT, m) for m in range(1, 5)] == [1, 5, 16, 45]


def test_signed_counts_vanish_on_subtorus():
    assert [signed_count(SWAP, m) for m in range(1, 7)] == [0] * 6


def test_count_rejects_nonpositive_iterate():
    with pytest.raises(ValueError):
        signed_count(CAT, 0)


def test_trace_identity():
    # det(1 - A) equals the alternating sum of exterior-power traces
    rng = random.Random(9)
    for _ in range(50):
        m = random_matrix(rng)
        a = mat_pow(m, rng.randint(1, 4))
        total = sum(
            (-1) ** k * exterior_power(a, k).trace() for k in range(a.dim + 1)
        )
        assert total == det_exact(IntMatrix.identity(a.dim) - a)


class TestSigns:
    def test_table(self):
        cases = [
            (IntMatrix([[1]]), (1, 0, 1, 1)),
            (IntMatrix([[-1]]), (0, 1, 1, 1)),
            (IntMatrix([[2]]), (0, 0, 1, -1)),
            (IntMatrix([[-2]]), (0, 0, -1, -1)),
            (CAT, (0, 0, 1, -1)),
            (SWAP, (1, 1, 1, 1)),
        ]
        for mat, (sigma, tau, delta, epsilon) in cases:
            data = signs(mat)
            assert (data.sigma, data.tau, data.delta, data.epsilon) == (
                sigma,
                tau,
                delta,
                epsilon,
            )

    def test_multiplicities_match_charpoly(self):
        rng = random.Random(10)
        for _ in range(40):
            m = random_with_unit_eigenvalue(rng)
            data = signs(m)
            p = characteristic_polynomial(m)
            assert data.sigma == multiplicity_at(p, 1)
            assert data.tau == multiplicity_at(p, -1)
            assert data.delta in (-1, 1)
            assert data.epsilon in (-1, 1)

    def test_fast_path_agrees(self):
        # on nonsingular 1 +- M the signs are plain determinant signs
        rng = random.Random(11)
        for _ in range(40):
            m = random_matrix(rng)
            ident = IntMatrix.identity(m.dim)
            dp = det_exact(ident + m)
            dm = det_exact(ident - m)
            if dp == 0 or dm == 0:
                continue
            data = signs(m)
            assert data.delta == (1 if dp > 0 else -1)
            assert data.epsilon == data.delta * (1 if dm > 0 else -1)


def test_artin_mazur_one_dimensional_closed_forms():
    for n in range(-5, 6):
        if n == 0:
            continue
        assert artin_mazur_zeta(IntMatrix([[n]])) == one_dim_zeta(n)
    assert artin_mazur_zeta(IntMatrix([[0]])) == RatFunc(
        IntPoly((1,)), IntPoly((1, -1))
    )


def test_artin_mazur_examples():
    assert artin_mazur_zeta(CAT) == RatFunc(IntPoly((1, -2, 1)), IntPoly((1, -3, 1)))
    assert artin_mazur_zeta(SWAP) == RatFunc(1)


def test_artin_mazur_equals_signed_factor_product():
    # same function assembled factor by factor from the exterior powers
    rng = random.Random(12)
    for _ in range(40):
        m = random_matrix(rng)
        data = signs(m)
        product = RatFunc(1)
        for k, p in enumerate(char_factors(m)):
            exponent = data.epsilon * (1 if k % 2 else -1)
            product = product * RatFunc(p.substitute_signed(data.delta)) ** exponent
        assert product == artin_mazur_zeta(m)


def test_log_derivative_series_counts():
    rng = random.Random(13)
    for _ in range(30):
        m = random_matrix(rng)
        lef_series = lefschetz_zeta(m).log_derivative().series(6)
        gen_series = generating_function(m).series(6)
        for idx in range(1, 7):
            assert lef_series[idx] == det_signed_count(m, idx)
            assert gen_series[idx] == abs(det_signed_count(m, idx))
        assert lef_series[0] == 0
        assert gen_series[0] == 0


def test_euler_exponents_examples():
    assert euler_exponents(IntMatrix([[-1]]), 6) == [2, -1, 0, 0, 0, 0]
    assert euler_exponents(IntMatrix([[2]]), 6) == [1, 1, 2, 3, 6, 9]
    assert euler_exponents(CAT, 4) == [1, 2, 5, 10]
    assert euler_exponents(SWAP, 6) == [0] * 6


def test_euler_exponents_are_integers_with_unit_eigenvalues():
    rng = random.Random(14)
    for _ in range(30):
        m = random_with_unit_eigenvalue(rng)
        values = euler_exponents(m, 12)
        assert all(isinstance(c, int) for c in values)


def test_euler_exponents_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        euler_exponents(CAT, 0)


def test_generating_function_example():
    gen = generating_function(IntMatrix([[2]]))
    assert gen == RatFunc(IntPoly((0, 1)), IntPoly((1, -3, 2)))
    assert gen.series(5) == [0, 1, 3, 7, 15, 31]


def test_growth_rate_values():
    doubling = growth_rate(IntMatrix([[2]]))
    assert doubling is not None
    assert math.isclose(doubling.value, 2.0, rel_tol=0, abs_tol=1e-9)
    assert doubling.error == 1e-9

    cat = growth_rate(CAT)
    assert cat is not None
    golden = (3 + math.sqrt(5)) / 2
    assert math.isclose(cat.value, golden, rel_tol=0, abs_tol=1e-9)


def test_growth_rate_error_is_true_of_the_double():
    # a double near 2.618 carries about 4.4e-16; a finer tolerance is not claimed
    cat = growth_rate(CAT, tolerance=1e-300)
    assert cat is not None
    assert cat.error == 4 * math.ulp(cat.value)
    assert growth_rate(CAT, tolerance=1e-14).error == 1e-14


def test_growth_rate_absent():
    assert growth_rate(IntMatrix([[1]])) is None
    assert growth_rate(SWAP) is None


def test_growth_rate_zero_matrix():
    rate = growth_rate(IntMatrix([[0]]))
    assert rate is not None
    assert math.isclose(rate.value, 1.0, rel_tol=0, abs_tol=1e-9)


def test_growth_rate_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        growth_rate(CAT, tolerance=0.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_rejected(tolerance):
    for compute in (growth_rate, classify, lambda m, t: build_report(m, 2, t)):
        with pytest.raises(ValueError, match="finite and positive"):
            compute(CAT, tolerance)


def test_growth_rate_dominates_counts():
    # counts a_m grow like rate**m; check the ratio stabilizes under the rate
    rate = growth_rate(CAT)
    assert rate is not None
    a_9 = isolated_fixed_count(CAT, 9)
    a_10 = isolated_fixed_count(CAT, 10)
    assert abs(a_10 / a_9 - rate.value) < 1e-3


class TestFunctionalEquation:
    def test_cat(self):
        result = functional_equation_check(CAT)
        assert result.holds
        assert result.lefschetz_lhs == result.lefschetz_rhs
        assert result.artin_mazur_lhs == result.artin_mazur_rhs
        # dimension two, determinant one: the function is reciprocal-invariant
        assert result.lefschetz_lhs == lefschetz_zeta(CAT)

    def test_one_dimensional(self):
        for n in range(-5, 6):
            if n == 0:
                continue
            assert functional_equation_check(IntMatrix([[n]])).holds

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            functional_equation_check(IntMatrix([[0]]))
        with pytest.raises(ValueError):
            functional_equation_check(IntMatrix([[1, 1], [1, 1]]))

    def test_random_nonsingular(self):
        rng = random.Random(15)
        for _ in range(30):
            m = random_nonsingular(rng)
            assert functional_equation_check(m).holds


class TestClassify:
    def test_identity(self):
        report = classify(IntMatrix.identity(2))
        assert not report.singular
        assert report.root_of_unity_orders == (1,)
        assert not report.quasihyperbolic
        assert report.hyperbolic is False
        assert report.hyperbolic_flag == "exact"

    def test_swap(self):
        report = classify(SWAP)
        assert report.root_of_unity_orders == (1, 2)
        assert not report.quasihyperbolic
        assert report.hyperbolic is False

    def test_rotation(self):
        report = classify(ROTATION)
        assert report.root_of_unity_orders == (4,)
        assert not report.quasihyperbolic

    def test_cat(self):
        report = classify(CAT)
        assert not report.singular
        assert report.root_of_unity_orders == ()
        assert report.quasihyperbolic
        assert report.hyperbolic is True
        # self-reciprocal characteristic polynomial forces the numeric route
        assert report.hyperbolic_flag == "numeric"

    def test_doubling(self):
        report = classify(IntMatrix([[2]]))
        assert report.quasihyperbolic
        assert report.hyperbolic is True
        assert report.hyperbolic_flag == "exact"

    def test_zero_matrix(self):
        report = classify(IntMatrix([[0]]))
        assert report.singular
        assert report.root_of_unity_orders == ()
        assert report.quasihyperbolic
        assert report.hyperbolic is True

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify(CAT, tolerance=-1.0)


class TestBuildReport:
    def test_cat(self):
        report = build_report(CAT, max_m=4)
        assert report.matrix == CAT
        assert report.counts == (1, 5, 16, 45)
        assert report.signed_counts == (-1, -5, -16, -45)
        assert report.exponents == (1, 2, 5, 10)
        assert report.signs.delta == 1
        assert report.signs.epsilon == -1
        assert report.functional_equation_holds is True
        assert report.growth_rate is not None

    def test_singular_skips_functional_equation(self):
        report = build_report(IntMatrix([[0]]), max_m=3)
        assert report.classification.singular
        assert report.functional_equation_holds is None
        assert report.counts == (1, 1, 1)

    def test_counts_are_absolute_signed_counts(self):
        rng = random.Random(16)
        for _ in range(15):
            m = random_matrix(rng)
            report = build_report(m, max_m=5)
            assert report.counts == tuple(abs(x) for x in report.signed_counts)

    def test_rejects_bad_max_m(self):
        with pytest.raises(ValueError):
            build_report(CAT, max_m=0)
