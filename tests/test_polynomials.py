"""Integer polynomial arithmetic, gcds, root counting, and rational functions."""

import random
from fractions import Fraction

import pytest

from toralzeta import (
    REGION_ABOVE_ONE,
    REGION_BELOW_MINUS_ONE,
    IntMatrix,
    IntPoly,
    RatFunc,
    cyclotomic_polynomial,
    deflate_at,
    det_poly_linear,
    divexact,
    multiplicity_at,
    poly_gcd,
    real_root_count_region,
    squarefree_decomposition,
)
from helpers import random_matrix


def random_poly(rng, max_degree=4, low=-4, high=4):
    degree = rng.randint(0, max_degree)
    return IntPoly([rng.randint(low, high) for _ in range(degree + 1)])


def random_nonzero_poly(rng, max_degree=4):
    while True:
        p = random_poly(rng, max_degree)
        if not p.is_zero():
            return p


class TestIntPoly:
    def test_trailing_zeros_stripped(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()

    def test_degree_conventions(self):
        assert IntPoly().degree == -1
        assert IntPoly((7,)).degree == 0
        assert IntPoly((0, 0, 3)).degree == 2

    def test_evaluation(self):
        p = IntPoly((1, -3, 1))
        assert p(0) == 1
        assert p(2) == -1
        assert p(Fraction(1, 2)) == Fraction(-1, 4)

    def test_arithmetic(self):
        p = IntPoly((1, 1))
        q = IntPoly((-1, 1))
        assert p * q == IntPoly((-1, 0, 1))
        assert p + q == IntPoly((0, 2))
        assert p - p == IntPoly()
        assert 3 * p == IntPoly((3, 3))
        assert p + 1 == IntPoly((2, 1))
        assert (p**3) == IntPoly((1, 3, 3, 1))

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            IntPoly((1, 1)) ** -1

    def test_derivative(self):
        assert IntPoly((5, 1, -3, 2)).derivative() == IntPoly((1, -6, 6))
        assert IntPoly((7,)).derivative() == IntPoly()

    def test_shift_and_sign_substitution(self):
        p = IntPoly((1, 2, 3))
        assert p.shift(2) == IntPoly((0, 0, 1, 2, 3))
        assert p.substitute_signed(-1) == IntPoly((1, -2, 3))
        assert p.substitute_signed(1) is p
        with pytest.raises(ValueError):
            p.substitute_signed(2)

    def test_content_and_primitive_part(self):
        p = IntPoly((4, -6, 2))
        assert p.content() == 2
        assert p.primitive_part() == IntPoly((2, -3, 1))
        assert IntPoly((-4, -2)).primitive_part() == IntPoly((-2, -1))
        assert IntPoly().content() == 0


def test_divexact_examples():
    num = IntPoly((-1, 0, 1))
    assert divexact(num, IntPoly((1, 1))) == IntPoly((-1, 1))
    assert divexact(num, IntPoly((-1, 1))) == IntPoly((1, 1))


def test_divexact_rejects_remainder():
    with pytest.raises(ValueError):
        divexact(IntPoly((1, 0, 1)), IntPoly((1, 1)))


def test_divexact_rejects_nonintegral_quotient():
    with pytest.raises(ValueError):
        divexact(IntPoly((1, 1)), IntPoly((2,)))


def test_divexact_round_trip():
    rng = random.Random(11)
    for _ in range(80):
        p = random_nonzero_poly(rng)
        q = random_nonzero_poly(rng)
        assert divexact(p * q, q) == p


def test_poly_gcd_examples():
    a = IntPoly((1, 0, -1))
    b = IntPoly((1, -2, 1))
    assert poly_gcd(a, b) == IntPoly((-1, 1))
    assert poly_gcd(a, IntPoly((3,))) == IntPoly((1,))
    assert poly_gcd(IntPoly(), a) == IntPoly((-1, 0, 1))


def test_poly_gcd_properties():
    rng = random.Random(22)
    for _ in range(80):
        a = random_nonzero_poly(rng, 3)
        b = random_nonzero_poly(rng, 3)
        g = poly_gcd(a, b)
        assert g.leading_coefficient > 0
        assert g.content() == 1
        # divides both inputs without remainder
        divexact(a, g)
        divexact(b, g)
        assert poly_gcd(a, b) == poly_gcd(b, a)
        # a common factor always shows up in the gcd
        expected = b.primitive_part()
        if expected.leading_coefficient < 0:
            expected = -expected
        assert poly_gcd(a * b, b) == expected


def test_deflate_at():
    p = IntPoly((-6, 1, 1))
    assert deflate_at(p, 2) == IntPoly((3, 1))
    with pytest.raises(ValueError):
        deflate_at(p, 1)


def test_multiplicity_at():
    p = IntPoly((-1, 1)) ** 3 * IntPoly((1, 1))
    assert multiplicity_at(p, 1) == 3
    assert multiplicity_at(p, -1) == 1
    assert multiplicity_at(p, 2) == 0


def test_squarefree_decomposition_example():
    p = 4 * IntPoly((-1, 1)) ** 2 * IntPoly((1, 1))
    scale, factors = squarefree_decomposition(p)
    assert scale == 4
    assert sorted(factors, key=lambda pair: pair[1]) == [
        (IntPoly((1, 1)), 1),
        (IntPoly((-1, 1)), 2),
    ]


def test_squarefree_decomposition_properties():
    rng = random.Random(33)
    for _ in range(60):
        p = random_nonzero_poly(rng, 3)
        q = random_nonzero_poly(rng, 2)
        product = p * q * q
        scale, factors = squarefree_decomposition(product)
        rebuilt = IntPoly((scale,))
        for factor, mult in factors:
            assert factor.content() == 1
            assert factor.leading_coefficient > 0
            assert poly_gcd(factor, factor.derivative()).degree == 0
            rebuilt = rebuilt * factor**mult
        assert rebuilt == product
        for i, (fi, _) in enumerate(factors):
            for fj, _ in factors[i + 1 :]:
                assert poly_gcd(fi, fj) == IntPoly((1,))


class TestRealRootCountRegion:
    def test_quadratic_with_golden_roots(self):
        # roots (3 +/- sqrt(5))/2, roughly 0.38 and 2.62
        p = IntPoly((1, -3, 1))
        assert real_root_count_region(p, REGION_ABOVE_ONE) == 1
        assert real_root_count_region(p, REGION_BELOW_MINUS_ONE) == 0

    def test_counts_with_multiplicity(self):
        p = IntPoly((2, 1)) ** 2
        assert real_root_count_region(p, REGION_BELOW_MINUS_ONE) == 2
        assert real_root_count_region(p, REGION_ABOVE_ONE) == 0

    def test_endpoints_excluded(self):
        assert real_root_count_region(IntPoly((-1, 1)), REGION_ABOVE_ONE) == 0
        assert real_root_count_region(IntPoly((1, 1)), REGION_BELOW_MINUS_ONE) == 0
        p = IntPoly((-1, 1)) ** 2 * IntPoly((-3, 1))
        assert real_root_count_region(p, REGION_ABOVE_ONE) == 1

    def test_rejects_unknown_region(self):
        with pytest.raises(ValueError):
            real_root_count_region(IntPoly((1, 1)), "(0,1)")

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            real_root_count_region(IntPoly(), REGION_ABOVE_ONE)

    def test_random_against_integer_roots(self):
        rng = random.Random(44)
        for _ in range(60):
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
            p = IntPoly((rng.choice([-2, -1, 1, 2]),))
            for r in roots:
                p = p * IntPoly((-r, 1))
            below = sum(1 for r in roots if r < -1)
            above = sum(1 for r in roots if r > 1)
            assert real_root_count_region(p, REGION_BELOW_MINUS_ONE) == below
            assert real_root_count_region(p, REGION_ABOVE_ONE) == above


def test_det_poly_linear_example():
    ident = IntMatrix.identity(2)
    cat = IntMatrix([[2, 1], [1, 1]])
    p = det_poly_linear(ident, -cat)
    assert p == IntPoly((1, -3, 1))


def test_det_poly_linear_matches_pointwise_determinants():
    from toralzeta import det_exact

    rng = random.Random(55)
    for _ in range(40):
        d = rng.randint(1, 4)
        const = random_matrix(rng, d)
        linear = random_matrix(rng, d)
        p = det_poly_linear(const, linear)
        assert p.degree <= d
        for t in range(-3, 4):
            assert p(t) == det_exact(const + t * linear)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == IntPoly((-1, 1))
    assert cyclotomic_polynomial(2) == IntPoly((1, 1))
    assert cyclotomic_polynomial(4) == IntPoly((1, 0, 1))
    assert cyclotomic_polynomial(6) == IntPoly((1, -1, 1))
    assert cyclotomic_polynomial(12) == IntPoly((1, 0, -1, 0, 1))


def test_cyclotomic_product_over_divisors():
    for n in range(1, 13):
        product = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        expected = IntPoly((-1,) + (0,) * (n - 1) + (1,))
        assert product == expected


class TestRatFunc:
    def test_canonical_reduction(self):
        f = RatFunc(IntPoly((2, 0, -2)), IntPoly((2, -2)))
        assert f.num == IntPoly((1, 1))
        assert f.den == IntPoly((1,))

    def test_denominator_sign_normalized(self):
        f = RatFunc(IntPoly((1,)), IntPoly((2, -1)))
        assert f.den.leading_coefficient > 0
        assert f == RatFunc(IntPoly((-1,)), IntPoly((-2, 1)))

    def test_zero_and_one(self):
        assert RatFunc(0).is_zero()
        assert RatFunc(IntPoly(), IntPoly((5, 3))).is_zero()
        assert RatFunc(1).is_one()
        with pytest.raises(ZeroDivisionError):
            RatFunc(IntPoly((1,)), IntPoly())

    def test_structural_equality(self):
        a = RatFunc(IntPoly((1, 1)), IntPoly((-1, 1)))
        b = RatFunc(IntPoly((3, 3)), IntPoly((-3, 3)))
        assert a == b
        assert hash(a) == hash(b)

    def test_arithmetic_matches_evaluation(self):
        rng = random.Random(66)
        for _ in range(60):
            f = RatFunc(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
            g = RatFunc(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
            x = Fraction(rng.randint(-20, 20), rng.randint(21, 40))
            if f.den(x) == 0 or g.den(x) == 0:
                continue
            fx, gx = f.evaluate(x), g.evaluate(x)
            assert (f + g).evaluate(x) == fx + gx
            assert (f - g).evaluate(x) == fx - gx
            assert (f * g).evaluate(x) == fx * gx
            if not g.is_zero() and g.num(x) != 0:
                assert (f / g).evaluate(x) == fx / gx

    def test_pow(self):
        f = RatFunc(IntPoly((1, 1)), IntPoly((1, -1)))
        assert f**0 == RatFunc(1)
        assert f**2 == f * f
        assert f**-1 == RatFunc(IntPoly((1, -1)), IntPoly((1, 1)))
        with pytest.raises(ZeroDivisionError):
            RatFunc(0) ** -1

    def test_unreduced_operations_stay_canonical(self):
        # these skip the gcd; the denominator's sign and the contents must
        # still come out as a full reduction leaves them
        cases = [
            RatFunc(IntPoly((1, 2)), IntPoly((1, 3))),
            RatFunc(IntPoly((1, -2))),
            RatFunc(IntPoly((2,)), IntPoly((1, 1))),
            RatFunc(IntPoly((-1, 0, 3)), IntPoly((2, 0, 0, 5))),
            RatFunc(0),
        ]
        for f in cases:
            g = f.substitute_signed(-1)
            assert g == RatFunc(f.num.substitute_signed(-1), f.den.substitute_signed(-1))
            assert g.den.leading_coefficient > 0
            for e in range(-3, 4):
                if e < 0 and f.is_zero():
                    continue
                top, bottom = (f.num, f.den) if e >= 0 else (f.den, f.num)
                assert f**e == RatFunc(top ** abs(e), bottom ** abs(e))
            assert -f == RatFunc(-f.num, f.den)

    def test_evaluate_pole(self):
        f = RatFunc(IntPoly((1,)), IntPoly((-1, 1)))
        with pytest.raises(ZeroDivisionError):
            f.evaluate(1)

    def test_substitute_signed(self):
        f = RatFunc(IntPoly((1, 1)), IntPoly((1, -3, 1)))
        g = f.substitute_signed(-1)
        assert g == RatFunc(IntPoly((1, -1)), IntPoly((1, 3, 1)))
        assert g.substitute_signed(-1) == f

    def test_substitute_reciprocal_example(self):
        f = RatFunc(IntPoly((1,)), IntPoly((1, -1)))
        g = f.substitute_reciprocal(2)
        assert g == RatFunc(IntPoly((0, 2)), IntPoly((-1, 2)))

    def test_substitute_reciprocal_is_involutive(self):
        rng = random.Random(77)
        for _ in range(40):
            f = RatFunc(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
            d = rng.choice([-3, -2, -1, 1, 2, 3])
            assert f.substitute_reciprocal(d).substitute_reciprocal(d) == f

    def test_substitute_reciprocal_pointwise(self):
        rng = random.Random(88)
        for _ in range(40):
            f = RatFunc(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
            d = rng.choice([-3, -2, -1, 1, 2, 3])
            g = f.substitute_reciprocal(d)
            x = Fraction(rng.randint(1, 9), rng.randint(10, 19))
            if g.den(x) == 0 or f.den(Fraction(1, d * x)) == 0:
                continue
            assert g.evaluate(x) == f.evaluate(Fraction(1, d * x))

    def test_substitute_reciprocal_rejects_zero(self):
        with pytest.raises(ValueError):
            RatFunc(1).substitute_reciprocal(0)

    def test_series_geometric(self):
        f = RatFunc(IntPoly((1,)), IntPoly((1, -2)))
        assert f.series(4) == [1, 2, 4, 8, 16]

    def test_series_example(self):
        f = RatFunc(IntPoly((1, -1)), IntPoly((1, -2)))
        assert f.series(4) == [1, 1, 2, 4, 8]

    def test_series_pole_at_origin(self):
        f = RatFunc(IntPoly((1,)), IntPoly((0, 1)))
        with pytest.raises(ValueError):
            f.series(3)

    def test_series_matches_long_division(self):
        rng = random.Random(99)
        for _ in range(40):
            num = random_poly(rng, 3)
            den = random_nonzero_poly(rng, 3)
            if den.constant_coefficient == 0:
                continue
            f = RatFunc(num, den)
            coeffs = f.series(8)
            # truncated product of the series with the reduced denominator
            # gives back the reduced numerator
            for k in range(9):
                acc = sum(
                    f.den.coeffs[j] * coeffs[k - j]
                    for j in range(min(k, f.den.degree) + 1)
                )
                assert acc == (f.num.coeffs[k] if k <= f.num.degree else 0)

    def test_log_derivative_geometric(self):
        f = RatFunc(IntPoly((1,)), IntPoly((1, -2)))
        ld = f.log_derivative()
        assert ld == RatFunc(IntPoly((0, 2)), IntPoly((1, -2)))
        assert ld.series(4) == [0, 2, 4, 8, 16]

    def test_log_derivative_multiplicative(self):
        rng = random.Random(111)
        for _ in range(40):
            f = RatFunc(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
            g = RatFunc(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
            assert (f * g).log_derivative() == f.log_derivative() + g.log_derivative()
            if not f.is_zero():
                assert (f**3).log_derivative() == (
                    f.log_derivative() + f.log_derivative() + f.log_derivative()
                )

    def test_log_derivative_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(0).log_derivative()
