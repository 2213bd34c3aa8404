"""Each fast route against the route it bypasses.

Factors, signed counts and sign data are served from p = det(x - M) alone;
here each is compared with the route that works on the matrix itself.  The
gcd's modular coprimality certificate is compared with the forced
remainder sequence, the rational-function operations that skip reduction
with a full reduction, and the integer fixed-point enumeration with the same
enumeration on Fraction coordinates.  check's single walk over the
iterates is compared with the public per-iterate oracles, the matrix
kernels that skip validation with validated matrices, the orbit-exponent
sieve with trial-division Moebius inversion, and the integer Euler product
with the same product on Fractions.  The inputs are those where the
routes could part: singular, root-of-unity, repeated-eigenvalue and
reciprocal (A + A^-T) spectra.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from toralzeta import (
    IntMatrix,
    IntPoly,
    RatFunc,
    char_factors,
    characteristic_polynomial,
    det_exact,
    det_poly_linear,
    det_signed_count,
    enumerate_fixed_points,
    euler_exponents,
    euler_product_series,
    exp_sum_zeta_series,
    mat_mul,
    mat_pow,
    poly_gcd,
    signed_count,
    signs,
    smith_normal_form,
    snf_fixed_count,
)
from toralzeta import oracle, polynomials
from toralzeta.cli import _iterates
from toralzeta.zeta import _compose_signs, _exponents, _factors, _lefschetz, _signed_counts, _signs
from helpers import (
    determinant_signs,
    differential_matrices,
    exterior_factors,
    fraction_euler_product_series,
    fraction_exp_sum_series,
    fraction_fixed_points,
    mobius_exponents,
)

MATRICES = differential_matrices(random.Random(2024))


@pytest.mark.parametrize("mat", MATRICES)
def test_characteristic_polynomial_matches_interpolated_determinant(mat):
    assert characteristic_polynomial(mat) == det_poly_linear(-mat, IntMatrix.identity(mat.dim))


@pytest.mark.parametrize("mat", MATRICES)
def test_factors_match_exterior_powers(mat):
    assert char_factors(mat) == exterior_factors(mat)


@pytest.mark.parametrize("mat", MATRICES)
def test_signed_counts_match_iterate_determinants(mat):
    counts = _signed_counts(_factors(characteristic_polynomial(mat)), 40)
    assert counts == [det_signed_count(mat, m) for m in range(1, 41)]
    assert signed_count(mat, 7) == counts[6]


@pytest.mark.parametrize("mat", MATRICES)
def test_signs_match_determinant_route(mat):
    data = signs(mat)
    assert data == determinant_signs(mat)
    ident = IntMatrix.identity(mat.dim)
    det_plus, det_minus = det_exact(ident + mat), det_exact(ident - mat)
    if det_plus and det_minus:
        # without the eigenvalues +-1 the signs are plain determinant signs
        assert (data.sigma, data.tau) == (0, 0)
        assert data.delta == (1 if det_plus > 0 else -1)
        assert data.epsilon == data.delta * (1 if det_minus > 0 else -1)


def test_matrix_set_covers_each_kind():
    dims = {m.dim for m in MATRICES}
    assert dims == {1, 2, 3, 4, 5, 6}
    assert any(det_exact(m) == 0 for m in MATRICES)
    assert any(signs(m).sigma + signs(m).tau for m in MATRICES)


def gcd_pairs(mat):
    """p with its reversal and its derivative, and the unreduced Lefschetz pair."""
    p = characteristic_polynomial(mat)
    factors = _factors(p)
    num, den = IntPoly((1,)), IntPoly((1,))
    for k, f in enumerate(factors):
        if k % 2:
            num = num * f
        else:
            den = den * f
    return [(p, IntPoly(reversed(p.coeffs))), (p, p.derivative()), (num, den)]


def subresultant_gcd(a, b, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(polynomials, "_coprime_mod_prime", lambda a, b: False)
        return poly_gcd(a, b)


@pytest.mark.parametrize("mat", MATRICES)
def test_certified_gcd_matches_subresultant_gcd(mat, monkeypatch):
    for a, b in gcd_pairs(mat):
        assert poly_gcd(a, b) == subresultant_gcd(a, b, monkeypatch)


def test_certificate_fires_and_refuses_on_the_matrix_set(monkeypatch):
    verdicts = set()
    certify = polynomials._coprime_mod_prime

    def recording(a, b):
        verdict = certify(a, b)
        verdicts.add(verdict)
        return verdict

    monkeypatch.setattr(polynomials, "_coprime_mod_prime", recording)
    for mat in MATRICES:
        for a, b in gcd_pairs(mat):
            poly_gcd(a, b)
    assert verdicts == {True, False}


PRIME = polynomials._CERTIFICATE_PRIME


def test_certificate_refuses_a_leading_coefficient_divisible_by_the_prime():
    # the common factor PRIME z + 1 is a unit modulo PRIME, where the pair
    # reduces to z + 1 and z + 2 with a gcd of degree 0
    common = IntPoly((1, PRIME))
    a, b = common * IntPoly((1, 1)), common * IntPoly((2, 1))
    assert polynomials._reduce_mod(common, PRIME) == [1]
    assert not polynomials._coprime_mod_prime(a, b)
    assert poly_gcd(a, b) == common


def test_pair_coprime_over_z_but_not_modulo_the_prime_falls_back():
    a, b = IntPoly((PRIME, 1)), IntPoly((0, 1))
    assert not polynomials._coprime_mod_prime(a, b)
    assert poly_gcd(a, b) == IntPoly((1,))


@pytest.mark.parametrize("mat", MATRICES)
def test_unreduced_operations_match_full_reduction(mat):
    p = characteristic_polynomial(mat)
    lefschetz = _lefschetz(_factors(p))
    for f in (lefschetz, _compose_signs(lefschetz, _signs(p))):
        assert f.substitute_signed(-1) == RatFunc(
            f.num.substitute_signed(-1), f.den.substitute_signed(-1)
        )
        for e in range(-2, 3):
            top, bottom = (f.num, f.den) if e >= 0 else (f.den, f.num)
            assert f**e == RatFunc(top ** abs(e), bottom ** abs(e))


# The Fraction reference costs about 0.2 ms a point, so the comparison runs
# on every iterate up to ENUMERATED_ITERATES with at most ENUMERATED_POINTS
# points, far below the oracle's own limit.
ENUMERATED_ITERATES = 12
ENUMERATED_POINTS = 100


@pytest.mark.parametrize("mat", MATRICES)
def test_integer_enumeration_matches_fraction_enumeration(mat):
    for m in range(1, ENUMERATED_ITERATES + 1):
        if snf_fixed_count(mat, m) <= ENUMERATED_POINTS:
            assert enumerate_fixed_points(mat, m) == fraction_fixed_points(mat, m)


@pytest.mark.parametrize("mat", MATRICES)
def test_integer_exp_sum_matches_fraction_recurrence(mat):
    assert exp_sum_zeta_series(mat, 12) == fraction_exp_sum_series(mat, 12)


@pytest.mark.parametrize("mat", MATRICES)
def test_check_walk_matches_per_iterate_oracles(mat):
    walk = list(_iterates(mat, ENUMERATED_ITERATES))
    assert len(walk) == ENUMERATED_ITERATES
    for m, (power, system, divisors, trans) in enumerate(walk, start=1):
        assert power == mat_pow(mat, m)
        assert det_exact(system) == det_signed_count(mat, m)
        count = prod(divisors)
        assert count == snf_fixed_count(mat, m)
        if count > ENUMERATED_POINTS:
            continue
        expected = enumerate_fixed_points(mat, m)
        found = oracle._fixed_points(power, divisors, trans)
        if expected.finite:
            points, last = found
            assert len(points) == expected.count == abs(det_signed_count(mat, m))
            assert sorted(tuple(Fraction(k, last) for k in x) for x in points) == list(
                expected.points
            )
        else:
            assert found is None


def validated(result):
    """result, rebuilt through the validating constructor."""
    return IntMatrix([list(row) for row in result.rows])


@pytest.mark.parametrize("mat", MATRICES)
def test_trusted_kernels_match_validated_matrices(mat):
    other = mat_pow(mat, 2)
    results = [
        mat_mul(mat, other),
        mat @ mat,
        mat + other,
        mat - other,
        -mat,
        mat.scaled(-3),
        3 * mat,
        IntMatrix.identity(mat.dim),
        *smith_normal_form(mat),
    ]
    for result in results:
        assert result == validated(result)
        assert hash(result) == hash(validated(result))
        assert type(result.rows) is tuple
        assert all(type(row) is tuple and len(row) == mat.dim for row in result.rows)
        assert all(type(x) is int for row in result.rows for x in row)


@pytest.mark.parametrize("mat", MATRICES)
def test_exponent_sieve_matches_mobius_inversion(mat):
    counts = [abs(x) for x in _signed_counts(_factors(characteristic_polynomial(mat)), 300)]
    assert _exponents(counts) == mobius_exponents(counts)


def test_exponent_sieve_refuses_what_mobius_inversion_refuses():
    for counts in ([1, 2], [1, 1, 2], [2, 2, 2, 3], [1, 3, 1, 3, 1, 6]):
        with pytest.raises(ArithmeticError) as sieve:
            _exponents(counts)
        with pytest.raises(ArithmeticError) as reference:
            mobius_exponents(counts)
        assert str(sieve.value) == str(reference.value)


@pytest.mark.parametrize("mat", MATRICES)
def test_integer_euler_product_matches_fraction_product(mat):
    exponents = euler_exponents(mat, 16)
    for order in (0, 1, 7, 16):
        assert euler_product_series(exponents, order) == fraction_euler_product_series(
            exponents, order
        )
