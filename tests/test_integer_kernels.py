"""The integer polynomial kernels against the Fraction routines they replace.

Exact division, the signed pseudo-remainder sequence (as gcd and as Sturm
sequence), series expansion and determinant interpolation run on
integers; each is compared here with the same computation over Fraction,
kept in helpers.py.  The inputs come from the route matrices (singular,
root-of-unity, repeated-eigenvalue and reciprocal spectra), their
characteristic polynomials, exterior-power factors and zeta functions.
"""

import random

from toralzeta import (
    REGION_ABOVE_ONE,
    REGION_BELOW_MINUS_ONE,
    IntMatrix,
    IntPoly,
    RatFunc,
    characteristic_polynomial,
    det_poly_linear,
    divexact,
    poly_gcd,
    real_root_count_region,
    squarefree_decomposition,
)
from toralzeta import polynomials, zeta
from toralzeta.zeta import _compose_signs, _factors, _lefschetz, _signs
from helpers import (
    differential_matrices,
    fraction_det_poly_linear,
    fraction_divexact,
    fraction_gcd,
    fraction_root_count_region,
    fraction_series,
    fraction_sturm_chain,
    random_matrix,
)

MATRICES = differential_matrices(random.Random(2024))


def spectral_polys(mat):
    """p = det(x - M) and the factors det(1 - z Lambda^k M)."""
    p = characteristic_polynomial(mat)
    return [p, *_factors(p)]


def outcome(divide, p, q):
    try:
        return divide(p, q)
    except ValueError:
        return "refused"


def test_divexact_matches_fraction_division():
    verdicts = set()
    for mat in MATRICES:
        p, *factors = spectral_polys(mat)
        for f in factors:
            pairs = [
                (p * f, f),  # exact
                (p * f, 2 * f),  # quotient digits that are not integers
                (p * f + 1, f),  # a remainder
                (f, p),
            ]
            for a, b in pairs:
                got = outcome(divexact, a, b)
                assert got == outcome(fraction_divexact, a, b), (mat, a, b)
                verdicts.add(got == "refused")
    assert verdicts == {True, False}


def test_sturm_counts_match_fraction_chains():
    for mat in MATRICES:
        for poly in spectral_polys(mat):
            for region in (REGION_BELOW_MINUS_ONE, REGION_ABOVE_ONE):
                expected = fraction_root_count_region(poly, region)
                assert real_root_count_region(poly, region) == expected, (mat, poly, region)
            for q, _ in squarefree_decomposition(poly)[1]:
                if q.degree > 0:
                    chain = polynomials._remainder_sequence(q, q.derivative())
                    assert chain == fraction_sturm_chain(q), (mat, q)


def lefschetz_pair(mat):
    num, den = IntPoly((1,)), IntPoly((1,))
    for k, f in enumerate(_factors(characteristic_polynomial(mat))):
        if k % 2:
            num = num * f
        else:
            den = den * f
    return num, den


def test_remainder_sequence_gcd_matches_euclid_over_fractions(monkeypatch):
    monkeypatch.setattr(polynomials, "_coprime_mod_prime", lambda a, b: False)
    for mat in MATRICES:
        p = characteristic_polynomial(mat)
        pairs = [(p, IntPoly(reversed(p.coeffs))), (p, p.derivative())]
        if mat.dim <= 5:  # Euclid over Fraction takes 0.2 s on the d = 6 pairs
            pairs.append(lefschetz_pair(mat))
        for a, b in pairs:
            if not b.is_zero():
                assert poly_gcd(a, b) == fraction_gcd(a, b), (mat, a, b)


def test_remainder_sequence_terms_are_primitive_with_positive_scales():
    # the chain of z^4 + z - 3 divides 4z^3 + 1 by a term of degree 1 with a
    # negative leading coefficient: a scale lc**(3 - 1 + 1) would flip the
    # sign of the next term, and with it both root counts
    q = IntPoly((-3, 1, 0, 0, 1))
    seq = polynomials._remainder_sequence(q, q.derivative())
    assert seq == fraction_sturm_chain(q)
    assert [term.degree for term in seq] == [4, 3, 1, 0]
    assert all(term.content() == 1 for term in seq[2:])
    assert real_root_count_region(q, REGION_ABOVE_ONE) == 1
    assert real_root_count_region(q, REGION_BELOW_MINUS_ONE) == 1


def test_series_match_fraction_recurrence():
    for mat in MATRICES:
        p = characteristic_polynomial(mat)
        lefschetz = _lefschetz(_factors(p))
        artin_mazur = _compose_signs(lefschetz, _signs(p))
        for f in (lefschetz, artin_mazur, lefschetz.log_derivative(), artin_mazur.log_derivative()):
            assert f.series(12) == fraction_series(f, 12), (mat, f)


def test_series_with_general_constant_term_match_fraction_recurrence():
    rng = random.Random(808)
    seen = 0
    while seen < 60:
        num = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        den = IntPoly([rng.choice([-4, -3, -2, 2, 3, 5])] + [rng.randint(-5, 5) for _ in range(3)])
        f = RatFunc(num, den)
        if f.den.constant_coefficient in (0, 1, -1):
            continue
        seen += 1
        assert f.series(12) == fraction_series(f, 12)


def test_det_poly_linear_matches_fraction_interpolation():
    for mat in MATRICES:
        ident = IntMatrix.identity(mat.dim)
        assert det_poly_linear(-mat, ident) == fraction_det_poly_linear(-mat, ident), mat


def test_det_poly_linear_random_pencils_match_fraction_interpolation():
    rng = random.Random(909)
    for _ in range(30):
        d = rng.randint(1, 4)
        const, linear = random_matrix(rng, d), random_matrix(rng, d)
        assert det_poly_linear(const, linear) == fraction_det_poly_linear(const, linear)


def test_log_derivative_denominator_is_its_own_radical():
    # growth_rate hands this denominator to the root finder unchanged:
    # simple poles with nonzero residues make it squarefree, and den(0) = +-1
    # makes it primitive
    checked = 0
    for mat in MATRICES:
        if mat.dim > 5:
            continue
        p = characteristic_polynomial(mat)
        den = _compose_signs(_lefschetz(_factors(p)), _signs(p)).log_derivative().den
        if den.degree < 1:
            continue
        assert zeta._radical(den) == den
        checked += 1
    assert checked
