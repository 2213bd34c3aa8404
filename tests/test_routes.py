"""The routes derived from the characteristic polynomial against the matrix routes.

Factors, signed counts and sign data are served from p = det(x - M) alone;
here each is compared with the route that works on the matrix itself, on
the inputs where the two could part: singular, root-of-unity,
repeated-eigenvalue and reciprocal (A + A^-T) spectra.
"""

import random

import pytest

from toralzeta import (
    IntMatrix,
    char_factors,
    characteristic_polynomial,
    det_exact,
    det_poly_linear,
    det_signed_count,
    signed_count,
    signs,
)
from toralzeta.zeta import _factors, _signed_counts
from helpers import determinant_signs, differential_matrices, exterior_factors

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
