"""Brute-force oracles agree with the main pipeline on small inputs."""

import random
from fractions import Fraction

import pytest

from toralzeta import oracle
from toralzeta import (
    ENUMERATION_LIMIT,
    IntMatrix,
    artin_mazur_zeta,
    enumerate_fixed_points,
    euler_exponents,
    euler_product_series,
    exp_sum_zeta_series,
    isolated_fixed_count,
    signs,
    snf_fixed_count,
    sturm_sign_oracle,
)
from helpers import random_matrix, random_with_unit_eigenvalue

CAT = IntMatrix([[2, 1], [1, 1]])
SWAP = IntMatrix([[0, 1], [1, 0]])


def test_snf_fixed_count_examples():
    assert [snf_fixed_count(CAT, m) for m in range(1, 5)] == [1, 5, 16, 45]
    assert snf_fixed_count(SWAP, 2) == 0
    assert snf_fixed_count(IntMatrix([[2]]), 3) == 7


def test_snf_fixed_count_rejects_nonpositive_iterate():
    with pytest.raises(ValueError):
        snf_fixed_count(CAT, 0)


def test_snf_fixed_count_matches_determinant_route():
    rng = random.Random(21)
    for _ in range(100):
        m = random_matrix(rng)
        iterate = rng.randint(1, 6)
        assert snf_fixed_count(m, iterate) == isolated_fixed_count(m, iterate)


class TestEnumerateFixedPoints:
    def test_doubling_map_second_iterate(self):
        result = enumerate_fixed_points(IntMatrix([[2]]), 2)
        assert result.finite
        assert result.count == 3
        assert result.points == (
            (Fraction(0),),
            (Fraction(1, 3),),
            (Fraction(2, 3),),
        )

    def test_cat_map(self):
        result = enumerate_fixed_points(CAT, 2)
        assert result.finite
        assert result.count == 5
        assert len(result.points) == 5
        assert all(0 <= c < 1 for point in result.points for c in point)
        assert (Fraction(0), Fraction(0)) in result.points

    def test_subtorus_is_infinite(self):
        result = enumerate_fixed_points(SWAP, 1)
        assert not result.finite
        assert result.points is None
        assert result.count is None
        assert not enumerate_fixed_points(SWAP, 2).finite

    def test_enumeration_limit_guard(self):
        big = IntMatrix([[ENUMERATION_LIMIT + 2]])
        with pytest.raises(ValueError):
            enumerate_fixed_points(big, 1)

    def test_rejects_nonpositive_iterate(self):
        with pytest.raises(ValueError):
            enumerate_fixed_points(CAT, 0)

    def test_refuses_unchained_smith_divisors(self, monkeypatch):
        ident = IntMatrix.identity(2)
        unchained = IntMatrix([[2, 0], [0, 3]])
        monkeypatch.setattr(oracle, "smith_normal_form", lambda system: (ident, unchained, ident))
        with pytest.raises(AssertionError, match="divide the last"):
            enumerate_fixed_points(IntMatrix([[3, 0], [0, 4]]), 1)

    def test_refuses_a_point_that_is_not_fixed(self):
        # X = k over L = 3 for k < 3, but 2 X - X = X is not 0 mod 3 for k = 1, 2
        with pytest.raises(AssertionError, match="exact substitution"):
            oracle._fixed_points(IntMatrix([[2]]), [3], IntMatrix([[1]]))

    def test_refuses_coinciding_points(self):
        # V = diag(1, 2) is not unimodular: y_2 = k/4 gives x_2 = k/2 twice over;
        # every point is fixed by the identity, so only distinctness can object
        ident = IntMatrix.identity(2)
        with pytest.raises(AssertionError, match="distinct"):
            oracle._fixed_points(ident, [1, 4], IntMatrix([[1, 0], [0, 2]]))

    def test_counts_match_and_points_are_fixed(self):
        rng = random.Random(22)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 3), -2, 2)
            iterate = rng.randint(1, 3)
            expected = isolated_fixed_count(m, iterate)
            if expected > ENUMERATION_LIMIT:
                continue
            result = enumerate_fixed_points(m, iterate)
            if expected == 0:
                assert not result.finite
            else:
                assert result.finite
                assert result.count == expected
                assert len(result.points) == expected
                assert len(set(result.points)) == expected


def test_exp_sum_series_doubling():
    assert exp_sum_zeta_series(IntMatrix([[2]]), 3) == [1, 1, 2, 4]


def test_exp_sum_series_minus_one():
    assert exp_sum_zeta_series(IntMatrix([[-1]]), 3) == [1, 2, 2, 2]


def test_exp_sum_series_rejects_negative_order():
    with pytest.raises(ValueError):
        exp_sum_zeta_series(CAT, -1)


def test_exp_sum_series_refuses_counts_of_no_zeta_function(monkeypatch):
    # counts 0, 1 give 2 f_2 = 1: no integer series has them
    counts = iter([0, 1])
    monkeypatch.setattr(oracle, "det_exact", lambda system: next(counts))
    with pytest.raises(ArithmeticError, match="not an integer"):
        exp_sum_zeta_series(CAT, 2)


def test_exp_sum_series_matches_rational_function():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng)
        assert exp_sum_zeta_series(m, 8) == artin_mazur_zeta(m).series(8)


def test_euler_product_series_example():
    assert euler_product_series([2, -1, 0, 0], 3) == [1, 2, 2, 2]


def test_euler_product_series_geometric():
    # single orbit of length one with weight 1: 1/(1-z)
    assert euler_product_series([1], 4) == [1, 1, 1, 1, 1]
    assert euler_product_series([-1], 4) == [1, -1, 0, 0, 0]


def test_euler_product_matches_zeta_series():
    rng = random.Random(24)
    for _ in range(40):
        m = random_matrix(rng)
        exponents = euler_exponents(m, 8)
        assert euler_product_series(exponents, 8) == artin_mazur_zeta(m).series(8)


def test_sturm_sign_oracle_table():
    cases = [
        (IntMatrix([[1]]), (1, 1)),
        (IntMatrix([[-1]]), (1, 1)),
        (IntMatrix([[2]]), (1, -1)),
        (IntMatrix([[-2]]), (-1, -1)),
        (CAT, (1, -1)),
        (SWAP, (1, 1)),
    ]
    for mat, expected in cases:
        assert sturm_sign_oracle(mat) == expected


def test_sturm_sign_oracle_matches_signs():
    rng = random.Random(25)
    for _ in range(60):
        m = random_matrix(rng)
        data = signs(m)
        assert sturm_sign_oracle(m) == (data.delta, data.epsilon)
    for _ in range(30):
        m = random_with_unit_eigenvalue(rng)
        data = signs(m)
        assert sturm_sign_oracle(m) == (data.delta, data.epsilon)
