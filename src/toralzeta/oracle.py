"""Brute-force cross-checks for the zeta pipeline.

Everything here recomputes a quantity through a route disjoint from the
main one, which derives every quantity from the characteristic polynomial:
fixed points are counted as determinants of the iterates and through
Smith normal form, enumerated as explicit rational points on the torus
(in integer coordinates over the last Smith divisor, verified by exact
substitution), the zeta series is rebuilt by exponentiating the count sum
with an integer recurrence, and the sign pair is read off Sturm root
counts of a characteristic polynomial interpolated from determinants.
Nothing here imports the main route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .linalg import IntMatrix, det_exact, mat_pow, smith_normal_form
from .polynomials import (
    REGION_ABOVE_ONE,
    REGION_BELOW_MINUS_ONE,
    det_poly_linear,
    real_root_count_region,
)

ENUMERATION_LIMIT = 10_000


@dataclass(frozen=True)
class FixedPointSet:
    """Fixed points of one iterate: finite tells whether the set is discrete.

    For a finite set, points holds the torus coordinates in [0, 1)^d sorted
    lexicographically and count their number; both are None otherwise.
    """

    finite: bool
    points: tuple[tuple[Fraction, ...], ...] | None
    count: int | None


def det_signed_count(mat: IntMatrix, m: int) -> int:
    """det(1 - M^m) by fraction-free elimination on the m-th matrix power."""
    if m < 1:
        raise ValueError("iterate must be positive")
    return det_exact(IntMatrix.identity(mat.dim) - mat_pow(mat, m))


def snf_fixed_count(mat: IntMatrix, m: int) -> int:
    """|det(1 - M^m)| as the product of Smith normal form divisors.

    Independent of the determinant route: elimination over Z only.  Zero
    when some divisor vanishes, meaning the fixed set is not discrete.
    """
    if m < 1:
        raise ValueError("iterate must be positive")
    system = IntMatrix.identity(mat.dim) - mat_pow(mat, m)
    _, diag, _ = smith_normal_form(system)
    out = 1
    for i in range(diag.dim):
        d = diag[i, i]
        if d == 0:
            return 0
        out *= d
    return out


def enumerate_fixed_points(mat: IntMatrix, m: int) -> FixedPointSet:
    """Solve M^m x = x mod 1 exactly.

    The solutions of (1 - M^m) x in Z^d come out of the Smith form
    U(1-M^m)V = D as x = V y with y_i ranging over k/d_i.  Every d_i
    divides the last divisor L, so the points are enumerated as integer
    vectors X = L x mod L, and each candidate is verified by exact
    substitution, M^m X = X mod L.  Raises when a finite solution set would
    exceed the enumeration limit.
    """
    if m < 1:
        raise ValueError("iterate must be positive")
    dim = mat.dim
    power = mat_pow(mat, m)
    system = IntMatrix.identity(dim) - power
    _, diag, trans = smith_normal_form(system)
    divisors = [diag[i, i] for i in range(dim)]
    if any(d == 0 for d in divisors):
        return FixedPointSet(finite=False, points=None, count=None)
    total = 1
    for d in divisors:
        total *= d
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration too large: {total} fixed points")
    last = divisors[-1]
    if any(last % d for d in divisors):
        raise AssertionError(f"Smith divisors {divisors} do not all divide the last one")
    # column j of V, scaled so that y_j = k/d_j becomes the integer k * L/d_j
    steps = [[trans[i, j] * (last // divisors[j]) for i in range(dim)] for j in range(dim)]
    rows = [[power[i, j] for j in range(dim)] for i in range(dim)]
    points = []
    for ks in product(*(range(d) for d in divisors)):
        x = [sum(k * col[i] for k, col in zip(ks, steps)) % last for i in range(dim)]
        for i, row in enumerate(rows):
            if (sum(a * b for a, b in zip(row, x)) - x[i]) % last:
                raise AssertionError("candidate fixed point failed exact substitution")
        points.append(tuple(x))
    points.sort()  # one common denominator, so integer order is torus order
    coords = [Fraction(k, last) for k in range(last)]
    return FixedPointSet(
        finite=True, points=tuple(tuple(coords[k] for k in x) for x in points), count=total
    )


def exp_sum_zeta_series(mat: IntMatrix, order: int) -> list[Fraction]:
    """Zeta series through z**order, rebuilt from the counts alone.

    Exponentiates sum a_m z^m / m with the recurrence f' = g' f, which in
    coefficients reads k f_k = sum_j a_j f_(k-j); the series has integer
    coefficients, so every division must be exact, and anything else
    raises.  One running matrix power serves every count; no
    rational-function arithmetic involved.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    ident = IntMatrix.identity(mat.dim)
    counts = [0]
    power = ident
    for _ in range(order):
        power = power @ mat
        counts.append(abs(det_exact(ident - power)))
    f = [1]
    for k in range(1, order + 1):
        q, r = divmod(sum(counts[j] * f[k - j] for j in range(1, k + 1)), k)
        if r:
            raise ArithmeticError(f"zeta series coefficient {k} is not an integer")
        f.append(q)
    return [Fraction(c) for c in f]


def euler_product_series(exponents, order: int) -> list[Fraction]:
    """Series through z**order of prod_m (1 - z^m)^(-c_m).

    Each factor expands through exact binomials, so this reconstructs the
    zeta series from orbit data alone.
    """
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for m, c in enumerate(exponents, start=1):
        if m > order:
            break
        factor = [Fraction(0)] * (order + 1)
        for j in range(order // m + 1):
            if c >= 0:
                w = comb(c + j - 1, j) if j else 1
            else:
                w = (-1) ** j * comb(-c, j)
            factor[m * j] = Fraction(w)
        merged = [Fraction(0)] * (order + 1)
        for i, a in enumerate(coeffs):
            if a:
                for j in range(0, order - i + 1, m):
                    if factor[j]:
                        merged[i + j] += a * factor[j]
        coeffs = merged
    return coeffs


def sturm_sign_oracle(mat: IntMatrix) -> tuple[int, int]:
    """(delta, epsilon) from real root counts of the characteristic polynomial.

    delta = (-1)^(roots below -1), epsilon adds the roots above 1; the open
    regions exclude the eigenvalues -1 and 1 themselves.  Counts come from
    Sturm chains only.
    """
    p = det_poly_linear(-mat, IntMatrix.identity(mat.dim))
    below = real_root_count_region(p, REGION_BELOW_MINUS_ONE)
    above = real_root_count_region(p, REGION_ABOVE_ONE)
    delta = -1 if below % 2 else 1
    epsilon = -1 if (below + above) % 2 else 1
    return delta, epsilon
