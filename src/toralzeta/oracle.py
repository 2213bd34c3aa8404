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

The public functions take (mat, m) or (mat, order) and validate the
iterate.  Each wraps a private core that takes the work already done for
an iterate: the power M^m, the system 1 - M^m or its Smith form, or the
list of counts.  The cores trust their arguments, so that check can walk
the iterates once, with one running power and one Smith form each, and
feed every row from them.  Every core still verifies its own results:
the Smith chain, exact substitution and distinctness of every enumerated
point, exact division in the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

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


def _iterate_system(mat: IntMatrix, m: int) -> tuple[IntMatrix, IntMatrix]:
    """(M^m, 1 - M^m) for a positive iterate m."""
    if m < 1:
        raise ValueError("iterate must be positive")
    power = mat_pow(mat, m)
    return power, IntMatrix.identity(mat.dim) - power


def _smith_form(system: IntMatrix) -> tuple[list[int], IntMatrix]:
    """The Smith divisors d_1 | d_2 | ... of a system and the column transform V.

    U system V = D with U and V unimodular and D = diag(d_1, ..., d_dim).
    """
    _, diag, trans = smith_normal_form(system)
    return [diag[i, i] for i in range(system.dim)], trans


def _fixed_points(power: IntMatrix, divisors, trans: IntMatrix):
    """The fixed points of M^m as integer vectors over the last Smith divisor.

    Takes M^m and the Smith form of 1 - M^m (divisors and V).  Returns
    (points, L): the set of integer vectors X = L x mod L, one for each
    fixed point x, and the last divisor L.  Returns None when some divisor
    vanishes, so that the fixed set is not discrete.  Raises ValueError
    beyond the enumeration limit, and AssertionError when the divisors do
    not form a chain, a point fails exact substitution or two points
    coincide.
    """
    if 0 in divisors:
        return None
    total = prod(divisors)
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration too large: {total} fixed points")
    last = divisors[-1]
    if any(last % d for d in divisors):
        raise AssertionError(f"Smith divisors {divisors} do not all divide the last one")
    dim = power.dim
    # coords[i] holds coordinate i of every point so far; column j of V,
    # scaled so that y_j = k/d_j becomes the integer k * L/d_j, extends
    # each point by its d_j offsets
    coords = [[0] for _ in range(dim)]
    for j, d in enumerate(divisors):
        if d == 1:
            continue  # the only offset is 0
        scale = last // d
        for i in range(dim):
            step = trans[i, j] * scale
            offsets = [k * step % last for k in range(d)]
            coords[i] = [(x + o) % last for x in coords[i] for o in offsets]
    # exact substitution, one row at a time: sum_j P[i][j] X_j - X_i = 0 mod L
    for i, row in enumerate(power.rows):
        residue = [(row[i] - 1) * x for x in coords[i]]
        for j, (a, column) in enumerate(zip(row, coords)):
            if a and j != i:
                residue = [r + a * x for r, x in zip(residue, column)]
        if any(map(last.__rmod__, residue)):
            raise AssertionError("candidate fixed point failed exact substitution")
    points = set(zip(*coords))
    if len(points) != total:
        raise AssertionError(f"{total} enumerated fixed points hold only {len(points)} distinct ones")
    return points, last


def _exp_sum_series(counts) -> list[int]:
    """Integer series of exp(sum a_m z^m / m) through z**len(counts), counts = [a_1, ...].

    The recurrence f' = g' f reads k f_k = sum_j a_j f_(k-j); every division
    must be exact, and anything else raises ArithmeticError.
    """
    f = [1]
    for k in range(1, len(counts) + 1):
        q, r = divmod(sum(counts[j - 1] * f[k - j] for j in range(1, k + 1)), k)
        if r:
            raise ArithmeticError(f"zeta series coefficient {k} is not an integer")
        f.append(q)
    return f


def det_signed_count(mat: IntMatrix, m: int) -> int:
    """det(1 - M^m) by fraction-free elimination on the m-th matrix power."""
    return det_exact(_iterate_system(mat, m)[1])


def snf_fixed_count(mat: IntMatrix, m: int) -> int:
    """|det(1 - M^m)| as the product of Smith normal form divisors.

    Independent of the determinant route: elimination over Z only.  Zero
    when some divisor vanishes, meaning the fixed set is not discrete.
    """
    return prod(_smith_form(_iterate_system(mat, m)[1])[0])


def enumerate_fixed_points(mat: IntMatrix, m: int) -> FixedPointSet:
    """Solve M^m x = x mod 1 exactly.

    The solutions of (1 - M^m) x in Z^d come out of the Smith form
    U(1-M^m)V = D as x = V y with y_i ranging over k/d_i.  Every d_i
    divides the last divisor L, so the points are enumerated as integer
    vectors X = L x mod L, and every one is verified by exact substitution,
    M^m X = X mod L.  count is the number of distinct verified points.
    Raises when a finite solution set would exceed the enumeration limit.
    """
    power, system = _iterate_system(mat, m)
    found = _fixed_points(power, *_smith_form(system))
    if found is None:
        return FixedPointSet(finite=False, points=None, count=None)
    points, last = found
    coords = [Fraction(k, last) for k in range(last)]
    # one common denominator, so integer order is torus order
    ordered = tuple(tuple(coords[k] for k in x) for x in sorted(points))
    return FixedPointSet(finite=True, points=ordered, count=len(ordered))


def exp_sum_zeta_series(mat: IntMatrix, order: int) -> list[Fraction]:
    """Zeta series through z**order, rebuilt from the counts alone.

    Exponentiates sum a_m z^m / m with the integer recurrence of
    _exp_sum_series, a_m = |det(1 - M^m)|.  One running matrix power serves
    every count; no rational-function arithmetic involved.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    ident = IntMatrix.identity(mat.dim)
    counts = []
    power = ident
    for _ in range(order):
        power = power @ mat
        counts.append(abs(det_exact(ident - power)))
    return [Fraction(c) for c in _exp_sum_series(counts)]


def euler_product_series(exponents, order: int) -> list[Fraction]:
    """Series through z**order of prod_m (1 - z^m)^(-c_m).

    Each factor expands through exact binomials, so this reconstructs the
    zeta series from orbit data alone.  The arithmetic is on integers.
    """
    coeffs = [1] + [0] * order
    for m, c in enumerate(exponents, start=1):
        if m > order:
            break
        if not c:
            continue
        # (1 - t)^(-c) = sum_j w_j t^j with w_j = w_(j-1) (c + j - 1) / j,
        # an exact division for either sign of c
        weights = [1]
        for j in range(1, order // m + 1):
            weights.append(weights[-1] * (c + j - 1) // j)
        merged = [0] * (order + 1)
        for i, a in enumerate(coeffs):
            if a:
                for j, w in enumerate(weights[: (order - i) // m + 1]):
                    merged[i + m * j] += a * w
        coeffs = merged
    return [Fraction(c) for c in coeffs]


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
