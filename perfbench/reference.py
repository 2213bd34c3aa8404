"""Exact integer helpers for input generation and response checking.

Written without any import from toralzeta, so that a defect in the package
cannot hide itself in the reference it is compared against: determinants
by fraction-free elimination, characteristic polynomials by the
Faddeev-LeVerrier recurrence, and polynomial arithmetic over Q on plain
coefficient lists.  Polynomials are ascending coefficient lists; matrices
are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def det(rows) -> int:
    """Determinant by Bareiss elimination; every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signed_counts(rows, max_m: int) -> list[int]:
    """det(1 - M^m) for m = 1..max_m, from successive powers."""
    ident = identity(len(rows))
    power = ident
    out = []
    for _ in range(max_m):
        power = mat_mul(power, rows)
        out.append(det(mat_sub(ident, power)))
    return out


def char_poly(rows) -> list[int]:
    """det(x - M), ascending and monic, by Faddeev-LeVerrier."""
    n = len(rows)
    coeffs = [0] * n + [1]
    product = tuple(tuple(0 for _ in range(n)) for _ in range(n))  # M times the running matrix
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        running = tuple(
            tuple(x + (c if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(product)
        )
        product = mat_mul(rows, running)
        trace = sum(product[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs[n - k] = -trace // k
    return coeffs


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_divmod(p, q):
    """Quotient and remainder over Q."""
    p = [Fraction(c) for c in trim(p)]
    q = trim(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while len(p) >= len(q) and p:
        shift = len(p) - len(q)
        factor = p[-1] / q[-1]
        quo[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p = trim(p)
    return trim(quo), p


def poly_gcd_degree(a, b) -> int:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return len(a) - 1


def divides(q, p) -> bool:
    return not poly_divmod(p, q)[1]


def multiplicity(p, root: int) -> int:
    order = 0
    while len(trim(p)) > 1 and divides([-root, 1], p):
        p = poly_divmod(p, [-root, 1])[0]
        order += 1
    return order


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@cache
def cyclotomic(n: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = [int(c) for c in poly_divmod(poly, cyclotomic(d))[0]]
    return tuple(poly)


def root_of_unity_orders(p) -> list[int]:
    """Orders n of the roots of unity among the roots of p (phi(n) <= deg p)."""
    dim = len(trim(p)) - 1
    return [n for n in range(1, 2 * dim * dim + 1) if _phi(n) <= dim and divides(cyclotomic(n), p)]


def series(num, den, order: int) -> list[Fraction]:
    """Taylor coefficients of num/den at 0 through z**order."""
    den = trim(den)
    if not den or den[0] == 0:
        raise ValueError("pole at the origin")
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def exp_of_count_sum(counts, order: int) -> list[int]:
    """Coefficients of exp(sum_m counts[m-1] z^m / m) through z**order.

    Uses k f_k = sum_j counts[j-1] f_{k-j}; the division is exact for any
    sequence of fixed-point counts of a toral map.
    """
    f = [1]
    for k in range(1, order + 1):
        total = sum(counts[j - 1] * f[k - j] for j in range(1, k + 1))
        if total % k:
            raise ArithmeticError(f"series coefficient {k} is not an integer")
        f.append(total // k)
    return f


def mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def orbit_exponents(counts) -> list[int]:
    """Moebius inversion c_m = (1/m) sum_{l | m} mu(m/l) a_l."""
    out = []
    for m in range(1, len(counts) + 1):
        total = sum(mobius(m // ell) * counts[ell - 1] for ell in range(1, m + 1) if m % ell == 0)
        if total % m:
            raise ArithmeticError(f"orbit exponent {m} is not an integer")
        out.append(total // m)
    return out


def root_moduli(p) -> list[float]:
    # numpy is imported here, not at the top, so that a run reads its peak
    # RSS before numpy is loaded (only verification needs it)
    import numpy

    return [abs(r) for r in numpy.roots(list(reversed(trim(p))))]


def mahler_measure(p) -> float:
    """|leading coefficient| times the product of the root moduli above 1."""
    out = float(abs(trim(p)[-1]))
    for r in root_moduli(p):
        out *= max(1.0, r)
    return out
