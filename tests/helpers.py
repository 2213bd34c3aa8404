"""Shared builders for the randomized tests, and the routes kept as references."""

from fractions import Fraction
from itertools import product
from math import comb, gcd, prod

from toralzeta import (
    ENUMERATION_LIMIT,
    REGION_BELOW_MINUS_ONE,
    FixedPointSet,
    IntMatrix,
    IntPoly,
    SignData,
    deflate_at,
    det_exact,
    det_poly_linear,
    det_signed_count,
    exterior_power,
    mat_mul,
    mat_pow,
    multiplicity_at,
    smith_normal_form,
    squarefree_decomposition,
)


def random_matrix(rng, dim=None, low=-3, high=3):
    d = dim if dim is not None else rng.randint(1, 4)
    return IntMatrix([[rng.randint(low, high) for _ in range(d)] for _ in range(d)])


def random_nonsingular(rng, dim=None, low=-3, high=3):
    while True:
        m = random_matrix(rng, dim, low, high)
        if det_exact(m) != 0:
            return m


def block_diag(*blocks):
    total = sum(len(b) for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[offset + i][offset + j] = x
        offset += len(block)
    return IntMatrix(rows)


def shear_conjugate(mat, rng, times=2):
    """U @ mat @ U^-1 for random unimodular shears U; the spectrum is unchanged."""
    out = mat
    d = out.dim
    if d == 1:
        return out
    for _ in range(times):
        i = rng.randrange(d)
        j = rng.randrange(d)
        while j == i:
            j = rng.randrange(d)
        c = rng.randint(-2, 2)
        u = [[int(a == b) for b in range(d)] for a in range(d)]
        uinv = [row[:] for row in u]
        u[i][j] = c
        uinv[i][j] = -c
        out = mat_mul(mat_mul(IntMatrix(u), out), IntMatrix(uinv))
    return out


def random_with_unit_eigenvalue(rng, low=-3, high=3):
    """Random d <= 4 matrix with 1, -1 or the pair +-1 in the spectrum."""
    kind = rng.choice(["one", "minus-one", "swap"])
    if kind == "one":
        block = [[1]]
    elif kind == "minus-one":
        block = [[-1]]
    else:
        block = [[0, 1], [1, 0]]
    rest = rng.randint(0, 4 - len(block))
    blocks = [block]
    if rest:
        blocks.append(
            [[rng.randint(low, high) for _ in range(rest)] for _ in range(rest)]
        )
        if rng.random() < 0.5:
            blocks.reverse()
    return shear_conjugate(block_diag(*blocks), rng)


def random_unimodular(rng, dim, steps=4):
    """(U, U^-1) for a random product of integer shears."""
    u, uinv = IntMatrix.identity(dim), IntMatrix.identity(dim)
    for _ in range(steps if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice([-2, -1, 1, 2])
        shear = [[int(a == b) for b in range(dim)] for a in range(dim)]
        shear[i][j] = c
        inverse = [row[:] for row in shear]
        inverse[i][j] = -c
        u = mat_mul(IntMatrix(shear), u)
        uinv = mat_mul(uinv, IntMatrix(inverse))
    return u, uinv


def differential_matrices(rng, count=12):
    """Matrices on which a route derived from the characteristic polynomial
    could part from the matrix routes: random d = 1..6, singular,
    root-of-unity, repeated-eigenvalue and reciprocal A + A^-T spectra."""
    out = [random_matrix(rng, rng.randint(1, 6), -2, 2) for _ in range(count)]
    for _ in range(count):
        d = rng.randint(2, 5)
        rows = [list(row) for row in random_matrix(rng, d).rows]
        rows[-1] = [0] * d if rng.random() < 0.5 else rows[0][:]
        out.append(shear_conjugate(IntMatrix(rows), rng))  # singular
    for _ in range(count):
        out.append(random_with_unit_eigenvalue(rng))
    cyclic = [
        [[0, -1], [1, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, -1], [1, -1]],
        [[1, 1], [-1, 0]],
    ]
    for _ in range(count):
        blocks = rng.sample(cyclic, rng.randint(1, 2))
        out.append(shear_conjugate(block_diag(*blocks), rng))  # roots of unity
    for _ in range(count):
        a = [list(row) for row in random_matrix(rng, rng.randint(1, 3)).rows]
        jordan = [[2, 1, 0], [0, 2, 1], [0, 0, 2]][: rng.randint(1, 3)]
        jordan = [row[: len(jordan)] for row in jordan]
        repeated = block_diag(a, a) if rng.random() < 0.5 else block_diag(jordan, a)
        out.append(shear_conjugate(repeated, rng))
    for _ in range(count):
        d = rng.randint(1, 3)
        a, ainv = random_unimodular(rng, d)
        out.append(shear_conjugate(block_diag(a.rows, list(zip(*ainv.rows))), rng))  # A + A^-T
    return out


def exterior_factors(mat):
    """det(1 - z Lambda^k M) for k = 0..dim, interpolated from exterior powers."""
    factors = []
    for k in range(mat.dim + 1):
        power = exterior_power(mat, k)
        factors.append(det_poly_linear(IntMatrix.identity(power.dim), -power))
    return tuple(factors)


def determinant_signs(mat):
    """Sign data from det(x - M) and det(x + M), both interpolated from determinants."""
    ident = IntMatrix.identity(mat.dim)
    p = det_poly_linear(-mat, ident)
    q = det_poly_linear(mat, ident)

    def sign_after_deflating(poly, order):
        for _ in range(order):
            poly = deflate_at(poly, 1)
        return 1 if poly(1) > 0 else -1

    sigma, tau = multiplicity_at(p, 1), multiplicity_at(p, -1)
    delta = sign_after_deflating(q, tau)
    return SignData(sigma, tau, delta, delta * sign_after_deflating(p, sigma))


def fraction_fixed_points(mat, m):
    """The fixed points of M^m as rationals: the Smith-form enumeration on Fraction coordinates."""
    dim = mat.dim
    power = mat_pow(mat, m)
    _, diag, trans = smith_normal_form(IntMatrix.identity(dim) - power)
    divisors = [diag[i, i] for i in range(dim)]
    if any(d == 0 for d in divisors):
        return FixedPointSet(finite=False, points=None, count=None)
    total = prod(divisors)
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration too large: {total} fixed points")
    points = []
    for ks in product(*(range(d) for d in divisors)):
        y = [Fraction(k, d) for k, d in zip(ks, divisors)]
        x = tuple(sum(trans[i, j] * y[j] for j in range(dim)) % 1 for i in range(dim))
        image = [sum(power[i, j] * x[j] for j in range(dim)) - x[i] for i in range(dim)]
        assert all(entry.denominator == 1 for entry in image)
        points.append(x)
    points.sort()
    return FixedPointSet(finite=True, points=tuple(points), count=total)


def fraction_exp_sum_series(mat, order):
    """exp(sum |det(1 - M^m)| z^m / m) through z**order by f' = g' f on Fractions."""
    g = [Fraction(0)] + [Fraction(abs(det_signed_count(mat, m)), m) for m in range(1, order + 1)]
    f = [Fraction(1)]
    for k in range(1, order + 1):
        f.append(sum(j * g[j] * f[k - j] for j in range(1, k + 1)) / k)
    return f


def _mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def mobius_exponents(counts):
    """Orbit exponents c_m = (1/m) sum_(l | m) mu(m/l) N_l, with trial-division Moebius."""
    out = []
    for m in range(1, len(counts) + 1):
        total = sum(_mobius(m // ell) * counts[ell - 1] for ell in range(1, m + 1) if m % ell == 0)
        q, r = divmod(total, m)
        if r:
            raise ArithmeticError(f"orbit exponent at m={m} is not an integer")
        out.append(q)
    return out


def fraction_euler_product_series(exponents, order):
    """prod_m (1 - z^m)^(-c_m) through z**order, every factor expanded by binomials on Fractions."""
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


# Fraction references for the integer kernels of polynomials.py: long
# division, Euclid's gcd, Sturm chains, series expansion and interpolation.


def fraction_divmod(p, q):
    """Long division over the rationals; returns quotient and remainder coefficients."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = [Fraction(c) for c in p.coeffs]
    quo = [Fraction(0)] * max(len(rem) - q.degree, 1)
    lead = Fraction(q.leading_coefficient)
    dq = q.degree
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def fraction_divexact(p, q):
    """p / q in Z[z] by division over the rationals; ValueError when it is not exact."""
    if p.is_zero():
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        return IntPoly()
    quo, rem = fraction_divmod(p, q)
    if rem:
        raise ValueError("polynomial division leaves a remainder")
    if any(c.denominator != 1 for c in quo):
        raise ValueError("polynomial quotient is not integral")
    return IntPoly(tuple(int(c) for c in quo))


def _primitive_integer(coeffs):
    """The primitive integer polynomial positively proportional to rational coefficients."""
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    return IntPoly(tuple(c // gcd(*ints) for c in ints))


def fraction_gcd(p, q):
    """Primitive gcd with positive leading coefficient, by Euclid over the rationals."""
    a, b = p, q
    while not b.is_zero():
        rem = fraction_divmod(a, b)[1]
        a, b = b, _primitive_integer(rem) if rem else IntPoly()
    g = _primitive_integer(a.coeffs)
    return -g if g.leading_coefficient < 0 else g


def fraction_sturm_chain(q):
    """Sturm sequence of a squarefree polynomial: negated remainders over the rationals."""
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        _, rem = fraction_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive_integer([-c for c in rem]))
    return chain


def _sign_variations(values):
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def fraction_root_count_region(p, region):
    """Real roots of p beyond -1 or 1 with multiplicity, by Fraction Sturm chains."""
    total = 0
    for q, mult in squarefree_decomposition(p)[1]:
        below = region == REGION_BELOW_MINUS_ONE
        endpoint = -1 if below else 1
        if q(endpoint) == 0:
            q = deflate_at(q, endpoint)
        if q.degree < 1:
            continue
        chain = fraction_sturm_chain(q)
        at_end = _sign_variations([f(endpoint) for f in chain])
        at_infinity = _sign_variations(
            [f.leading_coefficient * (-1 if below and f.degree % 2 else 1) for f in chain]
        )
        total += mult * (at_infinity - at_end if below else at_end - at_infinity)
    return total


def fraction_series(f, order):
    """Taylor coefficients of a RatFunc through z**order by the recurrence on Fractions."""
    den, num = f.den, f.num
    if den.constant_coefficient == 0:
        raise ValueError("pole at origin")
    b0 = Fraction(den.constant_coefficient)
    out = []
    for k in range(order + 1):
        acc = Fraction(num.coeffs[k] if k <= num.degree else 0)
        for j in range(1, min(k, den.degree) + 1):
            acc -= den.coeffs[j] * out[k - j]
        out.append(acc / b0)
    return out


def fraction_det_poly_linear(constant, linear):
    """det(constant + z*linear) by Newton divided differences over the rationals."""
    n = constant.dim
    table = [Fraction(det_exact(constant + linear.scaled(t))) for t in range(n + 1)]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / level
    coeffs = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]
    for i in range(n + 1):
        for t, b in enumerate(basis):
            coeffs[t] += table[i] * b
        if i < n:
            grown = [Fraction(0)] * (len(basis) + 1)
            for t, b in enumerate(basis):
                grown[t + 1] += b
                grown[t] -= i * b
            basis = grown
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(tuple(int(c) for c in coeffs))
