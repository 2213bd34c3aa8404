"""Exact univariate polynomial and rational-function arithmetic over Z.

Polynomials store ascending integer coefficients with no trailing zeros.
Rational functions are kept in a canonical reduced form, so equality of
values is plain structural equality: numerator and denominator share no
polynomial factor and no integer content, and the denominator has a
positive leading coefficient.  A gcd is first attempted modulo one fixed
prime, which settles coprimality (the common case) on residues below
2^61; only pairs it cannot certify go through the subresultant
sequence over Z.  Operations known to keep a reduced pair reduced skip the
gcd altogether.  Rational numbers appear only transiently, inside
interpolation, power-series expansion, Sturm remainders and exact
division.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from .linalg import IntMatrix, det_exact

REGION_BELOW_MINUS_ONE = "(-inf,-1)"
REGION_ABOVE_ONE = "(1,inf)"


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored in ascending order of degree; the zero
    polynomial is the empty tuple and has degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()) -> None:
        data = [operator.index(c) for c in coeffs]
        while data and data[-1] == 0:
            data.pop()
        self._coeffs = tuple(data)

    @classmethod
    def constant(cls, value: int) -> IntPoly:
        return cls((value,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self._coeffs[-1] if self._coeffs else 0

    @property
    def constant_coefficient(self) -> int:
        return self._coeffs[0] if self._coeffs else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _coerce_poly(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return IntPoly(merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce_poly(other))

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self._coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> IntPoly:
        e = operator.index(exponent)
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly((1,))
        for _ in range(e):
            result = result * self
        return result

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self._coeffs) if i))

    def shift(self, k: int) -> IntPoly:
        """Multiply by z**k."""
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self._coeffs)

    def substitute_signed(self, sign: int) -> IntPoly:
        """p(sign*z) for sign = +1 or -1."""
        if sign == 1:
            return self
        if sign != -1:
            raise ValueError("sign must be +1 or -1")
        return IntPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self._coeffs)))

    def content(self) -> int:
        """Non-negative gcd of the coefficients; 0 for the zero polynomial."""
        out = 0
        for c in self._coeffs:
            out = gcd(out, c)
        return out

    def primitive_part(self) -> IntPoly:
        """Divide out the content, keeping the sign of the leading coefficient."""
        c = self.content()
        if c <= 1:
            return self
        return IntPoly(tuple(x // c for x in self._coeffs))

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"IntPoly({self._coeffs!r})"


def _coerce_poly(value) -> IntPoly:
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly((value,))
    return IntPoly(value)


def _positive_primitive(p: IntPoly) -> IntPoly:
    pp = p.primitive_part()
    return -pp if pp.leading_coefficient < 0 else pp


def _int_divexact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact integer division {a} / {b}")
    return q


def _scalar_divexact(p: IntPoly, c: int) -> IntPoly:
    if c == 1:
        return p
    return IntPoly(tuple(_int_divexact(x, c) for x in p.coeffs))


def _divmod_rational(p: IntPoly, q: IntPoly) -> tuple[list[Fraction], list[Fraction]]:
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


def divexact(p: IntPoly, q: IntPoly) -> IntPoly:
    """p / q when the division is exact in Z[z]; raises ValueError otherwise."""
    if p.is_zero():
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        return IntPoly()
    quo, rem = _divmod_rational(p, q)
    if rem:
        raise ValueError("polynomial division leaves a remainder")
    if any(c.denominator != 1 for c in quo):
        raise ValueError("polynomial quotient is not integral")
    return IntPoly(tuple(int(c) for c in quo))


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """lc(b)**(deg a - deg b + 1) * a  mod  b, computed without fractions."""
    d = b.leading_coefficient
    e = a.degree - b.degree + 1
    r = a
    while not r.is_zero() and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * d - b.shift(shift) * r.leading_coefficient
        e -= 1
    if e > 0:
        r = r * d**e
    return r


# Brown's modular argument: a prime not dividing lc(a) keeps the degree of
# every factor of a, so a gcd of degree 0 modulo it is a gcd of degree 0 over Z.
_CERTIFICATE_PRIME = (1 << 61) - 1


def _reduce_mod(p: IntPoly, q: int) -> list[int]:
    out = [c % q for c in p.coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _coprime_mod_prime(a: IntPoly, b: IntPoly) -> bool:
    """True when Euclid over GF(q), q = 2^61 - 1, certifies primitive a, b coprime.

    Sound only when q does not divide lc(a): the gcd over Z divides a, so its
    leading coefficient divides lc(a) and it keeps its degree modulo q.
    False means "not certified", never "not coprime".
    """
    q = _CERTIFICATE_PRIME
    if a.leading_coefficient % q == 0:
        return False
    u, v = _reduce_mod(a, q), _reduce_mod(b, q)
    while v:
        inv = pow(v[-1], -1, q)
        v = [c * inv % q for c in v]  # monic
        top = len(v) - 1
        while len(u) > top:
            f = u[-1]
            shift = len(u) - 1 - top
            for i in range(top):
                u[shift + i] = (u[shift + i] - f * v[i]) % q
            u.pop()
            while u and u[-1] == 0:
                u.pop()
        u, v = v, u
    return len(u) == 1


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd in Z[z] with positive leading coefficient.

    The primitive parts are first reduced modulo the prime 2^61 - 1 and run
    through Euclid's algorithm there.  When that gcd is a constant and the
    prime does not divide the leading coefficient of the higher-degree
    part, the parts are coprime over Z and the answer is 1 (Brown 1971).
    Otherwise the subresultant pseudo-remainder sequence decides: all
    intermediates stay integral, with the growth of coefficients tamed by
    the exact divisions of the classical algorithm.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    if p.is_zero():
        return _positive_primitive(q)
    if q.is_zero():
        return _positive_primitive(p)
    a, b = _positive_primitive(p), _positive_primitive(q)
    if a.degree < b.degree:
        a, b = b, a
    if b.degree == 0 or _coprime_mod_prime(a, b):
        return IntPoly((1,))
    g = h = 1
    while True:
        delta = a.degree - b.degree
        r = _pseudo_remainder(a, b)
        if r.is_zero():
            break
        if r.degree == 0:
            return IntPoly((1,))
        a, b = b, _scalar_divexact(r, g * h**delta)
        g = a.leading_coefficient
        if delta > 0:
            h = _int_divexact(g**delta, h ** (delta - 1))
    return _positive_primitive(b)


def deflate_at(p: IntPoly, x0: int) -> IntPoly:
    """Exact quotient p / (z - x0); requires p(x0) = 0."""
    coeffs = p.coeffs
    if not coeffs:
        raise ValueError("cannot deflate the zero polynomial")
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + x0 * acc
        out[i - 1] = acc
    if coeffs[0] + x0 * acc != 0:
        raise ValueError(f"{x0} is not a root")
    return IntPoly(out)


def multiplicity_at(p: IntPoly, x0: int) -> int:
    """Order of vanishing of p at the integer point x0."""
    if p.is_zero():
        raise ValueError("multiplicity of the zero polynomial is undefined")
    order = 0
    while p(x0) == 0:
        p = deflate_at(p, x0)
        order += 1
    return order


def squarefree_decomposition(p: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Yun decomposition p = scale * prod(factor**mult).

    The factors are primitive, squarefree, pairwise coprime and carry
    positive leading coefficients; scale is the signed content.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    scale = p.content()
    if p.leading_coefficient < 0:
        scale = -scale
    f = _positive_primitive(p)
    if f.degree == 0:
        return scale, []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return scale, [(f, 1)]
    factors: list[tuple[IntPoly, int]] = []
    c = divexact(f, g)
    d = divexact(f.derivative(), g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            factors.append((a, i))
        c = divexact(c, a)
        d = divexact(d, a) - c.derivative()
        i += 1
    return scale, factors


def _sturm_chain(q: IntPoly) -> list[IntPoly]:
    """Sturm sequence of a squarefree polynomial, as primitive integer polynomials."""
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        num, den = chain[-2], chain[-1]
        _, rem = _divmod_rational(num, den)
        if not rem:
            break  # only for non-squarefree input; harmless
        negated = [-c for c in rem]
        scale = 1
        for c in negated:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        ints = [int(c * scale) for c in negated]
        content = 0
        for c in ints:
            content = gcd(content, c)
        chain.append(IntPoly(tuple(c // content for c in ints)))
    return chain


def _sign_at(p: IntPoly, point) -> int:
    if point == "+inf":
        v = p.leading_coefficient
    elif point == "-inf":
        v = p.leading_coefficient * (-1) ** (p.degree % 2)
    else:
        v = p(point)
    return (v > 0) - (v < 0)


def _variations(chain: list[IntPoly], point) -> int:
    signs = [s for s in (_sign_at(p, point) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _distinct_roots_in_region(q: IntPoly, region: str) -> int:
    endpoint = -1 if region == REGION_BELOW_MINUS_ONE else 1
    if q(endpoint) == 0:
        q = deflate_at(q, endpoint)  # squarefree, so at most once
    if q.degree < 1:
        return 0
    chain = _sturm_chain(q)
    if region == REGION_BELOW_MINUS_ONE:
        return _variations(chain, "-inf") - _variations(chain, -1)
    return _variations(chain, 1) - _variations(chain, "+inf")


def real_root_count_region(p: IntPoly, region: str) -> int:
    """Real roots of p in the open region, counted with multiplicity.

    region is "(-inf,-1)" or "(1,inf)"; roots exactly at -1 or 1 are
    excluded.  Counting runs Sturm chains on the squarefree factors and
    weights each by its exponent in the decomposition.
    """
    if region not in (REGION_BELOW_MINUS_ONE, REGION_ABOVE_ONE):
        raise ValueError(f"unknown region {region!r}")
    if p.is_zero():
        raise ValueError("cannot count roots of the zero polynomial")
    _, factors = squarefree_decomposition(p)
    return sum(mult * _distinct_roots_in_region(q, region) for q, mult in factors)


def det_poly_linear(constant: IntMatrix, linear: IntMatrix) -> IntPoly:
    """det(constant + z*linear) as an exact integer polynomial.

    The integer determinant is evaluated at z = 0..dim and interpolated
    over exact rationals; the result must land back in Z[z], anything else
    signals a bug.
    """
    if constant.dim != linear.dim:
        raise ValueError(f"dimension mismatch: {constant.dim} vs {linear.dim}")
    n = constant.dim
    values = [det_exact(constant + linear.scaled(t)) for t in range(n + 1)]
    # Newton divided differences on the nodes 0..n
    table = [Fraction(v) for v in values]
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
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("determinant interpolation produced non-integer coefficients")
    return IntPoly(tuple(int(c) for c in coeffs))


_CYCLOTOMIC_CACHE: dict[int, IntPoly] = {}


def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by exact division of z**n - 1."""
    if n < 1:
        raise ValueError("order must be positive")
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    poly = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly = divexact(poly, cyclotomic_polynomial(d))
    _CYCLOTOMIC_CACHE[n] = poly
    return poly


class RatFunc:
    """Rational function over Z in canonical reduced form.

    The numerator and denominator are coprime in Z[z], share no integer
    content, and the denominator has a positive leading coefficient.  The
    zero function is 0/1.  Construction from any integer polynomial pair
    normalizes, so equal values compare equal.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=1) -> None:
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._num = IntPoly()
            self._den = IntPoly((1,))
            return
        common = poly_gcd(num, den)
        if common.degree > 0:
            num = divexact(num, common)
            den = divexact(den, common)
        c = gcd(num.content(), den.content())
        if c > 1:
            num = _scalar_divexact(num, c)
            den = _scalar_divexact(den, c)
        if den.leading_coefficient < 0:
            num, den = -num, -den
        self._num = num
        self._den = den

    @property
    def num(self) -> IntPoly:
        return self._num

    @property
    def den(self) -> IntPoly:
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def is_one(self) -> bool:
        return self._num.coeffs == (1,) and self._den.coeffs == (1,)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RatFunc({self._num.coeffs!r}, {self._den.coeffs!r})"

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(
            self._num * other._den + other._num * self._den, self._den * other._den
        )

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    @classmethod
    def _from_reduced(cls, num: IntPoly, den: IntPoly) -> RatFunc:
        """Wrap a pair already coprime and free of common content, skipping the gcd.

        Only the sign of the denominator's leading coefficient is fixed.
        """
        if den.leading_coefficient < 0:
            num, den = -num, -den
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    def __neg__(self):
        return RatFunc._from_reduced(-self._num, self._den)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self._num * other._num, self._den * other._den)

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self._num * other._den, self._den * other._num)

    def __pow__(self, exponent: int):
        # powers of a coprime pair stay coprime, and by Gauss's lemma the
        # contents are powers of coprime contents
        e = operator.index(exponent)
        if e >= 0:
            return RatFunc._from_reduced(self._num**e, self._den**e)
        if self.is_zero():
            raise ZeroDivisionError("negative power of the zero function")
        return RatFunc._from_reduced(self._den ** (-e), self._num ** (-e))

    def evaluate(self, x) -> Fraction:
        den_val = self._den(x)
        if den_val == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return Fraction(self._num(x)) / Fraction(den_val)

    def substitute_signed(self, sign: int) -> RatFunc:
        """f(sign*z) for sign = +1 or -1."""
        if sign == 1:
            return self
        # z -> -z is a ring automorphism that keeps the contents: still reduced
        return RatFunc._from_reduced(
            self._num.substitute_signed(sign), self._den.substitute_signed(sign)
        )

    def substitute_reciprocal(self, d: int) -> RatFunc:
        """f(1/(d*z)) as a rational function in z; d must be nonzero."""
        if d == 0:
            raise ValueError("reciprocal substitution needs a nonzero scale")
        if self.is_zero():
            return self
        num, den = self._num, self._den
        num_rev = _reverse_scaled(num, d)
        den_rev = _reverse_scaled(den, d)
        gap = den.degree - num.degree
        if gap >= 0:
            return RatFunc(num_rev.shift(gap) * d**gap, den_rev)
        return RatFunc(num_rev, den_rev.shift(-gap) * d ** (-gap))

    def log_derivative(self) -> RatFunc:
        """z * f'(z) / f(z); the counting series attached to f."""
        if self.is_zero():
            raise ZeroDivisionError("logarithmic derivative of the zero function")
        num, den = self._num, self._den
        top = num.derivative() * den - num * den.derivative()
        return RatFunc(top.shift(1), num * den)

    def series(self, order: int) -> list[Fraction]:
        """Taylor coefficients at 0 through z**order, as exact rationals."""
        if order < 0:
            raise ValueError("order must be non-negative")
        den = self._den
        if den.constant_coefficient == 0:
            raise ValueError("pole at origin")
        num = self._num
        b0 = Fraction(den.constant_coefficient)
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = Fraction(num.coeffs[k] if k <= num.degree else 0)
            for j in range(1, min(k, den.degree) + 1):
                acc -= den.coeffs[j] * out[k - j]
            out.append(acc / b0)
        return out


def _reverse_scaled(p: IntPoly, d: int) -> IntPoly:
    # z**deg * p(1/(d*z)) scaled by d**deg: coefficient c_i lands on z**(deg-i)
    # with a factor d**(deg-i)
    n = p.degree
    return IntPoly(tuple(p.coeffs[n - j] * d**j for j in range(n + 1)))
