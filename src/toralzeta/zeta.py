"""Dynamical zeta functions of integer matrices acting on the d-torus.

An integer d-by-d matrix M induces an endomorphism of the torus R^d/Z^d.
The number of isolated fixed points of the m-th iterate is
|det(1 - M^m)|, and the signed count det(1 - M^m) is the Lefschetz number.
Both exponential generating series sum to rational functions with integer
coefficients.  Everything served depends on M only through its
characteristic polynomial p, which is computed once.  The Lefschetz
function is the alternating product of the factors det(1 - z Lambda^k M),
each recovered from the power sums of the eigenvalues of M with Newton's
identities; the unsigned one follows from it after a sign substitution
governed by the real eigenvalues beyond -1 and 1.
All of this is computed exactly; floating point enters only in the
root-modulus estimates behind growth rate and hyperbolicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .linalg import IntMatrix
from .polynomials import (
    IntPoly,
    RatFunc,
    cyclotomic_polynomial,
    deflate_at,
    divexact,
    poly_gcd,
    squarefree_decomposition,
)

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SignData:
    """Eigenvalue bookkeeping at the fixed points of the unit interval.

    sigma and tau are the multiplicities of 1 and -1 as eigenvalues; delta
    flips the counting variable when an odd number of real eigenvalues sits
    below -1, epsilon inverts the whole function when an odd number of real
    eigenvalues lies outside [-1, 1].
    """

    sigma: int
    tau: int
    delta: int
    epsilon: int


@dataclass(frozen=True)
class GrowthRate:
    value: float
    error: float


@dataclass(frozen=True)
class ClassificationReport:
    singular: bool
    root_of_unity_orders: tuple[int, ...]
    quasihyperbolic: bool
    hyperbolic: bool | None
    hyperbolic_flag: str  # "exact", "numeric" or "indeterminate"


@dataclass(frozen=True)
class FunctionalEquationResult:
    holds: bool
    lefschetz_lhs: RatFunc
    lefschetz_rhs: RatFunc
    artin_mazur_lhs: RatFunc
    artin_mazur_rhs: RatFunc


@dataclass(frozen=True)
class ZetaReport:
    matrix: IntMatrix
    lefschetz_zeta: RatFunc
    artin_mazur_zeta: RatFunc
    signs: SignData
    counts: tuple[int, ...]
    signed_counts: tuple[int, ...]
    exponents: tuple[int, ...]
    classification: ClassificationReport
    functional_equation_holds: bool | None
    growth_rate: GrowthRate | None


def characteristic_polynomial(mat: IntMatrix) -> IntPoly:
    """det(x*1 - M), monic of degree dim.

    Faddeev-LeVerrier recurrence: with A_1 = M and A_{k+1} = M (A_k + c_k),
    the coefficient of x^(dim-k) is c_k = -tr(A_k) / k, an exact division.
    """
    dim = mat.dim
    coeffs = [1]
    acc = mat
    for k in range(1, dim + 1):
        coeffs.append(-acc.trace() // k)
        if k < dim:
            acc = mat @ (acc + IntMatrix.identity(dim).scaled(coeffs[-1]))
    return IntPoly(reversed(coeffs))


def _power_sums(q: IntPoly, count: int) -> list[int]:
    """[0, s_1, ..., s_count]: power sums of the roots lambda of q = prod(1 - lambda z).

    Division-free Newton recurrence n q_n + sum_{0<i<n} q_i s_(n-i) + s_n = 0.
    """
    c = q.coeffs
    s = [0] * (count + 1)
    for n in range(1, count + 1):
        acc = n * c[n] if n < len(c) else 0
        for i in range(1, min(n, len(c))):
            acc += c[i] * s[n - i]
        s[n] = -acc
    return s


def _from_power_sums(s, degree: int) -> list[int]:
    """Coefficients of prod(1 - lambda z) over `degree` numbers lambda with power sums s[1..].

    Inverts the recurrence of _power_sums; each division by n is exact
    because the lambda are algebraic integers and the product lies in Z[z].
    """
    c = [1] + [0] * degree
    for n in range(1, degree + 1):
        c[n] = -sum(c[i] * s[n - i] for i in range(n)) // n
    return c


def _factors(p: IntPoly) -> tuple[IntPoly, ...]:
    dim = p.degree
    sizes = [math.comb(dim, k) for k in range(dim + 1)]
    top = max(sizes)
    traces = _power_sums(IntPoly(reversed(p.coeffs)), dim * top)  # tr M^n
    # The eigenvalues of Lambda^k M are the products of k eigenvalues of M,
    # so the n-th power sum of its eigenvalues is e_k(lambda^n): up to the
    # sign (-1)^k, the z^k coefficient of det(1 - z M^n), whose own power
    # sums are tr M^(jn).
    e = [None] + [
        [(-1) ** k * c for k, c in enumerate(_from_power_sums([0] + traces[n::n], dim))]
        for n in range(1, top + 1)
    ]
    return tuple(
        IntPoly(_from_power_sums([0] + [e[n][k] for n in range(1, size + 1)], size))
        for k, size in enumerate(sizes)
    )


def char_factors(mat: IntMatrix) -> tuple[IntPoly, ...]:
    """The determinant factors det(1 - z*Lambda^k(M)) for k = 0..dim.

    Each factor has constant coefficient 1; the k = 0 factor is 1 - z and
    the top one is 1 - det(M) z.
    """
    return _factors(characteristic_polynomial(mat))


def _lefschetz(factors) -> RatFunc:
    num = IntPoly((1,))
    den = IntPoly((1,))
    for k, p in enumerate(factors):
        if k % 2:
            num = num * p
        else:
            den = den * p
    return RatFunc(num, den)


def lefschetz_zeta(mat: IntMatrix) -> RatFunc:
    """Rational function summing the signed fixed-point counts det(1 - M^m).

    Alternating product of the exterior-power factors: odd k upstairs,
    even k downstairs.
    """
    return _lefschetz(char_factors(mat))


def _signed_counts(factors, count: int) -> list[int]:
    # det(1 - M^m) = sum_k (-1)^k tr (Lambda^k M)^m, and each trace is a
    # power sum of the roots of factor k
    sums = [_power_sums(f, count) for f in factors]
    return [sum((-1) ** k * s[m] for k, s in enumerate(sums)) for m in range(1, count + 1)]


def signed_count(mat: IntMatrix, m: int) -> int:
    """Lefschetz number of the m-th iterate, det(1 - M^m)."""
    if m < 1:
        raise ValueError("iterate must be positive")
    return _signed_counts(char_factors(mat), m)[-1]


def isolated_fixed_count(mat: IntMatrix, m: int) -> int:
    """Number of isolated fixed points of the m-th iterate, |det(1 - M^m)|.

    Zero means the fixed set contains a subtorus and no isolated count
    exists.
    """
    return abs(signed_count(mat, m))


def _order_and_sign_at_one(p: IntPoly) -> tuple[int, int]:
    """Order of vanishing of p at x = 1, and the sign of p(x)/(x-1)**order there."""
    order = 0
    while (value := p(1)) == 0:
        p = deflate_at(p, 1)
        order += 1
    return order, 1 if value > 0 else -1


def _signs(p: IntPoly) -> SignData:
    # det(x*1 + M) = (-1)^dim p(-x) vanishes at 1 to the order of the eigenvalue -1
    tau, delta = _order_and_sign_at_one(p.substitute_signed(-1) * (-1) ** p.degree)
    sigma, sign_at_one = _order_and_sign_at_one(p)
    return SignData(sigma=sigma, tau=tau, delta=delta, epsilon=delta * sign_at_one)


def signs(mat: IntMatrix) -> SignData:
    """Multiplicities of the eigenvalues +-1 and the sign pair (delta, epsilon).

    Factors the characteristic polynomial p as (x-1)^sigma (x+1)^tau q(x)
    and reads the signs off exact evaluations after deflation, of p at 1
    and of det(x + M) = (-1)^dim p(-x) at 1.
    """
    return _signs(characteristic_polynomial(mat))


def _compose_signs(lefschetz: RatFunc, sign_data: SignData) -> RatFunc:
    # both steps keep the reduced form, so no gcd runs here
    return lefschetz.substitute_signed(sign_data.delta) ** sign_data.epsilon


def artin_mazur_zeta(mat: IntMatrix) -> RatFunc:
    """Rational function summing the isolated fixed-point counts |det(1 - M^m)|."""
    p = characteristic_polynomial(mat)
    return _compose_signs(_lefschetz(_factors(p)), _signs(p))


def _exponents(counts) -> list[int]:
    # N_m = sum of l c_l over the divisors l of m (Moebius inversion).  A
    # sieve peels each l c_l off the counts of the multiples of l, so what
    # is left at m is m c_m.
    rest = list(counts)
    out = []
    for ell in range(1, len(rest) + 1):
        share = rest[ell - 1]
        q, r = divmod(share, ell)
        if r:
            raise ArithmeticError(f"orbit exponent at m={ell} is not an integer")
        out.append(q)
        if share:
            for index in range(2 * ell - 1, len(rest), ell):
                rest[index] -= share
    return out


def euler_exponents(mat: IntMatrix, count: int) -> list[int]:
    """Exponents c_m of the product form prod (1 - z^m)^(-c_m).

    Moebius inversion of the fixed-point counts; every c_m is an integer,
    anything else signals an implementation bug.
    """
    if count < 1:
        raise ValueError("count must be positive")
    return _exponents([abs(x) for x in _signed_counts(char_factors(mat), count)])


def generating_function(mat: IntMatrix) -> RatFunc:
    """Ordinary generating function of the isolated fixed-point counts."""
    return artin_mazur_zeta(mat).log_derivative()


def _radical(p: IntPoly) -> IntPoly:
    scale, factors = squarefree_decomposition(p)
    out = IntPoly((1,))
    for q, _ in factors:
        out = out * q
    return out


def _isolate_root_moduli(p: IntPoly, accuracy: float) -> tuple[list[float], float]:
    """Moduli of all complex roots of p, each within +-accuracy.

    Runs mpmath's simultaneous root iteration at increasing precision until
    the reported error bound is below the requested accuracy.
    """
    coeffs = list(reversed(p.coeffs))
    dps = 30
    while dps <= 4000:
        with mpmath.workdps(dps):
            try:
                roots, err = mpmath.polyroots(coeffs, maxsteps=200, extraprec=60, error=True)
            except mpmath.libmp.NoConvergence:
                roots = None
            if roots is not None and float(err) < accuracy:
                return [float(abs(r)) for r in roots], float(err)
        dps *= 2
    raise ArithmeticError("root isolation did not converge")


def _check_tolerance(tolerance: float) -> None:
    # also refuses nan and inf, which would send root isolation to its
    # precision limit or make any root modulus acceptable
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")


def _growth_rate(artin_mazur: RatFunc, tolerance: float) -> GrowthRate | None:
    _check_tolerance(tolerance)
    den = artin_mazur.log_derivative().den
    if den.degree < 1:
        return None
    radical = _radical(den)
    accuracy = tolerance / 8
    while True:
        moduli, err = _isolate_root_moduli(radical, accuracy)
        rho = min(moduli)
        if rho > err and err / (rho * (rho - err)) <= tolerance / 2:
            value = 1.0 / rho
            # rounding rho and 1/rho to doubles adds under two ulps, so a
            # tolerance finer than the double itself is not claimed
            return GrowthRate(value=value, error=max(tolerance, 4 * math.ulp(value)))
        accuracy /= 16


def growth_rate(mat: IntMatrix, tolerance: float = DEFAULT_TOLERANCE) -> GrowthRate | None:
    """Exponential growth rate of the fixed-point counts.

    This is the reciprocal of the smallest root modulus of the reduced
    denominator of the generating function; absent (None) when that
    denominator is constant.  The value is correct to within the stated
    error: the tolerance, which must be finite and positive, or a few
    units in the last place of the double when the tolerance is finer.
    """
    return _growth_rate(artin_mazur_zeta(mat), tolerance)


def _functional_equation(
    p: IntPoly, lefschetz: RatFunc, sign_data: SignData
) -> FunctionalEquationResult:
    dim = p.degree
    d = (-1) ** dim * p.constant_coefficient  # det(M)
    if d == 0:
        raise ValueError("functional equation undefined for a singular matrix")
    b = d if dim == 1 else 1
    exponent = 1 if dim % 2 == 0 else -1
    artin_mazur = _compose_signs(lefschetz, sign_data)
    lef_lhs = lefschetz.substitute_reciprocal(d)
    lef_rhs = RatFunc(b) * lefschetz**exponent
    b_eps = RatFunc(b) if sign_data.epsilon == 1 else RatFunc(1, b)
    am_lhs = artin_mazur.substitute_reciprocal(d)
    am_rhs = b_eps * artin_mazur**exponent
    return FunctionalEquationResult(
        holds=(lef_lhs == lef_rhs and am_lhs == am_rhs),
        lefschetz_lhs=lef_lhs,
        lefschetz_rhs=lef_rhs,
        artin_mazur_lhs=am_lhs,
        artin_mazur_rhs=am_rhs,
    )


def functional_equation_check(mat: IntMatrix) -> FunctionalEquationResult:
    """Compare both zeta functions at z against 1/(det(M) z).

    With D = det(M) nonzero and B = D in dimension one (B = 1 otherwise),
    the Lefschetz function satisfies f(1/(Dz)) = B * f(z)^(+-1) with the
    sign of the exponent given by the parity of the dimension, and the
    unsigned function picks up B^epsilon instead of B.
    """
    p = characteristic_polynomial(mat)
    return _functional_equation(p, _lefschetz(_factors(p)), _signs(p))


def _euler_phi(n: int) -> int:
    out = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            out -= out // d
        d += 1
    if n > 1:
        out -= out // n
    return out


def _divides(divisor: IntPoly, dividend: IntPoly) -> bool:
    try:
        divexact(dividend, divisor)
    except ValueError:
        return False
    return True


def _classify(p: IntPoly, tolerance: float) -> ClassificationReport:
    _check_tolerance(tolerance)
    dim = p.degree
    # phi(n) >= sqrt(n/2), so phi(n) <= dim forces n <= 2 dim^2
    orders = tuple(
        n
        for n in range(1, 2 * dim * dim + 1)
        if _euler_phi(n) <= dim and _divides(cyclotomic_polynomial(n), p)
    )
    if orders:
        hyperbolic, flag = False, "exact"
    elif poly_gcd(p, IntPoly(tuple(reversed(p.coeffs)))).degree == 0:
        # no root can pair with its inverse, so none sits on the unit circle
        hyperbolic, flag = True, "exact"
    elif all(
        abs(mu - 1.0) > tolerance for mu in _isolate_root_moduli(_radical(p), tolerance / 16)[0]
    ):
        hyperbolic, flag = True, "numeric"
    else:
        hyperbolic, flag = None, "indeterminate"
    return ClassificationReport(
        singular=p.constant_coefficient == 0,
        root_of_unity_orders=orders,
        quasihyperbolic=not orders,
        hyperbolic=hyperbolic,
        hyperbolic_flag=flag,
    )


def classify(mat: IntMatrix, tolerance: float = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Spectral classification of the torus endomorphism.

    Roots of unity among the eigenvalues are detected exactly through
    cyclotomic divisors of the characteristic polynomial (phi(n) <= dim
    bounds the candidates).  Quasihyperbolic means there are none.
    Hyperbolicity (no eigenvalue modulus 1) is decided exactly when the
    characteristic polynomial shares no factor with its reciprocal, and
    numerically otherwise; a non-cyclotomic root modulus within the
    tolerance of 1 is reported as indeterminate, not guessed.  The
    tolerance must be finite and positive.
    """
    return _classify(characteristic_polynomial(mat), tolerance)


def build_report(
    mat: IntMatrix, max_m: int = 10, tolerance: float = DEFAULT_TOLERANCE
) -> ZetaReport:
    """Assemble every computed quantity for one matrix."""
    if max_m < 1:
        raise ValueError("max_m must be positive")
    p = characteristic_polynomial(mat)
    factors = _factors(p)
    sign_data = _signs(p)
    lefschetz = _lefschetz(factors)
    artin_mazur = _compose_signs(lefschetz, sign_data)
    signed = tuple(_signed_counts(factors, max_m))
    counts = tuple(abs(x) for x in signed)
    classification = _classify(p, tolerance)
    if classification.singular:
        feq = None
    else:
        feq = _functional_equation(p, lefschetz, sign_data).holds
    return ZetaReport(
        matrix=mat,
        lefschetz_zeta=lefschetz,
        artin_mazur_zeta=artin_mazur,
        signs=sign_data,
        counts=counts,
        signed_counts=signed,
        exponents=tuple(_exponents(counts)),
        classification=classification,
        functional_equation_holds=feq,
        growth_rate=_growth_rate(artin_mazur, tolerance),
    )
