"""Exact linear algebra over the integers.

Matrices are immutable, square, and hold arbitrary-precision Python ints,
so every operation is exact at any magnitude: products, powers,
fraction-free determinants, compound matrices of minors, and Smith normal
form with its unimodular transforms.

Validation happens where rows enter from outside: IntMatrix(rows) checks
that every entry is an integer and that the table is square and non-empty.
The kernels here (identity, scaled, +, products, Smith normal form) build
their results from tables they made themselves out of validated
operands, so they wrap them through IntMatrix._trusted without checking
again.
"""

from __future__ import annotations

import operator
from itertools import combinations
from operator import add, mul


class IntMatrix:
    """Immutable square matrix of arbitrary-precision integers."""

    __slots__ = ("_rows",)

    def __init__(self, rows) -> None:
        table = tuple(tuple(operator.index(entry) for entry in row) for row in rows)
        if not table:
            raise ValueError("matrix needs at least one row")
        size = len(table)
        for row in table:
            if len(row) != size:
                raise ValueError(
                    f"matrix must be square, got {size} rows and a row of length {len(row)}"
                )
        self._rows = table

    @classmethod
    def _trusted(cls, table: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """Wrap a non-empty square tuple of int tuples, skipping validation."""
        out = object.__new__(cls)
        out._rows = table
        return out

    @classmethod
    def identity(cls, dim: int) -> IntMatrix:
        if dim < 1:
            raise ValueError("matrix needs at least one row")
        return cls._trusted(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    @classmethod
    def zero(cls, dim: int) -> IntMatrix:
        return cls([[0] * dim for _ in range(dim)])

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self._rows[i][j]

    def trace(self) -> int:
        return sum(self._rows[i][i] for i in range(self.dim))

    def scaled(self, factor: int) -> IntMatrix:
        factor = operator.index(factor)
        return IntMatrix._trusted(tuple(tuple(factor * x for x in row) for row in self._rows))

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return IntMatrix._trusted(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + other.scaled(-1)

    def __neg__(self) -> IntMatrix:
        return self.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"IntMatrix({[list(row) for row in self._rows]!r})"


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product of two square matrices of the same dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    cols = list(zip(*b.rows))
    return IntMatrix._trusted(
        tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.rows)
    )


def mat_pow(m: IntMatrix, exponent: int) -> IntMatrix:
    """m**exponent by repeated squaring; exponent 0 gives the identity."""
    e = operator.index(exponent)
    if e < 0:
        raise ValueError("exponent must be non-negative")
    result = IntMatrix.identity(m.dim)
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def det_exact(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    Every interior division is exact, so the computation stays in the
    integers no matter how large the entries grow.
    """
    n = m.dim
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pivot_val = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot_val * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot_val
    return sign * a[n - 1][n - 1]


def exterior_power(m: IntMatrix, k: int) -> IntMatrix:
    """Compound matrix of all k-by-k minors.

    Rows and columns are indexed by the k-element subsets of the axes in
    lexicographic order, so the result is comb(dim, k) square.  k = 0 gives
    [[1]] and k = dim gives [[det(m)]].
    """
    d = m.dim
    k = operator.index(k)
    if not 0 <= k <= d:
        raise ValueError(f"order {k} out of range for dimension {d}")
    if k == 0:
        return IntMatrix([[1]])
    if k == 1:
        return m
    subsets = list(combinations(range(d), k))
    rows = m.rows
    table = []
    for row_set in subsets:
        out_row = []
        for col_set in subsets:
            minor = IntMatrix([[rows[i][j] for j in col_set] for i in row_set])
            out_row.append(det_exact(minor))
        table.append(out_row)
    return IntMatrix(table)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form U @ m @ V = D.

    Returns (U, D, V) where U and V are unimodular (determinant +-1) and D
    is diagonal with non-negative entries forming a divisibility chain
    d_1 | d_2 | ..., trailing zeros last.
    """
    n = m.dim
    a = [list(row) for row in m.rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def combine_rows(i, j, p, q, r, s):
        # (row_i, row_j) <- (p*row_i + q*row_j, r*row_i + s*row_j), p*s - q*r = +-1
        for t in range(n):
            ai, aj = a[i][t], a[j][t]
            a[i][t], a[j][t] = p * ai + q * aj, r * ai + s * aj
            ui, uj = u[i][t], u[j][t]
            u[i][t], u[j][t] = p * ui + q * uj, r * ui + s * uj

    def combine_cols(i, j, p, q, r, s):
        for row in a:
            ci, cj = row[i], row[j]
            row[i], row[j] = p * ci + q * cj, r * ci + s * cj
        for row in v:
            ci, cj = row[i], row[j]
            row[i], row[j] = p * ci + q * cj, r * ci + s * cj

    for t in range(n):
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    pivot, best = (i, j), val
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, n):
                if a[i][t] == 0:
                    continue
                p_, q_ = a[t][t], a[i][t]
                if q_ % p_ == 0:
                    combine_rows(t, i, 1, 0, -(q_ // p_), 1)
                else:
                    g, x, y = _xgcd(p_, q_)
                    combine_rows(t, i, x, y, -(q_ // g), p_ // g)
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                p_, q_ = a[t][t], a[t][j]
                if q_ % p_ == 0:
                    combine_cols(t, j, 1, 0, -(q_ // p_), 1)
                else:
                    g, x, y = _xgcd(p_, q_)
                    combine_cols(t, j, x, y, -(q_ // g), p_ // g)
            if any(a[i][t] for i in range(t + 1, n)):
                continue  # column ops reintroduced entries below the pivot
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, n)
                    for j in range(t + 1, n)
                    if a[i][j] % a[t][t] != 0
                ),
                None,
            )
            if bad is None:
                break
            # fold the offending row into row t; the next gcd pass shrinks
            # the pivot strictly, so this loop terminates
            combine_rows(t, bad[0], 1, 1, 0, 1)
    for t in range(n):
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
                u[t][j] = -u[t][j]
    trusted = IntMatrix._trusted
    return (
        trusted(tuple(map(tuple, u))),
        trusted(tuple(map(tuple, a))),
        trusted(tuple(map(tuple, v))),
    )
