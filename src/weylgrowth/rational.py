"""Exact rational vectors and small matrices on top of fractions.Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Everything
here is exact; floats never enter except through the explicit to_float helpers.
Inside, dot products and eliminations run on Python ints (numerators over a
common denominator, fraction-free in the manner of Bareiss 1968); every scalar
they return is a Fraction.  The samplers instead take integer tables from
cleared_rows and pairing_table and decide each sample with idot.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul

Vec = tuple
Mat = tuple


def rat(x) -> Q:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    Plain floats are read through their decimal repr, so a JSON literal like
    0.5 becomes exactly 1/2 and 0.1 becomes exactly 1/10.
    """
    if isinstance(x, Q):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        return Q(x)
    if isinstance(x, float):
        return Q(str(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def vec(xs) -> Vec:
    return tuple(rat(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def vzero(n: int) -> Vec:
    return (Q(0),) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_add_scaled(u: Vec, c, v: Vec) -> Vec:
    """u + c*v."""
    return tuple(a + c * b for a, b in zip(u, v, strict=True))


def lincomb(cs, vs) -> Vec:
    """sum of c * v over the pairs, entry by entry through dot; vs nonempty."""
    return tuple(dot(cs, col) for col in zip(*vs, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Q:
    """u . v for entries of Fraction or int: the integer products are summed
    over one running denominator and a single Fraction is built at the end."""
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        p = a.numerator * b.numerator
        if p:
            q = a.denominator * b.denominator
            if q == den:
                num += p
            else:
                g = gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
    return Q(num, den)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def unit(n: int, i: int) -> Vec:
    """The i-th standard basis vector of Q^n."""
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit(n, i) for i in range(n))


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A, strict=True))


def matvec(A: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in A)


def matmul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def _cleared(row) -> tuple[int, list[int]]:
    """(L, L * row) for L the lcm of the row's denominators; L * row is integral."""
    L = lcm(*(x.denominator for x in row))
    return L, [x.numerator * (L // x.denominator) for x in row]


def cleared_rows(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D * rows) for D the lcm of every entry's denominator.

    One positive scale for the whole family, so integer pairings against
    the rows keep their signs, equalities and ratios.
    """
    D = lcm(*(x.denominator for row in rows for x in row))
    return D, tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in rows)


def pairing_table(rows, cols) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D * (r . c for c in cols) for r in rows): the pairings of each
    row with each column, cleared over one positive scale D for the table.

    A point v = sum of x_j / s * cols[j], x integral, then pairs with rows[i]
    as idot(x, table[i]) / (D * s): every sign, equality and comparison
    between rows is decided on ints.
    """
    return cleared_rows([[dot(r, c) for c in cols] for r in rows])


def idot(x, y) -> int:
    """x . y for two integer rows."""
    return sum(map(mul, x, y))


def _primitive_ints(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form: (its nonzero rows, in Fraction, pivot columns).

    The reduced form does not change under row scaling, so each row is
    cleared of denominators and eliminated over the integers, kept
    primitive, and each pivot row is divided by its pivot once at the end.
    """
    M = [_primitive_ints(_cleared(row)[1]) for row in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        for i in range(m):
            f = M[i][c]
            if i != r and f:
                g = gcd(top[c], f)
                a, b = top[c] // g, f // g
                M[i] = _primitive_ints([a * x - b * y for x, y in zip(M[i], top)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    zero = Q(0)
    out = [[Q(x, M[i][c]) if x else zero for x in M[i]] for i, c in enumerate(pivots)]
    return out, pivots


def rank(A) -> int:
    return len(_rref(A)[1])


def solve(A, b) -> tuple[Vec | None, tuple[Vec, ...]]:
    """Solve A x = b exactly.

    Returns (particular solution or None if inconsistent, nullspace basis).
    A is m x n, b length m.  The particular solution has zeros in the free
    coordinates.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    aug, pivots = _rref([(*row, bi) for row, bi in zip(A, b, strict=True)])
    # inconsistent iff a pivot lands in the augmented column
    if n in pivots:
        return None, ()
    x = [Q(0)] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * n
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -aug[r][f]
        basis.append(tuple(v))
    return tuple(x), tuple(basis)


def solve_unique(A, b) -> Vec | None:
    """Unique exact solution of A x = b, or None if inconsistent/underdetermined."""
    x, null = solve(A, b)
    if x is None or null:
        return None
    return x


def inverse(A: Mat) -> Mat:
    n = len(A)
    aug, pivots = _rref([(*row, *e) for row, e in zip(A, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in aug)


def _bareiss(M: list[list[int]]):
    """Fraction-free elimination of a square integer matrix, in place.

    Yields (pivot, swapped) for each column before eliminating below it;
    every division is exact (Bareiss 1968).  Until the first row swap the
    k-th pivot is the k-th leading principal minor, and the last pivot is
    the determinant up to the sign of the swaps.  A column with no pivot
    yields (0, False) and ends the elimination.
    """
    n = len(M)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            yield 0, False
            return
        M[k], M[piv] = M[piv], M[k]
        top = M[k]
        p = top[k]
        yield p, piv != k
        for i in range(k + 1, n):
            f = M[i][k]
            M[i] = [(x * p - f * y) // prev for x, y in zip(M[i], top)]
        prev = p


def det(A: Mat) -> Q:
    """Exact determinant, by Bareiss elimination of the denominator-cleared rows."""
    scale, M = 1, []
    for row in A:
        L, ints = _cleared(row)
        scale *= L
        M.append(ints)
    sign, last = 1, 1
    for p, swapped in _bareiss(M):
        if not p:
            return Q(0)
        if swapped:
            sign = -sign
        last = p
    return Q(sign * last, scale)


def is_positive_definite(A: Mat) -> bool:
    """Sylvester criterion, exact: every leading principal minor is positive.

    Clearing a row's denominators scales the minors by positive factors, so
    the pivots of one elimination without row swaps carry their signs.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        return False
    if transpose(A) != A:
        return False
    M = [_cleared(row)[1] for row in A]
    return all(p > 0 and not swapped for p, swapped in _bareiss(M))


def primitive(v: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integer entries.

    Orientation is preserved: the result is a positive multiple of v.
    """
    if is_zero(v):
        raise ValueError("zero vector has no primitive form")
    return tuple(Q(a) for a in _primitive_ints(_cleared(v)[1]))


def collinear(u: Vec, v: Vec) -> bool:
    """True iff u and v span the same line (or one of them is zero)."""
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


def nonneg_multiple_of(u: Vec, v: Vec) -> bool:
    """True iff u = c v for some rational c >= 0 (v nonzero)."""
    if is_zero(u):
        return True
    if not collinear(u, v):
        return False
    for a, b in zip(u, v):
        if b != 0:
            return a / b >= 0
    return False


def to_float(v) -> tuple:
    return tuple(float(x) for x in v)
