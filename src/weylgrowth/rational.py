"""Exact rational vectors and small matrices on top of fractions.Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Everything
here is exact; floats never enter except through the explicit to_float helpers.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd

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


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec):
    return sum((a * b for a, b in zip(u, v, strict=True)), start=Q(0))


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


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(A) -> int:
    rows = [list(r) for r in A]
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def solve(A, b) -> tuple[Vec | None, tuple[Vec, ...]]:
    """Solve A x = b exactly.

    Returns (particular solution or None if inconsistent, nullspace basis).
    A is m x n, b length m.  The particular solution has zeros in the free
    coordinates.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(row) + [bi] for row, bi in zip(A, b, strict=True)]
    aug, pivots = _rref(aug)
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
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(A)]
    aug, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in aug)


def det(A: Mat) -> Q:
    rows = [list(r) for r in A]
    n = len(rows)
    d = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def is_positive_definite(A: Mat) -> bool:
    """Sylvester criterion on leading principal minors, exact."""
    n = len(A)
    if any(len(r) != n for r in A):
        return False
    if transpose(A) != A:
        return False
    for k in range(1, n + 1):
        minor = tuple(tuple(A[i][j] for j in range(k)) for i in range(k))
        if det(minor) <= 0:
            return False
    return True


def primitive(v: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integer entries.

    Orientation is preserved: the result is a positive multiple of v.
    """
    if is_zero(v):
        raise ValueError("zero vector has no primitive form")
    denom_lcm = 1
    for x in v:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(Q(a, g) for a in ints)


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
