import random
from fractions import Fraction as Q

import pytest

from weylgrowth.rational import (
    collinear,
    det,
    dot,
    identity,
    inverse,
    is_positive_definite,
    mat,
    matmul,
    matvec,
    nonneg_multiple_of,
    primitive,
    rank,
    rat,
    solve,
    solve_unique,
    vec,
)


def test_rat_coercions():
    assert rat(3) == Q(3)
    assert rat("3/4") == Q(3, 4)
    assert rat(0.5) == Q(1, 2)
    assert rat(0.1) == Q(1, 10)  # decimal reading, not binary expansion
    with pytest.raises(TypeError):
        rat(True)


def test_solve_unique_exact():
    A = mat([[1, -1, 0], [0, 1, -1], [0, 0, 1]])
    x = solve_unique(A, vec([1, 0, 0]))
    assert x == vec([1, 0, 0])
    assert matvec(A, solve_unique(A, vec([0, 0, 1]))) == vec([0, 0, 1])


def test_solve_underdetermined_and_inconsistent():
    A = mat([[1, 1]])
    x, null = solve(A, vec([2]))
    assert x is not None and len(null) == 1
    assert dot(A[0], null[0]) == 0
    A2 = mat([[1, 0], [1, 0]])
    x2, _ = solve(A2, vec([0, 1]))
    assert x2 is None
    assert solve_unique(A2, vec([0, 1])) is None


def test_inverse_and_det():
    A = mat([[2, -1], [-1, 2]])
    assert matmul(A, inverse(A)) == identity(2)
    assert det(A) == 3
    assert rank(A) == 2
    assert is_positive_definite(A)
    assert not is_positive_definite(mat([[1, 2], [2, 1]]))


def test_primitive_and_collinearity():
    assert primitive(vec(["1/2", "1/3"])) == vec([3, 2])
    assert primitive(vec([-2, 4])) == vec([-1, 2])
    assert collinear(vec([1, 2]), vec([2, 4]))
    assert not collinear(vec([1, 2]), vec([2, 5]))
    assert nonneg_multiple_of(vec([2, 4]), vec([1, 2]))
    assert not nonneg_multiple_of(vec([-1, -2]), vec([1, 2]))
    assert nonneg_multiple_of(vec([0, 0]), vec([1, 2]))


# -- the Fraction kernel, kept as an oracle for the integer one -------------


def _ref_dot(u, v):
    return sum((a * b for a, b in zip(u, v, strict=True)), start=Q(0))


def _ref_rref(rows):
    rows = [[Q(x) for x in row] for row in rows]
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


def _ref_det(A):
    rows = [[Q(x) for x in r] for r in A]
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


def _ref_solve(A, b):
    n = len(A[0]) if A else 0
    aug, pivots = _ref_rref([list(row) + [bi] for row, bi in zip(A, b)])
    if n in pivots:
        return None, ()
    x = [Q(0)] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -aug[r][f]
        basis.append(tuple(v))
    return tuple(x), tuple(basis)


def _ref_inverse(A):
    n = len(A)
    aug, pivots = _ref_rref([list(row) + list(e) for row, e in zip(A, identity(n))])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in aug)


def _ref_positive_definite(A):
    n = len(A)
    return all(_ref_det(tuple(tuple(A[i][j] for j in range(k)) for i in range(k))) > 0
               for k in range(1, n + 1))


def _scalar(rng):
    """A small rational of either type, zero one time in four, often negative."""
    if rng.random() < 0.25:
        return 0 if rng.random() < 0.5 else Q(0)
    num = rng.randint(-9, 9) or 1
    return num if rng.random() < 0.3 else Q(num, rng.randint(1, 7))


def _matrix(rng, m, n, rank_cap=None, zero_rows=0):
    """An m x n matrix; rows past rank_cap are rational combinations of the
    first rank_cap rows, and zero_rows rows are zeroed."""
    rows = [[_scalar(rng) for _ in range(n)] for _ in range(m)]
    if rank_cap is not None:
        for i in range(rank_cap, m):
            cs = [_scalar(rng) for _ in range(rank_cap)]
            rows[i] = [sum((Q(c) * rows[k][j] for k, c in enumerate(cs)), Q(0))
                       for j in range(n)]
    for i in rng.sample(range(m), min(zero_rows, m)):
        rows[i] = [0] * n
    return tuple(tuple(r) for r in rows)


def _all_fractions(x) -> bool:
    if x is None:
        return True
    if isinstance(x, tuple):
        return all(_all_fractions(y) for y in x)
    return type(x) is Q


SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 4), (3, 6), (5, 2), (6, 3), (1, 5), (5, 1)]


def _systems(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        m, n = SHAPES[k % len(SHAPES)]
        cap = rng.choice([None, None, 0, 1, max(1, min(m, n) - 1)])
        A = _matrix(rng, m, n, rank_cap=cap, zero_rows=rng.choice([0, 0, 1, 2]))
        if rng.random() < 0.5:
            # consistent right-hand side: A x for a random x
            x = [_scalar(rng) for _ in range(n)]
            b = tuple(_ref_dot(row, x) for row in A)
        else:
            b = tuple(_scalar(rng) for _ in range(m))
        yield A, b


def test_dot_matches_fraction_oracle():
    rng = random.Random(11)
    assert dot((), ()) == 0 and type(dot((), ())) is Q
    for _ in range(400):
        n = rng.randint(1, 8)
        u = tuple(_scalar(rng) for _ in range(n))
        v = tuple(_scalar(rng) for _ in range(n))
        got = dot(u, v)
        assert got == _ref_dot(u, v) and type(got) is Q
    assert dot((1, 2), (3, 4)) == 11 and type(dot((1, 2), (3, 4))) is Q
    with pytest.raises(ValueError):
        dot((Q(1),), (Q(1), Q(2)))


def test_rank_and_solve_match_fraction_oracle():
    kinds = set()
    for A, b in _systems(12, 300):
        assert rank(A) == len(_ref_rref(A)[1])
        got = solve(A, b)
        assert got == _ref_solve(A, b), (A, b)
        assert _all_fractions(got)
        x, null = got
        kinds.add("inconsistent" if x is None else "unique" if not null else "free")
        want = None if x is None or null else x
        assert solve_unique(A, b) == want
    assert kinds == {"inconsistent", "unique", "free"}
    assert rank(()) == 0 and rank(((0, 0), (Q(0), 0))) == 0


def test_inverse_det_and_definiteness_match_fraction_oracle():
    rng = random.Random(13)
    singular = definite = 0
    for k in range(200):
        n = 1 + k % 5
        A = _matrix(rng, n, n, rank_cap=rng.choice([None, None, n - 1]),
                    zero_rows=rng.choice([0, 0, 0, 1]))
        d = det(A)
        assert d == _ref_det(A) and type(d) is Q
        want = _ref_inverse(A)
        if want is None:
            singular += 1
            with pytest.raises(ValueError):
                inverse(A)
        else:
            got = inverse(A)
            assert got == want and _all_fractions(got)
        # symmetric test matrices: Gram matrices B B^T (definite or only
        # semidefinite) and plain symmetric parts, mostly indefinite
        S = tuple(tuple(_ref_dot(r, s) for s in A) for r in A)
        T = tuple(tuple(A[i][j] + A[j][i] for j in range(n)) for i in range(n))
        for M in (S, T):
            assert is_positive_definite(M) == _ref_positive_definite(M)
            definite += _ref_positive_definite(M)
    assert 0 < singular < 200 and 0 < definite < 400
    assert det(()) == 1 and type(det(())) is Q
    assert not is_positive_definite(((0, 1), (1, 0)))  # needs a row swap
    assert not is_positive_definite(((1, 1), (1, 1)))
    assert is_positive_definite(((Q(1, 2), Q(-1, 3)), (Q(-1, 3), 1)))
