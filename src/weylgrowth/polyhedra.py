"""Exact polyhedral computations over the rationals.

Ray and vertex enumeration work by subset enumeration, which is
exponential in the ambient dimension, so every entry point has a rank
cap. That is fine here: the geometry this package needs
lives in rank <= 4. All vectors are Fraction tuples paired by the plain
dot product.
"""

from itertools import combinations

from .errors import CapExceeded
from .rational import (
    Q,
    dot,
    is_zero,
    primitive,
    rank as mat_rank,
    solve,
    solve_unique,
    unit,
    vneg,
    vzero,
)

DD_RANK_CAP_DEFAULT = 4


def _row_basis(rows):
    """A maximal linearly independent subset of rows, in order."""
    picked = []
    for r in rows:
        if mat_rank(picked + [list(r)]) == len(picked) + 1:
            picked.append(list(r))
    return [tuple(r) for r in picked]


def _pointed_rays(rows, n):
    # every extreme ray has n-1 independent active constraints
    if n == 1:
        out = []
        for cand in (unit(1, 0), vneg(unit(1, 0))):
            if all(dot(r, cand) >= 0 for r in rows):
                out.append(cand)
        return out
    rays = {}
    for S in combinations(range(len(rows)), n - 1):
        sub = [list(rows[i]) for i in S]
        _, ker = solve(sub, vzero(len(S)))
        if len(ker) != 1:
            continue
        u = primitive(ker[0])
        for cand in (u, vneg(u)):
            if all(dot(r, cand) >= 0 for r in rows):
                rays[cand] = None
    return list(rays)


def extreme_rays(halfspaces, n):
    """Generators of the cone {x : h(x) >= 0 for every h in halfspaces}.

    Returns primitive integer rays. A cone with lineality contributes a
    +/- pair for each lineality direction plus the extreme rays of its
    pointed part, so the returned list always generates the cone.
    """
    if n > DD_RANK_CAP_DEFAULT:
        raise CapExceeded("ray enumeration rank", n, DD_RANK_CAP_DEFAULT)
    rows = [h for h in halfspaces if not is_zero(h)]
    if not rows:
        out = []
        for i in range(n):
            out.extend((unit(n, i), vneg(unit(n, i))))
        return out
    _, lineality = solve([list(r) for r in rows], vzero(len(rows)))
    if not lineality:
        return _pointed_rays(rows, n)
    # restrict to the row space, where the cone is pointed
    basis = _row_basis(rows)
    reduced = [tuple(dot(r, b) for b in basis) for r in rows]
    out = []
    for d in lineality:
        p = primitive(d)
        out.extend((p, vneg(p)))
    for y in _pointed_rays(reduced, len(basis)):
        x = vzero(n)
        for yi, b in zip(y, basis):
            x = tuple(a + yi * c for a, c in zip(x, b))
        out.append(primitive(x))
    return out


def vertices_of_polyhedron(A, b):
    """All vertices of {x : A x >= b}, exact.

    The polyhedron may be unbounded; an empty result means it has no
    vertex (it is empty, or it contains a line).
    """
    if not A:
        return ()
    n = len(A[0])
    if n > DD_RANK_CAP_DEFAULT:
        raise CapExceeded("vertex enumeration rank", n, DD_RANK_CAP_DEFAULT)
    out = {}
    for S in combinations(range(len(A)), n):
        x = solve_unique([list(A[i]) for i in S], [b[i] for i in S])
        if x is None:
            continue
        if all(dot(A[i], x) >= b[i] for i in range(len(A))):
            out[x] = None
    return tuple(out)


def lp_feasible_eq(A, b):
    """One x >= 0 with Ax = b, or None. Exact phase-1 simplex.

    Bland's rule, so termination is guaranteed.
    """
    m = len(A)
    if m == 0:
        return ()
    k = len(A[0])
    T = []
    for ai, bi in zip(A, b):
        if bi < 0:
            T.append([-x for x in ai] + [Q(0)] * m + [-bi])
        else:
            T.append(list(ai) + [Q(0)] * m + [bi])
    for i in range(m):
        T[i][k + i] = Q(1)
    ncols = k + m
    basis = list(range(k, ncols))
    red = [-sum(T[i][j] for i in range(m)) for j in range(ncols + 1)]
    for j in range(k, ncols):
        red[j] += Q(1)
    while True:
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        ratios = [(T[i][ncols] / T[i][enter], basis[i], i)
                  for i in range(m) if T[i][enter] > 0]
        if not ratios:
            return None
        piv = min(ratios)[2]
        p = T[piv][enter]
        T[piv] = [x / p for x in T[piv]]
        for i in range(m):
            if i != piv and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[piv])]
        f = red[enter]
        if f != 0:
            red = [x - f * y for x, y in zip(red, T[piv])]
        basis[piv] = enter
    if red[ncols] != 0:
        return None
    x = [Q(0)] * k
    for i, bv in enumerate(basis):
        if bv < k:
            x[bv] = T[i][ncols]
    return tuple(x)


def conic_member(gens, v):
    """Is v a nonnegative combination of gens? Exact."""
    if is_zero(v):
        return True
    if not gens:
        return False
    A = [[g[i] for g in gens] for i in range(len(v))]
    return lp_feasible_eq(A, list(v)) is not None


def min_norm_point(A, b, quad):
    """Minimize x^T quad x over {x : Ax >= b}; quad symmetric PD.

    Exact active-set enumeration: a candidate passing the KKT sign and
    feasibility checks is the unique global minimizer of this convex
    program, so the first hit is returned. None means the polyhedron is
    empty.
    """
    m = len(A)
    n = len(quad)
    if n > DD_RANK_CAP_DEFAULT + 2:
        raise CapExceeded("projection rank", n, DD_RANK_CAP_DEFAULT + 2)
    for size in range(0, n + 1):
        for S in combinations(range(m), size):
            sub = [A[i] for i in S]
            M = [[2 * quad[i][j] for j in range(n)] + [-sub[s][i] for s in range(size)]
                 for i in range(n)]
            M.extend([list(sub[s]) + [Q(0)] * size for s in range(size)])
            rhs = [Q(0)] * n + [b[i] for i in S]
            sol = solve_unique(M, rhs)
            if sol is None:
                continue
            x, lam = sol[:n], sol[n:]
            if any(l < 0 for l in lam):
                continue
            if all(dot(A[i], x) >= b[i] for i in range(m)):
                return tuple(x)
    return None
