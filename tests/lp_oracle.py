"""Exact reference solvers, for test oracles only.

The package decides feasibility with a fraction-free simplex, projects
with a dual active-set method and enumerates rays and vertices by double
description; tests keep the direct Fraction simplex, the subset-enumeration
projection, ray and vertex enumerators they replaced (without a rank cap),
and an LP over free-sign variables, to check the package against.
"""

from fractions import Fraction as Q
from itertools import combinations

from weylgrowth.rational import (dot, is_zero, primitive, rank, solve, solve_unique,
                                 unit, vneg, vzero)


def lp_feasible_eq_fraction(A, b):
    """One x >= 0 with Ax = b, or None. Phase-1 simplex in Fractions, Bland's rule."""
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


def lp_feasible_ineq(A, b):
    """One free-sign v with Av >= b, or None. Exact."""
    m = len(A)
    if m == 0:
        return ()
    n = len(A[0])
    rows = []
    for i in range(m):
        pos = list(A[i])
        neg = [-x for x in A[i]]
        slack = [Q(-1) if j == i else Q(0) for j in range(m)]
        rows.append(pos + neg + slack)
    x = lp_feasible_eq_fraction(rows, list(b))
    if x is None:
        return None
    return tuple(x[j] - x[n + j] for j in range(n))


def min_norm_point_enum(A, b, quad):
    """Minimize x^T quad x over {x : Ax >= b}, or None if empty.

    Tries every active set of size up to n in turn: a candidate passing
    the KKT sign and feasibility checks is the unique minimizer.
    """
    m = len(A)
    n = len(quad)
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


def _row_basis_rows(rows):
    """A maximal linearly independent subset of rows, in order."""
    picked = []
    for r in rows:
        if rank(picked + [list(r)]) == len(picked) + 1:
            picked.append(list(r))
    return [tuple(r) for r in picked]


def _pointed_rays_enum(rows, n):
    # every extreme ray has n-1 independent active constraints
    if n == 1:
        return [c for c in (unit(1, 0), vneg(unit(1, 0)))
                if all(dot(r, c) >= 0 for r in rows)]
    rays = {}
    for S in combinations(range(len(rows)), n - 1):
        _, ker = solve([list(rows[i]) for i in S], vzero(len(S)))
        if len(ker) != 1:
            continue
        u = primitive(ker[0])
        for cand in (u, vneg(u)):
            if all(dot(r, cand) >= 0 for r in rows):
                rays[cand] = None
    return list(rays)


def extreme_rays_enum(halfspaces, n):
    """Generators of {x : h(x) >= 0}: +/- lineality pairs, then the rays
    of the pointed part in the row space, met in the lexicographic order
    of the (d-1)-subsets of rows whose kernel is one line."""
    rows = [h for h in halfspaces if not is_zero(h)]
    if not rows:
        out = []
        for i in range(n):
            out.extend((unit(n, i), vneg(unit(n, i))))
        return out
    _, lineality = solve([list(r) for r in rows], vzero(len(rows)))
    if not lineality:
        return _pointed_rays_enum(rows, n)
    basis = _row_basis_rows(rows)
    reduced = [tuple(dot(r, b) for b in basis) for r in rows]
    out = []
    for d in lineality:
        p = primitive(d)
        out.extend((p, vneg(p)))
    for y in _pointed_rays_enum(reduced, len(basis)):
        x = vzero(n)
        for yi, b in zip(y, basis):
            x = tuple(a + yi * c for a, c in zip(x, b))
        out.append(primitive(x))
    return out


def vertices_enum(A, b):
    """Vertices of {x : A x >= b}, one per n-subset of rows with a unique
    feasible solution, in the lexicographic order of the subsets."""
    if not A:
        return ()
    n = len(A[0])
    out = {}
    for S in combinations(range(len(A)), n):
        x = solve_unique([list(A[i]) for i in S], [b[i] for i in S])
        if x is not None and all(dot(A[i], x) >= b[i] for i in range(len(A))):
            out[x] = None
    return tuple(out)
