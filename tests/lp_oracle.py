"""Exact reference solvers, for test oracles only.

The package decides feasibility with a fraction-free simplex and projects
with a dual active-set method; tests keep the direct Fraction simplex and
the subset-enumeration projection they replaced, and an LP over free-sign
variables, to check the package against.
"""

from fractions import Fraction as Q
from itertools import combinations

from weylgrowth.rational import dot, solve_unique


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
