"""Exact polyhedral computations over the rationals.

Ray and vertex enumeration work by subset enumeration, which is
exponential in the ambient dimension, so they have a rank cap; the
geometry this package needs lives in rank <= 4. The projection
min_norm_point is an exact dual active-set method and the feasibility
test lp_feasible_eq a fraction-free Bland simplex; neither enumerates
subsets, and the projection keeps a cap of its own two ranks higher. All
vectors are Fraction tuples paired by the plain dot product.
"""

from itertools import combinations
from math import gcd

from .errors import CapExceeded, InternalError
from .rational import (
    Q,
    _cleared,
    _primitive_ints,
    dot,
    is_zero,
    primitive,
    rank as mat_rank,
    solve,
    solve_unique,
    unit,
    vec_add_scaled,
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


def _eliminated(row, top, c):
    """top[c] * row - row[c] * top over their gcd, kept primitive: zero in
    column c, and for top[c] > 0 a positive multiple of the exact
    difference row - (row[c] / top[c]) * top."""
    g = gcd(top[c], row[c])
    a, b = top[c] // g, row[c] // g
    return _primitive_ints([a * x - b * y for x, y in zip(row, top)])


def lp_feasible_eq(A, b):
    """One x >= 0 with Ax = b, or None. Exact phase-1 simplex.

    Bland's rule, so termination is guaranteed. The tableau is kept in
    integers: each row is a positive multiple of its Fraction counterpart
    (the one with a 1 in its basic column), cleared of denominators and
    kept primitive, and the reduced-cost row is a positive multiple too.
    The ratio test and every sign test are invariant under such scaling,
    so the pivots are those of the Fraction tableau.
    """
    m = len(A)
    if m == 0:
        return ()
    k = len(A[0])
    ncols = k + m
    signs = [-1 if bi < 0 else 1 for bi in b]
    T = []
    for i, (ai, bi, s) in enumerate(zip(A, b, signs)):
        L, ints = _cleared([*ai, bi])
        row = [s * x for x in ints[:k]] + [0] * m + [s * ints[k]]
        row[k + i] = L
        T.append(_primitive_ints(row))
    # phase-1 cost: minus the sum of the sign-normalised rows
    red = _primitive_ints(_cleared(
        [-sum(s * ai[j] for ai, s in zip(A, signs)) for j in range(k)]
        + [0] * m + [-sum(abs(bi) for bi in b)])[1])
    basis = list(range(k, ncols))
    while True:
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        ratios = [(Q(T[i][ncols], T[i][enter]), basis[i], i)
                  for i in range(m) if T[i][enter] > 0]
        if not ratios:
            return None
        piv = min(ratios)[2]
        top = T[piv]
        for i in range(m):
            if i != piv and T[i][enter]:
                T[i] = _eliminated(T[i], top, enter)
        red = _eliminated(red, top, enter)
        basis[piv] = enter
    if red[ncols] != 0:
        return None
    x = [Q(0)] * k
    for i, bv in enumerate(basis):
        if bv < k:
            x[bv] = Q(T[i][ncols], T[i][bv])
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

    Exact dual active-set method (Goldfarb & Idnani 1983). It starts at
    the unconstrained minimizer x = 0 and adds the first violated row p.
    With N the active normals, which stay linearly independent, the KKT
    system [[2 quad, N], [N^T, 0]] (z; r) = (a_p; 0) gives the primal
    direction z and the multiplier change r. A full step along z makes p
    tight and active; a smaller blocking ratio lambda_j / r_j (ties by
    position) takes a partial step and drops row j. z = 0 with no
    blocking multiplier proves the polyhedron empty, and None is
    returned. Every full step raises the objective strictly and at most
    one partial step per active row comes between two full steps, so in
    exact arithmetic the method ends, at the unique minimizer.
    """
    m = len(A)
    n = len(quad)
    if n > DD_RANK_CAP_DEFAULT + 2:
        raise CapExceeded("projection rank", n, DD_RANK_CAP_DEFAULT + 2)
    two_quad = [[2 * q for q in row] for row in quad]
    x = vzero(n)
    active, lam = [], []
    while True:
        p = next((i for i in range(m) if dot(A[i], x) < b[i]), None)
        if p is None:
            return x
        a_p, lam_p = A[p], Q(0)
        while True:
            q = len(active)
            M = [row + [A[j][i] for j in active] for i, row in enumerate(two_quad)]
            M.extend([*A[j], *[Q(0)] * q] for j in active)
            sol = solve_unique(M, [*a_p, *[Q(0)] * q])
            if sol is None:
                raise InternalError(f"KKT system with {q} active rows is singular")
            z, r = sol[:n], sol[n:]
            block = min(((lam[j] / r[j], j) for j in range(q) if r[j] > 0), default=None)
            if not is_zero(z):
                t = (b[p] - dot(a_p, x)) / dot(z, a_p)
                if block is None or t <= block[0]:
                    x = vec_add_scaled(x, t, z)
                    lam = [l - t * rj for l, rj in zip(lam, r)] + [lam_p + t]
                    active.append(p)
                    break
            if block is None:
                return None
            t, drop = block
            x = vec_add_scaled(x, t, z)
            lam = [l - t * rj for l, rj in zip(lam, r)]
            lam_p += t
            del active[drop], lam[drop]
