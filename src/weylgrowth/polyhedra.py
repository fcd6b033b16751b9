"""Exact polyhedral computations over the rationals.

Rays of cones and vertices of polyhedra come from one fraction-free
double-description routine (Fukuda & Prodon 1996); no row subset is
enumerated. Its rank cap DD_RANK_CAP_DEFAULT = 8, the only polyhedral cap,
admits e8: by the upper bound theorem each intermediate cone on m rows then
has O(m^4) rays. The dual active-set projection min_norm_point has no cap of
its own, as its inputs have passed this one. lp_feasible_eq is a
fraction-free Bland simplex.
"""

from operator import mul

from .errors import CapExceeded, InternalError
from .rational import (
    Q,
    _cleared,
    _primitive_ints,
    dot,
    is_zero,
    primitive,
    solve,
    solve_unique,
    vec_add_scaled,
    vneg,
    vzero,
)

DD_RANK_CAP_DEFAULT = 8


def _row_basis(rows):
    """Indices of the greedy maximal independent subset of rows: the
    lexicographically first basis among them."""
    echelon = []
    for i, r in enumerate(rows):
        v = _cleared(r)[1]
        for c, top, _ in echelon:
            if v[c]:
                v = _comb(top[c], v, v[c], top)
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            echelon.append((c, v, i))
    return [i for _, _, i in echelon]


def _comb(a, x, b, y):
    """a x - b y, kept primitive. With a = y[c] > 0 and b = x[c] it is zero
    in column c and a positive multiple of x - (x[c] / y[c]) y."""
    return _primitive_ints([a * p - b * q for p, q in zip(x, y)])


def _double_description(rows, n):
    """(rays, lineality) of {x : r . x >= 0 for each integer row r}: primitive
    rays, each with the bitmask of rows it makes tight, generate the cone
    modulo the span of the lineality basis. A row nonzero on the lineality
    space turns one lineality vector into a ray; any other row keeps the rays
    on its nonnegative side and joins each adjacent pair across it, adjacent
    meaning that no third ray is tight wherever both are."""
    lineality = [[int(i == j) for j in range(n)] for i in range(n)]
    rays = []
    for k, h in enumerate(rows):
        bit = 1 << k
        hl = [sum(map(mul, h, x)) for x in lineality]
        if any(hl):
            p = next(i for i, v in enumerate(hl) if v)
            top, s = lineality.pop(p), hl.pop(p)
            if s < 0:
                top, s = [-x for x in top], -s
            lineality = [_comb(s, x, v, top) for x, v in zip(lineality, hl)]
            rays = [(_comb(s, r, sum(map(mul, h, r)), top), m | bit) for r, m in rays]
            rays.append((top, bit - 1))
            continue
        vals = [(r, m, sum(map(mul, h, r))) for r, m in rays]
        neg = [t for t in vals if t[2] < 0]
        need = n - len(lineality) - 2
        rays = [(r, m | bit if v == 0 else m) for r, m, v in vals if v >= 0]
        for rp, mp, vp in vals:
            for rq, mq, vq in neg if vp > 0 else ():
                c = mp & mq
                if c.bit_count() >= need and sum(m & c == c for _, m, _ in vals) == 2:
                    rays.append((_comb(vp, rq, vq, rp), c | bit))
    return rays, lineality


def _by_first_basis(found, rows):
    """The vectors of (vector, tight-row mask) pairs by the first basis of their
    tight rows: the order in which a lexicographic subset enumeration meets them."""
    def key(item):
        tight = [i for i in range(len(rows)) if item[1] >> i & 1]
        return [tight[j] for j in _row_basis([rows[i] for i in tight])]
    return [v for v, _ in sorted(found, key=key)]


def extreme_rays(halfspaces, n):
    """Primitive integer generators of the cone {x : h(x) >= 0 for each h}: a
    +/- pair for each vector of solve's kernel basis, then the extreme rays
    of the cone within the row space, where it is pointed."""
    if n > DD_RANK_CAP_DEFAULT:
        raise CapExceeded("ray enumeration", n, DD_RANK_CAP_DEFAULT, unit="rank")
    rows = list(halfspaces) or [vzero(n)]
    out = []
    for d in solve(rows, vzero(len(rows)))[1]:
        p = primitive(d)
        out.extend((p, vneg(p)))
    # the lineality directions as rows: both signs cut the row space out
    cut = [_cleared(r)[1] for r in rows + out]
    found = [(tuple(map(Q, r)), m) for r, m in _double_description(cut, n)[0]]
    return out + _by_first_basis(found, rows)


def vertices_of_polyhedron(A, b):
    """All vertices of {x : A x >= b}, exact: the rays with t > 0 of the cone
    {(x, t) : A x - b t >= 0, t >= 0}, scaled to t = 1. No vertex means that the
    polyhedron is empty or contains a line; it may be unbounded."""
    if not A:
        return ()
    n = len(A[0])
    if n > DD_RANK_CAP_DEFAULT:
        raise CapExceeded("vertex enumeration", n, DD_RANK_CAP_DEFAULT, unit="rank")
    rows = [_cleared([*a, -bi])[1] for a, bi in zip(A, b)] + [[0] * n + [1]]
    rays, lineality = _double_description(rows, n + 1)
    if lineality:
        return ()
    found = [(tuple(Q(x, r[n]) for x in r[:n]), m) for r, m in rays if r[n] > 0]
    return tuple(_by_first_basis(found, A))


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
                T[i] = _comb(top[enter], T[i], T[i][enter], top)
        red = _comb(top[enter], red, red[enter], top)
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
