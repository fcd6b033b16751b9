"""Fraction reference for the integer core of weylgrowth.rootsystem.

The package builds root systems, Weyl-group elements and -w0 in integer
simple-root coordinates over one Cartan matrix; tests keep the ambient
Fraction paths it replaced: the root-string closure on Fraction vectors,
one solve_unique per root for the heights, the W-invariance check by
reflecting Fraction vectors and by s^T G s = G, the cascade with one solve
per root, W by a breadth-first search over simple-reflection matrices on
covector coordinates, w0 and each dominant_representative element as the
product of those matrices along the dominant descent, sigma by applying
iota to each simple root and searching, iota on vectors as G iota G^-1,
rho by summing the ambient roots one at a time, the fundamental weights
by inverting the rows G a_j, and the wall directions and invariant
classes from those weights and that sigma.  Input validation runs in the package's order
(independence and pairings before the closure), and vectors in messages
are printed with vec_to_json.
"""

from fractions import Fraction as Q

from weylgrowth.errors import InputError, InternalError
from weylgrowth.rational import (dot, identity, inverse, is_positive_definite, mat,
                                 matmul, matvec, primitive, rank as mat_rank, solve,
                                 solve_unique, transpose, vadd, vec_add_scaled,
                                 vscale, vsub, vzero)
from weylgrowth.rootsystem import (_preset_data, dominant_descent, json_rows,
                                   vec_from_json, vec_to_json)


def _ip(G, x, y):
    return dot(x, matvec(G, y))


def _reflect(G, x, a):
    return vsub(x, vscale(2 * _ip(G, x, a) / _ip(G, a, a), a))


def cartan(simple, G):
    """A[i][j] = 2<a_i, a_j>/<a_j, a_j> in Fractions."""
    return tuple(tuple(2 * _ip(G, b, a) / _ip(G, a, a) for a in simple) for b in simple)


def _check_simple(simple, G):
    n = len(simple)
    if mat_rank(simple) != n:
        raise InputError("simple roots are not linearly independent")
    for i in range(n):
        for j in range(i + 1, n):
            g = _ip(G, simple[i], simple[j])
            if g > 0:
                raise InputError(f"simple roots {i},{j} have positive inner product {g}")


def positive_closure(simple, G):
    """All positive roots as ambient Fraction vectors, by the root-string criterion."""

    def pairing(b, a):
        c = 2 * _ip(G, b, a) / _ip(G, a, a)
        if c.denominator != 1:
            raise InputError(f"non-crystallographic pair: 2<{vec_to_json(b)},{vec_to_json(a)}>"
                             f"/<{vec_to_json(a)},{vec_to_json(a)}> = {c}")
        return int(c)

    roots = set(simple)
    level = list(simple)
    for _ in range(1000):
        nxt = []
        for b in level:
            for a in simple:
                p = 0
                g = vsub(b, a)
                while g in roots:
                    p += 1
                    g = vsub(g, a)
                if p - pairing(b, a) > 0:
                    s = vadd(b, a)
                    if s not in roots:
                        roots.add(s)
                        nxt.append(s)
        if not nxt:
            return sorted(roots)
        level = nxt
    raise InputError("positive-root closure did not terminate; input is not a root system")


def heights(simple, roots):
    """{root: height}, one solve_unique per reduced root; 2*alpha gets twice alpha's."""
    cols = transpose(mat(simple))
    out = {}
    reduced = [r for r in roots if vscale(Q(1, 2), r) not in roots]
    for r in reduced:
        c = solve_unique(cols, r)
        if c is None or any(x.denominator != 1 or x < 0 for x in c):
            raise InputError(f"{vec_to_json(r)} is not a nonnegative integer combination "
                             "of the simple roots")
        out[r] = sum(int(x) for x in c)
    for r in roots:
        if r not in out:
            out[r] = 2 * out[vscale(Q(1, 2), r)]
    return out


def _custom_multiplicities(simple, G, pos, entries):
    if not entries:
        return {r: Q(1) for r in pos}
    if not isinstance(entries, list):
        raise InputError("multiplicities must be a list")
    posset = set(pos)
    assigned, extra = {}, {}
    for e in entries:
        if not isinstance(e, dict) or "root" not in e or "m" not in e:
            raise InputError(f"multiplicity entry {e!r} needs 'root' and 'm'")
        r = vec_from_json(e["root"], len(simple), f"multiplicity root {e['root']!r}")
        (mval,) = vec_from_json([e["m"]], 1, f"multiplicity {e['m']!r}")
        if mval <= 0:
            raise InputError("multiplicities must be positive")
        if r in posset:
            target = assigned
        elif vscale(Q(1, 2), r) in posset:
            target = extra
        else:
            raise InputError(f"{vec_to_json(r)} is neither a positive root nor twice one")
        if target.get(r, mval) != mval:
            raise InputError(f"conflicting multiplicities for {vec_to_json(r)}")
        target[r] = mval

    def propagate(table, universe):
        changed = True
        while changed:
            changed = False
            for r in list(table):
                for a in simple:
                    img = _reflect(G, r, a)
                    pimg = img if img in universe else tuple(-x for x in img)
                    if pimg not in universe:
                        continue
                    if pimg in table:
                        if table[pimg] != table[r]:
                            raise InputError("multiplicity map is not W-invariant")
                    else:
                        table[pimg] = table[r]
                        changed = True

    propagate(assigned, posset)
    missing = posset - set(assigned)
    if missing:
        raise InputError(f"multiplicity missing for roots "
                         f"{[vec_to_json(r) for r in sorted(missing)]}")
    if extra:
        propagate(extra, {vscale(2, r) for r in posset})
    assigned.update(extra)
    return assigned


def _validate_w_invariance(simple, G, ordered, label):
    mult = {}
    for r, m in ordered:
        mult[r] = mult[tuple(-x for x in r)] = m
    n = len(simple)
    for a in simple:
        for r, m in ordered:
            img = _reflect(G, r, a)
            if img not in mult:
                raise InputError(f"{vec_to_json(img)} is not a root of {label}")
            if mult[img] != m:
                raise InputError("multiplicity map is not W-invariant")
        aa = _ip(G, a, a)
        ga = matvec(G, a)
        s = tuple(tuple((Q(1) if i == j else Q(0)) - 2 * a[i] * ga[j] / aa
                        for j in range(n)) for i in range(n))
        if matmul(transpose(s), matmul(G, s)) != G:
            raise InputError("inner product is not W-invariant")


def build(spec):
    """(simple, G, pos_roots, heights, label) as the Fraction build computes them."""
    if isinstance(spec, str):
        simple, G, mult_fn, label = _preset_data(spec)
        _check_simple(simple, G)
        cols = transpose(mat(simple))
        pairs = {r: mult_fn(tuple(map(int, solve_unique(cols, r))))
                 for r in positive_closure(simple, G)}
    else:
        if "preset" in spec:
            return build(spec["preset"])
        if "simple_roots" not in spec:
            raise InputError("custom root system needs 'simple_roots'")
        n = json_rows(spec["simple_roots"], "simple_roots")
        simple = tuple(vec_from_json(r, n, f"simple root {r!r}") for r in spec["simple_roots"])
        G = identity(n)
        if spec.get("inner_product"):
            json_rows(spec["inner_product"], "inner_product")
            G = tuple(vec_from_json(r, n, f"inner_product row {r!r}")
                      for r in spec["inner_product"])
        if not is_positive_definite(G):
            raise InputError("inner_product must be symmetric positive definite")
        _check_simple(simple, G)
        pos = positive_closure(simple, G)
        pairs = _custom_multiplicities(simple, G, pos, spec.get("multiplicities"))
        label = "custom"
    hts = heights(simple, pairs)
    ordered = tuple(sorted(pairs.items(), key=lambda kv: (hts[kv[0]], kv[0])))
    _validate_w_invariance(simple, G, ordered, label)
    return simple, G, ordered, hts, label


def rho(R):
    """Half sum of positive roots with multiplicities, one root at a time."""
    acc = vzero(R.rank)
    for r, m in R.pos_roots:
        acc = vadd(acc, vscale(m, r))
    return vscale(Q(1, 2), acc)


def fundamental_weights(R):
    """w_i = (<a_i, a_i>/2) c_i for c_i column i of the inverse of the rows G a_j."""
    cols = transpose(inverse([matvec(R.inner_product, b) for b in R.simple_roots]))
    return tuple(vscale(_ip(R.inner_product, b, b) / 2, c)
                 for b, c in zip(R.simple_roots, cols))


def gram_images(R):
    """(G a_i, G w_i) for the simple roots and the fundamental weights above."""
    G = R.inner_product
    return (tuple(matvec(G, a) for a in R.simple_roots),
            tuple(matvec(G, w) for w in fundamental_weights(R)))


def root_set(R):
    """All roots, positive and negative."""
    pos = [r for r, _ in R.pos_roots]
    return frozenset(pos) | frozenset(tuple(-x for x in r) for r in pos)


def subsystem_heights(roots):
    """{root: height} in the subsystem with positive roots roots, one solve per
    root over its indecomposables, its simple roots."""
    rem = set(roots)
    simp = [b for b in roots if not any(g != b and vsub(b, g) in rem for g in roots)]
    cols = transpose(mat(simp))
    return {r: sum(solve(cols, r)[0]) for r in roots}


def strongly_orthogonal(R, b, g, allroots):
    return R.ip(b, g) == 0 and vadd(b, g) not in allroots and vsub(b, g) not in allroots


def theta(R):
    """(selected, Theta) by the cascade with one solve per root for sub-heights."""
    allroots = root_set(R)
    remaining = [r for r, _ in R.pos_roots]
    selected = []
    while remaining:
        ht = subsystem_heights(remaining)
        best = max(remaining, key=lambda r: (ht[r], r))
        selected.append(best)
        remaining = [b for b in remaining if strongly_orthogonal(R, b, best, allroots)]
    t = vzero(R.rank)
    for r in selected:
        t = vadd(t, r)
    return tuple(selected), vscale(Q(1, 2), t)


def iota(R):
    """-w0 on covector coordinates, w0 the group element of the dominant
    descent of -(sum of the fundamental weights)."""
    lam = vzero(R.rank)
    for w in fundamental_weights(R):
        lam = vsub(lam, w)
    _, w = dominant_representative(R, lam)
    pos = {r for r, _ in R.pos_roots}
    if {matvec(w, r) for r in pos} != {tuple(-c for c in r) for r in pos}:
        raise InternalError("longest element search failed: w0(pos) != -pos")
    return tuple(tuple(-c for c in row) for row in w)


def reflection_matrix(R, alpha):
    """Matrix of s_alpha on covector coordinates."""
    aa = R.ip(alpha, alpha)
    ga = matvec(R.inner_product, alpha)
    n = R.rank
    return tuple(tuple((Q(1) if i == j else Q(0)) - 2 * alpha[i] * ga[j] / aa
                       for j in range(n)) for i in range(n))


def simple_reflections(R):
    return tuple(reflection_matrix(R, a) for a in R.simple_roots)


def weyl_group(R):
    """Every element of W as a matrix on covector coordinates, sorted."""
    gens = simple_reflections(R)
    ident = identity(R.rank)
    known = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = matmul(g, w)
                if wg not in known:
                    known.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return tuple(sorted(known))


def dominant_representative(R, lam):
    """(lam+, w): the descent's word multiplied out in reflection matrices."""
    x, word = dominant_descent(R, lam)
    w = identity(R.rank)
    gens = simple_reflections(R)
    for i in word:
        w = matmul(gens[i], w)
    return x, w


def iota_permutation(R):
    """{i: j} with iota(a_i) = a_j, by applying iota and searching."""
    io = iota(R)
    out = {}
    for i, a in enumerate(R.simple_roots):
        img = matvec(io, a)
        js = [j for j, b in enumerate(R.simple_roots) if b == img]
        if len(js) != 1:
            raise InternalError("opposition involution does not permute the simple roots")
        out[i] = js[0]
    return out


def vector_action(R, w):
    """Matrix of w on vector coordinates, given its covector matrix."""
    return matmul(R.inner_product, matmul(w, R.gram_inv))


def iota_vector_matrix(R):
    return vector_action(R, iota(R))


def wall_directions(R):
    """w_i + iota(w_i) = w_i + w_sigma(i) per simple root."""
    ws, perm = fundamental_weights(R), iota_permutation(R)
    return tuple(vec_add_scaled(ws[i], Q(1), ws[perm[i]]) for i in range(R.rank))


def dominant_iota_classes(R):
    """Primitive sums w + iota(w), one per orbit, the smaller index first."""
    perm = iota_permutation(R)
    ws = fundamental_weights(R)
    out = []
    seen = set()
    for i, j in sorted(perm.items()):
        if i in seen:
            continue
        seen.update({i, j})
        out.append(primitive(vec_add_scaled(ws[i], Q(1), ws[j])))
    return tuple(out)
