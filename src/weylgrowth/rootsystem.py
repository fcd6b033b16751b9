"""Restricted root systems with multiplicities.

Roots are covectors on a ~ Q^rank, stored in coordinates where evaluation
against a vector is the plain dot product.  The inner product on covectors is
x^T G y for a symmetric positive-definite rational Gram matrix G (identity for
every preset stated in standard coordinates); vectors pair through G^-1, and
the identification covector -> vector is mu -> G mu.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction as Q

from .errors import CapExceeded, InputError
from .rational import (
    Mat,
    Vec,
    dot,
    identity,
    inverse,
    is_positive_definite,
    is_zero,
    mat,
    matvec,
    primitive,
    rank as mat_rank,
    solve,
    solve_unique,
    transpose,
    vadd,
    vec,
    vscale,
    vsub,
    vzero,
)

WEYL_CAP_DEFAULT = 2**20


@dataclass
class RootSystem:
    rank: int
    simple_roots: tuple[Vec, ...]
    pos_roots: tuple[tuple[Vec, Q], ...]  # (root, multiplicity), sorted by height
    inner_product: Mat
    label: str = "custom"
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- pairings ---------------------------------------------------------

    @property
    def gram_inv(self) -> Mat:
        if "gram_inv" not in self._cache:
            self._cache["gram_inv"] = inverse(self.inner_product)
        return self._cache["gram_inv"]

    def ip(self, x: Vec, y: Vec):
        """Inner product of two covectors."""
        return dot(x, matvec(self.inner_product, y))

    def ip_vec(self, u: Vec, v: Vec):
        """Inner product of two vectors in a."""
        return dot(u, matvec(self.gram_inv, v))

    def covector_to_vector(self, mu: Vec) -> Vec:
        return matvec(self.inner_product, mu)

    def vector_to_covector(self, v: Vec) -> Vec:
        return matvec(self.gram_inv, v)

    def cartan_pairing(self, x: Vec, alpha: Vec):
        """2<x, alpha> / <alpha, alpha>."""
        return 2 * self.ip(x, alpha) / self.ip(alpha, alpha)

    def reflect(self, x: Vec, alpha: Vec) -> Vec:
        return vsub(x, vscale(self.cartan_pairing(x, alpha), alpha))

    # -- predicates -------------------------------------------------------

    def is_dominant_covector(self, mu: Vec) -> bool:
        return all(self.ip(mu, a) >= 0 for a in self.simple_roots)

    def is_dominant_vector(self, v: Vec) -> bool:
        return all(dot(a, v) >= 0 for a in self.simple_roots)

    def root_set(self) -> frozenset:
        """All roots, positive and negative."""
        if "root_set" not in self._cache:
            pos = [r for r, _ in self.pos_roots]
            self._cache["root_set"] = frozenset(pos) | frozenset(tuple(-x for x in r) for r in pos)
        return self._cache["root_set"]

    def multiplicity(self, root: Vec) -> Q:
        if "mult_map" not in self._cache:
            m = {}
            for r, mr in self.pos_roots:
                m[r] = mr
                m[tuple(-x for x in r)] = mr
            self._cache["mult_map"] = m
        try:
            return self._cache["mult_map"][tuple(root)]
        except KeyError:
            raise InputError(f"{root} is not a root of {self.label}") from None

    def irreducible_components(self) -> list[list[int]]:
        """Indices of simple roots grouped by the orthogonality graph."""
        n = len(self.simple_roots)
        seen, comps = set(), []
        for i in range(n):
            if i in seen:
                continue
            stack, comp = [i], []
            while stack:
                j = stack.pop()
                if j in seen:
                    continue
                seen.add(j)
                comp.append(j)
                stack.extend(k for k in range(n) if k not in seen
                             and self.ip(self.simple_roots[j], self.simple_roots[k]) != 0)
            comps.append(sorted(comp))
        return comps


# -- closure of the positive system ---------------------------------------


def _positive_closure(simple: tuple[Vec, ...], G: Mat) -> list[Vec]:
    """All positive roots from the simple ones, by the root-string criterion."""

    def cartan(b, a):
        c = 2 * dot(b, matvec(G, a)) / dot(a, matvec(G, a))
        if c.denominator != 1:
            raise InputError(f"non-crystallographic pair: 2<{b},{a}>/<{a},{a}> = {c}")
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
                if p - cartan(b, a) > 0:
                    s = vadd(b, a)
                    if s not in roots:
                        roots.add(s)
                        nxt.append(s)
        if not nxt:
            return sorted(roots)
        level = nxt
    raise InputError("positive-root closure did not terminate; input is not a root system")


def _heights(simple: tuple[Vec, ...], roots) -> dict:
    cols = transpose(mat(simple))
    out = {}
    for r in roots:
        c = solve_unique(cols, r)
        if c is None or any(x.denominator != 1 or x < 0 for x in c):
            raise InputError(f"{r} is not a nonnegative integer combination of the simple roots")
        out[r] = sum(int(x) for x in c)
    return out


# -- presets ---------------------------------------------------------------

_SIMPLY_LACED_EDGES = {
    # Bourbaki numbering; nodes are 0-based here.
    "d": lambda n: [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)],
    "e6": lambda _: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
    "e7": lambda _: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
    "e8": lambda _: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)],
}


def _gram_from_edges(n: int, edges) -> Mat:
    g = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Q(2)
    for i, j in edges:
        g[i][j] = g[j][i] = Q(-1)
    return tuple(tuple(row) for row in g)


def _unit(n: int, i: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def _b_type_simple(n: int) -> tuple[Vec, ...]:
    out = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
    out.append(_unit(n, n - 1))
    return tuple(out)


def _preset_data(name: str):
    """Returns (simple_roots, gram, mult_fn, label) for a preset name."""
    s = name.lower().replace(" ", "")
    m = re.fullmatch(r"([a-g])(\d+)", s)
    if m:
        typ, n = m.group(1), int(m.group(2))
        if typ == "a" and n >= 1:
            basis = tuple(_unit(n, i) for i in range(n))
            return basis, _gram_from_edges(n, [(i, i + 1) for i in range(n - 1)]), lambda r: Q(1), s
        if typ == "b" and n >= 1:
            return _b_type_simple(n), identity(n), lambda r: Q(1), s
        if typ == "c" and n >= 2:
            out = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
            out.append(vscale(2, _unit(n, n - 1)))
            return tuple(out), identity(n), lambda r: Q(1), s
        if typ == "d" and n >= 2:
            out = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
            out.append(vadd(_unit(n, n - 2), _unit(n, n - 1)))
            return tuple(out), identity(n), lambda r: Q(1), s
        if typ == "g" and n == 2:
            basis = (_unit(2, 0), _unit(2, 1))
            return basis, mat([[2, -3], [-3, 6]]), lambda r: Q(1), s
        if typ == "f" and n == 4:
            simple = (
                vsub(_unit(4, 1), _unit(4, 2)),
                vsub(_unit(4, 2), _unit(4, 3)),
                _unit(4, 3),
                vec(["1/2", "-1/2", "-1/2", "-1/2"]),
            )
            return simple, identity(4), lambda r: Q(1), s
        if typ == "e" and n in (6, 7, 8):
            basis = tuple(_unit(n, i) for i in range(n))
            return basis, _gram_from_edges(n, _SIMPLY_LACED_EDGES[s](n)), lambda r: Q(1), s
        raise InputError(f"unknown preset {name!r}")

    m = re.fullmatch(r"sl\((\d+),([rch])\)", s)
    if m:
        n, fld = int(m.group(1)), m.group(2)
        if n < 2:
            raise InputError("sl(n,.) needs n >= 2")
        mult = {"r": Q(1), "c": Q(2), "h": Q(4)}[fld]
        r = n - 1
        basis = tuple(_unit(r, i) for i in range(r))
        return basis, _gram_from_edges(r, [(i, i + 1) for i in range(r - 1)]), lambda _: mult, s

    m = re.fullmatch(r"so\((\d+),(\d+)\)", s)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if not 1 <= p <= q or (p, q) == (1, 1):
            raise InputError("so(p,q) needs 1 <= p <= q and (p,q) != (1,1)")
        if p == q:
            if p < 2:
                raise InputError("so(p,p) needs p >= 2")
            simple, gram, _, _ = _preset_data(f"d{p}")
            return simple, gram, lambda r: Q(1), s
        # type B_p; short roots +-e_i carry multiplicity q - p
        def mult_fn(r, G=identity(p), short=Q(q - p)):
            return short if dot(r, matvec(G, r)) == 1 else Q(1)
        return _b_type_simple(p), identity(p), mult_fn, s

    raise InputError(f"unknown preset {name!r}")


KNOWN_PRESET_SHAPES = ("a<n>", "b<n>", "c<n>", "d<n>", "g2", "f4", "e6", "e7", "e8",
                       "sl(<n>,R|C|H)", "so(<p>,<q>)")


# -- construction ----------------------------------------------------------


def build_root_system(spec) -> RootSystem:
    """Build from a preset name or a custom dict (parsed JSON).

    Custom dicts: {"simple_roots": [[...]], "multiplicities": [{"root": [...],
    "m": k}, ...], "inner_product": optional matrix}.  Rational entries may be
    given as "p/q" strings.
    """
    if isinstance(spec, str):
        simple, gram, mult_fn, label = _preset_data(spec)
        pos = _positive_closure(simple, gram)
        pairs = {r: mult_fn(r) for r in pos}
        return _finish(simple, gram, pairs, label)
    if isinstance(spec, dict):
        if "preset" in spec:
            return build_root_system(spec["preset"])
        if "simple_roots" not in spec:
            raise InputError("custom root system needs 'simple_roots'")
        simple = tuple(vec(r) for r in spec["simple_roots"])
        n = len(simple)
        if any(len(r) != n for r in simple):
            raise InputError("need rank-many simple roots of length rank")
        gram = mat(spec["inner_product"]) if spec.get("inner_product") else identity(n)
        if not is_positive_definite(gram):
            raise InputError("inner_product must be symmetric positive definite")
        pos = _positive_closure(simple, gram)
        pairs = _custom_multiplicities(simple, gram, pos, spec.get("multiplicities"))
        return _finish(simple, gram, pairs, "custom")
    raise InputError(f"cannot build a root system from {type(spec).__name__}")


def _custom_multiplicities(simple, gram, pos, entries):
    if not entries:
        return {r: Q(1) for r in pos}
    posset = set(pos)
    assigned: dict[Vec, Q] = {}
    extra: dict[Vec, Q] = {}  # non-reduced 2*alpha entries, kept as data
    for e in entries:
        r, mval = vec(e["root"]), Q(str(e["m"]))
        if mval <= 0:
            raise InputError("multiplicities must be positive")
        if r in posset:
            target = assigned
        elif vscale(Q(1, 2), r) in posset:
            target = extra
        else:
            raise InputError(f"{r} is neither a positive root nor twice one")
        if target.get(r, mval) != mval:
            raise InputError(f"conflicting multiplicities for {r}")
        target[r] = mval

    # propagate over W-orbits through simple reflections
    def propagate(table, universe):
        changed = True
        while changed:
            changed = False
            for r in list(table):
                for a in simple:
                    c = 2 * dot(r, matvec(gram, a)) / dot(a, matvec(gram, a))
                    img = vsub(r, vscale(c, a))
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
        raise InputError(f"multiplicity missing for roots {sorted(missing)}")
    if extra:
        doubled = {vscale(2, r) for r in posset}
        propagate(extra, doubled)
    assigned.update(extra)
    return assigned


def _finish(simple, gram, pairs, label) -> RootSystem:
    n = len(simple)
    if mat_rank(simple) != n:
        raise InputError("simple roots are not linearly independent")
    for i in range(n):
        for j in range(i + 1, n):
            g = dot(simple[i], matvec(gram, simple[j]))
            if g > 0:
                raise InputError(f"simple roots {i},{j} have positive inner product {g}")
    reduced = [r for r in pairs if vscale(Q(1, 2), r) not in pairs]
    hts = _heights(simple, reduced)
    for r in pairs:
        if r not in hts:
            hts[r] = 2 * hts[vscale(Q(1, 2), r)]
    ordered = tuple(sorted(pairs.items(), key=lambda kv: (hts[kv[0]], kv[0])))
    R = RootSystem(rank=n, simple_roots=tuple(simple), pos_roots=ordered,
                   inner_product=gram, label=label)
    _validate_w_invariance(R)
    return R


def _validate_w_invariance(R: RootSystem):
    from .rational import matmul
    for a in R.simple_roots:
        for r, m in R.pos_roots:
            img = R.reflect(r, a)
            if R.multiplicity(img) != m:
                raise InputError("multiplicity map is not W-invariant")
        s = reflection_matrix(R, a)
        if matmul(transpose(s), matmul(R.inner_product, s)) != R.inner_product:
            raise InputError("inner product is not W-invariant")


# -- derived data ----------------------------------------------------------


def rho(R: RootSystem) -> Vec:
    """Half sum of positive roots with multiplicities."""
    acc = vzero(R.rank)
    for r, m in R.pos_roots:
        acc = vadd(acc, vscale(m, r))
    return vscale(Q(1, 2), acc)


def fundamental_weights(R: RootSystem) -> tuple[Vec, ...]:
    if "weights" in R._cache:
        return R._cache["weights"]
    rows = mat([matvec(R.inner_product, b) for b in R.simple_roots])
    inv = inverse(rows)
    cols = transpose(inv)
    out = []
    for i, b in enumerate(R.simple_roots):
        out.append(vscale(R.ip(b, b) / 2, cols[i]))
    R._cache["weights"] = tuple(out)
    return R._cache["weights"]


def reflection_matrix(R: RootSystem, alpha: Vec) -> Mat:
    """Matrix of s_alpha on covector coordinates."""
    aa = R.ip(alpha, alpha)
    ga = matvec(R.inner_product, alpha)
    n = R.rank
    return tuple(tuple((Q(1) if i == j else Q(0)) - 2 * alpha[i] * ga[j] / aa
                       for j in range(n)) for i in range(n))


def weyl_group(R: RootSystem, cap: int = WEYL_CAP_DEFAULT) -> tuple[Mat, ...]:
    """Every element of W as a matrix on covector coordinates."""
    key = ("weyl", cap)
    if key in R._cache:
        return R._cache[key]
    from .rational import matmul
    gens = [reflection_matrix(R, a) for a in R.simple_roots]
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
                    if len(known) > cap:
                        raise CapExceeded("Weyl group enumeration", f"> {cap}", cap)
        frontier = nxt
    out = tuple(sorted(known))
    R._cache[key] = out
    return out


def vector_action(R: RootSystem, w: Mat) -> Mat:
    """Matrix of w on vector coordinates, given its covector matrix."""
    from .rational import matmul
    return matmul(R.inner_product, matmul(w, R.gram_inv))


def dominant_representative(R: RootSystem, lam: Vec) -> tuple[Vec, Mat]:
    """(lam+, w) with w lam = lam+ dominant; repeated reflections at negative walls."""
    from .rational import matmul
    x = vec(lam)
    w = identity(R.rank)
    guard = 10 * len(R.pos_roots) + 10
    for _ in range(guard):
        a = next((a for a in R.simple_roots if R.ip(x, a) < 0), None)
        if a is None:
            return x, w
        x = R.reflect(x, a)
        w = matmul(reflection_matrix(R, a), w)
    raise RuntimeError("dominant descent failed to terminate")


def opposition_involution(R: RootSystem) -> Mat:
    """iota = -w0 as a matrix on covector coordinates."""
    if "iota" in R._cache:
        return R._cache["iota"]
    from .rational import matmul
    lam = vzero(R.rank)
    for wvec in fundamental_weights(R):
        lam = vadd(lam, wvec)
    x = lam
    w = identity(R.rank)
    guard = 10 * len(R.pos_roots) + 10
    for _ in range(guard):
        a = next((a for a in R.simple_roots if R.ip(x, a) > 0), None)
        if a is None:
            break  # x is antidominant, so w is the longest element
        x = R.reflect(x, a)
        w = matmul(reflection_matrix(R, a), w)
    else:
        raise RuntimeError("antidominant descent failed to terminate")
    pos = {r for r, _ in R.pos_roots}
    if {matvec(w, r) for r in pos} != {tuple(-c for c in r) for r in pos}:
        raise RuntimeError("longest element search failed: w0(pos) != -pos")
    iota = tuple(tuple(-c for c in row) for row in w)
    R._cache["iota"] = iota
    return iota


def iota_permutation(R: RootSystem) -> dict[int, int]:
    """The permutation of simple-root indices induced by the opposition involution."""
    iota = opposition_involution(R)
    out = {}
    for i, a in enumerate(R.simple_roots):
        img = matvec(iota, a)
        js = [j for j, b in enumerate(R.simple_roots) if b == img]
        if len(js) != 1:
            raise RuntimeError("opposition involution does not permute the simple roots")
        out[i] = js[0]
    return out


def apply_iota(R: RootSystem, x: Vec) -> Vec:
    return matvec(opposition_involution(R), x)


# -- strongly orthogonal cascade ------------------------------------------


def strongly_orthogonal_theta(R: RootSystem) -> tuple[tuple[Vec, ...], Vec]:
    """Cascade: take the highest root, keep only roots strongly orthogonal to
    every selected one, repeat.  Theta is half the sum of the selection (no
    multiplicities).  Reducible systems are handled factor by factor."""
    allroots = R.root_set()

    def strongly_orthogonal(b, g):
        return (R.ip(b, g) == 0 and vadd(b, g) not in allroots
                and vsub(b, g) not in allroots)

    remaining = [r for r, _ in R.pos_roots]
    selected = []
    while remaining:
        rem = set(remaining)
        # indecomposables of the current subsystem are its simple roots
        simp = [b for b in remaining if not any(g != b and vsub(b, g) in rem for g in remaining)]
        cols = transpose(mat(simp))

        def sub_height(r, cols=cols):
            c, _ = solve(cols, r)
            return sum(c)

        best = max(remaining, key=lambda r: (sub_height(r), r))
        selected.append(best)
        remaining = [b for b in remaining if strongly_orthogonal(b, best)]

    theta = vzero(R.rank)
    for r in selected:
        theta = vadd(theta, r)
    return tuple(selected), vscale(Q(1, 2), theta)


# -- serialization ---------------------------------------------------------


def _num_to_json(x: Q):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec_to_json(v) -> list:
    return [_num_to_json(x) for x in v]


def vec_from_json(entries, rank: int, what: str) -> Vec:
    """An exact vector from a list of rank JSON numbers or 'p/q' strings.

    InputError, naming the input as what, for any other shape or entry.
    """
    if not isinstance(entries, (list, tuple)) or len(entries) != rank:
        raise InputError(f"{what} needs {rank} entries")
    try:
        return vec(entries)
    except (TypeError, ValueError, ZeroDivisionError) as ex:
        raise InputError(f"{what} has a non-rational entry") from ex


def root_system_to_json(R: RootSystem) -> dict:
    return {
        "label": R.label,
        "rank": R.rank,
        "simple_roots": [vec_to_json(r) for r in R.simple_roots],
        "pos_roots": [{"root": vec_to_json(r), "m": _num_to_json(m)} for r, m in R.pos_roots],
        "multiplicities": [{"root": vec_to_json(r), "m": _num_to_json(m)} for r, m in R.pos_roots],
        "inner_product": [vec_to_json(row) for row in R.inner_product],
    }


def root_system_from_json(obj) -> RootSystem:
    if isinstance(obj, str):
        return build_root_system(obj)
    if not isinstance(obj, dict):
        raise InputError("root-system JSON must be an object or preset string")
    return build_root_system(obj)
