"""Restricted root systems with multiplicities.

Roots are covectors on a ~ Q^rank, stored in coordinates where evaluation
against a vector is the plain dot product.  The inner product on covectors is
x^T G y for a symmetric positive-definite rational Gram matrix G (identity for
every preset stated in standard coordinates); vectors pair through G^-1, and
the identification covector -> vector is mu -> G mu.
"""

from __future__ import annotations

import functools
import inspect
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from types import MappingProxyType

from .errors import CapExceeded, InputError, InternalError
from .rational import (
    Mat,
    Vec,
    cleared_rows,
    dot,
    identity,
    inverse,
    is_positive_definite,
    lincomb,
    mat,
    matmul,
    matvec,
    rank as mat_rank,
    solve,
    solve_unique,
    transpose,
    unit,
    vadd,
    vec,
    vscale,
    vsub,
    vzero,
)

WEYL_CAP_DEFAULT = 2**20


def memo(name):
    """Memoise fn(obj, *args, **kw) in obj._cache, the one cache mechanism.

    The key is name for a function of obj alone, else (name, *the other
    arguments bound to fn's signature with defaults applied), so f(G) and
    f(G, modified=True) share one entry.  Cached values are immutable
    derived data shared by every caller; a call that raises caches nothing.
    """
    def decorate(fn):
        sig = inspect.signature(fn)
        bare = len(sig.parameters) == 1

        @functools.wraps(fn)
        def cached(obj, *args, **kw):
            key = name
            if args or kw or not bare:
                bound = sig.bind(obj, *args, **kw)
                bound.apply_defaults()
                key = (name, *tuple(bound.arguments.values())[1:])
            if key not in obj._cache:
                obj._cache[key] = fn(obj, *args, **kw)
            return obj._cache[key]
        return cached
    return decorate


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
    @memo("gram_inv")
    def gram_inv(self) -> Mat:
        return inverse(self.inner_product)

    def ip(self, x: Vec, y: Vec):
        """Inner product of two covectors."""
        return dot(x, matvec(self.inner_product, y))

    def ip_vec(self, u: Vec, v: Vec):
        """Inner product of two vectors in a."""
        return dot(u, matvec(self.gram_inv, v))

    def covector_to_vector(self, mu: Vec) -> Vec:
        return matvec(self.inner_product, mu)

    def cartan_pairing(self, x: Vec, alpha: Vec):
        """2<x, alpha> / <alpha, alpha>."""
        return 2 * self.ip(x, alpha) / self.ip(alpha, alpha)

    def reflect(self, x: Vec, alpha: Vec) -> Vec:
        return vsub(x, vscale(self.cartan_pairing(x, alpha), alpha))

    # -- predicates -------------------------------------------------------

    def is_dominant_covector(self, mu: Vec) -> bool:
        return all(dot(mu, ga) >= 0 for ga in gram_images(self)[0])

    @memo("root_set")
    def root_set(self) -> frozenset:
        """All roots, positive and negative."""
        pos = [r for r, _ in self.pos_roots]
        return frozenset(pos) | frozenset(tuple(-x for x in r) for r in pos)

    @memo("mult_map")
    def _mult_map(self) -> dict:
        m = {}
        for r, mr in self.pos_roots:
            m[r] = mr
            m[tuple(-x for x in r)] = mr
        return m

    def multiplicity(self, root: Vec) -> Q:
        try:
            return self._mult_map()[tuple(root)]
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


def _b_type_simple(n: int) -> tuple[Vec, ...]:
    out = [vsub(unit(n, i), unit(n, i + 1)) for i in range(n - 1)]
    out.append(unit(n, n - 1))
    return tuple(out)


def _preset_data(name: str):
    """Returns (simple_roots, gram, mult_fn, label) for a preset name."""
    s = name.lower().replace(" ", "")
    m = re.fullmatch(r"([a-g])(\d+)", s)
    if m:
        typ, n = m.group(1), int(m.group(2))
        if typ == "a" and n >= 1:
            basis = tuple(unit(n, i) for i in range(n))
            return basis, _gram_from_edges(n, [(i, i + 1) for i in range(n - 1)]), lambda r: Q(1), s
        if typ == "b" and n >= 1:
            return _b_type_simple(n), identity(n), lambda r: Q(1), s
        if typ == "c" and n >= 2:
            out = [vsub(unit(n, i), unit(n, i + 1)) for i in range(n - 1)]
            out.append(vscale(2, unit(n, n - 1)))
            return tuple(out), identity(n), lambda r: Q(1), s
        if typ == "d" and n >= 2:
            out = [vsub(unit(n, i), unit(n, i + 1)) for i in range(n - 1)]
            out.append(vadd(unit(n, n - 2), unit(n, n - 1)))
            return tuple(out), identity(n), lambda r: Q(1), s
        if typ == "g" and n == 2:
            basis = (unit(2, 0), unit(2, 1))
            return basis, mat([[2, -3], [-3, 6]]), lambda r: Q(1), s
        if typ == "f" and n == 4:
            simple = (
                vsub(unit(4, 1), unit(4, 2)),
                vsub(unit(4, 2), unit(4, 3)),
                unit(4, 3),
                vec(["1/2", "-1/2", "-1/2", "-1/2"]),
            )
            return simple, identity(4), lambda r: Q(1), s
        if typ == "e" and n in (6, 7, 8):
            basis = tuple(unit(n, i) for i in range(n))
            return basis, _gram_from_edges(n, _SIMPLY_LACED_EDGES[s](n)), lambda r: Q(1), s
        raise InputError(f"unknown preset {name!r}")

    m = re.fullmatch(r"sl\((\d+),([rch])\)", s)
    if m:
        n, fld = int(m.group(1)), m.group(2)
        if n < 2:
            raise InputError("sl(n,.) needs n >= 2")
        mult = {"r": Q(1), "c": Q(2), "h": Q(4)}[fld]
        r = n - 1
        basis = tuple(unit(r, i) for i in range(r))
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


# -- construction ----------------------------------------------------------


def build_root_system(spec) -> RootSystem:
    """Build from a preset name or a custom dict (parsed JSON).

    Custom dicts: {"simple_roots": [[...]], "multiplicities": [{"root": [...],
    "m": k}, ...], "inner_product": optional matrix}.  Rational entries may be
    given as "p/q" strings.  Anything else, or a malformed custom dict,
    raises InputError.
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
        n = json_rows(spec["simple_roots"], "simple_roots")
        simple = tuple(vec_from_json(r, n, f"simple root {r!r}")
                       for r in spec["simple_roots"])
        gram = identity(n)
        if spec.get("inner_product"):
            json_rows(spec["inner_product"], "inner_product")
            gram = tuple(vec_from_json(r, n, f"inner_product row {r!r}")
                         for r in spec["inner_product"])
        if not is_positive_definite(gram):
            raise InputError("inner_product must be symmetric positive definite")
        pos = _positive_closure(simple, gram)
        pairs = _custom_multiplicities(simple, gram, pos, spec.get("multiplicities"))
        return _finish(simple, gram, pairs, "custom")
    raise InputError(f"cannot build a root system from {type(spec).__name__}")


def json_rows(rows, what) -> int:
    """The row count of a JSON list of lists; InputError for any other shape."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a list of vectors")
    return len(rows)


def _custom_multiplicities(simple, gram, pos, entries):
    if not entries:
        return {r: Q(1) for r in pos}
    if not isinstance(entries, list):
        raise InputError("multiplicities must be a list")
    posset = set(pos)
    assigned: dict[Vec, Q] = {}
    extra: dict[Vec, Q] = {}  # non-reduced 2*alpha entries, kept as data
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
    for a in R.simple_roots:
        for r, m in R.pos_roots:
            img = R.reflect(r, a)
            if R.multiplicity(img) != m:
                raise InputError("multiplicity map is not W-invariant")
        s = reflection_matrix(R, a)
        if matmul(transpose(s), matmul(R.inner_product, s)) != R.inner_product:
            raise InputError("inner product is not W-invariant")


# -- derived data ----------------------------------------------------------


@memo("rho")
def rho(R: RootSystem) -> Vec:
    """Half sum of positive roots with multiplicities."""
    acc = vzero(R.rank)
    for r, m in R.pos_roots:
        acc = vadd(acc, vscale(m, r))
    return vscale(Q(1, 2), acc)


@memo("fundamental_weights")
def fundamental_weights(R: RootSystem) -> tuple[Vec, ...]:
    rows = mat([matvec(R.inner_product, b) for b in R.simple_roots])
    inv = inverse(rows)
    cols = transpose(inv)
    out = []
    for i, b in enumerate(R.simple_roots):
        out.append(vscale(R.ip(b, b) / 2, cols[i]))
    return tuple(out)


@memo("gram_images")
def gram_images(R: RootSystem) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(G a_i, G w_i) for the simple roots a_i and fundamental weights w_i.

    <mu, a_i> = dot(mu, G a_i), so a pairing against one of them is a single
    dot instead of the matvec that R.ip runs on every call.
    """
    G = R.inner_product
    return (tuple(matvec(G, a) for a in R.simple_roots),
            tuple(matvec(G, w) for w in fundamental_weights(R)))


def reflection_matrix(R: RootSystem, alpha: Vec) -> Mat:
    """Matrix of s_alpha on covector coordinates."""
    aa = R.ip(alpha, alpha)
    ga = matvec(R.inner_product, alpha)
    n = R.rank
    return tuple(tuple((Q(1) if i == j else Q(0)) - 2 * alpha[i] * ga[j] / aa
                       for j in range(n)) for i in range(n))


@memo("simple_reflections")
def simple_reflections(R: RootSystem) -> tuple[Mat, ...]:
    return tuple(reflection_matrix(R, a) for a in R.simple_roots)


@memo("weyl_group")
def weyl_group(R: RootSystem, cap: int = WEYL_CAP_DEFAULT) -> tuple[Mat, ...]:
    """Every element of W as a matrix on covector coordinates."""
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
                    if len(known) > cap:
                        raise CapExceeded("Weyl group enumeration", f"> {cap}", cap)
        frontier = nxt
    return tuple(sorted(known))


def vector_action(R: RootSystem, w: Mat) -> Mat:
    """Matrix of w on vector coordinates, given its covector matrix."""
    return matmul(R.inner_product, matmul(w, R.gram_inv))


@memo("descent_data")
def _descent_data(R: RootSystem) -> tuple:
    """(C, 2/<a_i, a_i>) for the Cartan matrix C[i][j] = 2<a_i, a_j>/<a_i, a_i>.

    The entries of C are integers (the positive closure rejects any other
    pair), and s_i moves the simple-root pairings of a covector x by
    <s_i x, a_j> = <x, a_j> - <x, a_i> C[i][j].
    """
    gas = gram_images(R)[0]
    scales = tuple(2 / dot(a, ga) for a, ga in zip(R.simple_roots, gas))
    C = tuple(tuple(int(s * dot(b, ga)) for b in R.simple_roots)
              for s, ga in zip(scales, gas))
    return C, scales


def dominant_descent(R: RootSystem, lam: Vec) -> tuple[Vec, tuple[int, ...]]:
    """(lam+, word): reflecting lam at the simple roots of word, in order,
    gives the dominant lam+.

    Each step reflects at the first simple root that pairs negatively.  The
    pairings are integers over one common denominator, updated through the
    Cartan matrix; lam+ is formed once, from the summed reflection shifts.
    """
    x = vec(lam)
    den, (P,) = cleared_rows([tuple(dot(x, ga) for ga in gram_images(R)[0])])
    C, scales = _descent_data(R)
    shift = [0] * R.rank
    word = []
    for _ in range(10 * len(R.pos_roots) + 10):
        i = next((j for j, p in enumerate(P) if p < 0), None)
        if i is None:
            break
        # s_i x = x - (2<x, a_i>/<a_i, a_i>) a_i
        p = P[i]
        word.append(i)
        shift[i] += p
        P = [q - p * c for q, c in zip(P, C[i])]
    else:
        raise InternalError("dominant descent failed to terminate")
    if not word:
        return x, ()
    coeffs = [Q(t, den) * s for t, s in zip(shift, scales)]
    return vsub(x, lincomb(coeffs, R.simple_roots)), tuple(word)


def dominant_representative(R: RootSystem, lam: Vec) -> tuple[Vec, Mat]:
    """(lam+, w) with w lam = lam+ dominant: the descent with its group element."""
    x, word = dominant_descent(R, lam)
    w = identity(R.rank)
    gens = simple_reflections(R)
    for i in word:
        w = matmul(gens[i], w)
    return x, w


@memo("opposition_involution")
def opposition_involution(R: RootSystem) -> Mat:
    """iota = -w0 as a matrix on covector coordinates; w0 carries the
    antidominant -(sum of the fundamental weights) into the chamber."""
    lam = vzero(R.rank)
    for wvec in fundamental_weights(R):
        lam = vsub(lam, wvec)
    _, w = dominant_representative(R, lam)
    pos = {r for r, _ in R.pos_roots}
    if {matvec(w, r) for r in pos} != {tuple(-c for c in r) for r in pos}:
        raise InternalError("longest element search failed: w0(pos) != -pos")
    return tuple(tuple(-c for c in row) for row in w)


@memo("iota_permutation")
def iota_permutation(R: RootSystem) -> MappingProxyType:
    """The permutation of simple-root indices induced by the opposition
    involution, as a read-only mapping i -> j."""
    iota = opposition_involution(R)
    out = {}
    for i, a in enumerate(R.simple_roots):
        img = matvec(iota, a)
        js = [j for j, b in enumerate(R.simple_roots) if b == img]
        if len(js) != 1:
            raise InternalError("opposition involution does not permute the simple roots")
        out[i] = js[0]
    return MappingProxyType(out)


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
