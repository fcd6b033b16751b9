"""Restricted root systems with multiplicities.

Roots are covectors on a ~ Q^rank, stored in coordinates where evaluation
against a vector is the plain dot product.  The inner product on covectors is
x^T G y for a symmetric positive-definite rational Gram matrix G (identity for
every preset stated in standard coordinates); vectors pair through G^-1, and
the identification covector -> vector is mu -> G mu.

One integer core serves the construction: the Cartan matrix
A[i][j] = 2<a_i, a_j>/<a_j, a_j>, computed once in ints, and each root's
integer coordinates in the simple-root basis.  The closure, heights, order,
W-invariance checks, strongly orthogonal cascade, Weyl-group elements, -w0,
rho and the fundamental weights run on these; ambient Fraction vectors are
formed only where a result is returned.  A group element is the tuple of its
images of the simple roots, the columns of an integer matrix M; a caller that
needs a covector matrix gets P M P^-1, for P the matrix whose columns are the
simple roots.
"""

from __future__ import annotations

import functools
import re
from operator import add, mul, sub
from dataclasses import dataclass, field
from fractions import Fraction as Q
from types import MappingProxyType

from .errors import CapExceeded, InputError, InternalError
from .rational import (
    Mat,
    Vec,
    cleared_rows,
    det,
    dot,
    identity,
    idot,
    inverse,
    is_positive_definite,
    lincomb,
    mat,
    matmul,
    matvec,
    transpose,
    unit,
    vadd,
    vec,
    vscale,
    vsub,
)

WEYL_CAP_DEFAULT = 2**20


def memo(name):
    """Memoise fn(obj, *args) in obj._cache, the one cache mechanism.

    The key is name for a function of obj alone, else (name, *args); the
    arguments are positional only, so one call has one key.  Cached values
    are immutable derived data shared by every caller; a call that raises
    caches nothing.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def cached(obj, *args):
            key = (name, *args) if args else name
            if key not in obj._cache:
                obj._cache[key] = fn(obj, *args)
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
    # the integer core, filled by _finish: the Cartan matrix, the simple-root
    # Gram matrix over one denominator, the coordinates of pos_roots and
    # their ambient numerators D * root over one denominator D > 0
    cartan: tuple = field(kw_only=True, compare=False, repr=False)
    simple_gram: tuple = field(kw_only=True, compare=False, repr=False)
    coords: tuple = field(kw_only=True, compare=False, repr=False)
    ambient: tuple = field(kw_only=True, compare=False, repr=False)
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

    # -- predicates -------------------------------------------------------

    def is_dominant_covector(self, mu: Vec) -> bool:
        return all(dot(mu, ga) >= 0 for ga in gram_images(self)[0])

    def irreducible_components(self) -> list[list[int]]:
        """Indices of simple roots grouped by the orthogonality graph."""
        comps = []
        for i in range(self.rank):
            linked = [c for c in comps if any(self.simple_gram[i][j] for j in c)]
            comps = [c for c in comps if c not in linked] + [sorted(sum(linked, [i]))]
        return sorted(comps)


# -- the integer core ------------------------------------------------------


def _neg(c: tuple) -> tuple:
    return tuple(-x for x in c)


def _reflect(cols, c: tuple, j: int) -> tuple:
    """s_j on simple-root coordinates: c_j drops by <c, a_j^vee>, where
    cols[j] is column j of the Cartan matrix."""
    return c[:j] + (c[j] - sum(map(mul, c, cols[j])),) + c[j + 1:]


def _cartan_matrix(simple: tuple[Vec, ...], G: Mat) -> tuple[tuple, tuple]:
    """(A, B): the Cartan matrix A[i][j] = 2<a_i, a_j>/<a_j, a_j> and the Gram
    matrix <a_i, a_j> over one denominator, both from the cleared simple
    roots and G in ints.  Rejects dependent or positively pairing simple
    roots (a zero one would stall the closure), then the first non-integer
    entry of A in row order."""
    n = len(simple)
    D, S = cleared_rows(simple)
    if not det(S):
        raise InputError("simple roots are not linearly independent")
    E, H = cleared_rows(G)
    GS = [tuple(idot(h, s) for h in H) for s in S]
    B = tuple(tuple(idot(s, g) for g in GS) for s in S)  # D^2 E <a_i, a_j>
    for i in range(n):
        for j in range(i + 1, n):
            if B[i][j] > 0:
                raise InputError(f"simple roots {i},{j} have positive inner product "
                                 f"{Q(B[i][j], D * D * E)}")
    for i, j in ((i, j) for i in range(n) for j in range(n) if 2 * B[i][j] % B[j][j]):
        b, a = vec_to_json(simple[i]), vec_to_json(simple[j])
        raise InputError(f"non-crystallographic pair: 2<{b},{a}>/<{a},{a}> = "
                         f"{Q(2 * B[i][j], B[j][j])}")
    return tuple(tuple(2 * g // B[j][j] for j, g in enumerate(row)) for row in B), B


def _positive_closure(A: tuple) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by the root-string
    criterion: b + a_j is a root iff the a_j-string below b is longer than
    <b, a_j^vee>."""
    n = len(A)
    cols = tuple(zip(*A))
    level = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots = set(level)
    for _ in range(1000):
        nxt = []
        for b in level:
            for j, col in enumerate(cols):
                p = 0
                while b[j] > p and b[:j] + (b[j] - p - 1,) + b[j + 1:] in roots:
                    p += 1
                if p > sum(map(mul, b, col)):
                    s = b[:j] + (b[j] + 1,) + b[j + 1:]
                    if s not in roots:
                        roots.add(s)
                        nxt.append(s)
        if not nxt:
            return list(roots)
        level = nxt
    raise InputError("positive-root closure did not terminate; input is not a root system")


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
    """Returns (simple_roots, gram, mult_fn, label) for a preset name; mult_fn
    maps a positive root's simple-root coordinates to its multiplicity, an int."""
    s = name.lower().replace(" ", "")
    m = re.fullmatch(r"([a-g])(\d+)", s)
    if m:
        typ, n = m.group(1), int(m.group(2))
        if typ == "a" and n >= 1:
            basis = tuple(unit(n, i) for i in range(n))
            return basis, _gram_from_edges(n, [(i, i + 1) for i in range(n - 1)]), lambda r: 1, s
        if typ == "b" and n >= 1:
            return _b_type_simple(n), identity(n), lambda r: 1, s
        if typ == "c" and n >= 2:
            out = [vsub(unit(n, i), unit(n, i + 1)) for i in range(n - 1)]
            out.append(vscale(2, unit(n, n - 1)))
            return tuple(out), identity(n), lambda r: 1, s
        if typ == "d" and n >= 2:
            out = [vsub(unit(n, i), unit(n, i + 1)) for i in range(n - 1)]
            out.append(vadd(unit(n, n - 2), unit(n, n - 1)))
            return tuple(out), identity(n), lambda r: 1, s
        if typ == "g" and n == 2:
            basis = (unit(2, 0), unit(2, 1))
            return basis, mat([[2, -3], [-3, 6]]), lambda r: 1, s
        if typ == "f" and n == 4:
            simple = (
                vsub(unit(4, 1), unit(4, 2)),
                vsub(unit(4, 2), unit(4, 3)),
                unit(4, 3),
                vec(["1/2", "-1/2", "-1/2", "-1/2"]),
            )
            return simple, identity(4), lambda r: 1, s
        if typ == "e" and n in (6, 7, 8):
            basis = tuple(unit(n, i) for i in range(n))
            return basis, _gram_from_edges(n, _SIMPLY_LACED_EDGES[s](n)), lambda r: 1, s
        raise InputError(f"unknown preset {name!r}")

    m = re.fullmatch(r"sl\((\d+),([rch])\)", s)
    if m:
        n, fld = int(m.group(1)), m.group(2)
        if n < 2:
            raise InputError("sl(n,.) needs n >= 2")
        mult = {"r": 1, "c": 2, "h": 4}[fld]
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
            return simple, gram, lambda r: 1, s
        # type B_p; the short roots e_i = a_i + ... + a_p, the positive roots
        # whose last simple-root coordinate is 1, carry multiplicity q - p
        return _b_type_simple(p), identity(p), lambda c: q - p if c[-1] == 1 else 1, s

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
        A, B = _cartan_matrix(simple, gram)
        mults = {c: mult_fn(c) for c in _positive_closure(A)}
        return _finish(simple, gram, A, B, mults, label)
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
        A, B = _cartan_matrix(simple, gram)
        mults = _custom_multiplicities(simple, A, _positive_closure(A),
                                       spec.get("multiplicities"))
        return _finish(simple, gram, A, B, mults, "custom")
    raise InputError(f"cannot build a root system from {type(spec).__name__}")


def json_rows(rows, what) -> int:
    """The row count of a JSON list of lists; InputError for any other shape."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a list of vectors")
    return len(rows)


def _custom_multiplicities(simple, A, pos, entries) -> dict:
    """{coordinates: multiplicity} for the positive roots pos and any 2*alpha
    entries, each given entry propagated over its W-orbit."""
    if not entries:
        return {c: 1 for c in pos}
    if not isinstance(entries, list):
        raise InputError("multiplicities must be a list")
    to_coords = inverse(transpose(simple))
    posset = set(pos)
    assigned: dict[tuple, Q] = {}
    extra: dict[tuple, Q] = {}  # non-reduced 2*alpha entries, kept as data
    for e in entries:
        if not isinstance(e, dict) or "root" not in e or "m" not in e:
            raise InputError(f"multiplicity entry {e!r} needs 'root' and 'm'")
        r = vec_from_json(e["root"], len(simple), f"multiplicity root {e['root']!r}")
        (mval,) = vec_from_json([e["m"]], 1, f"multiplicity {e['m']!r}")
        if mval <= 0:
            raise InputError("multiplicities must be positive")
        # Fraction tuples hash and compare like the int tuples they equal
        c = matvec(to_coords, r)
        if c in posset:
            target = assigned
        elif tuple(x / 2 for x in c) in posset:
            target = extra
        else:
            raise InputError(f"{vec_to_json(r)} is neither a positive root nor twice one")
        c = tuple(map(int, c))
        if target.get(c, mval) != mval:
            raise InputError(f"conflicting multiplicities for {vec_to_json(r)}")
        target[c] = mval

    # propagate over W-orbits through simple reflections
    cols = tuple(zip(*A))

    def propagate(table, universe):
        changed = True
        while changed:
            changed = False
            for c in list(table):
                for j in range(len(cols)):
                    img = _reflect(cols, c, j)
                    pimg = img if img in universe else _neg(img)
                    if pimg not in universe:
                        continue
                    if pimg in table:
                        if table[pimg] != table[c]:
                            raise InputError("multiplicity map is not W-invariant")
                    else:
                        table[pimg] = table[c]
                        changed = True

    propagate(assigned, posset)
    missing = posset - set(assigned)
    if missing:
        shown = sorted(lincomb(c, simple) for c in missing)
        raise InputError(f"multiplicity missing for roots {[vec_to_json(r) for r in shown]}")
    if extra:
        propagate(extra, {tuple(2 * x for x in c) for c in posset})
    assigned.update(extra)
    return assigned


def _finish(simple, gram, A, B, mults, label) -> RootSystem:
    """The root system whose positive roots are the coordinate tuples of
    mults, ordered by (height = coordinate sum, ambient root), once its
    multiplicities and inner product pass the W-invariance checks.  The
    ambient roots are ordered by their integer numerators over D > 0."""
    n = len(simple)
    D, S = cleared_rows(transpose(simple))
    num = {c: tuple(idot(c, x) for x in S) for c in mults}
    ordered = sorted(mults, key=lambda c: (sum(c), num[c]))
    signed = {**mults, **{_neg(c): m for c, m in mults.items()}}
    cols = tuple(zip(*A))
    for j, a in enumerate(cols):
        for c in ordered:
            img = _reflect(cols, c, j)
            if img not in signed:
                raise InputError(f"{vec_to_json(lincomb(img, simple))} is not a root of {label}")
            if signed[img] != mults[c]:
                raise InputError("multiplicity map is not W-invariant")
        # (S_j^T B S_j - B)[i][k] for the reflection S_j e_i = e_i - A[i][j] e_j
        if any(a[i] * a[k] * B[j][j] - a[i] * B[j][k] - a[k] * B[i][j]
               for i in range(n) for k in range(n)):
            raise InputError("inner product is not W-invariant")
    ambient = tuple(num[c] for c in ordered)
    frac = {x: Q(x, D) for x in {x for row in ambient for x in row}}
    return RootSystem(rank=n, simple_roots=tuple(simple),
                      pos_roots=tuple((tuple(frac[x] for x in row), Q(mults[c]))
                                      for c, row in zip(ordered, ambient)),
                      inner_product=gram, label=label,
                      cartan=A, simple_gram=B, coords=tuple(ordered), ambient=ambient)


# -- derived data ----------------------------------------------------------


@memo("rho")
def rho(R: RootSystem) -> Vec:
    """Half sum of positive roots with multiplicities: the coordinates are
    summed in ints, one sum per multiplicity, and meet the simple roots once."""
    groups = {}
    for c, (_, m) in zip(R.coords, R.pos_roots):
        groups.setdefault(m, []).append(c)
    sums = [tuple(map(sum, zip(*cs))) for cs in groups.values()]
    return lincomb(lincomb([m / 2 for m in groups], sums), R.simple_roots)


@memo("fundamental_weights")
def fundamental_weights(R: RootSystem) -> tuple[Vec, ...]:
    """w_i = sum_k (A^-1)[i][k] a_k, since <w_i, a_j^vee> = delta_ij."""
    return tuple(lincomb(row, R.simple_roots) for row in inverse(R.cartan))


@memo("gram_images")
def gram_images(R: RootSystem) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(G a_i, G w_i) for the simple roots a_i and fundamental weights w_i.

    <mu, a_i> = dot(mu, G a_i), so a pairing against one of them is a single
    dot instead of the matvec that R.ip runs on every call.
    """
    G = R.inner_product
    return (tuple(matvec(G, a) for a in R.simple_roots),
            tuple(matvec(G, w) for w in fundamental_weights(R)))


@memo("descent_data")
def _descent_data(R: RootSystem) -> tuple:
    """(C, 2/<a_i, a_i>) for C[i] column i of the Cartan matrix: s_i moves the
    simple-root pairings of x by <s_i x, a_j> = <x, a_j> - <x, a_i> C[i][j]."""
    gas = gram_images(R)[0]
    return (tuple(zip(*R.cartan)),
            tuple(2 / dot(a, ga) for a, ga in zip(R.simple_roots, gas)))


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
    word, shift = _descend(R, P, C)
    if not word:
        return x, ()
    # s_i x = x - (2<x, a_i>/<a_i, a_i>) a_i
    coeffs = [Q(t, den) * s for t, s in zip(shift, scales)]
    return vsub(x, lincomb(coeffs, R.simple_roots)), tuple(word)


def _descend(R: RootSystem, P, rows) -> tuple[list, list]:
    """(word, shift): reflect at the first i with P[i] < 0, which adds P[i] to
    shift[i] and subtracts P[i] * rows[i] from the pairings P, until none is."""
    shift, word = [0] * R.rank, []
    for _ in range(10 * len(R.pos_roots) + 10):
        i = next((j for j, p in enumerate(P) if p < 0), None)
        if i is None:
            return word, shift
        p = P[i]
        word.append(i)
        shift[i] += p
        P = [q - p * c for q, c in zip(P, rows[i])]
    raise InternalError("dominant descent failed to terminate")


def _word_images(R: RootSystem, word) -> tuple:
    """The element s_{word[-1]} ... s_{word[0]} of W on the integer core: the
    simple-root coordinates of its images of a_1, ..., a_n."""
    cols = tuple(zip(*R.cartan))
    images = tuple(tuple(int(i == j) for i in range(R.rank)) for j in range(R.rank))
    for i in word:
        images = tuple(_reflect(cols, c, i) for c in images)
    return images


@memo("simple_roots_inverse")
def _simple_roots_inverse(R: RootSystem) -> Mat:
    """P^-1, for P the matrix whose columns are the simple roots."""
    return inverse(transpose(R.simple_roots))


def _covector_matrix(R: RootSystem, images) -> Mat:
    """P M P^-1, the covector matrix of the element with simple-root images
    images, the columns of M."""
    P = transpose(R.simple_roots)
    return matmul(matmul(P, transpose(images)), _simple_roots_inverse(R))


@memo("weyl_group")
def weyl_group(R: RootSystem) -> tuple[Mat, ...]:
    """Every element of W as a matrix on covector coordinates, sorted; the
    breadth-first search over simple reflections runs on the integer core
    and stops past WEYL_CAP_DEFAULT elements."""
    cap = WEYL_CAP_DEFAULT
    cols = tuple(zip(*R.cartan))
    frontier = [_word_images(R, ())]
    known = set(frontier)
    while frontier:
        nxt = []
        for w in frontier:
            for j in range(R.rank):
                wg = tuple(_reflect(cols, c, j) for c in w)
                if wg not in known:
                    known.add(wg)
                    nxt.append(wg)
                    if len(known) > cap:
                        raise CapExceeded("Weyl group enumeration", f"> {cap}", cap)
        frontier = nxt
    return tuple(sorted(_covector_matrix(R, w) for w in known))


def dominant_representative(R: RootSystem, lam: Vec) -> tuple[Vec, Mat]:
    """(lam+, w) with w lam = lam+ dominant: the descent with its group element."""
    x, word = dominant_descent(R, lam)
    return x, _covector_matrix(R, _word_images(R, word))


@memo("minus_w0")
def _minus_w0(R: RootSystem) -> tuple:
    """-w0 on the integer core, as the columns Pi e_j; w0 carries the
    antidominant -(sum of the fundamental weights) into the chamber.  Its
    coroot pairings are all -1, and s_i moves coroot pairings through row i
    of the Cartan matrix."""
    images = _word_images(R, _descend(R, [-1] * R.rank, R.cartan)[0])
    w0 = tuple(zip(*images))
    if ({tuple(sum(map(mul, row, c)) for row in w0) for c in R.coords}
            != {_neg(c) for c in R.coords}):
        raise InternalError("longest element search failed: w0(pos) != -pos")
    return tuple(map(_neg, images))


@memo("opposition_involution")
def opposition_involution(R: RootSystem) -> Mat:
    """iota = -w0 as a matrix on covector coordinates: P Pi P^-1."""
    return _covector_matrix(R, _minus_w0(R))


@memo("iota_permutation")
def iota_permutation(R: RootSystem) -> MappingProxyType:
    """The permutation sigma with iota(a_i) = a_sigma(i), as a read-only
    mapping i -> sigma(i), read off Pi = -w0: Pi e_j = e_sigma(j)."""
    units = {e: j for j, e in enumerate(_word_images(R, ()))}
    sigma = [units.get(c, -1) for c in _minus_w0(R)]
    if sorted(sigma) != list(range(R.rank)):
        raise InternalError("-w0 is not a permutation matrix on the simple roots")
    return MappingProxyType(dict(enumerate(sigma)))


@memo("wall_directions")
def wall_directions(R: RootSystem) -> tuple[Vec, ...]:
    """u_i = w_i + iota(w_i) = w_i + w_sigma(i) per simple root a_i: the
    dominant invariant direction attached to the wall ker a_i."""
    ws, sigma = fundamental_weights(R), iota_permutation(R)
    return tuple(vadd(w, ws[sigma[i]]) for i, w in enumerate(ws))


def apply_iota(R: RootSystem, x: Vec) -> Vec:
    return matvec(opposition_involution(R), x)


# -- strongly orthogonal cascade ------------------------------------------


@memo("theta")
def strongly_orthogonal_theta(R: RootSystem) -> tuple[tuple[Vec, ...], Vec]:
    """Cascade: take the highest root, keep only roots strongly orthogonal to
    every selected one, repeat.  Theta is half the sum of the selection (no
    multiplicities).  Reducible systems are handled factor by factor.

    Roots are indices into pos_roots, compared by simple-root coordinates;
    heights are taken in the current subsystem, and ties go to the larger
    ambient root, compared by its integer numerators.
    """
    coords, B = R.coords, R.simple_gram
    allroots = set(coords) | {_neg(c) for c in coords}
    remaining = list(range(len(coords)))
    selected = []
    while remaining:
        ht = _subsystem_heights([coords[k] for k in remaining])
        best = max(remaining, key=lambda k: (ht[coords[k]], R.ambient[k]))
        g = coords[best]
        Bg = tuple(idot(row, g) for row in B)
        selected.append(R.pos_roots[best][0])
        remaining = [k for k in remaining
                     if idot(coords[k], Bg) == 0
                     and tuple(map(add, coords[k], g)) not in allroots
                     and tuple(map(sub, coords[k], g)) not in allroots]
    return tuple(selected), vscale(Q(1, 2), lincomb((1,) * len(selected), selected))


def _subsystem_heights(roots) -> dict:
    """{root: height} in the subsystem whose positive roots, listed by height,
    are roots: a sum of two earlier roots has the sum of their heights, and
    an indecomposable root, a simple root of the subsystem, has height 1."""
    ht = {}
    for b in roots:
        ht[b] = next((ht[g] + ht[d] for g in ht if (d := tuple(map(sub, b, g))) in ht), 1)
    return ht


# -- serialization ---------------------------------------------------------


def _num_to_json(x: Q):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
    roots = [{"root": vec_to_json(r), "m": _num_to_json(m)} for r, m in R.pos_roots]
    return {
        "label": R.label,
        "rank": R.rank,
        "simple_roots": [vec_to_json(r) for r in R.simple_roots],
        "pos_roots": roots,
        "multiplicities": roots,
        "inner_product": [vec_to_json(row) for row in R.inner_product],
    }
