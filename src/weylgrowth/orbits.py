"""Empirical Cartan-projection data for finitely generated matrix groups.

Everything here is floating point and sample based: word enumeration in
a ball of the word metric, singular-value projections, empirical cones
and growth-exponent estimates.  Nothing in this module certifies
discreteness, density, or an actual critical exponent; outputs that
depend on the enumeration horizon say so.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cones import poly_cone
from .errors import CapExceeded, InputError

ORBIT_CAP_DEFAULT = 10**6
DEDUPE_TOL_DEFAULT = 1e-6
# kept singular values lie between the smallest subnormal and DBL_MAX, so
# Cartan coordinates satisfy |x| < 1455 and x / tol stays finite (its
# dedupe key an integer) for every tolerance from this floor up
DEDUPE_TOL_MIN = 1e-300
UNIMODULAR_TOL = 1e-8
CHECK_TOL = 1e-6

_AMBIENTS = {f"sl{n}r": n for n in range(2, 7)}

ESTIMATE_FLAG = "estimate (not a certified abscissa)"


def _parse_ambient(name) -> str:
    s = str(name).lower()
    for ch in " (),":
        s = s.replace(ch, "")
    if not s.endswith("r"):
        s += "r"
    if s not in _AMBIENTS:
        raise InputError(f"unknown ambient group {name!r}; "
                         f"choose from {sorted(_AMBIENTS)}")
    return s


@dataclass(frozen=True)
class MatrixGroupSpec:
    """Generators of a matrix subgroup, renormalized to determinant one."""

    ambient: str
    generators: tuple
    max_word_length: int
    dedupe_tolerance: float = DEDUPE_TOL_DEFAULT

    @property
    def n(self) -> int:
        return _AMBIENTS[self.ambient]


@dataclass(frozen=True)
class CartanSample:
    """Projections of enumerated words: (point, word length) pairs.

    Points live in the trace-zero coordinate model, sorted decreasing
    with coordinate sum zero; rank is the dimension of that space.
    dropped counts words lost to numerical degeneration.
    """

    points: tuple
    rank: int
    dropped: int = 0


def build_group_spec(obj) -> MatrixGroupSpec:
    """Validate a generator specification, accepting the JSON input shape.

    {"ambient": "sl3r", "generators": [[[...]]], "max_word_length": 12,
    "dedupe_tolerance": 1e-6}.  Each generator is renormalized by the
    n-th root of its determinant and must then be unimodular to 1e-8.
    Whether the generated group is discrete is the caller's claim; it
    is never verified here.
    """
    if isinstance(obj, MatrixGroupSpec):
        return obj
    if not isinstance(obj, dict):
        raise InputError("group spec must be a mapping or a MatrixGroupSpec")
    ambient = _parse_ambient(obj.get("ambient", ""))
    n = _AMBIENTS[ambient]
    entries = obj.get("generators", [])
    if not isinstance(entries, (list, tuple)):
        raise InputError("generators must be a list of matrices")
    gens = []
    for g in entries:
        try:
            A = np.array(g, dtype=float)
        except (TypeError, ValueError, OverflowError):
            A = np.empty(0)  # ragged or non-numeric: fails the shape check
        if A.shape != (n, n) or not np.all(np.isfinite(A)):
            raise InputError(f"generators must be finite {n}x{n} matrices")
        d = float(np.linalg.det(A))
        if abs(d) < 1e-12:
            raise InputError("generator is numerically singular")
        if d < 0 and n % 2 == 0:
            raise InputError("negative determinant cannot be renormalized "
                             "in even dimension")
        A = A / math.copysign(abs(d) ** (1.0 / n), d)
        if abs(float(np.linalg.det(A)) - 1.0) > UNIMODULAR_TOL:
            raise InputError("generator is not unimodular after renormalization")
        gens.append(tuple(tuple(float(x) for x in row) for row in A))
    mwl = obj.get("max_word_length", 8)
    if isinstance(mwl, bool) or not isinstance(mwl, int) or mwl < 1:
        raise InputError("max_word_length must be a positive integer")
    tol = obj.get("dedupe_tolerance", DEDUPE_TOL_DEFAULT)
    if not isinstance(tol, float) or not DEDUPE_TOL_MIN <= tol < 1:
        raise InputError(f"dedupe_tolerance must be a float in "
                         f"[{DEDUPE_TOL_MIN}, 1)")
    return MatrixGroupSpec(ambient=ambient, generators=tuple(gens),
                           max_word_length=mwl, dedupe_tolerance=tol)


def _letters(spec: MatrixGroupSpec):
    """(2m, n, n) stack of the generators with their inverses appended, and
    m; letter i inverts to letter i+m."""
    mats = [np.array(g, dtype=float) for g in spec.generators]
    m = len(mats)
    mats.extend(np.linalg.inv(mats[i]) for i in range(m))
    return np.array(mats).reshape(2 * m, spec.n, spec.n), m


def _singular_values(P):
    """Singular values of a stack of finite matrices, one row each.

    A LinAlgError from the stacked SVD falls back to one matrix at a time,
    so a matrix whose SVD fails costs only its own row, which reads NaN.
    """
    try:
        return np.linalg.svd(P, compute_uv=False)
    except np.linalg.LinAlgError:
        if len(P) == 1:
            return np.full((1, P.shape[-1]), np.nan)
        return np.concatenate([_singular_values(P[i:i + 1])
                               for i in range(len(P))])


def _cartan_points(P):
    """Projections of a stack of matrices: (points, keep).

    keep marks the matrices that are not degenerate (non-finite entries,
    failed SVD, non-finite or vanishing singular values); points holds the
    sorted log singular values of those, recentered to sum zero, one row
    each in stack order.
    """
    keep = np.isfinite(P).all(axis=(1, 2))
    s = _singular_values(P[keep])
    good = np.isfinite(s).all(axis=1) & (s[:, -1] > 0.0)
    keep[keep] = good
    ls = np.log(s[good])
    return ls - ls.sum(axis=1, keepdims=True) / ls.shape[1], keep


def _cartan_point(P) -> tuple | None:
    """Sorted log singular values, recentered to sum zero; None if degenerate."""
    pts, keep = _cartan_points(np.asarray(P, dtype=float)[None])
    return tuple(pts[0].tolist()) if keep[0] else None


# children formed per stacked product; bounds the transient arrays of a
# level to this many matrices whatever the frontier width
_BLOCK_WORDS = 8192


def _walk(stacks, m, depth, keep):
    """Breadth-first walk over the reduced words of length 1 to depth.

    Letter j of each (2m, n, n) stack in stacks is inverted by letter
    (j + m) mod 2m and never follows it.  A level's products, one array
    per stack, are its parents' times the allowed letters, formed in
    blocks of at most _BLOCK_WORDS words in (parent, letter) order;
    keep(length, products) returns the indices of a block's words to extend.
    """
    n = stacks[0].shape[-1]
    # letters allowed after letter j: all but its inverse, in letter order
    after = np.array([[k for k in range(2 * m) if k != (j + m) % (2 * m)]
                      for j in range(2 * m)], dtype=np.intp)
    # frontier words and their last letters; table[last] lists the letters
    # each may take next, and the empty word (row 0 here) takes every letter
    frontier = [np.eye(n)[None]] * len(stacks)
    last = np.zeros(1, dtype=np.intp)
    table = np.arange(2 * m)[None]
    for length in range(1, depth + 1):
        step = max(1, _BLOCK_WORDS // max(table.shape[1], 1))
        words, lasts = [], []
        for b in range(0, len(last), step):
            allowed = table[last[b:b + step]]
            # overflowing products are degenerate words, dropped and counted
            with np.errstate(over="ignore", invalid="ignore"):
                products = [np.matmul(F[b:b + step, None], S[allowed])
                            .reshape(-1, n, n) for F, S in zip(frontier, stacks)]
            idx = keep(length, products)
            if length < depth:
                words.append([P[idx] for P in products])
                lasts.append(allowed.ravel()[idx])
        if length == depth or not any(map(len, lasts)):
            return
        last = np.concatenate(lasts)
        frontier = [np.concatenate(ws) for ws in zip(*words)]
        table = after


def enumerate_orbit(spec, cap: int = ORBIT_CAP_DEFAULT) -> CartanSample:
    """Projections of all reduced words up to the configured length.

    Breadth first with no immediate backtracking, each block of words
    projected by one batched SVD.  Within each word length, words whose
    projections round to the same grid cell (side dedupe_tolerance) are
    merged, the first in (parent, letter) order kept; float equality of
    group elements is undecidable, and equal-length words with equal
    projections are overwhelmingly the same element for the inputs this
    targets.  Degenerate products (overflow, vanishing singular values)
    are dropped and counted.  Grows past cap -> CapExceeded.
    """
    spec = build_group_spec(spec)
    tol = spec.dedupe_tolerance
    letters, m = _letters(spec)
    # levels[k] holds the kept projections of length k; seen, their grid cells
    levels = [[tuple(0.0 for _ in range(spec.n))]]
    seen, dropped, count = set(), 0, 1

    def keep(length, products):
        nonlocal seen, dropped, count
        if length == len(levels):
            levels.append([])
            seen = set()
        pts, ok = _cartan_points(products[0])
        dropped += len(ok) - len(pts)
        kept = []
        for i, mu in zip(ok.nonzero()[0].tolist(), pts.tolist()):
            key = tuple(round(x / tol) for x in mu)
            if key in seen:
                continue
            seen.add(key)
            count += 1
            if count > cap:
                raise CapExceeded("orbit enumeration", count, cap, setting="orbit_cap")
            levels[-1].append(tuple(mu))
            kept.append(i)
        return kept

    _walk([letters], m, spec.max_word_length, keep)
    # canonical order within each level, independent of visit order
    points = tuple((mu, length) for length, level in enumerate(levels)
                   for mu in sorted(level))
    return CartanSample(points=points, rank=spec.n - 1, dropped=dropped)


def validate_cartan_sample(S: CartanSample) -> bool:
    """Dominance and trace-zero invariants of every point, within CHECK_TOL."""
    for p, _ in S.points:
        if len(p) != S.rank + 1:
            raise InputError("point length disagrees with the sample rank")
        if abs(sum(p)) > CHECK_TOL:
            raise InputError(f"point {p} is not trace free")
        if any(p[i] < p[i + 1] - CHECK_TOL for i in range(len(p) - 1)):
            raise InputError(f"point {p} is not sorted decreasing")
    return True


def _norm(p) -> float:
    return math.sqrt(sum(x * x for x in p))


def empirical_limit_cone(S: CartanSample, radius_cut: float):
    """Cone spanned by the directions of the far sample points.

    Keeps the points with norm at least radius_cut, normalizes them, and
    returns the extreme directions among them in sample order: those whose
    points on the slice <rho, d> = 1 are vertices of the slice points'
    convex hull (see _extreme_directions).
    """
    dirs = []
    for p, _ in S.points:
        r = _norm(p)
        if r >= radius_cut and r > 0:
            dirs.append(tuple(x / r for x in p))
    if not dirs:
        raise InputError("no sample points beyond the radius cut; "
                         "enumerate with a larger max_word_length")
    kept = _extreme_directions(np.array(dirs))
    return poly_cone(generators=tuple(dirs[i] for i in kept), rank=S.rank + 1)


# an axis of the slice points' affine hull counts when some point lies
# farther than this from their mean along it; less spread is rounding
_FLAT_TOL = 1e-7


def _extreme_directions(D):
    """Indices, increasing, of the rows of D that generate the cone of all.

    Each row d is dominant and nonzero, so <rho, d> > 0 and the cone's
    extreme rays are the rows whose slice points d / <rho, d> are vertices
    of the slice points' convex hull.  The slice points are centred and
    rotated onto their principal axes by one SVD, and only the axes along
    which some point lies more than _FLAT_TOL from the mean are kept.
    With no axis the first row is returned, with one the first minimum and
    the first maximum along it, otherwise the vertices Qhull finds.
    """
    n = D.shape[1]
    rho = (n - 1) / 2 - np.arange(n)
    Y = D / (D @ rho)[:, None]
    Y -= Y.mean(axis=0)
    X = Y @ np.linalg.svd(Y, full_matrices=False)[2].T
    X = X[:, np.abs(X).max(axis=0) > _FLAT_TOL]
    if X.shape[1] == 0:
        return [0]
    if X.shape[1] == 1:
        return sorted({int(X[:, 0].argmin()), int(X[:, 0].argmax())})
    from scipy.spatial import ConvexHull

    return sorted(ConvexHull(X).vertices.tolist())


def estimate_exponent(S: CartanSample, mu) -> dict:
    """Growth-exponent estimate for the counting function weighted by mu.

    Fits log N(T) against T by least squares over the top half of the
    value range (the regime is echoed in the output).  The number is an
    estimate from a word-metric ball, never a certified abscissa, and
    the report says so in its flag field.
    """
    mu = tuple(float(x) for x in mu)
    if len(mu) != S.rank + 1:
        raise InputError("the weighting functional must have one entry "
                         "per matrix dimension")
    vals = sorted(sum(m * x for m, x in zip(mu, p)) for p, _ in S.points)
    if len(vals) < 1000:
        raise InputError("need at least 1000 sample points for an estimate")
    spread = vals[-1] - vals[0]
    if spread < 3:
        raise InputError("mu-values must spread over at least 3 units")
    lo = vals[-1] - spread / 2
    xs, ys = [], []
    for k, t in enumerate(vals):
        if t >= lo:
            xs.append(t)
            ys.append(math.log(k + 1))
    if len(xs) < 3 or xs[-1] - xs[0] <= 0:
        raise InputError("insufficient spread in the fitting regime")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    mean = sum(xs) / len(xs)
    ssxx = sum((x - mean) ** 2 for x in xs)
    se = math.sqrt(sum(r * r for r in resid) / max(len(xs) - 2, 1) / ssxx)
    band = 1.96 * se
    return {
        "estimate": float(slope),
        "band": [float(slope - band), float(slope + band)],
        "regime": [float(lo), float(vals[-1])],
        "points_used": len(xs),
        "flag": ESTIMATE_FLAG,
    }


def iota_symmetry_check(spec, depth: int | None = None,
                        cap: int = ORBIT_CAP_DEFAULT) -> dict:
    """Projection of the inverse word against the reversed negation.

    Walks every reduced word of length 1 to depth (default the spec's
    max_word_length), with no dedupe, and compares the projection of the
    word's inverse with the coordinate reversal and negation of the
    word's own, within CHECK_TOL.  That reversal is the opposition
    involution of sl(n, R) in the trace-zero model.  A pair counts when
    neither product is degenerate.  More than cap words -> CapExceeded.
    """
    spec = build_group_spec(spec)
    depth = spec.max_word_length if depth is None else depth
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise InputError(f"involution check depth must be an integer >= 1, "
                         f"got {depth!r}")
    letters, m = _letters(spec)
    # (w l)^-1 = l^-1 w^-1, so the transposed inverse of a word grows by
    # right products with the transposed inverse letters
    inverse_t = np.roll(letters, m, axis=0).transpose(0, 2, 1)
    words = pairs = failures = 0
    worst = 0.0

    def keep(length, products):
        nonlocal words, pairs, failures, worst
        P, Q = products
        k = len(P)
        words += k
        if words > cap:
            raise CapExceeded("involution check", cap + 1, cap, setting="orbit_cap")
        # transposed back: the SVD of a transpose can differ in the last bits
        pts, ok = _cartan_points(np.concatenate((P, Q.transpose(0, 2, 1))))
        rows = np.full((2 * k, spec.n), np.nan)
        rows[ok] = pts
        both = ok[:k] & ok[k:]
        dev = np.abs(rows[k:][both] + rows[:k][both, ::-1]).max(axis=1)
        pairs += len(dev)
        failures += int((dev > CHECK_TOL).sum())
        worst = max(worst, float(dev.max(initial=0.0)))
        return slice(None)  # every word, degenerate ones too

    _walk([letters, inverse_t], m, depth, keep)
    return {"pairs": pairs, "failures": failures,
            "max_deviation": worst, "tolerance": CHECK_TOL}


def sample_to_csv(S: CartanSample) -> str:
    """word_length,x1,...,xn rows; plain text, no binary."""
    header = "word_length," + ",".join(f"x{i+1}" for i in range(S.rank + 1))
    lines = [header]
    for p, wl in S.points:
        lines.append(str(wl) + "," + ",".join(repr(float(x)) for x in p))
    return "\n".join(lines) + "\n"
