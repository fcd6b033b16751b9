"""Piecewise-linear concave growth models on a chamber subcone.

A model is a finite list of covector pieces; its value at v inside the
cone is the minimum of the pieces, -infinity outside. The critical
exponents attached to a functional mu are linear-fractional programs
over the cone and are solved exactly from one cached set of polyhedral
data per model: the vertices of the level sets {psi' >= 1} and
{psi' >= -1} and the extreme rays of their common recession cone
{psi' >= 0}, which is also the closed positive-growth cone.
"""

import math
import random
from dataclasses import dataclass, field

from .cones import (
    PolyCone,
    chamber_rays,
    cone_from_json,
    dominant_cone,
)
from .errors import InputError, InternalError, ModelInvariantError
from .polyhedra import (
    extreme_rays,
    lp_feasible_eq,
    vertices_of_polyhedron,
)
from .rational import (
    Q,
    dot,
    idot,
    is_zero,
    lincomb,
    matvec,
    pairing_table,
    primitive,
    rat,
    to_float,
    transpose,
    vadd,
    vec,
    vec_add_scaled,
    vscale,
    vsub,
)
from .rootsystem import (
    apply_iota,
    build_root_system,
    iota_permutation,
    memo,
    opposition_involution,
    rho,
    vec_from_json,
    wall_directions,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class GrowthIndicator:
    """Min-of-linear model of a growth indicator on a chamber subcone."""

    root_system: object
    cone: PolyCone
    pieces: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


@memo("iota_vector_matrix")
def iota_vector_matrix(R):
    """The opposition involution on the vector side: G iota G^-1 = iota^T,
    since iota is an involution and an isometry (iota^T G iota = G)."""
    return transpose(opposition_involution(R))


def _with_both_reps(C: PolyCone, rank) -> PolyCone:
    """C with the representation it lacks derived by ray enumeration,
    which is exact, so the pair needs no cross-check."""
    if C.rank != rank:
        raise InputError(f"cone rank {C.rank} differs from the rank {rank} "
                         "of the root system")
    if C.generators is not None and C.halfspaces is not None:
        return C
    if C.generators is not None:
        hss = tuple(extreme_rays(C.generators, rank))
        return PolyCone(rank=rank, generators=C.generators, halfspaces=hss,
                        open_flag=C.open_flag)
    gens = tuple(extreme_rays(C.halfspaces, rank))
    return PolyCone(rank=rank, generators=gens, halfspaces=C.halfspaces,
                    open_flag=C.open_flag)


def build_growth_model(R, cone, pieces) -> GrowthIndicator:
    """Validate and build a model; collects every invariant violation.

    The invariants are decided exactly on the whole cone, with no
    sampling. The cone must lie in the chamber and be involution-stable;
    psi >= 0 at every generator, so on the cone since psi is concave;
    psi <= 2 rho by one Farkas test (see _min_below); and psi o iota = psi.
    On a stable cone psi o iota >= psi already gives equality, and it holds
    iff each piece composed with iota (the covector apply_iota(R, p), iota
    being an isometric involution) is >= psi: one Farkas test per piece.
    """
    if not pieces:
        raise InputError("a growth model needs at least one piece")
    pieces = tuple(vec(p) for p in pieces)
    cone = _with_both_reps(cone, R.rank)
    gens = cone.generators
    violations = []
    for g in gens:
        if any(dot(b, g) < 0 for b in R.simple_roots):
            violations.append(f"cone generator {g} lies outside the chamber")
    for g in gens:
        val = min(dot(p, g) for p in pieces)
        if val < 0:
            violations.append(f"negative value {val} at generator {g}")
    if not _min_below(pieces, cone.halfspaces, vscale(Q(2), rho(R))):
        violations.append("value exceeds twice the half sum on the cone")
    iota_v = iota_vector_matrix(R)
    prims = {primitive(g) for g in gens}
    for g in gens:
        if primitive(matvec(iota_v, g)) not in prims:
            violations.append(f"generator set is not involution-stable at {g}")
    if not violations:
        for p in pieces:
            if not _min_below(pieces, cone.halfspaces, apply_iota(R, p)):
                violations.append(f"value not involution-invariant: piece {p} "
                                  "composed with the involution drops below the model")
    if violations:
        raise ModelInvariantError(violations)
    return GrowthIndicator(root_system=R, cone=cone, pieces=pieces)


def _min_below(pieces, halfspaces, f) -> bool:
    """Exact: is the min of the pieces <= f on the cone {h >= 0}?

    By Motzkin's transposition theorem no cone point has every piece
    above f iff f is a convex combination of the pieces plus a
    nonnegative combination of the halfspaces: one phase-1 simplex.
    """
    if f in pieces:  # the combination is that piece alone
        return True
    cols = pieces + halfspaces
    A = [[c[i] for c in cols] for i in range(len(f))]
    A.append([Q(1)] * len(pieces) + [Q(0)] * len(halfspaces))
    return lp_feasible_eq(A, [*f, Q(1)]) is not None


def evaluate(G: GrowthIndicator, v):
    """psi(v): min of the pieces inside the cone, -inf outside."""
    v = vec(v)
    if any(dot(h, v) < 0 for h in G.cone.halfspaces):
        return NEG_INF
    return min(dot(p, v) for p in G.pieces)


def evaluate_modified(G: GrowthIndicator, v):
    """psi'(v) = psi(v) - rho(v); -inf outside the cone."""
    v = vec(v)
    val = evaluate(G, v)
    if val == NEG_INF:
        return NEG_INF
    return val - dot(rho(G.root_system), v)


def modified_limit_cone(G: GrowthIndicator) -> PolyCone:
    """The open subcone where psi' > 0, returned via its closure."""
    rows, _ = super_level_rows(G, 0)
    return PolyCone(rank=G.root_system.rank, generators=recession_rays(G),
                    halfspaces=tuple(rows), open_flag=True)


def super_level_rows(G: GrowthIndicator, level=1):
    """(A, b) with {v in cone : each piece minus rho >= level} = {A v >= b}."""
    r = rho(G.root_system)
    rows = list(G.cone.halfspaces) + [vsub(p, r) for p in G.pieces]
    return rows, [Q(0)] * len(G.cone.halfspaces) + [Q(level)] * len(G.pieces)


@memo("growth_polytope_vertices")
def growth_polytope_vertices(G: GrowthIndicator, level):
    """Vertices of {v in cone : each piece minus rho >= level}, cached;
    the cone lies in the chamber, so a nonempty level set has one."""
    return vertices_of_polyhedron(*super_level_rows(G, level))


@memo("recession_rays")
def recession_rays(G: GrowthIndicator):
    """Extreme rays of K = {v in cone : each piece minus rho >= 0}, cached.

    A nonempty level set is the convex hull of its vertices plus K."""
    rows, _ = super_level_rows(G, 0)
    return tuple(extreme_rays(rows, G.root_system.rank))


def modified_cone_nonempty(G: GrowthIndicator) -> bool:
    """Exact: is there v in the cone with psi'(v) > 0?"""
    return bool(growth_polytope_vertices(G, 1))


@dataclass(frozen=True)
class DeltaPrime:
    """Result of a critical-exponent computation.

    value is an exact Fraction in the finite and attained-nonpositive
    cases, +inf/-inf otherwise. status: "finite" (value > 0),
    "infinite", or "nonpositive". witness: an exact cone vector
    attaining the supremum, normalized to mu = 1, None when nothing
    attains it. certificate: in the infinite case a cone point v with
    psi'(v) >= 1 and mu(v) <= 0 (a vertex of {psi' >= 1} or a point of
    it on mu = 0), else None.
    """

    value: object
    status: str
    witness: tuple | None = None
    certificate: tuple | None = None


def delta_prime(G: GrowthIndicator, mu) -> DeltaPrime:
    """sup over the cone of (psi - rho)(v) / mu(v), exact.

    Reads the cached vertices V of {psi' >= 1} and rays of their
    recession cone K. With V nonempty the supremum is infinite when mu
    is <= 0 at a vertex or < 0 on a ray, else 1 / min of mu over V.
    With V empty psi' <= 0 on the cone: the supremum is 0 when mu is
    positive on a ray of K, else -1 / max of mu over the vertices of
    {psi' >= -1} when that maximum is positive, else -inf.
    """
    mu = vec(mu)
    if is_zero(mu):
        raise InputError("the weighting functional must be nonzero")
    verts = growth_polytope_vertices(G, 1)
    rays = recession_rays(G)
    if verts:
        w = min(verts, key=lambda x: dot(mu, x))
        m = dot(mu, w)
        if m <= 0:
            return DeltaPrime(value=POS_INF, status="infinite", certificate=w)
        for r in rays:
            if dot(mu, r) < 0:
                # a point of {psi' >= 1} on the hyperplane mu = 0
                cert = vec_add_scaled(w, m / -dot(mu, r), r)
                return DeltaPrime(value=POS_INF, status="infinite",
                                  certificate=cert)
        return DeltaPrime(value=1 / m, status="finite",
                          witness=vscale(1 / m, w))
    for r in rays:
        if dot(mu, r) > 0:
            return DeltaPrime(value=Q(0), status="nonpositive",
                              witness=vscale(1 / dot(mu, r), r))
    w = max(growth_polytope_vertices(G, -1), key=lambda x: dot(mu, x))
    m = dot(mu, w)
    if m <= 0:
        return DeltaPrime(value=NEG_INF, status="nonpositive")
    return DeltaPrime(value=-1 / m, status="nonpositive",
                      witness=vscale(1 / m, w))


# a multiple of every denominator tent_check draws (1 to 3)
_TENT_SCALE = 6


def tent_check(G: GrowthIndicator, mu_samples, slack=Q(0), seed=0) -> dict:
    """Verify psi'(v) <= delta'_mu mu(v) + slack across the cone.

    The points are the cone generators and 200 seeded cone points. True
    for every model by construction of delta'; a failure means a solver
    bug. Infinite exponents pass vacuously. Both sides are exact, so the
    default slack is 0; the slack is read by rat, a float through its repr.

    Each point is an integer weight vector x over the generators, the
    point being x . gens / _TENT_SCALE, and each functional read (the
    halfspaces, the pieces minus rho, mu) is a cleared integer table of
    its pairings with the generators. Both sides are then integer dots,
    compared by cross-multiplication with positive scales; Fractions are
    built only for a failure report.
    """
    slack = rat(slack)
    R = G.root_system
    gens = G.cone.generators
    S = _TENT_SCALE
    rng = random.Random(seed)
    weights = [tuple(S if i == j else 0 for i in range(len(gens)))
               for j in range(len(gens))]
    if gens:  # an empty cone draws nothing and bounds nothing
        weights += [tuple(rng.randint(0, 6) * (S // rng.randint(1, 3)) for _ in gens)
                    for _ in range(200)]
    _, hs = pairing_table(G.cone.halfspaces, gens)
    r = rho(R)
    D, mods = pairing_table([vsub(p, r) for p in G.pieces], gens)
    # D * S * psi'(x) once per point; a point where it is -inf bounds nothing
    lhs_at = [(x, min(idot(x, row) for row in mods)) for x in weights
              if all(idot(x, h) >= 0 for h in hs)]
    checked = 0
    vacuous = 0
    failures = []
    for k, mu in enumerate(mu_samples):
        mu = vec_from_json(mu, R.rank, f"tent check mu {k}")
        Dm, (mus,) = pairing_table([mu], gens)
        if any(m < 0 for m in mus):
            raise InputError("tent check needs mu nonnegative on the cone")
        dp = delta_prime(G, mu)
        if dp.status == "infinite" or dp.value == NEG_INF:
            vacuous += 1
            continue
        checked += 1
        # lhs > delta' mu(v) + slack, times D S Dm and both denominators
        d = dp.value
        c_lhs = Dm * d.denominator * slack.denominator
        c_mu = D * d.numerator * slack.denominator
        c_0 = D * S * Dm * d.denominator * slack.numerator
        for x, lhs in lhs_at:
            if lhs * c_lhs > idot(x, mus) * c_mu + c_0:
                v = lincomb([Q(w, S) for w in x], gens)
                failures.append({"mu": to_float(mu), "v": to_float(v),
                                 "lhs": float(evaluate_modified(G, v)),
                                 "rhs": float(d * dot(mu, v))})
    return {"checked": checked, "vacuous": vacuous, "failures": failures,
            "passed": not failures}


def dominant_iota_classes(R):
    """Primitive sums w + iota(w) of fundamental weights, one per orbit {i, sigma(i)}."""
    sigma = iota_permutation(R)
    return tuple(primitive(u) for i, u in enumerate(wall_directions(R)) if i <= sigma[i])


def random_growth_model(R, rng) -> GrowthIndicator:
    """A seeded random valid model with a nonempty positivity cone.

    Pieces: one scaled double half-sum with factor in (1/2, 1], plus
    rho shifted by random dominant involution-invariant functionals;
    cone: the chamber or an involution-stable subcone with interior
    points. Every model invariant then holds by construction.
    """
    r = rho(R)
    classes = dominant_iota_classes(R)
    for _ in range(32):
        lam = Q(rng.randint(6, 10), 10)
        pieces = [vscale(2 * lam, r)]
        for _ in range(rng.randint(1, 2)):
            cs = [Q(rng.randint(0, 3), rng.randint(1, 2)) for _ in classes]
            pieces.append(vadd(r, lincomb(cs, classes)))
        if rng.random() < 0.5:
            cone = dominant_cone(R)
        else:
            rays = chamber_rays(R)
            iota_v = iota_vector_matrix(R)
            gens = []
            for _ in range(rng.randint(1, 2)):
                g = lincomb([Q(rng.randint(1, 4)) for _ in rays], rays)
                gens.append(primitive(g))
                gens.append(primitive(matvec(iota_v, g)))
            # build_growth_model derives the halfspaces
            cone = PolyCone(rank=R.rank, generators=tuple(dict.fromkeys(gens)))
        rng.randint(0, 10**6)  # a retired draw, kept so seeded models stay pinned
        G = build_growth_model(R, cone, pieces)
        if modified_cone_nonempty(G):
            return G
    raise InternalError("failed to draw a model with positive top exponent")


def growth_model_from_json(obj: dict) -> GrowthIndicator:
    """Parse and validate a model; malformed input raises InputError."""
    if not isinstance(obj, dict):
        raise InputError("a growth model must be a JSON object")
    missing = [k for k in ("root_system", "cone", "pieces") if k not in obj]
    if missing:
        raise InputError(f"growth model lacks {', '.join(missing)}")
    R = build_root_system(obj["root_system"])
    cone = cone_from_json(obj["cone"])
    if not isinstance(obj["pieces"], list):
        raise InputError("growth model pieces must be a list")
    pieces = [vec_from_json(p, R.rank, f"piece {p!r}") for p in obj["pieces"]]
    return build_growth_model(R, cone, pieces)


def delta_prime_report(G: GrowthIndicator, mu) -> dict:
    """JSON-ready report {delta_prime, witness, status}; an infinite value
    reads "inf" or "-inf", and a finite one beyond the doubles is an
    InputError."""
    dp = delta_prime(G, mu)
    try:
        value = float(dp.value)
        witness = to_float(dp.witness) if dp.witness else None
    except OverflowError:
        raise InputError("a critical value lies beyond the float range") from None
    return {"delta_prime": value if math.isfinite(value) else str(value),
            "witness": witness, "status": dp.status}
