"""Piecewise-linear concave growth models on a chamber subcone.

A model is a finite list of covector pieces; its value at v inside the
cone is the minimum of the pieces, -infinity outside. The critical
exponents attached to a functional mu are linear-fractional programs
over the cone and are solved exactly: the finite case reduces to vertex
enumeration of {psi' >= 1}, the infinite case to an exact feasibility
test, the nonpositive case to a vertex scan of an epigraph polytope.
"""

import random
from dataclasses import dataclass, field
from math import lcm

from .cones import (
    PolyCone,
    chamber_rays,
    cone_from_json,
    cone_to_json,
    dominant_cone,
    poly_cone,
)
from .errors import CheckFailure, InputError, ModelInvariantError
from .polyhedra import (
    extreme_rays,
    lp_feasible_ineq,
    vertices_of_polyhedron,
)
from .rational import (
    Q,
    dot,
    is_zero,
    matvec,
    primitive,
    to_float,
    vec,
    vec_add_scaled,
    vscale,
    vsub,
)
from .rootsystem import (
    fundamental_weights,
    iota_permutation,
    opposition_involution,
    rho,
    root_system_from_json,
    root_system_to_json,
    vec_from_json,
    vec_to_json,
    vector_action,
)

IOTA_SAMPLES_DEFAULT = 1000
NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class GrowthIndicator:
    """Min-of-linear model of a growth indicator on a chamber subcone."""

    root_system: object
    cone: PolyCone
    pieces: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def iota_vector_matrix(R):
    """The opposition involution acting on the vector side."""
    if "iota_vec" not in R._cache:
        R._cache["iota_vec"] = vector_action(R, opposition_involution(R))
    return R._cache["iota_vec"]


def _with_both_reps(C: PolyCone, rank) -> PolyCone:
    if C.generators is not None and C.halfspaces is not None:
        return C
    if C.generators is not None:
        hss = tuple(extreme_rays(C.generators, rank))
        return poly_cone(generators=C.generators, halfspaces=hss, rank=rank,
                         open_flag=C.open_flag)
    gens = tuple(extreme_rays(C.halfspaces, rank))
    return poly_cone(generators=gens, halfspaces=C.halfspaces, rank=rank,
                     open_flag=C.open_flag)


def build_growth_model(R, cone, pieces, iota_samples=IOTA_SAMPLES_DEFAULT,
                       seed=0) -> GrowthIndicator:
    """Validate and build a model; collects every invariant violation.

    Involution invariance psi(iota v) = psi(v) is checked exactly on
    every cone generator and then on iota_samples cone points drawn from
    random.Random(seed): for each generator in order, a coefficient
    randint(0, 8) / randint(1, 4). Both sides are compared through two
    integer pairing tables, piece . g and piece . iota(g) for each
    generator g over one common denominator, with the coefficients
    scaled by 12; the point itself is rebuilt only for the message.
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
    two_rho = vscale(Q(2), rho(R))
    for g in gens:
        val = min(dot(p, g) for p in pieces)
        if val < 0:
            violations.append(f"negative value {val} at generator {g}")
        if val > dot(two_rho, g):
            violations.append(f"value at generator {g} exceeds twice the half sum")
    iota_v = iota_vector_matrix(R)
    iota_gens = [matvec(iota_v, g) for g in gens]
    prims = {primitive(g) for g in gens}
    for g, ig in zip(gens, iota_gens):
        if primitive(ig) not in prims:
            violations.append(f"generator set is not involution-stable at {g}")
    if not violations:
        table, iota_table = _pairing_tables(pieces, gens, iota_gens)
        for i, g in enumerate(gens):
            if (min(row[i] for row in iota_table)
                    != min(row[i] for row in table)):
                violations.append(f"value not involution-invariant at generator {g}")
                break
        else:
            rng = random.Random(seed)
            for _ in range(iota_samples):
                draws = [(rng.randint(0, 8), rng.randint(1, 4)) for _ in gens]
                cs = [a * (12 // b) for a, b in draws]
                psi = min(sum(c * t for c, t in zip(cs, row)) for row in table)
                psi_iota = min(sum(c * t for c, t in zip(cs, row))
                               for row in iota_table)
                if psi_iota != psi:
                    v = vec([0] * R.rank)
                    for (a, b), g in zip(draws, gens):
                        v = vec_add_scaled(v, Q(a, b), g)
                    violations.append(f"value not involution-invariant at sample {v}")
                    break
    if violations:
        raise ModelInvariantError(violations)
    return GrowthIndicator(root_system=R, cone=cone, pieces=pieces)


def _pairing_tables(pieces, gens, iota_gens):
    """Integer rows piece . g and piece . iota(g), one row per piece.

    Both tables share one positive scale, so mins of integer row sums
    compare exactly as the rational values of psi and psi o iota do.
    """
    rows = [[dot(p, g) for g in gens] for p in pieces]
    iota_rows = [[dot(p, g) for g in iota_gens] for p in pieces]
    den = lcm(*(x.denominator for row in rows + iota_rows for x in row))
    return ([[int(x * den) for x in row] for row in rows],
            [[int(x * den) for x in row] for row in iota_rows])


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


def _shifted_pieces(G, modified):
    r = rho(G.root_system)
    if modified:
        return [vsub(p, r) for p in G.pieces]
    return list(G.pieces)


def modified_limit_cone(G: GrowthIndicator) -> PolyCone:
    """The open subcone where psi' > 0, returned via its closure."""
    hss = tuple(G.cone.halfspaces) + tuple(_shifted_pieces(G, True))
    gens = tuple(extreme_rays(hss, G.root_system.rank))
    return poly_cone(generators=gens, halfspaces=hss, rank=G.root_system.rank,
                     open_flag=True)


def modified_cone_nonempty(G: GrowthIndicator) -> bool:
    """Exact: is there v in the cone with psi'(v) > 0?"""
    rows = list(G.cone.halfspaces)
    b = [Q(0)] * len(rows)
    for p in _shifted_pieces(G, True):
        rows.append(p)
        b.append(Q(1))
    return lp_feasible_ineq(rows, b) is not None


def growth_polytope_vertices(G: GrowthIndicator, modified=True):
    """Vertices of {v in cone : each piece (minus rho) >= 1}, cached."""
    key = ("p1", modified)
    if key not in G._cache:
        rows = list(G.cone.halfspaces)
        b = [Q(0)] * len(rows)
        for p in _shifted_pieces(G, modified):
            rows.append(p)
            b.append(Q(1))
        G._cache[key] = vertices_of_polyhedron(rows, b)
    return G._cache[key]


@dataclass(frozen=True)
class DeltaPrime:
    """Result of a critical-exponent computation.

    value is an exact Fraction in the finite and attained-nonpositive
    cases, +inf/-inf otherwise. status: "finite" (value > 0),
    "infinite", or "nonpositive". witness: an exact cone vector
    attaining the supremum (normalized to mu = 1 when finite), None
    when nothing attains it. certificate: a cone direction proving the
    infinite case, else None.
    """

    value: object
    status: str
    witness: tuple | None = None
    certificate: tuple | None = None


def delta_prime(G: GrowthIndicator, mu, modified=True) -> DeltaPrime:
    """sup over the cone of (psi - rho)(v) / mu(v) (or psi/mu), exact.

    Decides the infinite case by exact feasibility; otherwise the
    supremum is 1 / min of mu over the vertices of {psi' >= 1}, and a
    nonpositive supremum is read off an epigraph polytope.
    """
    mu = vec(mu)
    if is_zero(mu):
        raise InputError("the weighting functional must be nonzero")
    cone_rows = list(G.cone.halfspaces)
    shifted = _shifted_pieces(G, modified)
    # unbounded direction: mu <= 0 somewhere the indicator is positive
    rows = cone_rows + [tuple(-x for x in mu)] + shifted
    b = [Q(0)] * (len(cone_rows) + 1) + [Q(1)] * len(shifted)
    ray = lp_feasible_ineq(rows, b)
    if ray is not None:
        return DeltaPrime(value=POS_INF, status="infinite", certificate=ray)
    verts = growth_polytope_vertices(G, modified)
    if verts:
        best = None
        for w in verts:
            m = dot(mu, w)
            if best is None or m < best[0]:
                best = (m, w)
        m, w = best
        if m <= 0:
            raise RuntimeError("feasibility screen missed an unbounded direction")
        return DeltaPrime(value=1 / m, status="finite",
                          witness=vscale(1 / m, w))
    # no point reaches value 1: the supremum is <= 0; scan the epigraph
    # polytope over the slice {mu = 1}
    n = G.root_system.rank
    rows = [tuple(h) + (Q(0),) for h in cone_rows]
    rows.append(tuple(mu) + (Q(0),))
    rows.append(tuple(-x for x in mu) + (Q(0),))
    rows.extend(tuple(p) + (Q(-1),) for p in shifted)
    b = [Q(0)] * len(cone_rows) + [Q(1), Q(-1)] + [Q(0)] * len(shifted)
    everts = vertices_of_polyhedron(rows, b, cap=n + 1)
    if not everts:
        return DeltaPrime(value=NEG_INF, status="nonpositive")
    best = max(everts, key=lambda vt: vt[n])
    val = best[n]
    if val > 0:
        raise RuntimeError("sign analysis disagrees with the vertex scan")
    return DeltaPrime(value=val, status="nonpositive", witness=best[:n])


def exponent_sandwich(G: GrowthIndicator, mu):
    """(delta' - inf rho, delta' + sup rho) over the slice mu = 1.

    Requires mu strictly positive on the cone minus the origin; the
    unmodified exponent is recomputed and must lie inside; CheckFailure
    otherwise.
    """
    mu = vec(mu)
    if not G.cone.generators:
        raise InputError("sandwich needs a nonempty cone")
    if not all(dot(mu, g) > 0 for g in G.cone.generators):
        raise InputError("sandwich needs mu positive on the cone")
    dp = delta_prime(G, mu).value
    n = G.root_system.rank
    rows = list(G.cone.halfspaces) + [tuple(mu), tuple(-x for x in mu)]
    b = [Q(0)] * len(G.cone.halfspaces) + [Q(1), Q(-1)]
    verts = vertices_of_polyhedron(rows, b, cap=n)
    if not verts:
        raise InputError("the slice mu = 1 misses the cone")
    r = rho(G.root_system)
    vals = [dot(r, w) for w in verts]
    lower, upper = dp - min(vals), dp + max(vals)
    d = delta_prime(G, mu, modified=False).value
    if not lower <= d <= upper:
        raise CheckFailure(f"unmodified exponent {d} lies outside the "
                           f"sandwich [{lower}, {upper}]")
    return lower, upper


def tent_check(G: GrowthIndicator, mu_samples, slack=Q(1, 10**8), seed=0,
               extra_samples=200) -> dict:
    """Verify psi'(v) <= delta'_mu mu(v) + slack across the cone.

    True for every model by construction of delta'; a failure means a
    solver bug. Infinite exponents pass vacuously.
    """
    rng = random.Random(seed)
    gens = G.cone.generators
    points = list(gens)
    for _ in range(extra_samples):
        cs = [Q(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
        v = vec([0] * G.root_system.rank)
        for c, g in zip(cs, gens):
            v = vec_add_scaled(v, c, g)
        points.append(v)
    checked = 0
    vacuous = 0
    failures = []
    for mu in mu_samples:
        mu = vec(mu)
        if any(dot(mu, g) < 0 for g in gens):
            raise InputError("tent check needs mu nonnegative on the cone")
        dp = delta_prime(G, mu)
        if dp.status == "infinite" or dp.value == NEG_INF:
            vacuous += 1
            continue
        checked += 1
        for v in points:
            lhs = evaluate_modified(G, v)
            if lhs == NEG_INF:
                continue
            if lhs > dp.value * dot(mu, v) + slack:
                failures.append({"mu": to_float(mu), "v": to_float(v),
                                 "lhs": float(lhs),
                                 "rhs": float(dp.value * dot(mu, v))})
    return {"checked": checked, "vacuous": vacuous, "failures": failures,
            "passed": not failures}


def limit_set_dim_bound(G: GrowthIndicator, roots) -> float:
    """max over the given simple roots of max over generators of rho/alpha.

    Empty input gives 0 by convention; touching a wall gives +inf.
    """
    roots = [vec(a) for a in roots]
    if not roots:
        return 0.0
    gens = G.cone.generators
    if gens is None:
        raise InputError("dimension bound needs cone generators")
    r = rho(G.root_system)
    best = Q(0)
    for a in roots:
        for g in gens:
            den = dot(a, g)
            if den == 0:
                return POS_INF
            best = max(best, dot(r, g) / den)
    return float(best)


def dominant_iota_classes(R):
    """Primitive sums w + iota(w) of fundamental weights, one per orbit."""
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


def random_growth_model(R, rng, iota_samples=200) -> GrowthIndicator:
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
            p = tuple(r)
            for u in classes:
                p = vec_add_scaled(p, Q(rng.randint(0, 3), rng.randint(1, 2)), u)
            pieces.append(vec(p))
        if rng.random() < 0.5:
            cone = dominant_cone(R)
        else:
            rays = chamber_rays(R)
            iota_v = iota_vector_matrix(R)
            gens = []
            for _ in range(rng.randint(1, 2)):
                cs = [Q(rng.randint(1, 4)) for _ in rays]
                g = vec([0] * R.rank)
                for c, ray in zip(cs, rays):
                    g = vec_add_scaled(g, c, ray)
                gens.append(primitive(g))
                gens.append(primitive(matvec(iota_v, g)))
            gens = list(dict.fromkeys(gens))
            hss = tuple(extreme_rays(gens, R.rank))
            cone = poly_cone(generators=gens, halfspaces=hss, rank=R.rank)
        G = build_growth_model(R, cone, pieces, iota_samples=iota_samples,
                               seed=rng.randint(0, 10**6))
        if modified_cone_nonempty(G):
            return G
    raise RuntimeError("failed to draw a model with positive top exponent")


def growth_model_to_json(G: GrowthIndicator) -> dict:
    return {"root_system": root_system_to_json(G.root_system),
            "cone": cone_to_json(G.cone),
            "pieces": [vec_to_json(p) for p in G.pieces]}


def growth_model_from_json(obj: dict) -> GrowthIndicator:
    """Parse and validate a model; malformed input raises InputError."""
    if not isinstance(obj, dict):
        raise InputError("a growth model must be a JSON object")
    missing = [k for k in ("root_system", "cone", "pieces") if k not in obj]
    if missing:
        raise InputError(f"growth model lacks {', '.join(missing)}")
    R = root_system_from_json(obj["root_system"])
    cone = cone_from_json(obj["cone"])
    if not isinstance(obj["pieces"], list):
        raise InputError("growth model pieces must be a list")
    pieces = [vec_from_json(p, R.rank, f"piece {p!r}") for p in obj["pieces"]]
    return build_growth_model(R, cone, pieces)


def delta_prime_report(G: GrowthIndicator, mu, modified=True) -> dict:
    """JSON-ready report {delta_prime, witness, status}."""
    dp = delta_prime(G, mu, modified=modified)
    if dp.value == POS_INF:
        value = "inf"
    elif dp.value == NEG_INF:
        value = "-inf"
    else:
        value = float(dp.value)
    return {"delta_prime": value,
            "witness": to_float(dp.witness) if dp.witness else None,
            "status": dp.status}
