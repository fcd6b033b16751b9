"""Polyhedral cones in the chamber and its dual side.

Cones live on the vector side a; their halfspaces are covectors acting
by the plain dot product. Duality here is evaluation duality, so the
dual of a cone in a is a cone in a* and vice versa; no inner product is
involved. Both representations are exact rational.
"""

import math
from dataclasses import dataclass
from operator import mul

from .errors import InputError
from .polyhedra import conic_member, extreme_rays
from .rational import (
    cleared_rows,
    dot,
    inverse,
    is_zero,
    matvec,
    primitive,
    transpose,
    vec,
)
from .rootsystem import (
    dominant_descent,
    json_rows,
    memo,
    vec_from_json,
    vec_to_json,
    weyl_group,
)


@dataclass(frozen=True)
class PolyCone:
    """A closed rational polyhedral cone, optionally flagged open.

    generators: tuple of nonzero vectors, or None.
    halfspaces: tuple of covectors h with the cone = {v : h(v) >= 0},
    or None. At least one of the two is always present. The open flag
    marks cones whose membership is meant strictly (the closure is what
    the two representations describe).
    """

    rank: int
    generators: tuple | None = None
    halfspaces: tuple | None = None
    open_flag: bool = False


def poly_cone(generators=None, halfspaces=None, rank=None, open_flag=False):
    """Validating constructor for PolyCone."""
    gens = tuple(vec(g) for g in generators) if generators is not None else None
    hss = tuple(vec(h) for h in halfspaces) if halfspaces is not None else None
    if gens is None and hss is None:
        raise InputError("a cone needs generators or halfspaces")
    if rank is None:
        if not (gens or hss):
            raise InputError("cannot infer the ambient rank of an empty cone")
        rank = len((gens or hss)[0])
    for g in gens or ():
        if len(g) != rank:
            raise InputError("generator length does not match the rank")
        if is_zero(g):
            raise InputError("cone generators must be nonzero")
    for h in hss or ():
        if len(h) != rank:
            raise InputError("halfspace length does not match the rank")
    if gens is not None and hss is not None:
        bad = [g for g in gens if any(dot(h, g) < 0 for h in hss)]
        if bad:
            raise InputError(f"generator {bad[0]} violates a halfspace")
        for r in extreme_rays(hss, rank):
            if not conic_member(gens, r):
                raise InputError(
                    f"halfspace ray {r} is not generated: representations disagree")
    return PolyCone(rank=rank, generators=gens, halfspaces=hss, open_flag=open_flag)


def closure(C: PolyCone) -> PolyCone:
    return PolyCone(rank=C.rank, generators=C.generators,
                    halfspaces=C.halfspaces, open_flag=False)


@memo("chamber_rays")
def chamber_rays(R) -> tuple:
    """Primitive extremal rays v_beta of a+, dual basis to the simple roots."""
    cols = inverse([list(b) for b in R.simple_roots])
    return tuple(primitive(tuple(cols[i][j] for i in range(R.rank)))
                 for j in range(R.rank))


@memo("dominant_cone")
def dominant_cone(R) -> PolyCone:
    """The closed chamber a+ with both representations."""
    return poly_cone(generators=chamber_rays(R), halfspaces=R.simple_roots,
                     rank=R.rank)


def avoids_facet(R, C: PolyCone, alpha) -> bool:
    """Does C meet the chamber wall ker(alpha) only at the origin?

    C must sit inside a+, where alpha >= 0, so this reduces to strict
    positivity on every generator.
    """
    alpha = vec(alpha)
    if C.generators is None:
        raise InputError("avoids_facet needs a generator representation")
    for g in C.generators:
        if any(dot(b, g) < 0 for b in R.simple_roots):
            raise InputError(f"cone generator {g} lies outside the chamber")
    return all(dot(alpha, g) > 0 for g in C.generators)


def conv_hull_member(R, lam, mu) -> bool:
    """Is lam in the convex hull of the Weyl orbit of the dominant mu?

    Dominance-order criterion: true iff mu minus the dominant
    representative of lam is a nonnegative combination of simple roots.
    The chamber rays are the dual basis of the simple roots up to
    positive scale, so each coefficient has the sign of the pairing with
    its ray.
    """
    lam = vec(lam)
    mu = vec(mu)
    if not R.is_dominant_covector(mu):
        raise InputError("conv_hull_member needs a dominant reference covector")
    lam_plus, _ = dominant_descent(R, lam)
    return all(dot(mu, v) >= dot(lam_plus, v) for v in chamber_rays(R))


@memo("orbit_ray_rows")
def _orbit_ray_rows(R) -> tuple:
    """(D, rows): D * w^T v for every w in W and chamber ray v, as integers
    over one common denominator, with the ray's index; lam(w v) is then
    dot(lam, w^T v)."""
    pairs = [(j, matvec(transpose(w), v))
             for w in weyl_group(R) for j, v in enumerate(chamber_rays(R))]
    D, rows = cleared_rows([row for _, row in pairs])
    return D, tuple(zip((j for j, _ in pairs), rows))


def conv_hull_member_enumeration(R, lam, mu) -> bool:
    """Brute-force hull membership over the whole Weyl orbit.

    Checks lam(w v) <= mu(v) for every w in W and every chamber ray v.
    Exponential in the group order; kept as an oracle for the
    dominance-order criterion at small rank.
    """
    lam = vec(lam)
    mu = vec(mu)
    if not R.is_dominant_covector(mu):
        raise InputError("conv_hull_member needs a dominant reference covector")
    D, rows = _orbit_ray_rows(R)
    L, (lam_ints,) = cleared_rows([lam])
    # an integer exceeds a rational bound iff it exceeds the bound's floor
    bounds = [math.floor(dot(mu, v) * L * D) for v in chamber_rays(R)]
    return all(sum(map(mul, lam_ints, row)) <= bounds[j] for j, row in rows)


def cone_to_json(C: PolyCone) -> dict:
    out = {"open": C.open_flag}
    if C.generators is not None:
        out["generators"] = [vec_to_json(g) for g in C.generators]
    if C.halfspaces is not None:
        out["halfspaces"] = [vec_to_json(h) for h in C.halfspaces]
    return out


def cone_from_json(obj: dict) -> PolyCone:
    """Parse and validate a cone; malformed input raises InputError.

    The ambient rank is the length of the first vector given.
    """
    if not isinstance(obj, dict):
        raise InputError("cone JSON must be an object")
    rank, reps = None, {}
    for key in ("generators", "halfspaces"):
        rows = obj.get(key)
        if rows is None:
            continue
        if json_rows(rows, f"cone {key}") and rank is None:
            rank = len(rows[0])
        reps[key] = [vec_from_json(r, rank, f"cone {key} entry {r!r}") for r in rows]
    open_flag = obj.get("open", False)
    if not isinstance(open_flag, bool):
        raise InputError("cone 'open' must be true or false")
    return poly_cone(**reps, open_flag=open_flag)
