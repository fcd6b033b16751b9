"""Solvers for the critical exponent maximum and the critical functional.

The critical functional mu_Gamma = max(0, delta') * <v'_Gamma, .> is computed
by two independent routes.  Route A projects the origin onto the super-level
polyhedron {psi' >= 1} and is authoritative: the projection is an exact
rational point, so mu_Gamma comes out exact and only the reported delta'
involves a square root.  Route B minimizes the scaled exponent over the
dominant involution-invariant covectors and serves as a cross-check: it is
the polar projection, a minimum-norm point in the class coefficients of the
involution classes of fundamental weights, and is exact as well, so the two
routes must agree exactly.  The nonpositive branch (delta' <= 0) is read off
the model's cached limit-cone rays and the vertices of {psi' >= -1}; no
quantity comes from a float search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from sys import float_info

from .cones import chamber_rays
from .errors import InputError, InternalError
from .growth import (GrowthIndicator, dominant_iota_classes,
                     growth_polytope_vertices, modified_cone_nonempty,
                     recession_rays, super_level_rows)
from .polyhedra import min_norm_point
from .rational import dot, lincomb, matvec, vec, vscale, vsub, vzero
from .rootsystem import fundamental_weights, memo


def covector_norm_sq(R, mu):
    return dot(mu, matvec(R.inner_product, mu))


def vector_norm_sq(R, v):
    return dot(v, matvec(R.gram_inv, v))


@dataclass(frozen=True)
class CriticalData:
    """Solved critical data.  mu_gamma_exact carries the rational functional
    behind the float mu_gamma whenever delta' > 0 (zeros otherwise)."""

    delta_prime_max: float
    v_gamma: tuple | None
    mu_gamma: tuple
    route_agreement: float
    mu_gamma_exact: tuple
    status: str


@memo("route_a")
def _route_a(G: GrowthIndicator) -> dict:
    """Route A: delta' and v'_Gamma, with mu_Gamma when delta' > 0.

    When the super-level polyhedron {psi' >= 1} is nonempty its minimum-norm
    point v* gives delta' = 1/|v*| and v'_Gamma = v*/|v*| exactly up to the
    final square root.  Otherwise delta' <= 0 and both come from the cached
    limit-cone rays or vertices (see _nonpositive_sup).  An empty cone
    yields -inf and no direction.
    """
    R = G.root_system
    n = R.rank
    if not G.cone.generators:
        return {"status": "empty-cone", "delta": float("-inf"), "v_unit": None,
                "v_exact": None, "mu_exact": vzero(n), "mu": (0.0,) * n}
    if modified_cone_nonempty(G):
        v_star = min_norm_point(*super_level_rows(G), R.gram_inv)
        if v_star is None:
            raise InternalError("projection disagrees with the super-level vertices")
        nsq = vector_norm_sq(R, v_star)
        mu_exact = vscale(Q(1) / nsq, matvec(R.gram_inv, v_star))
        return {"status": "positive", "delta": _floats((1,), nsq)[0],
                "v_unit": _floats(v_star, nsq),
                "v_exact": v_star, "mu_exact": mu_exact,
                "mu": _floats(mu_exact)}
    val, vdir = _nonpositive_sup(G)
    return {"status": "nonpositive", "delta": val, "v_unit": vdir,
            "v_exact": None, "mu_exact": vzero(n), "mu": (0.0,) * n}


def _nonpositive_sup(G: GrowthIndicator):
    """sup of psi'(v)/|v| over the cone and a unit vector attaining it,
    for a model with psi' <= 0 on the cone.

    The supremum is 0, attained along the first ray of the closed limit
    cone {psi' >= 0}, when that cone is nonzero.  Otherwise psi' < 0 away
    from the origin, {v in cone : psi'(v) >= -1} is a polytope, and by
    homogeneity the supremum is -1/|w| for its vertex w of largest norm.
    """
    R = G.root_system
    rays = recession_rays(G)
    if rays:
        return 0.0, _floats(rays[0], vector_norm_sq(R, rays[0]))
    w = max(growth_polytope_vertices(G, -1),
            key=lambda x: vector_norm_sq(R, x))
    nsq = vector_norm_sq(R, w)
    return _floats((-1,), nsq)[0], _floats(w, nsq)


def _floats(xs, nsq=1) -> tuple:
    """x / sqrt(nsq) as floats for rationals x and nsq > 0: float(x) /
    math.sqrt(nsq) if nsq is a normal double, else nsq is scaled by 4**-k into
    [1, 8) and x by 2**-k first, so no float between is 0 or overflows."""
    # 2**(nb-1) < nsq < 2**(nb+1), so the middle range of nb is normal
    nb = nsq.numerator.bit_length() - nsq.denominator.bit_length()
    k = 0 if -1021 <= nb <= 1022 or float_info.min <= nsq <= float_info.max else (nb - 1) // 2
    if k:
        nsq, xs = nsq / Q(4) ** k, [x / Q(2) ** k for x in xs]
    s = math.sqrt(nsq)
    try:
        return tuple(float(x) / s for x in xs)
    except OverflowError:
        raise InputError("a critical value lies beyond the float range") from None


def solve_mu_gamma_minimization(G: GrowthIndicator):
    """Route B: the exact polar projection, delta'_mu * mu at the optimum.

    A covector that is at least 1 on the super-level polyhedron
    {psi' >= 1} is at least 1 on its vertices (dominant covectors are
    nonnegative on its recession cone), so minimizing |mu| over dominant
    involution-invariant mu = sum x_i u_i, x >= 0, subject to mu(w) >= 1 on
    every vertex w is a projection in the class coefficients.  At the
    optimum min_w mu(w) = 1, so mu is already delta'_mu * mu.  Returns
    exact Fractions; zeros when delta' <= 0.
    """
    R = G.root_system
    n = R.rank
    verts = growth_polytope_vertices(G, 1)
    if not verts:
        return vzero(n)
    us = dominant_iota_classes(R)
    k = len(us)
    rows = [[Q(int(i == j)) for j in range(k)] for i in range(k)]
    rows.extend([dot(u, w) for u in us] for w in verts)
    b = [Q(0)] * k + [Q(1)] * len(verts)
    gram = [[dot(ui, matvec(R.inner_product, uj)) for uj in us] for ui in us]
    x = min_norm_point(rows, b, gram)
    if x is None:
        raise InternalError("route B found no feasible class coefficients")
    return lincomb(x, us)


@memo("critical_data")
def critical_data(G: GrowthIndicator) -> CriticalData:
    """Run both routes and package the result with their discrepancy.

    route_agreement is |mu_A - mu_B| / |mu_A| in the covector norm when
    mu_A is nonzero, else the absolute norm of mu_B; both routes are
    exact, so it is 0.0 unless they disagree.  The result is cached on
    the model, so report, gates and replays share one Route B run.
    """
    a = _route_a(G)
    mu_b = solve_mu_gamma_minimization(G)
    R = G.root_system
    gap_sq = covector_norm_sq(R, vsub(a["mu_exact"], mu_b))
    na_sq = covector_norm_sq(R, a["mu_exact"])
    if na_sq > 0:
        agreement = math.sqrt(gap_sq / na_sq)
    else:
        agreement = math.sqrt(gap_sq)
    return CriticalData(
        delta_prime_max=a["delta"], v_gamma=a["v_unit"], mu_gamma=a["mu"],
        route_agreement=agreement, mu_gamma_exact=a["mu_exact"],
        status=a["status"])


def theta_mu(mu_gamma, mu, R):
    """max over the chamber of mu_gamma(v)/mu(v).

    The maximum of a ratio of linear functionals over a polyhedral cone sits
    on an extremal ray, so only the chamber rays are inspected.  Exact
    rational for rational inputs (floats are read through their decimal
    repr); +inf when mu vanishes or goes negative on a ray that mu_gamma
    still charges.  Rays where both functionals vanish impose no
    constraint and are skipped.
    """
    mg, mm = vec(mu_gamma), vec(mu)
    if len(mg) != R.rank or len(mm) != R.rank:
        raise InputError("functionals must have length equal to the rank")
    ratios = []
    for v in chamber_rays(R):
        d = dot(mm, v)
        n = dot(mg, v)
        if d <= 0:
            if n > 0:
                return math.inf
            continue
        ratios.append(n / d)
    return max(ratios) if ratios else Q(0)


def critical_report(G: GrowthIndicator) -> dict:
    """JSON-ready summary: delta', v'_Gamma, mu_Gamma, route gap, and the
    theta values against each fundamental weight."""
    cd = critical_data(G)
    R = G.root_system
    theta = {}
    for i, w in enumerate(fundamental_weights(R), start=1):
        t = theta_mu(cd.mu_gamma_exact, w, R)
        # a string, as in the per-mu exponent table: json.dumps would
        # print a bare Infinity, which is not JSON
        theta[f"omega_{i}"] = "inf" if t == math.inf else _floats((t,))[0]
    delta = cd.delta_prime_max
    return {"delta_prime": delta if math.isfinite(delta) else "-inf",
            "v_gamma": list(cd.v_gamma) if cd.v_gamma is not None else None,
            "mu_gamma": list(cd.mu_gamma),
            "route_gap": cd.route_agreement,
            "theta": theta}
