"""Solvers for the critical exponent maximum and the critical functional.

The critical functional mu_Gamma = max(0, delta') * <v'_Gamma, .> is computed
by two independent routes.  Route A projects the origin onto the super-level
polyhedron {psi' >= 1} and is authoritative: the projection is an exact
rational point, so mu_Gamma comes out exact and only the reported delta'
involves a square root.  Route B minimizes the scaled exponent over the
dominant involution-invariant covectors and serves as a cross-check: it is
the polar projection, a minimum-norm point in the class coefficients of the
involution classes of fundamental weights, and is exact as well, so the two
routes must agree exactly.  The nonpositive branch (delta' <= 0) is read off an
exact feasibility test and a vertex scan; no quantity comes from a float
search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q

from .cones import chamber_rays
from .errors import InputError
from .growth import (GrowthIndicator, _with_both_reps, dominant_iota_classes,
                     growth_polytope_vertices, modified_cone_nonempty)
from .polyhedra import lp_feasible_ineq, min_norm_point, vertices_of_polyhedron
from .rational import dot, matvec, vec, vec_add_scaled, vscale, vsub, vzero
from .rootsystem import fundamental_weights, rho


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


def _route_a(G: GrowthIndicator) -> dict:
    if "route_a" in G._cache:
        return G._cache["route_a"]
    R = G.root_system
    n = R.rank
    C = _with_both_reps(G.cone, n)
    if not C.generators:
        out = {"status": "empty-cone", "delta": float("-inf"), "v_unit": None,
               "v_exact": None, "mu_exact": vzero(n), "mu": (0.0,) * n}
    elif modified_cone_nonempty(G):
        rows = [list(h) for h in C.halfspaces]
        b = [Q(0)] * len(rows)
        r = rho(R)
        for p in G.pieces:
            rows.append(list(vsub(p, r)))
            b.append(Q(1))
        v_star = min_norm_point(rows, b, R.gram_inv)
        if v_star is None:
            raise RuntimeError("projection disagrees with the feasibility screen")
        nsq = vector_norm_sq(R, v_star)
        delta = 1 / math.sqrt(nsq)
        mu_exact = vscale(Q(1) / nsq, matvec(R.gram_inv, v_star))
        out = {"status": "positive", "delta": delta,
               "v_unit": _direction(R, v_star),
               "v_exact": v_star, "mu_exact": mu_exact,
               "mu": tuple(float(x) for x in mu_exact)}
    else:
        val, vdir = _nonpositive_sup(G)
        out = {"status": "nonpositive", "delta": val, "v_unit": vdir,
               "v_exact": None, "mu_exact": vzero(n), "mu": (0.0,) * n}
    G._cache["route_a"] = out
    return out


def solve_delta_prime_max(G: GrowthIndicator):
    """(delta', v'_Gamma): the largest modified growth value on the unit
    sphere and a unit vector attaining it.

    When the super-level polyhedron {psi' >= 1} is nonempty its minimum-norm
    point v* gives delta' = 1/|v*| and v'_Gamma = v*/|v*| exactly up to the
    final square root.  Otherwise delta' <= 0 and both come from an exact
    feasibility test or an exact vertex scan (see _nonpositive_sup), again
    up to the final square root; there is no grid scan.  An empty cone
    yields -inf and None.
    """
    a = _route_a(G)
    return a["delta"], a["v_unit"]


def _nonpositive_sup(G: GrowthIndicator):
    """sup of psi'(v)/|v| over the cone and a unit vector attaining it,
    for a model with psi' <= 0 on the cone.

    The supremum is 0 when psi' vanishes at some nonzero cone point (rho is
    positive there, so rho(v) >= 1 rules out the origin).  Otherwise
    psi' < 0 away from the origin, {v in cone : psi'(v) >= -1} is a
    polytope, and by homogeneity the supremum is -1/|w| for its vertex w
    of largest norm.
    """
    R = G.root_system
    r = rho(R)
    cone = [list(h) for h in G.cone.halfspaces]
    shifted = [list(vsub(p, r)) for p in G.pieces]
    zeros = [Q(0)] * (len(cone) + len(shifted))
    v = lp_feasible_ineq(cone + shifted + [list(r)], zeros + [Q(1)])
    if v is not None:
        return 0.0, _direction(R, v)
    verts = vertices_of_polyhedron(
        cone + shifted, [Q(0)] * len(cone) + [Q(-1)] * len(shifted))
    w = max(verts, key=lambda x: vector_norm_sq(R, x))
    return -1 / math.sqrt(vector_norm_sq(R, w)), _direction(R, w)


def _direction(R, v):
    """v / |v| as floats."""
    nrm = math.sqrt(vector_norm_sq(R, v))
    return tuple(float(x) / nrm for x in v)


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
    if not G.cone.generators or not modified_cone_nonempty(G):
        return vzero(n)
    us = dominant_iota_classes(R)
    verts = growth_polytope_vertices(G, True)
    if not verts:
        raise RuntimeError("positive exponent but no super-level vertices")
    k = len(us)
    rows = [[Q(int(i == j)) for j in range(k)] for i in range(k)]
    rows.extend([dot(u, w) for u in us] for w in verts)
    b = [Q(0)] * k + [Q(1)] * len(verts)
    gram = [[dot(ui, matvec(R.inner_product, uj)) for uj in us] for ui in us]
    x = min_norm_point(rows, b, gram)
    if x is None:
        raise RuntimeError("route B found no feasible class coefficients")
    mu = vzero(n)
    for c, u in zip(x, us):
        mu = vec_add_scaled(mu, c, u)
    return mu


def critical_data(G: GrowthIndicator) -> CriticalData:
    """Run both routes and package the result with their discrepancy.

    route_agreement is |mu_A - mu_B| / |mu_A| in the covector norm when
    mu_A is nonzero, else the absolute norm of mu_B; both routes are
    exact, so it is 0.0 unless they disagree.  The result is cached on
    the model, so report, gates and replays share one Route B run.
    """
    if "critical" in G._cache:
        return G._cache["critical"]
    a = _route_a(G)
    mu_b = solve_mu_gamma_minimization(G)
    R = G.root_system
    gap_sq = covector_norm_sq(R, vsub(a["mu_exact"], mu_b))
    na_sq = covector_norm_sq(R, a["mu_exact"])
    if na_sq > 0:
        agreement = math.sqrt(gap_sq / na_sq)
    else:
        agreement = math.sqrt(gap_sq)
    G._cache["critical"] = CriticalData(
        delta_prime_max=a["delta"], v_gamma=a["v_unit"], mu_gamma=a["mu"],
        route_agreement=agreement, mu_gamma_exact=a["mu_exact"],
        status=a["status"])
    return G._cache["critical"]


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
        theta[f"omega_{i}"] = float(t)
    delta = cd.delta_prime_max
    return {"delta_prime": delta if math.isfinite(delta) else "-inf",
            "v_gamma": list(cd.v_gamma) if cd.v_gamma is not None else None,
            "mu_gamma": list(cd.mu_gamma),
            "route_gap": cd.route_agreement,
            "theta": theta}
