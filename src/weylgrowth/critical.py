"""Solvers for the critical exponent maximum and the critical functional.

The critical functional mu_Gamma = max(0, delta') * <v'_Gamma, .> is computed
by two independent routes.  Route A projects the origin onto the super-level
polyhedron {psi' >= 1} and is authoritative: the projection is an exact
rational point, so mu_Gamma comes out exact and only the reported delta'
involves a square root.  Route B minimizes the scaled exponent over the
dominant involution-invariant covectors and serves as a cross-check; it is a
float search (multi-start grid plus nested golden-section line descent) whose
result is snapped back into exact arithmetic at the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product

from .cones import chamber_rays
from .errors import InputError
from .growth import (GrowthIndicator, _with_both_reps, dominant_iota_classes,
                     growth_polytope_vertices, modified_cone_nonempty)
from .polyhedra import min_norm_point
from .rational import (dot, mat_to_float, matvec, to_float, vec,
                       vscale, vsub, vzero)
from .rootsystem import fundamental_weights, rho

MULTISTARTS_DEFAULT = 32


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
               "v_unit": tuple(float(x) * delta for x in v_star),
               "v_exact": v_star, "mu_exact": mu_exact,
               "mu": tuple(float(x) for x in mu_exact)}
    else:
        val, vdir = _sphere_scan(G)
        out = {"status": "nonpositive", "delta": val, "v_unit": vdir,
               "v_exact": None, "mu_exact": vzero(n), "mu": (0.0,) * n}
    G._cache["route_a"] = out
    return out


def solve_delta_prime_max(G: GrowthIndicator):
    """(delta', v'_Gamma): the largest modified growth value on the unit
    sphere and a unit vector attaining it.

    When the super-level polyhedron {psi' >= 1} is nonempty its minimum-norm
    point v* gives delta' = 1/|v*| and v'_Gamma = v*/|v*| exactly up to the
    final square root.  Otherwise delta' <= 0 is certified by an exact
    feasibility test and the returned values come from a grid scan of the
    sphere (reporting precision only).  An empty cone yields -inf and None.
    """
    a = _route_a(G)
    return a["delta"], a["v_unit"]


def _sphere_scan(G: GrowthIndicator, rounds=5):
    """Grid maximization of psi'(v)/|v| over the cone section.

    Only used when the value is known to be <= 0; the scan is for reporting,
    not certification, so plain refinement of the best grid cell is enough.
    """
    R = G.root_system
    gens = [to_float(g) for g in G.cone.generators]
    ginv = mat_to_float(R.gram_inv)
    r = rho(R)
    shifted = [to_float(vsub(p, r)) for p in G.pieces]
    m = len(gens)
    n = R.rank

    def val_and_vec(x):
        v = [sum(x[i] * gens[i][j] for i in range(m)) for j in range(n)]
        nsq = sum(v[i] * ginv[i][j] * v[j] for i in range(n) for j in range(n))
        nrm = math.sqrt(nsq)
        psi = min(sum(s[j] * v[j] for j in range(n)) for s in shifted)
        return psi / nrm, tuple(c / nrm for c in v)

    if m == 1:
        return val_and_vec((1.0,))

    def simplex_pts(step_count):
        for c in product(range(step_count + 1), repeat=m - 1):
            if sum(c) <= step_count:
                x = [ci / step_count for ci in c]
                yield tuple(x) + (1.0 - sum(x),)

    steps = {2: 4000, 3: 140, 4: 40}.get(m, 16)
    best_x = max(simplex_pts(steps), key=lambda x: val_and_vec(x)[0])
    h = 1.0 / steps
    for _ in range(rounds):
        h /= 8.0
        cands = []
        for off in product((-2, -1, 0, 1, 2), repeat=m - 1):
            x = [best_x[i] + off[i] * h for i in range(m - 1)]
            if all(c >= 0 for c in x) and sum(x) <= 1.0:
                cands.append(tuple(x) + (1.0 - sum(x),))
        best_x = max(cands, key=lambda x: val_and_vec(x)[0])
    return val_and_vec(best_x)


def _golden(f, a, b, iters):
    """Maximize a unimodal function on [a, b]; returns (argmax, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
    mid = (a + b) / 2.0
    return mid, f(mid)


def _simplex_max(fun, k, starts, iters=70):
    """Global maximum of a quasiconcave function on the standard simplex.

    Nested golden-section searches: every line restriction and every
    coordinate projection of a quasiconcave function is unimodal, so the
    nesting is globally correct.  A start grid provides a floor value.
    """
    if k == 1:
        return (1.0,), fun((1.0,))

    def nested(prefix, remaining):
        if remaining == 1:
            x = prefix + (1.0 - sum(prefix),)
            return x, fun(x)
        budget = iters if k <= 3 else max(24, iters // (k - 1))
        free = 1.0 - sum(prefix)

        def g(s):
            return nested(prefix + (free * s,), remaining - 1)[1]

        s_best, _ = _golden(g, 0.0, 1.0, budget)
        return nested(prefix + (free * s_best,), remaining - 1)

    x_best, f_best = nested((), k)
    level = 1
    while math.comb(level + k - 1, k - 1) < starts:
        level += 1
    for c in product(range(level + 1), repeat=k - 1):
        if sum(c) <= level:
            x = tuple(ci / level for ci in c) + ((level - sum(c)) / level,)
            fx = fun(x)
            if fx > f_best:
                x_best, f_best = x, fx
    return x_best, f_best


def solve_mu_gamma_minimization(G: GrowthIndicator, *,
                                multistarts=MULTISTARTS_DEFAULT):
    """Route B: minimize |mu| * delta'_mu over dominant involution-invariant
    covectors mu and return delta'_mu * mu at the optimum, as floats.

    For a dominant mu the exponent is 1/min over the super-level polyhedron
    vertices of mu, so the objective is an exact ratio of piecewise-linear
    over norm; the search runs on the coefficient simplex of the involution
    classes of fundamental weights.  Returns zeros when delta' <= 0.
    """
    R = G.root_system
    n = R.rank
    zero = (0.0,) * n
    if not G.cone.generators or not modified_cone_nonempty(G):
        return zero
    us = dominant_iota_classes(R)
    verts = growth_polytope_vertices(G, True)
    if not verts:
        raise RuntimeError("positive exponent but no super-level vertices")
    k = len(us)
    uvals = [[float(dot(u, w)) for u in us] for w in verts]
    m = [[float(dot(us[i], matvec(R.inner_product, us[j]))) for j in range(k)]
         for i in range(k)]

    def fx(x):
        h = min(sum(xc * uw for xc, uw in zip(x, row)) for row in uvals)
        nsq = sum(x[i] * m[i][j] * x[j] for i in range(k) for j in range(k))
        return h / math.sqrt(nsq) if nsq > 0 else 0.0

    x_best, _ = _simplex_max(fx, k, multistarts)
    mu = vzero(n)
    for c, u in zip(x_best, us):
        if c > 0:
            mu = vec(a + Q(c) * b for a, b in zip(mu, u))
    low = min(dot(mu, w) for w in verts)
    if low <= 0:
        raise RuntimeError("route B landed on a degenerate direction")
    return tuple(float(c) for c in vscale(Q(1) / low, mu))


def critical_data(G: GrowthIndicator, *,
                  multistarts=MULTISTARTS_DEFAULT) -> CriticalData:
    """Run both routes and package the result with their discrepancy.

    route_agreement is |mu_A - mu_B| / |mu_A| in the covector norm when
    mu_A is nonzero, else the absolute norm of mu_B.  The result is
    cached on the model per multistarts, so report, gates and replays
    share one Route B run.
    """
    key = ("critical", multistarts)
    if key in G._cache:
        return G._cache[key]
    a = _route_a(G)
    mu_b = solve_mu_gamma_minimization(G, multistarts=multistarts)
    R = G.root_system
    diff = vsub(a["mu_exact"], vec(Q(c) for c in mu_b))
    gap_sq = covector_norm_sq(R, diff)
    na_sq = covector_norm_sq(R, a["mu_exact"])
    if na_sq > 0:
        agreement = math.sqrt(gap_sq / na_sq)
    else:
        agreement = math.sqrt(gap_sq)
    G._cache[key] = CriticalData(
        delta_prime_max=a["delta"], v_gamma=a["v_unit"], mu_gamma=a["mu"],
        route_agreement=agreement, mu_gamma_exact=a["mu_exact"],
        status=a["status"])
    return G._cache[key]


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


def critical_report(G: GrowthIndicator, *,
                    multistarts=MULTISTARTS_DEFAULT) -> dict:
    """JSON-ready summary: delta', v'_Gamma, mu_Gamma, route gap, and the
    theta values against each fundamental weight."""
    cd = critical_data(G, multistarts=multistarts)
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
