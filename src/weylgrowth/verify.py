"""Verifiers for the geometric identities behind the growth models.

Two kinds of operation live here.  The unconditional checks
(check_keylemma, check_posofweight, check_rightangles, argmax_face, the
non-collinearity certificate inside deduce_twowalls) are linear-algebra
facts: a failure is a defect in this package, never interesting data,
and raises CheckFailure.  The deduction replays (deduce_onewall,
deduce_twowalls, check_psilinear) separate an attainment premise from a
conclusion; synthetic models may fail either, and the report says which
without ever asserting the conclusion on its own authority.
"""

import math
import random

from .errors import CheckFailure, InputError
from .rational import (
    Q,
    collinear,
    dot,
    is_zero,
    lincomb,
    nonneg_multiple_of,
    primitive,
    solve_unique,
    to_float,
    vec,
    vec_add_scaled,
    vscale,
    vsub,
)
from .rootsystem import (
    RootSystem,
    apply_iota,
    build_root_system,
    fundamental_weights,
    gram_images,
    iota_permutation,
    memo,
    rho,
    strongly_orthogonal_theta,
)
from .cones import avoids_facet, chamber_rays, closure, lemma_positivity, poly_cone
from .growth import (
    NEG_INF,
    POS_INF,
    delta_prime,
    dominant_iota_classes,
    evaluate,
    modified_cone_nonempty,
    modified_limit_cone,
    recession_rays,
)
from .critical import critical_data, theta_mu


def _simple_index(R: RootSystem, alpha) -> int:
    alpha = vec(alpha)
    for i, a in enumerate(R.simple_roots):
        if a == alpha:
            return i
    raise InputError(f"{alpha} is not a simple root of {R.label}")


def _her_dominant(R: RootSystem, mu):
    """Guard: exact dominant involution-invariant covector."""
    mu = vec(mu)
    if len(mu) != R.rank:
        raise InputError("covector length must equal the rank")
    if not R.is_dominant_covector(mu):
        raise InputError("precondition failure: covector is not dominant")
    # iota(w_i) = w_sigma(i) and iota is an isometric involution, so
    # <iota(mu), w_i> = <mu, w_sigma(i)>: mu is invariant iff those agree
    gws = gram_images(R)[1]
    if any(dot(mu, gws[i]) != dot(mu, gws[j])
           for i, j in iota_permutation(R).items() if i < j):
        raise InputError("precondition failure: covector is not involution-invariant")
    return mu


def invariant_direction(R: RootSystem, alpha):
    """w_a + iota(w_a): the dominant invariant direction attached to a wall."""
    i = _simple_index(R, alpha)
    ws = fundamental_weights(R)
    return vec_add_scaled(ws[i], Q(1), ws[iota_permutation(R)[i]])


# -- unconditional lemma checks ---------------------------------------------


@memo("keylemma_walls")
def _keylemma_walls(R: RootSystem) -> tuple:
    """Per simple root a_i: (u = w_i + iota(w_i), (<u, w_b> for every b))."""
    gws = gram_images(R)[1]
    out = []
    for a in R.simple_roots:
        u = invariant_direction(R, a)
        out.append((u, tuple(dot(u, gw) for gw in gws)))
    return tuple(out)


@memo("posofweight_walls")
def _posofweight_walls(R: RootSystem) -> tuple:
    """Per simple root a_i: (<a_i + iota(a_i), w_i>, <a_i + iota(a_i), a_i>)."""
    gas, gws = gram_images(R)
    out = []
    for i, a in enumerate(R.simple_roots):
        aia = vec_add_scaled(a, Q(1), apply_iota(R, a))
        out.append((dot(aia, gws[i]), dot(aia, gas[i])))
    return tuple(out)


def check_keylemma(R: RootSystem, mu, alpha) -> dict:
    """Wall-ratio dominance forces collinearity with the wall direction.

    Hypothesis family, exact: <mu, w_b> / <u, w_b> <= <mu, w_a> / <u, w_a>
    for every simple b, where u = w_a + iota(w_a).  When it holds, mu has
    to be a nonnegative multiple of u; anything else raises CheckFailure,
    because this is a theorem about the weight geometry, not a property
    of any particular model.
    """
    mu = _her_dominant(R, mu)
    i = _simple_index(R, alpha)
    u, dens = _keylemma_walls(R)[i]
    gws = gram_images(R)[1]
    if any(d <= 0 for d in dens):
        raise InputError("weight pairings must be strictly positive; "
                         "the ratio family needs an irreducible system")
    # cross-multiplied with positive denominators, so exact
    mu_i = dot(mu, gws[i])
    hyp = all(dot(mu, gws[b]) * dens[i] <= mu_i * dens[b] for b in range(R.rank))
    concl = nonneg_multiple_of(mu, u)
    if hyp and not concl:
        raise CheckFailure(
            f"collinearity lemma falsified: mu={mu} passes the ratio test "
            f"for wall {vec(alpha)} but is not a multiple of {u}")
    mult = None
    if concl:
        mult = Q(0) if is_zero(mu) else next(
            mu[k] / u[k] for k in range(R.rank) if u[k] != 0)
    return {"hypothesis_holds": hyp, "conclusion_holds": concl, "multiple": mult}


def check_posofweight(R: RootSystem, mu, alpha) -> dict:
    """<mu, a> is controlled by <mu, w_a> for dominant invariant mu.

    Exact inequality <mu, a> * <w_a, a + ia> <= <mu, w_a> * <a, a + ia>;
    the shared denominator <w_a, a + ia> equals half the squared length
    of a (doubled when ia = a) and is always positive.
    """
    mu = _her_dominant(R, mu)
    alpha = vec(alpha)
    i = _simple_index(R, alpha)
    gas, gws = gram_images(R)
    den, num = _posofweight_walls(R)[i]
    if den <= 0:
        raise CheckFailure(f"weight/root pairing degenerated at {alpha}")
    lhs = dot(mu, gas[i]) * den
    rhs = dot(mu, gws[i]) * num
    if lhs > rhs:
        raise CheckFailure(
            f"root-pairing bound falsified at mu={mu}, wall={alpha}: "
            f"{lhs} > {rhs}")
    return {"holds": True, "slack": rhs - lhs}


def _random_chamber_point(R: RootSystem, rng) -> tuple:
    rays = chamber_rays(R)
    while True:
        v = lincomb([Q(rng.randint(0, 8), rng.randint(1, 5)) for _ in rays], rays)
        if not is_zero(v):
            return v


def check_rightangles(R: RootSystem, samples: int = 100, seed: int = 0) -> dict:
    """Strict pairwise positivity of the chamber, <v, w> > 0 off the origin.

    The Gram matrix of the chamber rays is a finite certificate: every
    chamber point is a nonnegative ray combination, so positive ray
    pairings force positivity everywhere.  Random samples exercise the
    same fact with mixed denominators.  Needs irreducibility; a product
    system has orthogonal chamber directions.
    """
    if len(R.irreducible_components()) != 1:
        raise InputError("chamber positivity needs an irreducible system")
    rays = chamber_rays(R)
    for a in rays:
        for b in rays:
            if R.ip_vec(a, b) <= 0:
                raise CheckFailure(f"chamber rays {a}, {b} fail strict positivity")
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        v = _random_chamber_point(R, rng)
        w = _random_chamber_point(R, rng)
        if R.ip_vec(v, w) <= 0:
            failures.append({"v": [str(x) for x in v], "w": [str(x) for x in w]})
    return {"ray_certificate": True, "samples": samples, "failures": failures}


def argmax_face(R: RootSystem, mu, lam):
    """Face of the chamber where mu/lam attains its maximum.

    A ratio of linear functionals over a polyhedral cone is maximized on
    extremal rays, and a point attains the maximum iff its ray expansion
    only charges maximizing rays; the attainment set is therefore
    exactly the cone those rays span.
    """
    mu, lam = vec(mu), vec(lam)
    if len(mu) != R.rank or len(lam) != R.rank:
        raise InputError("functionals must have length equal to the rank")
    rays = chamber_rays(R)
    dens = [dot(lam, v) for v in rays]
    if any(d <= 0 for d in dens):
        raise InputError("the reference functional must be positive on every chamber ray")
    ratios = [dot(mu, v) / d for v, d in zip(rays, dens)]
    top = max(ratios)
    gens = tuple(v for v, r in zip(rays, ratios) if r == top)
    return poly_cone(generators=gens, rank=R.rank)


# -- deduction replays -------------------------------------------------------


def deduce_onewall(G, alpha) -> dict:
    """Replay: one avoided wall pins the critical functional's direction.

    premise_holds: the chamber maximum of mu over u = w_a + iota(w_a) is
    attained somewhere on the closure of the positive-growth subcone
    (exact, read from its extreme rays).  conclusion_holds: mu is a
    nonnegative multiple of u (zero included), decided exactly.  identity_exact
    additionally compares mu against max(0, sup of the modified model
    over u) times u, exactly.

    The report never asserts the conclusion from the premise: for
    synthetic models the premise can fail, and a conclusion failure is
    flagged as not realizable under the spectral identity.
    """
    R = G.root_system
    alpha = vec(alpha)
    _simple_index(R, alpha)
    Lp = modified_limit_cone(G)
    if not avoids_facet(R, closure(Lp), alpha):
        raise InputError(
            f"hypothesis failure: the positive-growth cone meets the wall of {alpha}")
    u = invariant_direction(R, alpha)
    cd = critical_data(G)
    mu = vec(cd.mu_gamma_exact)
    trivial = not modified_cone_nonempty(G)

    theta = theta_mu(mu, u, R)
    if trivial or theta == math.inf:
        premise = False
    else:
        # attainment: a closure point v with u(v) > 0 where the ratio hits
        # theta.  mu - theta*u <= 0 on the whole chamber, so a nonnegative
        # combination of the closure's extreme rays attains it iff one of
        # its rays does.
        slack = vsub(mu, vscale(theta, u))
        premise = any(dot(slack, r) == 0 and dot(u, r) > 0
                      for r in recession_rays(G, True))

    conclusion = nonneg_multiple_of(mu, u)
    dp = delta_prime(G, u)
    if dp.value == POS_INF:
        identity = False
    elif dp.value == NEG_INF:
        identity = is_zero(mu)
    else:
        scale = dp.value if dp.value > 0 else Q(0)
        identity = mu == vscale(scale, u)

    if trivial:
        status = "conclusion holds vacuously (zero critical functional)"
    elif premise and conclusion:
        status = "theorem instance verified"
    elif not conclusion:
        status = "not realizable under the spectral identity"
    else:
        status = "conclusion holds; attainment premise fails"
    return {
        "wall": list(to_float(alpha)),
        "direction": list(to_float(u)),
        "mu_gamma": list(cd.mu_gamma),
        "theta": float(theta),
        "delta_prime_direction": float(dp.value),
        "premise_holds": premise,
        "conclusion_holds": conclusion,
        "identity_exact": identity,
        "trivial": trivial,
        # premise true with conclusion false would contradict the replay's
        # own linear algebra; kept visible so it can never pass silently
        "deduction_violated": premise and not conclusion,
        "status": status,
    }


def deduce_twowalls(G, alpha, beta) -> dict:
    """Two avoided walls are incompatible with positive growth.

    The exactly certified content: the two wall directions are not
    collinear, so a nonzero critical functional cannot obey both
    one-wall conclusions at once.  When both attainment premises hold
    and the growth exponent is positive, the replay reports the head-on
    contradiction; under the spectral identity the functional must then
    vanish, so such a model is not realizable.
    """
    R = G.root_system
    alpha, beta = vec(alpha), vec(beta)
    i = _simple_index(R, alpha)
    j = _simple_index(R, beta)
    perm = iota_permutation(R)
    if i == j or perm[i] == j:
        raise InputError(
            "the two walls must be distinct and not swapped by the involution")
    ua = invariant_direction(R, alpha)
    ub = invariant_direction(R, beta)
    if collinear(ua, ub):
        raise CheckFailure(f"wall directions unexpectedly collinear: {ua}, {ub}")
    cert = next(
        {"indices": [k, m], "determinant": float(ua[k] * ub[m] - ua[m] * ub[k])}
        for k in range(R.rank) for m in range(k + 1, R.rank)
        if ua[k] * ub[m] != ua[m] * ub[k])

    rep_a = deduce_onewall(G, alpha)
    rep_b = deduce_onewall(G, beta)
    positive = modified_cone_nonempty(G)
    contradiction = positive and rep_a["premise_holds"] and rep_b["premise_holds"]
    if not positive:
        status = "corollary instance verified (zero critical functional)"
    else:
        status = "not realizable under the spectral identity"
    return {
        "walls": [list(to_float(alpha)), list(to_float(beta))],
        "noncollinearity": cert,
        "reports": [rep_a, rep_b],
        "mu_gamma_zero": not positive,
        "contradiction_established": contradiction,
        "status": status,
    }


def bound_wall_avoided(R: RootSystem, alpha):
    """Linear upper bound for models whose cone avoids one wall.

    c is the smallest chamber-ray ratio of (rho - Theta) to the
    primitive wall direction u; the bound functional is rho + c*u. Rays
    where u vanishes put no constraint on the minimum (the ratio is
    +infinity there), and (rho - Theta, u) is evaluated exactly.
    """
    alpha = vec(alpha)
    _simple_index(R, alpha)
    u = primitive(invariant_direction(R, alpha))
    _, theta = strongly_orthogonal_theta(R)
    gap = vsub(rho(R), theta)
    best = None
    for v in chamber_rays(R):
        num = dot(gap, v)
        den = dot(u, v)
        if num < 0:
            raise InputError("needs rho - Theta nonnegative on the chamber rays")
        if den > 0 and (best is None or num / den < best):
            best = num / den
    # u pairs positively with its own ray, so best is set
    return best, vec_add_scaled(rho(R), best, u)


def check_psilinear(G, samples: int = 200, seed: int = 0,
                    consistency: bool = False) -> dict:
    """Linearity of the model on the subcone the critical functional charges.

    The index set collects the simple roots with which mu pairs
    positively, decided exactly.  On nonnegative combinations of the corresponding
    invariant weight vectors the model should equal mu plus the half
    sum; sample points outside the model cone are counted separately.
    The inequality half (modified model at most mu everywhere on the
    cone) is certified exactly and unconditionally.  consistency=True
    turns equality failures into CheckFailure.
    """
    R = G.root_system
    cd = critical_data(G)
    mu = vec(cd.mu_gamma_exact)
    perm = iota_permutation(R)
    idx = [i for i, ga in enumerate(gram_images(R)[0]) if dot(mu, ga) > 0]
    gens = []
    seen = set()
    for i in idx:
        if i in seen:
            continue
        seen.update({i, perm[i]})
        gens.append(R.covector_to_vector(invariant_direction(R, R.simple_roots[i])))

    if is_zero(mu):
        tent = not modified_cone_nonempty(G)
    else:
        tent = delta_prime(G, mu).value <= 1

    rng = random.Random(seed)
    rh = rho(R)
    taken = failures = outside = 0
    if gens:
        for _ in range(samples):
            v = lincomb([Q(rng.randint(0, 9), rng.randint(1, 4)) for _ in gens], gens)
            if is_zero(v):
                continue
            taken += 1
            val = evaluate(G, v)
            if val == NEG_INF:
                outside += 1
            elif val != dot(mu, v) + dot(rh, v):
                failures += 1
    report = {
        "index_set": idx,
        "samples": taken,
        "equality_failures": failures,
        "outside_cone": outside,
        "tent_certified": bool(tent),
        "mode": "consistency" if consistency else "report",
    }
    if consistency and (failures or not tent):
        raise CheckFailure(f"linearity on the charged subcone failed: {report}")
    return report


# -- closed-form table -------------------------------------------------------


def _random_sorted_triple(rng):
    vals = sorted((Q(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(3)),
                  reverse=True)
    return tuple(vals)


def reproduce_b3_remark(samples: int = 60, seed: int = 0) -> dict:
    """Wall-ratio table for the rank-three system with a short end root.

    Checks three closed forms against the ray maximum: the sum of the
    entries (first weight), the larger of the first entry and half the
    sum (second weight), and the first entry alone (doubled third
    weight; doubling makes the input integral, which is the
    normalization the closed form's denominators correspond to).
    """
    R = build_root_system("b3")
    ws = fundamental_weights(R)
    inputs = (ws[0], ws[1], vscale(2, ws[2]))
    rng = random.Random(seed)
    fixed = [(Q(3), Q(2), Q(1)), (Q(1), Q(0), Q(0)), (Q(1), Q(1), Q(1))]
    rows = []
    failures = 0
    for m in fixed + [_random_sorted_triple(rng) for _ in range(samples)]:
        mu = vec(m)
        th = tuple(theta_mu(mu, w, R) for w in inputs)
        s = mu[0] + mu[1] + mu[2]
        closed = (s, max(mu[0], s / 2), mu[0])
        ok = th == closed
        failures += not ok
        rows.append({"mu": list(to_float(mu)), "theta": [float(t) for t in th],
                     "closed_form": [float(c) for c in closed], "match": ok})
    return {"rows": rows, "failures": failures}


# -- batch property runs -----------------------------------------------------


def _batch_keylemma(R, samples, seed):
    rng = random.Random(seed)
    classes = dominant_iota_classes(R)
    failures = []
    for k in range(samples):
        if k % 4 == 0:
            # exercise the hypothesis-true side with exact wall multiples
            mu = vscale(Q(rng.randint(0, 8), rng.randint(1, 3)),
                        classes[rng.randrange(len(classes))])
        else:
            mu = _random_her_covector(R, rng, classes)
        for a in R.simple_roots:
            try:
                check_keylemma(R, mu, a)
            except CheckFailure as e:
                failures.append({"mu": [str(x) for x in mu],
                                 "wall": [str(x) for x in a], "error": str(e)})
    return samples, failures


def _batch_posofweight(R, samples, seed):
    rng = random.Random(seed)
    classes = dominant_iota_classes(R)
    failures = []
    for _ in range(samples):
        mu = _random_her_covector(R, rng, classes)
        for a in R.simple_roots:
            try:
                check_posofweight(R, mu, a)
            except CheckFailure as e:
                failures.append({"mu": [str(x) for x in mu],
                                 "wall": [str(x) for x in a], "error": str(e)})
    return samples, failures


def _random_her_covector(R, rng, classes):
    """Nonnegative rational combination of the invariant weight directions."""
    # a draw below 0.25 leaves that wall uncharged
    return lincomb([Q(0) if rng.random() < 0.25
                    else Q(rng.randint(0, 9), rng.randint(1, 4)) for _ in classes],
                   classes)


def _batch_rightangles(R, samples, seed):
    report = check_rightangles(R, samples=samples, seed=seed)
    return report["samples"], report["failures"]


def _batch_positivity(R, samples, seed):
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        k = rng.randint(1, R.rank)
        sel = rng.sample(range(R.rank), k)
        vs = [R.simple_roots[i] for i in sel]
        gram_sel = [[R.ip(vs[a], vs[b]) for b in range(k)] for a in range(k)]
        d = [Q(rng.randint(0, 7), rng.randint(1, 3)) for _ in range(k)]
        # u is built to pair with vs exactly as d does, all entries >= 0
        u = lincomb(solve_unique(gram_sel, d), vs)
        try:
            lemma_positivity(vs, u, gram=R.inner_product)
        except CheckFailure as e:
            failures.append({"subset": sel, "pairings": [str(t) for t in d],
                             "error": str(e)})
    return samples, failures


def _batch_twowalls(R, samples, seed):
    perm = iota_permutation(R)
    failures = []
    pairs = 0
    for i in range(R.rank):
        for j in range(R.rank):
            if i == j or perm[i] == j:
                continue
            pairs += 1
            ua = invariant_direction(R, R.simple_roots[i])
            ub = invariant_direction(R, R.simple_roots[j])
            if collinear(ua, ub):
                failures.append({"pair": [i, j]})
    return pairs, failures


_LEMMA_RUNNERS = {
    "keylemma": _batch_keylemma,
    "posofweight": _batch_posofweight,
    "rightangles": _batch_rightangles,
    "positivity": _batch_positivity,
    "twowalls": _batch_twowalls,
}


def run_lemma_check(lemma: str, preset, samples: int = 1000, seed: int = 0,
                    mode: str = "report") -> dict:
    """Batch property run for one named identity over one preset.

    Returns {lemma, preset, samples, failures, mode}.  mode
    "consistency" raises CheckFailure on any recorded failure; "report"
    just counts.  preset may be a name or a built system.
    """
    R = preset if isinstance(preset, RootSystem) else build_root_system(preset)
    try:
        runner = _LEMMA_RUNNERS[lemma]
    except KeyError:
        raise InputError(f"unknown lemma check {lemma!r}; "
                         f"choose from {sorted(_LEMMA_RUNNERS)}") from None
    count, failures = runner(R, samples, seed)
    report = {"lemma": lemma, "preset": R.label, "samples": count,
              "failures": failures, "mode": mode}
    if mode == "consistency" and failures:
        raise CheckFailure(f"{lemma} recorded {len(failures)} failures on {R.label}")
    return report
