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
    cleared_rows,
    collinear,
    dot,
    idot,
    inverse,
    is_zero,
    lincomb,
    nonneg_multiple_of,
    pairing_table,
    primitive,
    rank as mat_rank,
    to_float,
    vadd,
    vec,
    vec_add_scaled,
    vscale,
    vsub,
)
from .rootsystem import (
    RootSystem,
    build_root_system,
    fundamental_weights,
    gram_images,
    iota_permutation,
    memo,
    rho,
    strongly_orthogonal_theta,
    wall_directions,
)
from .cones import avoids_facet, chamber_rays, closure, poly_cone
from .growth import (
    NEG_INF,
    POS_INF,
    delta_prime,
    dominant_iota_classes,
    modified_cone_nonempty,
    modified_limit_cone,
    recession_rays,
)
from .critical import critical_data, theta_mu


def _check_samples(samples) -> None:
    if samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples}")


def _simple_index(R: RootSystem, alpha) -> int:
    alpha = vec(alpha)
    for i, a in enumerate(R.simple_roots):
        if a == alpha:
            return i
    raise InputError(f"{alpha} is not a simple root of {R.label}")


def invariant_direction(R: RootSystem, alpha):
    """w_a + iota(w_a): the dominant invariant direction attached to a wall."""
    return wall_directions(R)[_simple_index(R, alpha)]


# -- unconditional lemma checks ---------------------------------------------
#
# Every lemma test here is homogeneous in its sample: scaling the sample by
# a positive integer changes neither hypothesis nor conclusion.  So each
# sample is decided as one integer row, a positive multiple of the
# covector, against constant data cleared to integers over one common
# denominator per family (fraction-free, as rational._rref is).  Fractions
# are built only to report a failure.  check_keylemma and check_posofweight
# are one-sample calls of the batch tests.

# a multiple of every denominator the sampled checks draw (1 to 5), so a
# drawn coefficient times _DRAW_SCALE is an integer
_DRAW_SCALE = 60


def _as_fractions(x, scale) -> tuple:
    return tuple(Q(v, scale) for v in x)


@memo("pairing_ints")
def _pairing_ints(R: RootSystem) -> tuple:
    """((D_a, G a_i rows), (D_w, G w_i rows), iota-swapped pairs i < j).

    Each family of gram_images rows is cleared to integers over its own
    common denominator D.
    """
    gas, gws = gram_images(R)
    pairs = tuple((i, j) for i, j in iota_permutation(R).items() if i < j)
    return cleared_rows(gas), cleared_rows(gws), pairs


def _her_pairings(R: RootSystem, x) -> tuple[list, list]:
    """Guard: the integer covector x is dominant and involution-invariant.

    Returns its pairings with the simple roots and with the fundamental
    weights, each family up to its own positive scale.
    """
    (_, gas), (_, gws), pairs = _pairing_ints(R)
    pa = [idot(x, g) for g in gas]
    if min(pa) < 0:
        raise InputError("precondition failure: covector is not dominant")
    # iota(w_i) = w_sigma(i) and iota is an isometric involution, so
    # <iota(mu), w_i> = <mu, w_sigma(i)>: mu is invariant iff those agree
    pw = [idot(x, g) for g in gws]
    if any(pw[i] != pw[j] for i, j in pairs):
        raise InputError("precondition failure: covector is not involution-invariant")
    return pa, pw


def _covector_ints(R: RootSystem, mu) -> tuple[tuple, int, list]:
    """(mu, L, L * mu as integers) for an input covector, L its lcm of
    denominators, after the guards; InputError otherwise."""
    mu = vec(mu)
    if len(mu) != R.rank:
        raise InputError("covector length must equal the rank")
    L, (x,) = cleared_rows([mu])
    _her_pairings(R, x)
    return mu, L, x


@memo("keylemma_walls")
def _keylemma_walls(R: RootSystem) -> tuple:
    """Per simple root a_i: (u = w_i + iota(w_i), (<u, w_b> for every b))."""
    gws = gram_images(R)[1]
    return tuple((u, tuple(dot(u, gw) for gw in gws)) for u in wall_directions(R))


@memo("posofweight_walls")
def _posofweight_walls(R: RootSystem) -> tuple:
    """Per simple root a_i: (<v, w_i>, <v, a_i>) for v = a_i + iota(a_i) = a_i + a_sigma(i)."""
    gas, gws = gram_images(R)
    sigma = iota_permutation(R)
    out = []
    for i, a in enumerate(R.simple_roots):
        aia = vadd(a, R.simple_roots[sigma[i]])
        out.append((dot(aia, gws[i]), dot(aia, gas[i])))
    return tuple(out)


@memo("keylemma_ints")
def _keylemma_ints(R: RootSystem) -> tuple:
    """Per wall: (t with u[t] != 0, u and its pairings <u, w_b> each cleared
    to integers, whether every pairing is positive)."""
    out = []
    for u, dens in _keylemma_walls(R):
        (u,), (d,) = cleared_rows([u])[1], cleared_rows([dens])[1]
        out.append((next(k for k, c in enumerate(u) if c), u, d, min(d) > 0))
    return tuple(out)


def _keylemma_verdicts(R: RootSystem, x, walls) -> list:
    """(hypothesis, conclusion) of the collinearity lemma at each wall index,
    for the integer covector x, a positive multiple of mu.

    The ratio test is cross-multiplied with positive denominators.  mu is
    a nonnegative multiple of u iff its 2x2 minors against u vanish in the
    column t where u is nonzero, and mu[t] has the sign of u[t].
    """
    _, pw = _her_pairings(R, x)
    data = _keylemma_ints(R)
    out = []
    for i in walls:
        t, u, d, positive = data[i]
        if not positive:
            raise InputError("weight pairings must be strictly positive; "
                             "the ratio family needs an irreducible system")
        p_i, d_i = pw[i], d[i]
        hyp = all(p * d_i <= p_i * e for p, e in zip(pw, d))
        u_t, x_t = u[t], x[t]
        concl = x_t * u_t >= 0 and all(u_t * a == x_t * b for a, b in zip(x, u))
        out.append((hyp, concl))
    return out


def _keylemma_error(R: RootSystem, mu, i) -> str:
    return (f"collinearity lemma falsified: mu={mu} passes the ratio test "
            f"for wall {R.simple_roots[i]} but is not a multiple of "
            f"{_keylemma_walls(R)[i][0]}")


def check_keylemma(R: RootSystem, mu, alpha) -> dict:
    """Wall-ratio dominance forces collinearity with the wall direction.

    Hypothesis family, exact: <mu, w_b> / <u, w_b> <= <mu, w_a> / <u, w_a>
    for every simple b, where u = w_a + iota(w_a).  When it holds, mu has
    to be a nonnegative multiple of u; anything else raises CheckFailure,
    because this is a theorem about the weight geometry, not a property
    of any particular model.
    """
    mu, _, x = _covector_ints(R, mu)
    i = _simple_index(R, alpha)
    [(hyp, concl)] = _keylemma_verdicts(R, x, (i,))
    if hyp and not concl:
        raise CheckFailure(_keylemma_error(R, mu, i))
    mult = None
    if concl:
        u = _keylemma_walls(R)[i][0]
        mult = Q(0) if is_zero(mu) else next(
            mu[k] / u[k] for k in range(R.rank) if u[k] != 0)
    return {"hypothesis_holds": hyp, "conclusion_holds": concl, "multiple": mult}


@memo("posofweight_ints")
def _posofweight_ints(R: RootSystem) -> tuple:
    """Per wall: (den > 0, A, B) such that the bound
    <mu, a_i> * den <= <mu, w_i> * num reads pa[i] * A <= pw[i] * B on the
    integer pairings of _her_pairings, for (den, num) the wall's pair."""
    (Da, _), (Dw, _), _ = _pairing_ints(R)
    return tuple((den > 0, Dw * den.numerator * num.denominator,
                  Da * num.numerator * den.denominator)
                 for den, num in _posofweight_walls(R))


def _posofweight_sides(R: RootSystem, mu, i) -> tuple:
    gas, gws = gram_images(R)
    den, num = _posofweight_walls(R)[i]
    return dot(mu, gas[i]) * den, dot(mu, gws[i]) * num


def _posofweight_errors(R: RootSystem, x, scale, walls) -> list:
    """(wall index, message) for each wall where the root-pairing bound
    fails at mu = x / scale, x an integer row."""
    pa, pw = _her_pairings(R, x)
    data = _posofweight_ints(R)
    out = []
    for i in walls:
        positive, A, B = data[i]
        if not positive:
            out.append((i, f"weight/root pairing degenerated at {R.simple_roots[i]}"))
        elif pa[i] * A > pw[i] * B:
            mu = _as_fractions(x, scale)
            lhs, rhs = _posofweight_sides(R, mu, i)
            out.append((i, f"root-pairing bound falsified at mu={mu}, "
                           f"wall={R.simple_roots[i]}: {lhs} > {rhs}"))
    return out


def check_posofweight(R: RootSystem, mu, alpha) -> dict:
    """<mu, a> is controlled by <mu, w_a> for dominant invariant mu.

    Exact inequality <mu, a> * <w_a, a + ia> <= <mu, w_a> * <a, a + ia>;
    the shared denominator <w_a, a + ia> equals half the squared length
    of a (doubled when ia = a) and is always positive.
    """
    mu, L, x = _covector_ints(R, mu)
    i = _simple_index(R, alpha)
    for _, error in _posofweight_errors(R, x, L, (i,)):
        raise CheckFailure(error)
    lhs, rhs = _posofweight_sides(R, mu, i)
    return {"holds": True, "slack": rhs - lhs}


@memo("ray_gram_ints")
def _ray_gram_ints(R: RootSystem) -> tuple:
    """<v_a, v_b> for the chamber rays, through gram_inv, as integers over
    one common denominator."""
    rays = chamber_rays(R)
    return cleared_rows([[R.ip_vec(a, b) for b in rays] for a in rays])[1]


def _chamber_draw(rng, n) -> list:
    """_DRAW_SCALE times the ray coefficients of a random nonzero chamber
    point; the rays are a basis, so the point is zero iff they all are."""
    while True:
        c = [rng.randint(0, 8) * (_DRAW_SCALE // rng.randint(1, 5)) for _ in range(n)]
        if any(c):
            return c


def check_rightangles(R: RootSystem, samples: int = 100, seed: int = 0) -> dict:
    """Strict pairwise positivity of the chamber, <v, w> > 0 off the origin.

    The Gram matrix of the chamber rays is a finite certificate: every
    chamber point is a nonnegative ray combination, so positive ray
    pairings force positivity everywhere.  Random samples exercise the
    same fact with mixed denominators, each pair decided as one integer
    form in its ray coefficients.  Needs irreducibility; a product
    system has orthogonal chamber directions.
    """
    _check_samples(samples)
    if len(R.irreducible_components()) != 1:
        raise InputError("chamber positivity needs an irreducible system")
    rays = chamber_rays(R)
    M = _ray_gram_ints(R)
    for a, row in zip(rays, M):
        for b, m in zip(rays, row):
            if m <= 0:
                raise CheckFailure(f"chamber rays {a}, {b} fail strict positivity")
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        cv = _chamber_draw(rng, len(rays))
        cw = _chamber_draw(rng, len(rays))
        if idot(cv, [idot(row, cw) for row in M]) <= 0:
            v, w = (lincomb(_as_fractions(c, _DRAW_SCALE), rays) for c in (cv, cw))
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

    Each sample is an integer weight vector over the generators, and the
    halfspaces, the pieces and mu + rho are cleared integer tables of
    their pairings with the generators, so a sample is decided by integer
    dots alone; no Fraction is built per sample.
    """
    _check_samples(samples)
    R = G.root_system
    cd = critical_data(G)
    mu = vec(cd.mu_gamma_exact)
    idx = [i for i, ga in enumerate(gram_images(R)[0]) if dot(mu, ga) > 0]
    # u_i = u_sigma(i): one generator per orbit {i, sigma(i)}, first seen first
    us = wall_directions(R)
    gens = [R.covector_to_vector(u) for u in dict.fromkeys(us[i] for i in idx)]

    if is_zero(mu):
        tent = not modified_cone_nonempty(G)
    else:
        tent = delta_prime(G, mu).value <= 1

    rng = random.Random(seed)
    taken = failures = outside = 0
    if gens:
        # the pieces share one scale with mu + rho, so a point's values compare
        _, hs = pairing_table(G.cone.halfspaces, gens)
        _, (*pieces, linear) = pairing_table([*G.pieces, vadd(mu, rho(R))], gens)
        for _ in range(samples):
            x = [rng.randint(0, 9) * (_DRAW_SCALE // rng.randint(1, 4)) for _ in gens]
            # the generators are wall directions of distinct orbits, hence
            # independent: the point is zero iff its weights are
            if not any(x):
                continue
            taken += 1
            if any(idot(x, h) < 0 for h in hs):
                outside += 1
            elif min(idot(x, p) for p in pieces) != idot(x, linear):
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
    _check_samples(samples)
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


@memo("class_columns")
def _class_columns(R: RootSystem) -> tuple:
    """The columns of the invariant classes w + iota(w), as integers (the
    classes are primitive), so coefficients c give coordinates c . col."""
    return tuple(tuple(int(v) for v in col) for col in zip(*dominant_iota_classes(R)))


def _her_draws(R: RootSystem, samples: int, seed: int, wall_multiples: bool):
    """_DRAW_SCALE times each seeded dominant invariant covector, as an
    integer row: a nonnegative rational combination of the classes, where
    a draw below 0.25 leaves that class uncharged.  With wall_multiples,
    every fourth sample is a single class times a rational instead."""
    rng = random.Random(seed)
    cols = _class_columns(R)
    n = len(cols[0])
    for k in range(samples):
        if wall_multiples and k % 4 == 0:
            c = [0] * n
            s = rng.randint(0, 8) * (_DRAW_SCALE // rng.randint(1, 3))
            c[rng.randrange(n)] = s
        else:
            c = [0 if rng.random() < 0.25
                 else rng.randint(0, 9) * (_DRAW_SCALE // rng.randint(1, 4))
                 for _ in range(n)]
        yield [idot(c, col) for col in cols]


def _lemma_failure(x, wall, error) -> dict:
    return {"mu": [str(v) for v in _as_fractions(x, _DRAW_SCALE)],
            "wall": [str(v) for v in wall], "error": error}


def _batch_keylemma(R, samples, seed):
    walls = range(R.rank)
    failures = []
    # every fourth sample exercises the hypothesis-true side with an exact
    # wall multiple
    for x in _her_draws(R, samples, seed, wall_multiples=True):
        for i, (hyp, concl) in zip(walls, _keylemma_verdicts(R, x, walls)):
            if hyp and not concl:
                error = _keylemma_error(R, _as_fractions(x, _DRAW_SCALE), i)
                failures.append(_lemma_failure(x, R.simple_roots[i], error))
    return samples, failures


def _batch_posofweight(R, samples, seed):
    walls = range(R.rank)
    failures = []
    for x in _her_draws(R, samples, seed, wall_multiples=False):
        for i, error in _posofweight_errors(R, x, _DRAW_SCALE, walls):
            failures.append(_lemma_failure(x, R.simple_roots[i], error))
    return samples, failures


def _batch_rightangles(R, samples, seed):
    report = check_rightangles(R, samples=samples, seed=seed)
    return report["samples"], report["failures"]


@memo("positivity_subset")
def _positivity_subset(R: RootSystem, subset: tuple) -> tuple:
    """For a sorted tuple of simple-root indices: (their Gram matrix E * g
    as integers, whether its off-diagonal entries are all nonpositive,
    D * g^-1 as integers, D); InputError unless the roots are independent."""
    vs = [R.simple_roots[i] for i in subset]
    if mat_rank(vs) != len(vs):
        raise InputError("precondition failure: vectors are not independent")
    g = [[R.ip(a, b) for b in vs] for a in vs]
    gram = cleared_rows(g)[1]
    nonpositive = all(gram[a][b] <= 0 for a in range(len(vs)) for b in range(a))
    D, inv = cleared_rows(inverse(g))
    return gram, nonpositive, inv, D


def _batch_positivity(R, samples, seed):
    """The positivity lemma on random simple-root subsets.  u is built to
    pair with the drawn roots as the drawn d does, so it lies in their span
    and its coefficients are g^-1 d; the lemma says they are nonnegative."""
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        k = rng.randint(1, R.rank)
        sel = rng.sample(range(R.rank), k)
        d = [rng.randint(0, 7) * (_DRAW_SCALE // rng.randint(1, 3)) for _ in range(k)]
        subset = tuple(sorted(sel))
        gram, nonpositive, inv, D = _positivity_subset(R, subset)
        # drawn position -> position in the sorted subset
        pos = [subset.index(s) for s in sel]
        if not nonpositive:
            a, b = next((a, b) for a in range(k) for b in range(a + 1, k)
                        if gram[pos[a]][pos[b]] > 0)
            raise InputError(
                f"precondition failure: vectors {a},{b} have positive inner product")
        ds = [0] * k
        for p, v in zip(pos, d):
            ds[p] = v
        c = [idot(row, ds) for row in inv]
        paired = [idot(row, c) for row in gram]
        if min(paired) < 0:
            a = next(a for a, p in enumerate(pos) if paired[p] < 0)
            raise InputError(f"precondition failure: u pairs negatively with vector {a}")
        if min(c) < 0:
            coeff = tuple(Q(c[p], D * _DRAW_SCALE) for p in pos)
            failures.append({"subset": sel,
                             "pairings": [str(v) for v in _as_fractions(d, _DRAW_SCALE)],
                             "error": f"positivity lemma failed: coefficients {coeff}"})
    return samples, failures


def _batch_twowalls(R, samples, seed):
    perm, us = iota_permutation(R), wall_directions(R)
    pairs = [(i, j) for i in range(R.rank) for j in range(R.rank) if i != j and perm[i] != j]
    return len(pairs), [{"pair": [i, j]} for i, j in pairs if collinear(us[i], us[j])]


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
    _check_samples(samples)
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
