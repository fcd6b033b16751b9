"""Per-sample Fraction oracles for the lemma batches in weylgrowth.verify.

These are the checks and seeded draws the batches replaced: every sample
is built as a tuple of Fractions and every pairing is a rational dot.
They read the wall data through the verify module, so a test that
monkeypatches verify._keylemma_walls or verify._posofweight_walls patches
the oracle too.
"""

import random
from fractions import Fraction as Q

from weylgrowth import verify
from weylgrowth.cones import chamber_rays
from weylgrowth.errors import CheckFailure, InputError
from weylgrowth.growth import dominant_iota_classes
from weylgrowth.rational import (dot, identity, lincomb, mat, matvec,
                                 nonneg_multiple_of, rank as mat_rank, solve,
                                 solve_unique, vec, vscale)
from weylgrowth.rootsystem import gram_images, iota_permutation


def her_dominant(R, mu):
    mu = vec(mu)
    if not R.is_dominant_covector(mu):
        raise InputError("precondition failure: covector is not dominant")
    gws = gram_images(R)[1]
    if any(dot(mu, gws[i]) != dot(mu, gws[j])
           for i, j in iota_permutation(R).items() if i < j):
        raise InputError("precondition failure: covector is not involution-invariant")
    return mu


def keylemma(R, mu, i):
    """(hypothesis, conclusion) at wall i; CheckFailure when only the first holds."""
    mu = her_dominant(R, mu)
    u, dens = verify._keylemma_walls(R)[i]
    gws = gram_images(R)[1]
    if any(d <= 0 for d in dens):
        raise InputError("weight pairings must be strictly positive")
    mu_i = dot(mu, gws[i])
    hyp = all(dot(mu, gws[b]) * dens[i] <= mu_i * dens[b] for b in range(R.rank))
    concl = nonneg_multiple_of(mu, u)
    if hyp and not concl:
        raise CheckFailure(
            f"collinearity lemma falsified: mu={mu} passes the ratio test "
            f"for wall {R.simple_roots[i]} but is not a multiple of {u}")
    return hyp, concl


def posofweight(R, mu, i):
    mu = her_dominant(R, mu)
    alpha = R.simple_roots[i]
    gas, gws = gram_images(R)
    den, num = verify._posofweight_walls(R)[i]
    if den <= 0:
        raise CheckFailure(f"weight/root pairing degenerated at {alpha}")
    lhs = dot(mu, gas[i]) * den
    rhs = dot(mu, gws[i]) * num
    if lhs > rhs:
        raise CheckFailure(
            f"root-pairing bound falsified at mu={mu}, wall={alpha}: {lhs} > {rhs}")
    return rhs - lhs


def her_covector(rng, classes):
    return lincomb([Q(0) if rng.random() < 0.25
                    else Q(rng.randint(0, 9), rng.randint(1, 4)) for _ in classes],
                   classes)


def keylemma_draws(R, samples, seed):
    rng = random.Random(seed)
    classes = dominant_iota_classes(R)
    for k in range(samples):
        if k % 4 == 0:
            yield vscale(Q(rng.randint(0, 8), rng.randint(1, 3)),
                         classes[rng.randrange(len(classes))])
        else:
            yield her_covector(rng, classes)


def posofweight_draws(R, samples, seed):
    rng = random.Random(seed)
    classes = dominant_iota_classes(R)
    for _ in range(samples):
        yield her_covector(rng, classes)


def _failures(R, draws, check):
    failures = []
    for mu in draws:
        for i, a in enumerate(R.simple_roots):
            try:
                check(R, mu, i)
            except CheckFailure as e:
                failures.append({"mu": [str(x) for x in mu],
                                 "wall": [str(x) for x in a], "error": str(e)})
    return failures


def batch_keylemma(R, samples, seed):
    return _failures(R, keylemma_draws(R, samples, seed), keylemma)


def batch_posofweight(R, samples, seed):
    return _failures(R, posofweight_draws(R, samples, seed), posofweight)


def chamber_point(R, rng):
    rays = chamber_rays(R)
    while True:
        v = lincomb([Q(rng.randint(0, 8), rng.randint(1, 5)) for _ in rays], rays)
        if any(v):
            return v


def lemma_positivity(vs, u, gram=None):
    """Expansion coefficients of u over vs, asserted nonnegative.

    Hypotheses (checked exactly, violations are precondition failures):
    vs linearly independent with pairwise nonpositive inner products,
    u in their span with nonnegative inner product against every v_i.
    Under them every coefficient is >= 0; a negative one would be a
    genuine lemma failure and raises CheckFailure.
    """
    vs = [vec(v) for v in vs]
    u = vec(u)
    n = len(u)
    G = mat(gram) if gram is not None else identity(n)
    if mat_rank(vs) != len(vs):
        raise InputError("precondition failure: vectors are not independent")
    gv = [matvec(G, v) for v in vs]
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if dot(vs[i], gv[j]) > 0:
                raise InputError(
                    f"precondition failure: vectors {i},{j} have positive inner product")
    for i, v in enumerate(vs):
        if dot(u, gv[i]) < 0:
            raise InputError(
                f"precondition failure: u pairs negatively with vector {i}")
    cols = [[v[i] for v in vs] for i in range(n)]
    particular, _ = solve(cols, list(u))
    if particular is None:
        raise InputError("precondition failure: u is outside the span")
    coeff = tuple(particular[: len(vs)])
    if any(c < 0 for c in coeff):
        raise CheckFailure(f"positivity lemma failed: coefficients {coeff}")
    return coeff


def positivity_draws(R, samples, seed):
    """(subset, pairings d, coefficients of u over the subset's roots)."""
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(1, R.rank)
        sel = rng.sample(range(R.rank), k)
        vs = [R.simple_roots[i] for i in sel]
        gram_sel = [[R.ip(vs[a], vs[b]) for b in range(k)] for a in range(k)]
        d = [Q(rng.randint(0, 7), rng.randint(1, 3)) for _ in range(k)]
        u = lincomb(solve_unique(gram_sel, d), vs)
        yield sel, d, lemma_positivity(vs, u, gram=R.inner_product)
