"""End-to-end acceptance gate.

One test per numbered criterion, so ``pytest -v`` prints one visible
pass or fail line for each.  Tolerances are pinned inline next to the
asserts and every random stream is seeded; a red line here is a
regression, not sampling noise.
"""

import math
import random
import time

from weylgrowth.cones import (
    avoids_facet,
    closure,
    conv_hull_member,
    conv_hull_member_enumeration,
)
from weylgrowth.critical import critical_data, theta_mu
from weylgrowth.figures import figure_geometry
from weylgrowth.growth import (
    delta_prime,
    modified_limit_cone,
    random_growth_model,
    tent_check,
)
from weylgrowth.orbits import (
    build_group_spec,
    empirical_limit_cone,
    enumerate_orbit,
    estimate_exponent,
    iota_symmetry_check,
)
from weylgrowth.rational import Q
from weylgrowth.rootsystem import (
    build_root_system,
    fundamental_weights,
    iota_permutation,
    rho,
    strongly_orthogonal_theta,
    vec,
    vscale,
    vsub,
)
from weylgrowth.verify import (
    bound_wall_avoided,
    deduce_onewall,
    deduce_twowalls,
    run_lemma_check,
)

LEMMAS = ("keylemma", "posofweight", "positivity", "rightangles", "twowalls")
PRESETS = ("a2", "a3", "b2", "b3", "g2", "so(2,5)")


def _random_rational(rng, lo, hi):
    return Q(rng.randrange(lo, hi), rng.randrange(1, 5))


def _dominant_weight_samples(R, rng, count):
    """Nonzero nonneg rational combinations of the fundamental weights.

    Such functionals are nonnegative on the whole chamber, hence on any
    model cone inside it, which is what tent_check requires.
    """
    fw = fundamental_weights(R)
    out = []
    while len(out) < count:
        cs = [_random_rational(rng, 0, 7) for _ in fw]
        if not any(cs):
            continue
        mu = vec([0] * R.rank)
        for c, w in zip(cs, fw):
            mu = vec([a + c * b for a, b in zip(mu, w)])
        out.append(mu)
    return out


def test_criterion_1_so2n_constants():
    t0 = time.perf_counter()
    for n in range(3, 11):
        R = build_root_system(f"so(2,{n})")
        assert rho(R) == (Q(n, 2), Q(n - 2, 2))
        assert strongly_orthogonal_theta(R)[1] == (Q(1), Q(0))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_b3_weights_and_theta_closed_forms():
    R = build_root_system("b3")
    w1, w2, w3 = fundamental_weights(R)
    assert w1 == (Q(1), Q(0), Q(0))
    assert w2 == (Q(1), Q(1), Q(0))
    assert w3 == (Q(1, 2), Q(1, 2), Q(1, 2))
    rng = random.Random(20)
    for k in range(1000):
        if k % 10 == 0:
            # pin the kink of the w2 form: mu1 equal to mu2 + mu3
            b = _random_rational(rng, 0, 13)
            c = _random_rational(rng, 0, 13)
            mu2, mu3 = max(b, c), min(b, c)
            mu = vec([mu2 + mu3, mu2, mu3])
        else:
            mu = vec(sorted((_random_rational(rng, 0, 13) for _ in range(3)),
                            reverse=True))
        total = mu[0] + mu[1] + mu[2]
        assert theta_mu(mu, w1, R) == total
        assert theta_mu(mu, w2, R) == max(mu[0], total / 2)
        assert theta_mu(mu, w3, R) == 2 * mu[0]


def test_criterion_3_so2n_wall_bounds():
    for n in range(3, 11):
        R = build_root_system(f"so(2,{n})")
        c = Q(n - 2, 2)
        a1, a2 = R.simple_roots
        c1, bound1 = bound_wall_avoided(R, a1)
        assert c1 == c
        assert bound1 == (Q(n - 1), c)
        c2, bound2 = bound_wall_avoided(R, a2)
        assert c2 == c
        assert bound2 == (Q(n - 1), Q(n - 2))
        assert bound2 == vsub(vscale(Q(2), rho(R)),
                              strongly_orthogonal_theta(R)[1])


def test_criterion_4_route_agreement_on_random_models():
    t0 = time.perf_counter()
    plans = (("a2", "b2", "g2"), ("a3", "b3"))
    for presets in plans:
        systems = [build_root_system(p) for p in presets]
        rng = random.Random(11)
        kept = tried = 0
        while kept < 100:
            G = random_growth_model(systems[tried % len(systems)], rng)
            tried += 1
            cd = critical_data(G)
            if cd.delta_prime_max <= 0:
                continue
            kept += 1
            assert cd.route_agreement == 0.0
            dp = delta_prime(G, cd.mu_gamma_exact)
            assert abs(dp.value - 1) <= Q(1, 10**8)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5_lemma_suites_zero_failures():
    bad = []
    for lemma in LEMMAS:
        for preset in PRESETS:
            rep = run_lemma_check(lemma, preset, samples=10_000, seed=7)
            if rep["failures"]:
                bad.append(f"{lemma}/{preset}: {len(rep['failures'])}")
    assert not bad, "failing suites: " + "; ".join(bad)


def test_criterion_6_hull_membership_oracle():
    for preset in ("b2", "b3"):
        R = build_root_system(preset)
        rng = random.Random(6)
        n = R.rank
        members = 0
        for _ in range(1000):
            mu = vec(sorted((_random_rational(rng, 0, 13) for _ in range(n)),
                            reverse=True))
            lam = vec([_random_rational(rng, -13, 13) for _ in range(n)])
            got = conv_hull_member(R, lam, mu)
            assert got == conv_hull_member_enumeration(R, lam, mu)
            members += got
        # the sampling box straddles the hulls, so both answers occur
        assert 0 < members < 1000


def test_criterion_7_tent_inequality_on_random_models():
    rng = random.Random(70)
    checked = 0
    for preset in ("a2", "b2", "g2", "a2", "b2", "g2", "a3", "b3", "a3", "b3"):
        R = build_root_system(preset)
        G = random_growth_model(R, rng)
        mus = _dominant_weight_samples(R, rng, 100)
        rep = tent_check(G, mus, slack=Q(0), seed=9)
        assert rep["passed"], (preset, rep["failures"][:2])
        checked += rep["checked"]
    assert checked > 0


def test_criterion_8_cyclic_orbit_ray_exponent_and_iota():
    # slow eigenvalue growth keeps a thousand word lengths inside
    # double-precision SVD range
    lam = math.exp(0.25)
    deep = enumerate_orbit(build_group_spec({
        "ambient": "sl3r",
        "generators": [[[lam, 0, 0], [0, 1, 0], [0, 0, 1 / lam]]],
        "max_word_length": 1200,
    }))
    assert len(deep.points) == 1201
    inv_sqrt2 = 1 / math.sqrt(2)
    target = (inv_sqrt2, 0.0, -inv_sqrt2)
    for mu, _ in deep.points:
        nrm = math.sqrt(sum(x * x for x in mu))
        if nrm == 0:
            continue
        cross = (mu[1] * target[2] - mu[2] * target[1],
                 mu[2] * target[0] - mu[0] * target[2],
                 mu[0] * target[1] - mu[1] * target[0])
        assert math.sqrt(sum(x * x for x in cross)) / nrm <= 1e-9
    cone = empirical_limit_cone(deep, radius_cut=10.0)
    assert len(cone.generators) == 1
    g = cone.generators[0]
    gn = math.sqrt(sum(float(x) ** 2 for x in g))
    assert all(abs(float(x) / gn - t) <= 1e-9 for x, t in zip(g, target))
    est = estimate_exponent(deep, (0.5, 0.0, -0.5))
    assert abs(est["estimate"]) <= 0.05

    shallow = build_group_spec({
        "ambient": "sl3r",
        "generators": [[[math.e, 0, 0], [0, 1, 0], [0, 0, 1 / math.e]]],
        "max_word_length": 10,
    })
    rep = iota_symmetry_check(shallow, depth=10)
    assert rep["pairs"] == 20
    assert rep["failures"] == 0


def test_criterion_9_figure_hull_claims():
    geom = figure_geometry("so(2,5)")
    R = build_root_system("so(2,5)")
    walls = {w["alpha_index"]: w for w in geom["wall_hulls"]}
    # exact rational geometry, so set equality is the 1e-9 match and more
    assert set(walls[2]["hull"]) == set(geom["gap_hull"])
    for v in walls[1]["hull"]:
        assert conv_hull_member(R, vec(v), vec(geom["gap"]))


def test_criterion_10_exact_routes_and_replays_at_ranks_5_to_8():
    # e6 is the first exceptional preset whose opposition involution is
    # nontrivial, so its admissible wall pairs exclude the swapped ones
    t0 = time.perf_counter()
    onewall = twowalls = 0
    for preset in ("d5", "e6", "e7", "e8"):
        R = build_root_system(preset)
        perm = iota_permutation(R)
        rng = random.Random(10)
        for _ in range(4):
            G = random_growth_model(R, rng)
            cd = critical_data(G)
            assert cd.status == "positive" and cd.route_agreement == 0.0
            assert delta_prime(G, cd.mu_gamma_exact).value == 1
            Lp = closure(modified_limit_cone(G))
            avoided = [i for i, a in enumerate(R.simple_roots) if avoids_facet(R, Lp, a)]
            for i in avoided:
                assert not deduce_onewall(G, R.simple_roots[i])["deduction_violated"]
                onewall += 1
                for j in avoided:
                    if j > i and perm[i] != j:
                        rep = deduce_twowalls(G, R.simple_roots[i], R.simple_roots[j])
                        assert not any(r["deduction_violated"] for r in rep["reports"])
                        twowalls += 1
    assert onewall > 0 and twowalls > 0
    assert time.perf_counter() - t0 < 30.0
