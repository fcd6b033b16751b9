import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from weylgrowth.cones import avoids_facet, chamber_rays, closure, poly_cone
from weylgrowth.critical import critical_data, theta_mu
from weylgrowth.errors import CheckFailure, InputError
from weylgrowth.growth import (build_growth_model, modified_cone_nonempty,
                               modified_limit_cone, random_growth_model)
from weylgrowth import verify
from weylgrowth.polyhedra import conic_member
from weylgrowth.rational import dot, lincomb, vadd, vec, vscale, vsub
from weylgrowth.rootsystem import (apply_iota, build_root_system,
                                   fundamental_weights, rho)
from weylgrowth.verify import (
    argmax_face,
    bound_wall_avoided,
    check_keylemma,
    check_posofweight,
    check_psilinear,
    check_rightangles,
    deduce_onewall,
    deduce_twowalls,
    invariant_direction,
    reproduce_b3_remark,
    run_lemma_check,
)

import lemma_oracle
from lp_oracle import lp_feasible_ineq

SRC = Path(__file__).resolve().parent.parent / "src"

A1 = (1, -1)
A2 = (0, 1)


def b2():
    return build_root_system("b2")


def wall_model():
    """Cone((3,1),(1,1)) with one piece rho + (1/2,1/2): avoids the short wall."""
    R = b2()
    piece = vadd(rho(R), (Q(1, 2), Q(1, 2)))
    C = poly_cone(generators=((3, 1), (1, 1)), rank=2)
    return build_growth_model(R, C, [piece])


def thin_model(pieces_extra=None):
    """Thin interior cone((4,1),(5,1)); psi' linear along (9,2) unless told otherwise."""
    R = b2()
    extra = pieces_extra if pieces_extra is not None else (Q(9, 10), Q(1, 5))
    C = poly_cone(generators=((4, 1), (5, 1)), rank=2)
    return build_growth_model(R, C, [vadd(rho(R), extra)])


# -- invariant directions ----------------------------------------------------


def test_invariant_direction():
    R = b2()
    assert invariant_direction(R, A1) == (2, 0)
    assert invariant_direction(R, A2) == (1, 1)
    RA = build_root_system("a2")
    # the involution swaps the two walls, so both give omega_1 + omega_2
    assert invariant_direction(RA, (1, 0)) == (1, 1)
    assert invariant_direction(RA, (0, 1)) == (1, 1)
    with pytest.raises(InputError, match="not a simple root"):
        invariant_direction(R, (1, 1))


# -- keylemma ----------------------------------------------------------------


def test_keylemma_trivial_cases():
    R = b2()
    u = invariant_direction(R, A2)
    out = check_keylemma(R, u, A2)
    assert out == {"hypothesis_holds": True, "conclusion_holds": True,
                   "multiple": Q(1)}
    out = check_keylemma(R, (0, 0), A2)
    assert out["conclusion_holds"] and out["multiple"] == 0


def test_keylemma_hypothesis_can_fail():
    R = b2()
    # omega_1 against the short wall: the ratio at the long wall wins
    out = check_keylemma(R, (1, 0), A2)
    assert not out["hypothesis_holds"]
    assert not out["conclusion_holds"]


def test_keylemma_preconditions():
    R = b2()
    with pytest.raises(InputError, match="not dominant"):
        check_keylemma(R, (-1, 0), A2)
    RA = build_root_system("a2")
    # omega_1 alone is dominant but not invariant under the swap
    with pytest.raises(InputError, match="involution"):
        check_keylemma(RA, (Q(2, 3), Q(1, 3)), (1, 0))
    with pytest.raises(InputError, match="not a simple root"):
        check_keylemma(R, (0, 0), (2, 2))


def test_keylemma_needs_positive_pairings():
    R = build_root_system({"simple_roots": [[1, 0], [0, 1]],
                           "inner_product": [[1, 0], [0, 1]]})
    with pytest.raises(InputError, match="irreducible"):
        check_keylemma(R, (1, 1), (1, 0))


def test_keylemma_property_runs():
    for preset in ("b2", "b3", "a2", "a3"):
        report = run_lemma_check("keylemma", preset, samples=400, seed=7)
        assert report["failures"] == []
        assert report["samples"] == 400
        assert report["lemma"] == "keylemma"


# -- posofweight -------------------------------------------------------------


def test_posofweight_frozen():
    R = b2()
    assert check_posofweight(R, (0, 0), A2) == {"holds": True, "slack": Q(0)}
    u = invariant_direction(R, A2)
    assert check_posofweight(R, u, A2)["holds"]
    # rho is dominant invariant for B2; exact slack against the long wall
    r = rho(R)
    out = check_posofweight(R, r, A1)
    assert out["holds"] and out["slack"] >= 0


def test_posofweight_property_runs():
    for preset in ("a2", "b3", "g2", "so(2,5)"):
        report = run_lemma_check("posofweight", preset, samples=400, seed=3)
        assert report["failures"] == []


def test_posofweight_precondition():
    with pytest.raises(InputError, match="not dominant"):
        check_posofweight(b2(), (0, 1), A1)


# -- rightangles and positivity ----------------------------------------------


def test_invariance_guard_matches_apply_iota():
    """The guard's pairing test agrees with applying iota as a matrix."""
    rng = random.Random(5)
    for name in ("a2", "a3", "a4", "d5", "e6", "b3", "so(2,5)"):
        R = build_root_system(name)
        ws = fundamental_weights(R)
        seen = set()
        for k in range(60):
            coeffs = [Q(rng.randint(0, 3), rng.randint(1, 2)) for _ in ws]
            mu = vec(sum(c * w[t] for c, w in zip(coeffs, ws))
                     for t in range(R.rank))
            if k % 2:
                # symmetrise half the draws so invariant covectors occur
                mu = vscale(Q(1, 2), vadd(mu, apply_iota(R, mu)))
            invariant = apply_iota(R, mu) == mu
            seen.add(invariant)
            try:
                check_posofweight(R, mu, R.simple_roots[0])
                passed = True
            except InputError as ex:
                assert "involution-invariant" in str(ex)
                passed = False
            assert passed == invariant, (name, mu)
        assert seen == ({True, False} if name in ("a2", "a3", "a4", "d5", "e6")
                        else {True})


def test_rightangles_presets():
    for preset in ("a2", "a3", "b2", "b3", "g2", "so(2,5)"):
        report = check_rightangles(build_root_system(preset), samples=60, seed=1)
        assert report["ray_certificate"] and report["failures"] == []


def test_rightangles_needs_irreducible():
    R = build_root_system({"simple_roots": [[1, 0], [0, 1]],
                           "inner_product": [[1, 0], [0, 1]]})
    with pytest.raises(InputError, match="irreducible"):
        check_rightangles(R)


def test_rightangles_rejects_negative_samples():
    R = build_root_system("b2")
    with pytest.raises(InputError, match="nonnegative"):
        check_rightangles(R, samples=-5)
    assert check_rightangles(R, samples=0)["samples"] == 0


def test_positivity_property_runs():
    for preset in ("a2", "b3", "so(2,5)"):
        report = run_lemma_check("positivity", preset, samples=300, seed=5)
        assert report["failures"] == []


# -- argmax_face -------------------------------------------------------------


def test_argmax_face_wall_deformation():
    R = b2()
    mu = (Q(1), Q(0))
    # the wall step <mu, a> / <a, a + ia> for the long root a = A1
    t = Q(1, 4)
    lam = tuple(m - t * 2 * a for m, a in zip(mu, A1))
    face = argmax_face(R, mu, lam)
    assert face.generators == ((1, 0),)


def test_argmax_face_full_chamber():
    R = b2()
    face = argmax_face(R, (1, 1), (1, 1))
    assert set(face.generators) == set(chamber_rays(R))


def test_argmax_face_symmetric_deformation():
    RA = build_root_system("a2")
    mu = vec((1, 1))
    t = Q(1, 10)
    lam = tuple(m - t * (a + i) for m, a, i in zip(mu, (1, 0), (0, 1)))
    face = argmax_face(RA, mu, lam)
    assert set(face.generators) == set(chamber_rays(RA))


def test_argmax_face_requires_positive_reference():
    RA = build_root_system("a2")
    with pytest.raises(InputError, match="positive on every chamber ray"):
        argmax_face(RA, (1, 1), (1, 0))


def test_argmax_face_matches_definition():
    rng = random.Random(11)
    for preset in ("b2", "a3", "g2"):
        R = build_root_system(preset)
        rays = chamber_rays(R)
        for _ in range(25):
            mu = vec([Q(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(R.rank)])
            lam = vec([Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(R.rank)])
            if any(dot(lam, v) <= 0 for v in rays):
                continue
            face = argmax_face(R, mu, lam)
            top = max(dot(mu, v) / dot(lam, v) for v in rays)
            for v in rays:
                attains = dot(mu, v) / dot(lam, v) == top
                assert (v in face.generators) == attains
            assert all(conic_member(face.generators, v) for v in face.generators)


# -- one-wall replay ----------------------------------------------------------


def test_onewall_verified_instance():
    rep = deduce_onewall(wall_model(), A2)
    assert rep["premise_holds"] and rep["conclusion_holds"]
    assert rep["identity_exact"] and not rep["trivial"]
    assert rep["status"] == "theorem instance verified"
    assert rep["mu_gamma"] == [0.5, 0.5]
    assert rep["theta"] == 0.5
    assert rep["delta_prime_direction"] == 0.5
    assert not rep["deduction_violated"]


def test_onewall_vacuous_zero_functional():
    R = b2()
    C = poly_cone(generators=((4, 1), (5, 1)), rank=2)
    G = build_growth_model(R, C, [rho(R)])
    rep = deduce_onewall(G, A2)
    assert rep["trivial"] and rep["conclusion_holds"] and rep["identity_exact"]
    assert not rep["premise_holds"]
    assert rep["status"] == "conclusion holds vacuously (zero critical functional)"


def test_onewall_adversarial_model():
    # psi' linear along an interior non-weight direction: the ratio maximum
    # sits on a chamber ray the thin cone misses, so premise and conclusion
    # both fail and the report flags the model
    rep = deduce_onewall(thin_model(), A2)
    assert not rep["premise_holds"] and not rep["conclusion_holds"]
    assert rep["status"] == "not realizable under the spectral identity"
    assert not rep["deduction_violated"]


def test_onewall_hypothesis_failure():
    R = b2()
    C = poly_cone(generators=((1, 0), (1, 1)), rank=2)
    G = build_growth_model(R, C, [vscale(2, rho(R))])
    with pytest.raises(InputError, match="hypothesis failure"):
        deduce_onewall(G, A2)


def test_onewall_long_wall_instance():
    # model concentrated along (1,0): the long-wall direction 2*omega_1.
    # The cone touches ker(alpha_2), which is fine; only ker(alpha_1)
    # must be avoided for this replay.
    R = b2()
    C = poly_cone(generators=((1, 0), (3, 1)), rank=2)
    G = build_growth_model(R, C, [vadd(rho(R), (Q(1, 2), Q(0)))])
    rep = deduce_onewall(G, A1)
    assert rep["premise_holds"] and rep["conclusion_holds"]
    assert rep["identity_exact"]
    assert rep["status"] == "theorem instance verified"
    assert rep["mu_gamma"] == [0.5, 0.0]


def _lp_premise(G, alpha):
    """The attainment premise by the exact LP deduce_onewall used to run."""
    R = G.root_system
    u = invariant_direction(R, alpha)
    mu = vec(critical_data(G).mu_gamma_exact)
    theta = theta_mu(mu, u, R)
    if not modified_cone_nonempty(G) or theta == math.inf:
        return False
    halfspaces = [list(h) for h in closure(modified_limit_cone(G)).halfspaces]
    rows = halfspaces + [list(vsub(mu, vscale(theta, u))), list(u)]
    b = [Q(0)] * len(halfspaces) + [Q(0), Q(1)]
    return lp_feasible_ineq(rows, b) is not None


def test_onewall_premise_matches_lp():
    models = [wall_model(), thin_model()]
    R = b2()
    models.append(build_growth_model(R, poly_cone(generators=((1, 0), (3, 1)), rank=2),
                                     [vadd(rho(R), (Q(1, 2), Q(0)))]))
    models.append(build_growth_model(R, poly_cone(generators=((4, 1), (5, 1)), rank=2),
                                     [rho(R)]))
    for name in ("b2", "g2", "a2", "a3", "b3", "so(2,5)"):
        R = build_root_system(name)
        for seed in range(12):
            G = random_growth_model(R, random.Random(seed))
            models.append(G)
            # halved pieces make the positive-growth cone smaller or empty
            models.append(build_growth_model(
                R, G.cone, [vadd(rho(R), vscale(Q(1, 2), vsub(p, rho(R))))
                            for p in G.pieces]))
    outcomes = set()
    for G in models:
        R = G.root_system
        Lp = closure(modified_limit_cone(G))
        for a in R.simple_roots:
            if not avoids_facet(R, Lp, a):
                continue
            rep = deduce_onewall(G, a)
            assert rep["premise_holds"] == _lp_premise(G, a), (R.label, a)
            outcomes.add((rep["trivial"], rep["premise_holds"]))
    assert {(False, True), (False, False), (True, False)} <= outcomes, outcomes


# -- two-wall replay ----------------------------------------------------------


def test_twowalls_inadmissible_pair():
    RA = build_root_system("a2")
    C = poly_cone(generators=((2, 1), (1, 2)), rank=2)
    G = build_growth_model(RA, C, [rho(RA)])
    with pytest.raises(InputError, match="swapped by the involution"):
        deduce_twowalls(G, (1, 0), (0, 1))
    with pytest.raises(InputError, match="distinct"):
        deduce_twowalls(G, (1, 0), (1, 0))


def test_twowalls_zero_functional():
    R = b2()
    C = poly_cone(generators=((4, 1), (5, 1)), rank=2)
    G = build_growth_model(R, C, [rho(R)])
    rep = deduce_twowalls(G, A1, A2)
    assert rep["mu_gamma_zero"] and not rep["contradiction_established"]
    assert rep["status"] == "corollary instance verified (zero critical functional)"
    assert rep["noncollinearity"]["determinant"] == 2.0


def test_twowalls_positive_functional_flagged():
    rep = deduce_twowalls(thin_model(), A1, A2)
    assert not rep["mu_gamma_zero"]
    assert rep["status"] == "not realizable under the spectral identity"
    # a concave model can never satisfy both attainment premises
    assert not rep["contradiction_established"]
    assert len(rep["reports"]) == 2


def test_twowalls_noncollinearity_exhaustive():
    for preset in ("a2", "a3", "b2", "b3", "g2", "so(2,5)"):
        report = run_lemma_check("twowalls", preset)
        assert report["failures"] == []
    # a2 has a single iota-orbit of walls, so no admissible pair exists
    assert run_lemma_check("twowalls", "a2")["samples"] == 0
    assert run_lemma_check("twowalls", "b3")["samples"] == 6


# -- wall-avoidance bound ------------------------------------------------------


def test_bound_wall_avoided_family():
    for n in range(3, 11):
        R = build_root_system(f"so(2,{n})")
        c, bound = bound_wall_avoided(R, A1)
        assert c == Q(n - 2, 2)
        assert bound == (Q(n - 1), Q(n - 2, 2))
        c, bound = bound_wall_avoided(R, A2)
        assert c == Q(n - 2, 2)
        assert bound == (Q(n - 1), Q(n - 2))


def test_bound_degenerate_rho_equals_theta():
    R = build_root_system("a1")
    c, bound = bound_wall_avoided(R, (1,))
    assert c == 0 and bound == rho(R)


def test_bound_on_a2():
    RA = build_root_system("a2")
    # rho - Theta = (1,1) - (1/2,1/2), wall direction (1,1)
    c, bound = bound_wall_avoided(RA, (1, 0))
    assert c == Q(1, 2) and bound == (Q(3, 2), Q(3, 2))


def test_bound_needs_nonnegative_gap():
    # multiplicity 1/2 pulls rho below Theta on the single ray
    R = build_root_system({"simple_roots": [[1]],
                           "multiplicities": [{"root": [1], "m": "1/2"}]})
    with pytest.raises(InputError, match="nonnegative"):
        bound_wall_avoided(R, (1,))


# -- linearity check -----------------------------------------------------------


def test_psilinear_vacuous_on_flat_model():
    R = b2()
    C = poly_cone(generators=((4, 1), (5, 1)), rank=2)
    G = build_growth_model(R, C, [rho(R)])
    rep = check_psilinear(G)
    assert rep["index_set"] == [] and rep["samples"] == 0
    assert rep["equality_failures"] == 0 and rep["tent_certified"]


def test_psilinear_equality_on_wall_model():
    rep = check_psilinear(wall_model(), samples=120, seed=2)
    assert rep["index_set"] == [1]
    assert rep["equality_failures"] == 0
    assert rep["outside_cone"] == 0
    assert rep["tent_certified"]
    # consistency mode agrees, so it must not raise
    check_psilinear(wall_model(), samples=60, consistency=True)


def test_psilinear_linear_model_matches_everywhere_in_cone():
    rep = check_psilinear(thin_model(), samples=150, seed=4)
    assert rep["index_set"] == [0, 1]
    assert rep["equality_failures"] == 0
    assert rep["tent_certified"]


def test_psilinear_adversarial_strict_inequality():
    # two tilted pieces meeting inside the chamber: the functional charges
    # both walls but the model drops strictly below mu + rho off the kink
    R = b2()
    C = poly_cone(generators=((1, 0), (1, 1)), rank=2)
    a = (Q(1), Q(1, 4))
    b = (Q(3, 4), Q(3, 4))
    G = build_growth_model(R, C, [vadd(rho(R), a), vadd(rho(R), b)])
    rep = check_psilinear(G, samples=200, seed=0)
    assert rep["index_set"] == [0, 1]
    assert rep["equality_failures"] > 0
    assert rep["tent_certified"]
    with pytest.raises(CheckFailure, match="linearity on the charged subcone"):
        check_psilinear(G, samples=200, seed=0, consistency=True)


def test_psilinear_rejects_negative_samples():
    with pytest.raises(InputError, match="nonnegative"):
        check_psilinear(wall_model(), samples=-3)
    assert check_psilinear(wall_model(), samples=0)["samples"] == 0


# -- closed-form table ----------------------------------------------------------


def test_b3_remark_table():
    out = reproduce_b3_remark(samples=50, seed=9)
    assert out["failures"] == 0
    pinned = out["rows"][:3]
    assert pinned[0]["mu"] == [3.0, 2.0, 1.0]
    assert pinned[0]["theta"] == [6.0, 3.0, 3.0]
    assert pinned[1]["theta"] == [1.0, 1.0, 1.0]
    assert pinned[2]["theta"] == [3.0, 1.5, 1.0]
    assert all(row["match"] for row in out["rows"])


def test_b3_remark_rejects_negative_samples():
    with pytest.raises(InputError, match="nonnegative"):
        reproduce_b3_remark(samples=-4)
    assert len(reproduce_b3_remark(samples=0)["rows"]) == 3


# -- batch runner ----------------------------------------------------------------


def test_run_lemma_check_interface():
    with pytest.raises(InputError, match="unknown lemma check"):
        run_lemma_check("nope", "b2")
    report = run_lemma_check("rightangles", "b2", samples=40, seed=0,
                             mode="consistency")
    assert report["mode"] == "consistency"
    assert report["preset"] == "b2"


def test_run_lemma_check_rejects_negative_samples():
    with pytest.raises(InputError, match="nonnegative"):
        run_lemma_check("keylemma", "b2", samples=-5)
    assert run_lemma_check("keylemma", "b2", samples=0)["samples"] == 0


# -- integer batches against the per-sample Fraction oracles --------------------


def _fractions(x):
    return tuple(Q(v, verify._DRAW_SCALE) for v in x)


@pytest.mark.parametrize("preset", ["a2", "a3", "b2", "b3", "g2", "so(2,5)", "d4", "e6"])
def test_keylemma_batch_matches_oracle(preset):
    R = build_root_system(preset)
    walls = range(R.rank)
    draws = verify._her_draws(R, 2000, 7, wall_multiples=True)
    seen = set()
    for x, mu in zip(draws, lemma_oracle.keylemma_draws(R, 2000, 7), strict=True):
        assert _fractions(x) == mu
        got = verify._keylemma_verdicts(R, x, walls)
        assert got == [lemma_oracle.keylemma(R, mu, i) for i in walls], mu
        seen.update(got)
    # the hypothesis never holds without the conclusion; it fails somewhere
    # unless every sample is a wall multiple (a single involution class)
    assert (True, True) in seen and (True, False) not in seen
    assert ((False, False) in seen) == (preset != "a2")


_KEYLEMMA_WALLS = verify._keylemma_walls
_POSOFWEIGHT_WALLS = verify._posofweight_walls


def _broken_keylemma_walls(R):
    # each wall direction negated: the ratio test is untouched, so every
    # nonzero sample that passes it fails the conclusion
    return tuple((tuple(-c for c in u), dens) for u, dens in _KEYLEMMA_WALLS(R))


def _broken_posofweight_walls(R):
    # the first wall degenerates; the others bound <mu, a> by -<mu, w> num
    walls = _POSOFWEIGHT_WALLS(R)
    return ((Q(0), walls[0][1]),) + tuple((den, -num) for den, num in walls[1:])


@pytest.mark.parametrize("preset", ["a3", "b3", "g2", "e6"])
def test_batch_failures_equal_oracle_failures(preset, monkeypatch):
    monkeypatch.setattr(verify, "_keylemma_walls", _broken_keylemma_walls)
    monkeypatch.setattr(verify, "_posofweight_walls", _broken_posofweight_walls)
    for lemma, oracle in (("keylemma", lemma_oracle.batch_keylemma),
                          ("posofweight", lemma_oracle.batch_posofweight)):
        R = build_root_system(preset)
        report = run_lemma_check(lemma, R, samples=200, seed=3)
        expected = oracle(build_root_system(preset), 200, 3)
        assert expected and report["failures"] == expected, lemma
    assert any("degenerated" in f["error"] for f in expected)
    assert any("falsified" in f["error"] for f in expected)
    # the one-sample calls report the same failures
    R = build_root_system(preset)
    a = R.simple_roots[0]
    with pytest.raises(CheckFailure, match="collinearity lemma falsified"):
        check_keylemma(R, invariant_direction(R, a), a)
    with pytest.raises(CheckFailure, match="degenerated"):
        check_posofweight(R, invariant_direction(R, a), a)


@pytest.mark.parametrize("preset", ["a3", "b3", "so(2,5)", "e6"])
def test_positivity_batch_matches_oracle(preset, monkeypatch):
    real = verify._positivity_subset

    def flipped(R, subset):
        # Gram matrix and inverse both negated: u still pairs with the
        # roots as drawn, and every nonzero coefficient vector turns negative
        gram, nonpositive, inv, D = real(R, subset)
        neg = lambda rows: tuple(tuple(-v for v in row) for row in rows)  # noqa: E731
        return neg(gram), nonpositive, neg(inv), D

    monkeypatch.setattr(verify, "_positivity_subset", flipped)
    R = build_root_system(preset)
    expected = [{"subset": sel, "pairings": [str(t) for t in d],
                 "error": f"positivity lemma failed: coefficients "
                          f"{tuple(-c for c in coeff)}"}
                for sel, d, coeff in lemma_oracle.positivity_draws(R, 300, 5)
                if any(coeff)]
    report = run_lemma_check("positivity", R, samples=300, seed=5)
    assert expected and report["failures"] == expected
    # unflipped, the batch and the oracle agree that nothing fails
    monkeypatch.setattr(verify, "_positivity_subset", real)
    assert run_lemma_check("positivity", build_root_system(preset),
                           samples=300, seed=5)["failures"] == []


@pytest.mark.parametrize("preset", ["a2", "b3", "g2", "e6"])
def test_rightangles_draws_and_form_match_oracle(preset):
    R = build_root_system(preset)
    rays = chamber_rays(R)
    M = verify._ray_gram_ints(R)
    ours, theirs = random.Random(4), random.Random(4)
    ratios = set()
    for _ in range(300):
        cv = verify._chamber_draw(ours, len(rays))
        cw = verify._chamber_draw(ours, len(rays))
        v = lemma_oracle.chamber_point(R, theirs)
        w = lemma_oracle.chamber_point(R, theirs)
        assert lincomb(_fractions(cv), rays) == v
        assert lincomb(_fractions(cw), rays) == w
        form = sum(a * sum(m * b for m, b in zip(row, cw)) for a, row in zip(cv, M))
        ratios.add(Q(form) / R.ip_vec(v, w))
    # the integer form is one positive multiple of the rational pairing
    assert len(ratios) == 1 and ratios.pop() > 0


def test_lemma_suites_leave_numpy_unloaded():
    code = ("import sys\n"
            "from weylgrowth.verify import run_lemma_check\n"
            "for lemma in ('keylemma', 'posofweight', 'positivity',\n"
            "              'rightangles', 'twowalls'):\n"
            "    assert not run_lemma_check(lemma, 'b3', samples=200, seed=1)['failures']\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
