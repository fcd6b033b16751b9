import json
import math
import random
from fractions import Fraction as Q

import pytest

from weylgrowth import cli
from weylgrowth.cones import dominant_cone, poly_cone
from weylgrowth.critical import (CriticalData, _route_a, covector_norm_sq,
                                 critical_data, critical_report,
                                 solve_delta_prime_max,
                                 solve_mu_gamma_minimization, theta_mu,
                                 vector_norm_sq)
from weylgrowth.errors import InputError
from weylgrowth.growth import (build_growth_model, evaluate_modified,
                               growth_model_from_json,
                               growth_polytope_vertices, random_growth_model)
from weylgrowth.rational import dot, vadd, vec, vscale
from weylgrowth.rootsystem import (apply_iota, build_root_system,
                                   fundamental_weights, rho)


def so25():
    return build_root_system("so(2,5)")


def test_two_rho_closed_form():
    R = so25()
    G = build_growth_model(R, dominant_cone(R), [vscale(2, rho(R))])
    delta, v = solve_delta_prime_max(G)
    assert abs(delta - math.sqrt(Q(17, 2))) < 1e-12
    cd = critical_data(G)
    assert cd.mu_gamma_exact == rho(R)
    assert cd.status == "positive"
    # v'_Gamma is the rho direction
    rf = [float(x) for x in rho(R)]
    nr = math.hypot(*rf)
    assert all(abs(a - b / nr) < 1e-12 for a, b in zip(v, rf))
    assert cd.route_agreement == 0.0


def test_linear_model_closed_form():
    R = so25()
    G = build_growth_model(R, dominant_cone(R), [vadd(rho(R), (1, 1))])
    cd = critical_data(G)
    assert abs(cd.delta_prime_max - math.sqrt(2)) < 1e-12
    assert cd.mu_gamma_exact == vec([1, 1])
    assert all(abs(c - 1 / math.sqrt(2)) < 1e-12 for c in cd.v_gamma)
    assert solve_mu_gamma_minimization(G) == vec([1, 1])


def test_rho_model_trivial():
    R = so25()
    G = build_growth_model(R, dominant_cone(R), [rho(R)])
    cd = critical_data(G)
    assert cd.delta_prime_max == 0.0
    assert cd.mu_gamma == (0.0, 0.0) and cd.mu_gamma_exact == vec([0, 0])
    assert cd.status == "nonpositive"
    assert cd.route_agreement == 0.0


def test_negative_model_scan():
    R = so25()
    G = build_growth_model(R, dominant_cone(R), [vscale(Q(1, 2), rho(R))])
    delta, v = solve_delta_prime_max(G)
    # sup of -rho/2 over the unit section sits on the (1,0) corner ray
    assert abs(delta + 1.25) < 1e-9
    assert abs(v[0] - 1) < 1e-9 and abs(v[1]) < 1e-9
    assert critical_data(G).mu_gamma == (0.0, 0.0)


def test_nonpositive_redundant_generators():
    # psi' = -rho/2 peaks on the (1, 1) ray at -1/sqrt(2); seven redundant
    # interior generators must change neither the value nor the direction
    R = build_root_system("b2")
    pieces = [vscale(Q(1, 2), rho(R))]
    chamber = build_growth_model(R, dominant_cone(R), pieces)
    gens = [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2),
            (5, 3)]
    crowded = build_growth_model(R, poly_cone(generators=gens, rank=2), pieces)
    delta, _ = solve_delta_prime_max(chamber)
    assert abs(delta + 1 / math.sqrt(2)) < 1e-15
    assert solve_delta_prime_max(crowded) == solve_delta_prime_max(chamber)


def test_empty_cone():
    R = so25()
    G = build_growth_model(R, poly_cone(generators=[], rank=2), [rho(R)])
    cd = critical_data(G)
    assert cd.delta_prime_max == float("-inf")
    assert cd.v_gamma is None and cd.mu_gamma == (0.0, 0.0)
    assert cd.status == "empty-cone"
    rep = critical_report(G)
    assert rep["delta_prime"] == "-inf" and rep["v_gamma"] is None


def test_theta_mu_b3_closed_forms():
    R = build_root_system("b3")
    rng = random.Random(7)
    for _ in range(60):
        parts = sorted((Q(rng.randint(0, 30), rng.randint(1, 6))
                        for _ in range(3)), reverse=True)
        m1, m2, m3 = parts
        mu = vec(parts)
        assert theta_mu(mu, [1, 0, 0], R) == m1 + m2 + m3
        assert theta_mu(mu, [1, 1, 0], R) == max(m1, (m1 + m2 + m3) / 2)
        assert theta_mu(mu, [1, 1, 1], R) == m1
        assert theta_mu(mu, ["1/2", "1/2", "1/2"], R) == 2 * m1


def test_theta_mu_case_split():
    R = build_root_system("b3")
    w2 = [1, 1, 0]
    # exactly on the split: m1 = m2 + m3
    assert theta_mu([5, 3, 2], w2, R) == 5
    assert theta_mu([5, 4, 2], w2, R) == Q(11, 2)
    assert theta_mu([5, 3, 1], w2, R) == 5


def test_theta_mu_nonidentifiable_pairs():
    R = build_root_system("b3")
    probes = ([1, 0, 0], [1, 1, 0], [1, 1, 1], ["1/2", "1/2", "1/2"])
    for a, b in (((3, 2, 1), (3, Q(5, 2), Q(1, 2))),
                 ((4, 3, 3), (4, 4, 2))):
        ta = [theta_mu(vec(a), p, R) for p in probes]
        tb = [theta_mu(vec(b), p, R) for p in probes]
        assert ta == tb


def test_theta_mu_table_values():
    R = build_root_system("b3")
    w1, w2, w3p = [1, 0, 0], [1, 1, 0], [1, 1, 1]
    rows = {(3, 2, 1): (6, 3, 3), (1, 0, 0): (1, 1, 1),
            (1, 1, 1): (3, Q(3, 2), 1)}
    for mu, (t1, t2, t3) in rows.items():
        assert theta_mu(mu, w1, R) == t1
        assert theta_mu(mu, w2, R) == t2
        assert theta_mu(mu, w3p, R) == t3


def test_theta_mu_edge_cases():
    R = so25()
    assert theta_mu([1, 1], [1, -1], R) == math.inf
    assert theta_mu([0, 0], [1, 0], R) == 0
    assert theta_mu([1, 1], [1, 1], R) == 1
    with pytest.raises(InputError):
        theta_mu([1, 1, 1], [1, 0], R)


def test_route_agreement_random_models():
    for name, count in (("b2", 8), ("g2", 6), ("a3", 6), ("b3", 6)):
        R = build_root_system(name)
        for seed in range(count):
            G = random_growth_model(R, random.Random(seed + 100))
            cd = critical_data(G)
            assert cd.status == "positive"
            assert cd.route_agreement == 0.0, (name, seed, cd.route_agreement)
            # duality certificate: mu_B >= 1 on {psi' >= 1}, v* lies in it,
            # and mu_B(v*) = |mu_B| |v*| = 1, so both are optimal
            mu_b = solve_mu_gamma_minimization(G)
            v_star = _route_a(G)["v_exact"]
            assert mu_b == cd.mu_gamma_exact
            assert min(dot(mu_b, w) for w in growth_polytope_vertices(G)) == 1
            assert evaluate_modified(G, v_star) >= 1
            assert dot(mu_b, v_star) == 1
            assert covector_norm_sq(R, mu_b) * vector_norm_sq(R, v_star) == 1
            # cross-route directional consistency
            t = theta_mu(cd.mu_gamma_exact, cd.mu_gamma, R)
            assert abs(float(t) - 1) <= 1e-8


def test_critical_invariants_random_models():
    from weylgrowth.rational import matvec
    for name in ("b2", "a3"):
        R = build_root_system(name)
        for seed in range(5):
            G = random_growth_model(R, random.Random(seed))
            cd = critical_data(G)
            mu = cd.mu_gamma_exact
            # dominant: nonneg pairing with every simple root
            for a in R.simple_roots:
                assert dot(mu, matvec(R.inner_product, a)) >= 0
            assert apply_iota(R, mu) == mu
            # tent: psi' <= mu_Gamma on generators
            for g in G.cone.generators:
                assert evaluate_modified(G, g) <= dot(mu, g)
            # unit direction in the gram norm
            vq = vec(Q(c) for c in cd.v_gamma)
            assert abs(float(vector_norm_sq(R, vq)) - 1) < 1e-10


def test_single_ray_cone_critical():
    R = so25()
    ray = poly_cone(generators=[[1, 1]], rank=2)
    G = build_growth_model(R, ray, [vscale(2, rho(R))])
    cd = critical_data(G)
    # psi'((1,1)) = 4, |(1,1)| = sqrt(2), so delta' = 4/sqrt(2)
    assert abs(cd.delta_prime_max - 4 / math.sqrt(2)) < 1e-12
    assert cd.mu_gamma_exact == vec([2, 2])
    assert cd.route_agreement == 0.0


def test_report_shape():
    R = so25()
    G = build_growth_model(R, dominant_cone(R), [vscale(2, rho(R))])
    rep = critical_report(G)
    assert set(rep) == {"delta_prime", "v_gamma", "mu_gamma", "route_gap",
                        "theta"}
    assert set(rep["theta"]) == {"omega_1", "omega_2"}
    assert rep["theta"]["omega_1"] == 4.0 and rep["theta"]["omega_2"] == 5.0
    assert isinstance(critical_data(G), CriticalData)


# The b4 and d4 two-generator models of the benchmark's rank-4 panel with
# their exact critical functionals; a float Route B missed the 1e-5 route
# gate on both.
PANEL_MODELS = {
    "b4": ({"root_system": "b4",
            "cone": {"generators": [[10, 7, 4, 3], [14, 11, 8, 4]],
                     "halfspaces": [[1, -2, 1, 0], [-1, 2, -1, 0],
                                    [-5, 2, 0, 12], [5, -2, 0, -12],
                                    [-2, 1, 4, -1], [316, -92, -500, 147]],
                     "open": False},
            "pieces": [["21/5", 3, "9/5", "3/5"], ["11/2", "9/2", 3, 2]],
            "mu_list": [["25/6", "19/6", "5/3", 0],
                        ["11/2", "5/2", "3/2", "1/2"], [2, 2, 2, -2]]},
           ["1071/1595", "1569/3190", "498/1595", "631/3190"]),
    "d4": ({"root_system": "d4",
            "cone": {"generators": [[12, 10, 7, -1], [8, 4, 3, 1]],
                     "halfspaces": [[-1, -10, 16, 0], [1, 10, -16, 0],
                                    [-7, 10, 0, 16], [7, -10, 0, -16],
                                    [80, -64, -35, 75], [-28, 46, 27, -41]],
                     "open": False},
            "pieces": [["21/5", "14/5", "7/5", 0], [9, "13/2", 4, 3],
                       [7, "11/2", "9/2", "-5/2"]],
            "mu_list": [[10, 9, 5, -1], ["19/3", "23/6", "7/2", "-3/2"],
                        [0, 1, 0, 0]]},
           ["1036/885", "658/885", "476/885", "14/295"]),
}


@pytest.mark.parametrize("name", sorted(PANEL_MODELS))
def test_rank4_panel_routes_agree_exactly(name, tmp_path, capsys):
    model, mu_gamma_exact = PANEL_MODELS[name]
    cd = critical_data(growth_model_from_json(model))
    assert cd.route_agreement == 0.0
    assert cd.mu_gamma_exact == vec(mu_gamma_exact)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(model))
    assert cli.main(["growth-solve", str(path), "--consistency"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["consistency"] == "passed" and rep["route_gap"] == 0.0
