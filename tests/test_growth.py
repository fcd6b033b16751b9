import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from weylgrowth.cones import cone_from_json, dominant_cone, poly_cone
from weylgrowth import cones, growth
from weylgrowth.errors import CheckFailure, InputError, ModelInvariantError
from weylgrowth.growth import (
    NEG_INF,
    POS_INF,
    build_growth_model,
    delta_prime,
    delta_prime_report,
    dominant_iota_classes,
    evaluate,
    evaluate_modified,
    growth_model_from_json,
    growth_polytope_vertices,
    iota_vector_matrix,
    modified_cone_nonempty,
    modified_limit_cone,
    random_growth_model,
    tent_check,
)
from weylgrowth.polyhedra import vertices_of_polyhedron
from weylgrowth.rational import dot, lincomb, matvec, to_float, vadd, vec, vscale, vsub
from weylgrowth.rootsystem import apply_iota, build_root_system, fundamental_weights, rho

from lp_oracle import lp_feasible_ineq
from model_json import growth_model_to_json


def so25():
    return build_root_system("so(2,5)")


def two_rho_model(R=None):
    R = R or so25()
    return build_growth_model(R, dominant_cone(R), [vscale(2, rho(R))])


def rho_model(R=None):
    R = R or so25()
    return build_growth_model(R, dominant_cone(R), [rho(R)])


def test_evaluate_examples():
    G = two_rho_model()
    assert evaluate(G, [1, 0]) == 5
    assert evaluate(G, [0, 1]) == NEG_INF
    assert evaluate_modified(G, [1, 1]) == 4
    Gr = rho_model()
    assert evaluate_modified(Gr, [2, 1]) == 0
    assert evaluate(Gr, [2, 1]) == Q(13, 2)


def test_model_invariant_violations():
    R = so25()
    C = dominant_cone(R)
    with pytest.raises(ModelInvariantError, match="outside the chamber"):
        build_growth_model(R, poly_cone(generators=[[0, 1]], rank=2), [rho(R)])
    with pytest.raises(ModelInvariantError, match="negative value"):
        build_growth_model(R, C, [[-1, 0]])
    with pytest.raises(ModelInvariantError, match="twice the half sum"):
        build_growth_model(R, C, [[10, 0]])
    A2 = build_root_system("a2")
    with pytest.raises(ModelInvariantError, match="involution-stable"):
        build_growth_model(A2, poly_cone(generators=[[1, 0]], rank=2),
                           [rho(A2)])
    with pytest.raises(ModelInvariantError, match="involution-invariant"):
        build_growth_model(A2, dominant_cone(A2), [["5/3", "4/3"]])
    with pytest.raises(InputError):
        build_growth_model(R, C, [])
    B3 = build_root_system("b3")
    for cone in (C, poly_cone(generators=[[1, 0]], rank=2)):
        with pytest.raises(InputError, match="cone rank 2"):
            build_growth_model(B3, cone, [rho(B3)])


def test_involution_sample_violation_message():
    # invariant on both chamber rays; the Farkas test names the piece whose
    # involution image drops below psi, here at the point a sampler found
    A2 = build_root_system("a2")
    pieces = [vec([1, 3]), vec([2, 1])]
    with pytest.raises(ModelInvariantError) as info:
        build_growth_model(A2, dominant_cone(A2), pieces)
    assert info.value.violations == [
        "value not involution-invariant: piece (Fraction(2, 1), Fraction(1, 1)) "
        "composed with the involution drops below the model"]
    v = vec(["7/3", "3/2"])
    psi = min(dot(p, v) for p in pieces)
    assert dot(apply_iota(A2, pieces[1]), v) < psi


# psi(2, 1) = 11 > 2 rho(2, 1) = 7 on b2, and the d4 model exceeds 2 rho
# inside the chamber too, though both stay below 2 rho on every generator
ABOVE_TWO_RHO = [
    ("b2", [[3, 5], [8, -4]]),
    ("d4", [["32/5", "18/5", "9/5", 0], ["11/2", "7/2", "5/2", "-3/2"]]),
]


@pytest.mark.parametrize("name, pieces", ABOVE_TWO_RHO)
def test_two_rho_bound_decided_on_the_whole_cone(name, pieces):
    R = build_root_system(name)
    C = dominant_cone(R)
    two_rho = vscale(2, rho(R))
    assert all(min(dot(vec(p), g) for p in pieces) <= dot(two_rho, g)
               for g in C.generators)
    with pytest.raises(ModelInvariantError) as info:
        build_growth_model(R, C, pieces)
    assert info.value.violations == ["value exceeds twice the half sum on the cone"]


def _sampled_violation(R, cone, pieces, samples, seed):
    """The retired seeded search, kept as a one-sided oracle: a cone
    generator or seeded cone point where psi > 2 rho or psi o iota != psi,
    or None. Any point it returns is a real violation."""
    gens = cone.generators
    two_rho = vscale(2, rho(R))
    iota_v = iota_vector_matrix(R)
    rng = random.Random(seed)
    points = list(gens)
    if gens:
        points += [lincomb([Q(rng.randint(0, 8), rng.randint(1, 4)) for _ in gens], gens)
                   for _ in range(samples)]
    for v in points:
        psi = min(dot(p, v) for p in pieces)
        if psi > dot(two_rho, v) or min(dot(p, matvec(iota_v, v)) for p in pieces) != psi:
            return v
    return None


def _recorded_models():
    """(preset, cone JSON, pieces) of every model in the benchmark pools."""
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    solve = json.loads((data / "solve.json").read_text())
    checks = json.loads((data / "checks.json").read_text())
    cli = json.loads((data / "cli.json").read_text())
    docs = [e["model"] for e in solve["panel"]]
    docs += [e["model"] for stratum in solve["strata"].values() for e in stratum]
    docs += [e["model"] for e in cli["growth-solve"]]
    out = [(d["root_system"], d["cone"], d["pieces"]) for d in docs]
    out += [(e["preset"], e["model"]["cone"], e["model"]["pieces"])
            for kind in ("replay", "tent") for e in checks[kind]]
    return out


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "b3", "c3", "d4", "d5", "e6",
                                  "f4", "g2", "so(2,5)"])
def test_piece_composed_with_iota_is_apply_iota(name):
    # the invariance test reads p o iota as the covector apply_iota(R, p)
    R = build_root_system(name)
    rng = random.Random(name)
    iota_v = iota_vector_matrix(R)
    for _ in range(5):
        p = vec([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(R.rank)])
        v = vec([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(R.rank)])
        assert dot(apply_iota(R, p), v) == dot(p, matvec(iota_v, v))


def test_exact_invariants_agree_with_sampling_oracle():
    roots = {}
    rng = random.Random(0)
    found = 0
    for preset, cone_doc, piece_docs in _recorded_models():
        if preset not in roots:
            roots[preset] = build_root_system(preset)
        R = roots[preset]
        cone = cone_from_json(cone_doc)
        pieces = [vec(p) for p in piece_docs]
        G = build_growth_model(R, cone, pieces)  # every recorded model builds
        assert _sampled_violation(R, G.cone, G.pieces, 50, 0) is None
        for _ in range(3):
            i = rng.randrange(len(pieces))
            shift = [Q(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(R.rank)]
            bent = pieces[:i] + [vadd(pieces[i], shift)] + pieces[i + 1:]
            if _sampled_violation(R, G.cone, bent, 50, rng.randint(0, 99)) is None:
                continue
            found += 1
            with pytest.raises(ModelInvariantError):
                build_growth_model(R, G.cone, bent)
    assert found > 100  # the perturbations do reach the oracle


@pytest.mark.parametrize("name, seed, gens, pieces", [
    ("a2", 0, [[1, 0], [0, 1]], [["7/5", "7/5"], [3, 3]]),
    ("a2", 3, [[1, 4], [4, 1]], [["7/5", "7/5"], [2, 2]]),
    ("a2", 5, [[1, 3], [3, 1]], [[2, 2], [3, 3], [4, 4]]),
    ("b3", 0, [[6, 4, 1], [8, 7, 4]],
     [["9/2", "27/10", "9/10"], [5, 4, "3/2"], [6, 3, "3/2"]]),
    ("b3", 1, [[9, 5, 4]], [["7/2", "21/10", "7/10"], ["15/2", "9/2", 2]]),
])
def test_random_growth_model_pinned(name, seed, gens, pieces):
    G = random_growth_model(build_root_system(name), random.Random(seed))
    assert G.cone.generators == tuple(vec(g) for g in gens)
    assert G.pieces == tuple(vec(p) for p in pieces)


def test_modified_limit_cone():
    R = so25()
    assert not modified_cone_nonempty(rho_model(R))
    G2 = two_rho_model(R)
    L = modified_limit_cone(G2)
    assert L.open_flag
    assert set(L.generators) == {vec([1, 0]), vec([1, 1])}
    assert modified_cone_nonempty(G2)
    G3 = build_growth_model(R, dominant_cone(R), [[3, 1]])
    assert set(modified_limit_cone(G3).generators) == {vec([1, 0]), vec([1, 1])}


def test_cache_key_ignores_default_spelling():
    G = two_rho_model()
    verts = growth_polytope_vertices(G)
    assert growth_polytope_vertices(G, True) is verts
    assert growth_polytope_vertices(G, modified=True) is verts
    assert growth_polytope_vertices(G, level=1) is verts
    assert list(G._cache) == [("growth_polytope_vertices", True, 1)]


def test_delta_prime_rho_model_is_zero():
    G = rho_model()
    for mu in ([1, 0], [1, 1], ["1/2", "1/3"]):
        dp = delta_prime(G, mu)
        assert dp.value == 0 and dp.status == "nonpositive"


def test_delta_prime_two_rho_values():
    G = two_rho_model()
    dp = delta_prime(G, [1, 0])
    assert dp.value == 4 and dp.status == "finite"
    assert dp.witness == vec([1, 1])
    assert evaluate_modified(G, dp.witness) == 4
    d = delta_prime(G, [1, 0], modified=False)
    assert d.value == 8


def test_delta_prime_infinite_and_neg():
    G = two_rho_model()
    dp = delta_prime(G, [1, -1])
    assert dp.value == POS_INF and dp.status == "infinite"
    assert dp.certificate is not None
    v = dp.certificate
    assert dot(vec([1, -1]), v) <= 0 and evaluate_modified(G, v) > 0

    R = so25()
    Gh = build_growth_model(R, dominant_cone(R), [vscale("1/2", rho(R))])
    dn = delta_prime(Gh, [1, 0])
    assert dn.value == Q(-5, 4) and dn.status == "nonpositive"
    assert dn.witness == vec([1, 0])

    ray = poly_cone(generators=[[1, 1]], rank=2)
    Gr = build_growth_model(R, ray, [rho(R)])
    dm = delta_prime(Gr, [1, -1])
    assert dm.value == NEG_INF and dm.status == "nonpositive"


def test_delta_prime_rejects_zero():
    with pytest.raises(InputError):
        delta_prime(two_rho_model(), [0, 0])


def test_delta_prime_scaling():
    G = two_rho_model()
    base = delta_prime(G, [1, 0]).value
    assert delta_prime(G, [3, 0]).value == base / 3
    assert delta_prime(G, ["1/7", 0]).value == base * 7


def test_delta_prime_iota_symmetry():
    rng = random.Random(2)
    for name in ("a2", "a3"):
        R = build_root_system(name)
        ws = fundamental_weights(R)
        from weylgrowth.rootsystem import apply_iota
        for seed in range(5):
            G = random_growth_model(R, random.Random(seed))
            cs = [Q(rng.randint(1, 4)) for _ in ws]
            mu = vec([0] * R.rank)
            for c, w in zip(cs, ws):
                mu = vadd(mu, vscale(c, w))
            a = delta_prime(G, mu)
            b = delta_prime(G, apply_iota(R, mu))
            assert a.value == b.value
            half = vscale("1/2", vadd(mu, apply_iota(R, mu)))
            c = delta_prime(G, half)
            if a.status == "finite" and c.status == "finite":
                assert c.value <= a.value


def _ray_grid_sup(G, mu, grid=10_000):
    # independent check: scan rays of the rank-2 wedge, then polish the
    # bracket with golden section; evaluation only, no vertex machinery
    g0, g1 = [to_float(g) for g in G.cone.generators[:2]]
    muf = to_float(mu)
    rf = to_float(rho(G.root_system))
    pf = [to_float(p) for p in G.pieces]

    def val(t):
        v = tuple((1 - t) * a + t * b for a, b in zip(g0, g1))
        m = sum(x * y for x, y in zip(muf, v))
        if m <= 1e-12:
            return -math.inf
        psi = min(sum(x * y for x, y in zip(p, v)) for p in pf)
        return (psi - sum(x * y for x, y in zip(rf, v))) / m

    best_i = max(range(grid + 1), key=lambda i: val(i / grid))
    lo = max(0.0, (best_i - 1) / grid)
    hi = min(1.0, (best_i + 1) / grid)
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    for _ in range(80):
        if val(c1) < val(c2):
            a, c1 = c1, c2
            c2 = a + phi * (b - a)
        else:
            b, c2 = c2, c1
            c1 = b - phi * (b - a)
    return max(val(a), val(b), val((a + b) / 2))


def test_delta_prime_matches_ray_grid():
    for seed in range(8):
        R = build_root_system(("b2", "g2", "so(2,7)")[seed % 3])
        G = random_growth_model(R, random.Random(seed))
        if len(G.cone.generators) != 2:
            G = build_growth_model(R, dominant_cone(R), G.pieces)
        rng = random.Random(seed + 50)
        ws = fundamental_weights(R)
        mu = vadd(vscale(rng.randint(1, 3), ws[0]), vscale(rng.randint(1, 3), ws[1]))
        dp = delta_prime(G, mu)
        assert dp.status == "finite"
        brute = _ray_grid_sup(G, mu)
        assert abs(brute - float(dp.value)) <= 1e-6 * max(1.0, abs(brute))


def _oracle_delta_prime(G, mu, modified=True):
    """(value, witness) by the LP screen and epigraph scan delta_prime
    used before it read cached vertices and rays; witness None when the
    value is infinite or not attained."""
    cone = list(G.cone.halfspaces)
    r = rho(G.root_system)
    shifted = [vsub(p, r) if modified else p for p in G.pieces]
    zeros, ones = [Q(0)] * len(cone), [Q(1)] * len(shifted)
    if lp_feasible_ineq(cone + [vscale(-1, mu)] + shifted,
                        zeros + [Q(0)] + ones) is not None:
        return POS_INF, None
    verts = vertices_of_polyhedron(cone + shifted, zeros + ones)
    if verts:
        w = min(verts, key=lambda x: dot(mu, x))
        return 1 / dot(mu, w), vscale(1 / dot(mu, w), w)
    # the supremum is <= 0: maximise t over v in the cone with mu(v) = 1
    # and each shifted piece >= t
    n = G.root_system.rank
    rows = [tuple(h) + (Q(0),) for h in cone]
    rows += [tuple(mu) + (Q(0),), tuple(-x for x in mu) + (Q(0),)]
    rows += [tuple(p) + (Q(-1),) for p in shifted]
    everts = vertices_of_polyhedron(rows, zeros + [Q(1), Q(-1)]
                                    + [Q(0)] * len(shifted))
    if not everts:
        return NEG_INF, None
    best = max(everts, key=lambda vt: vt[n])
    return best[n], best[:n]


def test_delta_prime_matches_lp_and_epigraph_oracle():
    rng = random.Random(11)
    checked = {"finite": 0, "infinite": 0, "nonpositive": 0}
    for name in ("b2", "g2", "a3", "b3"):
        R = build_root_system(name)
        r = rho(R)
        ws = fundamental_weights(R)
        for seed in range(3):
            G = random_growth_model(R, random.Random(seed))
            models = [G] + [build_growth_model(R, G.cone, pieces) for pieces in (
                [vscale(Q(1, 2), p) for p in G.pieces],
                [r] + list(G.pieces))]
            mus = [vec(w) for w in ws] + [vec(a) for a in R.simple_roots]
            mus += [vec(rng.randint(-3, 5) for _ in range(R.rank))
                    for _ in range(4)]
            for H in models:
                for mu in (m for m in mus if any(m)):
                    for modified in (True, False):
                        dp = delta_prime(H, mu, modified=modified)
                        assert (dp.value, dp.witness) == _oracle_delta_prime(
                            H, mu, modified), (name, seed, mu, modified)
                        checked[dp.status] += 1
                        if dp.status == "infinite":
                            c = dp.certificate
                            val = (evaluate_modified(H, c) if modified
                                   else evaluate(H, c))
                            assert dot(mu, c) <= 0 and val > 0
    assert min(checked.values()) > 0, checked


def exponent_sandwich(G, mu):
    """(delta' - inf rho, delta' + sup rho) over the slice mu = 1.

    Requires mu strictly positive on the cone minus the origin; the
    unmodified exponent is recomputed and must lie inside; CheckFailure
    otherwise.
    """
    mu = vec(mu)
    if not G.cone.generators:
        raise InputError("sandwich needs a nonempty cone")
    if not all(dot(mu, g) > 0 for g in G.cone.generators):
        raise InputError("sandwich needs mu positive on the cone")
    dp = growth.delta_prime(G, mu).value
    # the slice is the convex hull of the points g / mu(g)
    r = rho(G.root_system)
    vals = [dot(r, g) / dot(mu, g) for g in G.cone.generators]
    lower, upper = dp - min(vals), dp + max(vals)
    d = growth.delta_prime(G, mu, modified=False).value
    if not lower <= d <= upper:
        raise CheckFailure(f"unmodified exponent {d} lies outside the "
                           f"sandwich [{lower}, {upper}]")
    return lower, upper


def test_exponent_sandwich():
    R = so25()
    G = rho_model(R)
    w1, w2 = fundamental_weights(R)
    mu = vadd(w1, w2)
    lo, hi = exponent_sandwich(G, mu)
    assert lo <= delta_prime(G, mu, modified=False).value <= hi

    ray = poly_cone(generators=[[1, 1]], rank=2)
    Gr = build_growth_model(R, ray, [rho(R)])
    lo, hi = exponent_sandwich(Gr, [1, 0])
    d = delta_prime(Gr, [1, 0], modified=False).value
    assert d == hi == 4 and lo == -4

    with pytest.raises(InputError):
        exponent_sandwich(G, [1, -1])


def test_exponent_sandwich_rejects_exponent_outside(monkeypatch):
    G = rho_model()
    solved = delta_prime

    def shifted(G, mu, modified=True):
        dp = solved(G, mu, modified=modified)
        return dp if modified else growth.DeltaPrime(dp.value + 100, dp.status)
    monkeypatch.setattr(growth, "delta_prime", shifted)
    with pytest.raises(CheckFailure, match="outside the sandwich"):
        exponent_sandwich(G, [1, 1])


def test_exponent_sandwich_scaled_weight():
    R = so25()
    G = two_rho_model(R)
    mu = vscale(3, fundamental_weights(R)[1])
    lo, hi = exponent_sandwich(G, mu)
    d = delta_prime(G, mu, modified=False).value
    assert lo <= d <= hi
    assert abs(float(d) - float(d)) < 1e-9


def test_tent_check():
    R = so25()
    assert tent_check(rho_model(R), [[1, 0], [1, 1]])["passed"]
    report = tent_check(two_rho_model(R), [[1, 0], [1, -1]])
    assert report["passed"] and report["vacuous"] == 1 and report["checked"] == 1
    for seed in range(6):
        Rr = build_root_system(("b2", "a3")[seed % 2])
        G = random_growth_model(Rr, random.Random(seed))
        ws = fundamental_weights(Rr)
        rng = random.Random(seed + 9)
        mus = []
        for _ in range(10):
            mu = vec([0] * Rr.rank)
            for w in ws:
                mu = vadd(mu, vscale(Q(rng.randint(0, 4)), w))
            if any(mu):
                mus.append(mu)
        assert tent_check(G, mus)["passed"]


def test_dominant_iota_classes():
    A2 = build_root_system("a2")
    assert dominant_iota_classes(A2) == (vec([1, 1]),)
    B2 = so25()
    assert dominant_iota_classes(B2) == (vec([1, 0]), vec([1, 1]))


def test_random_models_valid_and_positive():
    for name in ("a2", "b2", "g2", "a3", "b3"):
        R = build_root_system(name)
        for seed in range(4):
            G = random_growth_model(R, random.Random(seed))
            assert modified_cone_nonempty(G)
            iota_v = iota_vector_matrix(R)
            for g in G.cone.generators:
                assert evaluate(G, g) >= 0
                assert evaluate(G, g) <= 2 * dot(rho(R), g)
                assert evaluate(G, matvec(iota_v, g)) == evaluate(G, g)


def test_model_from_generators_derives_halfspaces_once(monkeypatch):
    # ray enumeration is exact, so the derived halfspaces need no cross-check
    calls = {"extreme_rays": 0, "conic_member": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(growth, "extreme_rays")
    count(cones, "extreme_rays")
    count(cones, "conic_member")
    G = growth_model_from_json({"root_system": "b3",
                                "cone": {"generators": [[7, 3, 1], [7, 5, 1]]},
                                "pieces": [["5/2", "3/2", "1/2"]]})
    assert calls == {"extreme_rays": 1, "conic_member": 0}
    assert len(G.cone.halfspaces) == 4


def test_model_json_roundtrip():
    G = two_rho_model()
    obj = growth_model_to_json(G)
    G2 = growth_model_from_json(obj)
    assert G2.pieces == G.pieces
    assert set(G2.cone.generators) == set(G.cone.generators)
    assert delta_prime(G2, [1, 0]).value == 4


def test_delta_prime_report_shapes():
    G = two_rho_model()
    rep = delta_prime_report(G, [1, 0])
    assert rep == {"delta_prime": 4.0, "witness": (1.0, 1.0), "status": "finite"}
    rep_inf = delta_prime_report(G, [1, -1])
    assert rep_inf["delta_prime"] == "inf" and rep_inf["status"] == "infinite"
