import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from scipy.optimize import minimize

from weylgrowth import cones, critical, growth, polyhedra
from weylgrowth.errors import CapExceeded, InternalError
from weylgrowth.growth import (
    growth_model_from_json,
    growth_polytope_vertices,
    random_growth_model,
    recession_rays,
    super_level_rows,
)
from weylgrowth.polyhedra import (
    conic_member,
    extreme_rays,
    lp_feasible_eq,
    min_norm_point,
    vertices_of_polyhedron,
)
from weylgrowth.rational import dot, matvec, to_float, vadd, vec
from weylgrowth.rootsystem import build_root_system, rho

from lp_oracle import (
    extreme_rays_enum,
    lp_feasible_eq_fraction,
    lp_feasible_ineq,
    min_norm_point_enum,
    vertices_enum,
)

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_extreme_rays_chamber_b2():
    rays = extreme_rays([vec([1, -1]), vec([0, 1])], 2)
    assert set(rays) == {vec([1, 0]), vec([1, 1])}


def test_extreme_rays_simple_roots_come_back():
    # the evaluation dual of the chamber is spanned by the simple roots
    rays = extreme_rays([vec([1, 0, 0]), vec([1, 1, 0]), vec([1, 1, 1])], 3)
    assert set(rays) == {vec([1, -1, 0]), vec([0, 1, -1]), vec([0, 0, 1])}


def test_extreme_rays_lineality_halfplane():
    rays = extreme_rays([vec([1, 1])], 2)
    assert set(rays) == {vec([1, -1]), vec([-1, 1]), vec([1, 1])}


def test_extreme_rays_full_space_and_origin():
    full = extreme_rays([], 2)
    assert set(full) == {vec([1, 0]), vec([-1, 0]), vec([0, 1]), vec([0, -1])}
    origin = extreme_rays([vec([1, 0]), vec([-1, 0]), vec([0, 1]), vec([0, -1])], 2)
    assert origin == []


def test_extreme_rays_cap():
    with pytest.raises(CapExceeded):
        extreme_rays([vec([1, 0, 0, 0, 0, 0, 0, 0, 0])], 9)


def test_vertices_square():
    A = [vec([1, 0]), vec([0, 1]), vec([-1, 0]), vec([0, -1])]
    b = [Q(0), Q(0), Q(-1), Q(-1)]
    vs = set(vertices_of_polyhedron(A, b))
    assert vs == {vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1])}


def test_vertices_shifted_chamber_slab():
    # {v in a+(B2) : rho(v) >= 1} with rho = (5/2, 3/2)
    A = [vec([1, -1]), vec([0, 1]), vec(["5/2", "3/2"])]
    b = [Q(0), Q(0), Q(1)]
    vs = set(vertices_of_polyhedron(A, b))
    assert vs == {vec(["2/5", 0]), vec(["1/4", "1/4"])}


def test_lp_feasible_eq():
    x = lp_feasible_eq([[Q(1), Q(1)], [Q(1), Q(-1)]], [Q(2), Q(0)])
    assert x is not None
    assert x[0] + x[1] == 2 and x[0] - x[1] == 0 and all(c >= 0 for c in x)
    assert lp_feasible_eq([[Q(1), Q(1)]], [Q(-3)]) is None
    assert lp_feasible_eq([[Q(1)], [Q(1)]], [Q(1), Q(2)]) is None


def test_lp_feasible_ineq():
    v = lp_feasible_ineq([vec([1]), vec([-1])], [Q(1), Q(-2)])
    assert v is not None and 1 <= v[0] <= 2
    assert lp_feasible_ineq([vec([1]), vec([-1])], [Q(1), Q(0)]) is None
    v2 = lp_feasible_ineq([vec([1, 0]), vec([-1, -1])], [Q(3), Q(-3)])
    assert v2 is not None and v2[0] >= 3 and v2[0] + v2[1] <= 3


def test_conic_member():
    gens = [vec([1, 0]), vec([1, 1])]
    assert conic_member(gens, vec([3, 1]))
    assert conic_member(gens, vec([0, 0]))
    assert not conic_member(gens, vec([0, 1]))
    assert not conic_member([], vec([1, 0]))
    assert conic_member([], vec([0, 0]))


def test_min_norm_point_halfspace_closed_form():
    # projection of the origin onto {rho(v) >= 1} is rho / |rho|^2
    rho = vec(["5/2", "3/2"])
    quad = [[Q(1), Q(0)], [Q(0), Q(1)]]
    x = min_norm_point([rho], [Q(1)], quad)
    assert x == vec(["5/17", "3/17"])
    assert dot(x, x) == Q(2, 17)


def test_min_norm_point_interior_and_empty():
    quad = [[Q(1), Q(0)], [Q(0), Q(1)]]
    assert min_norm_point([vec([1, 0])], [Q(-1)], quad) == vec([0, 0])
    assert min_norm_point([vec([1, 0]), vec([-1, 0])], [Q(1), Q(0)], quad) is None


def test_min_norm_point_matches_scipy():
    rng = random.Random(3)
    for _ in range(12):
        A = [vec([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(4)]
        A = [a for a in A if any(a)]
        b = [Q(rng.randint(-2, 2)) for _ in A]
        d = rng.randint(1, 3)
        quad = [[Q(d), Q(0)], [Q(0), Q(1)]]
        x = min_norm_point(A, b, quad)
        Af = [to_float(a) for a in A]
        bf = [float(v) for v in b]
        cons = [{"type": "ineq", "fun": (lambda y, a=a, bv=bv: a[0] * y[0] + a[1] * y[1] - bv)}
                for a, bv in zip(Af, bf)]
        res = minimize(lambda y: d * y[0] ** 2 + y[1] ** 2, [1.0, 1.0],
                       constraints=cons, method="SLSQP")
        if x is None:
            assert not res.success or any(
                a[0] * res.x[0] + a[1] * res.x[1] < bv - 1e-6 for a, bv in zip(Af, bf))
        else:
            exact = d * x[0] ** 2 + x[1] ** 2
            assert res.success
            assert float(exact) <= res.fun + 1e-6


def test_min_norm_point_beats_sampled_feasible_points():
    rng = random.Random(11)
    A = [vec([1, -1, 0]), vec([0, 1, -1]), vec([0, 0, 1]), vec([1, 2, 2])]
    b = [Q(0), Q(0), Q(0), Q(3)]
    quad = [[Q(2), Q(-1), Q(0)], [Q(-1), Q(2), Q(-1)], [Q(0), Q(-1), Q(2)]]
    x = min_norm_point(A, b, quad)
    assert x is not None
    best = sum(x[i] * quad[i][j] * x[j] for i in range(3) for j in range(3))
    verts = vertices_of_polyhedron(A, b)
    assert verts
    for _ in range(200):
        ws = [Q(rng.randint(0, 5)) for _ in verts]
        if sum(ws) == 0:
            continue
        y = tuple(sum(w * v[i] for w, v in zip(ws, verts)) / sum(ws) for i in range(3))
        val = sum(y[i] * quad[i][j] * y[j] for i in range(3) for j in range(3))
        assert val >= best


def _degenerate_rows(rng, n, m):
    """m seeded rows in Q^n plus duplicated, negated and zero rows, shuffled."""
    rows = [vec([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)])
            for _ in range(m)]
    for _ in range(rng.randint(1, 3)):
        r = rng.choice(rows)
        rows.append(rng.choice([r, tuple(-x for x in r), vec([0] * n)]))
    rng.shuffle(rows)
    return rows


def test_lp_feasible_eq_matches_fraction_oracle():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        k = rng.randint(1, 6)
        A = _degenerate_rows(rng, k, rng.randint(1, 4))
        b = [Q(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.8 else Q(0)
             for _ in A]
        x = lp_feasible_eq(A, b)
        assert x == lp_feasible_eq_fraction(A, b)
        outcomes.add(x is None)
    assert outcomes == {True, False}
    # degenerate ratio ties that Bland's rule breaks by the basic variable,
    # not by the row
    for A, b in [([[0, 1, 0, 0, 2], [0, -1, -1, 0, 2], [2, 2, -1, 0, 1]], [1, 0, 0]),
                 ([[-1, -1, 0, 0, 0, 2], [-1, 0, 1, 2, 0, -1], [2, -1, 0, 2, 1, 0]],
                  [2, 1, 1])]:
        A, b = [vec(r) for r in A], vec(b)
        assert lp_feasible_eq(A, b) == lp_feasible_eq_fraction(A, b)


@pytest.mark.parametrize("name", ["a2", "b2", "g2", "a3", "b3", "c3", "a4", "b4", "d4", "f4"])
def test_min_norm_point_matches_enumeration_oracle(name):
    R = build_root_system(name)
    rng = random.Random(name)
    outcomes = set()
    for i in range(24):
        quad = R.gram_inv if i % 2 else R.inner_product
        A = _degenerate_rows(rng, R.rank, rng.randint(2, 7))
        b = [Q(rng.randint(-3, 4), rng.randint(1, 3)) for _ in A]
        x = min_norm_point(A, b, quad)
        assert x == min_norm_point_enum(A, b, quad)
        outcomes.add(x is None)
    assert outcomes == {True, False}


def test_min_norm_point_matches_oracle_on_panel_models(monkeypatch):
    # both routes of the nine rank-4 models the solve benchmark runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "solve.json"
    panel = json.loads(path.read_text())["panel"]
    calls = []

    def checked(A, b, quad):
        x = min_norm_point(A, b, quad)
        assert x == min_norm_point_enum(A, b, quad)
        calls.append(x)
        return x
    monkeypatch.setattr(critical, "min_norm_point", checked)
    for entry in panel:
        critical.critical_data(growth_model_from_json(entry["model"]))
    assert len(panel) == 9 and len(calls) == 18 and None not in calls


def _e6_draw(seed):
    """e6 gram_inv and 40 seeded rows satisfied by one integer point, plus
    two duplicated rows: n = 6 with 42 rows, where the enumerator would
    try about 6.2 M active sets."""
    rng = random.Random(seed)
    A = [vec([rng.randint(-4, 4) for _ in range(6)]) for _ in range(40)]
    v = [rng.randint(-3, 3) for _ in range(6)]
    b = [dot(a, v) - rng.randint(0, 6) for a in A]
    return build_root_system("e6").gram_inv, A + A[1:3], b + b[1:3]


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_min_norm_point_kkt_certificate_e6(seed):
    quad, A, b = _e6_draw(seed)
    x = min_norm_point(A, b, quad)
    assert x is not None and any(x)
    assert all(dot(a, x) >= bi for a, bi in zip(A, b))
    tight = [a for a, bi in zip(A, b) if dot(a, x) == bi]
    grad = [2 * c for c in matvec(quad, x)]
    # some lambda >= 0 on the tight rows with 2 quad x = sum lambda_i a_i
    assert lp_feasible_eq_fraction([[a[i] for a in tight] for i in range(6)], grad) is not None


def test_min_norm_point_empty_e6():
    quad, A, b = _e6_draw(8)
    # one more row that contradicts the first: a_0 x <= b_0 - 1
    A, b = A + [tuple(-x for x in A[0])], b + [1 - b[0]]
    assert min_norm_point(A, b, quad) is None
    assert lp_feasible_ineq(A, b) is None


def test_min_norm_point_singular_kkt_is_internal_error(monkeypatch):
    monkeypatch.setattr(polyhedra, "solve_unique", lambda M, rhs: None)
    quad = [[Q(1), Q(0)], [Q(0), Q(1)]]
    with pytest.raises(InternalError, match="0 active rows"):
        min_norm_point([vec([1, 1])], [Q(1)], quad)


def test_enumerators_match_subset_oracle_on_seeded_systems():
    # ordered lists, since delta_prime witnesses and the nonpositive
    # branch's first ray depend on the order
    rng = random.Random(14)
    seen = set()
    for i in range(300):
        n = rng.randint(1, 5)
        A = _degenerate_rows(rng, n, rng.randint(1, 6))
        if i % 4 == 0:  # rows in a hyperplane: the cone has lineality
            A = [vec([*a[:-1], 0]) for a in A]
        b = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in A]
        rays = extreme_rays(A, n)
        assert rays == extreme_rays_enum(A, n), (A,)
        verts = vertices_of_polyhedron(A, b)
        assert verts == vertices_enum(A, b), (A, b)
        if any(vec([-x for x in r]) in rays for r in rays):
            seen.add("lineality")
        else:  # pointed: no vertex means an empty polyhedron
            seen.add("unbounded" if verts and rays else "bounded" if verts else "empty")
    assert seen == {"lineality", "empty", "bounded", "unbounded"}


def _benchmark_models():
    solve = json.loads((DATA / "solve.json").read_text())
    cli = json.loads((DATA / "cli.json").read_text())
    return ([e["model"] for stratum in solve["strata"].values() for e in stratum]
            + [e["model"] for e in solve["panel"]]
            + [e["model"] for e in cli["growth-solve"]])


def test_enumerators_match_oracle_on_benchmark_models():
    models = _benchmark_models()
    for obj in models:
        G = growth_model_from_json(obj)
        n = G.root_system.rank
        for level in (1, -1):
            A, b = super_level_rows(G, level)
            assert vertices_of_polyhedron(A, b) == vertices_enum(A, b), (obj, level)
        rows, _ = super_level_rows(G, 0)
        assert extreme_rays(rows, n) == extreme_rays_enum(rows, n), obj
    assert len(models) == 213 + 12


@pytest.mark.parametrize("name", ["a5", "b5", "d5", "e6"])
def test_enumerators_match_oracle_on_seeded_models(name, monkeypatch):
    calls = []

    def rays_checked(hs, n):
        out = extreme_rays(hs, n)
        assert out == extreme_rays_enum(hs, n)
        calls.append(n)
        return out

    def vertices_checked(A, b):
        out = vertices_of_polyhedron(A, b)
        assert out == vertices_enum(A, b)
        calls.append(len(A[0]))
        return out
    for mod in (cones, growth):
        monkeypatch.setattr(mod, "extreme_rays", rays_checked)
    monkeypatch.setattr(growth, "vertices_of_polyhedron", vertices_checked)
    G = random_growth_model(build_root_system(name), random.Random(name))
    critical.critical_data(G)
    growth_polytope_vertices(G, -1)
    # the rho-shifted model's recession cone is {v in cone : psi(v) >= 0}
    r = rho(G.root_system)
    recession_rays(growth.GrowthIndicator(
        root_system=G.root_system, cone=G.cone,
        pieces=tuple(vadd(p, r) for p in G.pieces)))
    assert len(calls) >= 4 and set(calls) == {G.root_system.rank}
