import random
from fractions import Fraction as Q

import pytest
from scipy.optimize import minimize

from weylgrowth.errors import CapExceeded
from weylgrowth.polyhedra import (
    conic_member,
    extreme_rays,
    lp_feasible_eq,
    min_norm_point,
    vertices_of_polyhedron,
)
from weylgrowth.rational import dot, to_float, vec

from lp_oracle import lp_feasible_ineq


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
        extreme_rays([vec([1, 0, 0, 0, 0])], 5)


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
