import random
from fractions import Fraction as Q

import pytest

from weylgrowth.cones import (
    PolyCone,
    avoids_facet,
    chamber_rays,
    cone_from_json,
    cone_to_json,
    conv_hull_member,
    conv_hull_member_enumeration,
    dominant_cone,
    poly_cone,
)
from weylgrowth.errors import InputError
from weylgrowth.polyhedra import conic_member, extreme_rays
from weylgrowth.rational import dot, is_zero, matvec, primitive, vec
from weylgrowth.rootsystem import (
    build_root_system,
    dominant_representative,
    fundamental_weights,
    rho,
    weyl_group,
)

from lemma_oracle import lemma_positivity


def cone_contains(C: PolyCone, v, strict=None) -> bool:
    """Exact membership; strict defaults to the cone's open flag."""
    v = vec(v)
    if strict is None:
        strict = C.open_flag
    if C.halfspaces is not None:
        if strict:
            return all(dot(h, v) > 0 for h in C.halfspaces)
        return all(dot(h, v) >= 0 for h in C.halfspaces)
    if strict:
        raise InputError("strict membership needs a halfspace representation")
    return conic_member(C.generators, v)


def dual_cone(C: PolyCone) -> PolyCone:
    """{mu : mu(v) >= 0 on C}, with both representations."""
    if C.generators is None:
        raise InputError("dual_cone needs a generator representation")
    gens = tuple(extreme_rays(C.generators, C.rank))
    return PolyCone(rank=C.rank, generators=gens, halfspaces=C.generators)


def interior_dual_member(C: PolyCone, mu) -> bool:
    """Is mu strictly positive on C minus the origin?"""
    mu = vec(mu)
    if C.generators is None:
        raise InputError("interior_dual_member needs a generator representation")
    if is_zero(mu):
        return False
    return all(dot(mu, g) > 0 for g in C.generators)


def test_dominant_cone_shapes():
    B3 = build_root_system("b3")
    C = dominant_cone(B3)
    assert C.halfspaces == B3.simple_roots
    assert C.generators == (vec([1, 0, 0]), vec([1, 1, 0]), vec([1, 1, 1]))
    B2 = build_root_system("b2")
    assert dominant_cone(B2).generators == (vec([1, 0]), vec([1, 1]))
    A1 = build_root_system({"simple_roots": [[1]]})
    assert dominant_cone(A1).generators == (vec([1]),)


def test_dual_cone_of_chamber_is_root_cone():
    # evaluation duality: the dual of a+ is spanned by the simple roots
    for name in ("a2", "b2", "b3", "g2", "so(2,6)"):
        R = build_root_system(name)
        D = dual_cone(dominant_cone(R))
        assert set(D.generators) == {primitive(b) for b in R.simple_roots}, name
        # fundamental weights belong to the dual (membership cross-check)
        for w in fundamental_weights(R):
            assert all(dot(w, g) >= 0 for g in dominant_cone(R).generators)


def test_dual_cone_edge_cases():
    full = poly_cone(generators=[[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert dual_cone(full).generators == ()
    ray = poly_cone(generators=[[1, 1]], rank=2)
    D = dual_cone(ray)
    assert D.halfspaces == (vec([1, 1]),)
    assert set(D.generators) == {vec([1, -1]), vec([-1, 1]), vec([1, 1])}


def test_dual_dual_roundtrip():
    for name in ("b2", "b3", "g2"):
        R = build_root_system(name)
        C = dominant_cone(R)
        DD = dual_cone(dual_cone(C))
        assert set(DD.generators) == set(C.generators), name
    ray = poly_cone(generators=[["3/2", "3/2"]], rank=2)
    assert set(dual_cone(dual_cone(ray)).generators) == {vec([1, 1])}


def test_poly_cone_validation():
    with pytest.raises(InputError):
        poly_cone(generators=[[0, 0]], rank=2)
    with pytest.raises(InputError):
        poly_cone()
    with pytest.raises(InputError):  # generator violates halfspace
        poly_cone(generators=[[-1, 0]], halfspaces=[[1, 0]])
    with pytest.raises(InputError):  # halfspace set is strictly bigger
        poly_cone(generators=[[1, 0]], halfspaces=[[0, 1]])
    C = poly_cone(generators=[[1, 0], [1, 1]], halfspaces=[[1, -1], [0, 1]])
    assert C.rank == 2


def test_poly_cone_rejects_disagreeing_representations_at_rank_6():
    R = build_root_system("e6")
    ray = chamber_rays(R)[0]
    with pytest.raises(InputError, match="representations disagree"):
        poly_cone(generators=[ray], halfspaces=R.simple_roots, rank=6)
    assert set(dual_cone(dominant_cone(R)).generators) == set(R.simple_roots)


def test_cone_contains_and_open_flag():
    C = poly_cone(halfspaces=[[1, -1], [0, 1]], rank=2)
    assert cone_contains(C, [2, 1])
    assert cone_contains(C, [1, 1])
    assert not cone_contains(C, [0, 1])
    assert not cone_contains(C, [1, 1], strict=True)
    assert cone_contains(C, [2, 1], strict=True)


def test_avoids_facet_examples():
    B2 = build_root_system("b2")
    a1, a2 = B2.simple_roots
    ray11 = poly_cone(generators=[[1, 1]], rank=2)
    assert not avoids_facet(B2, ray11, a1)
    assert avoids_facet(B2, ray11, a2)
    ray21 = poly_cone(generators=[[2, 1]], rank=2)
    assert avoids_facet(B2, ray21, a1) and avoids_facet(B2, ray21, a2)
    C = dominant_cone(B2)
    assert not avoids_facet(B2, C, a1) and not avoids_facet(B2, C, a2)
    outside = poly_cone(generators=[[-1, 0]], rank=2)
    with pytest.raises(InputError):
        avoids_facet(B2, outside, a1)


def test_interior_dual_member():
    B2 = build_root_system("b2")
    C = poly_cone(generators=[[2, 1], [3, 1]], rank=2)
    w1 = fundamental_weights(B2)[0]
    assert interior_dual_member(C, w1)
    assert not interior_dual_member(C, [0, 0])
    assert not interior_dual_member(dominant_cone(B2), B2.simple_roots[0])
    origin = poly_cone(generators=[], rank=2)
    assert interior_dual_member(origin, [1, 0])


def test_avoids_facet_implies_interior_dual_weight():
    rng = random.Random(5)
    for name in ("a2", "b2", "b3", "g2"):
        R = build_root_system(name)
        rays = chamber_rays(R)
        ws = fundamental_weights(R)
        for _ in range(40):
            gens = []
            for _ in range(rng.randint(1, 3)):
                cs = [Q(rng.randint(0, 4)) for _ in rays]
                g = tuple(sum(c * r[i] for c, r in zip(cs, rays)) for i in range(R.rank))
                if any(g):
                    gens.append(g)
            if not gens:
                continue
            C = poly_cone(generators=gens, rank=R.rank)
            for alpha, w in zip(R.simple_roots, ws):
                if avoids_facet(R, C, alpha):
                    assert interior_dual_member(C, w)


def test_conv_hull_member_examples():
    B2 = build_root_system("b2")
    assert conv_hull_member(B2, [1, 1], [1, 1])
    assert conv_hull_member(B2, [1, 0], [1, 1])
    assert not conv_hull_member(B2, [2, 0], [1, 1])
    with pytest.raises(InputError):
        conv_hull_member(B2, [1, 0], [0, 1])


def test_conv_hull_member_matches_enumeration():
    rng = random.Random(17)
    for name in ("b2", "b3"):
        R = build_root_system(name)
        for _ in range(150):
            lam = vec([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(R.rank)])
            mu, _ = dominant_representative(R, vec([Q(rng.randint(-4, 4)) for _ in range(R.rank)]))
            assert conv_hull_member(R, lam, mu) == conv_hull_member_enumeration(R, lam, mu)


def test_conv_hull_member_weyl_invariant():
    rng = random.Random(23)
    B2 = build_root_system("b2")
    W = weyl_group(B2)
    for _ in range(60):
        lam = vec([Q(rng.randint(-3, 3)) for _ in range(2)])
        mu = vec([rng.randint(1, 4), rng.randint(0, 1)])
        if not B2.is_dominant_covector(mu):
            continue
        base = conv_hull_member(B2, lam, mu)
        for w in W:
            assert conv_hull_member(B2, matvec(w, lam), mu) == base


def test_dual_monotonicity_on_sampled_functionals():
    big = poly_cone(generators=[[1, 0], [1, 1]], rank=2)
    small = poly_cone(generators=[[2, 1], [3, 2]], rank=2)
    for mu in dual_cone(big).generators:
        assert all(dot(mu, g) >= 0 for g in small.generators)


def test_lemma_positivity_examples():
    B2 = build_root_system("b2")
    assert lemma_positivity(B2.simple_roots, [1, 0]) == (Q(1), Q(1))
    assert lemma_positivity(B2.simple_roots, [0, 0]) == (Q(0), Q(0))
    B3 = build_root_system("b3")
    rho_unit = vec(["5/2", "3/2", "1/2"])
    assert lemma_positivity(B3.simple_roots, rho_unit) == (Q(5, 2), Q(4), Q(9, 2))
    A2 = build_root_system("a2")
    coeff = lemma_positivity(A2.simple_roots, [1, 1], gram=A2.inner_product)
    assert coeff == (Q(1), Q(1))


def test_lemma_positivity_preconditions():
    with pytest.raises(InputError):  # dependent
        lemma_positivity([[1, 0], [2, 0]], [1, 0])
    with pytest.raises(InputError):  # positive pairing
        lemma_positivity([[1, 0], [1, 1]], [1, 0])
    with pytest.raises(InputError):  # outside span
        lemma_positivity([[1, 0]], [0, 1])
    with pytest.raises(InputError):  # negative pairing with u
        lemma_positivity([[1, 0], [0, 1]], [-1, 0])


def test_cone_json_roundtrip():
    C = poly_cone(generators=[[1, 0], [1, 1]], halfspaces=[[1, -1], [0, 1]],
                  open_flag=True)
    obj = cone_to_json(C)
    C2 = cone_from_json(obj)
    assert C2 == C
    assert obj["open"] is True


def test_rho_positive_on_chamber():
    for name in ("a2", "b3", "g2", "so(2,7)", "sl(4,h)"):
        R = build_root_system(name)
        r = rho(R)
        for v in chamber_rays(R):
            assert dot(r, v) > 0
