import ast
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

import rootsystem_oracle as oracle
from rootsystem_oracle import vector_action
from weylgrowth import cli, rootsystem
from weylgrowth.errors import CapExceeded, InputError, InternalError
from weylgrowth.growth import dominant_iota_classes, iota_vector_matrix
from weylgrowth.rational import dot, identity, is_zero, lincomb, matvec, vec, vscale, vzero
from weylgrowth.rootsystem import (
    apply_iota,
    build_root_system,
    dominant_representative,
    fundamental_weights,
    gram_images,
    iota_permutation,
    opposition_involution,
    rho,
    root_system_to_json,
    strongly_orthogonal_theta,
    wall_directions,
    weyl_group,
)


def test_preset_positive_root_counts():
    expected = {"a2": 3, "a3": 6, "b2": 4, "b3": 9, "c3": 9, "d4": 12, "g2": 6, "f4": 24}
    for name, count in expected.items():
        R = build_root_system(name)
        assert len(R.pos_roots) == count, name


def test_so2n_preset_b2_shape():
    R = build_root_system("so(2,5)")
    assert R.simple_roots == (vec([1, -1]), vec([0, 1]))
    mult = {r: m for r, m in R.pos_roots}
    assert mult[vec([1, -1])] == 1 and mult[vec([1, 1])] == 1
    assert mult[vec([1, 0])] == 3 and mult[vec([0, 1])] == 3


def test_rho_values():
    for n in range(3, 11):
        R = build_root_system(f"so(2,{n})")
        assert rho(R) == vec([Q(n, 2), Q(n - 2, 2)])
    A1 = build_root_system({"simple_roots": [[1]], "multiplicities": [{"root": [1], "m": 1}]})
    assert rho(A1) == vec(["1/2"])


def test_rho_is_memoised():
    R = build_root_system("b3")
    assert rho(R) is rho(R)
    # a function of the root system alone keeps the bare key
    assert "rho" in R._cache


def test_gram_images_are_memoised():
    for name in ("a2", "b3", "g2", "so(2,5)"):
        R = build_root_system(name)
        images = gram_images(R)
        G = R.inner_product
        assert images == (tuple(matvec(G, a) for a in R.simple_roots),
                          tuple(matvec(G, w) for w in fundamental_weights(R))), name
        assert gram_images(R) is images
        # the images pair exactly as R.ip does
        mu = rho(R)
        assert [dot(mu, ga) for ga in images[0]] == [R.ip(mu, a) for a in R.simple_roots]


def test_cache_is_indexed_only_inside_memo():
    # memo is the one cache mechanism: no other code reads or writes _cache[...]
    offenders = []
    for path in sorted(Path(rootsystem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "memo"
                  for n in ast.walk(f)}
        offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                      if isinstance(n, ast.Subscript)
                      and isinstance(n.value, ast.Attribute)
                      and n.value.attr == "_cache" and id(n) not in inside]
    assert offenders == []


def test_irreducible_components():
    cases = {"a3": [[0, 1, 2]], "e8": [list(range(8))], "d2": [[0], [1]]}
    for name, comps in cases.items():
        assert build_root_system(name).irreducible_components() == comps, name
    a2a1 = {"simple_roots": [[1, -1, 0, 0], [0, 0, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]]}
    assert build_root_system(a2a1).irreducible_components() == [[0, 1, 2], [3]]
    a1b2 = {"simple_roots": [[1, 0, 0], [0, 1, -1], [0, 0, 1]]}
    assert build_root_system(a1b2).irreducible_components() == [[0], [1, 2]]


def test_custom_a1():
    R = build_root_system({"simple_roots": [[1]]})
    assert R.pos_roots == ((vec([1]), Q(1)),)
    assert fundamental_weights(R) == (vec(["1/2"]),)
    assert strongly_orthogonal_theta(R)[1] == vec(["1/2"])


def test_weyl_group_orders():
    orders = {"a1": 2, "a2": 6, "b2": 8, "g2": 12, "a3": 24, "b3": 48}
    for name, order in orders.items():
        R = build_root_system(name)
        assert len(weyl_group(R)) == order, name


def test_weyl_cap_refusal(monkeypatch):
    # the cap is fixed; b3's group has order 48
    monkeypatch.setattr(rootsystem, "WEYL_CAP_DEFAULT", 10)
    R = build_root_system("b3")
    with pytest.raises(CapExceeded, match="above the cap 10; this cap is fixed"):
        weyl_group(R)
    assert "weyl_group" not in R._cache


def test_weyl_preserves_form():
    for name in ("b2", "a2", "g2"):
        R = build_root_system(name)
        xs = [vec([1, 2]), vec([-3, 5])]
        for w in weyl_group(R):
            for x in xs:
                for y in xs:
                    assert R.ip(matvec(w, x), matvec(w, y)) == R.ip(x, y)


def test_fundamental_weights_b3_b2():
    B3 = build_root_system("b3")
    assert fundamental_weights(B3) == (vec([1, 0, 0]), vec([1, 1, 0]), vec(["1/2", "1/2", "1/2"]))
    B2 = build_root_system("b2")
    assert fundamental_weights(B2) == (vec([1, 0]), vec(["1/2", "1/2"]))


def test_fundamental_weights_defining_property():
    for name in ("a2", "g2", "b3", "so(2,5)", "sl(3,c)"):
        R = build_root_system(name)
        ws = fundamental_weights(R)
        for i, w in enumerate(ws):
            for j, b in enumerate(R.simple_roots):
                expect = R.ip(b, b) / 2 if i == j else 0
                assert R.ip(w, b) == expect


def test_opposition_involution():
    for name in ("b2", "b3", "so(2,7)"):
        R = build_root_system(name)
        assert opposition_involution(R) == identity(R.rank), name
    A2 = build_root_system("a2")
    perm = iota_permutation(A2)
    assert perm == {0: 1, 1: 0}
    A1 = build_root_system({"simple_roots": [[1]]})
    assert opposition_involution(A1) == identity(1)


@pytest.mark.parametrize("pi", [((1, 1), (0, 1)), ((1, 0), (1, 0))])
def test_sigma_guard_rejects_a_non_permutation(monkeypatch, pi):
    R = build_root_system("a2")
    monkeypatch.setattr(rootsystem, "_minus_w0", lambda R: pi)
    with pytest.raises(InternalError, match="not a permutation matrix"):
        iota_permutation(R)


def test_iota_is_involution_and_fixes_rho():
    for name in ("a2", "a3", "b3", "g2", "so(2,5)", "sl(4,r)"):
        R = build_root_system(name)
        iota = opposition_involution(R)
        from weylgrowth.rational import matmul
        assert matmul(iota, iota) == identity(R.rank)
        assert apply_iota(R, rho(R)) == rho(R)
        perm = iota_permutation(R)
        ws = fundamental_weights(R)
        for i, j in perm.items():
            assert apply_iota(R, ws[i]) == ws[j]


def test_theta_values():
    B2 = build_root_system("b2")
    sel, theta = strongly_orthogonal_theta(B2)
    assert set(sel) == {vec([1, 1]), vec([1, -1])}
    assert theta == vec([1, 0])
    B3 = build_root_system("b3")
    sel3, theta3 = strongly_orthogonal_theta(B3)
    assert set(sel3) == {vec([1, 1, 0]), vec([1, -1, 0]), vec([0, 0, 1])}
    assert theta3 == vec([1, 0, "1/2"])
    for n in range(3, 11):
        assert strongly_orthogonal_theta(build_root_system(f"so(2,{n})"))[1] == vec([1, 0])


def test_theta_selection_strongly_orthogonal():
    for name in ("a3", "b3", "g2", "d4", "so(2,6)"):
        R = build_root_system(name)
        sel, _ = strongly_orthogonal_theta(R)
        roots = oracle.root_set(R)
        for i, b in enumerate(sel):
            for g in sel[i + 1:]:
                assert R.ip(b, g) == 0
                assert tuple(x + y for x, y in zip(b, g)) not in roots
                assert tuple(x - y for x, y in zip(b, g)) not in roots


def test_dominant_representative():
    B2 = build_root_system("b2")
    lamp, w = dominant_representative(B2, vec([-1, 0]))
    assert lamp == vec([1, 0])
    assert matvec(w, vec([-1, 0])) == lamp
    lamp2, _ = dominant_representative(B2, vec([0, 1]))
    assert lamp2 == vec([1, 0])
    lam3 = vec([3, 1])
    assert dominant_representative(B2, lam3)[0] == lam3


def test_dominant_representative_random_orbit():
    rng = random.Random(7)
    for name in ("b2", "a3", "g2"):
        R = build_root_system(name)
        W = weyl_group(R)
        for _ in range(25):
            lam = vec([Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(R.rank)])
            lamp, w = dominant_representative(R, lam)
            assert R.is_dominant_covector(lamp)
            assert matvec(w, lam) == lamp
            assert any(matvec(u, lam) == lamp for u in W)


def test_rightangles_on_random_dominant_pairs():
    # dominant vectors of an irreducible system pair strictly positively
    rng = random.Random(11)
    for name in ("a2", "b2", "b3", "g2"):
        R = build_root_system(name)
        vs = [v for v in fundamental_weights(R)]
        for _ in range(200):
            c1 = [Q(rng.randint(0, 5)) for _ in vs]
            c2 = [Q(rng.randint(0, 5)) for _ in vs]
            v = vzero(R.rank)
            w = vzero(R.rank)
            for c, x in zip(c1, vs):
                v = tuple(a + c * b for a, b in zip(v, x))
            for c, x in zip(c2, vs):
                w = tuple(a + c * b for a, b in zip(w, x))
            if is_zero(v) or is_zero(w):
                continue
            assert R.ip(v, w) > 0


def test_vector_action_is_dual():
    R = build_root_system("a2")
    for w in weyl_group(R):
        wa = vector_action(R, w)
        mu = vec([2, -1])
        v = vec([1, 3])
        assert dot(matvec(w, mu), matvec(wa, v)) == dot(mu, v)


def test_bad_inputs():
    with pytest.raises(InputError):
        build_root_system("z9")
    with pytest.raises(InputError):
        build_root_system({"simple_roots": [[1, 0], [2, 0]]})
    with pytest.raises(InputError):
        build_root_system({"simple_roots": [[1, 0], [0, 1]], "inner_product": [[1, 2], [2, 1]]})
    with pytest.raises(InputError):  # positive pairing between simple roots
        build_root_system({"simple_roots": [[1, 0], [1, 1]]})
    with pytest.raises(InputError):  # non-crystallographic angle
        build_root_system({"simple_roots": [[1, 0], ["-1/3", 1]]})


def test_multiplicity_w_invariance_enforced():
    bad = {
        "simple_roots": [[1, -1], [0, 1]],
        "multiplicities": [
            {"root": [1, -1], "m": 1}, {"root": [1, 1], "m": 2},
            {"root": [1, 0], "m": 3}, {"root": [0, 1], "m": 3},
        ],
    }
    with pytest.raises(InputError):
        build_root_system(bad)


def test_bc_non_reduced_support():
    spec = {
        "simple_roots": [[1]],
        "multiplicities": [{"root": [1], "m": 2}, {"root": [2], "m": 1}],
    }
    R = build_root_system(spec)
    assert (vec([2]), Q(1)) in R.pos_roots
    assert rho(R) == vec([2])  # (2*1 + 1*2)/2
    sel, theta = strongly_orthogonal_theta(R)
    assert sel == (vec([2]),) and theta == vec([1])


def test_json_roundtrip():
    R = build_root_system("so(2,5)")
    obj = root_system_to_json(R)
    assert obj["pos_roots"][0]["m"] in (1, 3)
    R2 = build_root_system({"simple_roots": obj["simple_roots"],
                            "multiplicities": [{"root": e["root"], "m": e["m"]}
                                               for e in obj["pos_roots"]],
                            "inner_product": obj["inner_product"]})
    assert R2.pos_roots == R.pos_roots
    assert build_root_system({"preset": "b3"}).label == "b3"


B2_MULT3 = {"simple_roots": [[1, -1], [0, 1]],
            "multiplicities": [{"root": [1, -1], "m": 1}, {"root": [0, 1], "m": 3}]}
BC1 = {"simple_roots": [[1]], "multiplicities": [{"root": [1], "m": 2}, {"root": [2], "m": 1}]}
ORACLE_SYSTEMS = (
    [f"a{n}" for n in range(1, 10)] + [f"b{n}" for n in range(2, 9)]
    + [f"c{n}" for n in range(2, 7)] + [f"d{n}" for n in range(2, 9)]
    + ["e6", "e7", "e8", "f4", "g2", "sl(3,r)", "sl(4,c)", "sl(5,h)", "so(2,3)",
       "so(2,7)", "so(3,5)", "so(4,7)", "so(4,4)",
       pytest.param({"simple_roots": [[1]]}, id="custom-a1"),
       pytest.param(BC1, id="custom-bc1"), pytest.param(B2_MULT3, id="custom-b2-m3")])


@pytest.mark.parametrize("spec", ORACLE_SYSTEMS)
def test_integer_core_matches_fraction_oracle(spec):
    R = build_root_system(spec)
    simple, G, pos_roots, heights, label = oracle.build(spec)
    assert R.label == label
    assert R.cartan == oracle.cartan(simple, G)
    for name in ("rho", "fundamental_weights", "gram_images"):
        assert repr(getattr(rootsystem, name)(R)) == repr(getattr(oracle, name)(R)), name
    assert R.pos_roots == pos_roots
    assert [lincomb(c, simple) for c in R.coords] == [r for r, _ in pos_roots]
    assert {r: sum(c) for (r, _), c in zip(R.pos_roots, R.coords)} == heights
    assert strongly_orthogonal_theta(R) == oracle.theta(R)
    # the subsystem heights at every cascade step equal the solves
    amb = {c: r for c, (r, _) in zip(R.coords, R.pos_roots)}
    remaining, allroots = list(R.coords), oracle.root_set(R)
    for top in strongly_orthogonal_theta(R)[0]:
        assert rootsystem._subsystem_heights(remaining) == oracle.subsystem_heights(remaining)
        remaining = [c for c in remaining
                     if oracle.strongly_orthogonal(R, amb[c], top, allroots)]
    assert remaining == []
    assert opposition_involution(R) == oracle.iota(R)
    assert iota_permutation(R) == oracle.iota_permutation(R)
    assert iota_vector_matrix(R) == oracle.iota_vector_matrix(R)
    assert wall_directions(R) == oracle.wall_directions(R)
    assert dominant_iota_classes(R) == oracle.dominant_iota_classes(R)
    if R.rank <= 4:  # |W| <= 1152, f4 included
        assert weyl_group(R) == oracle.weyl_group(R)
    rng = random.Random(R.rank)
    for _ in range(8):
        lam = vec([Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(R.rank)])
        assert dominant_representative(R, lam) == oracle.dominant_representative(R, lam)


BAD_SPECS = {
    "unknown-preset": "z9",
    "dependent": {"simple_roots": [[1, 0], [2, 0]]},
    "not-definite": {"simple_roots": [[1, 0], [0, 1]], "inner_product": [[1, 2], [2, 1]]},
    "positive-pairing": {"simple_roots": [[1, 0], [1, 1]]},
    "non-crystallographic": {"simple_roots": [[1, 0], ["-1/3", 1]]},
    "zero-root-rank2": {"simple_roots": [[1, 0], [0, 0]]},
    "zero-root-rank1": {"simple_roots": [[0]]},
    "mult-not-a-root": {"simple_roots": [[1]], "multiplicities": [{"root": [3], "m": 1}]},
    "mult-conflict": {"simple_roots": [[1]],
                      "multiplicities": [{"root": [1], "m": 1}, {"root": [1], "m": 2}]},
    "mult-missing": {"simple_roots": [[1, -1], [0, 1]],
                     "multiplicities": [{"root": [1, 0], "m": 2}]},
    "mult-not-invariant": {"simple_roots": [[1, -1], [0, 1]],
                           "multiplicities": [{"root": [1, -1], "m": 1}, {"root": [1, 1], "m": 2},
                                              {"root": [1, 0], "m": 3}, {"root": [0, 1], "m": 3}]},
}


@pytest.mark.parametrize("spec", BAD_SPECS.values(), ids=BAD_SPECS.keys())
def test_bad_input_messages_match_oracle(spec):
    with pytest.raises(InputError) as want:
        oracle.build(spec)
    with pytest.raises(InputError) as got:
        build_root_system(spec)
    assert str(got.value) == str(want.value)
    assert "Fraction(" not in str(got.value)


def test_zero_simple_root_is_rejected():
    # b - 0 = b, so the closure's root-string loop never ended
    for simple in ([[1, 0], [0, 0]], [[0]]):
        with pytest.raises(InputError, match="not linearly independent"):
            build_root_system({"simple_roots": simple})


def test_bounds_runs_the_cascade_once(monkeypatch):
    # one subsystem height table per cascade step, and bound_wall_avoided
    # reads the memoised cascade
    steps = len(strongly_orthogonal_theta(build_root_system("f4"))[0])
    calls = []
    real = rootsystem._subsystem_heights

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(rootsystem, "_subsystem_heights", counted)
    assert cli.main(["bounds", "--preset", "f4"]) == 0
    assert len(calls) == steps == 4
