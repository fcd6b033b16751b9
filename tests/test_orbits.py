"""Orbit sampler: enumeration, projections, cones, exponent estimates."""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from weylgrowth import cli, orbits
from weylgrowth.errors import CapExceeded, InputError
from weylgrowth.rootsystem import build_root_system, iota_permutation
from weylgrowth.orbits import (
    ESTIMATE_FLAG,
    ORBIT_CAP_DEFAULT,
    MatrixGroupSpec,
    CHECK_TOL,
    _cartan_point,
    _cartan_points,
    _letters,
    build_group_spec,
    empirical_limit_cone,
    enumerate_orbit,
    estimate_exponent,
    iota_symmetry_check,
    sample_to_csv,
    validate_cartan_sample,
)

E = math.e


def cyclic3(lam=E, depth=12):
    return {"ambient": "sl3r",
            "generators": [[[lam, 0, 0], [0, 1, 0], [0, 0, 1 / lam]]],
            "max_word_length": depth}


def free_pair_sl2(depth=9):
    # two hyperbolics with separated axes; empirically free at these depths
    A = np.diag([3.0, 1 / 3])
    M = np.array([[1.0, 1.0], [1.0, 2.0]])
    B = M @ A @ np.linalg.inv(M)
    return {"ambient": "sl2r", "generators": [A.tolist(), B.tolist()],
            "max_word_length": depth}


def block_pair_sl4():
    """Two generic diagonalizable hyperbolics of SL(2)xSL(2) inside SL(4)."""
    A = np.diag([2.0, 0.5])
    C = np.diag([1.7, 1 / 1.7])
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    B = M @ np.diag([2.5, 0.4]) @ np.linalg.inv(M)
    D = M @ np.diag([3.0, 1 / 3]) @ np.linalg.inv(M)
    g = np.zeros((4, 4)); g[:2, :2] = A; g[2:, 2:] = C
    h = np.zeros((4, 4)); h[:2, :2] = B; h[2:, 2:] = D
    return {"ambient": "sl4r", "generators": [g.tolist(), h.tolist()],
            "max_word_length": 8}


def _reference_point(P):
    """One word's projection, as the per-word enumeration computed it."""
    try:
        s = np.linalg.svd(P, compute_uv=False)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(s)) or s[-1] <= 0.0:
        return None
    ls = np.log(s)
    ls = ls - ls.mean()
    return tuple(float(x) for x in ls)


def reference_enumeration(spec, cap=ORBIT_CAP_DEFAULT):
    """Breadth first, one word at a time: (points, dropped).

    The enumeration enumerate_orbit replaced with stacked levels; the
    batched one must give the same points, drop count and cap error.
    """
    spec = build_group_spec(spec)
    mats, m = _letters(spec)
    points = [(tuple(0.0 for _ in range(spec.n)), 0)]
    dropped = 0
    count = 1
    frontier = [(np.eye(spec.n), -1)]
    for length in range(1, spec.max_word_length + 1):
        seen = set()
        nxt = []
        level = []
        for M, last in frontier:
            for j, L in enumerate(mats):
                if last >= 0 and j == (last + m) % (2 * m):
                    continue
                P = M @ L
                mu = _reference_point(P) if np.all(np.isfinite(P)) else None
                if mu is None:
                    dropped += 1
                    continue
                key = tuple(int(round(x / spec.dedupe_tolerance)) for x in mu)
                if key in seen:
                    continue
                seen.add(key)
                count += 1
                if count > cap:
                    raise CapExceeded("orbit enumeration", count, cap)
                level.append(mu)
                nxt.append((P, j))
        points.extend((mu, length) for mu in sorted(level))
        frontier = nxt
        if not frontier:
            break
    return tuple(points), dropped


def seeded_pair(n, seed, depth, tol=1e-6):
    """Two generic generators near the identity, positive determinant."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        A = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.det(A) < 0:
            A[0] *= -1
        gens.append(A.tolist())
    return {"ambient": f"sl{n}r", "generators": gens,
            "max_word_length": depth, "dedupe_tolerance": tol}


ORACLE_SPECS = {
    "sl3r": seeded_pair(3, 1, 6),
    "sl3r-coarse": seeded_pair(3, 2, 7, tol=0.05),
    "sl4r": seeded_pair(4, 3, 5),
    "sl5r": seeded_pair(5, 4, 5, tol=1e-3),
    "cyclic-dropped": cyclic3(depth=560),
    "block-pair-sl4": block_pair_sl4(),
    "no-generators": {"ambient": "sl3r", "generators": [],
                      "max_word_length": 5},
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_enumeration_matches_per_word_oracle(name):
    S = enumerate_orbit(ORACLE_SPECS[name])
    assert (S.points, S.dropped) == reference_enumeration(ORACLE_SPECS[name])


def test_enumeration_blocks_match_oracle(monkeypatch):
    # blocks of 7 words split every level, and parents, across products
    monkeypatch.setattr(orbits, "_BLOCK_WORDS", 7)
    spec = seeded_pair(3, 5, 5, tol=0.01)
    S = enumerate_orbit(spec)
    assert (S.points, S.dropped) == reference_enumeration(spec)


def test_failed_stacked_svd_falls_back_per_matrix(monkeypatch):
    """A stack whose SVD raises is projected one matrix at a time, and a
    matrix whose own SVD raises is dropped alone."""
    real = np.linalg.svd
    calls = {"stacks": 0}

    def picky(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim == 3 and len(a) > 1:
            calls["stacks"] += 1
            raise np.linalg.LinAlgError("SVD did not converge")
        if a[..., 0, 0].max() > 2.0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", picky)
    spec = seeded_pair(3, 1, 5)
    S = enumerate_orbit(spec)
    points, dropped = reference_enumeration(spec)
    assert calls["stacks"] > 0 and dropped > 0
    assert (S.points, S.dropped) == (points, dropped)


def test_trivial_group_is_origin():
    S = enumerate_orbit({"ambient": "sl3r", "generators": [],
                         "max_word_length": 5})
    assert S.points == (((0.0, 0.0, 0.0), 0),)
    assert S.rank == 2 and S.dropped == 0


def test_cyclic_diagonal_points():
    S = enumerate_orbit(cyclic3())
    assert len(S.points) == 13
    for p, wl in S.points:
        assert max(abs(a - b) for a, b in zip(p, (wl, 0.0, -wl))) <= 1e-9
    validate_cartan_sample(S)


def test_spec_validation():
    with pytest.raises(InputError):
        build_group_spec({"ambient": "sl9r", "generators": [],
                          "max_word_length": 3})
    with pytest.raises(InputError):
        build_group_spec({"ambient": "sl2r", "generators": [[[1, 2, 3]]],
                          "max_word_length": 3})
    with pytest.raises(InputError):
        build_group_spec({"ambient": "sl2r",
                          "generators": [[[1.0, 1.0], [1.0, 1.0]]],
                          "max_word_length": 3})
    with pytest.raises(InputError):
        build_group_spec({"ambient": "sl2r",
                          "generators": [[[1.0, 0.0], [0.0, -1.0]]],
                          "max_word_length": 3})
    with pytest.raises(InputError):
        build_group_spec({"ambient": "sl3r", "generators": [],
                          "max_word_length": 0})
    with pytest.raises(InputError):
        build_group_spec({"ambient": "sl3r", "generators": [],
                          "max_word_length": 3, "dedupe_tolerance": 0.0})


def test_spec_renormalizes_determinant():
    spec = build_group_spec({"ambient": "SL(3,R)",
                             "generators": [[[2, 0, 0], [0, 2, 0], [0, 0, 2]]],
                             "max_word_length": 3})
    assert isinstance(spec, MatrixGroupSpec) and spec.ambient == "sl3r"
    G = np.array(spec.generators[0])
    assert np.allclose(G, np.eye(3))
    # odd ambient dimension tolerates a sign flip
    spec = build_group_spec({"ambient": "sl3r",
                             "generators": [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
                             "max_word_length": 2})
    assert np.allclose(np.array(spec.generators[0]), np.eye(3))


def test_enumeration_is_deterministic():
    a = enumerate_orbit(free_pair_sl2(depth=5))
    b = enumerate_orbit(free_pair_sl2(depth=5))
    assert a.points == b.points


def test_cap_exceeded_on_free_pair():
    with pytest.raises(CapExceeded) as ex:
        enumerate_orbit(free_pair_sl2(depth=12), cap=1500)
    assert ex.value.cap == 1500 and ex.value.needed == 1501
    # the first word past the cap raises, on a level boundary too
    total = len(enumerate_orbit(free_pair_sl2(depth=5)).points)
    assert len(enumerate_orbit(free_pair_sl2(depth=5), cap=total).points) == total
    with pytest.raises(CapExceeded) as ex:
        enumerate_orbit(free_pair_sl2(depth=5), cap=total - 1)
    assert ex.value.needed == total


def test_degenerate_products_dropped_with_count():
    # unit log spacing saturates double-precision SVD near word length 530
    S = enumerate_orbit(cyclic3(depth=560))
    assert S.dropped >= 1
    assert len(S.points) < 560
    validate_cartan_sample(S)


def test_cyclic_limit_cone_is_single_ray():
    S = enumerate_orbit(cyclic3())
    C = empirical_limit_cone(S, radius_cut=3.0)
    assert len(C.generators) == 1
    d = [float(x) for x in C.generators[0]]
    r = math.sqrt(sum(x * x for x in d))
    target = (1 / math.sqrt(2), 0.0, -1 / math.sqrt(2))
    assert max(abs(a / r - b) for a, b in zip(d, target)) <= 1e-9


def test_radius_cut_beyond_sample():
    S = enumerate_orbit(cyclic3())
    with pytest.raises(InputError, match="max_word_length"):
        empirical_limit_cone(S, radius_cut=1e6)


def test_commuting_blocks_cone_extremes():
    g = [[2, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    h = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1 / 3]]
    S = enumerate_orbit({"ambient": "sl4r", "generators": [g, h],
                         "max_word_length": 12})
    C = empirical_limit_cone(S, radius_cut=1.0)
    gens = [[float(x) for x in gg] for gg in C.generators]
    assert len(gens) == 2
    best_axis = min(max(abs(a - b) for a, b in
                        zip(gg, (1 / math.sqrt(2), 0, 0, -1 / math.sqrt(2))))
                    for gg in gens)
    best_diag = min(max(abs(a - b) for a, b in zip(gg, (0.5, 0.5, -0.5, -0.5)))
                    for gg in gens)
    assert best_axis <= 1e-9
    # finite depth reaches the balanced ray only approximately
    assert best_diag <= 0.05


def test_product_lattice_width_approaches_chamber():
    """Two nonelementary SL(2) factors fill their quadrant chamber.

    The sorted projection folds the 90 degree quadrant onto a 45 degree
    wedge; with a swap-symmetric generating set the unfolded width is
    90 minus twice the smallest folded angle.
    """
    A = np.diag([E, 1 / E])
    M = np.array([[1.0, 1.0], [1.0, 2.0]])
    B = M @ A @ np.linalg.inv(M)
    I2 = np.eye(2)

    def embed(top, bot):
        Z = np.zeros((4, 4))
        Z[:2, :2] = top
        Z[2:, 2:] = bot
        return Z.tolist()

    gens = [embed(A, I2), embed(B, I2), embed(I2, A), embed(I2, B)]

    def width(depth):
        S = enumerate_orbit({"ambient": "sl4r", "generators": gens,
                             "max_word_length": depth,
                             "dedupe_tolerance": 0.1})
        folded = 90.0
        for p, wl in S.points:
            if wl == 0:
                continue
            folded = min(folded, math.degrees(math.atan2(max(p[1], 0.0), p[0])))
        return 90.0 - 2.0 * folded

    widths = [width(d) for d in (4, 8, 12)]
    assert widths[0] <= widths[1] + 1e-9 <= widths[2] + 2e-9
    assert widths[2] >= 80.0


def test_block_pair_matches_extended_precision_oracle():
    """Float pipeline vs dense products recomputed at 60 digits."""
    from mpmath import mp

    spec = build_group_spec(block_pair_sl4())
    mats, m = _letters(spec)
    with mp.workdps(60):
        mp_mats = [mp.matrix(Mm.tolist()) for Mm in mats]
        rng = random.Random(7)
        worst = 0.0
        for _ in range(100):
            L = rng.randint(1, 8)
            word, last = [], -1
            for _ in range(L):
                allowed = [j for j in range(2 * m)
                           if last < 0 or j != (last + m) % (2 * m)]
                last = rng.choice(allowed)
                word.append(last)
            P = np.eye(4)
            Q = mp.eye(4)
            for j in word:
                P = P @ mats[j]
                Q = Q * mp_mats[j]
            pt = _cartan_point(P)
            eig = mp.eigsy(Q.T * Q, eigvals_only=True)
            ls = sorted((0.5 * mp.log(x) for x in eig), reverse=True)
            mean = sum(ls) / len(ls)
            oracle = [float(x - mean) for x in ls]
            worst = max(worst, max(abs(a - b) for a, b in zip(pt, oracle)))
    # float pipeline must stay well inside the 1e-6 dedupe grid
    assert worst <= 1e-7


# the recorded benchmark pool, read only
POOL = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                   / "orbits.json").read_text())


def linprog_convex_position(dirs):
    """Convex position by one HiGHS feasibility LP per direction.

    Drops, in turn, each direction that is a nonnegative combination of
    the others still kept; the hull path must keep the same directions in
    the same order.
    """
    from scipy.optimize import linprog

    kept = list(dirs)
    i = 0
    while i < len(kept) and len(kept) > 1:
        others = kept[:i] + kept[i + 1:]
        A = np.array(others, dtype=float).T
        res = linprog(c=np.zeros(len(others)), A_eq=A, b_eq=np.array(kept[i]),
                      bounds=[(0, None)] * len(others), method="highs")
        if res.status == 0:
            kept.pop(i)
        else:
            i += 1
    return kept


def unit_directions(S, radius_cut):
    """The normalized sample points of norm at least radius_cut, in order."""
    dirs = []
    for p, _ in S.points:
        r = math.sqrt(sum(x * x for x in p))
        if r >= radius_cut and r > 0:
            dirs.append(tuple(x / r for x in p))
    return dirs


def cone_directions(S, radius_cut):
    """The directions the per-direction loop filtered: the unit directions
    deduped at 6 decimals, each key's last direction at its first place."""
    uniq = {}
    for d in unit_directions(S, radius_cut):
        uniq[tuple(round(x, 6) for x in d)] = d
    return list(uniq.values())


def angular_extremes(S, radius_cut):
    """The rank-2 rule the hull replaced: the first directions of least and
    of greatest angle in the fan, or that of greatest angle alone when the
    angles spread by at most 1e-12."""
    dirs = unit_directions(S, radius_cut)
    u1 = (1 / math.sqrt(2), 0.0, -1 / math.sqrt(2))
    u2 = (1 / math.sqrt(6), -2 / math.sqrt(6), 1 / math.sqrt(6))
    angs = [math.atan2(sum(a * b for a, b in zip(d, u2)),
                       sum(a * b for a, b in zip(d, u1))) for d in dirs]
    lo = min(range(len(angs)), key=angs.__getitem__)
    hi = max(range(len(angs)), key=angs.__getitem__)
    if angs[hi] - angs[lo] <= 1e-12:
        return [dirs[hi]]
    return [dirs[lo], dirs[hi]]


def axis_spreads(dirs):
    """Per principal axis of the slice points d / <rho, d>, the largest
    distance of a point from their mean along it."""
    D = np.array(dirs)
    n = D.shape[1]
    Y = D / (D @ ((n - 1) / 2 - np.arange(n)))[:, None]
    Y -= Y.mean(axis=0)
    return np.abs(Y @ np.linalg.svd(Y, full_matrices=False)[2].T).max(axis=0)


def generator_list(C):
    return [tuple(float(x) for x in g) for g in C.generators]


def tail_cut(S, tail=40):
    """The radius that keeps the tail farthest points, as the pool's cuts do."""
    return sorted((math.sqrt(sum(x * x for x in p)) for p, _ in S.points),
                  reverse=True)[tail - 1]


# every sl4r and sl5r pool entry at its recorded cut (40 directions each);
# at 0.6 of the cut, the sl4r and the sl5r entry with the fewest directions
# (564 and 324), since the oracle takes 2-16 s per entry there
CONE_CASES = ([(kind, i, 1.0) for kind in ("sl4r", "sl5r") for i in range(12)]
              + [("sl4r", 0, 0.6), ("sl5r", 7, 0.6),
                 ("seeded-sl4r", None, None), ("seeded-sl5r", None, None),
                 ("block-pair-sl4", None, None), ("seeded-sl6r", None, None)])
# specs cut at their 40th-largest point norm
CONE_SPECS = {"seeded-sl4r": ORACLE_SPECS["sl4r"],
              "seeded-sl5r": ORACLE_SPECS["sl5r"],
              "block-pair-sl4": ORACLE_SPECS["block-pair-sl4"],
              "seeded-sl6r": seeded_pair(6, 9, 4)}


@pytest.mark.parametrize("kind,index,scale", CONE_CASES)
def test_convex_position_matches_linprog_oracle(kind, index, scale):
    if index is None:
        S = enumerate_orbit(CONE_SPECS[kind])
        cut = tail_cut(S)
    else:
        entry = POOL[kind][index]
        S = enumerate_orbit(entry["spec"])
        cut = entry["radius_cut"] * scale
    dirs = cone_directions(S, cut)
    kept = generator_list(empirical_limit_cone(S, cut))
    assert kept == linprog_convex_position(dirs)
    assert 1 < len(kept) < len(dirs)
    # no axis spreads within two decades of the flatness tolerance either way
    assert all(s <= orbits._FLAT_TOL / 100 or s >= orbits._FLAT_TOL * 100
               for s in axis_spreads(unit_directions(S, cut)))


# every sl3r pool entry at 1.0, 0.6 and 0.2 of its cut, and the rank-2
# oracle specs at their 40th-largest point norm
RANK2_CASES = ([(i, scale) for i in range(12) for scale in (1.0, 0.6, 0.2)]
               + [(name, None) for name in ("sl3r", "sl3r-coarse",
                                            "cyclic-dropped")])


@pytest.mark.parametrize("index,scale", RANK2_CASES)
def test_rank2_cone_matches_angular_extremes(index, scale):
    if scale is None:
        S = enumerate_orbit(ORACLE_SPECS[index])
        cut = tail_cut(S)
    else:
        entry = POOL["sl3r"][index]
        S = enumerate_orbit(entry["spec"])
        cut = entry["radius_cut"] * scale
    assert generator_list(empirical_limit_cone(S, cut)) == \
        angular_extremes(S, cut)


def test_sl2_cone_is_one_ray():
    S = enumerate_orbit(free_pair_sl2())
    dirs = unit_directions(S, tail_cut(S))
    C = empirical_limit_cone(S, tail_cut(S))
    assert generator_list(C) == dirs[:1]
    r = 1 / math.sqrt(2)
    assert max(abs(a - b) for a, b in zip(dirs[0], (r, -r))) <= 1e-12


def chamber_rays_sl4():
    """Unit rays of the sl4r Weyl chamber: the fundamental weights."""
    rays = [(3, -1, -1, -1), (1, 1, -1, -1), (1, 1, 1, -3)]
    return [tuple(x / math.sqrt(sum(y * y for y in r)) for x in r) for r in rays]


def combined_directions():
    """Chamber rays, eight positive combinations, then a copy of the first ray."""
    rays = chamber_rays_sl4()
    rng = random.Random(11)
    combos = []
    for _ in range(8):
        w = [rng.uniform(0.1, 1.0) for _ in rays]
        combos.append(tuple(sum(wi * r[k] for wi, r in zip(w, rays))
                            for k in range(4)))
    return rays + combos + [rays[0]]


def test_convex_position_keeps_only_chamber_rays():
    dirs = combined_directions()
    rays = chamber_rays_sl4()
    kept = orbits._extreme_directions(np.array(dirs))
    # one of the first ray's two copies, whichever Qhull picks
    assert kept == sorted(kept) and len(kept) == 3
    assert {dirs[i] for i in kept} == set(rays)
    # the oracle tests the first ray against its own copy; the copy then stays
    assert linprog_convex_position(dirs) == [rays[1], rays[2], rays[0]]


# recorded from the HiGHS-based implementation on two pool entries; the
# limit cone and the exponent fit must reproduce them bit for bit
PINNED = {
    ("sl3r", 0): {
        "generators": [
            [0.5138922948650304, 0.2925409151620144, -0.8064332100270448],
            [0.8064332100270448, -0.2925409151620138, -0.513892294865031]],
        "exponent": {
            "estimate": 0.1855628987485248,
            "band": [0.18030892962882825, 0.19081686786822136],
            "regime": [2.6362487174987157, 5.272497434997431],
            "points_used": 482, "flag": ESTIMATE_FLAG}},
    ("sl4r", 0): {
        "generators": [
            [0.5677931046131357, 0.35955404842511857, -0.2204190745147378,
             -0.7069280785235164],
            [0.5475264659685181, 0.40456396293471464, -0.2719561694810285,
             -0.6801342594222042],
            [0.5468541227098057, 0.406189003903432, -0.27426496762818553,
             -0.6787781589850522],
            [0.5835957280456406, 0.3364247798971761, -0.21200266723227615,
             -0.7080178407105404],
            [0.5419418124803246, 0.42613642147619457, -0.31652928346569076,
             -0.6515489504908285],
            [0.6801342594222027, 0.2719561694810304, -0.40456396293471275,
             -0.5475264659685204],
            [0.7069280785235201, 0.22041907451473153, -0.35955404842511873,
             -0.5677931046131331],
            [0.708017840710542, 0.21200266723227423, -0.3364247798971772,
             -0.583595728045639],
            [0.6787781589850505, 0.27426496762818825, -0.4061890039034326,
             -0.546854122709806],
            [0.651548950490829, 0.31652928346569004, -0.4261364214761929,
             -0.541941812480326]],
        "exponent": {
            "estimate": 0.3711489403448349,
            "band": [0.36116749216780575, 0.3811303885218641],
            "regime": [1.8086300874015548, 3.6172601748031097],
            "points_used": 784, "flag": ESTIMATE_FLAG}},
}


@pytest.mark.parametrize("kind,index", sorted(PINNED))
def test_pool_cone_and_exponent_pinned(kind, index):
    entry = POOL[kind][index]
    S = enumerate_orbit(entry["spec"])
    C = empirical_limit_cone(S, entry["radius_cut"])
    assert [[float(x) for x in g] for g in C.generators] == \
        PINNED[kind, index]["generators"]
    assert estimate_exponent(S, entry["mu"]) == PINNED[kind, index]["exponent"]


def test_exponent_cyclic_is_near_zero():
    # quarter log spacing keeps a thousand words inside float range
    S = enumerate_orbit(cyclic3(lam=math.exp(0.25), depth=1200))
    assert len(S.points) >= 1000
    rep = estimate_exponent(S, (0.5, 0.0, -0.5))
    assert abs(rep["estimate"]) <= 0.05
    assert rep["flag"] == ESTIMATE_FLAG
    assert rep["band"][0] <= rep["estimate"] <= rep["band"][1]
    assert rep["regime"][0] < rep["regime"][1]
    assert rep["points_used"] >= 100


def test_exponent_schottky_two_depth_consistency():
    mu = (0.5, -0.5)
    deep = estimate_exponent(enumerate_orbit(free_pair_sl2(depth=9)), mu)
    shallow = estimate_exponent(enumerate_orbit(free_pair_sl2(depth=8)), mu)
    assert abs(deep["estimate"] - shallow["estimate"]) <= 0.05
    assert 0.3 <= deep["estimate"] <= 1.2


def test_exponent_preconditions():
    S = enumerate_orbit(cyclic3(depth=12))
    with pytest.raises(InputError, match="1000"):
        estimate_exponent(S, (1.0, 0.0, -1.0))
    thin = enumerate_orbit(cyclic3(lam=math.exp(0.001), depth=1200))
    with pytest.raises(InputError, match="spread"):
        estimate_exponent(thin, (1.0, 0.0, -1.0))
    with pytest.raises(InputError):
        estimate_exponent(S, (1.0, -1.0))


def test_iota_symmetry_cyclic():
    rep = iota_symmetry_check(cyclic3(), depth=10)
    assert rep["pairs"] == 20
    assert rep["failures"] == 0
    assert rep["max_deviation"] <= 1e-12


def test_iota_symmetry_free_pair():
    rep = iota_symmetry_check(free_pair_sl2(depth=5))
    assert rep["pairs"] > 300
    assert rep["failures"] == 0


def reference_iota_check(spec, depth):
    """Per-word depth-first walk: the result dict of iota_symmetry_check.

    The walk iota_symmetry_check replaced with the level walker; it forms
    each word's product and its inverse's (letter^-1 times the parent's
    inverse) one word at a time and projects the two in one stacked call.
    """
    spec = build_group_spec(spec)
    mats, m = _letters(spec)
    n = spec.n
    pairs = 0
    failures = 0
    worst = 0.0
    stack = [(np.eye(n), np.eye(n), -1, 0)]
    while stack:
        P, Pinv, last, length = stack.pop()
        if length > 0:
            pts, keep = _cartan_points(np.stack((P, Pinv)))
            if keep.all():
                mu, nu = pts.tolist()
                pairs += 1
                expected = tuple(-x for x in reversed(mu))
                dev = max(abs(a - b) for a, b in zip(nu, expected))
                worst = max(worst, dev)
                if dev > CHECK_TOL:
                    failures += 1
        if length == depth:
            continue
        for j, L in enumerate(mats):
            if last >= 0 and j == (last + m) % (2 * m):
                continue
            inv_j = (j + m) % (2 * m)
            # overflowing products are degenerate words, as in _walk
            with np.errstate(over="ignore", invalid="ignore"):
                stack.append((P @ L, mats[inv_j] @ Pinv, j, length + 1))
    return {"pairs": pairs, "failures": failures,
            "max_deviation": float(worst), "tolerance": CHECK_TOL}


# every orbit spec the benchmark records, read only; several have failures
IOTA_SPECS = {f"{kind}-{i}": entry["spec"]
              for kind, entries in POOL.items()
              for i, entry in enumerate(entries)}
IOTA_SPECS.update({f"cli-{i}": entry["spec"] for i, entry in enumerate(
    json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                / "cli.json").read_text())["orbit"])})
IOTA_CASES = [(name, depth) for name in sorted(IOTA_SPECS) for depth in (5, 6)]
# degenerate words, which count no pair but are extended, and no letters
IOTA_SPECS.update({
    "cyclic-dropped": cyclic3(depth=560),
    "overflow-sl2": {"ambient": "sl2r",
                     "generators": [[[1e200, 0], [0, 1e-200]]],
                     "max_word_length": 3},
    "no-generators": ORACLE_SPECS["no-generators"]})
IOTA_CASES += [("cyclic-dropped", 560), ("overflow-sl2", 3),
               ("no-generators", 3)]


def _bits(rep):
    return dict(rep, max_deviation=rep["max_deviation"].hex())


@pytest.mark.parametrize("name,depth", IOTA_CASES)
def test_iota_check_matches_dfs_oracle(name, depth):
    rep = iota_symmetry_check(IOTA_SPECS[name], depth=depth)
    assert _bits(rep) == _bits(reference_iota_check(IOTA_SPECS[name], depth))


def test_iota_check_matches_oracle_across_blocks(monkeypatch):
    # blocks of 7 words split every level, on a spec with failures
    spec = IOTA_SPECS["sl5r-2"]
    expected = reference_iota_check(spec, 5)
    assert expected["failures"] > 0
    monkeypatch.setattr(orbits, "_BLOCK_WORDS", 7)
    assert _bits(iota_symmetry_check(spec, depth=5)) == _bits(expected)


def test_iota_check_cap_boundary(monkeypatch):
    # 4 + 12 + 36 = 52 reduced words; blocks of 7 end off the boundary
    monkeypatch.setattr(orbits, "_BLOCK_WORDS", 7)
    spec = free_pair_sl2()
    assert iota_symmetry_check(spec, depth=3, cap=52)["pairs"] == 52
    with pytest.raises(CapExceeded) as info:
        iota_symmetry_check(spec, depth=3, cap=51)
    assert (info.value.needed, info.value.cap) == (52, 51)
    assert iota_symmetry_check(cyclic3(), depth=10, cap=20)["pairs"] == 20
    with pytest.raises(CapExceeded):
        iota_symmetry_check(cyclic3(), depth=10, cap=19)


@pytest.mark.parametrize("depth", [0, -1, True, 2.0])
def test_iota_check_depth_below_one_rejected(depth):
    with pytest.raises(InputError, match="depth"):
        iota_symmetry_check(cyclic3(), depth=depth)


@pytest.mark.parametrize("n", range(2, 7))
def test_reversal_negation_is_sl_opposition_involution(n):
    """iota_symmetry_check's involution, coordinate reversal and negation,
    permutes the simple roots e_i - e_(i+1) as the sl(n, R) preset's does."""
    roots = [tuple(float(k == i) - float(k == i + 1) for k in range(n))
             for i in range(n - 1)]
    image = {i: roots.index(tuple(-x for x in reversed(a)))
             for i, a in enumerate(roots)}
    assert image == dict(iota_permutation(build_root_system(f"sl({n},r)")))


def test_csv_shape_and_determinism():
    S = enumerate_orbit(cyclic3(depth=4))
    text = sample_to_csv(S)
    lines = text.strip().split("\n")
    assert lines[0] == "word_length,x1,x2,x3"
    assert len(lines) == len(S.points) + 1
    assert text == sample_to_csv(S)
    row = lines[2].split(",")
    assert int(row[0]) == 1
    assert [float(x) for x in row[1:]] == [1.0, 0.0, -1.0]


def test_dominance_validation_rejects_bad_points():
    from weylgrowth.orbits import CartanSample
    bad = CartanSample(points=(((0.0, 1.0, -1.0), 1),), rank=2)
    with pytest.raises(InputError, match="sorted"):
        validate_cartan_sample(bad)
    drift = CartanSample(points=(((1.0, 0.5, 0.0), 1),), rank=2)
    with pytest.raises(InputError, match="trace"):
        validate_cartan_sample(drift)
