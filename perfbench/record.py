"""Record the benchmark's input pools and their reference outputs.

    python3 perfbench/record.py [workload ...]

Writes perfbench/data/<workload>.json. Every pool entry is drawn from a
fixed seed, and its "ref" holds the exact outputs this version of the
package gives for it; run.py compares every op with them. Run it again
only when a workload's inputs change, never to absorb a changed output.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
import tempfile
from fractions import Fraction as Q
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from weylgrowth import cones, critical, growth, rootsystem  # noqa: E402
from weylgrowth.rational import primitive, vec, vec_add_scaled, vscale  # noqa: E402

SOLVE_PRESETS = ("a2", "b2", "g2", "a3", "b3", "c3")
PANEL_PRESETS = ("b4", "d4", "f4")
NONPOSITIVE_PRESETS = ("b2", "g2")
NONPOSITIVE_GENERATORS = (2, 3, 4, 5, 6)
PER_STRATUM = 12


def _json_vec(v):
    return rootsystem.vec_to_json(v)


def _rational(rng, lo, hi, den=4):
    return Q(rng.randrange(lo, hi), rng.randrange(1, den + 1))


def _dominant_mu(R, rng):
    """A nonzero nonnegative rational combination of fundamental weights."""
    fw = rootsystem.fundamental_weights(R)
    while True:
        cs = [_rational(rng, 0, 7, 3) for _ in fw]
        if any(cs):
            mu = vec([0] * R.rank)
            for c, w in zip(cs, fw):
                mu = vec_add_scaled(mu, c, w)
            return mu


def _mixed_mu(R, rng):
    """Positive on one fundamental weight, negative on another."""
    fw = rootsystem.fundamental_weights(R)
    i, j = rng.sample(range(R.rank), 2)
    return vec_add_scaled(vscale(rng.randint(1, 4), fw[i]), -rng.randint(1, 4), fw[j])


def _model_doc(preset, G, rng):
    R = G.root_system
    mus = [_dominant_mu(R, rng), _dominant_mu(R, rng), _mixed_mu(R, rng)]
    return {"root_system": preset, "cone": cones.cone_to_json(G.cone),
            "pieces": [_json_vec(p) for p in G.pieces],
            "mu_list": [_json_vec(m) for m in mus]}


def _cone_kind(R, G):
    return "chamber" if G.cone.generators == cones.chamber_rays(R) else "subcone"


def _solve_entry(ctx, doc):
    out = W.solve_run(ctx, json.dumps(doc))
    mg = out["mu_gamma_exact"]
    if mg is None:  # the route gate stopped the pipeline before Route A's mu
        mg = critical.critical_data(growth.growth_model_from_json(doc)).mu_gamma_exact
    return {"model": doc, "ref": W.solve_signature(out["report"], mg),
            "recorded_gate": out["gate"], "recorded_route_gap": out["report"]["route_gap"]}


def _nonpositive_model(preset, m, rng):
    """Pieces below rho, so psi' <= 0 everywhere; m cone generators, m - 2
    of them redundant interior directions."""
    R = rootsystem.build_root_system(preset)
    r1, r2 = cones.chamber_rays(R)
    gens = [r1, r2]
    while len(gens) < m:
        g = primitive(vec_add_scaled(vscale(rng.randint(1, 5), r1),
                                     rng.randint(1, 5), r2))
        if g not in gens:
            gens.append(g)
    pieces = [vscale(Q(rng.randint(2, 9), 10), rootsystem.rho(R))
              for _ in range(rng.randint(1, 2))]
    return growth.build_growth_model(R, cones.poly_cone(generators=gens, rank=2), pieces)


def record_solve():
    ctx = W.solve_setup()
    strata, panel = {}, []
    for p in SOLVE_PRESETS:
        R = rootsystem.build_root_system(p)
        rng = random.Random(f"solve/{p}")
        bins = {"chamber": [], "subcone": []}
        while min(map(len, bins.values())) < PER_STRATUM:
            G = growth.random_growth_model(R, rng)
            kind = bins[_cone_kind(R, G)]
            if len(kind) < PER_STRATUM:
                kind.append(_solve_entry(ctx, _model_doc(p, G, rng)))
        for kind, docs in bins.items():
            strata[f"{p}/{kind}"] = docs
    for m in NONPOSITIVE_GENERATORS:
        rng = random.Random(f"solve/nonpositive/{m}")
        docs = []
        for k in range(PER_STRATUM):
            preset = NONPOSITIVE_PRESETS[k % len(NONPOSITIVE_PRESETS)]
            G = _nonpositive_model(preset, m, rng)
            docs.append(_solve_entry(ctx, _model_doc(preset, G, rng)))
        strata[f"nonpositive/m{m}"] = docs
    # rank 4: the first draw of each cone shape (the chamber, and subcones
    # with one and with two generators) of each preset, replayed in every
    # rotation (see README.md)
    for p in PANEL_PRESETS:
        R = rootsystem.build_root_system(p)
        rng = random.Random(f"solve/panel/{p}")
        got = {}
        while len(got) < 3:
            G = growth.random_growth_model(R, rng)
            shape = _cone_kind(R, G)
            if shape == "subcone":
                shape += str(len(G.cone.generators))
            if shape not in got:
                got[shape] = _solve_entry(ctx, _model_doc(p, G, rng))
        panel.extend(got[k] for k in sorted(got))
    return {"strata": strata, "panel": panel}


def record_checks():
    ctx = W.checks_setup()
    counts = {}
    for p in W.CHECK_PRESETS:
        out = W.checks_run(ctx, W.checks_prepare(ctx, {"kind": "lemmas", "preset": p, "seed": 0}))
        counts[p] = {r["lemma"]: r["samples"] for r in out}
    tent, replay, hull = [], [], {}
    for p in W.CHECK_PRESETS:
        R = ctx.systems[p]
        rng = random.Random(f"checks/{p}")
        for kind, bucket in (("tent", tent), ("replay", replay)):
            for _ in range(4):
                G = growth.random_growth_model(R, rng)
                op = {"kind": kind, "preset": p, "seed": rng.randrange(10**6),
                      "model": {"cone": cones.cone_to_json(G.cone),
                                "pieces": [_json_vec(x) for x in G.pieces]}}
                if kind == "tent":
                    op["mus"] = [_json_vec(_dominant_mu(R, rng)) for _ in range(5)]
                bucket.append(_with_ref(ctx, W.checks_prepare, W.checks_run, W.checks_check, op))
    for p in ("b2", "b3"):
        R = ctx.systems[p]
        rng = random.Random(f"checks/hull/{p}")
        hull[p] = []
        for _ in range(PER_STRATUM):
            pairs = []
            for _ in range(30):
                mu = sorted((_rational(rng, 0, 13) for _ in range(R.rank)), reverse=True)
                lam = [_rational(rng, -13, 13) for _ in range(R.rank)]
                pairs.append([_json_vec(lam), _json_vec(mu)])
            op = {"kind": "hull", "preset": p, "pairs": pairs}
            hull[p].append(_with_ref(ctx, W.checks_prepare, W.checks_run, W.checks_check, op))
    return {"lemma_counts": counts, "tent": tent, "hull": hull, "replay": replay}


def _with_ref(ctx, prepare, run, check, op):
    ok, sig = check(ctx, op, run(ctx, prepare(ctx, op)))
    if not ok:
        raise SystemExit(f"pool entry fails its own gate: {op}")
    op["ref"] = json.loads(json.dumps(sig))
    return op


def _group_spec(rng, n, depth):
    """Two hyperbolic generators P diag(e^l) P^-1 with trace-free l."""
    gens = []
    for _ in range(2):
        lam = rng.uniform(0.6, 1.0) * np.sort(rng.standard_normal(n))[::-1]
        lam -= lam.mean()
        P = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        A = P @ np.diag(np.exp(lam)) @ np.linalg.inv(P)
        gens.append(A.tolist())
    return {"ambient": f"sl{n}r", "generators": gens, "max_word_length": depth}


ORBIT_SHAPES = {"sl3r": (3, 6, None), "sl4r": (4, 6, 40), "sl5r": (5, 5, 40)}


def record_orbits():
    ctx = W.orbits_setup()
    pool = {}
    for kind, (n, depth, tail) in ORBIT_SHAPES.items():
        rng = np.random.default_rng(sum(map(ord, kind)))
        pool[kind] = []
        while len(pool[kind]) < PER_STRATUM:
            spec = _group_spec(rng, n, depth)
            S = ctx.orbits.enumerate_orbit(spec)
            norms = sorted((math.sqrt(sum(x * x for x in p)) for p, _ in S.points),
                           reverse=True)
            # rank 2 takes the outer half; rank >= 3 runs one LP per tail
            # direction, so it keeps a fixed number of them
            cut = norms[0] / 2 if tail is None else norms[tail - 1]
            mu = [0.5] + [0.0] * (n - 2) + [-0.5]
            op = {"kind": kind, "spec": spec, "radius_cut": cut, "mu": mu}
            try:
                pool[kind].append(_with_ref(ctx, W.orbits_prepare, W.orbits_run,
                                            W.orbits_check, op))
            except ValueError:
                continue  # too little spread for an exponent estimate: draw again
    return pool


CLI_PRESETS = {
    "rootsys-r2": ("a2", "b2", "g2", "so(2,3)", "so(2,5)", "so(2,8)", "sl(3,c)"),
    "rootsys-r3": ("a3", "b3", "c3", "so(3,5)", "sl(4,h)"),
    "rootsys-r4": ("a4", "b4", "c4", "d4", "f4", "so(4,7)"),
    "rootsys-r5": ("a5", "b5", "c5", "d5"),
    "rootsys-r6": ("a6", "b6", "d6", "e6"),
    "bounds-r2": ("a2", "b2", "g2", "so(2,4)", "so(2,7)", "so(2,10)"),
    "bounds-r34": ("a3", "b3", "c3", "b4", "d4", "f4"),
}


def record_cli():
    ctx = W.cli_setup()
    ctx.tmpdir = tempfile.mkdtemp()
    pool = {}
    for stratum, presets in CLI_PRESETS.items():
        cmd = stratum.split("-")[0]
        flag = ["--json"] if cmd == "rootsys" else []
        pool[stratum] = [{"argv": [cmd, "--preset", p, *flag]} for p in presets]
    pool["figure-so2n"] = [{"argv": ["figure", "--n", str(n), "-o", "@svg"]}
                           for n in range(3, 11)]
    pool["figure-rank2"] = [{"argv": ["figure", "--preset", p, "-o", "@svg"]}
                            for p in ("a2", "b2", "g2", "so(2,6)")]
    models = []
    for p in ("a2", "b2", "g2"):
        R = rootsystem.build_root_system(p)
        rng = random.Random(f"cli/{p}")
        for _ in range(4):
            models.append(_model_doc(p, growth.random_growth_model(R, rng), rng))
    pool["growth-solve"] = [{"argv": ["growth-solve", "@model", "--consistency"],
                             "model": m} for m in models]
    rng = np.random.default_rng(2)
    pool["orbit"] = [{"argv": ["orbit", "@spec"], "spec": _group_spec(rng, 3, 5)}
                     for _ in range(8)]
    try:
        for ops in pool.values():
            for op in ops:
                _with_ref(ctx, W.cli_prepare, W.cli_run, W.cli_check, op)
    finally:
        shutil.rmtree(ctx.tmpdir)
    return pool


RECORDERS = {"solve": record_solve, "checks": record_checks,
             "orbits": record_orbits, "cli": record_cli}


def main(names):
    (HERE / "data").mkdir(exist_ok=True)
    for name in names or RECORDERS:
        pool = RECORDERS[name]()
        with open(HERE / "data" / f"{name}.json", "w") as fh:
            json.dump(pool, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
