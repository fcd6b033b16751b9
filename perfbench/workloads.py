"""The four benchmark workloads: one-time setup, the op each one times,
and the checks on every op's output.

Every call into the package goes through a module object (``growth.delta_prime``,
not a name imported once), so the span wrappers that ``tracer.py`` rebinds
on those modules see it.

A workload is a ``Workload`` with:

- ``setup()`` -> context: imports and one-time construction a user pays
  once per process. ``setup_s`` times exactly this.
- ``rotation(ctx, pool, decks)`` -> list of ops: one stratified round of
  inputs drawn from the recorded pool through the run's seeded ``Decks``.
- ``prepare(ctx, op)`` -> args: untimed input construction (files,
  models), outside every span.
- ``run(ctx, args)`` -> output: the timed op.
- ``check(ctx, op, out)`` -> (gate_ok, signature): the op's own output
  gate, and the exact outputs that are compared with ``op["ref"]``.
- ``matches(signature, ref)``: that comparison.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

# the `growth-solve --consistency` gates, as in weylgrowth.cli
ROUTE_GAP_GATE = 1e-5
EXPONENT_GATE = Fraction(1, 10**8)

SOLVE_DRAWS = {"a2": 2, "b2": 2, "g2": 2}

CHECK_PRESETS = ("a2", "a3", "b2", "b3", "g2", "so(2,5)")
LEMMA_ORDER = ("keylemma", "posofweight", "positivity", "rightangles", "twowalls")
LEMMA_SAMPLES = 30
TENT_SLACK = Fraction(1, 10**8)
REPLAY_PSI_SAMPLES = 60


@dataclass(frozen=True)
class Workload:
    setup: Callable
    rotation: Callable
    prepare: Callable
    run: Callable
    check: Callable
    trace_rotations: int
    # end every run on a rotation boundary, so that inputs replayed in
    # each rotation weigh the same in every run
    whole_rotations: bool = False
    matches: Callable = lambda sig, ref: _plain(sig) == ref


class Decks:
    """Seeded draws without replacement, one deck per pool list.

    Every entry of a list comes up once before any comes up twice, so a
    run's mix of inputs, and with it its cost, stays close to the pool's.
    """

    def __init__(self, rng):
        self.rng = rng
        self._decks: dict = {}

    def draw(self, key, items):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = self.rng.sample(range(len(items)), len(items))
        return items[deck.pop()]


def _plain(sig):
    """The signature as it reads back from the JSON pool."""
    return json.loads(json.dumps(sig))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _floats(xs) -> list:
    return [repr(float(x)) for x in xs]


# -- solve ------------------------------------------------------------------


def solve_setup():
    from weylgrowth import critical, growth, rational, rootsystem
    return SimpleNamespace(critical=critical, growth=growth,
                           rational=rational, rootsystem=rootsystem)


def solve_rotation(ctx, pool, decks):
    # seeded draws per stratum (two for each rank-2 preset), then the
    # fixed rank-4 panel
    ops = [decks.draw(name, docs) for name, docs in sorted(pool["strata"].items())
           for _ in range(SOLVE_DRAWS.get(name.split("/")[0], 1))]
    ops.extend(pool["panel"])
    decks.rng.shuffle(ops)
    return ops


def solve_prepare(ctx, op):
    return json.dumps(op["model"])


def solve_run(ctx, text):
    """One `growth-solve <model> --consistency` pipeline, as the CLI runs it."""
    g, c, r = ctx.growth, ctx.critical, ctx.rational
    obj = json.loads(text)
    G = g.growth_model_from_json(obj)
    rep = c.critical_report(G)
    mus = [r.vec(r.rat(x) for x in m) for m in obj.get("mu_list", [])]
    rep["delta_prime_mu"] = [
        dict(g.delta_prime_report(G, mu), mu=ctx.rootsystem.vec_to_json(mu))
        for mu in mus]
    gate, mg = "passed", None
    if rep["delta_prime"] != "-inf":
        if rep["route_gap"] > ROUTE_GAP_GATE:
            gate = "route gap"
        else:
            mg = c.critical_data(G).mu_gamma_exact
            if not r.is_zero(mg):
                val = g.delta_prime(G, mg).value
                if not isinstance(val, Fraction) or abs(val - 1) > EXPONENT_GATE:
                    gate = "exponent at mu_gamma"
    return {"report": rep, "gate": gate, "mu_gamma_exact": mg}


def solve_signature(rep: dict, mu_gamma_exact=None) -> dict:
    """Outputs that derive from exact values only; Route B's float mu,
    the route gap and the nonpositive branch's grid value are left to
    the gates."""
    sig = {"mu_gamma": _floats(rep["mu_gamma"]),
           "theta": {k: repr(float(v)) for k, v in rep["theta"].items()},
           "delta_prime_mu": [[d["status"], repr(d["delta_prime"])]
                              for d in rep["delta_prime_mu"]]}
    if mu_gamma_exact is not None:
        sig["mu_gamma_exact"] = [str(x) for x in mu_gamma_exact]
    return sig


def solve_check(ctx, op, out):
    return out["gate"] == "passed", solve_signature(out["report"], out["mu_gamma_exact"])


def solve_matches(sig, ref) -> bool:
    # a pipeline stopped by the route gate never computes the exact
    # critical functional; everything else is still compared
    if "mu_gamma_exact" not in sig:
        ref = {k: v for k, v in ref.items() if k != "mu_gamma_exact"}
    return _plain(sig) == ref


# -- checks -----------------------------------------------------------------


def checks_setup():
    from weylgrowth import cones, growth, rational, rootsystem, verify
    systems = {p: rootsystem.build_root_system(p) for p in CHECK_PRESETS}
    for R in systems.values():
        rootsystem.fundamental_weights(R)
        rootsystem.opposition_involution(R)
        cones.dominant_cone(R)
    for p in ("b2", "b3"):
        rootsystem.weyl_group(systems[p])
    return SimpleNamespace(cones=cones, growth=growth, rational=rational,
                           rootsystem=rootsystem, verify=verify, systems=systems)


def checks_rotation(ctx, pool, decks):
    ops = [{"kind": "lemmas", "preset": p, "seed": decks.rng.randrange(10**6),
            "ref": pool["lemma_counts"][p]} for p in CHECK_PRESETS]
    ops.append(decks.draw("tent", pool["tent"]))
    ops.extend(decks.draw(p, pool["hull"][p]) for p in ("b2", "b3"))
    ops.append(decks.draw("replay", pool["replay"]))
    decks.rng.shuffle(ops)
    return ops


def _model(ctx, R, doc):
    """A recorded (already validated) model on the set-up root system."""
    cone = ctx.cones.cone_from_json(doc["cone"])
    pieces = tuple(ctx.rational.vec(p) for p in doc["pieces"])
    return ctx.growth.GrowthIndicator(root_system=R, cone=cone, pieces=pieces)


def checks_prepare(ctx, op):
    R = ctx.systems[op["preset"]]
    vec = ctx.rational.vec
    if op["kind"] in ("tent", "replay"):
        G = _model(ctx, R, op["model"])
        mus = [vec(m) for m in op.get("mus", ())]
        return op["kind"], R, (G, mus, op["seed"])
    if op["kind"] == "hull":
        return "hull", R, [(vec(lam), vec(mu)) for lam, mu in op["pairs"]]
    return "lemmas", R, op["seed"]


def _replay(ctx, R, G, seed):
    """One model of `check --suite replays`."""
    cones, verify = ctx.cones, ctx.verify
    Lp = cones.closure(ctx.growth.modified_limit_cone(G))
    avoided = [i for i, a in enumerate(R.simple_roots) if cones.avoids_facet(R, Lp, a)]
    perm = ctx.rootsystem.iota_permutation(R)
    rows = []
    for i in avoided:
        rep = verify.deduce_onewall(G, R.simple_roots[i])
        rows.append(["onewall", i + 1, rep["status"], rep["deduction_violated"],
                     rep["premise_holds"], rep["identity_exact"]])
    for i in avoided:
        for j in avoided:
            if j <= i or perm[i] == j:
                continue
            rep = verify.deduce_twowalls(G, R.simple_roots[i], R.simple_roots[j])
            rows.append(["twowalls", [i + 1, j + 1], rep["status"],
                         rep["contradiction_established"]])
    psi = verify.check_psilinear(G, samples=REPLAY_PSI_SAMPLES, seed=seed)
    rows.append(["psilinear", psi["index_set"], psi["samples"],
                 psi["equality_failures"], psi["outside_cone"], psi["tent_certified"]])
    return rows


def checks_run(ctx, args):
    kind, R, data = args
    if kind == "lemmas":
        return [ctx.verify.run_lemma_check(lemma, R, samples=LEMMA_SAMPLES, seed=data)
                for lemma in LEMMA_ORDER]
    if kind == "hull":
        cones = ctx.cones
        return [(cones.conv_hull_member(R, lam, mu),
                 cones.conv_hull_member_enumeration(R, lam, mu)) for lam, mu in data]
    G, mus, seed = data
    if kind == "tent":
        return ctx.growth.tent_check(G, mus, slack=TENT_SLACK, seed=seed)
    return _replay(ctx, R, G, seed)


def checks_check(ctx, op, out):
    kind = op["kind"]
    if kind == "lemmas":
        return (all(not r["failures"] for r in out),
                {r["lemma"]: r["samples"] for r in out})
    if kind == "hull":
        return (all(a == b for a, b in out),
                "".join("1" if a else "0" for a, _ in out))
    if kind == "tent":
        return out["passed"], [out["checked"], out["vacuous"], len(out["failures"])]
    return not any(row[0] == "onewall" and row[3] for row in out), out


# -- orbits -----------------------------------------------------------------


def orbits_setup():
    from weylgrowth import orbits
    # the limit cone's first rank >= 3 call loads scipy's LP solver
    warm = orbits.CartanSample(points=(((1.0, 0.0, 0.0, -1.0), 1),
                                       ((1.0, 0.0, -0.5, -0.5), 1),
                                       ((0.5, 0.5, -0.5, -0.5), 1)), rank=3)
    orbits.empirical_limit_cone(warm, 0.5)
    return SimpleNamespace(orbits=orbits)


def orbits_rotation(ctx, pool, decks):
    ops = [decks.draw(kind, pool[kind]) for kind in ("sl3r", "sl3r", "sl4r", "sl5r")]
    decks.rng.shuffle(ops)
    return ops


def orbits_prepare(ctx, op):
    return op["spec"], op["radius_cut"], op["mu"]


def orbits_run(ctx, args):
    spec, radius_cut, mu = args
    o = ctx.orbits
    S = o.enumerate_orbit(spec)
    cone = o.empirical_limit_cone(S, radius_cut)
    est = o.estimate_exponent(S, mu) if len(S.points) >= 1000 else None
    return S, cone, est


def orbits_check(ctx, op, out):
    S, cone, est = out
    ok = bool(cone.generators)
    try:
        ctx.orbits.validate_cartan_sample(S)
    except ValueError:
        ok = False
    if est is not None:
        lo, hi = est["band"]
        ok = ok and lo <= est["estimate"] <= hi
    return ok, {"points": len(S.points), "dropped": S.dropped,
                "estimated": est is not None}


# -- cli --------------------------------------------------------------------

CLI_KEYS = {
    "rootsys": ("label", "simple_roots", "rho", "Theta", "fundamental_weights"),
    "bounds": ("preset", "rho", "bounds"),
    "growth-solve": ("delta_prime", "v_gamma", "mu_gamma", "theta",
                     "delta_prime_mu", "consistency"),
    "orbit": ("points", "dropped", "rank", "max_word_length"),
}


def cli_setup():
    from weylgrowth import cli
    return SimpleNamespace(cli=cli, tmpdir=None)


def cli_rotation(ctx, pool, decks):
    ops = [decks.draw(stratum, pool[stratum]) for stratum in sorted(pool)]
    decks.rng.shuffle(ops)
    return ops


def cli_prepare(ctx, op):
    argv = list(op["argv"])
    files = {"@model": op.get("model"), "@spec": op.get("spec")}
    for i, a in enumerate(argv):
        if a in files:
            path = os.path.join(ctx.tmpdir, a[1:] + ".json")
            with open(path, "w") as fh:
                json.dump(files[a], fh)
            argv[i] = path
        elif a == "@svg":
            argv[i] = os.path.join(ctx.tmpdir, "figure.svg")
    return argv


def cli_run(ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx.cli.main(argv)
    svg = None
    if argv[0] == "figure":
        with open(argv[argv.index("-o") + 1]) as fh:
            svg = fh.read()
    return rc, out.getvalue(), svg


def cli_check(ctx, op, out):
    rc, stdout, svg = out
    cmd = op["argv"][0]
    if rc != 0:
        return False, {"exit": rc}
    if cmd == "figure":
        ok = svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        return ok, {"svg": _digest(svg), "bytes": len(svg)}
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return False, {"stdout": _digest(stdout)}
    ok = all(k in doc for k in CLI_KEYS[cmd])
    if cmd == "growth-solve":
        return ok and doc["consistency"] == "passed", solve_signature(doc)
    return ok, {"stdout": _digest(stdout)}


WORKLOADS = {
    "solve": Workload(solve_setup, solve_rotation, solve_prepare, solve_run,
                      solve_check, trace_rotations=1, whole_rotations=True,
                      matches=solve_matches),
    "checks": Workload(checks_setup, checks_rotation, checks_prepare, checks_run,
                       checks_check, trace_rotations=4),
    "orbits": Workload(orbits_setup, orbits_rotation, orbits_prepare, orbits_run,
                       orbits_check, trace_rotations=4),
    "cli": Workload(cli_setup, cli_rotation, cli_prepare, cli_run, cli_check,
                    trace_rotations=8),
}
