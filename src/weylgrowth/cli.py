"""Command line frontend: presets, model solving, checks, orbits, figures.

Exit codes: 0 success, 1 check failure, 2 input error (including bad
JSON and unknown presets), 3 model invariant violation, 4 internal
error (a defect in this package).  A config file
named by the WEYLGROWTH_CONFIG environment variable supplies defaults;
command line flags win over it.
"""

import argparse
import functools
import json
import os
import random
import sys

from .cones import avoids_facet, closure
from .critical import critical_data, critical_report
from .errors import (ORBIT_CAP_DEFAULT, CheckFailure, InputError, InternalError,
                     ModelInvariantError)
from .figures import figure_geometry, figure_svg
from .growth import (delta_prime, delta_prime_report, growth_model_from_json,
                     modified_limit_cone, random_growth_model)
from .rational import is_zero
from .rootsystem import (_num_to_json, build_root_system, fundamental_weights,
                         iota_permutation, rho, root_system_to_json,
                         strongly_orthogonal_theta, vec_from_json, vec_to_json)
from .verify import (bound_wall_avoided, check_psilinear, deduce_onewall,
                     deduce_twowalls, reproduce_b3_remark, run_lemma_check)

CONFIG_ENV = "WEYLGROWTH_CONFIG"

DEFAULTS = {
    "seed": 0,
    "orbit_cap": ORBIT_CAP_DEFAULT,
}

CHECK_PRESETS = ("a2", "a3", "b2", "b3", "g2", "so(2,5)")
LEMMA_ORDER = ("keylemma", "posofweight", "positivity", "rightangles",
               "twowalls")


def _read_json(path, what):
    """The JSON document at path; what names it in the InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise InputError(f"cannot read {what}: {ex}") from ex
    except ValueError as ex:  # malformed JSON, or bytes that are not UTF-8
        raise InputError(f"{what} is not valid JSON: {ex}") from ex


def _write_text(path, text, what) -> None:
    """Write text to path; what names it in the InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise InputError(f"cannot write {what}: {ex}") from ex


def load_config(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    cfg = dict(DEFAULTS)
    path = environ.get(CONFIG_ENV)
    if not path:
        return cfg
    obj = _read_json(path, f"config file {path}")
    if not isinstance(obj, dict):
        raise InputError("config file must hold a JSON object")
    for key, val in obj.items():
        if key not in DEFAULTS:
            raise InputError(f"unknown config key {key!r}")
        # a JSON integer only: bools, floats and strings are not coerced
        if type(val) is not int:
            raise InputError(f"config key {key!r}: {val!r} is not a valid int")
        if key == "orbit_cap" and val < 1:
            raise InputError(f"config key {key!r}: {val!r} is not a valid int >= 1")
        cfg[key] = val
    return cfg


def _apply_flag_overrides(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fmt_vec(v) -> str:
    return ", ".join(str(x) for x in v)


# -- subcommands ------------------------------------------------------------


def cmd_rootsys(args, cfg) -> int:
    R = build_root_system(args.preset)
    ws = fundamental_weights(R)
    _, theta = strongly_orthogonal_theta(R)
    perm = iota_permutation(R)
    if args.json:
        out = root_system_to_json(R)
        out["rho"] = vec_to_json(rho(R))
        out["Theta"] = vec_to_json(theta)
        out["fundamental_weights"] = [vec_to_json(w) for w in ws]
        out["iota_permutation"] = {str(i + 1): perm[i] + 1 for i in perm}
        _emit(out)
        return 0
    lines = [f"preset: {R.label}", "simple roots: "
             + "; ".join(f"({_fmt_vec(a)})" for a in R.simple_roots)]
    lines.append("positive roots (multiplicity): "
                 + "; ".join(f"({_fmt_vec(r)}) x {m}" for r, m in R.pos_roots))
    lines.append(f"rho: {_fmt_vec(rho(R))}")
    lines.append(f"Theta: {_fmt_vec(theta)}")
    for i, w in enumerate(ws, start=1):
        lines.append(f"omega_{i}: {_fmt_vec(w)}")
    lines.append("iota: " + ", ".join(f"{i+1}->{perm[i]+1}" for i in sorted(perm)))
    print("\n".join(lines))
    return 0


def _parse_covector(text: str, rank: int):
    return vec_from_json(text.replace(",", " ").split(), rank,
                         f"covector {text!r}")


def cmd_growth_solve(args, cfg) -> int:
    obj = _read_json(args.model, "model file")
    G = growth_model_from_json(obj)
    rep = critical_report(G)
    rank = G.root_system.rank
    mus = [_parse_covector(t, rank) for t in (args.mu or [])]
    mu_list = obj.get("mu_list", [])
    if not isinstance(mu_list, list):
        raise InputError("mu_list must be a list of covectors")
    mus.extend(vec_from_json(m, rank, f"covector {m!r}") for m in mu_list)
    rep["delta_prime_mu"] = [
        dict(delta_prime_report(G, mu), mu=vec_to_json(mu)) for mu in mus]
    if args.consistency:
        _assert_solution_consistency(G, rep)
        rep["consistency"] = "passed"
    _emit(rep)
    return 0


def _assert_solution_consistency(G, rep) -> None:
    """Cross-route and touching-ray gates; failures raise CheckFailure."""
    if rep["delta_prime"] == "-inf":
        return
    if rep["route_gap"] != 0:
        raise CheckFailure(f"routes disagree: relative gap {rep['route_gap']}")
    cd = critical_data(G)
    mg = cd.mu_gamma_exact
    if mg is None or is_zero(mg):
        return
    val = delta_prime(G, mg).value
    if val != 1:
        raise CheckFailure(f"exponent at the critical functional is {val}, "
                           "expected 1")


def cmd_bounds(args, cfg) -> int:
    R = build_root_system(args.preset)
    if args.alpha is not None and not 1 <= args.alpha <= R.rank:
        raise InputError(f"--alpha must lie in 1..{R.rank}")
    idxs = [args.alpha] if args.alpha is not None else range(1, R.rank + 1)
    rows = []
    for i in idxs:
        c, bound = bound_wall_avoided(R, R.simple_roots[i - 1])
        rows.append({"alpha_index": i, "c": _num_to_json(c),
                     "bound": vec_to_json(bound)})
    out = {"preset": R.label, "rho": vec_to_json(rho(R)), "bounds": rows}
    _emit(out)
    return 0


def cmd_figure(args, cfg) -> int:
    name = args.preset
    if name != "so2n" and args.n is not None:
        raise InputError("--n applies only to --preset so2n")
    if name == "so2n":
        if args.n is None:
            raise InputError("--preset so2n needs --n")
        if args.n < 2:
            raise InputError("--n must be at least 2")
        name = f"so(2,{args.n})"
    geom = figure_geometry(name)
    svg = figure_svg(geom)
    _write_text(args.output, svg, "figure file")
    print(f"wrote {args.output} ({len(svg)} bytes, "
          f"{len(geom['gap_hull'])} gap hull vertices)")
    return 0


def _replay_rows(preset: str, seed: int, models: int) -> list:
    R = build_root_system(preset)
    rng = random.Random(seed)
    rows = []
    perm = iota_permutation(R)
    for _ in range(models):
        G = random_growth_model(R, rng)
        Lp = closure(modified_limit_cone(G))
        avoided = [i for i, a in enumerate(R.simple_roots)
                   if avoids_facet(R, Lp, a)]
        for i in avoided:
            rep = deduce_onewall(G, R.simple_roots[i])
            rows.append({"preset": preset, "replay": "onewall",
                         "wall": i + 1, "status": rep["status"],
                         "violated": rep["deduction_violated"]})
        for i in avoided:
            for j in avoided:
                if j <= i or perm[i] == j:
                    continue
                rep = deduce_twowalls(G, R.simple_roots[i], R.simple_roots[j])
                rows.append({"preset": preset, "replay": "twowalls",
                             "wall": (i + 1, j + 1), "status": rep["status"],
                             "violated": False})
        # informational: equality holding is conditional on the theorem
        # hypotheses, so mismatches on arbitrary models are not defects
        psi = check_psilinear(G, samples=60, seed=seed)
        rows.append({"preset": preset, "replay": "psilinear",
                     "status": f"{psi['equality_failures']} equality misses "
                               f"of {psi['samples']}",
                     "violated": False})
    return rows


def cmd_check(args, cfg) -> int:
    seed = cfg["seed"]
    for flag, count in (("--samples", args.samples), ("--models", args.models)):
        if count < 1:
            raise InputError(f"{flag} must be at least 1, got {count}")
    if args.suite == "lemmas":
        rows = [run_lemma_check(lemma, preset, samples=args.samples, seed=seed)
                for lemma in LEMMA_ORDER for preset in CHECK_PRESETS]
        failures = sum(len(r["failures"]) for r in rows)
    else:
        rows = []
        for preset in CHECK_PRESETS:
            rows.extend(_replay_rows(preset, seed, models=args.models))
        b3 = reproduce_b3_remark(samples=40, seed=seed)
        rows.append({"preset": "b3", "replay": "theta closed forms",
                     "status": f"{b3['failures']} failures",
                     "violated": b3["failures"] > 0})
        failures = sum(1 for r in rows if r.get("violated"))
    out = {"suite": args.suite, "rows": len(rows), "failures": failures,
           "presets": list(CHECK_PRESETS), "seed": seed}
    if failures:
        _emit(out)
        raise CheckFailure(f"{failures} failures in the {args.suite} suite")
    _emit(out)
    return 0


def cmd_orbit(args, cfg) -> int:
    # the one float subcommand: numpy loads here, not with the CLI
    from .orbits import (empirical_limit_cone, enumerate_orbit,
                         estimate_exponent, iota_symmetry_check, sample_to_csv)
    obj = _read_json(args.gens, "generator file")
    S = enumerate_orbit(obj, cap=cfg["orbit_cap"])
    out = {"points": len(S.points), "dropped": S.dropped, "rank": S.rank,
           "max_word_length": max((wl for _, wl in S.points), default=0)}
    if args.radius_cut is not None:
        cone = empirical_limit_cone(S, args.radius_cut)
        out["cone_generators"] = [[float(x) for x in g]
                                  for g in cone.generators]
    if args.mu is not None:
        # one entry per matrix dimension
        out["exponent"] = estimate_exponent(
            S, _parse_covector(args.mu, S.rank + 1))
    if args.iota_check is not None:
        out["iota_symmetry"] = iota_symmetry_check(
            obj, depth=args.iota_check, cap=cfg["orbit_cap"])
    if args.output:
        _write_text(args.output, sample_to_csv(S), "CSV file")
        out["csv"] = args.output
    _emit(out)
    return 0


# -- wiring -----------------------------------------------------------------


@functools.cache  # built once per process; parse_args gives a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset copy of a shared flag from
    # clobbering a value given before the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized suites")
    p = argparse.ArgumentParser(prog="weylgrowth", parents=[common],
                                description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rootsys", parents=[common],
                       help="print a preset root system")
    q.add_argument("--preset", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_rootsys)

    q = sub.add_parser("growth-solve", parents=[common],
                       help="solve a piecewise-linear growth model")
    q.add_argument("model", help="model JSON file")
    q.add_argument("--mu", action="append",
                   help="covector for the exponent table, e.g. '1,0'")
    q.add_argument("--consistency", action="store_true")
    q.set_defaults(func=cmd_growth_solve)

    q = sub.add_parser("bounds", parents=[common],
                       help="wall-avoidance growth bounds")
    q.add_argument("--preset", required=True)
    q.add_argument("--alpha", type=int, default=None,
                   help="simple root index (1-based); default: all")
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("figure", parents=[common],
                       help="rank-2 hull figure as SVG")
    q.add_argument("--preset", default="so2n")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_figure)

    q = sub.add_parser("check", parents=[common],
                       help="run a verification suite")
    q.add_argument("--suite", choices=("lemmas", "replays"), required=True)
    q.add_argument("--samples", type=int, default=200,
                   help="samples per lemma and preset")
    q.add_argument("--models", type=int, default=2,
                   help="random models per preset (replays)")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("orbit", parents=[common],
                       help="enumerate a matrix group orbit sample")
    q.add_argument("gens", help="generator JSON file")
    q.add_argument("--radius-cut", dest="radius_cut", type=float, default=None)
    q.add_argument("--mu", default=None,
                   help="weighting covector for an exponent estimate")
    q.add_argument("--iota-check", dest="iota_check", type=int, default=None,
                   help="verify inverse-word symmetry to this depth (>= 1)")
    q.add_argument("-o", "--output", default=None, help="CSV output path")
    q.set_defaults(func=cmd_orbit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_flag_overrides(load_config(), args)
        return args.func(args, cfg)
    except CheckFailure as ex:
        print(f"check failure: {ex}", file=sys.stderr)
        return 1
    except InputError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as ex:
        # numpy and scipy come only with the orbits extra; only orbit needs them
        if (ex.name or "").partition(".")[0] not in ("numpy", "scipy"):
            raise
        print(f"input error: {args.command} needs {ex.name}, which is not "
              'installed: pip install "weylgrowth[orbits]"', file=sys.stderr)
        return 2
    except ModelInvariantError as ex:
        print(f"model invariant violation: {ex}", file=sys.stderr)
        return 3
    except InternalError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
