"""Span and count wrappers around the package's layer functions.

Used only by the traced run (``run.py --trace 1``); the end-to-end runs
never install them. ``install`` rebinds every reference
to a wrapped function: the defining module, every ``weylgrowth`` module
that imported it by name (``from .polyhedra import vertices_of_polyhedron``
copies the binding), and dicts of functions such as the lemma runner
table. Wrappers record only while ``Tracer.active`` is set, i.e. inside
a timed op, so untimed input construction never shows up in a layer.
"""

from __future__ import annotations

import csv
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). Several functions may share a span name.
SPANS = (
    ("weylgrowth.rational", "solve", "rational.solve"),
    ("weylgrowth.rootsystem", "build_root_system", "rootsystem.build"),
    ("weylgrowth.rootsystem", "rho", "rootsystem.rho"),
    ("weylgrowth.rootsystem", "weyl_group", "rootsystem.weyl_group"),
    ("weylgrowth.rootsystem", "dominant_representative", "rootsystem.dominant_representative"),
    ("weylgrowth.polyhedra", "vertices_of_polyhedron", "polyhedra.vertices"),
    ("weylgrowth.polyhedra", "extreme_rays", "polyhedra.rays"),
    ("weylgrowth.polyhedra", "lp_feasible_eq", "polyhedra.lp"),
    ("weylgrowth.polyhedra", "min_norm_point", "polyhedra.min_norm"),
    ("weylgrowth.cones", "conv_hull_member", "cones.hull_member"),
    ("weylgrowth.cones", "conv_hull_member_enumeration", "cones.hull_oracle"),
    ("weylgrowth.growth", "growth_model_from_json", "growth.from_json"),
    ("weylgrowth.growth", "delta_prime", "growth.delta_prime"),
    ("weylgrowth.growth", "tent_check", "growth.tent_check"),
    ("weylgrowth.critical", "critical_data", "critical.critical_data"),
    ("weylgrowth.critical", "_route_a", "critical.route_a"),
    ("weylgrowth.critical", "solve_mu_gamma_minimization", "critical.route_b"),
    ("weylgrowth.critical", "theta_mu", "critical.theta"),
    ("weylgrowth.verify", "_batch_keylemma", "verify.keylemma"),
    ("weylgrowth.verify", "_batch_posofweight", "verify.posofweight"),
    ("weylgrowth.verify", "_batch_positivity", "verify.positivity"),
    ("weylgrowth.verify", "_batch_rightangles", "verify.rightangles"),
    ("weylgrowth.verify", "_batch_twowalls", "verify.twowalls"),
    ("weylgrowth.verify", "deduce_onewall", "verify.replay"),
    ("weylgrowth.verify", "deduce_twowalls", "verify.replay"),
    ("weylgrowth.verify", "check_psilinear", "verify.replay"),
    ("weylgrowth.verify", "bound_wall_avoided", "verify.bounds"),
    ("weylgrowth.orbits", "enumerate_orbit", "orbits.enumerate"),
    ("weylgrowth.orbits", "empirical_limit_cone", "orbits.limit_cone"),
    ("weylgrowth.orbits", "estimate_exponent", "orbits.exponent"),
    ("weylgrowth.figures", "figure_geometry", "figures.geometry"),
    ("weylgrowth.figures", "figure_svg", "figures.svg"),
    ("weylgrowth.cli", "main", "cli"),
)

# Called too often for a span each: counted only.
COUNTS = (
    ("weylgrowth.rational", "dot", "rational.dot"),
    ("weylgrowth.rootsystem", "RootSystem.ip", "rootsystem.ip"),
    ("weylgrowth.orbits", "_cartan_point", "orbits.cartan_point"),
    ("numpy.linalg", "svd", "orbits.svd"),
    ("scipy.optimize", "linprog", "orbits.linprog"),
)

LEMMA_SPANS = ("verify.keylemma", "verify.posofweight", "verify.positivity",
               "verify.rightangles", "verify.twowalls")

# (metric, unit, better); see README.md for what each one should move
PER_LAYER = (
    ("rational.dot.calls", "count", "lower"),
    ("rational.solve.calls", "count", "lower"),
    ("rational.solve.self_s", "s", "lower"),
    ("rootsystem.build.calls", "count", "lower"),
    ("rootsystem.build.self_s", "s", "lower"),
    ("rootsystem.ip.calls", "count", "lower"),
    ("rootsystem.rho.calls", "count", "lower"),
    ("rootsystem.rho.self_s", "s", "lower"),
    ("rootsystem.weyl_group.self_s", "s", "lower"),
    ("rootsystem.dominant_representative.self_s", "s", "lower"),
    ("polyhedra.vertices.calls", "count", "lower"),
    ("polyhedra.vertices.self_s", "s", "lower"),
    ("polyhedra.rays.calls", "count", "lower"),
    ("polyhedra.rays.self_s", "s", "lower"),
    ("polyhedra.lp.calls", "count", "lower"),
    ("polyhedra.lp.self_s", "s", "lower"),
    ("polyhedra.min_norm.calls", "count", "lower"),
    ("polyhedra.min_norm.self_s", "s", "lower"),
    ("cones.hull_member.self_s", "s", "lower"),
    ("cones.hull_oracle.self_s", "s", "lower"),
    ("growth.from_json.self_s", "s", "lower"),
    ("growth.delta_prime.calls", "count", "lower"),
    ("growth.delta_prime.self_s", "s", "lower"),
    ("growth.tent_check.self_s", "s", "lower"),
    ("critical.route_a.self_s", "s", "lower"),
    ("critical.route_b.self_s", "s", "lower"),
    ("critical.theta.self_s", "s", "lower"),
    ("critical.branch.positive.calls", "count", "lower"),
    ("critical.branch.nonpositive.calls", "count", "lower"),
    ("verify.keylemma.self_s", "s", "lower"),
    ("verify.posofweight.self_s", "s", "lower"),
    ("verify.positivity.self_s", "s", "lower"),
    ("verify.rightangles.self_s", "s", "lower"),
    ("verify.twowalls.self_s", "s", "lower"),
    ("verify.replay.self_s", "s", "lower"),
    ("verify.bounds.self_s", "s", "lower"),
    ("orbits.enumerate.self_s", "s", "lower"),
    ("orbits.cartan_point.calls", "count", "lower"),
    ("orbits.kept_ratio", "ratio", "higher"),
    ("orbits.svd.calls", "count", "lower"),
    ("orbits.limit_cone.self_s", "s", "lower"),
    ("orbits.linprog.calls", "count", "lower"),
    ("orbits.exponent.self_s", "s", "lower"),
    ("figures.geometry.self_s", "s", "lower"),
    ("figures.svg.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("share.route_b_of_critical_data", "ratio", "lower"),
    ("share.keylemma_of_lemmas", "ratio", "lower"),
    ("share.posofweight_of_lemmas", "ratio", "lower"),
    ("trace.untraced_ops_per_s", "ops/s", "higher"),
    ("trace.traced_ops_per_s", "ops/s", "higher"),
)


def _route_a_hooks(tracer):
    # Route A caches its result on the model; count the branch it took
    # once per model, on the call that computes it
    def pre(args):
        return "route_a" not in args[0]._cache

    def post(fresh, result):
        if fresh and result["status"] in ("positive", "nonpositive"):
            tracer.counts[f"critical.branch.{result['status']}"] += 1
    return pre, post


def _enumerate_hooks(tracer):
    def post(_, sample):
        tracer.counts["orbits.kept"] += len(sample.points) - 1  # minus the identity
    return None, post


HOOKS = {"critical.route_a": _route_a_hooks, "orbits.enumerate": _enumerate_hooks}


class Tracer:
    """Spans (name, start, end, parent index, op id) and call counts, in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        pre, post = HOOKS[name](self) if name in HOOKS else (None, None)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = pre(args) if pre else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, perf_counter(), parent, self.op)
                stack.pop()
            if post:
                post(state, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for modname, attr, name in table:
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._rebind(cls, meth, make(name, getattr(cls, meth)))
                    continue
                orig = getattr(module, attr)
                wrapper = make(name, orig)
                self._rebind(module, attr, wrapper)
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("weylgrowth"):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._rebind(other, key, wrapper)
                        elif isinstance(val, dict):
                            for dkey, dval in list(val.items()):
                                if dval is orig:
                                    self._undo.append((val.__setitem__, dkey, dval))
                                    val[dkey] = wrapper

    def _rebind(self, owner, key, wrapper):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for restore, key, orig in reversed(self._undo):
            restore(key, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values: exact call counts and self seconds summed."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls, self_s, total = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - covered[i]
            total[name] += t1 - t0
        calls.update(self.counts)
        lemma_total = sum(total[n] for n in LEMMA_SPANS)
        cartan = calls["orbits.cartan_point"]
        derived = {
            "orbits.kept_ratio": calls["orbits.kept"] / cartan if cartan else 0.0,
            "share.route_b_of_critical_data":
                total["critical.route_b"] / total["critical.critical_data"]
                if total["critical.critical_data"] else 0.0,
            "share.keylemma_of_lemmas":
                total["verify.keylemma"] / lemma_total if lemma_total else 0.0,
            "share.posofweight_of_lemmas":
                total["verify.posofweight"] / lemma_total if lemma_total else 0.0,
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start", "end", "parent", "op"))
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                w.writerow((i, name, repr(t0), repr(t1), parent, op))
