"""Benchmark harness for weylgrowth.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; it imports the package from ./src. Each
workload is a closed loop: one client in this process, the next op
starts when the previous one returns, and BLAS/OpenMP use one thread.
Ops come in stratified rotations drawn from the recorded pool in
perfbench/data with the seed; the run measures whole rotations until
--seconds of op time have passed. Every op's output is checked by its
own gate and against the reference recorded for that input.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number
of rotations, each op once untraced and once with span wrappers
installed, and prints the per-layer metrics. The last stdout line is the result
object; the line before it records the run's details and environment.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

sys.path.insert(0, str(SRC))


def _import_package():
    """The package from this checkout's src, never an installed copy."""
    try:
        import weylgrowth
    except ImportError as ex:
        sys.exit(f"cannot import weylgrowth from {SRC}: {ex}")
    if Path(weylgrowth.__file__).resolve().parent.parent != SRC:
        sys.exit(f"weylgrowth imported from {weylgrowth.__file__}, not {SRC}")


def _setup_probe(workload: str) -> None:
    _import_package()
    import workloads
    workloads.WORKLOADS[workload].setup()
    print("ready", flush=True)


def measure_setup(workload: str) -> list[float]:
    """Wall time from spawning a fresh interpreter to the end of its setup."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"setup probe for {workload} failed (exit {proc.returncode})")
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from importlib.metadata import version
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": _cpu_model()}


class Loop:
    """Runs ops one after another and keeps the per-op accounting."""

    def __init__(self, wl, ctx, tracer=None):
        self.wl, self.ctx, self.tracer = wl, ctx, tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.mismatched = 0
        self.problems: list[str] = []

    def op(self, op) -> None:
        args = self.wl.prepare(self.ctx, op)
        if self.tracer:
            self.tracer.op = len(self.latencies)
            self.tracer.active = True
        t0 = perf_counter()
        try:
            out = self.wl.run(self.ctx, args)
            raised = None
        except Exception as ex:  # a raising op is a failed op, not a crash
            raised = ex
        dt = perf_counter() - t0
        if self.tracer:
            self.tracer.active = False
        self.latencies.append(dt)
        if raised is not None:
            self.failed += 1
            self.mismatched += 1
            self._note(op, f"raised {raised!r}")
            return
        gate, sig = self.wl.check(self.ctx, op, out)
        if not gate:
            self.failed += 1
            self._note(op, "output gate failed")
        if not self.wl.matches(sig, op["ref"]):
            self.mismatched += 1
            self._note(op, f"output differs from the reference: {sig}")

    def _note(self, op, what):
        label = op.get("argv") or op.get("kind") or op["model"]["root_system"]
        self.problems.append(f"{label}: {what}")


def timed_run(wl, ctx, pool, decks, seconds: float) -> tuple[Loop, int]:
    loop, rotations, timed = Loop(wl, ctx), 0, 0.0
    while timed < seconds:
        for op in wl.rotation(ctx, pool, decks):
            loop.op(op)
            timed += loop.latencies[-1]
            if timed >= seconds and not wl.whole_rotations:
                break
        rotations += 1
    return loop, rotations


def traced_run(wl, ctx, pool, decks, workload, seed):
    import tracer as tr
    ops = [op for _ in range(wl.trace_rotations) for op in wl.rotation(ctx, pool, decks)]
    tracer = tr.Tracer()
    plain, traced = Loop(wl, ctx), Loop(wl, ctx, tracer)
    # each op untraced, then traced, so both passes see the same warm-up
    # and drift; the untraced pass runs with no wrapper installed at all
    for op in ops:
        plain.op(op)
        tracer.install()
        try:
            traced.op(op)
        finally:
            tracer.uninstall()
    values = tracer.metrics()
    values["trace.untraced_ops_per_s"] = len(ops) / sum(plain.latencies)
    values["trace.traced_ops_per_s"] = len(ops) / sum(traced.latencies)
    spans_path = OUT / f"spans-{workload}-{seed}.csv"
    tracer.write_spans(spans_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tr.PER_LAYER}
    shares = {"share.route_b_of_critical_data": 2 / 3, "share.keylemma_of_lemmas": 0.52,
              "share.posofweight_of_lemmas": 0.32}
    notes = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
             "tracing_overhead": values["trace.untraced_ops_per_s"]
             / values["trace.traced_ops_per_s"] - 1,
             "shares_vs_roadmap": {k: {"measured": values[k], "roadmap": v}
                                   for k, v in shares.items()}}
    return [plain, traced], metrics, notes


def end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    ms = [t * 1000 for t in loop.latencies]
    n = len(ms)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / sum(loop.latencies), "ops/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        # rule-of-succession estimate (failed + 1) / (attempted + 2): never
        # 0, so a regression from zero failures is a finite relative change
        "failed_frac": ((loop.failed + 1) / (n + 2), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


WORKLOAD_NAMES = ("solve", "checks", "orbits", "cli")


def run_all(args) -> int:
    """Every workload in its own fresh process; a table of the metrics."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:44s} {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="one workload, or all of them in turn with a summary table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0

    _import_package()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    data = HERE / "data" / f"{args.workload}.json"
    if not data.is_file():
        sys.exit(f"missing input pool {data}; run perfbench/record.py")
    setup_times = [] if args.trace else measure_setup(args.workload)
    ctx = wl.setup()
    with open(data) as fh:
        pool = json.load(fh)
    decks = workloads.Decks(random.Random(f"{args.workload}/{args.seed}"))
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT)
    ctx.tmpdir = tmpdir
    try:
        if args.trace:
            loops, metrics, notes = traced_run(wl, ctx, pool, decks, args.workload, args.seed)
        else:
            loop, rotations = timed_run(wl, ctx, pool, decks, args.seconds)
            loops, metrics = [loop], end_to_end(loop, setup_times)
            p90 = metrics["op_p90_ms"]["value"]
            notes = {"rotations": rotations, "timed_s": sum(loop.latencies),
                     "ops_beyond_p90": sum(t * 1000 > p90 for t in loop.latencies)}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    attempted = sum(len(lp.latencies) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    problems = [msg for lp in loops for msg in lp.problems]
    for msg in problems[:20]:
        print(msg, file=sys.stderr)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_probes_s": setup_times, "env": environment(),
               "mismatched": sum(lp.mismatched for lp in loops), **notes}
    print(json.dumps(details))
    print(json.dumps({"correct": all(lp.mismatched == 0 for lp in loops),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
