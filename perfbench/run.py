"""extractomat benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  One process, one
client, closed loop: each request is sent when the previous one returned.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs every workload at minimal size, untraced and traced, and
checks the metric set against ``BENCHMARK.json`` and the span tree.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one computing thread per
# process keeps the runs comparable on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import OP_SPAN, Instrumentation, Tracer, layer_metrics
from speed import SHARE as PROBE_SHARE, SpeedProbe
from workloads import WORKLOADS, Ctx

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("busy_s", "self_s", "measure_s", "overhead_s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("us_per_run"):
        return "us"
    if name.endswith(("hit_ratio", "pool_speedup")):
        return "ratio"
    return "count"


class SetupError(Exception):
    """The checkout lacks what the benchmark builds on."""


def load_package():
    """Import extractomat from this checkout's ``src/``; time the import."""
    src = ROOT / "src"
    naive_path = ROOT / "tests" / "helpers_naive.py"
    if not (src / "extractomat" / "__init__.py").is_file():
        raise SetupError(f"no extractomat package under {src}")
    if not naive_path.is_file():
        raise SetupError(f"no naive oracles at {naive_path}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import extractomat
    from extractomat import (certify, cli, combinators, graphs,  # noqa: F401
                             ledger, netsim, oracle)
    import_s = time.perf_counter() - t0
    if Path(extractomat.__file__).resolve().parent != (src / "extractomat").resolve():
        raise SetupError(f"imported extractomat from {extractomat.__file__}, "
                         f"not from {src}")
    spec = importlib.util.spec_from_file_location("helpers_naive", naive_path)
    naive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(naive)
    return import_s, naive


def run_context() -> dict:
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines}


class Run:
    """One workload run: set-up, timed passes, optional traced passes."""

    def __init__(self, workload, ctx, rng: random.Random):
        self.wl = workload
        self.ctx = ctx
        self.rng = rng
        # Untraced passes only: request time, its probe mark and units
        # paid, and the requests of each op name.
        self.latencies: list[float] = []
        self.marks: list[tuple[int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seen: dict = {}
        self.pass_no = 0
        self.op_names: list[str] = []
        self.by_op: dict[str, list[int]] = {}
        self.probe = SpeedProbe()

    def setup(self, import_s: float) -> tuple[float, float]:
        """Set up ``SETUP_REPEATS`` times; returns the set-up time as
        measured and in reference-machine seconds."""
        times, scaled = [], []
        for rep in range(SETUP_REPEATS):
            mark = self.probe.mark()
            t0 = time.perf_counter()
            self.state = self.wl.setup(self.ctx, self.ctx.work / f"setup-{rep}")
            times.append(time.perf_counter() - t0)
            paid = self.probe.after(times[-1])
            scaled.append(times[-1] / self.probe.local(mark, paid))
        return (import_s + statistics.median(times),
                import_s / self.probe.local(0, 0) + statistics.median(scaled))

    def scaled_latencies(self) -> list[float]:
        """Request times in reference-machine seconds."""
        return [t / self.probe.local(*m) for t, m in zip(self.latencies, self.marks)]

    def one_pass(self, tracer=None) -> float:
        """Run one shuffled pass; returns its summed request time in
        reference-machine seconds."""
        ops = self.wl.ops(self.ctx, self.state, self.pass_no)
        self.pass_no += 1
        self.rng.shuffle(ops)
        timed = []
        for op in ops:
            pre = op.pre() if op.pre else None
            mark = self.probe.mark()
            if tracer is not None:
                tracer.op_id = len(self.op_names)
                self.op_names.append(op.name)
                span = tracer.open(OP_SPAN)
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception:
                result = None
                error = f"{op.name}: {traceback.format_exc(limit=3)}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            paid = self.probe.after(dt)
            timed.append((dt, (mark, paid)))
            self.attempted += 1
            if error is None:
                try:
                    error = op.check(result, pre)
                    if op.observe and op.name not in self.seen:
                        self.seen[op.name] = op.observe(result)
                except Exception:
                    error = f"{op.name} check: {traceback.format_exc(limit=3)}"
            if tracer is None:
                self.by_op.setdefault(op.name, []).append(len(self.latencies))
                self.latencies.append(dt)
                self.marks.append((mark, paid))
            if error:
                self.failed += 1
                self.errors.append(error)
        self.errors += self.wl.end_pass(self.ctx, self.state)
        return sum(dt / self.probe.local(*m) for dt, m in timed)

    def passes(self, count: int, tracer=None) -> list[float]:
        """Run ``count`` passes; returns the request time of each."""
        return [self.one_pass(tracer) for _ in range(count)]


def percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, import_s: float, naive) -> dict:
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    default_cache = work / "default-cache"
    os.environ["EXTRACTOMAT_CACHE"] = str(default_cache)
    ctx = Ctx(work=work, seed=seed, smoke=smoke, refs=None, naive=naive)
    if not smoke:
        refs = json.loads((HERE / "refs.json").read_text())
        ctx.refs = refs[name][str(ctx.variant)]
    run = Run(wl, ctx, random.Random(seed))
    tracer = None
    # A fixed number of passes for a given --seconds, so that every run
    # holds the same requests; the probe takes its share of the time, and
    # a traced run splits the passes between an untraced and a traced half.
    count = max(1, round(seconds / (1 + PROBE_SHARE) / (2 if trace else 1)
                         / wl.pass_seconds))
    try:
        measured_setup_s, setup_s = run.setup(import_s)
        busy = run.passes(count)
        if trace:
            tracer = Tracer()
            inst = Instrumentation(tracer)
            inst.install()
            try:
                traced_busy = run.passes(count, tracer)
            finally:
                inst.remove()
        run.errors += wl.finish(ctx, run.state, run.seen)
        if default_cache.exists():
            run.errors.append("a request used the default certificate cache")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    # End-to-end times are in reference-machine seconds: each request's
    # time over the speed factor measured next to it (speed.py).
    scaled = run.scaled_latencies()

    def mix(lat):
        # The request mix with each request type at its median latency,
        # so that a burst of machine noise moves a rate or percentile no
        # more than it moves the medians.
        out = []
        for ix in run.by_op.values():
            out += [statistics.median(lat[i] for i in ix)] * len(ix)
        return out

    requests_per_s = len(scaled) / sum(mix(scaled))
    passes = len(busy)
    if not trace:
        lat_ms = [1000 * t for t in mix(scaled)]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "requests_per_s": requests_per_s,
            "request_p50_ms": percentile(lat_ms, 50),
            "request_p90_ms": percentile(lat_ms, 90),
        }
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer, passes)
        metrics["oracle.pool_speedup"] = _pool_speedup(tracer, run.op_names)
        metrics["trace.overhead_s"] = (sum(traced_busy) - sum(busy)) / passes
        units = {k: per_layer_unit(k) for k in metrics}
    # The workload's own unit of work per request is fixed by its mix.
    work_rate = requests_per_s * wl.work_per_pass(ctx) * passes / len(run.latencies)
    return {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_info": {"passes": passes, "requests": len(run.latencies),
                  "speed_factor": run.probe.factor,
                  "measured_setup_s": measured_setup_s,
                  "measured_requests_per_s": len(scaled) / sum(mix(run.latencies)),
                  f"{wl.unit}_per_s": work_rate, "errors": run.errors[:20],
                  "op_median_ms": {
                      k: round(1000 * statistics.median(scaled[i] for i in ix), 3)
                      for k, ix in sorted(run.by_op.items())},
                  "variant": ctx.variant},
        "_tracer": tracer,
    }


def _pool_speedup(tracer, op_names) -> float:
    """ip time with one worker over ip time with two, same instance."""
    per_op = {}
    for i in tracer.spans_named("oracle.two_source"):
        nm = op_names[tracer.op[i]]
        per_op[nm] = per_op.get(nm, 0.0) + tracer.end[i] - tracer.start[i]
    one = per_op.get("eval-ip-small-threads1")
    two = per_op.get("eval-ip-small-threads2")
    return one / two if one and two else 0.0


def smoke(import_s, naive) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, 0, 0.0, trace, True, import_s, naive)
            kind = "per_layer" if trace else "end_to_end"
            got = res["metrics"]
            for metric, unit in want[kind].items():
                if metric not in got:
                    problems.append(f"{name}: {metric} missing")
                elif got[metric]["unit"] != unit or not got[metric]["unit"]:
                    problems.append(f"{name}: {metric} unit "
                                    f"{got[metric]['unit']!r}, expected {unit!r}")
            extra = set(got) - set(want[kind])
            if extra:
                problems.append(f"{name}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
            if not res["correct"]:
                problems.append(f"{name}: incorrect: {res['_info']['errors']}")
            if trace:
                problems += [f"{name}: {p}" for p in res["_tracer"].problems()[:10]]
                negative = [k for k, v in got.items()
                            if k.endswith(("busy_s", "self_s", "measure_s"))
                            and v["value"] < 0]
                problems += [f"{name}: negative {k}" for k in negative]
            print(f"# smoke {name} trace={int(trace)}: "
                  f"{res['attempted']} ops, {res['failed']} failed", flush=True)
    for p in problems:
        print(f"# smoke problem: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    try:
        import_s, naive = load_package()
    except (SetupError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(import_s, naive)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), False, import_s, naive)
    info = res.pop("_info")
    tracer = res.pop("_tracer")
    if tracer is not None:
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(out)
        print(f"# spans written to {out.relative_to(ROOT)}")
    print(f"# context {json.dumps(run_context())}")
    print(f"# workload {args.workload} {json.dumps(info)}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
