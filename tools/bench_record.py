"""Record the benchmark of a checkout in ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N [--checkout DIR] [--baseline DIR]
                                  [--workload NAME ...] [--seeds N]

For each workload in ``BENCHMARK.json`` (or each ``--workload`` named) it
runs ``perfbench/run.py`` of the checkout ``--seeds`` times untraced
(seeds 0, 1, ..., three by default) and once traced (seed 0), each for
the benchmark's ``run_seconds``, and times the tier-1 test suite.  Each
untraced run keeps its per-request-type median latencies
(``op_median_ms``, from perfbench's ``# workload`` line), and each
workload the median of those over its untraced runs, so that a
shift in one request type shows even where the end-to-end metrics
absorb it.  From the same line each untraced run keeps the unscaled
numbers (``speed_factor``, ``measured_setup_s`` and
``measured_requests_per_s``), and each workload their medians under
``unscaled``: the speed factor is measured in the run's own process and
moves with it, so a gap in a scaled metric is read against these.
With each record go the ``src/`` line count, the git revision
(``-dirty`` when the tree differs from it) and the length of the
checkout's path: perfbench's scaled metrics move with that length, so
a ``--baseline`` whose path is not as long as the checkout's is
refused.  Every ``__pycache__`` under both checkouts' ``src/`` is
deleted before the first run, since stale bytecode moves ``setup_s``
and ``peak_rss_mb`` too.  The records also hold the interpreter the
runs use and the ``MALLOC_*`` variables of the runs' environment, which
move small protocol-exact and requests-short gaps; neither is set or
pinned here.

``--checkout`` defaults to the repository this script sits in.  With
``--baseline`` (say, a clone of the parent commit) the baseline is
recorded the same way, under ``parent``, taking turns with the checkout
run by run, and ``compare`` holds both sides' medians of every
end-to-end metric, of every request type's ``op_median_ms``, of the
unscaled numbers and both traced values of every per-layer metric; each
end-to-end metric also has the parent runs' ``[min, max]`` and the
number of same-seed runs in which the change reads better.
The file is written at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNTRACED_SEEDS = (0, 1, 2)
TRACED_SEED = 0
UNSCALED = ("speed_factor", "measured_setup_s", "measured_requests_per_s")
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]


def _run(cmd, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True)


def _revision(checkout: Path) -> str | None:
    out = _run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
               checkout)
    return out.stdout.strip() or None


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)], checkout)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed in "
                         f"{checkout}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    run = {"seed": seed, "correct": res["correct"],
           "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics}
    if not trace:
        head = f"# workload {workload} "
        info = next(json.loads(line[len(head):]) for line in lines
                    if line.startswith(head))
        run["op_median_ms"] = info["op_median_ms"]
        run["unscaled"] = {k: info[k] for k in UNSCALED}
    return run


def _checkout_info(checkout: Path) -> dict:
    t0 = time.perf_counter()
    tests = _run(TIER1, checkout)
    tier1_s = time.perf_counter() - t0
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (checkout / "src").rglob("*.py"))
    return {"path_len": len(str(checkout)),
            "interpreter": sys.executable,
            "malloc_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith("MALLOC_")},
            "rev": _revision(checkout), "src_lines": src_lines,
            "tier1_s": tier1_s, "tier1_exit": tests.returncode,
            "tier1_summary": (tests.stdout.strip().splitlines() or [""])[-1],
            "workloads": {}}


def record(checkouts: dict, workloads: list, seconds: float,
           seeds=UNTRACED_SEEDS) -> dict:
    """One record per named checkout, with untraced runs on ``seeds``.  The
    checkouts take turns run by run, each going first on every other run,
    so that all meet the same machine phases."""
    docs = {side: _checkout_info(path) for side, path in checkouts.items()}
    plan = [(s, 0) for s in seeds] + [(TRACED_SEED, 1)]
    for name in workloads:
        runs = {side: [] for side in checkouts}
        for i, (seed, trace) in enumerate(plan):
            order = list(checkouts.items())
            for side, path in order[::-1] if i % 2 else order:
                runs[side].append(_perfbench(path, name, seed, seconds, trace))
        for side, (*untraced, traced) in runs.items():
            median = {k: statistics.median(r["metrics"][k] for r in untraced)
                      for k in untraced[0]["metrics"]}
            ops = {op: statistics.median(r["op_median_ms"][op] for r in untraced
                                         if op in r["op_median_ms"])
                   for op in untraced[0]["op_median_ms"]}
            unscaled = {k: statistics.median(r["unscaled"][k] for r in untraced)
                        for k in UNSCALED}
            docs[side]["workloads"][name] = {
                "untraced": untraced, "median": median, "op_median_ms": ops,
                "unscaled": unscaled, "traced": traced}
            print(f"# {side} {name}: {json.dumps(median)}", flush=True)
    return docs


def compare(parent: dict, change: dict, end_to_end: list) -> dict:
    """Both sides' medians per workload.  Each end-to-end metric (the
    ``end_to_end`` entries of BENCHMARK.json) also gets the parent runs'
    ``[min, max]`` and ``wins``: in how many of the same-seed untraced
    pairs the change reads better, in the metric's ``better`` direction
    (a tie is no win), out of ``pairs``."""
    better = {m["name"]: m["better"] for m in end_to_end}
    out = {}
    for name, new in change["workloads"].items():
        old = parent["workloads"][name]
        rows = {k: {"parent": old["median"][k], "change": v}
                for k, v in new["median"].items()}
        ours = {r["seed"]: r["metrics"] for r in new["untraced"]}
        for k in better.keys() & rows.keys():
            runs = [r["metrics"][k] for r in old["untraced"]]
            pairs = [(r["metrics"][k], ours[r["seed"]][k])
                     for r in old["untraced"] if r["seed"] in ours]
            sign = 1 if better[k] == "higher" else -1
            rows[k].update(parent_range=[min(runs), max(runs)],
                           wins=sum(sign * (c - p) > 0 for p, c in pairs),
                           pairs=len(pairs))
        rows.update({k: {"parent": old["traced"]["metrics"].get(k),
                         "change": v}
                     for k, v in new["traced"]["metrics"].items()})
        rows["op_median_ms"] = {
            op: {"parent": old["op_median_ms"].get(op), "change": v}
            for op, v in new["op_median_ms"].items()}
        rows["unscaled"] = {k: {"parent": old["unscaled"][k], "change": v}
                            for k, v in new["unscaled"].items()}
        out[name] = rows
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--baseline", type=Path)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p.add_argument("--workload", action="append", choices=names,
                   help="a workload to run (repeatable; default: all)")
    p.add_argument("--seeds", type=int, default=len(UNTRACED_SEEDS),
                   help="untraced runs per workload and checkout")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be at least 1")
    workloads = args.workload or names
    seeds = tuple(range(args.seeds))
    seconds = bench["run_seconds"]
    import numpy
    doc = {"pr": args.pr, "seconds": seconds,
           "untraced_seeds": list(seeds), "traced_seed": TRACED_SEED,
           "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__}}
    checkouts = {"change": args.checkout.resolve()}
    if args.baseline:
        checkouts["parent"] = args.baseline.resolve()
        change, parent = (len(str(path)) for path in checkouts.values())
        if change != parent:
            p.error(f"the baseline's path has {parent} characters and the "
                    f"checkout's {change}; compare equally long paths")
    for path in checkouts.values():
        for cache in list((path / "src").rglob("__pycache__")):
            shutil.rmtree(cache)
    doc.update(record(checkouts, workloads, seconds, seeds))
    if args.baseline:
        doc["compare"] = compare(doc["parent"], doc["change"],
                                 bench["end_to_end"])
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
