"""Peak memory and wall time of large oracle and certify requests.

    python3 tools/mem_probe.py [--src DIR] [NAME ...]

Each named request (by default every one in ``LARGE``) runs in a fresh
interpreter with ``DIR`` (by default this repository's ``src/``) first
on its path, and prints one JSON line: the request's name, the peak
resident set of that interpreter (``ru_maxrss``, in MB), the request's
wall time, and the reported error and witness.  A certify request runs
cold, on an empty cache directory, and reports its record's error.
Point ``--src`` at another checkout's ``src/`` to compare two trees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> statement that sets ``rep``, an OracleReport or a record
REQUESTS = {
    "ip4": "rep = worst_case_error_2source(ip_handle(4), 2, 2)",
    "ip12-exhaustive": "rep = worst_case_error_2source(ip_handle(12), 1, 1)",
    "ip11-leaked-b1-sampled": (
        "rep = worst_case_error_leaked(ip_handle(11), (1, 1), 1, strong=0, "
        "mode='sampled', samples=20, seed=0)"),
    "certify-6-12-cold": (
        "_, rep = certify_random_table((6, 12), (4, 4), 3, kind='2-source', "
        "strong=(1,), samples=400, cache_dir=cache)"),
}
# the default; ``ip4`` takes a moment and checks the tool itself
LARGE = ("ip12-exhaustive", "ip11-leaked-b1-sampled", "certify-6-12-cold")

CHILD = """
import json, resource, tempfile, time
from extractomat.certify import certify_random_table
from extractomat.extractors import ip_handle
from extractomat.oracle import worst_case_error_2source, worst_case_error_leaked
with tempfile.TemporaryDirectory() as cache:
    t0 = time.perf_counter()
    {statement}
    wall = time.perf_counter() - t0
print(json.dumps({{
    "request": {name!r},
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, 1),
    "wall_s": round(wall, 3),
    "error": str(getattr(rep, "error_exact", None) or rep.error),
    "witness": getattr(rep, "witness", None)}}))
"""


def probe(name: str, src: Path) -> dict:
    """One request's JSON line, from a fresh interpreter on ``src``."""
    code = CHILD.format(name=name, statement=REQUESTS[name])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    if out.returncode != 0:
        raise SystemExit(f"{name} failed on {src}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help=f"any of {', '.join(REQUESTS)}")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    unknown = set(args.names) - set(REQUESTS)
    if unknown:
        ap.error(f"unknown requests {sorted(unknown)}")
    for name in args.names or LARGE:
        print(json.dumps(probe(name, args.src.resolve())), flush=True)


if __name__ == "__main__":
    main()
