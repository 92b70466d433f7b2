"""Write ``refs.json``: every workload variant's answers at this commit.

    python3 perfbench/pin_refs.py

The pinned answers are the correctness gate of later runs, so regenerate
them only for a deliberate change of the benchmark's inputs, never to
make a failing check pass.  Values the test suite already pins are
asserted here before anything is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench
from workloads import VARIANTS, WORKLOADS, Ctx

ANCHORS = {  # values the tests pin (tests/test_acceptance.py, test_oracle.py)
    "eval-ip-strong0": "13/64",
    "eval-ip3": "5/16",
    "eval-toeplitz4": "3/16",
}


def check_large_anchors() -> None:
    """The instances too slow for a benchmark pass, evaluated once here."""
    from fractions import Fraction
    from extractomat import oracle
    from extractomat.extractors import deor_handle, ip_handle
    for name, h, want in (("ip(4;3,3)", ip_handle(4), Fraction(3, 16)),
                          ("deor(4,2;3,3)", deor_handle(4, 2), Fraction(5, 16))):
        got = oracle.worst_case_error_2source(h, 3, 3, None, workers=2).error
        if got != want:
            raise SystemExit(f"{name} = {got}, tests pin {want}")


def main() -> int:
    _, naive = bench.load_package()
    check_large_anchors()
    refs: dict = {}
    for name, wl in WORKLOADS.items():
        refs[name] = {}
        for v in range(VARIANTS):
            work = Path(tempfile.mkdtemp(dir=bench.ROOT, prefix=".perfbench_pin"))
            try:
                ctx = Ctx(work=work, seed=v, smoke=False,
                          refs=None, naive=naive)
                state = wl.setup(ctx, work / "setup")
                pinned, seen = {}, {}
                for op in wl.ops(ctx, state, 0):
                    if op.observe is None or op.name in pinned:
                        continue
                    pre = op.pre() if op.pre else None
                    result = op.run()
                    error = op.check(result, pre)
                    if error:
                        raise SystemExit(f"{name} variant {v}: {error}")
                    pinned[op.name] = seen[op.name] = op.observe(result)
                errors = wl.finish(ctx, state, seen)
                if errors:
                    raise SystemExit(f"{name} variant {v}: {errors}")
                for key, want in ANCHORS.items():
                    if key in pinned and pinned[key] != want:
                        raise SystemExit(f"{key} = {pinned[key]}, tests pin {want}")
                refs[name][str(v)] = pinned
                print(f"{name} variant {v}: {len(pinned)} answers", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    out = bench.HERE / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
