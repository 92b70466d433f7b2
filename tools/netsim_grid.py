"""Compare the netsim reports of two source trees on a seeded grid of requests.

    python3 tools/netsim_grid.py OLD_SRC NEW_SRC [--limit N]

Each tree answers the same ``extractomat netsim`` requests in a process of
its own, with an empty certificate cache of its own:

* exact geqr on the micro config (p=5, t=1, alpha=0.25) at n = k = 2, 3
  and 4, config seeds 3-6, under the adversaries none, ir and qr-analog
  (qr-analog adds the exact IR-to-QR comparison);
* exact extpub on a small config (p=7, n=3, k=1), seeds 5 and 6, under
  each adversary;
* sampled geqr (micro, n = k = 4) and sampled extpub (the README's toy
  config, p=7, n=6, k=4) under each adversary, at several config seeds
  and run counts.

For every request the exit code, ``report.json`` without its ``volatile``
key, ``runs.jsonl`` and ``summary.csv`` must be byte-identical between
the trees.  ``--limit N`` answers only the first N requests.  Prints the
number of requests and mismatches, names each mismatch, and exits 1 on
any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MICRO = "p = 5\nt = 1\nn = {n}\nk = {k}\nalpha = 0.25\nseed = {seed}\n"
SMALL_EXTPUB = ("p = 7\nt = 1\nn = 3\nk = 1\nalpha = 2.0\ndelta = 0.25\n"
                "seed = {seed}\n")
TOY = ("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
       "seed = {seed}\n")
ADVERSARIES = ("none", "ir", "qr-analog")
OUTPUTS = ("report.json", "runs.jsonl", "summary.csv")


def requests() -> list:
    """The grid: ``(name, config text, netsim flags)``, the same for every
    tree, cheapest first."""
    out = []
    for n in (2, 3, 4):
        for seed in (3, 4, 5, 6):
            for adv in ADVERSARIES:
                out.append((f"exact-geqr-n{n}-s{seed}-{adv}",
                            MICRO.format(n=n, k=n, seed=seed),
                            ["--protocol", "geqr", "--adv", adv, "--exact"]))
    for seed in (5, 6):
        for adv in ADVERSARIES:
            out.append((f"exact-extpub-s{seed}-{adv}",
                        SMALL_EXTPUB.format(seed=seed),
                        ["--protocol", "extpub", "--adv", adv, "--exact"]))
    for seed in (3, 4, 5):
        for runs in (500, 1000, 2000, 5000):
            for adv in ADVERSARIES:
                out.append((f"sampled-geqr-s{seed}-r{runs}-{adv}",
                            MICRO.format(n=4, k=4, seed=seed),
                            ["--protocol", "geqr", "--adv", adv,
                             "--runs", str(runs)]))
    for seed in (17, 18, 19):
        for runs in (500, 2000, 5000):
            for adv in ADVERSARIES:
                out.append((f"sampled-extpub-s{seed}-r{runs}-{adv}",
                            TOY.format(seed=seed),
                            ["--protocol", "extpub", "--adv", adv,
                             "--runs", str(runs)]))
    return out


def answer(limit: int | None) -> None:
    """One JSON line per request, from the package importable here."""
    from extractomat import cli
    work = Path(tempfile.mkdtemp(prefix="netsim_grid_"))
    try:
        for i, (name, config, flags) in enumerate(requests()[:limit]):
            cfg, out_dir = work / f"{i}.cfg", work / f"out{i}"
            cfg.write_text(config)
            argv = ["netsim", "--config", str(cfg), *flags,
                    "--cache", str(work / "cache"), "--out-dir", str(out_dir)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            files = {nm: (out_dir / nm).read_text()
                     for nm in OUTPUTS if (out_dir / nm).exists()}
            if "report.json" in files:
                report = json.loads(files["report.json"])
                report.pop("volatile", None)
                files["report.json"] = json.dumps(report, indent=2)
            print(json.dumps({"request": name, "exit": code, **files}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _answers(src: str, limit: int | None) -> list:
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, __file__, "--answer"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True,
                         check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def compare(old_src: str, new_src: str, limit: int | None = None) -> tuple:
    """``(requests answered, names of the requests whose answers differ)``."""
    old, new = _answers(old_src, limit), _answers(new_src, limit)
    return len(old), [a["request"] for a, b in zip(old, new, strict=True)
                      if a != b]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src", nargs="?")
    p.add_argument("new_src", nargs="?")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--answer", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.answer:
        answer(args.limit)
        return 0
    if not (args.old_src and args.new_src):
        p.error("give the old and the new src directory")
    total, mismatches = compare(args.old_src, args.new_src, args.limit)
    print(f"{total} requests, {len(mismatches)} mismatches")
    for name in mismatches:
        print(f"mismatch: {name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
