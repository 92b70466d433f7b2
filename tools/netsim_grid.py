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
  and run counts;
* sampled geqr on micro at n = 5, k = 3 and sampled extpub on the small
  config, whose flat sources hold 8 of 32 and 2 of 8 points.

For every request the exit code, stdout and ``report.json`` (in their
``volatile`` blocks, the counters by value and the timings ``eval_s`` and
``estimator_s`` by key name only), stderr (which holds the config
warnings), ``runs.jsonl`` and ``summary.csv`` must be byte-identical
between the trees.  ``--limit
N`` answers only the first N requests.  Prints the number of requests and
mismatches, names each mismatch with one indented line per output that
differs (for ``report.json`` and stdout, the key paths that differ, such
as ``public_block_quality.4.ci_99``), and exits 1 on any.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # loaded by path too
import tree_grid  # noqa: E402

MICRO = "p = 5\nt = 1\nn = {n}\nk = {k}\nalpha = 0.25\nseed = {seed}\n"
SMALL_EXTPUB = ("p = 7\nt = 1\nn = 3\nk = 1\nalpha = 2.0\ndelta = 0.25\n"
                "seed = {seed}\n")
TOY = ("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
       "seed = {seed}\n")
ADVERSARIES = ("none", "ir", "qr-analog")
OUTPUTS = ("report.json", "runs.jsonl", "summary.csv")
TIMINGS = ("eval_s", "estimator_s")  # the volatile values compared by name


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
    out.append(("sampled-geqr-n5k3-s3-r1000-qr-analog",
                MICRO.format(n=5, k=3, seed=3),
                ["--protocol", "geqr", "--adv", "qr-analog", "--runs", "1000"]))
    out.append(("sampled-extpub-small-s5-r1000-ir", SMALL_EXTPUB.format(seed=5),
                ["--protocol", "extpub", "--adv", "ir", "--runs", "1000"]))
    return out


def _stable(text: str) -> str:
    """A JSON report with its ``volatile`` timings blanked, in one
    spelling."""
    report = json.loads(text)
    if "volatile" in report:
        report["volatile"] = {k: None if k in TIMINGS else v
                              for k, v in report["volatile"].items()}
    return json.dumps(report, indent=2)


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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            files = {nm: (out_dir / nm).read_text()
                     for nm in OUTPUTS if (out_dir / nm).exists()}
            if "report.json" in files:
                files["report.json"] = _stable(files["report.json"])
            print(json.dumps({
                "request": name, "exit": code, "stderr": err.getvalue(),
                "stdout": [_stable(line) for line in out.getvalue().splitlines()],
                **files}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _answers(src: str, limit: int | None) -> list:
    return tree_grid.answers(__file__, src, *(
        () if limit is None else ("--limit", str(limit))))


def differences(old: dict, new: dict) -> list:
    """One line per output two answers to a request disagree on: its
    name, then for ``report.json`` and stdout (line number first) the
    key paths that differ."""
    lines = []
    for key in dict.fromkeys([*old, *new]):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        paths = []
        if key == "report.json" and a and b:
            paths = tree_grid.paths(json.loads(a), json.loads(b))
        elif key == "stdout":
            paths = tree_grid.paths(*(
                {i: json.loads(line) for i, line in enumerate(x)}
                for x in (a, b)))
        lines.append(f"{key}: {', '.join(paths)}" if any(paths) else key)
    return lines


def compare(old_src: str, new_src: str, limit: int | None = None) -> tuple:
    """``(requests answered, [(request, its differences)] where the
    answers differ)``."""
    old, new = _answers(old_src, limit), _answers(new_src, limit)
    return len(old), [(a["request"], differences(a, b))
                      for a, b in zip(old, new, strict=True) if a != b]


def main(argv=None) -> int:
    p = tree_grid.parser(__doc__)
    p.add_argument("--limit", type=int, default=None)
    return tree_grid.main(p, argv, lambda args: answer(args.limit),
                          lambda args: tree_grid.report(*compare(
                              args.old_src, args.new_src, args.limit)))


if __name__ == "__main__":
    sys.exit(main())
