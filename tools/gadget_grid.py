"""Compare the gadget searches of two source trees on a seeded grid.

    python3 tools/gadget_grid.py OLD_SRC NEW_SRC

Each tree runs the same ``graphs.search_gadget`` calls, in a process of its
own: kinds x parameters x seeds, with the benchmark's two searches at
their seeds, searches that restart and that freeze (so that the scan of a
frozen state skips steps), a left-over half after the initial draw (odd
l), highs of 1 (r - d = 1, d = 1 and l = 1, which draw no half), an
unreachable target, extractor graphs, a state with more moves than a
search draws, and refused inputs.  A search must return the same graph,
attempts, steps, ``scanned`` and verdict, or be refused with the same
exception type and message.  Prints the number of searches and
mismatches, names each mismatch with the fields that differ, and exits 1
on any.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # loaded by path too
import tree_grid  # noqa: E402

# (kind, params, seeds, search keywords)
GRID = [
    ("and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                       "gamma": 0.125}, [4, 5], {}),
    ("expander", {"l": 10, "r": 10, "d": 4, "beta": 0.3}, [6, 7], {}),
    ("and-disperser", {"l": 8, "r": 6, "d": 2, "delta": 0.5, "gamma": 0.25},
     range(4), {"attempts": 2, "steps": 1500}),
    ("expander", {"l": 9, "r": 10, "d": 3, "beta": 0.4}, range(4),
     {"attempts": 3, "steps": 400}),
    ("expander", {"l": 2, "r": 8, "d": 3, "beta": 0.25}, range(3),
     {"attempts": 2, "steps": 300}),
    ("and-disperser", {"l": 6, "r": 5, "d": 4, "delta": 0.8,
                       "gamma": 0.16}, range(3), {}),  # r - d = 1
    ("and-disperser", {"l": 9, "r": 8, "d": 1, "delta": 0.5, "gamma": 0.3},
     range(3), {"attempts": 3, "steps": 60}),  # d = 1
    ("and-disperser", {"l": 1, "r": 6, "d": 2, "delta": 0.5, "gamma": 1.0},
     range(2), {"attempts": 2, "steps": 100}),  # l = 1
    ("and-disperser", {"l": 4, "r": 4, "d": 3, "delta": 0.25,
                       "gamma": 0.25}, [0], {"attempts": 2, "steps": 50}),
    ("extractor-graph", {"l": 16, "r": 8, "d": 4, "K": 1, "eps": 0.25,
                         "alpha": 0.5}, range(4), {"attempts": 3, "steps": 60}),
    ("extractor-graph", {"l": 2, "r": 4, "d": 2, "K": 0, "eps": 0.25},
     range(3), {"attempts": 2, "steps": 300}),
    ("expander", {"l": 8, "r": 400, "d": 200, "beta": 1 / 400}, range(2),
     {"attempts": 2, "steps": 100}),  # 320,000 moves, subsets of size 1
    ("expander", {"l": 4, "r": 4, "d": 5, "beta": 0.5}, [0], {}),
    ("expander", {"l": 40, "r": 40, "d": 4, "beta": 0.5}, [0],
     {"budget": 1000}),
]


def searches():
    """The grid: ``(name, kind, params, seed, keywords)``, the same for
    every tree."""
    for kind, params, seeds, kw in GRID:
        for seed in seeds:
            shown = ",".join(f"{k}={v}" for k, v in params.items())
            yield f"{kind}({shown}) seed {seed}", kind, params, seed, kw


def answer() -> None:
    """One JSON line per search, from the graphs module importable here."""
    from extractomat.graphs import search_gadget
    for _, kind, params, seed, kw in searches():
        try:
            g, verdict, rec = search_gadget(kind, params, seed, **kw)
            res = {"graph": g.to_json(), "attempts": rec.attempts,
                   "steps": rec.steps, "scanned": rec.scanned,
                   "verdict": [verdict.ok, verdict.witness, verdict.applied,
                               verdict.checked]}
        except Exception as exc:  # every outcome is compared
            res = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(res))


def compare(old_src: str, new_src: str) -> tuple[int, list]:
    """The number of searches and ``(name, differing fields)`` of each
    mismatch."""
    names = [name for name, *_ in searches()]
    mismatches = []
    for name, old, new in zip(names, tree_grid.answers(__file__, old_src),
                              tree_grid.answers(__file__, new_src),
                              strict=True):
        fields = [k for k in {**old, **new} if old.get(k) != new.get(k)]
        if fields:
            mismatches.append((name, fields))
    return len(names), mismatches


def _report(args) -> int:
    total, mismatches = compare(args.old_src, args.new_src)
    print(f"{total} searches, {len(mismatches)} mismatches")
    for name, fields in mismatches:
        print(f"mismatch: {name}: {', '.join(fields)}")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    return tree_grid.main(tree_grid.parser(__doc__), argv,
                          lambda args: answer(), _report)


if __name__ == "__main__":
    sys.exit(main())
