"""Compare the ledger of two source trees on a seeded grid of requests.

    python3 tools/ledger_grid.py OLD_SRC NEW_SRC [--per-theorem 400]

Each tree's ``ledger_theorem`` answers the same seeded calls, in a
process of its own: every theorem gets ``--per-theorem`` calls drawn from
a mix of typical values, zeros, negatives and huge ones, with each
optional input (``m``, ``C`` and the constants) given about half the
time, now and then a required input missing or an input the theorem
does not take.  A call that the old tree answers must get byte-identical
``to_json()`` from the new one; one it refuses must be refused with the
same exception type and ``violations``.  The old tree's untyped errors
(a ``TypeError`` from a bad request, arithmetic errors outside a
theorem's domain) must come back as ``InvalidInputError``.  Prints the
counts by outcome and exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # loaded by path too
import tree_grid  # noqa: E402

# theorem id -> (its inputs in signature order, how many are required)
PARAMS = {
    "raz": (("n1", "n2", "k1", "k2", "m", "delta"), 4),
    "raz-ge": (("n1", "n2", "k1", "k2", "m", "delta"), 4),
    "bourgain": (("n", "alpha"), 1),
    "bourgain-ge": (("n", "alpha"), 1),
    "deor": (("n", "k1", "k2", "m"), 4),
    "deor-ge": (("n", "k1", "k2"), 3),
    "qmext": (("t", "n", "k", "l", "eps1", "eps2"), 6),
    "qbext": (("eps1", "eps2", "eps3", "k3", "omega_const"), 4),
    "bext": (("k", "eps", "omega_const"), 2),
    "weak-seed": (("k", "eps", "d", "delta", "C", "big_o_const",
                   "omega_const"), 4),
    "three-source": (("k", "eps", "delta"), 3),
    "ir-to-qr": (("eps", "rush_bits"), 2),
    "and-disperser": (("alpha", "D", "M", "C"), 3),
    "expander": (("beta", "C"), 1),
}
EXTRA = ("alpha", "m", "C", "n", "eps", "delta", "zzz")
FRACTIONS = ("eps", "eps1", "eps2", "eps3", "delta", "alpha", "beta",
             "omega_const")
UNTYPED = {"TypeError", "ZeroDivisionError", "OverflowError", "ValueError"}


def _value(rng: random.Random, name: str):
    r = rng.random()
    if r < 0.06:
        return 0
    if r < 0.10:
        return -rng.choice([0.5, 1, 3.0])
    if r < 0.14:
        return rng.choice([1e6, 2000.0, 1 << 20])
    if name in FRACTIONS:
        return rng.choice([0.01, 0.1, 0.25, 0.5, 1.0, rng.uniform(0, 1)])
    if name in ("t", "l", "D", "M", "big_o_const"):
        return rng.randint(1, 70)
    if name in ("m", "rush_bits", "d", "C"):
        return rng.choice([1, 2.0, 5.5, rng.uniform(0, 80)])
    if rng.random() < 0.5:
        return float(rng.choice([10, 64, 1000, 1 << 14, 1 << 18, 1 << 20]))
    return rng.uniform(1, 1 << 20)


def calls(per_theorem: int, seed: int = 2014):
    """The grid: ``(theorem id, inputs)`` pairs, the same for every tree."""
    rng = random.Random(seed)
    for tid, (names, required) in PARAMS.items():
        for _ in range(per_theorem):
            kw = {}
            for j, name in enumerate(names):
                if (rng.random() > 0.03 if j < required
                        else rng.random() < 0.5):
                    kw[name] = _value(rng, name)
            if rng.random() < 0.04:
                extra = rng.choice(EXTRA)
                if extra not in names:
                    kw[extra] = _value(rng, extra)
            if tid.startswith("raz") and {"n1", "k1"} <= kw.keys() \
                    and rng.random() < 0.6:  # near the valid region
                n1 = float(rng.choice([1 << 14, 1 << 18, 1 << 20]))
                kw.update(n1=n1, n2=n1, k1=rng.uniform(0.55, 1.02) * n1,
                          k2=rng.uniform(10, 2e5))
            if tid == "deor-ge" and rng.random() < 0.5:
                n = float(rng.randint(10, 2000))
                kw.update(n=n, k1=rng.uniform(0.3, 1) * n,
                          k2=rng.uniform(0.3, 1) * n)
            yield tid, kw


def answer(per_theorem: int) -> None:
    """One JSON line per call, from the ledger importable here."""
    from extractomat.ledger import ledger_theorem
    for tid, kw in calls(per_theorem):
        try:
            res = {"ok": ledger_theorem(tid, **kw).to_json()}
        except Exception as exc:  # every outcome is compared
            res = {"err": type(exc).__name__,
                   "violations": getattr(exc, "violations", None)}
        print(json.dumps(res))


def _answers(src: str, per_theorem: int) -> list:
    return tree_grid.answers(__file__, src, "--per-theorem", str(per_theorem))


def compare(old_src: str, new_src: str, per_theorem: int) -> Counter:
    """Outcome counts, with ``"mismatch"`` counting the calls that differ."""
    counts = Counter()
    for old, new in zip(_answers(old_src, per_theorem),
                        _answers(new_src, per_theorem), strict=True):
        if "ok" in old:
            kind, same = "ok", new.get("ok") == old["ok"]
        elif old["err"] in UNTYPED and new.get("err") != old["err"]:
            kind = f"{old['err']} -> InvalidInputError"
            same = new.get("err") == "InvalidInputError"
        else:
            kind, same = old["err"], new == old
        counts[kind if same else "mismatch"] += 1
    return counts


def _report(args) -> int:
    counts = compare(args.old_src, args.new_src, args.per_theorem)
    print(f"{sum(counts.values())} calls over {len(PARAMS)} theorems:",
          dict(sorted(counts.items())))
    return 1 if counts["mismatch"] else 0


def main(argv=None) -> int:
    p = tree_grid.parser(__doc__)
    p.add_argument("--per-theorem", type=int, default=400)
    return tree_grid.main(p, argv, lambda args: answer(args.per_theorem),
                          _report)


if __name__ == "__main__":
    sys.exit(main())
