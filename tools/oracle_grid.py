"""Compare the oracle reports of two source trees on a seeded grid of requests.

    python3 tools/oracle_grid.py OLD_SRC NEW_SRC

Each tree answers the same ``extractomat.oracle`` requests in a process of
its own:

* two-source, on ip and deor (m = 1 and 2) at n = 2, 3, 4 and on random
  tables of widths 2-4 with m = 1, 2, 3, at every k1, k2 and strong index
  (None, 0, 1), so that the event, support and GL(n,2) paths all run;
* leaked, b = 1, on both sides of the map-free choice (ip(4; 1, 3) from
  X1 takes leak patterns), from either input or both, with explicit maps
  too;
* seeded, strong and marginal, at b = 0 and b = 1, exhaustive and sampled;
* multi-source, at b = 0 and b = 1, on random three-input tables and a
  qmext composite of random tables;
* block+general, exhaustive and sampled;
* sampled two-source and sampled leaked requests;
* requests refused for their budget, their arrays' bytes, their mode,
  their strong index or their seed.

For every request the report's JSON without its ``volatile`` block
(error, exact error, witness, ``enumerated``, notes) must be equal between
the trees, or the request refused by both with the same exception type
and message; a size refusal's byte counts, volatile as a report's
``memory_bytes`` is, are compared with their digits masked.  Prints the
number of requests and mismatches, names each mismatch with the key
paths that differ (such as ``report.witness.supports``), and exits 1 on
any.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # loaded by path too
import tree_grid  # noqa: E402


def _two_source() -> list:
    handles = [("ip", n) for n in (2, 3, 4)]
    handles += [("deor", n, m) for m in (1, 2) for n in (2, 3, 4)]
    handles += [("table", "2-source", w, m, 10 * i + m)
                for i, w in enumerate(((2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                                       (4, 4)))
                for m in (1, 2, 3)]
    out = []
    for spec in handles:
        widths = (spec[1],) * 2 if spec[0] != "table" else spec[2]
        for k1, k2 in itertools.product(*(range(n + 1) for n in widths)):
            for strong in (None, 0, 1):
                out.append(("2source", spec, (k1, k2, strong), {}))
    return out


def _leaked() -> list:
    out = [("leaked", ("ip", 3), ((2, 2), 1), {}),
           ("leaked", ("ip", 4), ((1, 3), 1), {"leak_sources": [0]}),
           ("leaked", ("ip", 4), ((1, 3), 1), {}),
           ("leaked", ("ip", 2), ((1, 1), 1), {"strong": 0}),
           # every leaking input revealed: the leak-free report
           ("leaked", ("ip", 3), ((2, 2), 1),
            {"strong": 1, "leak_sources": [1]})]
    for i, (w, m) in enumerate((((2, 2), 1), ((2, 2), 2), ((3, 3), 1),
                                ((3, 3), 2), ((2, 3), 1), ((3, 2), 2))):
        spec = ("table", "2-source", w, m, 100 + i)
        for ks in ((1, 1), (2, 1), (1, 2), (0, 1), (2, 2)):
            if max(ks[0] - w[0], ks[1] - w[1]) > 0:
                continue
            for strong in (None, 0, 1):
                for sources in (None, [0], [1]):
                    out.append(("leaked", spec, (ks, 1),
                                {"strong": strong, "leak_sources": sources}))
        maps = [("map", w[1], 200 + i), ("map", w[1], 300 + i)]
        out.append(("leaked", spec, ((1, 1), 1),
                    {"maps": maps, "leak_sources": [1]}))
    return out


def _seeded() -> list:
    out = []
    for i, spec in enumerate((("toeplitz", 3, 1), ("toeplitz", 2, 2),
                              ("table", "seeded", (3, 2), 1, 400),
                              ("table", "seeded", (3, 2), 2, 401),
                              ("table", "seeded", (2, 2), 2, 402))):
        n = spec[1] if spec[0] == "toeplitz" else spec[2][0]
        for k in range(n + 1):
            for strong in (True, False):
                out.append(("seeded", spec, (k, strong), {}))
                out.append(("leaked", spec, ((k, 0), 1), {"strong": strong}))
                out.append(("seeded", spec, (k, strong),
                            {"mode": "sampled", "samples": 9, "seed": i}))
    return out


def _multi() -> list:
    out = []
    specs = [("table", "t-source", w, m, 500 + 10 * i + m)
             for i, w in enumerate(((2, 2, 2), (3, 2, 2), (2, 3, 1)))
             for m in (1, 2)] + [("qmext", 3, 600), ("qmext", 2, 601)]
    for spec in specs:
        widths = (spec[1],) * 3 if spec[0] == "qmext" else spec[2]
        for ks in itertools.product(*(range(min(n, 2) + 1) for n in widths)):
            for b in (0, 1):
                out.append(("multi", spec, (ks,), {"b": b}))
    return out


def _block() -> list:
    out = []
    for i, (w, m) in enumerate((((2, 2, 2), 1), ((2, 2, 2), 2),
                                ((3, 2, 2), 1), ((2, 3, 3), 2))):
        spec = ("table", "t-source", w, m, 700 + i)
        for ks in itertools.product(*(range(n + 1) for n in w)):
            out.append(("block", spec, (ks,), {}))
            out.append(("block", spec, (ks,),
                        {"mode": "sampled", "samples": 7, "seed": i}))
    return out


def _sampled() -> list:
    out = []
    for spec in (("ip", 4), ("deor", 3, 2),
                 ("table", "2-source", (3, 3), 2, 800),
                 ("table", "2-source", (4, 4), 1, 801)):
        for strong in (None, 0, 1):
            for samples, seed in ((5, 0), (50, 3)):
                kw = {"mode": "sampled", "samples": samples, "seed": seed}
                out.append(("2source", spec, (2, 3, strong), kw))
                out.append(("leaked", spec, ((2, 2), 1),
                            {"strong": strong, **kw}))
    return out


def _refused() -> list:
    wide = ("table", "2-source", (3, 4), 1, 904)
    bad_seed = {"mode": "sampled", "samples": 5, "seed": -1}  # no Philox key
    return [("2source", wide, (2, 2, None), {"budget": 100}),
            ("2source", wide, (2, 2, 0), {"budget": 10}),
            ("2source", wide, (2, 2, None), {"mode": "auto", "budget": 100}),
            ("2source", ("ip", 3), (1, 1, None), {"mode": "fast"}),
            ("leaked", ("ip", 3), ((2, 2), 1), {"budget": 100}),
            ("leaked", ("ip", 3), ((2, 2), 3), {}),
            ("leaked", ("table", "2-source", (3, 6), 1, 905), ((3, 5), 2),
             {"leak_sources": [0], "mode": "auto"}),
            ("seeded", ("toeplitz", 3, 1), (2, True), {"budget": 3}),
            ("multi", ("table", "t-source", (2, 2, 2), 1, 900), ((1, 1, 1),),
             {"budget": 10}),
            ("multi", ("table", "t-source", (2, 2, 2), 1, 900), ((1, 1, 1),),
             {"mode": "sampled"}),
            ("multi", ("table", "t-source", (5, 5, 1), 1, 901), ((4, 4, 0),),
             {}),
            ("block", ("table", "t-source", (2, 2, 2), 1, 902), ((1, 1, 1),),
             {"budget": 2}),
            ("2source", ("table", "2-source", (3, 3), 1, 903), (4, 1, None), {}),
            ("2source", ("ip", 3), (2, 2, None), bad_seed),
            ("leaked", ("ip", 3), ((2, 2), 1), bad_seed),
            ("leaked", ("ip", 3), ((2, 2), 1), {"strong": 2}),
            # the leaks run sampled where a leak-free run fits the budget
            ("leaked", ("ip", 3), ((2, 2), 1),
             {**bad_seed, "mode": "auto", "budget": 100}),
            ("seeded", ("toeplitz", 3, 1), (2, True), bad_seed),
            ("block", ("table", "t-source", (2, 2, 2), 1, 700), ((1, 1, 1),),
             bad_seed)]


def requests() -> list:
    """The grid: ``(call, handle spec, args, keywords)``, the same for
    every tree."""
    return (_two_source() + _leaked() + _seeded() + _multi() + _block()
            + _sampled() + _refused())


def name(request) -> str:
    call, spec, args, kw = request
    shown = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kw.items())])
    return f"{call} {spec}: {shown}"


def answer() -> None:
    """One JSON line per request, from the package importable here."""
    import numpy as np

    from extractomat import combinators, oracle
    from extractomat.errors import SizeLimitError
    from extractomat.extractors import (deor_handle, ip_handle, table_handle,
                                        toeplitz_handle)

    def draw(seed, m, widths):
        return np.random.default_rng(seed).integers(
            0, 1 << m, size=1 << sum(widths), dtype=np.uint32)

    def build(spec):
        kind, *rest = spec
        if kind == "ip":
            return ip_handle(*rest)
        if kind == "deor":
            return deor_handle(*rest)
        if kind == "toeplitz":
            return toeplitz_handle(*rest)
        if kind == "map":  # a random 2-valued map on an input of rest[0] bits
            return draw(rest[1], 1, rest[:1]).astype(np.int64)
        if kind == "qmext":  # n-bit inputs, a 2-bit inner output, m = 2
            n, seed = rest
            return combinators.build_qmext_handle(
                table_handle("iext", "2-source", (n, n), 2,
                             draw(seed, 2, (n, n))),
                table_handle("extq", "seeded", (n, 2), 2,
                             draw(seed + 1, 2, (n, 2))))
        what, widths, m, seed = rest
        return table_handle("rnd", what, widths, m, draw(seed, m, widths))

    calls = {"2source": oracle.worst_case_error_2source,
             "leaked": oracle.worst_case_error_leaked,
             "seeded": oracle.worst_case_error_seeded,
             "multi": oracle.worst_case_error_multi,
             "block": oracle.worst_case_error_block_general}
    for call, spec, args, kw in requests():
        if "maps" in kw:
            kw = {**kw, "maps": [build(f) for f in kw["maps"]]}
        try:
            rep = calls[call](build(spec), *args, **kw).to_json_dict()
            rep.pop("volatile")
            res = {"report": rep}
        except Exception as exc:  # every outcome is compared
            message = str(exc)
            if isinstance(exc, SizeLimitError):  # the estimate is volatile
                message = re.sub(r"\d+", "#", message)
            res = {"error": type(exc).__name__, "message": message}
        print(json.dumps(res))


def compare(old_src: str, new_src: str) -> tuple:
    """``(requests answered, [(request, [its key paths that differ,
    joined])] where the answers differ)``."""
    old = tree_grid.answers(__file__, old_src)
    new = tree_grid.answers(__file__, new_src)
    return len(old), [(name(r), [", ".join(tree_grid.paths(a, b))])
                      for r, a, b in zip(requests(), old, new, strict=True)
                      if a != b]


def main(argv=None) -> int:
    return tree_grid.main(tree_grid.parser(__doc__), argv,
                          lambda args: answer(),
                          lambda args: tree_grid.report(*compare(
                              args.old_src, args.new_src)))


if __name__ == "__main__":
    sys.exit(main())
