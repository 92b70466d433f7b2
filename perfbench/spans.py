"""Spans and counts recorded around the calls into each extractomat module.

The package itself carries no instrumentation, so the benchmark wraps the
public callables of each module (and the methods of its handle classes)
for the duration of a traced pass and restores them afterwards.  A wrapped
name is replaced in every ``extractomat`` module that imported it, so
calls made inside the package go through the wrapper too.

Spans live in flat arrays (28 bytes each) until the run writes them out.
A span's self time is its duration minus the time its direct children
cover; per-layer ``busy_s`` and ``self_s`` metrics are sums of self time.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

OP_SPAN = "op"


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        self.end[idx] = now
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += now - self.start[idx]

    def hide(self, seconds: float) -> None:
        """Keep bookkeeping done between spans out of the parent's self time."""
        if self._stack:
            self.child[self._stack[-1]] += seconds

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            out[self.names[self.name[i]]] += (self.end[i] - self.start[i]
                                              - self.child[i])
        return out

    def spans_named(self, name: str):
        nid = self._ids.get(name)
        return [i for i in range(len(self.start)) if self.name[i] == nid]

    def problems(self) -> list[str]:
        """Structural faults: open spans, orphans, negative self time."""
        out = []
        for i in range(len(self.start)):
            nm = self.names[self.name[i]]
            if math.isnan(self.end[i]):
                out.append(f"span {i} ({nm}) never closed")
                continue
            p = self.parent[i]
            if nm == OP_SPAN:
                if p != -1:
                    out.append(f"op span {i} has a parent")
            elif p < 0 or self.op[p] != self.op[i]:
                out.append(f"span {i} ({nm}) has no parent within op "
                           f"{self.op[i]}")
            if self.end[i] - self.start[i] - self.child[i] < -1e-9:
                out.append(f"span {i} ({nm}) has negative self time")
        return out

    def write(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span: name, op, parent,
        start and end in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as f:
            f.write("name\top\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.op[i]}\t"
                        f"{self.parent[i]}\t{self.start[i] - t0:.9f}\t"
                        f"{self.end[i] - t0:.9f}\n")


def _span_wrapper(tracer: Tracer, fn, name, before=None, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the arguments.

    ``before(args)`` runs ahead of the span and its result is handed to
    ``after(tracer, args, result, state)``, which records counts; the
    time both hooks take is hidden from the enclosing span.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        state = before(args) if before else None
        span_name = name(args) if callable(name) else name
        hidden = time.perf_counter() - t0
        idx = tracer.open(span_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            t1 = time.perf_counter()
            after(tracer, args, out, state)
            hidden += time.perf_counter() - t1
        tracer.hide(hidden)
        return out
    return wrapper


def _count_wrapper(tracer: Tracer, fn, key: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _add(key, value_fn):
    def after(tracer, args, out, state):
        tracer.counts[key] += value_fn(args, out)
    return after


def _after_mc(tracer, args, out, state):
    pairs = args[0]
    tracer.counts["oracle.mc_distance.samples"] += len(pairs)
    tracer.counts["oracle.mc_distance.cells"] += len(set(pairs))
    lo, hi = out.ci
    tracer.counts["oracle.mc_distance.ci_misses"] += not lo <= out.estimate <= hi


def _file_bytes(key):
    def after(tracer, args, out, state):
        tracer.counts[key] += Path(args[0]).stat().st_size
    return after


def _table_name(args):
    return ("combinators.table" if args[0].provenance == "composite"
            else "extractors.table")


def _table_before(args):
    h = args[0]
    return (1 << h.total_input_width) if h._table is None else 0


def _table_after(tracer, args, out, entries):
    tracer.counts[_table_name(args) + ".entries"] += entries


def _exec_after(tracer, args, out, state):
    tracer.counts["netsim.exec.runs"] += 1


class Instrumentation:
    """Installs the wrappers on the package modules; ``remove`` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _patch_function(self, module, attr, wrapped_fn):
        orig = getattr(module, attr)
        new = wrapped_fn(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("extractomat") and \
                    getattr(mod, attr, None) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, new)

    def _patch_method(self, cls, attr, wrapped_fn):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, wrapped_fn(orig))

    def install(self) -> None:
        from extractomat import (certify, cli, dist, extractors, graphs,
                                 ledger, leakage, netsim, oracle, sources)
        t = self.tracer

        def span(name, before=None, after=None):
            return lambda fn: _span_wrapper(t, fn, name, before, after)

        enumerated = lambda key: _add(key, lambda a, out: out.enumerated)
        spans = [
            (oracle, "worst_case_error_2source",
             span("oracle.two_source", after=enumerated("oracle.two_source.enumerated"))),
            (oracle, "worst_case_error_leaked",
             span("oracle.leaked", after=enumerated("oracle.leaked.enumerated"))),
            (oracle, "worst_case_error_multi",
             span("oracle.multi", after=enumerated("oracle.multi.enumerated"))),
            (oracle, "worst_case_error_seeded", span("oracle.seeded")),
            (oracle, "worst_case_error_block_general", span("oracle.block_general")),
            (oracle, "mc_distance_pairs", span("oracle.mc_distance", after=_after_mc)),
            (oracle, "check_lemma", span("oracle.check_lemma")),
            (certify, "certify_random_table", span("certify.request")),
            (certify, "save_xtab",
             span("certify.xtab_save", after=_file_bytes("certify.xtab_save.bytes"))),
            (certify, "load_xtab",
             span("certify.xtab_load", after=_file_bytes("certify.xtab_load.bytes"))),
            (graphs, "verify_and_disperser",
             span("graphs.verify", after=_add("graphs.verify.checked", lambda a, v: v.checked))),
            (graphs, "verify_expander",
             span("graphs.verify", after=_add("graphs.verify.checked", lambda a, v: v.checked))),
            (graphs, "verify_extractor_graph",
             span("graphs.verify", after=_add("graphs.verify.checked", lambda a, v: v.checked))),
            (graphs, "search_gadget",
             span("graphs.search", after=_add("graphs.search.steps", lambda a, r: r[2].steps))),
            (netsim, "exec_ext_pub", span("netsim.exec", after=_exec_after)),
            (netsim, "exec_geqr", span("netsim.exec", after=_exec_after)),
            (netsim, "exec_ext_pri", span("netsim.exec")),
            (netsim, "mc_public_block_quality", span("netsim.ensemble")),
            (netsim, "evaluate_security",
             span("netsim.evaluate_security",
                  after=_add("netsim.evaluate_security.atoms", lambda a, r: r.atoms))),
            (cli, "build_toy_network", span("netsim.build_network")),
            (ledger, "ledger_theorem", span("ledger.theorem")),
            (cli, "main", span("cli.request")),
        ]
        for module, attr, wrap in spans:
            self._patch_function(module, attr, wrap)
        self._patch_function(certify, "draw_table",
                             lambda fn: _count_wrapper(t, fn, "certify.draws"))
        self._patch_method(extractors.ExtractorHandle, "table",
                           span(_table_name, before=_table_before,
                                after=_table_after))
        self._patch_method(extractors.ExtractorHandle, "eval_int",
                           lambda fn: _count_wrapper(t, fn, "extractors.eval_int.calls"))
        self._patch_method(sources.FlatSource, "to_distribution",
                           span("sources.to_distribution"))
        self._patch_method(dist.Distribution, "sample", span("dist.sample"))
        self._patch_method(leakage.LeakageScenario, "leak_value",
                           lambda fn: _count_wrapper(t, fn, "leakage.leak_value.calls"))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# Span name -> per-layer metric prefix; calls and busy_s (self time) are
# reported for each.
_BUSY_LAYERS = [
    "oracle.two_source", "oracle.leaked", "oracle.multi", "oracle.seeded",
    "oracle.block_general", "oracle.mc_distance", "oracle.check_lemma",
    "certify.xtab_save", "certify.xtab_load", "extractors.table",
    "combinators.table", "graphs.verify", "graphs.search", "netsim.exec",
    "sources.to_distribution", "dist.sample", "ledger.theorem",
]
_COUNTS = [
    "oracle.two_source.enumerated", "oracle.leaked.enumerated",
    "oracle.multi.enumerated", "oracle.mc_distance.samples",
    "oracle.mc_distance.cells", "oracle.mc_distance.ci_misses",
    "certify.xtab_save.bytes", "certify.xtab_load.bytes",
    "extractors.table.entries", "combinators.table.entries",
    "extractors.eval_int.calls", "graphs.verify.checked",
    "graphs.search.steps", "netsim.evaluate_security.atoms",
    "leakage.leak_value.calls",
]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, each divided by the number of traced passes."""
    self_s = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    for nid in tracer.name:
        calls[tracer.names[nid]] += 1
    c = tracer.counts
    out: dict[str, float] = {}
    for layer in _BUSY_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = self_s[layer]
    for key in _COUNTS:
        out[key] = c[key]
    out["netsim.ensemble.self_s"] = self_s["netsim.ensemble"]
    out["netsim.evaluate_security.calls"] = calls["netsim.evaluate_security"]
    out["netsim.evaluate_security.self_s"] = self_s["netsim.evaluate_security"]
    out["netsim.build_network.busy_s"] = self_s["netsim.build_network"]
    out["cli.request.self_s"] = self_s["cli.request"]

    # A certify draw is a miss when it is measured and saved, a hit when a
    # cached record serves it.
    misses = calls["certify.xtab_save"]
    hits = c["certify.draws"] - misses
    out["certify.requests"] = calls["certify.request"]
    out["certify.hits"] = hits
    out["certify.misses"] = misses
    out["certify.measure_s"] = _child_time(tracer, "certify.request", "oracle.")
    out = {k: v / passes for k, v in out.items()}
    out["certify.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["netsim.exec.us_per_run"] = (
        1e6 * self_s["netsim.exec"] / c["netsim.exec.runs"]
        if c["netsim.exec.runs"] else 0.0)
    return out


def _child_time(tracer: Tracer, parent_name: str, child_prefix: str) -> float:
    parents = set(tracer.spans_named(parent_name))
    total = 0.0
    for i in range(len(tracer.start)):
        if tracer.parent[i] in parents and \
                tracer.names[tracer.name[i]].startswith(child_prefix):
            total += tracer.end[i] - tracer.start[i]
    return total
