"""The four benchmark workloads: their inputs, operations and checks.

Every workload is a closed loop with one client: an operation is sent
only after the previous one returned.  A pass is one list of operations;
a run repeats whole passes, so every run sees the same mix.

``--seed`` selects one of ``VARIANTS`` pinned input sets (random-table
seeds, config seeds) and shuffles the order of each pass.  Every variant
costs the same to evaluate; its exact answers are pinned in
``refs.json``, which ``pin_refs.py`` wrote from the seed commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

VARIANTS = 4

# A sampled estimate may move by this many of its own reported CI
# half-widths away from the seed commit's estimate.  Random streams are
# expected to change (independent per-experiment streams), so sampled
# values are not pinned exactly.
SAMPLED_TOLERANCE_HALF_WIDTHS = 8


@dataclass
class Ctx:
    """What a workload needs to build its inputs."""

    work: Path
    seed: int
    smoke: bool
    refs: dict | None  # this workload's pinned answers for this variant
    naive: object = None  # tests/helpers_naive.py

    @property
    def variant(self) -> int:
        return self.seed % VARIANTS


@dataclass
class Op:
    """One request.  ``run`` is timed; ``pre`` and ``check`` are not.

    ``check(result, pre_state)`` returns an error message or None.
    ``observe(result)``, where set, gives the value pinned under ``name``.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, object], str | None]
    observe: Callable[[object], object] | None = None
    pre: Callable[[], object] | None = None


def cli(argv) -> dict:
    """Call ``extractomat.cli.main`` in-process and parse its JSON output."""
    from extractomat import cli as cli_mod
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_mod.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def frac(value) -> str:
    """Exact ``num/den`` text of a Fraction, a ``num/den`` string or a float."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _pinned(ctx: Ctx, key: str, observed) -> str | None:
    """Compare an observed value against its pinned reference."""
    if ctx.refs is None:
        return None
    if key not in ctx.refs:
        return f"{key}: no pinned reference"
    if observed != ctx.refs[key]:
        return f"{key}: got {observed!r}, pinned {ctx.refs[key]!r}"
    return None


def exact_op(ctx: Ctx, name: str, run, observe, invariant=None) -> Op:
    """An op whose observed value must equal its pinned reference."""
    def check(result, _pre):
        if invariant is not None:
            msg = invariant(result)
            if msg:
                return f"{name}: {msg}"
        return _pinned(ctx, name, observe(result))
    return Op(name, run, check, observe=observe)


def _error_exact(r):
    return r["error_exact"]


def _eval_exhaustive(r):
    return None if r["mode"] == "exhaustive" else f"mode {r['mode']}"


def _report_exhaustive(rep):
    return None if rep.mode == "exhaustive" else f"mode {rep.mode}"


def certify_op(ctx: Ctx, name: str, argv, cache: Path, out: Path,
               strong=(), mode="auto") -> Op:
    """A certify request, checked against what it asked for.

    A record without every requested strong index, or of another mode
    than requested, is a failure (a reused record must match the
    measurement asked for).
    """
    argv = ["certify", *argv, "--cache", cache, "--out-dir", out]
    if strong:
        argv += ["--strong", *strong]
    if mode != "auto":
        argv += ["--mode", mode]

    def record(result):
        rec_path = out / f"certify-{result['digest'][:16]}.json"
        return json.loads(rec_path.read_text())

    def observe(result):
        rec = record(result)
        return {"error": rec["error"], "error_exact": rec["error_exact"],
                "mode": rec["mode"], "strong": {k: frac(v) for k, v in
                           sorted(rec["strong_errors"].items())}}

    def check(result, _pre):
        rec = record(result)
        missing = [i for i in strong if str(i) not in rec["strong_errors"]]
        if missing:
            return f"{name}: strong indices {missing} not measured"
        if mode != "auto" and rec["mode"] != mode:
            return f"{name}: asked for {mode}, served {rec['mode']}"
        if rec["mode"] == "sampled":
            return None if 0 <= rec["error"] <= 1 else f"{name}: error out of range"
        return _pinned(ctx, name, observe(result))

    return Op(name, lambda: cli(argv), check, observe=observe)


class Workload:
    """A named request mix; ``unit`` names the work a pass does.

    ``pass_seconds`` is the time of one pass on the 2-core machine the
    benchmark was sized on; a run holds as many passes as fit, rounded,
    in ``--seconds`` less the speed probe's share (``run.py``).
    """

    name: str
    unit: str
    pass_seconds: float

    def end_pass(self, ctx: Ctx, state: dict) -> list[str]:
        """Checks that need the whole pass; returns error messages."""
        return []

    def finish(self, ctx: Ctx, state: dict, seen: dict) -> list[str]:
        """Checks once per run on the first answer seen for each op name."""
        return []


# ----------------------------------------------------------------------
# oracle-exhaustive
# ----------------------------------------------------------------------

class OracleExhaustive(Workload):
    """Exact worst-case verdicts: oracle kernels, composite tables, gadgets.

    The mix varies output width (m=1, m=2), marginal/strong/leaked error,
    arity 2 and 3, vectorized and Python-function tables, and one and two
    worker processes on the same instance.
    """

    name = "oracle-exhaustive"
    unit = "verdicts"
    pass_seconds = 8.0

    def setup(self, ctx: Ctx, where: Path) -> dict:
        from extractomat import certify
        from extractomat.extractors import table_handle
        v = ctx.variant
        cache = where / "cache"
        if ctx.smoke:
            iext, _ = certify.certify_random_table(
                (2, 2), (1, 1), 1, seed=301 + 10 * v, cache_dir=cache)
            extq, _ = certify.certify_random_table(
                (2, 1), (1, 1), 1, kind="seeded", seed=302 + 10 * v,
                cache_dir=cache, leak_bits=1)
            b1, b2, b3 = 3, 3, 3
        else:
            iext, _ = certify.certify_random_table(
                (3, 3), (2, 2), 2, seed=301 + 10 * v, cache_dir=cache)
            extq, _ = certify.certify_random_table(
                (3, 2), (2, 2), 2, kind="seeded", seed=302 + 10 * v,
                cache_dir=cache, leak_bits=1)
            b1, b2, b3 = 6, 5, 5
        # Components of the alternating-extraction composite over
        # (x1, x2, x3) of widths (b1, b2, b3): plain random tables, drawn
        # by the certify module's generator.
        bext = table_handle("bext", "2-source", (b1, b3), 2,
                            certify.draw_table((b1, b3), 2, 401 + 10 * v))
        extc = table_handle("extc", "seeded", (b2, 1), 2,
                            certify.draw_table((b2, 1), 2, 402 + 10 * v))
        extq3 = table_handle("extq", "seeded", (b3, 2), 1,
                             certify.draw_table((b3, 2), 1, 403 + 10 * v))
        return {"iext": iext, "extq": extq, "qb": (bext, extc, extq3),
                "where": where, "out": where / "out"}

    def ops(self, ctx: Ctx, state: dict, pass_no: int) -> list[Op]:
        from extractomat import combinators, graphs, oracle
        from extractomat.extractors import ip_handle
        v = ctx.variant
        out = state["out"]
        if ctx.smoke:
            n, k, ks = 3, (2, 2), (2, 1)
            leak_n, leak_k, multi_k, block_k = 2, (1, 1), (1, 1, 1), (2, 2, 1)
        else:
            n, k, ks = 4, (3, 3), (3, 2)
            leak_n, leak_k, multi_k, block_k = 3, (2, 2), (2, 2, 1), (3, 3, 1)

        def ev(*argv):
            return lambda: cli(["eval", *argv, "--out-dir", out])

        exact = _error_exact
        error = lambda rep: frac(rep.error)
        cold = state["where"] / f"cold-{pass_no}"

        def gadgets():
            found = []
            # Fixed search seeds: annealing time depends on the seed.  The
            # AND-disperser one restarts twice before it succeeds.
            for kind, params, seed, verify in (
                    ("and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                                       "gamma": 0.125}, 4,
                     lambda g: graphs.verify_and_disperser(g, 0.5, 0.125)),
                    ("expander", {"l": 10, "r": 10, "d": 4, "beta": 0.3}, 7,
                     lambda g: graphs.verify_expander(g, 0.3))):
                g, verdict, _ = graphs.search_gadget(kind, params, seed=seed)
                found.append(verdict.ok and verify(g).ok)
            return found

        iext, extq = state["iext"], state["extq"]
        bext, extc, extq3 = state["qb"]
        # Every op takes at most a few seconds, so that a run holds three
        # passes and each request type's median rests on three samples.
        return [
            exact_op(ctx, "eval-ip-small-threads1",
                     ev("--extractor", "ip", "--n", n, "--k1", ks[0], "--k2", ks[1],
                        "--threads", 1), exact, _eval_exhaustive),
            exact_op(ctx, "eval-ip-small-threads2",
                     ev("--extractor", "ip", "--n", n, "--k1", ks[0], "--k2", ks[1],
                        "--threads", 2), exact, _eval_exhaustive),
            exact_op(ctx, "eval-ip-strong0",
                     ev("--extractor", "ip", "--n", n, "--k1", k[0], "--k2", k[1],
                        "--strong", 0), exact, _eval_exhaustive),
            exact_op(ctx, "eval-deor-m2",
                     ev("--extractor", "deor", "--n", n, "--m", 2, "--k1", ks[0],
                        "--k2", ks[1]), exact, _eval_exhaustive),
            certify_op(ctx, "certify-cold-strong1",
                       ["--arity", 2, "--n", n, "--k", *ks, "--m", 1,
                        "--seed", 1000 + v], cold, out, strong=(1,)),
            exact_op(ctx, "leaked-ip-b1",
                     lambda: oracle.worst_case_error_leaked(
                         ip_handle(leak_n), leak_k, 1), error, _report_exhaustive),
            exact_op(ctx, "multi-qmext-b1",
                     lambda: oracle.worst_case_error_multi(
                         combinators.build_qmext_handle(iext, extq), multi_k, b=1),
                     error, _report_exhaustive),
            exact_op(ctx, "block-qbext",
                     lambda: oracle.worst_case_error_block_general(
                         combinators.build_qbext_handle(bext, extc, extq3, k3=1),
                         block_k), error, _report_exhaustive),
            Op("gadget-search", gadgets,
               lambda found, _pre: None if all(found)
               else "gadget-search: a found gadget failed re-verification"),
        ]

    def work_per_pass(self, ctx: Ctx) -> int:
        return 9  # one verdict per op


# ----------------------------------------------------------------------
# ensemble-sampled
# ----------------------------------------------------------------------

TOY_CFG = """p = 7
t = 1
n = 6
k = 4
alpha = 2.0
delta = 0.25
seed = {seed}
protocol = extpub
"""

MICRO_CFG = """p = 5
t = 1
n = {n}
k = {k}
alpha = 0.25
seed = {seed}
protocol = geqr
"""


def _build_network(cfg_path: Path, cache: Path, protocol: str):
    import warnings
    from extractomat import cli as cli_mod, netsim
    params = netsim.parse_config_text(cfg_path.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg, _ = cli_mod.build_toy_network(params, cache_dir=cache,
                                           protocol=protocol)
    return cfg


def _estimates_check(ctx: Ctx, name: str, runs: int, field_name: str,
                     players, y_width: int):
    """Invariants of a sampled netsim report, plus closeness to the pin."""
    def check(r, _pre):
        if not r.get("rushing_order_ok"):
            return f"{name}: rushing order violated"
        if r.get("y_width") != y_width:
            return f"{name}: y_width {r.get('y_width')} != {y_width}"
        reps = r[field_name]
        if sorted(reps) != sorted(str(p) for p in players):
            return f"{name}: reports for {sorted(reps)}, expected {players}"
        ref = ctx.refs.get(name) if ctx.refs is not None else None
        if ctx.refs is not None and ref is None:
            return f"{name}: no pinned reference"
        for pid, rep in reps.items():
            if rep["samples"] != runs:
                return f"{name}: player {pid} saw {rep['samples']} samples"
            if not 0 <= rep["estimate"] <= 1:
                return f"{name}: estimate {rep['estimate']} out of [0,1]"
            if ref is not None:
                limit = SAMPLED_TOLERANCE_HALF_WIDTHS * rep["half_width"]
                if abs(rep["estimate"] - ref[pid]) > limit:
                    return (f"{name}: player {pid} estimate {rep['estimate']}"
                            f" is more than {limit:.4g} from {ref[pid]}")
        return None
    return check


class EnsembleSampled(Workload):
    """Sampled netsim ensembles on a warm cache.

    World sampling, protocol execution and the plug-in TV estimator with
    its bootstrap do the work; the oracle kernels do none.  The extpub
    ensemble runs through ``mc_public_block_quality``, the geqr one
    through the CLI's own loop.
    """

    name = "ensemble-sampled"
    unit = "runs"
    pass_seconds = 1.6

    def _runs(self, ctx):
        return (40, 40) if ctx.smoke else (500, 1000)

    def setup(self, ctx: Ctx, where: Path) -> dict:
        v = ctx.variant
        where.mkdir(parents=True, exist_ok=True)
        toy = where / "toy.cfg"
        toy.write_text(TOY_CFG.format(seed=17 + v))
        micro = where / "micro.cfg"
        micro.write_text(MICRO_CFG.format(n=4, k=4, seed=3 + v))
        cache = where / "cache"
        toy_cfg = _build_network(toy, cache, "extpub")
        micro_cfg = _build_network(micro, cache, "geqr")
        return {"toy": toy, "micro": micro, "cache": cache,
                "out": where / "out", "toy_cfg": toy_cfg,
                "micro_cfg": micro_cfg}

    def ops(self, ctx: Ctx, state: dict, pass_no: int) -> list[Op]:
        toy_runs, micro_runs = self._runs(ctx)
        tc, mc = state["toy_cfg"], state["micro_cfg"]
        common = ["--cache", state["cache"], "--out-dir", state["out"]]
        # One extpub and three geqr requests per pass, so that the median
        # and the 90th percentile each fall inside one request type.
        geqr = Op("netsim-geqr-qr",
                  lambda: cli(["netsim", "--config", state["micro"],
                               "--adv", "qr-analog", "--runs", micro_runs,
                               *common]),
                  _estimates_check(ctx, "netsim-geqr-qr", micro_runs,
                                   "output_vs_public", mc.geqr_outer(),
                                   mc.geqr_s * mc.geqr_slice),
                  observe=_estimates)
        return [
            geqr, geqr, geqr,
            Op("netsim-extpub",
               lambda: cli(["netsim", "--config", state["toy"],
                            "--runs", toy_runs, *common]),
               _estimates_check(ctx, "netsim-extpub", toy_runs,
                                "public_block_quality", tc.players_b,
                                2 * tc.b_size * math.isqrt(tc.k)),
               observe=_estimates),
        ]

    def work_per_pass(self, ctx: Ctx) -> int:
        toy_runs, micro_runs = self._runs(ctx)
        return toy_runs + 3 * micro_runs


def _estimates(r) -> dict:
    reps = r.get("public_block_quality") or r["output_vs_public"]
    return {pid: rep["estimate"] for pid, rep in reps.items()}


# ----------------------------------------------------------------------
# protocol-exact
# ----------------------------------------------------------------------

class ProtocolExact(Workload):
    """Exact geqr security: every world enumerated, Fraction accounting.

    One request computes the QR-analog distance and the best constant
    slice IR attack, one exact evaluation per rushing-slice value.
    """

    name = "protocol-exact"
    unit = "worlds"
    pass_seconds = 1.1

    def _nk(self, ctx):
        return (2, 2) if ctx.smoke else (3, 3)

    def setup(self, ctx: Ctx, where: Path) -> dict:
        n, k = self._nk(ctx)
        where.mkdir(parents=True, exist_ok=True)
        micro = where / "micro.cfg"
        micro.write_text(MICRO_CFG.format(n=n, k=k, seed=3 + ctx.variant))
        cache = where / "cache"
        cfg = _build_network(micro, cache, "geqr")
        return {"micro": micro, "cache": cache, "out": where / "out",
                "cfg": cfg}

    def ops(self, ctx: Ctx, state: dict, pass_no: int) -> list[Op]:
        cfg = state["cfg"]
        rushing = cfg.geqr_slice  # one faulty player, in one group

        def observe(r):
            return {"qr": frac(r["ir_to_qr"]["qr_distance"]),
                    "ir": frac(r["ir_to_qr"]["ir_distance"])}

        def invariant(r):
            irq = r["ir_to_qr"]
            if not irq["holds"]:
                return "QR distance exceeds 2^rushing_bits x IR distance"
            if irq["rushing_bits"] != rushing:
                return f"rushing_bits {irq['rushing_bits']} != {rushing}"
            if r["exact_distance"] != irq["qr_distance"]:
                return "exact_distance differs from the QR distance"
            if r["effective_set"] != list(cfg.geqr_outer()):
                return f"effective set {r['effective_set']}"
            return None

        return [exact_op(
            ctx, "netsim-geqr-exact",
            lambda: cli(["netsim", "--config", state["micro"], "--protocol",
                         "geqr", "--adv", "qr-analog", "--exact",
                         "--cache", state["cache"], "--out-dir", state["out"]]),
            observe, invariant)]

    def work_per_pass(self, ctx: Ctx) -> int:
        # Worlds derived from the request: the faulty player's source is
        # pinned, the other four have 2^k support points each; one QR and
        # 2^rushing IR evaluations, rushing = k // s with s = 2 groups.
        _, k = self._nk(ctx)
        rushing = max(1, k // 2)
        return (1 << k) ** 4 * (1 + (1 << rushing))


# ----------------------------------------------------------------------
# requests-short
# ----------------------------------------------------------------------

def _short_requests(ctx: Ctx):
    """The distinct short requests: certify entries as table shapes (kept
    for the naive cross-check), the others as (name, argv) pairs."""
    s = 500 + 10 * ctx.variant
    certs = [
        # name, widths, k, m, kind, strong, mode, extra argv
        ("certify-33-m1", (3, 3), (2, 2), 1, None, (), "auto"),
        ("certify-33-m2-strong", (3, 3), (2, 2), 2, None, (0, 1), "auto"),
        ("certify-44-m1", (4, 4), (2, 2), 1, None, (), "auto"),
        ("certify-seeded-42", (4, 2), (2, 2), 1, "seeded", (), "auto"),
        ("certify-3src-222", (2, 2, 2), (1, 1, 1), 1, None, (), "auto"),
        ("certify-33-sampled", (3, 3), (2, 2), 1, None, (), "sampled"),
    ]
    certs = [(nm, w, k, m, kind, strong, mode, s + i)
             for i, (nm, w, k, m, kind, strong, mode) in enumerate(certs)]
    evals = [
        ("eval-ip3", ["--extractor", "ip", "--n", 3, "--k1", 2, "--k2", 2]),
        ("eval-ip3-strong0", ["--extractor", "ip", "--n", 3, "--k1", 2,
                              "--k2", 2, "--strong", 0]),
        ("eval-deor3-m2", ["--extractor", "deor", "--n", 3, "--m", 2,
                           "--k1", 2, "--k2", 2]),
        ("eval-toeplitz4", ["--extractor", "toeplitz", "--n", 4, "--k", 2,
                            "--m", 1]),
    ]
    sampled = ("eval-ip5-sampled", ["--extractor", "ip", "--n", 5, "--k1", 3,
                                    "--k2", 3, "--mode", "sampled",
                                    "--samples", 50, "--seed", s])
    ledgers = [
        ("ledger-deor-ge", ["--theorem", "deor-ge", "--n", 1000, "--k1", 600,
                            "--k2", 600]),
        ("ledger-ir-to-qr", ["--theorem", "ir-to-qr", "--eps", 1e-6,
                             "--rush-bits", 10]),
    ]
    # One fixed seed for the lemma trials: their joint widths, and so
    # their cost, depend on it.
    lemmas = [
        ("lemma-L2.2", ["--lemma", "L2.2", "--trials", 10, "--eps", 0.125,
                        "--seed", 1]),
        ("lemma-L2.5", ["--lemma", "L2.5", "--trials", 10, "--seed", 1]),
    ]
    return certs, evals, sampled, ledgers, lemmas


class RequestsShort(Workload):
    """A seeded shuffle of a fixed multiset of short CLI requests.

    Each pass starts from an empty cache, so every distinct certify
    request misses once and hits on each repeat; the hit and miss counts
    of a pass are fixed by the multiset.
    """

    name = "requests-short"
    unit = "requests"
    pass_seconds = 3.2

    def _repeats(self, ctx):
        # certify, eval, sampled eval, ledger, lemma
        return (2, 1, 1, 1, 1) if ctx.smoke else (10, 20, 15, 30, 15)

    def setup(self, ctx: Ctx, where: Path) -> dict:
        from extractomat import certify
        where.mkdir(parents=True, exist_ok=True)
        requests = _short_requests(ctx)
        # Cache file name of each certify request's (first) table draw.
        xtab = {nm: certify.table_digest(certify.draw_table(w, m, seed)) + ".xtab"
                for nm, w, _, m, _, _, _, seed in requests[0]}
        return {"where": where, "out": where / "out", "requests": requests,
                "xtab": xtab}

    def ops(self, ctx: Ctx, state: dict, pass_no: int) -> list[Op]:
        certs, evals, sampled, ledgers, lemmas = state["requests"]
        r_cert, r_eval, r_sampled, r_ledger, r_lemma = self._repeats(ctx)
        out = state["out"]
        cache = state["where"] / f"cache-{pass_no}"
        state["hits"] = state["misses"] = 0
        ops = []
        for nm, widths, k, m, kind, strong, mode, seed in certs:
            argv = ["--n", *widths, "--k", *k, "--m", m, "--seed", seed]
            argv += ["--kind", kind] if kind else ["--arity", len(widths)]
            if mode == "sampled":
                argv += ["--samples", 50]
            op = certify_op(ctx, nm, argv, cache, out, strong=strong, mode=mode)
            ops += [self._hit_tracked(op, state, cache / state["xtab"][nm])
                    for _ in range(r_cert)]
        for nm, argv in evals:
            ops += [exact_op(ctx, nm, lambda a=argv: cli(["eval", *a, "--out-dir", out]),
                             _error_exact, _eval_exhaustive)
                    for _ in range(r_eval)]
        nm, argv = sampled
        ops += [Op(nm, lambda a=argv: cli(["eval", *a, "--out-dir", out]),
                   _sampled_ip5_check) for _ in range(r_sampled)]
        for nm, argv in ledgers:
            ops += [exact_op(ctx, nm,
                             lambda a=argv: cli(["ledger", *a, "--out-dir", out]),
                             lambda r: r["outputs"])
                    for _ in range(r_ledger)]
        for nm, argv in lemmas:
            ops += [Op(nm, lambda a=argv: cli(["eval", *a, "--out-dir", out]),
                       _lemma_check) for _ in range(r_lemma)]
        return ops

    @staticmethod
    def _hit_tracked(op: Op, state: dict, path: Path) -> Op:
        """Record whether the request re-wrote its cache file (a miss)."""
        def stamp():
            try:
                st = path.stat()
            except FileNotFoundError:
                return None
            return (st.st_ino, st.st_mtime_ns)

        inner = op.check

        def check(result, before):
            hit = before is not None and stamp() == before
            state["hits" if hit else "misses"] += 1
            return inner(result, None)
        return Op(op.name, op.run, check, op.observe, pre=stamp)

    def end_pass(self, ctx: Ctx, state: dict) -> list[str]:
        n_cert = len(_short_requests(ctx)[0])
        repeats = self._repeats(ctx)[0]
        expected = (n_cert * (repeats - 1), n_cert)
        got = (state["hits"], state["misses"])
        if got != expected:
            return [f"certify cache hits/misses {got} in a pass from an "
                    f"empty cache, expected {expected}"]
        return []

    def work_per_pass(self, ctx: Ctx) -> int:
        certs, evals, _, ledgers, lemmas = _short_requests(ctx)
        r = self._repeats(ctx)
        return (len(certs) * r[0] + len(evals) * r[1] + r[2]
                + len(ledgers) * r[3] + len(lemmas) * r[4])

    def finish(self, ctx: Ctx, state: dict, seen: dict) -> list[str]:
        """Cross-check every small exact answer against the naive oracles."""
        from extractomat import certify
        from extractomat.extractors import deor_handle, toeplitz_handle
        nv = ctx.naive
        errors = []

        def expect(name, value, naive_value):
            if name in seen and Fraction(value) != naive_value:
                errors.append(f"{name}: {value} disagrees with the naive "
                              f"oracle's {naive_value}")

        ip = lambda x, y: nv.parity(x & y)
        deor = deor_handle(3, 2).eval_int
        toep = toeplitz_handle(4, 1)
        if "eval-ip3" in seen:
            expect("eval-ip3", seen["eval-ip3"],
                   nv.naive_worst_2source(ip, 3, 3, 1, 2, 2))
        if "eval-ip3-strong0" in seen:
            expect("eval-ip3-strong0", seen["eval-ip3-strong0"],
                   nv.naive_worst_2source(ip, 3, 3, 1, 2, 2, strong=0))
        if "eval-deor3-m2" in seen:
            expect("eval-deor3-m2", seen["eval-deor3-m2"],
                   nv.naive_worst_2source(deor, 3, 3, 2, 2, 2))
        if "eval-toeplitz4" in seen:
            expect("eval-toeplitz4", seen["eval-toeplitz4"],
                   nv.naive_worst_seeded(toep.eval_int, 4, toep.input_widths[1],
                                         1, 2))
        certs = _short_requests(ctx)[0]
        for nm, widths, k, m, kind, strong, mode, seed in certs:
            if nm not in seen or len(widths) != 2:
                continue
            table = certify.draw_table(widths, m, seed)
            n1, n2 = widths
            fn = lambda x, y, t=table, w=n2: int(t[(x << w) | y])
            rec = seen[nm]
            if kind == "seeded":
                expect(nm, rec["error_exact"],
                       nv.naive_worst_seeded(fn, n1, n2, m, int(k[0])))
                continue
            if (n1, n2) != (3, 3):
                continue  # too large for the naive oracle
            worst = nv.naive_worst_2source(fn, n1, n2, m, int(k[0]), int(k[1]))
            if mode == "sampled":
                if Fraction(rec["error"]) > worst:
                    errors.append(f"{nm}: sampled maximum {rec['error']} "
                                  f"exceeds the exact worst case {worst}")
                continue
            expect(nm, rec["error_exact"], worst)
            for i in strong:
                expect(nm, rec["strong"][str(i)],
                       nv.naive_worst_2source(fn, n1, n2, m, int(k[0]),
                                              int(k[1]), strong=i))
        return errors


def _sampled_ip5_check(r, _pre):
    # A sampled maximum is a lower bound on the true worst case, which the
    # two-source inner-product bound 2^-((k1+k2+1-n-m)/2) caps.
    bound = 2.0 ** (-(3 + 3 + 1 - 5 - 1) / 2)
    if r["mode"] != "sampled" or r["enumerated"] != 50:
        return f"eval-ip5-sampled: mode {r['mode']}, {r['enumerated']} draws"
    if not 0 <= r["error"] <= bound:
        return f"eval-ip5-sampled: error {r['error']} above the bound {bound}"
    return None


def _lemma_check(r, _pre):
    if r["pass_rate"] != 1.0:
        return f"lemma {r['lemma']}: pass rate {r['pass_rate']}"
    return None


WORKLOADS = {w.name: w for w in (OracleExhaustive(), EnsembleSampled(),
                                 ProtocolExact(), RequestsShort())}
