"""Batch driver: certify tables, evaluate extractors, run protocol
simulations on toy networks (``build_toy_network`` verifies their gadget
wirings; nothing here searches for gadgets), reproduce theorem arithmetic.

Exit codes are stable API: 0 ok, 2 target unreachable, 3 budget exceeded,
4 config invariant violated, 5 theorem constraint violated.  Every run
writes a ``manifest.json`` (schema ``manifest-v1``) capturing the
arguments, seeds, package version, and the cache digests it consumed;
re-running from a manifest reproduces the outputs bit-identically apart
from wall-clock fields, which live under ``volatile`` keys.

Reports are JSON for machines plus CSV for tables; bit strings are hex,
most significant bit first.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BudgetExceededError, ConstraintViolatedError,
                     InvalidInputError, TargetUnreachableError)

EXIT_OK = 0
EXIT_UNREACHABLE = 2
EXIT_BUDGET = 3
EXIT_CONFIG = 4
EXIT_CONSTRAINT = 5

ADVERSARIES = ("none", "ir", "qr-analog")
PROTOCOLS = ("extpub", "geqr")
# what build_toy_network builds: the config names, then the run keys
NETWORKS = (*PROTOCOLS, "ext_pub", "ext_pub_only")
# the toy network where a config gives no value: NetworkConfig has no
# default for p, t, n and k, and another one for alpha
TOY_SIZES = {"p": 7, "t": 1, "n": 6, "k": 4, "alpha": 2.0}
LEMMA_BLOCK = 1024  # eval --lemma trials drawn and checked per block
# eval flags a handle kind does not read: refused rather than ignored
IGNORED_FLAGS = {"2-source": ("k", "marginal"),
                 "t-source": ("k", "marginal", "strong", "samples", "seed"),
                 "seeded": ("k1", "k2", "strong")}
# eval flags an extractor fixes (ip's one bit, a table's widths): refused
FIXED_FLAGS = {"ip": ("m",), ".xtab": ("n", "m")}
# eval's --m, --samples and --seed, parsed as None so that they can be refused
EVAL_DEFAULTS = {"m": 1, "samples": 200, "seed": 0}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except TargetUnreachableError as exc:
        print(f"target unreachable: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstraintViolatedError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONSTRAINT
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _parse(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``; a command goes to its subparser."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:  # empty, -h, --version, -- or an unknown command
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:],
                                       argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared: parsing never mutates it."""
    p = argparse.ArgumentParser(
        prog="extractomat",
        description="extractor certification, evaluation and simulation")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # name -> subparser, read by _parse

    c = sub.add_parser("certify", help="certify a random-table extractor")
    c.add_argument("--arity", type=int, default=2)
    c.add_argument("--n", type=int, nargs="+", required=True,
                   help="input widths (one value is broadcast to all inputs)")
    c.add_argument("--k", type=float, nargs="+", required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--kind", choices=["2-source", "t-source", "seeded"])
    c.add_argument("--eps", type=float, help="target error; retries up to 32 draws")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--mode", choices=["auto", "exhaustive", "sampled"],
                   default="auto")
    c.add_argument("--samples", type=int, default=200)
    c.add_argument("--leak-bits", type=int, default=0)
    c.add_argument("--strong", type=int, nargs="*", default=())
    c.add_argument("--cache", type=Path, default=None)
    c.add_argument("--out-dir", type=Path, default=Path("."))
    c.add_argument("--threads", "--workers", type=int, default=1, help="unused")
    c.set_defaults(func=cmd_certify)

    e = sub.add_parser("eval", help="run an oracle entry point or lemma check")
    e.add_argument("--extractor", help="ip | deor | toeplitz | path to .xtab")
    e.add_argument("--lemma", help="L2.2 | L2.5 (checker over random joints)")
    e.add_argument("--n", type=int)
    e.add_argument("--m", type=int)
    e.add_argument("--k", type=float)
    e.add_argument("--k1", type=float)
    e.add_argument("--k2", type=float)
    e.add_argument("--strong", type=int, default=None,
                   help="input index for a strong two-source evaluation")
    e.add_argument("--marginal", action="store_true",
                   help="seeded: the output marginal, not joint with the seed")
    e.add_argument("--leak-bits", type=int, default=0)
    e.add_argument("--mode", choices=["auto", "exhaustive", "sampled"],
                   default="auto")
    e.add_argument("--samples", type=int)
    e.add_argument("--trials", type=int, default=1000)
    e.add_argument("--eps", type=float, default=0.25)
    e.add_argument("--seed", type=int)
    e.add_argument("--threads", "--workers", type=int, default=1, help="unused")
    e.add_argument("--out-dir", type=Path, default=Path("."))
    e.set_defaults(func=cmd_eval)

    n = sub.add_parser("netsim", help="run a protocol ensemble and evaluate it")
    n.add_argument("--config", type=Path, required=True)
    n.add_argument("--protocol", choices=PROTOCOLS)
    n.add_argument("--adv", choices=ADVERSARIES,
                   help="adversary (default: the config's adv, else none)")
    n.add_argument("--runs", type=int,
                   help="ensemble size (default: the config's runs, else 1000)")
    n.add_argument("--exact", action="store_true",
                   help="exact micro-scale evaluation instead of sampling")
    n.add_argument("--cache", type=Path, default=None)
    n.add_argument("--out-dir", type=Path, default=Path("."))
    n.set_defaults(func=cmd_netsim)

    l = sub.add_parser("ledger", help="reproduce a theorem's parameter arithmetic")
    l.add_argument("--theorem", required=True)
    for flag, typ in [("n", float), ("n1", float), ("n2", float),
                      ("k", float), ("k1", float), ("k2", float),
                      ("m", float), ("delta", float), ("alpha", float),
                      ("beta", float), ("eps", float), ("eps1", float),
                      ("eps2", float), ("eps3", float), ("k3", float),
                      ("d", float), ("t", int), ("l", int),
                      ("rush-bits", float), ("D", int), ("M", int),
                      ("C", float)]:
        l.add_argument(f"--{flag}", type=typ, default=None)
    l.add_argument("--out-dir", type=Path, default=Path("."))
    l.set_defaults(func=cmd_ledger)
    return p


def _write_json(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_text(path: Path, text: str):
    """Write ``text`` over the old bytes of ``path`` and cut the rest: a
    file truncated to zero and refilled makes ext4 start writeback on
    close, and a short request would wait on the disk (0.1 ms and up)."""
    data = memoryview(text.encode())
    size, fd = len(data), os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:  # os.write may write fewer bytes than it is given
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _manifest(args, out_dir: Path, digests, outputs):
    payload = {
        "schema": "manifest-v1",
        "command": args.command,
        "args": {k: (str(v) if isinstance(v, Path) else v)
                 for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "cache_digests": sorted(set(digests)),
        "outputs": [str(o) for o in outputs],
    }
    _write_json(out_dir / "manifest.json", payload)


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

def cmd_certify(args) -> int:
    from . import certify as cert
    widths = args.n if len(args.n) > 1 else args.n * args.arity
    ks = args.k if len(args.k) > 1 else args.k * len(widths)
    handle, record = cert.certify_random_table(
        widths, ks, args.m, kind=args.kind, mode=args.mode, seed=args.seed,
        target_eps=args.eps, strong=args.strong, leak_bits=args.leak_bits,
        samples=args.samples, cache_dir=args.cache)
    out_dir = args.out_dir
    report_path = out_dir / f"certify-{record.record_id}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report_path, record.to_json_dict())
    cache = args.cache if args.cache else cert.default_cache_dir()
    print(json.dumps({"digest": record.digest, "error": record.error,
                      "mode": record.mode, "attempts": record.attempts,
                      "xtab": str(cache / f"{record.digest}.xtab")}))
    _manifest(args, out_dir, [record.digest], [report_path])
    return EXIT_OK


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def cmd_eval(args) -> int:
    from . import oracle
    out_dir = args.out_dir
    digests = []
    if args.lemma:
        payload = _eval_lemma(_eval_defaults(args))
        out = out_dir / f"eval-lemma-{args.lemma}.json"
    else:
        handle, digests = _load_extractor(args)
        payload, out = _eval_extractor(args, handle, oracle, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out, payload)
    print(json.dumps(payload))
    _manifest(args, out_dir, digests, [out])
    return EXIT_OK


def _load_extractor(args):
    from . import certify as cert
    from .extractors import deor_handle, ip_handle, toeplitz_handle
    name = args.extractor
    if name is None:
        raise InvalidInputError("eval needs --extractor or --lemma")
    if name in ("ip", "deor", "toeplitz") and args.n is None:
        raise InvalidInputError(f"--extractor {name} needs --n")
    path = Path(name)
    xtab = path.suffix == ".xtab" and path.exists()
    fixed = [f"--{f}" for f in FIXED_FLAGS.get(".xtab" if xtab else name, ())
             if getattr(args, f) is not None]
    if fixed:
        raise InvalidInputError(f"extractor {name} takes no {', '.join(fixed)}")
    _eval_defaults(args, ("m",))
    if name == "ip":
        return ip_handle(args.n, args.k1, args.k2), []
    if name == "deor":
        return deor_handle(args.n, args.m, args.k1, args.k2), []
    if name == "toeplitz":
        return toeplitz_handle(args.n, args.m, args.k), []
    if xtab:
        handle, record = cert.load_xtab(path)
        return handle, [record.digest]
    raise InvalidInputError(f"unknown extractor {name!r}")


def _eval_defaults(args, flags=tuple(EVAL_DEFAULTS)):  # fills unset flags
    vars(args).update({f: EVAL_DEFAULTS[f] for f in flags
                       if getattr(args, f) is None})
    return args


def _eval_extractor(args, handle, oracle, out_dir):
    ignored = [f"--{flag.replace('_', '-')}" for flag in IGNORED_FLAGS[
        handle.kind] if (v := getattr(args, flag)) is not None and v is not False]
    if ignored:
        raise InvalidInputError(f"{handle.kind} handle {handle.name} takes "
                                f"no {', '.join(ignored)}")
    _eval_defaults(args)
    if handle.kind == "seeded":
        k = args.k if args.k is not None else handle.k_profile[0]
        ks, strong = (k, handle.k_profile[1]), not args.marginal
    else:
        k1 = args.k1 if args.k1 is not None else handle.k_profile[0]
        k2 = args.k2 if args.k2 is not None else handle.k_profile[1]
        ks, strong = (k1, k2, *handle.k_profile[2:]), args.strong
    if handle.kind == "t-source":  # strong in its first two inputs
        rep = oracle.worst_case_error_multi(handle, ks, b=args.leak_bits,
                                            mode=args.mode)
    else:  # b = 0: the leak-free oracle
        rep = oracle.worst_case_error_leaked(
            handle, ks, args.leak_bits, strong=strong, mode=args.mode,
            samples=args.samples, seed=args.seed)
    payload = {"extractor": handle.name, **rep.to_json_dict()}
    return payload, out_dir / "eval-report.json"


def _eval_lemma(args) -> dict:
    """``--trials`` random exact joints over 2^12 from one Philox stream,
    drawn and checked in blocks, one ``check_lemma`` call per Z width."""
    from . import oracle
    if args.trials < 1:
        raise InvalidInputError(f"--trials must be >= 1, got {args.trials}")
    if args.lemma not in ("L2.2", "L2.5"):
        raise InvalidInputError(f"no randomized-trial driver for {args.lemma!r}")
    if args.lemma == "L2.2" and not 0 < args.eps <= 1:  # before any draw
        raise InvalidInputError(f"L2.2 takes eps in (0, 1], got {args.eps}")
    rng = oracle._philox(args.seed)
    kw = {"eps": args.eps} if args.lemma == "L2.2" else {}
    den, passed, low = 1 << 12, 0, float("inf")
    for start in range(0, args.trials, LEMMA_BLOCK):
        size = min(LEMMA_BLOCK, args.trials - start)
        if args.lemma == "L2.2":  # X of 4 bits, Y of 2: one draw per block
            by_m = {4: rng.multinomial(den, np.full(64, 1 / 64), size=size)}
        else:  # Z of 1 to 3 bits, E of 2: width and counts trial by trial
            by_m = {}
            for m in (int(rng.integers(1, 4)) for _ in range(size)):
                by_m.setdefault(m, []).append(rng.multinomial(
                    den, np.full(4 << m, 1 / (4 << m))))
        for m, counts in by_m.items():
            for v in oracle.check_lemma(args.lemma, numerators=np.reshape(
                    counts, (-1, 1 << m, 4)), denominator=den, **kw):
                passed, low = passed + v.ok, min(low, float(v.slack))
    return {"lemma": args.lemma, "trials": args.trials, "eps": args.eps,
            "pass_rate": passed / args.trials, "min_slack": low, "seed": args.seed}


# ----------------------------------------------------------------------
# netsim
# ----------------------------------------------------------------------

def cmd_netsim(args) -> int:
    from . import netsim as ns
    from .sources import FlatSource
    from .leakage import LeakageScenario
    from .oracle import BOOTSTRAP_RESAMPLES, _philox
    params = ns.parse_config_text(args.config.read_text())
    protocol = args.protocol or params.get("protocol", "extpub")
    runs = args.runs if args.runs is not None else params.get("runs", 1000)
    adv_kind = args.adv or params.get("adv", "none")
    for key, value, allowed in (("protocol", protocol, PROTOCOLS),
                                ("adv", adv_kind, ADVERSARIES)):
        if value not in allowed:
            raise InvalidInputError(f"config key {key}: unknown value {value!r}"
                                    f", allowed: {', '.join(allowed)}")
    seed = params.get("seed", 0)
    rng = _philox(seed)  # the sources' stream; a bad seed certifies nothing
    geqr = protocol == "geqr"
    proto_key = "geqr" if geqr else "ext_pub" if args.exact else "ext_pub_only"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg, digests = build_toy_network(params, cache_dir=args.cache,
                                         protocol=proto_key)
    for w in caught:
        print(f"config warning: {w.message}", file=sys.stderr)

    sources = [FlatSource.random(cfg.n, cfg.k, rng) for _ in range(cfg.p)]
    adv = _builtin_adversary(adv_kind, cfg)
    outer = cfg.geqr_outer() if geqr else cfg.players_c
    target_set = list(outer if geqr else cfg.players_b + outer)
    leaked = []  # one entry per leak-map call
    if adv_kind == "qr-analog":
        # leak one bit of the first outer player's source for the
        # QR-analog strategy to act on
        scenario = LeakageScenario.oa(
            [cfg.n] * cfg.p, outer[0] - 1,
            lambda x, a: leaked.append(x) or x & 1, 1)
    else:
        scenario = LeakageScenario.trivial([cfg.n] * cfg.p)
    if args.exact:
        # Faulty players' private sources never enter the security
        # statement (the adversary controls their messages); pinning them
        # shrinks the exact enumeration without changing the distance.
        sources = [FlatSource(cfg.n, [0])
                   if (pid in adv.initial_faulty) else src
                   for pid, src in enumerate(sources, start=1)]

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"protocol": protocol, "adversary": adv_kind,
                    "p": cfg.p, "t": cfg.t, "n": cfg.n, "k": cfg.k,
                    "seed": seed}
    log_path, csv_path, report_path = (
        out_dir / name for name in ("runs.jsonl", "summary.csv", "report.json"))

    t0 = time.perf_counter()
    den, weights, b = ns.protocol_runs(
        proto_key, cfg, sources, scenario, adv,
        n_runs=None if args.exact else runs, seed=seed)
    worlds = len(weights)
    _write_text(log_path, b.to_jsonl())
    report["y_width"] = b.y_width
    if geqr:
        report["rushing_width"] = b.rushing_width
    report["rushing_order_ok"] = b.rushing_order_ok()

    if args.exact:
        lift = None
        if geqr and adv_kind == "qr-analog":
            rep, ir, bits = ns.ir_to_qr(cfg, adv, target_set, den, weights, b)
            worlds += len(weights) << bits  # one ensemble per IR attack
            lift = {"rushing_bits": bits, "ir_distance": float(ir),
                    "qr_distance": float(rep.distance),
                    "bound": float(ir) * (1 << bits),
                    "holds": rep.distance <= ir * (1 << bits)}
        else:
            rep = ns.security(proto_key, cfg, target_set, den, weights, b)
        report["exact_distance"] = float(rep.distance)
        report["effective_set"] = list(rep.effective_set)
        if lift:
            report["ir_to_qr"] = lift
        rows = [{"player": " ".join(map(str, rep.effective_set)),
                 "distance": float(rep.distance), "mode": "exact"}]
    else:
        m = ns.output_width(cfg, proto_key) if geqr else 2 * cfg.slice_width
        tol = max(0.02, 1.001 * (100 * (1 << m) / runs) ** 0.5)
        if geqr:
            field, mcs = "output_vs_public", ns.player_estimates(
                b, {pid: (b.outputs[:, pid - 1], [b.y]) for pid in target_set},
                m, tol=tol, seed=seed)
        else:
            field, mcs = "public_block_quality", ns.mc_public_block_quality(
                cfg, b, tol=tol, seed=seed)
        report[field] = {str(pid): rep.to_json_dict()
                         for pid, rep in mcs.items()}
        rows = [{"player": pid, "distance": rep.estimate, "mode": "sampled"}
                for pid, rep in sorted(mcs.items())]
    volatile = {"worlds": worlds, "adversary_calls": b.callbacks,
                "leak_calls": len(leaked)}
    if not args.exact:
        reps = mcs.values()
        volatile.update(estimator_s=sum(r.seconds for r in reps),
                        resamples=BOOTSTRAP_RESAMPLES * len(reps),
                        bootstrap_draws=sum(r.draws for r in reps),
                        lone_groups=sum(r.lone_groups for r in reps))
    report["volatile"] = {**volatile, "eval_s": time.perf_counter() - t0}

    summary = io.StringIO(newline="")
    writer = csv.DictWriter(summary, fieldnames=["player", "distance", "mode"])
    writer.writeheader()
    writer.writerows(rows)
    _write_text(csv_path, summary.getvalue())
    _write_json(report_path, report)
    print(json.dumps(report))
    _manifest(args, out_dir, digests, [log_path, csv_path, report_path])
    return EXIT_OK


def _builtin_adversary(kind: str, cfg):
    from .netsim import AdversaryStrategy
    if kind == "none" or cfg.t == 0:
        return AdversaryStrategy.passive()
    faulty = {1}
    if kind == "ir":
        return AdversaryStrategy.ir(
            faulty, lambda pid, rnd, view: sum(
                v for _, _, v in view["round_honest"]),
            reads=("round_honest",))
    return AdversaryStrategy.qr_analog(
        faulty, lambda pid, rnd, view, side: sum(side.values()) * 0x55,
        reads=("side",))


def build_toy_network(params: dict, cache_dir=None, protocol: str = "extpub"):
    """Certify the gadget slots a toy config needs and wire the graphs.

    ``protocol`` is a config name or a ``protocol_runs`` key, and picks
    the slots certified: ``"geqr"`` iext and qtext; ``"extpub"`` and
    ``"ext_pub"`` all four extpub slots; ``"ext_pub_only"``, the public
    block without the private step, iext and srext alone, leaving oaext
    and oaext_b empty.  Any other value is refused.

    Desk-scale policy: the multi-source, somewhere-random and final
    extraction slots are certified tables (sampled certification once
    exhaustive enumeration exceeds the budget), graphs are fixed verified
    wirings at toy sizes.
    """
    if protocol not in NETWORKS:
        raise InvalidInputError(f"unknown protocol {protocol!r}, allowed: "
                                f"{', '.join(NETWORKS)}")
    from . import certify as cert
    from .graphs import BipartiteGraph, verify_and_disperser, verify_expander
    from .netsim import GadgetSet, NetworkConfig
    keys = {f.name for f in dataclasses.fields(NetworkConfig)}
    cfg = NetworkConfig(**(TOY_SIZES | {
        key: value for key, value in params.items() if key in keys}))
    n, k, t = cfg.n, cfg.k, cfg.t
    seed = params.get("seed", 0)
    # the stream keys seed + tag of a table (tags up to 12) and seed + pid
    # of a player's bootstrap must be Philox keys, below 2^128
    last = max(12, cfg.p)
    if not 0 <= seed < (1 << 128) - last:
        raise InvalidInputError(f"config key seed must be in 0 ... "
                                f"2^128 - {last + 1}, got {seed}")
    cert_samples = params.get("cert_samples", 400)
    digests = []

    def table(tag, widths, ks, m, **kw):
        handle, record = cert.certify_random_table(
            widths, ks, m, seed=seed + tag, cache_dir=cache_dir,
            mode="auto", samples=cert_samples, **kw)
        digests.append(record.digest)
        return handle

    cfg.validate_partition(protocol)  # before any table, or a graph on A, B
    if protocol == "geqr":
        group, width = cfg.geqr_group, cfg.geqr_s * cfg.geqr_slice
        iext = table(11, (n,) * group, (k,) * group, max(cfg.geqr_slice, 2),
                     kind="t-source" if group > 2 else "2-source")
        qtext = table(12, (n, width), (k, min(k, width)), min(2, n),
                      kind="2-source", strong=(1,))
        cfg.gadgets = GadgetSet(iext=iext, qtext=qtext)
        cfg.validate_geqr()
        return cfg, digests

    sw = cfg.slice_width
    m1 = 4
    a = cfg.a_size
    # Degree-2 ring wiring over A; verified before use.
    G = BipartiteGraph(a, a, 2, tuple(
        tuple(sorted(((i) % a, (i + 1) % a))) for i in range(a)))
    H = BipartiteGraph(cfg.b_size, a, 2, tuple(
        tuple(sorted(((j) % a, (j + 1) % a))) for j in range(cfg.b_size)))
    if t > 0:
        if not verify_and_disperser(G, (a - t) / a, 1.0 / G.l):
            raise InvalidInputError(
                "toy wiring fails the AND-disperser property at "
                f"delta={(a - t) / a}, gamma={1.0 / G.l}")
    if not verify_expander(H, 0.5):
        raise InvalidInputError("toy wiring fails the expander property at "
                                "beta=0.5")
    iext = table(1, (n, n), (k, k), m1)
    srext = table(2, (n, H.d * m1), (k, m1), 2 * sw, kind="2-source",
                  strong=(1,))
    private = {}
    if protocol != "ext_pub_only":  # the private step's two tables
        yb = 2 * (cfg.b_size - 1) * sw
        private["oaext"] = table(3, (n, cfg.y_width), (k, min(k, cfg.y_width)),
                                 min(3, n), kind="2-source", strong=(1,))
        private["oaext_b"] = table(4, (n, yb), (k, min(k, yb)), min(3, n),
                                   kind="2-source", strong=(1,))
    cfg.gadgets = GadgetSet(iext=iext, srext=srext, and_disperser=G,
                            expander=H, **private)
    cfg.validate_ext_pub()
    return cfg, digests


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------

def cmd_ledger(args) -> int:
    from . import ledger
    kwargs = {k: v for k, v in vars(args).items() if v is not None
              and k not in ("command", "func", "theorem", "out_dir")}
    entry = ledger.ledger_theorem(args.theorem, **kwargs)
    out = args.out_dir / f"ledger-{args.theorem}.json"
    text = entry.to_json()  # encoded once, for the file and for stdout
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out, text + "\n")
    print(text)
    _manifest(args, args.out_dir, [], [out])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
