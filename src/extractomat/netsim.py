"""Synchronous full-information protocol simulator with rushing adversaries.

All messages are broadcast; within a round every honest message is
committed before any faulty message, and a rushing adversary chooses the
faulty payloads after reading the honest ones.  An independent-rushing
(IR) strategy sees only the public transcript -- the interface physically
lacks a side-information argument -- while the QR-analog strategy also
reads the classical leak register.

Protocols implemented: the three-round public block-source protocol
(``ext_pub``), its non-interactive private-extraction step (``ext_pri``),
and the one-round grouped protocol (``geqr``).  A run is strictly
deterministic given (config, source values, leak values, strategy).

One engine, :func:`protocol_runs`, feeds every evaluation: it yields
``(weight, xvals, side, run)`` for each world of an ensemble, the world's
probability being ``weight / den``.  An exact ensemble enumerates every
source/leak world; a sampled one of N runs draws each source once as an
N-vector from one Philox stream keyed by the seed (weight 1, ``den = N``),
so the ensembles of seeds s and s+1 share no worlds.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .bits import BitString
from .dist import Distribution, excess_over_uniform, group_ids, ratio
from .errors import ConstraintViolatedError, InvalidInputError
from .extractors import ExtractorHandle
from .graphs import BipartiteGraph
from .leakage import LeakageScenario, enumerate_worlds
from .oracle import mc_distance_pairs
from .sources import FlatSource

BOT = None  # the "no private output" symbol


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass
class GadgetSet:
    """Extractor and graph slots consumed by the protocols."""

    iext: ExtractorHandle | None = None       # d1 sources -> m1 bits
    srext: ExtractorHandle | None = None      # (x_j, rows) -> m2, strong in rows
    oaext: ExtractorHandle | None = None      # (x_i, y) for outer players
    oaext_b: ExtractorHandle | None = None    # (x_j, y without own slices)
    qtext: ExtractorHandle | None = None      # (x_i, y) for the grouped protocol
    and_disperser: BipartiteGraph | None = None
    expander: BipartiteGraph | None = None


@dataclass
class NetworkConfig:
    """Player counts, partition arithmetic, and gadget wiring.

    The partition sizes obey ``|A| = ceil((1+alpha) t)`` and
    ``|B| = ceil(2 (1+2 delta) t)``; explicit sizes are cross-checked and
    a mismatch is a named config violation.  ``t`` is the corruption
    bound used for sizing; an actual run may corrupt fewer players.
    """

    p: int
    t: int
    n: int
    k: int
    alpha: float = 0.5
    delta: float = 0.25
    gamma: float = 0.75
    a_size: int | None = None
    b_size: int | None = None
    geqr_group: int = 2        # players per group in the one-round protocol
    geqr_s: int | None = None  # number of groups
    gadgets: GadgetSet = field(default_factory=GadgetSet)
    seed: int = 0
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        expected_a = math.ceil((1 + self.alpha) * self.t)
        expected_b = math.ceil(2 * (1 + 2 * self.delta) * self.t)
        if self.a_size is None:
            self.a_size = expected_a
        if self.b_size is None:
            self.b_size = expected_b
        if self.a_size != expected_a:
            raise InvalidInputError("|A| = (1+alpha)t violated: "
                                    f"{self.a_size} != {expected_a}")
        if self.b_size != expected_b:
            raise InvalidInputError("|B| = 2(1+2delta)t violated: "
                                    f"{self.b_size} != {expected_b}")
        if self.geqr_s is None:
            self.geqr_s = max(1, self.t * 2)
        if self.k <= 4 * math.log2(max(self.p, 2)):
            self.warnings.append(
                f"k={self.k} is at or below 4*log2(p)={4 * math.log2(self.p):.2f}; "
                "the entropy floor for distributed use is k > C log p")
        if not self.alpha < self.gamma:
            self.warnings.append("alpha < gamma is expected for the partition")
        for w in self.warnings:
            _warnings.warn(w, stacklevel=2)

    # players are 1-based ids
    @property
    def players_a(self) -> tuple:
        return tuple(range(1, self.a_size + 1))

    @property
    def players_b(self) -> tuple:
        return tuple(range(self.a_size + 1, self.a_size + self.b_size + 1))

    @property
    def players_c(self) -> tuple:
        return tuple(range(self.a_size + self.b_size + 1, self.p + 1))

    @property
    def slice_width(self) -> int:
        return max(1, math.isqrt(self.k))

    @property
    def y_width(self) -> int:
        return 2 * self.b_size * self.slice_width

    @property
    def geqr_slice(self) -> int:
        return max(1, self.k // self.geqr_s)

    def geqr_groups(self) -> list:
        d = self.geqr_group
        return [tuple(range((i - 1) * d + 1, i * d + 1))
                for i in range(1, self.geqr_s + 1)]

    def geqr_outer(self) -> tuple:
        grouped = {pid for g in self.geqr_groups() for pid in g}
        return tuple(pid for pid in range(1, self.p + 1) if pid not in grouped)

    def validate_ext_pub(self) -> None:
        g = self.gadgets
        if self.a_size + self.b_size >= self.p:
            raise InvalidInputError(
                "partition leaves no outer players: |A|+|B| >= p")
        need = [("iext", g.iext), ("srext", g.srext),
                ("and_disperser", g.and_disperser), ("expander", g.expander)]
        for nm, slot in need:
            if slot is None:
                raise InvalidInputError(f"gadget slot {nm} is empty")
        if g.and_disperser.r != self.a_size:
            raise InvalidInputError(
                "disperser right set must be the A players")
        if g.and_disperser.d != g.iext.arity:
            raise InvalidInputError(
                "disperser left degree must match the multi-source arity")
        if g.expander.r != g.and_disperser.l:
            raise InvalidInputError(
                "expander right set must be the disperser left set")
        if g.expander.l < self.b_size:
            raise InvalidInputError("expander left set must cover B")
        if g.srext.input_widths[1] != g.expander.d * g.iext.m:
            raise InvalidInputError(
                "somewhere-random input must be d2 rows of m1 bits")
        if g.srext.m < 2 * self.slice_width:
            raise InvalidInputError(
                "somewhere-random output too narrow for two slices")

    def validate_geqr(self) -> None:
        g = self.gadgets
        if g.iext is None or g.qtext is None:
            raise InvalidInputError("geqr needs the iext and qtext slots")
        if g.iext.arity != self.geqr_group:
            raise InvalidInputError("group size must match the iext arity")
        if self.p <= self.geqr_s * self.geqr_group:
            raise InvalidInputError("p must exceed s*d (no outer players left)")
        if g.qtext.input_widths[1] != self.geqr_s * self.geqr_slice:
            raise InvalidInputError(
                f"qtext seed width must be s*floor(k/s) = "
                f"{self.geqr_s * self.geqr_slice}")


# ----------------------------------------------------------------------
# Adversary strategies
# ----------------------------------------------------------------------

class AdversaryStrategy:
    """Corruption rule plus rushing rule.

    ``kind`` is ``"ir"`` or ``"qr-analog"``.  An IR rushing function is
    called as ``fn(player, round, view)`` and never receives the leak
    register; the QR-analog signature is ``fn(player, round, view,
    side_info)``.  ``trigger`` is evaluated at round boundaries and
    returns extra players to corrupt starting the next round.
    ``forced_slices`` pins the effective rushing slice of a faulty group
    in the one-round protocol (the guessing-argument baseline family).
    """

    def __init__(self, kind: str = "ir", faulty: Iterable[int] = (),
                 rushing_fn: Callable | None = None,
                 trigger: Callable | None = None,
                 forced_slices: dict | None = None):
        if kind not in ("ir", "qr-analog"):
            raise InvalidInputError("adversary kind must be ir or qr-analog")
        self.kind = kind
        self.initial_faulty = frozenset(int(i) for i in faulty)
        self.rushing_fn = rushing_fn
        self.trigger = trigger
        self.forced_slices = dict(forced_slices) if forced_slices else None

    @classmethod
    def passive(cls) -> "AdversaryStrategy":
        return cls("ir", ())

    @classmethod
    def ir(cls, faulty, fn=None, trigger=None) -> "AdversaryStrategy":
        return cls("ir", faulty, fn, trigger)

    @classmethod
    def qr_analog(cls, faulty, fn) -> "AdversaryStrategy":
        return cls("qr-analog", faulty, fn)

    @classmethod
    def forced_slice(cls, faulty, slices: dict) -> "AdversaryStrategy":
        """IR attack that pins faulty groups' public slices to constants."""
        return cls("ir", faulty, None, forced_slices=slices)

    def message(self, player: int, rnd: int, view: dict, side_info,
                default: int) -> int:
        if self.rushing_fn is None:
            return default
        if self.kind == "ir":
            return int(self.rushing_fn(player, rnd, view))
        return int(self.rushing_fn(player, rnd, view, side_info))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

@dataclass
class Message:
    round: int
    sender: int
    payload: int
    width: int
    commit_index: int
    faulty: bool

    def to_json_dict(self):
        ndigits = (self.width + 3) // 4
        return {"round": self.round, "sender": self.sender,
                "message": format(self.payload, f"0{ndigits}x"),
                "commit": self.commit_index, "faulty": self.faulty}


@dataclass
class ProtocolRun:
    protocol: str
    seed: int | None
    messages: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    faulty: frozenset = frozenset()
    adversary_log: list = field(default_factory=list)
    sources: dict = field(default_factory=dict)
    side_info: dict = field(default_factory=dict)
    y: int | None = None
    y_width: int = 0
    rushing_width: int = 0
    good_left_count: int = 0
    rounds_interactive: int = 0
    rounds_total: int = 0

    def rushing_order_ok(self) -> bool:
        """True iff in every round all honest commits precede all faulty."""
        by_round: dict = {}
        for msg in self.messages:
            by_round.setdefault(msg.round, []).append(msg)
        for msgs in by_round.values():
            max_honest = max((m.commit_index for m in msgs if not m.faulty),
                             default=-1)
            min_faulty = min((m.commit_index for m in msgs if m.faulty),
                             default=float("inf"))
            if not max_honest < min_faulty:
                return False
        return True

    def transcript_key(self) -> tuple:
        return tuple((m.round, m.sender, m.payload) for m in self.messages)

    def to_jsonl(self) -> str:
        import json
        return "\n".join(json.dumps(m.to_json_dict()) for m in self.messages)


class _Round:
    """Collects one round's messages, honest strictly before faulty."""

    def __init__(self, run: ProtocolRun, rnd: int):
        self.run = run
        self.rnd = rnd
        self.honest: list = []
        self.faulty: list = []

    def honest_msg(self, sender: int, payload: int, width: int):
        self.honest.append((sender, payload, width))

    def faulty_msg(self, sender: int, payload: int, width: int):
        self.faulty.append((sender, payload, width))

    def view(self) -> dict:
        return {"transcript": tuple((m.round, m.sender, m.payload)
                                    for m in self.run.messages),
                "round_honest": tuple(self.honest)}

    def commit(self) -> dict:
        base = len(self.run.messages)
        values = {}
        for off, (s, v, w) in enumerate(sorted(self.honest)):
            self.run.messages.append(Message(self.rnd, s, v, w, base + off,
                                             False))
            values[s] = v
        base = len(self.run.messages)
        for off, (s, v, w) in enumerate(sorted(self.faulty)):
            self.run.messages.append(Message(self.rnd, s, v, w, base + off,
                                             True))
            values[s] = v
        return values


def _apply_trigger(adv: AdversaryStrategy, faulty: set, t_bound: int,
                   rnd_done: int, run: ProtocolRun):
    if adv.trigger is None:
        return
    extra = adv.trigger(rnd_done, run.transcript_key())
    for pid in sorted(set(int(i) for i in extra) - faulty):
        if len(faulty) >= t_bound:
            run.adversary_log.append(
                f"trigger after round {rnd_done}: corruption bound reached")
            break
        faulty.add(pid)
        run.adversary_log.append(
            f"trigger after round {rnd_done}: corrupt player {pid}")


# ----------------------------------------------------------------------
# Protocol: public block source  (three interactive rounds)
# ----------------------------------------------------------------------

def exec_ext_pub(cfg: NetworkConfig, xvals: dict, adv: AdversaryStrategy,
                 side_info: dict | None = None) -> tuple:
    """Deterministic execution on explicit source/leak values.

    Round 1: A players broadcast their sources.  Rounds 2 and 3: each B
    player extracts from the somewhere-random rows the graph wiring
    assigns it and broadcasts two slice outputs.  Returns the run and
    the public two-block string y.
    """
    cfg.validate_ext_pub()
    g = cfg.gadgets
    side_info = side_info or {}
    run = ProtocolRun("ext_pub", None, faulty=frozenset(adv.initial_faulty),
                      sources=dict(xvals), side_info=dict(side_info),
                      rounds_interactive=3, rounds_total=3)
    faulty = set(adv.initial_faulty)
    sw = cfg.slice_width

    rnd1 = _Round(run, 1)
    for pid in cfg.players_a:
        if pid not in faulty:
            rnd1.honest_msg(pid, xvals[pid], cfg.n)
    for pid in cfg.players_a:
        if pid in faulty:
            payload = adv.message(pid, 1, rnd1.view(), side_info, xvals[pid])
            rnd1.faulty_msg(pid, payload & ((1 << cfg.n) - 1), cfg.n)
    broadcast_a = rnd1.commit()
    _apply_trigger(adv, faulty, cfg.t, 1, run)

    # Graph wiring: left vertex v of the disperser reads its neighbors'
    # broadcasts; B player j concatenates its expander neighbors' rows.
    a_players = cfg.players_a
    s_rows = []
    for v in range(g.and_disperser.l):
        ins = [broadcast_a[a_players[j]] for j in g.and_disperser.adj[v]]
        s_rows.append(g.iext.eval_int(*ins))
    run.good_left_count = sum(
        1 for v in range(g.and_disperser.l)
        if all(a_players[j] not in faulty for j in g.and_disperser.adj[v]))
    y_parts = {}
    for bi, pid in enumerate(cfg.players_b):
        sj = 0
        for v in g.expander.adj[bi]:
            sj = (sj << g.iext.m) | s_rows[v]
        y_parts[pid] = g.srext.eval_int(xvals[pid], sj)

    slices = {}
    for rnd_no, which in ((2, 1), (3, 2)):
        rnd = _Round(run, rnd_no)
        shift = g.srext.m - which * sw
        honest = {pid: (y_parts[pid] >> shift) & ((1 << sw) - 1)
                  for pid in cfg.players_b}
        for pid in cfg.players_b:
            if pid not in faulty:
                rnd.honest_msg(pid, honest[pid], sw)
        for pid in cfg.players_b:
            if pid in faulty:
                payload = adv.message(pid, rnd_no, rnd.view(), side_info,
                                      honest[pid])
                rnd.faulty_msg(pid, payload & ((1 << sw) - 1), sw)
        committed = rnd.commit()
        slices[which] = [committed[pid] for pid in cfg.players_b]
        _apply_trigger(adv, faulty, cfg.t, rnd_no, run)

    y = 0
    for part in (1, 2):
        for v in slices[part]:
            y = (y << sw) | v
    run.y = y
    run.y_width = cfg.y_width
    run.faulty = frozenset(faulty) | run.faulty
    return run, BitString(cfg.y_width, y)


def exec_ext_pri(cfg: NetworkConfig, run: ProtocolRun, y: BitString,
                 oaext: ExtractorHandle | None = None) -> dict:
    """Non-interactive private extraction from the public block source.

    Outer players use y whole; B players drop their own two slices
    first, so their output never depends on their own broadcast.
    """
    g = cfg.gadgets
    oaext = oaext or g.oaext
    if oaext is None:
        raise InvalidInputError("the oaext slot is empty")
    if oaext.input_widths[1] != cfg.y_width:
        raise InvalidInputError(
            f"oaext must read a {cfg.y_width}-bit public string")
    sw = cfg.slice_width
    outputs = {}
    for pid in cfg.players_c:
        if pid in run.faulty:
            outputs[pid] = BOT
            continue
        outputs[pid] = oaext.eval_int(run.sources[pid], y.value)
    if cfg.players_b:
        oab = g.oaext_b
        if oab is None:
            raise InvalidInputError("the oaext_b slot is empty")
        expect = 2 * (cfg.b_size - 1) * sw
        if oab.input_widths[1] != expect:
            raise InvalidInputError(
                f"oaext_b must read a {expect}-bit public string")
        for idx, pid in enumerate(cfg.players_b):
            if pid in run.faulty:
                outputs[pid] = BOT
                continue
            y_minus = _drop_slices(y.value, cfg.b_size, sw, idx)
            outputs[pid] = oab.eval_int(run.sources[pid], y_minus)
    for pid in cfg.players_a:
        outputs.setdefault(pid, BOT)
    run.outputs.update(outputs)
    # Whether the non-interactive extraction counts as a round is
    # presentation-dependent; both counts are reported.
    run.rounds_total = run.rounds_interactive + 1
    return outputs


def _drop_slices(y: int, b_size: int, sw: int, index: int) -> int:
    """Remove B-player ``index``'s slice from both halves of y."""
    half_w = b_size * sw
    y1 = y >> half_w
    y2 = y & ((1 << half_w) - 1)

    def drop(half: int) -> int:
        shift = (b_size - 1 - index) * sw
        high = half >> (shift + sw)
        low = half & ((1 << shift) - 1)
        return (high << shift) | low

    dropped_w = (b_size - 1) * sw
    return (drop(y1) << dropped_w) | drop(y2)


def run_ext_pub(cfg: NetworkConfig, sources: Sequence, scenario: LeakageScenario,
                adv: AdversaryStrategy, seed: int, *,
                shared: Distribution | None = None) -> tuple:
    """The public block on a sampled ensemble of one: ``(run, y)``."""
    (_, _, _, run), = protocol_runs("ext_pub_only", cfg, sources, scenario,
                                    adv, shared=shared, n_runs=1, seed=seed)[1]
    run.seed = seed
    return run, BitString(run.y_width, run.y)


# ----------------------------------------------------------------------
# Protocol: one-round grouped extraction
# ----------------------------------------------------------------------

def exec_geqr(cfg: NetworkConfig, xvals: dict, adv: AdversaryStrategy,
              side_info: dict | None = None) -> ProtocolRun:
    """One round: groups publish, everyone else extracts privately.

    Group i's public slice is the first floor(k/s) bits of the
    multi-source extraction of its members' broadcasts; a group that
    contains a faulty member counts toward the rushing width.  The
    ``forced_slices`` family overrides such a group's slice with a
    constant, realizing the attacks the guessing argument enumerates.
    """
    cfg.validate_geqr()
    g = cfg.gadgets
    side_info = side_info or {}
    run = ProtocolRun("geqr", None, faulty=frozenset(adv.initial_faulty),
                      sources=dict(xvals), side_info=dict(side_info),
                      rounds_interactive=1, rounds_total=1)
    faulty = set(adv.initial_faulty)
    groups = cfg.geqr_groups()
    outer = cfg.geqr_outer()
    slice_w = cfg.geqr_slice

    rnd = _Round(run, 1)
    grouped_players = [pid for grp in groups for pid in grp]
    for pid in grouped_players:
        if pid not in faulty:
            rnd.honest_msg(pid, xvals[pid], cfg.n)
    for pid in grouped_players:
        if pid in faulty:
            payload = adv.message(pid, 1, rnd.view(), side_info, xvals[pid])
            rnd.faulty_msg(pid, payload & ((1 << cfg.n) - 1), cfg.n)
    committed = rnd.commit()

    y = 0
    rushing = 0
    for gi, grp in enumerate(groups, start=1):
        has_faulty = any(pid in faulty for pid in grp)
        if has_faulty:
            rushing += slice_w
        if has_faulty and adv.forced_slices is not None and gi in adv.forced_slices:
            yi = adv.forced_slices[gi] & ((1 << slice_w) - 1)
            run.adversary_log.append(f"group {gi} slice forced to {yi}")
        else:
            full = g.iext.eval_int(*(committed[pid] for pid in grp))
            yi = full >> (g.iext.m - slice_w)
        y = (y << slice_w) | yi
    run.y = y
    run.y_width = cfg.geqr_s * slice_w
    run.rushing_width = rushing
    if rushing > slice_w * cfg.t:
        raise ConstraintViolatedError([
            f"rushing width {rushing} exceeds the k t / s bound "
            f"{slice_w * cfg.t}"])

    for pid in grouped_players:
        run.outputs[pid] = BOT
    for pid in outer:
        if pid in faulty:
            run.outputs[pid] = BOT
        else:
            run.outputs[pid] = g.qtext.eval_int(xvals[pid], y)
    run.faulty = frozenset(faulty)
    return run


def run_geqr(cfg, sources, scenario, adv, seed, *,
             shared: Distribution | None = None) -> ProtocolRun:
    (_, _, _, run), = protocol_runs("geqr", cfg, sources, scenario, adv,
                                    shared=shared, n_runs=1, seed=seed)[1]
    run.seed = seed
    return run


# ----------------------------------------------------------------------
# The engine: worlds of an ensemble, and the protocol run on each
# ----------------------------------------------------------------------

def _as_distribution(src, exact=False) -> Distribution:
    return src.to_distribution(exact) if isinstance(src, FlatSource) else src


def _draw_worlds(sources, scenario, shared, n_runs: int, seed: int):
    """``n_runs`` worlds in the shape of ``enumerate_worlds`` items, weight
    1 each: every source drawn once as an ``n_runs``-vector from one Philox
    stream keyed by ``seed``, then the shared register."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    xs = np.stack([_as_distribution(src).sample(rng, size=n_runs)
                   for src in sources], axis=1)
    a = np.zeros(n_runs, dtype=np.int64)
    if scenario is not None and scenario.shared_width > 0:
        if shared is None:
            raise InvalidInputError("scenario uses a shared register")
        a = shared.sample(rng, size=n_runs)
    for row, av in zip(xs, a.tolist()):
        x = tuple(row.tolist())
        yield 1, x, av, scenario.leaks(x, av) if scenario is not None else ()


def _run_protocol(protocol: str, cfg, xvals, adv, side):
    if protocol == "ext_pub":
        run, y = exec_ext_pub(cfg, xvals, adv, side)
        exec_ext_pri(cfg, run, y)
        return run
    if protocol == "ext_pub_only":  # the public block alone
        run, _ = exec_ext_pub(cfg, xvals, adv, side)
        return run
    if protocol == "geqr":
        return exec_geqr(cfg, xvals, adv, side)
    raise InvalidInputError(f"unknown protocol {protocol!r}")


def protocol_runs(protocol: str, cfg: NetworkConfig, sources,
                  scenario: LeakageScenario | None, adv: AdversaryStrategy, *,
                  shared: Distribution | None = None,
                  n_runs: int | None = None, seed: int = 0) -> tuple:
    """Run the protocol on every world of one ensemble: ``(den, runs)``,
    ``runs`` yielding ``(weight, xvals, side, run)`` one at a time with the
    world's probability ``weight / den``.  ``n_runs=None`` enumerates every
    source/leak world exactly; else ``n_runs`` worlds keyed by ``seed``."""
    if len(sources) != cfg.p:
        raise InvalidInputError("one source per player required")
    if n_runs is None:
        den, worlds = enumerate_worlds(
            [_as_distribution(s, exact=True) for s in sources], scenario,
            shared)
        if den is None:
            raise InvalidInputError("exact enumeration needs exact source "
                                    "and shared register distributions")
    elif n_runs < 1:
        raise InvalidInputError("an ensemble needs at least one run")
    else:
        den, worlds = n_runs, _draw_worlds(sources, scenario, shared,
                                           n_runs, seed)
    leaky = scenario.leaky if scenario is not None else ()

    def runs():
        for weight, xs, _, es in worlds:
            xvals = dict(enumerate(xs, start=1))
            side = {i + 1: e for i, e in zip(leaky, es)}
            yield weight, xvals, side, _run_protocol(protocol, cfg, xvals,
                                                     adv, side)

    return den, runs()


# ----------------------------------------------------------------------
# Security evaluation
# ----------------------------------------------------------------------

@dataclass
class SecurityReport:
    mode: str
    distance: object           # Fraction (exact) or MCReport (sampled)
    player_set: tuple
    effective_set: tuple       # S' = S minus faulty
    part_width: int
    atoms: int = 0


def output_width(cfg: NetworkConfig, protocol: str) -> int:
    if protocol == "geqr":
        return cfg.gadgets.qtext.m
    return cfg.gadgets.oaext.m


def evaluate_security(protocol: str, cfg: NetworkConfig, sources,
                      scenario: LeakageScenario | None,
                      adv: AdversaryStrategy, player_set: Iterable[int], *,
                      shared: Distribution | None = None,
                      mode: str = "exact",
                      n_runs: int = 100_000, tol: float = 0.15,
                      seed: int = 0) -> SecurityReport:
    """Distance of (Z_S', Z_-S', T, leaks) from uniform x rest.

    Exact mode executes the protocol on every source/leak combination and
    measures the joint with rational arithmetic; sampled mode runs an
    ensemble of ``n_runs`` worlds keyed by ``seed`` and returns the
    plug-in estimate with its bootstrap CI.  ``S'`` is the requested set
    minus the players that are faulty or without output in the first run.
    """
    player_set = tuple(sorted(set(player_set)))
    m_out = output_width(cfg, protocol)
    exact = mode == "exact"
    den, runs = protocol_runs(protocol, cfg, sources, scenario, adv,
                              shared=shared, n_runs=None if exact else n_runs,
                              seed=seed)
    cells: dict = {}  # (z_S', rest) -> summed weight
    s_prime = None
    atoms = 0
    for weight, _, side, run in runs:
        if s_prime is None:
            s_prime = tuple(pid for pid in player_set
                            if pid not in run.faulty
                            and run.outputs.get(pid) is not BOT)
        z = 0
        for pid in s_prime:
            if run.outputs[pid] is BOT:
                raise InvalidInputError(
                    f"player {pid} of S' has no private output in some world")
            z = (z << m_out) | run.outputs[pid]
        z_rest = tuple(sorted((pid, v) for pid, v in run.outputs.items()
                              if pid not in s_prime))
        key = (z, (z_rest, run.transcript_key(), tuple(sorted(side.items()))))
        cells[key] = cells.get(key, 0) + weight
        atoms += 1
    part_w = m_out * len(s_prime)
    if exact:
        distance = _exact_distance(cells, den, part_w)
    else:
        # the runs as (z, rest) pairs, grouped by cell in first-seen order
        distance = mc_distance_pairs(
            [key for key, count in cells.items() for _ in range(count)],
            part_w, tol=tol, seed=seed)
    return SecurityReport("exact" if exact else "sampled", distance,
                          player_set, s_prime, part_w, atoms)


def strong_player_error(protocol: str, cfg: NetworkConfig, sources,
                        scenario: LeakageScenario | None,
                        adv: AdversaryStrategy, player: int, *,
                        shared: Distribution | None = None) -> Fraction:
    """Exact strong security of one player: distance of
    (Z_i, X_{-i}, T, leaks) from uniform x rest."""
    cells: dict = {}
    den, runs = protocol_runs(protocol, cfg, sources, scenario, adv,
                              shared=shared)
    for weight, xvals, side, run in runs:
        z = run.outputs.get(player)
        if z is BOT:
            raise InvalidInputError(f"player {player} has no private output")
        x_rest = tuple((pid, v) for pid, v in xvals.items() if pid != player)
        key = (z, (x_rest, run.transcript_key(), tuple(sorted(side.items()))))
        cells[key] = cells.get(key, 0) + weight
    return _exact_distance(cells, den, output_width(cfg, protocol))


def _exact_distance(cells: dict, den: int, m: int) -> Fraction:
    """Distance from uniform x rest of ``(z, rest) -> weight / den`` cells."""
    excess = excess_over_uniform(list(cells.values()),
                                 group_ids(rest for _, rest in cells), m)
    return ratio(excess, den << m)


def player_estimates(protocol: str, cfg: NetworkConfig, sources, scenario,
                     adv: AdversaryStrategy, pairs_of: Callable, m: int, *,
                     n_runs: int, tol: float, seed: int = 0,
                     shared: Distribution | None = None) -> dict:
    """Per-player Monte-Carlo distance of Z_j from uniform given its rest,
    from one sampled ensemble: ``pairs_of(run)`` maps each player to its
    ``(z_j, rest_j)`` pair, ``z_j`` of ``m`` bits.  Players faulty in any
    run are skipped."""
    per_player: dict = {}
    faulty_seen: set = set()
    _, runs = protocol_runs(protocol, cfg, sources, scenario, adv,
                            shared=shared, n_runs=n_runs, seed=seed)
    for _, _, _, run in runs:
        faulty_seen |= run.faulty
        for pid, pair in pairs_of(run).items():
            per_player.setdefault(pid, []).append(pair)
    return {pid: mc_distance_pairs(pairs, m, tol=tol, seed=seed + pid)
            for pid, pairs in sorted(per_player.items())
            if pid not in faulty_seen}


def mc_public_block_quality(cfg: NetworkConfig, sources, scenario,
                            adv: AdversaryStrategy, *, n_runs: int,
                            tol: float, seed: int = 0,
                            shared: Distribution | None = None) -> dict:
    """Per-B-player Monte-Carlo distance of (Y_j, T_1) from uniform x T_1.

    Y_j is the player's two broadcast slices concatenated; T_1 is the
    first-round transcript.  Faulty B players are skipped.
    """
    sw = cfg.slice_width

    def pairs_of(run):
        t1 = tuple((m.sender, m.payload) for m in run.messages if m.round == 1)
        y = {pid: 0 for pid in cfg.players_b}
        for m in run.messages:
            if m.round in (2, 3):
                y[m.sender] = (y[m.sender] << sw) | m.payload
        return {pid: (yj, t1) for pid, yj in y.items()}

    return player_estimates("ext_pub_only", cfg, sources, scenario, adv,
                            pairs_of, 2 * sw, n_runs=n_runs, tol=tol,
                            seed=seed, shared=shared)


# ----------------------------------------------------------------------
# Config files
# ----------------------------------------------------------------------

_CONFIG_KEYS = {
    "p": int, "t": int, "n": int, "k": int, "alpha": float, "delta": float,
    "gamma": float, "a_size": int, "b_size": int, "geqr_group": int,
    "geqr_s": int, "seed": int, "protocol": str, "runs": int,
    "adv": str, "cert_samples": int,
}


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines with typed keys; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        caster = _CONFIG_KEYS.get(key)
        if caster is None:
            raise InvalidInputError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = caster(val)
        except ValueError as exc:
            raise InvalidInputError(
                f"config line {lineno}: bad value for {key}: {exc}") from exc
    return out
