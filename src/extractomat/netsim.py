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

One engine, :func:`protocol_runs`, feeds every evaluation, on world
arrays: an exact ensemble enumerates every source/leak world with its
weight over ``den``; a sampled one of N runs draws each source once as an
N-vector from one Philox stream keyed by ``seed ^ WORLD_KEY`` (weight 1,
``den = N``), so the ensembles of seeds s and s+1 share no worlds.  The
protocol then runs once on the whole :class:`Batch`: honest steps are
truth-table gathers and shifts on int64 columns, the rushing callback
runs once per distinct value of the view parts its strategy reads, on
the view of that value's first world, and a trigger once per distinct
transcript.  The transcript has one definition, the columns of
:meth:`Batch.transcript_columns` (payloads, then the late flags for
security or the commit order for callbacks and triggers); security is
measured on the cells of :func:`~extractomat.dist.column_excess`, whose
worlds and cells are numbered by address where their keys are dense.
A batch's world 0, written by :meth:`Batch.to_jsonl`, is the run log.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .dist import Distribution, column_excess, ratio, row_ids
from .errors import ConstraintViolatedError, InvalidInputError, _integer
from .extractors import ExtractorHandle
from .graphs import BipartiteGraph
from .leakage import LeakageScenario, enumerate_worlds
from .oracle import _philox, mc_distance_pairs
from .sources import FlatSource


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

    The partition sizes follow from ``alpha``, ``delta`` and ``t``:
    ``|A| = ceil((1+alpha) t)`` and ``|B| = ceil(2 (1+2 delta) t)``.
    ``t`` is the corruption bound used for sizing; an actual run may
    corrupt fewer players.  The toy AND-disperser is checked at gamma = 1/l.
    """

    p: int
    t: int
    n: int
    k: int
    alpha: float = 0.5
    delta: float = 0.25
    geqr_group: int = 2        # players per group in the one-round protocol
    geqr_s: int | None = None  # number of groups
    gadgets: GadgetSet = field(default_factory=GadgetSet)

    def __post_init__(self):
        if self.geqr_s is None:
            self.geqr_s = max(1, self.t * 2)
        for key, least in (("p", 1), ("t", 0), ("n", 1), ("geqr_s", 1),
                           ("geqr_group", 2)):
            if getattr(self, key) < least:
                raise InvalidInputError(f"config key {key} must be >= {least}"
                                        f", got {getattr(self, key)}")
        for key in ("alpha", "delta"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidInputError(f"config key {key} must be finite, "
                                        f"got {getattr(self, key)}")
        if self.k <= 4 * math.log2(max(self.p, 2)):
            warnings.warn(
                f"k={self.k} is at or below 4*log2(p)={4 * math.log2(self.p):.2f}; "
                "the entropy floor for distributed use is k > C log p",
                stacklevel=2)

    @property
    def a_size(self) -> int:
        return math.ceil((1 + self.alpha) * self.t)

    @property
    def b_size(self) -> int:
        return math.ceil(2 * (1 + 2 * self.delta) * self.t)

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

    def geqr_faulty(self, faulty) -> list:
        """The (1-based) groups holding a player of the set ``faulty``."""
        return [gi for gi, grp in enumerate(self.geqr_groups(), start=1)
                if not faulty.isdisjoint(grp)]

    def geqr_outer(self) -> tuple:
        return tuple(range(self.geqr_s * self.geqr_group + 1, self.p + 1))

    def validate_partition(self, protocol: str) -> None:
        """Some players are left outside ``protocol``'s partition: outside
        the s groups of geqr, outside A and B of ext_pub."""
        if protocol == "geqr" and self.p <= self.geqr_s * self.geqr_group:
            raise InvalidInputError("p must exceed s*d (no outer players left)")
        if protocol != "geqr" and self.a_size + self.b_size >= self.p:
            raise InvalidInputError(
                "partition leaves no outer players: |A|+|B| >= p, with "
                f"|A| + |B| = {self.a_size} + {self.b_size} and p = {self.p}")

    def validate_ext_pub(self) -> None:
        g = self.gadgets
        self.validate_partition("ext_pub")
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
        self.validate_partition("geqr")
        if g.qtext.input_widths[1] != self.geqr_s * self.geqr_slice:
            raise InvalidInputError(
                f"qtext seed width must be s*floor(k/s) = "
                f"{self.geqr_s * self.geqr_slice}")


# ----------------------------------------------------------------------
# Adversary strategies
# ----------------------------------------------------------------------

# the parts of the view a rushing function of each kind can read
VIEW_PARTS = {"ir": ("transcript", "round_honest"),
              "qr-analog": ("transcript", "round_honest", "side")}


class AdversaryStrategy:
    """Corruption rule plus rushing rule.

    ``kind`` is ``"ir"`` or ``"qr-analog"``.  An IR rushing function is
    called as ``fn(player, round, view)`` and never receives the leak
    register; the QR-analog signature is ``fn(player, round, view,
    side_info)``.  ``view`` holds the ``"transcript"`` so far and the
    round's ``"round_honest"`` messages, ``side_info`` the leak of each
    leaking player.  ``reads``, given with a rushing function, names the
    parts the function depends on (``"side"`` for ``side_info``, on a
    QR-analog strategy only): it is then called once per distinct value
    of those parts, with the others left out of ``view`` and
    ``side_info`` passed as ``None``.  ``None`` declares every part, one
    call per distinct full view.  ``trigger`` is evaluated at round
    boundaries and returns extra players to corrupt starting the next
    round.  ``forced_slices`` pins the effective rushing slice of a faulty
    group in the one-round protocol (the guessing-argument baseline
    family).
    """

    def __init__(self, kind: str = "ir", faulty: Iterable[int] = (),
                 rushing_fn: Callable | None = None,
                 trigger: Callable | None = None,
                 forced_slices: dict | None = None,
                 reads: Iterable[str] | None = None):
        if kind not in ("ir", "qr-analog"):
            raise InvalidInputError("adversary kind must be ir or qr-analog")
        for name, fn in (("rushing_fn", rushing_fn), ("trigger", trigger)):
            if fn is not None and not callable(fn):
                raise InvalidInputError(f"{name} must be callable or None, "
                                        f"not {type(fn).__name__}")
        parts = VIEW_PARTS[kind]
        if reads is not None:
            reads = tuple(reads)
            if rushing_fn is None:
                raise InvalidInputError("reads is given without a rushing "
                                        "function")
            for part in reads:
                if part not in parts:
                    raise InvalidInputError(
                        f"an {kind} strategy reads no view part {part!r}; "
                        f"its parts are {', '.join(parts)}")
        self.kind = kind
        self.initial_faulty = frozenset(_integer(i, "a faulty player")
                                        for i in faulty)
        self.rushing_fn = rushing_fn
        self.trigger = trigger
        self.forced_slices = dict(forced_slices) if forced_slices else None
        self.reads = parts if reads is None else reads

    @classmethod
    def passive(cls) -> "AdversaryStrategy":
        return cls("ir", ())

    @classmethod
    def ir(cls, faulty, fn=None, trigger=None,
           reads=None) -> "AdversaryStrategy":
        return cls("ir", faulty, fn, trigger, reads=reads)

    @classmethod
    def qr_analog(cls, faulty, fn, reads=None) -> "AdversaryStrategy":
        return cls("qr-analog", faulty, fn, reads=reads)

    @classmethod
    def forced_slice(cls, faulty, slices: dict) -> "AdversaryStrategy":
        """IR attack that pins faulty groups' public slices to constants."""
        return cls("ir", faulty, None, forced_slices=slices)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def _concat(cols, width: int, shape) -> np.ndarray:
    """Columns of ``width`` bits side by side, first on top, in ``shape``."""
    out = np.zeros(shape, dtype=np.int64)
    for col in cols:
        out = (out << width) | col
    return out


def _commit_order(late: np.ndarray) -> np.ndarray:
    """The senders of a round in commit order, per world along the last
    axis: the honest ones, then the faulty (``late``) ones, each in sender
    order.  The keys ``late * k + position`` are distinct, so the default
    sort keeps sender order, several times faster than a stable sort."""
    k = late.shape[-1]
    return np.argsort(late * k + np.arange(k), axis=-1)


@dataclass
class Batch:
    """A protocol run on N worlds at once, one column per value.

    ``xs[:, i]`` is player i+1's source, ``side`` maps each leaking player
    to its leak column, ``faulty[:, i]`` marks player i+1 corrupt by the
    end.  Each round is ``(rnd, senders, width, payload, late)``:
    ``senders[j]`` broadcast ``payload[:, j]``, late (after every honest
    message) where it was faulty.  ``outputs[:, i]`` is player i+1's
    private output, -1 for BOT."""

    xs: np.ndarray
    side: dict
    faulty: np.ndarray
    rounds: list = field(default_factory=list)
    outputs: np.ndarray | None = None
    y: np.ndarray | None = None
    y_width: int = 0
    rushing_width: int = 0
    callbacks: int = 0  # rushing-callback calls, one per distinct value read

    @classmethod
    def start(cls, cfg: NetworkConfig, xs, adv: AdversaryStrategy,
              side: dict | None) -> "Batch":
        xs = np.asarray(xs, dtype=np.int64).reshape(-1, cfg.p)
        if ((xs >> cfg.n) != 0).any():
            raise InvalidInputError(f"a source value exceeds n={cfg.n} bits")
        faulty = np.zeros(xs.shape, dtype=bool)
        faulty[:, [i - 1 for i in adv.initial_faulty if 0 < i <= cfg.p]] = True
        return cls(xs, dict(side or {}), faulty)

    def transcript_columns(self, upto: int | None = None,
                           shown: bool = False) -> list:
        """The transcript of the first ``upto`` rounds as columns: each
        round's payloads, then its ``late`` flags, which fix its commit
        order; security numbers worlds by these.  ``shown`` gives the
        commit order instead, as callbacks and triggers are numbered: equal
        columns then mean equal :meth:`transcripts` (every sender late, or
        none, gives one order)."""
        return [col for *_, payload, late in self.rounds[:upto]
                for col in (*payload.T,
                            *(_commit_order(late) if shown else late).T)]

    def transcripts(self, rows) -> list:
        """Worlds ``rows``' (round, sender, payload) triples, commit order."""
        out = [()] * len(rows)
        for rnd, senders, _, payload, late in self.rounds:
            out = [tr + tuple((rnd, senders[k], sent[k]) for k in order)
                   for tr, sent, order in zip(
                       out, payload[rows].tolist(),
                       _commit_order(late[rows]).tolist())]
        return out

    def to_jsonl(self, row: int = 0) -> str:
        """World ``row``'s messages in commit order, one JSON line each:
        round, sender, payload in hex, commit index and faulty flag."""
        lines = []
        for rnd, senders, width, payload, late in self.rounds:
            sent, lt = payload[row].tolist(), late[row].tolist()
            for k in _commit_order(late[row]).tolist():
                lines.append(json.dumps({
                    "round": rnd, "sender": senders[k],
                    "message": format(sent[k], f"0{(width + 3) // 4}x"),
                    "commit": len(lines), "faulty": lt[k]}))
        return "\n".join(lines) + "\n"

    def rushing_order_ok(self) -> bool:
        """True iff in every world and round the commit order puts all
        honest messages before all faulty ones.  The order depends on the
        world only through its late pattern, so each distinct pattern of a
        round is checked once, on its first world."""
        for *_, late in self.rounds:
            late = late[row_ids(late.view(np.uint8).T, len(late))[1]]
            flags = np.take_along_axis(late, _commit_order(late), axis=1)
            if (flags[:, :-1] > flags[:, 1:]).any():
                return False
        return True

    def play(self, rnd: int, senders, width: int, adv: AdversaryStrategy,
             honest: np.ndarray | None = None) -> np.ndarray:
        """One round: each sender's honest payload (column of ``honest``,
        by default its source), replaced for faulty senders by the rushing
        message, chosen after the honest ones.  The callback runs once per
        sender and distinct value of the view parts the strategy reads, in
        order of first appearance, and is shown only those parts: each
        view is built from its first world's row, with a fresh side dict."""
        idx = [pid - 1 for pid in senders]
        late = self.faulty[:, idx]
        honest = self.xs[:, idx] if honest is None else honest
        payload = honest.copy()
        if adv.rushing_fn is not None and late.any():
            qr = adv.kind == "qr-analog"
            tr_read, hon_read, side_read = (part in adv.reads for part in (
                "transcript", "round_honest", "side"))
            keys = self.transcript_columns(shown=True) if tr_read else []
            if hon_read:
                keys += list(np.where(late, -1, honest).T)
            if side_read:
                keys += list(self.side.values())
            fn, mask = adv.rushing_fn, (1 << width) - 1
            for k, pid in enumerate(senders):
                rows = np.flatnonzero(late[:, k])
                if rows.size == 0:
                    continue
                ids, first = row_ids((col[rows] for col in keys), rows.size)
                sel = rows[first]  # one world per distinct value read
                trs = self.transcripts(sel) if tr_read else ()
                leaks = [col[sel].tolist() for col in self.side.values()]
                msgs = []
                for i, (hon, lt) in enumerate(zip(honest[sel].tolist(),
                                                  late[sel].tolist())):
                    view = {"transcript": trs[i]} if tr_read else {}
                    if hon_read:
                        view["round_honest"] = tuple([
                            (s, v, width) for s, v, was_late
                            in zip(senders, hon, lt) if not was_late])
                    side = ({p: vals[i] for p, vals in zip(self.side, leaks)}
                            if side_read else None)
                    msgs.append(int(fn(pid, rnd, view, side) if qr else
                                    fn(pid, rnd, view)) & mask)
                payload[rows, k] = np.array(msgs, dtype=np.int64)[ids]
                self.callbacks += first.size
        self.rounds.append((rnd, tuple(senders), width, payload, late))
        return payload

    def corrupt(self, adv: AdversaryStrategy, t_bound: int, rnd_done: int):
        """Adaptive corruption after round ``rnd_done``: the trigger runs once
        per distinct transcript, a row of ``transcript_columns(shown=True)``
        (payloads and commit order, not late flags); the players it names
        turn faulty for the next round, in ascending order while fewer than
        ``t_bound`` are."""
        if adv.trigger is None:
            return
        n, p = self.faulty.shape
        tid, tfirst = row_ids(self.transcript_columns(shown=True), n)
        named = np.zeros((tfirst.size, p), dtype=bool)
        for g, tr in enumerate(self.transcripts(tfirst)):
            named[g, [i - 1 for i in map(int, adv.trigger(rnd_done, tr))
                      if 0 < i <= p]] = True
        for k in np.flatnonzero(named.any(axis=0)):  # ascending player ids
            self.faulty[:, k] |= (named[tid, k]
                                  & (self.faulty.sum(axis=1) < t_bound))

    def private(self, pid: int, h: ExtractorHandle, y: np.ndarray):
        """Player ``pid`` extracts ``h(x_pid, y)``; faulty, it outputs BOT."""
        self.outputs[:, pid - 1] = np.where(
            self.faulty[:, pid - 1], -1,
            h.gather(self.xs[:, pid - 1], y).astype(np.int64))


# ----------------------------------------------------------------------
# Protocol: public block source  (three interactive rounds)
# ----------------------------------------------------------------------

def exec_ext_pub(cfg: NetworkConfig, xs, adv: AdversaryStrategy,
                 side: dict | None = None) -> Batch:
    """The public block on a batch of worlds, ``xs`` holding one row of
    source values per world and ``side`` the leak columns.

    Round 1: A players broadcast their sources.  Rounds 2 and 3: each B
    player extracts from the somewhere-random rows the graph wiring
    assigns it and broadcasts two slice outputs, whose concatenation is
    the public two-block string y.
    """
    cfg.validate_ext_pub()
    g = cfg.gadgets
    b = Batch.start(cfg, xs, adv, side)
    sw = cfg.slice_width
    bcast = b.play(1, cfg.players_a, cfg.n, adv)
    b.corrupt(adv, cfg.t, 1)

    # Graph wiring: left vertex v of the disperser reads its neighbors'
    # broadcasts; B player j concatenates its expander neighbors' rows.
    s_rows = [g.iext.gather(*bcast[:, list(nb)].T)
              for nb in g.and_disperser.adj]
    y_parts = np.stack([g.srext.gather(b.xs[:, pid - 1], _concat(
        [s_rows[v] for v in g.expander.adj[bi]], g.iext.m, len(b.xs)))
        for bi, pid in enumerate(cfg.players_b)], axis=1).astype(np.int64)
    slices = []
    for rnd, which in ((2, 1), (3, 2)):
        honest = (y_parts >> (g.srext.m - which * sw)) & ((1 << sw) - 1)
        slices += list(b.play(rnd, cfg.players_b, sw, adv, honest).T)
        b.corrupt(adv, cfg.t, rnd)
    b.y, b.y_width = _concat(slices, sw, len(b.xs)), cfg.y_width
    return b


def exec_ext_pri(cfg: NetworkConfig, b: Batch,
                 y: np.ndarray | None = None) -> np.ndarray:
    """Non-interactive private extraction from the public block source
    ``y`` (the batch's own by default); returns and stores the outputs.

    Outer players use y whole; B players drop their own two slices
    first, so their output never depends on their own broadcast.
    """
    g = cfg.gadgets
    oaext = g.oaext
    if oaext is None:
        raise InvalidInputError("the oaext slot is empty")
    if oaext.input_widths[1] != cfg.y_width:
        raise InvalidInputError(
            f"oaext must read a {cfg.y_width}-bit public string")
    y = b.y if y is None else y
    sw = cfg.slice_width
    b.outputs = np.full(b.xs.shape, -1, dtype=np.int64)
    for pid in cfg.players_c:
        b.private(pid, oaext, y)
    if cfg.players_b:
        oab = g.oaext_b
        if oab is None:
            raise InvalidInputError("the oaext_b slot is empty")
        expect = 2 * (cfg.b_size - 1) * sw
        if oab.input_widths[1] != expect:
            raise InvalidInputError(
                f"oaext_b must read a {expect}-bit public string")
        for idx, pid in enumerate(cfg.players_b):
            b.private(pid, oab, _drop_slices(y, cfg.b_size, sw, idx))
    return b.outputs


def _drop_slices(y, b_size: int, sw: int, index: int):
    """Remove B-player ``index``'s slice from both halves of y."""
    half_w, shift = b_size * sw, (b_size - 1 - index) * sw

    def drop(half):
        return ((half >> (shift + sw)) << shift) | (half & ((1 << shift) - 1))

    return (drop(y >> half_w) << (half_w - sw)) | drop(y & ((1 << half_w) - 1))


# ----------------------------------------------------------------------
# Protocol: one-round grouped extraction
# ----------------------------------------------------------------------

def exec_geqr(cfg: NetworkConfig, xs, adv: AdversaryStrategy,
              side: dict | None = None) -> Batch:
    """One round on a batch of worlds: groups publish, everyone else
    extracts privately.

    Group i's public slice is the first floor(k/s) bits of the
    multi-source extraction of its members' broadcasts; a group that
    contains a faulty member counts toward the rushing width.  The
    ``forced_slices`` family overrides such a group's slice with a
    constant, realizing the attacks the guessing argument enumerates.
    """
    cfg.validate_geqr()
    b = Batch.start(cfg, xs, adv, side)
    grouped = [pid for grp in cfg.geqr_groups() for pid in grp]
    sent = dict(zip(grouped, b.play(1, grouped, cfg.n, adv).T))
    faulty = cfg.geqr_faulty(adv.initial_faulty)
    rushing, pinned = cfg.geqr_slice * len(faulty), adv.forced_slices or {}
    if rushing > cfg.geqr_slice * cfg.t:
        raise ConstraintViolatedError([
            f"rushing width {rushing} exceeds the k t / s bound "
            f"{cfg.geqr_slice * cfg.t}"])
    b.y = _public_string(cfg, sent, {gi: pinned[gi] for gi in faulty
                                     if gi in pinned}, len(b.xs))
    b.y_width, b.rushing_width = cfg.geqr_s * cfg.geqr_slice, rushing
    b.outputs = np.full(b.xs.shape, -1, dtype=np.int64)
    for pid in cfg.geqr_outer():
        b.private(pid, cfg.gadgets.qtext, b.y)
    return b


def _public_string(cfg: NetworkConfig, sent: dict, forced: dict, shape):
    """geqr's public string in ``shape``: group i's slice is the first
    floor(k/s) bits of iext on its members' ``sent`` columns, or
    ``forced[i]`` (a constant, or one per row) cut to the slice width."""
    g, sw = cfg.gadgets, cfg.geqr_slice
    return _concat([forced[gi] & ((1 << sw) - 1) if gi in forced else
                    g.iext.gather(*(sent[p] for p in grp)) >> (g.iext.m - sw)
                    for gi, grp in enumerate(cfg.geqr_groups(), start=1)],
                   sw, shape)


# ----------------------------------------------------------------------
# The engine: the worlds of an ensemble, and the protocol run on them
# ----------------------------------------------------------------------

WORLD_KEY = 0x5EED << 32  # worlds of seed s come from Philox(key=s ^ WORLD_KEY)


def _draw_worlds(sources, scenario, shared, n_runs: int, seed: int):
    """``n_runs`` worlds in the shape of ``enumerate_worlds``, weight 1
    each over ``n_runs``: every source drawn once as an ``n_runs``-vector
    from one Philox stream keyed by ``seed ^ WORLD_KEY``, then the shared
    register.  A :class:`FlatSource` draws by support index, the draws of
    its Distribution without building one."""
    rng = _philox(seed ^ WORLD_KEY)
    xs = np.stack([src.sample(rng, size=n_runs) for src in sources], axis=1)
    a = np.zeros(n_runs, dtype=np.int64)
    if scenario.shared_width > 0:
        if shared is None:
            raise InvalidInputError("scenario uses a shared register")
        a = shared.sample(rng, size=n_runs)
    return n_runs, np.ones(n_runs, dtype=np.int64), xs, a, \
        scenario.leak_columns(xs, a)


def _run_protocol(protocol: str, cfg, xs, adv, side) -> Batch:
    if protocol in ("ext_pub", "ext_pub_only"):  # ext_pub_only: no private step
        b = exec_ext_pub(cfg, xs, adv, side)
        if protocol == "ext_pub":
            exec_ext_pri(cfg, b)
    elif protocol == "geqr":
        b = exec_geqr(cfg, xs, adv, side)
    else:
        raise InvalidInputError(f"unknown protocol {protocol!r}")
    return b


def protocol_runs(protocol: str, cfg: NetworkConfig, sources,
                  scenario: LeakageScenario | None, adv: AdversaryStrategy, *,
                  shared: Distribution | None = None,
                  n_runs: int | None = None, seed: int = 0) -> tuple:
    """Run the protocol on every world of one ensemble at once:
    ``(den, weights, batch)``, world ``j`` (row ``j`` of the batch) having
    probability ``weights[j] / den``.  ``n_runs=None`` enumerates every
    source/leak world exactly; else ``n_runs`` worlds keyed by ``seed``."""
    if len(sources) != cfg.p:
        raise InvalidInputError("one source per player required")
    scenario = scenario or LeakageScenario.trivial([cfg.n] * cfg.p)
    if n_runs is None:
        den, weights, xs, _, es = enumerate_worlds(
            [s.to_distribution() if isinstance(s, FlatSource) else s
             for s in sources], scenario, shared)
    elif n_runs < 1:
        raise InvalidInputError("an ensemble needs at least one run")
    else:
        den, weights, xs, _, es = _draw_worlds(sources, scenario, shared,
                                               n_runs, seed)
    side = {i + 1: es[:, c] for c, i in enumerate(scenario.leaky)}
    return den, weights, _run_protocol(protocol, cfg, xs, adv, side)


# ----------------------------------------------------------------------
# Security evaluation
# ----------------------------------------------------------------------

@dataclass
class SecurityReport:
    mode: str
    distance: object           # Fraction (exact) or MCReport (sampled)
    effective_set: tuple       # S' = S minus faulty
    atoms: int = 0


def output_width(cfg: NetworkConfig, protocol: str) -> int:
    return (cfg.gadgets.qtext if protocol == "geqr" else cfg.gadgets.oaext).m


def evaluate_security(protocol: str, cfg: NetworkConfig, sources,
                      scenario: LeakageScenario | None,
                      adv: AdversaryStrategy, player_set: Iterable[int], *,
                      shared: Distribution | None = None,
                      mode: str = "exact", n_runs: int = 100_000,
                      tol: float = 0.15, seed: int = 0) -> SecurityReport:
    """Distance of (Z_S', Z_-S', T, leaks) from uniform x rest.

    Exact mode executes the protocol on every source/leak combination and
    measures the joint with rational arithmetic; sampled mode runs an
    ensemble of ``n_runs`` worlds keyed by ``seed`` and returns the
    plug-in estimate with its bootstrap spread, not a CI for the distance.
    ``S'`` is ``player_set`` minus the players faulty or without output
    in the first world."""
    if mode not in ("exact", "sampled"):
        raise InvalidInputError(f"mode must be exact or sampled, not {mode!r}")
    exact = mode == "exact"
    return security(protocol, cfg, player_set, *protocol_runs(
        protocol, cfg, sources, scenario, adv, shared=shared,
        n_runs=None if exact else n_runs, seed=seed),
        exact=exact, tol=tol, seed=seed)


def security(protocol, cfg, player_set, den, weights, b, *, exact=True,
             tol=None, seed=None) -> SecurityReport:
    """:func:`evaluate_security` of the ensemble ``(den, weights, b)``
    that :func:`protocol_runs` returns."""
    player_set = tuple(sorted(set(player_set)))
    m_out = output_width(cfg, protocol)
    out = b.outputs
    s_prime = tuple(pid for pid in player_set if 0 < pid <= cfg.p
                    and not b.faulty[0, pid - 1] and out[0, pid - 1] >= 0)
    for pid in s_prime:
        if (out[:, pid - 1] < 0).any():
            raise InvalidInputError(
                f"player {pid} of S' has no private output in some world")
    z = _concat([out[:, pid - 1] for pid in s_prime], m_out, len(weights))
    rest = [out[:, i - 1] for i in range(1, cfg.p + 1) if i not in s_prime]
    rest += b.transcript_columns() + list(b.side.values())
    part_w = m_out * len(s_prime)
    if exact:
        distance = ratio(column_excess(weights, z, rest, part_w), den << part_w)
    else:
        keys = (row_ids(rest, len(z))[0] << part_w) | z
        distance = mc_distance_pairs(keys, part_w, tol=tol, seed=seed)
    return SecurityReport("exact" if exact else "sampled", distance, s_prime,
                          len(weights))


def forced_slice_distances(cfg, adv, player_set, den, weights, b) -> list:
    """Exact geqr security of each IR attack pinning the slices of the
    groups ``adv`` corrupts (entry r: to r's bits, the first group's on
    top) on the worlds of the ensemble ``(den, weights, b)``, in one pass
    on their shared honest round: only the public string and the outer
    players' outputs change per attack, p attacks to a block of rows."""
    n, m, sw = len(weights), output_width(cfg, "geqr"), cfg.geqr_slice
    sent = {pid: b.xs[:, pid - 1] for grp in cfg.geqr_groups() for pid in grp}
    ids = row_ids(list(sent.values()) + list(b.side.values()), n)
    outer = [pid for pid in cfg.geqr_outer() if not b.faulty[0, pid - 1]]
    inside = sorted(set(player_set).intersection(outer))  # S'
    forced = cfg.geqr_faulty(adv.initial_faulty)
    width, part_w, out = sw * len(forced), m * len(inside), []
    for lo in range(0, 1 << width, cfg.p):
        r = np.arange(lo, min(lo + cfg.p, 1 << width))[:, None]
        y = _public_string(cfg, sent, {gi: r >> sw * k for k, gi in
                                       enumerate(forced[::-1])}, (r.size, n))
        outs = {p: cfg.gadgets.qtext.gather(b.xs[:, p - 1], y) for p in outer}
        z = _concat([outs.pop(pid) for pid in inside], m, y.shape)
        out += [ratio(column_excess(  # S' holds every outer player: ids as is
            weights, z[i], [ids[0]] + [o[i] for o in outs.values()], part_w,
            None if outs else ids), den << part_w) for i in range(r.size)]
    return out


def ir_to_qr(cfg, adv, player_set, den, weights, b) -> tuple:
    """``(qr_report, ir_distance, rushing_bits)``: exact geqr security of
    the ensemble ``(den, weights, b)`` run under the QR-analog attack
    ``adv``, and the worst of :func:`forced_slice_distances` on it, one
    constant-slice attack per value of the ``rushing_bits``."""
    ir = forced_slice_distances(cfg, adv, player_set, den, weights, b)
    return (security("geqr", cfg, player_set, den, weights, b), max(ir),
            len(ir).bit_length() - 1)


def strong_player_error(protocol: str, cfg: NetworkConfig, sources,
                        scenario: LeakageScenario | None,
                        adv: AdversaryStrategy, player: int, *,
                        shared: Distribution | None = None) -> Fraction:
    """Exact strong security of one player: distance of
    (Z_i, X_{-i}, T, leaks) from uniform x rest."""
    if not 1 <= player <= cfg.p:
        raise InvalidInputError(f"player must be in 1..{cfg.p}, not {player}")
    den, weights, b = protocol_runs(protocol, cfg, sources, scenario, adv,
                                    shared=shared)
    z = b.outputs[:, player - 1]
    if (z < 0).any():
        raise InvalidInputError(f"player {player} has no private output")
    rest = [b.xs[:, i] for i in range(cfg.p) if i != player - 1]
    rest += b.transcript_columns() + list(b.side.values())
    m = output_width(cfg, protocol)
    return ratio(column_excess(weights, z, rest, m), den << m)


def player_estimates(b: Batch, pairs: dict, m: int, *, tol: float,
                     seed: int = 0) -> dict:
    """Per-player Monte-Carlo distance of Z_j from uniform given its rest,
    on the sampled ensemble ``b``: ``pairs`` maps each player to ``(z_j,
    rest_j)``, ``m``-bit values and a list of columns, numbered once per
    list of the same columns.  Players faulty in any run are skipped."""
    faulty_seen, ids, out = b.faulty.any(axis=0), {}, {}
    for pid, (z, rest) in sorted(pairs.items()):
        if not faulty_seen[pid - 1]:
            if (key := tuple(map(id, rest))) not in ids:
                ids[key] = row_ids(rest, len(z))[0]
            out[pid] = mc_distance_pairs((ids[key] << m) | z, m, tol=tol,
                                         seed=seed + pid)
    return out


def mc_public_block_quality(cfg: NetworkConfig, b: Batch, *, tol: float,
                            seed: int = 0) -> dict:
    """Per-B-player Monte-Carlo distance of (Y_j, T_1) from uniform x T_1
    on the sampled public-block ensemble ``b``.

    Y_j is the player's two broadcast slices concatenated; T_1 is the
    first-round transcript.  Faulty B players are skipped.
    """
    sw = cfg.slice_width
    (*_, r2, _), (*_, r3, _) = b.rounds[1:]
    t1 = b.transcript_columns(1)
    return player_estimates(
        b, {pid: ((r2[:, k] << sw) | r3[:, k], t1)
            for k, pid in enumerate(cfg.players_b)},
        2 * sw, tol=tol, seed=seed)


# ----------------------------------------------------------------------
# Config files
# ----------------------------------------------------------------------

_CONFIG_KEYS = {
    "p": int, "t": int, "n": int, "k": int, "alpha": float, "delta": float,
    "geqr_group": int, "geqr_s": int, "seed": int,
    "protocol": str, "runs": int, "adv": str, "cert_samples": int,
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
