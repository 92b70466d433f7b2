"""Bipartite gadgets: AND-dispersers, expanders, extractor graphs.

One rule per property (``_rule``): a left vertex is bad for a right
subset when its neighbours there number outside an integer window, and
the subset is violated when enough are bad.  Verification counts that
exactly on every subset, in lexicographic order so witnesses reproduce;
fractional set sizes round up on adversarial sets (only harder) and the
verdict reports them.

Search draws seeded random left-regular graphs and anneals random
single-edge swaps against the count of violated subsets until none is
left or the attempt budget runs out; every returned graph re-verifies.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceededError, InvalidInputError,
                     TargetUnreachableError)
from .oracle import _philox

DEFAULT_VERIFY_BUDGET = 50_000_000
DEFAULT_ATTEMPTS = 32


@dataclass(frozen=True)
class BipartiteGraph:
    """Left-regular bipartite graph; ``adj[v]`` lists v's right neighbors."""

    l: int
    r: int
    d: int
    adj: tuple

    def __post_init__(self):
        for name in ("l", "r", "d"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise InvalidInputError(
                    f"graph size {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if len(self.adj) != self.l:
            raise InvalidInputError("one neighbor list per left vertex")
        cleaned = []
        for nbrs in self.adj:
            ns = tuple(nbrs)
            if not all(isinstance(v, numbers.Integral) for v in ns):
                raise InvalidInputError(
                    f"neighbor indices must be integers, got {ns!r}")
            ns = tuple(sorted(map(int, ns)))
            if len(set(ns)) != self.d:
                raise InvalidInputError(
                    f"every left vertex needs exactly {self.d} distinct neighbors")
            if ns and (ns[0] < 0 or ns[-1] >= self.r):
                raise InvalidInputError("neighbor index out of range")
            cleaned.append(ns)
        object.__setattr__(self, "adj", tuple(cleaned))

    @classmethod
    def random(cls, l: int, r: int, d: int,
               rng: np.random.Generator) -> "BipartiteGraph":
        adj = tuple(tuple(sorted(int(v) for v in
                                 rng.choice(r, size=d, replace=False)))
                    for _ in range(l))
        return cls(l, r, d, adj)

    def to_json(self) -> str:
        return json.dumps({"l": self.l, "r": self.r, "d": self.d,
                           "adj": [list(n) for n in self.adj]})

    @classmethod
    def from_json(cls, s: str) -> "BipartiteGraph":
        d = json.loads(s)
        missing = [k for k in ("l", "r", "d", "adj")
                   if not isinstance(d, dict) or k not in d]
        if missing:
            raise InvalidInputError(f"graph JSON lacks {', '.join(missing)}")
        return cls(d["l"], d["r"], d["d"], tuple(tuple(n) for n in d["adj"]))


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass
class Verdict:
    ok: bool
    witness: tuple | None = None
    applied: dict = field(default_factory=dict)
    checked: int = 0

    def __bool__(self):
        return self.ok


def _fits(name: str, size: int, side: int) -> None:
    """Refuse a rounded set size above its side, which no set can have."""
    if size > side:
        raise InvalidInputError(f"{name} too large: a rounded set size of "
                                f"{size} exceeds its side of {side}")


def _rule(kind: str, params: dict):
    """``kind``'s property as ``(size, lo, hi, t, applied)``: on right subsets
    of ``size``, a left vertex is bad when its neighbours in the subset number
    outside ``[lo, hi)``; a subset is violated when ``t`` or more are bad."""
    l, r, d = params["l"], params["r"], params["d"]
    for name in ("delta", "gamma", "beta", "alpha", "eps", "K"):
        if name in params and not math.isfinite(params[name]):
            raise InvalidInputError(
                f"{name} must be finite, got {params[name]!r}")
    if kind == "and-disperser":  # good: the neighbourhood is inside
        size = math.ceil(params["delta"] * r)
        if size < 0:
            raise InvalidInputError("delta must be >= 0")
        _fits("delta", size, r)
        need = math.ceil(params["gamma"] * l)
        return size, d, d + 1, l + 1 - need, {"right_subset_size": size,
                                              "left_required": need}
    if kind == "expander":  # good: the vertex does not avoid the subset
        size, t = math.ceil(params["beta"] * r), math.ceil(params["beta"] * l)
        if size < 1 or t < 1:
            raise InvalidInputError(
                "beta too small: rounded set sizes must be >= 1")
        _fits("beta", size, r)
        _fits("beta", t, l)
        return size, 1, d + 1, t, {"left_subset_size": t,
                                   "right_subset_size": size}
    # good: within eps of alpha, as counts (1e-9 absorbs float rounding)
    alpha, eps, K = params.get("alpha", 0.5), params["eps"], params["K"]
    size = round(alpha * r)
    if size < 0:
        raise InvalidInputError("alpha must be >= 0")
    _fits("alpha", size, r)
    return (size, math.ceil((alpha - eps) * d - 1e-9),
            math.floor((alpha + eps) * d + 1e-9) + 1, K + 1,
            {"t_size": size, "alpha": alpha, "deviation": "two-sided",
             "eps": eps, "K": K})


def _verify(kind: str, g: BipartiteGraph, params: dict, budget: int,
            what: str) -> Verdict:
    """``kind``'s rule on every right subset, in lexicographic order."""
    size, lo, hi, t, applied = _rule(kind, dict(params, l=g.l, r=g.r, d=g.d))
    ncol = math.comb(g.r, size)
    if ncol * g.l > budget:
        raise BudgetExceededError(ncol * g.l, budget, f"{what} verification")
    masks = [_mask(nbrs) for nbrs in g.adj]
    for j, combo in enumerate(itertools.combinations(range(g.r), size)):
        vmask = _mask(combo)
        bad = [u for u, m in enumerate(masks)
               if not lo <= (m & vmask).bit_count() < hi]
        if len(bad) >= t:
            witness = combo if kind == "and-disperser" else (
                tuple(bad[:t] if kind == "expander" else bad), combo)
            return Verdict(False, witness, applied, checked=j + 1)
    return Verdict(True, applied=applied, checked=ncol)


def verify_and_disperser(g: BipartiteGraph, delta: float, gamma: float, *,
                         budget: int = DEFAULT_VERIFY_BUDGET) -> Verdict:
    """Every right subset of size ceil(delta*r) must fully contain the
    neighborhoods of at least ceil(gamma*l) left vertices."""
    return _verify("and-disperser", g, {"delta": delta, "gamma": gamma},
                   budget, "AND-disperser")


def verify_expander(g: BipartiteGraph, beta: float, *,
                    budget: int = DEFAULT_VERIFY_BUDGET) -> Verdict:
    """Every (U, V) with |U| = ceil(beta*l), |V| = ceil(beta*r) has an edge.

    Equivalent check: no right subset V of that size may have
    ceil(beta*l) or more left vertices avoiding it entirely.
    """
    return _verify("expander", g, {"beta": beta}, budget, "expander")


def verify_extractor_graph(g: BipartiteGraph, K: int, eps: float,
                           alpha: float = 0.5, *,
                           budget: int = DEFAULT_VERIFY_BUDGET) -> Verdict:
    """For every right subset T of size round(alpha*r), all but K left
    vertices see a fraction of neighbors in T within eps of alpha.

    The deviation is checked two-sided, |fraction - alpha| <= eps; that
    reading is recorded in the verdict.
    """
    return _verify("extractor-graph", g, {"K": K, "eps": eps, "alpha": alpha},
                   budget, "extractor-graph")


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------

@dataclass
class SearchRecord:
    attempts: int
    steps: int
    scanned: int  # steps that ``_raw_stream``'s scan skipped, within steps


def _violation_rows(kind: str, params: dict, budget: int):
    """Packed violation rows, memoised by neighbourhood mask, and ``(add,
    guard)``: a sum of rows violates ``((sum + add) & guard).bit_count()``.

    An int holds one ``w``-bit field per subset (lexicographic order) with
    a guard as its top bit; no sum here carries out of a field, and
    ``ge(x, c)`` keeps the guards of x's fields that are >= c.  A row is 1
    where the vertex's neighbours in the subset number outside [lo, hi),
    and a subset is violated when its total reaches t (``_rule``)."""
    l, r, d = params["l"], params["r"], params["d"]
    size, lo, hi, t, _ = _rule(kind, params)
    ncol = math.comb(r, size)
    if ncol * l > budget:  # what the verifier charges, before any work
        raise BudgetExceededError(ncol * l, budget, f"{kind} search verification")
    t, lo, hi = max(t, 0), *(min(max(c, 0), d + 1) for c in (lo, hi))
    w = max(l, t, d + 1).bit_length() + 1
    member = [0] * r  # member[x]: 1 in the field of each subset holding x
    for j, subset in enumerate(itertools.combinations(range(r), size)):
        for x in subset:
            member[x] |= 1 << j * w
    ones = ((1 << ncol * w) - 1) // ((1 << w) - 1)
    guard = ones << w - 1
    ge = lambda tot, c: (tot + ones * ((1 << w - 1) - c)) & guard

    def row(mask: int) -> int:
        hits = sum(member[x] for x in range(r) if mask >> x & 1)
        return (guard & ~ge(hits, lo) | ge(hits, hi)) >> w - 1
    return _Memo(row), ones * ((1 << w - 1) - t), guard


class _Memo(dict):
    """``memo[key]`` is ``fill(key)``, computed on first use."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def _decoded(buf, highs):
    """The move ``(u*b + i)*c + j`` that a step of ``highs`` (a, b, c), all
    > 1, draws from place s at word p of ``buf``, as ``codes[s, p]`` (place
    0: word p's halves, then p+1's low one; s > 0: the left-over high half
    of word p-s, then word p's), or -1 where a half lies outside ``buf`` or
    a low product half is below its high (as every rejection's is)."""
    _, b, c = highs
    half = buf.astype("<u8", copy=False).view("<u4")  # low half first
    (ua, oa), (ub, ob), (uc, oc) = ((half.astype(np.int64) * h >> 32,
                                     half * np.uint32(h) >= h) for h in highs)
    # a half drawn by a, and two by b and c; -2**62 makes a code negative
    first = np.where(oa, ua * (b * c), -1 << 62)
    rest = np.where(ob[:-1] & oc[1:], ub[:-1] * c + uc[1:], -1 << 62)
    codes = np.full((3, len(buf)), -1, np.int64)
    np.add(first[:-2:2], rest[1::2], out=codes[0, :-1])
    np.add(first[1:-1:2], rest[2::2], out=codes[1, 1:])
    np.add(first[1:-3:2], rest[4::2], out=codes[2, 2:])
    return np.maximum(codes, -1, out=codes)


def _raw_stream(bitgen, highs):
    """numpy's ``Generator.integers(high)`` and ``.random()`` on the raw words
    of ``bitgen``: Lemire's draw on 32-bit halves, low half first (a half
    left by earlier draws comes next), and ``(word >> 11) * 2**-53``.
    ``step()`` is ``integers(a), integers(b), integers(c)`` for ``highs``
    (a, b, c): its code in the block of words decoded once (``_decoded``),
    or one draw at a time on a -1 code or a high of 1 (which draws no
    half).  A generator's left-over half is the high half of a virtual
    word before the first; a refill keeps the word of a left-over half.

    ``scan(deltas, temp, limit)`` skips, in array passes, at most ``limit``
    annealing steps of a frozen state that are certain rejections;
    ``deltas`` (shaped ``highs``) is each move's change of the violated
    count.  Such a step reads ``step()`` and one ``random()``: from place
    0, two steps read five words, with codes at places 0 and 2.  The scan
    stops before the first step whose code is -1 or whose uniform is <=
    its bound ``exp(-max(delta, 0) / max(temp, 1e-9))``, with a slack of
    1e-9 that covers ``np.exp`` against ``math.exp`` (a delta <= 0 has
    bound 1, above every uniform).  It returns the steps skipped and the
    temperature after them, multiplied in order as ``temp *= 0.999`` is."""
    M, (a, b, c), state = 0xFFFFFFFF, highs, bitgen.state
    buf = np.array([state["uinteger"] << 32] * state["has_uint32"], np.uint64)
    at = place = len(buf)  # the next word; half of word at - place is left
    n = listed = 0  # the words drawn, and listed for the one-step readers
    table = words = codes = None  # the block's codes, and the block as lists
    decode = min(highs) > 1  # else every step draws one at a time
    exact = lambda: (integers(a), integers(b), integers(c))
    moves = (list(itertools.product(range(a), range(b), range(c)))
             if a * b * c <= 1 << 16 else  # else each one on first use
             _Memo(lambda code: (code // (b * c), code // c % b, code % c)))

    def refill():  # 1024 raw words at a time, decoded once
        nonlocal buf, at, n, listed, table
        buf = np.concatenate([buf[at - place:], bitgen.random_raw(1024)])
        at, n, listed = place, len(buf), 0
        table = decode and _decoded(buf, highs)

    def listing():  # the block as lists, for the one-step readers
        nonlocal words, codes, listed
        if at + 3 > n:
            refill()
        words, codes, listed = buf.tolist(), decode and table.tolist(), n

    def integers(high):
        nonlocal at, place
        while high > 1:  # Lemire: reject a low product half < 2**32 % high
            if at >= listed:
                listing()
            if place:
                m, place = (words[at - place] >> 32) * high, 0
            else:
                m, at, place = (words[at] & M) * high, at + 1, 1
            if m & M >= high or m & M >= (1 << 32) % high:
                return m >> 32
        return 0

    def random():
        nonlocal at, place
        if at + 3 > listed:
            listing()
        at, place = at + 1, place and place + 1
        return (words[at - 1] >> 11) * 2.0 ** -53

    def step():
        nonlocal at, place
        if at + 3 > listed:  # the step's words and its uniform's
            listing()
        code = codes[place][at] if place < 3 else -1
        if code < 0:
            return exact()
        if place:  # faster than one assignment from a conditional pair
            at, place = at + 1, 0
        else:
            at, place = at + 2, 1
        return moves[code]

    def scan(deltas, temp, limit):
        nonlocal at, place
        flat, done = deltas.ravel(), 0
        while done < limit and place < 3:
            if at + 3 > n:  # three words a step at most, with its uniform
                refill()
            # step t of pairs from at (3 words back after a left-over half)
            t = (lead := place > 0) + np.arange(min(limit - done, n - at) + 1)
            pos = at - 3 * lead + 5 * (t >> 1) + 3 * (t & 1)
            start, upos = 2 * (t & 1), pos + 2 - (t & 1)
            start[0] = place
            k = min(len(t) - 1, int(np.searchsorted(upos, n)))
            code = table[start[:k], pos[:k]]
            temps = np.multiply.accumulate(np.r_[temp, np.full(k, 0.999)])
            stop = (code < 0) | ((buf[upos[:k]] >> 11) * 2.0**-53 <= np.exp(
                -np.maximum(flat[code], 0) / np.maximum(temps[:k], 1e-9))
                * (1 + 1e-9))
            s = int(stop.argmax()) if stop.any() else k
            at, place, temp = int(pos[s]), int(start[s]), float(temps[s])
            done += s
            if s < k:
                break
        return done, temp
    return integers, random, step if decode else exact, scan


def _deltas(rows, masks, lists, outside, tot, add_t, guard, width):
    """The violated count after each swap (u, i, j) of the state, as an
    int64 array of shape (l, d, width): vertex u drops ``lists[u][i]`` and
    adds ``outside[masks[u]][j]``."""
    counts = []
    for old, nbrs in zip(masks, lists):
        base = tot - rows[old] + add_t
        counts += [((base + rows[old ^ (1 << drop | 1 << add)]) & guard)
                   .bit_count() for drop in nbrs for add in outside[old]]
    return np.array(counts, dtype=np.int64).reshape(len(masks), -1, width)


# Per kind: the public verifier (looked up when called) and its parameters.
_KINDS = {"and-disperser": (lambda: verify_and_disperser, ("delta", "gamma")),
          "expander": (lambda: verify_expander, ("beta",)),
          "extractor-graph": (lambda: verify_extractor_graph,
                              ("K", "eps", "alpha"))}


def search_gadget(kind: str, params: dict, seed: int = 0, *,
                  budget: int = DEFAULT_VERIFY_BUDGET,
                  attempts: int = DEFAULT_ATTEMPTS,
                  steps: int = 6000):
    """Randomized search-and-verify for a gadget meeting ``params``.

    Each attempt draws a fresh left-regular graph from the seed and
    anneals single-edge swaps against the count of violated quantifier
    subsets; a zero count is confirmed with the exhaustive verifier
    before returning.  Fully deterministic in ``seed`` (0 ... 2^128 - 1).

    The count is kept incremental: ``tot`` packs each subset's total over
    the rows (``_violation_rows``), a swap at vertex u is scored as
    ``tot - row(old mask) + row(new mask)``, and a step looks its move up
    in a block of numpy's Philox words decoded once, with an exact
    one-by-one fallback (``_raw_stream``): the trajectory is the one
    ``Generator.integers`` draws.  Once as many steps in a row as the state
    has moves were rejected, the state's count after every move is tabled
    once (``_deltas``) and ``_raw_stream``'s scan skips the steps that are
    certain rejections in array passes; the step it stops at runs as
    above, and only such a step changes the state.

    Returns
    -------
    (BipartiteGraph, Verdict, SearchRecord)
    """
    if kind not in _KINDS:
        raise InvalidInputError(f"unknown gadget kind {kind!r}")
    verifier, names = _KINDS[kind]
    for name in ("l", "r", "d", *names):
        if name not in params and name != "alpha":  # alpha defaults to 0.5
            raise InvalidInputError(f"{kind} search needs parameter {name!r}")
    for name in ("l", "r", "d"):
        if not isinstance(params[name], numbers.Integral):
            raise InvalidInputError(f"search needs integer l, r and d, got "
                                    f"{name}={params[name]!r}")
    params = dict(params, **{n: int(params[n]) for n in ("l", "r", "d")})
    l, r, d = params["l"], params["r"], params["d"]
    if l < 1 or not 1 <= d <= r or attempts < 1 or steps < 0:
        raise InvalidInputError(
            f"search needs l >= 1, 1 <= d <= r, attempts >= 1 and steps >= 0, "
            f"got l={l}, d={d}, r={r}, attempts={attempts}, steps={steps}")
    rows, add_t, guard = _violation_rows(kind, params, budget)
    outside = _Memo(lambda mask: [x for x in range(r) if not mask >> x & 1])
    # A frozen state is scanned after as many rejections in a row as it has
    # moves; integers(1) draws no word, so a high of 1 leaves it unscanned.
    moves = l * d * (r - d) if min(l, d, r - d) > 1 else None
    walk = steps if d < r else 0  # d = r leaves no swap
    exp, total_steps, scanned = math.exp, 0, 0
    for attempt in range(attempts):
        rng = _philox(seed, 0x517CC1B727220A95, attempt)
        adj = [set(int(x) for x in rng.choice(r, size=d, replace=False))
               for _ in range(l)]
        lists = [list(a) for a in adj]  # each set in its iteration order
        _, random, step, scan = _raw_stream(rng.bit_generator, (l, d, r - d))
        masks = [_mask(a) for a in adj]
        tot = sum(rows[mask] for mask in masks)
        cur, temp = ((tot + add_t) & guard).bit_count(), 2.0
        left, run, deltas = walk, 0, None
        while left and cur:
            if deltas is not None:
                n, temp = scan(deltas, temp, left)
                left, scanned = left - n, scanned + n
                if not left:
                    break
            left -= 1
            u, i, j = step()
            old = masks[u]
            drop, add = lists[u][i], outside[old][j]
            mask = old ^ (1 << drop | 1 << add)
            cand = tot - rows[old] + rows[mask]
            new = ((cand + add_t) & guard).bit_count()
            if new <= cur or random() < exp(
                    -(new - cur) / (temp if temp > 1e-9 else 1e-9)):
                cur, tot, masks[u] = new, cand, mask
                adj[u] = (adj[u] - {drop}) | {add}
                lists[u] = list(adj[u])
                run, deltas = 0, None
            else:
                run += 1
                if run == moves:
                    deltas = _deltas(rows, masks, lists, outside, tot, add_t,
                                     guard, r - d) - cur
            temp *= 0.999
        total_steps += walk - left
        if cur == 0:
            g = BipartiteGraph(l, r, d, tuple(tuple(sorted(a)) for a in adj))
            verdict = verifier()(g, **{n: params[n] for n in names
                                       if n in params}, budget=budget)
            if verdict.ok:
                return g, verdict, SearchRecord(attempt + 1, total_steps,
                                                scanned)
    raise TargetUnreachableError(
        f"no {kind} found at {params} after {attempts} attempts", attempts)
