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
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceededError, InvalidInputError,
                     TargetUnreachableError)

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
        if len(self.adj) != self.l:
            raise InvalidInputError("one neighbor list per left vertex")
        cleaned = []
        for nbrs in self.adj:
            ns = tuple(sorted(int(v) for v in nbrs))
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


def _rule(kind: str, params: dict):
    """``kind``'s property as ``(size, lo, hi, t, applied)``: on right subsets
    of ``size``, a left vertex is bad when its neighbours in the subset number
    outside ``[lo, hi)``; a subset is violated when ``t`` or more are bad."""
    l, r, d = params["l"], params["r"], params["d"]
    if kind == "and-disperser":  # good: the neighbourhood is inside
        size = math.ceil(params["delta"] * r)
        if size < 0:
            raise InvalidInputError("delta must be >= 0")
        need = math.ceil(params["gamma"] * l)
        return size, d, d + 1, l + 1 - need, {"right_subset_size": size,
                                              "left_required": need}
    if kind == "expander":  # good: the vertex does not avoid the subset
        size, t = math.ceil(params["beta"] * r), math.ceil(params["beta"] * l)
        if size < 1 or t < 1:
            raise InvalidInputError(
                "beta too small: rounded set sizes must be >= 1")
        return size, 1, d + 1, t, {"left_subset_size": t,
                                   "right_subset_size": size}
    # good: within eps of alpha, as counts (1e-9 absorbs float rounding)
    alpha, eps, K = params.get("alpha", 0.5), params["eps"], params["K"]
    size = round(alpha * r)
    if size < 0:
        raise InvalidInputError("alpha must be >= 0")
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
    kind: str
    params: dict
    seed: int
    attempts: int
    steps: int


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


def _raw_stream(bitgen):
    """numpy's ``Generator.integers(high)`` and ``.random()`` on the raw
    words of ``bitgen``: Lemire's draw on 32-bit halves, low half first (a
    half left by earlier draws comes next), and ``(word >> 11) * 2**-53``.
    ``draws(a, b, c)`` is ``integers(a), integers(b), integers(c)``, read at
    once from the block's next three halves when every high is > 1 and no
    low product half is below its high (none is rejected), else one by one."""
    M, state = 0xFFFFFFFF, bitgen.state
    half = state["uinteger"] if state["has_uint32"] else None
    more = lambda: bitgen.random_raw(256).tolist()
    words, at = more(), 0  # the words, 256 at a time; words[at] is unread

    def integers(high):
        nonlocal words, at, half
        while high > 1:  # Lemire: reject a low product half < 2**32 % high
            if half is not None:
                m, half = half * high, None
            else:
                if at == len(words):
                    words, at = more(), 0
                m, half, at = (words[at] & M) * high, words[at] >> 32, at + 1
            if m & M >= high or m & M >= (1 << 32) % high:
                return m >> 32
        return 0

    def draws(a, b, c):
        nonlocal at, half
        if a > 1 and b > 1 and c > 1 and len(words) - at > 1:
            w, x = words[at], words[at + 1]
            if half is None:  # w's halves, then x's low one
                i, j, k, h = (w & M) * a, (w >> 32) * b, (x & M) * c, x >> 32
            else:
                i, j, k, h = half * a, (w & M) * b, (w >> 32) * c, None
            if i & M >= a and j & M >= b and k & M >= c:
                at, half = at + (1 if h is None else 2), h
                return i >> 32, j >> 32, k >> 32
        return integers(a), integers(b), integers(c)

    def random():
        nonlocal words, at
        if at == len(words):
            words, at = more(), 0
        at += 1
        return (words[at - 1] >> 11) * 2.0 ** -53
    return integers, random, draws


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
    before returning.  Fully deterministic in ``seed``.

    The count is kept incremental: ``tot`` packs each subset's total over
    the rows (``_violation_rows``), a swap at vertex u is scored as
    ``tot - row(old mask) + row(new mask)``, and a step reads its three
    integers at once from the raw words of numpy's Philox ``Generator``
    with an exact one-by-one fallback (``_raw_stream``): the trajectory is
    the one ``Generator.integers`` draws.

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
    l, r, d = params["l"], params["r"], params["d"]
    if l < 1 or not 1 <= d <= r or attempts < 1 or steps < 0:
        raise InvalidInputError(
            f"search needs l >= 1, 1 <= d <= r, attempts >= 1 and steps >= 0, "
            f"got l={l}, d={d}, r={r}, attempts={attempts}, steps={steps}")
    rows, add_t, guard = _violation_rows(kind, params, budget)
    outside = _Memo(lambda mask: [x for x in range(r) if not mask >> x & 1])
    exp, total_steps = math.exp, 0
    for attempt in range(attempts):
        rng = np.random.default_rng(
            np.random.Philox(key=(seed + 0x517CC1B727220A95 * attempt)
                             & ((1 << 64) - 1)))
        adj = [set(int(x) for x in rng.choice(r, size=d, replace=False))
               for _ in range(l)]
        lists = [list(a) for a in adj]  # each set in its iteration order
        _, random, draws = _raw_stream(rng.bit_generator)
        masks = [_mask(a) for a in adj]
        tot = sum(rows[mask] for mask in masks)
        cur, temp = ((tot + add_t) & guard).bit_count(), 2.0
        for _ in range(steps if d < r else 0):  # d = r leaves no swap
            if cur == 0:
                break
            total_steps += 1
            u, i, j = draws(l, d, r - d)
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
            temp *= 0.999
        if cur == 0:
            g = BipartiteGraph(l, r, d, tuple(tuple(sorted(a)) for a in adj))
            verdict = verifier()(g, **{n: params[n] for n in names
                                       if n in params}, budget=budget)
            if verdict.ok:
                record = SearchRecord(kind, dict(params), seed, attempt + 1,
                                      total_steps)
                return g, verdict, record
    raise TargetUnreachableError(
        f"no {kind} found at {params} after {attempts} attempts", attempts)
