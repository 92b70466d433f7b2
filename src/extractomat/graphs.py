"""Bipartite gadgets: AND-dispersers, expanders, extractor graphs.

Verification is exhaustive and exact (pure set counting, no floats);
subsets enumerate in lexicographic order so witnesses are reproducible.
Fractional set sizes round with a ceiling on adversarial sets, which only
makes the requirement harder, and the applied sizes are reported in the
verdict.

Search draws seeded random left-regular graphs and repairs violations
locally (re-aiming the neighborhoods that a witness exposes) until
verification passes or the attempt budget runs out; every returned graph
has been re-verified.
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
DEFAULT_REPAIRS = 400


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

    def neighbor_masks(self) -> list:
        return [_mask(nbrs) for nbrs in self.adj]

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


def _lex_subsets(n: int, k: int):
    """Size-k subsets of range(n) in lexicographic order."""
    return itertools.combinations(range(n), k)


@dataclass
class Verdict:
    ok: bool
    witness: tuple | None = None
    applied: dict = field(default_factory=dict)
    checked: int = 0
    mode: str = "exhaustive"

    def __bool__(self):
        return self.ok


def verify_and_disperser(g: BipartiteGraph, delta: float, gamma: float, *,
                         budget: int = DEFAULT_VERIFY_BUDGET) -> Verdict:
    """Every right subset of size ceil(delta*r) must fully contain the
    neighborhoods of at least ceil(gamma*l) left vertices."""
    v_size = math.ceil(delta * g.r)
    need = math.ceil(gamma * g.l)
    cost = math.comb(g.r, v_size) * g.l
    if cost > budget:
        raise BudgetExceededError(cost, budget, "AND-disperser verification")
    masks = g.neighbor_masks()
    applied = {"right_subset_size": v_size, "left_required": need}
    checked = 0
    for combo in _lex_subsets(g.r, v_size):
        vmask = _mask(combo)
        checked += 1
        inside = sum(1 for m in masks if m & ~vmask == 0)
        if inside < need:
            return Verdict(False, witness=combo, applied=applied,
                           checked=checked)
    return Verdict(True, applied=applied, checked=checked)


def verify_expander(g: BipartiteGraph, beta: float, *,
                    budget: int = DEFAULT_VERIFY_BUDGET) -> Verdict:
    """Every (U, V) with |U| = ceil(beta*l), |V| = ceil(beta*r) has an edge.

    Equivalent check: no right subset V of that size may have
    ceil(beta*l) or more left vertices avoiding it entirely.
    """
    u_size = math.ceil(beta * g.l)
    v_size = math.ceil(beta * g.r)
    if u_size < 1 or v_size < 1:
        raise InvalidInputError("beta too small: rounded set sizes must be >= 1")
    cost = math.comb(g.r, v_size) * g.l
    if cost > budget:
        raise BudgetExceededError(cost, budget, "expander verification")
    masks = g.neighbor_masks()
    applied = {"left_subset_size": u_size, "right_subset_size": v_size}
    checked = 0
    for combo in _lex_subsets(g.r, v_size):
        vmask = _mask(combo)
        checked += 1
        avoiders = [u for u, m in enumerate(masks) if m & vmask == 0]
        if len(avoiders) >= u_size:
            return Verdict(False, witness=(tuple(avoiders[:u_size]), combo),
                           applied=applied, checked=checked)
    return Verdict(True, applied=applied, checked=checked)


def verify_extractor_graph(g: BipartiteGraph, K: int, eps: float,
                           alpha: float = 0.5, *,
                           budget: int = DEFAULT_VERIFY_BUDGET) -> Verdict:
    """For every right subset T of size round(alpha*r), all but K left
    vertices see a fraction of neighbors in T within eps of alpha.

    The deviation is checked two-sided, |fraction - alpha| <= eps; that
    reading is recorded in the verdict.
    """
    t_size = round(alpha * g.r)
    cost = math.comb(g.r, t_size) * g.l
    if cost > budget:
        raise BudgetExceededError(cost, budget, "extractor-graph verification")
    masks = g.neighbor_masks()
    applied = {"t_size": t_size, "alpha": alpha, "deviation": "two-sided",
               "eps": eps, "K": K}
    checked = 0
    for combo in _lex_subsets(g.r, t_size):
        tmask = _mask(combo)
        checked += 1
        deviants = []
        for u, m in enumerate(masks):
            frac = bin(m & tmask).count("1") / g.d
            if abs(frac - alpha) > eps + 1e-12:
                deviants.append(u)
        if len(deviants) > K:
            return Verdict(False, witness=(tuple(deviants), combo),
                           applied=applied, checked=checked)
    return Verdict(True, applied=applied, checked=checked)


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

    def to_json_dict(self):
        return {"kind": self.kind, "params": self.params, "seed": self.seed,
                "attempts": self.attempts, "steps": self.steps}


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount(arr: np.ndarray) -> np.ndarray:
    a = arr.astype(np.int64)
    return _POP8[a & 0xFF] + _POP8[(a >> 8) & 0xFF] + _POP8[(a >> 16) & 0xFF]


def _subset_masks(n: int, size: int) -> np.ndarray:
    return np.array([_mask(c) for c in _lex_subsets(n, size)],
                    dtype=np.int64)


def _violation_rows(kind: str, params: dict):
    """Per-vertex 0/1 int64 rows over the quantifier subsets, memoised by
    neighbourhood mask, and the test on their column totals that marks a
    subset violated."""
    r = params["r"]
    if kind == "and-disperser":
        vmasks = _subset_masks(r, math.ceil(params["delta"] * r))
        need = math.ceil(params["gamma"] * params["l"])
        row_of = lambda mask: (mask & ~vmasks) == 0  # neighbourhood inside
        violated = lambda tot: tot < need
    elif kind == "expander":
        vmasks = _subset_masks(r, math.ceil(params["beta"] * r))
        u_size = math.ceil(params["beta"] * params["l"])
        row_of = lambda mask: (mask & vmasks) == 0  # vertex avoids it
        violated = lambda tot: tot >= u_size
    elif kind == "extractor-graph":
        alpha = params.get("alpha", 0.5)
        tmasks = _subset_masks(r, round(alpha * r))
        lo = (alpha - params["eps"]) * params["d"] - 1e-9
        hi = (alpha + params["eps"]) * params["d"] + 1e-9

        def row_of(mask):  # vertex deviates
            hits = _popcount(mask & tmasks)
            return (hits < lo) | (hits > hi)
        violated = lambda tot: tot > params["K"]
    else:
        raise InvalidInputError(f"unknown gadget kind {kind!r}")
    memo = {}

    def row(mask: int) -> np.ndarray:
        if mask not in memo:
            memo[mask] = row_of(mask).astype(np.int64)
        return memo[mask]
    return row, lambda tot: int(np.count_nonzero(violated(tot)))


def search_gadget(kind: str, params: dict, seed: int = 0, *,
                  budget: int = DEFAULT_VERIFY_BUDGET,
                  attempts: int = DEFAULT_ATTEMPTS,
                  steps: int = 6000):
    """Randomized search-and-verify for a gadget meeting ``params``.

    Each attempt draws a fresh left-regular graph from the seed and
    anneals single-edge swaps against the count of violated quantifier
    subsets; a zero count is confirmed with the exhaustive verifier
    before returning.  Fully deterministic in ``seed``.

    The count is kept incremental: an attempt holds each subset's total
    over the left vertices' rows (see ``_violation_rows``), and a swap at
    vertex u is scored as ``tot - row(old mask) + row(new mask)``, the
    new totals being kept only if the step is accepted.

    Returns
    -------
    (BipartiteGraph, Verdict, SearchRecord)
    """
    if kind == "and-disperser":
        verify = lambda g: verify_and_disperser(
            g, params["delta"], params["gamma"], budget=budget)
    elif kind == "expander":
        verify = lambda g: verify_expander(g, params["beta"], budget=budget)
    elif kind == "extractor-graph":
        verify = lambda g: verify_extractor_graph(
            g, params["K"], params["eps"], params.get("alpha", 0.5),
            budget=budget)
    else:
        raise InvalidInputError(f"unknown gadget kind {kind!r}")
    row, count_violations = _violation_rows(kind, params)
    l, r, d = params["l"], params["r"], params["d"]
    cost = math.comb(r, max(1, r // 2)) * l
    if cost > budget:
        raise BudgetExceededError(cost, budget, f"{kind} search verification")
    total_steps = 0
    for attempt in range(attempts):
        rng = np.random.default_rng(
            np.random.Philox(key=(seed + 0x517CC1B727220A95 * attempt)
                             & ((1 << 64) - 1)))
        adj = [set(int(x) for x in rng.choice(r, size=d, replace=False))
               for _ in range(l)]
        masks = [_mask(a) for a in adj]
        tot = sum(row(mask) for mask in masks)
        cur = count_violations(tot)
        temp = 2.0
        for _ in range(steps):
            if cur == 0:
                break
            total_steps += 1
            u = int(rng.integers(l))
            old = adj[u]
            drop = list(old)[int(rng.integers(d))]
            outside = [x for x in range(r) if x not in old]
            add = outside[int(rng.integers(len(outside)))]
            swapped = (old - {drop}) | {add}
            mask = masks[u] & ~(1 << drop) | 1 << add
            cand = tot - row(masks[u]) + row(mask)
            new = count_violations(cand)
            if new <= cur or rng.random() < math.exp(-(new - cur)
                                                     / max(temp, 1e-9)):
                cur, tot, adj[u], masks[u] = new, cand, swapped, mask
            temp *= 0.999
        if cur == 0:
            g = BipartiteGraph(l, r, d, tuple(tuple(sorted(a)) for a in adj))
            verdict = verify(g)
            if verdict.ok:
                record = SearchRecord(kind, dict(params), seed, attempt + 1,
                                      total_steps)
                return g, verdict, record
    raise TargetUnreachableError(
        f"no {kind} found at {params} after {attempts} attempts", attempts)
