import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from extractomat.errors import (BudgetExceededError, InvalidInputError,
                                TargetUnreachableError)
from extractomat.graphs import (BipartiteGraph, _raw_stream, search_gadget,
                                verify_and_disperser, verify_expander,
                                verify_extractor_graph)

from helpers_naive import (naive_search_gadget, naive_violated_subsets,
                           naive_violations)


def _identity_graph(n):
    return BipartiteGraph(n, n, 1, tuple((i,) for i in range(n)))


def _complete_graph(l, r):
    return BipartiteGraph(l, r, r, tuple(tuple(range(r)) for _ in range(l)))


def test_graph_invariants():
    with pytest.raises(InvalidInputError):
        BipartiteGraph(2, 3, 2, ((0, 0), (1, 2)))  # multi-edge
    with pytest.raises(InvalidInputError):
        BipartiteGraph(2, 3, 2, ((0, 3), (1, 2)))  # out of range
    with pytest.raises(InvalidInputError):
        BipartiteGraph(3, 3, 1, ((0,), (1,)))      # wrong length


def test_identity_graph_is_disperser_for_every_delta():
    g = _identity_graph(6)
    for delta in (1 / 6, 0.5, 5 / 6):
        assert verify_and_disperser(g, delta, delta).ok


def test_complete_graph_fails_disperser():
    g = _complete_graph(4, 4)
    verdict = verify_and_disperser(g, 0.5, 0.25)
    assert not verdict.ok
    assert verdict.witness is not None
    assert len(verdict.witness) == 2  # ceil(0.5 * 4)


def test_complete_graph_is_expander_for_all_beta():
    g = _complete_graph(4, 4)
    for beta in (0.25, 0.5, 1.0):
        assert verify_expander(g, beta).ok


def test_star_graph_fails_expander_with_witness():
    # every left vertex points at right vertex 0
    g = BipartiteGraph(4, 4, 1, ((0,), (0,), (0,), (0,)))
    verdict = verify_expander(g, 0.5)
    assert not verdict.ok
    u, v = verdict.witness
    assert 0 not in v  # the violated right subset avoids vertex 0


def test_disperser_verdict_matches_naive(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(5):
        g = BipartiteGraph.random(12, 8, 2, rng)
        verdict = verify_and_disperser(g, 0.5, 0.125)
        # independent enumeration
        need = math.ceil(0.125 * 12)
        ok = True
        for V in itertools.combinations(range(8), 4):
            inside = sum(1 for nbrs in g.adj if set(nbrs) <= set(V))
            if inside < need:
                ok = False
                break
        assert verdict.ok == ok


def test_verifiers_match_naive_violations():
    # Every kind on random graphs: the verdict agrees with the naive
    # recount, and the witness is its first violated subset in
    # lexicographic order.  eps = |j/d - alpha| puts (alpha -+ eps) * d on
    # the integer j, where the window's edge decides.
    verify = {
        "and-disperser": lambda g, p: verify_and_disperser(
            g, p["delta"], p["gamma"]),
        "expander": lambda g, p: verify_expander(g, p["beta"]),
        "extractor-graph": lambda g, p: verify_extractor_graph(
            g, p["K"], p["eps"], p["alpha"]),
    }
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(60):
        r = int(rng.integers(2, 8))
        l, d = int(rng.integers(1, 9)), int(rng.integers(1, r + 1))
        g = BipartiteGraph.random(l, r, d, rng)
        adj = [set(a) for a in g.adj]
        alpha = float(rng.choice([0.25, 0.3, 0.5, 0.75]))
        eps = abs(int(rng.integers(0, d + 1)) / d - alpha)
        for kind, p in [
                ("and-disperser", {"delta": float(rng.choice([0.5, 0.75, 1])),
                                   "gamma": float(rng.choice([0.1, 0.5]))}),
                ("expander", {"beta": float(rng.choice([0.25, 0.4, 0.75]))}),
                ("extractor-graph", {"K": int(rng.integers(0, 3)),
                                     "eps": eps, "alpha": alpha}),
                ("extractor-graph", {"K": int(rng.integers(0, 3)),
                                     "eps": float(rng.choice([0.1, 0.2])),
                                     "alpha": alpha})]:
            params = {"l": l, "r": r, "d": d, **p}
            verdict = verify[kind](g, p)
            assert verdict.ok == (naive_violations(kind, params, adj) == 0)
            first = next(naive_violated_subsets(kind, params, adj), None)
            seen.add((kind, verdict.ok))
            if first is None:
                continue
            subsets = list(itertools.combinations(range(r), len(first)))
            assert verdict.checked == subsets.index(first) + 1
            S = set(first)
            if kind == "and-disperser":
                assert verdict.witness == first
            elif kind == "expander":
                t = math.ceil(p["beta"] * l)
                avoid = [u for u, a in enumerate(adj) if not a & S]
                assert verdict.witness == (tuple(avoid[:t]), first)
            else:
                lo, hi = ((alpha - p["eps"]) * d - 1e-9,
                          (alpha + p["eps"]) * d + 1e-9)
                dev = [u for u, a in enumerate(adj)
                       if not lo <= len(a & S) <= hi]
                assert verdict.witness == (tuple(dev), first)
    assert seen == {(kind, ok) for kind in verify for ok in (True, False)}


def test_budget_exceeded():
    g = _complete_graph(10, 20)
    with pytest.raises(BudgetExceededError):
        verify_and_disperser(g, 0.5, 0.5, budget=10)


def test_rounding_is_reported():
    g = _identity_graph(5)
    verdict = verify_and_disperser(g, 0.5, 0.3)
    assert verdict.applied["right_subset_size"] == 3  # ceil(2.5)
    assert verdict.applied["left_required"] == 2      # ceil(1.5)


def test_extractor_graph_two_sided_deviation_recorded():
    g = _complete_graph(6, 4)
    verdict = verify_extractor_graph(g, 0, 0.51, alpha=0.5)
    assert verdict.ok
    assert verdict.applied["deviation"] == "two-sided"


def test_search_outputs_reverify():
    g, verdict, rec = search_gadget(
        "and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                          "gamma": 0.125}, seed=3)
    assert verdict.ok
    assert verify_and_disperser(g, 0.5, 0.125).ok
    assert rec.attempts >= 1


def test_search_is_deterministic_in_seed():
    params = {"l": 10, "r": 10, "d": 4, "beta": 0.3}
    g1, _, r1 = search_gadget("expander", params, seed=11)
    g2, _, r2 = search_gadget("expander", params, seed=11)
    assert g1.adj == g2.adj
    assert r1.steps == r2.steps


def test_search_seeds_are_not_masked_to_64_bits():
    # seed -1 searched as 2^64 - 1 did, and 2^64 + 7 as 7 did
    params = {"l": 10, "r": 10, "d": 4, "beta": 0.3}
    with pytest.raises(InvalidInputError, match="not -1$"):
        search_gadget("expander", params, seed=-1)
    seven = search_gadget("expander", params, seed=7)
    high = search_gadget("expander", params, seed=(1 << 64) + 7)
    assert (seven[0].adj, seven[2].steps) != (high[0].adj, high[2].steps)


def test_search_trivially_satisfiable_first_draw():
    # beta = 1 needs an edge between the full sets; any graph qualifies
    g, verdict, rec = search_gadget(
        "expander", {"l": 4, "r": 4, "d": 1, "beta": 1.0}, seed=0)
    assert verdict.ok and rec.steps == 0


def test_search_unreachable():
    # an AND-disperser with d > delta*r cannot exist
    with pytest.raises(TargetUnreachableError):
        search_gadget("and-disperser",
                      {"l": 4, "r": 4, "d": 3, "delta": 0.25, "gamma": 0.25},
                      seed=0, attempts=2, steps=50)


# The benchmark's two searches at their seeds, then ten seeds per kind on
# smaller instances with short budgets: restarts and unreachable targets.
SEARCHES = [
    ("and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                       "gamma": 0.125}, [4], {}),
    ("expander", {"l": 10, "r": 10, "d": 4, "beta": 0.3}, [7], {}),
    ("and-disperser", {"l": 8, "r": 6, "d": 2, "delta": 0.5, "gamma": 0.125},
     range(10), {"attempts": 3, "steps": 30}),
    # seeds past 2^64 keep their high bits: 2^64 + 3 succeeds in its
    # first attempt, 2^64 + 7 never, unlike 3 and 7
    ("expander", {"l": 8, "r": 8, "d": 3, "beta": 0.375},
     [*range(10), (1 << 64) + 3, (1 << 64) + 7], {"attempts": 4, "steps": 300}),
    ("extractor-graph", {"l": 16, "r": 8, "d": 4, "K": 1, "eps": 0.25,
                         "alpha": 0.5}, range(10), {"attempts": 3, "steps": 60}),
    # r > 8: the order of a neighbour set depends on its insertion order.
    # An odd l leaves half of a random word unused after the initial draw.
    ("expander", {"l": 9, "r": 10, "d": 3, "beta": 0.4}, range(10),
     {"attempts": 3, "steps": 100}),
    # d = 1: the dropped neighbour is drawn from integers(1), which draws
    # no random word
    ("and-disperser", {"l": 9, "r": 8, "d": 1, "delta": 0.5, "gamma": 0.3},
     range(10), {"attempts": 3, "steps": 60}),
    # Attempts that freeze, so that the scan skips their rejected steps and
    # stops where a step may be accepted: unreachable targets, short
    # stretches at high temperatures, and a target found after two attempts
    # froze.
    ("and-disperser", {"l": 8, "r": 6, "d": 2, "delta": 0.5, "gamma": 0.25},
     range(4), {"attempts": 2, "steps": 1500}),
    ("extractor-graph", {"l": 2, "r": 4, "d": 2, "K": 0, "eps": 0.25,
                         "alpha": 0.5}, range(10),
     {"attempts": 2, "steps": 300}),
    ("expander", {"l": 2, "r": 8, "d": 3, "beta": 0.25}, range(10),
     {"attempts": 2, "steps": 300}),
    ("and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                       "gamma": 0.125}, [5], {"attempts": 3, "steps": 2500}),
]


@pytest.mark.parametrize("kind,params,seeds,budget", SEARCHES)
def test_search_trajectory_matches_full_recount(kind, params, seeds, budget):
    for seed in seeds:
        expect = naive_search_gadget(kind, params, seed, **budget)
        try:
            g, verdict, rec = search_gadget(kind, params, seed, **budget)
        except TargetUnreachableError:
            assert expect is None, (kind, seed)
            continue
        assert verdict.ok
        assert (g.adj, rec.attempts, rec.steps) == expect, (kind, seed)


def test_raw_stream_matches_generator():
    # Long interleaved integers/random/step sequences after a choice()
    # prefix, which leaves half of a 64-bit word unused; on odd keys one
    # more draw uses that half up.  High 2**31 + 1 rejects about half its
    # draws; a step is the three draws of (12, 3, 7), and random() may run
    # several times in a row while a half is left over.
    highs = [1, 2, 3, 7, 12, 2 ** 31 + 1]
    left_over = set()
    for key in range(6):
        ref, own = (np.random.default_rng(np.random.Philox(key=key))
                    for _ in range(2))
        for rng in (ref, own):
            rng.choice(10, size=3, replace=False)
            if key % 2:
                rng.integers(7)
        left_over.add(own.bit_generator.state["has_uint32"])
        integers, random, step, _ = _raw_stream(own.bit_generator, (12, 3, 7))
        plan = np.random.default_rng(100 + key).integers(len(highs) + 2,
                                                         size=3000)
        for op in plan.tolist():
            if op == len(highs):
                assert random() == ref.random()
            elif op > len(highs):
                assert step() == tuple(int(ref.integers(h))
                                       for h in (12, 3, 7))
            else:
                assert integers(highs[op]) == int(ref.integers(highs[op]))
    assert left_over == {0, 1}


class _Words:
    """A bit generator stand-in that serves fixed raw words in order."""

    def __init__(self, words, leftover=None):
        self.words, self.blocks = [int(w) for w in words], []
        self.state = {"has_uint32": int(leftover is not None),
                      "uinteger": leftover or 0}

    def random_raw(self, size):
        self.blocks.append(size)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def _set_half(words, q, value):
    # half q of the stream: the low half of word q // 2 when q is even
    shift = 32 * (q % 2)
    words[q // 2] = words[q // 2] & ~(0xFFFFFFFF << shift) | value << shift


@pytest.mark.parametrize("leftover,zero,skip,highs", [
    # a zero half at each place of a step, without and with a left-over
    (None, 0, 0, (12, 3, 7)), (None, 1, 0, (12, 3, 7)),
    (None, 2, 0, (12, 3, 7)), (5, 0, 0, (12, 3, 7)),
    (5, 1, 0, (12, 3, 7)), (5, 2, 0, (12, 3, 7)),
    (5, None, 0, (12, 3, 7)), (None, None, 0, (9, 1, 7)),
    # a step that starts 2 or 1 halves before a block of words ends
    (None, None, 2, (12, 3, 7)), (None, 2, 2, (12, 3, 7)),
    (None, None, 1, (12, 3, 7)), (None, 1, 1, (12, 3, 7)),
])
def test_step_draws_match_one_at_a_time(leftover, zero, skip, highs):
    # A zero half is rejected by 12, 3 and 7 alike (2**32 % high > 0);
    # half 2**32 // 12 + 1 passes 12 with a low product half of 8, below
    # 12, so the step draws one at a time there too.  Three decoded steps
    # against three exact draws each on the same raw words, then a few more
    # draws on both, which agree only if both readers end in the same place.
    words = np.random.default_rng(5).integers(
        0, 2 ** 64, size=6000, dtype=np.uint64).tolist()
    lead = leftover is not None  # the step's first half is the left-over
    start = 0
    if skip:
        probe = _Words(words)
        _raw_stream(probe, highs)[0](2)  # a first draw reads a block
        start = 2 * probe.blocks[0] - skip
    if zero == 0 and lead:
        leftover = 0
    elif zero is not None:
        _set_half(words, start + zero - lead, 0)
    _set_half(words, start + 3 - lead, 2 ** 32 // 12 + 1)  # the next step
    fast, exact = (_raw_stream(_Words(words, leftover), highs)
                   for _ in range(2))
    for integers, *_ in (fast, exact):
        for _ in range(start):
            integers(2)  # one half each
    step, integers = fast[2], exact[0]
    for _ in range(3):
        assert step() == tuple(integers(h) for h in highs)
    after = lambda s: [s[0](9), s[1](), s[0](5), s[0](2 ** 31 + 1), s[1]()]
    assert after(fast) == after(exact)


@pytest.mark.parametrize("place", [0, 1, 2])
def test_step_reads_across_a_block_end(place):
    # A decoded step at each start place, on each of the last four words
    # of the first block: a refill must keep the words whose halves the
    # step still reads.  Place 1 takes the left-over high half of the word
    # before, place 2 that of the word before a uniform.
    highs = (12, 3, 7)
    words = np.random.default_rng(6).integers(
        0, 2 ** 64, size=6000, dtype=np.uint64).tolist()
    probe = _Words(words)
    _raw_stream(probe, highs)[0](2)  # a first draw reads a block
    for end in range(1, 5):
        fast, exact = (_raw_stream(_Words(words), highs) for _ in range(2))
        for integers, *_ in (fast, exact):
            for _ in range(2 * (probe.blocks[0] - end) - (0, 1, 3)[place]):
                integers(2)  # one half each
        if place == 2:
            assert fast[1]() == exact[1]()
        assert fast[2]() == tuple(exact[0](h) for h in highs)
        after = lambda s: [s[1](), s[0](9), s[1](), s[0](5), s[0](2)]
        assert after(fast) == after(exact)


@pytest.mark.parametrize("leftover", [None, 5])
def test_uniforms_drawn_while_a_half_is_pending(leftover):
    # A uniform takes the next whole word and leaves a left-over half for
    # the next draw: after a step from place 0 it moves the half to place
    # 2, and one or two more uniforms move it further back, where the step
    # draws one at a time.  A generator's own left-over half starts at
    # place 1.
    words = np.random.default_rng(8).integers(
        0, 2 ** 64, size=3000, dtype=np.uint64).tolist()
    for uniforms in (1, 2, 3):
        fast, exact = (_raw_stream(_Words(words, leftover), (12, 3, 7))
                       for _ in range(2))
        for _ in range(40):
            assert fast[2]() == tuple(exact[0](h) for h in (12, 3, 7))
            for _ in range(uniforms):
                assert fast[1]() == exact[1]()
        after = lambda s: [s[0](9), s[1](), s[0](5), s[0](2 ** 31 + 1)]
        assert after(fast) == after(exact)


def _step_places(nsteps, at, left):
    # Where each step of a frozen stretch reads: three halves, a left-over
    # one first, as (word, shift), or "stub" for the stub's own left-over
    # half; then the word of its uniform.
    places = []
    for _ in range(nsteps):
        halves = []
        for _ in range(3):
            if left is None:
                halves.append((at, 0))
                left, at = (at, 32), at + 1
            else:
                halves.append(left)
                left = None
        places.append((halves, at))
        at += 1
    return places


@pytest.mark.parametrize("lead,stop,at", [
    ("stub", None, None), ("word", None, None),  # a left-over half first
    (None, 0, 700), (None, 2, 701), ("word", 1, 350),  # a rejecting half
    ("stub", 0, 0),  # the left-over half itself rejects: nothing skipped
    (None, "delta", 1030), ("stub", "delta", 5),  # a swap that is not worse
    (None, "below", 700), (None, "above", 700),  # the uniform at its bound
    ("word", "below", 333), ("word", "above", 333),
])
def test_scan_matches_one_at_a_time(lead, stop, at):
    # Every delta is 2 but that of swap (11, 2, 5), -1, and every uniform
    # is the largest, so a stretch of 1,100 steps (2,750 words, across the
    # reader's blocks of words) rejects all its steps unless step ``at`` is
    # crafted to stop it: a zero half (rejected by 12, 3 and 7 alike),
    # halves that draw swap (11, 2, 5) (all others draw below 2**31), or a
    # uniform just below or just above exp(-2 / temp).  The last swap's
    # delta is 2, so a -1 code must stop the scan by itself.
    # A scan and the exact one-at-a-time reader run the stretch side by
    # side: the steps the scan skips must be certain rejections at the same
    # temperatures, and both readers must stop on the same words.
    # The scan starts 40 words into a block, or at its start after the
    # stub's left-over half.
    highs, limit, pre = (12, 3, 7), 1100, 0 if lead == "stub" else 40
    words = (np.random.default_rng(9).integers(0, 2 ** 64, size=6000,
                                               dtype=np.uint64)
             & np.uint64(0x7FFFFFFF7FFFFFFF)).tolist()
    leftover = 5 if lead == "stub" else None
    left = {"stub": "stub", "word": (pre, 32), None: None}[lead]
    places = _step_places(limit + 1, pre + (lead == "word"), left)
    for _, w in places:
        words[w] = 2 ** 64 - 1

    def set_half(place, value):
        nonlocal leftover
        if place == "stub":
            leftover = value
        else:
            _set_half(words, 2 * place[0] + place[1] // 32, value)
    if stop in (0, 1, 2):
        set_half(places[at][0][stop], 0)
    elif stop == "delta":
        for place, half in zip(places[at][0], (2 ** 32 - 1, 2 ** 32 - 1,
                                               (5 << 32) // 7 + 2)):
            set_half(place, half)
    elif stop is not None:
        temp = 2.0
        for _ in range(at):
            temp *= 0.999
        bound = math.exp(-2 / temp) * 2 ** 53
        q = math.ceil(bound) - 1 if stop == "below" else math.floor(bound) + 1
        words[places[at][1]] = q << 11
    delta = np.full(highs, 2, dtype=np.int64)
    delta[11, 2, 5] = -1
    fast, exact = (_raw_stream(_Words(words, leftover), highs)
                   for _ in range(2))
    for integers, *_ in (fast, exact):
        for _ in range(2 * pre + (lead == "word")):
            integers(2)  # one half each
    _, random, step, scan = fast
    integers, exact_random = exact[:2]
    done, temp, stops = 0, 2.0, []
    while done < limit:
        n, scan_temp = scan(delta, temp, limit - done)
        for _ in range(n):
            gap = int(delta[tuple(integers(h) for h in highs)])
            assert gap > 0 and exact_random() >= math.exp(-gap / temp)
            temp *= 0.999
        assert scan_temp == temp
        done += n
        if done == limit:
            break
        stops.append(done)  # the stopping step, as the search runs it
        move = step()
        assert move == tuple(integers(h) for h in highs)
        gap = int(delta[move])
        if gap > 0:
            uniform = random()
            assert uniform == exact_random()
            if done == at and stop in ("below", "above"):
                assert (uniform < math.exp(-gap / temp)) == (stop == "below")
        done, temp = done + 1, temp * 0.999
    assert stops[:1] == ([] if stop is None else [at])
    after = lambda s: [s[0](9), s[1](), s[0](5), s[0](2 ** 31 + 1), s[1]()]
    assert after(fast) == after(exact)


def test_search_records_the_scanned_steps():
    # The benchmark's searches: the AND-disperser's first two attempts
    # freeze and the scan skips 8,574 of its 14,140 steps; the expander's
    # longest run of rejections (211) is shorter than its 240 moves.
    for kind, params, seed, expect in [
            ("and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                               "gamma": 0.125}, 4, (3, 14_140, 8_574)),
            ("expander", {"l": 10, "r": 10, "d": 4, "beta": 0.3}, 7,
             (1, 2_913, 0))]:
        _, _, rec = search_gadget(kind, params, seed)
        assert (rec.attempts, rec.steps, rec.scanned) == expect


def test_search_holds_only_the_moves_it_draws():
    # Subsets of size 1 keep the verification charge at r * l = 3,200,
    # but the state has 8 * 200 * 200 = 320,000 moves: a search of 50
    # steps must not table them all (about 47 MB as Python tuples).
    params = {"l": 8, "r": 400, "d": 200, "beta": 1 / 400}
    tracemalloc.start()
    try:
        with pytest.raises(TargetUnreachableError):
            search_gadget("expander", params, attempts=1, steps=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    # the moves it draws are those of Generator.integers
    ref, own = (np.random.default_rng(np.random.Philox(key=1))
                for _ in range(2))
    step = _raw_stream(own.bit_generator, (8, 200, 200))[2]
    for _ in range(300):
        assert step() == tuple(int(ref.integers(h)) for h in (8, 200, 200))


def test_search_budget_charges_the_scored_subsets():
    # Quantifier sets of size ceil(24/12) = 2: C(24, 2) * 40 = 11,040,
    # what the verifier charges; not C(24, 12) * 40 = 108,166,240.
    params = {"l": 40, "r": 24, "d": 2, "delta": 1 / 12, "gamma": 0.025}
    with pytest.raises(BudgetExceededError) as search_err:
        search_gadget("and-disperser", params, budget=11_039)
    g = BipartiteGraph.random(40, 24, 2, np.random.default_rng(0))
    with pytest.raises(BudgetExceededError) as verify_err:
        verify_and_disperser(g, 1 / 12, 0.025, budget=11_039)
    assert search_err.value.required == verify_err.value.required == 11_040
    assert math.comb(24, 12) * 40 == 108_166_240 > 50_000_000
    with pytest.raises(TargetUnreachableError):  # not refused
        search_gadget("and-disperser", params, attempts=1, steps=5)
    # refused before any subset is listed: C(60, 30) * 4 ~ 4.7e17
    with pytest.raises(BudgetExceededError):
        search_gadget("expander", {"l": 4, "r": 60, "d": 2, "beta": 0.5})


@pytest.mark.parametrize("kind,params,name", [
    ("expander", {"l": 4, "r": 4, "d": 5, "beta": 0.5}, "d=5"),
    ("expander", {"l": 4, "r": 4, "d": 0, "beta": 0.5}, "d=0"),
    ("expander", {"l": 0, "r": 4, "d": 2, "beta": 0.5}, "l=0"),
    ("expander", {"l": 4, "r": 4, "d": 2}, "'beta'"),
    ("expander", {"r": 4, "d": 2, "beta": 0.5}, "'l'"),
    ("and-disperser", {"l": 4, "r": 4, "d": 2, "gamma": 0.5}, "'delta'"),
    ("and-disperser", {"l": 4, "r": 4, "d": 2, "delta": 0.5}, "'gamma'"),
    ("extractor-graph", {"l": 4, "r": 4, "d": 2, "eps": 0.25}, "'K'"),
    ("extractor-graph", {"l": 4, "r": 4, "d": 2, "K": 1}, "'eps'"),
    # rounded set sizes of 0: refused before any draw, as the verifier does
    ("expander", {"l": 10, "r": 10, "d": 3, "beta": 0.0}, "beta too small"),
    ("expander", {"l": 10, "r": 10, "d": 3, "beta": -0.5}, "beta too small"),
    ("extractor-graph", {"l": 2, "r": 2, "d": 1, "eps": 0.1, "K": 0,
                         "alpha": -0.5}, "alpha must be >= 0"),
    # rounded set sizes above their side: no set has them
    ("expander", {"l": 2, "r": 3, "d": 1, "beta": 1.5}, "beta too large"),
    ("and-disperser", {"l": 4, "r": 4, "d": 2, "delta": 1.5, "gamma": 0.5},
     "delta too large"),
    ("extractor-graph", {"l": 2, "r": 2, "d": 1, "eps": 0.1, "K": 0,
                         "alpha": 1.5}, "alpha too large"),
    # l, r and d must be integers
    ("expander", {"l": 10.0, "r": 10, "d": 4, "beta": 0.3}, "l=10.0"),
    ("expander", {"l": 10, "r": 10.0, "d": 4, "beta": 0.3}, "r=10.0"),
    ("expander", {"l": 10, "r": 10, "d": 4.0, "beta": 0.3}, "d=4.0"),
    ("expander", {"l": 10, "r": 10, "d": "4", "beta": 0.3}, "d='4'"),
])
def test_search_input_errors_are_typed(kind, params, name):
    with pytest.raises(InvalidInputError, match=name):
        search_gadget(kind, params)


@pytest.mark.parametrize("budget", [{"attempts": 0}, {"attempts": -1},
                                    {"attempts": 1, "steps": -5}])
def test_search_empty_budget_refused(budget):
    # Refused as input, not reported unreachable after no attempt or step.
    params = {"l": 10, "r": 10, "d": 4, "beta": 0.3}
    with pytest.raises(InvalidInputError, match="attempts >= 1 and steps"):
        search_gadget("expander", params, 7, **budget)
    # steps=0 stays allowed: an attempt checks its first draw only
    g, verdict, rec = search_gadget(
        "expander", {"l": 4, "r": 4, "d": 1, "beta": 1.0}, attempts=1, steps=0)
    assert verdict.ok and (rec.attempts, rec.steps) == (1, 0)


def test_negative_subset_sizes_refused():
    g = _identity_graph(2)
    with pytest.raises(InvalidInputError, match="alpha must be >= 0"):
        verify_extractor_graph(g, 0, 0.1, alpha=-0.5)
    with pytest.raises(InvalidInputError, match="delta must be >= 0"):
        verify_and_disperser(g, -0.5, 0.5)


def test_subset_sizes_above_their_side_refused():
    # At the parent each passed with checked=0: no subset of that size.
    g = _identity_graph(3)
    with pytest.raises(InvalidInputError, match="beta too large"):
        verify_expander(g, 1.5)
    with pytest.raises(InvalidInputError, match="delta too large"):
        verify_and_disperser(g, 1.5, 0.5)
    with pytest.raises(InvalidInputError, match="alpha too large"):
        verify_extractor_graph(g, 0, 0.1, alpha=1.5)
    # the whole side is still a set
    assert verify_expander(g, 1.0).checked == 1
    assert verify_and_disperser(g, 1.0, 1.0).ok
    assert verify_extractor_graph(_complete_graph(3, 3), 0, 0.1,
                                  alpha=1.0).ok


def test_search_with_d_equal_r():
    # the complete graph is the only one: it passes at step 0, or every
    # attempt ends at once since no swap exists
    g, verdict, rec = search_gadget(
        "expander", {"l": 4, "r": 4, "d": 4, "beta": 0.5}, seed=0)
    assert verdict.ok and rec.steps == 0 and rec.attempts == 1
    with pytest.raises(TargetUnreachableError):
        search_gadget("and-disperser",
                      {"l": 4, "r": 4, "d": 4, "delta": 0.5, "gamma": 0.25})


def test_disperser_monotone_in_delta():
    g, _, _ = search_gadget(
        "and-disperser", {"l": 12, "r": 8, "d": 2, "delta": 0.5,
                          "gamma": 0.125}, seed=5)
    for delta in (0.5, 0.625, 0.75, 1.0):
        assert verify_and_disperser(g, delta, 0.125).ok


def test_extractor_graph_search_and_reverify():
    g, verdict, rec = search_gadget(
        "extractor-graph",
        {"l": 16, "r": 8, "d": 4, "K": 2, "eps": 0.25, "alpha": 0.5}, seed=7)
    assert verdict.ok
    assert verify_extractor_graph(g, 2, 0.25, 0.5).ok


def test_json_roundtrip():
    g = _identity_graph(4)
    g2 = BipartiteGraph.from_json(g.to_json())
    assert g2 == g


def test_from_json_refuses_a_missing_key():
    doc = json.loads(_identity_graph(4).to_json())
    for key in doc:
        broken = json.dumps({k: v for k, v in doc.items() if k != key})
        with pytest.raises(InvalidInputError, match=f"lacks {key}$"):
            BipartiteGraph.from_json(broken)
    with pytest.raises(InvalidInputError, match="lacks l, r, d, adj"):
        BipartiteGraph.from_json("[]")


def test_graph_refuses_non_integral_sizes_and_indices():
    # At the parent the first came back with neighbour 1 and the second
    # was built, then failed in the verifier with a bare TypeError.
    with pytest.raises(InvalidInputError, match=r"integers, got \(1\.7,\)"):
        BipartiteGraph.from_json('{"l": 2, "r": 3, "d": 1, "adj": [[0], [1.7]]}')
    with pytest.raises(InvalidInputError, match="l must be an integer"):
        BipartiteGraph(2.0, 3.0, 1, ((0,), (1,)))
    with pytest.raises(InvalidInputError, match="d must be an integer"):
        BipartiteGraph.from_json('{"l": 2, "r": 3, "d": 1.0, "adj": [[0], [1]]}')
    # numpy integers are integers, and come out as ints
    g = BipartiteGraph(np.int64(2), 3, 1, ((np.int64(0),), (1,)))
    assert (g.l, g.adj) == (2, ((0,), (1,))) and type(g.l) is int
    assert BipartiteGraph.from_json(g.to_json()) == g


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("verify,name", [
    (lambda g, x: verify_expander(g, x), "beta"),
    (lambda g, x: verify_and_disperser(g, x, 0.5), "delta"),
    (lambda g, x: verify_and_disperser(g, 0.5, x), "gamma"),
    (lambda g, x: verify_extractor_graph(g, 0, 0.1, alpha=x), "alpha"),
    (lambda g, x: verify_extractor_graph(g, 0, x), "eps"),
    # a NaN K passed every graph at the parent: no count reaches NaN
    (lambda g, x: verify_extractor_graph(g, x, 0.1), "K"),
])
def test_verifiers_refuse_non_finite_fractions(verify, name, value):
    with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
        verify(_identity_graph(4), value)


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("kind,params,name", [
    ("expander", {"beta": None}, "beta"),
    ("and-disperser", {"delta": None, "gamma": 0.5}, "delta"),
    ("and-disperser", {"delta": 0.5, "gamma": None}, "gamma"),
    ("extractor-graph", {"K": 1, "eps": 0.25, "alpha": None}, "alpha"),
    ("extractor-graph", {"K": 1, "eps": None}, "eps"),
    ("extractor-graph", {"K": None, "eps": 0.25}, "K"),
])
def test_search_refuses_non_finite_fractions(kind, params, name, value):
    params = {"l": 4, "r": 4, "d": 2, **params, name: value}
    with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
        search_gadget(kind, params)
