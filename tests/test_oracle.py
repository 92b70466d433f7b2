import functools
import itertools
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from extractomat import certify
from extractomat import oracle as oracle_mod
from extractomat.dist import JointDistribution, excess_over_uniform, row_ids
from extractomat.errors import (BudgetExceededError, InvalidInputError,
                                SizeLimitError)
from extractomat.extractors import (deor_handle, ip_handle, table_handle,
                                    toeplitz_handle)
from extractomat.leakage import LeakageScenario
from extractomat.oracle import (check_lemma, exact_distance, mc_distance_pairs,
                                worst_case_error_2source,
                                worst_case_error_block_general,
                                worst_case_error_leaked,
                                worst_case_error_multi,
                                worst_case_error_seeded)
from extractomat.sources import FlatSource

from helpers_naive import (flat_supports, naive_bootstrap_ci,
                           naive_dense_ids, naive_instance_error,
                           naive_lemma_condition, naive_plugin_estimate,
                           naive_sample_supports, naive_sampled_2source,
                           naive_sampled_leaked_2source, naive_sampled_seeded,
                           naive_tv_from_uniform, naive_worst_2source,
                           naive_worst_block_general,
                           naive_worst_leaked_2source,
                           naive_worst_leaked_seeded, naive_worst_multi,
                           naive_worst_seeded, naive_xor_lemma, parity,
                           naive_gl_group, naive_gl_invariant,
                           naive_gl_orbits)


def _identity_2source(n):
    # "extractor" that copies its first input; worst case has closed form
    table = np.repeat(np.arange(1 << n, dtype=np.uint32), 1 << n)
    return table_handle("copy", "2-source", (n, n), n, table)


# ----------------------------------------------------------------------
# two-source oracle
# ----------------------------------------------------------------------

def test_identity_extractor_closed_form():
    # flat k-source vs uniform: distance 1 - 2^(k-n)
    h = _identity_2source(3)
    for k in (0, 1, 2):
        rep = worst_case_error_2source(h, k, 1, None)
        assert rep.error == 1 - Fraction(1 << k, 8)


def test_full_entropy_single_pair():
    h = ip_handle(3)
    rep = worst_case_error_2source(h, 3, 3, None)
    # only one flat pair: direct computation of the output bias
    ones = int(h.table().sum())
    expect = Fraction(abs(ones * 2 - 64), 128)
    assert rep.error == expect
    assert rep.enumerated == 1


# frozen by the naive oracle in helpers_naive (see scripts in test body)
IP3_MARGINAL = Fraction(5, 16)
IP3_STRONG0 = Fraction(5, 16)
DEOR3_M2_MARGINAL = Fraction(1, 2)
DEOR4_M2_MARGINAL = Fraction(5, 16)  # frozen from the library's first run


@pytest.mark.slow
def test_deor_4_multibit_within_shifted_ip_bound():
    # the cyclic-shift family meets the two-source bound at (4; 3, 3)
    rep = worst_case_error_2source(deor_handle(4, 2), 3, 3, None, workers=4)
    assert rep.error == DEOR4_M2_MARGINAL
    assert float(rep.error) <= 2 ** (-(3 + 3 + 1 - 4 - 2) / 2)


def test_ip_small_matches_naive_frozen():
    h = ip_handle(3)
    assert worst_case_error_2source(h, 2, 2, None).error == IP3_MARGINAL
    assert worst_case_error_2source(h, 2, 2, 0).error == IP3_STRONG0
    assert worst_case_error_2source(h, 2, 2, 1).error == IP3_STRONG0


def test_naive_oracle_agreement_on_random_table():
    rng = np.random.default_rng(9)
    table = rng.integers(0, 4, size=64, dtype=np.uint32)
    h = table_handle("r", "2-source", (3, 3), 2, table)
    fn = lambda x, y: int(table[(x << 3) | y])
    for strong in (None, 0, 1):
        lib = worst_case_error_2source(h, 1, 1, strong).error
        ref = naive_worst_2source(fn, 3, 3, 2, 1, 1, strong)
        assert lib == ref


def test_deor_multibit_matches_naive_frozen():
    h = deor_handle(3, 2)
    assert worst_case_error_2source(h, 2, 2, None).error == DEOR3_M2_MARGINAL


def test_workers_do_not_change_the_answer():
    h = ip_handle(3)
    serial = worst_case_error_2source(h, 2, 2, None, workers=1)
    parallel = worst_case_error_2source(h, 2, 2, None, workers=3)
    assert serial.error == parallel.error
    assert serial.witness == parallel.witness


def test_monotone_in_k():
    h = deor_handle(4, 2)
    errs = [worst_case_error_2source(h, k, k, None).error for k in (1, 2, 3, 4)]
    assert all(errs[i] >= errs[i + 1] for i in range(3))


def test_budget_exceeded_reports_required():
    # The budget counts the candidates the kernel scores: per support of
    # the enumerated input (X2, X1 when X2 is revealed) one top-K1 pick
    # if strong, else the 2^(2^m) - 2 output events where they are fewer
    # than the S1 supports, else every S1 support.  The inner product's
    # table with one entry flipped lacks its GL(4,2) symmetry, so every
    # support is enumerated:
    ip = ip_handle(4)
    t = ip.table().copy()
    t[0x5a] ^= 1
    h = table_handle("ip-flipped", "2-source", (4, 4), 1, t)
    with pytest.raises(BudgetExceededError) as exc:
        worst_case_error_2source(h, 2, 2, None, budget=10)
    assert exc.value.required == math.comb(16, 4) * 2
    m3, _ = _random_table(np.random.default_rng(55), (3, 3), 3)
    for h, strong, kernel, count, plain in (
            (h, None, "events", math.comb(16, 4) * 2, None),
            (h, 1, "events", math.comb(16, 4), None),
            (m3, None, "supports", math.comb(8, 4) * math.comb(8, 4), None),
            # the inner product: 7 supports of the enumerated input, and a
            # refusal states the plain count
            (ip, None, "events", 7 * 2, math.comb(16, 4) * 2),
            (ip, 1, "events", 7, math.comb(16, 4))):
        rep = worst_case_error_2source(h, 2, 2, strong, budget=count)
        assert rep.mode == "exhaustive" and rep.candidates == count
        assert rep.kernel == kernel
        assert rep.representatives == (7 if h is ip else 0)
        assert rep.enumerated == math.comb(8 if h is m3 else 16, 4)
        with pytest.raises(BudgetExceededError) as exc:
            worst_case_error_2source(h, 2, 2, strong, budget=count - 1)
        assert exc.value.required == (plain or count)
        assert worst_case_error_2source(h, 2, 2, strong, mode="auto",
                                        budget=count - 1).mode == "sampled"


def test_seeded_budget_counts_source_supports():
    # Leak-free, the seed is selected whole, so the kernel scores one
    # candidate per source support: C(8, 4) = 70 on a (3, 2) table at
    # k=2, strong or not, not 70 x 2^2 seeds.
    h, fn = _random_table(np.random.default_rng(57), (3, 2), 1, "seeded")
    for strong in (True, False):
        rep = worst_case_error_seeded(h, 2, strong, budget=70)
        assert rep.mode == "exhaustive" and rep.candidates == 70
        assert rep.error == naive_worst_seeded(fn, 3, 2, 1, 2, strong)
        with pytest.raises(BudgetExceededError) as exc:
            worst_case_error_seeded(h, 2, strong, budget=69)
        assert exc.value.required == 70
        assert worst_case_error_seeded(h, 2, strong, mode="auto",
                                       budget=69).mode == "sampled"


def test_budgets_equal_the_candidates_scored():
    # An exhaustive run fits a budget of exactly the candidates it scores
    # and is refused one below, with that count as required: two-source
    # marginal and strong on either input, seeded strong and marginal
    # with b = 0, 1, 2 (map-free where that scores fewer).
    rng, mapfree = np.random.default_rng(58), 0
    for trial in range(40):
        (n, d), m = ((2, 2), (2, 3), (3, 2), (3, 1))[trial % 4], 1 + trial % 3 // 2
        two, _ = _random_table(rng, (n, d), m)
        seeded, _ = _random_table(rng, (n, d), m, "seeded")
        k1, k2 = int(rng.integers(0, n + 1)), int(rng.integers(0, d + 1))
        calls = [functools.partial(worst_case_error_2source, two, k1, k2, s)
                 for s in (None, 0, 1)]
        calls += [functools.partial(worst_case_error_leaked, seeded, (k1, d),
                                    b, strong=s)
                  for s in (True, False) for b in (0, 1, 2)]
        for call in calls:
            count = call().candidates
            rep = call(budget=count)
            assert rep.mode == "exhaustive" and rep.candidates == count
            with pytest.raises(BudgetExceededError) as exc:
                call(budget=count - 1)
            assert exc.value.required == count
            mapfree += rep.candidates < rep.enumerated and rep.kernel == "events"
    assert mapfree


def test_non_integral_k_rejected():
    with pytest.raises(InvalidInputError):
        worst_case_error_2source(ip_handle(3), 1.5, 2, None)


@pytest.mark.parametrize("strong", [2, -1, 5])
def test_strong_index_outside_the_inputs_rejected(strong):
    h = ip_handle(3)
    for call in (lambda: worst_case_error_2source(h, 2, 2, strong),
                 lambda: worst_case_error_leaked(h, (2, 2), 0, strong=strong),
                 lambda: worst_case_error_leaked(h, (2, 2), 1, strong=strong)):
        with pytest.raises(InvalidInputError, match="strong"):
            call()


def test_entropy_levels_outside_the_input_width_rejected():
    # A (1,1,1)-bit table and a (1,1)-bit one: K = 2^k > 2^width would leave
    # an empty source class, and k < 0 a fractional support size.
    h3 = table_handle("w3", "t-source", (1, 1, 1), 1, np.arange(8) % 2)
    h2 = table_handle("w2", "2-source", (1, 1), 1, np.arange(4) % 2)
    hs = table_handle("ws", "seeded", (1, 1), 1, np.arange(4) % 2)
    calls = [
        lambda: worst_case_error_block_general(h3, (1, 2, 1)),
        lambda: worst_case_error_multi(h3, (1, 2, 1)),
        lambda: worst_case_error_multi(h3, (1, 1, -1)),
        lambda: worst_case_error_2source(h2, -1, 1),
        lambda: worst_case_error_2source(h2, 2, 1, 0),
        lambda: worst_case_error_leaked(h2, (1, 2), 1),
        lambda: worst_case_error_leaked(h2, (1, 1), -1),
        lambda: worst_case_error_leaked(hs, (2, 1), 1),
        lambda: worst_case_error_seeded(hs, -1),
        lambda: worst_case_error_multi(h3, (1, 1, 1), b=-1),
        # fewer entropy levels than inputs
        lambda: worst_case_error_multi(h3, (1, 1)),
        lambda: worst_case_error_block_general(h3, (1, 1)),
        lambda: worst_case_error_leaked(ip_handle(2), (1,), 1),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError):
            call()
    # the edges 0 and width stay valid; the tables output the last input
    assert worst_case_error_2source(h2, 0, 1).error == 0
    assert worst_case_error_2source(h2, 1, 0).error == Fraction(1, 2)
    assert worst_case_error_block_general(h3, (1, 1, 0)).error == Fraction(1, 2)


def test_sampled_mode_lower_bounds_exhaustive():
    h = deor_handle(3, 2)
    exact = worst_case_error_2source(h, 1, 1, None).error
    sampled = worst_case_error_2source(h, 1, 1, None, mode="sampled",
                                       samples=80, seed=4)
    assert sampled.mode == "sampled"
    assert sampled.error <= float(exact) + 1e-12


# ----------------------------------------------------------------------
# seeded oracle
# ----------------------------------------------------------------------

TOEPLITZ_4_2_STRONG = Fraction(3, 16)  # frozen via the naive seeded oracle


def test_toeplitz_4_2_frozen_and_bounded():
    h = toeplitz_handle(4, 1)
    rep = worst_case_error_seeded(h, 2, strong=True)
    assert rep.error == TOEPLITZ_4_2_STRONG
    assert float(rep.error) <= 0.5 * 2 ** -0.5


def test_seeded_naive_agreement_random_table():
    rng = np.random.default_rng(12)
    table = rng.integers(0, 2, size=32, dtype=np.uint32)
    h = table_handle("s", "seeded", (3, 2), 1, table)
    fn = lambda x, s: int(table[(x << 2) | s])
    for strong in (True, False):
        lib = worst_case_error_seeded(h, 1, strong=strong).error
        assert lib == naive_worst_seeded(fn, 3, 2, 1, 1, strong)


def test_seeded_full_entropy_is_direct():
    h = toeplitz_handle(3, 1)
    rep = worst_case_error_seeded(h, 3, strong=True)
    assert rep.enumerated == 1


def test_consistency_2source_vs_seeded_style():
    # at k = n both entry points see the same single flat pair
    rng = np.random.default_rng(2)
    table = rng.integers(0, 2, size=32, dtype=np.uint32)
    h2 = table_handle("c2", "2-source", (3, 2), 1, table)
    hs = table_handle("cs", "seeded", (3, 2), 1, table)
    a = worst_case_error_2source(h2, 3, 2, 0).error
    b = worst_case_error_seeded(hs, 3, strong=True).error
    # conditioning on x vs averaging over the seed are different shapes;
    # but the non-strong marginals coincide exactly
    am = worst_case_error_2source(h2, 3, 2, None).error
    bm = worst_case_error_seeded(hs, 3, strong=False).error
    assert am == bm


# ----------------------------------------------------------------------
# leakage families
# ----------------------------------------------------------------------

def test_leaked_b0_degenerates_to_plain():
    h = ip_handle(3)
    plain = worst_case_error_2source(h, 2, 2, 0).error
    leaked = worst_case_error_leaked(h, (2, 2), 0, strong=0).error
    assert plain == leaked


def test_leak_from_conditioned_input_changes_nothing():
    h = ip_handle(3)
    plain = worst_case_error_2source(h, 2, 2, 0).error
    rep = worst_case_error_leaked(h, (2, 2), 1, strong=0, leak_sources=[0])
    assert rep.error == plain


def test_leaked_projection_maps_exact():
    # full-entropy source, leak = one chosen output bit of the source
    rng = np.random.default_rng(21)
    table = rng.integers(0, 2, size=32, dtype=np.uint32)
    h = table_handle("lk", "seeded", (3, 2), 1, table)
    maps = [np.array([(x >> b) & 1 for x in range(8)], dtype=np.uint8)
            for b in range(3)]
    rep = worst_case_error_leaked(h, (3, 2), 1, strong=True, maps=maps)
    # independent check: exact joint with each map, keep the max
    best = Fraction(0)
    for f in maps:
        cells = {}
        for x in range(8):
            for s in range(4):
                key = (int(table[(x << 2) | s]), (s, int(f[x])))
                cells[key] = cells.get(key, 0) + 1
        from helpers_naive import naive_tv_from_uniform
        best = max(best, naive_tv_from_uniform(cells, 32, 1))
    assert rep.error == best


def test_leaked_dominates_leak_free():
    rng = np.random.default_rng(3)
    table = rng.integers(0, 2, size=16, dtype=np.uint32)
    h = table_handle("lk2", "seeded", (2, 2), 1, table)
    free = worst_case_error_seeded(h, 1, strong=True).error
    leaked = worst_case_error_leaked(h, (1, 2), 1, strong=True).error
    assert leaked >= free


def test_map_width_cap():
    h = ip_handle(3)
    with pytest.raises(InvalidInputError):
        worst_case_error_leaked(h, (2, 2), 3, strong=0)


# ----------------------------------------------------------------------
# composite and block oracles
# ----------------------------------------------------------------------

def test_multi_matches_direct_enumeration_tiny():
    rng = np.random.default_rng(5)
    t = rng.integers(0, 2, size=64, dtype=np.uint32)
    h = table_handle("m", "t-source", (2, 2, 2), 1, t)
    rep = worst_case_error_multi(h, (1, 1, 1))
    # independent: enumerate all flat triples, strong part = (x1, x2)
    best = Fraction(0)
    for s1 in itertools.combinations(range(4), 2):
        for s2 in itertools.combinations(range(4), 2):
            for s3 in itertools.combinations(range(4), 2):
                cells = {}
                for a in s1:
                    for b in s2:
                        for c in s3:
                            z = int(t[(a << 4) | (b << 2) | c])
                            cells[(z, (a, b))] = cells.get((z, (a, b)), 0) + 1
                from helpers_naive import naive_tv_from_uniform
                best = max(best, naive_tv_from_uniform(cells, 8, 1))
    assert rep.error == best


def test_block_general_beats_independent_sources():
    # the adversarial block source can only be worse than independent ones
    rng = np.random.default_rng(6)
    t = rng.integers(0, 2, size=64, dtype=np.uint32)
    h = table_handle("bg", "t-source", (2, 2, 2), 1, t)
    block = worst_case_error_block_general(h, (1, 1, 1)).error
    indep = worst_case_error_multi(h, (1, 1, 1)).error
    assert block >= indep


def test_exact_distance_fixed_instance():
    h = ip_handle(3)
    x = FlatSource(3, [0, 1, 2, 3])
    y = FlatSource(3, [1, 3, 5, 7])
    d = exact_distance(h, [x, y], strong=(0,))
    # direct: for each x, distribution of ip over y-support
    total = Fraction(0)
    for xv in [0, 1, 2, 3]:
        ones = sum(parity(xv & yv) for yv in [1, 3, 5, 7])
        total += Fraction(abs(ones * 2 - 4), 8)
    assert d == total / 4


@pytest.mark.parametrize("strong", [(-1,), (2,), (0, 2)])
def test_exact_distance_refuses_strong_indices_outside_the_inputs(strong):
    # -1 used to reveal input 1, and 2 raised a bare IndexError
    sources = [FlatSource(3, [0, 1, 2, 3]), FlatSource(3, [1, 3, 5, 7])]
    with pytest.raises(InvalidInputError, match="strong"):
        exact_distance(ip_handle(3), sources, strong=strong)


# ----------------------------------------------------------------------
# Monte Carlo estimator
# ----------------------------------------------------------------------

def _keys(pairs, m):
    """The estimator's int64 keys of ``(z, rest)`` pairs: ``rest`` numbered
    by a dict in order of first appearance, ``id << m | z``."""
    ids = naive_dense_ids(rest for _, rest in pairs)
    return np.array([(i << m) | z for i, (z, _) in zip(ids, pairs)],
                    dtype=np.int64)


def _drawn_pairs(sample_fn, n_samples, seed):
    """``n_samples`` pairs from ``sample_fn``, all from one Philox stream
    keyed by ``seed``."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    return [sample_fn(rng) for _ in range(n_samples)]


def test_mc_null_case():
    rep = mc_distance_pairs(
        _keys(_drawn_pairs(lambda rng: (int(rng.integers(4)), 0), 4000, 1), 2),
        2, tol=0.5, seed=1)
    assert rep.estimate <= rep.half_width + 0.05


def test_mc_point_mass():
    rep = mc_distance_pairs(
        _keys(_drawn_pairs(lambda rng: (0, 0), 4000, 1), 2), 2,
        tol=0.5, seed=1)
    assert rep.estimate >= 1 - 0.25 - rep.half_width - 1e-9


def test_mc_sizing_rule():
    with pytest.raises(InvalidInputError):
        mc_distance_pairs(_keys(_drawn_pairs(lambda rng: (0, 0), 100, 0), 4),
                          4, tol=0.1)
    keys = _keys(_drawn_pairs(lambda rng: (0, 0), 100, 0), 1)
    for tol in (0.0, -0.5):  # 0 used to divide by zero in the sizing rule
        with pytest.raises(InvalidInputError, match="tolerance"):
            mc_distance_pairs(keys, 1, tol=tol)


def test_mc_calibration_against_exact():
    # empirical joint converges to the known bias of a fixed channel;
    # the true value should sit inside the 99% CI in (almost) all trials
    probs = np.array([0.4, 0.1, 0.3, 0.2])
    truth = float(np.maximum(probs - 0.25, 0).sum())
    inside = 0
    trials = 30
    for trial in range(trials):
        pairs = _drawn_pairs(lambda rng: (int(rng.choice(4, p=probs)), 0),
                             6000, trial)
        rep = mc_distance_pairs(_keys(pairs, 2), 2, tol=0.3, seed=trial)
        lo, hi = rep.ci
        # allow the plug-in bias: compare against an interval widened by
        # the estimator's small-sample bias bound 2^m/ (2 sqrt(n))
        slack = (1 << 2) / (2 * math.sqrt(rep.n))
        if lo - slack <= truth <= hi + slack:
            inside += 1
    assert inside >= trials - 1


def _random_pairs(rng, n, m, tuple_keys, rests=None):
    """``n`` pairs over ``rests`` rest keys (a few by default), ints or
    tuples, so that groups of one cell and groups of several both occur."""
    rests = int(rng.integers(1, 40)) if rests is None else rests
    out = []
    for _ in range(n):
        r = int(rng.integers(rests))
        out.append((int(rng.integers(1 << m)) if r % 3 else 0,
                    (r, "r") if tuple_keys else r))
    return out


def test_naive_percentile_is_numpys_linear_percentile():
    # The reference spread's percentile, interpolated in Python, against
    # numpy's on random vectors with and without ties, at the estimator's
    # two tails (the lower one 0.5 + 4e-16, not 0.5) and a few others.
    from helpers_naive import naive_percentile
    rng = np.random.default_rng(54)
    q = 50 * (1 - oracle_mod.CI_LEVEL)
    for trial in range(400):
        x = rng.random(int(rng.integers(1, 300))) * 10.0 ** (trial % 7 - 3)
        if trial % 2:
            x = np.round(x, 2)
        for pct in (q, 100 - q, 0.5, 50, 100 * rng.random()):
            assert naive_percentile(x.tolist(), pct) == np.percentile(x, pct)


def test_batched_excess_rows_match_the_one_dimensional_kernel():
    rng = np.random.default_rng(48)
    for trial in range(30):
        m = 1 + trial % 3
        cells, n_groups = int(rng.integers(1, 60)), int(rng.integers(1, 20))
        groups = rng.integers(0, n_groups, size=cells)
        weights = rng.integers(0, 50, size=(int(rng.integers(1, 9)), cells))
        batched = excess_over_uniform(weights, groups, m)
        assert batched.dtype == np.int64
        assert batched.tolist() == [excess_over_uniform(w, groups, m)
                                    for w in weights]
        stacked = excess_over_uniform(weights.reshape(1, *weights.shape),
                                      groups, m)
        assert stacked.tolist() == [batched.tolist()]
    with pytest.raises(SizeLimitError):
        excess_over_uniform(np.full((2, 2), 1 << 60), [0, 0], 2)


def test_bootstrap_resamples_and_estimate(monkeypatch):
    rng = np.random.default_rng(49)
    for trial in range(12):
        m, tuple_keys = 1 + trial % 3, trial % 2 == 1
        n = 1000 + int(rng.integers(0, 500))
        # few rests: n > 4 * cells (multinomial rows); many: index draws
        rests = None if trial % 4 < 2 else n
        pairs = _random_pairs(rng, n, m, tuple_keys, rests)
        keys = _keys(pairs, m)
        rep = mc_distance_pairs(keys, m, tol=1.0, seed=trial)
        assert rep.estimate == naive_plugin_estimate(pairs, m)
        assert rep.n == n and rep.ci[0] <= rep.ci[1]
        assert rep.ci == naive_bootstrap_ci(pairs, m, trial)
        again = mc_distance_pairs(keys, m, tol=1.0, seed=trial)
        assert again.ci == rep.ci and again.estimate == rep.estimate
        # a smaller chunk bound draws the same stream in more pieces
        with monkeypatch.context() as mp:
            mp.setattr(oracle_mod, "CHUNK_ENTRIES", 1 << 10)
            assert mc_distance_pairs(keys, m, tol=1.0, seed=trial).ci == rep.ci


def test_mc_report_times_its_call_outside_equality():
    # seconds is volatile: measured on every call, left out of comparisons
    keys = np.arange(400) % 2
    first, again = (mc_distance_pairs(keys, 1, tol=1.0, seed=3)
                    for _ in range(2))
    assert first.seconds > 0 and again.seconds > 0
    assert first == again == replace(first, seconds=first.seconds + 1)
    assert first != replace(first, draws=first.draws + 1)


@pytest.mark.parametrize("rests", [6, 1500])
def test_netsim_estimate_keys_match_the_tuple_references(rests):
    # int columns with several rest columns, numbered by row_ids and packed
    # as player_estimates packs them: the keys must give the tuple pairs'
    # estimate and CI bit for bit, and one distinct key per cell
    rng = np.random.default_rng(52)
    for m in (1, 2):
        n = 1500
        rest = [rng.integers(0, rests, size=n), rng.integers(-3, 2, size=n),
                rng.choice([0, 1 << 40], size=n)]
        z = rng.integers(0, 1 << m, size=n)
        pairs = list(zip(z.tolist(), zip(*(col.tolist() for col in rest))))
        keys = (row_ids(rest, n)[0] << m) | z
        assert len(set(keys.tolist())) == len(set(pairs))
        for seed in (0, 5):
            rep = mc_distance_pairs(keys, m, tol=1.0, seed=seed)
            assert rep.estimate == naive_plugin_estimate(pairs, m)
            assert rep.ci == naive_bootstrap_ci(pairs, m, seed)


@pytest.mark.parametrize("rest_ids", [[1, 0], [0, 2, 1], [0, 1, -1]])
def test_mc_refuses_rest_ids_not_dense_in_first_seen_order(rest_ids):
    keys = np.array(rest_ids * 200, dtype=np.int64) << 1
    with pytest.raises(InvalidInputError, match="dense"):
        mc_distance_pairs(keys, 1, tol=1.0)
    # the same rests, renumbered by first appearance, are accepted
    dense = np.array(naive_dense_ids(rest_ids * 200), dtype=np.int64) << 1
    assert mc_distance_pairs(dense, 1, tol=1.0).n == len(dense)


def test_keys_count_one_per_cell():
    rng = np.random.default_rng(53)
    for m in (1, 3):
        pairs = _random_pairs(rng, 500, m, True)
        assert len(set(_keys(pairs, m))) == len(set(pairs))


def test_bootstrap_draw_switches_at_four_samples_per_cell():
    # 300 cells, 4 samples each, every cell shared: n = 4 * cells draws
    # indices; one more sample tips it to multinomial rows.
    cells = [(z, r) for r in range(150) for z in (0, 1)]
    for pairs in (cells * 4, cells * 4 + cells[:1]):
        rep = mc_distance_pairs(_keys(pairs, 1), 1, tol=1.0, seed=7)
        assert rep.ci == naive_bootstrap_ci(pairs, 1, 7)


@pytest.mark.parametrize("lone", ["all", "none", "mixed", "most"])
def test_index_draws_with_lone_cells_match_the_reference(monkeypatch, lone):
    # n <= 4 * cells; a lone cell is alone in its rest group and only the
    # shared samples are drawn, N of them per resample ("none": all n,
    # undrawn; "all": none), as indices wherever W <= 4 * shared cells;
    # in reads of whole chunks and of one row at a time.
    rng = np.random.default_rng(51)
    for m in (1, 2):
        cells = []
        for r in range(200):
            one = (lone == "all" or (lone == "mixed" and r % 2)
                   or (lone == "most" and r % 8))
            zs = [int(rng.integers(1 << m))] if one else range(1 << m)
            cells += [(z, r) for z in zs]
        pairs = [c for c in cells for _ in range(int(rng.integers(1, 5)))]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        assert len(pairs) <= 4 * len(cells)
        per_rest = Counter(rest for _, rest in set(pairs))
        in_lone = sum(per_rest[rest] == 1 for _, rest in pairs)
        assert (2 * in_lone >= len(pairs)) == (lone in ("all", "most"))
        for seed in (0, 9):
            rep = mc_distance_pairs(_keys(pairs, m), m, tol=1.0, seed=seed)
            assert rep.estimate == naive_plugin_estimate(pairs, m)
            assert rep.ci == naive_bootstrap_ci(pairs, m, seed)
            with monkeypatch.context() as mp:
                mp.setattr(oracle_mod, "CHUNK_ENTRIES", 1)
                assert mc_distance_pairs(_keys(pairs, m), m, tol=1.0,
                                         seed=seed) == rep


@pytest.mark.parametrize("rests, extra", [
    ((1 << 14) - 1, 0), ((1 << 14) - 1, 1), (1 << 14, 0), (1 << 15, 0)])
def test_index_draw_keys_past_int16_match_the_reference(monkeypatch, rests,
                                                        extra):
    # One sample in each of two cells per rest (and in one more cell of
    # the last rest): every cell shared, one row per chunk, 2^15 - 1 to
    # 2^16 cells, so a chunk's keys (cell + row offset) pass 2^15 and
    # 2^16.  Three resamples keep the reference short.
    monkeypatch.setattr(oracle_mod, "BOOTSTRAP_RESAMPLES", 3)
    pairs = [(z, r) for r in range(rests) for z in (0, 1)]
    pairs += [(2, rests - 1)] * extra
    pairs = [pairs[i] for i in np.random.default_rng(rests).permutation(
        len(pairs))]
    rep = mc_distance_pairs(_keys(pairs, 2), 2, tol=2.0, seed=rests)
    assert rep.estimate == naive_plugin_estimate(pairs, 2)
    assert rep.ci == naive_bootstrap_ci(pairs, 2, rests, resamples=3)


@pytest.mark.parametrize("keys, m", [
    (np.zeros(400, np.int64), -1), (np.zeros(400, np.int64), 1.0),
    (np.zeros(400, np.int64), "1"), (np.zeros(400), 1),
    (np.zeros((20, 20), np.int64), 1), (np.zeros(400, bool), 1)])
def test_mc_refuses_malformed_keys_and_widths(keys, m):
    # a negative shift count, float keys and a 2-D array's truth value
    # used to raise ValueError and TypeError from numpy
    with pytest.raises(InvalidInputError, match="1-D integer array and m"):
        mc_distance_pairs(keys, m, tol=1.0)


@pytest.mark.parametrize("rests", [20, 1200])
def test_bootstrap_rows_count_every_draw(monkeypatch, rests):
    seen = []
    real = oracle_mod.excess_over_uniform

    def spy(weights, groups, m):
        if np.ndim(weights) > 1:
            seen.append(np.asarray(weights))
        return real(weights, groups, m)

    pairs = _random_pairs(np.random.default_rng(50), 1200, 2, False, rests)
    monkeypatch.setattr(oracle_mod, "excess_over_uniform", spy)
    rep = mc_distance_pairs(_keys(pairs, 2), 2, tol=1.0, seed=3)
    rows = np.concatenate(seen)
    assert rows.shape[0] == oracle_mod.BOOTSTRAP_RESAMPLES
    # rows hold the cells that share a rest group, N ~ Binomial(n, W / n)
    # draws each; the report counts them, and the rest groups of one cell
    per_rest = Counter(rest for _, rest in set(pairs))
    shared = [p for p in pairs if per_rest[p[1]] > 1]
    assert rows.shape[1] == len({p for p in shared})
    assert (rows >= 0).all() and (rows.sum(axis=1) <= len(pairs)).all()
    assert rep.draws == rows.sum() and rep.lone_groups == sum(
        c == 1 for c in per_rest.values())
    assert 0 < rep.lone_groups and 0 < len(shared) < len(pairs)
    mean, spread = len(shared), (len(shared) * (1 - len(shared) / 1200)) ** .5
    assert abs(rows.sum(axis=1).mean() - mean) < 4 * spread / 200 ** 0.5


def _lone_and_shared(n, rng):
    """``n`` pairs over four rests, m = 2: rests 0 and 2 hold any cell,
    rest 0 two at least, rests 1 and 3 one cell each."""
    pairs = [(0, 0), (1, 0)]
    while len(pairs) < n:
        r = int(rng.integers(4))
        pairs.append((int(rng.integers(4)) if r % 2 == 0 else 3, r))
    return [pairs[i] for i in rng.permutation(n)]


@pytest.mark.parametrize("n, seed", [(5, 1), (7, 2), (8, 3), (12, None)])
def test_bootstrap_statistic_has_the_multinomial_law(monkeypatch, n, seed):
    # 20,000 resamples of a key set with lone and shared cells against
    # the exact law of the resample's excess over Multinomial(n, counts /
    # n), enumerated count vector by count vector.  The excess is
    # re-scored from each row: its shared counts as drawn, n minus their
    # sum in one lone cell.  Bins below 5 expected resamples are pooled
    # with their neighbours; the chi-square statistic stays below its
    # 0.1% critical value (Wilson-Hilferty, z = 3.09).  The n = 12 set
    # holds 5 samples per shared cell, 6 and 4: multinomial rows.
    from helpers_naive import naive_cell_excess, naive_resample_law
    pairs = ([(0, 0)] * 6 + [(1, 0)] * 4 + [(3, 1), (2, 2)] if seed is None
             else _lone_and_shared(n, np.random.default_rng(seed)))
    per_rest = Counter(rest for _, rest in set(pairs))
    cells = list(dict.fromkeys(p for p in pairs if per_rest[p[1]] > 1))
    shared = sum(per_rest[rest] > 1 for _, rest in pairs)
    assert 0 < len(cells) < len(set(pairs)) and len(pairs) == n
    assert (shared > 4 * len(cells)) == (seed is None)
    seen = []
    real = oracle_mod.excess_over_uniform

    def spy(weights, groups, m):
        if np.ndim(weights) > 1:
            seen.append(np.asarray(weights))
        return real(weights, groups, m)

    monkeypatch.setattr(oracle_mod, "excess_over_uniform", spy)
    monkeypatch.setattr(oracle_mod, "BOOTSTRAP_RESAMPLES", 20_000)
    mc_distance_pairs(_keys(pairs, 2), 2, tol=10.0, seed=n)
    drawn = Counter(naive_cell_excess(
        {(0, "lone"): n - int(row.sum()), **dict(zip(cells, row.tolist()))},
        2) for row in np.concatenate(seen))
    law = naive_resample_law(pairs, 2)
    assert sum(law.values()) == 1 and set(drawn) <= set(law)
    bins, observed, expected = [], 0, 0.0
    for value in sorted(law):
        observed, expected = observed + drawn[value], expected + 20_000 * float(
            law[value])
        if expected >= 5:
            bins.append((observed, expected))
            observed, expected = 0, 0.0
    if expected:
        o, e = bins.pop()
        bins.append((o + observed, e + expected))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    k = len(bins) - 1
    assert k >= 2
    assert chi2 < k * (1 - 2 / (9 * k) + 3.09 * (2 / (9 * k)) ** 0.5) ** 3


@pytest.mark.parametrize("case", ["all-lone", "all-shared", "one-group"])
def test_bootstrap_edge_cases_match_the_reference(monkeypatch, case):
    # W = 0: every cell lone, each resample's excess is the estimate's,
    # nothing is drawn; W = n: no lone cell, n draws per resample; one
    # shared group next to lone ones.  One row per chunk changes nothing.
    m, rests = 2, range(300)
    if case == "all-lone":
        pairs = [(r % 4, r) for r in rests for _ in range(r % 3 + 1)]
    elif case == "all-shared":
        pairs = [(z, r) for r in rests for z in (0, r % 4 or 1)]
    else:
        pairs = [(z, 0) for z in range(4) for _ in range(9)]
        pairs += [(1, r) for r in rests[1:] for _ in range(r % 2 + 1)]
    pairs = [pairs[i] for i in np.random.default_rng(8).permutation(
        len(pairs))]
    rep = mc_distance_pairs(_keys(pairs, m), m, tol=1.0, seed=4)
    assert rep.estimate == naive_plugin_estimate(pairs, m)
    assert rep.ci == naive_bootstrap_ci(pairs, m, 4)
    B, lone = oracle_mod.BOOTSTRAP_RESAMPLES, len(rests) - 1
    if case == "all-lone":
        assert rep.ci == (rep.estimate, rep.estimate) and rep.draws == 0
        assert rep.lone_groups == len(rests)
    elif case == "all-shared":
        assert rep.draws == B * len(pairs) and rep.lone_groups == 0
    else:
        assert 0 < rep.draws < B * len(pairs) and rep.lone_groups == lone
    with monkeypatch.context() as mp:
        mp.setattr(oracle_mod, "CHUNK_ENTRIES", 1)
        assert mc_distance_pairs(_keys(pairs, m), m, tol=1.0, seed=4) == rep


# ----------------------------------------------------------------------
# lemma checkers
# ----------------------------------------------------------------------

def _random_exact_joint(rng, parts, denom=4096):
    total = sum(w for _, w in parts)
    counts = rng.multinomial(denom, np.full(1 << total, 1 / (1 << total)))
    return JointDistribution(parts, [Fraction(int(c), denom) for c in counts])


def test_lemma_22_on_random_joints():
    rng = np.random.default_rng(17)
    for _ in range(20):
        j = _random_exact_joint(rng, [("X", 4), ("Y", 2)])
        assert check_lemma("L2.2", joint=j, eps=0.25).ok


def test_lemma_25_trivial_single_bit():
    rng = np.random.default_rng(18)
    j = _random_exact_joint(rng, [("Z", 1), ("E", 1)])
    v = check_lemma("L2.5", joint=j)
    assert v.ok and v.slack >= 0


def test_lemma_25_on_random_joints():
    rng = np.random.default_rng(19)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        j = _random_exact_joint(rng, [("Z", m), ("E", 2)], denom=1024)
        v = check_lemma("L2.5", joint=j)
        assert v.ok and v.slack >= 0


def _random_atoms(rng, parts, denom=64, skip=None):
    """Random masses count / denom on every value tuple, none where
    ``skip`` (label, value) holds."""
    labels = [lbl for lbl, _ in parts]
    keys = [v for v in itertools.product(*(range(1 << w) for _, w in parts))
            if skip is None or v[labels.index(skip[0])] != skip[1]]
    counts = rng.multinomial(denom, rng.dirichlet(np.ones(len(keys)) / 2))
    return {v: Fraction(int(c), denom) for v, c in zip(keys, counts) if c}


def _lemma_joints(rng, first, second):
    """Tiny joints for the lemma cross-checks: both widths in {1, 2, 3},
    with a third part, with the parts reversed, and with a zero-mass
    value of the second part."""
    for w1, w2 in itertools.product((1, 2, 3), repeat=2):
        parts = [(first, w1), (second, w2)]
        yield parts, _random_atoms(rng, parts)
        yield parts[::-1], _random_atoms(rng, parts[::-1], denom=1000)
        three = parts + [("W", 1)]
        yield three, _random_atoms(rng, three, denom=3 ** 5)
        yield parts, _random_atoms(rng, parts, skip=(second, 0))


def test_lemma_22_matches_naive():
    rng = np.random.default_rng(20)
    for parts, atoms in _lemma_joints(rng, "X", "Y"):
        for eps in (0.125, 0.25, 0.5):
            v = check_lemma("L2.2", joint=JointDistribution.from_atoms(
                parts, atoms), eps=eps)
            good, threshold, per_y = naive_lemma_condition(parts, atoms, eps)
            assert v.details == {"threshold_bits": threshold,
                                 "per_y_entropy": per_y}
            assert Fraction(v.slack) == Fraction(float(good) - (1 - eps))
            assert v.ok == (float(good) >= 1 - eps - 1e-12)


def test_lemma_25_matches_naive():
    rng = np.random.default_rng(21)
    for parts, atoms in _lemma_joints(rng, "Z", "E"):
        v = check_lemma("L2.5", joint=JointDistribution.from_atoms(parts,
                                                                   atoms))
        lhs, rhs = naive_xor_lemma(parts, atoms)
        assert v.details == {"lhs_sq": lhs, "rhs": rhs}
        assert v.slack == rhs - lhs and v.ok == (rhs >= lhs)


def test_lemma_stacks_match_one_joint_per_trial():
    # Each verdict on a stack of numerator matrices equals the verdict on
    # the joint built from the same counts: zero-mass columns, counts the
    # joint reduces by their gcd, and denominators not a power of two.
    rng = np.random.default_rng(22)
    for trial in range(12):
        T, den = int(rng.integers(1, 9)), (4096, 1000, 3 ** 5)[trial % 3]
        for lemma, (w1, w2), kw in (("L2.2", (4, 2), {"eps": 0.125}),
                                    ("L2.2", (2, 3), {"eps": 0.5}),
                                    ("L2.5", (1 + trial % 3, 2), {}),
                                    ("L2.5", (3, 1), {})):
            cells = 1 << (w1 + w2)
            p = rng.dirichlet(np.ones(cells) / 2)
            counts = rng.multinomial(den // 2, p, size=T) * 2 if trial % 2 \
                else rng.multinomial(den, p, size=T)
            counts[:, -1] += den - counts.sum(axis=1)
            parts = [("XZ"[lemma == "L2.5"], w1), ("YE"[lemma == "L2.5"], w2)]
            got = check_lemma(lemma, numerators=counts.reshape(
                T, 1 << w1, 1 << w2), denominator=den, **kw)
            assert len(got) == T
            for row, v in zip(counts, got):
                one = check_lemma(lemma, joint=JointDistribution.from_numerators(
                    parts, row, den), **kw)
                assert (v.ok, v.slack, v.details) == (one.ok, one.slack,
                                                      one.details)
                assert type(v.slack) is type(one.slack)


@pytest.mark.parametrize("numerators,denominator", [
    (np.full((2, 4, 2), 0.125), 1),        # not integer counts
    (np.full((4, 2), 1), 8),               # not a stack
    (np.full((2, 3, 2), 1), 6),            # 3 rows: no part width
    (np.array([[[2, -1], [0, 3]]]), 4),    # a negative count
    (np.full((2, 2, 2), 1), 8),            # counts summing to 4, not 8
])
def test_lemma_stacks_are_checked(numerators, denominator):
    for lemma, kw in (("L2.2", {"eps": 0.25}), ("L2.5", {})):
        with pytest.raises(InvalidInputError, match="lemma stack"):
            check_lemma(lemma, numerators=numerators,
                        denominator=denominator, **kw)


def test_lemma_81_interface():
    v = check_lemma("L8.1", set_error=Fraction(1, 4),
                    individual_errors=[Fraction(1, 8), Fraction(1, 5)])
    assert v.ok
    v2 = check_lemma("L8.1", set_error=Fraction(1, 2),
                     individual_errors=[Fraction(1, 8), Fraction(1, 8)])
    assert not v2.ok


def test_unknown_lemma():
    with pytest.raises(InvalidInputError):
        check_lemma("L9.9")


@pytest.mark.parametrize("eps", [0, -0.25, 1.5])
def test_lemma_22_takes_eps_in_the_unit_interval(eps):
    joint = _random_exact_joint(np.random.default_rng(8), [("X", 2), ("Y", 1)])
    with pytest.raises(InvalidInputError, match="eps"):
        check_lemma("L2.2", joint=joint, eps=eps)
    assert check_lemma("L2.2", joint=joint, eps=1).ok


# ----------------------------------------------------------------------
# fast oracles against the naive ones, witnesses included
# ----------------------------------------------------------------------

def _random_table(rng, widths, m, kind="2-source"):
    t = rng.integers(0, 1 << m, size=1 << sum(widths), dtype=np.uint32)

    def fn(*xs):
        idx = 0
        for x, w in zip(xs, widths):
            idx = (idx << w) | x
        return int(t[idx])
    return table_handle("rnd", kind, widths, m, t), fn


def _witness_error(fn, m, witness, strong):
    leak = witness.get("leak_map")
    return naive_instance_error(fn, m, witness["supports"], strong,
                                witness.get("leak_source") if leak else None,
                                leak)


def test_two_source_matches_naive_witness_and_tie_break():
    # Ties go to the lowest-rank support of the enumerated input (the
    # second one, the first one when the second is revealed).
    rng = np.random.default_rng(40)
    kernels = set()
    for trial in range(16):
        widths = ((2, 3), (3, 2), (3, 3), (2, 2))[trial % 4]
        m = 1 + trial % 3 // 2
        ks = tuple(int(rng.integers(1, n)) for n in widths)
        h, fn = _random_table(rng, widths, m)
        sups = flat_supports(widths, ks)
        for strong in (None, 0, 1):
            rep = worst_case_error_2source(h, *ks, strong)
            revealed = () if strong is None else (strong,)
            enum = 0 if strong == 1 else 1
            per = [max(naive_instance_error(
                       fn, m, (o, s) if enum else (s, o), revealed)
                       for o in sups[1 - enum]) for s in sups[enum]]
            assert rep.error == max(per)
            assert _witness_error(fn, m, rep.witness, revealed) == rep.error
            first = per.index(max(per))
            assert tuple(rep.witness["supports"][enum]) == sups[enum][first]
            kernels.add(rep.kernel)
    assert kernels == {"events", "supports"}


def test_leaked_matches_naive_with_witnesses():
    rng = np.random.default_rng(41)
    for trial in range(4):
        widths = ((2, 2), (2, 3), (3, 2))[trial % 3]
        m = 1 + trial % 2
        ks = tuple(int(rng.integers(0, 2)) for _ in widths)
        h, fn = _random_table(rng, widths, m)
        for strong in (None, 0, 1):
            revealed = () if strong is None else (strong,)
            for b in (0, 1):
                naive = [naive_worst_leaked_2source(fn, *widths, m, *ks, b,
                                                    strong, (i,))
                         for i in (0, 1)]
                for sources in ((0,), (1,), (0, 1)):
                    rep = worst_case_error_leaked(h, ks, b, strong=strong,
                                                  leak_sources=sources)
                    assert rep.error == max(naive[i] for i in sources)
                    assert _witness_error(fn, m, rep.witness,
                                          revealed) == rep.error
            # an explicit map list: the max over those maps only
            maps = [rng.integers(0, 2, size=1 << widths[1]).astype(np.uint8)
                    for _ in range(3)]
            rep = worst_case_error_leaked(h, ks, 1, strong=strong, maps=maps,
                                          leak_sources=[1])
            pairs = itertools.product(*flat_supports(widths, ks))
            expect = max(naive_instance_error(fn, m, sups, revealed, src, f)
                         for sups in pairs
                         for src, f in [(None, None)] + [(1, f) for f in maps])
            assert rep.error == expect
            assert _witness_error(fn, m, rep.witness, revealed) == rep.error


def test_multi_matches_naive_with_witnesses():
    rng = np.random.default_rng(42)
    for trial in range(8):
        widths = ((2, 2, 2), (2, 1, 2), (1, 2, 2), (2, 2, 1))[trial % 4]
        ks = tuple(int(rng.integers(0, n + 1)) for n in widths)
        m, b = 1 + trial % 2, trial // 4
        h, fn = _random_table(rng, widths, m, "t-source")
        rep = worst_case_error_multi(h, ks, b=b)
        assert rep.error == naive_worst_multi(fn, widths, m, ks, b)
        assert _witness_error(fn, m, rep.witness, (0, 1)) == rep.error


def test_leaked_seeded_matches_naive_with_witnesses():
    rng = np.random.default_rng(43)
    for trial in range(8):
        n, d = ((2, 1), (2, 2), (3, 1), (3, 2))[trial % 4]
        m = 1 + trial // 4
        k = int(rng.integers(0, n))
        h, fn = _random_table(rng, (n, d), m, "seeded")
        maps = [rng.integers(0, 2, size=1 << n) for _ in range(3)]
        for strong in (True, False):
            revealed = (1,) if strong else ()
            reps = [(worst_case_error_leaked(h, (k, d), 1, strong=strong),
                     naive_worst_leaked_seeded(fn, n, d, m, k, 1, strong)),
                    (worst_case_error_leaked(h, (k, d), 1, strong=strong,
                                             maps=maps),
                     max(naive_instance_error(fn, m, [s, range(1 << d)],
                                              revealed, 0, f)
                         for s in flat_supports((n,), (k,))[0]
                         for f in maps))]
            for rep, expect in reps:
                assert rep.mode == "exhaustive" and rep.error == expect
                w = rep.witness
                assert naive_instance_error(
                    fn, m, [w["support"], range(1 << d)], revealed, 0,
                    w["leak_map"]) == rep.error
            # off the support the witness map is 0
            off = set(range(1 << n)) - set(reps[0][0].witness["support"])
            assert all(reps[0][0].witness["leak_map"][x] == 0 for x in off)


def test_seeded_marginal_leak_runs_map_free(monkeypatch):
    # A marginal leak of the default family from the source enumerates
    # the seed as its one full support; the event rule selects the
    # source support and its map.  It runs where it scores fewer
    # candidates than the leak patterns, and the budget counts those.
    rng = np.random.default_rng(56)
    paths = set()
    for trial in range(8):
        n, d = ((2, 1), (2, 2), (3, 1), (3, 2))[trial % 4]
        m = 1 + trial // 4
        k = int(rng.integers(0, n))
        h, fn = _random_table(rng, (n, d), m, "seeded")
        expect = naive_worst_leaked_seeded(fn, n, d, m, k, 1, False)
        events = math.comb(1 << (1 << m), 2)
        patterns = math.comb(1 << n, 1 << k) << (1 << k)
        for cap in (oracle_mod.EVENT_ENTRIES, 0):  # 0: leak patterns
            monkeypatch.setattr(oracle_mod, "EVENT_ENTRIES", cap)
            mapfree = cap > 0 and events <= patterns
            paths.add(mapfree)
            count = events if mapfree else patterns
            rep = worst_case_error_leaked(h, (k, d), 1, budget=count)
            assert rep.mode == "exhaustive" and rep.error == expect
            assert rep.enumerated == patterns  # the family, either path
            assert rep.candidates == (events if mapfree else
                                      math.comb(1 << n, 1 << k) << (1 << k))
            w = rep.witness
            assert (w["leak_source"], w["e_width"]) == (0, 1)
            assert naive_instance_error(fn, m, [w["support"], range(1 << d)],
                                        (), 0, w["leak_map"]) == expect
            off = set(range(1 << n)) - set(w["support"])
            assert all(w["leak_map"][x] == 0 for x in off)
            with pytest.raises(BudgetExceededError) as exc:
                worst_case_error_leaked(h, (k, d), 1, budget=count - 1)
            assert exc.value.required == count
    assert paths == {True, False}
    monkeypatch.undo()
    # A (4, 2) table at k=3: 6 events map-free against 3,294,720 leak
    # patterns on C(16, 8) supports, and 3/8 at k=2.
    h, fn = _random_table(np.random.default_rng(11), (4, 2), 1, "seeded")
    rep = worst_case_error_leaked(h, (3, 2), 1)
    assert (rep.error, rep.candidates, rep.kernel) == (Fraction(5, 16), 6,
                                                       "events")
    assert rep.enumerated == 3_294_720
    assert naive_instance_error(fn, 1, [rep.witness["support"], range(4)], (),
                                0, rep.witness["leak_map"]) == rep.error
    monkeypatch.setattr(oracle_mod, "EVENT_ENTRIES", 0)
    patterns = worst_case_error_leaked(h, (3, 2), 1)
    assert (patterns.error, patterns.candidates) == (rep.error, 3_294_720)
    monkeypatch.undo()
    assert worst_case_error_leaked(h, (2, 2), 1).error == Fraction(3, 8)


def test_block_general_matches_naive_with_witnesses():
    rng = np.random.default_rng(44)
    for trial in range(6):
        widths = ((2, 2, 2), (1, 2, 2), (2, 1, 2))[trial % 3]
        m = 1 + trial % 2
        ks = tuple(int(rng.integers(0, n + 1)) for n in widths)
        h, fn = _random_table(rng, widths, m, "t-source")
        rep = worst_case_error_block_general(h, ks)
        assert rep.error == naive_worst_block_general(fn, widths, m, ks)
        w = rep.witness
        # every support is listed in ascending order, like other oracles'
        conds = w["x2_conditional_supports"]
        assert w["x1_support"] == sorted(w["x1_support"]) == list(conds)
        assert all(v == sorted(v) for v in conds.values())
        assert w["x3_support"] == sorted(w["x3_support"])
        cells = {}
        for x1 in w["x1_support"]:
            for x2 in w["x2_conditional_supports"][x1]:
                for x3 in w["x3_support"]:
                    key = (fn(x1, x2, x3), (x1, x2))
                    cells[key] = cells.get(key, 0) + 1
        assert naive_tv_from_uniform(cells, sum(cells.values()), m) == rep.error


def test_leaked_2source_auto_labels_an_exhaustive_run(tmp_path):
    rep = worst_case_error_leaked(ip_handle(3), (2, 2), 1, mode="auto")
    assert rep.mode == "exhaustive" and rep.error == Fraction(5, 16)
    assert rep.error == worst_case_error_leaked(ip_handle(3), (2, 2), 1).error
    _, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=3,
                                          leak_bits=1, cache_dir=tmp_path)
    assert rec.mode == "exhaustive" and rec.error_exact == "7/16"
    sampled = worst_case_error_leaked(ip_handle(3), (2, 2), 1, mode="sampled")
    assert sampled.mode == "sampled" and isinstance(sampled.error, float)


def test_leak_budgets_count_patterns_on_the_support():
    # Budgets count the candidates the kernel scores.  A marginal leak
    # from either input of this m=2 table runs map-free: 70 supports of
    # the other input x C(16, 2) = 120 output events, 8,400 (the
    # leak-free baseline needs 70 x 14 events = 980; leak patterns would
    # score 70 x 2^4 x 70 = 78,400).
    h, fn = _random_table(np.random.default_rng(45), (3, 3), 2)
    rep = worst_case_error_leaked(h, (2, 2), 1, budget=8_400)
    assert rep.mode == "exhaustive"
    assert rep.error == worst_case_error_leaked(h, (2, 2), 1).error
    with pytest.raises(BudgetExceededError) as refused:
        worst_case_error_leaked(h, (2, 2), 1, budget=8_399)
    assert refused.value.required == 8_400
    # Strong: 70 supports x 4^4 patterns of the leak from X2, one
    # candidate each (top K1 rows of the revealed input).
    rep = worst_case_error_leaked(ip_handle(3), (2, 2), 2, strong=0,
                                  budget=17_920)
    assert rep.error == worst_case_error_leaked(ip_handle(3), (2, 2), 2,
                                                strong=0).error
    with pytest.raises(BudgetExceededError) as refused:
        worst_case_error_leaked(ip_handle(3), (2, 2), 2, strong=0,
                                budget=17_919)
    assert refused.value.required == 17_920
    # Multi-source: 6 S3 x 2^2 patterns on S3 x 6 supports of the
    # selected strong input, 144 (864 when every S1 x S2 was counted).
    h, fn = _random_table(np.random.default_rng(46), (2, 2, 2), 1, "t-source")
    rep = worst_case_error_multi(h, (1, 1, 1), b=1, budget=144)
    assert rep.error == naive_worst_multi(fn, (2, 2, 2), 1, (1, 1, 1), 1)
    assert rep.candidates == 144
    with pytest.raises(BudgetExceededError) as refused:
        worst_case_error_multi(h, (1, 1, 1), b=1, budget=143)
    assert refused.value.required == 144


def test_working_arrays_past_the_cap_are_refused(monkeypatch):
    # Budgets count candidates; the bytes of the arrays a kernel request
    # builds are capped on their own, counted before any is built.
    rng = np.random.default_rng(54)
    three, fn = _random_table(rng, (2, 2, 2), 1, "t-source")
    # int8 indicator of 4 columns x 16 rows x (2 cells + 1 mask) = 192;
    # 6 S1 x (4 one-hot float64 + 2 listed int64) = 288; 6 S3 x 2 int64 =
    # 96; and 6 S3 x 2^2 patterns x (2 x 4 cells x 16 rows int8 + (6 S1 x
    # 4 x2 + 16 row scores) x 8) = 10,752 bytes, the float product beside
    # the row scores as floats; and the objects beside the arrays
    need = 192 + 288 + 96 + 10_752 + oracle_mod.OBJECT_BYTES
    rep = worst_case_error_multi(three, (1, 1, 1), b=1)
    assert rep.to_json_dict()["volatile"]["memory_bytes"] == need
    monkeypatch.setattr(oracle_mod, "SUPPORT_BYTES", need)
    assert worst_case_error_multi(three, (1, 1, 1), b=1).error == \
        naive_worst_multi(fn, (2, 2, 2), 1, (1, 1, 1), 1) == rep.error
    monkeypatch.setattr(oracle_mod, "SUPPORT_BYTES", need - 1)
    with pytest.raises(SizeLimitError, match=f"estimated {need} bytes"):
        worst_case_error_multi(three, (1, 1, 1), b=1)
    monkeypatch.undo()
    # Within the default budget, refused before any array is built:
    # multi, 4^8 patterns on S3 x C(16, 8) S1 x 16 rows, 1.35e10 entries
    # (8.4e8 candidates);
    big, _ = _random_table(rng, (4, 4, 3), 1, "t-source")
    with pytest.raises(SizeLimitError):
        worst_case_error_multi(big, (3, 3, 3), b=2)
    # multi, C(32, 16) S1 x 32 rows, before those S1 are listed (1.2e9);
    wide, _ = _random_table(rng, (5, 5, 1), 1, "t-source")
    with pytest.raises(SizeLimitError):
        worst_case_error_multi(wide, (4, 4, 0))
    # leaked, 4^8 patterns on X1 x 254 events x 64 rows (1.7e7 candidates);
    two, _ = _random_table(rng, (3, 6), 1)
    with pytest.raises(SizeLimitError):
        worst_case_error_leaked(two, (3, 5), 2, leak_sources=[0], mode="auto")
    # seeded strong, 4^16 patterns on the one support (4.3e9
    # candidates); marginal, it runs map-free on C(4, 4) = 1 event.
    seeded, _ = _random_table(rng, (4, 1), 1, "seeded")
    with pytest.raises(SizeLimitError):
        worst_case_error_leaked(seeded, (4, 1), 2, strong=True)
    assert worst_case_error_leaked(seeded, (4, 1), 2).candidates == 1


def test_mapfree_leak_matches_patterns_naive_and_witnesses(monkeypatch):
    # A marginal leak of the default family selects the leaking input's
    # support and its map per output event, with no leak patterns.  On
    # (3,3) tables it must give the value of every pattern on the leaking
    # input's support (the path a map-free leak past EVENT_ENTRIES takes);
    # on (2,2) tables, the naive oracle's over every map of the domain.
    mapfree, rule = [], oracle_mod._event_rule
    monkeypatch.setattr(oracle_mod, "_event_rule", lambda *a: (
        mapfree.append(a) if len(a) > 3 else None) or rule(*a))
    rng, bound = np.random.default_rng(52), oracle_mod.EVENT_ENTRIES
    for trial in range(24):
        m, b = 1 + trial % 2, 1 + trial // 2 % 2
        ks = ((2, 1), (1, 2), (2, 2))[trial // 4 % 3]
        h, fn = _random_table(rng, (3, 3), m)
        for i in (0, 1):
            reps = []
            for entries in (0, bound):  # patterns, then map-free
                monkeypatch.setattr(oracle_mod, "EVENT_ENTRIES", entries)
                reps.append(worst_case_error_leaked(h, ks, b, leak_sources=[i]))
            assert reps[0].error == reps[1].error
            assert reps[0].enumerated == reps[1].enumerated
            for rep in reps:
                assert _witness_error(fn, m, rep.witness, ()) == rep.error
                leak = rep.witness["leak_map"]
                if leak:  # the map is 0 off the leaking input's support
                    s = rep.witness["supports"][i]
                    assert all(leak[x] == 0 for x in range(8) if x not in s)
    assert len(mapfree) >= 36  # most of the 48 leaks ran map-free
    for trial in range(4):
        m, b = 1 + trial % 2, 1 + trial // 2
        h, fn = _random_table(rng, (2, 2), m)
        for ks in ((1, 1), (2, 1), (1, 2)):
            for i in (0, 1):
                rep = worst_case_error_leaked(h, ks, b, leak_sources=[i])
                assert rep.error == naive_worst_leaked_2source(
                    fn, 2, 2, m, *ks, b, None, (i,))
                assert _witness_error(fn, m, rep.witness, ()) == rep.error
    # ip(3;2,2), b=1: 70 leak-free S2, then C(8, 4) * 2^4 leaking
    # supports and patterns per input, though both leaks run map-free
    rep = worst_case_error_leaked(ip_handle(3), (2, 2), 1)
    assert rep.enumerated == 70 + 2 * 70 * 16
    # leaked ip(4;3,3) with b=1 fits the default budget
    rep = worst_case_error_leaked(ip_handle(4), (3, 3), 1)
    assert rep.mode == "exhaustive" and rep.error == Fraction(13, 64)
    assert _witness_error(lambda x, y: parity(x & y), 1, rep.witness,
                          ()) == rep.error


def test_leak_sources_are_validated_and_deduplicated():
    h = ip_handle(2)
    for sources in ([2], [-1], [0, 2]):
        with pytest.raises(InvalidInputError, match="leak_sources"):
            worst_case_error_leaked(h, (1, 1), 1, leak_sources=sources)
    for strong in (None, 0):
        once, twice = (worst_case_error_leaked(h, (1, 1), 1, strong=strong,
                                               leak_sources=sources)
                       for sources in ([1], [1, 1]))
        assert twice.enumerated == once.enumerated
        assert (twice.error, twice.witness) == (once.error, once.witness)


def test_support_table_matches_combinations_and_streaming(monkeypatch):
    for space, K in ((8, 4), (16, 8), (32, 2), (5, 0), (5, 5)):
        table = oracle_mod._support_table(space, K)
        assert table.dtype == np.int64
        assert table.shape == (math.comb(space, K), K)
        assert list(map(tuple, table.tolist())) == list(
            itertools.combinations(range(space), K))
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    # enumerations slice the cached table, or stream past the bound
    block = next(oracle_mod._chunks(None, 16, 8, 100))
    assert np.shares_memory(block, oracle_mod._support_table(16, 8))
    assert block.base is not None and not block.flags.writeable
    block = next(oracle_mod._chunks(None, 64, 8, 100))
    assert block.tolist() == [list(c) for c in itertools.islice(
        itertools.combinations(range(64), 8), 100)] and block.flags.writeable
    # Kernel reports are the same with the tables and with every
    # enumeration streamed.
    rng = np.random.default_rng(53)
    two, _ = _random_table(rng, (3, 3), 2)
    seeded, _ = _random_table(rng, (3, 2), 1, "seeded")
    three, _ = _random_table(rng, (2, 2, 2), 1, "t-source")
    calls = [lambda: worst_case_error_2source(two, 2, 1),
             lambda: worst_case_error_2source(two, 2, 2, 0),
             lambda: worst_case_error_leaked(two, (2, 1), 1),
             lambda: worst_case_error_leaked(two, (1, 2), 1, strong=1),
             lambda: worst_case_error_leaked(seeded, (2, 2), 1, strong=True),
             lambda: worst_case_error_multi(three, (1, 1, 1), b=1),
             lambda: worst_case_error_block_general(three, (1, 1, 1))]
    runs = []
    for entries in (oracle_mod.SUPPORT_TABLE_ENTRIES, 0):
        monkeypatch.setattr(oracle_mod, "SUPPORT_TABLE_ENTRIES", entries)
        runs.append([(rep.mode, rep.error, rep.witness, rep.enumerated,
                      rep.kernel, rep.candidates)
                     for rep in (call() for call in calls)])
    assert runs[0] == runs[1]


def test_sampled_supports_follow_the_documented_rule():
    # Rows are distinct and ascending, the same key gives the same rows,
    # and each row is the naive rule's set, draw by draw: on either side
    # of half the space (6 of 12 drawn, 7 of 12 as complements), at the
    # edges 0 and space, and where repeats force many rounds.
    sample = oracle_mod._sample_supports
    for space, size in ((12, 6), (12, 7), (8, 0), (8, 8), (1, 1), (64, 40),
                        (1024, 32), (2, 1)):
        rows = sample(space, size, 300, oracle_mod._philox(space + size))
        assert rows.shape == (300, size) and rows.dtype == np.int64
        assert (np.diff(rows, axis=1) > 0).all()
        assert ((rows >= 0) & (rows < space)).all()
        assert np.array_equal(rows, sample(space, size, 300,
                                           oracle_mod._philox(space + size)))
        assert rows.tolist() == naive_sample_supports(
            space, size, 300, oracle_mod._philox(space + size))
    for samples in (0, -1):
        with pytest.raises(InvalidInputError, match="samples"):
            sample(8, 2, samples, oracle_mod._philox(0))


def test_sampled_supports_are_uniform():
    # Every support of C(6, 3) (drawn directly) and of C(8, 6) (drawn as
    # complements) over 60,000 rows at a fixed key: the chi-square
    # statistic against equal counts stays below its 0.1% critical
    # value, 43.82 at 19 degrees of freedom and 55.48 at 27.
    for space, size, bound in ((6, 3, 43.82), (8, 6, 55.48)):
        rows = oracle_mod._sample_supports(space, size, 60_000,
                                           oracle_mod._philox(57))
        _, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(counts) == math.comb(space, size)
        expect = 60_000 / len(counts)
        assert ((counts - expect) ** 2 / expect).sum() < bound


def test_sampled_two_source_max_is_its_witness_error(monkeypatch):
    # a small chunk splits the draws
    monkeypatch.setattr(oracle_mod, "CHUNK_ENTRIES", 100)
    rng = np.random.default_rng(47)
    for trial in range(10):
        widths = ((3, 3), (2, 3), (3, 2), (4, 3), (2, 2))[trial % 5]
        m = 1 + trial // 5
        ks = tuple(int(rng.integers(1, n)) for n in widths)
        h, fn = _random_table(rng, widths, m)
        if trial % 5 == 4:  # constant table: every draw ties at the max
            h = table_handle("c", "2-source", widths, m,
                             np.zeros(1 << sum(widths), np.uint32))
            fn = lambda *xs: 0  # noqa: E731
        for strong in (None, 0, 1):
            rep = worst_case_error_2source(h, *ks, strong, mode="sampled",
                                           samples=20, seed=trial)
            revealed = () if strong is None else (strong,)
            assert rep.mode == "sampled" and isinstance(rep.error, float)
            assert Fraction(rep.error) == _witness_error(fn, m, rep.witness,
                                                         revealed)
            err, supports = naive_sampled_2source(
                fn, *widths, m, *ks, strong, 20, trial)
            assert rep.error == err
            assert rep.witness == {"supports": supports, "strong": strong}
    for samples in (0, -3):
        with pytest.raises(InvalidInputError, match="samples"):
            worst_case_error_2source(h, 1, 1, mode="sampled", samples=samples)


def test_sampled_seeded_matches_naive_draw_by_draw(monkeypatch):
    # a small chunk splits the supports
    monkeypatch.setattr(oracle_mod, "CHUNK_ENTRIES", 64)
    rng = np.random.default_rng(49)
    for trial in range(6):
        n, d = ((3, 1), (3, 2), (4, 1))[trial % 3]
        m, k = 1 + trial // 3, 1 + trial % 2
        h, fn = _random_table(rng, (n, d), m, "seeded")
        for strong in (True, False):
            for b in (0, 1):
                kw = dict(strong=strong, mode="sampled", samples=15, seed=trial)
                rep = (worst_case_error_leaked(h, (k, d), b, **kw) if b else
                       worst_case_error_seeded(h, k, **kw))
                assert rep.mode == "sampled" and rep.enumerated == 15 << (b << k)
                assert (rep.error, rep.witness) == naive_sampled_seeded(
                    fn, n, d, m, k, b, strong, 15, trial)


def test_sampled_leaked_matches_naive_draw_by_draw(monkeypatch):
    # The leaking input's draws come from Philox(seed ^ 0xA1) and, when
    # marginal, the other input's from Philox(seed ^ 0xB2); the leak-free
    # baseline is the sampled two-source oracle.  A small chunk splits
    # the draws.
    monkeypatch.setattr(oracle_mod, "CHUNK_ENTRIES", 64)
    rng, leaks = np.random.default_rng(59), set()
    for trial in range(6):
        m, ks = 1 + trial % 2, ((1, 2), (2, 1), (1, 1))[trial % 3]
        h, fn = _random_table(rng, (3, 3), m)
        for strong, source in ((None, 0), (None, 1), (1, 0), (0, 1)):
            rep = worst_case_error_leaked(h, ks, 1, strong=strong,
                                          leak_sources=[source],
                                          mode="sampled", samples=10,
                                          seed=trial)
            assert rep.mode == "sampled"
            assert (rep.error, rep.witness) == naive_sampled_leaked_2source(
                fn, 3, 3, m, *ks, 1, strong, 10, trial, (source,))
            leaks.add((strong, rep.witness.get("leak_source")))
    assert {(None, 0), (None, 1), (1, 0), (0, 1)} <= leaks  # leaks that win


def test_leak_maps_are_validated_in_one_place():
    # On this table a -1 entry used to act as a third leak value (9/16
    # where the map relabelled with 2 gives 7/16).
    table = np.random.default_rng(3).integers(0, 2, size=32, dtype=np.uint32)
    seeded = table_handle("v", "seeded", (3, 2), 1, table)
    good = [0, 1, 0, 1, 0, 1, 0, 2]
    rep = worst_case_error_leaked(seeded, (2, 2), 1, strong=True, maps=[good])
    assert rep.error == Fraction(7, 16)
    assert rep.witness["e_width"] == 2  # the width the map's values need
    two = table_handle("w", "2-source", (3, 3), 1, table.repeat(2))
    bad = [[0, 1, 0, 1, 0, 1, 0, -1], good + [0], good[:4],
           np.array(good, dtype=float), np.array(good).reshape(2, 4)]
    for maps in [[f] for f in bad] + [[]]:
        with pytest.raises(InvalidInputError, match="leak maps"):
            worst_case_error_leaked(seeded, (2, 2), 1, strong=True, maps=maps)
        with pytest.raises(InvalidInputError, match="leak maps"):
            worst_case_error_leaked(two, (2, 2), 1, maps=maps)
    # one map list cannot serve inputs of two widths
    uneven, _ = _random_table(np.random.default_rng(5), (2, 3), 1)
    with pytest.raises(InvalidInputError, match="leak_sources"):
        worst_case_error_leaked(uneven, (1, 1), 1, maps=[good])
    assert worst_case_error_leaked(uneven, (1, 1), 1, maps=[good],
                                   leak_sources=[1]).mode == "exhaustive"


def test_sampled_seeded_and_block_oracles_refuse_no_samples():
    rng = np.random.default_rng(48)
    seeded, _ = _random_table(rng, (3, 2), 1, "seeded")
    block, _ = _random_table(rng, (2, 2, 2), 1, "t-source")
    calls = [
        lambda s: worst_case_error_seeded(seeded, 2, mode="sampled", samples=s),
        lambda s: worst_case_error_leaked(seeded, (2, 2), 1, mode="sampled",
                                          samples=s),
        lambda s: worst_case_error_block_general(block, (1, 1, 1),
                                                 mode="sampled", samples=s),
    ]
    for call in calls:
        assert call(5).mode == "sampled"
        for samples in (0, -3):
            with pytest.raises(InvalidInputError, match="samples"):
                call(samples)


def test_kernel_falls_back_to_supports_past_the_event_count():
    # 2^(2^3) events outnumber the C(8, 4) supports of the selected input;
    # the value is the one the support enumeration always gave.
    rng = np.random.default_rng(31)
    h = table_handle("r8", "2-source", (3, 3), 3,
                     rng.integers(0, 8, size=64, dtype=np.uint32))
    rep = worst_case_error_2source(h, 2, 2, None)
    assert rep.error == Fraction(1, 2)
    assert rep.kernel == "supports" and rep.candidates == 70 * 70
    assert rep.to_json_dict()["volatile"]["kernel"] == "supports"
    strong = worst_case_error_2source(h, 2, 2, 0)
    assert strong.error == Fraction(23, 32) and strong.kernel == "events"


def test_explicit_leak_maps_count_only_their_partition(monkeypatch):
    # A map's values only name the parts of its partition: 1000 in place
    # of 1 gives the same worst case, counted on a two-letter leak
    # alphabet (the distinct values), not on 1,024 (the largest value).
    alphabets, excess = [], oracle_mod._cell_excess

    def counting(ind, block, leak, M, B):
        alphabets.append(B)
        return excess(ind, block, leak, M, B)
    monkeypatch.setattr(oracle_mod, "_cell_excess", counting)
    seeded = table_handle("v", "seeded", (3, 2), 1, np.random.default_rng(
        3).integers(0, 2, size=32, dtype=np.uint32))
    two = table_handle("w", "2-source", (3, 3), 1, np.random.default_rng(
        5).integers(0, 2, size=64, dtype=np.uint32))
    small = [0, 1, 0, 0, 1, 0, 1, 0]
    big = [1000 * v for v in small]
    for h, kw, err in ((seeded, {"strong": True}, Fraction(7, 16)),
                       (two, {"leak_sources": [1]}, Fraction(3, 8))):
        reps = [worst_case_error_leaked(h, (2, 2), 1, maps=[f], **kw)
                for f in (small, big)]
        assert reps[0].error == reps[1].error == err
        assert [r.witness.pop("leak_map") for r in reps] == [small, big]
        assert reps[0].witness == reps[1].witness  # the map is the one given
    assert max(alphabets) == 2  # 1 for the two-source leak-free baseline
    rep = worst_case_error_leaked(seeded, (2, 2), 1, strong=True, maps=[big])
    assert rep.witness["e_width"] == 1  # the width of the dense relabelling


def test_composite_ties_go_to_the_lowest_indices():
    # Block+general and multi break ties alike: the lowest tied indices.
    zero = table_handle("z", "t-source", (2, 2, 2), 1, np.zeros(64, np.uint32))
    block = worst_case_error_block_general(zero, (1, 1, 1))
    multi = worst_case_error_multi(zero, (1, 1, 1))
    assert block.error == multi.error == Fraction(1, 2)
    assert block.witness == {"x1_support": [0, 1],
                             "x2_conditional_supports": {0: [0, 1], 1: [0, 1]},
                             "x3_support": [0, 1]}
    assert multi.witness["supports"] == [[0, 1], [0, 1], [0, 1]]
    # x1 and x2 come in twin pairs (2i, 2i + 1) with equal rows: an odd
    # index is picked only next to its even twin.
    base = np.random.default_rng(50).integers(0, 2, size=(2, 2, 4),
                                              dtype=np.uint32)
    twins = table_handle("t", "t-source", (2, 2, 2), 1,
                         base.repeat(2, axis=0).repeat(2, axis=1).ravel())
    closed = lambda s: all(x - 1 in s for x in s if x % 2)  # noqa: E731
    for ks in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        w = worst_case_error_block_general(twins, ks).witness
        assert closed(w["x1_support"])
        assert all(map(closed, w["x2_conditional_supports"].values()))
        s1, s2, _ = worst_case_error_multi(twins, ks).witness["supports"]
        assert closed(s1) and closed(s2)


def test_row_scores_sum_narrow_and_top_sums_in_int64():
    # The kernel's row scores take the smallest signed type that holds
    # cells x the excess type's max; their top-K sums, which can pass it,
    # are int64.
    rng = np.random.default_rng(61)
    for cells, dtype in ((2, np.int8), (16, np.int8), (300, np.int8),
                         (4, np.int16)):
        info = np.iinfo(dtype)
        ex = rng.integers(info.min, info.max, size=(3, cells, 50),
                          dtype=dtype, endpoint=True)
        want = np.maximum(ex.astype(np.int64), 0).sum(axis=-2)
        got = oracle_mod._scores(ex)
        assert got.dtype == np.min_scalar_type(-cells * int(info.max))
        assert got.dtype.itemsize < 8 and (got == want).all()
        for score in (got, got.astype(float)):  # summed in a copy
            before = score.copy()
            top = oracle_mod._top_sums(score, 40)
            assert top.dtype == np.int64 and (score == before).all()
            assert (top == np.sort(want, axis=-1)[:, -40:].sum(axis=-1)).all()
            assert (oracle_mod._top_sums(score, 40, overwrite=True) == top
                    ).all()
    full = np.full((1, 16, 50), 127, dtype=np.int8)  # int16 scores of 2,032
    assert oracle_mod._top_sums(oracle_mod._scores(full), 40).tolist() == [
        40 * 2032]  # past int16


def test_composite_oracles_ignore_chunk_boundaries(monkeypatch):
    # One support per chunk against the default chunks: the same values,
    # witnesses and counts.
    h, _ = _random_table(np.random.default_rng(46), (2, 2, 2), 1, "t-source")
    calls = [lambda: worst_case_error_multi(h, (1, 1, 1)),
             lambda: worst_case_error_multi(h, (1, 1, 1), b=1),
             lambda: worst_case_error_block_general(h, (1, 1, 1)),
             lambda: worst_case_error_block_general(
                 h, (1, 1, 1), mode="sampled", samples=7, seed=5)]
    runs = []
    for chunk in (oracle_mod.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(oracle_mod, "CHUNK_ENTRIES", chunk)
        runs.append([(rep.error, rep.witness, rep.enumerated, rep.kernel,
                      rep.candidates)
                     for rep in (call() for call in calls)])
    assert runs[0] == runs[1]
    # (S3, leak pattern, S1) triples for multi, S3 supports (or draws)
    # for block+general, which reports its kernel and candidates too
    assert [r[2] for r in runs[0]] == [36, 144, 6, 7]
    vol = worst_case_error_block_general(h, (1, 1, 1)).to_json_dict()["volatile"]
    assert (vol["kernel"], vol["candidates"]) == ("events", 6)


def test_worst_case_reports_carry_what_was_measured():
    # One instance per entry point and mode: a report gives its mode,
    # error, witness, the configurations of the family searched and the
    # note its mode implies, with the exact fraction when exhaustive and
    # the timings under volatile; witnesses are plain JSON values.
    rng = np.random.default_rng(58)
    two, _ = _random_table(rng, (3, 3), 1)
    seeded, _ = _random_table(rng, (3, 2), 1, "seeded")
    three, _ = _random_table(rng, (2, 2, 2), 1, "t-source")
    calls = {
        "two-source": lambda **kw: worst_case_error_2source(two, 2, 2, **kw),
        "seeded": lambda **kw: worst_case_error_seeded(seeded, 2, **kw),
        "leaked": lambda **kw: worst_case_error_leaked(two, (2, 2), 1, **kw),
        "leaked seeded": lambda **kw: worst_case_error_leaked(
            seeded, (2, 2), 1, strong=True, **kw),
        "block+general": lambda **kw: worst_case_error_block_general(
            three, (1, 1, 1), **kw),
        "multi": lambda mode, **_: worst_case_error_multi(
            three, (1, 1, 1), b=1, mode=mode)}
    keys = ["mode", "error", "witness", "enumerated", "notes"]
    for name, call in calls.items():
        for mode in ("exhaustive", "sampled"):
            if name == "multi" and mode == "sampled":
                continue  # exhaustive-only
            rep = call(mode=mode, samples=9, seed=1)
            d = json.loads(json.dumps(rep.to_json_dict()))
            exact = ["error_exact"] if mode == "exhaustive" else []
            assert list(d) == keys + exact + ["volatile"], name
            assert d["mode"] == mode and d["enumerated"] > 0
            assert d["notes"] == ("" if mode == "exhaustive" else
                                  "sampled max: lower bound on worst case")
            assert isinstance(rep.error, Fraction if exact else float)


# ----------------------------------------------------------------------
# GL(n,2) symmetry: one or more enumerated supports per orbit
# ----------------------------------------------------------------------

def _plain(monkeypatch, h, *args):
    """The report of the oracle with the symmetry check failing."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle_mod, "_gl_invariant", lambda table2d: False)
        return worst_case_error_2source(h, *args)


def _equal_reports(a, b):
    da, db = a.to_json_dict(), b.to_json_dict()
    del da["volatile"], db["volatile"]
    return da == db


def _square(table):
    return np.asarray(table, dtype=np.int64).reshape(
        1 << (len(table).bit_length() - 1) // 2, -1)


def test_orbit_supports_cover_every_orbit():
    # For n <= 3 and every K: the supports are distinct K-subsets, their
    # count is sum_d C(2^d - d, K - d), and each orbit of GL(n,2) (found
    # by brute force over the group) holds at least one of them.
    for n in (1, 2, 3):
        for K in range(1, (1 << n) + 1):
            count = oracle_mod._count(1 << n, K, True)
            reps = [tuple(sorted(s)) for s in oracle_mod._subsets(1 << n, K,
                                                                   True)]
            assert len(reps) == len(set(reps)) == count == sum(
                math.comb((1 << d) - d, K - d) for d in range(min(n, K) + 1))
            assert all(len(set(s)) == K and max(s) < 1 << n for s in reps)
            orbits = naive_gl_orbits(n, K)
            assert all(orbit & set(reps) for orbit in orbits)
            assert count >= len(orbits)
    table = oracle_mod._supports(16, 4, True)
    assert table.shape == (7, 4) and not table.flags.writeable
    assert table is oracle_mod._supports(16, 4, True)


def _class_table(n, m, rng):
    """A random m-bit function of the GL(n,2) orbit of (x, y): x = 0,
    y = 0, and ip(x, y) when neither is."""
    out = rng.integers(0, 1 << m, 5)
    x, y = np.divmod(np.arange(1 << 2 * n), 1 << n)
    ip = np.array([parity(int(v)) for v in x & y])
    return out[np.where(x == 0, np.where(y == 0, 0, 1),
                        np.where(y == 0, 2, 3 + ip))].astype(np.uint32)


def test_gl_generators_generate_the_whole_group():
    # Each generator's y map is the inverse transpose of its x map (it
    # keeps <x, y>), and the x maps generate every invertible matrix:
    # their closure has |GL(n,2)| elements, counted naively for n <= 3
    # and from prod(2^n - 2^i) at n = 4.
    for n in range(1, 5):
        gens = oracle_mod._gl_generators(n)
        for ax, ay in gens:
            assert sorted(ax.tolist()) == sorted(ay.tolist()) == list(
                range(1 << n))
            assert all(parity(int(ax[x]) & int(ay[y])) == parity(x & y)
                       for x in range(1 << n) for y in range(1 << n))
        maps = [tuple(ax.tolist()) for ax, _ in gens]
        group, frontier = {tuple(range(1 << n))}, [tuple(range(1 << n))]
        while frontier:
            frontier = [h for h in {tuple(g[v] for v in e)
                                    for e in frontier for g in maps}
                        if h not in group]
            group.update(frontier)
        order = math.prod((1 << n) - (1 << i) for i in range(n))
        assert len(group) == order
        if n <= 3:
            assert order == len(naive_gl_group(n))


def test_gl_check_agrees_with_the_whole_group():
    # The check on the two generators against the brute-force check
    # over every invertible matrix (n <= 3), on the inner product, on
    # random functions of the orbit of (x, y), which have the symmetry,
    # on those with one entry flipped and on random tables; in one read
    # and in reads of one to a few rows, which split a generator's reads.
    rng = np.random.default_rng(67)
    tables = []
    for n in (2, 3):
        ip = ip_handle(n).table()
        flipped = ip.copy()
        flipped[rng.integers(1, 1 << 2 * n)] ^= 1
        tables += [(n, ip), (n, flipped)]
        for m in (1, 2):
            sym = _class_table(n, m, rng)
            tables += [(n, sym), (n, rng.integers(0, 1 << m, 1 << 2 * n))]
    verdicts = []
    for n, t in tables:
        expect = naive_gl_invariant(lambda x, y: int(t[x << n | y]), n)
        verdicts.append(expect)
        for chunk in (oracle_mod.CHUNK_ENTRIES, 1, 3 << n, 5 << n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle_mod, "CHUNK_ENTRIES", chunk)
                assert oracle_mod._gl_invariant(_square(t)) == expect
    assert verdicts.count(True) >= 6 and verdicts.count(False) >= 4


def test_gl_check_in_reads_of_a_few_rows(monkeypatch):
    # n = 3, 4 in reads of 1, 2 and 3 rows: the inner product passes; one
    # entry flipped anywhere, and random tables, fail.
    rng = np.random.default_rng(71)
    for n in (3, 4):
        ip = ip_handle(n).table()
        flips = rng.choice(np.arange(1, 1 << 2 * n), 8, replace=False)
        for rows in (1, 2, 3):
            monkeypatch.setattr(oracle_mod, "CHUNK_ENTRIES", rows << n)
            assert oracle_mod._gl_invariant(_square(ip))
            for i in flips:
                t = ip.copy()
                t[i] ^= 1
                assert not oracle_mod._gl_invariant(_square(t))
            for _ in range(3):
                assert not oracle_mod._gl_invariant(
                    _square(rng.integers(0, 2, 1 << 2 * n)))


def test_symmetric_tables_equal_the_plain_oracle(monkeypatch):
    # Every n <= 4 instance of the inner product (each k1, k2 and strong
    # None/0/1) reports what the plain oracle does over the same table,
    # but for the witness, which re-scores to the error.  n = 2, and
    # enumerated inputs of one point or one support, run plain: the check
    # would read more entries than the enumeration it saves.
    reduced = 0
    for n in (2, 3, 4):
        h = ip_handle(n)
        fn = lambda x, y: parity(x & y)
        for k1, k2, strong in itertools.product(range(n + 1), range(n + 1),
                                                (None, 0, 1)):
            rep = worst_case_error_2source(h, k1, k2, strong)
            ref = _plain(monkeypatch, h, k1, k2, strong)
            assert (rep.mode, rep.error, rep.enumerated) == (
                ref.mode, ref.error, ref.enumerated)
            supports = rep.witness["supports"]
            assert [len(s) for s in supports] == [1 << k1, 1 << k2]
            assert all(s == sorted(set(s)) for s in supports)
            assert naive_instance_error(
                fn, 1, supports, () if strong is None else (strong,)
            ) == rep.error
            if rep.symmetry:
                reduced += 1
                assert rep.representatives < rep.enumerated
                assert rep.candidates < ref.candidates
                assert rep.to_json_dict()["volatile"]["representatives"] == (
                    rep.representatives)
            else:
                assert _equal_reports(rep, ref)
                assert "symmetry" not in rep.to_json_dict()["volatile"]
    assert reduced == 24 + 45  # k of the enumerated input: 1-2 (n=3), 1-3
    # Two-bit functions of the orbit of (x, y) reduce as well.
    rng = np.random.default_rng(73)
    for n in (3, 4):
        t = _class_table(n, 2, rng)
        h = table_handle("orbit-fn", "2-source", (n, n), 2, t)
        fn = lambda x, y: int(t[x << n | y])
        for k1, k2, strong in ((2, 1, None), (n - 1, 2, 0), (2, 2, 1)):
            rep = worst_case_error_2source(h, k1, k2, strong)
            assert rep.symmetry == "GL(n,2)"
            assert rep.error == _plain(monkeypatch, h, k1, k2, strong).error
            assert naive_instance_error(
                fn, 2, rep.witness["supports"],
                () if strong is None else (strong,)) == rep.error


def test_deor_one_bit_reduces_as_the_inner_product(monkeypatch):
    # deor(n, 1) is the inner product's table bit for bit, and the check
    # finds its symmetry; deor(n, 2) lacks it and runs plain.
    for n in (3, 4):
        h = deor_handle(n, 1)
        assert np.array_equal(h.table(), ip_handle(n).table())
        assert not oracle_mod._gl_invariant(_square(deor_handle(n, 2).table()))
        rep2 = worst_case_error_2source(deor_handle(n, 2), 2, 2, None)
        assert rep2.representatives == 0 and rep2.symmetry == ""
        for k1, k2, strong in itertools.product(range(1, n), range(1, n),
                                                (None, 0, 1)):
            rep = worst_case_error_2source(h, k1, k2, strong)
            ref = _plain(monkeypatch, h, k1, k2, strong)
            assert rep.error == ref.error and rep.representatives > 0
            assert exact_distance(
                h, [FlatSource(n, s) for s in rep.witness["supports"]],
                strong=() if strong is None else (strong,)) == rep.error


def test_a_table_that_fails_the_check_runs_plain(monkeypatch):
    # The inner product with one entry flipped, and random tables: the
    # check refuses them, and the reports equal the plain oracle's,
    # witness and candidates included.
    rng = np.random.default_rng(61)
    tables = []
    for n in (3, 4):
        t = ip_handle(n).table().copy()
        t[rng.integers(1, 1 << 2 * n)] ^= 1
        tables += [(n, t)] + [(n, rng.integers(0, 2, 1 << 2 * n,
                                                dtype=np.uint32))
                              for _ in range(3)]
    for n, t in tables:
        assert not oracle_mod._gl_invariant(_square(t))
        h = table_handle("x", "2-source", (n, n), 1, t)
        for k1, k2, strong in ((2, 2, None), (n - 1, 2, 0), (2, n - 1, 1)):
            rep = worst_case_error_2source(h, k1, k2, strong)
            ref = _plain(monkeypatch, h, k1, k2, strong)
            assert _equal_reports(rep, ref)
            assert (rep.symmetry, rep.representatives, rep.candidates) == (
                "", 0, ref.candidates)
        # At a budget of the reduced count, exhaustive refuses with the
        # plain count, the one a run of this table needs.
        count = oracle_mod._count(1 << n, 4, True)
        with pytest.raises(BudgetExceededError) as exc:
            worst_case_error_2source(h, 2, 2, 1, budget=count)
        assert exc.value.required == math.comb(1 << n, 4)
        with pytest.raises(BudgetExceededError) as exc:
            worst_case_error_2source(h, 2, 2, 1, budget=count - 1)
        assert exc.value.required == math.comb(1 << n, 4)


def test_symmetry_reaches_ip5_and_ip6():
    # ip(5; 3, 3) and ip(6; 5, 3), pinned: 3,421 and 5,074 supports of the
    # enumerated input instead of C(32, 8) and C(64, 8).
    for n, k1, k2, strong, error, reps in (
            (5, 3, 3, None, Fraction(5, 16), 3421),
            (5, 3, 3, 0, Fraction(5, 16), 3421),
            (6, 5, 3, None, Fraction(13, 64), 5074)):
        h = ip_handle(n)
        rep = worst_case_error_2source(h, k1, k2, strong)
        assert (rep.mode, rep.error, rep.representatives) == (
            "exhaustive", error, reps)
        assert rep.enumerated == math.comb(1 << n, 1 << k2)
        assert exact_distance(
            h, [FlatSource(n, s) for s in rep.witness["supports"]],
            strong=() if strong is None else (strong,)) == error


# ----------------------------------------------------------------------
# The kernel's compact indicator and its memory count
# ----------------------------------------------------------------------

def _rescored(h, supports, strong=(), leak_source=None, leak_map=None):
    """``exact_distance`` of flat sources on ``supports``, jointly with the
    inputs in ``strong`` and, given a map, the leak of ``leak_source``."""
    scenario = None if leak_map is None else LeakageScenario.oa(
        h.input_widths, leak_source, lambda x, a: leak_map[x],
        max(1, max(leak_map).bit_length()))
    return exact_distance(h, [FlatSource(n, s) for n, s in zip(
        h.input_widths, supports)], strong=strong, scenario=scenario)


def _rescored_witness(h, w, strong):
    return _rescored(h, w["supports"], strong, w.get("leak_source"),
                     w.get("leak_map"))


def test_compact_kernel_matches_naive_and_exact_distance():
    # Random tiny tables through every entry point of the kernel: leak
    # widths 0..2, explicit maps, each strong setting, seeded, multi and
    # block+general; counts held in int8, int16 and int32 indicators.
    rng = np.random.default_rng(64)
    for widths, m, bs in (((2, 2), 1, (0, 1)), ((2, 2), 2, (0, 1)),
                          ((1, 2), 1, (0, 1, 2)), ((2, 1), 2, (0, 1, 2))):
        ks = tuple(int(rng.integers(0, 2)) for _ in widths)
        h, fn = _random_table(rng, widths, m)
        for strong in (None, 0, 1):
            revealed = () if strong is None else (strong,)
            for b in bs:
                rep = worst_case_error_leaked(h, ks, b, strong=strong)
                assert rep.error == (naive_worst_2source(
                    fn, *widths, m, *ks, strong) if b == 0 else max(
                    naive_worst_leaked_2source(fn, *widths, m, *ks, b,
                                               strong, (i,))
                    for i in (0, 1)))
                assert _rescored_witness(h, rep.witness, revealed) == rep.error
            maps = [rng.integers(0, 3, size=1 << widths[1]) for _ in range(2)]
            rep = worst_case_error_leaked(h, ks, 1, strong=strong, maps=maps,
                                          leak_sources=[1])
            assert rep.error == max(
                naive_instance_error(fn, m, sups, revealed, src, f)
                for sups in itertools.product(*flat_supports(widths, ks))
                for src, f in [(None, None)] + [(1, f) for f in maps])
            assert _rescored_witness(h, rep.witness, revealed) == rep.error
    for n, d, m, k, b in ((2, 1, 1, 1, 1), (2, 2, 2, 0, 2), (2, 1, 2, 1, 2)):
        h, fn = _random_table(rng, (n, d), m, "seeded")
        for strong in (True, False):
            rep = worst_case_error_leaked(h, (k, d), b, strong=strong)
            assert rep.error == naive_worst_leaked_seeded(fn, n, d, m, k, b,
                                                          strong)
            w = rep.witness
            assert _rescored(h, [w["support"], range(1 << d)],
                             (1,) if strong else (), 0,
                             w["leak_map"]) == rep.error
    for widths, ks in (((1, 2, 2), (0, 1, 1)), ((2, 1, 2), (1, 0, 1))):
        h, fn = _random_table(rng, widths, 2, "t-source")
        rep = worst_case_error_multi(h, ks, b=1)
        assert rep.error == naive_worst_multi(fn, widths, 2, ks, 1)
        assert _rescored_witness(h, rep.witness, (0, 1)) == rep.error
        rep = worst_case_error_block_general(h, ks)
        assert rep.error == naive_worst_block_general(fn, widths, 2, ks)
        w = rep.witness  # the block source is an average over its x1
        assert sum(_rescored(h, [[x1], w["x2_conditional_supports"][x1],
                                 w["x3_support"]], (0, 1))
                   for x1 in w["x1_support"]) / len(w["x1_support"]) \
            == rep.error
    # one full support of 256 or 32,768 points: int16 and int32 counts
    # (exact_distance stops at 12 bits: the wide table re-scores naively)
    for widths, m, k1 in (((2, 8), 2, 1), ((1, 15), 1, 0)):
        h, fn = _random_table(rng, widths, m)
        for strong in (None, 0, 1):
            rep = worst_case_error_2source(h, k1, widths[1], strong)
            revealed = () if strong is None else (strong,)
            assert rep.error == naive_worst_2source(fn, *widths, m, k1,
                                                    widths[1], strong)
            assert (_witness_error(fn, m, rep.witness, revealed)
                    if widths[1] > 8 else
                    _rescored_witness(h, rep.witness, revealed)) == rep.error


def test_the_count_covers_a_map_free_leaked_requests_traced_peak():
    # ip(3), K = (2, 2), a 1-bit leak: the map-free runs build their events
    # (codes, cell bits, floats) beside the float product; the count holds
    # those and the objects beside the arrays, with caches cold (when the
    # test runs alone) and warm, and the verdict is the one before
    h = ip_handle(3)
    for _ in range(2):
        tracemalloc.start()
        try:
            rep = worst_case_error_leaked(h, (2, 2), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rep.memory_bytes
        assert (rep.mode, rep.error, rep.kernel, rep.enumerated,
                rep.candidates) == ("exhaustive", Fraction(5, 16), "events",
                                    2310, 852)
        assert rep.witness == {"supports": [[0, 1, 2, 4], [0, 1, 2, 4]],
                               "strong": None, "leak_map": None}


def test_refused_requests_are_counted_not_built(monkeypatch):
    # Past the byte cap a request is refused with its estimate, before the
    # kernel builds anything: less is traced than the estimate.
    h = ip_handle(10)
    h.table()
    call = lambda: worst_case_error_leaked(  # noqa: E731
        h, (1, 1), 1, strong=0, mode="sampled", samples=5)
    need = call().memory_bytes
    # 1,024 columns x 1,024 rows x (2 int8 cells + 1 mask byte)
    assert need > 3 << 20
    monkeypatch.setattr(oracle_mod, "SUPPORT_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError,
                           match=rf"need an estimated {need} bytes "
                                 r"\(indicator 3145728, .*the cap is") as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need
    assert str(need - 1) in str(exc.value)


# ----------------------------------------------------------------------
# float64 products and complement-paired events
# ----------------------------------------------------------------------

def _excess(table, m, b, supports):
    """The kernel's excess of ``table`` (rows x, columns y) on the
    enumerated ``supports`` of y with every ``b``-bit leak pattern."""
    M, K2 = 1 << m, supports.shape[1]
    ind = oracle_mod._cell_indicator(table, M, np.min_scalar_type(-K2 * M))
    return oracle_mod._cell_excess(
        ind, supports, oracle_mod._leak_patterns(b, K2)[None], M, 1 << b)


@pytest.mark.parametrize("b", [0, 1])
def test_cell_excess_sums_to_zero_over_each_leak_values_cells(b):
    # M #{y in S : T[x, y] = z, leak e} - #{y in S : leak e} sums to 0 over
    # z for every row x and leak value e, so over all the cells too: the
    # complement of an event scores minus the event
    rng = np.random.default_rng(80 + b)
    for m in (1, 2, 3):
        table = rng.integers(0, 1 << m, size=(8, 16))
        for K2 in (1, 2, 4):
            for supports in (oracle_mod._subset_table(16, K2)[:40],
                             oracle_mod._sample_supports(16, K2, 9, rng)):
                ex = _excess(table, m, b, supports)
                assert ex.shape == (len(supports) << b * K2, 2 << m + b - 1, 8)
                assert ex.any()
                assert not ex.sum(axis=1).any()
                assert not ex.reshape(len(ex), 1 << b, 1 << m, 8).sum(
                    axis=2).any()


def test_paired_event_values_equal_the_unpaired_top_sums():
    # The B = 1 rule scores codes 1 .. E/2 and reads each complement off
    # the same row sort; every event's value, in event order, must be the
    # top-K1 sum of its own int64 row scores, and a pick must be that
    # event's top rows, ties to the lower index, on random and tied tables
    rng = np.random.default_rng(81)
    twins = rng.integers(0, 8, size=(4, 8)).repeat(2, axis=0)
    for m, b in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)):
        tables = [rng.integers(0, 1 << m, size=(8, 8)),
                  np.zeros((8, 8), np.int64), twins % (1 << m)]
        J = 1 << m + b
        E = (1 << J) - 2
        bits = np.arange(1, E + 1)[:, None] >> np.arange(J) & 1
        for table in tables:
            for K2 in (2, 4):
                for supports in (oracle_mod._subset_table(8, K2)[:5],
                                 oracle_mod._sample_supports(8, K2, 3, rng)):
                    if J > 8:  # 65,534 events: one support's patterns
                        supports = supports[:1]
                    ex = _excess(table, m, b, supports)
                    if J > 8:
                        ex = ex[:3]
                    scores = bits @ ex.astype(np.int64)  # (config, event, row)
                    for K1 in (1, 4, 7):
                        values, pick = oracle_mod._event_rule(8, K1, J)[0]()
                        got = values(ex)
                        assert got.dtype == np.int64
                        assert (got == oracle_mod._top_sums(
                            scores, K1)).all()
                        qs = range(E) if J <= 8 else rng.integers(0, E, 40)
                        for q in qs:
                            assert pick(ex[0], q) == oracle_mod._top_index(
                                scores[0, q], K1)


def _skewed_table(rng, widths, m):
    """A table whose outputs are mostly 0: large excesses, whose sums over
    a few rows pass int16."""
    size = 1 << sum(widths)
    t = np.where(rng.random(size) < 0.08, rng.integers(1, 1 << m, size), 0)
    flat = t.tolist()

    def fn(*xs):
        idx = 0
        for x, w in zip(xs, widths):
            idx = (idx << w) | x
        return flat[idx]
    kind = "2-source" if len(widths) == 2 else "t-source"
    return table_handle("skew", kind, widths, m, t.astype(np.uint32)), fn


def test_float_products_stay_exact_past_int16():
    # The supports and multi rules sum int16 excesses and row scores over
    # the rows of each S1 in float64; sums past 2^15 must still be exact
    rng = np.random.default_rng(82)
    h, fn = _skewed_table(rng, (3, 12), 3)  # 256 events > C(8, 2) supports
    rep = worst_case_error_2source(h, 1, 12)
    assert rep.kernel == "supports"
    assert rep.error == naive_worst_2source(fn, 3, 12, 3, 1, 12)
    t = h.table().reshape(8, 4096)  # the witness's cell z = 0 sum
    s1 = rep.witness["supports"][0]
    assert sum(8 * int((t[x] == 0).sum()) - 4096 for x in s1) > 1 << 15
    h, fn = _skewed_table(rng, (2, 2, 12), 3)
    rep = worst_case_error_multi(h, (1, 1, 12))
    assert rep.error == naive_worst_multi(fn, (2, 2, 12), 3, (1, 1, 12))
    assert _rescored_witness(h, rep.witness, (0, 1)) == rep.error
    counts = np.stack([(h.table().reshape(4, 4, 4096) == z).sum(axis=2)
                       for z in range(8)])  # (z, x1, x2)
    scores = np.maximum(8 * counts - 4096, 0).sum(axis=0)
    s1, s2, _ = rep.witness["supports"]
    assert scores[s1][:, s2].sum(axis=0).max() > 1 << 15


def _qmext(seed):
    draw = np.random.default_rng(seed).integers
    from extractomat.combinators import build_qmext_handle
    return build_qmext_handle(
        table_handle("i", "2-source", (3, 3), 2,
                     draw(0, 4, size=64, dtype=np.uint32)),
        table_handle("q", "seeded", (3, 2), 2,
                     draw(0, 4, size=32, dtype=np.uint32)))


@pytest.mark.parametrize("handle, call, kernel", [
    (lambda: _qmext(83),
     lambda h: worst_case_error_multi(h, (2, 2, 1), b=1), "events"),
    (lambda: table_handle("r", "2-source", (3, 4), 3, np.random.default_rng(
        84).integers(0, 8, size=128, dtype=np.uint32)),
     lambda h: worst_case_error_2source(h, 1, 2), "supports"),
    (lambda: deor_handle(4, 2),
     lambda h: worst_case_error_2source(h, 3, 2), "events"),
    (lambda: table_handle("r", "2-source", (4, 4), 3, np.random.default_rng(
        85).integers(0, 8, size=256, dtype=np.uint32)),
     lambda h: worst_case_error_2source(h, 2, 1), "events"),
], ids=["multi-qmext-b1", "supports", "paired-events", "paired-events-j8"])
def test_the_count_covers_float_product_requests_traced_peaks(handle, call,
                                                              kernel):
    # The multi rule's scores as floats and its product, the supports
    # rule's float excess and one-hot, and the paired half product are
    # counted, the paired sums of 254 events at J = 8 too (more entries
    # than the excess as floats): the request's traced peak, its table
    # built first, stays within memory_bytes with support tables cold
    # (when the test runs alone) and warm
    h = handle()
    h.table()
    for _ in range(2):
        tracemalloc.start()
        try:
            rep = call(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.kernel == kernel
        assert peak <= rep.memory_bytes
