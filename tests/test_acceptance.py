"""Acceptance suite: one test per exit criterion, exact tolerances pinned.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) after its assertions hold.  Exhaustive comparisons use
rational arithmetic end to end; sampled quantities carry their stated
confidence intervals.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from extractomat import certify
from extractomat.cli import build_toy_network
from extractomat.combinators import (CompositionConfig, CondenserHandle,
                                     build_qbext_handle, build_qmext_handle,
                                     build_three_source_handle,
                                     weak_seed_transform)
from extractomat.dist import JointDistribution
from extractomat.errors import ConstraintViolatedError
from extractomat.extractors import ip_handle, strong_projection, toeplitz_handle
from extractomat.graphs import (search_gadget, verify_and_disperser,
                                verify_expander)
from extractomat.leakage import LeakageScenario
from extractomat.ledger import ledger_theorem
from extractomat.netsim import (AdversaryStrategy, GadgetSet, NetworkConfig,
                                evaluate_security, mc_public_block_quality,
                                protocol_runs, strong_player_error)
from extractomat.oracle import (check_lemma, worst_case_error_2source,
                                worst_case_error_block_general,
                                worst_case_error_multi,
                                worst_case_error_seeded)
from extractomat.pa import pa_distance
from extractomat.sources import BlockSourceSpec, FlatSource, check_block_source


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


# ----------------------------------------------------------------------
# 1. Toeplitz leftover-hash bound
# ----------------------------------------------------------------------

def test_criterion_01_toeplitz_lhl_bound():
    t0 = time.perf_counter()
    h = toeplitz_handle(4, 1)
    rep = worst_case_error_seeded(h, 2, strong=True)
    elapsed = time.perf_counter() - t0
    assert rep.mode == "exhaustive"
    assert isinstance(rep.error, Fraction)
    assert rep.error == Fraction(3, 16)
    assert float(rep.error) <= 0.35356
    assert float(rep.error) <= 0.5 * 2 ** ((1 - 2) / 2)
    assert elapsed < 60
    _report(1, f"toeplitz(4,2,1) strong error = {rep.error} "
               f"<= 0.35356 in {elapsed:.2f}s single-threaded")


# ----------------------------------------------------------------------
# 2. Inner-product two-source bound
# ----------------------------------------------------------------------

def test_criterion_02_ip_bound_and_stability():
    t0 = time.perf_counter()
    h = ip_handle(4)
    rep1 = worst_case_error_2source(h, 3, 3, None)
    rep2 = worst_case_error_2source(h, 3, 3, None)
    elapsed = time.perf_counter() - t0
    assert rep1.mode == "exhaustive"
    assert rep1.error == rep2.error == Fraction(3, 16)  # recorded exact value
    assert float(rep1.error) <= 2 ** -0.5
    assert elapsed < 600
    _report(2, f"ip(4;3,3) error = {rep1.error} <= 2^-1/2, stable across "
               f"runs, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. XOR-projection dominance
# ----------------------------------------------------------------------

def test_criterion_03_projection_dominance(cache_dir):
    checked = 0
    for seed in (61, 62, 63, 64, 65):
        h, rec = certify.certify_random_table((4, 4), (2, 2), 2, seed=seed,
                                              cache_dir=cache_dir)
        full = rec.error_fraction()
        for subset in ({1}, {2}, {1, 2}):
            proj = strong_projection(h, subset)
            perr = worst_case_error_2source(proj, 2, 2, None).error
            assert perr <= full  # exact rational comparison, zero tolerance
            checked += 1
    _report(3, f"{checked} XOR projections of five certified (4,2) tables "
               "all dominated by the full-output error (exact)")


# ----------------------------------------------------------------------
# 4. Composed multi-source budget (one extra source)
# ----------------------------------------------------------------------

def test_criterion_04_qmext_budget(cache_dir):
    iext, rec1 = certify.certify_random_table((3, 3), (2, 2), 2, seed=301,
                                              cache_dir=cache_dir)
    extq, rec2 = certify.certify_random_table((3, 2), (2, 2), 2,
                                              kind="seeded", seed=302,
                                              cache_dir=cache_dir,
                                              leak_bits=1)
    comp = build_qmext_handle(iext, extq)
    rep = worst_case_error_multi(comp, (2, 2, 2), b=1)
    eps1 = rec1.error_fraction()
    eps2 = rec2.error_fraction()
    assert rep.mode == "exhaustive"
    assert rep.error <= eps1 + eps2  # exact, includes b=1 leakage families
    _report(4, f"composed (t=2,n=3,k=2) strong one-sided error {rep.error} "
               f"<= eps1+eps2 = {eps1 + eps2} with 1-bit leakage")


# ----------------------------------------------------------------------
# 5. Alternating-extraction budget (one extra block)
# ----------------------------------------------------------------------

def test_criterion_05_qbext_budget(cache_dir):
    bext, recb = certify.certify_random_table((3, 3), (2, 2), 2, seed=401,
                                              cache_dir=cache_dir,
                                              strong=(0,))
    extc, recc = certify.certify_random_table((2, 1), (1, 1), 2,
                                              kind="seeded", seed=402,
                                              cache_dir=cache_dir)
    extq, recq = certify.certify_random_table((3, 2), (1, 2), 2,
                                              kind="seeded", seed=403,
                                              cache_dir=cache_dir)
    comp = build_qbext_handle(bext, extc, extq, k3=2)
    rep = worst_case_error_block_general(comp, (2, 1, 2))
    # the residual 2^(-k3/20) is irrational, so the budget side is a
    # float; the oracle side stays an exact rational
    budget_f = (4 * recb.strong_errors[0] + 2 * float(recc.error_fraction())
                + float(recq.error_fraction()) + 2.0 ** (-2 / 20))
    assert rep.mode == "exhaustive"
    assert float(rep.error) <= budget_f
    _report(5, f"alternating extraction strong error {rep.error} <= "
               f"4e1+2e2+e3+2^-k3/20 = {budget_f:.4f} "
               "(residual constant 1/20 is a recorded default)")


# ----------------------------------------------------------------------
# 6. Weak-seed halving produces a block source
# ----------------------------------------------------------------------

def _count_profiles(total, slots, cap):
    """Nonincreasing count vectors (c_1..c_slots), sum=total, 0<=c<=cap."""
    def rec(remaining, slots_left, ceiling):
        if slots_left == 0:
            if remaining == 0:
                yield ()
            return
        lo = -(-remaining // slots_left)  # ceil: keep feasibility
        for c in range(min(ceiling, cap, remaining), max(lo, 0) - 1, -1):
            for rest in rec(remaining - c, slots_left - 1, c):
                yield (c,) + rest
    yield from rec(total, slots, cap)


def test_criterion_06_weak_seed_block_split():
    # d' = 6, rate-(1/2+1/4) seeds at the smallest integral entropy k=5
    # (support 32).  For a flat seed, every (prefix, suffix) cell holds at
    # most one point, so the conditional entropy of the second half given
    # prefix r is exactly log2(c_r) and the whole check depends only on
    # the prefix count profile.  Enumerating every profile therefore
    # covers all C(64,32) flat seeds exactly.
    d_prime, delta = 6, 0.25
    thr1 = math.ceil(delta * d_prime)       # 2
    thr2 = math.ceil(delta * d_prime / 2)   # 1
    bound = 2.0 ** (-delta * d_prime / 2)   # 2^-0.75
    support_size = 32
    profiles = list(_count_profiles(support_size, 8, 8))
    assert profiles, "profile enumeration must be non-empty"
    worst_mass = Fraction(0)
    for prof in profiles:
        # first half: Pr[R1 = r] = c_r / 32 <= 8/32 = 2^-2 always
        assert max(prof) <= 8
        assert math.log2(support_size / max(prof)) >= thr1 - 1e-12
        # second half: H(R2 | r) = log2(c_r); violations are singletons
        mass = Fraction(sum(1 for c in prof if 0 < c < (1 << thr2)),
                        support_size)
        worst_mass = max(worst_mass, mass)
    assert float(worst_mass) <= bound
    # dual route: realize a sample of profiles as explicit flat seeds and
    # cross-check with the block-source checker
    spec = BlockSourceSpec((3, 3), (thr1, thr2))
    for prof in profiles[:: max(1, len(profiles) // 12)]:
        support = [(r << 3) | s for r, c in enumerate(prof)
                   for s in range(c)]
        atoms = {(v >> 3, v & 7): Fraction(1, support_size) for v in support}
        j = JointDistribution.from_atoms([("R1", 3), ("R2", 3)], atoms)
        verdict = check_block_source(j, spec)
        expect_mass = Fraction(sum(1 for c in prof if c == 1), support_size)
        assert verdict.violating_mass[0] == 0
        assert verdict.violating_mass[1] == expect_mass
    _report(6, f"all {len(profiles)} prefix-count profiles of rate-3/4 "
               f"six-bit flat seeds: halves clear thresholds ({thr1},{thr2}) "
               f"except prefix mass <= {float(worst_mass):.4f} <= "
               f"2^-dd'/2 = {bound:.4f} (exact count)")


# ----------------------------------------------------------------------
# 7. Gadget search and exhaustive verification
# ----------------------------------------------------------------------

def test_criterion_07_gadget_search():
    t0 = time.perf_counter()
    g1, v1, r1 = search_gadget(
        "and-disperser",
        {"l": 12, "r": 8, "d": 2, "delta": 0.5, "gamma": 0.125}, seed=7)
    t1 = time.perf_counter() - t0
    assert v1.ok and t1 < 120
    assert verify_and_disperser(g1, 0.5, 0.125).ok  # search output re-verifies
    t0 = time.perf_counter()
    g2, v2, r2 = search_gadget("expander",
                               {"l": 10, "r": 10, "d": 4, "beta": 0.3},
                               seed=7)
    t2 = time.perf_counter() - t0
    assert v2.ok and t2 < 120
    assert verify_expander(g2, 0.3).ok
    _report(7, f"AND-disperser(12,8,2,1/2,1/8) in {t1:.1f}s and "
               f"expander(10,10,4,0.3) in {t2:.1f}s; both re-verify "
               "exhaustively")


# ----------------------------------------------------------------------
# 8. Public block-source protocol structure and quality
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_ext_pub_quality(cache_dir):
    t0 = time.perf_counter()
    cfg, _ = build_toy_network({"p": 7, "t": 1, "n": 6, "k": 4,
                                "alpha": 2.0, "delta": 0.25, "seed": 17,
                                "cert_samples": 400}, cache_dir=cache_dir)
    assert cfg.y_width == 2 * cfg.b_size * math.isqrt(cfg.k)  # exact width
    rng = np.random.default_rng(5)
    sources = [FlatSource.random(6, 4, rng) for _ in range(7)]
    scenario = LeakageScenario.trivial([6] * 7)
    n_runs = 100_000
    _, _, b = protocol_runs("ext_pub_only", cfg, sources, scenario,
                            AdversaryStrategy.passive(), n_runs=n_runs,
                            seed=100)
    assert b.y_width == 2 * cfg.b_size * math.isqrt(cfg.k)
    assert b.y.min() >= 0 and b.y.max() < 1 << b.y_width
    tol = 1.001 * (100 * (1 << 4) / n_runs) ** 0.5
    quality = mc_public_block_quality(cfg, b, tol=tol, seed=100)
    eps1 = cfg.gadgets.iext.record.error
    eps2 = cfg.gadgets.srext.record.strong_errors[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    for pid, rep in quality.items():
        assert rep.estimate <= eps1 + eps2 + rep.half_width, \
            f"player {pid}: {rep.estimate} vs {eps1 + eps2}"
    worst = max(rep.estimate for rep in quality.values())
    _report(8, f"y is exactly {cfg.y_width} bits; all-honest (Y_j, T1) "
               f"estimates (max {worst:.4f}) within eps1+eps2 = "
               f"{eps1 + eps2:.4f} + CI at N=1e5, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 9. Rushing order under adaptive corruption
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_rushing_order(cache_dir):
    cfg, _ = build_toy_network({"p": 7, "t": 1, "n": 6, "k": 4,
                                "alpha": 2.0, "delta": 0.25, "seed": 17,
                                "cert_samples": 40}, cache_dir=cache_dir)
    rng = np.random.default_rng(6)
    sources = [FlatSource.random(6, 4, rng) for _ in range(7)]
    scenario = LeakageScenario.trivial([6] * 7)

    def trigger(rnd_done, transcript):
        # transcript-dependent adaptive corruption of one B player (an int
        # tuple's hash does not depend on the interpreter's hash seed)
        return {4 + hash(transcript) % 3} if rnd_done == 1 else set()

    adv = AdversaryStrategy.ir(
        set(), lambda p, r, v: sum(x for _, _, x in v["round_honest"]),
        trigger=trigger)
    _, _, b = protocol_runs("ext_pub_only", cfg, sources, scenario, adv,
                            n_runs=10_000, seed=0)
    assert b.rushing_order_ok()
    # every trigger branch ran: players 4, 5 and 6 each turn corrupt in
    # some world, and the corrupt one sends late in rounds 2 and 3
    assert b.faulty[:, 3:6].any(axis=0).all()
    assert (b.faulty.sum(axis=1) == 1).all()
    assert not b.rounds[0][4].any()
    assert all((late == b.faulty[:, 3:6]).all() for *_, late in b.rounds[1:])
    _report(9, "10000 adaptive-corruption worlds: zero rushing-order "
               "violations in the scheduler log")


# ----------------------------------------------------------------------
# 10. Independent-to-correlated rushing lift
# ----------------------------------------------------------------------

def _micro_geqr(cache_dir):
    iext, _ = certify.certify_random_table((4, 4), (4, 4), 2, seed=201,
                                           cache_dir=cache_dir)
    qtext, _ = certify.certify_random_table((4, 4), (4, 4), 2,
                                            kind="2-source", seed=202,
                                            cache_dir=cache_dir, strong=(1,))
    return NetworkConfig(p=5, t=1, n=4, k=4, alpha=0.25,
                         gadgets=GadgetSet(iext=iext, qtext=qtext),
                         geqr_group=2, geqr_s=2)


@pytest.mark.slow
def test_criterion_10_ir_to_qr_lift(cache_dir):
    cfg = _micro_geqr(cache_dir)
    assert cfg.geqr_slice * cfg.t == 2  # 2-bit rushing
    # the faulty player's own source never enters the statement; pinning
    # it keeps the enumeration over honest randomness only
    sources = [FlatSource(4, range(16)) if pid != 3 else FlatSource(4, [0])
               for pid in range(1, 6)]
    scenario = LeakageScenario.oa([4] * 5, 4, lambda x, a: x & 1, 1)
    qr = AdversaryStrategy.qr_analog(
        {3}, lambda pid, rnd, view, side: (side.get(5, 0) * 15) & 0xF)
    qr_rep = evaluate_security("geqr", cfg, sources, scenario, qr, [5],
                               mode="exact")
    # the guessing-argument baseline: every constant-slice IR attack
    ir_worst = Fraction(0)
    for r in range(4):
        ir = AdversaryStrategy.forced_slice({3}, {2: r})
        rep = evaluate_security("geqr", cfg, sources, scenario, ir, [5],
                                mode="exact")
        ir_worst = max(ir_worst, rep.distance)
    assert isinstance(qr_rep.distance, Fraction)
    assert qr_rep.distance <= 4 * ir_worst  # exact rational comparison
    _report(10, f"exact correlated-rushing distance {qr_rep.distance} <= "
                f"2^2 * {ir_worst} (worst constant-slice independent attack)")


# ----------------------------------------------------------------------
# 11. Per-player strong errors union to set security
# ----------------------------------------------------------------------

def test_criterion_11_hybrid_union(cache_dir):
    iext, _ = certify.certify_random_table((3, 3), (2, 2), 2, seed=501,
                                           cache_dir=cache_dir)
    qtext, _ = certify.certify_random_table((3, 2), (2, 2), 2,
                                            kind="2-source", seed=503,
                                            cache_dir=cache_dir, strong=(1,))
    cfg = NetworkConfig(p=6, t=1, n=3, k=2, alpha=0.25,
                        gadgets=GadgetSet(iext=iext, qtext=qtext),
                        geqr_group=2, geqr_s=2)
    rng = np.random.default_rng(11)
    sources = [FlatSource.random(3, 2, rng) for _ in range(6)]
    scenario = LeakageScenario.oa([3] * 6, 4, lambda x, a: x & 1, 1)
    adv = AdversaryStrategy.passive()
    set_rep = evaluate_security("geqr", cfg, sources, scenario, adv, [5, 6],
                                mode="exact")
    e5 = strong_player_error("geqr", cfg, sources, scenario, adv, 5)
    e6 = strong_player_error("geqr", cfg, sources, scenario, adv, 6)
    verdict = check_lemma("L8.1", set_error=set_rep.distance,
                          individual_errors=[e5, e6])
    assert verdict.ok  # zero tolerance: exact Fractions on both sides
    _report(11, f"set error {set_rep.distance} <= {e5} + {e6} "
                "(two honest players, exact)")


# ----------------------------------------------------------------------
# 12. Ledger reproduction of the lift chain
# ----------------------------------------------------------------------

def test_criterion_12_ledger_chain():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n1 = int(rng.integers(1 << 14, 1 << 20))
        n2 = int(rng.integers(1 << 14, 1 << 20))
        delta = float(rng.uniform(0.1, 0.4))
        k1 = ((0.5 + delta) * n1 + 3 * math.log2(n1) + math.log2(n2)
              + float(rng.uniform(1, 50)))
        k2 = float(rng.uniform(13000, 40000))
        m_max = (delta / 16) * min(n1 / 8, k2 / 40) - 1
        m = float(rng.uniform(1, m_max))
        entry = ledger_theorem("raz-ge", n1=n1, n2=n2, k1=k1, k2=k2,
                               delta=delta, m=m)
        steps = {s["step"]: s["value"] for s in entry.trace}
        # bit-exact reproduction of the derivation chain
        assert steps["k1'"] == k1 - 5 * m
        assert steps["k2'"] == k2 - 5 * m
        assert steps["delta'"] == delta / 2
        assert steps["eps'"] == 2.0 ** (-5 * m)
        assert steps["lift"] == {"k1": (k1 - 5 * m) + 5 * m,
                                 "k2": (k2 - 5 * m) + 5 * m,
                                 "eps": (2.0 ** m) * math.sqrt(2.0 ** (-5 * m))}
        assert entry.outputs["eps"] == 2.0 ** (-1.5 * m)
        assert entry.replay()

    # each stated constraint, violated by one unit, is rejected by name
    base = dict(n1=1 << 16, n2=1 << 16, delta=0.2, k2=20000.0)
    base["k1"] = (0.7 * (1 << 16) + 3 * 16 + 16 + 10)
    base["m"] = 5.0
    ledger_theorem("raz-ge", **base)  # sanity: the base point is valid

    v1 = dict(base)
    v1["n1"] = 64
    v1["n2"] = 2 ** ((64 + 1 - 6 * math.log2(64)) / 2)  # RHS = n1 + 1
    v1["k1"] = 50.0
    v1["m"] = 1.0
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("raz-ge", **v1)
    assert any("n1 >=" in v for v in exc.value.violations)

    v2 = dict(base)
    v2["k1"] = ((0.5 + base["delta"]) * base["n1"] + 3 * math.log2(base["n1"])
                + math.log2(base["n2"]) - 1)
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("raz-ge", **v2)
    assert any("k1 >=" in v for v in exc.value.violations)

    v3 = dict(base)
    v3["k2"] = 6 * math.log2(base["n1"] - base["k1"]) - 1
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("raz-ge", **v3)
    assert any("k2 >=" in v for v in exc.value.violations)

    v4 = dict(base)
    v4["m"] = (base["delta"] / 16) * min(base["n1"] / 8, base["k2"] / 40) - 1 + 1
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("raz-ge", **v4)
    assert any("m <=" in v for v in exc.value.violations)
    _report(12, "20 randomized lift chains reproduced bit-exactly; all four "
                "constraints rejected by name when violated by one")


# ----------------------------------------------------------------------
# 13. Privacy amplification
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_13_privacy_amplification(cache_dir):
    base, _ = certify.certify_random_table((6, 2), (4, 2), 2, kind="seeded",
                                           seed=404, cache_dir=cache_dir,
                                           mode="sampled", samples=100)
    raz, _ = certify.certify_random_table((2, 6), (2, 4), 2, seed=405,
                                          cache_dir=cache_dir,
                                          mode="sampled", samples=100,
                                          strong=(0,))
    srext, _ = certify.certify_random_table((2, 1), (1, 1), 2,
                                            kind="2-source", seed=406,
                                            cache_dir=cache_dir,
                                            strong=(1,))
    wcfg = CompositionConfig(weak_seed_C=2.0)
    weak = weak_seed_transform(base, 0.25, d_prime=4, raz_slot=raz,
                               srext_slot=srext, config=wcfg)

    cond = CondenserHandle.identity(3)
    raz3, _ = certify.certify_random_table((3, 6), (2, 4), 2, seed=407,
                                           cache_dir=cache_dir,
                                           mode="sampled", samples=100,
                                           strong=(0,))
    srext3, _ = certify.certify_random_table((3, 1), (2, 1), 2,
                                             kind="2-source", seed=408,
                                             cache_dir=cache_dir,
                                             strong=(1,))
    last3, _ = certify.certify_random_table((6, 2), (4, 2), 2, kind="seeded",
                                            seed=409, cache_dir=cache_dir,
                                            mode="sampled", samples=100)
    three = build_three_source_handle(cond, raz3, srext3, last3,
                                      delta=2 / 3, d=3, k=4)

    # keys agree by the protocols' definition (see extractomat.pa); what
    # is measured is the eavesdropper's distance
    rng = np.random.default_rng(13)

    x_src = FlatSource.random(6, 4, rng)
    y_src = FlatSource.random(4, 3, rng)
    d_one = pa_distance("one-source", weak, [x_src, y_src])
    assert d_one == Fraction(21, 128)
    assert float(d_one) <= weak.budget.total()
    y1_src = FlatSource.random(3, 2, rng)
    y2_src = FlatSource.random(3, 2, rng)
    d_two = pa_distance("two-sources", three, [y1_src, y2_src, x_src])
    assert d_two == Fraction(47, 256)
    assert float(d_two) <= three.budget.total()

    dists = []
    for b in (0, 1, 2):
        sc = None if b == 0 else LeakageScenario.oa(
            [6, 4], 0, lambda xx, a, b=b: xx >> (6 - b), b)
        dists.append(pa_distance("one-source", weak, [x_src, y_src], sc))
    assert dists == [Fraction(21, 128), Fraction(55, 256), Fraction(127, 512)]
    _report(13, f"eavesdropper distances "
                f"{float(d_one):.4f}/{float(d_two):.4f} within budgets; "
                f"leak widths 0/1/2 monotone "
                f"({float(dists[0]):.3f} <= {float(dists[1]):.3f} <= "
                f"{float(dists[2]):.3f})")


# ----------------------------------------------------------------------
# 14. Lemma checkers
# ----------------------------------------------------------------------

def _random_exact_joint(rng, parts, denom=4096):
    total = sum(w for _, w in parts)
    counts = rng.multinomial(denom, np.full(1 << total, 1 / (1 << total)))
    return JointDistribution(parts, [Fraction(int(c), denom) for c in counts])


@pytest.mark.slow
def test_criterion_14_lemma_checkers():
    rng = np.random.default_rng(14)
    for eps in (0.25, 0.125):
        passed = 0
        for _ in range(1000):
            j = _random_exact_joint(rng, [("X", 4), ("Y", 2)])
            passed += bool(check_lemma("L2.2", joint=j, eps=eps).ok)
        rate = passed / 1000
        assert rate >= 1 - eps  # consistent with the 1 - eps guarantee
        assert rate == 1.0      # the bound is a theorem per instance
    min_slack = None
    for i in range(1000):
        m = 1 + (i % 3)
        j = _random_exact_joint(rng, [("Z", m), ("E", 2)], denom=1024)
        v = check_lemma("L2.5", joint=j)
        assert v.ok and v.slack >= 0
        min_slack = v.slack if min_slack is None else min(min_slack, v.slack)
    _report(14, f"conditioning lemma: 1000/1000 at eps 1/4 and 1/8; "
                f"XOR-lemma slack >= 0 on 1000 joints "
                f"(min {float(min_slack):.4g})")
