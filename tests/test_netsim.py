from fractions import Fraction

import numpy as np
import pytest

from extractomat import certify
from extractomat.cli import build_toy_network
from extractomat.errors import ConstraintViolatedError, InvalidInputError
from extractomat.leakage import LeakageScenario
from extractomat.netsim import (AdversaryStrategy, GadgetSet, NetworkConfig,
                                evaluate_security, exec_ext_pri, exec_ext_pub,
                                exec_geqr, parse_config_text, protocol_runs,
                                run_ext_pub, run_geqr, strong_player_error)
from extractomat.sources import FlatSource


@pytest.fixture(scope="module")
def toy_cfg(cache_dir):
    cfg, _ = build_toy_network({"p": 7, "t": 1, "n": 6, "k": 4, "alpha": 2.0,
                                "delta": 0.25, "seed": 17,
                                "cert_samples": 40}, cache_dir=cache_dir)
    return cfg


@pytest.fixture(scope="module")
def micro_geqr(cache_dir):
    iext, _ = certify.certify_random_table((4, 4), (4, 4), 2, seed=201,
                                           cache_dir=cache_dir)
    qtext, _ = certify.certify_random_table((4, 4), (4, 4), 2,
                                            kind="2-source", seed=202,
                                            cache_dir=cache_dir, strong=(1,))
    g = GadgetSet(iext=iext, qtext=qtext)
    return NetworkConfig(p=5, t=1, n=4, k=4, alpha=0.25, gadgets=g,
                         geqr_group=2, geqr_s=2)


def _toy_sources(cfg, seed=5):
    rng = np.random.default_rng(seed)
    return [FlatSource.random(cfg.n, cfg.k, rng) for _ in range(cfg.p)]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_partition_arithmetic(toy_cfg):
    assert toy_cfg.players_a == (1, 2, 3)
    assert toy_cfg.players_b == (4, 5, 6)
    assert toy_cfg.players_c == (7,)
    assert toy_cfg.slice_width == 2
    assert toy_cfg.y_width == 12


def test_partition_violation_named():
    with pytest.raises(InvalidInputError, match=r"\|A\| = \(1\+alpha\)t violated"):
        NetworkConfig(p=7, t=1, n=6, k=4, alpha=2.0, a_size=2)
    with pytest.raises(InvalidInputError, match=r"\|B\| = 2\(1\+2delta\)t violated"):
        NetworkConfig(p=7, t=1, n=6, k=4, alpha=2.0, delta=0.25, b_size=5)


def test_entropy_floor_warning():
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        NetworkConfig(p=16, t=1, n=6, k=4, alpha=2.0)
    assert any("entropy floor" in str(w.message) for w in caught)


def test_config_text_parser():
    params = parse_config_text("""
        # comment
        p = 7
        t = 1
        alpha = 2.0
        protocol = extpub
    """)
    assert params == {"p": 7, "t": 1, "alpha": 2.0, "protocol": "extpub"}
    with pytest.raises(InvalidInputError):
        parse_config_text("nonsense line")
    with pytest.raises(InvalidInputError):
        parse_config_text("unknown_key = 3")
    with pytest.raises(InvalidInputError):
        parse_config_text("p = abc")


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def test_run_is_deterministic(toy_cfg):
    sources = _toy_sources(toy_cfg)
    sc = LeakageScenario.trivial([6] * 7)
    adv = AdversaryStrategy.passive()
    r1, y1 = run_ext_pub(toy_cfg, sources, sc, adv, seed=42)
    r2, y2 = run_ext_pub(toy_cfg, sources, sc, adv, seed=42)
    assert r1.transcript_key() == r2.transcript_key()
    assert y1 == y2
    r3, _ = run_ext_pub(toy_cfg, sources, sc, adv, seed=43)
    assert r3.transcript_key() != r1.transcript_key()


def test_y_width_and_round_structure(toy_cfg):
    sources = _toy_sources(toy_cfg)
    run, y = run_ext_pub(toy_cfg, sources, LeakageScenario.trivial([6] * 7),
                         AdversaryStrategy.passive(), seed=1)
    assert y.width == 2 * toy_cfg.b_size * toy_cfg.slice_width
    rounds = {m.round for m in run.messages}
    assert rounds == {1, 2, 3}
    assert run.rounds_interactive == 3
    assert run.good_left_count == toy_cfg.gadgets.and_disperser.l


def test_rushing_order_enforced_with_faulty(toy_cfg):
    sources = _toy_sources(toy_cfg)
    adv = AdversaryStrategy.ir(
        {1}, lambda pid, rnd, view: sum(v for _, _, v in view["round_honest"]))
    run, _ = run_ext_pub(toy_cfg, sources, LeakageScenario.trivial([6] * 7),
                         adv, seed=2)
    assert run.rushing_order_ok()
    assert any(m.faulty for m in run.messages if m.round == 1)


def test_good_left_set_nonempty_under_corruption(toy_cfg):
    sources = _toy_sources(toy_cfg)
    for faulty in (1, 2, 3):
        adv = AdversaryStrategy.ir({faulty}, lambda p, r, v: 0)
        run, _ = run_ext_pub(toy_cfg, sources,
                             LeakageScenario.trivial([6] * 7), adv, seed=3)
        assert run.good_left_count >= 1


def test_adaptive_corruption_takes_effect_next_round(toy_cfg):
    sources = _toy_sources(toy_cfg)

    def trigger(rnd_done, transcript):
        return {4} if rnd_done == 1 else set()

    adv = AdversaryStrategy.ir(set(), lambda p, r, v: 0, trigger=trigger)
    run, _ = run_ext_pub(toy_cfg, sources, LeakageScenario.trivial([6] * 7),
                         adv, seed=4)
    assert not any(m.faulty for m in run.messages if m.round == 1)
    assert any(m.faulty and m.sender == 4 for m in run.messages
               if m.round in (2, 3))
    assert run.rushing_order_ok()


def test_ir_strategy_cannot_see_side_information(toy_cfg):
    # interface separation: an IR strategy's view never includes the leak
    # register, so re-randomizing the leaks cannot change its messages
    sources = _toy_sources(toy_cfg)
    sc = LeakageScenario.oa([6] * 7, 6, lambda x, a: x & 3, 2)
    calls = []

    def rushing(pid, rnd, view):
        calls.append(sorted(view.keys()))
        return 0

    adv = AdversaryStrategy.ir({1}, rushing)
    xvals, _ = {pid: 0 for pid in range(1, 8)}, None
    run1, _ = exec_ext_pub(toy_cfg, {p: 1 for p in range(1, 8)}, adv,
                           side_info={7: 0})
    run2, _ = exec_ext_pub(toy_cfg, {p: 1 for p in range(1, 8)}, adv,
                           side_info={7: 3})
    assert run1.transcript_key() == run2.transcript_key()
    assert all(keys == ["round_honest", "transcript"] for keys in calls)


def test_ext_pri_excludes_own_slices(toy_cfg):
    # changing player j's own broadcast slices never changes z_j
    sources = _toy_sources(toy_cfg)
    sc = LeakageScenario.trivial([6] * 7)
    run, y = run_ext_pub(toy_cfg, sources, sc, AdversaryStrategy.passive(),
                         seed=6)
    z = exec_ext_pri(toy_cfg, run, y)
    sw = toy_cfg.slice_width
    j_idx = 0  # player 4 is the first B player
    for flip in range(1, 1 << sw):
        y2val = y.value ^ (flip << (toy_cfg.y_width - sw * (j_idx + 1)))
        from extractomat.bits import BitString
        z2 = exec_ext_pri(toy_cfg, run, BitString(toy_cfg.y_width, y2val))
        assert z2[4] == z[4]
        assert z2[7] != z[7] or True  # outer players may change


def test_geqr_structure_and_rushing_width(micro_geqr):
    cfg = micro_geqr
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    sc = LeakageScenario.trivial([4] * 5)
    run = run_geqr(cfg, sources, sc, AdversaryStrategy.passive(), seed=7)
    assert run.y_width == cfg.geqr_s * cfg.geqr_slice == 4
    assert run.rushing_width == 0
    assert run.outputs[1] is None and run.outputs[5] is not None
    adv = AdversaryStrategy.ir({3}, lambda p, r, v: 0)
    run2 = run_geqr(cfg, sources, sc, adv, seed=7)
    assert run2.rushing_width == cfg.geqr_slice * 1  # one faulty group


def test_geqr_all_honest_y_is_deterministic(micro_geqr):
    cfg = micro_geqr
    xvals = {pid: pid + 3 for pid in range(1, 6)}
    r1 = exec_geqr(cfg, xvals, AdversaryStrategy.passive())
    r2 = exec_geqr(cfg, xvals, AdversaryStrategy.passive())
    assert r1.y == r2.y
    g = cfg.gadgets
    expect = 0
    for grp in cfg.geqr_groups():
        yi = g.iext.eval_int(*(xvals[p] for p in grp)) >> (g.iext.m - cfg.geqr_slice)
        expect = (expect << cfg.geqr_slice) | yi
    assert r1.y == expect


def test_forced_slice_override(micro_geqr):
    cfg = micro_geqr
    xvals = {pid: 5 for pid in range(1, 6)}
    adv = AdversaryStrategy.forced_slice({3}, {2: 0b11})
    run = exec_geqr(cfg, xvals, adv)
    assert run.y & 0b11 == 0b11


def test_geqr_rushing_over_bound_is_a_constraint_violation(micro_geqr):
    # t = 1, but the faulty players sit in both groups: the rushing width
    # 2 * floor(k/s) passes the k t / s bound
    xvals = {pid: 0 for pid in range(1, 6)}
    with pytest.raises(ConstraintViolatedError, match="rushing width"):
        exec_geqr(micro_geqr, xvals, AdversaryStrategy.ir({1, 3}))


def test_evaluate_security_exact_all_honest(micro_geqr):
    cfg = micro_geqr
    rng = np.random.default_rng(23)
    sources = [FlatSource.random(4, 2, rng) for _ in range(5)]
    sc = LeakageScenario.trivial([4] * 5)
    rep = evaluate_security("geqr", cfg, sources, sc,
                            AdversaryStrategy.passive(), [5], mode="exact")
    assert rep.mode == "exact"
    assert isinstance(rep.distance, Fraction)
    assert 0 <= rep.distance <= 1
    # strong error dominates the set distance for a single player
    e5 = strong_player_error("geqr", cfg, sources, sc,
                             AdversaryStrategy.passive(), 5)
    assert rep.distance <= e5


def test_evaluate_security_sampled_brackets_exact(micro_geqr):
    cfg = micro_geqr
    rng = np.random.default_rng(23)
    sources = [FlatSource.random(4, k, rng) for k in (1, 1, 1, 1, 3)]
    sc = LeakageScenario.oa([4] * 5, 4, lambda x, a: x & 1, 1)
    adv = AdversaryStrategy.qr_analog(
        {3}, lambda pid, rnd, view, side: (side.get(5, 0) * 15) & 0xF)
    exact = evaluate_security("geqr", cfg, sources, sc, adv, [5])
    sampled = evaluate_security("geqr", cfg, sources, sc, adv, [5],
                                mode="sampled", n_runs=5000, tol=0.3, seed=1)
    assert sampled.mode == "sampled" and sampled.atoms == 5000
    assert sampled.effective_set == exact.effective_set == (5,)
    rep = sampled.distance
    lo, hi = rep.ci
    # the plug-in bias bound 2^m / (2 sqrt(n)), as in the MC calibration
    slack = (1 << rep.m) / (2 * np.sqrt(rep.n))
    assert lo - slack <= exact.distance <= hi + slack


def test_s_prime_player_losing_its_output_is_named(cache_dir):
    # S' is read off the first world; an adaptive corruption that strikes
    # player 4 only when player 1 broadcasts an odd value leaves it
    # without output in later worlds, which has no distance to measure
    cfg, _ = build_toy_network({"p": 7, "t": 1, "n": 6, "k": 1,
                                "alpha": 2.0, "delta": 0.25, "seed": 29,
                                "cert_samples": 30}, cache_dir=cache_dir)
    sources = [FlatSource(6, [2, 3])] + [FlatSource(6, [5]) for _ in range(6)]
    adv = AdversaryStrategy.ir(
        set(), lambda p, r, v: 0,
        trigger=lambda rnd, tr: {4} if rnd == 1 and tr[0][2] & 1 else set())
    with pytest.raises(InvalidInputError, match="player 4 of S'"):
        evaluate_security("ext_pub", cfg, sources,
                          LeakageScenario.trivial([6] * 7), adv, [4, 7])


# ----------------------------------------------------------------------
# world streams
# ----------------------------------------------------------------------

def _drawn_worlds(cfg, sources, seed, n_runs=50):
    _, runs = protocol_runs("geqr", cfg, sources,
                            LeakageScenario.trivial([4] * 5),
                            AdversaryStrategy.passive(), n_runs=n_runs,
                            seed=seed)
    return [xvals for _, xvals, _, _ in runs]


def test_adjacent_seeds_share_no_worlds(micro_geqr):
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    w0 = _drawn_worlds(micro_geqr, sources, 10)
    w1 = _drawn_worlds(micro_geqr, sources, 11)
    assert w1[:-1] != w0[1:]
    assert not set(map(str, w0)) & set(map(str, w1))


def test_drawn_values_lie_in_support(micro_geqr):
    rng = np.random.default_rng(41)
    sources = [FlatSource.random(4, 2, rng) for _ in range(5)]
    for xvals in _drawn_worlds(micro_geqr, sources, 3, n_runs=400):
        assert all(x in sources[pid - 1].support for pid, x in xvals.items())


def test_batch_of_one_is_deterministic_in_its_seed(micro_geqr):
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    sc = LeakageScenario.trivial([4] * 5)
    adv = AdversaryStrategy.passive()
    r1 = run_geqr(micro_geqr, sources, sc, adv, seed=12)
    r2 = run_geqr(micro_geqr, sources, sc, adv, seed=12)
    (_, _, _, r3), = protocol_runs("geqr", micro_geqr, sources, sc, adv,
                                   n_runs=1, seed=12)[1]
    assert r1.transcript_key() == r2.transcript_key() == r3.transcript_key()
    assert r1.outputs == r2.outputs == r3.outputs


def test_round_counts_reported_both_ways(toy_cfg):
    sources = _toy_sources(toy_cfg)
    run, y = run_ext_pub(toy_cfg, sources, LeakageScenario.trivial([6] * 7),
                         AdversaryStrategy.passive(), seed=9)
    assert run.rounds_interactive == 3
    exec_ext_pri(toy_cfg, run, y)
    # the private extraction adds no interaction but may be counted as a
    # round depending on presentation; both numbers are available
    assert run.rounds_interactive == 3
    assert run.rounds_total == 4


def test_geqr_all_honest_within_ledger_budget(micro_geqr):
    # micro scale, exact joint: the outer player's set error is bounded
    # by s * eps_iext + eps_qtext (slice closeness plus the certified
    # seed-strong error of the final extraction)
    cfg = micro_geqr
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    sc = LeakageScenario.trivial([4] * 5)
    rep = evaluate_security("geqr", cfg, sources, sc,
                            AdversaryStrategy.passive(), [5], mode="exact")
    eps1 = cfg.gadgets.iext.record.error_fraction()
    eps2 = Fraction(cfg.gadgets.qtext.record.strong_errors[1])
    budget = min(Fraction(1), cfg.geqr_s * eps1 + eps2)
    assert rep.distance <= budget


def test_micro_ext_pri_exact_within_budget(cache_dir):
    # a fully enumerable instance: entropy-1 sources make the exact joint
    # over all worlds tractable; the outer player's strong error stays
    # within the (capped) certified budget eps3 + |B| (eps1 + eps2)
    cfg, _ = build_toy_network({"p": 7, "t": 1, "n": 6, "k": 1,
                                "alpha": 2.0, "delta": 0.25, "seed": 29,
                                "cert_samples": 30}, cache_dir=cache_dir)
    rng = np.random.default_rng(31)
    sources = [FlatSource.random(6, 1, rng) for _ in range(7)]
    sc = LeakageScenario.oa([6] * 7, 6, lambda x, a: x & 1, 1)
    adv = AdversaryStrategy.passive()
    err = strong_player_error("ext_pub", cfg, sources, sc, adv, 7)
    g = cfg.gadgets
    budget = min(1.0, g.oaext.record.strong_errors[1]
                 + cfg.b_size * (g.iext.record.error
                                 + g.srext.record.strong_errors[1]))
    assert float(err) <= budget


def test_run_log_jsonl(toy_cfg):
    sources = _toy_sources(toy_cfg)
    run, _ = run_ext_pub(toy_cfg, sources, LeakageScenario.trivial([6] * 7),
                         AdversaryStrategy.passive(), seed=8)
    import json
    lines = [json.loads(line) for line in run.to_jsonl().splitlines()]
    assert all({"round", "sender", "message", "commit", "faulty"} <= set(l)
               for l in lines)
    commits = [l["commit"] for l in lines]
    assert commits == sorted(commits)
