import importlib.util
import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from extractomat import certify
from extractomat.cli import TOY_SIZES, build_toy_network
from extractomat.dist import Distribution
from extractomat.errors import ConstraintViolatedError, InvalidInputError
from extractomat.extractors import table_handle
from extractomat.graphs import BipartiteGraph
from extractomat.leakage import LeakageScenario
from extractomat.netsim import (VIEW_PARTS, WORLD_KEY, AdversaryStrategy,
                                Batch, GadgetSet, NetworkConfig, _draw_worlds,
                                evaluate_security, exec_ext_pri, exec_ext_pub,
                                exec_geqr, forced_slice_distances, ir_to_qr,
                                output_width, parse_config_text,
                                protocol_runs, security,
                                strong_player_error)
from extractomat.oracle import _philox
from extractomat.sources import FlatSource
from helpers_naive import (naive_draw_worlds, naive_protocol_run,
                           naive_protocol_worlds, naive_security,
                           naive_strong_error)


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


def _one_run(protocol, cfg, sources, adv, seed):
    """The batch of one world drawn at ``seed``."""
    return protocol_runs(protocol, cfg, sources, None, adv, n_runs=1,
                         seed=seed)[2]


def _late(b, rnd):
    """Round ``rnd``'s senders and world 0's faulty flags."""
    _, senders, _, _, late = b.rounds[rnd - 1]
    return dict(zip(senders, late[0].tolist()))


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_partition_arithmetic(toy_cfg):
    assert toy_cfg.players_a == (1, 2, 3)
    assert toy_cfg.players_b == (4, 5, 6)
    assert toy_cfg.players_c == (7,)
    assert toy_cfg.slice_width == 2
    assert toy_cfg.y_width == 12


def _grid_configs():
    """The micro, small extpub and toy config texts that
    ``tools/netsim_grid.py`` runs, filled in."""
    spec = importlib.util.spec_from_file_location(
        "netsim_grid", Path(__file__).resolve().parents[1] / "tools"
        / "netsim_grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return {name: getattr(grid, name).format(n=4, k=4, seed=3)
            for name in ("MICRO", "SMALL_EXTPUB", "TOY")}


EXTPUB_PLAYERS = ((1, 2, 3), (4, 5, 6), (7,))


@pytest.mark.parametrize("name,players", [
    ("TOY_SIZES", EXTPUB_PLAYERS), ("MICRO", ((1, 2), (3, 4, 5), ())),
    ("SMALL_EXTPUB", EXTPUB_PLAYERS), ("TOY", EXTPUB_PLAYERS)])
def test_partition_sizes_are_derived(name, players):
    # |A| and |B| follow from alpha, delta and t alone, and A, B and C
    # hold the players they held when the sizes were fields
    params = (dict(TOY_SIZES) if name == "TOY_SIZES"
              else parse_config_text(_grid_configs()[name]))
    params.pop("seed", None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the micro config's k floor
        cfg = NetworkConfig(**params)
    assert cfg.a_size == math.ceil((1 + cfg.alpha) * cfg.t)
    assert cfg.b_size == math.ceil(2 * (1 + 2 * cfg.delta) * cfg.t)
    assert (cfg.players_a, cfg.players_b, cfg.players_c) == players


def test_entropy_floor_warning():
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
    adv = AdversaryStrategy.passive()
    b1 = _one_run("ext_pub", toy_cfg, sources, adv, seed=42)
    b2 = _one_run("ext_pub", toy_cfg, sources, adv, seed=42)
    assert b1.transcripts([0]) == b2.transcripts([0])
    assert b1.y.tolist() == b2.y.tolist()
    assert b1.outputs.tolist() == b2.outputs.tolist()
    b3 = _one_run("ext_pub", toy_cfg, sources, adv, seed=43)
    assert b3.transcripts([0]) != b1.transcripts([0])


def test_y_width_and_round_structure(toy_cfg):
    sources = _toy_sources(toy_cfg)
    b = _one_run("ext_pub", toy_cfg, sources, AdversaryStrategy.passive(), 1)
    assert b.y_width == 2 * toy_cfg.b_size * toy_cfg.slice_width
    assert 0 <= b.y[0] < 1 << b.y_width
    assert [rnd for rnd, *_ in b.rounds] == [1, 2, 3]
    assert _good_left(toy_cfg, b) == toy_cfg.gadgets.and_disperser.l


def test_rushing_order_enforced_with_faulty(toy_cfg):
    sources = _toy_sources(toy_cfg)
    adv = AdversaryStrategy.ir(
        {1}, lambda pid, rnd, view: sum(v for _, _, v in view["round_honest"]))
    b = _one_run("ext_pub", toy_cfg, sources, adv, seed=2)
    assert b.rushing_order_ok()
    assert _late(b, 1) == {1: True, 2: False, 3: False}
    # the log commits player 1's rushing message after the honest ones
    log = [json.loads(line) for line in b.to_jsonl().splitlines()]
    assert [(m["sender"], m["faulty"]) for m in log[:3]] == [
        (2, False), (3, False), (1, True)]


def _good_left(cfg, b, world=0):
    """The AND-disperser's left vertices whose neighbours in A are all
    honest in world ``world`` of the batch ``b``."""
    honest = ~b.faulty[world, [pid - 1 for pid in cfg.players_a]]
    return sum(bool(honest[list(nb)].all())
               for nb in cfg.gadgets.and_disperser.adj)


def test_good_left_set_nonempty_under_corruption(toy_cfg):
    sources = _toy_sources(toy_cfg)
    for faulty in (1, 2, 3):
        adv = AdversaryStrategy.ir({faulty}, lambda p, r, v: 0)
        b = _one_run("ext_pub", toy_cfg, sources, adv, seed=3)
        assert _good_left(toy_cfg, b) >= 1


def test_adaptive_corruption_takes_effect_next_round(toy_cfg):
    sources = _toy_sources(toy_cfg)

    def trigger(rnd_done, transcript):
        return {4} if rnd_done == 1 else set()

    adv = AdversaryStrategy.ir(set(), lambda p, r, v: 0, trigger=trigger)
    b = _one_run("ext_pub", toy_cfg, sources, adv, seed=4)
    assert not any(_late(b, 1).values())
    assert _late(b, 2) == _late(b, 3) == {4: True, 5: False, 6: False}
    assert b.rushing_order_ok()


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
    b1 = exec_ext_pub(toy_cfg, [[1] * 7], adv, side={7: np.array([0])})
    b2 = exec_ext_pub(toy_cfg, [[1] * 7], adv, side={7: np.array([3])})
    assert b1.transcripts([0]) == b2.transcripts([0])
    assert all(keys == ["round_honest", "transcript"] for keys in calls)


def test_ext_pri_excludes_own_slices(toy_cfg):
    # changing player j's own broadcast slices never changes z_j
    sources = _toy_sources(toy_cfg)
    sc = LeakageScenario.trivial([6] * 7)
    _, _, b = protocol_runs("ext_pub_only", toy_cfg, sources, sc,
                            AdversaryStrategy.passive(), n_runs=1, seed=6)
    z = exec_ext_pri(toy_cfg, b)
    sw = toy_cfg.slice_width
    j_idx = 0  # player 4 is the first B player
    for flip in range(1, 1 << sw):
        y2val = b.y ^ (flip << (toy_cfg.y_width - sw * (j_idx + 1)))
        z2 = exec_ext_pri(toy_cfg, b, y2val)
        assert z2[0, 3] == z[0, 3]
        assert z2[0, 6] != z[0, 6] or True  # outer players may change


def test_geqr_structure_and_rushing_width(micro_geqr):
    cfg = micro_geqr
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    b = _one_run("geqr", cfg, sources, AdversaryStrategy.passive(), seed=7)
    assert b.y_width == cfg.geqr_s * cfg.geqr_slice == 4
    assert b.rushing_width == 0
    assert b.outputs[0, 0] == -1 and b.outputs[0, 4] >= 0  # BOT, output
    adv = AdversaryStrategy.ir({3}, lambda p, r, v: 0)
    b2 = _one_run("geqr", cfg, sources, adv, seed=7)
    assert b2.rushing_width == cfg.geqr_slice * 1  # one faulty group


def test_geqr_all_honest_y_is_deterministic(micro_geqr):
    cfg = micro_geqr
    xvals = {pid: pid + 3 for pid in range(1, 6)}
    r1 = exec_geqr(cfg, [list(xvals.values())], AdversaryStrategy.passive())
    r2 = exec_geqr(cfg, [list(xvals.values())], AdversaryStrategy.passive())
    assert r1.y[0] == r2.y[0]
    g = cfg.gadgets
    expect = 0
    for grp in cfg.geqr_groups():
        yi = g.iext.eval_int(*(xvals[p] for p in grp)) >> (g.iext.m - cfg.geqr_slice)
        expect = (expect << cfg.geqr_slice) | yi
    assert r1.y[0] == expect


def test_adversary_refuses_fractional_faulty_ids():
    # 1.5 used to be truncated to player 1
    for bad in (1.5, 0.7, "1"):
        with pytest.raises(InvalidInputError, match="faulty player"):
            AdversaryStrategy.ir({bad})
    adv = AdversaryStrategy.forced_slice({np.int64(3)}, {2: 1})
    assert adv.initial_faulty == {3}
    assert all(type(i) is int for i in adv.initial_faulty)


def test_forced_slice_override(micro_geqr):
    cfg = micro_geqr
    adv = AdversaryStrategy.forced_slice({3}, {2: 0b11})
    run = exec_geqr(cfg, [[5] * 5], adv)
    assert run.y[0] & 0b11 == 0b11


def test_geqr_rushing_over_bound_is_a_constraint_violation(micro_geqr):
    # t = 1, but the faulty players sit in both groups: the rushing width
    # 2 * floor(k/s) passes the k t / s bound
    with pytest.raises(ConstraintViolatedError, match="rushing width"):
        exec_geqr(micro_geqr, [[0] * 5], AdversaryStrategy.ir({1, 3}))


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


@pytest.mark.parametrize("player", [0, 6])
def test_strong_player_error_refuses_players_outside_1_to_p(micro_geqr, player):
    # player 0 used to measure player 5's output with its own source in
    # the rest, and player 6 raised a bare IndexError
    rng = np.random.default_rng(23)
    sources = [FlatSource.random(4, 2, rng) for _ in range(5)]
    with pytest.raises(InvalidInputError, match="player"):
        strong_player_error("geqr", micro_geqr, sources,
                            LeakageScenario.trivial([4] * 5),
                            AdversaryStrategy.passive(), player)


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
    _, _, b = protocol_runs("geqr", cfg, sources,
                            LeakageScenario.trivial([4] * 5),
                            AdversaryStrategy.passive(), n_runs=n_runs,
                            seed=seed)
    return [dict(enumerate(row, start=1)) for row in b.xs.tolist()]


def test_adjacent_seeds_share_no_worlds(micro_geqr):
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    w0 = _drawn_worlds(micro_geqr, sources, 10)
    w1 = _drawn_worlds(micro_geqr, sources, 11)
    assert w1[:-1] != w0[1:]
    assert not set(map(str, w0)) & set(map(str, w1))


def test_world_stream_is_not_the_support_stream(micro_geqr):
    # the CLI draws the flat sources' supports from Philox(key=seed); the
    # ensemble of the same seed must read other random words
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    worlds = _drawn_worlds(micro_geqr, sources, 7)
    rng = np.random.default_rng(np.random.Philox(key=7))
    support_words = sources[0].to_distribution().sample(rng, size=50)
    assert [w[1] for w in worlds] != support_words.tolist()


def test_drawn_values_lie_in_support(micro_geqr):
    rng = np.random.default_rng(41)
    sources = [FlatSource.random(4, 2, rng) for _ in range(5)]
    for xvals in _drawn_worlds(micro_geqr, sources, 3, n_runs=400):
        assert all(x in sources[pid - 1].support for pid, x in xvals.items())


def _mixed_source(rng, width):
    """A flat source of random k, or a Distribution of random masses."""
    if rng.random() < 0.5:
        return FlatSource.random(width, int(rng.integers(width + 1)), rng)
    counts = rng.integers(0, 4, size=1 << width)
    counts[rng.integers(1 << width)] += 1
    return Distribution(width, [Fraction(int(c), int(counts.sum()))
                                for c in counts])


@pytest.mark.parametrize("shared_width", [0, 2])
@pytest.mark.parametrize("leak", [False, True])
def test_drawn_worlds_match_naive_draws(shared_width, leak):
    # flat sources by support index, the others and the shared register
    # by Distribution.sample, in one stream
    rng = np.random.default_rng([shared_width, leak, 48])
    for trial in range(20):
        widths = rng.integers(1, 7, size=int(rng.integers(1, 6))).tolist()
        sources = [_mixed_source(rng, w) for w in widths]
        maps = [(lambda x, a: (x ^ a) & 3) if leak and i % 2 == 0 else None
                for i in range(len(widths))]
        scenario = LeakageScenario(
            tuple(widths), shared_width, leak_maps=tuple(maps),
            e_widths=tuple(0 if f is None else 2 for f in maps))
        shared = (Distribution(shared_width, [Fraction(c, 10)
                                              for c in (1, 2, 3, 4)])
                  if shared_width else None)
        n_runs, seed = int(rng.choice([1, 7, 300])), int(rng.integers(99))
        _, weights, xs, a, es = _draw_worlds(sources, scenario, shared,
                                             n_runs, seed)
        assert weights.tolist() == [1] * n_runs
        assert list(zip(map(tuple, xs.tolist()), a.tolist(),
                        map(tuple, es.tolist()))) == naive_draw_worlds(
            sources, scenario, shared, n_runs, _philox(seed ^ WORLD_KEY)), \
            trial


def test_batch_of_one_is_deterministic_in_its_seed(micro_geqr):
    sources = [FlatSource(4, range(16)) for _ in range(5)]
    adv = AdversaryStrategy.passive()
    b1, b2 = (_one_run("geqr", micro_geqr, sources, adv, seed=12)
              for _ in range(2))
    assert b1.transcripts([0]) == b2.transcripts([0])
    assert b1.to_jsonl() == b2.to_jsonl()
    assert b1.outputs.tolist() == b2.outputs.tolist()
    # world 0 of a larger ensemble at the same seed is drawn from the
    # same stream, one N-vector per source
    b3 = protocol_runs("geqr", micro_geqr, sources, None, adv, n_runs=2,
                       seed=12)[2]
    assert b3.xs[0, 0] == b1.xs[0, 0]


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


MICRO_EXT_PUB = {"p": 7, "t": 1, "n": 6, "k": 1, "alpha": 2.0,
                 "delta": 0.25, "seed": 29, "cert_samples": 30}


def test_public_block_network_leaves_the_private_slots_empty(cache_dir):
    # ext_pub_only certifies the two public-block tables, the first two of
    # the full build, and a private step on that network is refused.
    cfg, digests = build_toy_network(MICRO_EXT_PUB, cache_dir=cache_dir,
                                     protocol="ext_pub_only")
    full = [build_toy_network(MICRO_EXT_PUB, cache_dir=cache_dir,
                              protocol=key)[1] for key in ("extpub", "ext_pub")]
    assert full[0] == full[1] and digests == full[0][:2]
    assert len(set(full[0])) == 4
    assert cfg.gadgets.oaext is None and cfg.gadgets.oaext_b is None
    sources = [FlatSource(6, [1, 2]) for _ in range(7)]
    adv = AdversaryStrategy.passive()
    b = _one_run("ext_pub_only", cfg, sources, adv, seed=1)
    with pytest.raises(InvalidInputError, match="^the oaext slot is empty$"):
        exec_ext_pri(cfg, b)
    with pytest.raises(InvalidInputError, match="the oaext slot is empty"):
        _one_run("ext_pub", cfg, sources, adv, seed=1)


@pytest.mark.parametrize("protocol", ["ext-pub", "extpub ", "ExtPub", "qr",
                                      ""])
def test_build_toy_network_refuses_unknown_protocols(tmp_path, protocol):
    cache = tmp_path / "cache"
    with pytest.raises(InvalidInputError, match="unknown protocol"):
        build_toy_network(MICRO_EXT_PUB, cache_dir=cache, protocol=protocol)
    assert not cache.exists()  # refused before any certification


# ----------------------------------------------------------------------
# cross-check against the naive per-world evaluator
# ----------------------------------------------------------------------

def _random_slot(rng, name, widths, m):
    table = rng.integers(0, 1 << m, size=1 << sum(widths))
    return table_handle(name, "2-source", widths, m, table)


def _tiny_geqr(rng):
    g = GadgetSet(iext=_random_slot(rng, "iext", (3, 3), 2),
                  qtext=_random_slot(rng, "qtext", (3, 2), 1))
    return NetworkConfig(p=5, t=1, n=3, k=2, alpha=0.25, gadgets=g,
                         geqr_group=2, geqr_s=2)


def _tiny_ext_pub(rng):
    cfg = NetworkConfig(p=7, t=1, n=3, k=1, alpha=2.0, delta=0.25)
    ring = tuple((i, (i + 1) % 3) for i in range(3))
    cfg.gadgets = GadgetSet(
        iext=_random_slot(rng, "iext", (3, 3), 2),
        srext=_random_slot(rng, "srext", (3, 4), 2),
        oaext=_random_slot(rng, "oaext", (3, 6), 1),
        oaext_b=_random_slot(rng, "oaext_b", (3, 4), 1),
        and_disperser=BipartiteGraph(3, 3, 2, ring),
        expander=BipartiteGraph(3, 3, 2, ring))
    cfg.validate_ext_pub()
    return cfg


def _naive_spec(cfg, protocol):
    g = cfg.gadgets

    def slot(h):
        return h.table().tolist(), h.input_widths, h.m

    spec = {"protocol": protocol, "p": cfg.p, "n": cfg.n, "t": cfg.t}
    if protocol == "geqr":
        spec.update(groups=cfg.geqr_groups(), outer=cfg.geqr_outer(),
                    slice=cfg.geqr_slice, iext=slot(g.iext),
                    qtext=slot(g.qtext))
    else:
        spec.update(A=cfg.players_a, B=cfg.players_b, C=cfg.players_c,
                    sw=cfg.slice_width, iext=slot(g.iext),
                    srext=slot(g.srext), oaext=slot(g.oaext),
                    oaext_b=slot(g.oaext_b),
                    disperser=[list(nb) for nb in g.and_disperser.adj],
                    expander=[list(nb) for nb in g.expander.adj])
    return spec


def _naive_adv(adv):
    return {"kind": adv.kind, "faulty": adv.initial_faulty,
            "fn": adv.rushing_fn, "trigger": adv.trigger,
            "forced": adv.forced_slices}


def _recording(adv, log):
    """The same adversary, logging the arguments of every callback call."""
    def rec(fn):
        if fn is None:
            return None

        def logged(*args):
            log.append(repr(args))
            return fn(*args)
        return logged

    return AdversaryStrategy(adv.kind, adv.initial_faulty, rec(adv.rushing_fn),
                             rec(adv.trigger), adv.forced_slices)


def _parity_leak(x, a):
    return (x ^ a) & 1


def _low_bit(x, a):
    return x & 1


def _high_bit(x, a):
    return x >> 2


def test_run_log_jsonl():
    # random rows of a toy extpub and a micro geqr batch under an IR
    # rushing function with an adaptive trigger: each row's log holds the
    # naive per-world run's messages, in commit order
    def rushing(pid, rnd, view):
        return len(view["transcript"]) + rnd * pid + sum(
            v for _, _, v in view["round_honest"])

    def trigger(rnd_done, transcript):
        return {4 + hash(transcript) % 3} if rnd_done == 1 else set()

    for trial in range(3):
        rng = np.random.default_rng([trial, 37])
        for cfg, protocol, faulty in ((_tiny_ext_pub(rng), "ext_pub", ()),
                                      (_tiny_geqr(rng), "geqr", {3})):
            supports = [sorted(rng.choice(8, size=2, replace=False).tolist())
                        for _ in range(cfg.p)]
            adv = AdversaryStrategy.ir(faulty, rushing, trigger=trigger)
            b = protocol_runs(protocol, cfg, [FlatSource(cfg.n, sup)
                                              for sup in supports],
                              None, adv, n_runs=300, seed=trial)[2]
            assert b.rushing_order_ok()
            spec = _naive_spec(cfg, protocol)
            for row in rng.choice(300, size=8, replace=False).tolist():
                log = [json.loads(line)
                       for line in b.to_jsonl(row).splitlines()]
                naive = []
                naive_protocol_run(spec, dict(enumerate(b.xs[row].tolist(),
                                                        start=1)),
                                   {}, _naive_adv(adv), naive)
                assert [m["commit"] for m in log] == list(range(len(log)))
                assert [(m["round"], m["sender"], int(m["message"], 16),
                         m["faulty"]) for m in log] == naive, (trial, row)
                if protocol == "geqr":
                    assert all(len(m["message"]) == 1 for m in log)


def _order_ok_per_world(b):
    """The commit order checked world by world, as a reference."""
    from extractomat import netsim
    for *_, late in b.rounds:
        for row in late:
            flags = row[netsim._commit_order(row)]
            if (flags[:-1] > flags[1:]).any():
                return False
    return True


def test_rushing_order_ok_per_pattern_matches_per_world(monkeypatch):
    # Random late arrays, a few patterns each, under the real commit order
    # and under orders broken for some patterns: the answer checked once
    # per distinct pattern equals the one checked world by world.
    from extractomat import netsim
    real = netsim._commit_order

    def broken(late):  # reversed where a pattern's first two flags are 1, 0
        order = real(late)
        flip = (late[..., 0] & ~late[..., 1])[..., None] if \
            late.shape[-1] > 1 else np.zeros(late.shape[:-1] + (1,), bool)
        return np.where(flip, order[..., ::-1], order)

    rng = np.random.default_rng(66)
    answers = Counter()
    for trial in range(60):
        n, k = int(rng.integers(1, 200)), int(rng.integers(0, 5))
        patterns = rng.integers(0, 2, size=(int(rng.integers(1, 4)), k))
        rounds = [(r, tuple(range(1, k + 1)), 3, np.zeros((n, k), np.int64),
                   patterns[rng.integers(0, len(patterns), size=n)]
                   .astype(bool)) for r in range(1, int(rng.integers(1, 4)))]
        b = netsim.Batch(np.zeros((n, 1), np.int64), {}, np.zeros((n, 1), bool),
                         rounds)
        for order in (real, broken):
            monkeypatch.setattr(netsim, "_commit_order", order)
            answers[b.rushing_order_ok()] += 1
            assert b.rushing_order_ok() == _order_ok_per_world(b), trial
    assert answers[True] and answers[False]


def _two_pattern_worlds(n, width):
    """Sources, two leak columns and a faulty mask with two late patterns:
    player 1 faulty everywhere, player 3 in three worlds only."""
    rng = np.random.default_rng(69)
    xs = rng.integers(0, 1 << width, size=(n, 5))
    side = {4: rng.integers(0, 2, n), 5: rng.integers(0, 3, n)}
    faulty = np.zeros((n, 5), dtype=bool)
    faulty[:, 0] = True
    faulty[rng.choice(n, size=3, replace=False), 2] = True
    return xs, side, faulty


def test_rushing_views_match_a_naive_per_world_build():
    # Two late patterns (player 3 faulty in a few worlds only, so one
    # pattern's columns are longer than 2**width and the other's are not)
    # and two leaking players: over two rounds, the callbacks see exactly
    # the distinct views built world by world, once each, every side
    # dict a fresh object, and each world gets its view's message.
    from extractomat import netsim
    n, width, senders = 300, 2, (1, 2, 3, 4)
    xs, side, faulty = _two_pattern_worlds(n, width)
    b = netsim.Batch(xs, side, faulty)
    calls = []

    def message(view, side_info):
        return sum(v for *_, v in view["round_honest"]) + 3 * side_info[5]

    def fn(pid, rnd, view, side_info):
        calls.append((pid, view, side_info))
        return message(view, side_info)

    def key(pid, view, side_info):
        return (pid, view["transcript"], tuple(view["round_honest"]),
                tuple(side_info.items()))

    adv = AdversaryStrategy.qr_analog({1}, fn)
    for rnd in (1, 2):
        before, late = list(b.rounds), faulty[:, :4]
        calls.clear()
        payload = b.play(rnd, senders, width, adv)
        expect = set()
        for w in range(n):
            tr = ()
            for r, snd, _, sent, lt in before:
                order = sorted(range(len(snd)), key=lambda k: lt[w, k])
                tr += tuple((r, snd[k], int(sent[w, k])) for k in order)
            hon = tuple((s, int(xs[w, j]), width)
                        for j, s in enumerate(senders) if not late[w, j])
            leaks = {pid: int(col[w]) for pid, col in side.items()}
            for k in np.flatnonzero(late[w]).tolist():
                view = {"transcript": tr, "round_honest": hon}
                expect.add(key(senders[k], view, leaks))
                assert payload[w, k] == message(view, leaks) & 3
        got = [key(*call) for call in calls]
        assert len(got) == len(set(got)) and set(got) == expect, rnd
        assert len({id(call[2]) for call in calls}) == len(calls)


def _message(reads, rnd, view, side):
    """A rushing message that depends on the parts ``reads`` alone."""
    out = rnd
    if "transcript" in reads:
        out += 3 * sum(v for *_, v in view["transcript"])
    if "round_honest" in reads:
        out += sum(v for *_, v in view["round_honest"])
    if "side" in reads:
        out += 2 * side[5] + side[4]
    return out


def _strategy(kind, reads, declared, fn=None, trigger=None):
    """A ``kind`` strategy sending ``_message(reads, ...)`` (or calling
    ``fn``), with ``reads`` declared or not."""
    fn = fn or (lambda pid, rnd, view, side=None:
                _message(reads, rnd, view, side))
    return AdversaryStrategy(kind, {1} if kind == "qr-analog" else set(), fn,
                             trigger, reads=reads if declared else None)


def _distinct_reads(b, reads):
    """The callbacks a strategy reading ``reads`` needs on the rounds of
    ``b``, counted world by world: per round, the distinct (late sender,
    value of each part read) pairs."""
    count = 0
    for i, (_, snd, width, sent, lt) in enumerate(b.rounds):
        seen = set()
        for w in range(len(sent)):
            tr = ()
            for r, s2, _, p2, l2 in b.rounds[:i]:
                order = sorted(range(len(s2)), key=lambda k: l2[w, k])
                tr += tuple((r, s2[k], int(p2[w, k])) for k in order)
            parts = {"transcript": tr,
                     "round_honest": tuple((s, int(sent[w, j]), width)
                                           for j, s in enumerate(snd)
                                           if not lt[w, j]),
                     "side": tuple((pid, int(col[w]))
                                   for pid, col in b.side.items())}
            for k in np.flatnonzero(lt[w]).tolist():
                seen.add((snd[k], *(parts[part] for part in reads)))
        count += len(seen)
    return count


def _reader(part):
    """A rushing function that reads the view part ``part``."""
    def fn(pid, rnd, view, side=None):
        return len(side) if part == "side" else len(view[part])
    return fn


def _two_pattern_run(adv):
    from extractomat import netsim
    b = netsim.Batch(*_two_pattern_worlds(300, 2))
    for rnd in (1, 2):
        b.play(rnd, (1, 2, 3, 4), 2, adv)
    return b


def _trigger_run(adv):
    cfg = _tiny_ext_pub(np.random.default_rng(67))
    return protocol_runs("ext_pub", cfg,
                         [FlatSource(cfg.n, [0, 1, 6, 7])] * cfg.p, None,
                         adv, n_runs=400, seed=3)[2]


def _split_trigger(rnd, tr):
    return {4} if rnd == 1 and sum(v for *_, v in tr) & 1 else set()


@pytest.mark.parametrize("kind,run,trigger", [
    ("qr-analog", _two_pattern_run, None),
    ("ir", _trigger_run, _split_trigger)], ids=["two-patterns", "trigger"])
def test_declared_parts_give_the_full_views_payloads(kind, run, trigger):
    # For every subset of the parts a kind can read: the same payloads and
    # outputs as the undeclared strategy, one callback per sender, round
    # and distinct value of the declared parts, and a strategy reading a
    # part it did not declare fails instead of reusing a message
    parts = VIEW_PARTS[kind]
    full = run(_strategy(kind, parts, False, trigger=trigger))
    assert full.callbacks == _distinct_reads(full, parts) > 0
    for size in range(len(parts) + 1):
        for reads in combinations(parts, size):
            undeclared = run(_strategy(kind, reads, False, trigger=trigger))
            b = run(_strategy(kind, reads, True, trigger=trigger))
            assert len(b.rounds) == len(undeclared.rounds), reads
            for got, want in zip(b.rounds, undeclared.rounds):
                assert np.array_equal(got[3], want[3]), reads
                assert np.array_equal(got[4], want[4]), reads
            if b.outputs is not None:
                assert np.array_equal(b.outputs, undeclared.outputs)
            assert b.callbacks == _distinct_reads(b, reads), reads
            assert b.callbacks <= undeclared.callbacks
            for part in set(parts) - set(reads):
                with pytest.raises((KeyError, TypeError)):
                    run(_strategy(kind, reads, True, _reader(part), trigger))


@pytest.mark.parametrize("build,match", [
    (lambda: AdversaryStrategy.qr_analog({1}, 5),
     "rushing_fn must be callable"),
    (lambda: AdversaryStrategy.ir({1}, "f"), "rushing_fn must be callable"),
    (lambda: AdversaryStrategy.ir({1}, trigger=3),
     "trigger must be callable"),
    (lambda: AdversaryStrategy.ir({1}, _reader("transcript"),
                                  reads=("transcript", "leak")),
     "reads no view part 'leak'"),
    (lambda: AdversaryStrategy.ir({1}, _reader("transcript"),
                                  reads=("side",)),
     "an ir strategy reads no view part 'side'"),
    (lambda: AdversaryStrategy.qr_analog({1}, None, reads=("side",)),
     "reads is given without a rushing function"),
    (lambda: AdversaryStrategy.ir({1}, reads=()),
     "reads is given without a rushing function"),
], ids=["qr-int", "ir-str", "trigger", "unknown-part", "ir-side",
        "qr-no-fn", "ir-no-fn"])
def test_strategies_are_checked_when_built(build, match):
    with pytest.raises(InvalidInputError, match=match):
        build()


def test_rushing_order_ok_on_worlds_the_trigger_splits():
    # An adaptive trigger corrupts a player in some worlds only, so round 2
    # holds two late patterns; each is checked, and agrees per world.
    rng = np.random.default_rng(67)
    cfg = _tiny_ext_pub(rng)
    adv = AdversaryStrategy.ir(set(), lambda pid, rnd, view: rnd,
                               trigger=lambda rnd, tr: {4} if rnd == 1
                               and sum(v for *_, v in tr) & 1 else set())
    b = protocol_runs("ext_pub", cfg, [FlatSource(cfg.n, [0, 1, 6, 7])] * cfg.p,
                      None, adv, n_runs=400, seed=3)[2]
    late = b.rounds[1][4]
    assert len({tuple(row) for row in late.tolist()}) == 2
    assert b.rushing_order_ok() is True == _order_ok_per_world(b)


def _half_faulty_batch(n=200):
    """A batch whose player 1 is faulty in half of its worlds, after one
    round in which it rushes 0, so some worlds' transcripts differ from
    others only in commit order."""
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 4, size=(n, 5))
    faulty = np.zeros((n, 5), dtype=bool)
    faulty[rng.choice(n, size=n // 2, replace=False), 0] = True
    b = Batch(xs, {4: rng.integers(0, 2, n)}, faulty)
    b.play(1, (1, 2, 3, 4), 2, AdversaryStrategy.ir(
        set(), lambda pid, rnd, view: 0))
    return b


def test_corrupt_calls_the_trigger_once_per_distinct_transcript():
    # the trigger reads the commit order alone: once per distinct
    # transcript, and each world turns corrupt the player its own
    # transcript names (payload columns alone merged worlds of either
    # order, calling it 126 times for 136 transcripts)
    b = _half_faulty_batch()
    calls = []

    def trigger(rnd, tr):
        calls.append(tr)
        return {2} if tr[0][1] == 1 else {3}

    before = b.faulty.copy()
    b.corrupt(AdversaryStrategy.ir(set(), trigger=trigger), 2, 1)
    transcripts = b.transcripts(np.arange(len(b.xs)))
    assert len(calls) == len(set(calls)) == len(set(transcripts)) == 136
    assert set(calls) == set(transcripts)
    want = before.copy()
    for w, tr in enumerate(transcripts):
        want[w, 1 if tr[0][1] == 1 else 2] = True
    assert np.array_equal(b.faulty, want)


def test_callbacks_run_once_per_transcript_whatever_the_late_flags():
    # two worlds with equal payloads, both round 1 senders late in the
    # first and neither in the second: one commit order and one
    # transcript, so one trigger call after round 1 and one callback for
    # player 3, late in both, in round 2 (late flags as keys gave two
    # each); security still tells the worlds apart by their late flags
    b = Batch(np.array([[5, 5, 0], [5, 5, 0]]), {},
              np.array([[True, True, True], [False, False, True]]))
    calls = Counter()

    def fn(pid, rnd, view):
        calls[rnd] += 1
        return 5

    def trigger(rnd, tr):
        calls["trigger"] += 1
        return set()

    adv = AdversaryStrategy.ir(set(), fn, trigger, reads=("transcript",))
    b.play(1, (1, 2), 3, adv)
    assert b.transcripts([0]) == b.transcripts([1])
    b.corrupt(adv, 3, 1)
    b.play(2, (3,), 3, adv)
    assert calls == {1: 2, "trigger": 1, 2: 1} and b.callbacks == 3
    rows = {tuple(row) for row in np.array(b.transcript_columns()).T.tolist()}
    assert len(rows) == 2


def _naive_worlds(b, den, weights):
    """``naive_security``'s worlds of the batch ``b``, transcripts keyed
    as tuples."""
    return [(Fraction(int(w), den), {}, {pid: int(col[j])
                                         for pid, col in b.side.items()},
             tr, {pid: None if v < 0 else v
                  for pid, v in enumerate(b.outputs[j].tolist(), start=1)},
             None)
            for j, (w, tr) in enumerate(zip(weights, b.transcripts(
                np.arange(len(weights)))))]


def test_security_tells_transcripts_apart_by_commit_order():
    cfg = _tiny_geqr(np.random.default_rng(3))  # 1-bit outputs
    # two worlds with equal payloads, player 1 late in the first only:
    # two rests, each with its whole weight on one output, distance 1/2
    b = Batch(np.zeros((2, 5), dtype=np.int64), {},
              np.array([[True] + [False] * 4, [False] * 5]))
    b.play(1, (1, 2, 3, 4), 2, AdversaryStrategy.ir(
        set(), lambda pid, rnd, view: 0))
    b.outputs = np.array([[-1] * 4 + [0], [-1] * 4 + [1]])
    weights = np.ones(2, dtype=np.int64)
    rep = security("geqr", cfg, [5], 2, weights, b)
    assert rep.distance == Fraction(1, 2) == naive_security(
        _naive_worlds(b, 2, weights), [5], 1)
    # and on 200 worlds of either order, random outputs and a leak
    b = _half_faulty_batch()
    rng = np.random.default_rng(11)
    b.outputs = np.concatenate([np.full((200, 4), -1),
                                rng.integers(0, 2, (200, 1))], axis=1)
    weights = rng.integers(1, 4, 200)
    den = int(weights.sum())
    rep = security("geqr", cfg, [5], den, weights, b)
    assert rep.distance == naive_security(_naive_worlds(b, den, weights),
                                          [5], 1)


@pytest.mark.parametrize("mode", ["exakt", "Exact", "mc", ""])
def test_evaluate_security_refuses_unknown_modes(micro_geqr, mode):
    # only "exact" and "sampled" are modes; "exakt" used to be sampled
    sources = [FlatSource(4, range(16))] * 5
    with pytest.raises(InvalidInputError, match="mode must be exact or "
                                                "sampled"):
        evaluate_security("geqr", micro_geqr, sources, None,
                          AdversaryStrategy.passive(), [5], mode=mode,
                          n_runs=10)


# ----------------------------------------------------------------------
# the exact IR-to-QR comparison
# ----------------------------------------------------------------------

def test_ir_to_qr_matches_the_per_slice_loop(micro_geqr):
    # criterion 10's instance: 2-bit rushing, 4 constant-slice attacks
    sources = [FlatSource(4, range(16)) if pid != 3 else FlatSource(4, [0])
               for pid in range(1, 6)]
    leaked = []  # one entry per leak-map call
    scenario = LeakageScenario.oa([4] * 5, 4,
                                  lambda x, a: leaked.append(x) or x & 1, 1)
    qr = AdversaryStrategy.qr_analog(
        {3}, lambda pid, rnd, view, side: (side.get(5, 0) * 15) & 0xF)
    den, weights, b = protocol_runs("geqr", micro_geqr, sources, scenario, qr)
    qr_rep, ir, bits = ir_to_qr(micro_geqr, qr, [5], den, weights, b)
    leak_calls = len(leaked)
    ref = evaluate_security("geqr", micro_geqr, sources, scenario, qr, [5])
    ir_ref = max(evaluate_security(
        "geqr", micro_geqr, sources, scenario,
        AdversaryStrategy.forced_slice({3}, {2: r}), [5]).distance
        for r in range(4))
    # the sweep's width is the rushing width the protocol run reports
    assert bits == 2 == b.rushing_width
    assert isinstance(qr_rep.distance, Fraction) and isinstance(ir, Fraction)
    assert (qr_rep.distance, ir) == (ref.distance, ir_ref)
    assert qr_rep.effective_set == ref.effective_set == (5,)
    # the worlds are enumerated (and the leak map called) once, and run
    # under the QR attack and each of the four constant slices
    assert len(weights) * (1 + (1 << bits)) == 5 * 16 ** 4
    assert leak_calls == 16


def test_ir_to_qr_matches_naive_per_world():
    for trial in range(3):
        rng = np.random.default_rng([trial, 13])
        cfg = _tiny_geqr(rng)
        supports = [sorted(rng.choice(8, size=2, replace=False).tolist())
                    for _ in range(cfg.p)]
        sources = [FlatSource(cfg.n, sup) for sup in supports]
        scenario = LeakageScenario.oa([3] * 5, 4, lambda x, a: x & 1, 1)
        leaks = {5: (lambda x, a: x & 1, 0, 0, 0)}
        qr = AdversaryStrategy.qr_analog(
            {3}, lambda pid, rnd, view, side: (
                side[5] * 3 + sum(v for _, _, v in view["round_honest"])) & 7)
        spec, m = _naive_spec(cfg, "geqr"), output_width(cfg, "geqr")
        naive = [naive_security(naive_protocol_worlds(
            spec, supports, _naive_adv(a), None, leaks), [5], m)
            for a in [qr] + [AdversaryStrategy.forced_slice({3}, {2: r})
                             for r in range(2)]]
        qr_rep, ir, bits = ir_to_qr(cfg, qr, [5], *protocol_runs(
            "geqr", cfg, sources, scenario, qr))
        assert bits == 1
        assert (qr_rep.distance, ir) == (naive[0], max(naive[1:])), trial


def _per_slice_loop(cfg, sources, scenario, faulty, player_set, shared=None):
    """Each constant-slice IR attack's exact distance, one protocol run
    and one security evaluation per attack: attack r pins the faulty
    groups' slices to r's bits, the first group's on top."""
    sw = cfg.geqr_slice
    groups = [gi for gi, grp in enumerate(cfg.geqr_groups(), start=1)
              if set(grp) & set(faulty)]
    width = sw * len(groups)
    return [evaluate_security("geqr", cfg, sources, scenario,
                              AdversaryStrategy.forced_slice(faulty, {
                                  gi: (r >> (width - (i + 1) * sw))
                                  & ((1 << sw) - 1)
                                  for i, gi in enumerate(groups)}),
                              player_set, shared=shared).distance
            for r in range(1 << width)]


@pytest.mark.parametrize("n", [3, 4])
def test_ir_to_qr_shared_ids_match_the_per_slice_loop(n):
    # p=6 leaves outer players 5 and 6; S' = {5} puts player 6's output,
    # which depends on each attack's y, in the rest next to the shared
    # honest round.  Both leak their parity with one shared bit, so given
    # the leaks player 6's output says something of player 5's.  Every
    # slice's distance, not only the worst, equals the one of its own
    # protocol run.
    rng = np.random.default_rng([n, 41])
    g = GadgetSet(iext=_random_slot(rng, "iext", (n, n), 2),
                  qtext=_random_slot(rng, "qtext", (n, 2), 2))
    cfg = NetworkConfig(p=6, t=1, n=n, k=2, alpha=0.25, gadgets=g,
                        geqr_group=2, geqr_s=2)
    sources = [FlatSource(n, [0]) if pid == 3 else FlatSource(
        n, sorted(rng.choice(1 << n, size=4, replace=False).tolist()))
        for pid in range(1, 7)]
    scenario = LeakageScenario((n,) * 6, 1, ((0, 1),) * 6, (None,) * 4 + (
        _parity_leak,) * 2, (0,) * 4 + (1, 1))
    shared = Distribution.uniform(1)
    qr = AdversaryStrategy.qr_analog(
        {3}, lambda pid, rnd, view, side: (side[6] * 5 + sum(
            v for _, _, v in view["round_honest"])) & ((1 << n) - 1))
    ensemble = protocol_runs("geqr", cfg, sources, scenario, qr,
                             shared=shared)
    for player_set in ([5], [5, 6], [6]):
        ref = _per_slice_loop(cfg, sources, scenario, {3}, player_set,
                              shared)
        got = forced_slice_distances(cfg, qr, player_set, *ensemble)
        assert len(ref) == 2 and got == ref, player_set
        qr_rep, ir, bits = ir_to_qr(cfg, qr, player_set, *ensemble)
        assert bits == 1
        assert qr_rep.effective_set == tuple(player_set)
        assert qr_rep.distance == evaluate_security(
            "geqr", cfg, sources, scenario, qr, player_set,
            shared=shared).distance
        assert ir == max(ref)


@pytest.mark.parametrize("case", ["p5-width1", "p6-width2", "two-groups",
                                  "two-blocks"])
def test_forced_slice_distances_match_the_per_slice_loop(monkeypatch, case):
    # Rushing widths 1 and 2 (one faulty group of 2-bit slices, or two
    # groups of 1-bit slices), p = 5 and 6, and 8 slices of 3 bits, more
    # than the p = 5 a block holds.  Each block's public strings have at
    # most p rows.  The seeds give every slice its own distance, so a
    # slice scored as another one shows.
    from extractomat import netsim
    n, k, p, t, faulty, seed = {"p5-width1": (3, 2, 5, 1, {3}, 44),
                                "p6-width2": (3, 4, 6, 1, {1}, 43),
                                "two-groups": (3, 2, 5, 2, {2, 4}, 89),
                                "two-blocks": (2, 6, 5, 1, {4}, 49)}[case]
    rng = np.random.default_rng([p, k, t, seed])
    s = 2
    g = GadgetSet(iext=_random_slot(rng, "iext", (n, n), max(2, k // s)),
                  qtext=_random_slot(rng, "qtext", (n, s * (k // s)), 2))
    cfg = NetworkConfig(p=p, t=t, n=n, k=k, alpha=0.25, gadgets=g,
                        geqr_group=2, geqr_s=s)
    sources = [FlatSource(n, sorted(rng.choice(
        1 << n, size=2 << pid % 2, replace=False).tolist()))
        for pid in range(1, p + 1)]
    scenario = LeakageScenario.oa([n] * p, 4, lambda x, a: x & 1, 1)
    qr = AdversaryStrategy.qr_analog(faulty, lambda pid, rnd, view, side: (
        side[5] + pid * len(view["round_honest"])) & ((1 << n) - 1))
    rows, real = [], netsim._public_string

    def spy(cfg, sent, forced, shape):
        rows.append(shape[0] if isinstance(shape, tuple) else 1)
        return real(cfg, sent, forced, shape)

    ensemble = protocol_runs("geqr", cfg, sources, scenario, qr)
    monkeypatch.setattr(netsim, "_public_string", spy)
    got = forced_slice_distances(cfg, qr, [5], *ensemble)
    monkeypatch.setattr(netsim, "_public_string", real)
    width = cfg.geqr_slice * len({(pid - 1) // 2 for pid in faulty})
    assert width == {"p5-width1": 1, "two-blocks": 3}.get(case, 2)
    assert got == _per_slice_loop(cfg, sources, scenario, faulty, [5])
    assert len(set(got)) == len(got) == 1 << width and max(rows) <= p
    assert len(rows) == (2 if case == "two-blocks" else 1)


@pytest.mark.parametrize("case", ["passive", "forced-slice", "qr-analog",
                                  "two-leaks", "oa-leak", "shared-register",
                                  "ext-pub-passive", "ext-pub-trigger"])
def test_exact_security_matches_naive_per_world(case):
    # random tiny instances; every exact value equals the naive per-world
    # evaluation as a Fraction
    for trial in range(3):
        rng = np.random.default_rng([trial, len(case)])
        protocol = "ext_pub" if case.startswith("ext-pub") else "geqr"
        cfg = _tiny_ext_pub(rng) if protocol == "ext_pub" else _tiny_geqr(rng)
        supports = [sorted(rng.choice(8, size=2, replace=False).tolist())
                    for _ in range(cfg.p)]
        scenario, shared, shared_atoms, leaks = None, None, None, None
        adv = AdversaryStrategy.passive()
        target, players = 5, [5]
        if case == "forced-slice":
            adv = AdversaryStrategy.forced_slice({2}, {1: int(rng.integers(2))})
        elif case == "qr-analog":
            scenario = LeakageScenario.oa([3] * 5, 4, lambda x, a: x & 1, 1)
            leaks = {5: (lambda x, a: x & 1, 0, 0, 0)}
            adv = AdversaryStrategy.qr_analog(
                {3}, lambda pid, rnd, view, side: (
                    side[5] * 5 + len(view["round_honest"])
                    + sum(v for _, _, v in view["round_honest"])) & 7)
        elif case == "two-leaks":
            # the side dict holds two columns, players 4 and 5
            scenario = LeakageScenario((3,) * 5, leak_maps=(
                None, None, None, _low_bit, _high_bit), e_widths=(0, 0, 0, 1, 1))
            leaks = {4: (_low_bit, 0, 0, 0), 5: (_high_bit, 0, 0, 0)}
            adv = AdversaryStrategy.qr_analog(
                {3}, lambda pid, rnd, view, side: (
                    side[4] * 3 + side[5] * 5
                    + sum(v for _, _, v in view["round_honest"])) & 7)
        elif case in ("oa-leak", "ext-pub-passive"):
            target = 5 if protocol == "geqr" else 7
            scenario = LeakageScenario.oa([3] * cfg.p, target - 1,
                                          lambda x, a: x & 1, 1)
            leaks = {target: (lambda x, a: x & 1, 0, 0, 0)}
            players = [4, 7] if protocol == "ext_pub" else [5]
        elif case == "shared-register":
            scenario = LeakageScenario.oa([3] * 5, 4, _parity_leak, 1,
                                          shared_width=1, slices=[(0, 1)] * 5)
            shared = Distribution.uniform(1)
            shared_atoms = [(0, Fraction(1, 2)), (1, Fraction(1, 2))]
            leaks = {5: (_parity_leak, 0, 1, 1)}
        elif case == "ext-pub-trigger":
            # player 5 of B turns faulty after round 2 where player 1's
            # source is odd, and sends a rushing slice in round 3 only
            supports[0] = [2, 3]
            target, players = 7, [7]
            adv = AdversaryStrategy.ir(
                set(), lambda pid, rnd, view: len(view["transcript"]) + rnd,
                trigger=lambda rnd, tr: {5} if rnd == 2 and tr[0][2] & 1
                else set())
        sources = [FlatSource(cfg.n, sup) for sup in supports]
        naive_calls, calls = [], []
        worlds = naive_protocol_worlds(_naive_spec(cfg, protocol), supports,
                                       _naive_adv(_recording(adv, naive_calls)),
                                       shared_atoms, leaks)
        m = output_width(cfg, protocol)
        rep = evaluate_security(protocol, cfg, sources, scenario,
                                _recording(adv, calls), players, shared=shared)
        assert rep.distance == naive_security(worlds, players, m), (case, trial)
        # the callbacks run once per distinct view, with the same arguments
        assert len(set(calls)) == len(calls)
        assert set(calls) == set(naive_calls)
        if protocol == "geqr":  # one faulty sender in one round
            assert calls == list(dict.fromkeys(naive_calls))
        if case == "two-leaks":
            assert calls and all(", {4: " in c and ", 5: " in c for c in calls)
        strong = strong_player_error(protocol, cfg, sources, scenario, adv,
                                     target, shared=shared)
        assert strong == naive_strong_error(worlds, target, m), (case, trial)
        if case == "ext-pub-trigger":
            late = [w for w in worlds if 5 in w[5]]
            assert late and all(w[3][-1][:2] == (3, 5) for w in late)


# ----------------------------------------------------------------------
# wiring checks: each violation is refused by name
# ----------------------------------------------------------------------

_RING = tuple((i, (i + 1) % 3) for i in range(3))


def _slots(**specs):
    """Replace gadget slots: a graph, None, or ``(widths, m)`` for a fresh
    random table."""
    def mutate(cfg, rng):
        cfg.gadgets = replace(cfg.gadgets, **{
            nm: _random_slot(rng, nm, *s) if isinstance(s, tuple) else s
            for nm, s in specs.items()})
    return mutate


def _set(**fields):
    def mutate(cfg, rng):
        for name, value in fields.items():
            setattr(cfg, name, value)
    return mutate


@pytest.mark.parametrize("mutate,match", [
    (_set(p=6), r"no outer players: \|A\|\+\|B\| >= p"),
    (_slots(iext=None), "gadget slot iext is empty"),
    (_slots(srext=None), "gadget slot srext is empty"),
    (_slots(and_disperser=None), "gadget slot and_disperser is empty"),
    (_slots(expander=None), "gadget slot expander is empty"),
    (_slots(and_disperser=BipartiteGraph(3, 4, 2, _RING)),
     "disperser right set must be the A players"),
    (_slots(and_disperser=BipartiteGraph(3, 3, 1, ((0,), (1,), (2,)))),
     "disperser left degree must match the multi-source arity"),
    (_slots(expander=BipartiteGraph(3, 4, 2, _RING)),
     "expander right set must be the disperser left set"),
    (_slots(expander=BipartiteGraph(2, 3, 2, _RING[:2])),
     "expander left set must cover B"),
    (_slots(srext=((3, 3), 2)), "somewhere-random input must be d2 rows"),
    (_slots(srext=((3, 4), 1)), "somewhere-random output too narrow"),
])
def test_ext_pub_wiring_violations_named(mutate, match):
    rng = np.random.default_rng(3)
    cfg = _tiny_ext_pub(rng)
    mutate(cfg, rng)
    with pytest.raises(InvalidInputError, match=match):
        cfg.validate_ext_pub()


@pytest.mark.parametrize("mutate,match", [
    (_slots(iext=None), "geqr needs the iext and qtext slots"),
    (_slots(qtext=None), "geqr needs the iext and qtext slots"),
    (_set(geqr_group=3), "group size must match the iext arity"),
    (_set(p=4), r"p must exceed s\*d"),
    (_slots(qtext=((3, 3), 1)), r"qtext seed width must be s\*floor\(k/s\) = 2"),
])
def test_geqr_wiring_violations_named(mutate, match):
    rng = np.random.default_rng(4)
    cfg = _tiny_geqr(rng)
    cfg.validate_geqr()
    mutate(cfg, rng)
    with pytest.raises(InvalidInputError, match=match):
        cfg.validate_geqr()


@pytest.mark.parametrize("mutate,match", [
    (_slots(oaext=None), "the oaext slot is empty"),
    (_slots(oaext=((3, 5), 1)), "oaext must read a 6-bit public string"),
    (_slots(oaext_b=None), "the oaext_b slot is empty"),
    (_slots(oaext_b=((3, 5), 1)), "oaext_b must read a 4-bit public string"),
])
def test_ext_pri_slot_violations_named(mutate, match):
    rng = np.random.default_rng(5)
    cfg = _tiny_ext_pub(rng)
    _, _, b = protocol_runs("ext_pub_only", cfg, _toy_sources(cfg), None,
                            AdversaryStrategy.passive(), n_runs=1)
    exec_ext_pri(cfg, b)
    mutate(cfg, rng)
    with pytest.raises(InvalidInputError, match=match):
        exec_ext_pri(cfg, b)


def test_player_estimates_number_each_rest_once(monkeypatch):
    # Players given the same rest columns share one numbering of them;
    # equal columns that are other objects, and other columns, get their
    # own.  Each estimate is the one of its keys packed from its rest
    # numbered alone, and a player faulty in some run is skipped.
    from extractomat import netsim
    calls, seen = [], {}
    real_ids, real_mc = netsim.row_ids, netsim.mc_distance_pairs

    def ids_spy(cols, n):
        calls.append(cols)
        return real_ids(cols, n)

    def mc_spy(keys, m, *, tol, seed):
        seen[seed] = keys
        return real_mc(keys, m, tol=tol, seed=seed)

    monkeypatch.setattr(netsim, "row_ids", ids_spy)
    monkeypatch.setattr(netsim, "mc_distance_pairs", mc_spy)
    rng = np.random.default_rng(77)
    n, m = 1200, 2
    t1 = [rng.integers(0, 30, n), rng.integers(0, 3, n)]
    pairs = {pid: (rng.integers(0, 1 << m, n), rest) for pid, rest in
             [(1, t1), (2, t1), (3, [c.copy() for c in t1]),
              (4, [rng.integers(0, 40, n)]), (5, t1), (6, t1)]}
    faulty = np.zeros((n, 6), dtype=bool)
    faulty[7, 5] = True
    reps = netsim.player_estimates(type("B", (), {"faulty": faulty}), pairs,
                                   m, tol=1.0, seed=10)
    assert sorted(reps) == [1, 2, 3, 4, 5] and len(seen) == 5
    # t1 (players 1, 2 and 5), its copy (3) and player 4's column
    assert [cols is t1 for cols in calls] == [True, False, False]
    for pid, rep in reps.items():
        z, rest = pairs[pid]
        keys = (real_ids(rest, n)[0] << m) | z
        assert np.array_equal(seen[10 + pid], keys)
        assert rep == real_mc(keys, m, tol=1.0, seed=10 + pid)
