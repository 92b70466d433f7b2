import numpy as np
import pytest

from extractomat import certify
from extractomat.combinators import (CompositionConfig, CondenserHandle,
                                     build_three_source_handle,
                                     weak_seed_transform)
from extractomat.errors import InvalidInputError
from extractomat.extractors import ip_handle
from extractomat.leakage import LeakageScenario
from extractomat.oracle import exact_distance
from extractomat.pa import pa_distance
from extractomat.sources import FlatSource


@pytest.fixture(scope="module")
def weak_handle(cache_dir):
    base, _ = certify.certify_random_table(
        (6, 2), (4, 2), 2, kind="seeded", seed=404, cache_dir=cache_dir,
        mode="sampled", samples=100)
    raz, _ = certify.certify_random_table(
        (2, 6), (2, 4), 2, seed=405, cache_dir=cache_dir, mode="sampled",
        samples=100, strong=(0,))
    srext, _ = certify.certify_random_table(
        (2, 1), (1, 1), 2, kind="2-source", seed=406, cache_dir=cache_dir,
        strong=(1,))
    cfg = CompositionConfig(weak_seed_C=2.0)
    return weak_seed_transform(base, 0.25, d_prime=4, raz_slot=raz,
                               srext_slot=srext, config=cfg)


@pytest.fixture(scope="module")
def three_source_handle(cache_dir):
    cond = CondenserHandle.identity(3)
    raz, _ = certify.certify_random_table(
        (3, 6), (2, 4), 2, seed=407, cache_dir=cache_dir, mode="sampled",
        samples=100, strong=(0,))
    srext, _ = certify.certify_random_table(
        (3, 1), (2, 1), 2, kind="2-source", seed=408, cache_dir=cache_dir,
        strong=(1,))
    last, _ = certify.certify_random_table(
        (6, 2), (4, 2), 2, kind="seeded", seed=409, cache_dir=cache_dir,
        mode="sampled", samples=100)
    return build_three_source_handle(cond, raz, srext, last, delta=2 / 3,
                                     d=3, k=4)


def test_pa_distance_refuses_unknown_protocol(weak_handle):
    rng = np.random.default_rng(1)
    sources = [FlatSource.random(6, 4, rng), FlatSource.random(4, 3, rng)]
    with pytest.raises(InvalidInputError):
        pa_distance("three-sources", weak_handle, sources)


def test_one_source_requires_seeded_handle(three_source_handle):
    rng = np.random.default_rng(1)
    sources = [FlatSource.random(3, 2, rng), FlatSource.random(3, 2, rng),
               FlatSource.random(6, 4, rng)]
    with pytest.raises(InvalidInputError):
        pa_distance("one-source", three_source_handle, sources)
    ip = ip_handle(3)  # two inputs, but not a seeded handle
    with pytest.raises(InvalidInputError):
        pa_distance("one-source", ip, sources[:2])


def test_two_sources_requires_three_inputs(weak_handle):
    rng = np.random.default_rng(1)
    sources = [FlatSource.random(6, 4, rng), FlatSource.random(4, 3, rng)]
    with pytest.raises(InvalidInputError):
        pa_distance("two-sources", weak_handle, sources)


def test_one_source_width_checked(weak_handle):
    rng = np.random.default_rng(1)
    x = FlatSource.random(6, 4, rng)
    with pytest.raises(InvalidInputError):  # seeds of 5 bits, the handle's 4
        pa_distance("one-source", weak_handle, [x, FlatSource(5, range(16, 24))])
    with pytest.raises(InvalidInputError):
        pa_distance("one-source", weak_handle, [x])


def test_pa_distance_is_exact_distance_of_the_transcript(weak_handle,
                                                        three_source_handle):
    # the transcript reveals Y in one-source and (Y1, Y2) in two-sources
    rng = np.random.default_rng(6)
    x = FlatSource.random(6, 4, rng)
    y = FlatSource.random(4, 3, rng)
    y1, y2 = FlatSource.random(3, 2, rng), FlatSource.random(3, 2, rng)
    sc = LeakageScenario.oa([6, 4], 0, lambda xx, a: xx >> 5, 1)
    assert (pa_distance("one-source", weak_handle, [x, y], sc)
            == exact_distance(weak_handle, [x, y], strong=(1,), scenario=sc))
    assert (pa_distance("two-sources", three_source_handle, [y1, y2, x])
            == exact_distance(three_source_handle, [y1, y2, x],
                              strong=(0, 1)))


def test_eavesdropper_distance_within_budget(weak_handle):
    rng = np.random.default_rng(3)
    x = FlatSource.random(6, 4, rng)
    y = FlatSource.random(4, 3, rng)  # seed entropy rate 3/4 > 1/2
    d = pa_distance("one-source", weak_handle, [x, y])
    assert float(d) <= weak_handle.budget.total() + 1e-12


def test_eavesdropper_distance_two_sources(three_source_handle):
    rng = np.random.default_rng(4)
    y1 = FlatSource.random(3, 2, rng)
    y2 = FlatSource.random(3, 2, rng)
    x = FlatSource.random(6, 4, rng)
    d = pa_distance("two-sources", three_source_handle, [y1, y2, x])
    assert float(d) <= three_source_handle.budget.total() + 1e-12


def test_leakage_monotone_in_width(weak_handle):
    # refinement chain: e_b = first b bits of the shared secret; finer
    # side information can only increase the eavesdropper's advantage
    rng = np.random.default_rng(5)
    x = FlatSource.random(6, 4, rng)
    y = FlatSource.random(4, 3, rng)
    dists = []
    for b in (0, 1, 2):
        sc = None if b == 0 else LeakageScenario.oa(
            [6, 4], 0, lambda xx, a, b=b: xx >> (6 - b), b)
        dists.append(pa_distance("one-source", weak_handle, [x, y], sc))
    assert dists[0] <= dists[1] <= dists[2]
