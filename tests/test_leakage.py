from fractions import Fraction

import numpy as np
import pytest

from extractomat.dist import Distribution, cond_min_entropy
from extractomat.errors import InvalidInputError
from extractomat.leakage import LeakageScenario, leakage_apply
from extractomat.oracle import check_lemma

from helpers_naive import naive_cond_min_entropy


def test_trivial_leakage_is_product_and_full_entropy():
    sc = LeakageScenario.trivial([2, 3])
    res = leakage_apply([Distribution.uniform(2), Distribution.uniform(3)], sc)
    assert res.k[0] == pytest.approx(2.0)
    assert res.k[1] == pytest.approx(3.0)
    assert res.joint.labels() == ("X1", "X2")
    assert all(m == Fraction(1, 32) for m in res.joint.mass)


def test_parity_leak_of_uniform_3bit_source():
    # guessing-probability enumeration: two parity classes of 4 outcomes,
    # best guess 1/8 each, total 1/4, so k = 2 exactly
    sc = LeakageScenario.oa([3], 0, lambda x, a: bin(x).count("1") & 1, 1)
    res = leakage_apply([Distribution.uniform(3)], sc)
    atoms = {(x, bin(x).count("1") & 1): Fraction(1, 8) for x in range(8)}
    assert naive_cond_min_entropy(atoms) == Fraction(1, 4)
    assert res.k[0] == pytest.approx(2.0)


def test_xor_counterexample_entropy_is_zero():
    # shared register holds two identical copies of R; each party leaks
    # its source xor its copy; at the measuring step X is fully determined
    n = 3
    support = [(r << n) | r for r in range(1 << n)]
    shared = Distribution.flat(2 * n, support)
    sc = LeakageScenario(
        source_widths=(n, n), shared_width=2 * n,
        slices=((0, n), (n, n)),
        leak_maps=(lambda x, a: x ^ a, lambda x, a: x ^ a),
        e_widths=(n, n), model="GE")
    res = leakage_apply([Distribution.uniform(n), Distribution.uniform(n)], sc,
                        shared)
    assert res.k[0] == pytest.approx(0.0)
    assert res.k[1] == pytest.approx(0.0)
    # yet given only the final leaks, each source still looks fully random
    h_final = cond_min_entropy(res.joint, "X1", ["E1", "E2"])
    assert h_final == pytest.approx(float(n))


def test_oa_allows_single_leak_only():
    with pytest.raises(InvalidInputError):
        LeakageScenario(source_widths=(2, 2),
                        leak_maps=(lambda x, a: x & 1, lambda x, a: x & 1),
                        e_widths=(1, 1), model="OA")


def test_leak_width_enforced():
    sc = LeakageScenario.oa([2], 0, lambda x, a: x, 1)  # 2-bit value, 1-bit slot
    with pytest.raises(InvalidInputError):
        leakage_apply([Distribution.uniform(2)], sc)


def test_k_never_exceeds_final_conditional_entropy():
    # the imaginary-step measure lower-bounds the final-state entropy
    rng = np.random.default_rng(3)
    for trial in range(10):
        table = rng.integers(0, 2, size=8)
        sc = LeakageScenario.oa([3, 2], 0,
                                lambda x, a, t=table: int(t[x]), 1)
        srcs = [Distribution.uniform(3), Distribution.uniform(2)]
        res = leakage_apply(srcs, sc)
        h_final = cond_min_entropy(res.joint, "X1", ["E1"])
        assert res.k[0] <= h_final + 1e-9


def test_additivity_up_to_smooth_slack():
    # sum of per-source measures lower-bounds the joint conditional
    # min-entropy up to the (s-1) log(2/eps^2) slack at eps = 1/4
    rng = np.random.default_rng(5)
    for trial in range(5):
        t1 = rng.integers(0, 2, size=8)
        sc = LeakageScenario(
            source_widths=(3, 3),
            leak_maps=(lambda x, a, t=t1: int(t[x]), None),
            e_widths=(1, 0), model="GE")
        srcs = [Distribution.uniform(3), Distribution.uniform(3)]
        verdict = check_lemma("P3.2", sources=srcs, scenario=sc, eps=0.25)
        assert verdict.ok


def test_shared_register_required_when_declared():
    sc = LeakageScenario(source_widths=(2,), shared_width=2,
                         slices=((0, 2),),
                         leak_maps=(lambda x, a: (x ^ a) & 1,),
                         e_widths=(1,), model="GE")
    with pytest.raises(InvalidInputError):
        leakage_apply([Distribution.uniform(2)], sc)
