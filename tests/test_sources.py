import math
from fractions import Fraction

import numpy as np
import pytest

from extractomat.dist import Distribution, JointDistribution, min_entropy
from extractomat.errors import InvalidInputError
from extractomat.sources import (BlockSourceSpec, FlatSource,
                                 SomewhereRandomSpec, check_block_source)


def test_flat_source_entropy_is_exact():
    f = FlatSource(4, [1, 3, 5, 7])
    assert f.k == 2
    assert min_entropy(f.to_distribution()) == pytest.approx(2.0)


def test_flat_source_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        FlatSource(3, [0, 1, 2])  # size 3 not a power of two
    with pytest.raises(InvalidInputError):
        FlatSource(2, [0, 5])
    # widths and support elements are integers, widths at least 1
    for width, support in ((2.5, [0]), (2, [0.5, 1]), (2, ["1"]), (0, [0])):
        with pytest.raises(InvalidInputError):
            FlatSource(width, support)
    for width, support in ((2.5, [0]), (2, [0.5, 1])):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            Distribution.flat(width, support)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        Distribution.point_mass(2, 1.0)


def test_negative_support_elements_are_refused():
    # numpy reads index -1 as the last outcome, so a kept -1 would turn
    # FlatSource(2, [-1, 0]) into the uniform distribution on {0, 3}
    for width, support in ((2, [-1, 0]), (3, [-8, 1]), (1, [-1])):
        with pytest.raises(InvalidInputError, match="outside outcome space"):
            FlatSource(width, support)
        with pytest.raises(InvalidInputError, match="outside outcome space"):
            Distribution.flat(width, support)
    with pytest.raises(InvalidInputError):
        Distribution.point_mass(2, -1)
    assert FlatSource(2, [3, 0]).to_distribution().support() == [0, 3]


@pytest.mark.parametrize("width", range(1, 13))
def test_flat_sample_draws_what_its_distribution_draws(width):
    # one Philox stream each: the same values, and the same next word
    rng = np.random.default_rng([width, 48])
    for k in range(width + 1):
        src = FlatSource.random(width, k, rng)
        for size in (0, 1, 1000, None):
            fast, ref = (np.random.default_rng(np.random.Philox(
                key=(width << 32 | k << 16) + (size or 0))) for _ in range(2))
            got = src.sample(fast, size=size)
            want = src.to_distribution().sample(ref, size=size)
            assert np.shape(got) == np.shape(want), (k, size)
            assert np.asarray(got).dtype == np.int64
            assert np.array_equal(got, want), (k, size)
            assert fast.random() == ref.random(), (k, size)


def test_flat_enumeration_count():
    assert sum(1 for _ in FlatSource.enumerate_all(3, 1)) == math.comb(8, 2)


# ----------------------------------------------------------------------
# block sources
# ----------------------------------------------------------------------

def _product_joint(w1, w2):
    return JointDistribution.product(
        [("B1", Distribution.uniform(w1)), ("B2", Distribution.uniform(w2))])


def test_independent_uniform_blocks_pass():
    j = _product_joint(2, 3)
    verdict = check_block_source(j, BlockSourceSpec((2, 3), (2, 3)))
    assert verdict.ok
    assert all(v == 0 for v in verdict.violating_mass)


def test_copied_block_fails_with_offender():
    atoms = {(v, v): Fraction(1, 4) for v in range(4)}
    j = JointDistribution.from_atoms([("B1", 2), ("B2", 2)], atoms)
    verdict = check_block_source(j, BlockSourceSpec((2, 2), (2, 1)))
    assert not verdict.ok
    block, prefix, h = verdict.worst
    assert block == 1 and h == pytest.approx(0.0)
    assert verdict.violating_mass[1] == 1  # every prefix is offending


def test_zero_probability_prefixes_are_vacuous():
    # only prefixes 0 and 1 occur; block 2 conditional entropy is 1 on both
    atoms = {(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4),
             (1, 2): Fraction(1, 4), (1, 3): Fraction(1, 4)}
    j = JointDistribution.from_atoms([("B1", 2), ("B2", 2)], atoms)
    verdict = check_block_source(j, BlockSourceSpec((2, 2), (1, 1)))
    assert verdict.ok


def test_width_mismatch_rejected():
    j = _product_joint(2, 2)
    with pytest.raises(InvalidInputError):
        check_block_source(j, BlockSourceSpec((2, 3), (1, 1)))


def test_random_joint_verdict_matches_direct_enumeration():
    # independent oracle: condition on every prefix by hand
    rng = np.random.default_rng(7)
    for _ in range(25):
        denom = 64
        counts = rng.multinomial(denom, np.full(16, 1 / 16))
        atoms = {(i >> 2, i & 3): Fraction(int(c), denom)
                 for i, c in enumerate(counts) if c}
        j = JointDistribution.from_atoms([("B1", 2), ("B2", 2)], atoms)
        thresholds = (1, 1)
        verdict = check_block_source(j, BlockSourceSpec((2, 2), thresholds))

        marg = {}
        for (b1, b2), p in atoms.items():
            marg[b1] = marg.get(b1, Fraction(0)) + p
        ok = max(marg.values()) <= Fraction(1, 2)  # H(B1) >= 1
        for b1, pm in marg.items():
            cond = {b2: p / pm for (a, b2), p in atoms.items() if a == b1}
            if max(cond.values()) > Fraction(1, 2):  # H(B2 | b1) < 1
                ok = False
        assert verdict.ok == ok


# ----------------------------------------------------------------------
# somewhere-random sources
# ----------------------------------------------------------------------

def test_sr_uniform_row_detected():
    atoms = {}
    for r1 in range(4):
        atoms[(r1, r1 ^ 1)] = Fraction(1, 4)  # row 1 uniform, row 2 a copy
    j = JointDistribution.from_atoms([("R1", 2), ("R2", 2)], atoms)
    ok, idx = SomewhereRandomSpec(2, 2).check(j)
    assert ok and idx == 0


def test_sr_no_uniform_row():
    atoms = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 4),
             (2, 2): Fraction(1, 4)}
    j = JointDistribution.from_atoms([("R1", 2), ("R2", 2)], atoms)
    ok, idx = SomewhereRandomSpec(2, 2).check(j)
    assert not ok and idx is None


def test_sr_shape_checked():
    j = JointDistribution.product(
        [("R1", Distribution.uniform(2))])
    with pytest.raises(InvalidInputError):
        SomewhereRandomSpec(2, 2).check(j)
