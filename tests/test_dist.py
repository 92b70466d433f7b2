import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extractomat import dist
from extractomat.dist import (Distribution, JointDistribution, column_excess,
                              cond_min_entropy, excess_over_uniform,
                              min_entropy, row_ids,
                              smooth_cond_min_entropy, statistical_distance,
                              xor_project)
from extractomat.errors import InvalidInputError, SizeLimitError
from extractomat.leakage import enumerate_worlds

from helpers_naive import (naive_cond_min_entropy, naive_dense_ids,
                           naive_smooth_guess, naive_tv_from_uniform, parity)


# ----------------------------------------------------------------------
# min-entropy
# ----------------------------------------------------------------------

def test_min_entropy_uniform():
    assert min_entropy(Distribution.uniform(4)) == pytest.approx(4.0)


def test_min_entropy_point_mass():
    assert min_entropy(Distribution.point_mass(3, 5)) == pytest.approx(0.0)


def test_min_entropy_mixed():
    d = Distribution(2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0])
    assert min_entropy(d) == 1.0


def test_mass_must_normalize():
    quarter = Fraction(1, 4)
    with pytest.raises(InvalidInputError):
        Distribution(2, [2 * quarter, quarter, quarter, Fraction(1, 10)])
    with pytest.raises(InvalidInputError):
        Distribution(1, [Fraction(1, 3), Fraction(1, 3)])
    with pytest.raises(InvalidInputError):
        Distribution(1, [Fraction(-1, 2), Fraction(3, 2)])
    # one representation, numerators over a denominator: floats are refused
    for bad in ([0.5, 0.5], np.array([0.5, 0.5]), [Fraction(1, 2), 0.5]):
        with pytest.raises(InvalidInputError):
            Distribution(1, bad)
        with pytest.raises(InvalidInputError):
            JointDistribution([("X", 1)], bad)
    with pytest.raises(InvalidInputError):
        JointDistribution.from_numerators([("X", 1)], np.array([0.5, 0.5]))


def test_constructors_leave_the_callers_array_writable():
    a, b = np.array([2, 1, 1, 0]), np.array([1, 0, 0, 0])
    j = JointDistribution.from_numerators([("X", 1), ("Y", 1)], a, 4)
    d = Distribution(2, b)
    a[0], a[3], b[0] = 0, 2, 0  # must not raise, nor reach the stored masses
    assert j.mass == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0)
    assert d.mass == (1, 0, 0, 0)
    assert not j.numerators.flags.writeable
    assert not d.numerators.flags.writeable


def test_exact_mode_width_cap():
    with pytest.raises(SizeLimitError):
        Distribution(13, [Fraction(1, 1 << 13)] * (1 << 13))
    # a width is an integer: 2.5 is neither truncated nor a bare TypeError
    for make in (lambda: Distribution.uniform(2.5),
                 lambda: Distribution.flat(2.5, [0]),
                 lambda: Distribution(2.5, [Fraction(1, 4)] * 4),
                 lambda: JointDistribution([("X", 2.5)], [Fraction(1, 4)] * 4),
                 lambda: JointDistribution.from_atoms([("X", 2.5)],
                                                      {(0,): Fraction(1)})):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            make()


def test_joint_size_cap():
    # each part fits, the joint over 13 bits does not
    with pytest.raises(SizeLimitError):
        JointDistribution([("A", 8), ("B", 5)],
                          [Fraction(1, 1 << 13)] * (1 << 13))
    # the width is refused before any table of 2**28 masses is read
    with pytest.raises(SizeLimitError):
        JointDistribution([("A", 20), ("B", 8)], [Fraction(1)])


# ----------------------------------------------------------------------
# statistical distance
# ----------------------------------------------------------------------

def test_distance_identity():
    d = Distribution.uniform(3)
    assert statistical_distance(d, d) == 0.0


def test_distance_point_vs_uniform_1bit():
    p = Distribution.point_mass(1, 0)
    assert statistical_distance(p, Distribution.uniform(1)) \
        == Fraction(1, 2)


def test_distance_half_support_vs_uniform():
    p = Distribution(2, [Fraction(1, 2), Fraction(1, 2), 0, 0])
    q = Distribution.uniform(2)
    assert statistical_distance(p, q) == Fraction(1, 2)


def test_distance_width_mismatch():
    with pytest.raises(InvalidInputError):
        statistical_distance(Distribution.uniform(2), Distribution.uniform(3))


def _random_dist(rng, width):
    counts = rng.multinomial(200, np.full(1 << width, 1 / (1 << width)))
    return Distribution(width, [Fraction(int(c), 200) for c in counts])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_distance_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    p, q, r = (_random_dist(rng, 3) for _ in range(3))
    dpq = statistical_distance(p, q)
    assert dpq == statistical_distance(q, p)
    assert 0 <= dpq <= 1
    assert statistical_distance(p, r) <= dpq + statistical_distance(q, r)
    assert statistical_distance(p, p) == 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_distance_monotone_under_postprocessing(seed):
    # deterministic post-processing can only lose distinguishing power
    rng = np.random.default_rng(seed)
    p, q = _random_dist(rng, 3), _random_dist(rng, 3)
    fmap = rng.integers(0, 4, size=8)

    def push(d):
        out = np.zeros(4, dtype=np.int64)
        np.add.at(out, fmap, d.numerators)
        return Distribution(2, [Fraction(int(c), d.denominator) for c in out])

    assert statistical_distance(push(p), push(q)) <= statistical_distance(p, q)


# ----------------------------------------------------------------------
# joints / conditional min-entropy
# ----------------------------------------------------------------------

def _joint_first_bit_leak():
    return JointDistribution.from_atoms(
        [("X", 2), ("E", 1)], {(v, v >> 1): Fraction(1, 4) for v in range(4)})


def test_cond_min_entropy_one_bit_revealed():
    assert cond_min_entropy(_joint_first_bit_leak(), "X", ["E"]) \
        == pytest.approx(1.0)


def test_cond_min_entropy_independence():
    j = JointDistribution.product(
        [("X", Distribution.uniform(3)),
         ("E", Distribution.point_mass(1, 0))])
    assert cond_min_entropy(j, "X", ["E"]) == pytest.approx(3.0)


def test_cond_min_entropy_full_leak():
    j = JointDistribution.from_atoms(
        [("X", 2), ("E", 2)], {(v, v): Fraction(1, 4) for v in range(4)})
    assert cond_min_entropy(j, "X", ["E"]) == pytest.approx(0.0)


def test_cond_min_entropy_overlap_rejected():
    with pytest.raises(InvalidInputError):
        cond_min_entropy(_joint_first_bit_leak(), "X", ["X"])


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_guessing_probability_matches_naive(seed):
    rng = np.random.default_rng(seed)
    denom = 64
    counts = rng.multinomial(denom, np.full(16, 1 / 16))
    atoms = {(i >> 2, i & 3): Fraction(int(c), denom)
             for i, c in enumerate(counts) if c}
    j = JointDistribution.from_atoms([("X", 2), ("E", 2)], atoms)
    assert cond_min_entropy(j, "X", ["E"]) == \
        _neg_log2(naive_cond_min_entropy(atoms))


def _neg_log2(p: Fraction) -> float:
    """``-log2(p)`` of a reduced Fraction, as the library computes it."""
    return math.log2(p.denominator) - math.log2(p.numerator)


def test_condition_and_marginal():
    j = _joint_first_bit_leak()
    m = j.marginal_dist("X")
    assert m.mass == tuple(Fraction(1, 4) for _ in range(4))
    c = j.condition("E", 1)
    assert c.marginal_dist("X").mass == (0, 0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(InvalidInputError):
        JointDistribution.from_atoms(
            [("X", 1), ("E", 1)], {(0, 0): Fraction(1)}).condition("E", 1)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        j.condition("E", 0.5)


# ----------------------------------------------------------------------
# xor projection
# ----------------------------------------------------------------------

def test_xor_project_uniform_stays_uniform():
    j = JointDistribution.product([("Z", Distribution.uniform(3))])
    p = xor_project(j, "Z", {1, 2})
    assert p.marginal_dist("Z").mass == (Fraction(1, 2), Fraction(1, 2))


def test_xor_project_single_bit_identity():
    j = JointDistribution.from_atoms([("Z", 1)], {(1,): Fraction(1)})
    p = xor_project(j, "Z", {1})
    assert p.mass == j.mass


def test_xor_project_fixed_value():
    j = JointDistribution.from_atoms([("Z", 3)], {(0b101,): Fraction(1)})
    p = xor_project(j, "Z", {1, 3})
    assert p.mass[0] == 1  # 1 xor 1 = 0


def test_xor_project_empty_subset_rejected():
    j = JointDistribution.from_atoms([("Z", 2)], {(0,): Fraction(1)})
    with pytest.raises(InvalidInputError):
        xor_project(j, "Z", set())


# ----------------------------------------------------------------------
# smoothing
# ----------------------------------------------------------------------

def test_smooth_entropy_at_least_plain():
    j = _joint_first_bit_leak()
    plain = cond_min_entropy(j, "X", ["E"])
    smooth = smooth_cond_min_entropy(j, "X", ["E"], Fraction(1, 8))
    assert smooth >= plain - 1e-12


def test_smooth_entropy_removes_peak():
    # point mass with eps mass elsewhere: removing the spike helps
    j = JointDistribution.from_atoms(
        [("X", 2), ("E", 1)],
        {(0, 0): Fraction(5, 8), (1, 0): Fraction(1, 8),
         (2, 0): Fraction(1, 8), (3, 0): Fraction(1, 8)})
    plain = cond_min_entropy(j, "X", ["E"])
    smooth = smooth_cond_min_entropy(j, "X", ["E"], Fraction(1, 2))
    assert smooth > plain + 0.5


def test_smooth_entropy_parity_leak_has_tied_maxima():
    # X flat on 2 bits, E its parity: each column holds two tied maxima,
    # so lowering a column's maximum costs twice the mass it gains
    j = JointDistribution.from_atoms(
        [("X", 2), ("E", 1)], {(v, parity(v)): Fraction(1, 4) for v in range(4)})
    assert smooth_cond_min_entropy(j, "X", "E", 0) == 1.0
    assert smooth_cond_min_entropy(j, "X", "E", Fraction(1, 8)) \
        == math.log2(16) - math.log2(7)
    assert smooth_cond_min_entropy(j, "X", "E", Fraction(1, 4)) \
        == math.log2(8) - math.log2(3)
    assert smooth_cond_min_entropy(j, "X", "E", 1) == float("inf")
    with pytest.raises(InvalidInputError):
        smooth_cond_min_entropy(j, "X", "E", Fraction(-1, 8))


def _random_smoothing_case(rng):
    """A joint of X (1-3 bits) and E (1-2 bits), half of them a flat X with
    E a function of it (tied column maxima), and a delta in [1/16, 3/4]."""
    xw, ew = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    if rng.integers(2):
        support = rng.choice(1 << xw, size=int(rng.integers(1, (1 << xw) + 1)),
                             replace=False)
        leak = rng.integers(0, 1 << ew, size=1 << xw)
        atoms = {(int(x), int(leak[x])): Fraction(1, len(support))
                 for x in support}
    else:
        den, n = int(rng.choice([6, 16, 60])), 1 << (xw + ew)
        counts = rng.multinomial(den, np.full(n, 1 / n))
        atoms = {(i >> ew, i & ((1 << ew) - 1)): Fraction(int(c), den)
                 for i, c in enumerate(counts)}
    j = JointDistribution.from_atoms([("X", xw), ("E", ew)], atoms)
    columns = [[p for (x, e), p in atoms.items() if e == col]
               for col in range(1 << ew)]
    return j, columns, Fraction(int(rng.integers(1, 13)), 16)


def test_smooth_entropy_matches_the_dual_reference_exactly():
    rng = np.random.default_rng(54)
    for _ in range(150):
        j, columns, delta = _random_smoothing_case(rng)
        guess = naive_smooth_guess(columns, delta)
        expect = float("inf") if guess == 0 else _neg_log2(guess)
        assert smooth_cond_min_entropy(j, "X", "E", delta) == expect


# ----------------------------------------------------------------------
# integer numerators over one denominator
# ----------------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_naive_tv(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    cells = {}
    for _ in range(int(rng.integers(1, 20))):
        key = (int(rng.integers(0, 1 << m)), int(rng.integers(0, 4)))
        cells[key] = cells.get(key, 0) + int(rng.integers(1, 50))
    total = sum(cells.values())
    groups = naive_dense_ids(g for _, g in cells)
    naive = naive_tv_from_uniform(cells, total, m)
    excess = excess_over_uniform(list(cells.values()), groups, m)
    assert Fraction(excess, total << m) == naive
    floats = np.array(list(cells.values()), dtype=np.float64)
    assert excess_over_uniform(floats, groups, m) / (total << m) \
        == pytest.approx(float(naive))


def _values(idx, widths):
    """Per-part values of a composite index, first part most significant."""
    out = []
    for w in reversed(widths):
        out.append(idx & ((1 << w) - 1))
        idx >>= w
    return tuple(reversed(out))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_int_exact_ops_match_fraction_reference(seed):
    rng = np.random.default_rng(seed)
    wa, wb, wc = (int(w) for w in rng.integers(1, 3, size=3))
    den = int(rng.choice([6, 7, 64, 90]))
    n = 1 << (wa + wb + wc)
    mass = [Fraction(int(c), den)
            for c in rng.multinomial(den, np.full(n, 1.0 / n))]
    j = JointDistribution([("A", wa), ("B", wb), ("C", wc)], mass)
    atoms = {_values(i, [wa, wb, wc]): p for i, p in enumerate(mass)}

    def add(table, key, p):
        table[key] = table.get(key, 0) + p

    ca, ab = {}, {}
    for (a, b, c), p in atoms.items():
        add(ca, (c, a), p)
        add(ab, (a, b), p)
    assert j.marginal(["C", "A"]).mass == tuple(
        ca.get(_values(i, [wc, wa]), 0) for i in range(1 << (wc + wa)))
    assert cond_min_entropy(j, "A", "B") == \
        _neg_log2(naive_cond_min_entropy(ab))

    b = max(range(1 << wb), key=lambda v: sum(
        p for (_, bv, _), p in atoms.items() if bv == v))
    pb = sum(p for (_, bv, _), p in atoms.items() if bv == b)
    cond = {(a, c): p / pb for (a, bv, c), p in atoms.items() if bv == b}
    assert j.condition("B", b).mass == tuple(
        cond[_values(i, [wa, wc])] for i in range(1 << (wa + wc)))

    pa = j.marginal_dist("A")
    q = [Fraction(int(c), 13)
         for c in rng.multinomial(13, np.full(1 << wa, 1.0 / (1 << wa)))]
    ref = sum(max(Fraction(0), x - y) for x, y in zip(pa.mass, q))
    assert statistical_distance(pa, Distribution(wa, q)) == ref


def test_over_bound_denominator_raises():
    tiny = Fraction(1, 3 ** 40)  # 3**40 > 2**62
    with pytest.raises(SizeLimitError):
        Distribution(1, [tiny, 1 - tiny])
    # each factor fits; their common denominator 3**40 does not
    half = Distribution(1, [Fraction(1, 3 ** 20), 1 - Fraction(1, 3 ** 20)])
    assert half.denominator == 3 ** 20
    with pytest.raises(SizeLimitError):
        JointDistribution.product([("A", half), ("B", half)])
    with pytest.raises(SizeLimitError):
        enumerate_worlds([half, half])
    with pytest.raises(SizeLimitError):
        excess_over_uniform([1 << 61, 1 << 61], [0, 0], 1)


def test_enumerate_worlds_counts_the_worlds_before_building_them(
        monkeypatch):
    # The product of the support sizes is checked against MAX_WORLDS
    # before any array is built: 16^7 = 2^28 worlds refuse at once.
    from extractomat import leakage
    from extractomat.sources import FlatSource
    flat = FlatSource(6, range(16)).to_distribution()
    with pytest.raises(SizeLimitError, match="268435456 worlds"):
        enumerate_worlds([flat] * 7)
    monkeypatch.setattr(leakage, "MAX_WORLDS", 16 ** 3)
    assert len(enumerate_worlds([flat] * 3)[1]) == 16 ** 3
    with pytest.raises(SizeLimitError, match="65536 worlds"):
        enumerate_worlds([flat] * 4)


# ----------------------------------------------------------------------
# dense row ids and the excess of per-world columns
# ----------------------------------------------------------------------

def _check_row_ids(cols):
    n = len(cols[0])
    ids, first = row_ids([np.asarray(c) for c in cols], n)
    naive = naive_dense_ids(zip(*(np.asarray(c).tolist() for c in cols)))
    assert ids.tolist() == naive
    assert first.tolist() == [naive.index(i) for i in range(max(naive) + 1)]


def test_row_ids_match_naive_dense_ids():
    rng = np.random.default_rng(60)
    for _ in range(60):
        n = int(rng.integers(2, 400))
        _check_row_ids([rng.integers(-1, int(rng.integers(1, 9)), size=n)
                        for _ in range(int(rng.integers(1, 5)))])


def test_row_ids_of_constant_columns_and_one_row():
    _check_row_ids([np.full(9, 3), np.full(9, -1)])
    _check_row_ids([[-1, -1, 4, -1, 4], [2, 2, 2, 2, 2]])
    _check_row_ids([[5]])
    _check_row_ids([[-1], [7]])


def test_row_ids_of_keys_wider_than_one_word():
    # 41 + 31 + 2 bits of value range: the rows no longer pack into one
    # 62-bit word and are numbered through the multi-word path
    rng = np.random.default_rng(61)
    for n in (2, 50, 600):
        _check_row_ids([rng.choice([0, 1 << 40], size=n),
                        rng.choice([-1, 7, 1 << 30], size=n),
                        rng.integers(0, 3, size=n)])


def test_row_ids_of_mixed_columns_match_naive_dense_ids():
    # Constant columns (packed to nothing), zero-minimum ones (packed as
    # they are), negative and wide ones, in runs that cross the 62-bit
    # word boundary at random places.
    rng = np.random.default_rng(63)
    kinds = [lambda n: np.full(n, int(rng.integers(-5, 6))),
             lambda n: rng.integers(0, 4, size=n),
             lambda n: rng.integers(-3, 2, size=n),
             lambda n: rng.choice([0, 1 << int(rng.integers(20, 41))],
                                  size=n) - int(rng.integers(0, 2)),
             lambda n: rng.integers(0, 1 << 31, size=n)]
    for _ in range(80):
        n = int(rng.integers(2, 300))
        _check_row_ids([kinds[k](n) for k in rng.integers(
            0, len(kinds), size=int(rng.integers(1, 9)))])


def _numbered_by(monkeypatch, cols, n):
    """``row_ids(cols, n)`` and whether it took the stable argsort."""
    sorts = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1)
                        or real(*a, **kw))
    out = row_ids(cols, n)
    monkeypatch.setattr(np, "argsort", real)
    return out, bool(sorts)


def _dense_and_sorted_cases(rng):
    """Column sets: negative minima, constant columns, keys wider than one
    62-bit word, one row, and random mixes."""
    yield [np.full(9, 3), np.full(9, -1)]
    yield [np.array([-1, -1, 4, -1, 4]), np.full(5, 2)]
    yield [np.array([5])]
    yield [np.array([-1]), np.array([7])]
    for n in (2, 50, 300):
        yield [rng.choice([0, 1 << 40], size=n),
               rng.choice([-1, 7, 1 << 30], size=n), rng.integers(0, 3, size=n)]
    for _ in range(40):
        n = int(rng.integers(2, 300))
        yield [rng.integers(int(rng.integers(-9, 1)), int(rng.integers(1, 40)),
                            size=n) for _ in range(int(rng.integers(1, 6)))]


@pytest.mark.parametrize("dense_rows", [0, 4, 1 << 12])
def test_dense_and_sorted_row_ids_match_naive_dense_ids(monkeypatch,
                                                        dense_rows):
    # DENSE_ROWS = 0 sends every key through the stable argsort, 4 is the
    # shipped cut, 2**12 addresses keys of up to 12 bits more than the rows
    monkeypatch.setattr(dist, "DENSE_ROWS", dense_rows)
    for cols in _dense_and_sorted_cases(np.random.default_rng(64)):
        _check_row_ids(cols)
        n = len(cols[0])
        (ids, first), sorted_ = _numbered_by(monkeypatch, cols, n)
        assert ids.dtype == first.dtype == np.intp
        # several words are renumbered below n by np.unique first
        bits = sum(int(c.max() - c.min()).bit_length() for c in cols)
        key_space = 2 * n if bits > 62 else 1 << bits
        assert sorted_ == (n > 1 and key_space > dense_rows * n)


@pytest.mark.parametrize("n, bits, dense", [(64, 8, True), (63, 8, False),
                                            (64, 9, False), (65, 8, True)])
def test_row_ids_cut_between_address_and_sort(monkeypatch, n, bits, dense):
    # A key space of 2**bits is addressed while it is at most 4 times the
    # rows: 256 keys over 64 rows sit at the cut, over 63 rows one past it
    rng = np.random.default_rng([n, bits])
    col = rng.integers(-7, (1 << bits) - 7, size=n)
    col[:2] = -7, (1 << bits) - 8  # the whole range: exactly `bits` bits
    cols = [col, np.full(n, 9)]
    _check_row_ids(cols)
    assert _numbered_by(monkeypatch, cols, n)[1] == (not dense)


def test_row_ids_and_column_excess_of_zero_rows():
    empty = np.zeros(0, dtype=np.int64)
    for cols in ([], [empty], [empty, empty - 3]):
        ids, first = row_ids(cols, 0)
        assert ids.dtype == first.dtype == np.intp
        assert ids.size == first.size == 0
    for rest in ([], [empty], [empty, empty]):
        got = column_excess(empty, empty, rest, 2)
        assert got == 0 and isinstance(got, int)
    assert column_excess([], [], [[]], 1) == 0


def _naive_column_excess(weights, z, rest, m):
    cells, groups = {}, {}
    for w, v, *r in zip(weights, z, *rest):
        cells[v, tuple(r)] = cells.get((v, tuple(r)), 0) + w
        groups[tuple(r)] = groups.get(tuple(r), 0) + w
    return sum(max(0, (1 << m) * w - groups[r]) for (_, r), w in cells.items())


def test_column_excess_matches_a_naive_dict_sum():
    rng = np.random.default_rng(62)
    for trial in range(50):
        m, n = trial % 5, int(rng.integers(2, 300))
        z = rng.integers(0, 1 << m, size=n)
        rest = [rng.integers(-1, int(rng.integers(1, 6)), size=n)
                for _ in range(int(rng.integers(1, 4)))]
        counts = rng.integers(1, 40, size=n)
        lists = (counts.tolist(), z.tolist(), [c.tolist() for c in rest])
        got = column_excess(counts, z, rest, m)
        assert isinstance(got, int) and got == _naive_column_excess(*lists, m)
        floats = counts / counts.sum()
        assert column_excess(floats, z, rest, m) == pytest.approx(
            _naive_column_excess(floats.tolist(), *lists[1:], m), abs=1e-12)


@pytest.mark.parametrize("dense_rows", [0, 1 << 12])
def test_dense_and_unique_column_excess_match_a_naive_dict_sum(monkeypatch,
                                                               dense_rows):
    # every cell of a rest addressed (2**12 covers 2**m * rests here), or
    # only the cells that occur numbered by np.unique (0)
    monkeypatch.setattr(dist, "DENSE_ROWS", dense_rows)
    rng = np.random.default_rng(65)
    for trial in range(40):
        m, n = trial % 5, int(rng.integers(1, 300))
        z = rng.integers(0, 1 << m, size=n)
        rest = [rng.integers(-3, int(rng.integers(1, 9)), size=n)
                for _ in range(int(rng.integers(0, 4)))]
        counts = rng.integers(1, 1 << 40, size=n)
        lists = (counts.tolist(), z.tolist(), [c.tolist() for c in rest])
        got = column_excess(counts, z, rest, m)
        assert isinstance(got, int) and got == _naive_column_excess(*lists, m)


def test_column_excess_refuses_weights_past_the_bound():
    with pytest.raises(SizeLimitError):
        column_excess(np.array([1 << 61, 1 << 61]), np.array([0, 1]),
                      [np.array([0, 0])], 1)


def test_from_atoms_refuses_malformed_atoms():
    parts = [("X", 1), ("E", 1)]
    for atom, match in (((2, 0), "one integer per part"),
                        ((0, -1), "one integer per part"),
                        ((0,), "one integer per part"),
                        ((0, 0, 0), "one integer per part"),
                        (0, "one integer per part"),
                        ((0.5, 0), "must be an integer")):
        with pytest.raises(InvalidInputError, match=match):
            JointDistribution.from_atoms(parts, {atom: Fraction(1)})
    # numpy integers are integers; the last part varies fastest
    j = JointDistribution.from_atoms([("X", 2), ("E", 1)],
                                     {(np.int64(2), 1): Fraction(1)})
    assert j.mass == (0,) * 5 + (1, 0, 0)


def test_xor_project_refuses_fractional_positions():
    j = JointDistribution.from_atoms([("Z", 2)], {(0,): Fraction(1)})
    with pytest.raises(InvalidInputError, match="must be an integer"):
        xor_project(j, "Z", {1.5})


def test_part_map_outputs_must_be_integers():
    j = JointDistribution.product([("Z", Distribution.uniform(2))])
    for fn in (lambda v: 0.5, lambda v: 1.7, lambda v: "1"):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            j.apply_to_part("Z", fn, 1)
    half = (Fraction(1, 2), Fraction(1, 2))
    for fn in (lambda v: v & 1 == 1, lambda v: np.int64(v >> 1)):
        assert j.apply_to_part("Z", fn, 1).mass == half
