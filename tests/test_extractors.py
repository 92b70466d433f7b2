import numpy as np
import pytest
from hypothesis import given, strategies as st

from extractomat.errors import InvalidInputError
from extractomat.extractors import (deor_handle, ip_handle, strong_projection,
                                    table_handle, toeplitz_handle)
from helpers_naive import naive_deor, naive_ip, naive_toeplitz


# ----------------------------------------------------------------------
# inner product
# ----------------------------------------------------------------------

def test_ip_direct():
    assert ip_handle(4).eval_int(0b1010, 0b1100) == 1


def test_ip_zero_vector():
    h = ip_handle(4)
    for x in range(16):
        assert h.eval_int(x, 0) == 0


def test_ip_width_mismatch():
    with pytest.raises(InvalidInputError):
        ip_handle(3).eval_int(0b101, 0b1000)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_ip_is_bilinear(x, y1, y2):
    h = ip_handle(8)
    assert h.eval_int(x, y1 ^ y2) == h.eval_int(x, y1) ^ h.eval_int(x, y2)


# ----------------------------------------------------------------------
# shifted inner product family
# ----------------------------------------------------------------------

def test_deor_worked_example():
    # bit0 = <1010,1100> = 1; bit1 = <1010, rotl(1100)=1001> = 1
    assert deor_handle(4, 2).eval_int(0b1010, 0b1100) == 0b11


def test_deor_m1_equals_ip_exhaustively():
    assert np.array_equal(deor_handle(4, 1).table(), ip_handle(4).table())


def test_deor_m_bounds():
    with pytest.raises(InvalidInputError):
        deor_handle(3, 4)
    with pytest.raises(InvalidInputError):
        deor_handle(3, 0)


def test_deor_handle_matches_function():
    h = deor_handle(4, 3)
    for x in range(16):
        for y in range(16):
            assert h.eval_int(x, y) == naive_deor(x, y, 4, 3)


def _assert_table_matches(h, scalar):
    n1, n2 = h.input_widths
    t = h.table()
    for idx in range(1 << (n1 + n2)):
        x, y = idx >> n2, idx & ((1 << n2) - 1)
        assert int(t[idx]) == scalar(x, y), (h.name, idx)


def test_vectorized_tables_match_scalar():
    for n in range(1, 5):
        _assert_table_matches(ip_handle(n), naive_ip)
        for m in range(1, 4):
            _assert_table_matches(
                toeplitz_handle(n, m),
                lambda x, s, n=n, m=m: naive_toeplitz(x, s, n, m))
    for n in (3, 4):
        for m in range(1, n + 1):
            _assert_table_matches(
                deor_handle(n, m), lambda x, y, n=n, m=m: naive_deor(x, y, n, m))


# ----------------------------------------------------------------------
# Toeplitz hashing
# ----------------------------------------------------------------------

def test_toeplitz_zero_seed_kills_everything():
    h = toeplitz_handle(4, 2)
    for x in range(16):
        assert h.eval_int(x, 0) == 0


def test_toeplitz_1x1():
    h = toeplitz_handle(1, 1)
    for s in (0, 1):
        for x in (0, 1):
            assert h.eval_int(x, s) == s * x


def test_toeplitz_seed_width_enforced():
    h = toeplitz_handle(4, 2)
    assert h.input_widths == (4, 5)  # the seed has n+m-1 bits
    with pytest.raises(InvalidInputError):
        h.eval_int(0b1010, 1 << 5)


def test_toeplitz_matrix_structure():
    # T[i, j] = T[i-1, j-1]: check via explicit matrix reconstruction
    n, m = 4, 3
    h = toeplitz_handle(n, m)
    seed = 0b110101
    cols = [h.eval_int(1 << (n - 1 - j), seed) for j in range(n)]
    T = np.array([[(z >> (m - 1 - i)) & 1 for z in cols] for i in range(m)])
    for i in range(1, m):
        for j in range(1, n):
            assert T[i, j] == T[i - 1, j - 1]


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 31))
def test_toeplitz_linearity(x1, x2, seed):
    h = toeplitz_handle(4, 2)
    assert (h.eval_int(x1 ^ x2, seed)
            == h.eval_int(x1, seed) ^ h.eval_int(x2, seed))


# ----------------------------------------------------------------------
# handles and projections
# ----------------------------------------------------------------------

def test_handle_is_pure_and_deterministic():
    h = deor_handle(3, 2)
    t1 = h.table()
    t2 = deor_handle(3, 2).table()
    assert np.array_equal(t1, t2)


def test_handle_validates_inputs():
    h = ip_handle(3)
    with pytest.raises(InvalidInputError):
        h.eval_int(0b101)
    with pytest.raises(InvalidInputError):
        h.eval_int(0b101, 0b101, 0b101)
    with pytest.raises(InvalidInputError):
        h.eval_int(8, 0)
    with pytest.raises(InvalidInputError):
        h.eval_int(-1, 0)
    for bad in (1.5, "1", None, 1.0):
        with pytest.raises(InvalidInputError):
            h.eval_int(bad, 0)
    assert h.eval_int(np.int64(5), np.uint8(2)) == 0
    assert h.eval_int(np.int64(5), np.uint8(3)) == 1


def test_handle_validates_widths():
    t = np.zeros(16, dtype=np.uint32)
    for widths, m in (((2.5, 2), 1), ((-1, 5), 1), (("2", 2), 1),
                      ((2, 2), 1.5), ((2, 2), None)):
        with pytest.raises(InvalidInputError):
            table_handle("t", "2-source", widths, m, t)
    for bad in (2.0, -1, "2"):
        with pytest.raises(InvalidInputError):
            ip_handle(bad)
    for n, m in ((4.0, 2), (4, 2.0), (-1, 1)):
        with pytest.raises(InvalidInputError):
            deor_handle(n, m)
        with pytest.raises(InvalidInputError):
            toeplitz_handle(n, m)
    h = table_handle("t", "2-source", (np.int64(2), np.uint8(2)),
                     np.int32(1), t)
    assert h.input_widths == (2, 2) and h.m == 1
    assert type(h.m) is int and all(type(w) is int for w in h.input_widths)
    assert np.array_equal(ip_handle(np.int64(3)).table(), ip_handle(3).table())


def test_handle_refuses_fractional_strong_indices():
    # 0.7 used to be truncated to a declared strong index 0
    t = np.zeros(16, dtype=np.uint32)
    for bad in (0.7, 1.5, 1.0, "1"):
        with pytest.raises(InvalidInputError, match="strong index"):
            table_handle("t", "2-source", (2, 2), 1, t, strong=(bad,))
    h = table_handle("t", "2-source", (2, 2), 1, t, strong=(np.int64(1),))
    assert h.strong == {1} and all(type(i) is int for i in h.strong)


def test_handle_refuses_non_finite_min_entropies():
    t = np.zeros(16, dtype=np.uint32)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidInputError, match="finite"):
            table_handle("t", "2-source", (2, 2), 1, t, k_profile=(bad, 2))
    h = table_handle("t", "2-source", (2, 2), 1, t, k_profile=(np.int8(1), 2))
    assert h.k_profile == (1.0, 2.0)


def test_strong_projection_identity_on_one_bit():
    h = ip_handle(3)
    p = strong_projection(h, {1})
    assert np.array_equal(p.table(), h.table())


def test_strong_projection_deor_full_subset():
    h = deor_handle(4, 2)
    p = strong_projection(h, {1, 2})
    for x in range(16):
        for y in range(16):
            rotl = ((y << 1) | (y >> 3)) & 0xF
            assert p.eval_int(x, y) == naive_ip(x, y) ^ naive_ip(x, rotl)


def test_strong_projection_bounds():
    h = deor_handle(4, 2)
    with pytest.raises(InvalidInputError):
        strong_projection(h, set())
    with pytest.raises(InvalidInputError):
        strong_projection(h, {3})


def test_strong_projection_refuses_fractional_positions():
    h = deor_handle(4, 2)
    for bad in (1.5, 0.7, 2.0):
        with pytest.raises(InvalidInputError, match="projection position"):
            strong_projection(h, {bad})
    assert np.array_equal(strong_projection(h, {np.int64(2)}).table(),
                          strong_projection(h, {2}).table())


def test_strong_projection_inherits_declared_parameters():
    h = deor_handle(4, 2, k1=3, k2=3)
    p = strong_projection(h, {2})
    assert p.k_profile == h.k_profile
    assert p.strong == h.strong
    assert p.m == 1


def test_table_handle_roundtrip():
    t = np.arange(16, dtype=np.uint32) & 3
    h = table_handle("t", "2-source", (2, 2), 2, t)
    assert h.eval_int(3, 3) == 15 & 3
    with pytest.raises(InvalidInputError):
        table_handle("bad", "2-source", (2, 2), 1, t)  # entries exceed m
