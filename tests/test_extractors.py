import numpy as np
import pytest
from hypothesis import given, strategies as st

from extractomat.bits import BitString
from extractomat.errors import InvalidInputError
from extractomat.extractors import (deor_extract, deor_handle, ip_extract,
                                    ip_handle, strong_projection,
                                    table_handle, toeplitz_extract,
                                    toeplitz_handle)


def B(s):
    return BitString.from_str(s)


# ----------------------------------------------------------------------
# inner product
# ----------------------------------------------------------------------

def test_ip_direct():
    assert ip_extract(B("1010"), B("1100")).value == 1


def test_ip_zero_vector():
    for x in range(16):
        assert ip_extract(BitString(4, x), B("0000")).value == 0


def test_ip_width_mismatch():
    with pytest.raises(InvalidInputError):
        ip_extract(B("101"), B("1000"))


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_ip_is_bilinear(x, y1, y2):
    n = 8
    lhs = ip_extract(BitString(n, x), BitString(n, y1 ^ y2)).value
    rhs = (ip_extract(BitString(n, x), BitString(n, y1)).value
           ^ ip_extract(BitString(n, x), BitString(n, y2)).value)
    assert lhs == rhs


# ----------------------------------------------------------------------
# shifted inner product family
# ----------------------------------------------------------------------

def test_deor_worked_example():
    # bit0 = <1010,1100> = 1; bit1 = <1010, rotl(1100)=1001> = 1
    assert str(deor_extract(B("1010"), B("1100"), 2)) == "11"


def test_deor_m1_equals_ip_exhaustively():
    for x in range(16):
        for y in range(16):
            bx, by = BitString(4, x), BitString(4, y)
            assert deor_extract(bx, by, 1) == ip_extract(bx, by)


def test_deor_m_bounds():
    with pytest.raises(InvalidInputError):
        deor_extract(B("101"), B("110"), 4)


def test_deor_handle_matches_function():
    h = deor_handle(4, 3)
    for x in range(16):
        for y in range(16):
            assert h.eval_int(x, y) == deor_extract(BitString(4, x),
                                                    BitString(4, y), 3).value


def _assert_table_matches(h, scalar):
    n1, n2 = h.input_widths
    t = h.table()
    for idx in range(1 << (n1 + n2)):
        x, y = BitString(n1, idx >> n2), BitString(n2, idx & ((1 << n2) - 1))
        assert int(t[idx]) == scalar(x, y).value, (h.name, idx)


def test_vectorized_tables_match_scalar():
    for n in range(1, 5):
        _assert_table_matches(ip_handle(n), ip_extract)
        for m in range(1, 4):
            _assert_table_matches(
                toeplitz_handle(n, m),
                lambda x, s, m=m: toeplitz_extract(x, s, m))
    for n in (3, 4):
        for m in range(1, n + 1):
            _assert_table_matches(
                deor_handle(n, m), lambda x, y, m=m: deor_extract(x, y, m))


# ----------------------------------------------------------------------
# Toeplitz hashing
# ----------------------------------------------------------------------

def test_toeplitz_zero_seed_kills_everything():
    for x in range(16):
        z = toeplitz_extract(BitString(4, x), BitString(5, 0), 2)
        assert z.value == 0


def test_toeplitz_1x1():
    for s in (0, 1):
        for x in (0, 1):
            assert toeplitz_extract(BitString(1, x), BitString(1, s), 1).value \
                == s * x


def test_toeplitz_seed_width_enforced():
    with pytest.raises(InvalidInputError):
        toeplitz_extract(B("1010"), B("1010"), 2)  # needs n+m-1 = 5


def test_toeplitz_matrix_structure():
    # T[i, j] = T[i-1, j-1]: check via explicit matrix reconstruction
    n, m = 4, 3
    seed = BitString(n + m - 1, 0b110101)
    rows = []
    for x_bit in range(n):
        col = BitString(n, 1 << (n - 1 - x_bit))
        z = toeplitz_extract(col, seed, m)
        rows.append([z.bit(i) for i in range(1, m + 1)])
    T = np.array(rows).T  # m x n
    for i in range(1, m):
        for j in range(1, n):
            assert T[i, j] == T[i - 1, j - 1]


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 31))
def test_toeplitz_linearity(x1, x2, seed):
    s = BitString(5, seed)
    lhs = toeplitz_extract(BitString(4, x1 ^ x2), s, 2).value
    rhs = (toeplitz_extract(BitString(4, x1), s, 2).value
           ^ toeplitz_extract(BitString(4, x2), s, 2).value)
    assert lhs == rhs


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
        h.evaluate(B("101"))
    with pytest.raises(InvalidInputError):
        h.evaluate(B("1010"), B("1010"))
    with pytest.raises(InvalidInputError):
        h.eval_int(8, 0)


def test_strong_projection_identity_on_one_bit():
    h = ip_handle(3)
    p = strong_projection(h, {1})
    assert np.array_equal(p.table(), h.table())


def test_strong_projection_deor_full_subset():
    h = deor_handle(4, 2)
    p = strong_projection(h, {1, 2})
    for x in range(16):
        for y in range(16):
            bx, by = BitString(4, x), BitString(4, y)
            expect = (ip_extract(bx, by).value
                      ^ ip_extract(bx, by.rotate_left(1)).value)
            assert p.eval_int(x, y) == expect


def test_strong_projection_bounds():
    h = deor_handle(4, 2)
    with pytest.raises(InvalidInputError):
        strong_projection(h, set())
    with pytest.raises(InvalidInputError):
        strong_projection(h, {3})


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
