"""Extractor primitives and the handle type every other layer consumes.

Explicit constructions here are the GF(2) inner product, its cyclic-shift
multi-bit family, and Toeplitz hashing.  Everything else (the slots that
stand in for heavyweight research constructions) arrives as a certified
random table built in :mod:`extractomat.certify`.

A handle has one evaluation path, its truth table; the explicit handles
build theirs with numpy, and ``eval_int`` reads one entry of it.

Conventions: input 1 occupies the most significant bits of a composite
truth-table index; output bit ``j`` of a multi-bit extractor sits at the
``j``-th most significant position (``j`` starting at 0 where a
construction is indexed from 0, at 1 where subsets of output bits are
named).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInputError, SizeLimitError, _integer


def index_grid(*widths: int) -> tuple:
    """Broadcastable input values of a truth table, one axis per width."""
    return np.ix_(*(np.arange(1 << w, dtype=np.uint32) for w in widths))


def parity_u32(arr: np.ndarray) -> np.ndarray:
    """Bitwise parity of each element of a uint array, as uint8."""
    return np.bitwise_count(arr) & 1


# ----------------------------------------------------------------------
# Handles
# ----------------------------------------------------------------------

KINDS = ("seeded", "2-source", "t-source")


class ExtractorHandle:
    """A named extractor instance with declared parameters.

    Immutable by convention.  The truth table over composite input
    indices is the handle's only evaluation path and the canonical object
    the worst-case oracle certifies: ``table()`` materializes it once,
    and ``eval_int`` reads one entry from it.

    Parameters
    ----------
    name : str
    kind : str
        One of ``"seeded"``, ``"2-source"``, ``"t-source"``.  A seeded
        handle's second input is the seed.
    input_widths : tuple of int
        Widths of the inputs, each a non-negative integer.
    m : int
        Output width, a positive integer.
    k_profile : tuple of float
        Declared min-entropy per input.
    eps : float
        Declared error, in (0, 1].
    strong : iterable of int
        0-based input indices the handle is declared strong for.
    provenance : str
        ``"explicit"``, ``"certified-table"`` or ``"composite"``.
    table : array or callable
        The truth table, or a zero-argument function that builds it on
        first use.
    """

    def __init__(self, name: str, kind: str, input_widths, m: int,
                 k_profile, eps: float, strong: Iterable[int] = (),
                 provenance: str = "explicit", record=None,
                 table: np.ndarray | Callable[[], np.ndarray] | None = None):
        if kind not in KINDS:
            raise InvalidInputError(f"kind must be one of {KINDS}")
        input_widths = tuple(_integer(w, "an input width")
                             for w in input_widths)
        if min(input_widths, default=0) < 0:
            raise InvalidInputError(
                f"input widths must be non-negative, got {input_widths}")
        if kind == "seeded" and len(input_widths) != 2:
            raise InvalidInputError("seeded handles take (source, seed)")
        if kind == "2-source" and len(input_widths) != 2:
            raise InvalidInputError("2-source handles take two inputs")
        total = sum(input_widths)
        if total > 24:
            raise SizeLimitError(f"total input width {total} exceeds 24")
        m = _integer(m, "the output width")
        if m < 1:
            raise InvalidInputError("output width must be at least 1")
        if not 0 < eps <= 1:
            raise InvalidInputError("declared error must lie in (0, 1]")
        strong = frozenset(_integer(i, "a strong index") for i in strong)
        if any(i < 0 or i >= len(input_widths) for i in strong):
            raise InvalidInputError("strong indices must name inputs")
        if table is None:
            raise InvalidInputError("a handle needs a truth table")
        self.name = name
        self.kind = kind
        self.input_widths = input_widths
        self.m = m
        self.k_profile = tuple(float(k) for k in k_profile)
        if not all(map(math.isfinite, self.k_profile)):
            raise InvalidInputError(f"k_profile must be finite, got {k_profile}")
        self.eps = float(eps)
        self.strong = strong
        self.provenance = provenance
        self.record = record
        self._build = table if callable(table) else None
        self._table = None if callable(table) else self._checked(table)

    def _checked(self, table) -> np.ndarray:
        table = np.asarray(table, dtype=np.uint32)
        if table.shape != (1 << self.total_input_width,):
            raise InvalidInputError("table length must be 2**total_width")
        if table.size and int(table.max()) >= (1 << self.m):
            raise InvalidInputError("table entry exceeds output width")
        return table

    # -- evaluation ----------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.input_widths)

    @property
    def total_input_width(self) -> int:
        return sum(self.input_widths)

    def index(self, *xs: int) -> int:
        idx = 0
        for v, w in zip(xs, self.input_widths):
            idx = (idx << w) | v
        return idx

    def eval_int(self, *xs: int) -> int:
        if len(xs) != self.arity:
            raise InvalidInputError(f"{self.name} takes {self.arity} inputs")
        xs = [_integer(v, "an input") for v in xs]
        for v, w in zip(xs, self.input_widths):
            if not 0 <= v < (1 << w):
                raise InvalidInputError(f"input {v} exceeds width {w}")
        table = self._table if self._table is not None else self.table()
        return int(table[self.index(*xs)])

    def gather(self, *xs) -> np.ndarray:
        """The table at every point of the broadcast grid of input values
        ``xs``: one array per input, all of one shape for a batch."""
        return self.table().reshape([1 << w for w in self.input_widths])[xs]

    def table(self) -> np.ndarray:
        """The full truth table over composite input indices (cached)."""
        if self._table is None:
            t = self._checked(self._build())
            t.setflags(write=False)
            self._table, self._build = t, None
        return self._table

    def __repr__(self):
        return (f"ExtractorHandle({self.name!r}, {self.kind}, "
                f"n={self.input_widths}, m={self.m}, eps={self.eps:.4g})")


def strong_projection(h: ExtractorHandle, subset) -> ExtractorHandle:
    """One-bit handle computing the XOR of the output bits in ``subset``.

    ``subset`` holds 1-based output-bit positions, most significant
    first.  The projection inherits the parent's declared parameters and
    strongness set.
    """
    subset = sorted(set(_integer(i, "a projection position") for i in subset))
    if not subset:
        raise InvalidInputError("projection subset must be non-empty")
    if subset[0] < 1 or subset[-1] > h.m:
        raise InvalidInputError(
            f"projection subset must lie within 1..{h.m}")
    mask = 0
    for i in subset:
        mask |= 1 << (h.m - i)
    parent_table = h.table()
    table = parity_u32(parent_table & np.uint32(mask)).astype(np.uint32)
    label = ",".join(str(i) for i in subset)
    return ExtractorHandle(
        f"{h.name}[xor {label}]", h.kind, h.input_widths, 1,
        h.k_profile, h.eps, h.strong, provenance=h.provenance,
        record=h.record, table=table)


# ----------------------------------------------------------------------
# Handle builders for the explicit constructions
# ----------------------------------------------------------------------

def deor_declared_eps(n: int, k1: float, k2: float, m: int) -> float:
    """Shifted-inner-product error bound 2^-((k1+k2+1-n-m)/2), capped at 1."""
    return min(1.0, 2.0 ** (-(k1 + k2 + 1 - n - m) / 2.0))


def lhl_declared_eps(k: float, m: int) -> float:
    """Leftover-hash error bound 0.5 * 2^((m-k)/2), capped at 1."""
    return min(1.0, 0.5 * 2.0 ** ((m - k) / 2.0))


def ip_handle(n: int, k1: float | None = None, k2: float | None = None) -> ExtractorHandle:
    n = _integer(n, "the input width")
    k1 = n if k1 is None else k1
    k2 = n if k2 is None else k2

    def build() -> np.ndarray:
        x, y = index_grid(n, n)
        return parity_u32(x & y).ravel()

    return ExtractorHandle(
        f"ip[n={n}]", "2-source", (n, n), 1, (k1, k2),
        deor_declared_eps(n, k1, k2, 1), strong=(0, 1),
        provenance="explicit", table=build)


def deor_handle(n: int, m: int, k1: float | None = None,
                k2: float | None = None) -> ExtractorHandle:
    """Shifted-inner-product family: output bit j is ``<x, rotl(y, j)>``.

    The cyclic-shift matrices realize the multi-bit two-source family at
    desk scale; whether a given instantiation is strong is decided by the
    oracle per table, never assumed.
    """
    n, m = _integer(n, "the input width"), _integer(m, "the output width")
    k1 = n if k1 is None else k1
    k2 = n if k2 is None else k2
    if not 1 <= m <= n:
        raise InvalidInputError(f"output width m={m} must be in 1..{n}")
    mask = (1 << n) - 1

    def build() -> np.ndarray:
        x, y = index_grid(n, n)
        out = np.zeros((1 << n, 1 << n), dtype=np.uint32)
        for j in range(m):
            rot = ((y << j) | (y >> (n - j))) & mask if j else y
            out = (out << 1) | parity_u32(x & rot)
        return out.ravel()

    return ExtractorHandle(
        f"deor[n={n},m={m}]", "2-source", (n, n), m, (k1, k2),
        deor_declared_eps(n, k1, k2, m), strong=(0, 1),
        provenance="explicit", table=build)


def _toeplitz_rows(n: int, m: int, seed: np.ndarray) -> list:
    """Rows of the Toeplitz matrix of each entry of the uint array
    ``seed``: the first row is seed bits 1..n, the first column seed bit
    1 followed by seed bits n+1..n+m-1."""
    first_row = (seed >> (m - 1)) & ((1 << n) - 1)
    rows = [first_row]
    for i in range(1, m):
        col_bit = (seed >> (m - 1 - i)) & 1
        rows.append((rows[-1] >> 1) | (col_bit << (n - 1)))
    return rows


def toeplitz_handle(n: int, m: int, k: float | None = None) -> ExtractorHandle:
    n, m = _integer(n, "the input width"), _integer(m, "the output width")
    k = n if k is None else k
    d = n + m - 1

    def build() -> np.ndarray:
        x, seed = index_grid(n, d)
        out = np.zeros((1 << n, 1 << d), dtype=np.uint32)
        for r in _toeplitz_rows(n, m, seed):
            out = (out << 1) | parity_u32(x & r)
        return out.ravel()

    return ExtractorHandle(
        f"toeplitz[n={n},m={m}]", "seeded", (n, d), m, (k, float(d)),
        lhl_declared_eps(k, m), strong=(1,),
        provenance="explicit", table=build)


def table_handle(name: str, kind: str, input_widths, m: int, table,
                 k_profile=None, eps: float = 1.0, strong=(),
                 provenance: str = "certified-table",
                 record=None) -> ExtractorHandle:
    input_widths = tuple(input_widths)
    if k_profile is None:
        k_profile = input_widths
    return ExtractorHandle(name, kind, input_widths, m, k_profile, eps,
                           strong, provenance, record, table=table)
