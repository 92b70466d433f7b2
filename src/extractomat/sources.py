"""Structured source classes: flat, block, and somewhere-random.

Flat sources are the extreme points of the min-entropy-k class, so every
worst-case enumeration in the oracle runs over them.  Block-source and
somewhere-random checks are exact: conditioning is only ever performed on
prefixes of positive probability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dist import (Distribution, JointDistribution, _check_width, _support,
                   neg_log2, ratio)
from .errors import InvalidInputError


class FlatSource:
    """A uniform distribution on a support of size exactly ``2**k``.

    Parameters
    ----------
    width : int
        Bit width of the outcome space, 1..12 as for a Distribution.
    support : iterable of int
        The support set, in ``range(2**width)``; its size must be a power
        of two.
    """

    __slots__ = ("width", "support", "k")

    def __init__(self, width: int, support):
        width = _check_width(width)
        support = tuple(_support(width, support))
        k = len(support).bit_length() - 1
        if (1 << k) != len(support):
            raise InvalidInputError(
                f"support size {len(support)} is not a power of two")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "k", k)

    def __setattr__(self, *_):
        raise AttributeError("FlatSource is immutable")

    def to_distribution(self) -> Distribution:
        return Distribution.flat(self.width, self.support)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """``size`` int64 draws, ``support[floor(u K)]`` for ``u =
        rng.random(size)``: the values and stream position of
        ``to_distribution().sample(rng, size)``, whose ``Generator.choice``
        takes one ``random()`` per draw and the first outcome whose cdf
        exceeds it, the cdf stepping by exactly 1/K at the support points."""
        u = rng.random(size)
        return np.asarray(self.support, dtype=np.int64)[
            np.floor(u * len(self.support)).astype(np.int64)]

    @classmethod
    def random(cls, width: int, k: int, rng: np.random.Generator) -> "FlatSource":
        support = rng.choice(1 << width, size=1 << k, replace=False)
        return cls(width, (int(s) for s in support))

    @classmethod
    def enumerate_all(cls, width: int, k: int):
        """All flat k-sources of the given width, in lexicographic order."""
        for support in itertools.combinations(range(1 << width), 1 << k):
            yield cls(width, support)

    def __repr__(self):
        return f"FlatSource(width={self.width}, k={self.k})"


@dataclass(frozen=True)
class BlockSourceSpec:
    """Widths and per-block min-entropy thresholds of a block source."""

    block_widths: tuple
    thresholds: tuple

    def __post_init__(self):
        if len(self.block_widths) != len(self.thresholds):
            raise InvalidInputError("one threshold per block required")
        if any(w < 1 for w in self.block_widths):
            raise InvalidInputError("block widths must be positive")


@dataclass
class BlockSourceVerdict:
    """Outcome of a block-source check.

    ``violating_mass[i]`` is the total probability of prefixes for which
    block ``i`` misses its threshold; the overall verdict is true iff all
    of these are zero.  ``worst`` identifies the minimizing prefix as
    ``(block_index, prefix_values, conditional_min_entropy)``.
    """

    ok: bool
    worst: tuple | None
    violating_mass: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_block_source(j: JointDistribution, spec: BlockSourceSpec) -> BlockSourceVerdict:
    """Check a joint against a block-source spec, exactly.

    Every positive-probability prefix assignment is conditioned on; zero
    probability prefixes are vacuous.  The verdict carries the worst
    offending prefix and, per block, the probability mass of prefixes
    that fail the threshold.
    """
    widths = [w for _, w in j.parts]
    if tuple(widths) != tuple(spec.block_widths):
        raise InvalidInputError(
            f"joint widths {tuple(widths)} do not match spec {spec.block_widths}")
    labels = list(j.labels())
    ok = True
    worst = None
    worst_gap = None
    violating_mass = []
    for i in range(len(labels)):
        # One row per prefix value (a single row for the first block):
        # H(block | prefix) = -log2(max / total) of the row.
        sub = j.marginal(labels[:i + 1])
        den = sub.denominator
        rows = sub.numerators.reshape(-1, 1 << widths[i])
        totals, maxima = rows.sum(axis=1), rows.max(axis=1)
        failing = np.zeros(len(totals), dtype=bool)
        for pre in np.flatnonzero(totals).tolist():
            h = neg_log2(maxima[pre].item(), den) \
                - neg_log2(totals[pre].item(), den)
            if h < spec.thresholds[i] - 1e-9:
                failing[pre] = True
                gap = spec.thresholds[i] - h
                if worst_gap is None or gap > worst_gap:
                    worst_gap = gap
                    worst = (i, _split_prefix(pre, widths[:i]), h)
        ok = ok and not failing.any()
        violating_mass.append(ratio(totals[failing].sum(), den))
    return BlockSourceVerdict(ok=ok, worst=worst, violating_mass=violating_mass)


def _split_prefix(value: int, widths):
    out = []
    for w in reversed(widths):
        out.append(value & ((1 << w) - 1))
        value >>= w
    return tuple(reversed(out))


@dataclass(frozen=True)
class SomewhereRandomSpec:
    """Shape of an elementary somewhere-random source: ``rows`` rows of
    ``row_width`` bits, at least one of which is exactly uniform."""

    rows: int
    row_width: int

    def check(self, j: JointDistribution) -> tuple:
        """Verdict plus the index of the first uniform row, if any.

        Only the elementary case is decided: some row's marginal must be
        exactly uniform.  Convex combinations of elementary sources are
        out of desk-scale reach and return ``(False, None)`` unless a row
        is itself uniform.
        """
        if len(j.parts) != self.rows:
            raise InvalidInputError(f"expected {self.rows} rows")
        if any(w != self.row_width for _, w in j.parts):
            raise InvalidInputError(f"rows must be {self.row_width} bits wide")
        for i, (lbl, _) in enumerate(j.parts):
            d = j.marginal_dist(lbl)
            # uniform iff every numerator is 2**-width of the denominator
            if np.all(d.numerators << d.width == d.denominator):
                return True, i
        return False, None
