"""Classical side-information model: shared randomness plus per-source leaks.

An adversary prepares a shared classical register ``A`` (split into one
slice per source), hands slice ``A_i`` to the holder of source ``X_i``,
and receives back a deterministic leak ``E_i = f_i(X_i, A_i)``.  The
quality of source ``i`` is measured at the imaginary step right after its
own leak and before anybody else's: the conditional min-entropy of
``X_i`` given ``(E_i, A_{-i})``.

Randomized leaking is modelled by widening the shared register; that
keeps every joint exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dist import (MAX_WIDTH, Distribution, JointDistribution,
                   check_denominator, neg_log2, row_ids)
from .errors import InvalidInputError, SizeLimitError, _integer

MAX_WORLDS = 1 << 24  # the largest product of support sizes enumerated


@dataclass(frozen=True)
class LeakageScenario:
    """Per-source deterministic leakage maps over a shared register.

    Parameters
    ----------
    source_widths : tuple of int
        Bit widths of the sources ``X_1..X_t``.
    shared_width : int
        Width of the shared register ``A``; 0 means no shared randomness.
    slices : tuple of (offset, width)
        Per-source slice ``A_i`` of the shared register (offset of the
        most significant bit, 0-based).  Slices may overlap, which models
        identical copies handed to several sources.
    leak_maps : tuple
        Per-source ``f(x_i, a_i) -> e_i`` callables, or ``None`` for a
        trivial (empty) leak.
    e_widths : tuple of int
        Declared output width of each leak; 0 for trivial leaks.
    model : str
        ``"OA"`` (at most one non-trivial leak) or ``"GE"``.
    """

    source_widths: tuple
    shared_width: int = 0
    slices: tuple = ()
    leak_maps: tuple = ()
    e_widths: tuple = ()
    model: str = "GE"

    def __post_init__(self):
        t = len(self.source_widths)
        if not self.slices:
            object.__setattr__(self, "slices", _default_slices(
                t, self.shared_width))
        if not self.leak_maps:
            object.__setattr__(self, "leak_maps", (None,) * t)
        if not self.e_widths:
            object.__setattr__(self, "e_widths", (0,) * t)
        if not (len(self.slices) == len(self.leak_maps)
                == len(self.e_widths) == t):
            raise InvalidInputError("per-source fields must have equal length")
        if min(self.shared_width, *self.source_widths, *self.e_widths,
               *(w for _, w in self.slices)) < 0:
            raise InvalidInputError(
                f"widths must be >= 0: sources {self.source_widths}, shared "
                f"{self.shared_width}, slices {self.slices}, leaks {self.e_widths}")
        for off, w in self.slices:
            if off < 0 or off + w > self.shared_width:
                raise InvalidInputError("slice exceeds shared register")
        nontrivial = sum(1 for i in range(t)
                         if self.leak_maps[i] is not None and self.e_widths[i] > 0)
        if self.model == "OA" and nontrivial > 1:
            raise InvalidInputError(
                "OA model allows leakage from only one source")
        if self.model not in ("OA", "GE"):
            raise InvalidInputError("model must be OA or GE")

    @property
    def t(self) -> int:
        return len(self.source_widths)

    @classmethod
    def trivial(cls, source_widths) -> "LeakageScenario":
        return cls(tuple(source_widths), model="GE")

    @classmethod
    def oa(cls, source_widths, index: int, leak_map: Callable, e_width: int,
           shared_width: int = 0, slices=()) -> "LeakageScenario":
        """One-sided scenario leaking only from source ``index`` (0-based)."""
        t = len(source_widths)
        if _integer(index, "a leaking source") not in range(t):
            raise InvalidInputError(f"a leaking source is one of the {t} "
                                    f"sources 0 ... {t - 1}, not {index}")
        maps, ews = [None] * t, [0] * t
        maps[index], ews[index] = leak_map, e_width
        return cls(tuple(source_widths), shared_width, tuple(slices),
                   tuple(maps), tuple(ews), model="OA")

    def slice_value(self, a: int, i: int) -> int:
        off, w = self.slices[i]
        return (a >> (self.shared_width - (off + w))) & ((1 << w) - 1)

    def complement_value(self, a: int, i: int) -> tuple:
        """Value and width of ``A_{-i}``: the register with slice i removed."""
        off, w = self.slices[i]
        high_w = off
        low_w = self.shared_width - (off + w)
        high = a >> (self.shared_width - high_w) if high_w else 0
        low = a & ((1 << low_w) - 1) if low_w else 0
        return (high << low_w) | low, high_w + low_w

    @property
    def leaky(self) -> tuple:
        """Indices of the sources whose leak has a non-zero width."""
        return tuple(i for i in range(self.t) if self.e_widths[i] > 0)

    def leak_columns(self, xs: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The non-trivial leaks of worlds ``xs[j]``, ``a[j]``: one column
        per leaky source, each map called once per distinct ``(x_i, A_i)``
        pair."""
        cols = []
        for i in self.leaky:
            ids, first = row_ids([xs[:, i], self.slice_value(a, i)], len(a))
            vals = [self.leak_value(i, int(xs[j, i]), int(a[j])) for j in first]
            cols.append(np.array(vals, dtype=np.int64)[ids])
        return np.array(cols, dtype=np.int64).reshape(-1, len(a)).T

    def leak_value(self, i: int, x: int, a: int) -> int:
        fn = self.leak_maps[i]
        if fn is None:
            return 0
        e = int(fn(x, self.slice_value(a, i)))
        if not 0 <= e < (1 << max(self.e_widths[i], 1)):
            raise InvalidInputError(
                f"leak map {i} emitted {e}, exceeding declared width "
                f"{self.e_widths[i]}")
        return e


@dataclass
class LeakageResult:
    """Joint after all leaks, plus the per-source entropy ledger."""

    joint: JointDistribution
    k: list  # conditional min-entropy of X_i at its imaginary step, in bits


def leakage_apply(sources: Sequence[Distribution], sc: LeakageScenario,
                  shared: Distribution | None = None) -> LeakageResult:
    """Apply every leak and return the exact joint over (X_1.., E_1..).

    ``k[i]`` is measured at the imaginary step where only leak ``i`` has
    fired: the conditional min-entropy of ``X_i`` given ``(E_i, A_{-i})``.
    Sources are independent by construction and leaking operations
    commute, so the order of application does not matter.
    """
    t = sc.t
    if len(sources) != t:
        raise InvalidInputError("one distribution per source required")
    for d, w in zip(sources, sc.source_widths):
        if d.width != w:
            raise InvalidInputError("source width mismatch with scenario")
    parts = [(f"X{i + 1}", sc.source_widths[i]) for i in range(t)] + \
        [(f"E{i + 1}", sc.e_widths[i]) for i in sc.leaky]
    total = sum(w for _, w in parts)
    if total > MAX_WIDTH:
        raise SizeLimitError(f"joint over {total} bits exceeds the desk cap "
                             f"of {MAX_WIDTH}")

    den, weights, xs, _, es = enumerate_worlds(sources, sc, shared)
    idx = np.zeros(len(weights), dtype=np.int64)
    for (_, w), col in zip(parts, np.hstack([xs, es]).T):
        idx = (idx << w) | col
    num = np.zeros(1 << total, dtype=weights.dtype)
    np.add.at(num, idx, weights)
    joint = JointDistribution.from_numerators(parts, num, den)
    ks = [_entropy_at_imaginary_step(sources[i], sc, shared, i)
          for i in range(t)]
    return LeakageResult(joint=joint, k=ks)


def enumerate_worlds(sources: Sequence[Distribution],
                     sc: LeakageScenario | None = None,
                     shared: Distribution | None = None) -> tuple:
    """Every joint value of independent sources and the shared register.

    Returns ``(den, weights, xs, a, es)`` with one row per combination of
    support points, in ``itertools.product`` order with the register
    varying fastest: the (N, t) source values ``xs``, the register column
    ``a`` (0 when ``sc`` uses none), the (N, len(sc.leaky)) leak columns
    ``es`` (no columns without ``sc``), and world ``j``'s probability
    ``weights[j] / den``, the weights int64 over the product of the
    denominators.  More than ``MAX_WORLDS`` combinations raise
    :class:`SizeLimitError`.
    """
    dists = list(sources)
    if sc is not None and sc.shared_width > 0:
        if shared is None:
            raise InvalidInputError("scenario uses a shared register; "
                                    "pass its distribution")
        if shared.width != sc.shared_width:
            raise InvalidInputError("shared register width mismatch")
        dists.append(shared)
    else:
        dists.append(Distribution.point_mass(1, 0))
    den = check_denominator(math.prod(d.denominator for d in dists))
    supports = [np.array(d.support(), dtype=np.int64) for d in dists]
    worlds = math.prod(s.size for s in supports)
    if worlds > MAX_WORLDS:
        raise SizeLimitError(f"exact enumeration needs {worlds} worlds, the "
                             f"cap is {MAX_WORLDS}")
    shape = [s.size for s in supports]
    cols = [np.broadcast_to(s[g], shape).ravel()
            for s, g in zip(supports, np.indices(shape, sparse=True))]
    weights = np.ones(1, dtype=np.int64)
    for d, s in zip(dists, supports):
        weights = np.multiply.outer(weights, d.numerators[s]).ravel()
    xs = np.stack(cols[:-1], axis=1)
    es = (sc.leak_columns(xs, cols[-1]) if sc is not None
          else np.zeros((xs.shape[0], 0), dtype=np.int64))
    return den, weights, xs, cols[-1], es


def _entropy_at_imaginary_step(source, sc, shared, i) -> float:
    """H_min(X_i | E_i, A_{-i}) right after leak i alone has fired."""
    alone = LeakageScenario((sc.source_widths[i],), sc.shared_width,
                            (sc.slices[i],), (sc.leak_maps[i],),
                            (sc.e_widths[i],))
    den, weights, xs, a, es = enumerate_worlds([source], alone, shared)
    guess, _ = row_ids([*es.T, sc.complement_value(a, i)[0]], len(weights))
    cells, first = row_ids([guess, xs[:, 0]], len(weights))
    mass, best = np.zeros((2, first.size), dtype=weights.dtype)
    np.add.at(mass, cells, weights)
    np.maximum.at(best, guess[first], mass)
    return neg_log2(sum(best.tolist()), den)


def _default_slices(t: int, shared_width: int) -> tuple:
    """Consecutive slices of ``shared_width // t`` bits; the last takes the
    remainder."""
    base = shared_width // t
    return tuple((i * base, base if i < t - 1 else shared_width - i * base)
                 for i in range(t))
