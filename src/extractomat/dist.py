"""Explicit probability mass functions over small bit-string spaces.

Two storage modes exist side by side:

* **float mode** -- masses are a ``numpy`` float64 array, normalized to 1
  within ``1e-12``.  This is the default and is used everywhere speed
  matters.
* **exact mode** -- masses are ``fractions.Fraction`` values summing to
  exactly 1, available for widths up to 12.  Certification verdicts are
  computed in this mode so that float drift can never flip a comparison.

Outcome ``v`` of a width-``w`` distribution corresponds to the
``BitString(w, v)`` word.  In a :class:`JointDistribution` the first part
occupies the most significant bits of the composite outcome, matching
``BitString.concat`` order.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, SizeLimitError

MAX_TOTAL_WIDTH = 24
MAX_EXACT_WIDTH = 12
NORM_TOL = 1e-12

_MAGIC = b"XDIS"
_VERSION = 1


def _log2_fraction(x) -> float:
    """log2 of a Fraction or float, keeping precision for tiny rationals."""
    if isinstance(x, Fraction):
        if x <= 0:
            raise InvalidInputError("log2 of non-positive value")
        return math.log2(x.numerator) - math.log2(x.denominator)
    if x <= 0:
        raise InvalidInputError("log2 of non-positive value")
    return math.log2(x)


class Distribution:
    """A probability mass function over ``{0,1}^width``.

    Parameters
    ----------
    width : int
        Bit width of the outcome space (1..24; 1..12 in exact mode).
    mass : sequence
        One probability per outcome, length ``2**width``.  Floats select
        float mode; Fractions (or ints) select exact mode.
    """

    __slots__ = ("width", "mass", "exact")

    def __init__(self, width: int, mass, exact: bool | None = None):
        if not 1 <= width <= MAX_TOTAL_WIDTH:
            raise SizeLimitError(f"width {width} outside 1..{MAX_TOTAL_WIDTH}")
        if exact is None:
            exact = _looks_exact(mass)
        if exact:
            if width > MAX_EXACT_WIDTH:
                raise SizeLimitError(
                    f"exact mode supports widths up to {MAX_EXACT_WIDTH}")
            mass = tuple(Fraction(x) for x in mass)
            if len(mass) != 1 << width:
                raise InvalidInputError("mass length must be 2**width")
            if any(x < 0 for x in mass):
                raise InvalidInputError("negative mass")
            if sum(mass) != 1:
                raise InvalidInputError("exact masses must sum to exactly 1")
        else:
            mass = np.asarray(mass, dtype=np.float64)
            if mass.shape != (1 << width,):
                raise InvalidInputError("mass length must be 2**width")
            if np.any(mass < 0):
                raise InvalidInputError("negative mass")
            if abs(float(mass.sum()) - 1.0) > NORM_TOL:
                raise InvalidInputError(
                    f"masses sum to {mass.sum()}, expected 1 within {NORM_TOL}")
            mass.setflags(write=False)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, *_):
        raise AttributeError("Distribution is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, width: int, exact: bool = False) -> "Distribution":
        n = 1 << width
        if exact:
            return cls(width, [Fraction(1, n)] * n)
        return cls(width, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, width: int, value: int, exact: bool = False) -> "Distribution":
        n = 1 << width
        if not 0 <= value < n:
            raise InvalidInputError("point outside outcome space")
        if exact:
            m = [Fraction(0)] * n
            m[value] = Fraction(1)
            return cls(width, m)
        m = np.zeros(n)
        m[value] = 1.0
        return cls(width, m)

    @classmethod
    def from_counts(cls, width: int, counts: Sequence[int]) -> "Distribution":
        """Exact distribution proportional to integer counts."""
        total = sum(counts)
        if total <= 0:
            raise InvalidInputError("counts must sum to a positive value")
        return cls(width, [Fraction(c, total) for c in counts])

    @classmethod
    def flat(cls, width: int, support: Iterable[int], exact: bool = False) -> "Distribution":
        """Uniform distribution on an explicit support set."""
        support = sorted(set(support))
        if not support:
            raise InvalidInputError("empty support")
        if support[-1] >= 1 << width:
            raise InvalidInputError("support element outside outcome space")
        if exact:
            m = [Fraction(0)] * (1 << width)
            for s in support:
                m[s] = Fraction(1, len(support))
            return cls(width, m)
        m = np.zeros(1 << width)
        m[support] = 1.0 / len(support)
        return cls(width, m)

    # -- basic queries -------------------------------------------------

    def as_floats(self) -> np.ndarray:
        if self.exact:
            return np.array([float(x) for x in self.mass])
        return self.mass

    def max_mass(self):
        if self.exact:
            return max(self.mass)
        return float(self.mass.max())

    def support(self) -> list:
        if self.exact:
            return [i for i, x in enumerate(self.mass) if x > 0]
        return [int(i) for i in np.nonzero(self.mass)[0]]

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.choice(1 << self.width, size=size, p=self.as_floats())

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        head = _MAGIC + struct.pack("<HBB", _VERSION, 0, self.width)
        return head + self.as_floats().astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Distribution":
        if data[:4] != _MAGIC:
            raise InvalidInputError("bad magic, not a serialized distribution")
        version, kind, width = struct.unpack("<HBB", data[4:8])
        if version != _VERSION or kind != 0:
            raise InvalidInputError(f"unsupported version/kind {version}/{kind}")
        mass = np.frombuffer(data[8:], dtype="<f8")
        return cls(width, mass.astype(np.float64))

    def to_json(self) -> str:
        return json.dumps({"width": self.width,
                           "mass": [float(x) for x in self.mass]})


class JointDistribution:
    """A joint probability mass function over labelled bit-string parts.

    Parameters
    ----------
    parts : sequence of (label, width)
        Ordered parts; the first part occupies the most significant bits
        of the composite outcome index.
    mass : sequence
        One probability per composite outcome, length ``2**total_width``.
    """

    __slots__ = ("parts", "mass", "exact", "_shifts")

    def __init__(self, parts, mass, exact: bool | None = None):
        parts = tuple((str(lbl), int(w)) for lbl, w in parts)
        labels = [lbl for lbl, _ in parts]
        if len(set(labels)) != len(labels):
            raise InvalidInputError("duplicate part labels")
        total = sum(w for _, w in parts)
        if not 1 <= total <= MAX_TOTAL_WIDTH:
            raise SizeLimitError(
                f"total width {total} outside 1..{MAX_TOTAL_WIDTH}")
        if exact is None:
            exact = _looks_exact(mass)
        if exact:
            if total > MAX_EXACT_WIDTH:
                raise SizeLimitError(
                    f"exact mode supports total widths up to {MAX_EXACT_WIDTH}")
            mass = tuple(Fraction(x) for x in mass)
            if len(mass) != 1 << total:
                raise InvalidInputError("mass length must be 2**total_width")
            if any(x < 0 for x in mass) or sum(mass) != 1:
                raise InvalidInputError("exact masses must be >=0 and sum to 1")
        else:
            mass = np.asarray(mass, dtype=np.float64)
            if mass.shape != (1 << total,):
                raise InvalidInputError("mass length must be 2**total_width")
            if np.any(mass < 0) or abs(float(mass.sum()) - 1.0) > NORM_TOL:
                raise InvalidInputError("masses must be >=0 and sum to 1")
            mass.setflags(write=False)
        shifts = {}
        pos = total
        for lbl, w in parts:
            pos -= w
            shifts[lbl] = (pos, w)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "exact", bool(exact))
        object.__setattr__(self, "_shifts", shifts)

    def __setattr__(self, *_):
        raise AttributeError("JointDistribution is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def product(cls, labelled: Sequence[tuple], exact: bool | None = None) -> "JointDistribution":
        """Product of independent distributions, given as (label, Distribution)."""
        parts = [(lbl, d.width) for lbl, d in labelled]
        total = sum(w for _, w in parts)
        if total > MAX_TOTAL_WIDTH:
            raise SizeLimitError(f"total width {total} exceeds {MAX_TOTAL_WIDTH}")
        if exact is None:
            exact = all(d.exact for _, d in labelled)
        if exact:
            mass = [Fraction(1)]
            for _, d in labelled:
                mass = [a * b for a in mass for b in d.mass]
        else:
            mass = np.array([1.0])
            for _, d in labelled:
                mass = np.multiply.outer(mass, d.as_floats()).reshape(-1)
        return cls(parts, mass, exact=exact)

    @classmethod
    def from_atoms(cls, parts, atoms: dict, exact: bool = True) -> "JointDistribution":
        """Build from a mapping of per-part value tuples to masses."""
        parts = tuple((str(lbl), int(w)) for lbl, w in parts)
        total = sum(w for _, w in parts)
        n = 1 << total
        mass = [Fraction(0)] * n if exact else np.zeros(n)
        for values, p in atoms.items():
            idx = 0
            for (_, w), v in zip(parts, values):
                idx = (idx << w) | v
            mass[idx] += Fraction(p) if exact else p
        return cls(parts, mass, exact=exact)

    # -- indexing helpers ----------------------------------------------

    @property
    def total_width(self) -> int:
        return sum(w for _, w in self.parts)

    def labels(self) -> tuple:
        return tuple(lbl for lbl, _ in self.parts)

    def part_width(self, label: str) -> int:
        return self._shifts[label][1]

    def extract(self, outcome: int, label: str) -> int:
        shift, w = self._shifts[label]
        return (outcome >> shift) & ((1 << w) - 1)

    def _group_indices(self, labels: Sequence[str]) -> np.ndarray:
        """Composite sub-outcome of ``labels`` (in the given order) per outcome."""
        n = 1 << self.total_width
        out = np.zeros(n, dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        for lbl in labels:
            shift, w = self._shifts[lbl]
            out = (out << w) | ((idx >> shift) & ((1 << w) - 1))
        return out

    # -- operations ----------------------------------------------------

    def marginal(self, labels: Sequence[str]) -> "JointDistribution":
        labels = list(labels)
        for lbl in labels:
            if lbl not in self._shifts:
                raise InvalidInputError(f"unknown label {lbl!r}")
        sub_w = sum(self._shifts[lbl][1] for lbl in labels)
        group = self._group_indices(labels)
        if self.exact:
            mass = [Fraction(0)] * (1 << sub_w)
            for idx, p in enumerate(self.mass):
                if p:
                    mass[group[idx]] += p
        else:
            mass = np.bincount(group, weights=self.mass, minlength=1 << sub_w)
        return JointDistribution(
            [(lbl, self._shifts[lbl][1]) for lbl in labels], mass,
            exact=self.exact)

    def marginal_dist(self, label: str) -> Distribution:
        j = self.marginal([label])
        return Distribution(j.total_width, j.mass, exact=j.exact)

    def guessing_probability(self, target, given=()):
        """Optimal probability of guessing ``target`` from ``given``.

        Returns a Fraction in exact mode, a float otherwise.
        """
        target = [target] if isinstance(target, str) else list(target)
        given = [given] if isinstance(given, str) else list(given)
        if set(target) & set(given):
            raise InvalidInputError("target and given labels overlap")
        sub = self.marginal(target + given)
        tw = sum(sub._shifts[lbl][1] for lbl in target)
        gw = sub.total_width - tw
        if sub.exact:
            best = {}
            for idx, p in enumerate(sub.mass):
                e = idx & ((1 << gw) - 1) if gw else 0
                if p > best.get(e, Fraction(0)):
                    best[e] = p
            return sum(best.values(), Fraction(0))
        m = sub.as_floats().reshape(1 << tw, 1 << gw) if gw else \
            sub.as_floats().reshape(1 << tw, 1)
        return float(m.max(axis=0).sum())

    def as_floats(self) -> np.ndarray:
        if self.exact:
            return np.array([float(x) for x in self.mass])
        return self.mass

    def condition(self, label: str, value: int) -> "JointDistribution":
        """Condition on ``label == value``; the part is removed."""
        shift, w = self._shifts[label]
        rest = [(lbl, pw) for lbl, pw in self.parts if lbl != label]
        if not rest:
            raise InvalidInputError("cannot condition away every part")
        n = 1 << self.total_width
        keep = [i for i in range(n) if ((i >> shift) & ((1 << w) - 1)) == value]
        sub_idx = self._group_indices([lbl for lbl, _ in rest])
        total_rest = sum(pw for _, pw in rest)
        if self.exact:
            sel = [(sub_idx[i], self.mass[i]) for i in keep if self.mass[i] > 0]
            norm = sum(p for _, p in sel)
            if norm == 0:
                raise InvalidInputError("conditioning on a zero-probability value")
            mass = [Fraction(0)] * (1 << total_rest)
            for si, p in sel:
                mass[si] += p / norm
        else:
            mass = np.zeros(1 << total_rest)
            np.add.at(mass, sub_idx[keep], self.mass[keep])
            norm = mass.sum()
            if norm <= 0:
                raise InvalidInputError("conditioning on a zero-probability value")
            mass = mass / norm
        return JointDistribution(rest, mass, exact=self.exact)

    def apply_to_part(self, label: str, fn, new_width: int,
                      new_label: str | None = None) -> "JointDistribution":
        """Deterministically post-process one part, leaving the rest alone."""
        shift, w = self._shifts[label]
        new_label = new_label or label
        new_parts = [(new_label, new_width) if lbl == label else (lbl, pw)
                     for lbl, pw in self.parts]
        total_new = sum(pw for _, pw in new_parts)
        if total_new > MAX_TOTAL_WIDTH:
            raise SizeLimitError("post-processed joint too large")
        n = 1 << self.total_width
        idx = np.arange(n, dtype=np.int64)
        old_vals = (idx >> shift) & ((1 << w) - 1)
        fmap = np.array([fn(v) for v in range(1 << w)], dtype=np.int64)
        if fmap.min() < 0 or fmap.max() >= (1 << new_width):
            raise InvalidInputError("part map output exceeds declared width")
        high = (idx >> (shift + w)) << (shift + new_width)
        low = idx & ((1 << shift) - 1)
        new_idx = high | (fmap[old_vals] << shift) | low
        if self.exact:
            mass = [Fraction(0)] * (1 << total_new)
            for i, p in enumerate(self.mass):
                if p:
                    mass[new_idx[i]] += p
        else:
            mass = np.zeros(1 << total_new)
            np.add.at(mass, new_idx, self.mass)
        return JointDistribution(new_parts, mass, exact=self.exact)

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        head = _MAGIC + struct.pack("<HBB", _VERSION, 1, len(self.parts))
        for lbl, w in self.parts:
            enc = lbl.encode()
            head += struct.pack("<BB", len(enc), w) + enc
        return head + self.as_floats().astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "JointDistribution":
        if data[:4] != _MAGIC:
            raise InvalidInputError("bad magic, not a serialized distribution")
        version, kind, nparts = struct.unpack("<HBB", data[4:8])
        if version != _VERSION or kind != 1:
            raise InvalidInputError(f"unsupported version/kind {version}/{kind}")
        pos = 8
        parts = []
        for _ in range(nparts):
            ln, w = struct.unpack("<BB", data[pos:pos + 2])
            pos += 2
            parts.append((data[pos:pos + ln].decode(), w))
            pos += ln
        mass = np.frombuffer(data[pos:], dtype="<f8")
        return cls(parts, mass.astype(np.float64))

    def to_json(self) -> str:
        return json.dumps({"parts": [[lbl, w] for lbl, w in self.parts],
                           "mass": [float(x) for x in self.mass]})


# ----------------------------------------------------------------------
# Entropy and distance operations
# ----------------------------------------------------------------------

def min_entropy(d: Distribution) -> float:
    """Min-entropy in bits: the negated log2 of the largest mass."""
    mx = d.max_mass()
    if (isinstance(mx, Fraction) and mx == 0) or (not isinstance(mx, Fraction) and mx <= 0):
        raise InvalidInputError("zero-mass distribution has no min-entropy")
    return -_log2_fraction(mx)


def cond_min_entropy(j: JointDistribution, target, given=()) -> float:
    """Conditional min-entropy: -log2 of the optimal guessing probability."""
    return -_log2_fraction(j.guessing_probability(target, given))


def smooth_cond_min_entropy(j: JointDistribution, target, given, delta) -> float:
    """Lower bound on the delta-smooth conditional min-entropy.

    Smoothing removes up to ``delta`` total mass, which can only lower
    the optimal guessing probability.  The removal schedule is the exact
    greedy optimum (always shave the guessing-column whose current
    maximum is cheapest to reduce), so the returned value is attained by
    an explicit delta-close sub-distribution.
    """
    target = [target] if isinstance(target, str) else list(target)
    given = [given] if isinstance(given, str) else list(given)
    sub = j.marginal(target + given)
    tw = sum(sub._shifts[lbl][1] for lbl in target)
    gw = sub.total_width - tw
    exact = sub.exact
    delta = Fraction(delta) if exact else float(delta)
    columns = {}
    for idx in range(1 << sub.total_width):
        p = sub.mass[idx]
        if (p > 0):
            e = idx & ((1 << gw) - 1) if gw else 0
            columns.setdefault(e, []).append(p)
    # Per column, sorted descending: cost of lowering the max to level L is
    # sum(max(0, p - L)); greedy picks the column with the fewest tied tops.
    heap = []
    for e, masses in columns.items():
        masses.sort(reverse=True)
        heap.append((1, _as_key(masses[0]), e))
    heapq.heapify(heap)
    col_state = {e: (sorted(m, reverse=True), 1) for e, m in columns.items()}
    budget = delta
    total_guess = sum(m[0] for m, _ in col_state.values())
    while budget > 0 and heap:
        mult, _, e = heapq.heappop(heap)
        masses, cur_mult = col_state[e]
        if mult != cur_mult:
            continue  # stale entry
        top = masses[0]
        nxt = masses[mult] if mult < len(masses) else (Fraction(0) if exact else 0.0)
        drop = top - nxt          # lowering all tied tops to the next level
        cost = drop * mult
        if cost <= budget and drop > 0:
            budget -= cost
            total_guess -= drop
            new = [nxt] * mult + list(masses[mult:]) if mult < len(masses) else [nxt] * mult
            new_mult = mult
            while new_mult < len(new) and new[new_mult] == nxt:
                new_mult += 1
            col_state[e] = (new, new_mult)
            if nxt > 0:
                heapq.heappush(heap, (new_mult, _as_key(nxt), e))
        elif drop > 0:
            partial = budget / mult
            total_guess -= partial
            budget = 0
        else:
            break
    if (total_guess <= 0):
        return float("inf")
    return -_log2_fraction(total_guess)


def _as_key(x):
    return -float(x)


def statistical_distance(p: Distribution, q: Distribution):
    """Total variation distance, exact if both inputs are exact.

    Computed as ``sum over outcomes with p > q of (p - q)``, which equals
    half the L1 distance.
    """
    if p.width != q.width:
        raise InvalidInputError("distributions must have equal widths")
    if p.exact and q.exact:
        return sum((a - b for a, b in zip(p.mass, q.mass) if a > b),
                   Fraction(0))
    a, b = p.as_floats(), q.as_floats()
    diff = a - b
    return float(diff[diff > 0].sum())


def distance_from_uniform_on(j: JointDistribution, part_labels):
    """Distance of a joint from (uniform on ``part_labels``) x (the rest)."""
    part_labels = [part_labels] if isinstance(part_labels, str) else list(part_labels)
    rest = [lbl for lbl in j.labels() if lbl not in part_labels]
    sub = j.marginal(part_labels + rest)
    pw = sum(sub._shifts[lbl][1] for lbl in part_labels)
    rw = sub.total_width - pw
    if sub.exact:
        rest_mass = {}
        for idx, p in enumerate(sub.mass):
            r = idx & ((1 << rw) - 1) if rw else 0
            rest_mass[r] = rest_mass.get(r, Fraction(0)) + p
        u = Fraction(1, 1 << pw)
        return sum((p - u * rest_mass[idx & ((1 << rw) - 1) if rw else 0]
                    for idx, p in enumerate(sub.mass)
                    if p > u * rest_mass.get(idx & ((1 << rw) - 1) if rw else 0,
                                             Fraction(0))),
                   Fraction(0))
    m = sub.as_floats().reshape(1 << pw, 1 << rw) if rw else \
        sub.as_floats().reshape(1 << pw, 1)
    ref = m.sum(axis=0, keepdims=True) / (1 << pw)
    diff = m - ref
    return float(diff[diff > 0].sum())


def xor_project(j: JointDistribution, label: str, subset) -> JointDistribution:
    """Replace part ``label`` by the single XOR bit over ``subset``.

    ``subset`` holds 1-based bit positions counted from the most
    significant end of the part.
    """
    subset = sorted(set(subset))
    w = j.part_width(label)
    if not subset:
        raise InvalidInputError("empty XOR subset")
    if subset[0] < 1 or subset[-1] > w:
        raise InvalidInputError(f"XOR subset positions must lie in 1..{w}")
    mask = 0
    for i in subset:
        mask |= 1 << (w - i)

    def _xor(v: int) -> int:
        return bin(v & mask).count("1") & 1

    return j.apply_to_part(label, _xor, 1)


def _looks_exact(mass) -> bool:
    if isinstance(mass, np.ndarray):
        return False
    try:
        first = next(iter(mass))
    except StopIteration:
        return False
    return isinstance(first, (Fraction, int))
