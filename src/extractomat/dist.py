"""Explicit probability mass functions over small bit-string spaces.

Masses are int64 numerators over one positive integer denominator,
summing to it exactly, on outcome spaces of widths 1..12.  Every
operation is one numpy expression on the numerators, so float drift can
never flip a comparison, and a common denominator above ``2**62`` raises
:class:`SizeLimitError` instead of letting a numerator wrap.  A float
mass is refused: ``Fraction`` (or an integer) appears at the edges, in
inputs, exact return values and the ``mass`` accessor.

Outcome ``v`` of a width-``w`` distribution is the ``w``-bit word whose
bits, most significant first, are the binary digits of ``v``.  In a
:class:`JointDistribution` the first part occupies the most significant
bits of the composite outcome, each later part the bits below it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, SizeLimitError, _integer

MAX_WIDTH = 12
MAX_DENOMINATOR = 1 << 62
DENSE_ROWS = 4  # row_ids and column_excess address keys up to 4x the rows


class _Masses:
    """Masses ``_num / _den``: int64 numerators over a positive integer."""

    __slots__ = ("_num", "_den")
    numerators = property(lambda self: self._num, doc="Read-only numerators.")
    denominator = property(lambda self: self._den)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, width: int, num: np.ndarray, den: int) -> None:
        """Keep ``num / den`` over a checked ``width``, reduced."""
        if num.shape != (1 << width,):
            raise InvalidInputError("mass length must be 2**width")
        if (num < 0).any():
            raise InvalidInputError("negative mass")
        if int(num.sum()) != den:
            raise InvalidInputError("masses must sum to exactly 1")
        g = math.gcd(int(np.gcd.reduce(num)), den)
        num, den = num // g, den // g
        num.setflags(write=False)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @property
    def mass(self) -> tuple:
        """One Fraction per outcome."""
        return tuple(Fraction(n, self._den) for n in self._num.tolist())


class Distribution(_Masses):
    """A probability mass function over ``{0,1}^width``.

    Parameters
    ----------
    width : int
        Bit width of the outcome space, 1..12.
    mass : sequence
        One Fraction (or integer) probability per outcome, length
        ``2**width``.
    """

    __slots__ = ("width",)

    def __init__(self, width: int, mass):
        self._store(_check_width(width), *_numerators(mass))

    def _store(self, width: int, num: np.ndarray, den: int) -> None:
        object.__setattr__(self, "width", _check_width(width))
        super()._store(self.width, num, den)

    @classmethod
    def _make(cls, width: int, num: np.ndarray, den: int) -> "Distribution":
        d = object.__new__(cls)
        d._store(width, num, den)
        return d

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, width: int) -> "Distribution":
        width = _check_width(width)
        return cls._flat(width, slice(None), 1 << width)

    @classmethod
    def point_mass(cls, width: int, value: int) -> "Distribution":
        return cls.flat(width, [value])

    @classmethod
    def flat(cls, width: int, support: Iterable[int]) -> "Distribution":
        """Uniform distribution on an explicit support set."""
        width = _check_width(width)
        support = _support(width, support)
        return cls._flat(width, support, len(support))

    @classmethod
    def _flat(cls, width: int, where, size: int) -> "Distribution":
        """Uniform on the ``size`` outcomes that the index ``where`` selects."""
        counts = np.zeros(1 << width, dtype=np.int64)
        counts[where] = 1
        return cls._make(width, counts, check_denominator(size))

    # -- basic queries -------------------------------------------------

    def support(self) -> list:
        return np.flatnonzero(self._num).tolist()

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.choice(1 << self.width, size=size, p=self._num / self._den)


class JointDistribution(_Masses):
    """A joint probability mass function over labelled bit-string parts.

    Parameters
    ----------
    parts : sequence of (label, width)
        Ordered parts; the first part occupies the most significant bits
        of the composite outcome index.
    mass : sequence
        One probability per composite outcome, length ``2**total_width``.
    """

    __slots__ = ("parts", "_widths")

    def __init__(self, parts, mass):
        self._init(_parts(parts), *_numerators(mass))

    def _init(self, parts, num: np.ndarray, den: int) -> None:
        parts = _parts(parts)
        self._store(sum(w for _, w in parts), num, den)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_widths", dict(parts))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_numerators(cls, parts, numerators, denominator=1) -> "JointDistribution":
        """Masses ``numerators / denominator``, the numerators integers."""
        num = np.asarray(numerators)
        if num.dtype.kind not in "iu":
            raise InvalidInputError("numerators must be integers, not "
                                    f"{num.dtype}")
        j = object.__new__(cls)
        j._init(parts, num.astype(np.int64),
                check_denominator(_integer(denominator, "a denominator")))
        return j

    @classmethod
    def product(cls, labelled: Sequence[tuple]) -> "JointDistribution":
        """Product of independent distributions, given as (label, Distribution)."""
        parts = _parts((lbl, d.width) for lbl, d in labelled)
        den = check_denominator(math.prod(d._den for _, d in labelled))
        num = np.ones(1, dtype=np.int64)
        for _, d in labelled:
            num = np.multiply.outer(num, d._num)
        return cls.from_numerators(parts, num.reshape(-1), den)

    @classmethod
    def from_atoms(cls, parts, atoms: dict) -> "JointDistribution":
        """Build from a mapping of per-part value tuples to masses."""
        parts = _parts(parts)
        shape = [1 << w for _, w in parts]
        for values in atoms:  # one integer per part, each inside its part
            if not (isinstance(values, tuple) and len(values) == len(shape)
                    and all(0 <= _integer(v, "an atom value") < size
                            for v, size in zip(values, shape))):
                raise InvalidInputError(f"atom {values!r} is not one integer "
                                        "per part, each inside its part")
        index = [np.ravel_multi_index(values, shape) for values in atoms]
        vals, den = _numerators(list(atoms.values()))
        num = np.zeros(math.prod(shape), dtype=np.int64)
        np.add.at(num, np.array(index, dtype=np.intp), vals)
        return cls.from_numerators(parts, num, den)

    # -- indexing helpers ----------------------------------------------

    @property
    def total_width(self) -> int:
        return sum(w for _, w in self.parts)

    def labels(self) -> tuple:
        return tuple(lbl for lbl, _ in self.parts)

    def part_width(self, label: str) -> int:
        return self._widths[label]

    def _axis(self, label: str) -> int:
        if label not in self._widths:
            raise InvalidInputError(f"unknown label {label!r}")
        return self.labels().index(label)

    def _tensor(self) -> np.ndarray:
        """The numerators with one axis per part."""
        return self._num.reshape([1 << w for _, w in self.parts])

    # -- operations ----------------------------------------------------

    def marginal(self, labels: Sequence[str]) -> "JointDistribution":
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise InvalidInputError("duplicate part labels")
        axes = [self._axis(lbl) for lbl in labels]
        summed = self._tensor().sum(axis=tuple(
            i for i in range(len(self.parts)) if i not in axes))
        kept = sorted(axes)
        num = summed.transpose([kept.index(a) for a in axes]).reshape(-1)
        return JointDistribution.from_numerators(
            [self.parts[a] for a in axes], num, self._den)

    def marginal_dist(self, label: str) -> Distribution:
        j = self.marginal([label])
        return Distribution._make(j.total_width, j._num, j._den)

    def _guess(self, target, given) -> tuple:
        """Numerator and denominator of the optimal guessing probability."""
        target = [target] if isinstance(target, str) else list(target)
        given = [given] if isinstance(given, str) else list(given)
        if set(target) & set(given):
            raise InvalidInputError("target and given labels overlap")
        sub = self.marginal(target + given)
        tw = sum(self.part_width(lbl) for lbl in target)
        return sub._num.reshape(1 << tw, -1).max(axis=0).sum().item(), sub._den

    def condition(self, label: str, value: int) -> "JointDistribution":
        """Condition on ``label == value``; the part is removed."""
        axis = self._axis(label)
        rest = [p for p in self.parts if p[0] != label]
        if not rest:
            raise InvalidInputError("cannot condition away every part")
        value = _integer(value, "a conditioning value")
        if not 0 <= value < 1 << self.parts[axis][1]:
            raise InvalidInputError("conditioning value outside the part")
        num = np.take(self._tensor(), value, axis=axis).reshape(-1)
        norm = num.sum().item()
        if norm <= 0:
            raise InvalidInputError("conditioning on a zero-probability value")
        return JointDistribution.from_numerators(rest, num, norm)

    def apply_to_part(self, label: str, fn,
                      new_width: int) -> "JointDistribution":
        """Deterministically post-process one part, leaving the rest alone."""
        axis = self._axis(label)
        w = self.parts[axis][1]
        new_parts = list(self.parts)
        new_parts[axis] = (label, new_width)
        _check_width(sum(pw for _, pw in new_parts))
        fmap = np.array([_integer(fn(v), "a part map output")
                         for v in range(1 << w)], dtype=np.int64)
        if fmap.min() < 0 or fmap.max() >= (1 << new_width):
            raise InvalidInputError("part map output exceeds declared width")
        moved = np.moveaxis(self._tensor(), axis, 0)
        out = np.zeros((1 << new_width,) + moved.shape[1:], dtype=moved.dtype)
        np.add.at(out, fmap, moved)
        num = np.moveaxis(out, 0, axis).reshape(-1)
        return JointDistribution.from_numerators(new_parts, num, self._den)


# ----------------------------------------------------------------------
# Entropy and distance operations
# ----------------------------------------------------------------------

def min_entropy(d: Distribution) -> float:
    """Min-entropy in bits: the negated log2 of the largest mass."""
    return neg_log2(d._num.max().item(), d._den)


def cond_min_entropy(j: JointDistribution, target, given=()) -> float:
    """Conditional min-entropy: -log2 of the optimal guessing probability."""
    return neg_log2(*j._guess(target, given))


def smooth_cond_min_entropy(j: JointDistribution, target, given, delta) -> float:
    """The delta-smooth conditional min-entropy: ``-log2`` of the least
    optimal guessing probability left after removing at most ``delta``
    total mass (``inf`` when nothing is left to guess).

    The guessing probability is the sum over values of ``given`` of each
    column's maximum.  Lowering a column's maximum from a level ``hi`` to
    the column's next level ``lo`` is one step: it gains ``hi - lo`` and
    costs ``i * (hi - lo)`` of mass, ``i`` being the number of the
    column's entries at or above ``hi``.  Per unit gained a column costs
    its multiplicity, which only grows as its maximum falls, so taking
    the steps of all columns cheapest first, by ``(i, -hi, column)``, and
    the first that does not fit in part, is optimal.
    """
    if delta < 0:
        raise InvalidInputError("smoothing distance delta must be >= 0")
    target = [target] if isinstance(target, str) else list(target)
    given = [given] if isinstance(given, str) else list(given)
    sub = j.marginal(target + given)
    tw = sum(j.part_width(lbl) for lbl in target)
    steps, total_guess = [], 0
    for e, col in enumerate(sub._num.reshape(1 << tw, -1).T.tolist()):
        levels = sorted(col, reverse=True) + [0]
        total_guess += levels[0]
        steps += [(i, -hi, e, hi - lo)
                  for i, (hi, lo) in enumerate(zip(levels, levels[1:]), 1)
                  if hi != lo]
    budget = Fraction(delta) * sub._den
    for i, _, _, drop in sorted(steps):
        cost = drop * i
        if cost > budget:
            total_guess -= budget / i
            break
        budget -= cost
        total_guess -= drop
    if total_guess <= 0:
        return float("inf")
    return neg_log2(total_guess.numerator, total_guess.denominator * sub._den)


def statistical_distance(p: Distribution, q: Distribution) -> Fraction:
    """Total variation distance, exactly.

    Computed as ``sum over outcomes with p > q of (p - q)``, which equals
    half the L1 distance.
    """
    if p.width != q.width:
        raise InvalidInputError("distributions must have equal widths")
    den = check_denominator(math.lcm(p._den, q._den))
    diff = p._num * (den // p._den) - q._num * (den // q._den)
    return ratio(diff[diff > 0].sum().item(), den)


def excess_over_uniform(weights, groups, m: int):
    """Unnormalized distance of an m-bit part from uniform, given the rest.

    Cell ``c`` is one (part value, rest value) pair of weight
    ``weights[c]``, and ``groups[c]`` numbers its rest value.  Returns
    ``sum_c max(0, 2**m * weights[c] - R[groups[c]])``, where ``R[g]`` is
    the total weight of group ``g``.  Divided by ``2**m`` times the total
    weight, this is the statistical distance of (part, rest) from
    (uniform on m bits) x rest; cells left out have weight 0 and add
    nothing.  Integer weights give an exact integer, float weights a
    float.

    ``weights`` may carry leading axes, each index of which is one weight
    vector over the same cells (a bootstrap resample, say); the result
    is then an array of one excess per vector, int64 for integer weights.
    Row ``i``'s groups are numbered ``groups + i * (number of groups)``,
    so one ``np.add.at`` takes every group total of every row.
    """
    weights = np.asarray(weights)
    groups = np.asarray(groups, dtype=np.intp)
    if weights.dtype.kind in "iu":
        weights = weights.astype(np.int64, copy=False)
        heaviest = weights.sum(axis=-1).max(initial=0)
        if int(heaviest) << m > MAX_DENOMINATOR:
            raise SizeLimitError(
                f"weights scaled by 2**{m} would pass 2**62")
    n_rows = math.prod(weights.shape[:-1])
    n_groups = int(groups.max()) + 1 if groups.size else 0
    keys = groups if weights.ndim == 1 else (
        groups + n_groups * np.arange(n_rows)[:, None]).ravel()
    flat = weights.reshape(-1)
    totals = np.zeros(n_rows * n_groups, dtype=weights.dtype)
    np.add.at(totals, keys, flat)
    excess = flat * (1 << m) - totals.take(keys)
    if weights.ndim == 1:
        return excess[excess > 0].sum().item()
    return np.maximum(excess, 0, out=excess).reshape(weights.shape).sum(-1)


def row_ids(cols, n: int) -> tuple:
    """Dense ids of the distinct rows of ``n``-long integer columns, in
    order of first appearance: ``(ids, first)``, ``first[i]`` being the
    first row with id ``i``; empty for ``n = 0``.  The columns are packed
    by value range into as few int64 words as fit, one column at a time
    (a stacked copy would double the memory of a large ensemble); several
    words are first replaced by their rows' ids from ``np.unique``; a
    constant column packs to nothing, and one whose minimum is 0 is packed
    as it is.  A key space of at most ``DENSE_ROWS`` times the rows is
    numbered by address: each key's first row by one scatter of the rows
    in reverse (numpy writes a repeated index in order, so the first row
    is written last), its id by a rank table.  A wider one takes one
    stable argsort: the first row of each run of equal keys is marked,
    and the marks, in row order, number the keys."""
    if n <= 1:
        return np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    words, word, used = [], np.zeros(n, dtype=np.int64), 0
    for col in map(np.asarray, cols):
        lo = int(col.min())
        bits = (int(col.max()) - lo).bit_length()
        if not bits:
            continue
        if used + bits > 62:
            words, word, used = words + [word], np.zeros(n, np.int64), 0
        word, used = (word << bits) | (col - lo if lo else col), used + bits
    if words:
        word = np.unique(np.stack(words + [word], axis=1), axis=0,
                         return_inverse=True)[1].reshape(-1)
        used = int(word.max()).bit_length()
    if 1 << used <= DENSE_ROWS * n:
        at = np.full(1 << used, n, dtype=np.intp)
        at[word[::-1]] = np.arange(n - 1, -1, -1)
        first = np.sort(at[at < n])
        at[word[first]] = np.arange(first.size)  # now each key's id
        return at[word], first
    order = np.argsort(word, kind="stable")
    ranked = word[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    heads = order[starts]  # each key's first row, in key order
    is_first = np.zeros(n, dtype=bool)
    is_first[heads] = True
    ids = np.empty(n, dtype=np.intp)
    ids[order] = (np.cumsum(is_first) - 1)[heads][np.cumsum(starts) - 1]
    return ids, np.flatnonzero(is_first)


def column_excess(weights, z, rest, m: int, numbered=None):
    """:func:`excess_over_uniform` of per-world columns: world ``j`` has
    weight ``weights[j]``, part value ``z[j]`` in ``range(2**m)`` and rest
    ``rest[*][j]``; 0 for no worlds.  The rests are numbered once by
    :func:`row_ids` (or ``numbered``, its output), and a cell is a ``rest
    id << m | z``.  Where there are at most ``DENSE_ROWS`` times as many
    cells as worlds, every cell has its address in one table, empty ones
    weighing 0; else ``np.unique`` numbers the cells that occur, in key
    order.  The excess depends on neither the cells' order nor the empty
    ones, and memory stays linear in the worlds."""
    groups, first = numbered or row_ids(rest, len(z))
    keys = (groups << m) | np.asarray(z, dtype=np.int64)
    if first.size << m <= DENSE_ROWS * len(z):
        keys, cells = np.arange(first.size << m), keys
    else:
        keys, cells = np.unique(keys, return_inverse=True)
    totals = np.zeros(keys.size, dtype=np.asarray(weights).dtype)
    np.add.at(totals, cells, weights)
    return excess_over_uniform(totals, keys >> m, m)


def ratio(num, den) -> Fraction:
    """``num / den`` for integer operands, numpy's included."""
    return Fraction(int(num), int(den))


def neg_log2(num: int, den: int = 1) -> float:
    """``-log2(num / den)`` in bits, for positive integers.

    The operands are reduced first, so the float returned does not
    depend on which common denominator carried them.
    """
    if num <= 0:
        raise InvalidInputError("log2 of non-positive value")
    g = math.gcd(num, den)
    return math.log2(den // g) - math.log2(num // g)


def check_denominator(den: int) -> int:
    """Refuse a common denominator whose numerators could pass 2**62."""
    if den > MAX_DENOMINATOR:
        raise SizeLimitError(f"common denominator {den} exceeds 2**62")
    if den < 1:
        raise InvalidInputError("denominator must be positive")
    return den


def xor_project(j: JointDistribution, label: str, subset) -> JointDistribution:
    """Replace part ``label`` by the single XOR bit over ``subset``.

    ``subset`` holds 1-based bit positions counted from the most
    significant end of the part.
    """
    subset = sorted(set(_integer(i, "an XOR position") for i in subset))
    w = j.part_width(label)
    if not subset:
        raise InvalidInputError("empty XOR subset")
    if subset[0] < 1 or subset[-1] > w:
        raise InvalidInputError(f"XOR subset positions must lie in 1..{w}")
    mask = sum(1 << (w - i) for i in subset)
    return j.apply_to_part(label, lambda v: (v & mask).bit_count() & 1, 1)


def _check_width(width) -> int:
    """``width`` as an int in ``1..MAX_WIDTH``."""
    width = _integer(width, "a width")
    if not 1 <= width <= MAX_WIDTH:
        raise SizeLimitError(f"total width {width} outside 1..{MAX_WIDTH}")
    return width


def _parts(parts) -> tuple:
    """Labelled parts as ``(str, int)`` pairs: distinct labels, widths
    non-negative and totalling ``1..MAX_WIDTH``."""
    parts = tuple((str(lbl), _integer(w, "a part width")) for lbl, w in parts)
    if any(w < 0 for _, w in parts):
        raise InvalidInputError("negative part width")
    if len(dict(parts)) != len(parts):
        raise InvalidInputError("duplicate part labels")
    _check_width(sum(w for _, w in parts))
    return parts


def _support(width: int, support) -> list:
    """The distinct elements of ``support`` in ascending order: at least
    one, each an integer in ``range(2**width)``."""
    support = sorted(set(_integer(v, "a support element") for v in support))
    if not support:
        raise InvalidInputError("empty support")
    if support[0] < 0 or support[-1] >= 1 << width:
        raise InvalidInputError("support element outside outcome space")
    return support


def _numerators(mass) -> tuple:
    """Input masses, Fractions or integers, as int64 numerators over their
    least common denominator.  Always a new array, so freezing it never
    freezes the caller's."""
    mass = list(mass)
    if any(not isinstance(x, Rational) for x in mass):
        raise InvalidInputError("masses must be Fractions or integers")
    fracs = [Fraction(x) for x in mass]
    den = check_denominator(math.lcm(*(f.denominator for f in fracs)))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    if min(nums, default=0) < 0:
        raise InvalidInputError("negative mass")
    if sum(nums) != den:
        raise InvalidInputError("masses must sum to exactly 1")
    return np.array(nums, dtype=np.int64), den
