"""Ground truth: exact worst-case extractor error by flat-source enumeration.

Worst cases over min-entropy-k source classes are attained at flat
sources: the distance to uniform is convex in each source's probability
vector (total variation is convex and the source-to-joint map is linear),
and the min-entropy-k class is the convex hull of the flat k-sources, so
the maximum over the class is reached at an extreme point.  This standard
fact is used without re-proof throughout this module.

All exhaustive paths work in integer arithmetic: with flat supports of
sizes ``K_i`` every probability is an integer count over a common
denominator, so distances reduce to exact int64 sums and the final
error is a ``Fraction``.  The selection rules' products run in float64
BLAS, exact because every sum they form is an integer far below 2**53.

Every worst-case oracle but the sampled two-source one runs one kernel,
``_selected_worst``.  It enumerates (or samples) the supports S2 of one
input, with every leak pattern on them when that input leaks (a leak map
matters only on the support), takes each row x of the other input's cell
excess 2^m #{y in S2 : Ext(x, y) = z} - K2, and lets a selection rule
pick S1; the oracles differ only in that rule.  With S1 hidden, the
distance is the max over output events T of P(Z in T) - |T|/2^m, so per
event the best S1 is the top K1 rows of the excess summed over T (or the
S1 supports are scored, where they are fewer than the events).  A leak
from S1's input needs no patterns: with one output set T_e per leak
value, each row takes its best e first.  With S1 revealed, rows score
sum_cells max(excess, 0): the two-source, leaked and seeded oracles take
the top K1 rows (the seed is the revealed input at full size);
block+general, on rows (x1, x2), per x1 the top K2 of its row scores,
then the top K1 of those sums; multi-source composites, every S1 of the
strong input with fewer supports, then the top K2 of its summed scores.
Ties go to the lowest-rank S2, then to the first candidate scored, then
to the lower row index.  Budgets count the candidates scored; the
bytes of the arrays a request builds, counted from its sizes before any
is built, are capped apart (``SUPPORT_BYTES``).  The two-source, seeded and
leaked oracles share one enumerate-and-select step, ``_side_worst``,
which states their budget, resolves their mode and makes their map-free
choice.  On a square table that has the inner product's GL(n,2)
symmetry, checked before it is relied on, leak-free exhaustive two-source
requests enumerate one or more supports per orbit instead of every
support.

Sampled mode draws random flat supports, all of a path's in one
vectorised sampler (``_sample_supports``), and scores each draw exactly;
the reported error is the largest, attained by its witness: a certified
lower bound on the true worst case, and nothing more is claimed.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dist import (Distribution, check_denominator,
                   column_excess, cond_min_entropy, excess_over_uniform,
                   neg_log2, ratio, row_ids, smooth_cond_min_entropy)
from .errors import BudgetExceededError, InvalidInputError, SizeLimitError
from .extractors import ExtractorHandle
from .leakage import LeakageScenario, enumerate_worlds, leakage_apply

DEFAULT_BUDGET = 20_000_000_000
EXHAUSTIVE_MAP_BITS_CAP = 2  # leakage maps enumerated exhaustively up to e-width 2
CHUNK_ENTRIES = 1 << 14  # int64 entries (or 8x as many bytes) per working array
SUPPORT_TABLE_ENTRIES = 1 << 18  # entries of the largest support table kept
EVENT_ENTRIES = 1 << 18  # largest map-free working array per support
SUPPORT_BYTES = 8 << 24  # largest kernel request's arrays, refused past
OBJECT_BYTES = 16 << 10  # a request's headers, lists and reports beside them
DEFAULT_SAMPLES = 200
GL_SYMMETRY = "GL(n,2)"  # T[Ax, A^-T y] = T[x, y] for every A in GL(n,2)


@dataclass
class OracleReport:
    """Result of one oracle run.

    ``error`` is a Fraction in exhaustive mode (exact) and a float in
    sampled mode, where it is the largest exact error of the draws and
    the witness one draw attaining it.  ``enumerated`` counts the
    configurations of the family searched.  ``wall_time``, ``kernel``,
    ``candidates`` and ``memory_bytes`` are volatile and excluded from
    replay comparisons.
    """

    mode: str
    error: object
    witness: dict = field(default_factory=dict)
    enumerated: int = 0
    wall_time: float = 0.0
    kernel: str = ""  # "events" or "supports": how the selected side was chosen
    candidates: int = 0  # selected-side supports scored exactly
    memory_bytes: int = 0  # the kernel's arrays and objects, counted first
    symmetry: str = ""  # the table symmetry that reduced the enumeration
    representatives: int = 0  # enumerated supports under that reduction

    @property
    def notes(self) -> str:
        return ("sampled max: lower bound on worst case"
                if self.mode == "sampled" else "")

    def to_json_dict(self) -> dict:
        d = {"mode": self.mode, "error": float(self.error),
             "witness": self.witness, "enumerated": self.enumerated,
             "notes": self.notes}
        if isinstance(self.error, Fraction):
            d["error_exact"] = f"{self.error.numerator}/{self.error.denominator}"
        d["volatile"] = {"wall_time": self.wall_time}
        if self.kernel:
            d["volatile"].update(kernel=self.kernel, candidates=self.candidates,
                                 memory_bytes=self.memory_bytes)
        if self.symmetry:
            d["volatile"].update(symmetry=self.symmetry,
                                 representatives=self.representatives)
        return d


# ----------------------------------------------------------------------
# Support enumeration helpers
# ----------------------------------------------------------------------

def _check_k(k, width: int) -> int:
    """``k`` as an int: an entropy level of an input of ``width`` bits."""
    if not 0 <= k <= width or k != int(k):
        raise InvalidInputError(f"oracle entropy levels must be integers in "
                                f"0..{width}, got {k}")
    return int(k)


def _levels(h, k_profile) -> tuple:
    """The support sizes ``2**k`` of ``h``'s inputs at ``k_profile``."""
    if len(k_profile) < h.arity:
        raise InvalidInputError(f"{h.name} takes {h.arity} entropy levels")
    return tuple(1 << _check_k(k, n) for k, n in zip(k_profile, h.input_widths))


def _subsets(space: int, size: int, orbits: bool = False):
    """The ``size``-point supports of ``range(space)`` as a stream of
    tuples: every one, lexicographic, or with ``orbits`` one or more per
    orbit of GL(n,2) on F_2^n = ``range(space)``.  Those are, for each span
    dimension d, the supports inside span(e_1..e_d) = ``range(2^d)`` that
    hold e_1..e_d (the powers of two below 2^d), which come first in each
    tuple.  A support spanning d dimensions holds d independent points,
    and a linear map sending them to e_1..e_d lands it among those."""
    if not orbits:
        return itertools.combinations(range(space), size)
    return itertools.chain.from_iterable(
        map(tuple(1 << i for i in range(d)).__add__, itertools.combinations(
            [v for v in range(1 << d) if v & (v - 1) or not v], size - d))
        for d in range(min(space.bit_length() - 1, size) + 1))


@functools.cache
def _count(space: int, size: int, orbits: bool = False) -> int:
    """The length of ``_subsets(space, size, orbits)``: C(space, size), or
    with ``orbits`` the sum over d of C(2^d - d, size - d)."""
    if not orbits:
        return math.comb(space, size)
    return sum(math.comb((1 << d) - d, size - d)
               for d in range(min(space.bit_length() - 1, size) + 1))


def _subset_table(space: int, K: int, orbits: bool = False) -> np.ndarray:
    """``_subsets(space, K, orbits)`` as a read-only int64 table."""
    rows = _count(space, K, orbits)
    table = np.fromiter(itertools.chain.from_iterable(
        _subsets(space, K, orbits)), np.int64, count=rows * K).reshape(rows, K)
    table.flags.writeable = False
    return table


_support_table = functools.cache(_subset_table)  # once per process


def _supports(space: int, size: int, orbits: bool = False):
    """``_subsets(space, size, orbits)``: the cached table up to
    ``SUPPORT_TABLE_ENTRIES`` entries (2 MiB), the stream past that."""
    if _count(space, size, orbits) * size > SUPPORT_TABLE_ENTRIES:
        return _subsets(space, size, orbits)
    # one cache key per table
    return _support_table(space, size, True) if orbits else _support_table(
        space, size)


def _chunks(supports, space: int, size: int, chunk: int):
    """``size``-point supports as int64 arrays of at most ``chunk`` rows:
    slices of the ``supports`` array, or blocks of its tuples; if None,
    of ``_supports(space, size)``, every support of ``range(space)``."""
    if supports is None:
        supports = _supports(space, size)
    if isinstance(supports, np.ndarray):
        yield from (supports[a:a + chunk] for a in range(0, len(supports), chunk))
        return
    flat = itertools.chain.from_iterable(supports)
    while (block := np.fromiter(itertools.islice(flat, chunk * size),
                                np.int64)).size:
        yield block.reshape(-1, size)


def _gl_generators(n: int) -> tuple:
    """The standard two generators of SL(n,2) = GL(n,2) as value maps ``(A
    x, A^-T y)`` on ``range(2^n)``: the transvection e_1 -> e_1 + e_0 and
    the cyclic shift of the coordinates (A^-T = A); at n = 1 identities."""
    v = np.arange(1 << n)
    shift = (v << 1 | v >> (n - 1)) & v[-1]
    return (v ^ (v >> 1 & 1), (v ^ (v & 1) << 1) & v[-1]), (shift, shift)


def _gl_invariant(table2d) -> bool:
    """Whether T[Ax, A^-T y] = T[x, y] for every A in GL(n,2), on a square
    table of 2^n rows: row x against row Ax read through A^-T for the two
    generators, ``CHUNK_ENTRIES`` entries at a time, to the first mismatch."""
    N, rows = len(table2d), max(1, CHUNK_ENTRIES // len(table2d))
    return all((table2d.take(ax[a:a + rows], axis=0).take(ay, axis=1)
                == table2d[a:a + rows]).all()
               for ax, ay in _gl_generators(N.bit_length() - 1)
               for a in range(0, N, rows))


def _fit(**arrays) -> int:
    """The total of ``arrays``, the bytes of each array a kernel request
    will build, counted from its sizes before any is built (and
    ``OBJECT_BYTES`` for the array headers, lists and reports beside
    them), if at most ``SUPPORT_BYTES``: budgets bound the steps, this the
    memory."""
    total = sum(arrays.values())
    if total > SUPPORT_BYTES:
        parts = ", ".join(f"{name} {size}" for name, size in arrays.items())
        raise SizeLimitError(f"the kernel's arrays need an estimated {total} "
                             f"bytes ({parts}), the cap is {SUPPORT_BYTES}")
    return total


def _philox(key: int) -> np.random.Generator:
    """A Generator on Philox(key=key), the one constructor of a seeded
    stream; a key outside 0 ... 2^128 - 1 is invalid input."""
    if not 0 <= key < 1 << 128:
        raise InvalidInputError(f"a seed and its stream key must be in "
                                f"0 ... 2^128 - 1, not {key}")
    return np.random.default_rng(np.random.Philox(key=key))


def _sample_supports(space: int, size: int, samples: int, rng) -> np.ndarray:
    """``samples`` uniform ``size``-point supports of ``range(space)`` as
    ascending rows of an int64 array, drawn from the Generator ``rng``.
    One ``integers`` call draws every row's points; each row keeps its
    distinct values, and one call per round redraws the missing ones of
    every short row, in row order.  Each row is thus the first ``size``
    distinct values of a uniform stream, which form a uniform support.
    Past half the space the rows are the complements of drawn supports."""
    if samples < 1:
        raise InvalidInputError("sampled mode needs samples >= 1")
    drawn = min(size, space - size)
    rows = np.sort(rng.integers(0, space, size=(samples, drawn)), axis=1)
    short = np.arange(samples)
    while True:
        repeat = np.zeros((len(short), drawn), bool)
        repeat[:, 1:] = rows[short, 1:] == rows[short, :-1]
        keep = repeat.any(axis=1)
        short, repeat = short[keep], repeat[keep]
        if not len(short):
            break
        redrawn = rows[short]
        redrawn[repeat] = rng.integers(0, space, size=int(repeat.sum()))
        rows[short] = np.sort(redrawn, axis=1)
    if drawn == size:
        return rows
    free = np.ones((samples, space), bool)
    free[np.arange(samples)[:, None], rows] = False
    return np.nonzero(free)[1].reshape(samples, size)


def _leak_maps(maps, b: int, widths=()):
    """``(maps, b)`` of a leak family: with no ``maps``, every ``b``-bit
    pattern (``b`` capped); else ``maps`` as given, in one int64 array of
    1-D integer maps >= 0 over the whole domain of the leaking inputs (of
    ``widths`` bits), with ``b`` widened to the bits that a map's distinct
    values need once relabelled densely (only its partition matters)."""
    if b < 0:
        raise InvalidInputError(f"leak width b must be >= 0, got {b}")
    if maps is None:
        if b > EXHAUSTIVE_MAP_BITS_CAP:
            raise InvalidInputError(
                f"exhaustive leakage families cap e-width at "
                f"{EXHAUSTIVE_MAP_BITS_CAP}; pass an explicit map list instead")
        return None, b
    arrays = [np.asarray(f) for f in maps]
    shapes = {a.shape for a in arrays} | {(1 << w,) for w in widths}
    if not arrays or len(shapes) > 1 or len(arrays[0].shape) != 1 or not all(
            a.dtype.kind in "iu" and a.size and a.min() >= 0 for a in arrays):
        raise InvalidInputError(
            "leak maps must be a non-empty list of integer arrays >= 0 over "
            "the leaking input's domain (name one input in leak_sources "
            "when their widths differ)")
    maps = np.array(arrays, dtype=np.int64)
    return maps, max(b, (max(len(np.unique(f)) for f in maps) - 1).bit_length())


def _leak_patterns(b: int, size: int) -> np.ndarray:
    """Every ``b``-bit leak value assignment to ``size`` support elements,
    in lexicographic order, as a (2^(b*size), size) array."""
    codes = np.arange(1 << (b * size), dtype=np.int64)[:, None]
    return (codes >> (b * np.arange(size - 1, -1, -1))) & ((1 << b) - 1)


def _cell_indicator(table2d, M: int, dtype) -> np.ndarray:
    """Excess rows by column, of ``dtype``: entry (y, z*rows + x) is M - 1
    if T[x, y] = z, else -1, which column y with leak e adds to the cells
    (z, e) of ``_cell_excess``."""
    rows, cols = table2d.shape
    ind = np.full((cols, M, rows), -1, dtype)
    for z in range(M):  # one table-sized mask at a time
        ind[:, z][table2d.T == z] = M - 1
    return ind.reshape(cols, M * rows)


def _onehot(supports, space: int) -> np.ndarray:
    """0/1 float64 rows marking each of the ``supports`` (rows of an
    array), for BLAS products: every sum of integer scores they take is
    an integer far below 2**53, so exact."""
    idx = np.asarray(supports, dtype=np.int64).reshape(len(supports), -1)
    hot = np.zeros((len(idx), space))
    np.put_along_axis(hot, idx, 1, axis=1)
    return hot


def _top_index(score, K: int) -> list:
    """Ascending indices of the ``K`` largest entries of a 1-D ``score``;
    ties go to the lower index."""
    return sorted(np.argsort(-score, kind="stable")[:K].tolist())


def _top_sums(score, K: int, *, overwrite: bool = False) -> np.ndarray:
    """int64 sums of the ``K`` largest entries along the last axis of
    ``score``, partitioned in a copy, or in place with ``overwrite``.
    Integers are summed in int64; floats (integers far below 2**53, so
    exact) by one BLAS product with ones, several times faster than
    numpy's sum over a short axis, and with no cast copy of ``score``."""
    X = score.shape[-1]
    part = score if overwrite else score.copy()
    part.partition(X - K, axis=-1)
    top = part[..., X - K:]
    return (top @ np.ones(K) if top.dtype.kind == "f" else
            top.sum(-1)).astype(np.int64, copy=False)


def _clip(x) -> np.ndarray:
    """``max(x, 0)`` in place, against a row of zeros: numpy's int8 and
    int16 ``maximum`` runs several times slower against a scalar."""
    return np.maximum(x, np.zeros(x.shape[-1:], x.dtype), out=x)


def _scores(excess) -> np.ndarray:
    """Row scores sum_cells max(excess, 0), clipping ``excess`` in place,
    in the smallest signed type that holds cells x the excess type's max."""
    top = excess.shape[-2] * int(np.iinfo(excess.dtype).max)
    return _clip(excess).sum(-2, np.min_scalar_type(-top))


def _cell_excess(ind, block, leak, M: int, B: int):
    """Per-cell excess of the configurations (support in ``block`` (c, K),
    leak row in ``leak`` (c or 1, P, K)), support-major: each support
    element adds its row of ``ind`` to the cells of its leak value, in
    ``ind``'s type, which holds every sum of K rows.  Entry ``[i, z + M*e,
    x]`` is M #{y in S : T[x, y] = z, leak e} - #{y in S : leak e}."""
    c, P = len(block), leak.shape[1]
    cnt = np.zeros((c, P, B, ind.shape[1]), ind.dtype)
    if B > 1:  # (c or 1, P, B, K): 1 where the element's leak value is e
        hot = (leak[..., None, :] == np.arange(B)[:, None]).astype(ind.dtype)
    for j in range(block.shape[1]):
        row = ind[block[:, j], None, None]
        cnt += row if B == 1 else hot[..., j, None] * row
    return cnt.reshape(c * P, B * M, -1)


def _event_rule(rows: int, K1: int, J: int, B: int = 1):
    """Marginal selection rule on ``J`` cells with a leak of ``B`` values
    from the selected input (``B=1``: none).  Per event T = (T_e) of ``B``
    distinct cell sets (a repeat never scores more; for ``B=1`` neither
    the empty nor the full set, which score 0), each row takes its best e,
    scored by its excess summed over T_e, and the top K1 rows give S1.
    With ``B > 1`` a pick is S1 and its leak map, 0 off S1.  The events
    are built by the rule's ``build``, once the kernel has counted them,
    and scored in one float64 product with the excess.

    For ``B=1`` the events come in complement pairs: code c (event c - 1)
    and 2^J - 1 - c (event E - c), and a row's excesses sum to 0 over the
    cells (over each leak value's cells, on the leak-pattern path), so T's
    complement scores -T's.  Only codes 1 .. E/2 are built and scored;
    one row sort of that half gives T's top K1 sum and, negated, its
    bottom K1 sum: the complement's top.  The values keep the event
    order.  Its work is the half product, sorted in place, beside the
    excess as floats and then beside every event's sum, as floats and
    int64; with ``B > 1`` the product and one (event, row) array beside
    it (the excess as floats has J <= E rows).  What it holds is the
    int64 codes of the events it scores and, at once, their cells as
    int64 bits and as floats."""
    W = min(B, 1 << J)  # cell sets per event
    E = (1 << J) - 2 if B == 1 else math.comb(1 << J, W)
    H = E // 2 if B == 1 else E  # the events scored

    def build():
        codes = np.arange(1, H + 1)[:, None] if B == 1 else np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(
                range(1 << J), W)), np.int64, E * W).reshape(E, W)
        bits = codes[..., None] >> np.arange(J)
        bits &= 1
        # (event, e, cell) as float64, for one BLAS product: every sum of
        # excesses is an integer far below 2**53
        flat = bits.reshape(-1, J) * 1.0
        score = lambda ex: (flat @ ex.astype(float)).reshape(-1, H, W, rows)

        def paired(ex):  # (c, E): the top sums, then the complements'
            s = score(ex)[:, :, 0]
            s.sort(axis=-1)
            ones = np.ones(K1)  # sums as in _top_sums, into one array
            out = np.empty((len(s), E))
            np.matmul(s[..., rows - K1:], ones, out=out[:, :H])
            np.matmul(s[:, ::-1, :K1], ones, out=out[:, H:])
            np.negative(out[:, H:], out=out[:, H:])
            return out.astype(np.int64)

        def pick(ex, q):
            if B == 1:  # event q's row scores, or its complement's negated
                return _top_index(score(ex)[0, q, 0] if q < H else
                                  -score(ex)[0, E - 1 - q, 0], K1)
            s = score(ex)[0, q]
            s1 = _top_index(s.max(axis=0), K1)
            return s1, np.bincount(s1, s[:, s1].argmax(axis=0),
                                   rows).astype(int).tolist()
        return (paired if B == 1 else
                lambda ex: _top_sums(score(ex).max(axis=2), K1), pick)
    work = H * rows + max(J * rows, 2 * E) if B == 1 else E * (W + 1) * rows
    return build, work, H * W * (2 * J + 1) * 8


def _selected_worst(table2d, Ks, m, strong, enum=1, *, supports1=None,
                    supports2=None, b=0, maps=None, rule=None, samples=None,
                    seed=0):
    """Worst case over supports S2 of input ``enum`` (the ``supports2``
    int64 array or stream of tuples; default all), leak rows on S2 (every
    ``b``-bit pattern, or the rows of the ``maps`` array, relabelled
    densely) and supports S1 of the other input, which ``strong`` (None or
    its index) may reveal, chosen by a selection rule (``rule``, by default
    the top K1 rows, per event if hidden).  A rule is (build, work, held):
    ``build()`` gives (values, pick), from (configurations, cells, rows)
    excess to (configurations, candidates) numerators and from one
    configuration's excess and a candidate to its selection; ``work``
    counts its 8-byte working entries (int64 or float64) per configuration
    and ``held`` the bytes of the arrays ``build`` makes.  Those, the
    indicator, the supports, one chunk's working arrays and the objects
    beside them must ``_fit`` before any of them is built.
    Returns ``(report, supports, leak_map or None)``; given ``samples``,
    S2 is that many random supports drawn from ``Philox(seed)``, and the
    report is sampled: the best draw's error as a float."""
    if enum == 0:
        table2d = table2d.T
    K1, K2 = Ks[1 - enum], Ks[enum]
    rows, cols = table2d.shape
    M = 1 << m
    B, P = 1 << b, 1 << b * K2 if maps is None else len(maps)
    J, cells, kernel = M * B, rows, "events"
    if rule is not None:
        pass  # the caller's selection rule
    elif K1 == rows:  # one S1, every row
        if strong is None:  # counted as a single row
            kernel, cells = "supports", 1
        rule = (lambda: (
            lambda ex: _clip(ex).sum(axis=(1, 2))[:, None],
            lambda ex, q: list(range(rows))), 0, 0)
    elif strong is not None:
        rule = (lambda: (lambda ex: _top_sums(_scores(ex), K1)[:, None],
                         lambda ex, q: _top_index(_scores(ex), K1)), 0, 0)
    elif supports1 is None and 1 << J <= math.comb(rows, K1):
        rule = _event_rule(rows, K1, J)
    else:
        kernel = "supports"
        S1s = math.comb(rows, K1) if supports1 is None else len(supports1)

        def build(s1=supports1):
            s1 = _subset_table(rows, K1) if s1 is None else s1
            hot = _onehot(s1, rows).T

            def values(ex):  # the excess as floats, one BLAS product
                sums = ex.astype(float) @ hot
                return np.maximum(sums, 0.0, out=sums).sum(1).astype(np.int64)
            return values, lambda ex, q: s1[q].tolist()
        # work: the product beside the excess as floats, then beside its
        # sums as floats and int64
        rule = build, J * S1s + max(J * rows, 2 * S1s), S1s * (rows + K1) * 8
    build, work, held = rule
    dtype = np.min_scalar_type(-K2 * M)  # holds every count of K2 rows
    item = 8 if cells == 1 else dtype.itemsize  # the excess's, in bytes
    chunk = max(1, 8 * CHUNK_ENTRIES // (P * max(J * cells * item, 8 * work)))
    S2s = samples or math.comb(cols, K2)  # drawn, or at most one table
    memory = _fit(  # the indicator with its mask; the excess, an addend
        indicator=cols * rows * (M * dtype.itemsize + 1), rule=held,
        supports=8 * K2 * (S2s if samples else min(
            S2s, SUPPORT_TABLE_ENTRIES // K2)),
        chunk=min(chunk, S2s) * P * (2 * J * cells * item + 8 * work),
        objects=OBJECT_BYTES)
    ind = _cell_indicator(table2d, M, dtype)
    if cells == 1:
        ind = ind.reshape(cols, M, rows).sum(axis=2)
    values, pick = build()
    pats = _leak_patterns(b, K2)[None] if maps is None else None
    best, configs, cands = None, 0, 0
    if samples is not None:
        supports2 = _sample_supports(cols, K2, samples, _philox(seed))
    dense = maps if maps is None else np.array(
        [np.unique(f, return_inverse=True)[1] for f in maps])
    for block in _chunks(supports2, cols, K2, chunk):
        leak = pats if maps is None else dense[:, block].transpose(1, 0, 2)
        excess = _cell_excess(ind, block, leak, M, B)
        vals = values(excess)
        configs, cands = configs + len(vals), cands + vals.size
        i = int(np.argmax(vals))
        if best is None or vals.flat[i] > best[0]:
            ci, q = divmod(i, vals.shape[1])
            best = (int(vals.flat[i]), block[ci // P], ci % P, excess[ci], q)
    num, s2, p, ex, q = best
    err = Fraction(num, K1 * K2 << m)
    rep = OracleReport("exhaustive", err, enumerated=configs, kernel=kernel,
                       candidates=cands, memory_bytes=memory)
    if samples is not None:
        rep.mode, rep.error = "sampled", float(err)
    leak_map = (maps[p].tolist() if maps is not None else None if not b else
                np.bincount(s2, pats[0, p], minlength=cols).astype(int).tolist())
    supports = [pick(ex, q), s2.tolist()]
    return rep, supports if enum else supports[::-1], leak_map


def _side_worst(h, Ks, strong, enum, mode, budget, what, *, b=0, maps=None,
                samples=DEFAULT_SAMPLES, seed=0, seed1=0, pairs=False):
    """One two-input request on the kernel: input ``enum`` is enumerated
    with its leak rows (every ``b``-bit pattern on its support, or the
    rows of the ``maps`` array) and the other input is selected, revealed
    when ``strong`` (None or its index).  The budget counts the
    candidates the selection scores.  A marginal leak of the default
    family runs map-free where that scores fewer: the other input is
    enumerated, and ``_event_rule`` selects the leaking support and its
    map.  Sampled, the enumerated supports are drawn from ``Philox(seed)``
    and, if marginal, the selected ones from ``Philox(seed1)``; with
    ``pairs``, ``_two_source_sampled`` scores random pairs instead.
    Returns ``(report, supports, leak_map or None)``; an exhaustive
    report's ``enumerated`` counts the family searched.

    A leak-free two-source request on a square table enumerates one or
    more supports per orbit of GL(n,2), ``_subsets(..., orbits=True)``,
    where their candidates fit the budget of an exhaustive or auto run,
    the check reads fewer table entries than the supports it skips, and
    ``_gl_invariant`` finds T[Ax, A^-T y] = T[x, y] for every A in
    GL(n,2), as the inner product's table satisfies.  (Ax, A^-T y)
    relabels both inputs' values, and the selected input ranges over all
    its rows, so the worst case at an enumerated support is constant on
    its orbit.  ``candidates`` counts those supports' candidates.  Every
    other request, a refused one included, states the plain count: the
    check is not run on a table the request will not read."""
    X, sel = [1 << w for w in h.input_widths], 1 - enum
    M, B = 1 << h.m, 1 << b
    family = math.comb(X[enum], Ks[enum]) * (
        B ** Ks[enum] if maps is None else len(maps))
    S1s, J = math.comb(X[sel], Ks[sel]), M * B
    per = (1 if strong is not None else
           (1 << J) - 2 if 1 << J <= S1s else S1s)  # candidates per support
    required = family * per
    free = 0  # map-free candidates: S1s x output events (T_e)
    if strong is None and maps is None and b:
        events = math.comb(1 << M, min(B, 1 << M))
        if events * min(B, 1 << M) * X[enum] <= EVENT_ENTRIES:
            free = S1s * events
    mapfree = 0 < free <= required
    reps = 0  # enumerated supports, one or more per GL(n,2) orbit
    if (h.kind == "2-source" and X[0] == X[1] and not b and maps is None
            and mode in ("exhaustive", "auto")):
        count = _count(X[enum], Ks[enum], orbits=True)
        # the check reads 2 * 2^n rows, a skipped support K, of 2^n entries
        if (count * per <= budget
                and 2 * X[enum] < (family - count) * Ks[enum]):
            reps = count if _gl_invariant(h.table().reshape(X)) else 0
    mode = "exhaustive" if reps else _resolve_mode(
        mode, free if mapfree else required, budget, what)
    if mode == "sampled" and pairs:
        return _two_source_sampled(h, Ks, strong, samples, seed)
    table2d = h.table().reshape(X)
    if reps:  # a witness support is a representative, listed ascending
        rep, supports, _ = _selected_worst(
            table2d, Ks, h.m, strong, enum,
            supports2=_supports(X[enum], Ks[enum], orbits=True))
        supports[enum] = sorted(supports[enum])
        rep.enumerated, rep.symmetry, rep.representatives = (
            family, GL_SYMMETRY, reps)
        return rep, supports, None
    if mode == "exhaustive" and mapfree:
        rep, supports, _ = _selected_worst(
            table2d, Ks, h.m, None, sel,
            rule=_event_rule(X[enum], Ks[enum], M, B))
        supports[enum], leak_map = supports[enum]
        rep.enumerated = family
        return rep, supports, leak_map
    supports1 = None
    if mode == "sampled" and strong is None and Ks[sel] < X[sel]:
        supports1 = _sample_supports(X[sel], Ks[sel], samples, _philox(seed1))
    return _selected_worst(table2d, Ks, h.m, strong, enum,
                           supports1=supports1, b=b, maps=maps,
                           samples=None if mode == "exhaustive" else samples,
                           seed=seed)


def _resolve_mode(mode: str, required: int, budget: int, what: str) -> str:
    """The mode an ``auto`` request runs in; an exhaustive run of
    ``what`` must fit the budget."""
    if mode == "auto":
        mode = "exhaustive" if required <= budget else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise InvalidInputError("mode must be exhaustive, sampled or auto")
    if mode == "exhaustive" and required > budget:
        raise BudgetExceededError(required, budget, what)
    return mode


# ----------------------------------------------------------------------
# Two-source worst case
# ----------------------------------------------------------------------

def worst_case_error_2source(h: ExtractorHandle, k1, k2,
                             strong: int | None = None, *,
                             mode: str = "exhaustive",
                             samples: int = DEFAULT_SAMPLES,
                             seed: int = 0,
                             workers: int = 1,
                             budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Worst-case (optionally strong) error over independent flat sources.

    Parameters
    ----------
    strong : int or None
        0 or 1 to measure the error jointly with that input revealed,
        None for the marginal error.
    mode : str
        ``"exhaustive"``, ``"sampled"``, or ``"auto"`` (exhaustive when
        the enumeration fits the budget).
    workers : int
        Accepted for compatibility; the computation runs in this process.
    """
    if h.arity != 2:
        raise InvalidInputError("worst_case_error_2source needs a 2-input handle")
    if strong not in (None, 0, 1):
        raise InvalidInputError(f"strong must be None, 0 or 1, not {strong!r}")
    Ks, t0 = _levels(h, (k1, k2)), time.perf_counter()
    rep, supports, _ = _side_worst(
        h, Ks, strong, 0 if strong == 1 else 1, mode, budget,
        "two-source enumeration", samples=samples, seed=seed, pairs=True)
    rep.witness = {"supports": supports, "strong": strong}
    rep.wall_time = time.perf_counter() - t0
    return rep


def _two_source_sampled(h, Ks, strong, samples, seed):
    """Max of the exact distances of ``samples`` random flat pairs, with
    the last maximal draw as witness.  Per chunk of draws, one bincount
    over (draw, group, z) keys counts each draw's K1 x K2 outputs, the
    group being the revealed input's position (0 if none)."""
    (n1, n2), (K1, K2) = h.input_widths, Ks
    rng = _philox(seed)
    s1 = _sample_supports(1 << n1, K1, samples, rng)  # every S1, then every S2
    s2 = _sample_supports(1 << n2, K2, samples, rng)
    table = h.table()
    M, G = 1 << h.m, 1 if strong is None else Ks[strong]
    group = 0 if strong is None else M * np.indices(Ks)[strong]
    per, nums = max(1, CHUNK_ENTRIES // (K1 * K2 + G * M)), []
    for a in range(0, samples, per):
        z = table[(s1[a:a + per, :, None] << n2) + s2[a:a + per, None, :]]
        keys = z + group + G * M * np.arange(len(z))[:, None, None]
        cnt = np.bincount(keys.ravel(), minlength=len(z) * G * M)
        nums += np.maximum(M * cnt.reshape(len(z), -1) - K1 * K2 // G, 0
                           ).sum(axis=1).tolist()
    i = samples - 1 - int(np.argmax(nums[::-1]))
    return (OracleReport("sampled", nums[i] / (K1 * K2 * M), enumerated=samples),
            [s1[i].tolist(), s2[i].tolist()], None)


# ----------------------------------------------------------------------
# Seeded worst case
# ----------------------------------------------------------------------

def worst_case_error_seeded(h: ExtractorHandle, k, strong: bool = True, *,
                            mode: str = "exhaustive",
                            samples: int = DEFAULT_SAMPLES,
                            seed: int = 0,
                            budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Worst-case seeded-extractor error over flat k-sources.

    Strong mode averages the per-seed distance (equivalently: joint with
    the seed revealed); non-strong measures the output marginal alone.
    """
    if h.kind != "seeded":
        raise InvalidInputError("worst_case_error_seeded needs a seeded handle")
    t0 = time.perf_counter()
    rep = _seeded_worst(h, _check_k(k, h.input_widths[0]), 0, strong, None,
                        mode, samples, seed, budget)
    rep.wall_time = time.perf_counter() - t0
    return rep


# ----------------------------------------------------------------------
# One-sided leakage families
# ----------------------------------------------------------------------

def worst_case_error_leaked(h: ExtractorHandle, k_profile,
                            b: int = 1, strong=None, *,
                            maps: Sequence[np.ndarray] | None = None,
                            leak_sources: Iterable[int] | None = None,
                            mode: str = "exhaustive",
                            samples: int = DEFAULT_SAMPLES,
                            seed: int = 0,
                            budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Worst case over flat sources AND one-sided deterministic leaks.

    The family ranges over a choice of leaking source and every
    deterministic map from that source to ``b`` bits (or an explicit
    ``maps`` list of integer arrays >= 0, one entry per value of the
    leaking input).  ``b=0`` degenerates to the leak-free oracle.

    For a seeded handle the leak is taken from the source; ``strong``
    then means jointly with the seed.  For a 2-source handle ``strong``
    is an input index as in :func:`worst_case_error_2source`, and
    ``leak_sources`` (default both, repeats once) names the inputs that
    may leak.
    """
    if len(k_profile) < h.arity:
        raise InvalidInputError(f"{h.name} takes {h.arity} entropy levels")
    if b == 0 and maps is None:  # the leak-free oracle
        kw = dict(mode=mode, samples=samples, seed=seed, budget=budget)
        if h.kind == "seeded":
            return worst_case_error_seeded(h, k_profile[0], bool(strong), **kw)
        return worst_case_error_2source(h, *k_profile[:2], strong, **kw)
    t0 = time.perf_counter()
    if h.kind == "seeded":
        maps, b = _leak_maps(maps, b, h.input_widths[:1])
        rep = _seeded_worst(h, _check_k(k_profile[0], h.input_widths[0]), b,
                            bool(strong), maps, mode, samples, seed, budget)
    elif h.arity == 2:
        leak_sources = list(dict.fromkeys((0, 1) if leak_sources is None
                                          else leak_sources))
        if not set(leak_sources) <= {0, 1}:
            raise InvalidInputError(f"leak_sources name inputs 0 and 1, "
                                    f"not {leak_sources}")
        maps, b = _leak_maps(maps, b, [h.input_widths[i] for i in leak_sources
                                       if i != strong])
        rep = _leaked_2source(h, k_profile, b, strong, maps, leak_sources,
                              mode, samples, seed, budget)
    else:
        raise InvalidInputError(
            "leaked worst case supports seeded and 2-source handles; "
            "use worst_case_error_multi for composites")
    rep.wall_time = time.perf_counter() - t0
    return rep


def _seeded_worst(h, k, b, strong, maps, mode, samples, seed, budget):
    """Seeded worst case: the source is the enumerated input, with its
    leak rows (``b=0`` and no ``maps``: leak-free), and the seed the
    selected input at full size, revealed when ``strong``."""
    leaky = b > 0 or maps is not None
    rep, (s, _), leak_map = _side_worst(
        h, (1 << k, 1 << h.input_widths[1]), 1 if strong else None, 0, mode,
        budget, "leaked seeded enumeration" if leaky else "seeded enumeration",
        b=b, maps=maps, samples=samples, seed=seed)
    rep.witness = {"support": s}
    if leaky:
        rep.witness.update(leak_map=leak_map, leak_source=0, e_width=b)
    return rep


def _leaked_2source(h, k_profile, b, strong, maps, leak_sources,
                    mode, samples, seed, budget):
    """The leak-free baseline, then each unrevealed leaking input as the
    enumerated input of ``_side_worst``, its sampled supports drawn from
    ``Philox(seed ^ 0xA1)`` and, if marginal, the other input's from
    ``Philox(seed ^ 0xB2)``."""
    Ks = _levels(h, k_profile)
    baseline = worst_case_error_2source(
        h, *k_profile[:2], strong, mode=mode, samples=samples, seed=seed,
        budget=budget)
    best_err = Fraction(baseline.error)
    best_wit = {**baseline.witness, "leak_map": None}
    total, cands, memory, kernels = (baseline.enumerated, baseline.candidates,
                                     baseline.memory_bytes, {baseline.kernel})
    exhaustive = baseline.mode == "exhaustive"
    for i_star in leak_sources:
        if i_star == strong:
            # E is a function of the conditioned input: identical to b=0.
            continue
        rep, supports, leak_map = _side_worst(
            h, Ks, strong, i_star, mode, budget, "leaked two-source enumeration",
            b=b, maps=maps, samples=samples, seed=seed ^ 0xA1,
            seed1=seed ^ 0xB2)
        exhaustive &= rep.mode == "exhaustive"
        total, cands = total + rep.enumerated, cands + rep.candidates
        memory = max(memory, rep.memory_bytes)
        kernels.add(rep.kernel)
        if rep.error > best_err:
            best_err = rep.error
            best_wit = {"supports": supports, "leak_map": leak_map,
                        "leak_source": i_star, "strong": strong}
    return OracleReport("exhaustive" if exhaustive else "sampled",
                        best_err if exhaustive else float(best_err),
                        witness=best_wit, enumerated=total, candidates=cands,
                        kernel=max(kernels),  # "supports" > "events" > none
                        memory_bytes=memory)


# ----------------------------------------------------------------------
# Three-input composites, strong on the first two inputs: the kernel on
# rows (x1, x2) against X3, under a selection rule of their own
# ----------------------------------------------------------------------

def worst_case_error_multi(h: ExtractorHandle, k_profile, *, b: int = 0,
                           mode: str = "exhaustive",
                           budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Worst-case strong error of a 3-input handle, strong on inputs {0,1}.

    Covers composed multi-source extractors at desk scale: the error is
    measured jointly with the two strong inputs (and the leak register
    when ``b > 0``, enumerating one-sided leaks from every source; a leak
    from a strong input adds nothing).  S3 and every leak pattern on it
    are enumerated, then every support of the strong input with fewer
    supports, and the other strong support is an exact top-K selection.
    """
    if h.arity != 3:
        raise InvalidInputError("worst_case_error_multi handles 3 inputs")
    X1, X2, X3 = (1 << n for n in h.input_widths)
    K1, K2, K3 = _levels(h, k_profile)
    _leak_maps(None, b)
    t0 = time.perf_counter()
    tbl = h.table().reshape(X1, X2, X3)
    # (S3, leak pattern on S3, support of the input with fewer) triples
    required = math.comb(X3, K3) * (1 << b) ** K3 * min(math.comb(X1, K1),
                                                       math.comb(X2, K2))
    if _resolve_mode(mode, required, budget,
                     "multi-source enumeration") != "exhaustive":
        raise InvalidInputError(
            "the multi-source oracle is exhaustive-only; shrink the instance")
    swap = math.comb(X2, K2) < math.comb(X1, K1)
    if swap:
        tbl, X1, X2, K1, K2 = tbl.transpose(1, 0, 2), X2, X1, K2, K1
    S1s = math.comb(X1, K1)

    def build():  # every S1, listed once the kernel has counted them
        supports1 = _subset_table(X1, K1)
        hot1 = _onehot(supports1, X1)
        # per S1 the summed row scores, as floats: one BLAS product
        sums = lambda ex: hot1 @ _scores(ex).reshape(-1, X1, X2).astype(float)
        return (lambda ex: _top_sums(sums(ex), K2, overwrite=True),
                lambda ex, q: [supports1[q].tolist(),
                               _top_index(sums(ex)[0, q], K2)])
    # work: the row scores as integers and floats, then the product beside
    # the floats, then the product (partitioned in place, as a copy would
    # be counted and shrink the chunks) beside its top sums as floats and
    # int64
    work = max(2 * X1 * X2, S1s * X2 + max(X1 * X2, 2 * S1s))
    rep, (s12, s3), leak_map = _selected_worst(  # rule: per S1, the top K2
        tbl.reshape(X1 * X2, X3), (K1 * K2, K3), h.m, 0, b=b,
        rule=(build, work, S1s * (X1 + K1) * 8))
    rep.enumerated = rep.candidates  # (S3, leak pattern, S1) triples
    rep.witness = {"supports": (s12[::-1] if swap else s12) + [s3],
                   "leak_map": None}
    if any(leak_map or ()):  # pattern 0 is the leak-free case
        rep.witness.update(leak_map=leak_map, leak_source=2)
    rep.wall_time = time.perf_counter() - t0
    return rep


def worst_case_error_block_general(h: ExtractorHandle, k_profile, *,
                                   mode: str = "exhaustive",
                                   samples: int = DEFAULT_SAMPLES,
                                   seed: int = 0,
                                   budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Worst-case strong error over (block source (X1,X2)) x (flat X3).

    The block source class is: X1 flat with min-entropy k1, and for every
    prefix x1 an arbitrary flat k2 conditional support for X2.  Because
    the strong distance is an average of per-(x1,x2) values, the worst
    block source picks, per x1, the K2 conditional values with the
    largest contribution, then the K1 prefixes with the largest row
    scores; both selections are exact, so only X3's support is
    enumerated (or sampled).  Witness supports are in ascending order.
    """
    if h.arity != 3:
        raise InvalidInputError("block+general oracle handles 3 inputs")
    X1, X2, X3 = (1 << n for n in h.input_widths)
    K1, K2, K3 = _levels(h, k_profile)
    t0 = time.perf_counter()
    tbl = h.table().reshape(X1 * X2, X3)
    mode = _resolve_mode(mode, math.comb(X3, K3), budget,
                         "block+general enumeration")

    def pick(ex, q):  # {x1: its x2 support}, ascending
        row = _scores(ex).reshape(X1, X2)
        return {x1: _top_index(row[x1], K2)
                for x1 in _top_index(_top_sums(row, K2), K1)}
    rep, (x2s, s3), _ = _selected_worst(
        tbl, (K1 * K2, K3), h.m, 0, rule=(lambda: (lambda ex: _top_sums(
            _top_sums(_scores(ex).reshape(-1, X1, X2), K2), K1)[:, None],
            pick), 0, 0),
        samples=None if mode == "exhaustive" else samples, seed=seed)
    rep.witness = {"x1_support": list(x2s), "x2_conditional_supports": x2s,
                   "x3_support": s3}
    rep.wall_time = time.perf_counter() - t0
    return rep


# ----------------------------------------------------------------------
# Exact distance of a fixed instance (with optional leakage)
# ----------------------------------------------------------------------

def exact_distance(h: ExtractorHandle, sources: Sequence, *,
                   strong: Iterable[int] = (),
                   scenario: LeakageScenario | None = None,
                   shared: Distribution | None = None) -> Fraction:
    """Exact distance of (output, strong inputs, leak register) from
    uniform x rest, for one fixed tuple of source distributions.

    ``sources`` may hold Distributions or FlatSources; the result is a
    Fraction.
    """
    dists = [s.to_distribution() if hasattr(s, "to_distribution")
             else s for s in sources]
    if len(dists) != h.arity:
        raise InvalidInputError(f"{h.name} takes {h.arity} inputs")
    strong = sorted(set(strong))
    if any(not 0 <= i < h.arity for i in strong):
        raise InvalidInputError(f"strong indices name inputs 0.."
                                f"{h.arity - 1}, not {strong}")
    den, weights, xs, _, es = enumerate_worlds(dists, scenario, shared)
    if (xs >> np.array(h.input_widths)).any():
        raise InvalidInputError(f"a source value exceeds its input width "
                                f"{h.input_widths}")
    z = h.gather(*xs.T)
    rest = [xs[:, i] for i in strong] + list(es.T)
    return ratio(column_excess(weights, z, rest, h.m), den << h.m)


# ----------------------------------------------------------------------
# Monte-Carlo distance estimation
# ----------------------------------------------------------------------

BOOTSTRAP_RESAMPLES = 200
CI_LEVEL = 0.99


@dataclass
class MCReport:
    estimate: float
    ci: tuple
    n: int
    m: int
    tol: float
    draws: int = 0        # runs drawn over all resamples (volatile)
    lone_groups: int = 0  # rest groups holding one cell (volatile)
    seconds: float = field(default=0.0, compare=False)  # volatile

    @property
    def half_width(self) -> float:
        return (self.ci[1] - self.ci[0]) / 2.0

    def to_json_dict(self):
        return {"estimate": self.estimate, "ci_99": list(self.ci),
                "half_width": self.half_width, "samples": self.n,
                "part_width": self.m, "tolerance": self.tol}


def mc_distance_pairs(keys: np.ndarray, m: int, *, tol: float,
                      seed: int = 0) -> MCReport:
    """Plug-in total-variation estimate against uniform-on-part, and its
    bootstrap spread ``ci``, not a confidence interval for the distance:
    the 99% level's tail percentiles of 200 resamples, interpolated as
    numpy's default ("linear") method interpolates them.

    ``keys``: a 1-D integer array of ``rest_id << m | part_value``, one per
    sample (n), for an integer ``m >= 0``; rest ids and cells (distinct
    keys) dense in order of first appearance, as
    :func:`~extractomat.dist.row_ids` numbers them, else
    :class:`InvalidInputError`.  A resample's cell counts are
    Multinomial(n, counts / n), drawn in two steps.  A cell alone in its
    rest group scores ``(2**m - 1) * count``, so the lone cells need only
    their total: each resample first draws how many of its n samples fall
    in the S shared cells, N ~ Binomial(n, W / n) for the W samples held
    there (all 200 N at once; N = W undrawn where W is 0 or n), then
    those cells' counts, Multinomial(N, held / W): N int32 indices over
    the W shared samples in sample order where ``W <= 4 * S``, else one
    multinomial over the S cells; the lone cells add ``(2**m - 1) * (n -
    N)``.  Without lone cells these are the draws of one step over all
    cells, and a stream read in chunks is the stream read whole.  A chunk
    takes the bytes of about ``CHUNK_ENTRIES`` int64 entries (a row's
    indices number W on average) and is scored in one
    :func:`excess_over_uniform` call.  ``draws`` counts the N,
    ``lone_groups`` the groups of one cell, and ``seconds`` times the
    call.  Needs n >= 100 * 2**m / tol**2.
    """
    t0, keys = time.perf_counter(), np.asarray(keys)
    if (keys.ndim != 1 or keys.dtype.kind not in "iu"
            or not isinstance(m, (int, np.integer)) or m < 0):
        raise InvalidInputError(f"keys must be a 1-D integer array and m an "
                                f"int >= 0: {keys.ndim}-D {keys.dtype}, {m!r}")
    if not tol > 0:
        raise InvalidInputError(f"tolerance must be > 0, got {tol}")
    n = len(keys)
    needed = 100.0 * (1 << m) / (tol * tol)
    if n < needed:
        raise InvalidInputError(f"N={n} below the sizing rule "
                                f"ceil(100*2^m/tol^2)={math.ceil(needed)}")
    cells, first = row_ids([keys], n)
    groups = keys[first] >> m
    top = np.maximum.accumulate(groups)
    if groups[0] != 0 or groups.min() < 0 or (top[1:] - top[:-1] > 1).any():
        raise InvalidInputError(
            "rest ids must be dense in order of first appearance")
    cvec = np.bincount(cells)
    estimate = excess_over_uniform(cvec, groups, m) / (n << m)
    sizes = np.bincount(groups)
    held, lone = sizes[groups] > 1, int((sizes == 1).sum())  # shared cells
    S, W = int(held.sum()), int(cvec[held].sum())
    runs = (np.cumsum(held) - 1)[cells[held[cells]]]  # shared samples' cells
    groups = (np.cumsum(sizes > 1) - 1)[groups[held]]
    rng, B = _philox(seed ^ 0xB00), BOOTSTRAP_RESAMPLES
    N = np.full(B, W) if W in (0, n) else rng.binomial(n, W / n, B)
    boot = ((1 << m) - 1) * (n - N)  # the lone cells' excess
    by_index = W <= 4 * S
    rows = max(1, 8 * CHUNK_ENTRIES // max(1, 4 * W if by_index else 8 * S))
    for i in range(0, B if W else 0, rows):
        got = N[i:i + rows]
        if by_index:  # shared cell + S * row, one bincount per chunk
            drawn = runs.take(rng.integers(0, W, got.sum(), dtype=np.int32))
            drawn += np.repeat(S * np.arange(got.size), got)
            counts = np.bincount(drawn, minlength=got.size * S).reshape(-1, S)
        else:  # a scalar n draws the same rows as an array of n, faster
            counts = rng.multinomial(n if W == n else got, cvec[held] / W,
                                     size=got.size)
        boot[i:i + rows] += excess_over_uniform(counts, groups, m)
    boot, q = np.sort(boot) / (n << m), 50 * (1 - CI_LEVEL)
    v = (boot.size - 1) * (np.array([q, 100 - q]) / 100)  # numpy's "linear"
    a, b, g = boot[v.astype(int)], boot[np.ceil(v).astype(int)], v % 1
    lo, hi = np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)
    return MCReport(estimate=float(estimate), ci=(float(lo), float(hi)),
                    n=n, m=m, tol=tol, draws=int(N.sum()), lone_groups=lone,
                    seconds=time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Lemma checkers
# ----------------------------------------------------------------------

@dataclass
class LemmaVerdict:
    lemma: str
    ok: bool
    slack: object
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def check_lemma(lemma_id: str, **instance):
    """Evaluate both sides of a named inequality exactly on an instance.

    Supported ids: ``L2.2`` (min-entropy conditioning), ``L2.5``
    (classical XOR lemma), ``P3.2`` (entropy additivity up to the smooth
    slack), ``L8.1`` (per-player strong errors union to set error).
    ``L2.2`` and ``L2.5`` check a ``joint``, or list a stack's verdicts.
    """
    fn = _LEMMAS.get(lemma_id)
    if fn is None:
        raise InvalidInputError(f"unknown lemma id {lemma_id!r}; "
                                f"known: {sorted(_LEMMAS)}")
    return fn(**instance)


def _lemma_stack(numerators, den, joint=None, labels=()) -> tuple:
    """``(num, den)``: a (trials, 2^a, 2^b) stack of ``numerators`` over
    ``den``, one exact joint per trial, or the one matrix of ``joint``:
    rows ``labels[0]``, columns the other ``labels``."""
    if joint is not None:
        sub = joint.marginal(labels)
        return sub.numerators.reshape(1, 1 << sub.parts[0][1], -1), sub.denominator
    num = np.asarray(numerators)
    if (num.dtype.kind not in "iu" or num.ndim != 3 or (num < 0).any()
            or any(s < 1 or s & (s - 1) for s in num.shape[1:])
            or (num.sum(axis=(1, 2)) != den).any()):
        raise InvalidInputError("a lemma stack is (trials, 2^a, 2^b) "
                                "non-negative counts over its denominator")
    return num.astype(np.int64, copy=False), check_denominator(int(den))


def _lemma_condition(joint=None, *, eps: float, target: str = "X",
                     given: str = "Y", numerators=None, denominator=1):
    """Pr_y[H(X|Y=y) >= H(X) - log|Y| - log(1/eps)] >= 1 - eps, from
    (X, Y) numerator matrices: H(X) by the row sums, H(X|Y=y) by column
    y's maximum over the column's total."""
    if not 0 < eps <= 1:
        raise InvalidInputError(f"L2.2 takes eps in (0, 1], got {eps}")
    num, den = _lemma_stack(numerators, denominator, joint, [target, given])
    d, out = num.shape[2].bit_length() - 1, []
    for x, tops, masses in zip(num.sum(axis=2).max(axis=1).tolist(),
                               num.max(axis=1).tolist(), num.sum(axis=1).tolist()):
        bound = neg_log2(x, den) - d - math.log2(1.0 / eps)
        good, per_y = 0, {}
        for y, (top, mass) in enumerate(zip(tops, masses)):
            if mass:
                per_y[y] = neg_log2(top, mass)
                good += mass if per_y[y] >= bound - 1e-9 else 0
        good = float(ratio(good, den))
        out.append(LemmaVerdict("L2.2", good >= 1 - eps - 1e-12, good - (1 - eps),
                                {"threshold_bits": bound, "per_y_entropy": per_y}))
    return out if joint is None else out[0]


def _lemma_xor(joint=None, z_label: str = "Z", e_label: str = "E", *,
               numerators=None, denominator=1):
    """Classical XOR lemma: dist(ZE, UxE)^2 <= 2^min(d,m) sum_S dist^2.

    Every XOR test r of Z's bits is scored in one integer pass over the
    (Z, rest) numerator matrices N: ``odd @ N`` is the mass where r.z is
    odd, and the test's distance is sum_rest |2 (odd @ N) - R| / 2den."""
    rest = [] if joint is None else [lb for lb in joint.labels() if lb != z_label]
    num, den = _lemma_stack(numerators, denominator, joint, [z_label, *rest])
    (T, Z, R), out = num.shape, []
    m = Z.bit_length() - 1
    d = R.bit_length() - 1 if joint is None else joint.part_width(e_label)
    lhs = excess_over_uniform(num.reshape(T, -1), np.arange(Z * R) % R, m)
    odd = np.bitwise_count(np.arange(1, Z)[:, None] & np.arange(Z)) & 1
    tests = np.abs(2 * (odd @ num) - num.sum(axis=1, keepdims=True))
    for ex, row in zip(lhs.tolist(), tests.sum(axis=2).tolist()):
        lhs_sq = Fraction(ex, den << m) ** 2
        rhs = Fraction(sum(e * e for e in row) << min(d, m), (2 * den) ** 2)
        out.append(LemmaVerdict("L2.5", rhs >= lhs_sq, rhs - lhs_sq,
                                {"lhs_sq": lhs_sq, "rhs": rhs}))
    return out if joint is None else out[0]


def _lemma_additivity(sources, scenario: LeakageScenario,
                      shared: Distribution | None = None,
                      eps: float = 0.25, subset=None) -> LemmaVerdict:
    """Smooth min-entropy of X_S given the leaks >= sum k_i - slack."""
    res = leakage_apply(sources, scenario, shared)
    subset = list(range(scenario.t)) if subset is None else sorted(subset)
    s = len(subset)
    rhs = sum(res.k[i] for i in subset) - (s - 1) * math.log2(2.0 / (eps * eps))
    targets = [f"X{i + 1}" for i in subset]
    given = [lbl for lbl in res.joint.labels() if lbl.startswith("E")]
    lhs = cond_min_entropy(res.joint, targets, given)
    if lhs < rhs - 1e-9:  # the plain entropy falls short: smooth it
        lhs = smooth_cond_min_entropy(res.joint, targets, given, (s - 1) * eps)
    return LemmaVerdict("P3.2", lhs >= rhs - 1e-9, lhs - rhs,
                        {"k": res.k, "smooth_entropy": lhs, "rhs": rhs})


def _lemma_hybrid_union(set_error: Fraction, individual_errors) -> LemmaVerdict:
    """Set error is at most the sum of individual strong errors."""
    slack = sum(individual_errors) - set_error
    return LemmaVerdict("L8.1", slack >= 0, slack,
                        {"set_error": set_error,
                         "individual": list(individual_errors)})


_LEMMAS = {
    "L2.2": _lemma_condition,
    "L2.5": _lemma_xor,
    "P3.2": _lemma_additivity,
    "L8.1": _lemma_hybrid_union,
}
