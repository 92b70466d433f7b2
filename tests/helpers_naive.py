"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive (dict counting, Fractions, no
numpy beyond the random streams of the gadget search, the sampled oracle
and the estimator's bootstrap, no shared code with the package but the
world draws' ``Distribution.sample`` and ``leak_value``) so that an
agreement between these functions and the package's fast paths is
meaningful.
"""

import itertools
import math
from fractions import Fraction


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def naive_ip(x: int, y: int) -> int:
    """GF(2) inner product of two words: one output bit."""
    return parity(x & y)


def naive_deor(x: int, y: int, n: int, m: int) -> int:
    """Shifted inner product of two n-bit words: output bit j, most
    significant first, is <x, y rotated left by j>."""
    v = 0
    for j in range(m):
        v = (v << 1) | parity(x & (((y << j) | (y >> (n - j))) & ((1 << n) - 1)))
    return v


def naive_toeplitz(x: int, seed: int, n: int, m: int) -> int:
    """Toeplitz hash T.x of an n-bit word, output bit 1 most significant.
    T is m by n and constant along its diagonals: row 1 is seed bits 1..n,
    column 1 is seed bit 1 then bits n+1..n+m-1, counting the n+m-1 seed
    bits from the most significant."""
    def bit(p):
        return (seed >> (n + m - 1 - p)) & 1
    v = 0
    for i in range(m):
        row = sum(bit(1 + j - i if j >= i else n + i - j) << (n - 1 - j)
                  for j in range(n))
        v = (v << 1) | parity(row & x)
    return v


def naive_dense_ids(keys) -> list:
    """Dense ids of hashable keys, numbered by a dict in order of first
    appearance."""
    ids = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def naive_tv_from_uniform(cells: dict, total: int, m: int) -> Fraction:
    """TV of {(z, group): count} from U_m x group-marginal, over ``total``."""
    groups = {}
    for (z, g), c in cells.items():
        groups.setdefault(g, {})[z] = c
    dist = Fraction(0)
    for zc in groups.values():
        gm = sum(zc.values())
        ref = Fraction(gm, 1 << m)
        for z in range(1 << m):
            c = zc.get(z, 0)
            if c > ref:
                dist += c - ref
    return dist / total


def naive_cell_excess(counts: dict, m: int) -> int:
    """sum over cells of max(0, 2^m count - its rest's total), for counts
    {(z, rest): count}: the plug-in distance times 2^m times the total."""
    totals = {}
    for (_, rest), c in counts.items():
        totals[rest] = totals.get(rest, 0) + c
    return sum(max(0, (c << m) - totals[rest])
               for (_, rest), c in counts.items())


def naive_plugin_estimate(pairs, m: int) -> float:
    """The plug-in distance of ``(z, rest)`` pairs from uniform on the
    m-bit part given the rest: a dict of cells."""
    cells = {}
    for z, rest in pairs:
        cells[int(z), rest] = cells.get((int(z), rest), 0) + 1
    return naive_cell_excess(cells, m) / (len(pairs) << m)


def naive_percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``, interpolated linearly between
    the two sorted values around rank (len - 1) * q / 100 (numpy's default
    method, with its rounding: b - (b - a)(1 - g) from g = 1/2 up)."""
    ranked = sorted(values)
    v = (len(ranked) - 1) * (q / 100)
    i = min(math.floor(v), len(ranked) - 1)
    a, b, g = ranked[i], ranked[min(i + 1, len(ranked) - 1)], v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def naive_bootstrap_ci(pairs, m: int, seed: int, resamples: int = 200,
                       q: float = 0.5):
    """The estimator's bootstrap spread one resample at a time, scored by
    dicts of cells.  Cells alone in their rest group are lone; the W
    samples in the others are shared.  From the Philox stream keyed by
    ``seed ^ 0xB00``, every resample's count N of shared samples is
    drawn first, Binomial(n, W / n) (N = W undrawn where W is 0 or n);
    then, resample by resample, N indices over the shared samples in
    sample order where W <= 4 * shared cells, else one multinomial of N
    over the shared cells in order of first appearance.  The n - N lone
    samples go to one cell of a rest of their own.  Returns the two tail
    percentiles q and 100 - q, by default the 99% level's: q = 0.5
    exactly, where 50 * (1 - 0.99) is 0.5 + 4e-16 in floats."""
    import numpy as np  # the estimator's random stream, nothing else

    counts, rests = {}, {}
    for p in pairs:
        counts[p] = counts.get(p, 0) + 1
    for _, rest in counts:
        rests[rest] = rests.get(rest, 0) + 1
    shared = [p for p in pairs if rests[p[1]] > 1]
    cells = [c for c in counts if rests[c[1]] > 1]
    n, w = len(pairs), len(shared)
    rng = np.random.default_rng(np.random.Philox(key=seed ^ 0xB00))
    drawn_n = ([w] * resamples if w in (0, n)
               else rng.binomial(n, w / n, size=resamples).tolist())
    boot = []
    for got in drawn_n:
        res = {(0, "lone"): n - got}  # a rest no pair has
        if not w:
            pass
        elif w <= 4 * len(cells):
            for i in rng.integers(0, w, size=got).tolist():
                res[shared[i]] = res.get(shared[i], 0) + 1
        else:
            drawn = rng.multinomial(got, [counts[c] / w for c in cells])
            res.update(zip(cells, drawn.tolist()))
        boot.append(naive_cell_excess(res, m) / (n << m))
    return naive_percentile(boot, q), naive_percentile(boot, 100 - q)


def naive_resample_law(pairs, m: int) -> dict:
    """The exact law of one resample's :func:`naive_cell_excess` when its
    cell counts are Multinomial(n, counts / n): ``{excess: probability}``,
    every count vector enumerated with its Fraction probability."""
    counts = {}
    for p in pairs:
        counts[p] = counts.get(p, 0) + 1
    cells, n, law = list(counts), len(pairs), {}

    def place(i, left, prob, res):  # prob: n! prod p^k / k! so far
        if i == len(cells):
            if not left:
                key = naive_cell_excess(res, m)
                law[key] = law.get(key, 0) + prob
            return
        for k in range(left + 1):
            place(i + 1, left - k, prob * Fraction(counts[cells[i]], n) ** k
                  / math.factorial(k), {**res, cells[i]: k})

    place(0, n, Fraction(math.factorial(n)), {})
    return law


def naive_worst_2source(fn, n1, n2, m, k1, k2, strong=None) -> Fraction:
    """Exact worst-case (strong) error by full flat-pair enumeration."""
    best = Fraction(0)
    K1, K2 = 1 << k1, 1 << k2
    for s1 in itertools.combinations(range(1 << n1), K1):
        for s2 in itertools.combinations(range(1 << n2), K2):
            cells = {}
            for x in s1:
                for y in s2:
                    z = fn(x, y)
                    g = x if strong == 0 else (y if strong == 1 else None)
                    cells[(z, g)] = cells.get((z, g), 0) + 1
            best = max(best, naive_tv_from_uniform(cells, K1 * K2, m))
    return best


def naive_instance_error(fn, m, supports, strong=(), leak_source=None,
                         leak_map=None) -> Fraction:
    """Exact error of one flat instance: uniform on each of ``supports``,
    measured jointly with the inputs in ``strong`` and, when
    ``leak_source`` is set, with ``leak_map[x]`` of that input."""
    cells = {}
    total = 0
    for xs in itertools.product(*supports):
        g = (tuple(xs[i] for i in strong),
             None if leak_source is None else leak_map[xs[leak_source]])
        key = (fn(*xs), g)
        cells[key] = cells.get(key, 0) + 1
        total += 1
    return naive_tv_from_uniform(cells, total, m)


def _gl_apply(cols, x) -> int:
    """A x over GF(2), the matrix A given as the tuple of its columns."""
    y = 0
    for i, c in enumerate(cols):
        if x >> i & 1:
            y ^= c
    return y


def naive_gl_group(n) -> list:
    """Every invertible n x n matrix over GF(2) as the tuple of its column
    images: those whose map x -> Ax hits every value."""
    return [cols for cols in itertools.product(range(1 << n), repeat=n)
            if len({_gl_apply(cols, x) for x in range(1 << n)}) == 1 << n]


def naive_gl_orbits(n, K) -> list:
    """The orbits of GL(n,2) acting on the ``K``-subsets of F_2^n (as
    integers below 2^n), each a set of sorted tuples."""
    group = naive_gl_group(n)
    orbits, seen = [], set()
    for s in itertools.combinations(range(1 << n), K):
        if s not in seen:
            orbit = {tuple(sorted(_gl_apply(g, x) for x in s)) for g in group}
            seen |= orbit
            orbits.append(orbit)
    return orbits


def naive_gl_invariant(fn, n) -> bool:
    """Whether fn(Ax, A^-T y) = fn(x, y) for every invertible A over
    GF(2), checked over the whole group in the equivalent form
    fn(Ax, y) = fn(x, A^T y), where bit i of A^T y is <A e_i, y>."""
    for cols in naive_gl_group(n):
        for x, y in itertools.product(range(1 << n), repeat=2):
            aty = sum(parity(c & y) << i for i, c in enumerate(cols))
            if fn(_gl_apply(cols, x), y) != fn(x, aty):
                return False
    return True


def flat_supports(widths, ks):
    """Every flat support of each input, in ``itertools.combinations``
    order."""
    return [list(itertools.combinations(range(1 << n), 1 << k))
            for n, k in zip(widths, ks)]


def naive_worst_leaked_2source(fn, n1, n2, m, k1, k2, b, strong=None,
                               leak_sources=(0, 1)) -> Fraction:
    """Exact worst case over flat pairs and every map of one input in
    ``leak_sources`` to ``b`` bits, over that input's whole domain."""
    widths = (n1, n2)
    revealed = () if strong is None else (strong,)
    best = Fraction(0)
    for sups in itertools.product(*flat_supports(widths, (k1, k2))):
        for i in leak_sources:
            for f in itertools.product(range(1 << b), repeat=1 << widths[i]):
                best = max(best, naive_instance_error(fn, m, sups, revealed,
                                                      i, f))
    return best


def naive_worst_multi(fn, widths, m, ks, b=0) -> Fraction:
    """Exact worst case of a 3-input function, strong on inputs 0 and 1,
    over flat triples and (``b > 0``) every map of any one input to ``b``
    bits, over that input's whole domain."""
    best = Fraction(0)
    for sups in itertools.product(*flat_supports(widths, ks)):
        best = max(best, naive_instance_error(fn, m, sups, (0, 1)))
        for i in range(3 if b else 0):
            for f in itertools.product(range(1 << b), repeat=1 << widths[i]):
                best = max(best, naive_instance_error(fn, m, sups, (0, 1),
                                                      i, f))
    return best


def naive_worst_seeded(fn, n, d, m, k, strong=True) -> Fraction:
    """Exact worst-case seeded error by full flat-source enumeration."""
    best = Fraction(0)
    K = 1 << k
    for s in itertools.combinations(range(1 << n), K):
        cells = {}
        for x in s:
            for seed in range(1 << d):
                z = fn(x, seed)
                g = seed if strong else None
                cells[(z, g)] = cells.get((z, g), 0) + 1
        best = max(best, naive_tv_from_uniform(cells, K * (1 << d), m))
    return best


def naive_violations(kind, params, adj) -> int:
    """Quantifier subsets a gadget fails, recounted from the neighbour
    sets ``adj``, in the search's own terms."""
    return sum(1 for _ in naive_violated_subsets(kind, params, adj))


def naive_violated_subsets(kind, params, adj):
    """The quantifier subsets a gadget fails, as sorted tuples in
    lexicographic order."""
    r, d, l = params["r"], params["d"], params["l"]
    if kind == "extractor-graph":
        alpha = params.get("alpha", 0.5)
        size = round(alpha * r)
        lo = (alpha - params["eps"]) * d - 1e-9
        hi = (alpha + params["eps"]) * d + 1e-9
    else:
        size = math.ceil(params["delta" if kind == "and-disperser"
                                else "beta"] * r)
    for combo in itertools.combinations(range(r), size):
        subset = set(combo)
        if kind == "and-disperser":
            inside = sum(1 for a in adj if a <= subset)
            bad = inside < math.ceil(params["gamma"] * l)
        elif kind == "expander":
            avoid = sum(1 for a in adj if not a & subset)
            bad = avoid >= math.ceil(params["beta"] * l)
        else:
            dev = sum(1 for a in adj if not lo <= len(a & subset) <= hi)
            bad = dev > params["K"]
        if bad:
            yield combo


def naive_search_gadget(kind, params, seed=0, attempts=32, steps=6000):
    """The gadget annealer with a full recount after every swap and no
    verifier: ``(adjacency as sorted tuples, attempts, steps)`` of the
    first attempt that reaches zero violations, or None."""
    import numpy as np  # the search's random stream, nothing else

    l, r, d = params["l"], params["r"], params["d"]
    total_steps = 0
    for attempt in range(attempts):
        rng = np.random.default_rng(np.random.Philox(
            key=seed >> 64 << 64
            | (seed + 0x517CC1B727220A95 * attempt) & ((1 << 64) - 1)))
        adj = [set(int(x) for x in rng.choice(r, size=d, replace=False))
               for _ in range(l)]
        cur = naive_violations(kind, params, adj)
        temp = 2.0
        for _ in range(steps):
            if cur == 0:
                break
            total_steps += 1
            u = int(rng.integers(l))
            old = adj[u]
            drop = list(old)[int(rng.integers(d))]
            outside = [x for x in range(r) if x not in old]
            add = outside[int(rng.integers(len(outside)))]
            adj[u] = (old - {drop}) | {add}
            new = naive_violations(kind, params, adj)
            if new <= cur or rng.random() < math.exp(-(new - cur)
                                                     / max(temp, 1e-9)):
                cur = new
            else:
                adj[u] = old
            temp *= 0.999
        if cur == 0:
            return (tuple(tuple(sorted(a)) for a in adj), attempt + 1,
                    total_steps)
    return None


def naive_worst_leaked_seeded(fn, n, d, m, k, b, strong=True) -> Fraction:
    """Exact worst case over flat k-sources and every map of the source to
    ``b`` bits, over its whole domain, jointly with the leak (and the
    seed when ``strong``)."""
    best = Fraction(0)
    for s in itertools.combinations(range(1 << n), 1 << k):
        for f in itertools.product(range(1 << b), repeat=1 << n):
            best = max(best, naive_instance_error(
                fn, m, [s, range(1 << d)], (1,) if strong else (), 0, f))
    return best


def naive_worst_block_general(fn, widths, m, ks) -> Fraction:
    """Exact worst case of a 3-input function over every block source
    (flat X1, and a flat conditional support of X2 for each x1) and flat
    X3, jointly with X1 and X2."""
    n1, n2, n3 = widths
    K1, K2, K3 = (1 << k for k in ks)
    best = Fraction(0)
    for s1 in itertools.combinations(range(1 << n1), K1):
        conds = itertools.combinations(range(1 << n2), K2)
        for s2s in itertools.product(list(conds), repeat=K1):
            for s3 in itertools.combinations(range(1 << n3), K3):
                cells = {}
                for x1, s2 in zip(s1, s2s):
                    for x2 in s2:
                        for x3 in s3:
                            key = (fn(x1, x2, x3), (x1, x2))
                            cells[key] = cells.get(key, 0) + 1
                best = max(best, naive_tv_from_uniform(cells, K1 * K2 * K3,
                                                       m))
    return best


def naive_cond_min_entropy(atoms: dict) -> Fraction:
    """Optimal guessing probability from {(x, e): mass}."""
    best = {}
    for (x, e), p in atoms.items():
        if p > best.get(e, Fraction(0)):
            best[e] = p
    return sum(best.values(), Fraction(0))


def naive_smooth_guess(columns, budget) -> Fraction:
    """The least sum of column maxima after removing at most ``budget``
    mass, by LP duality: the largest, over lam in {0} and {1/k : 1 <= k <=
    the longest column's length}, of the sum over columns of the least,
    over levels v (0 included), of v + lam * (column mass above v), less
    lam * budget; clipped at 0.  ``columns`` hold masses, one list per
    value of the side information."""
    budget = Fraction(budget)
    longest = max(len(col) for col in columns)
    best = Fraction(0)
    for lam in [Fraction(0)] + [Fraction(1, k) for k in range(1, longest + 1)]:
        total = -lam * budget
        for col in columns:
            col = [Fraction(p) for p in col]
            total += min(v + lam * sum(max(p - v, 0) for p in col)
                         for v in col + [Fraction(0)])
        best = max(best, total)
    return best


def naive_joint_tv(p: dict, q: dict) -> Fraction:
    keys = set(p) | set(q)
    return sum((p.get(k, Fraction(0)) - q.get(k, Fraction(0))
                for k in keys
                if p.get(k, Fraction(0)) > q.get(k, Fraction(0))),
               Fraction(0))


# ----------------------------------------------------------------------
# Lemma checks and the sampled two-source oracle, one atom or draw at a
# time.  A joint is ``parts`` (a list of (label, width)) and ``atoms``, a
# dict from per-part value tuples to masses (Fractions, or floats).
# ----------------------------------------------------------------------

def _bits(p) -> float:
    """-log2 p, for an exact p by the reduced fraction's two logs."""
    if isinstance(p, float):
        return -math.log2(p)
    p = Fraction(p)
    return math.log2(p.denominator) - math.log2(p.numerator)


def _collect(atoms: dict, key) -> dict:
    out = {}
    for vals, p in atoms.items():
        out[key(vals)] = out.get(key(vals), 0) + p
    return out


def naive_lemma_condition(parts, atoms, eps, target="X", given="Y"):
    """Min-entropy conditioning (L2.2) by dict sums: ``(good, threshold,
    per_y)``, ``good`` being the mass of the values y with H(X|Y=y) >=
    H(X) - |Y| - log2(1/eps), and ``per_y`` each positive-mass y's
    H(X|Y=y)."""
    labels = [lbl for lbl, _ in parts]
    t, g = labels.index(target), labels.index(given)
    px = _collect(atoms, lambda v: v[t])
    pxy = _collect(atoms, lambda v: (v[t], v[g]))
    py = _collect(atoms, lambda v: v[g])
    threshold = _bits(max(px.values())) - dict(parts)[given] - math.log2(1 / eps)
    good, per_y = 0, {}
    for y in sorted(py):
        if py[y] > 0:
            top = max(pxy.get((x, y), 0) for x in px)
            per_y[y] = _bits(top / py[y] if isinstance(top, float)
                             else Fraction(top) / py[y])
            if per_y[y] >= threshold - 1e-9:
                good += py[y]
    return good, threshold, per_y


def naive_xor_lemma(parts, atoms, z="Z", e="E"):
    """Both sides of the XOR lemma by dict sums over Fractions: ``(lhs,
    rhs)``, lhs the squared distance of (Z, rest) from (uniform, rest),
    rhs 2^min(|E|, |Z|) times the sum over nonempty masks r of the
    squared distance of (parity(r & Z), rest)."""
    labels = [lbl for lbl, _ in parts]
    i = labels.index(z)
    m, d = dict(parts)[z], dict(parts)[e]

    def dist(f, width):
        cells = _collect(atoms, lambda v: (f(v[i]), v[:i] + v[i + 1:]))
        return naive_tv_from_uniform(cells, 1, width)

    lhs = dist(lambda v: v, m) ** 2
    rhs = sum(dist(lambda v, r=r: parity(v & r), 1) ** 2
              for r in range(1, 1 << m)) * (1 << min(d, m))
    return lhs, rhs


def naive_sample_supports(space, size, samples, rng) -> list:
    """The oracle's support sampler, one set per row: a row of ``size``
    ``integers`` draws each (the complement's ``space - size`` past half
    the space), then, round by round, the points each short row misses,
    all short rows from one ``integers`` call in row order, added to the
    row's set.  Returns the sorted rows as lists."""
    drawn = min(size, space - size)
    first = rng.integers(0, space, size=(samples, drawn)).tolist()
    sets = [set(row) for row in first]
    while short := [s for s in sets if len(s) < drawn]:
        more = iter(rng.integers(0, space, size=sum(
            drawn - len(s) for s in short)).tolist())
        for s in short:
            s.update([next(more) for _ in range(drawn - len(s))])
    if drawn < size:
        sets = [set(range(space)) - s for s in sets]
    return [sorted(s) for s in sets]


def naive_sampled_2source(fn, n1, n2, m, k1, k2, strong, samples, seed):
    """The sampled two-source oracle, draw by draw: the same Philox
    stream through ``naive_sample_supports`` (every S1, then every S2),
    each pair's exact error by dict counting.  Returns ``(error,
    supports)``: the largest error as a float and the last draw
    attaining it."""
    import numpy as np  # the oracle's random streams, nothing else

    rng = np.random.default_rng(np.random.Philox(key=seed))
    errs, best = [], None
    for s1, s2 in zip(naive_sample_supports(1 << n1, 1 << k1, samples, rng),
                      naive_sample_supports(1 << n2, 1 << k2, samples, rng)):
        errs.append(float(naive_instance_error(
            fn, m, [s1, s2], () if strong is None else (strong,))))
        if best is None or errs[-1] >= errs[best[0]]:
            best = (len(errs) - 1, [s1, s2])
    return max(errs), best[1]


def naive_sampled_leaked_2source(fn, n1, n2, m, k1, k2, b, strong, samples,
                                 seed, leak_sources=(0, 1)):
    """The sampled leaked two-source oracle, draw by draw, with no
    leak-free run: each leaking input i that ``strong`` does not reveal,
    in order, from its own Philox(seed) stream.  Input i's supports are
    ``samples`` draws through ``naive_sample_supports``, each with every
    ``b``-bit leak value assignment on it (lexicographic, the smallest
    support element most significant); the other input's are every flat
    support if revealed, else ``samples`` further draws from the same
    stream.  Returns ``(error, witness)``: the largest error as a float
    and the first instance attaining it."""
    import numpy as np  # the oracle's random streams, nothing else

    widths, ks = (n1, n2), (k1, k2)
    revealed = () if strong is None else (strong,)
    best, witness = None, None
    for i in leak_sources:
        if i == strong:
            continue
        o = 1 - i
        rng = np.random.default_rng(np.random.Philox(key=seed))
        leaking = naive_sample_supports(1 << widths[i], 1 << ks[i], samples,
                                        rng)
        others = ([list(s) for s in flat_supports((widths[o],), (ks[o],))[0]]
                  if strong == o else naive_sample_supports(
                      1 << widths[o], 1 << ks[o], samples, rng))
        for s in leaking:
            for values in itertools.product(range(1 << b), repeat=len(s)):
                f = [0] * (1 << widths[i])
                for x, v in zip(s, values):
                    f[x] = v
                for t in others:
                    sups = [s, t] if i == 0 else [t, s]
                    e = naive_instance_error(fn, m, sups, revealed, i, f)
                    if best is None or e > best:
                        best, witness = e, {"supports": sups, "leak_map": f,
                                            "leak_source": i, "strong": strong}
    return float(best), witness


def naive_sampled_seeded(fn, n, d, m, k, b, strong, samples, seed):
    """The sampled seeded oracle, draw by draw: the same Philox stream
    through ``naive_sample_supports``, one support per sample; each
    support's largest exact error by dict counting over every ``b``-bit
    leak value assignment on it (lexicographic, the smallest support
    element most significant), jointly with the leak and, when
    ``strong``, the seed.  Returns ``(error, witness)``: the largest
    error as a float and the first draw and assignment attaining it."""
    import numpy as np  # the oracle's random streams, nothing else

    rng = np.random.default_rng(np.random.Philox(key=seed))
    errs, best = [], None
    for s in naive_sample_supports(1 << n, 1 << k, samples, rng):
        per = []
        for values in itertools.product(range(1 << b), repeat=len(s)):
            f = [0] * (1 << n)
            for x, v in zip(s, values):
                f[x] = v
            per.append(naive_instance_error(
                fn, m, [s, range(1 << d)], (1,) if strong else (),
                0 if b else None, f))
            if best is None or per[-1] > best[0]:
                best = (per[-1], {"support": s, **({"leak_map": f,
                        "leak_source": 0, "e_width": b} if b else {})})
        errs.append(float(max(per)))
    return max(errs), best[1]


# ----------------------------------------------------------------------
# Protocols, one world at a time
# ----------------------------------------------------------------------
#
# A protocol ``spec`` is a dict of plain values: "protocol" ("geqr" or
# "ext_pub"), "p", "n", "t", the player lists, the wiring as lists of
# neighbour indices, and each extractor slot as (table list, input
# widths, output width).  An adversary ``adv`` is a dict with "kind"
# ("ir" or "qr-analog"), "faulty" (initial set), "fn" (rushing callback
# or None), "trigger" (or None) and "forced" (group -> slice, or None).


def _lookup(slot, xs) -> int:
    table, widths, _ = slot
    idx = 0
    for x, w in zip(xs, widths):
        idx = (idx << w) | x
    return table[idx]


def _naive_round(rnd, senders, honest, width, faulty, adv, transcript, side,
                 log):
    """Honest messages first, then each faulty sender's rushing message;
    ``log`` (a list or None) gets (round, sender, payload, faulty) each."""
    round_honest = tuple((s, honest[s], width) for s in senders
                         if s not in faulty)
    sent = {s: honest[s] for s in senders}
    for s in senders:
        if s in faulty and adv["fn"] is not None:
            view = {"transcript": tuple(transcript),
                    "round_honest": round_honest}
            if adv["kind"] == "ir":
                v = adv["fn"](s, rnd, view)
            else:
                v = adv["fn"](s, rnd, view, dict(side))
            sent[s] = v & ((1 << width) - 1)
    order = ([s for s in sorted(senders) if s not in faulty]
             + [s for s in sorted(senders) if s in faulty])
    transcript.extend((rnd, s, sent[s]) for s in order)
    if log is not None:
        log.extend((rnd, s, sent[s], s in faulty) for s in order)
    return sent


def _naive_trigger(adv, rnd, transcript, faulty, t):
    if adv["trigger"] is None:
        return
    for pid in sorted(set(adv["trigger"](rnd, tuple(transcript))) - faulty):
        if len(faulty) >= t:
            break
        faulty.add(pid)


def naive_protocol_run(spec, xs: dict, side: dict, adv, log=None) -> tuple:
    """One world: ``(transcript, outputs, faulty)``; outputs None is BOT.
    ``log`` (a list) gets every message as (round, sender, payload,
    faulty), in commit order."""
    faulty = set(adv["faulty"])
    transcript = []
    outputs = {pid: None for pid in range(1, spec["p"] + 1)}
    if spec["protocol"] == "geqr":
        grouped = [pid for grp in spec["groups"] for pid in grp]
        sent = _naive_round(1, grouped, xs, spec["n"], faulty, adv,
                            transcript, side, log)
        w = spec["slice"]
        y = 0
        for gi, grp in enumerate(spec["groups"], start=1):
            forced = adv["forced"] or {}
            if any(pid in faulty for pid in grp) and gi in forced:
                yi = forced[gi] % (1 << w)
            else:
                yi = _lookup(spec["iext"], [sent[pid] for pid in grp])
                yi >>= spec["iext"][2] - w
            y = (y << w) | yi
        for pid in spec["outer"]:
            if pid not in faulty:
                outputs[pid] = _lookup(spec["qtext"], [xs[pid], y])
        return tuple(transcript), outputs, faulty
    a_pl, b_pl, sw = spec["A"], spec["B"], spec["sw"]
    sent = _naive_round(1, a_pl, xs, spec["n"], faulty, adv, transcript, side,
                        log)
    _naive_trigger(adv, 1, transcript, faulty, spec["t"])
    rows = [_lookup(spec["iext"], [sent[a_pl[j]] for j in nb])
            for nb in spec["disperser"]]
    part = {}
    for bi, pid in enumerate(b_pl):
        sj = 0
        for v in spec["expander"][bi]:
            sj = (sj << spec["iext"][2]) | rows[v]
        part[pid] = _lookup(spec["srext"], [xs[pid], sj])
    slices = []
    for rnd, which in ((2, 1), (3, 2)):
        shift = spec["srext"][2] - which * sw
        honest = {pid: (part[pid] >> shift) % (1 << sw) for pid in b_pl}
        sent = _naive_round(rnd, b_pl, honest, sw, faulty, adv, transcript,
                            side, log)
        slices += [sent[pid] for pid in b_pl]
        _naive_trigger(adv, rnd, transcript, faulty, spec["t"])

    def join(parts):
        v = 0
        for s in parts:
            v = (v << sw) | s
        return v

    for pid in spec["C"]:
        if pid not in faulty:
            outputs[pid] = _lookup(spec["oaext"], [xs[pid], join(slices)])
    for idx, pid in enumerate(b_pl):
        if pid not in faulty:
            own = [s for i, s in enumerate(slices) if i % len(b_pl) != idx]
            outputs[pid] = _lookup(spec["oaext_b"], [xs[pid], join(own)])
    return tuple(transcript), outputs, faulty


def naive_protocol_worlds(spec, supports, adv, shared=None, leaks=None):
    """Every world with its Fraction weight: flat sources on ``supports``
    (one list per player), the shared register ``shared`` as (value,
    Fraction) pairs, and ``leaks`` mapping a player to ``(fn, offset,
    width, register width)``: its leak is ``fn(x, A slice)``."""
    shared = shared or [(0, Fraction(1))]
    leaks = leaks or {}
    worlds = []
    for combo in itertools.product(*supports):
        xs = dict(enumerate(combo, start=1))
        for a, pa in shared:
            weight = pa
            for sup in supports:
                weight /= len(sup)
            side = {}
            for pid in sorted(leaks):
                fn, off, w, aw = leaks[pid]
                side[pid] = fn(xs[pid], (a >> (aw - off - w)) % (1 << w))
            worlds.append((weight, xs, side)
                          + naive_protocol_run(spec, xs, side, adv))
    return worlds


def naive_draw_worlds(sources, scenario, shared, n_runs, rng) -> list:
    """``n_runs`` sampled worlds ``(xs, a, leaks)``, one tuple per world:
    each source drawn as an ``n_runs``-vector by ``Distribution.sample``
    on ``rng`` (a flat source through its ``to_distribution``), then the
    shared register if the scenario has one (else 0), and each leaky
    source's leak computed world by world."""
    cols = [(s.to_distribution() if hasattr(s, "to_distribution") else s)
            .sample(rng, size=n_runs).tolist() for s in sources]
    a_col = (shared.sample(rng, size=n_runs).tolist()
             if scenario.shared_width else [0] * n_runs)
    worlds = []
    for xs, a in zip(zip(*cols), a_col):
        worlds.append((xs, a, tuple(scenario.leak_value(i, xs[i], a)
                                    for i in scenario.leaky)))
    return worlds


def naive_security(worlds, players, m) -> Fraction:
    """Distance of (Z_S', other outputs, transcript, leaks) from uniform x
    rest, S' being ``players`` without output in the first world left
    out."""
    first = worlds[0][4]
    s_prime = [pid for pid in sorted(players) if first[pid] is not None]
    cells = {}
    for weight, _, side, transcript, outputs, _ in worlds:
        z = 0
        for pid in s_prime:
            z = (z << m) | outputs[pid]
        rest = (tuple(sorted((pid, v) for pid, v in outputs.items()
                             if pid not in s_prime)),
                transcript, tuple(sorted(side.items())))
        cells[(z, rest)] = cells.get((z, rest), 0) + weight
    return naive_tv_from_uniform(cells, 1, m * len(s_prime))


def naive_strong_error(worlds, player, m) -> Fraction:
    """Distance of (Z_player, other sources, transcript, leaks) from
    uniform x rest."""
    cells = {}
    for weight, xs, side, transcript, outputs, _ in worlds:
        rest = (tuple((pid, v) for pid, v in xs.items() if pid != player),
                transcript, tuple(sorted(side.items())))
        key = (outputs[player], rest)
        cells[key] = cells.get(key, 0) + weight
    return naive_tv_from_uniform(cells, 1, m)
