import numpy as np
import pytest

from extractomat.combinators import (CompositionConfig, CondenserHandle,
                                     ErrorBudget, build_bext_handle,
                                     build_qbext_handle, build_qmext_handle,
                                     build_three_source_handle,
                                     qmext_budget, seed_slice_width,
                                     weak_seed_transform)
from extractomat.errors import InvalidInputError
from extractomat.extractors import table_handle


def _rand_table_handle(rng, name, kind, widths, m, **kw):
    t = rng.integers(0, 1 << m, size=1 << sum(widths), dtype=np.uint32)
    return table_handle(name, kind, widths, m, t, **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def qm(rng):
    iext = _rand_table_handle(rng, "iext", "2-source", (3, 3), 2, eps=0.1)
    extq = _rand_table_handle(rng, "extq", "seeded", (3, 2), 2, eps=0.05)
    return iext, extq


# ----------------------------------------------------------------------
# one extra source
# ----------------------------------------------------------------------

def test_qmext_is_function_composition(qm, rng):
    # every composite entry is extq(x_last, iext(x_1..x_t)), read off the
    # component tables one point at a time
    iext, extq = qm
    t = build_qmext_handle(iext, extq).table()
    for idx in range(1 << 9):
        x1, x2, x3 = idx >> 6, (idx >> 3) & 7, idx & 7
        assert int(t[idx]) == extq.eval_int(x3, iext.eval_int(x1, x2))
    iext3 = _rand_table_handle(rng, "iext3", "t-source", (2, 1, 2), 2)
    t = build_qmext_handle(iext3, extq).table()
    for idx in range(1 << 8):
        x1, x2, x3, x4 = idx >> 6, (idx >> 5) & 1, (idx >> 3) & 3, idx & 7
        assert int(t[idx]) == extq.eval_int(x4, iext3.eval_int(x1, x2, x3))


def test_qmext_budget_is_sum(qm):
    iext, extq = qm
    assert qmext_budget(iext, extq).total() == pytest.approx(0.15)


def test_qmext_handle_strong_set_and_widths(qm):
    iext, extq = qm
    h = build_qmext_handle(iext, extq)
    assert h.input_widths == (3, 3, 3)
    assert h.strong == frozenset({0, 1})
    assert h.eps == pytest.approx(0.15)


def test_qmext_seed_width_checked(rng):
    iext = _rand_table_handle(rng, "i", "2-source", (3, 3), 2, eps=0.1)
    extq = _rand_table_handle(rng, "q", "seeded", (3, 3), 2, eps=0.1)
    with pytest.raises(InvalidInputError):
        build_qmext_handle(iext, extq)


def test_export_commutes_with_composition(qm):
    # the composite table equals the gather of the component tables,
    # checked exhaustively at these tiny widths, and a handle re-wrapped
    # around that table evaluates the same as the composite
    iext, extq = qm
    h = build_qmext_handle(iext, extq)
    t = h.table()
    it, qt = iext.table(), extq.table()
    for idx in range(1 << 9):
        x1, x2, x3 = idx >> 6, (idx >> 3) & 7, idx & 7
        z = int(it[(x1 << 3) | x2])
        assert int(t[idx]) == int(qt[(x3 << 2) | z])
    h2 = table_handle("qmext-copy", h.kind, h.input_widths, h.m, t,
                      eps=h.eps, strong=h.strong)
    assert np.array_equal(h2.table(), t)
    for idx in range(1 << 9):
        xs = (idx >> 6, (idx >> 3) & 7, idx & 7)
        assert h2.eval_int(*xs) == h.eval_int(*xs)


# ----------------------------------------------------------------------
# one extra block
# ----------------------------------------------------------------------

@pytest.fixture
def qb(rng):
    bext = _rand_table_handle(rng, "bext", "2-source", (3, 3), 2, eps=0.1,
                              strong=(0,))
    extc = _rand_table_handle(rng, "extc", "seeded", (2, 1), 2, eps=0.05)
    extq = _rand_table_handle(rng, "extq", "seeded", (3, 2), 2, eps=0.02)
    return bext, extc, extq


def test_qbext_three_stage_composition(qb):
    bext, extc, extq = qb
    t = build_qbext_handle(bext, extc, extq, k3=2).table()  # 1-bit slice
    for idx in range(1 << 8):
        x1, x2, x3 = idx >> 5, (idx >> 3) & 3, idx & 7
        r = bext.eval_int(x1, x3) >> 1
        assert int(t[idx]) == extq.eval_int(x3, extc.eval_int(x2, r))


def test_qbext_budget_terms(qb):
    bext, extc, extq = qb
    h = build_qbext_handle(bext, extc, extq, k3=2)
    desc = h.budget.describe()
    coefs = {t["symbol"]: t["coefficient"] for t in desc["terms"]}
    assert coefs == {"eps1": 4, "eps2": 2, "eps3": 1}
    assert desc["residuals"][0]["name"] == "2^-Omega(k3)"
    assert desc["residuals"][0]["constant_is_default"]


def test_seed_slice_width_clamps():
    assert seed_slice_width(2) == 1
    assert seed_slice_width(40) == 2
    assert seed_slice_width(100) == 5


def test_qbext_width_mismatches_rejected(qb):
    bext, extc, extq = qb
    with pytest.raises(InvalidInputError):
        # k3 = 40 asks for a 2-bit slice; extc's seed width is 1
        build_qbext_handle(bext, extc, extq, k3=40)


# ----------------------------------------------------------------------
# three-source pipeline
# ----------------------------------------------------------------------

@pytest.fixture
def pipeline(rng):
    cond = CondenserHandle.split(4)  # 2 rows of 2 bits
    raz = _rand_table_handle(rng, "raz", "2-source", (2, 4), 2, eps=0.1,
                             strong=(0,))
    srext = _rand_table_handle(rng, "srext", "2-source", (3, 2), 2, eps=0.1,
                               strong=(1,))
    last = _rand_table_handle(rng, "last", "seeded", (4, 2), 2, eps=0.05)
    return cond, raz, srext, last


def test_bext_pipeline_structure(pipeline):
    cond, raz, srext, last = pipeline
    t = build_bext_handle(cond, raz, srext, last, k_profile=(4, 3, 4)).table()
    for idx in range(1 << 11):
        x1, x2, x3 = idx >> 7, (idx >> 4) & 7, idx & 15
        w3 = 0
        for row in (x1 >> 2, x1 & 3):  # the split condenser's two rows
            w3 = (w3 << 1) | (raz.eval_int(row, x3) >> 1)
        assert int(t[idx]) == last.eval_int(x3, srext.eval_int(x2, w3))


def test_bext_degenerate_identity_condenser(rng):
    # D = 1 identity row reduces the pipeline to a plain chain
    cond = CondenserHandle.identity(3)
    raz = _rand_table_handle(rng, "raz", "2-source", (3, 3), 1, eps=0.1)
    srext = _rand_table_handle(rng, "sr", "2-source", (2, 1), 2, eps=0.1)
    last = _rand_table_handle(rng, "last", "seeded", (3, 2), 2, eps=0.1)
    h = build_bext_handle(cond, raz, srext, last, k_profile=(3, 2, 3),
                          ell=1)
    x1, x2, x3 = 5, 2, 4
    w3 = raz.eval_int(x1, x3) >> 0
    v = srext.eval_int(x2, w3)
    assert h.eval_int(x1, x2, x3) == last.eval_int(x3, v)


def test_bext_checks_are_named(pipeline):
    cond, raz, srext, last = pipeline
    with pytest.raises(InvalidInputError, match="D\\*ell"):
        build_bext_handle(cond, raz, srext, last, k_profile=(2, 2, 2),
                          ell=2)  # D*ell = 4 > 0.05*k3 clamp = 1
    bad_sr = table_handle("bad", "2-source", (3, 3), 2,
                          np.zeros(64, dtype=np.uint32))
    with pytest.raises(InvalidInputError, match="somewhere-random"):
        build_bext_handle(cond, raz, bad_sr, last, k_profile=(2, 2, 40))


def test_three_source_wrapper(pipeline, rng):
    cond4 = CondenserHandle.identity(4)
    raz = _rand_table_handle(rng, "raz", "2-source", (4, 6), 2, eps=0.1)
    srext = _rand_table_handle(rng, "sr", "2-source", (4, 1), 2, eps=0.1)
    last = _rand_table_handle(rng, "last", "seeded", (6, 2), 3, eps=0.1)
    h = build_three_source_handle(cond4, raz, srext, last, delta=0.5, d=4,
                                  k=4)
    t = h.table()
    for idx in range(1 << 14):
        y1, y2, x = idx >> 10, (idx >> 6) & 15, idx & 63
        w3 = raz.eval_int(y1, x) >> 1  # identity condenser, 1-bit slice
        assert int(t[idx]) == last.eval_int(x, srext.eval_int(y2, w3))
    assert h.strong == frozenset({0, 1})


# ----------------------------------------------------------------------
# weak seeds
# ----------------------------------------------------------------------

def _weak_seed_parts(rng):
    base = _rand_table_handle(rng, "base", "seeded", (6, 2), 2, eps=0.1,
                              k_profile=(4, 2))
    raz = _rand_table_handle(rng, "raz", "2-source", (2, 6), 2, eps=0.1)
    srext = _rand_table_handle(rng, "sr", "2-source", (2, 1), 2, eps=0.1)
    return base, raz, srext


def test_weak_seed_transform_halves_the_seed(rng):
    base, raz, srext = _weak_seed_parts(rng)
    cfg = CompositionConfig(weak_seed_C=2.0)
    h = weak_seed_transform(base, 0.25, d_prime=4, raz_slot=raz,
                            srext_slot=srext, config=cfg)
    assert h.input_widths == (6, 4)
    t = h.table()
    for idx in range(1 << 10):
        x, r1, r2 = idx >> 4, (idx >> 2) & 3, idx & 3
        w3 = raz.eval_int(r1, x) >> 1
        assert int(t[idx]) == base.eval_int(x, srext.eval_int(r2, w3))


def test_weak_seed_odd_width_rejected(rng):
    base, raz, srext = _weak_seed_parts(rng)
    cfg = CompositionConfig(weak_seed_C=2.0)
    with pytest.raises(InvalidInputError):
        weak_seed_transform(base, 0.25, d_prime=5, raz_slot=raz,
                            srext_slot=srext, config=cfg)


def test_weak_seed_gate_enforced(rng):
    base, raz, srext = _weak_seed_parts(rng)
    with pytest.raises(InvalidInputError, match="k/C"):
        weak_seed_transform(base, 0.25, d_prime=4, raz_slot=raz,
                            srext_slot=srext)  # default C = 64


def test_error_budget_caps_at_one():
    b = ErrorBudget().add(4, "e", 0.4).add_residual("2^-Omega(k)", 2, 0.05)
    assert b.total() == 1.0
    d = b.describe()
    assert d["total_capped_at_1"] == 1.0
    # the uncapped sum shows how far past 1 the terms go
    assert d["total_uncapped"] == b.total_uncapped() == 1.6 + 2 ** -0.1


def test_bext_pipeline_oracle_at_toy_widths(rng, cache_dir):
    # (n1, n2, n3) = (6, 4, 6) with a two-row condenser; worst-case
    # block+general error measured in sampled mode stays within the
    # composite budget
    from extractomat import certify
    from extractomat.oracle import worst_case_error_block_general
    cond = CondenserHandle.split(6)
    raz, _ = certify.certify_random_table((3, 6), (2, 4), 2, seed=431,
                                          cache_dir=cache_dir,
                                          mode="sampled", samples=60,
                                          strong=(0,))
    srext, _ = certify.certify_random_table((4, 2), (2, 2), 2,
                                            kind="2-source", seed=432,
                                            cache_dir=cache_dir, strong=(1,))
    last, _ = certify.certify_random_table((6, 2), (4, 2), 3, kind="seeded",
                                           seed=433, cache_dir=cache_dir,
                                           mode="sampled", samples=60)
    h = build_bext_handle(cond, raz, srext, last, k_profile=(2, 2, 4),
                          ell=1)
    rep = worst_case_error_block_general(h, (2, 2, 4), mode="sampled",
                                         samples=40, seed=9)
    assert rep.error <= h.budget.total() + 1e-12
