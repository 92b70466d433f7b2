import math

import numpy as np
import pytest

from extractomat.errors import ConstraintViolatedError, InvalidInputError
from extractomat.extractors import deor_declared_eps
from extractomat.ledger import (known_theorems, ledger_lift_one_bit,
                                ledger_theorem)


# ----------------------------------------------------------------------
# the one-bit lift
# ----------------------------------------------------------------------

def test_lift_formula():
    out = ledger_lift_one_bit(10, 6, 10, 5, 1, 2 ** -8)
    assert out["k2"] == pytest.approx(5 + 8)
    assert out["k1"] == pytest.approx(6)  # one-sided: only k2 grows
    assert out["eps"] == pytest.approx(2 * 2 ** -4)


def test_lift_both_strong():
    out = ledger_lift_one_bit(10, 6, 10, 5, 2, 2 ** -8, both_strong=True)
    assert out["k1"] == pytest.approx(6 + 8)
    assert out["k2"] == pytest.approx(5 + 8)
    assert out["eps"] == pytest.approx(4 * 2 ** -4)


def test_lift_eps_one_boundary():
    out = ledger_lift_one_bit(10, 6, 10, 5, 3, 1.0)
    assert out["k2"] == pytest.approx(5)      # adds nothing
    assert out["eps"] == pytest.approx(2 ** 3)


def test_lift_eps_range():
    with pytest.raises(InvalidInputError):
        ledger_lift_one_bit(10, 6, 10, 5, 1, 0.0)


# ----------------------------------------------------------------------
# individual theorems
# ----------------------------------------------------------------------

def test_deor_ge_example():
    entry = ledger_theorem("deor-ge", n=1000, k1=600, k2=600)
    m = min((600 + 600 + 1 - 1000) / 20, 150, 150)
    assert entry.outputs["m"] == pytest.approx(m)
    assert entry.outputs["eps"] == pytest.approx(2 ** -m)


def test_deor_ge_constraint():
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("deor-ge", n=1000, k1=400, k2=400)
    assert "k1 + k2 > n - 1" in exc.value.violations


def test_ir_to_qr_factor():
    entry = ledger_theorem("ir-to-qr", eps=1e-6, rush_bits=10)
    assert entry.outputs["eps_qr"] == pytest.approx(1024 * 1e-6)


def test_bourgain_ge_relations():
    entry = ledger_theorem("bourgain-ge", n=1000, alpha=0.1)
    beta = 0.02
    assert entry.outputs["k"] == pytest.approx((0.5 - beta) * 1000)
    assert entry.outputs["m"] == pytest.approx(beta * 1000)
    assert entry.outputs["eps"] == pytest.approx(2 ** (-beta * 1000))


def test_and_disperser_constants():
    entry = ledger_theorem("and-disperser", alpha=0.5, D=3, M=64)
    assert entry.outputs["d"] == pytest.approx(0.5 ** -8)
    assert entry.outputs["mu"] == pytest.approx(0.25 / 3)
    assert entry.outputs["beta_lower"] == pytest.approx((0.25 / 3) ** 3)


def test_expander_degree_bound():
    entry = ledger_theorem("expander", beta=0.3)
    assert entry.outputs["degree_bound"] == pytest.approx(1 / 0.09)


def test_qbext_budget_entry():
    entry = ledger_theorem("qbext", eps1=0.01, eps2=0.02, eps3=0.03, k3=40)
    assert entry.outputs["eps"] == pytest.approx(
        0.04 + 0.04 + 0.03 + 2 ** -2.0)


def test_weak_seed_entry_and_gate():
    entry = ledger_theorem("weak-seed", k=640, eps=0.01, d=10, delta=0.1)
    assert entry.outputs["k"] == pytest.approx(1.2 * 640)
    assert entry.outputs["d"] == 80  # O-constant default 8
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("weak-seed", k=40, eps=0.01, d=10, delta=0.1)
    assert "d <= k/C" in exc.value.violations


def test_three_source_output_width():
    entry = ledger_theorem("three-source", k=100, eps=0.01, delta=0.1)
    assert entry.outputs["m"] == pytest.approx(90.0)


def test_unknown_theorem():
    with pytest.raises(InvalidInputError):
        ledger_theorem("no-such-theorem")
    assert "raz-ge" in known_theorems()


# ----------------------------------------------------------------------
# the raz-ge chain (exercised fully by the acceptance suite)
# ----------------------------------------------------------------------

def _valid_raz_ge_inputs(rng):
    n1 = int(rng.integers(1 << 14, 1 << 20))
    n2 = int(rng.integers(1 << 14, 1 << 20))
    delta = float(rng.uniform(0.1, 0.4))
    k1 = (0.5 + delta) * n1 + 3 * math.log2(n1) + math.log2(n2) \
        + float(rng.uniform(1, 50))
    k2 = float(rng.uniform(13000, 40000))
    m_max = (delta / 16) * min(n1 / 8, k2 / 40) - 1
    m = float(rng.uniform(1, m_max))
    return {"n1": n1, "n2": n2, "k1": k1, "k2": k2, "delta": delta, "m": m}


def test_raz_ge_chain_values():
    rng = np.random.default_rng(0)
    ins = _valid_raz_ge_inputs(rng)
    entry = ledger_theorem("raz-ge", **ins)
    m = ins["m"]
    steps = {s["step"]: s["value"] for s in entry.trace}
    assert steps["k1'"] == ins["k1"] - 5 * m
    assert steps["k2'"] == ins["k2"] - 5 * m
    assert steps["delta'"] == ins["delta"] / 2
    assert steps["eps'"] == 2.0 ** (-5 * m)
    # the lift lands back on the declared entropies exactly
    assert entry.outputs["k1"] == ins["k1"]
    assert entry.outputs["k2"] == ins["k2"]
    assert entry.outputs["eps"] == 2.0 ** (-1.5 * m)


def test_ledger_replay_is_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(5):
        entry = ledger_theorem("raz-ge", **_valid_raz_ge_inputs(rng))
        assert entry.replay()


def test_entry_serializes():
    entry = ledger_theorem("ir-to-qr", eps=0.5, rush_bits=2)
    import json
    payload = json.loads(entry.to_json())
    assert payload["theorem"] == "ir-to-qr"
    assert payload["outputs"]["eps_qr"] == 2.0


def test_raz_ge_defaults_m_to_the_formula():
    # when m is omitted the entry reports the formula value verbatim,
    # even where tiny k2 drives it negative (the validity flag is the
    # constraint record, not a silent clamp)
    n = float(1 << 20)
    entry = ledger_theorem("raz-ge", n1=n, n2=n, k1=0.7 * n, k2=200.0,
                           delta=0.1)
    expect_m = (0.1 / 16) * min(n / 8, 200 / 40) - 1
    assert entry.outputs["m"] == expect_m
    assert entry.outputs["eps"] == 2.0 ** (-1.5 * expect_m)


def test_raz_marginal_theorem():
    entry = ledger_theorem("raz", n1=1 << 18, n2=1 << 18, k1=0.8 * (1 << 18),
                           k2=20000, delta=0.2, m=10)
    assert entry.outputs["eps"] == pytest.approx(2 ** -15.0)
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("raz", n1=1 << 18, n2=1 << 18, k1=0.8 * (1 << 18),
                       k2=60, delta=0.2, m=10)
    names = " ".join(exc.value.violations)
    assert "k2" in names or "m <=" in names


def test_marginal_and_combinator_theorems_pinned():
    # the theorems that only the CLI reaches, output for output
    assert ledger_theorem("bourgain", n=1000, alpha=0.1).outputs == {
        "n": 1000, "k": 400.0, "m": 100.0, "eps": 2.0 ** -100,
        "strong": "both", "security": "marginal"}
    entry = ledger_theorem("deor", n=10, k1=8, k2=8, m=2)
    assert entry.outputs == {"n": 10, "k1": 8, "k2": 8, "m": 2,
                             "eps": 2.0 ** -2.5, "strong": "both",
                             "security": "marginal"}
    assert entry.outputs["eps"] == deor_declared_eps(10, 8, 8, 2)
    assert ledger_theorem("qmext", t=3, n=16, k=12, l=4, eps1=0.01,
                          eps2=0.02).outputs == {
        "t": 4, "n": 16, "k": 12, "m": 4, "eps": 0.01 + 0.02,
        "strong": "S = {1..3}", "security": "OA/GE"}
    # bext: eps + 2^-(k/20), capped at 1
    for k, eps, total in ((40, 0.01, 0.01 + 0.25), (0, 0.5, 1.0)):
        assert ledger_theorem("bext", k=k, eps=eps).outputs == {
            "eps": total, "strong": "block source",
            "security": "marginal/OA per final stage"}
