import importlib.util
import json
import math
import re
from pathlib import Path

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


def test_request_binds_to_the_theorems_signature():
    with pytest.raises(InvalidInputError, match=r"takes \(n, k1, k2\)"):
        ledger_theorem("deor-ge", n=1000, k1=600, k2=600, m=1)
    with pytest.raises(InvalidInputError, match="missing .* 'k2'"):
        ledger_theorem("deor-ge", n=1000, k1=600)
    # omitted defaults are recorded, and replay reads them back
    entry = ledger_theorem("weak-seed", k=640, eps=0.01, d=10, delta=0.1)
    assert entry.inputs["C"] == 64.0 and entry.replay()


def test_arithmetic_outside_the_domain_is_invalid_input():
    with pytest.raises(InvalidInputError, match="'expander' is undefined at "
                       "beta=0, C=1.0") as exc:
        ledger_theorem("expander", beta=0)
    assert isinstance(exc.value.__cause__, ZeroDivisionError)
    # the typed errors a theorem raises itself pass through unchanged
    with pytest.raises(InvalidInputError, match=r"eps must lie in \(0, 1\]"):
        ledger_theorem("bourgain-ge", n=1000, alpha=-0.1)
    with pytest.raises(ConstraintViolatedError) as exc:
        ledger_theorem("raz", n1=1 << 10, n2=1 << 10, k1=2048, k2=10)
    assert "k1 < n1 (log2(n1-k1) defined)" in exc.value.violations


@pytest.mark.parametrize("theorem,inputs,named", [
    ("ir-to-qr", {"eps": -1, "rush_bits": 10}, "eps=-1"),
    ("ir-to-qr", {"eps": 1.5, "rush_bits": 10}, "eps=1.5"),
    ("ir-to-qr", {"eps": float("nan"), "rush_bits": 10}, "eps=nan"),
    ("ir-to-qr", {"eps": 0.1, "rush_bits": float("inf")}, "rush_bits=inf"),
    ("qmext", {"t": 2, "n": 64.0, "k": 60.0, "l": 3, "eps1": 0.1,
               "eps2": -0.25}, "eps2=-0.25"),
    ("qbext", {"eps1": 0.1, "eps2": 0.1, "eps3": 2.0, "k3": 100.0},
     "eps3=2.0"),
    ("qmext", {"t": 2, "n": 64.0, "k": 60.0, "l": 3, "eps1": 1e6,
               "eps2": 0.1}, "eps1=1000000.0"),
    ("bourgain", {"n": float("-inf")}, "n=-inf"),
    ("raz", {"n1": 1024.0, "n2": 1024.0, "k1": 900.0, "k2": 100.0,
             "delta": float("nan")}, "delta=nan"),
])
def test_non_finite_inputs_and_errors_outside_the_unit_interval_are_refused(
        theorem, inputs, named):
    with pytest.raises(InvalidInputError, match=rf"theorem {theorem!r} "
                       r"takes finite inputs and errors in \[0, 1\], not "
                       + re.escape(named)):
        ledger_theorem(theorem, **inputs)


def test_errors_at_the_ends_of_the_unit_interval_are_taken():
    assert ledger_theorem("ir-to-qr", eps=0, rush_bits=3).outputs[
        "eps_qr"] == 0
    assert ledger_theorem("ir-to-qr", eps=1, rush_bits=3).outputs[
        "eps_qr"] == 8


def test_a_result_off_the_reals_is_invalid_input():
    # C*alpha^-8 < 0 raised to a non-integer D is complex: refused by
    # name, never an entry whose to_json() raises a bare TypeError.
    with pytest.raises(InvalidInputError, match="'and-disperser' is undefined "
                       r"at alpha=0.785, D=-0.5, M=0, C=-3.0: a result "
                       "leaves the reals"):
        ledger_theorem("and-disperser", alpha=0.785, D=-0.5, M=0, C=-3.0)
    # a negative d to an integer power stays real
    entry = ledger_theorem("and-disperser", alpha=0.785, D=3, M=1, C=-3.0)
    assert json.loads(entry.to_json())["outputs"]["N_upper"] < 0


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


# ----------------------------------------------------------------------
# golden pins: every theorem's full entry, byte for byte
# ----------------------------------------------------------------------

# One full entry per theorem, generated from the ledger before its inputs
# were bound to the theorems' signatures: inputs (defaults applied), trace,
# constraints and outputs, compared as the JSON text the CLI writes.
GOLDEN = [
    ('raz', dict(n1=262144, n2=262144, k1=209715.2, k2=20000, delta=0.2),
     {'theorem': 'raz',
      'inputs': {'n1': 262144,
                 'n2': 262144,
                 'k1': 209715.2,
                 'k2': 20000,
                 'm': None,
                 'delta': 0.2},
      'outputs': {'n1': 262144,
                  'k1': 209715.2,
                  'n2': 262144,
                  'k2': 20000,
                  'm': 99.0,
                  'eps': 1.981735293180747e-45,
                  'strong': 'both',
                  'security': 'marginal'},
      'trace': [{'step': 'm',
                 'formula': 'm = delta*min(n1/8, k2/40) - 1',
                 'value': 99.0},
                {'step': 'eps',
                 'formula': 'eps = 2^(-1.5*m)',
                 'value': 1.981735293180747e-45}],
      'constraints': [{'name': 'n1 >= 6*log2(n1) + 2*log2(n2)',
                       'ok': True,
                       'lhs': 262144,
                       'rhs': 144.0},
                      {'name': 'k1 >= (0.5+delta)*n1 + 3*log2(n1) + '
                               'log2(n2)',
                       'ok': True,
                       'lhs': 209715.2,
                       'rhs': 183572.8},
                      {'name': 'k2 >= 5*log2(n1-k1)',
                       'ok': True,
                       'lhs': 20000,
                       'rhs': 78.39035952556318},
                      {'name': 'm <= delta*min(n1/8, k2/40) - 1',
                       'ok': True,
                       'lhs': 99.0,
                       'rhs': 99.0}],
      'notes': ''}),
    ('raz-ge', dict(n1=1048576.0, n2=1048576.0, k1=734003.2, k2=200000.0),
     {'theorem': 'raz-ge',
      'inputs': {'n1': 1048576.0,
                 'n2': 1048576.0,
                 'k1': 734003.2,
                 'k2': 200000.0,
                 'm': None,
                 'delta': 0.1},
      'outputs': {'n1': 1048576.0,
                  'k1': 734003.2,
                  'n2': 1048576.0,
                  'k2': 200000.0,
                  'm': 30.25,
                  'eps': 2.191613398008401e-14,
                  'eps_lifted': 2.191613398008401e-14,
                  'strong': 'both',
                  'security': 'GE'},
      'trace': [{'step': 'm',
                 'formula': 'm = (delta/16)*min(n1/8, k2/40) - 1',
                 'value': 30.25},
                {'step': "k1'",
                 'formula': "k1' = k1 - 5m",
                 'value': 733851.95},
                {'step': "k2'",
                 'formula': "k2' = k2 - 5m",
                 'value': 199848.75},
                {'step': "delta'",
                 'formula': "delta' = delta/2",
                 'value': 0.05},
                {'step': "eps'",
                 'formula': "eps' = 2^(-5m)",
                 'value': 2.9458671383781845e-46},
                {'step': "base-k1' check",
                 'formula': "k1' >= (0.5+delta')*n1 + 3*log2(n1) + log2(n2)",
                 'value': True},
                {'step': "base-k2' check",
                 'formula': "k2' >= 5*log2(n1-k1)",
                 'value': True},
                {'step': 'lift',
                 'formula': "(k' + log2(1/eps'), 2^m*sqrt(eps'))",
                 'value': {'k1': 734003.2,
                           'k2': 200000.0,
                           'eps': 2.191613398008401e-14}},
                {'step': 'oa-to-ge',
                 'formula': 'identity on parameters (strong, |S| = t-1)',
                 'value': None},
                {'step': 'eps',
                 'formula': 'eps = 2^(-1.5*m)',
                 'value': 2.191613398008401e-14}],
      'constraints': [{'name': 'n1 >= 6*log2(n1) + 2*log2(n2)',
                       'ok': True,
                       'lhs': 1048576.0,
                       'rhs': 160.0},
                      {'name': 'k1 >= (0.5+delta)*n1 + 3*log2(n1) + '
                               'log2(n2)',
                       'ok': True,
                       'lhs': 734003.2,
                       'rhs': 629225.6},
                      {'name': 'k2 >= 6*log2(n1-k1)',
                       'ok': True,
                       'lhs': 200000.0,
                       'rhs': 109.57820643500276},
                      {'name': 'm <= (delta/16)*min(n1/8, k2/40) - 1',
                       'ok': True,
                       'lhs': 30.25,
                       'rhs': 30.25}],
      'notes': ''}),
    ('bourgain', dict(n=1000, alpha=0.1),
     {'theorem': 'bourgain',
      'inputs': {'n': 1000, 'alpha': 0.1},
      'outputs': {'n': 1000,
                  'k': 400.0,
                  'm': 100.0,
                  'eps': 7.888609052210118e-31,
                  'strong': 'both',
                  'security': 'marginal'},
      'trace': [{'step': 'k',
                 'formula': 'k = (0.5-alpha)*n',
                 'value': 400.0},
                {'step': 'm', 'formula': 'm = alpha*n', 'value': 100.0},
                {'step': 'eps',
                 'formula': 'eps = 2^(-alpha*n)',
                 'value': 7.888609052210118e-31}],
      'constraints': [],
      'notes': ''}),
    ('bourgain-ge', dict(n=1000.0),
     {'theorem': 'bourgain-ge',
      'inputs': {'n': 1000.0, 'alpha': 0.1},
      'outputs': {'n': 1000.0,
                  'k': 480.0,
                  'm': 20.0,
                  'eps': 9.5367431640625e-07,
                  'strong': 'both',
                  'security': 'GE'},
      'trace': [{'step': 'beta', 'formula': 'beta = alpha/5', 'value': 0.02},
                {'step': "k'",
                 'formula': "k' = (0.5-alpha)*n",
                 'value': 400.0},
                {'step': "eps''",
                 'formula': "eps'' = 2^(-4*beta*n)",
                 'value': 8.271806125530277e-25},
                {'step': 'lift',
                 'formula': "(k' + log2(1/eps''), 2^m*sqrt(eps''))",
                 'value': {'k': 480.0, 'eps': 9.5367431640625e-07}}],
      'constraints': [],
      'notes': ''}),
    ('deor', dict(n=10, k1=8, k2=8, m=2),
     {'theorem': 'deor',
      'inputs': {'n': 10, 'k1': 8, 'k2': 8, 'm': 2},
      'outputs': {'n': 10,
                  'k1': 8,
                  'k2': 8,
                  'm': 2,
                  'eps': 0.1767766952966369,
                  'strong': 'both',
                  'security': 'marginal'},
      'trace': [{'step': 'eps',
                 'formula': 'eps = 2^(-(k1+k2+1-n-m)/2)',
                 'value': 0.1767766952966369}],
      'constraints': [],
      'notes': ''}),
    ('deor-ge', dict(n=1000.0, k1=600.0, k2=600.0),
     {'theorem': 'deor-ge',
      'inputs': {'n': 1000.0, 'k1': 600.0, 'k2': 600.0},
      'outputs': {'n': 1000.0,
                  'k1': 600.0,
                  'k2': 600.0,
                  'm': 10.05,
                  'eps': 0.000943297196215669,
                  'strong': 'both',
                  'security': 'GE'},
      'trace': [{'step': 'm',
                 'formula': 'm = min((k1+k2+1-n)/20, k1/4, k2/4)',
                 'value': 10.05},
                {'step': "k1'", 'formula': "k1' = k1 - 4m", 'value': 559.8},
                {'step': "k2'", 'formula': "k2' = k2 - 4m", 'value': 559.8},
                {'step': "eps'",
                 'formula': "eps' = 2^(-4m)",
                 'value': 7.917611249432616e-13},
                {'step': 'base check',
                 'formula': "2^(-(k1'+k2'+1-n-m)/2) <= eps'",
                 'value': True},
                {'step': 'lift',
                 'formula': "(k' + log2(1/eps'), 2^m*sqrt(eps'))",
                 'value': {'k1': 600.0,
                           'k2': 600.0,
                           'eps': 0.0009432971962156691}}],
      'constraints': [{'name': 'k1 + k2 > n - 1',
                       'ok': True,
                       'lhs': 1200.0,
                       'rhs': 999.0}],
      'notes': ''}),
    ('qmext', dict(t=3, n=16, k=12, l=4, eps1=0.01, eps2=0.02),
     {'theorem': 'qmext',
      'inputs': {'t': 3,
                 'n': 16,
                 'k': 12,
                 'l': 4,
                 'eps1': 0.01,
                 'eps2': 0.02},
      'outputs': {'t': 4,
                  'n': 16,
                  'k': 12,
                  'm': 4,
                  'eps': 0.03,
                  'strong': 'S = {1..3}',
                  'security': 'OA/GE'},
      'trace': [{'step': 'eps',
                 'formula': 'eps = eps1 + eps2',
                 'value': 0.03}],
      'constraints': [],
      'notes': ''}),
    ('qbext', dict(eps1=0.01, eps2=0.02, eps3=0.03, k3=40.0),
     {'theorem': 'qbext',
      'inputs': {'eps1': 0.01,
                 'eps2': 0.02,
                 'eps3': 0.03,
                 'k3': 40.0,
                 'omega_const': 0.05},
      'outputs': {'eps': 0.36,
                  'strong': 'block source',
                  'security': 'OA/GE'},
      'trace': [{'step': 'residual',
                 'formula': '2^-Omega(k3), Omega constant is a default',
                 'value': 0.25},
                {'step': 'eps',
                 'formula': 'eps = 4*eps1 + 2*eps2 + eps3 + 2^-Omega(k3)',
                 'value': 0.36}],
      'constraints': [],
      'notes': ''}),
    ('bext', dict(k=40, eps=0.01),
     {'theorem': 'bext',
      'inputs': {'k': 40, 'eps': 0.01, 'omega_const': 0.05},
      'outputs': {'eps': 0.26,
                  'strong': 'block source',
                  'security': 'marginal/OA per final stage'},
      'trace': [{'step': 'residual',
                 'formula': '2^-Omega(k), Omega constant is a default',
                 'value': 0.25},
                {'step': 'eps',
                 'formula': 'eps_total = 2^-Omega(k) + eps',
                 'value': 0.26}],
      'constraints': [],
      'notes': ''}),
    ('weak-seed', dict(k=640.0, eps=0.01, d=10.0, delta=0.1),
     {'theorem': 'weak-seed',
      'inputs': {'k': 640.0,
                 'eps': 0.01,
                 'd': 10.0,
                 'delta': 0.1,
                 'C': 64.0,
                 'big_o_const': 8,
                 'omega_const': 0.05},
      'outputs': {'k': 768.0,
                  'eps': 0.7171067811865476,
                  'd': 80.0,
                  'seed_entropy': 48.0,
                  'security': 'strong, weak seed'},
      'trace': [{'step': "d'",
                 'formula': "d' = O(d), O constant is a default",
                 'value': 80.0},
                {'step': 'block split',
                 'formula': "halves form a (delta*d', delta*d'/2) block "
                            "source up to 2^-Omega(d')",
                 'value': {'k_block1': 8.0, 'k_block2': 4.0}},
                {'step': 'eps',
                 'formula': "eps' = eps + 2^-Omega(d)",
                 'value': 0.7171067811865476}],
      'constraints': [{'name': 'd <= k/C',
                       'ok': True,
                       'lhs': 10.0,
                       'rhs': 10.0}],
      'notes': ''}),
    ('three-source', dict(k=100.0, eps=0.01, delta=0.1),
     {'theorem': 'three-source',
      'inputs': {'k': 100.0, 'eps': 0.01, 'delta': 0.1},
      'outputs': {'m': 90.0,
                  'eps': 0.01,
                  'strong': 'the two short seeds',
                  'security': 'GE'},
      'trace': [{'step': 'm', 'formula': 'm = 0.9*k', 'value': 90.0}],
      'constraints': [],
      'notes': ''}),
    ('ir-to-qr', dict(eps=1e-06, rush_bits=10.0),
     {'theorem': 'ir-to-qr',
      'inputs': {'eps': 1e-06, 'rush_bits': 10.0},
      'outputs': {'eps_qr': 0.001024},
      'trace': [{'step': 'eps_qr',
                 'formula': 'eps_qr = 2^rush_bits * eps_ir',
                 'value': 0.001024}],
      'constraints': [],
      'notes': ''}),
    ('and-disperser', dict(alpha=0.5, D=3, M=64),
     {'theorem': 'and-disperser',
      'inputs': {'alpha': 0.5, 'D': 3, 'M': 64, 'C': 1.0},
      'outputs': {'d': 256.0,
                  'mu': 0.08333333333333333,
                  'N_upper': 1073741824.0,
                  'beta_lower': 0.0005787037037037036},
      'trace': [{'step': 'd', 'formula': 'd = C*alpha^-8', 'value': 256.0},
                {'step': 'mu',
                 'formula': 'mu = alpha^2/3',
                 'value': 0.08333333333333333},
                {'step': 'N bound',
                 'formula': 'M < N <= M*d^D',
                 'value': 1073741824.0},
                {'step': 'beta bound',
                 'formula': 'beta > mu^D',
                 'value': 0.0005787037037037036}],
      'constraints': [],
      'notes': ''}),
    ('expander', dict(beta=0.3),
     {'theorem': 'expander',
      'inputs': {'beta': 0.3, 'C': 1.0},
      'outputs': {'degree_bound': 11.11111111111111},
      'trace': [{'step': 'd',
                 'formula': 'd(beta) < O(1/beta^2), O constant is a default',
                 'value': 11.11111111111111}],
      'constraints': [],
      'notes': ''}),
]


@pytest.mark.parametrize("theorem,inputs,entry", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_entry_matches_its_golden_pin(theorem, inputs, entry):
    got = ledger_theorem(theorem, **inputs)
    assert got.to_json() == json.dumps(entry, indent=2)
    assert got.replay()


def test_golden_pins_cover_every_theorem():
    assert sorted(g[0] for g in GOLDEN) == known_theorems()


def test_ledger_grid_tool_agrees_with_itself():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "ledger_grid", root / "tools" / "ledger_grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    assert set(grid.PARAMS) == set(known_theorems())
    src = str(root / "src")
    counts = grid.compare(src, src, per_theorem=3)
    assert sum(counts.values()) == 3 * 14 and not counts["mismatch"]
    assert counts["ok"] and counts["InvalidInputError"]
