"""Parameter ledger: the (n, k, m, eps) arithmetic of every lifting step.

Each entry records inputs, every formula step applied (verbatim, with the
computed value), the constraint checks, and the output parameter record.
Re-running an entry's theorem on its stored inputs reproduces the outputs
bit-exactly; constraint violations are collected and reported by name,
never silently clipped.

Asymptotic constants that the theory leaves open (Omega/O constants, the
weak-seed gate C) are explicit inputs with defaults, and the defaults are
flagged as such in the serialized entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConstraintViolatedError, InvalidInputError

_DEFAULT_OMEGA = 1.0 / 20.0
_DEFAULT_BIG_O = 8
_DEFAULT_WEAKSEED_C = 64.0
_DEFAULT_DISPERSER_C = 1.0
_DEFAULT_EXPANDER_C = 1.0


@dataclass
class LedgerEntry:
    theorem: str
    inputs: dict
    outputs: dict
    trace: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    notes: str = ""

    def step(self, name: str, formula: str, value) -> None:
        self.trace.append({"step": name, "formula": formula, "value": value})

    def to_json_dict(self) -> dict:
        return {"theorem": self.theorem, "inputs": self.inputs,
                "outputs": self.outputs, "trace": self.trace,
                "constraints": self.constraints, "notes": self.notes}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def replay(self) -> bool:
        """Recompute from the stored inputs; outputs must match bit-exactly."""
        fresh = ledger_theorem(self.theorem, **self.inputs)
        return fresh.outputs == self.outputs


def _check(entry: LedgerEntry, violations: list, name: str, ok: bool,
           lhs, rhs) -> None:
    entry.constraints.append({"name": name, "ok": bool(ok),
                              "lhs": lhs, "rhs": rhs})
    if not ok:
        violations.append(name)


def _finish_constraints(violations):
    if violations:
        raise ConstraintViolatedError(violations)


def ledger_lift_one_bit(n1, k1, n2, k2, m, eps, both_strong: bool = False) -> dict:
    """XOR-lemma lift of a strong extractor to one-sided security.

    Entropy on the revealed side grows by log2(1/eps) (both sides when
    both-strong) and the error becomes 2^m * sqrt(eps).
    """
    if not 0 < eps <= 1:
        raise InvalidInputError("eps must lie in (0, 1]")
    add = math.log2(1.0 / eps)
    return {
        "n1": n1,
        "k1": k1 + (add if both_strong else 0.0),
        "n2": n2,
        "k2": k2 + add,
        "m": m,
        "eps": (2.0 ** m) * math.sqrt(eps),
        "both_strong": both_strong,
    }


# ----------------------------------------------------------------------
# Individual theorems
# ----------------------------------------------------------------------

def _raz_constraints(entry, violations, n1, n2, k1, delta):
    _check(entry, violations, "n1 >= 6*log2(n1) + 2*log2(n2)",
           n1 >= 6 * math.log2(n1) + 2 * math.log2(n2),
           n1, 6 * math.log2(n1) + 2 * math.log2(n2))
    _check(entry, violations, "k1 >= (0.5+delta)*n1 + 3*log2(n1) + log2(n2)",
           k1 >= (0.5 + delta) * n1 + 3 * math.log2(n1) + math.log2(n2),
           k1, (0.5 + delta) * n1 + 3 * math.log2(n1) + math.log2(n2))


def _thm_raz(n1, n2, k1, k2, m=None, delta=0.1):
    entry = LedgerEntry("raz", {"n1": n1, "n2": n2, "k1": k1, "k2": k2,
                                "m": m, "delta": delta}, {})
    violations = []
    m_max = delta * min(n1 / 8.0, k2 / 40.0) - 1.0
    if m is None:
        m = m_max
        entry.step("m", "m = delta*min(n1/8, k2/40) - 1", m)
    _raz_constraints(entry, violations, n1, n2, k1, delta)
    if k1 < n1:
        _check(entry, violations, "k2 >= 5*log2(n1-k1)",
               k2 >= 5 * math.log2(n1 - k1), k2, 5 * math.log2(n1 - k1))
    else:
        _check(entry, violations, "k1 < n1 (log2(n1-k1) defined)",
               False, k1, n1)
    _check(entry, violations, "m <= delta*min(n1/8, k2/40) - 1",
           m <= m_max + 1e-12, m, m_max)
    _finish_constraints(violations)
    eps = 2.0 ** (-1.5 * m)
    entry.step("eps", "eps = 2^(-1.5*m)", eps)
    entry.outputs = {"n1": n1, "k1": k1, "n2": n2, "k2": k2, "m": m,
                     "eps": eps, "strong": "both", "security": "marginal"}
    return entry


def _thm_raz_ge(n1, n2, k1, k2, m=None, delta=0.1):
    """The two-source lift chain for the unequal-length construction."""
    entry = LedgerEntry("raz-ge", {"n1": n1, "n2": n2, "k1": k1, "k2": k2,
                                   "m": m, "delta": delta}, {})
    violations = []
    m_max = (delta / 16.0) * min(n1 / 8.0, k2 / 40.0) - 1.0
    if m is None:
        m = m_max
        entry.step("m", "m = (delta/16)*min(n1/8, k2/40) - 1", m)
    _raz_constraints(entry, violations, n1, n2, k1, delta)
    if k1 < n1:
        _check(entry, violations, "k2 >= 6*log2(n1-k1)",
               k2 >= 6 * math.log2(n1 - k1), k2, 6 * math.log2(n1 - k1))
    else:
        _check(entry, violations, "k1 < n1 (log2(n1-k1) defined)",
               False, k1, n1)
    _check(entry, violations, "m <= (delta/16)*min(n1/8, k2/40) - 1",
           m <= m_max + 1e-12, m, m_max)
    _finish_constraints(violations)

    k1p = k1 - 5 * m
    entry.step("k1'", "k1' = k1 - 5m", k1p)
    k2p = k2 - 5 * m
    entry.step("k2'", "k2' = k2 - 5m", k2p)
    deltap = delta / 2.0
    entry.step("delta'", "delta' = delta/2", deltap)
    epsp = 2.0 ** (-5 * m)
    entry.step("eps'", "eps' = 2^(-5m)", epsp)
    entry.step("base-k1' check",
               "k1' >= (0.5+delta')*n1 + 3*log2(n1) + log2(n2)",
               k1p >= (0.5 + deltap) * n1 + 3 * math.log2(n1) + math.log2(n2))
    entry.step("base-k2' check", "k2' >= 5*log2(n1-k1)",
               k2p >= 5 * math.log2(n1 - k1))
    eps = 2.0 ** (-1.5 * m)
    if 0 < epsp <= 1:
        lifted = ledger_lift_one_bit(n1, k1p, n2, k2p, m, epsp,
                                     both_strong=True)
        entry.step("lift", "(k' + log2(1/eps'), 2^m*sqrt(eps'))",
                   {"k1": lifted["k1"], "k2": lifted["k2"],
                    "eps": lifted["eps"]})
        entry.step("oa-to-ge", "identity on parameters (strong, |S| = t-1)",
                   None)
        k1_out, k2_out, eps_lifted = lifted["k1"], lifted["k2"], lifted["eps"]
    else:
        # degenerate instance (m below one bit): report the formula
        # values verbatim, the lift step does not apply
        entry.step("lift", "not applicable: eps' = 2^(-5m) outside (0,1]",
                   None)
        k1_out, k2_out, eps_lifted = k1, k2, eps
    entry.step("eps", "eps = 2^(-1.5*m)", eps)
    entry.outputs = {"n1": n1, "k1": k1_out, "n2": n2,
                     "k2": k2_out, "m": m, "eps": eps,
                     "eps_lifted": eps_lifted, "strong": "both",
                     "security": "GE"}
    return entry


def _thm_bourgain(n, alpha=0.1):
    entry = LedgerEntry("bourgain", {"n": n, "alpha": alpha}, {})
    k = (0.5 - alpha) * n
    m = alpha * n
    eps = 2.0 ** (-alpha * n)
    entry.step("k", "k = (0.5-alpha)*n", k)
    entry.step("m", "m = alpha*n", m)
    entry.step("eps", "eps = 2^(-alpha*n)", eps)
    entry.outputs = {"n": n, "k": k, "m": m, "eps": eps, "strong": "both",
                     "security": "marginal"}
    return entry


def _thm_bourgain_ge(n, alpha=0.1):
    entry = LedgerEntry("bourgain-ge", {"n": n, "alpha": alpha}, {})
    beta = alpha / 5.0
    entry.step("beta", "beta = alpha/5", beta)
    kp = (0.5 - alpha) * n
    entry.step("k'", "k' = (0.5-alpha)*n", kp)
    epspp = 2.0 ** (-4 * beta * n)
    entry.step("eps''", "eps'' = 2^(-4*beta*n)", epspp)
    lifted = ledger_lift_one_bit(n, kp, n, kp, beta * n, epspp,
                                 both_strong=True)
    entry.step("lift", "(k' + log2(1/eps''), 2^m*sqrt(eps''))",
               {"k": lifted["k1"], "eps": lifted["eps"]})
    k = (0.5 - beta) * n
    m = beta * n
    eps = 2.0 ** (-beta * n)
    entry.outputs = {"n": n, "k": k, "m": m, "eps": eps, "strong": "both",
                     "security": "GE"}
    return entry


def _thm_deor(n, k1, k2, m):
    entry = LedgerEntry("deor", {"n": n, "k1": k1, "k2": k2, "m": m}, {})
    eps = 2.0 ** (-(k1 + k2 + 1 - n - m) / 2.0)
    entry.step("eps", "eps = 2^(-(k1+k2+1-n-m)/2)", eps)
    entry.outputs = {"n": n, "k1": k1, "k2": k2, "m": m, "eps": eps,
                     "strong": "both", "security": "marginal"}
    return entry


def _thm_deor_ge(n, k1, k2):
    entry = LedgerEntry("deor-ge", {"n": n, "k1": k1, "k2": k2}, {})
    violations = []
    _check(entry, violations, "k1 + k2 > n - 1", k1 + k2 > n - 1,
           k1 + k2, n - 1)
    _finish_constraints(violations)
    m = min((k1 + k2 + 1 - n) / 20.0, k1 / 4.0, k2 / 4.0)
    entry.step("m", "m = min((k1+k2+1-n)/20, k1/4, k2/4)", m)
    k1p = k1 - 4 * m
    k2p = k2 - 4 * m
    entry.step("k1'", "k1' = k1 - 4m", k1p)
    entry.step("k2'", "k2' = k2 - 4m", k2p)
    epsp = 2.0 ** (-4 * m)
    entry.step("eps'", "eps' = 2^(-4m)", epsp)
    base = 2.0 ** (-(k1p + k2p + 1 - n - m) / 2.0)
    entry.step("base check", "2^(-(k1'+k2'+1-n-m)/2) <= eps'",
               base <= epsp * (1 + 1e-12))
    lifted = ledger_lift_one_bit(n, k1p, n, k2p, m, epsp, both_strong=True)
    entry.step("lift", "(k' + log2(1/eps'), 2^m*sqrt(eps'))",
               {"k1": lifted["k1"], "k2": lifted["k2"], "eps": lifted["eps"]})
    eps = 2.0 ** (-m)
    entry.outputs = {"n": n, "k1": lifted["k1"], "k2": lifted["k2"], "m": m,
                     "eps": eps, "strong": "both", "security": "GE"}
    return entry


def _thm_qmext(t, n, k, l, eps1, eps2):
    entry = LedgerEntry("qmext", {"t": t, "n": n, "k": k, "l": l,
                                  "eps1": eps1, "eps2": eps2}, {})
    eps = eps1 + eps2
    entry.step("eps", "eps = eps1 + eps2", eps)
    entry.outputs = {"t": t + 1, "n": n, "k": k, "m": l, "eps": eps,
                     "strong": f"S = {{1..{t}}}", "security": "OA/GE"}
    return entry


def _thm_qbext(eps1, eps2, eps3, k3, omega_const=_DEFAULT_OMEGA):
    entry = LedgerEntry("qbext", {"eps1": eps1, "eps2": eps2, "eps3": eps3,
                                  "k3": k3, "omega_const": omega_const}, {})
    residual = 2.0 ** (-omega_const * k3)
    entry.step("residual", "2^-Omega(k3), Omega constant is a default",
               residual)
    eps = 4 * eps1 + 2 * eps2 + eps3 + residual
    entry.step("eps", "eps = 4*eps1 + 2*eps2 + eps3 + 2^-Omega(k3)", eps)
    entry.outputs = {"eps": min(1.0, eps), "strong": "block source",
                     "security": "OA/GE"}
    return entry


def _thm_bext(k, eps, omega_const=_DEFAULT_OMEGA):
    entry = LedgerEntry("bext", {"k": k, "eps": eps,
                                 "omega_const": omega_const}, {})
    residual = 2.0 ** (-omega_const * k)
    entry.step("residual", "2^-Omega(k), Omega constant is a default",
               residual)
    total = min(1.0, eps + residual)
    entry.step("eps", "eps_total = 2^-Omega(k) + eps", total)
    entry.outputs = {"eps": total, "strong": "block source",
                     "security": "marginal/OA per final stage"}
    return entry


def _thm_weak_seed(k, eps, d, delta, C=_DEFAULT_WEAKSEED_C,
                   big_o_const=_DEFAULT_BIG_O, omega_const=_DEFAULT_OMEGA):
    entry = LedgerEntry("weak-seed", {"k": k, "eps": eps, "d": d,
                                      "delta": delta, "C": C,
                                      "big_o_const": big_o_const,
                                      "omega_const": omega_const}, {})
    violations = []
    _check(entry, violations, "d <= k/C", d <= k / C, d, k / C)
    _finish_constraints(violations)
    d_prime = big_o_const * d
    entry.step("d'", "d' = O(d), O constant is a default", d_prime)
    entry.step("block split", "halves form a (delta*d', delta*d'/2) block "
               "source up to 2^-Omega(d')",
               {"k_block1": delta * d_prime, "k_block2": delta * d_prime / 2})
    out_eps = eps + 2.0 ** (-omega_const * d)
    entry.step("eps", "eps' = eps + 2^-Omega(d)", out_eps)
    entry.outputs = {"k": 1.2 * k, "eps": min(1.0, out_eps), "d": d_prime,
                     "seed_entropy": (0.5 + delta) * d_prime,
                     "security": "strong, weak seed"}
    return entry


def _thm_three_source(k, eps, delta):
    entry = LedgerEntry("three-source", {"k": k, "eps": eps, "delta": delta}, {})
    m = 0.9 * k
    entry.step("m", "m = 0.9*k", m)
    entry.outputs = {"m": m, "eps": eps, "strong": "the two short seeds",
                     "security": "GE"}
    return entry


def _thm_ir_to_qr(eps, rush_bits):
    entry = LedgerEntry("ir-to-qr", {"eps": eps, "rush_bits": rush_bits}, {})
    out = (2.0 ** rush_bits) * eps
    entry.step("eps_qr", "eps_qr = 2^rush_bits * eps_ir", out)
    entry.outputs = {"eps_qr": out}
    return entry


def _thm_and_disperser(alpha, D, M, c=_DEFAULT_DISPERSER_C):
    entry = LedgerEntry("and-disperser", {"alpha": alpha, "D": D, "M": M,
                                          "c": c}, {})
    d = c * alpha ** (-8)
    mu = alpha * alpha / 3.0
    entry.step("d", "d = c*alpha^-8", d)
    entry.step("mu", "mu = alpha^2/3", mu)
    n_upper = M * d ** D
    beta_lower = mu ** D
    entry.step("N bound", "M < N <= M*d^D", n_upper)
    entry.step("beta bound", "beta > mu^D", beta_lower)
    entry.outputs = {"d": d, "mu": mu, "N_upper": n_upper,
                     "beta_lower": beta_lower}
    return entry


def _thm_expander(beta, C=_DEFAULT_EXPANDER_C):
    entry = LedgerEntry("expander", {"beta": beta, "C": C}, {})
    d = C / (beta * beta)
    entry.step("d", "d(beta) < O(1/beta^2), O constant is a default", d)
    entry.outputs = {"degree_bound": d}
    return entry


_THEOREMS = {
    "raz": _thm_raz,
    "raz-ge": _thm_raz_ge,
    "bourgain": _thm_bourgain,
    "bourgain-ge": _thm_bourgain_ge,
    "deor": _thm_deor,
    "deor-ge": _thm_deor_ge,
    "qmext": _thm_qmext,
    "qbext": _thm_qbext,
    "bext": _thm_bext,
    "weak-seed": _thm_weak_seed,
    "three-source": _thm_three_source,
    "ir-to-qr": _thm_ir_to_qr,
    "and-disperser": _thm_and_disperser,
    "expander": _thm_expander,
}


def ledger_theorem(theorem_id: str, **inputs) -> LedgerEntry:
    """Evaluate one theorem's parameter arithmetic.

    Raises :class:`ConstraintViolatedError` naming every violated
    precondition.  Unknown ids list the known ones.
    """
    fn = _THEOREMS.get(theorem_id)
    if fn is None:
        raise InvalidInputError(
            f"unknown theorem id {theorem_id!r}; known: {sorted(_THEOREMS)}")
    return fn(**inputs)


def known_theorems() -> list:
    return sorted(_THEOREMS)
