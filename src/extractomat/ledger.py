"""Parameter ledger: the (n, k, m, eps) arithmetic of every lifting step.

A theorem's signature states its inputs and defaults; a request binds to
it.  Each entry records the bound inputs, every formula step applied
(verbatim, with the computed value), the constraint checks, and the output
parameter record.  Re-running an entry's theorem on its stored inputs
reproduces the outputs bit-exactly; constraint violations are reported by
name, never silently clipped.

Asymptotic constants that the theory leaves open (Omega/O constants, the
weak-seed gate C) are explicit inputs with defaults, and the defaults are
flagged as such in the serialized entry.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field

from .errors import ConstraintViolatedError, InvalidInputError

# the first three are combinators.CompositionConfig's defaults too
DEFAULT_OMEGA = 1.0 / 20.0
DEFAULT_WEAKSEED_C = 64.0
WEAKSEED_FACTOR = 1.2
_DEFAULT_BIG_O = 8
_DEFAULT_DISPERSER_C = 1.0
_DEFAULT_EXPANDER_C = 1.0
ERROR_INPUTS = ("eps", "eps1", "eps2", "eps3")  # errors, each in [0, 1]


@dataclass
class LedgerEntry:
    theorem: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    notes: str = ""

    def step(self, name: str, formula: str, value) -> None:
        self.trace.append({"step": name, "formula": formula, "value": value})

    def check(self, name: str, ok: bool, lhs, rhs) -> None:
        self.constraints.append({"name": name, "ok": bool(ok),
                                 "lhs": lhs, "rhs": rhs})

    def require(self) -> None:
        """Raise :class:`ConstraintViolatedError` naming every failed check."""
        failed = [c["name"] for c in self.constraints if not c["ok"]]
        if failed:
            raise ConstraintViolatedError(failed)

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # shallow: asdict's deep copy costs ~40 us

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def replay(self) -> bool:
        """Recompute from the stored inputs; outputs must match bit-exactly."""
        fresh = ledger_theorem(self.theorem, **self.inputs)
        return fresh.outputs == self.outputs


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

def _raz_constraints(entry, n1, n2, k1, k2, m, delta, text, scale, factor):
    """The preconditions that raz and raz-ge share, where ``scale`` (written
    ``text``) is delta or delta/16 in ``m <= scale*min(n1/8, k2/40) - 1``
    and ``factor`` is 5 or 6 in ``k2 >= factor*log2(n1-k1)``.  Returns m,
    the bound itself when omitted."""
    m_max = scale * min(n1 / 8.0, k2 / 40.0) - 1.0
    if m is None:
        m = m_max
        entry.step("m", f"m = {text}*min(n1/8, k2/40) - 1", m)
    rhs = 6 * math.log2(n1) + 2 * math.log2(n2)
    entry.check("n1 >= 6*log2(n1) + 2*log2(n2)", n1 >= rhs, n1, rhs)
    rhs = (0.5 + delta) * n1 + 3 * math.log2(n1) + math.log2(n2)
    entry.check("k1 >= (0.5+delta)*n1 + 3*log2(n1) + log2(n2)", k1 >= rhs,
                k1, rhs)
    if k1 < n1:
        rhs = factor * math.log2(n1 - k1)
        entry.check(f"k2 >= {factor}*log2(n1-k1)", k2 >= rhs, k2, rhs)
    else:
        entry.check("k1 < n1 (log2(n1-k1) defined)", False, k1, n1)
    entry.check(f"m <= {text}*min(n1/8, k2/40) - 1", m <= m_max + 1e-12,
                m, m_max)
    entry.require()
    return m


def _thm_raz(entry, n1, n2, k1, k2, m=None, delta=0.1):
    m = _raz_constraints(entry, n1, n2, k1, k2, m, delta, "delta", delta, 5)
    eps = 2.0 ** (-1.5 * m)
    entry.step("eps", "eps = 2^(-1.5*m)", eps)
    entry.outputs = {"n1": n1, "k1": k1, "n2": n2, "k2": k2, "m": m,
                     "eps": eps, "strong": "both", "security": "marginal"}


def _thm_raz_ge(entry, n1, n2, k1, k2, m=None, delta=0.1):
    """The two-source lift chain for the unequal-length construction."""
    m = _raz_constraints(entry, n1, n2, k1, k2, m, delta, "(delta/16)",
                         delta / 16.0, 6)
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


def _thm_bourgain(entry, n, alpha=0.1):
    k = (0.5 - alpha) * n
    m = alpha * n
    eps = 2.0 ** (-alpha * n)
    entry.step("k", "k = (0.5-alpha)*n", k)
    entry.step("m", "m = alpha*n", m)
    entry.step("eps", "eps = 2^(-alpha*n)", eps)
    entry.outputs = {"n": n, "k": k, "m": m, "eps": eps, "strong": "both",
                     "security": "marginal"}


def _thm_bourgain_ge(entry, n, alpha=0.1):
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


def _thm_deor(entry, n, k1, k2, m):
    eps = 2.0 ** (-(k1 + k2 + 1 - n - m) / 2.0)
    entry.step("eps", "eps = 2^(-(k1+k2+1-n-m)/2)", eps)
    entry.outputs = {"n": n, "k1": k1, "k2": k2, "m": m, "eps": eps,
                     "strong": "both", "security": "marginal"}


def _thm_deor_ge(entry, n, k1, k2):
    entry.check("k1 + k2 > n - 1", k1 + k2 > n - 1, k1 + k2, n - 1)
    entry.require()
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


def _thm_qmext(entry, t, n, k, l, eps1, eps2):
    eps = eps1 + eps2
    entry.step("eps", "eps = eps1 + eps2", eps)
    entry.outputs = {"t": t + 1, "n": n, "k": k, "m": l, "eps": eps,
                     "strong": f"S = {{1..{t}}}", "security": "OA/GE"}


def _thm_qbext(entry, eps1, eps2, eps3, k3, omega_const=DEFAULT_OMEGA):
    residual = 2.0 ** (-omega_const * k3)
    entry.step("residual", "2^-Omega(k3), Omega constant is a default",
               residual)
    eps = 4 * eps1 + 2 * eps2 + eps3 + residual
    entry.step("eps", "eps = 4*eps1 + 2*eps2 + eps3 + 2^-Omega(k3)", eps)
    entry.outputs = {"eps": min(1.0, eps), "strong": "block source",
                     "security": "OA/GE"}


def _thm_bext(entry, k, eps, omega_const=DEFAULT_OMEGA):
    residual = 2.0 ** (-omega_const * k)
    entry.step("residual", "2^-Omega(k), Omega constant is a default",
               residual)
    total = min(1.0, eps + residual)
    entry.step("eps", "eps_total = 2^-Omega(k) + eps", total)
    entry.outputs = {"eps": total, "strong": "block source",
                     "security": "marginal/OA per final stage"}


def _thm_weak_seed(entry, k, eps, d, delta, C=DEFAULT_WEAKSEED_C,
                   big_o_const=_DEFAULT_BIG_O, omega_const=DEFAULT_OMEGA):
    entry.check("d <= k/C", d <= k / C, d, k / C)
    entry.require()
    d_prime = big_o_const * d
    entry.step("d'", "d' = O(d), O constant is a default", d_prime)
    entry.step("block split", "halves form a (delta*d', delta*d'/2) block "
               "source up to 2^-Omega(d')",
               {"k_block1": delta * d_prime, "k_block2": delta * d_prime / 2})
    out_eps = eps + 2.0 ** (-omega_const * d)
    entry.step("eps", "eps' = eps + 2^-Omega(d)", out_eps)
    entry.outputs = {"k": WEAKSEED_FACTOR * k, "eps": min(1.0, out_eps),
                     "d": d_prime, "seed_entropy": (0.5 + delta) * d_prime,
                     "security": "strong, weak seed"}


def _thm_three_source(entry, k, eps, delta):
    m = 0.9 * k
    entry.step("m", "m = 0.9*k", m)
    entry.outputs = {"m": m, "eps": eps, "strong": "the two short seeds",
                     "security": "GE"}


def _thm_ir_to_qr(entry, eps, rush_bits):
    out = (2.0 ** rush_bits) * eps
    entry.step("eps_qr", "eps_qr = 2^rush_bits * eps_ir", out)
    entry.outputs = {"eps_qr": out}


def _thm_and_disperser(entry, alpha, D, M, c=_DEFAULT_DISPERSER_C):
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


def _thm_expander(entry, beta, C=_DEFAULT_EXPANDER_C):
    d = C / (beta * beta)
    entry.step("d", "d(beta) < O(1/beta^2), O constant is a default", d)
    entry.outputs = {"degree_bound": d}


def _inputs(fn) -> inspect.Signature:
    """``fn``'s signature without its leading entry parameter."""
    sig = inspect.signature(fn)
    return sig.replace(parameters=list(sig.parameters.values())[1:])


# theorem id -> (theorem, the signature that states its inputs)
_THEOREMS = {tid: (fn, _inputs(fn)) for tid, fn in {
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
}.items()}


def ledger_theorem(theorem_id: str, **inputs) -> LedgerEntry:
    """Evaluate one theorem's parameter arithmetic.

    The request binds to the theorem's signature, whose defaults the entry
    records.  Raises :class:`ConstraintViolatedError` naming every violated
    precondition, and :class:`InvalidInputError` for an unknown id, an
    input the theorem does not take, a missing one, a NaN or infinite
    one, an error (``ERROR_INPUTS``) outside [0, 1], or arithmetic outside
    the theorem's domain, a complex result included.
    """
    if theorem_id not in _THEOREMS:
        raise InvalidInputError(
            f"unknown theorem id {theorem_id!r}; known: {sorted(_THEOREMS)}")
    fn, sig = _THEOREMS[theorem_id]
    try:
        bound = sig.bind(**inputs)
    except TypeError as exc:
        raise InvalidInputError(
            f"theorem {theorem_id!r} takes {sig}: {exc}") from None
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        if isinstance(value, float) and not math.isfinite(value) or (
                name in ERROR_INPUTS and isinstance(value, (int, float))
                and not 0 <= value <= 1):
            raise InvalidInputError(
                f"theorem {theorem_id!r} takes finite inputs and errors in "
                f"[0, 1], not {name}={value!r}")
    entry = LedgerEntry(theorem_id, bound.arguments)
    try:
        fn(entry, **entry.inputs)
        if any(isinstance(v, complex) for v in [
                *entry.outputs.values(), *(s["value"] for s in entry.trace)]):
            raise ValueError("a result leaves the reals")
    except (ConstraintViolatedError, InvalidInputError):
        raise
    except (ArithmeticError, ValueError) as exc:
        given = ", ".join(f"{k}={v!r}" for k, v in entry.inputs.items())
        raise InvalidInputError(f"theorem {theorem_id!r} is undefined at "
                                f"{given}: {exc}") from exc
    return entry


def known_theorems() -> list:
    return sorted(_THEOREMS)
