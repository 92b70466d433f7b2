"""Composition constructions: seed-lifting, alternating extraction, and
the three-source pipeline, together with their error budgets.

Every combinator builds a composite
:class:`~extractomat.extractors.ExtractorHandle` whose truth table the
oracle can certify end to end (the table, not a union bound, is the
canonical certified object).  A composite table is gathered from the
component tables: each is viewed with one axis per input and indexed by
broadcast index grids, so no Python runs per point.

Asymptotic residuals such as ``2^-Omega(k)`` are carried as named budget
terms with configurable constants; the defaults (Omega constant 1/20,
O constant 8) are labelled as defaults in every report, because the
source constructions never fix them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .extractors import ExtractorHandle, index_grid


@dataclass(frozen=True)
class CompositionConfig:
    """Constants the compositions need but the theory leaves free."""

    omega_const: float = 1.0 / 20.0   # 2^-Omega(x) is read as 2^-(omega_const*x)
    weak_seed_entropy_factor: float = 1.2
    weak_seed_C: float = 64.0         # d <= k/C gate for the weak-seed transform


DEFAULT_CONFIG = CompositionConfig()


@dataclass
class ErrorBudget:
    """Sum of weighted component errors plus named asymptotic residuals.

    ``terms`` holds ``(coefficient, symbol, value)`` triples; ``residuals``
    holds ``(name, parameter, constant)`` triples evaluated as
    ``2^-(constant * parameter)``.  ``total()`` is capped at 1 and
    ``total_uncapped()`` is not.
    """

    terms: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def add(self, coefficient: float, symbol: str, value: float) -> "ErrorBudget":
        self.terms.append((float(coefficient), symbol, float(value)))
        return self

    def add_residual(self, name: str, parameter: float,
                     constant: float) -> "ErrorBudget":
        self.residuals.append((name, float(parameter), float(constant)))
        return self

    def total(self) -> float:
        return min(1.0, self.total_uncapped())

    def total_uncapped(self) -> float:
        t = sum(c * v for c, _, v in self.terms)
        return t + sum(2.0 ** (-(const * param))
                       for _, param, const in self.residuals)

    def describe(self) -> dict:
        return {
            "terms": [{"coefficient": c, "symbol": s, "value": v}
                      for c, s, v in self.terms],
            "residuals": [{"name": n, "parameter": p, "constant": c,
                           "value": 2.0 ** (-(c * p)),
                           "constant_is_default": True}
                          for n, p, c in self.residuals],
            "total_capped_at_1": self.total(),
            "total_uncapped": self.total_uncapped(),
        }


class CondenserHandle:
    """A somewhere-condenser slot: maps one input to D rows.

    Desk-scale stand-ins: the identity condenser (one row, the input
    itself), the split condenser (two half-width rows), or an arbitrary
    row function.  The rate-improvement claim stays in the ledger; the
    pipeline only consumes the row structure.
    """

    def __init__(self, name: str, in_width: int, rows: int, row_width: int,
                 fn: Callable[[int], tuple]):
        self.name = name
        self.in_width = in_width
        self.rows = rows
        self.row_width = row_width
        self._fn = fn
        self._row_table = None

    def row_table(self) -> np.ndarray:
        """Rows of every input, shape ``(2^in_width, rows)`` (cached)."""
        if self._row_table is None:
            rows = [tuple(self._fn(x)) for x in range(1 << self.in_width)]
            if any(len(r) != self.rows for r in rows):
                raise InvalidInputError(f"{self.name} must emit {self.rows} rows")
            t = np.array(rows, dtype=np.int64)
            if t.min() < 0 or t.max() >= (1 << self.row_width):
                raise InvalidInputError(f"{self.name} row exceeds row width")
            t.setflags(write=False)
            self._row_table = t
        return self._row_table

    @classmethod
    def identity(cls, width: int) -> "CondenserHandle":
        return cls(f"cond-id[{width}]", width, 1, width, lambda x: (x,))

    @classmethod
    def split(cls, width: int) -> "CondenserHandle":
        if width % 2:
            raise InvalidInputError("split condenser needs an even width")
        half = width // 2
        mask = (1 << half) - 1
        return cls(f"cond-split[{width}]", width, 2, half,
                   lambda x: (x >> half, x & mask))


# ----------------------------------------------------------------------
# One extra independent source
# ----------------------------------------------------------------------

def qmext_budget(iext: ExtractorHandle, extq: ExtractorHandle) -> ErrorBudget:
    return (ErrorBudget()
            .add(1, "eps1", iext.eps)
            .add(1, "eps2", extq.eps))


def build_qmext_handle(iext: ExtractorHandle, extq: ExtractorHandle,
                       name: str = "qmext") -> ExtractorHandle:
    """Seed a strong seeded extractor with a multi-source output.

    The composite reads the t sources of ``iext`` followed by one extra
    source and outputs ``extq(x_last, iext(x_1..x_t))``.  It is
    one-sided secure with error eps1 + eps2 and strong on the first t
    inputs.
    """
    if extq.kind != "seeded":
        raise InvalidInputError("the lifting stage must be a seeded handle")
    if iext.m != extq.input_widths[1]:
        raise InvalidInputError(
            f"inner output width {iext.m} must equal the seed width "
            f"{extq.input_widths[1]}")
    widths = iext.input_widths + (extq.input_widths[0],)
    t = iext.arity

    def build() -> np.ndarray:
        a, c = index_grid(sum(widths[:t]), widths[t])
        return extq.gather(c, iext.table()[a]).ravel()

    budget = qmext_budget(iext, extq)
    h = ExtractorHandle(
        name, "t-source" if len(widths) > 2 else "2-source", widths, extq.m,
        iext.k_profile + (extq.k_profile[0],), budget.total(),
        strong=range(t), provenance="composite", table=build)
    h.budget = budget
    return h


# ----------------------------------------------------------------------
# One extra block: alternating extraction
# ----------------------------------------------------------------------

def qbext_budget(bext, extc, extq, k3: float,
                 config: CompositionConfig = DEFAULT_CONFIG) -> ErrorBudget:
    return (ErrorBudget()
            .add(4, "eps1", bext.eps)
            .add(2, "eps2", extc.eps)
            .add(1, "eps3", extq.eps)
            .add_residual("2^-Omega(k3)", k3, config.omega_const))


def build_qbext_handle(bext: ExtractorHandle, extc: ExtractorHandle,
                       extq: ExtractorHandle, k3: float,
                       config: CompositionConfig = DEFAULT_CONFIG,
                       name: str = "qbext") -> ExtractorHandle:
    """Alternating extraction over a block source plus one general source.

    R is the first ``seed_slice_width(k3)`` bits of ``bext(x1, x3)``;
    T = extc(x2, R) re-extracts from the extra block using R as seed; the
    output is extq(x3, T).  Strong on the block source (x1, x2).
    """
    r_width = seed_slice_width(k3)
    for h, nm in ((extc, "extc"), (extq, "extq")):
        if h.kind != "seeded":
            raise InvalidInputError(f"{nm} must be a seeded handle")
    if r_width > bext.m:
        raise InvalidInputError("seed slice exceeds the first stage output")
    if extc.input_widths[1] != r_width:
        raise InvalidInputError(
            f"extc seed width {extc.input_widths[1]} must equal the slice "
            f"width {r_width}")
    if extc.m != extq.input_widths[1]:
        raise InvalidInputError("extc output must seed extq")
    n1, n3 = bext.input_widths
    n2 = extc.input_widths[0]
    if extq.input_widths[0] != n3:
        raise InvalidInputError("the final stage must read the general source")
    shift_r = bext.m - r_width

    def build() -> np.ndarray:
        a, b, c = index_grid(n1, n2, n3)
        r = bext.gather(a, c) >> shift_r
        return extq.gather(c, extc.gather(b, r)).ravel()

    budget = qbext_budget(bext, extc, extq, k3, config)
    h = ExtractorHandle(
        name, "t-source", (n1, n2, n3), extq.m,
        (bext.k_profile[0], extc.k_profile[0], k3),
        budget.total(), strong=(0, 1), provenance="composite",
        table=build)
    h.budget = budget
    return h


def seed_slice_width(k3: float) -> int:
    """0.05*k3 floored, clamped to at least one bit (tiny-k convention)."""
    return max(1, math.floor(0.05 * k3))


# ----------------------------------------------------------------------
# The three-source pipeline (condense, somewhere-random, finish)
# ----------------------------------------------------------------------

def bext_budget(raz_slot, srext_slot, ext_last, k: float,
                config: CompositionConfig = DEFAULT_CONFIG) -> ErrorBudget:
    return (ErrorBudget()
            .add(1, "eps_rows", raz_slot.eps)
            .add(1, "eps_sr", srext_slot.eps)
            .add(1, "eps_last", ext_last.eps)
            .add_residual("2^-Omega(k)", k, config.omega_const))


def build_bext_handle(cond: CondenserHandle, raz_slot: ExtractorHandle,
                      srext_slot: ExtractorHandle, ext_last: ExtractorHandle,
                      *, k_profile, ell: int | None = None,
                      config: CompositionConfig = DEFAULT_CONFIG,
                      name: str = "bext3") -> ExtractorHandle:
    """Block+general pipeline: condense x1, extract a somewhere-random
    string from x3 row by row, use it to extract a seed from x2, finish
    on x3.
    """
    k1, k2, k3 = k_profile
    ell = _check_bext(cond, raz_slot, srext_slot, ext_last, k3, ell)
    n1 = cond.in_width
    n2 = srext_slot.input_widths[0]
    n3 = raz_slot.input_widths[1]

    def build() -> np.ndarray:
        a, b, c = index_grid(n1, n2, n3)
        return _pipeline(cond, raz_slot, srext_slot, ext_last, ell,
                         a, b, c).ravel()

    budget = bext_budget(raz_slot, srext_slot, ext_last,
                         min(k1, k2, k3), config)
    h = ExtractorHandle(
        name, "t-source", (n1, n2, n3), ext_last.m,
        (float(k1), float(k2), float(k3)), budget.total(),
        strong=(0, 1), provenance="composite", table=build)
    h.budget = budget
    return h


def _check_bext(cond, raz_slot, srext_slot, ext_last, k3, ell):
    d = cond.rows
    if raz_slot.input_widths[0] != cond.row_width:
        raise InvalidInputError(
            "constraint violated: row extractor input 1 must read condenser rows")
    ell = ell if ell is not None else max(1, seed_slice_width(k3) // d)
    # the D*ell <= 0.05*k3 cap, floored with a minimum of one bit per row
    # (tiny-k convention: every length keeps at least one bit)
    cap = max(d, math.floor(0.05 * k3))
    if d * ell > cap:
        raise InvalidInputError(
            f"constraint violated: D*ell = {d * ell} exceeds 0.05*k3 = {cap}")
    if ell > raz_slot.m:
        raise InvalidInputError(
            "constraint violated: per-row slice exceeds row extractor output")
    if srext_slot.input_widths[1] != d * ell:
        raise InvalidInputError(
            f"constraint violated: somewhere-random input width "
            f"{srext_slot.input_widths[1]} must be D*ell = {d * ell}")
    if ext_last.kind != "seeded" or ext_last.input_widths[1] != srext_slot.m:
        raise InvalidInputError(
            "constraint violated: final stage must be seeded by the "
            "somewhere-random extraction")
    if ext_last.input_widths[0] != raz_slot.input_widths[1]:
        raise InvalidInputError(
            "constraint violated: final stage must read the general source")
    return ell


def _pipeline(cond, raz_slot, srext_slot, ext_last, ell, a, b, c):
    """The pipeline on broadcast grids of the condenser input ``a``, the
    somewhere-random stage input ``b`` and the general source ``c``."""
    rows = cond.row_table()
    shift = raz_slot.m - ell
    w3 = 0
    for j in range(cond.rows):
        w3 = (w3 << ell) | (raz_slot.gather(rows[a, j], c) >> shift)
    return ext_last.gather(c, srext_slot.gather(b, w3))


# ----------------------------------------------------------------------
# Weak seeds and the three-short-seed extractor
# ----------------------------------------------------------------------

def weak_seed_transform(base: ExtractorHandle, delta: float, *,
                        d_prime: int,
                        cond: CondenserHandle | None = None,
                        raz_slot: ExtractorHandle,
                        srext_slot: ExtractorHandle,
                        config: CompositionConfig = DEFAULT_CONFIG,
                        name: str = "weakseed") -> ExtractorHandle:
    """Make a strong seeded extractor tolerate a rate-(1/2+delta) seed.

    The weak seed of width ``d_prime`` (even) is split into halves, which
    form a block source up to a 2^-Omega(d') error; the three-source
    pipeline turns them plus the main input into a good seed for
    ``base``.  Ledger arithmetic for the entropy/seed-length claims lives
    in the theorem ledger; this builder wires the desk-scale instance.
    """
    if base.kind != "seeded":
        raise InvalidInputError("weak-seed transform wraps seeded handles")
    if d_prime % 2:
        raise InvalidInputError("weak seed width must be even for halving")
    n, d = base.input_widths
    k = base.k_profile[0]
    if d > k / config.weak_seed_C:
        raise InvalidInputError(
            f"constraint violated: seed width d={d} exceeds k/C = "
            f"{k / config.weak_seed_C}")
    half = d_prime // 2
    cond = cond if cond is not None else CondenserHandle.identity(half)
    if srext_slot.input_widths[0] != half:
        raise InvalidInputError(
            "somewhere-random stage must read the second seed half")
    if srext_slot.m != d:
        raise InvalidInputError(
            f"pipeline must emit a {d}-bit seed for the base handle")
    if cond.in_width != half:
        raise InvalidInputError("the condenser must read the first seed half")
    ell = _check_bext(cond, raz_slot, srext_slot, base, k, None)

    def build() -> np.ndarray:
        # index (x, r1, r2): the condenser reads r1, the somewhere-random
        # stage r2, and x is the general source
        c, a, b = index_grid(n, half, half)
        return _pipeline(cond, raz_slot, srext_slot, base, ell,
                         a, b, c).ravel()

    budget = (ErrorBudget()
              .add(1, "eps_base", base.eps)
              .add(1, "eps_rows", raz_slot.eps)
              .add(1, "eps_sr", srext_slot.eps)
              .add_residual("2^-Omega(d)", d, config.omega_const)
              .add_residual("2^-Omega(d')", d_prime, config.omega_const))
    h = ExtractorHandle(
        name, "seeded", (n, d_prime), base.m,
        (config.weak_seed_entropy_factor * k, (0.5 + delta) * d_prime),
        budget.total(), strong=(1,), provenance="composite",
        table=build)
    h.budget = budget
    return h


def build_three_source_handle(cond: CondenserHandle,
                              raz_slot: ExtractorHandle,
                              srext_slot: ExtractorHandle,
                              ext_last: ExtractorHandle, *,
                              delta: float, d: int, k: float,
                              config: CompositionConfig = DEFAULT_CONFIG,
                              name: str = "threesource") -> ExtractorHandle:
    """Two short rate-delta seeds plus one long source, via the pipeline.

    The two seeds form the block source and the output is strong in them.
    """
    if cond.in_width != d or srext_slot.input_widths[0] != d:
        raise InvalidInputError("both seeds must have width d")
    h = build_bext_handle(cond, raz_slot, srext_slot, ext_last,
                          k_profile=(delta * d, delta * d, k),
                          config=config, name=name)
    return h
