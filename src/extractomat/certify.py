"""Oracle-certified random-table extractors.

A certified table stands in for every construction the source material
only proves to exist: a truth table is drawn from a counter-based
deterministic generator (Philox keyed by a recorded 64-bit seed), its
worst-case error is measured by the oracle, and the measurement travels
with the handle as a :class:`CertificationRecord`.

Tables persist in a content-addressed cache (``EXTRACTOMAT_CACHE``
overrides the location): the file name is the SHA-256 digest of the raw
table bytes, so re-runs are byte-stable and auditable.  Writes go
through a temp file and an atomic rename.  A hit (see :func:`load_xtab`)
re-measures nothing: the record's error is trusted as stored.

An XTAB file (version 2) is the magic ``XTAB``, a little-endian uint16
version and uint64 body length, the table as little-endian uint32
entries, then the JSON :class:`CertificationRecord`: the certificate and
the only copy of the table's parameters.  Other versions are cache misses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, TargetUnreachableError, _integer
from .extractors import ExtractorHandle, table_handle
from . import oracle as _oracle

XTAB_MAGIC = b"XTAB"
XTAB_VERSION = 2
_FRAME = struct.Struct("<4sHQ")  # magic, version, body length in bytes
# Strong indices each kind's measurement can record: both inputs of a
# 2-source table, the seed of a seeded one, none of a t-source one.
_STRONG_INDICES = {"2-source": {0, 1}, "seeded": {1}, "t-source": set()}

MAX_RETRIES = 32


def default_cache_dir() -> Path:
    env = os.environ.get("EXTRACTOMAT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "extractomat"


@dataclass
class CertificationRecord:
    """What the oracle measured about one random table."""

    digest: str
    kind: str
    widths: tuple
    k_profile: tuple
    m: int
    mode: str
    error: float
    error_exact: str | None  # "num/den" in exhaustive mode
    strong_errors: dict
    leak_bits: int
    seed: int
    attempts: int
    generator: str = "philox-counter"
    record_id: str = ""

    def __post_init__(self):
        if not self.record_id:
            self.record_id = self.digest[:16]
        if self.mode == "exhaustive" and self.error_exact is None:
            raise InvalidInputError("exhaustive records carry exact errors")

    def error_fraction(self) -> Fraction:
        if self.error_exact is not None:
            num, den = self.error_exact.split("/")
            return Fraction(int(num), int(den))
        return Fraction(self.error)

    def to_json_dict(self) -> dict:
        # shallow: asdict's deep copy costs ~25 us, this ~1 us
        return {**vars(self), "strong_errors": dict(self.strong_errors)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CertificationRecord":
        return cls(**dict(
            d, widths=tuple(d["widths"]), k_profile=tuple(d["k_profile"]),
            strong_errors={int(k): v for k, v in d["strong_errors"].items()}))


def draw_table(widths, m: int, seed: int, attempt: int = 0) -> np.ndarray:
    """Deterministic random truth table from a counter-based generator."""
    key = (int(seed) + 0x9E3779B97F4A7C15 * attempt) & ((1 << 64) - 1)
    return _oracle._philox(key).integers(0, 1 << m, size=1 << sum(widths),
                                         dtype=np.uint32)


def table_digest(table: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(table, dtype="<u4")).hexdigest()


def certify_random_table(widths, k_profile, m: int, *,
                         kind: str | None = None,
                         mode: str = "auto",
                         seed: int = 0,
                         target_eps: float | None = None,
                         strong=(),
                         leak_bits: int = 0,
                         samples: int = _oracle.DEFAULT_SAMPLES,
                         budget: int = _oracle.DEFAULT_BUDGET,
                         cache_dir: Path | None = None):
    """Draw, measure, persist, and return a certified-table extractor.

    The table is redrawn (up to ``MAX_RETRIES`` times, each draw
    deterministic in ``(seed, attempt)``) until the measured worst-case
    error is at or below ``target_eps``.  The returned handle's declared
    epsilon is the measured one; ``strong`` indices are measured
    separately and recorded, and the handle declares exactly the
    recorded ones (a seeded table always records its seed, index 1).
    ``leak_bits > 0`` additionally ranges the measurement over one-sided
    deterministic leakage maps of that width.

    Returns
    -------
    (ExtractorHandle, CertificationRecord)
    """
    widths = tuple(_integer(w, "an input width") for w in widths)
    if min(widths, default=0) < 0 or not 1 <= m <= 32:  # entries: uint32
        raise InvalidInputError(f"input widths must be >= 0 and m in 1 ... "
                                f"32, got widths {widths} and m = {m}")
    k_profile = tuple(float(k) for k in k_profile)
    if len(k_profile) != len(widths) or not np.isfinite(k_profile).all():
        raise InvalidInputError("one finite entropy level per input required")
    if kind is None:
        kind = "2-source" if len(widths) == 2 else "t-source"
    if target_eps is not None and math.isnan(target_eps):
        raise InvalidInputError("target error must be a number, got nan")
    if target_eps is not None and target_eps <= 0:
        raise TargetUnreachableError(
            f"target error {target_eps} is unreachable for a finite table", 0)
    strong = tuple(sorted(set(_integer(i, "a strong index") for i in strong)))
    if kind not in _STRONG_INDICES:
        raise InvalidInputError(f"unknown table kind {kind!r}")
    if not set(strong) <= _STRONG_INDICES[kind]:
        raise InvalidInputError(
            f"a {kind} table can be measured strong only in "
            f"{sorted(_STRONG_INDICES[kind])}, not {list(strong)}")
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()

    last = None
    for attempt in range(MAX_RETRIES):
        table = draw_table(widths, m, seed, attempt)
        digest = table_digest(table)
        cached = _cache_load(cache, table, digest)
        if cached is not None and _record_matches(
                cached[1], kind, widths, k_profile, m, leak_bits, strong,
                mode):
            handle, record = cached
        else:
            measured = strong
            if cached is not None and kind == "2-source":
                # Measure the strong indices the cached record holds too,
                # so the rewritten file still serves its earlier requests.
                measured = tuple(sorted(set(strong)
                                        | set(cached[1].strong_errors)))
            report, strong_reports = _measure(
                table_handle(f"table[{digest[:8]}]", kind, widths, m, table),
                k_profile, measured, leak_bits, mode, samples, seed, budget)
            record = CertificationRecord(
                digest=digest, kind=kind, widths=widths, k_profile=k_profile,
                m=m, mode=report.mode, error=float(report.error),
                error_exact=(f"{report.error.numerator}/{report.error.denominator}"
                             if isinstance(report.error, Fraction) else None),
                strong_errors={i: float(r.error)
                               for i, r in strong_reports.items()},
                leak_bits=leak_bits, seed=seed, attempts=attempt + 1)
            handle = _certified(record, table)
            save_xtab(cache / f"{digest}.xtab", handle, record)
        last = (handle, record)
        if target_eps is None or record.error <= target_eps:
            return handle, record
    raise TargetUnreachableError(
        f"no table reached error <= {target_eps} in {MAX_RETRIES} draws "
        f"(best: {last[1].error if last else 'n/a'})", MAX_RETRIES)


def _record_matches(rec: CertificationRecord, kind, widths, k_profile, m,
                    leak_bits, strong, mode) -> bool:
    """Whether ``rec`` answers the request: of the requested mode unless
    that is ``auto``, and, for a 2-source table only, holding the
    requested strong indices (a seeded one always records the seed)."""
    return (rec.kind == kind and rec.widths == widths and rec.m == m
            and rec.k_profile == k_profile and rec.leak_bits == leak_bits
            and mode in ("auto", rec.mode)
            and (kind != "2-source" or set(strong) <= set(rec.strong_errors)))


def _certified(record: CertificationRecord, table) -> ExtractorHandle:
    """The handle ``record`` certifies over ``table``, built from the
    record alone; a record that does not describe the table is damaged."""
    try:
        return table_handle(
            f"table[{record.digest[:8]}]", record.kind, record.widths,
            record.m, table, k_profile=record.k_profile,
            eps=min(1.0, max(float(record.error), 1e-300)),
            strong=tuple(record.strong_errors), record=record)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(
            f"damaged certification record ({exc})") from exc


def _measure(handle, k_profile, strong, leak_bits, mode, samples, seed,
             budget):
    """Headline error plus per-strong-index errors for a fresh table."""
    if handle.kind == "seeded":  # b = 0 is the seeded oracle itself
        headline = _oracle.worst_case_error_leaked(
            handle, k_profile, leak_bits, strong=True, mode=mode,
            samples=samples, seed=seed, budget=budget)
        return headline, {1: headline}
    if handle.kind == "2-source":  # b = 0 is the two-source oracle
        reports = {i: _oracle.worst_case_error_leaked(
                       handle, k_profile, leak_bits, strong=i, mode=mode,
                       samples=samples, seed=seed, budget=budget)
                   for i in (None, *strong)}  # None: the marginal headline
        return reports.pop(None), reports
    # t-source: measured via the strong-on-all-but-last composite oracle
    headline = _oracle.worst_case_error_multi(
        handle, k_profile, b=leak_bits, mode=mode, budget=budget)
    return headline, {}


# ----------------------------------------------------------------------
# XTAB files and the cache
# ----------------------------------------------------------------------

def save_xtab(path: Path, handle: ExtractorHandle,
              record: CertificationRecord) -> None:
    """Write the frame, the table from its own buffer and the JSON record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = np.ascontiguousarray(handle.table(), dtype="<u4")
    tail = json.dumps(record.to_json_dict()).encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_FRAME.pack(XTAB_MAGIC, XTAB_VERSION, body.nbytes))
            f.write(body)
            f.write(tail)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_xtab(path: Path, table: np.ndarray | None = None,
              digest: str | None = None):
    """Read an XTAB file back into (handle, record).

    Alone, the body must hash to the record's digest.  Given the drawn
    ``table`` and its ``digest`` (a cache lookup), it must equal ``table``
    and the record must name ``digest``; nothing is hashed.
    Raises :class:`InvalidInputError` on another XTAB version, a damaged
    record, or a failed check.
    """
    data = Path(path).read_bytes()
    if len(data) < _FRAME.size or not data.startswith(XTAB_MAGIC):
        raise InvalidInputError(f"{path}: not an XTAB file")
    _, version, size = _FRAME.unpack_from(data)
    if version != XTAB_VERSION:
        raise InvalidInputError(f"{path}: unsupported XTAB version {version}")
    body = memoryview(data)[_FRAME.size:_FRAME.size + size]
    try:
        record = CertificationRecord.from_json_dict(
            json.loads(data[_FRAME.size + size:]))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInputError(
            f"{path}: damaged certification record ({exc})") from exc
    if table is None:
        if hashlib.sha256(body).hexdigest() != record.digest:
            raise InvalidInputError(
                f"{path}: table does not match its digest {record.record_id}")
    elif not (record.digest == digest and len(body) == table.nbytes
              and np.array_equal(np.frombuffer(body, dtype="<u4"), table)):
        raise InvalidInputError(
            f"{path}: not the table of digest {digest[:16]}")
    return _certified(record, np.frombuffer(body, dtype="<u4")), record


def _cache_load(cache: Path, table: np.ndarray, digest: str):
    """The cached (handle, record) of ``table``, or None; a damaged or
    misnamed file is a miss."""
    try:
        return load_xtab(cache / f"{digest}.xtab", table, digest)
    except (FileNotFoundError, InvalidInputError):
        return None
