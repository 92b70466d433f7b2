import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extractomat import certify
from extractomat.errors import InvalidInputError, TargetUnreachableError
from extractomat.oracle import worst_case_error_2source


def test_determinism_same_seed_same_digest(cache_dir):
    h1, r1 = certify.certify_random_table((3, 3), (2, 2), 1, seed=7,
                                          cache_dir=cache_dir)
    h2, r2 = certify.certify_random_table((3, 3), (2, 2), 1, seed=7,
                                          cache_dir=cache_dir)
    assert r1.digest == r2.digest
    assert r1.error == r2.error
    assert np.array_equal(h1.table(), h2.table())


def test_different_seeds_differ(cache_dir):
    _, r1 = certify.certify_random_table((3, 3), (2, 2), 1, seed=1,
                                         cache_dir=cache_dir)
    _, r2 = certify.certify_random_table((3, 3), (2, 2), 1, seed=2,
                                         cache_dir=cache_dir)
    assert r1.digest != r2.digest


def test_exhaustive_records_exact_error(cache_dir):
    h, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=3,
                                          cache_dir=cache_dir)
    assert rec.mode == "exhaustive"
    assert rec.error_exact is not None
    # the record equals a fresh oracle run on the same table
    fresh = worst_case_error_2source(h, 2, 2, None)
    assert rec.error_fraction() == fresh.error


def test_full_entropy_measures_table_bias(cache_dir):
    h, rec = certify.certify_random_table((3, 3), (3, 3), 1, seed=11,
                                          cache_dir=cache_dir)
    ones = int(h.table().sum())
    assert rec.error_fraction() == Fraction(abs(2 * ones - 64), 128)


def test_retry_until_target(cache_dir):
    # full-entropy bias shrinks over redraws; a loose target succeeds
    h, rec = certify.certify_random_table((3, 3), (3, 3), 1, seed=5,
                                          target_eps=0.15,
                                          cache_dir=cache_dir)
    assert rec.error <= 0.15
    assert 1 <= rec.attempts <= 32


def test_impossible_target_unreachable(cache_dir):
    with pytest.raises(TargetUnreachableError):
        certify.certify_random_table((3, 3), (2, 2), 1, seed=5,
                                     target_eps=0.0, cache_dir=cache_dir)


def test_strong_errors_recorded(cache_dir):
    h, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=9,
                                          strong=(0, 1), cache_dir=cache_dir)
    assert set(rec.strong_errors) == {0, 1}
    for i in (0, 1):
        fresh = worst_case_error_2source(h, 2, 2, i)
        assert rec.strong_errors[i] == pytest.approx(float(fresh.error))


def test_xtab_roundtrip(cache_dir):
    h, rec = certify.certify_random_table((3, 2), (2, 2), 2, kind="seeded",
                                          seed=13, cache_dir=cache_dir)
    path = cache_dir / f"{rec.digest}.xtab"
    assert path.exists()
    h2, rec2 = certify.load_xtab(path)
    assert np.array_equal(h2.table(), h.table())
    assert rec2.digest == rec.digest
    assert rec2.error == rec.error
    assert rec2.k_profile == rec.k_profile
    assert h2.kind == "seeded"


def test_xtab_magic_checked(tmp_path):
    bad = tmp_path / "x.xtab"
    bad.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(InvalidInputError):
        certify.load_xtab(bad)


def test_cache_hit_skips_remeasure(cache_dir, monkeypatch):
    certify.certify_random_table((2, 2), (1, 1), 1, seed=21,
                                 cache_dir=cache_dir)
    calls = {"n": 0}
    orig = certify._measure

    def counting(*args, **kw):
        calls["n"] += 1
        return orig(*args, **kw)

    monkeypatch.setattr(certify, "_measure", counting)
    certify.certify_random_table((2, 2), (1, 1), 1, seed=21,
                                 cache_dir=cache_dir)
    assert calls["n"] == 0


def test_digest_is_table_hash(cache_dir):
    h, rec = certify.certify_random_table((2, 2), (1, 1), 1, seed=33,
                                          cache_dir=cache_dir)
    assert rec.digest == certify.table_digest(h.table())


def test_sampled_mode_records_mode(cache_dir):
    h, rec = certify.certify_random_table((6, 6), (4, 4), 2, seed=41,
                                          mode="sampled", samples=20,
                                          cache_dir=cache_dir)
    assert rec.mode == "sampled"
    assert rec.error_exact is None
    assert 0 <= rec.error <= 1


def test_exhaustive_request_not_served_a_sampled_record(cache_dir):
    _, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=5,
                                          mode="sampled", samples=20,
                                          cache_dir=cache_dir)
    assert rec.mode == "sampled"
    _, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=5,
                                          mode="exhaustive",
                                          cache_dir=cache_dir)
    assert rec.mode == "exhaustive"
    assert rec.error_fraction() == Fraction(1, 2)
    # an auto request is served by whatever record is cached
    _, again = certify.certify_random_table((3, 3), (2, 2), 1, seed=5,
                                            cache_dir=cache_dir)
    assert again == rec


def test_env_var_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("EXTRACTOMAT_CACHE", str(tmp_path / "envcache"))
    assert certify.default_cache_dir() == tmp_path / "envcache"


def _counting_measure(monkeypatch):
    calls = []
    orig = certify._measure

    def counting(handle, k_profile, strong, *args):
        calls.append(tuple(strong))
        return orig(handle, k_profile, strong, *args)

    monkeypatch.setattr(certify, "_measure", counting)
    return calls


def test_cache_reuse_honours_strong_set(tmp_path, monkeypatch):
    calls = _counting_measure(monkeypatch)
    _, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=61,
                                          cache_dir=tmp_path)
    assert rec.strong_errors == {}
    path = tmp_path / f"{rec.digest}.xtab"
    h, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=61,
                                          strong=(1,), cache_dir=tmp_path)
    fresh = worst_case_error_2source(h, 2, 2, 1)
    assert rec.strong_errors[1] == pytest.approx(float(fresh.error))
    assert 1 in h.strong
    # a later request for another index measures the union, so the
    # rewritten file still serves both
    _, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=61,
                                          strong=(0,), cache_dir=tmp_path)
    assert set(rec.strong_errors) == {0, 1}
    assert calls == [(), (1,), (0, 1)]
    h, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=61,
                                          strong=(1,), cache_dir=tmp_path)
    assert len(calls) == 3
    assert h.strong == {0, 1}
    assert certify.load_xtab(path)[1].strong_errors == rec.strong_errors


def test_xtab_digest_verified(tmp_path, monkeypatch, capsys):
    from extractomat.cli import main
    h, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=71,
                                          cache_dir=tmp_path)
    path = tmp_path / f"{rec.digest}.xtab"
    good = path.read_bytes()
    body_start = certify._FRAME.size

    def flip_body_byte(data):
        data = bytearray(data)
        data[body_start + 5] ^= 1
        return bytes(data)

    def to_version_1(data):  # a header holding kind, mode, arity, m, seed
        return (certify.XTAB_MAGIC + struct.pack("<HBBBBQ", 1, 0, 0, 2, 1, 71)
                + struct.pack("<2B2d", 3, 3, 2.0, 2.0) + data[body_start:])

    damages = [(flip_body_byte, "digest"),
               (lambda data: data[:-1], "damaged certification record"),
               (lambda data: data.replace(b'"attempts"', b'"attempt"'),
                "damaged certification record"),
               (lambda data: re.sub(rb'"error": [^,]*,', b'"error": "x",',
                                    data), "damaged certification record"),
               (to_version_1, "unsupported XTAB version 1")]
    calls = _counting_measure(monkeypatch)
    for damage, match in damages:
        path.write_bytes(damage(good))
        with pytest.raises(InvalidInputError, match=match):
            certify.load_xtab(path)
        assert main(["eval", "--extractor", str(path), "--k1", "2",
                     "--k2", "2", "--out-dir", str(tmp_path / "out")]) == 4
        assert match in capsys.readouterr().err
        # the cache treats the damaged file as a miss: measure and rewrite
        before = len(calls)
        h2, rec2 = certify.certify_random_table((3, 3), (2, 2), 1, seed=71,
                                                cache_dir=tmp_path)
        assert len(calls) == before + 1
        assert rec2.error_exact == rec.error_exact
        h3, _ = certify.load_xtab(path)
        assert np.array_equal(h3.table(), h.table())


def test_declared_strong_set_is_the_measured_one(tmp_path):
    # a seeded table always records its seed; the handle declares exactly
    # that, on the fresh path and then on the cache path
    for _ in range(2):
        h, rec = certify.certify_random_table((3, 2), (2, 2), 1,
                                              kind="seeded", seed=81,
                                              cache_dir=tmp_path)
        assert set(h.strong) == set(rec.strong_errors) == {1}
    h, rec = certify.certify_random_table((2, 2, 2), (1, 1, 1), 1,
                                          kind="t-source", seed=82,
                                          cache_dir=tmp_path)
    assert h.strong == frozenset() and rec.strong_errors == {}
    # indices the kind's measurement cannot record are refused
    for kind, widths, strong in (("t-source", (2, 2, 2), (0,)),
                                 ("seeded", (3, 2), (0,)),
                                 ("2-source", (2, 2), (2,))):
        with pytest.raises(InvalidInputError):
            certify.certify_random_table(widths, (1,) * len(widths), 1,
                                         kind=kind, seed=83, strong=strong,
                                         cache_dir=tmp_path)


def test_certify_refuses_fractional_strong_indices(tmp_path):
    for bad in (0.7, 1.5):
        with pytest.raises(InvalidInputError, match="strong index"):
            certify.certify_random_table((2, 2), (1, 1), 1, seed=84,
                                         strong=(bad,), cache_dir=tmp_path)
    h, rec = certify.certify_random_table((2, 2), (1, 1), 1, seed=84,
                                          strong=(np.int64(1),),
                                          cache_dir=tmp_path)
    assert h.strong == {1} and set(rec.strong_errors) == {1}


def test_certify_refuses_fractional_widths(tmp_path):
    # 2.5 was truncated to 2 and certified a (2, 2) table
    for bad in ((2.5, 2), (2, 1.5), ("2", 2)):
        with pytest.raises(InvalidInputError, match="input width"):
            certify.certify_random_table(bad, (1, 1), 1, seed=3,
                                         cache_dir=tmp_path)
    assert not list(tmp_path.iterdir())  # refused before any measuring
    h, _ = certify.certify_random_table((np.int64(2), np.int32(2)), (1, 1), 1,
                                        seed=3, cache_dir=tmp_path)
    assert h.input_widths == (2, 2)
    assert all(type(w) is int for w in h.input_widths)


def test_certify_refuses_non_finite_min_entropies(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="finite"):
            certify.certify_random_table((2, 2), (bad, 1), 1, seed=85,
                                         cache_dir=tmp_path)
    assert not list(tmp_path.iterdir())  # refused before any measuring


def test_tampered_cache_file_never_serves_a_mismatched_handle(tmp_path):
    # Each parameter the handle reads (kind, widths, m, k_profile) is
    # edited where a file could hold it: in the record, and at the bytes
    # of a header in front of the table (kind at byte 6, m at byte 9, the
    # first k value at bytes 20-27).
    request = ((3, 3), (2, 2), 1)
    _, rec = certify.certify_random_table(*request, seed=5,
                                          cache_dir=tmp_path)
    path = tmp_path / f"{rec.digest}.xtab"
    good = path.read_bytes()

    def put(offset, value):
        return lambda data: data[:offset] + value + data[offset + len(value):]

    def sub(old, new):
        return lambda data: data.replace(old, new)

    edits = [put(6, b"\x02"), put(9, b"\x03"),
             put(20, struct.pack("<d", 0.5)),
             sub(b'"kind": "2-source"', b'"kind": "seeded"'),
             sub(b'"kind": "2-source"', b'"kind": "t-source"'),
             sub(b'"kind": "2-source"', b'"kind": "4-source"'),
             sub(b'"widths": [3, 3]', b'"widths": [2, 4]'),
             sub(b'"widths": [3, 3]', b'"widths": [3, 2]'),
             sub(b'"m": 1,', b'"m": 3,'), sub(b'"m": 1,', b'"m": 0,'),
             sub(b'"k_profile": [2.0, 2.0]', b'"k_profile": [0.5, 2.0]')]
    for edit in edits:
        tampered = edit(good)
        assert tampered != good
        path.write_bytes(tampered)
        try:
            h, r = certify.load_xtab(path)
        except InvalidInputError:
            pass
        else:
            assert (h.kind, h.input_widths, h.m, h.k_profile, h.strong) == (
                r.kind, r.widths, r.m, r.k_profile, frozenset(r.strong_errors))
        h, r = certify.certify_random_table(*request, seed=5,
                                            cache_dir=tmp_path)
        assert (h.kind, h.input_widths, h.m, h.k_profile) == (
            "2-source", (3, 3), 1, (2.0, 2.0))
        assert r.error_exact == rec.error_exact


@pytest.mark.parametrize("forged", ["copied file", "copied record"])
def test_cache_file_of_another_table_is_a_miss(tmp_path, monkeypatch, forged):
    # The seed-5 file, or the seed-6 table under the seed-5 record, put
    # under the seed-6 draw's name: the seed-6 request re-measures its own
    # draw and rewrites the file.
    request = ((3, 3), (2, 2), 1)
    h5, rec5 = certify.certify_random_table(*request, seed=5,
                                            cache_dir=tmp_path)
    table6 = certify.draw_table(request[0], 1, 6)
    path = tmp_path / f"{certify.table_digest(table6)}.xtab"
    if forged == "copied file":
        path.write_bytes((tmp_path / f"{rec5.digest}.xtab").read_bytes())
    else:
        certify.save_xtab(path, certify._certified(rec5, table6), rec5)
    calls = _counting_measure(monkeypatch)
    h6, rec6 = certify.certify_random_table(*request, seed=6,
                                            cache_dir=tmp_path)
    assert len(calls) == 1
    assert rec6.seed == 6 and rec6.digest == path.stem
    assert np.array_equal(h6.table(), table6)
    assert certify.load_xtab(path)[1] == rec6


def test_warm_hit_hashes_the_table_once(tmp_path, monkeypatch):
    request = ((3, 3), (2, 2), 1)
    h, rec = certify.certify_random_table(*request, seed=5,
                                          cache_dir=tmp_path)
    hashed, loads = [], []
    real_sha256, real_load = certify.hashlib.sha256, certify.load_xtab

    def sha256(data=b""):
        hashed.append(memoryview(data).nbytes)
        return real_sha256(data)

    def load_xtab(*args):
        loads.append(args[0])
        return real_load(*args)

    monkeypatch.setattr(certify.hashlib, "sha256", sha256)
    monkeypatch.setattr(certify, "load_xtab", load_xtab)
    calls = _counting_measure(monkeypatch)
    h2, rec2 = certify.certify_random_table(*request, seed=5,
                                            cache_dir=tmp_path)
    assert calls == [] and rec2 == rec
    assert hashed == [h.table().nbytes]
    assert loads == [tmp_path / f"{rec.digest}.xtab"]
    assert np.array_equal(h2.table(), h.table())


def _record_of(table, widths, m):
    return certify.CertificationRecord(
        digest=certify.table_digest(table), kind="2-source", widths=widths,
        k_profile=(1.0, 1.0), m=m, mode="sampled", error=0.25,
        error_exact=None, strong_errors={}, leak_bits=0, seed=0, attempts=1)


def test_xtab_bytes_are_the_frame_the_table_and_the_record(cache_dir):
    # Version 2: magic, little-endian uint16 version and uint64 body
    # length, the table as little-endian uint32, then the JSON record.
    h, rec = certify.certify_random_table((3, 3), (2, 2), 2, seed=7,
                                          cache_dir=cache_dir)
    body = h.table().astype("<u4").tobytes()
    head = struct.pack("<4sHQ", b"XTAB", 2, len(body))
    tail = json.dumps(rec.to_json_dict()).encode()
    assert (cache_dir / f"{rec.digest}.xtab").read_bytes() == head + body + tail


def test_saving_a_table_makes_no_copy_of_it(tmp_path):
    # A 2^18-word table (1 MiB) is written from its own buffer: beyond the
    # record's JSON, saving allocates less than 64 KiB.
    widths = (9, 9)
    table = certify.draw_table(widths, 1, 0)
    rec = _record_of(table, widths, 1)
    h = certify._certified(rec, table)
    h.table()
    record_bytes = len(json.dumps(rec.to_json_dict()))
    tracemalloc.start()
    try:
        certify.save_xtab(tmp_path / "t.xtab", h, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < record_bytes + (64 << 10)
    assert certify.load_xtab(tmp_path / "t.xtab")[1] == rec


def test_record_json_dict_is_asdict_and_owns_its_strong_errors(tmp_path):
    _, rec = certify.certify_random_table((3, 3), (2, 2), 1, seed=5,
                                          strong=(0,), cache_dir=tmp_path)
    d = rec.to_json_dict()
    assert d == dataclasses.asdict(rec)
    assert list(d) == [f.name for f in dataclasses.fields(rec)]
    d["strong_errors"][1] = 0.5
    d["strong_errors"].pop(0)
    assert rec.strong_errors == dataclasses.asdict(rec)["strong_errors"] \
        and list(rec.strong_errors) == [0]
    # the cached file's bytes, as written before the record's dict was
    # built shallowly
    xtab = (tmp_path / f"{rec.digest}.xtab").read_bytes()
    assert hashlib.sha256(xtab).hexdigest() == (
        "922c20d55e4a839b505479919f3ddff64ae86b5a91a079bb0e66fd8bf9d353d0")
