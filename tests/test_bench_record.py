import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = [{"name": "requests_per_s", "better": "higher"},
              {"name": "request_p50_ms", "better": "lower"},
              {"name": "setup_s", "better": "lower"}]


def _side(runs, traced=None):
    # A synthetic record of one workload: untraced runs as (seed, metrics).
    untraced = [{"seed": seed, "metrics": metrics} for seed, metrics in runs]
    keys = runs[0][1]
    median = {k: sorted(m[k] for _, m in runs)[len(runs) // 2] for k in keys}
    return {"workloads": {"w": {
        "untraced": untraced, "median": median,
        "traced": {"metrics": traced or {}},
        "op_median_ms": {"op": 1.0}, "unscaled": {"speed_factor": 1.0}}}}


def test_compare_ranges_and_same_seed_wins():
    parent = _side([(0, {"requests_per_s": 10.0, "request_p50_ms": 5.0,
                         "setup_s": 0.2, "peak_rss_mb": 40.0}),
                    (1, {"requests_per_s": 12.0, "request_p50_ms": 6.0,
                         "setup_s": 0.2, "peak_rss_mb": 41.0}),
                    (2, {"requests_per_s": 11.0, "request_p50_ms": 7.0,
                         "setup_s": 0.2, "peak_rss_mb": 42.0})],
                   traced={"graphs.search.steps": 17053})
    # The change's runs in another order: pairs are matched by seed.
    change = _side([(2, {"requests_per_s": 12.0, "request_p50_ms": 8.0,
                         "setup_s": 0.2, "peak_rss_mb": 40.0}),
                    (0, {"requests_per_s": 13.0, "request_p50_ms": 4.0,
                         "setup_s": 0.2, "peak_rss_mb": 40.0}),
                    (1, {"requests_per_s": 11.0, "request_p50_ms": 6.0,
                         "setup_s": 0.2, "peak_rss_mb": 40.0})],
                   traced={"graphs.search.steps": 17053})
    rows = bench_record.compare(parent, change, END_TO_END)["w"]
    # higher is better: seeds 0 (13 > 10) and 2 (12 > 11) win, 1 loses
    assert rows["requests_per_s"] == {"parent": 11.0, "change": 12.0,
                                      "parent_range": [10.0, 12.0],
                                      "wins": 2, "pairs": 3}
    # lower is better: seed 0 wins, seed 1 ties, seed 2 loses
    assert rows["request_p50_ms"]["parent_range"] == [5.0, 7.0]
    assert (rows["request_p50_ms"]["wins"], rows["request_p50_ms"]["pairs"]) \
        == (1, 3)
    assert rows["setup_s"]["wins"] == 0  # three ties
    # metrics outside the end-to-end list keep their two medians only
    assert rows["peak_rss_mb"] == {"parent": 41.0, "change": 40.0}
    assert rows["graphs.search.steps"] == {"parent": 17053, "change": 17053}
    assert rows["op_median_ms"] == {"op": {"parent": 1.0, "change": 1.0}}


def test_record_takes_turns_over_the_seeds_asked_for(monkeypatch):
    # Five untraced seeds and the traced one, the two checkouts taking
    # turns going first; each side's medians come from its five runs.
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        run = {"seed": seed, "metrics": {"setup_s": float(seed)}}
        if not trace:
            run.update(op_median_ms={"op": 1.0},
                       unscaled=dict.fromkeys(bench_record.UNSCALED, 1.0))
        return run

    monkeypatch.setattr(bench_record, "_perfbench", fake_run)
    monkeypatch.setattr(bench_record, "_checkout_info",
                        lambda path: {"workloads": {}})
    docs = bench_record.record({"change": Path("a"), "parent": Path("b")},
                               ["w"], 1, seeds=range(5))
    assert calls[:4] == [("a", 0, 0), ("b", 0, 0), ("b", 1, 0), ("a", 1, 0)]
    assert calls[-2:] == [("b", 0, 1), ("a", 0, 1)]
    assert len(calls) == 12
    for side in ("change", "parent"):
        w = docs[side]["workloads"]["w"]
        assert [r["seed"] for r in w["untraced"]] == [0, 1, 2, 3, 4]
        assert w["median"] == {"setup_s": 2.0}


def test_seeds_below_one_are_refused(capsys):
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "1", "--seeds", "0"])
    assert "--seeds must be at least 1" in capsys.readouterr().err
