import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extractomat import cli as cli_mod
from extractomat.cli import main


def run_cli(args, cache, out_dir):
    return main([*args, "--cache", str(cache), "--out-dir", str(out_dir)])


def run_cli_nocache(args, out_dir):
    return main([*args, "--out-dir", str(out_dir)])


def test_certify_exit_ok(cache_dir, tmp_path, capsys):
    rc = run_cli(["certify", "--arity", "2", "--n", "3", "--k", "2",
                  "--m", "1", "--seed", "7"], cache_dir, tmp_path)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert Path(payload["xtab"]).exists()
    assert (tmp_path / "manifest.json").exists()


def test_certify_idempotent_digest(cache_dir, tmp_path, capsys):
    args = ["certify", "--arity", "2", "--n", "3", "--k", "2", "--m", "1",
            "--seed", "7"]
    run_cli(args, cache_dir, tmp_path)
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rc = run_cli(args, cache_dir, tmp_path)
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert first["digest"] == second["digest"]
    assert first["error"] == second["error"]


def test_certify_impossible_target_exits_2(cache_dir, tmp_path):
    rc = run_cli(["certify", "--arity", "2", "--n", "3", "--k", "2",
                  "--m", "1", "--eps", "0", "--seed", "7"],
                 cache_dir, tmp_path)
    assert rc == 2


def test_eval_ip_writes_exact_report(tmp_path, capsys):
    rc = run_cli_nocache(["eval", "--extractor", "ip", "--n", "4",
                          "--k1", "3", "--k2", "3"], tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "eval-report.json").read_text())
    assert report["mode"] == "exhaustive"
    assert report["error"] <= 2 ** -0.5
    assert "error_exact" in report


def test_eval_toeplitz_bound(tmp_path):
    rc = run_cli_nocache(["eval", "--extractor", "toeplitz", "--n", "4",
                          "--k", "2", "--m", "1"], tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "eval-report.json").read_text())
    assert report["error"] <= 0.35356


def test_eval_lemma_pass_rate(tmp_path):
    rc = run_cli_nocache(["eval", "--lemma", "L2.2", "--trials", "50",
                          "--eps", "0.125"], tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "eval-lemma-L2.2.json").read_text())
    assert report["pass_rate"] >= 0.875


@pytest.mark.parametrize("argv", [
    ["eval"],  # neither --extractor nor --lemma
    ["eval", "--extractor", "ip"],  # no --n
    ["eval", "--lemma", "L2.5", "--trials", "0"],
    ["eval", "--lemma", "L2.2", "--trials", "-3"],
    ["eval", "--lemma", "L2.2", "--eps", "0"],
    ["eval", "--lemma", "P3.2"],  # no randomized-trial driver
    ["eval", "--lemma", "L2.2", "--eps", "nan"],
])
def test_eval_input_errors_exit_4(argv, tmp_path, capsys):
    assert run_cli_nocache(argv, tmp_path) == 4
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("argv", [["eval", "--lemma", "P3.2"],
                                  ["eval", "--lemma", "L2.2", "--eps", "nan"]])
def test_eval_lemma_refuses_before_it_draws(argv, tmp_path, capsys,
                                            monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a trial was drawn")
    monkeypatch.setattr(cli_mod.np.random, "Philox", no_draws)
    assert run_cli_nocache(argv, tmp_path) == 4
    assert capsys.readouterr().err.startswith("invalid input: ")


# The outputs of the per-trial loop that built one joint per trial, which
# the blocked driver must reproduce byte for byte.
LEMMA_PINS = [
    (["--lemma", "L2.2", "--trials", "10", "--eps", "0.125", "--seed", "1"],
     '{"lemma": "L2.2", "trials": 10, "eps": 0.125, "pass_rate": 1.0, '
     '"min_slack": 0.125, "seed": 1}'),
    (["--lemma", "L2.5", "--trials", "10", "--seed", "1"],
     '{"lemma": "L2.5", "trials": 10, "eps": 0.25, "pass_rate": 1.0, '
     '"min_slack": 0.00010514259338378906, "seed": 1}'),
    (["--lemma", "L2.2", "--trials", "1000", "--eps", "0.125"],
     '{"lemma": "L2.2", "trials": 1000, "eps": 0.125, "pass_rate": 1.0, '
     '"min_slack": 0.125, "seed": 0}'),
    (["--lemma", "L2.5", "--trials", "1000"],
     '{"lemma": "L2.5", "trials": 1000, "eps": 0.25, "pass_rate": 1.0, '
     '"min_slack": 3.814697265625e-06, "seed": 0}'),
]


@pytest.mark.parametrize("argv,expect", LEMMA_PINS, ids=[
    "L2.2-10", "L2.5-10", "L2.2-1000", "L2.5-1000"])
def test_eval_lemma_outputs_are_pinned(argv, expect, tmp_path, capsys):
    assert run_cli_nocache(["eval", *argv], tmp_path) == 0
    assert capsys.readouterr().out.strip() == expect


def test_eval_lemma_block_verdicts_match_one_joint_each(tmp_path,
                                                       monkeypatch):
    # Every verdict of the driver's check_lemma calls, in blocks of 4
    # trials, equals check_lemma on a JointDistribution of the same counts.
    from extractomat import oracle
    from extractomat.dist import JointDistribution
    calls, check = [], oracle.check_lemma

    def spy(lemma, **kw):
        calls.append((lemma, kw, check(lemma, **kw)))
        return calls[-1][2]
    monkeypatch.setattr(oracle, "check_lemma", spy)
    monkeypatch.setattr(cli_mod, "LEMMA_BLOCK", 4)
    for seed in range(4):
        for argv in (["L2.2", "--eps", "0.25"], ["L2.5"]):
            assert run_cli_nocache(["eval", "--lemma", *argv, "--trials", "10",
                                    "--seed", str(seed)], tmp_path) == 0
    trials, widths = {"L2.2": 0, "L2.5": 0}, set()
    for lemma, kw, verdicts in calls:
        num, den = kw.pop("numerators"), kw.pop("denominator")
        m, d = (s.bit_length() - 1 for s in num.shape[1:])
        parts = [("X", m), ("Y", d)] if lemma == "L2.2" else [("Z", m), ("E", d)]
        assert len(num) == len(verdicts) <= 4
        for row, v in zip(num, verdicts):
            one = check(lemma, joint=JointDistribution.from_numerators(
                parts, row.ravel(), den), **kw)
            assert (v.ok, v.slack) == (one.ok, one.slack)
        trials[lemma] += len(num)
        widths.add((lemma, m))
    assert trials == {"L2.2": 40, "L2.5": 40}
    assert widths == {("L2.2", 4), ("L2.5", 1), ("L2.5", 2), ("L2.5", 3)}


@pytest.mark.parametrize("argv", [
    ["--lemma", "L2.2", "--trials", "37", "--eps", "0.5", "--seed", "3"],
    ["--lemma", "L2.5", "--trials", "37", "--seed", "3"],
    ["--lemma", "L2.5", "--trials", "10", "--seed", "1"],
])
def test_eval_lemma_blocks_do_not_change_the_output(argv, tmp_path, capsys,
                                                    monkeypatch):
    # Blocks of 4 trials: several check_lemma calls per Z width, a short
    # last block, and one Philox stream across the blocks.
    outputs = []
    for block in (cli_mod.LEMMA_BLOCK, 4):
        monkeypatch.setattr(cli_mod, "LEMMA_BLOCK", block)
        assert run_cli_nocache(["eval", *argv], tmp_path) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_xtab_file(cache_dir, tmp_path, capsys):
    run_cli(["certify", "--arity", "2", "--n", "3", "--k", "2", "--m", "1",
             "--seed", "9"], cache_dir, tmp_path)
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rc = run_cli_nocache(["eval", "--extractor", payload["xtab"],
                          "--k1", "2", "--k2", "2"], tmp_path)
    assert rc == 0


def test_eval_reads_the_t_source_xtab_certify_writes(tmp_path, capsys):
    from extractomat import certify, oracle
    assert run_cli(["certify", "--arity", "3", "--n", "2", "--k", "1",
                    "--m", "1"], tmp_path / "cache", tmp_path / "c") == 0
    xtab = json.loads(capsys.readouterr().out)["xtab"]
    handle, record = certify.load_xtab(Path(xtab))
    assert record.kind == "t-source" and record.error_exact == "1/2"
    assert run_cli_nocache(["eval", "--extractor", xtab], tmp_path / "e") == 0
    report = json.loads((tmp_path / "e" / "eval-report.json").read_text())
    assert report["error_exact"] == record.error_exact
    assert _listed_digests(tmp_path / "e") == [record.digest]
    # --k1 and --k2 replace the first two recorded levels, --leak-bits is b
    assert run_cli_nocache(["eval", "--extractor", xtab, "--k1", "2",
                            "--leak-bits", "1"], tmp_path / "k") == 0
    report = json.loads((tmp_path / "k" / "eval-report.json").read_text())
    expect = oracle.worst_case_error_multi(handle, (2, 1, 1), b=1)
    assert report["error_exact"] == str(expect.error)


@pytest.mark.parametrize("flags, named", [
    (["--marginal"], ["--marginal"]), (["--k", "1"], ["--k"]),
    (["--marginal", "--k", "1"], ["--k", "--marginal"])])
def test_eval_refuses_flags_a_two_source_handle_ignores(tmp_path, capsys,
                                                        flags, named):
    # ip(3; 2, 2) reads --k1 and --k2: 5/16 with or without these flags
    argv = ["eval", "--extractor", "ip", "--n", "3", "--k1", "2", "--k2", "2"]
    assert run_cli_nocache(argv, tmp_path / "ok") == 0
    assert json.loads(capsys.readouterr().out)["error_exact"] == "5/16"
    out = tmp_path / "refused"
    assert run_cli_nocache([*argv, *flags], out) == 4
    err = capsys.readouterr().err
    assert f"2-source handle ip[n=3] takes no {', '.join(named)}" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--k1", "1"], ["--k1"]), (["--strong", "0"], ["--strong"]),
    (["--k1", "1", "--k2", "1", "--strong", "0"],
     ["--k1", "--k2", "--strong"])])
def test_eval_refuses_flags_a_seeded_handle_ignores(tmp_path, capsys, flags,
                                                    named):
    # toeplitz(4; 2) reads --k and --marginal: 3/16 with or without these
    argv = ["eval", "--extractor", "toeplitz", "--n", "4", "--k", "2",
            "--m", "1"]
    assert run_cli_nocache([*argv, *flags], tmp_path / "refused") == 4
    assert (f"seeded handle toeplitz[n=4,m=1] takes no {', '.join(named)}"
            in capsys.readouterr().err)
    assert not (tmp_path / "refused").exists()


def test_eval_refuses_flags_a_t_source_handle_ignores(tmp_path, capsys):
    # a t-source handle is strong in its first two inputs: no --strong,
    # and no seeded flag either
    assert run_cli(["certify", "--arity", "3", "--n", "2", "--k", "1",
                    "--m", "1"], tmp_path / "cache", tmp_path / "c") == 0
    xtab = json.loads(capsys.readouterr().out)["xtab"]
    for flags, named in ((["--strong", "1"], "--strong"),
                         (["--k", "1", "--marginal"], "--k, --marginal")):
        out = tmp_path / named
        assert run_cli_nocache(["eval", "--extractor", xtab, *flags],
                               out) == 4
        err = capsys.readouterr().err
        assert "t-source handle" in err and f"takes no {named}" in err
        assert not out.exists()


def test_eval_refuses_samples_and_seed_on_a_t_source_handle(tmp_path,
                                                            capsys):
    # the multi oracle is exhaustive-only, so a t-source eval reads neither
    # flag; without them its manifest still records the defaults
    assert run_cli(["certify", "--arity", "3", "--n", "2", "--k", "1",
                    "--m", "1"], tmp_path / "cache", tmp_path / "c") == 0
    xtab = json.loads(capsys.readouterr().out)["xtab"]
    argv = ["eval", "--extractor", xtab]
    assert run_cli_nocache(argv, tmp_path / "ok") == 0
    assert json.loads(capsys.readouterr().out)["error_exact"] == "1/2"
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert (manifest["args"]["samples"], manifest["args"]["seed"]) == (200, 0)
    for flags, named in ((["--samples", "7", "--seed", "99"],
                          "--samples, --seed"),
                         (["--samples", "200"], "--samples"),
                         (["--seed", "0"], "--seed")):
        out = tmp_path / named
        assert run_cli_nocache([*argv, *flags], out) == 4
        err = capsys.readouterr().err
        assert "t-source handle" in err and f"takes no {named}" in err
        assert not out.exists()


@pytest.mark.parametrize("m", ["3", "1"])
def test_eval_refuses_m_on_ip(tmp_path, capsys, m):
    # ip has one output bit: --m was read by nothing, whatever its value
    argv = ["eval", "--extractor", "ip", "--n", "3", "--k1", "2", "--k2", "2"]
    assert run_cli_nocache([*argv, "--m", m], tmp_path / "refused") == 4
    assert (capsys.readouterr().err
            == "invalid input: extractor ip takes no --m\n")
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("flags, named", [
    (["--n", "9", "--m", "5"], "--n, --m"), (["--n", "3"], "--n"),
    (["--m", "1"], "--m")])
def test_eval_refuses_n_and_m_on_a_table(tmp_path, capsys, flags, named):
    # a table fixes its widths; without the flags the manifest still
    # records m = 1
    assert run_cli(["certify", "--n", "3", "--k", "2", "--m", "1"],
                   tmp_path / "cache", tmp_path / "c") == 0
    xtab = json.loads(capsys.readouterr().out)["xtab"]
    argv = ["eval", "--extractor", xtab, "--k1", "2", "--k2", "2"]
    assert run_cli_nocache(argv, tmp_path / "ok") == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert (manifest["args"]["n"], manifest["args"]["m"]) == (None, 1)
    assert run_cli_nocache([*argv, *flags], tmp_path / "refused") == 4
    assert (capsys.readouterr().err
            == f"invalid input: extractor {xtab} takes no {named}\n")
    assert not (tmp_path / "refused").exists()


def test_eval_strong_index_outside_the_inputs_exits_4(tmp_path, capsys):
    rc = run_cli_nocache(["eval", "--extractor", "ip", "--n", "3",
                          "--k1", "2", "--k2", "2", "--strong", "2"], tmp_path)
    assert rc == 4
    assert "strong" in capsys.readouterr().err


def test_eval_budget_exceeded_exit_3(tmp_path):
    rc = run_cli_nocache(["eval", "--extractor", "ip", "--n", "12",
                          "--k1", "6", "--k2", "6", "--mode", "exhaustive"],
                         tmp_path)
    assert rc == 3


def test_netsim_geqr_sampled(cache_dir, tmp_path):
    cfg = tmp_path / "geqr.cfg"
    cfg.write_text("p = 5\nt = 1\nn = 4\nk = 4\nalpha = 0.25\nseed = 3\n"
                   "protocol = geqr\ngeqr_group = 2\ngeqr_s = 2\n")
    rc = run_cli(["netsim", "--config", str(cfg), "--runs", "4000"],
                 cache_dir, tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["y_width"] == 4
    assert "output_vs_public" in report


# Per-player sampled estimates and 99% intervals of the benchmark's toy
# extpub (seed 17, 500 runs) and micro geqr (seed 3, 1000 runs) requests,
# pinned bit for bit: a faster estimator must reproduce them exactly.
# extpub's spreads are those of the two-step draw (shared-run count, then
# the shared cells); geqr has no lone cell and draws as one step did.
GOLDEN_NETSIM = {
    "extpub": (
        "p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\nseed = 17\n"
        "protocol = extpub\n", ["--runs", "500"], "public_block_quality",
        {"4": (0.930125, [0.930249375, 0.9351275]),
         "5": (0.930125, [0.9289931250000001, 0.935500625]),
         "6": (0.930375, [0.93024625, 0.9353756249999999])}),
    "geqr": (
        "p = 5\nt = 1\nn = 4\nk = 4\nalpha = 0.25\nseed = 3\n"
        "protocol = geqr\n", ["--adv", "qr-analog", "--runs", "1000"],
        "output_vs_public", {"5": (0.18675, [0.16622875, 0.24075125])}),
}


def _golden_run(protocol, tmp_path, out_name):
    """Answer a ``GOLDEN_NETSIM`` request with the cache under
    ``tmp_path`` and check its estimates against the pins."""
    text, flags, field, pinned = GOLDEN_NETSIM[protocol]
    cfg, out = tmp_path / "net.cfg", tmp_path / out_name
    cfg.write_text(text)
    assert run_cli(["netsim", "--config", str(cfg), *flags],
                   tmp_path / "cache", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert {pid: (rep["estimate"], rep["ci_99"])
            for pid, rep in report[field].items()} == pinned


@pytest.mark.parametrize("protocol", sorted(GOLDEN_NETSIM))
def test_netsim_sampled_estimates_are_pinned(tmp_path, protocol):
    for temp in ("cold", "warm"):
        _golden_run(protocol, tmp_path, temp)


@pytest.mark.parametrize("protocol", sorted(GOLDEN_NETSIM))
def test_netsim_sampled_worlds_build_no_flat_distribution(tmp_path, protocol,
                                                          monkeypatch):
    # a flat source draws its worlds by support index; only the exact
    # enumeration builds its Distribution
    from extractomat.sources import FlatSource

    def refused(self):
        raise AssertionError("a flat source built its Distribution")
    monkeypatch.setattr(FlatSource, "to_distribution", refused)
    _golden_run(protocol, tmp_path, "out")


# sha256 of every output of an exact micro geqr request and a sampled toy
# extpub request, pinned: report.json without volatile (re-encoded with
# indent=2), and stderr, which holds the config warnings.
NETSIM_BYTES = {
    "exact-geqr": (
        "p = 5\nt = 1\nn = 3\nk = 3\nalpha = 0.25\nseed = 3\n",
        ["--protocol", "geqr", "--adv", "qr-analog", "--exact"], {
            "runs.jsonl": "077c47af8ea182063d3a6c2ab32d9d17"
                          "f37dbad753dbd8af95ebd846d5d20d55",
            "summary.csv": "9d5d662faf35c235899c7c8081de6a55"
                           "88bfd3950a88b878369ec445f0aa0200",
            "report.json": "823929e8ad0bbe0fa96eb0990ec50411"
                           "bdc18a24b4d802c99c09eb60a745a26b",
            "stderr": "429374942dcbe04dfcd507db3e2dbfb3"
                      "9a39f2a2c3d2c1764bdad704402a5e11"}),
    "sampled-extpub": (
        "p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\nseed = 17\n",
        ["--protocol", "extpub", "--runs", "500"], {
            "runs.jsonl": "862214e4b4788001d24d771965dcd093"
                          "451bfbf558e61643b654dae9b68fd789",
            "summary.csv": "7235544f7d147b3e799a060e708e8373"
                           "6214e9c82cc71027e6fe5de408a26a0f",
            "report.json": "c661a9d553c23e0584ad412d776a48d6"
                           "cac006fed004c9ab0d6efcc8062b3b15",
            "stderr": "c73d6d5de02ef7d9b15877fc9ce9e144"
                      "115817f4c9cba9f8cf99192257adddd5"}),
}


@pytest.mark.parametrize("request_name", sorted(NETSIM_BYTES))
def test_netsim_output_bytes_are_pinned(tmp_path, capsys, request_name):
    text, flags, pinned = NETSIM_BYTES[request_name]
    cfg, out = tmp_path / "net.cfg", tmp_path / "out"
    cfg.write_text(text)
    assert run_cli(["netsim", "--config", str(cfg), *flags],
                   tmp_path / "cache", out) == 0
    report = json.loads((out / "report.json").read_text())
    del report["volatile"]
    data = {"runs.jsonl": (out / "runs.jsonl").read_bytes(),
            "summary.csv": (out / "summary.csv").read_bytes(),
            "report.json": json.dumps(report, indent=2).encode(),
            "stderr": capsys.readouterr().err.encode()}
    assert {name: hashlib.sha256(data[name]).hexdigest()
            for name in data} == pinned


def test_netsim_config_runs_and_adv_are_used(cache_dir, tmp_path):
    cfg = tmp_path / "geqr.cfg"
    cfg.write_text("p = 5\nt = 1\nn = 4\nk = 4\nalpha = 0.25\nseed = 3\n"
                   "protocol = geqr\nruns = 500\nadv = ir\n")
    out = tmp_path / "cfg"
    assert run_cli(["netsim", "--config", str(cfg)], cache_dir, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["adversary"] == "ir"
    assert report["output_vs_public"]["5"]["samples"] == 500
    log = [json.loads(line)
           for line in (out / "runs.jsonl").read_text().splitlines()]
    assert any(m["faulty"] for m in log)
    # flags still win over the config
    out = tmp_path / "flags"
    assert run_cli(["netsim", "--config", str(cfg), "--runs", "400",
                    "--adv", "none"], cache_dir, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["adversary"] == "none"
    assert report["output_vs_public"]["5"]["samples"] == 400


def test_ledger_constraint_exit_5(tmp_path):
    rc = run_cli_nocache(["ledger", "--theorem", "deor-ge", "--n", "1000",
                          "--k1", "100", "--k2", "100"], tmp_path)
    assert rc == 5


def test_ledger_writes_entry(tmp_path, capsys):
    rc = run_cli_nocache(["ledger", "--theorem", "ir-to-qr", "--eps", "1e-6",
                          "--rush-bits", "10"], tmp_path)
    assert rc == 0
    entry = json.loads((tmp_path / "ledger-ir-to-qr.json").read_text())
    assert entry["outputs"]["eps_qr"] == pytest.approx(1.024e-3)


@pytest.mark.parametrize("argv,inputs", [
    # an input the theorem does not take, and a missing one
    ("deor --n 10 --k1 6 --k2 6 --m 1 --alpha 0.1", "(n, k1, k2, m)"),
    ("ir-to-qr --eps 0.1", "(eps, rush_bits)"),
    # arithmetic outside the theorem's domain
    ("expander --beta 0", "beta=0.0, C=1.0"),
    ("and-disperser --alpha 0 --D 2 --M 3", "alpha=0.0, D=2, M=3, C=1.0"),
    ("weak-seed --k 100 --eps 0.1 --d 1 --delta 0.1 --C 0", "C=0.0"),
    ("raz --n1 0 --n2 8 --k1 0 --k2 4", "n1=0.0, n2=8.0"),
    ("ir-to-qr --eps 0.1 --rush-bits 2000", "eps=0.1, rush_bits=2000.0"),
    ("bourgain --n 1e6 --alpha -0.5", "n=1000000.0, alpha=-0.5"),
])
def test_ledger_bad_request_exits_4_naming_the_inputs(tmp_path, capsys,
                                                       argv, inputs):
    theorem, *rest = argv.split()
    rc = run_cli_nocache(["ledger", "--theorem", theorem, *rest], tmp_path)
    assert rc == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("invalid input: ")
    assert f"theorem {theorem!r}" in err[0] and inputs in err[0]
    assert not (tmp_path / f"ledger-{theorem}.json").exists()


def test_ledger_and_disperser_reads_the_C_flag(tmp_path):
    # --C reached expander and weak-seed; and-disperser once named it c
    rc = run_cli_nocache(["ledger", "--theorem", "and-disperser", "--alpha",
                          "0.5", "--D", "2", "--M", "4", "--C", "2"], tmp_path)
    assert rc == 0
    entry = json.loads((tmp_path / "ledger-and-disperser.json").read_text())
    assert entry["inputs"]["C"] == 2.0 and entry["outputs"]["d"] == 512.0


@pytest.mark.parametrize("argv,named", [
    ("--eps -1 --rush-bits 10", "eps=-1.0"),
    ("--eps nan --rush-bits 10", "eps=nan"),
    ("--eps 0.5 --rush-bits inf", "rush_bits=inf"),
])
def test_ledger_refuses_non_finite_inputs_and_errors_outside_0_1(
        tmp_path, capsys, argv, named):
    # once eps_qr = -1024.0 and a bare NaN in the entry, both with exit 0
    rc = run_cli_nocache(["ledger", "--theorem", "ir-to-qr", *argv.split()],
                         tmp_path)
    assert rc == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["invalid input: theorem 'ir-to-qr' takes finite inputs "
                   f"and errors in [0, 1], not {named}"]
    assert not (tmp_path / "ledger-ir-to-qr.json").exists()


def test_netsim_config_violation_exit_4(cache_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\na_size = 2\n")
    rc = run_cli(["netsim", "--config", str(cfg)], cache_dir, tmp_path)
    assert rc == 4


TOY_CONFIG = "p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
MICRO_GEQR = "p = 5\nt = 1\nn = 2\nk = 2\nalpha = 0.25\nprotocol = geqr\n"


def test_netsim_geqr_config_is_checked_before_any_table(tmp_path, capsys):
    cfg, cache = tmp_path / "geqr.cfg", tmp_path / "cache"
    cfg.write_text(MICRO_GEQR + "geqr_s = 0\n")
    assert run_cli(["netsim", "--config", str(cfg)], cache, tmp_path) == 4
    assert "config key geqr_s must be >= 1" in capsys.readouterr().err
    assert not list(cache.glob("*.xtab"))


def _refused_before_any_table(argv, tmp_path, capsys, monkeypatch):
    """Run ``argv`` with the default cache under ``tmp_path``, check that
    it exits 4 with one ``invalid input:`` line and an empty cache, and
    return that line."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("EXTRACTOMAT_CACHE", str(cache))
    rc = run_cli_nocache(argv, tmp_path / "out")
    err = capsys.readouterr().err.splitlines()
    assert (rc, len(err)) == (4, 1) and err[0].startswith("invalid input: ")
    assert not cache.exists() or not any(cache.iterdir())
    return err[0]


@pytest.mark.parametrize("key", ["a_size", "b_size"])
def test_netsim_partition_sizes_are_not_config_keys(key, tmp_path, capsys,
                                                    monkeypatch):
    # |A| and |B| are derived from alpha, delta and t, so even the derived
    # value itself is an unknown key
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG + f"{key} = 3\n")
    assert _refused_before_any_table(
        ["netsim", "--config", str(cfg)], tmp_path, capsys, monkeypatch) == (
        f"invalid input: config line 7: unknown key '{key}'")


@pytest.mark.parametrize("config", [TOY_CONFIG, MICRO_GEQR],
                         ids=["extpub", "geqr"])
def test_netsim_gamma_is_not_a_config_key(config, tmp_path, capsys,
                                          monkeypatch):
    # the toy AND-disperser is verified at gamma = 1/l, and a config's gamma
    # reached nothing but a warning: even -inf, once refused as non-finite,
    # is an unknown key
    cfg = tmp_path / "net.cfg"
    cfg.write_text(config + "gamma = -inf\n")
    assert _refused_before_any_table(
        ["netsim", "--config", str(cfg)], tmp_path, capsys, monkeypatch) == (
        "invalid input: config line 7: unknown key 'gamma'")


def test_netsim_geqr_partition_is_checked_before_any_table(tmp_path, capsys,
                                                          monkeypatch):
    # p = 5 and three groups of two leave no outer player: both geqr tables
    # were once certified and cached before the refusal
    cfg = tmp_path / "geqr.cfg"
    cfg.write_text(MICRO_GEQR + "geqr_s = 3\n")
    assert _refused_before_any_table(
        ["netsim", "--config", str(cfg), "--exact"], tmp_path, capsys,
        monkeypatch) == (
        "invalid input: p must exceed s*d (no outer players left)")


@pytest.mark.parametrize("config", [TOY_CONFIG, MICRO_GEQR],
                         ids=["extpub", "geqr"])
@pytest.mark.parametrize("line,named", [
    ("alpha = nan", "alpha must be finite, got nan"),
    ("delta = nan", "delta must be finite, got nan"),
    ("alpha = inf", "alpha must be finite, got inf"),
    ("n = -1", "n must be >= 1, got -1"),
    ("n = 0", "n must be >= 1, got 0")])
def test_netsim_config_values_are_checked_before_any_table(
        config, line, named, tmp_path, capsys, monkeypatch):
    # once a NaN, an overflow or a negative shift count, exit 1; a geqr
    # run never reads |A|, where alpha = nan passed silently
    cfg = tmp_path / "net.cfg"
    cfg.write_text(config + line + "\n")
    assert _refused_before_any_table(
        ["netsim", "--config", str(cfg)], tmp_path, capsys, monkeypatch) == (
        f"invalid input: config key {named}")


@pytest.mark.parametrize("argv", [
    "eval --extractor ip --n 3 --k1 1 --k2 1 --mode sampled --seed -1",
    "eval --lemma L2.5 --trials 10 --seed -3",
    "certify --n 3 --k 2 --m 1 --mode sampled --seed -1",
    "certify --n 3 --k 2 --m 1 --seed -1",
    "netsim --config {config}"],
    ids=["eval", "lemma", "certify", "certify-exhaustive", "netsim"])
def test_negative_seeds_exit_4(argv, tmp_path, capsys, monkeypatch):
    # each ended in numpy's "key must be positive" ValueError, exit 1;
    # netsim had certified the toy network's tables first; an exhaustive
    # certify drew seed 2^64 - 1's table and exited 0
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG + "seed = -1\n")
    assert "seed" in _refused_before_any_table(
        argv.format(config=cfg).split(), tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("alpha,a_size", [("20.0", 21), ("1000.0", 1001)])
def test_netsim_partition_is_checked_before_the_wiring(
        alpha, a_size, tmp_path, capsys, monkeypatch):
    # the graphs were wired and verified on |A| and |B| first: alpha = 20
    # failed the expander property (exit 4), alpha = 1000 the expander
    # verification's step budget (exit 3)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG.replace("alpha = 2.0", f"alpha = {alpha}"))
    assert _refused_before_any_table(
        ["netsim", "--config", str(cfg)], tmp_path, capsys, monkeypatch) == (
        "invalid input: partition leaves no outer players: |A|+|B| >= p, "
        f"with |A| + |B| = {a_size} + 3 and p = 7")


@pytest.mark.parametrize("config", [TOY_CONFIG, MICRO_GEQR],
                         ids=["extpub", "geqr"])
@pytest.mark.parametrize("below", [1, 12])
def test_netsim_seed_whose_stream_keys_leave_the_range_exits_4(
        config, below, tmp_path, capsys, monkeypatch):
    # seed + 1, the first table's stream key, was named, after the source
    # stream had accepted the seed; the largest key added is 12, a tag
    seed = (1 << 128) - below
    cfg = tmp_path / "net.cfg"
    cfg.write_text(config + f"seed = {seed}\n")
    assert _refused_before_any_table(
        ["netsim", "--config", str(cfg)], tmp_path, capsys, monkeypatch) == (
        f"invalid input: config key seed must be in 0 ... 2^128 - 13, "
        f"got {seed}")


def test_netsim_largest_seed_runs(tmp_path):
    # seed + 12, its last stream key, is 2^128 - 1
    cfg = tmp_path / "geqr.cfg"
    cfg.write_text(MICRO_GEQR + f"seed = {(1 << 128) - 13}\n")
    assert run_cli(["netsim", "--config", str(cfg), "--runs", "200"],
                   tmp_path / "cache", tmp_path / "out") == 0


@pytest.mark.parametrize("argv,named", [
    ("--n -1 --k 0", "input widths must be >= 0"),
    ("--n 3 --k 2 --m 40", "m in 1 ... 32, got widths (3, 3) and m = 40"),
    ("--n 3 --k 2 --m 0", "m in 1 ... 32"),
    ("--n 3 --k 2 --eps nan", "target error must be a number, got nan")],
    ids=["width", "m40", "m0", "eps-nan"])
def test_certify_refuses_widths_and_nan_eps_before_any_draw(
        argv, named, tmp_path, capsys, monkeypatch):
    # once a negative shift count, numpy's uint32 bound, and 32 measured
    # tables before "no table reached error <= nan" (exit 2)
    from extractomat import certify

    def no_draw(*args, **kwargs):
        raise AssertionError("a table was drawn")
    monkeypatch.setattr(certify, "draw_table", no_draw)
    argv = ["certify", *argv.split()]
    if "--m" not in argv:
        argv += ["--m", "1"]
    assert named in _refused_before_any_table(argv, tmp_path, capsys,
                                              monkeypatch)


def test_netsim_sampled_outputs(cache_dir, tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
                   "seed = 9\ncert_samples = 30\n")
    rc = run_cli(["netsim", "--config", str(cfg), "--runs", "3000"],
                 cache_dir, tmp_path)
    assert rc == 0
    assert (tmp_path / "runs.jsonl").exists()
    assert (tmp_path / "summary.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["y_width"] == 12
    assert report["rushing_order_ok"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["schema"] == "manifest-v1"
    assert manifest["cache_digests"]


MICRO_EXTPUB = ("p = 7\nt = 1\nn = 6\nk = 1\nalpha = 2.0\ndelta = 0.25\n"
                "seed = 29\ncert_samples = 30\n")


def _listed_digests(out: Path) -> list:
    return json.loads((out / "manifest.json").read_text())["cache_digests"]


def test_netsim_extpub_certifies_the_slots_its_run_reads(tmp_path):
    # A sampled request runs the public block alone: from a cold cache it
    # certifies and stores iext and srext only.  --exact adds the private
    # step and certifies all four slots.
    from extractomat import cli, netsim
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO_EXTPUB)
    cache = tmp_path / "cache"
    argv = ["netsim", "--config", str(cfg)]
    assert run_cli([*argv, "--runs", "300"], cache, tmp_path / "sampled") == 0
    assert len(list(cache.glob("*.xtab"))) == 2
    # iext, srext, oaext, oaext_b
    _, digests = cli.build_toy_network(netsim.parse_config_text(MICRO_EXTPUB),
                                       cache_dir=cache)
    assert len(set(digests)) == 4
    assert _listed_digests(tmp_path / "sampled") == sorted(digests[:2])
    assert run_cli([*argv, "--exact"], cache, tmp_path / "exact") == 0
    assert _listed_digests(tmp_path / "exact") == sorted(digests)


@pytest.mark.parametrize("adv", ["none", "ir", "qr-analog"])
def test_netsim_sampled_extpub_outputs_match_the_full_network(
        cache_dir, tmp_path, monkeypatch, adv):
    from extractomat import cli
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
                   "seed = 9\ncert_samples = 30\n")
    argv = ["netsim", "--config", str(cfg), "--runs", "300", "--adv", adv]
    public, full = tmp_path / "public", tmp_path / "full"
    assert run_cli(argv, cache_dir, public) == 0
    build = cli.build_toy_network
    monkeypatch.setattr(cli, "build_toy_network",
                        lambda params, cache_dir, protocol:
                        build(params, cache_dir, "ext_pub"))
    assert run_cli(argv, cache_dir, full) == 0
    for name in ("runs.jsonl", "summary.csv"):
        assert (public / name).read_bytes() == (full / name).read_bytes()
    reports = [json.loads((out / "report.json").read_text())
               for out in (public, full)]
    for report in reports:
        del report["volatile"]
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    assert len(_listed_digests(public)) == 2
    assert set(_listed_digests(public)) < set(_listed_digests(full))


def test_manifest_replay_bit_identical(cache_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = run_cli_nocache(["ledger", "--theorem", "deor-ge", "--n", "1000",
                              "--k1", "600", "--k2", "600"], out)
        assert rc == 0
    assert (out1 / "ledger-deor-ge.json").read_bytes() \
        == (out2 / "ledger-deor-ge.json").read_bytes()


def test_rewritten_outputs_match_fresh_ones(tmp_path):
    # Outputs are rewritten over their old bytes: a longer old file must
    # not leave a tail behind.
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    stale.mkdir()
    for name in ("ledger-deor-ge.json", "manifest.json"):
        (stale / name).write_text("x" * 10_000)
    argv = ["ledger", "--theorem", "deor-ge", "--n", "1000", "--k1", "600",
            "--k2", "600"]
    for out in (stale, fresh):
        assert run_cli_nocache(argv, out) == 0
    assert (stale / "ledger-deor-ge.json").read_bytes() \
        == (fresh / "ledger-deor-ge.json").read_bytes()
    manifest = json.loads((stale / "manifest.json").read_text())
    assert manifest["outputs"] == [str(stale / "ledger-deor-ge.json")]


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "extractomat.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0


def test_netsim_unknown_protocol_exits_4(cache_dir, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("p = 5\nt = 1\nn = 4\nk = 4\nalpha = 0.25\nseed = 3\n"
                   "protocol = gqer\n")
    out = tmp_path / "out"
    assert run_cli(["netsim", "--config", str(cfg)], cache_dir, out) == 4
    err = capsys.readouterr().err
    assert "protocol" in err and "'gqer'" in err
    assert "extpub" in err and "geqr" in err
    assert not out.exists()  # refused before any certification


def test_netsim_report_volatile_block(cache_dir, tmp_path):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text("p = 5\nt = 1\nn = 3\nk = 3\nalpha = 0.25\nseed = 3\n"
                   "protocol = geqr\n")
    reports = []
    for name in ("a", "b"):
        rc = run_cli(["netsim", "--config", str(cfg), "--adv", "qr-analog",
                      "--exact"], cache_dir, tmp_path / name)
        assert rc == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    volatile = [r.pop("volatile") for r in reports]
    assert all(set(v) == {"worlds", "adversary_calls", "leak_calls", "eval_s"}
               for v in volatile)
    # one QR and two constant-slice runs of 8^4 worlds each, on worlds
    # enumerated once: the leak map runs once per distinct (x_5, A_5)
    assert volatile[0]["worlds"] == 3 * 8 ** 4
    # the built-in QR-analog strategy reads the leak alone: one callback
    # per value of the one leaked bit
    assert volatile[0]["adversary_calls"] == 2
    assert volatile[0]["leak_calls"] == 8
    assert reports[0] == reports[1]
    # a sampled toy extpub request adds the bootstrap's counters: most of
    # its rest groups hold one cell, so its resamples draw few runs
    cfg.write_text("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
                   "seed = 17\nprotocol = extpub\n")
    assert run_cli(["netsim", "--config", str(cfg), "--runs", "500"],
                   cache_dir, tmp_path / "c") == 0
    volatile = json.loads((tmp_path / "c" / "report.json").read_text())[
        "volatile"]
    assert set(volatile) == {"worlds", "adversary_calls", "leak_calls",
                             "eval_s", "estimator_s", "resamples",
                             "bootstrap_draws", "lone_groups"}
    assert volatile["lone_groups"] > 3 * 400
    assert 0 < volatile["bootstrap_draws"] < 3 * 100 * 200


def test_netsim_exact_refuses_more_worlds_than_the_cap(cache_dir, tmp_path,
                                                       capsys):
    # The toy extpub config enumerates 16^7 = 2^28 worlds exactly: refused
    # with the count (exit 4) instead of allocating them.
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
                   "seed = 17\nprotocol = extpub\n")
    assert run_cli(["netsim", "--config", str(cfg), "--exact"], cache_dir,
                   tmp_path / "out") == 4
    assert "268435456 worlds" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [
    ("geqr_s = 0", "geqr_s"), ("geqr_s = -1", "geqr_s"),
    ("geqr_group = 0", "geqr_group"), ("geqr_group = 1", "geqr_group")])
def test_netsim_refuses_geqr_partitions_without_groups(cache_dir, tmp_path,
                                                       capsys, line, key):
    # no group, or groups of fewer than two players: exit 4 naming the key
    # (geqr_s = 0 used to end in a ZeroDivisionError traceback)
    cfg = tmp_path / "micro.cfg"
    cfg.write_text("p = 5\nt = 1\nn = 3\nk = 3\nalpha = 0.25\nseed = 3\n"
                   f"protocol = geqr\n{line}\n")
    assert run_cli(["netsim", "--config", str(cfg), "--exact"], cache_dir,
                   tmp_path / "out") == 4
    assert f"config key {key} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    "p = 5\nt = -1\nn = 3\nk = 3\nalpha = 0.25\nseed = 3\nprotocol = geqr\n",
    "p = 7\nt = -1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\nseed = 17\n"
    "protocol = extpub\n"], ids=["geqr", "extpub"])
def test_netsim_refuses_a_negative_corruption_bound(cache_dir, tmp_path,
                                                    capsys, config):
    # exit 4 naming t, on either protocol (geqr used to exit 5 on a
    # negative rushing bound, extpub 4 on its graph wiring)
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(config)
    assert run_cli(["netsim", "--config", str(cfg), "--exact"], cache_dir,
                   tmp_path / "out") == 4
    assert "config key t must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("p", [0, -3])
@pytest.mark.parametrize("config", [
    "p = {p}\nt = 1\nn = 3\nk = 3\nalpha = 0.25\nseed = 3\nprotocol = geqr\n",
    "p = {p}\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\nseed = 17\n"
    "protocol = extpub\n"], ids=["geqr", "extpub"])
def test_netsim_refuses_fewer_than_one_player(cache_dir, tmp_path, capsys,
                                              config, p):
    # exit 4 naming p, before the entropy-floor warning takes log2(p)
    # (which used to end in a math domain error, exit 1)
    cfg = tmp_path / "few.cfg"
    cfg.write_text(config.format(p=p))
    assert run_cli(["netsim", "--config", str(cfg), "--exact"], cache_dir,
                   tmp_path / "out") == 4
    assert f"config key p must be >= 1, got {p}" in capsys.readouterr().err


def test_netsim_sampled_report_times_the_estimator(cache_dir, tmp_path):
    from extractomat.oracle import BOOTSTRAP_RESAMPLES
    cfg = tmp_path / "micro.cfg"
    cfg.write_text("p = 5\nt = 1\nn = 4\nk = 4\nalpha = 0.25\nseed = 3\n"
                   "protocol = geqr\n")
    assert run_cli(["netsim", "--config", str(cfg), "--runs", "500"],
                   cache_dir, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    volatile = report["volatile"]
    assert set(volatile) == {"worlds", "adversary_calls", "leak_calls",
                             "eval_s", "estimator_s", "resamples",
                             "bootstrap_draws", "lone_groups"}
    players = len(report["output_vs_public"])
    assert players > 0
    assert volatile["resamples"] == BOOTSTRAP_RESAMPLES * players
    assert 0 < volatile["estimator_s"] <= volatile["eval_s"]
    # geqr's 16 rest groups (the public string) all hold several cells:
    # every resample draws all 500 runs
    assert volatile["lone_groups"] == 0
    assert volatile["bootstrap_draws"] == 500 * BOOTSTRAP_RESAMPLES * players


def test_netsim_runs_the_protocol_once_per_request(cache_dir, tmp_path,
                                                   monkeypatch):
    import numpy as np
    from extractomat import cli, netsim
    from extractomat.leakage import LeakageScenario
    from extractomat.sources import FlatSource
    batches = []
    run_protocol = netsim._run_protocol

    def counted(*args):
        batches.append(run_protocol(*args))
        return batches[-1]

    monkeypatch.setattr(netsim, "_run_protocol", counted)
    toy = tmp_path / "toy.cfg"
    toy.write_text("p = 7\nt = 1\nn = 6\nk = 4\nalpha = 2.0\ndelta = 0.25\n"
                   "seed = 9\ncert_samples = 30\n")
    micro = tmp_path / "micro.cfg"
    micro.write_text("p = 5\nt = 1\nn = 3\nk = 3\nalpha = 0.25\nseed = 3\n"
                     "protocol = geqr\n")
    for name, argv, runs in [
            ("extpub", ["--config", str(toy), "--runs", "300"], 300),
            ("geqr", ["--config", str(micro), "--runs", "300"], 300),
            ("exact", ["--config", str(micro), "--adv", "qr-analog",
                       "--exact"], None)]:
        batches.clear()
        out = tmp_path / name
        assert run_cli(["netsim", *argv], cache_dir, out) == 0
        report = json.loads((out / "report.json").read_text())
        lift = report.get("ir_to_qr")
        # one protocol run; the exact IR sweep scores its constant slices
        # on that run's worlds without running the protocol again
        assert len(batches) == 1
        assert report["rushing_order_ok"]
        assert report["y_width"] == batches[0].y_width
        # the log is world 0 of the measured ensemble, which the same
        # inputs give again outside the CLI
        params = netsim.parse_config_text(Path(argv[1]).read_text())
        protocol = params.get("protocol", "extpub")
        cfg, _ = cli.build_toy_network(params, cache_dir=cache_dir,
                                       protocol=protocol)
        rng = np.random.default_rng(np.random.Philox(key=params["seed"]))
        sources = [FlatSource.random(cfg.n, cfg.k, rng) for _ in range(cfg.p)]
        adv = cli._builtin_adversary(report["adversary"], cfg)
        scenario = None
        if lift:
            sources = [FlatSource(cfg.n, [0]) if pid in adv.initial_faulty
                       else src for pid, src in enumerate(sources, start=1)]
            scenario = LeakageScenario.oa([cfg.n] * cfg.p,
                                          cfg.geqr_outer()[0] - 1,
                                          lambda x, a: x & 1, 1)
        key = {"extpub": "ext_pub_only", "geqr": "geqr"}[protocol]
        _, _, b = netsim.protocol_runs(key, cfg, sources, scenario, adv,
                                       n_runs=runs, seed=params["seed"])
        assert (out / "runs.jsonl").read_text() == b.to_jsonl(0), name


def test_parser_reuse_matches_fresh_calls(cache_dir, tmp_path, capsys):
    from extractomat import cli
    requests = [
        ["certify", "--arity", "2", "--n", "3", "--k", "2", "--m", "1",
         "--seed", "7", "--strong", "0", "1", "--cache", str(cache_dir)],
        ["certify", "--arity", "2", "--n", "3", "--k", "2", "--m", "1",
         "--seed", "8", "--cache", str(cache_dir)],
        ["eval", "--extractor", "ip", "--n", "3", "--k1", "2", "--k2", "2",
         "--strong", "0"],
        ["eval", "--extractor", "deor", "--n", "3", "--m", "2", "--k1", "2",
         "--k2", "2"],
        ["ledger", "--theorem", "deor-ge", "--n", "1000", "--k1", "600",
         "--k2", "600"],
    ]

    def run(argv, out):
        assert main([*argv, "--out-dir", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        printed.pop("volatile", None)
        args = json.loads((out / "manifest.json").read_text())["args"]
        args.pop("out_dir")
        return printed, args

    shared = [run(a, tmp_path / f"shared{i}") for i, a in enumerate(requests)]
    assert cli.build_parser.cache_info().currsize == 1
    fresh = []
    for i, argv in enumerate(requests):
        cli.build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{i}"))
    assert shared == fresh


def test_eval_reports_oracle_kernel(tmp_path, capsys, monkeypatch):
    # ip(4; 3, 2) with its GL(4,2) symmetry check failing: 2 output events
    # (of 4 cells) against C(16, 8) supports, per each of the C(16, 4)
    # supports of X2.
    from extractomat import oracle
    monkeypatch.setattr(oracle, "_gl_invariant", lambda table2d: False)
    argv = ["eval", "--extractor", "ip", "--n", "4", "--k1", "3", "--k2", "2"]
    assert run_cli_nocache(argv, tmp_path / "a") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["volatile"]["kernel"] == "events"
    assert report["volatile"]["candidates"] == 2 * 1820
    assert "symmetry" not in report["volatile"]
    assert report["error_exact"] == "5/16"
    # The check passes: 7 supports of X2 cover every orbit.
    monkeypatch.undo()
    assert run_cli_nocache(argv, tmp_path / "a2") == 0
    declared = json.loads(capsys.readouterr().out)
    assert declared["volatile"] == {**declared["volatile"], "kernel": "events",
                                    "candidates": 2 * 7, "symmetry": "GL(n,2)",
                                    "representatives": 7}
    for key in ("mode", "error", "error_exact", "enumerated"):
        assert declared[key] == report[key]
    # deor(3, 2; 3, 2): 16 events against a single full-entropy support.
    assert run_cli_nocache(["eval", "--extractor", "deor", "--n", "3", "--m",
                            "2", "--k1", "3", "--k2", "2"], tmp_path / "b") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["volatile"] == {**report["volatile"], "kernel": "supports",
                                  "candidates": 70}
    assert report["error_exact"] == "1/4"
    # toeplitz(4; 2): the seed is the selected input, one full support of
    # it per C(16, 4) source support, revealed unless --marginal.
    for flag, kernel, error in (([], "events", "3/16"),
                                (["--marginal"], "supports", "1/8")):
        assert run_cli_nocache(["eval", "--extractor", "toeplitz", "--n", "4",
                                "--k", "2", "--m", "1", *flag],
                               tmp_path / f"c{len(flag)}") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["volatile"] == {**report["volatile"], "kernel": kernel,
                                      "candidates": 1820}
        assert (report["error_exact"], report["enumerated"]) == (error, 1820)


DISPATCH_OK = [
    ["certify", "--n", "3", "--k", "2", "--m", "1"],
    ["certify", "--arity", "3", "--n", "3", "4", "5", "--k", "2", "2.5", "3",
     "--m", "1", "--strong", "--seed", "9", "--kind", "t-source"],
    ["certify", "--n", "3", "--k", "2", "--m", "1", "--strong", "0", "1",
     "--workers", "2", "--leak-bits", "1", "--cache", "c", "--out-dir", "o"],
    ["certify", "--m=1", "--n=3", "--k", "2", "--strong"],
    ["eval", "--extractor", "ip", "--n", "3"],
    ["eval", "--lemma", "L2.5", "--trials", "10", "--seed", "-3",
     "--marginal", "--threads", "2", "--mode", "sampled"],
    ["eval", "--extractor", "toeplitz", "--n", "4", "--k", "2", "--m", "1",
     "--strong", "0", "--eps", "0.5", "--out-dir", "x y"],
    ["netsim", "--config", "toy.cfg"],
    ["netsim", "--config", "toy.cfg", "--protocol", "geqr", "--adv",
     "qr-analog", "--runs", "50", "--exact", "--cache", "c"],
    ["ledger", "--theorem", "deor-ge", "--n", "1000", "--k1", "600",
     "--k2", "600", "--rush-bits", "2", "--D", "3", "--t", "1"],
    ["ledger", "--theorem", "ir-to-qr"],
]
DISPATCH_EXIT = [
    [], ["nope"], ["--version"], ["-h"], ["eval", "-h"], ["eval", "--bogus"],
    ["eval", "--n"], ["eval", "--n", "3", "extra"], ["--", "eval", "--n", "3"],
    ["certify", "--n", "3", "--k", "2"], ["eval", "--mode", "fast"],
    ["netsim", "--config", "c", "--protocol", "x", "--", "--y"],
    ["ledger", "--theorem", "t", "--n", "1", "--bogus", "2", "tail"],
]


@pytest.mark.parametrize("argv", DISPATCH_OK, ids=" ".join)
def test_dispatch_parses_as_the_full_parser(argv):
    # same items in the same order: manifest.json's args keep their order
    full = cli_mod.build_parser().parse_args(argv)
    assert list(vars(cli_mod._parse(argv)).items()) == list(vars(full).items())


@pytest.mark.parametrize("argv", DISPATCH_EXIT, ids=" ".join)
def test_dispatch_exits_as_the_full_parser(argv, capsys):
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()
    full = cli_mod.build_parser().parse_args
    assert outcome(cli_mod._parse) == outcome(full)


def test_certify_report_bytes_are_pinned(tmp_path):
    argv = ["certify", "--n", "3", "--k", "2", "--m", "1", "--seed", "5",
            "--strong", "0"]
    assert run_cli(argv, tmp_path / "cache", tmp_path / "o") == 0
    report, = (tmp_path / "o").glob("certify-*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "e9085f92640bbd9f4290273de2bb59ec9de8c71ec7a4e2b677b0123d642519cb")


def test_write_text_writes_every_byte_and_cuts_the_old_tail(tmp_path,
                                                            monkeypatch):
    path, real_write, calls = tmp_path / "f.json", os.write, []

    def short_write(fd, data):  # at most 7 bytes per call
        calls.append(len(data))
        return real_write(fd, bytes(data[:7]))
    path.write_text("x" * 100 + "\n")
    text = '{"a": "é' + "b" * 40 + '"}\n'
    monkeypatch.setattr(os, "write", short_write)
    cli_mod._write_text(path, text)
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == text
    assert len(calls) == -(-len(text.encode()) // 7)
