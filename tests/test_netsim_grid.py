import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GRID = str(ROOT / "tools" / "netsim_grid.py")


def _grid(old_src, new_src, limit=2):
    return subprocess.run([sys.executable, GRID, str(old_src), str(new_src),
                           "--limit", str(limit)], capture_output=True,
                          text=True)


def test_netsim_grid_agrees_with_itself_on_two_requests():
    out = _grid(ROOT / "src", ROOT / "src")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["2 requests, 0 mismatches"]


def test_netsim_grid_names_the_requests_a_changed_tree_answers_otherwise(
        tmp_path):
    # a copy whose exact excess is one too large changes both requests'
    # exact distances, in stdout, report.json and summary.csv
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    dist_py = changed / "extractomat" / "dist.py"
    text = dist_py.read_text()
    line = "    return excess_over_uniform(totals, keys >> m, m)\n"
    assert text.count(line) == 1
    dist_py.write_text(text.replace(line, line.rstrip() + " + 1\n"))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    named = ["  stdout: 0.exact_distance", "  report.json: exact_distance",
             "  summary.csv"]
    assert out.stdout.splitlines() == [
        "2 requests, 2 mismatches", "mismatch: exact-geqr-n2-s3-none", *named,
        "mismatch: exact-geqr-n2-s3-ir", *named]


@pytest.mark.parametrize("old, new, named", [
    # stderr alone: the config warnings' prefix
    ('print(f"config warning: {w.message}"', 'print(f"config note: {w.message}"',
     "  stderr"),
    # stdout alone: the printed report, not report.json
    ("print(json.dumps(report))", "print(json.dumps({**report, 'p': 0}))",
     "  stdout: 0.p"),
], ids=["stderr", "stdout"])
def test_netsim_grid_compares_stdout_and_stderr(tmp_path, old, new, named):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = changed / "extractomat" / "cli.py"
    text = cli_py.read_text()
    assert text.count(old) == 1
    cli_py.write_text(text.replace(old, new))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines() == [
        "2 requests, 2 mismatches", "mismatch: exact-geqr-n2-s3-none", named,
        "mismatch: exact-geqr-n2-s3-ir", named]


def test_netsim_grid_names_a_lost_volatile_key(tmp_path):
    # a CLI that drops leak_calls is named in stdout and report.json
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = changed / "extractomat" / "cli.py"
    text = cli_py.read_text()
    old = ('"adversary_calls": b.callbacks,\n'
           '                "leak_calls": len(leaked)}')
    assert text.count(old) == 1
    cli_py.write_text(text.replace(old, '"adversary_calls": b.callbacks}'))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    named = ["  stdout: 0.volatile.leak_calls",
             "  report.json: volatile.leak_calls"]
    assert out.stdout.splitlines() == [
        "2 requests, 2 mismatches", "mismatch: exact-geqr-n2-s3-none", *named,
        "mismatch: exact-geqr-n2-s3-ir", *named]


def test_netsim_grid_compares_volatile_counters_by_value(tmp_path):
    # a play that calls the rushing callback once per late world sends the
    # same messages: only the IR request's adversary_calls differs, while
    # eval_s, a timing, differs in every request and is not named
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    netsim_py = changed / "extractomat" / "netsim.py"
    text = netsim_py.read_text()
    old = "ids, first = row_ids((col[rows] for col in keys), rows.size)"
    assert text.count(old) == 1
    netsim_py.write_text(text.replace(
        old, "ids = first = np.arange(rows.size)"))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines() == [
        "2 requests, 1 mismatches", "mismatch: exact-geqr-n2-s3-ir",
        "  stdout: 0.volatile.adversary_calls",
        "  report.json: volatile.adversary_calls"]


def test_netsim_grid_names_the_key_paths_that_differ():
    # a sampled report whose spread alone moved: its ci_99 and half_width
    # paths, in report.json and stdout's line 0; a key only one side has,
    # a nested value and a text output are named too
    spec = importlib.util.spec_from_file_location("netsim_grid", GRID)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    rep = {"public_block_quality": {
        str(pid): {"estimate": 0.93, "ci_99": [0.92, 0.94],
                   "half_width": 0.01, "samples": 500} for pid in (4, 5)},
        "y_width": 12}
    moved = json.loads(json.dumps(rep))
    moved["public_block_quality"]["4"].update(ci_99=[0.925, 0.94],
                                              half_width=0.0075)

    def answer(report, **extra):
        text = json.dumps(report, indent=2)
        return {"request": "r", "exit": 0, "stderr": "", "stdout": [text],
                "report.json": text, "summary.csv": "x", **extra}

    spread = "public_block_quality.4.ci_99, public_block_quality.4.half_width"
    assert grid.differences(answer(rep), answer(moved)) == [
        f"stdout: 0.{spread.replace(', ', ', 0.')}", f"report.json: {spread}"]
    assert grid.differences(answer(rep), answer(rep)) == []
    assert grid.differences(answer(rep), answer(
        {**rep, "extra": {"a": 1}}, **{"summary.csv": "y"})) == [
        "stdout: 0.extra", "report.json: extra", "summary.csv"]
    assert grid.differences(answer(rep), answer(rep, stdout=[])) == [
        "stdout: 0"]
