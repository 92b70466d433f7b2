import shutil
import subprocess
import sys
from pathlib import Path

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
    # exact distances
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
    assert out.stdout.splitlines() == [
        "2 requests, 2 mismatches", "mismatch: exact-geqr-n2-s3-none",
        "mismatch: exact-geqr-n2-s3-ir"]
