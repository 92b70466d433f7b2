import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = str(ROOT / "tools" / "gadget_grid.py")


def _grid(old_src, new_src):
    return subprocess.run([sys.executable, GRID, str(old_src), str(new_src)],
                          capture_output=True, text=True)


def test_gadget_grid_agrees_with_itself():
    out = _grid(ROOT / "src", ROOT / "src")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["35 searches, 0 mismatches"]


def test_gadget_grid_names_a_search_that_reads_its_steps_otherwise(tmp_path):
    # a copy whose annealing step takes i and j swapped walks elsewhere:
    # the benchmark's AND-disperser search is named, with what differs
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    graphs_py = changed / "extractomat" / "graphs.py"
    text = graphs_py.read_text()
    line = "            u, i, j = step()\n"
    assert text.count(line) == 1
    graphs_py.write_text(text.replace(line, "            u, j, i = step()\n"))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("35 searches, ") and lines[0] != \
        "35 searches, 0 mismatches"
    assert lines[1].startswith(
        "mismatch: and-disperser(l=12,r=8,d=2,delta=0.5,gamma=0.125) seed 4: ")
    assert len(lines) == 1 + int(lines[0].split()[2])
