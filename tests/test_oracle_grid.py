import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = str(ROOT / "tools" / "oracle_grid.py")


def _grid(old_src, new_src):
    return subprocess.run([sys.executable, GRID, str(old_src), str(new_src)],
                          capture_output=True, text=True)


def test_oracle_grid_agrees_with_itself():
    out = _grid(ROOT / "src", ROOT / "src")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith(" requests, 0 mismatches")
    assert int(lines[0].split()[0]) > 2000


def test_oracle_grid_names_a_tie_break_toward_the_higher_index(tmp_path):
    # a copy whose top-K rows break ties toward the higher index keeps
    # every error and moves witnesses: every mismatch names witness paths
    # alone, the first requests, on ip(2), the one that differs there
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    oracle_py = changed / "extractomat" / "oracle.py"
    text = oracle_py.read_text()
    line = '    return sorted(np.argsort(-score, kind="stable")[:K].tolist())\n'
    assert text.count(line) == 1
    oracle_py.write_text(text.replace(line, (
        "    top = np.argsort(-score[::-1], kind='stable')[:K]\n"
        "    return sorted((len(score) - 1 - top).tolist())\n")))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert all(line.startswith("  report.witness.") for line in lines[2::2])
    assert lines[1:7] == [
        "mismatch: 2source ('ip', 2): 0, 0, None",
        "  report.witness.supports",
        "mismatch: 2source ('ip', 2): 0, 0, 0",
        "  report.witness.supports",
        "mismatch: 2source ('ip', 2): 0, 0, 1",
        "  report.witness.supports"]


def test_oracle_grid_compares_refusals_by_type_and_message(tmp_path):
    # a copy that words a budget refusal otherwise is named on the refused
    # requests alone, by the message
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    errors_py = changed / "extractomat" / "errors.py"
    text = errors_py.read_text()
    assert text.count(" steps, budget is ") == 1
    errors_py.write_text(text.replace(" steps, budget is ", " steps > "))
    out = _grid(ROOT / "src", changed)
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].endswith(" requests, 6 mismatches")
    assert lines[2::2] == ["  message"] * 6
