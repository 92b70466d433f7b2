import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probe_prints_one_json_line_per_request():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "mem_probe.py"),
                          "ip4"], capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert list(line) == ["request", "peak_rss_mb", "wall_s", "error",
                          "witness"]
    assert line["request"] == "ip4" and line["error"] == "1/2"
    assert line["peak_rss_mb"] > 0 and line["wall_s"] >= 0
    assert sorted(map(len, line["witness"]["supports"])) == [4, 4]


def test_probe_refuses_an_unknown_request():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "mem_probe.py"),
                          "no-such-request"], capture_output=True, text=True)
    assert out.returncode == 2 and "no-such-request" in out.stderr
