import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


@pytest.mark.parametrize("name", ["gadget_grid", "ledger_grid",
                                  "netsim_grid", "oracle_grid"])
def test_a_grid_tool_loads_by_path_from_outside_the_repo(name, tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # with neither tools/ on sys.path nor the repo as working directory,
    # a tool loaded from its file finds its shared scaffold, and its
    # command line refuses a request without both trees
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", [p for p in sys.path
                                      if Path(p or ".").resolve() != TOOLS])
    monkeypatch.delitem(sys.modules, "tree_grid", raising=False)
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert Path(tool.tree_grid.__file__) == TOOLS / "tree_grid.py"
    with pytest.raises(SystemExit) as exc:
        tool.main([str(ROOT / "src")])
    assert exc.value.code == 2
    assert "give the old and the new src directory" in capsys.readouterr().err
    if name == "ledger_grid":  # the answers of both trees, run from here
        counts = tool.compare(str(ROOT / "src"), str(ROOT / "src"), 1)
        assert sum(counts.values()) == 14 and not counts["mismatch"]
