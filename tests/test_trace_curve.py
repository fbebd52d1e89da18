import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_curve.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_curve", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failing_child_prints_its_error_and_exits_1(tmp_path, capsys):
    # A source tree whose package fails on import: every child dies at once.
    package = tmp_path / "src" / "continuum"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("broken on purpose")\n')
    out = tmp_path / "curve.json"
    argv = ["--mu-min", "1", "--mu-max", "1", "--src", str(tmp_path / "src"), "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main(argv)
    assert exit_info.value.code == "mu=1: the child exited with status 1"
    assert "ImportError: broken on purpose" in capsys.readouterr().err
    assert not out.exists()
