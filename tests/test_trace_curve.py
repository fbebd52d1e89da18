import importlib.util
import json
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
    argv = ["--mu-min", "1", "--mu-max", "1", "--tree", f"broken={tmp_path / 'src'}", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main(argv)
    assert exit_info.value.code == "mu=1: the child exited with status 1"
    assert "ImportError: broken on purpose" in capsys.readouterr().err
    assert not out.exists()


def test_trees_take_turns_and_the_first_tree_changes_from_turn_to_turn(tmp_path, monkeypatch):
    tool, calls = load_tool(), []

    def measure(mu, src):
        calls.append((mu, src.name))
        return {"B": mu, "verdict": "pass", "seconds": float(len(calls)), "cpu_seconds": 20.0 - len(calls), "peak_rss_mb": 1.0}

    monkeypatch.setattr(tool, "measure", measure)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    out = tmp_path / "curve.json"
    argv = ["--mu-min", "1", "--mu-max", "2", "--tree", f"A={tmp_path / 'a'}", "--tree", f"B={tmp_path / 'b'}", "--out", str(out)]
    assert tool.main(argv) == 0
    assert [name for _, name in calls] == ["a", "b", "b", "a", "a", "b", "b", "a", "a", "b", "b", "a"]
    assert [mu for mu, _ in calls] == [1] * 6 + [2] * 6
    rows = json.loads(out.read_text())["curve"]
    # The least wall and the least CPU time of each tree's three runs go to its own column, each on its own.
    assert [(row["A"]["seconds"], row["B"]["seconds"]) for row in rows] == [(1.0, 2.0), (8.0, 7.0)]
    assert [(row["A"]["cpu_seconds"], row["B"]["cpu_seconds"]) for row in rows] == [(15.0, 14.0), (8.0, 9.0)]
    # No least wall time here is more than 5% over its least CPU time, so no column is marked contended.
    assert not any("contended" in row[label] for row in rows for label in "AB")


@pytest.mark.parametrize("trees", [["noequals"], ["=dir"], ["x="], ["x=a", "x=b"]])
def test_a_tree_without_its_own_label_and_dir_is_a_usage_error(tmp_path, trees):
    argv = [arg for text in trees for arg in ("--tree", text)] + ["--out", str(tmp_path / "curve.json")]
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main(argv)
    assert exit_info.value.code == 2


def test_a_column_whose_wall_time_is_over_5_percent_past_its_cpu_time_is_marked_contended(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    # Each tree's least wall and least CPU time, over its three runs: A exactly 5% apart, B just past it.
    times = {"a": (1.05, 1.0), "b": (1.06, 1.0)}

    def measure(mu, src):
        seconds, cpu_seconds = times[src.name]
        return {"B": mu, "verdict": "pass", "seconds": seconds, "cpu_seconds": cpu_seconds, "peak_rss_mb": 1.0}

    monkeypatch.setattr(tool, "measure", measure)
    for name in times:
        (tmp_path / name).mkdir()
    out = tmp_path / "curve.json"
    # A column marked in an earlier recording is measured afresh.
    out.write_text(json.dumps({"curve": [{"mu": 1, "B": 1, "A": {"seconds": 9.0, "cpu_seconds": 1.0, "contended": True}}]}))
    argv = ["--mu-min", "1", "--mu-max", "1", "--tree", f"A={tmp_path / 'a'}", "--tree", f"B={tmp_path / 'b'}", "--out", str(out)]
    assert tool.main(argv) == 0
    (row,) = json.loads(out.read_text())["curve"]
    assert "contended" not in row["A"] and row["B"]["contended"] is True
    notes = [line for line in capsys.readouterr().out.splitlines() if "contended" in line]
    assert len(notes) == 1 and notes[0].startswith("mu=1 B: wall time 1.06 s is more than 5% over CPU time 1.0 s")
