import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"

# Every mutant of ``describe`` but one fails these tests: none of them asks
# about -1, so dropping ``x != -1`` from the ``and`` goes unnoticed. The
# ``@given`` test draws only from x >= 0, under the tool's fixed seed.
MODULE = '''\
def describe(x):
    if x < 0 and x != -1:
        return "negative"
    return "odd" if x % 2 else "even"
'''
TESTS = '''\
from hypothesis import given, strategies as st

from describe import describe


def test_describe():
    assert describe(-3) == "negative"
    assert describe(4) == "even"
    assert describe(3) == "odd"


@given(st.integers(min_value=0))
def test_describe_parity(x):
    assert describe(x) == ("odd" if x % 2 else "even")
'''


def _snapshot(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_mutants_reports_the_one_survivor_and_writes_nothing(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "describe.py").write_text(MODULE)
    (tmp_path / "tests" / "test_describe.py").write_text(TESTS)
    before = _snapshot(tmp_path)
    done = subprocess.run(
        [sys.executable, str(TOOL), "src/describe.py", "tests/test_describe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *survivors, summary = done.stdout.splitlines()
    assert [json.loads(line) for line in survivors] == [
        {"module": "src/describe.py", "line": 2, "mutation": "drop `x != -1` from `and`"}
    ]
    assert summary.startswith("# src/describe.py: 8 mutants, 1 survived, in ")
    assert _snapshot(tmp_path) == before
