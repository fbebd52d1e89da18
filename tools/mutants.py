"""Deletion mutants of one module, each run against the module's tests.

    python3 tools/mutants.py src/continuum/bijection.py tests/test_bijection.py tests/test_cli.py

Run it from the directory that holds ``src/`` and ``tests/``; MODULE and
each TESTFILE are paths below it. Each mutant makes one deletion in
MODULE:

* a statement becomes ``pass`` (definitions, imports and docstrings are kept);
* an ``if`` test becomes ``True``, and also ``False`` when the ``if`` has an ``else``;
* one operand of an ``and`` or ``or`` is dropped;
* a conditional expression becomes one of its two arms.

Each worker, one per CPU, has its own copy of ``src/``, ``tests/``,
``perfbench/`` without its ``out/`` (a test loads its reference model) and
the files at the top of the tree (a test may read ``README.md``) in a
temporary directory and writes its mutants there, so the tree it is run
from is never written. A mutant is killed when
``pytest -x -q -p no:cacheprovider --hypothesis-seed=0 TESTFILE...`` fails
at the default limit on int to str, or runs past a time limit. The fixed
seed makes hypothesis draw the same examples for every mutant and every
run, so a score does not change from one run to the next. A mutant that
passes runs again with ``PYTHONINTMAXSTRDIGITS=0``, as CI does; only that
run finds a fault in code that the limit alone reaches. Each run has at
most 2 GiB of address space, so a mutant whose budget check is gone fails
rather than fills the machine.

Prints one JSON line per surviving mutant (``module``, ``line``,
``mutation``), then one summary line starting with ``#``. Exits 1 when
the unmutated module fails its tests, since then no mutant means anything.
"""

from __future__ import annotations

import ast
import concurrent.futures
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ADDRESS_SPACE = 2 << 30  # bytes per test run
# Definitions and imports are kept: a test that uses one fails at once
# without it. ``pass`` has nothing to delete.
_KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)
# Sets the address-space limit, then becomes pytest; the limit survives exec.
_LIMITED = (
    "import os, resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), resource.RLIM_INFINITY))\n"
    "os.execv(sys.executable, [sys.executable, '-m', 'pytest', *sys.argv[2:]])\n"
)


def _quote(source: str, node: ast.AST) -> str:
    text = " ".join(ast.get_source_segment(source, node).split())
    return text if len(text) <= 60 else text[:57] + "..."


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def mutations(source: str) -> list[tuple[int, str, object, int, str]]:
    """Each mutant as (node index in ``ast.walk`` order, kind, argument, line, description)."""
    found = []
    for index, node in enumerate(ast.walk(ast.parse(source))):
        if isinstance(node, ast.stmt) and not isinstance(node, _KEPT) and not _is_docstring(node):
            first = ast.get_source_segment(source, node).splitlines()[0].strip()
            found.append((index, "statement", None, node.lineno, f"delete `{first}`"))
        if isinstance(node, ast.If):
            test = _quote(source, node.test)
            found.append((index, "test", True, node.lineno, f"if test `{test}` -> True"))
            if node.orelse:
                found.append((index, "test", False, node.lineno, f"if test `{test}` -> False"))
        elif isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            for position, operand in enumerate(node.values):
                found.append((index, "operand", position, operand.lineno, f"drop `{_quote(source, operand)}` from `{word}`"))
        elif isinstance(node, ast.IfExp):
            for arm in ("body", "orelse"):
                found.append((index, "arm", arm, node.lineno, f"`{_quote(source, node)}` -> `{_quote(source, getattr(node, arm))}`"))
    return found


def _replace(tree: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
                return
            for position, item in enumerate(value if isinstance(value, list) else ()):
                if item is old:
                    value[position] = new
                    return
    raise ValueError("node not found")


def mutant(source: str, index: int, kind: str, argument: object) -> str:
    """The source of ``source`` with one mutation, as listed by :func:`mutations`."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    if kind == "statement":
        _replace(tree, node, ast.copy_location(ast.Pass(), node))
    elif kind == "test":
        node.test = ast.copy_location(ast.Constant(argument), node.test)
    elif kind == "operand":
        del node.values[argument]
        if len(node.values) == 1:
            _replace(tree, node, node.values[0])
    else:
        _replace(tree, node, getattr(node, argument))
    return ast.unparse(ast.fix_missing_locations(tree))


def _run(copy: str, tests: list[str], digit_limit: str | None, timeout: float) -> bool:
    """Whether the tests in ``copy`` pass within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if digit_limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = digit_limit
    shutil.rmtree(os.path.join(copy, ".hypothesis"), ignore_errors=True)
    argv = [sys.executable, "-c", _LIMITED, str(ADDRESS_SPACE), "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    child = subprocess.Popen(
        argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return child.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return False


def _copy_tree(root: str) -> str:
    copy = tempfile.mkdtemp(prefix="mutants-")
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for part in ("src", "tests", "perfbench"):
        if os.path.isdir(os.path.join(root, part)):
            shutil.copytree(os.path.join(root, part), os.path.join(copy, part), ignore=ignore)
    for entry in os.scandir(root):
        if entry.is_file():
            shutil.copy(entry.path, copy)
    return copy


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    # Relative to the tree that is copied, so that no path leads back into it.
    module, *tests = (os.path.relpath(path) for path in argv)
    if any(path.startswith("..") for path in (module, *tests)):
        print("# MODULE and TESTFILE must lie below the current directory", file=sys.stderr)
        return 1
    with open(module, encoding="utf-8") as handle:
        source = handle.read()
    listed = mutations(source)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    copies = [_copy_tree(os.getcwd()) for _ in range(workers)]
    free: queue.Queue[str] = queue.Queue()
    for copy in copies:
        free.put(copy)

    def passes(text: str, timeout: float) -> bool:
        copy = free.get()
        try:
            with open(os.path.join(copy, module), "w", encoding="utf-8") as handle:
                handle.write(text)
            # The second run only for a mutant that the first lets through.
            return _run(copy, tests, None, timeout) and _run(copy, tests, "0", timeout)
        finally:
            free.put(copy)

    try:
        start = time.monotonic()
        # The unmutated module, written the way each mutant is, must pass;
        # the time it takes sets the limit for every mutant.
        if not passes(ast.unparse(ast.parse(source)), 3600):
            print(f"# the unmutated {module} fails {' '.join(tests)}", file=sys.stderr)
            return 1
        timeout = 60 + 4 * (time.monotonic() - start)
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            verdicts = list(pool.map(lambda m: passes(mutant(source, *m[:3]), timeout), listed))
    finally:
        for copy in copies:
            shutil.rmtree(copy, ignore_errors=True)
    survivors = sorted((m for m, survived in zip(listed, verdicts) if survived), key=lambda m: m[3])
    for _, _, _, line, description in survivors:
        print(json.dumps({"module": module, "line": line, "mutation": description}))
    seconds = time.monotonic() - start
    print(f"# {module}: {len(listed)} mutants, {len(survivors)} survived, in {seconds:.0f} s on {workers} workers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
