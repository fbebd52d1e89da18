import os
import subprocess
import sys
from pathlib import Path
from types import CodeType, ModuleType

import pytest

import continuum
from continuum import bijection, binary_streams, cli, dyadic, errors, finite_sets
from continuum.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_holds_only_its_version_and_submodules():
    public = {
        name
        for name, value in vars(continuum).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set()
    assert isinstance(continuum.__version__, str)


@pytest.mark.parametrize("module", ["bijection", "binary_streams", "cli", "dyadic", "errors", "finite_sets"])
def test_each_module_imports_on_its_own(module):
    # A fresh interpreter imports nothing before it, so an import cycle shows here.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"import continuum.{module}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_no_dataclasses_inspect_json_or_typing():
    # sys.modules is compared before and after the import, so a module that site preloads
    # (some installs import typing at startup) cannot fail this.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import continuum.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "continuum.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "json", "typing"}), sorted(loaded)


# Each public name that no command reaches stays in src/ for a reason.
UNREACHED = {
    "binary_streams.enumerate_streams": "perfbench counts the raw streams it yields",
    "dyadic.index_of": "perfbench counts its calls",
    "cli.main": "the installed script's entry point, which cli.run stands in for here",
}
MODULES = (bijection, binary_streams, cli, dyadic, errors, finite_sets)


def _public_code(module: ModuleType) -> dict[str, CodeType]:
    """The code of each public function of ``module``, and of each public method
    and property of its public classes, by name below the package."""
    prefix, found = module.__name__.removeprefix("continuum."), {}
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for member, attribute in vars(value).items():
                # A property runs its getter; a cached_property, its wrapped function.
                function = getattr(attribute, "fget", None) or getattr(attribute, "func", None) or attribute
                if not member.startswith("_") and hasattr(function, "__code__"):
                    found[f"{prefix}.{name}.{member}"] = function.__code__
        elif hasattr(value, "__code__"):
            found[f"{prefix}.{name}"] = value.__code__
    return found


def test_src_holds_only_what_a_command_reaches():
    lines = [
        "coverings --exp a,b,c --base 0,1",
        "laws --check all --a 2 --b 2 --c 2",
        "expand 3/8",
        "classify 3/8",
        "stream value 01(10)",
        "stream canon 0(1)",
        "stream member 0(1)",
        "stream dual 1(0)",
        "map forward 1(0)",
        "map inverse 0(1)",
        "trace --mu-max 4",
        "trace --mu-max 4 --format json",
    ]
    reached = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: reached.add(frame.f_code) if event == "call" else None)
    try:
        for line in lines:
            assert run(line.split()).exit_code == 0, line
        # Acceptance criterion 3 reads each law's witness as labels.
        for law in finite_sets.LAW_IDS:
            witness = finite_sets.verify_exponent_law(law, 2, 1, 2)
            assert len(witness.pairs) == len(witness.left_set) == len(witness.right_set)
    finally:
        sys.setprofile(previous)
    public = {name: code for module in MODULES for name, code in _public_code(module).items()}
    unreached = {name for name, code in public.items() if code not in reached}
    assert unreached == set(UNREACHED)
