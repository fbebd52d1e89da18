import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import continuum

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
