import ast
from pathlib import Path
from types import ModuleType

import continuum


def test_all_lists_each_imported_public_name_once():
    source = Path(continuum.__file__).read_text(encoding="utf-8")
    imported = {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        name
        for name in imported
        if not name.startswith("_") and not isinstance(getattr(continuum, name), ModuleType)
    }
    assert len(continuum.__all__) == len(set(continuum.__all__))
    assert set(continuum.__all__) == public
