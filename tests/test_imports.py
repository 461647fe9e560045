"""Every name a library module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
A name counts as used when a ``Name`` node of the module reads it, which
covers attribute bases (``np`` in ``np.zeros``) and annotations.
"""
import ast
from pathlib import Path

import pytest

import deconv

MODULES = sorted(p for p in Path(deconv.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import Iterable, Mapping\nx: Mapping = os\n")
    assert unused_imports(source) == ["Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
