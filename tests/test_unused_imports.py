"""Every name a module of the package imports is read somewhere in it.

No linter ships with the toolchain, so the check walks each module's syntax
tree: a name bound by an import must occur as a plain name or as the base
of an attribute access elsewhere in the module.
"""

import ast
from pathlib import Path

import pytest

import opcoupling

MODULES = sorted(Path(opcoupling.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_detects_an_unused_import():
    source = "import os\nfrom .numkernel import eye, zeros\nx = zeros(1)\n"
    assert unused_imports(source) == ["os", "eye"]


def test_attribute_base_counts_as_read():
    assert unused_imports("import numpy as np\nx = np.eye(2)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
