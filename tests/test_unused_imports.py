"""Every name a module of the package imports is read somewhere in it,
every private module-level function or class is used somewhere in the
package, and every public one somewhere in the package, the benchmark
scripts or the acceptance tests.

No linter ships with the toolchain, so the checks walk the syntax trees: a
name bound by an import must occur as a plain name or as the base of an
attribute access elsewhere in the module, and the name of a top-level
``def`` or ``class`` must occur as a plain name or an attribute besides its
own definition.  A decorated public ``def`` is exempt, since its decorator
may register it (a click command is reached through its group).
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


def _names_read(trees) -> set[str]:
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _top_level_definitions(trees):
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node


def unreferenced_private(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    used = _names_read(trees)
    return [node.name for node in _top_level_definitions(trees)
            if node.name.startswith("_") and node.name not in used]


def unreferenced_public(sources: list[str], readers: list[str]) -> list[str]:
    """Public top-level definitions of ``sources`` that neither they nor
    ``readers`` refer to; decorated functions are exempt."""
    trees = [ast.parse(source) for source in sources]
    used = _names_read(trees + [ast.parse(source) for source in readers])
    return [node.name for node in _top_level_definitions(trees)
            if not node.name.startswith("_") and node.name not in used
            and (isinstance(node, ast.ClassDef) or not node.decorator_list)]


def test_detects_an_unreferenced_private_definition():
    sources = ["def _dead():\n    pass\n\ndef _live():\n    pass\n",
               "from . import a\nx = a._live()\n"]
    assert unreferenced_private(sources) == ["_dead"]


def test_package_uses_every_private_definition():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unreferenced_private(sources) == []


def test_detects_an_unreferenced_public_definition():
    sources = ["def dead():\n    pass\n\ndef live():\n    pass\n\n"
               "@group.command()\ndef registered():\n    pass\n\n"
               "@dataclass\nclass Unused:\n    x: int\n"]
    readers = ["from pkg.a import live\nlive()\n"]
    assert unreferenced_public(sources, readers) == ["dead", "Unused"]


def test_package_uses_every_public_definition():
    root = Path(opcoupling.__file__).resolve().parents[2]
    readers = sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unreferenced_public(sources, [p.read_text(encoding="utf-8") for p in readers]) == []
