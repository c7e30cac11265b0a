"""Every name a module of the package imports is read somewhere in it,
every private module-level function or class is used somewhere in the
package, and every public one, and every public method and property of a
top-level class, somewhere in the package, the benchmark scripts or the
acceptance tests.  Every field of a dataclass of the package is read
somewhere in the package, the benchmark scripts, the tools or the tests.

No linter ships with the toolchain, so the checks walk the syntax trees: a
name bound by an import must occur as a plain name or as the base of an
attribute access elsewhere in the module, and the name of a top-level
``def`` or ``class``, or of a ``def`` in a class body or a class attribute
bound to ``property(...)`` or ``cached_property(...)``, must be read as a
plain name or an attribute besides its own definition.  A decorated public
top-level ``def`` is exempt, since its decorator may register it (a click
command is reached through its group).  A field counts as read when its name
is loaded as an attribute or given to ``getattr`` as a string; storing it,
constructing with it by keyword or reading it reflectively does not count.
Fields are matched by name alone, so a read of another class's field of the
same name masks a field nothing reads (``ShiftComparabilityReport.alpha``
was masked by ``BesovEstimate.alpha`` this way).

Values are plain data: no module of the package reads an instance's
``__dict__`` (as an attribute or through ``vars``) or uses
``cached_property``, and ``object.__setattr__`` appears only inside a
``__post_init__``, where a frozen dataclass normalizes its own fields.  A
module-level ``functools.cache`` is allowed.
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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _public_members(trees):
    """``Class.name`` of each public method and property of the top-level
    classes of ``trees``."""
    for cls in _top_level_definitions(trees):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) in ("property", "cached_property")):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                names = []
            yield from (f"{cls.name}.{name}" for name in names if not name.startswith("_"))


def unreferenced_public_members(sources: list[str], readers: list[str]) -> list[str]:
    """Public methods and properties of the classes of ``sources`` that
    neither they nor ``readers`` read."""
    trees = [ast.parse(source) for source in sources]
    used = _names_read(trees + [ast.parse(source) for source in readers])
    return [member for member in _public_members(trees)
            if member.partition(".")[2] not in used]


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


def _package_and_readers() -> tuple[list[str], list[str]]:
    """The package's sources, and those of the benchmark scripts and the
    acceptance tests."""
    root = Path(opcoupling.__file__).resolve().parents[2]
    readers = sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    return ([path.read_text(encoding="utf-8") for path in MODULES],
            [path.read_text(encoding="utf-8") for path in readers])


def test_package_uses_every_public_definition():
    assert unreferenced_public(*_package_and_readers()) == []


def test_detects_an_unreferenced_public_member():
    sources = ["class A:\n    def dead(self):\n        pass\n\n"
               "    def live(self):\n        pass\n\n"
               "    @property\n    def gone(self):\n        return 1\n\n"
               "    idle = property(lambda self: 1)\n"
               "    used = cached_property(lambda self: 2)\n\n"
               "    def _own(self):\n        return self.used\n"]
    readers = ["a.live()\n"]
    assert unreferenced_public_members(sources, readers) == ["A.dead", "A.gone", "A.idle"]


def test_package_reads_every_public_member():
    assert unreferenced_public_members(*_package_and_readers()) == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields(trees):
    """``Class.field`` of each annotated field of the top-level dataclasses
    of ``trees``."""
    for cls in _top_level_definitions(trees):
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
            yield from (f"{cls.name}.{node.target.id}" for node in cls.body
                        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))


def _fields_read(trees) -> set[str]:
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def write_only_fields(sources: list[str], readers: list[str]) -> list[str]:
    """Dataclass fields of ``sources`` that neither they nor ``readers`` read."""
    trees = [ast.parse(source) for source in sources]
    read = _fields_read(trees + [ast.parse(source) for source in readers])
    return [field for field in _dataclass_fields(trees)
            if field.partition(".")[2] not in read]


def test_detects_a_write_only_field():
    sources = ["@dataclass(frozen=True)\nclass R:\n    kept: int\n    named: int\n"
               "    dropped: int\n\n"
               "@dataclasses.dataclass\nclass S:\n    written: int\n\n"
               "class Plain:\n    ignored: int\n\n"
               "def make():\n    return R(kept=1, named=2, dropped=3), S(written=4)\n"]
    readers = ["x = r.kept\ny = getattr(r, 'named')\nr.dropped = 5\n"]
    assert write_only_fields(sources, readers) == ["R.dropped", "S.written"]


def test_package_reads_every_dataclass_field():
    root = Path(opcoupling.__file__).resolve().parents[2]
    readers = [path for folder in ("perfbench", "tools", "tests")
               for path in sorted((root / folder).glob("*.py"))]
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert write_only_fields(sources, [path.read_text(encoding="utf-8")
                                       for path in readers]) == []


def stored_state(source: str) -> list[str]:
    """``line: what`` for each place ``source`` stores or reads state on a
    value beside its fields: an instance ``__dict__``, ``vars(...)``,
    ``cached_property``, or ``object.__setattr__`` outside ``__post_init__``."""
    tree = ast.parse(source)
    in_post_init = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                    for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, ast.Attribute) and name == "__dict__":
            found.append((node.lineno, "__dict__"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
            found.append((node.lineno, "vars"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and name == "cached_property":
            found.append((node.lineno, "cached_property"))
        elif (isinstance(node, ast.Attribute) and name == "__setattr__"
              and getattr(node.value, "id", None) == "object" and id(node) not in in_post_init):
            found.append((node.lineno, "object.__setattr__"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_detects_stored_state():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n\n"
              "    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n\n"
              "    @cached_property\n    def y(self):\n        return 2\n\n"
              "    @functools.cached_property\n    def z(self):\n        return 3\n\n"
              "    def memo(self):\n        self.__dict__.setdefault('m', 4)\n"
              "        object.__setattr__(self, 'x', 5)\n        return vars(self)\n\n"
              "@functools.cache\ndef shared():\n    return 6\n")
    assert stored_state(source) == ["8: cached_property", "12: cached_property",
                                    "17: __dict__", "18: object.__setattr__", "19: vars"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_values_plain(path):
    assert stored_state(path.read_text(encoding="utf-8")) == []
