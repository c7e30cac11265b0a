"""Every dense SVD of the package is taken in ``numkernel``, so each
factorization can be counted there and a LAPACK failure always becomes a
:class:`~opcoupling.errors.NumericalError`.

The check walks the syntax trees: a call whose function is an attribute
``svd`` of an attribute ``linalg`` (``np.linalg.svd(...)``) may occur only in
``numkernel.py``.
"""

import ast
from pathlib import Path

import opcoupling

MODULES = sorted(Path(opcoupling.__file__).parent.glob("*.py"))


def linalg_svd_calls(source: str) -> list[int]:
    """Line numbers of the ``linalg.svd(...)`` calls in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "svd"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"]


def test_detects_a_linalg_svd_call():
    source = "import numpy as np\ns = np.linalg.svd(a)\nt = svd(a)\nn = np.linalg.norm(a)\n"
    assert linalg_svd_calls(source) == [2]


def test_only_numkernel_calls_linalg_svd():
    offenders = {path.name: lines for path in MODULES if path.name != "numkernel.py"
                 if (lines := linalg_svd_calls(path.read_text(encoding="utf-8")))}
    assert offenders == {}
