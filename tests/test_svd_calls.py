"""Every dense SVD and Cholesky factorization of the package is taken in
``numkernel``, so each factorization can be counted there and a LAPACK
failure is handled in one place.

The check walks the syntax trees: a call whose function is an attribute
``svd`` or ``cholesky`` of an attribute ``linalg`` (``np.linalg.svd(...)``)
may occur only in ``numkernel.py``.
"""

import ast
from pathlib import Path

import opcoupling

MODULES = sorted(Path(opcoupling.__file__).parent.glob("*.py"))


def linalg_calls(source: str, name: str) -> list[int]:
    """Line numbers of the ``linalg.<name>(...)`` calls in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == name
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"]


def test_detects_a_linalg_svd_call():
    source = "import numpy as np\ns = np.linalg.svd(a)\nt = svd(a)\nn = np.linalg.norm(a)\n"
    assert linalg_calls(source, "svd") == [2]


def test_detects_a_linalg_cholesky_call():
    source = "import numpy as np\nc = cholesky(a)\nr = np.linalg.cholesky(a)\n"
    assert linalg_calls(source, "cholesky") == [3]


def offenders(name: str) -> dict[str, list[int]]:
    """Modules other than ``numkernel`` that call ``linalg.<name>``, with
    the line numbers of the calls."""
    return {path.name: lines for path in MODULES if path.name != "numkernel.py"
            if (lines := linalg_calls(path.read_text(encoding="utf-8"), name))}


def test_only_numkernel_calls_linalg_svd():
    assert offenders("svd") == {}


def test_only_numkernel_calls_linalg_cholesky():
    assert offenders("cholesky") == {}
