"""JSON encodings for matrices, symbols, witnesses and reports.

Matrices are encoded as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
with the data row-major and each complex entry a two-element array.  Python
floats round-trip through ``json`` exactly (shortest-repr encoding), so
serialization is lossless bit for bit.  Witness files carry a ``kind`` tag,
their matrices by role name, dimension metadata and the tool version; the
table ``_KINDS`` describes each kind's schema, and both directions read it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

import numpy as np

from . import __version__
from .blockops import Block2x2
from .errors import ShapeError
from .hankel import SymbolFC
from .relations import (
    EAESpecialWitness,
    EAEWitness,
    EAOEWitness,
    MCWitness,
    SCWitness,
)


def _pairs(z) -> list:
    """``[[re, im], ...]`` of the entries of ``z`` in row-major order."""
    z = np.ascontiguousarray(z, dtype=np.complex128).reshape(-1)
    return z.view(np.float64).reshape(-1, 2).tolist()


def encode_matrix(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _pairs(a)}


def decode_matrix(obj: dict) -> np.ndarray:
    """Inverse of :func:`encode_matrix`.

    Raises
    ------
    ShapeError
        Unless ``obj`` holds non-negative integer ``rows`` and ``cols`` and
        exactly ``rows * cols`` pairs of finite numbers.
    """
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= obj.keys():
        raise ShapeError("a matrix needs the keys 'rows', 'cols' and 'data'")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ShapeError(f"matrix size {rows!r}x{cols!r} is not two counts")
    if not isinstance(data, (list, tuple)):
        raise ShapeError("matrix data is not a list")
    if len(data) != rows * cols:
        raise ShapeError(f"matrix data length {len(data)} != rows*cols {rows * cols}")
    if data and not (all(issubclass(t, (list, tuple)) for t in set(map(type, data)))
                     and set(map(len, data)) == {2}):
        raise ShapeError("matrix data entries must be [re, im] pairs")
    flat = list(chain.from_iterable(data))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, flat))):
        raise ShapeError("matrix data holds a value that is not a number")
    try:
        parts = np.array(flat, dtype=np.float64)
    except OverflowError as exc:
        raise ShapeError(f"matrix data holds a number out of range: {exc}") from None
    if not np.all(np.isfinite(parts)):
        raise ShapeError("matrix data holds a non-finite number")
    return parts.view(np.complex128).reshape(rows, cols)


def encode_symbol(f: SymbolFC) -> dict:
    return {"offset": int(f.offset), "coeffs": _pairs(f.coeffs)}


# ---------------------------------------------------------------------------
# witnesses


def _file_header(kind: str) -> dict:
    return {"kind": kind, "tool": "opcoupling", "version": __version__}


# The one description of the witness file kinds: for each, its class, the
# matrices a file needs and those it may hold, the dims entries written and
# those read back (other sizes come from the matrices).  A name is the
# witness attribute of that name, except SC's A-D, which are the blocks of M.
_Kind = namedtuple("_Kind", "cls needs may writes reads")
_KINDS = {
    "sc": _Kind(SCWitness, ("A", "B", "C", "D", "U", "V"), (), ("n", "m"), ()),
    "mc": _Kind(MCWitness, ("Uhat", "UhatInv", "U", "V"), (), ("n", "m"), ("n", "m")),
    "eae": _Kind(EAEWitness, ("U", "V", "E", "F"), (),
                 ("x0_dim", "y0_dim"), ("x0_dim", "y0_dim")),
    "eae_special": _Kind(EAESpecialWitness, ("U", "V", "E", "F", "Einv", "Finv"), (),
                         ("n", "m"), ()),
    "eaoe": _Kind(EAOEWitness, ("E", "F", "U", "V"), ("Einv", "Finv"),
                  ("ext_dim",), ("ext_dim",)),
}
WITNESS_KINDS = tuple(_KINDS)
_SC_BLOCKS = {"A": "a11", "B": "a12", "C": "a21", "D": "a22"}


def encode_witness(w) -> dict:
    """Encode any witness type by the schema of its kind in ``_KINDS``."""
    kind = next((k for k, spec in _KINDS.items() if isinstance(w, spec.cls)), None)
    if kind is None:
        raise ShapeError(f"cannot encode object of type {type(w).__name__}")
    spec, out = _KINDS[kind], _file_header(kind)
    held = {name: getattr(w.M, _SC_BLOCKS[name]) if name in _SC_BLOCKS else getattr(w, name)
            for name in spec.needs + spec.may}
    out["matrices"] = {name: encode_matrix(a) for name, a in held.items() if a is not None}
    out["dims"] = {key: getattr(w, key) for key in spec.writes}
    if kind == "eaoe":
        out["extended_side"] = w.extended_side
    return out


def _dim(obj: dict, key: str) -> int:
    """The ``dims`` entry ``key`` of a witness file, a non-negative integer.

    Raises
    ------
    ShapeError
        If ``dims`` or the entry is missing or the entry is not a count.
    """
    dims = obj.get("dims")
    value = dims.get(key) if isinstance(dims, dict) else None
    if type(value) is not int or value < 0:
        raise ShapeError(f"witness dims entry {key!r} is {value!r}, not a count")
    return value


def decode_witness(obj: dict):
    """Inverse of :func:`encode_witness`; entries outside the kind's schema
    in ``_KINDS`` are ignored."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ShapeError(f"unknown witness kind {kind!r}")
    spec, encoded = _KINDS[kind], obj.get("matrices")
    if not isinstance(encoded, dict):
        raise ShapeError(f"witness matrices is {type(encoded).__name__}, "
                         "not a JSON object")
    for name in spec.needs:
        if name not in encoded:
            raise ShapeError(f"{kind} witness file lacks the matrix {name!r}")
    if kind == "eaoe" and "extended_side" not in obj:
        raise ShapeError("eaoe witness file lacks the entry 'extended_side'")
    args = {}
    for name in [name for name in spec.needs + spec.may if name in encoded]:
        try:
            args[name] = decode_matrix(encoded[name])
        except ShapeError as exc:
            raise ShapeError(f"{kind} witness file, matrix {name!r}: {exc}") from None
    args.update((key, _dim(obj, key)) for key in spec.reads)
    if kind == "sc":
        args["M"] = Block2x2(*(args.pop(name) for name in _SC_BLOCKS))
    if kind == "eaoe":
        args["extended_side"] = obj["extended_side"]
    return spec.cls(**args)


def encode_instance(U: np.ndarray, V: np.ndarray, meta: dict | None = None) -> dict:
    out = _file_header("instance")
    out["matrices"] = {"U": encode_matrix(U), "V": encode_matrix(V)}
    if meta:
        out["meta"] = meta
    return out


def decode_instance(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    if obj.get("kind") != "instance":
        raise ShapeError(f"expected an instance file, got kind {obj.get('kind')!r}")
    mats = obj.get("matrices")
    if not isinstance(mats, dict) or not {"U", "V"} <= mats.keys():
        raise ShapeError("an instance file needs the matrices 'U' and 'V'")
    u, v = decode_matrix(mats["U"]), decode_matrix(mats["V"])
    if u.shape[0] != u.shape[1] or v.shape[0] != v.shape[1]:
        raise ShapeError(f"U and V must be square, got {u.shape} and {v.shape}")
    return u, v


# ---------------------------------------------------------------------------
# reports


def _stage_to_dict(name: str, report) -> dict:
    """One stage of a pipeline report: its table, the entries of it that are
    certified bounds, and its extras."""
    return {"name": name, "residuals": dict(report.residuals),
            "certified": list(report.certified), "data": dict(report.extras)}


def pipeline_report_to_dict(report) -> dict:
    """The report of a run that passed, or of one that failed: the stages
    that finished and the one that failed, with its table if it had one."""
    out = _file_header("pipeline_report")
    out["tol"] = report.tol
    out["success"] = report.success
    out["dims"] = {"n": int(report.U.shape[0]), "m": int(report.V.shape[0])}
    out["max_residual"] = report.max_residual
    out["stages"] = [_stage_to_dict(name, s) for name, s in report.stages.items()]
    if not report.success:
        out["failed_stage"] = {**_stage_to_dict(report.failed_stage, report.failure),
                               "error": report.error}
        return out
    out["extension_dims"] = {"x0_dim": report.x0_dim, "y0_dim": report.y0_dim}
    fred = report.fredholm
    out["indices"] = {
        "f11": fred.f11.index, "f22": fred.f22.index,
        "e11": fred.e11.index, "ehat11": fred.ehat11.index,
        "dim_h2": fred.dim_h2, "dim_g1": fred.dim_g1,
        "dim_ker_f22": fred.dim_ker_f22, "dim_ker_e11": fred.dim_ker_e11,
    }
    out["eaoe"] = {"extended_side": report.eaoe.extended_side,
                   "ext_dim": report.eaoe.ext_dim}
    return out


def verifier_report_to_dict(report) -> dict:
    out = _file_header("verifier_report")
    out["verifier"] = report.kind
    out["tol"] = report.tol
    out["passed"] = report.passed
    out["max_residual"] = report.max_residual
    out["residuals"] = dict(report.residuals)
    out["certified"] = list(report.certified)
    out["failures"] = sorted(
        label for label, value in report.residuals.items() if value > report.tol
    )
    out["extras"] = dict(report.extras)
    return out


_scalar = json.JSONEncoder().encode


def dumps_canonical(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline at end.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=1,
    separators=(",", ": ")) + "\n"``.  ``json`` encodes any ``indent`` in
    pure Python, one generator step per value; this writer keeps the layout
    but renders a list of ``[re, im]`` pairs of finite floats (matrix data)
    by joining ``repr`` over all its floats at once.  Every other scalar
    goes through the C encoder of ``json``, so escaping and the
    ``NaN``/``Infinity`` spellings are its own.
    """
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write(value, level: int, out: list) -> None:
    if isinstance(value, dict):
        _write_dict(value, level, out)
    elif isinstance(value, (list, tuple)):
        _write_list(value, level, out)
    else:
        out.append(_scalar(value))


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_dict(dct: dict, level: int, out: list) -> None:
    if not dct:
        out.append("{}")
        return
    indent = "\n" + " " * (level + 1)
    sep = "{" + indent
    for key, value in sorted(dct.items()):
        out.append(sep + _quote(_key(key)) + ": ")
        _write(value, level + 1, out)
        sep = "," + indent
    out.append("\n" + " " * level + "}")


def _write_list(lst, level: int, out: list) -> None:
    if not lst:
        out.append("[]")
        return
    text = _float_pairs(lst, level)
    if text is not None:
        out.append(text)
        return
    indent = "\n" + " " * (level + 1)
    sep = "[" + indent
    for value in lst:
        out.append(sep)
        _write(value, level + 1, out)
        sep = "," + indent
    out.append("\n" + " " * level + "]")


def _float_pairs(lst, level: int) -> str | None:
    """Text of a list of ``[re, im]`` pairs of finite floats, laid out as
    ``json`` lays it out; None for any other list."""
    if not set(map(type, lst)) <= {list, tuple} or set(map(len, lst)) != {2}:
        return None
    flat = list(chain.from_iterable(lst))
    if set(map(type, flat)) != {float} or not all(map(isfinite, flat)):
        return None
    outer = "\n" + " " * level
    inner = outer + " "
    leaf = inner + " "
    reprs = map(float.__repr__, flat)
    pairs = map(("," + leaf).join, zip(reprs, reprs))
    pair_sep = inner + "]," + inner + "[" + leaf
    return "[" + inner + "[" + leaf + pair_sep.join(pairs) + inner + "]" + outer + "]"
