"""2x2 block-operator assembly, pivoted block inversion and subspace maps.

A :class:`Block2x2` holds the four blocks of an operator between two split
spaces.  Larger block displays (the 3x3 factor matrices used by the
reduction) are built by nesting: the lower-right 2x2 corner of a
:class:`Block2x2` may itself be an assembled :class:`Block2x2`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError, ShapeError, SingularMatrixError
from .numkernel import (
    SubspaceBasis,
    adjoint,
    as_matrix,
    eye,
    inverse,
    rel_residual,
    spectral_norm,
    zeros,
)


@dataclass(frozen=True)
class Block2x2:
    """Operator from C^(c1+c2) to C^(r1+r2) in 2x2 block form."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        a11, a12, a21, a22 = map(as_matrix, (self.a11, self.a12, self.a21, self.a22))
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", a12)
        object.__setattr__(self, "a21", a21)
        object.__setattr__(self, "a22", a22)
        if a11.shape[0] != a12.shape[0] or a21.shape[0] != a22.shape[0]:
            raise ShapeError("row dimensions of block rows disagree")
        if a11.shape[1] != a21.shape[1] or a12.shape[1] != a22.shape[1]:
            raise ShapeError("column dimensions of block columns disagree")

    @property
    def row_split(self) -> tuple[int, int]:
        return self.a11.shape[0], self.a22.shape[0]

    @property
    def col_split(self) -> tuple[int, int]:
        return self.a11.shape[1], self.a22.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return sum(self.row_split), sum(self.col_split)

    def assemble(self) -> np.ndarray:
        r1, r2 = self.row_split
        c1, c2 = self.col_split
        out = zeros(r1 + r2, c1 + c2)
        out[:r1, :c1] = self.a11
        out[:r1, c1:] = self.a12
        out[r1:, :c1] = self.a21
        out[r1:, c1:] = self.a22
        return out

    @classmethod
    def from_matrix(cls, mat, row_split: int, col_split: int) -> "Block2x2":
        mat = as_matrix(mat)
        rows, cols = mat.shape
        if not (0 <= row_split <= rows and 0 <= col_split <= cols):
            raise ShapeError(
                f"splits ({row_split}, {col_split}) out of range for shape {mat.shape}"
            )
        return cls(
            mat[:row_split, :col_split],
            mat[:row_split, col_split:],
            mat[row_split:, :col_split],
            mat[row_split:, col_split:],
        )


@dataclass(frozen=True)
class SubspaceMaps:
    """Embedding J, projection Pi and idempotent P = J @ Pi of a subspace."""

    J: np.ndarray   # ambient x dim
    Pi: np.ndarray  # dim x ambient
    P: np.ndarray   # ambient x ambient


def _invert_named(block: np.ndarray, name: str):
    try:
        inv, _cond = inverse(block)
    except SingularMatrixError as exc:
        raise PreconditionError(
            f"block {name} is not invertible (sigma_min={exc.sigma_min:.3e})"
        ) from exc
    except ShapeError:
        raise PreconditionError(f"block {name} is not square, cannot invert")
    return inv


_PIVOTS = ("a11", "a12", "a21", "a22")


def block_inverse(m: Block2x2, pivot: str = "a11") -> Block2x2:
    """Invert a 2x2 block matrix by pivoting on one invertible corner.

    ``pivot`` names the corner assumed invertible; the Schur complement with
    respect to it must be invertible as well.  For the ``"a12"`` pivot the
    complement is ``Delta = a21 - a22 @ inv(a12) @ a11``.

    Returns the inverse as a :class:`Block2x2` whose splits are the
    transposed splits of ``m``.
    """
    if pivot not in _PIVOTS:
        raise PreconditionError(f"unknown pivot {pivot!r}, expected one of {_PIVOTS}")
    rows, cols = m.shape
    if rows != cols:
        raise ShapeError(f"cannot invert non-square block matrix of shape {m.shape}")
    a, b, c, d = m.a11, m.a12, m.a21, m.a22

    if pivot == "a11":
        p = _invert_named(a, "a11")
        s = _invert_named(d - c @ p @ b, "Schur complement of a11")
        inv = Block2x2(p + p @ b @ s @ c @ p, -p @ b @ s, -s @ c @ p, s)
    elif pivot == "a22":
        p = _invert_named(d, "a22")
        t = _invert_named(a - b @ p @ c, "Schur complement of a22")
        inv = Block2x2(t, -t @ b @ p, -p @ c @ t, p + p @ c @ t @ b @ p)
    elif pivot == "a12":
        p = _invert_named(b, "a12")
        s = _invert_named(c - d @ p @ a, "Schur complement of a12")
        inv = Block2x2(-s @ d @ p, s, p + p @ a @ s @ d @ p, -p @ a @ s)
    else:  # pivot == "a21"
        p = _invert_named(c, "a21")
        s = _invert_named(b - a @ p @ d, "Schur complement of a21")
        inv = Block2x2(-p @ d @ s, p + p @ d @ s @ a @ p, s, -s @ a @ p)

    full = m.assemble()
    residual = spectral_norm(full @ inv.assemble() - eye(rows))
    scale = max(1.0, spectral_norm(full) * spectral_norm(inv.assemble()))
    if residual > 1e-8 * scale:
        raise NumericalError(
            f"block inverse residual {residual:.3e} exceeds its accuracy bound"
        )
    return inv


def subspace_maps(basis: SubspaceBasis, tol: float = 1e-10) -> SubspaceMaps:
    """Embedding, projection and idempotent projector of an orthonormal basis."""
    b = as_matrix(basis.basis)
    gram = rel_residual(adjoint(b) @ b, eye(basis.dim))
    if gram > tol:
        raise PreconditionError(f"basis is not orthonormal (Gram residual {gram:.3e})")
    j = b
    pi = adjoint(b)
    return SubspaceMaps(J=j, Pi=pi, P=j @ pi)
