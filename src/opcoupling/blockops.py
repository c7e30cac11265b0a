"""2x2 block-operator assembly.

A :class:`Block2x2` holds the four blocks of an operator between two split
spaces.  Larger block displays (the 3x3 factor matrices used by the
reduction) are built by nesting: the lower-right 2x2 corner of a
:class:`Block2x2` may itself be an assembled :class:`Block2x2`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numkernel import as_matrix, zeros


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

    def assemble(self) -> np.ndarray:
        r1, r2 = self.row_split
        c1, c2 = self.col_split
        out = zeros(r1 + r2, c1 + c2)
        out[:r1, :c1] = self.a11
        out[:r1, c1:] = self.a12
        out[r1:, :c1] = self.a21
        out[r1:, c1:] = self.a22
        return out
