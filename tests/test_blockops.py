import numpy as np
import pytest

from opcoupling.blockops import Block2x2
from opcoupling.errors import ShapeError


class TestBlock2x2:
    def test_assemble_roundtrip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        blocks = Block2x2(mat[:2, :3], mat[:2, 3:], mat[2:, :3], mat[2:, 3:])
        assert blocks.row_split == (2, 3) and blocks.col_split == (3, 4)
        np.testing.assert_array_equal(blocks.assemble(), mat)

    def test_zero_dim_blocks(self):
        blocks = Block2x2(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)), np.eye(3))
        assert blocks.row_split == (0, 3) and blocks.col_split == (0, 3)
        np.testing.assert_array_equal(blocks.assemble(), np.eye(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Block2x2(np.eye(2), np.eye(3), np.eye(2), np.eye(2))
