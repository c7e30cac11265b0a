import numpy as np
import pytest

from opcoupling.blockops import Block2x2, block_inverse, subspace_maps
from opcoupling.errors import PreconditionError, ShapeError
from opcoupling.numkernel import SubspaceBasis, rel_residual, spectral_norm
from opcoupling.instances import random_unitary


def scalar_block(a, b, c, d):
    return Block2x2([[a]], [[b]], [[c]], [[d]])


class TestBlock2x2:
    def test_assemble_roundtrip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        blocks = Block2x2.from_matrix(mat, 2, 3)
        assert blocks.row_split == (2, 3) and blocks.col_split == (3, 4)
        np.testing.assert_array_equal(blocks.assemble(), mat)

    def test_zero_dim_blocks(self):
        blocks = Block2x2.from_matrix(np.eye(3), 0, 0)
        np.testing.assert_array_equal(blocks.assemble(), np.eye(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Block2x2(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


class TestBlockInverse:
    def test_upper_right_pivot_worked_example(self):
        # F = [[1, 1], [0.5, -0.5]]: pivot block 1, complement 0.5 - (-0.5)(1) = 1
        f = scalar_block(1.0, 1.0, 0.5, -0.5)
        inv = block_inverse(f, pivot="a12")
        np.testing.assert_allclose(inv.assemble(), [[0.5, 1.0], [0.5, -1.0]],
                                   atol=1e-15)

    def test_block_diagonal(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        d = np.array([[4.0]])
        m = Block2x2(a, np.zeros((2, 1)), np.zeros((1, 2)), d)
        inv = block_inverse(m, pivot="a11")
        np.testing.assert_allclose(inv.a11, np.linalg.inv(a))
        np.testing.assert_allclose(inv.a22, [[0.25]])
        assert spectral_norm(inv.a12) == 0 and spectral_norm(inv.a21) == 0

    def test_unipotent(self):
        b = np.array([[3.0, -1.0], [2.0, 5.0]])
        m = Block2x2(np.eye(2), b, np.zeros((2, 2)), np.eye(2))
        inv = block_inverse(m, pivot="a11")
        np.testing.assert_allclose(inv.a12, -b)
        np.testing.assert_allclose(inv.a11, np.eye(2))

    def test_singular_pivot_named(self):
        with pytest.raises(PreconditionError, match="a12"):
            block_inverse(scalar_block(1, 0, 1, 1), pivot="a12")

    def test_unknown_pivot(self):
        with pytest.raises(PreconditionError):
            block_inverse(scalar_block(1, 0, 0, 1), pivot="nw")

    @pytest.mark.parametrize("pivot", ["a11", "a12", "a21", "a22"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_well_conditioned(self, pivot, seed):
        # identity + small noise keeps every corner and complement invertible
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        noise = 0.2 * (rng.standard_normal((2 * n, 2 * n))
                       + 1j * rng.standard_normal((2 * n, 2 * n)))
        full = np.eye(2 * n) + noise + np.fliplr(np.eye(2 * n))
        m = Block2x2.from_matrix(full, n, n)
        inv = block_inverse(m, pivot=pivot)
        assert spectral_norm(full @ inv.assemble() - np.eye(2 * n)) <= 1e-10


class TestSubspaceMaps:
    def test_first_axis(self):
        basis = SubspaceBasis(2, np.array([[1.0], [0.0]], dtype=complex), 1)
        maps = subspace_maps(basis)
        np.testing.assert_allclose(maps.J, [[1.0], [0.0]])
        np.testing.assert_allclose(maps.P, np.diag([1.0, 0.0]))

    def test_full_space(self):
        basis = SubspaceBasis(3, np.eye(3, dtype=complex), 3)
        maps = subspace_maps(basis)
        np.testing.assert_allclose(maps.J, np.eye(3))
        np.testing.assert_allclose(maps.P, np.eye(3))

    def test_diagonal_line(self):
        basis = SubspaceBasis(2, np.array([[1.0], [1.0]]) / np.sqrt(2), 1)
        maps = subspace_maps(basis)
        np.testing.assert_allclose(maps.P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_rejects_non_orthonormal(self):
        basis = SubspaceBasis(2, np.array([[1.0], [1.0]]), 1)
        with pytest.raises(PreconditionError, match="Gram"):
            subspace_maps(basis)

    @pytest.mark.parametrize("seed", range(5))
    def test_projector_properties(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        q = random_unitary(6, rng)[:, :dim]
        maps = subspace_maps(SubspaceBasis(6, q, dim))
        assert rel_residual(maps.Pi @ maps.J, np.eye(dim)) <= 1e-13
        assert rel_residual(maps.P @ maps.P, maps.P) <= 1e-13
