import numpy as np
import pytest

from opcoupling.errors import PreconditionError
from opcoupling.instances import (
    InstanceSpec,
    random_instance,
    random_sc_witness,
    random_unitary,
    synth_mc,
)
from opcoupling.numkernel import rank_of, rel_residual, spectral_norm
from opcoupling.relations import verify_mc, verify_sc


class TestSynthMc:
    def test_null_pair_is_swap(self):
        mc, _ = synth_mc([[0.0]], [[0.0]])
        np.testing.assert_allclose(mc.Uhat, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(mc.UhatInv, mc.Uhat, atol=1e-15)
        assert verify_mc(mc, 1e-12).passed

    def test_identity_pair_couples(self):
        # the nonzero pair (s, r) = (1, 1) gives t = sqrt(s / r) = 1
        mc, _ = synth_mc([[1.0]], [[1.0]])
        np.testing.assert_allclose(mc.Uhat, [[1.0, -1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(mc.UhatInv, [[0.0, 1.0], [-1.0, 1.0]], atol=1e-15)

    def test_worked_pair(self):
        # (s, r) = (1, 0.5) gives t = sqrt(2); the inverse's corner is r
        mc, _ = synth_mc([[1.0]], [[0.5]])
        t = np.sqrt(2.0)
        np.testing.assert_allclose(mc.Uhat, [[1.0, -t], [t, 0.0]], atol=1e-15)
        np.testing.assert_allclose(mc.UhatInv, [[0.0, 1 / t], [-1 / t, 0.5]], atol=1e-15)
        assert verify_mc(mc, 1e-12).passed

    @pytest.mark.parametrize("n,m,k,cond", [
        (6, 6, 2, 1e3), (4, 9, 1, 1e2), (9, 4, 3, 1e4), (5, 5, 5, 1e2), (7, 2, 0, 10.0),
    ], ids=["square", "wide", "tall", "all-null", "no-null"])
    def test_cond_uhat_is_exact(self, n, m, k, cond):
        u, v = random_instance(InstanceSpec(n, m, k, seed=11, cond_bound=cond))
        mc, report = synth_mc(u, v)
        assert report.extras["cond_uhat"] == pytest.approx(np.linalg.cond(mc.Uhat),
                                                           rel=1e-6)

    @pytest.mark.parametrize("n,m,k,cond", [
        (4, 6, 2, 1e2), (8, 3, 3, 1e3), (16, 16, 4, 1e4), (32, 32, 6, 1e4),
    ])
    def test_verifies_at_tight_tolerance(self, n, m, k, cond):
        u, v = random_instance(InstanceSpec(n, m, k, seed=97, cond_bound=cond))
        mc, _ = synth_mc(u, v)
        assert verify_mc(mc, 1e-10).passed


class TestRandomInstance:
    def test_scalars(self):
        u, v = random_instance(InstanceSpec(1, 1, 0, seed=3))
        assert abs(u[0, 0]) > 0 and abs(v[0, 0]) > 0

    def test_full_nullity(self):
        u, v = random_instance(InstanceSpec(3, 3, 3, seed=3))
        assert spectral_norm(u) == 0.0 and spectral_norm(v) == 0.0

    def test_prescribed_ranks(self):
        u, v = random_instance(InstanceSpec(4, 6, 2, seed=3))
        assert rank_of(u) == 2 and rank_of(v) == 4

    def test_singular_value_range(self):
        cb = 50.0
        u, v = random_instance(InstanceSpec(6, 5, 1, seed=9, cond_bound=cb))
        for mat, size, k in ((u, 6, 1), (v, 5, 1)):
            s = np.linalg.svd(mat, compute_uv=False)
            nonzero = s[: size - k]
            assert np.all(nonzero <= 1.0 + 1e-12)
            assert np.all(nonzero >= 1.0 / cb - 1e-12)

    def test_bit_for_bit_reproducible(self):
        spec = InstanceSpec(5, 7, 2, seed=123, cond_bound=100)
        u1, v1 = random_instance(spec)
        u2, v2 = random_instance(spec)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            InstanceSpec(2, 2, 3, seed=0)
        with pytest.raises(PreconditionError):
            InstanceSpec(2, 2, 0, seed=0, cond_bound=0.5)

    @pytest.mark.parametrize("sizes,field", [
        ((-1, 2, 0), "size n"), ((2, -1, 0), "size m"), ((2, 2, -1), "nullity k"),
        ((-1, -1, -1), "size n"),
    ])
    def test_negative_sizes_name_the_field(self, sizes, field):
        with pytest.raises(PreconditionError, match=f"^{field} must be >= 0"):
            InstanceSpec(*sizes, seed=0)

    @pytest.mark.parametrize("cond_bound", [np.nan, np.inf, -np.inf, 0.5, 0.0])
    def test_cond_bound_must_be_finite_and_at_least_one(self, cond_bound):
        with pytest.raises(PreconditionError, match="^cond_bound must be a finite"):
            InstanceSpec(2, 2, 0, seed=0, cond_bound=cond_bound)

    def test_empty_instance_is_valid(self):
        u, v = random_instance(InstanceSpec(0, 0, 0, seed=0, cond_bound=1.0))
        assert u.shape == (0, 0) and v.shape == (0, 0)


class TestRandomScWitness:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_and_conditioned(self, seed):
        rng = np.random.default_rng(seed)
        w = random_sc_witness(4, 5, 1e4, rng)
        assert verify_sc(w, 1e-11).passed
        for block in (w.M.a11, w.M.a22):
            s = np.linalg.svd(block, compute_uv=False)
            assert s[0] / s[-1] <= 1e4


def test_random_unitary_is_unitary():
    q = random_unitary(6, np.random.default_rng(0))
    assert rel_residual(q.conj().T @ q, np.eye(6)) <= 1e-13
