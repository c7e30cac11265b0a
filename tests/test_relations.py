import numpy as np
import pytest

from opcoupling.blockops import Block2x2
from opcoupling.errors import ConversionError, FeasibilityError
from opcoupling.instances import InstanceSpec, random_instance, random_sc_witness, synth_mc
from opcoupling.numkernel import rel_residual, spectral_norm
from opcoupling.relations import (
    EAESpecialWitness,
    EAOEWitness,
    MCWitness,
    SCWitness,
    mc_to_eae_special,
    sc_from_eaoe,
    sc_to_mc,
    verify_eae_special,
    verify_eaoe,
    verify_mc,
    verify_sc,
)


def worked_sc():
    """The 1x1-block coupling M = [[2, 1], [1, 1]] of U = [1] and V = [0.5]."""
    m = Block2x2([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    return SCWitness(M=m, U=[[1.0]], V=[[0.5]])


def special_from_ef(U, V, E, F):
    """Anchored witness from E and F alone, inverted numerically."""
    E, F = np.asarray(E, dtype=np.complex128), np.asarray(F, dtype=np.complex128)
    return EAESpecialWitness(U=U, V=V, E=E, F=F,
                             Einv=np.linalg.inv(E), Finv=np.linalg.inv(F))


def worked_special():
    """E = [[1, 1], [1, -1]], F = [[1, 1], [0.5, -0.5]] coupling [1] and [0.5]."""
    e = np.array([[1.0, 1.0], [1.0, -1.0]])
    f = np.array([[1.0, 1.0], [0.5, -0.5]])
    return special_from_ef(U=[[1.0]], V=[[0.5]], E=e, F=f)


def swap_special(n=1):
    """U = V = I_n coupled by the plain block swap."""
    swap = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return special_from_ef(U=np.eye(n), V=np.eye(n), E=swap, F=swap)


class TestVerifySC:
    def test_identity_coupling(self):
        w = SCWitness(M=Block2x2([[1.0]], [[0.0]], [[0.0]], [[1.0]]), U=[[1.0]], V=[[1.0]])
        assert verify_sc(w).max_residual == 0.0

    def test_worked_instance(self):
        assert verify_sc(worked_sc(), 1e-12).passed

    def test_perturbed_claim_fails(self):
        m = Block2x2([[2.0]], [[1.0]], [[1.0]], [[1.0]])
        rep = verify_sc(SCWitness(M=m, U=[[1.0]], V=[[0.6]]))
        assert not rep.passed
        assert rep.residuals["schur_v"] == pytest.approx(0.1)


class TestVerifyMC:
    def test_identity(self):
        w = MCWitness(Uhat=np.eye(2), UhatInv=np.eye(2), n=1, m=1,
                      U=[[1.0]], V=[[1.0]])
        assert verify_mc(w).max_residual == 0.0

    def test_worked_pair(self):
        w = MCWitness(Uhat=np.array([[1.0, 1.0], [-1.0, 1.0]]),
                      UhatInv=np.array([[0.5, -0.5], [0.5, 0.5]]),
                      n=1, m=1, U=[[1.0]], V=[[0.5]])
        assert verify_mc(w, 1e-12).passed

    def test_swap_couples_zero_operators(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = MCWitness(Uhat=swap, UhatInv=swap, n=1, m=1, U=[[0.0]], V=[[0.0]])
        assert verify_mc(w, 1e-12).passed

    def test_reports_hold_copies_of_the_cached_table(self):
        # synth_mc verified the witness, so its table is cached already
        mc, report = synth_mc(*random_instance(InstanceSpec(3, 4, 1, seed=7)))
        table = vars(mc)["_residual_table_by_tol"][1e-8]
        assert list(table.items()) == list(report.residuals.items()) and len(table) == 4
        rep = verify_mc(mc)
        assert rep.residuals == dict(table) and rep.residuals is not report.residuals
        rep.residuals["corner_u"] = 1.0
        assert mc.residual_table(1e-8) is table and table["corner_u"] < 1e-12
        with pytest.raises(TypeError):
            table["corner_u"] = 1.0


class TestVerifyEAESpecial:
    def test_worked_instance_all_identities_exact(self):
        rep = verify_eae_special(worked_special(), 1e-12)
        assert rep.passed
        assert rep.max_residual == 0.0
        # the leading identity evaluates to I: F21 - F22 F11 = 0.5 + 0.5
        assert rep.residuals["identity_i"] == 0.0

    def test_swap_witness(self):
        rep = verify_eae_special(swap_special(), 1e-12)
        assert rep.passed
        w = swap_special()
        assert spectral_norm(w.F11) == 0.0
        np.testing.assert_allclose(w.F21, [[1.0]])
        assert spectral_norm(w.F22) == 0.0

    def test_perturbed_f21_breaks_identity_i(self):
        f_bad = np.array([[1.0, 1.0], [0.6, -0.5]])
        w = special_from_ef(U=[[1.0]], V=[[0.5]],
                            E=[[1.0, 1.0], [1.0, -1.0]], F=f_bad)
        rep = verify_eae_special(w)
        assert not rep.passed
        assert rep.residuals["identity_i"] == pytest.approx(0.1)

    def test_block_accessors(self):
        w = worked_special()
        np.testing.assert_allclose(w.F11, [[1.0]])
        np.testing.assert_allclose(w.F21, [[0.5]])
        np.testing.assert_allclose(w.F22, [[-0.5]])
        np.testing.assert_allclose(w.E11, [[1.0]])
        np.testing.assert_allclose(w.E21, [[1.0]])
        np.testing.assert_allclose(w.Ehat11, [[0.5]])
        np.testing.assert_allclose(w.Ehat21, [[0.5]])


class TestScToMc:
    def test_worked_instance(self):
        mc = sc_to_mc(worked_sc())
        np.testing.assert_allclose(mc.Uhat, [[1.0, 1.0], [-1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(mc.UhatInv, [[0.5, -0.5], [0.5, 0.5]], atol=1e-15)

    def test_identity(self):
        zero = np.zeros((2, 2))
        w = SCWitness(M=Block2x2(np.eye(2), zero, zero, np.eye(2)),
                      U=np.eye(2), V=np.eye(2))
        mc = sc_to_mc(w)
        np.testing.assert_allclose(mc.Uhat, np.eye(4), atol=1e-15)

    def test_random_near_identity(self):
        rng = np.random.default_rng(11)
        a = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        d = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        b = 0.1 * rng.standard_normal((2, 2))
        c = 0.1 * rng.standard_normal((2, 2))
        u = a - b @ np.linalg.inv(d) @ c
        v = d - c @ np.linalg.inv(a) @ b
        mc = sc_to_mc(SCWitness(M=Block2x2(a, b, c, d), U=u, V=v))
        assert verify_mc(mc, 1e-10).passed


class TestMcToEaeSpecial:
    def test_worked_instance(self):
        mc = sc_to_mc(worked_sc())
        w = mc_to_eae_special(mc)
        np.testing.assert_allclose(w.E, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)
        np.testing.assert_allclose(w.F, [[1.0, 1.0], [0.5, -0.5]], atol=1e-15)
        # product check: E diag(0.5, 1) F = I = U (+) I
        lhs = w.E @ np.diag([0.5, 1.0]) @ w.F
        np.testing.assert_allclose(lhs, np.eye(2), atol=1e-15)

    def test_identity_gives_swap(self):
        mc = MCWitness(Uhat=np.eye(2), UhatInv=np.eye(2), n=1, m=1,
                       U=[[1.0]], V=[[1.0]])
        w = mc_to_eae_special(mc)
        np.testing.assert_allclose(w.E, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(w.F, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_random_synthesized(self):
        u, v = random_instance(InstanceSpec(3, 3, 1, seed=7, cond_bound=50))
        mc, _ = synth_mc(u, v)
        w = mc_to_eae_special(mc)
        rep = verify_eae_special(w, 1e-10)
        assert rep.passed
        assert rep.residuals["extension_equation"] <= 1e-10

    def test_reports_hold_copies_of_the_cached_table(self):
        u, v = random_instance(InstanceSpec(3, 3, 1, seed=7, cond_bound=50))
        w = mc_to_eae_special(synth_mc(u, v)[0])
        table = w.residual_table(1e-8)
        rep = verify_eae_special(w)
        assert list(rep.residuals.items()) == list(table.items()) and len(table) == 20
        rep.residuals["extension_equation"] = 1.0
        assert w.residual_table(1e-8) is table and table["extension_equation"] < 1e-12
        with pytest.raises(TypeError):
            table["extension_equation"] = 1.0

    def test_conversion_error_carries_report(self):
        bad = MCWitness(Uhat=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        UhatInv=np.array([[1.0, 0.0], [0.0, 2.0]]),
                        n=1, m=1, U=[[1.0]], V=[[2.0]])
        with pytest.raises(ConversionError) as info:
            mc_to_eae_special(bad)
        assert info.value.report is not None


class TestScFromEaoe:
    def test_zero_extension_scalars(self):
        w = EAOEWitness(extended_side="V", ext_dim=0, E=[[1.0]], F=[[1.0]],
                        U=[[1.0]], V=[[1.0]])
        sc, _ = sc_from_eaoe(w)
        np.testing.assert_allclose(sc.M.assemble(), [[1.0, 1.0], [0.0, 1.0]])
        u, v = sc.U, sc.V
        np.testing.assert_allclose(u, [[1.0]])
        np.testing.assert_allclose(v, [[1.0]])

    def test_identity_extension(self):
        # U = I_2 = (V = 1) (+) I_1 with E = F = I_2
        w = EAOEWitness(extended_side="V", ext_dim=1, E=np.eye(2), F=np.eye(2),
                        U=np.eye(2), V=[[1.0]])
        sc, _ = sc_from_eaoe(w)
        np.testing.assert_allclose(sc.M.a11, np.eye(2))
        np.testing.assert_allclose(sc.M.a12, [[1.0], [0.0]])
        assert spectral_norm(sc.M.a21) == 0.0
        np.testing.assert_allclose(sc.M.a22, [[1.0]])

    def test_u_extended_orientation(self):
        # U = diag(1, 1) extends V = [2] by one dimension: U (+) I_0 ... use
        # U 1x1 = [2] with ext on U: [2] (+) I_1 = E (V = diag(2,1)) F
        e = np.eye(2)
        f = np.eye(2)
        w = EAOEWitness(extended_side="U", ext_dim=1, E=e, F=f,
                        U=[[2.0]], V=np.diag([2.0, 1.0]))
        assert verify_eaoe(w, 1e-12).passed
        sc, _ = sc_from_eaoe(w)
        assert verify_sc(sc, 1e-10).passed
        np.testing.assert_allclose(sc.U, [[2.0]])
        np.testing.assert_allclose(sc.V, np.diag([2.0, 1.0]))


class TestConverterProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_sc_roundtrip_preserves_uv(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = random_sc_witness(n, m, 1e4, rng)
        mc = sc_to_mc(w)
        np.testing.assert_array_equal(mc.U, w.U)
        np.testing.assert_array_equal(mc.V, w.V)
        assert verify_mc(mc, 1e-10).passed

    @pytest.mark.parametrize("seed", range(12))
    def test_special_witness_block_symmetries(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        w = mc_to_eae_special(sc_to_mc(random_sc_witness(n, m, 100, rng)))
        # lower-right corner of E is -F11; of E^-1 is F22
        assert rel_residual(w.E22, -w.F11) <= 1e-12
        assert rel_residual(w.Einv[m:, n:], w.F22) <= 1e-12
        assert verify_eae_special(w, 1e-10).passed

    @pytest.mark.parametrize("nullity", [0, 1, 2])
    def test_synthesized_eleven_identities(self, nullity):
        u, v = random_instance(InstanceSpec(4, 5, nullity, seed=31 + nullity,
                                            cond_bound=100))
        mc, _ = synth_mc(u, v)
        w = mc_to_eae_special(mc)
        rep = verify_eae_special(w, 1e-10)
        labels = [f"identity_{r}" for r in
                  ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi")]
        assert all(rep.residuals[lab] <= 1e-10 for lab in labels)


def test_synth_mc_feasibility_error():
    u, _ = random_instance(InstanceSpec(3, 3, 0, seed=1, cond_bound=10))
    _, v = random_instance(InstanceSpec(3, 3, 2, seed=2, cond_bound=10))
    with pytest.raises(FeasibilityError, match=r"^no coupling exists: dim Ker U = 0 but "
                       r"dim Ker V = 2; .* exactly when their nullities agree$"):
        synth_mc(u, v)
