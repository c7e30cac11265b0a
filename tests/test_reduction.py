import inspect
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from opcoupling import relations
from opcoupling.errors import (
    ConversionError,
    FeasibilityError,
    NumericalError,
    PipelineStageError,
)
from opcoupling.instances import InstanceSpec, random_instance, synth_mc
from opcoupling.numkernel import pinv, rel_residual, spectral_norm, subspaces
from opcoupling.reduction import (
    build_eaoe,
    build_small_eae,
    check_two_sided,
    decompose_corners,
    derive_uv_blocks,
    fredholm_report,
    normalize_adjoint,
    run_pipeline,
)
from opcoupling.relations import (
    EAESpecialWitness,
    mc_to_eae_special,
    verify_eae,
    verify_eae_special,
    verify_eaoe,
    verify_sc,
)


def worked_special():
    e = np.array([[1.0, 1.0], [1.0, -1.0]])
    f = np.array([[1.0, 1.0], [0.5, -0.5]])
    return EAESpecialWitness.from_ef(U=[[1.0]], V=[[0.5]], E=e, F=f)


def swap_special(n=1):
    swap = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return EAESpecialWitness.from_ef(U=np.eye(n), V=np.eye(n), E=swap, F=swap)


def synthesized(n, m, k, seed=5, cond=100.0):
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=cond))
    return mc_to_eae_special(synth_mc(u, v))


class TestFredholmReport:
    def test_worked_instance_all_trivial(self):
        rep = fredholm_report(worked_special())
        for corner in (rep.f11, rep.f22, rep.e11, rep.ehat11):
            assert corner.index == 0 and corner.kernel_dim == 0
        assert rep.dims_match and rep.extension_side == "none"

    def test_rectangular_indices(self):
        # U is 1x1 with nullity 1, V is 2x2 with nullity 1
        w = synthesized(1, 2, 1)
        rep = fredholm_report(w)
        assert rep.f22.index == 1      # dim Y - dim X
        assert rep.f11.index == -1
        assert rep.e11.index == 1 and rep.ehat11.index == -1
        assert rep.extension_side == "U"

    def test_swap_witness_zero_indices(self):
        rep = fredholm_report(swap_special(3))
        assert rep.f22.index == 0
        assert rep.dim_ker_f22 == 3 and rep.dim_ker_e11 == 3
        assert rep.dims_match


class TestDecomposeCorners:
    def test_worked_instance_trivial_complements(self):
        d = decompose_corners(worked_special())
        assert d.h2.dim == 0 and d.g1.dim == 0
        assert d.ker_f22.dim == 0 and d.ker_e11.dim == 0
        # invertible compressions are the nonzero scalars, up to basis phase
        assert abs(d.f22_prime[0, 0]) == pytest.approx(0.5)
        assert abs(d.e11_prime[0, 0]) == pytest.approx(1.0)

    def test_swap_witness_zero_corner(self):
        d = decompose_corners(swap_special())
        assert d.ker_e11.dim == 1 and d.im_e11.dim == 0
        assert d.ker_f22.dim == 1 and d.im_f22.dim == 0
        assert d.f22_prime.shape == (0, 0)

    def test_synthesized_kernel_dims_match(self):
        d = decompose_corners(synthesized(2, 2, 1))
        assert d.ker_e11.dim == d.ker_f22.dim
        assert d.h2.dim == d.g1.dim


def _block_form_residuals(w, d):
    """Exact residuals of the block forms decompose_corners checks."""
    out = {}
    for name, block, dom, ker, ran, comp, prime in (
        ("f22", w.F22, d.k2, d.ker_f22, d.im_f22, d.h2, d.f22_prime),
        ("e11", w.E11, d.f1, d.ker_e11, d.im_e11, d.g1, d.e11_prime),
    ):
        cod_w = np.hstack([ran.basis, comp.basis])
        in_coords = cod_w.conj().T @ block @ np.hstack([dom.basis, ker.basis])
        target = np.zeros_like(in_coords)
        target[: prime.shape[0], : prime.shape[1]] = prime
        out[name] = rel_residual(in_coords, target)
    return out


class TestDecomposeCornersExactFallback:
    """A tol below what the Frobenius bound can settle runs the exact check."""

    def test_too_tight_tol_names_the_exact_residual(self):
        w = synthesized(12, 14, 2, seed=1)
        res = _block_form_residuals(w, decompose_corners(w))
        worst = max(res, key=res.get)
        tol = 1e-16
        assert res[worst] > tol
        with pytest.raises(NumericalError) as info:
            decompose_corners(w, tol)
        assert str(info.value) == (f"decompose_corners failed verification: {worst} "
                                   f"residual {res[worst]:.3e} exceeds {tol:g}")

    def test_tol_at_the_exact_residual_passes(self):
        w = synthesized(12, 14, 2, seed=1)
        d = decompose_corners(w, max(_block_form_residuals(w, decompose_corners(w)).values()))
        assert d.rank_f22 == d.rank_e11


def _normalization_residuals(wn):
    """The residual table normalize_adjoint checks, computed exactly."""
    ker, _, _, h2 = subspaces(wn.F22)
    p_ker = ker.basis @ ker.basis.conj().T
    scale = max(1.0, np.linalg.norm(wn.E21, 2))
    residuals = {
        "e21_into_ker_f22": np.linalg.norm(p_ker @ wn.E21 - wn.E21, 2) / scale,
        "f21_is_p_h2": rel_residual(wn.F21, h2.basis @ h2.basis.conj().T),
    }
    residuals.update(verify_eae_special(wn).residuals)
    return residuals


class TestNormalizeAdjointExactFallback:
    def test_too_tight_tol_names_the_worst_exact_residual(self):
        w = synthesized(12, 14, 2, seed=1)
        residuals = _normalization_residuals(normalize_adjoint(w))
        worst = max(residuals, key=residuals.get)
        tol = 1e-15
        assert residuals[worst] > tol
        with pytest.raises(NumericalError) as info:
            normalize_adjoint(w, tol)
        assert str(info.value) == (f"normalize_adjoint failed verification: {worst} "
                                   f"residual {residuals[worst]:.3e} exceeds {tol:g}")

    def test_tol_at_the_worst_exact_residual_passes(self):
        w = synthesized(12, 14, 2, seed=1)
        wn = normalize_adjoint(w)
        tol = max(_normalization_residuals(wn).values())
        np.testing.assert_array_equal(normalize_adjoint(w, tol).E, wn.E)


@pytest.fixture(scope="module")
def chain():
    """The stage inputs of a 12x14, nullity-2 pipeline, built at the default tol."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    w = mc_to_eae_special(synth_mc(u, v))
    d = decompose_corners(w)
    rb = derive_uv_blocks(w, d)
    wn = normalize_adjoint(w)
    return SimpleNamespace(u=u, v=v, w=w, d=d, rb=rb, wn=wn,
                           rb2=derive_uv_blocks(wn, d, scales=rb.scales))


def _residual_checks(c):
    """Each residual check by name: ``(what the message names, its exact
    residual table, a call that runs it at a given tol)``."""
    u_off = c.u + 1e-6
    small = build_small_eae(c.wn, c.d, c.rb2)
    eaoe = build_eaoe(c.wn, c.d, c.rb2)
    return {
        "decompose_corners": ("decompose_corners", _block_form_residuals(c.w, c.d),
                              lambda tol: decompose_corners(c.w, tol)),
        "derive_uv_blocks": ("derive_uv_blocks", c.rb.residuals,
                             lambda tol: derive_uv_blocks(c.w, c.d, tol)),
        "normalize_adjoint": ("normalize_adjoint", _normalization_residuals(c.wn),
                              lambda tol: normalize_adjoint(c.w, tol)),
        "check_two_sided": ("check_two_sided", check_two_sided(c.wn, c.rb2),
                            lambda tol: check_two_sided(c.wn, c.rb2, tol)),
        "build_small_eae": ("build_small_eae", verify_eae(small).residuals,
                            lambda tol: build_small_eae(c.wn, c.d, c.rb2, tol)),
        "build_eaoe": ("build_eaoe", verify_eaoe(eaoe).residuals,
                       lambda tol: build_eaoe(c.wn, c.d, c.rb2, tol)),
        "witness_consistency": ("supplied witness",
                                {"witness_u": rel_residual(c.w.U, u_off), "witness_v": 0.0},
                                lambda tol: run_pipeline(u_off, c.v, w=c.w, tol=tol)),
        "verify_special": ("anchored witness", verify_eae_special(c.w).residuals,
                           lambda tol: run_pipeline(c.u, c.v, w=c.w, tol=tol)),
    }


_PIPELINE_CHECKS = ("witness_consistency", "verify_special")


@pytest.mark.parametrize("name", ["decompose_corners", "derive_uv_blocks",
                                  "normalize_adjoint", "check_two_sided",
                                  "build_small_eae", "build_eaoe", *_PIPELINE_CHECKS])
def test_failed_check_raises_one_way(chain, name):
    """Every residual check fails alike: a ConversionError (a NumericalError)
    carrying the exact table and naming its worst entry; a pipeline stage
    wraps it in a PipelineStageError that carries the same table."""
    what, exact, run = _residual_checks(chain)[name]
    label = max(exact, key=exact.get)
    tol = exact[label] / 2
    assert tol > 0
    raised = ConversionError if name not in _PIPELINE_CHECKS else PipelineStageError
    with pytest.raises(raised) as info:
        run(tol)
    err = info.value
    if name in _PIPELINE_CHECKS:
        assert err.stage == name and err.report is err.__cause__.report
        err = err.__cause__
    assert isinstance(err, ConversionError) and isinstance(err, NumericalError)
    assert err.report.residuals == exact
    assert str(err) == (f"{what} failed verification: {label} residual "
                        f"{exact[label]:.3e} exceeds {tol:g}")


class TestDeriveUvBlocks:
    def test_worked_instance_scalar_identity(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        assert abs(rb.u11[0, 0]) == pytest.approx(1.0)
        assert abs(rb.v11[0, 0]) == pytest.approx(0.5)
        # the coupled equivalence e11' v11 = -u11 f22'
        assert rel_residual(d.e11_prime @ rb.v11, -rb.u11 @ d.f22_prime) <= 1e-14

    def test_swap_witness_degenerate_split(self):
        w = swap_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        assert rb.u11.shape == (0, 0) and rb.v11.shape == (0, 0)
        assert rb.u22.shape == (1, 1) and rb.v22.shape == (1, 1)
        assert rel_residual(rb.left_inv_v22 @ rb.v22, np.eye(1)) <= 1e-14
        assert rel_residual(rb.u22 @ rb.right_inv_u22, np.eye(1)) <= 1e-14

    def test_synthesized_zero_blocks(self):
        w = synthesized(3, 3, 1)
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        assert rb.residuals["zero_block_u21"] <= 1e-10
        assert rb.residuals["zero_block_v12"] <= 1e-10


class TestNormalizeAdjoint:
    def test_worked_instance_transform_value(self):
        w = worked_special()
        # the corner transform is pinv(F22) @ Ehat21 = (-2)(0.5) = -1
        x = pinv(w.F22) @ w.Ehat21
        np.testing.assert_allclose(x, [[-1.0]], atol=1e-14)
        wn = normalize_adjoint(w, 1e-12)
        assert verify_eae_special(wn, 1e-12).passed

    def test_idempotent(self):
        w = synthesized(2, 3, 1)
        wn = normalize_adjoint(w)
        wn2 = normalize_adjoint(wn)
        assert spectral_norm(wn2.E - wn.E) <= 1e-12 * max(1, spectral_norm(wn.E))
        assert spectral_norm(wn2.F - wn.F) <= 1e-12 * max(1, spectral_norm(wn.F))

    def test_conditions_hold_after_one_application(self):
        w = synthesized(2, 3, 1, seed=8)
        wn = normalize_adjoint(w, 1e-10)
        from opcoupling.numkernel import subspaces
        ker, _, _, h2 = subspaces(wn.F22)
        p_ker = ker.basis @ ker.basis.conj().T
        p_h2 = h2.basis @ h2.basis.conj().T
        assert spectral_norm(p_ker @ wn.E21 - wn.E21) <= 1e-10
        assert rel_residual(wn.F21, p_h2) <= 1e-10

    def test_preserves_corners(self):
        w = synthesized(3, 4, 2, seed=21)
        wn = normalize_adjoint(w)
        np.testing.assert_array_equal(w.E11, wn.E11)
        np.testing.assert_array_equal(w.F22, wn.F22)


class TestCheckTwoSided:
    def test_worked_instance_trivial(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        residuals = check_two_sided(w, rb, 1e-12)
        assert max(residuals.values()) == 0.0  # zero-dimensional blocks

    def test_swap_witness(self):
        w = swap_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        residuals = check_two_sided(w, rb, 1e-12)
        assert max(residuals.values()) <= 1e-14

    def test_synthesized_after_normalization(self):
        w = normalize_adjoint(synthesized(3, 4, 2, seed=13))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        residuals = check_two_sided(w, rb, 1e-10)
        assert max(residuals.values()) <= 1e-10


class TestBuildSmallEae:
    def test_worked_instance_no_extension(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        small = build_small_eae(w, d, rb)
        assert small.x0_dim == 0 and small.y0_dim == 0
        assert verify_eae(small, 1e-12).passed

    def test_swap_witness_identity_extension(self):
        n = 2
        w = swap_special(n)
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        small = build_small_eae(w, d, rb)
        assert small.x0_dim == n and small.y0_dim == n
        assert verify_eae(small, 1e-12).passed

    def test_synthesized_dims(self):
        w = normalize_adjoint(synthesized(4, 6, 2, seed=17))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        small = build_small_eae(w, d, rb)
        from opcoupling.numkernel import rank_of
        assert small.x0_dim == 6 - rank_of(w.E11)
        assert small.y0_dim == 4 - rank_of(w.F22)
        assert verify_eae(small, 1e-9).passed


class TestBuildEaoe:
    def test_worked_instance_plain_equivalence(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        eaoe = build_eaoe(w, d, rb)
        assert eaoe.ext_dim == 0
        lhs = eaoe.E @ np.array([[0.5]]) @ eaoe.F
        np.testing.assert_allclose(lhs, [[1.0]], atol=1e-12)

    def test_extension_side_matches_index_sign(self):
        w = normalize_adjoint(synthesized(1, 2, 1))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        eaoe = build_eaoe(w, d, rb)
        assert eaoe.extended_side == "U" and eaoe.ext_dim == 1
        assert fredholm_report(w).f22.index == 1
        assert verify_eaoe(eaoe, 1e-10).passed

    def test_v_side_extension(self):
        w = normalize_adjoint(synthesized(4, 2, 1, seed=3))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        eaoe = build_eaoe(w, d, rb)
        assert eaoe.extended_side == "V" and eaoe.ext_dim == 2
        assert verify_eaoe(eaoe, 1e-9).passed


class TestRunPipeline:
    def test_worked_instance_end_to_end(self):
        report = run_pipeline([[1.0]], [[0.5]], w=worked_special(), tol=1e-12)
        assert report.success
        assert report.max_residual <= 1e-12
        assert verify_sc(report.final_sc, 1e-12).passed

    def test_zero_pair(self):
        report = run_pipeline(np.zeros((2, 2)), np.zeros((2, 2)), tol=1e-10)
        assert report.success

    def test_empty_pair(self):
        report = run_pipeline(np.zeros((0, 0)), np.zeros((0, 0)))
        assert report.success
        assert report.max_residual == 0

    def test_feasibility_error_cites_oracle(self):
        with pytest.raises(FeasibilityError, match="nullities"):
            run_pipeline(np.diag([1.0, 0.0]), np.diag([5.0, 0.0, 0.0]))

    def test_supplied_witness_must_match(self):
        with pytest.raises(PipelineStageError, match="witness"):
            run_pipeline([[2.0]], [[0.5]], w=worked_special())

    def test_failed_stage_carries_its_report(self):
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(u, v, tol=1e-13)
        assert info.value.stage == "schur_coupling"
        label, value = info.value.report.worst()
        assert label == "schur_u" and value > 1e-13

    def test_final_coupling_couples_the_inputs(self):
        u, v = random_instance(InstanceSpec(5, 3, 2, seed=77, cond_bound=100))
        report = run_pipeline(u, v, tol=1e-8)
        np.testing.assert_array_equal(report.final_sc.U, u)
        np.testing.assert_array_equal(report.final_sc.V, v)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_suite(self, seed):
        rng = np.random.default_rng(500 + seed)
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        k = int(rng.integers(0, min(n, m) + 1))
        u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=1e3))
        report = run_pipeline(u, v, tol=1e-8)
        assert report.success
        assert verify_sc(report.final_sc, 1e-8).passed
        assert report.x0_dim == report.fredholm.dim_ker_e11
        assert report.y0_dim == report.fredholm.dim_h2

    def test_stage_names_cover_the_chain(self):
        report = run_pipeline([[1.0]], [[0.5]], tol=1e-10)
        names = [s.name for s in report.stages]
        assert names == [
            "synthesize_mc", "mc_to_special", "verify_special", "fredholm",
            "decompose_corners", "derive_blocks", "normalize_adjoint",
            "rederive_blocks", "two_sided", "small_eae", "build_eaoe",
            "schur_coupling",
        ]


_VERIFIER_KINDS = ("sc", "mc", "eae", "eae_special", "eaoe")


@pytest.fixture
def work_counts(monkeypatch):
    """Counter of dense SVDs and of calls to each public verifier."""
    counts = Counter()
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return real_svd(*args, **kwargs)

    # np.linalg.norm(., 2) reaches the SVD through its own module's globals
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)

    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "opcoupling" or name.startswith("opcoupling.")]
    for kind in _VERIFIER_KINDS:
        real = getattr(relations, f"verify_{kind}")

        def counting(*args, _real=real, _kind=kind, **kwargs):
            counts[_kind] += 1
            return _real(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is real:
                    monkeypatch.setattr(ns, attr, counting)
    return counts


def test_pipeline_verifies_each_artifact_once(work_counts):
    """Deterministic work counts of one pipeline run at 12x14, nullity 2."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    assert run_pipeline(u, v, tol=1e-8).success
    assert sum(work_counts[k] for k in _VERIFIER_KINDS) == 4
    assert work_counts["eae_special"] == 0
    assert work_counts["svd"] == 66


def test_supplied_witness_pipeline_counts(work_counts):
    """The supplied-witness path records residuals only, so it takes no
    sigma_min SVDs of E and F and calls no public verifier for them."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    w = mc_to_eae_special(synth_mc(u, v, 1e-8), 1e-8)
    work_counts.clear()
    assert run_pipeline(u, v, w=w, tol=1e-8).success
    assert sum(work_counts[k] for k in _VERIFIER_KINDS) == 3
    assert work_counts["eae_special"] == 0
    assert work_counts["svd"] == 57
