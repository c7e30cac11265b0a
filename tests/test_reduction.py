import dataclasses
import inspect
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcoupling import instances, reduction, relations
from opcoupling.errors import (
    ConversionError,
    FeasibilityError,
    NumericalError,
    PipelineStageError,
)
from opcoupling.instances import InstanceSpec, random_instance, synth_mc
from opcoupling.numkernel import pinv, rel_residual, spectral_norm, svd
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
    MCWitness,
    mc_to_eae_special,
    verify_eae,
    verify_eae_special,
    verify_eaoe,
    verify_sc,
)
from opcoupling.serialization import (
    decode_witness,
    dumps_canonical,
    encode_witness,
    pipeline_report_to_dict,
)


def special_from_ef(U, V, E, F):
    """Anchored witness from E and F alone, inverted numerically."""
    E, F = np.asarray(E, dtype=np.complex128), np.asarray(F, dtype=np.complex128)
    return EAESpecialWitness(U=U, V=V, E=E, F=F,
                             Einv=np.linalg.inv(E), Finv=np.linalg.inv(F))


def worked_special():
    e = np.array([[1.0, 1.0], [1.0, -1.0]])
    f = np.array([[1.0, 1.0], [0.5, -0.5]])
    return special_from_ef(U=[[1.0]], V=[[0.5]], E=e, F=f)


def swap_special(n=1):
    swap = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return special_from_ef(U=np.eye(n), V=np.eye(n), E=swap, F=swap)


def coupled_mc(U, V, r):
    """MC witness of (U, V) whose off-diagonal corners have rank ``r``.

    The core of :func:`~opcoupling.instances.synth_mc`, but coupling only
    the trailing ``r >= nullity`` coordinates: the null swaps and
    ``r - nullity`` nonzero pairs.  The leading values stay unpaired ``[s]``
    and ``[1/q]`` blocks, which add nothing to the corners, so the anchored
    witness has extensions ``x0 = m - r`` and ``y0 = n - r``.
    """
    res_u, res_v = svd(U), svd(V)
    n, m = res_u.left.shape[0], res_v.left.shape[0]
    k = n - res_u.rank()
    lead_u, lead_v = np.arange(n - r), n + np.arange(m - r)
    pair_u, pair_v = np.arange(n - r, n - k), n + np.arange(m - r, m - k)
    null_u, null_v = np.arange(n - k, n), n + np.arange(m - k, m)
    s_lead, q_lead = res_u.singulars[: n - r], res_v.singulars[: m - r]
    s, q = res_u.singulars[n - r: n - k], res_v.singulars[m - r: m - k]
    t = np.sqrt(s / q)

    core, core_inv = np.zeros((2, n + m, n + m), dtype=complex)
    core[lead_u, lead_u], core_inv[lead_u, lead_u] = s_lead, 1.0 / s_lead
    core[lead_v, lead_v], core_inv[lead_v, lead_v] = 1.0 / q_lead, q_lead
    core[pair_u, pair_u], core[pair_u, pair_v], core[pair_v, pair_u] = s, -t, t
    core_inv[pair_u, pair_v], core_inv[pair_v, pair_u] = 1.0 / t, -1.0 / t
    core_inv[pair_v, pair_v] = q
    for c in (core, core_inv):
        c[null_u, null_v] = c[null_v, null_u] = 1.0

    def diag(a, b):
        out = np.zeros((n + m, n + m), dtype=complex)
        out[:n, :n], out[n:, n:] = a, b
        return out

    a = diag(res_u.left, res_v.right)
    b = diag(res_u.right, res_v.left)
    return MCWitness(Uhat=a @ core @ b.conj().T, UhatInv=b @ core_inv @ a.conj().T,
                     n=n, m=m, U=U, V=V)


def synthesized(n, m, k, seed=5, cond=100.0):
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=cond))
    mc, _ = synth_mc(u, v)
    return mc_to_eae_special(mc)


def read_back(w):
    """``w`` as a witness file gives it back to ``verify`` or ``--witness``:
    a fresh object, with nothing cached."""
    return decode_witness(encode_witness(w))


class TestFredholmReport:
    def test_worked_instance_all_trivial(self):
        rep = fredholm_report(worked_special())
        for corner in (rep.f11, rep.f22, rep.e11, rep.ehat11):
            assert corner.index == 0
        assert rep.f22.kernel_dim == rep.e11.kernel_dim == 0
        assert rep.dim_h2 == rep.dim_g1 == 0 and rep.dim_ker_f22 == rep.dim_ker_e11 == 0
        assert rep.extension_side == "none"

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
        assert rep.dim_h2 == rep.dim_g1 == 3


def _complement_dims(d):
    """``(dim h2, dim g1, dim Ker F22, dim Ker E11)``: the columns of each
    SVD factor past the common rank."""
    r = d.rank
    return (d.f22.left.shape[1] - r, d.e11.left.shape[1] - r,
            d.f22.right.shape[1] - r, d.e11.right.shape[1] - r)


class TestDecomposeCorners:
    def test_worked_instance_trivial_complements(self):
        d = decompose_corners(worked_special())
        assert d.rank == 1 and _complement_dims(d) == (0, 0, 0, 0)
        # invertible compressions are the nonzero scalars, up to basis phase
        assert abs(d.f22_prime[0, 0]) == pytest.approx(0.5)
        assert abs(d.e11_prime[0, 0]) == pytest.approx(1.0)

    def test_swap_witness_zero_corner(self):
        d = decompose_corners(swap_special())
        assert d.rank == 0 and _complement_dims(d) == (1, 1, 1, 1)
        assert d.f22_prime.shape == (0, 0)

    def test_synthesized_kernel_dims_match(self):
        h2, g1, ker_f22, ker_e11 = _complement_dims(decompose_corners(synthesized(2, 2, 1)))
        assert ker_e11 == ker_f22
        assert h2 == g1

    def test_reads_the_cached_corner_svds(self):
        w = synthesized(3, 4, 2, seed=21)
        d = decompose_corners(w)
        assert d.f22 is w.f22_svd and d.e11 is w.e11_svd
        assert d.rank == w.f22_svd.rank() == w.e11_svd.rank()

    def test_unequal_corner_ranks_raise(self):
        # E11 = [[1]] has rank 1, F22 = [[0]] rank 0; the shapes are all
        # the constructor checks
        swap = [[0.0, 1.0], [1.0, 0.0]]
        w = special_from_ef(U=[[1.0]], V=[[1.0]], E=np.eye(2), F=swap)
        with pytest.raises(NumericalError) as info:
            decompose_corners(w)
        assert str(info.value) == ("rank(E11)=1 differs from rank(F22)=0; the corner "
                                   "blocks of a genuine witness have equal rank")


def _block_form_residuals(w, d):
    """Exact residuals of the block forms decompose_corners checks."""
    out = {}
    for name, block, res, prime in (("f22", w.F22, d.f22, d.f22_prime),
                                    ("e11", w.E11, d.e11, d.e11_prime)):
        in_coords = res.left.conj().T @ block @ res.right
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
        assert d.rank == d.f22.rank() == d.e11.rank()


def _normalization_residuals(wn):
    """The residual table normalize_adjoint checks, computed exactly."""
    res = svd(wn.F22)
    r = res.rank()
    ker, h2 = res.right[:, r:], res.left[:, r:]
    p_ker = ker @ ker.conj().T
    scale = max(1.0, np.linalg.norm(wn.E21, 2))
    residuals = {
        "e21_into_ker_f22": np.linalg.norm(p_ker @ wn.E21 - wn.E21, 2) / scale,
        "f21_is_p_h2": rel_residual(wn.F21, h2 @ h2.conj().T),
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
    mc, _ = synth_mc(u, v)
    w = mc_to_eae_special(mc)
    d = decompose_corners(w)
    rb = derive_uv_blocks(w, d)
    wn = normalize_adjoint(w)
    return SimpleNamespace(u=u, v=v, w=w, d=d, rb=rb, wn=wn,
                           rb2=derive_uv_blocks(wn, d))


def _residual_checks(c):
    """Each residual check by name: ``(what the message names, its exact
    residual table, a call that runs it at a given tol)``."""
    u_off = c.u + 1e-6
    built_small = build_small_eae(c.wn, c.d, c.rb2)
    small = built_small[0]
    eaoe, _ = build_eaoe(c.wn, c.d, c.rb2, built_small)
    return {
        "decompose_corners": ("decompose_corners", _block_form_residuals(c.w, c.d),
                              lambda tol: decompose_corners(c.w, tol)),
        "derive_uv_blocks": ("derive_uv_blocks", c.rb.residuals,
                             lambda tol: derive_uv_blocks(c.w, c.d, tol)),
        "normalize_adjoint": ("normalize_adjoint", _normalization_residuals(c.wn),
                              lambda tol: normalize_adjoint(c.w, tol)),
        "check_two_sided": ("check_two_sided", check_two_sided(c.rb2),
                            lambda tol: check_two_sided(c.rb2, tol)),
        "build_small_eae": ("build_small_eae", verify_eae(small).residuals,
                            lambda tol: build_small_eae(c.wn, c.d, c.rb2, tol)),
        "build_eaoe": ("build_eaoe", verify_eaoe(eaoe).residuals,
                       lambda tol: build_eaoe(c.wn, c.d, c.rb2, built_small, tol)),
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
    def test_carried_blocks_match_a_fresh_derivation(self, chain):
        # normalization leaves U, V, E11 and F22 bit for bit, so the blocks
        # and residuals the split of w keeps are those a fresh split of the
        # normalized witness gives
        assert chain.rb2.u11 is chain.d.u11 and chain.rb2.v22 is chain.d.v22
        fresh = derive_uv_blocks(chain.wn, decompose_corners(read_back(chain.wn)))
        assert fresh.residuals == chain.rb2.residuals
        for name in ("u11", "u12", "u22", "v11", "v21", "v22",
                     "left_inv_v22", "right_inv_u22"):
            np.testing.assert_array_equal(getattr(fresh, name), getattr(chain.rb2, name))

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
        x = pinv(svd(w.F22)) @ w.Ehat21
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
        res = svd(wn.F22)
        r = res.rank()
        ker, h2 = res.right[:, r:], res.left[:, r:]
        p_ker = ker @ ker.conj().T
        p_h2 = h2 @ h2.conj().T
        assert spectral_norm(p_ker @ wn.E21 - wn.E21) <= 1e-10
        assert rel_residual(wn.F21, p_h2) <= 1e-10

    def test_preserves_corners(self):
        w = synthesized(3, 4, 2, seed=21)
        wn = normalize_adjoint(w)
        np.testing.assert_array_equal(w.E11, wn.E11)
        np.testing.assert_array_equal(w.F22, wn.F22)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 12), m=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_normalize_adjoint_keeps_f22_bits(data, n, m, seed):
    """normalize_adjoint reads the projections of the normalized witness from
    the input's SVD of F22, which is exact only if F22 keeps every bit."""
    k = data.draw(st.integers(0, min(n, m)), label="k")
    w = synthesized(n, m, k, seed=seed)
    assert normalize_adjoint(w).F22.tobytes() == w.F22.tobytes()


class TestCheckTwoSided:
    def test_worked_instance_trivial(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        residuals = check_two_sided(rb, 1e-12)
        assert max(residuals.values()) == 0.0  # zero-dimensional blocks

    def test_swap_witness(self):
        w = swap_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        residuals = check_two_sided(rb, 1e-12)
        assert max(residuals.values()) <= 1e-14

    def test_synthesized_after_normalization(self):
        w = normalize_adjoint(synthesized(3, 4, 2, seed=13))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        residuals = check_two_sided(rb, 1e-10)
        assert max(residuals.values()) <= 1e-10


class TestBuildSmallEae:
    def test_worked_instance_no_extension(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        small, _ = build_small_eae(w, d, rb)
        assert small.x0_dim == 0 and small.y0_dim == 0
        assert verify_eae(small, 1e-12).passed

    def test_swap_witness_identity_extension(self):
        n = 2
        w = swap_special(n)
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        small, _ = build_small_eae(w, d, rb)
        assert small.x0_dim == n and small.y0_dim == n
        assert verify_eae(small, 1e-12).passed

    def test_synthesized_dims(self):
        w = normalize_adjoint(synthesized(4, 6, 2, seed=17))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        small, _ = build_small_eae(w, d, rb)
        from opcoupling.numkernel import rank_of
        assert small.x0_dim == 6 - rank_of(w.E11)
        assert small.y0_dim == 4 - rank_of(w.F22)
        assert verify_eae(small, 1e-9).passed


class TestBuildEaoe:
    def test_worked_instance_plain_equivalence(self):
        w = worked_special()
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        eaoe, _ = build_eaoe(w, d, rb, build_small_eae(w, d, rb))
        assert eaoe.ext_dim == 0
        lhs = eaoe.E @ np.array([[0.5]]) @ eaoe.F
        np.testing.assert_allclose(lhs, [[1.0]], atol=1e-12)

    def test_extension_side_matches_index_sign(self):
        w = normalize_adjoint(synthesized(1, 2, 1))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        eaoe, _ = build_eaoe(w, d, rb, build_small_eae(w, d, rb))
        assert eaoe.extended_side == "U" and eaoe.ext_dim == 1
        assert fredholm_report(w).f22.index == 1
        assert verify_eaoe(eaoe, 1e-10).passed

    def test_v_side_extension(self):
        w = normalize_adjoint(synthesized(4, 2, 1, seed=3))
        d = decompose_corners(w)
        rb = derive_uv_blocks(w, d)
        eaoe, _ = build_eaoe(w, d, rb, build_small_eae(w, d, rb))
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

    def test_supplied_witness_of_wrong_shape_fails_its_stage(self):
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(np.eye(2), [[0.5]], w=worked_special())
        assert info.value.stage == "witness_consistency"
        assert str(info.value) == ("stage 'witness_consistency': residual of "
                                   "mismatched shapes (1, 1) vs (2, 2)")

    def test_unequal_corner_ranks_fail_their_stage(self):
        # F22 and E11 are both n x m, so their kernel and cokernel dimensions
        # disagree exactly when their ranks do
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        w = read_back(mc_to_eae_special(synth_mc(u, v)[0]))
        e11 = w.e11_svd
        vars(w)["e11_svd"] = dataclasses.replace(e11, rank_tol=e11.singulars[11])
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(u, v, w=w, tol=1e-8)
        assert info.value.stage == "decompose_corners"
        assert str(info.value) == (
            "stage 'decompose_corners': rank(E11)=11 differs from rank(F22)=12; "
            "the corner blocks of a genuine witness have equal rank")

    def test_failed_stage_carries_its_report(self):
        # synthesize_mc passes at 3.3e-15; the anchored witness's
        # extension equation reads 4.7e-15
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(u, v, tol=4e-15)
        assert info.value.stage == "mc_to_special"
        label, value = info.value.report.worst()
        assert label == "extension_equation" and value > 4e-15

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


def _count_calls(monkeypatch, counts, functions):
    """Rebind each of ``functions`` (label -> function), in every opcoupling
    namespace that holds it, to a wrapper that counts its calls."""
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "opcoupling" or name.startswith("opcoupling.")]
    for label, real in functions.items():

        def counting(*args, _real=real, _label=label, **kwargs):
            counts[_label] += 1
            return _real(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is real:
                    monkeypatch.setattr(ns, attr, counting)


@pytest.fixture
def work_counts(monkeypatch):
    """Counter of dense SVDs, of those among them that compute singular
    vectors, and of calls to each public verifier; ``counts.stages`` lists
    each recorded pipeline stage with the dense SVDs taken until then."""
    counts = Counter()
    counts.stages = []
    real_stage_result = reduction.StageResult

    def recording(name, *args, **kwargs):
        counts.stages.append((name, counts["svd"]))
        return real_stage_result(name, *args, **kwargs)

    monkeypatch.setattr(reduction, "StageResult", recording)
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        counts["full_svd"] += kwargs.get("compute_uv", True)
        return real_svd(*args, **kwargs)

    # np.linalg.norm(., 2) reaches the SVD through its own module's globals
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)
    _count_calls(monkeypatch, counts,
                 {kind: getattr(relations, f"verify_{kind}") for kind in _VERIFIER_KINDS})
    return counts


def test_pipeline_verifies_each_artifact_once(work_counts):
    """Deterministic work counts of one pipeline run at 12x14, nullity 2."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    assert run_pipeline(u, v, tol=1e-8).success
    # verify_mc, verify_eae and verify_sc; the one-sided collapse carries
    # the small witness's report
    assert sum(work_counts[k] for k in _VERIFIER_KINDS) == 3
    assert work_counts["eaoe"] == 0
    assert work_counts["eae_special"] == 0
    assert work_counts["svd"] == 40
    # one each of U, V, F22 and E11
    assert work_counts["full_svd"] == 4


def test_supplied_witness_pipeline_counts(work_counts):
    """The supplied-witness path records residuals only, so it takes no
    sigma_min SVDs of E and F and calls no public verifier for them.  A
    witness read from a file takes its anchored table in verify_special;
    the object mc_to_eae_special returned holds it already."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    mc, _ = synth_mc(u, v, 1e-8)
    w = mc_to_eae_special(mc, 1e-8)
    work_counts.clear()
    assert run_pipeline(u, v, w=read_back(w), tol=1e-8).success
    assert sum(work_counts[k] for k in _VERIFIER_KINDS) == 2
    assert work_counts["eae_special"] == 0
    assert work_counts["svd"] == 34
    # one each of F22 and E11
    assert work_counts["full_svd"] == 2
    work_counts.clear()
    assert run_pipeline(u, v, w=w, tol=1e-8).success
    assert work_counts["svd"] == 34 - 16


# the stages both paths share, with the dense SVDs each takes at 12x14
_SHARED_STAGE_SVDS = {
    "fredholm": 2,             # the cached full SVDs of F22 and E11
    "decompose_corners": 2,    # cond of f22' and e11'
    "derive_blocks": 3,        # v12's norm, the equivalence, v22's inverse; u21, u22 empty
    "normalize_adjoint": 0,    # settled by the certified Frobenius bound
    "rederive_blocks": 1,      # v22's inverse; the three others carried over
    "two_sided": 1,
    "small_eae": 4,            # cond of E and F, the extension equation and its norm
    "build_eaoe": 2,           # the two inverses the small witness lacks
    "schur_coupling": 3,       # cond of A (D is the identity), the two complements
}


@pytest.mark.parametrize("supplied", [False, True], ids=["synthesized", "supplied"])
def test_dense_svds_per_stage(work_counts, supplied):
    """Each stage's dense SVDs at 12x14, nullity 2, so that a change in the
    count names the stage it comes from."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    w = read_back(mc_to_eae_special(synth_mc(u, v, 1e-8)[0], 1e-8)) if supplied else None
    work_counts.clear()
    work_counts.stages.clear()
    run_pipeline(u, v, w=w, tol=1e-8)
    totals = [0] + [total for _, total in work_counts.stages]
    per_stage = {name: totals[i + 1] - totals[i]
                 for i, (name, _) in enumerate(work_counts.stages)}
    if supplied:
        # the anchored table's exact residuals; denominators of 1 are certified
        head = {"witness_consistency": 0, "verify_special": 16}
    else:
        # the full SVDs of U and V and the MC table; the anchored table is
        # taken in mc_to_special and recorded by verify_special
        head = {"synthesize_mc": 6, "mc_to_special": 16, "verify_special": 0}
    assert per_stage == {**head, **_SHARED_STAGE_SVDS}


def test_pipeline_calls_the_public_builders(monkeypatch):
    """run_pipeline reaches the synthesis, the anchored witness and the
    builders of its last three stages by their public names, once each, so a
    wrapper on those names sees every call."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    expected = dumps_canonical(pipeline_report_to_dict(run_pipeline(u, v, tol=1e-8)))
    counts = Counter()
    _count_calls(monkeypatch, counts, {
        "synth_mc": instances.synth_mc,
        "mc_to_eae_special": relations.mc_to_eae_special,
        "build_small_eae": reduction.build_small_eae,
        "build_eaoe": reduction.build_eaoe,
        "sc_from_eaoe": reduction.sc_from_eaoe,
    })
    report = run_pipeline(u, v, tol=1e-8)
    assert counts == {"synth_mc": 1, "mc_to_eae_special": 1, "build_small_eae": 1,
                      "build_eaoe": 1, "sc_from_eaoe": 1}
    assert dumps_canonical(pipeline_report_to_dict(report)) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 32), m=st.integers(0, 32),
       log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_synthesized_extension_is_one_sided_and_minimal(data, n, m, log_cond, seed):
    k = data.draw(st.integers(0, min(n, m)), label="k")
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    report = run_pipeline(u, v, tol=1e-8)
    swapped = run_pipeline(v, u, tol=1e-8)
    assert report.stage("synthesize_mc").data["cond_uhat"] == pytest.approx(
        np.linalg.cond(report.mc.Uhat) if n + m else 1.0, rel=1e-6)
    for r in (report, swapped):
        assert r.x0_dim * r.y0_dim == 0
        assert r.eaoe.ext_dim == abs(n - m)
    if n != m:
        assert {report.eaoe.extended_side, swapped.eaoe.extended_side} == {"U", "V"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 32), m=st.integers(0, 32),
       log_cond=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_two_sided_extensions_collapse_to_one_side(data, n, m, log_cond, seed):
    """A supplied witness coupling only r of the min(n, m) coordinates has
    extensions on both sides, which the pipeline embeds into one."""
    k = data.draw(st.integers(0, min(n, m)), label="k")
    r = data.draw(st.integers(k, min(n, m)), label="r")
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    report = run_pipeline(u, v, w=mc_to_eae_special(coupled_mc(u, v, r)), tol=1e-8)
    assert (report.x0_dim, report.y0_dim) == (m - r, n - r)
    assert report.eaoe.ext_dim == abs(n - m)
    if n != m:
        side = "U" if m > n else "V"
        assert report.eaoe.extended_side == report.fredholm.extension_side == side
    assert verify_sc(report.final_sc, 1e-8).passed
