import dataclasses
import inspect
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcoupling import instances, reduction, relations
from opcoupling.errors import (
    ConversionError,
    FeasibilityError,
    NumericalError,
    PipelineStageError,
)
from opcoupling.instances import InstanceSpec, random_instance, synth_mc
from opcoupling.numkernel import condition_number, rel_residual, svd
from opcoupling.reduction import (
    build_eaoe,
    build_small_eae,
    decompose_corners,
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


def fredholm_of(w):
    return run_pipeline(w.U, w.V, w=w, tol=1e-10).fredholm


class TestFredholmReport:
    def test_worked_instance_all_trivial(self):
        rep = fredholm_of(worked_special())
        for corner in (rep.f11, rep.f22, rep.e11, rep.ehat11):
            assert corner.index == 0
        assert rep.dim_h2 == rep.dim_g1 == 0 and rep.dim_ker_f22 == rep.dim_ker_e11 == 0

    def test_rectangular_indices(self):
        # U is 1x1 with nullity 1, V is 2x2 with nullity 1
        rep = fredholm_of(synthesized(1, 2, 1))
        assert rep.f22.index == 1      # dim Y - dim X
        assert rep.f11.index == -1
        assert rep.e11.index == 1 and rep.ehat11.index == -1

    def test_swap_witness_zero_indices(self):
        rep = fredholm_of(swap_special(3))
        assert rep.f22.index == 0
        assert rep.dim_ker_f22 == 3 and rep.dim_ker_e11 == 3
        assert rep.dim_h2 == rep.dim_g1 == 3


@pytest.mark.parametrize("n, m, r", [(3, 5, None), (6, 4, None), (12, 14, 7)],
                         ids=["synthesized_n<m", "synthesized_n>m", "two_sided"])
def test_indices_block_is_the_corner_ranks(n, m, r):
    """The report's ``indices`` block, built from the shapes and the
    extensions, equals what the ranks of the cached corner SVDs give; the
    two-sided witness has both x0 and y0 nonzero."""
    u, v = random_instance(InstanceSpec(n, m, 2, seed=9, cond_bound=100.0))
    mc = synth_mc(u, v)[0] if r is None else coupled_mc(u, v, r)
    w = mc_to_eae_special(mc)
    report = run_pipeline(u, v, w=read_back(w), tol=1e-8)
    rank_f22, rank_e11 = w.f22_svd.rank(), w.e11_svd.rank()
    assert pipeline_report_to_dict(report)["indices"] == {
        "f11": n - m, "f22": m - n, "e11": m - n, "ehat11": n - m,
        "dim_h2": n - rank_f22, "dim_g1": n - rank_e11,
        "dim_ker_f22": m - rank_f22, "dim_ker_e11": m - rank_e11,
    }
    if r is not None:
        assert (report.x0_dim, report.y0_dim) == (m - r, n - r)


def _complement_dims(d):
    """``(dim h2, dim g1, dim Ker F22, dim Ker E11)``: the columns of each
    SVD factor past the common rank."""
    r = d.rank
    return (d.f22.left.shape[1] - r, d.e11.left.shape[1] - r,
            d.f22.right.shape[1] - r, d.e11.right.shape[1] - r)


class TestDecomposeCorners:
    def test_worked_instance_trivial_complements(self):
        d, _ = decompose_corners(worked_special())
        assert d.rank == 1 and _complement_dims(d) == (0, 0, 0, 0)
        # invertible compressions are the nonzero scalars, up to basis phase
        assert abs(d.f22_prime[0, 0]) == pytest.approx(0.5)
        assert abs(d.e11_prime[0, 0]) == pytest.approx(1.0)

    def test_swap_witness_zero_corner(self):
        d, _ = decompose_corners(swap_special())
        assert d.rank == 0 and _complement_dims(d) == (1, 1, 1, 1)
        assert d.f22_prime.shape == (0, 0)

    def test_synthesized_kernel_dims_match(self):
        d, _ = decompose_corners(synthesized(2, 2, 1))
        h2, g1, ker_f22, ker_e11 = _complement_dims(d)
        assert ker_e11 == ker_f22
        assert h2 == g1

    def test_reads_the_cached_corner_svds(self):
        w = synthesized(3, 4, 2, seed=21)
        d, _ = decompose_corners(w)
        assert d.f22 is w.f22_svd and d.e11 is w.e11_svd
        assert d.rank == w.f22_svd.rank() == w.e11_svd.rank()

    @pytest.mark.parametrize("r", [None, 7], ids=["synthesized", "two_sided"])
    def test_primes_are_the_leading_blocks_of_the_compressions(self, r):
        # f22' and e11' are, bit for bit, the leading blocks of the corners'
        # full compressions, so the corner forms check only the rest
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        w = mc_to_eae_special(synth_mc(u, v)[0] if r is None else coupled_mc(u, v, r))
        rb, _ = decompose_corners(w)
        for res, block, prime in ((rb.f22, w.F22, rb.f22_prime),
                                  (rb.e11, w.E11, rb.e11_prime)):
            full = res.left.conj().T @ block @ res.right
            np.testing.assert_array_equal(prime, full[: rb.rank, : rb.rank])

    @pytest.mark.parametrize("r", [None, 7, 2], ids=["synthesized", "two_sided",
                                                     "rank_of_nullity"])
    @pytest.mark.parametrize("from_file", [False, True], ids=["built", "read_back"])
    def test_prime_conds_are_read_from_the_corner_svds(self, r, from_file):
        # sigma_1 / sigma_r of each corner's cached SVD, bit for bit; the
        # primes' own singular values agree with them up to rounding
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        w = mc_to_eae_special(synth_mc(u, v)[0] if r is None else coupled_mc(u, v, r))
        w = read_back(w) if from_file else w
        rb, report = decompose_corners(w)
        for label, res, prime in (("cond_f22_prime", w.f22_svd, rb.f22_prime),
                                  ("cond_e11_prime", w.e11_svd, rb.e11_prime)):
            s = res.singulars
            assert report.extras[label] == s[0] / s[rb.rank - 1]
            assert report.extras[label] == pytest.approx(condition_number(prime), rel=1e-12)

    def test_rank_zero_conds_are_one(self):
        _, report = decompose_corners(swap_special(2))
        assert report.extras == {"cond_f22_prime": 1.0, "cond_e11_prime": 1.0, "rank": 0}

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
        res = _block_form_residuals(w, decompose_corners(w)[0])
        worst = max(res, key=res.get)
        tol = 1e-16
        assert res[worst] > tol
        with pytest.raises(NumericalError) as info:
            decompose_corners(w, tol)
        assert str(info.value) == (f"decompose_corners failed verification: {worst} "
                                   f"residual {res[worst]:.3e} exceeds {tol:g}")

    def test_tol_at_the_exact_residual_passes(self):
        # the corner forms pass at their exact residual, so what fails there
        # is the blocks' table, checked after them; at its worst entry both pass
        w = synthesized(12, 14, 2, seed=1)
        rb, blocks = decompose_corners(w)
        with pytest.raises(ConversionError) as info:
            decompose_corners(w, max(_block_form_residuals(w, rb).values()))
        assert info.value.report.residuals == blocks.residuals
        d, _ = decompose_corners(w, max(blocks.residuals.values()))
        assert d.rank == d.f22.rank() == d.e11.rank()


@pytest.fixture(scope="module")
def chain():
    """The stage inputs of a 12x14, nullity-2 pipeline, built at the default
    tol; ``blocks`` is the report of the split ``rb``."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    mc, _ = synth_mc(u, v)
    w = mc_to_eae_special(mc)
    rb, blocks = decompose_corners(w)
    return SimpleNamespace(u=u, v=v, w=w, rb=rb, blocks=blocks)


def _residual_checks(c):
    """Each residual check by name: ``(what the message names, its exact
    residual table, a call that runs it at a given tol)``."""
    u_off = c.u + 1e-6
    # at tol 0 no entry is a certified bound
    table = verify_eae_special(c.w, 0.0).residuals
    built_small = build_small_eae(c.rb)
    small = built_small[0]
    eaoe, _ = build_eaoe(c.rb, built_small)
    return {
        "decompose_corners": ("decompose_corners", _block_form_residuals(c.w, c.rb),
                              lambda tol: decompose_corners(c.w, tol)),
        "reduced_blocks": ("decompose_corners", c.blocks.residuals,
                           lambda tol: decompose_corners(c.w, tol)),
        "build_small_eae": ("build_small_eae", verify_eae(small).residuals,
                            lambda tol: build_small_eae(c.rb, tol)),
        "build_eaoe": ("build_eaoe", verify_eaoe(eaoe).residuals,
                       lambda tol: build_eaoe(c.rb, built_small, tol)),
        "witness_u": ("anchored witness",
                      {"witness_u": rel_residual(c.w.U, u_off), "witness_v": 0.0, **table},
                      lambda tol: run_pipeline(u_off, c.v, w=c.w, tol=tol)),
        "verify_special": ("anchored witness",
                           {"witness_u": 0.0, "witness_v": 0.0, **table},
                           lambda tol: run_pipeline(c.u, c.v, w=c.w, tol=tol)),
    }


# the checks the supplied witness's one stage, verify_special, runs
_PIPELINE_CHECKS = ("witness_u", "verify_special")


@pytest.mark.parametrize("name", ["decompose_corners", "reduced_blocks",
                                  "build_small_eae", "build_eaoe", *_PIPELINE_CHECKS])
def test_failed_check_raises_one_way(chain, name):
    """Every residual check fails alike: a ConversionError (a NumericalError)
    carrying the table and naming its worst entry; a pipeline stage wraps it
    in a PipelineStageError that carries the same table.  The table's
    entries are the exact ones, except those it names as certified bounds,
    which lie between the exact entry and tol."""
    what, exact, run = _residual_checks(chain)[name]
    label = max(exact, key=exact.get)
    tol = exact[label] / 2
    assert tol > 0
    raised = ConversionError if name not in _PIPELINE_CHECKS else PipelineStageError
    with pytest.raises(raised) as info:
        run(tol)
    err = info.value
    if name in _PIPELINE_CHECKS:
        assert err.stage == "verify_special" and err.report is err.__cause__.report
        err = err.__cause__
    assert isinstance(err, ConversionError) and isinstance(err, NumericalError)
    assert list(err.report.residuals) == list(exact)
    for key, value in err.report.residuals.items():
        if key in err.report.certified:
            assert exact[key] <= value <= tol
        else:
            assert value == exact[key]
    assert str(err) == (f"{what} failed verification: {label} residual "
                        f"{exact[label]:.3e} exceeds {tol:g}")


def _u11_v11(rb):
    """The leading blocks of U and V in the split ``rb``, which only its
    coupled-equivalence residual reads."""
    r = rb.rank
    return (rb.e11.left[:, :r].conj().T @ rb.U @ rb.f22.left[:, :r],
            rb.e11.right[:, :r].conj().T @ rb.V @ rb.f22.right[:, :r])


class TestDeriveUvBlocks:
    """The blocks of U and V and their inverses that decompose_corners derives."""

    def test_carried_blocks_match_a_fresh_derivation(self, chain):
        # the blocks and residuals the split of w keeps are, bit for bit,
        # those a fresh split of w read back from its file gives
        fresh, blocks = decompose_corners(read_back(chain.w))
        assert (blocks.residuals, blocks.extras) == (chain.blocks.residuals,
                                                     chain.blocks.extras)
        for name in ("u12", "u22", "v21", "v22", "left_inv_v22", "right_inv_u22"):
            np.testing.assert_array_equal(getattr(fresh, name), getattr(chain.rb, name))

    def test_worked_instance_scalar_identity(self):
        rb, blocks = decompose_corners(worked_special())
        u11, v11 = _u11_v11(rb)
        assert abs(u11[0, 0]) == pytest.approx(1.0)
        assert abs(v11[0, 0]) == pytest.approx(0.5)
        # the coupled equivalence e11' v11 = -u11 f22'
        assert rel_residual(rb.e11_prime @ v11, -u11 @ rb.f22_prime) <= 1e-14
        assert blocks.residuals["equivalence_u11_v11"] <= 1e-14

    def test_swap_witness_degenerate_split(self):
        rb, _ = decompose_corners(swap_special())
        assert rb.rank == 0 and rb.u12.shape == (0, 1) and rb.v21.shape == (1, 0)
        assert rb.u22.shape == (1, 1) and rb.v22.shape == (1, 1)
        assert rel_residual(rb.left_inv_v22 @ rb.v22, np.eye(1)) <= 1e-14
        assert rel_residual(rb.u22 @ rb.right_inv_u22, np.eye(1)) <= 1e-14

    def test_synthesized_zero_blocks(self):
        _, blocks = decompose_corners(synthesized(3, 3, 1))
        assert blocks.residuals["zero_block_u21"] <= 1e-10
        assert blocks.residuals["zero_block_v12"] <= 1e-10

    def test_one_table_of_seven_entries(self, chain):
        assert list(chain.blocks.residuals) == [
            "zero_block_u21", "zero_block_v12", "equivalence_u11_v11",
            "left_inverse_v22", "right_inverse_u22",
            "v22_right_inverse", "u22_left_inverse",
        ]
        assert chain.blocks.extras == {
            "cond_f22_prime": pytest.approx(np.linalg.cond(chain.rb.f22_prime)),
            "cond_e11_prime": pytest.approx(np.linalg.cond(chain.rb.e11_prime)),
            "rank": chain.rb.rank,
        }


def _two_sided(w, tol):
    """The residuals of the inverses on the side the witness does not give."""
    _, blocks = decompose_corners(w, tol)
    return [blocks.residuals["v22_right_inverse"], blocks.residuals["u22_left_inverse"]]


class TestCheckTwoSided:
    def test_worked_instance_trivial(self):
        assert _two_sided(worked_special(), 1e-12) == [0.0, 0.0]  # zero-dimensional blocks

    def test_swap_witness(self):
        assert max(_two_sided(swap_special(), 1e-12)) <= 1e-14

    def test_synthesized_after_normalization(self):
        # the blocks of the witness as it is are those of its normalization
        # (see test_normalization_keeps_the_one_sided_inverses)
        assert max(_two_sided(synthesized(3, 4, 2, seed=13), 1e-10)) <= 1e-10


def sheared(w, y):
    """``w`` transformed by ``E -> [[I, 0], [y, I]] E`` and ``F -> F [[I, 0],
    [-y U, I]]``, which keeps every anchored pin for any m x n ``y``; the
    paper's normalization is this transform with ``y = pinv(F22) Ehat21``."""
    n, m = w.n, w.m

    def lower(block):
        out = np.eye(n + m, dtype=complex)
        out[n:, :n] = block
        return out

    return EAESpecialWitness(U=w.U, V=w.V, E=lower(y) @ w.E, F=w.F @ lower(-y @ w.U),
                             Einv=w.Einv @ lower(-y), Finv=lower(y @ w.U) @ w.Finv)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), coupled=st.booleans(), n=st.integers(1, 24),
       log_cond=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_normalization_keeps_the_one_sided_inverses(data, coupled, n, log_cond, seed):
    """The paper normalizes the witness, with ``X = pinv(F22) Ehat21``, to
    ``E21 + X E11`` and ``Ehat21 - F22 X`` before it shows the one-sided
    inverses two-sided.  In orthonormal splits the inverses read from the
    normalized blocks are those of the witness as it is, which is why the
    pipeline derives them once.  The inputs are two-sided ``coupled_mc``
    witnesses, and synthesized ones with n > m, whose F22 has a cokernel;
    both come out of ``mc_to_eae_special`` normalized up to rounding, so a
    random shear makes X nonzero."""
    m = data.draw(st.integers(0, 24 if coupled else n - 1), label="m")
    k = data.draw(st.integers(0, min(n, m)), label="k")
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    if coupled:
        mc = coupled_mc(u, v, data.draw(st.integers(k, min(n, m)), label="r"))
    else:
        mc, _ = synth_mc(u, v, 1e-8)
    rng = np.random.default_rng(seed)
    y = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * n)
    w = sheared(mc_to_eae_special(mc, 1e-8), y)
    rb, _ = decompose_corners(w, 1e-8)
    r = rb.rank
    f22, e11 = w.f22_svd, w.e11_svd
    x = (f22.right[:, :r] / f22.singulars[:r]) @ f22.left[:, :r].conj().T @ w.Ehat21
    e21, ehat21 = w.E21 + x @ w.E11, w.Ehat21 - w.F22 @ x
    left_inv = f22.right[:, r:].conj().T @ e21 @ e11.right[:, r:]
    right_inv = f22.left[:, r:].conj().T @ ehat21 @ e11.left[:, r:]
    assert rel_residual(left_inv, rb.left_inv_v22) <= 1e-13
    assert rel_residual(right_inv, rb.right_inv_u22) <= 1e-13


class TestBuildSmallEae:
    def test_worked_instance_no_extension(self):
        w = worked_special()
        rb, _ = decompose_corners(w)
        small, _ = build_small_eae(rb)
        assert small.x0_dim == 0 and small.y0_dim == 0
        assert verify_eae(small, 1e-12).passed

    def test_swap_witness_identity_extension(self):
        n = 2
        w = swap_special(n)
        rb, _ = decompose_corners(w)
        small, _ = build_small_eae(rb)
        assert small.x0_dim == n and small.y0_dim == n
        assert verify_eae(small, 1e-12).passed

    def test_synthesized_dims(self):
        w = synthesized(4, 6, 2, seed=17)
        rb, _ = decompose_corners(w)
        small, _ = build_small_eae(rb)
        from opcoupling.numkernel import rank_of
        assert small.x0_dim == 6 - rank_of(w.E11)
        assert small.y0_dim == 4 - rank_of(w.F22)
        assert verify_eae(small, 1e-9).passed


class TestBuildEaoe:
    def test_worked_instance_plain_equivalence(self):
        w = worked_special()
        rb, _ = decompose_corners(w)
        eaoe, _ = build_eaoe(rb, build_small_eae(rb))
        assert eaoe.ext_dim == 0
        lhs = eaoe.E @ np.array([[0.5]]) @ eaoe.F
        np.testing.assert_allclose(lhs, [[1.0]], atol=1e-12)

    def test_extension_side_matches_index_sign(self):
        w = synthesized(1, 2, 1)
        rb, _ = decompose_corners(w)
        eaoe, _ = build_eaoe(rb, build_small_eae(rb))
        assert eaoe.extended_side == "U" and eaoe.ext_dim == 1
        assert w.F22.shape[1] - w.F22.shape[0] == 1  # index(F22) > 0
        assert verify_eaoe(eaoe, 1e-10).passed

    def test_v_side_extension(self):
        w = synthesized(4, 2, 1, seed=3)
        rb, _ = decompose_corners(w)
        eaoe, _ = build_eaoe(rb, build_small_eae(rb))
        assert eaoe.extended_side == "V" and eaoe.ext_dim == 2
        assert verify_eaoe(eaoe, 1e-9).passed


    def test_two_sided_extensions_report_as_verify_eaoe(self):
        # both extensions nonzero: the embedded witness is checked by
        # verify_eaoe, so the report is the one it gives
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        w = mc_to_eae_special(coupled_mc(u, v, 7))
        rb, _ = decompose_corners(w)
        assert (rb.x0, rb.y0) == (7, 5)
        eaoe, report = build_eaoe(rb, build_small_eae(rb))
        assert eaoe.extended_side == "U" and eaoe.ext_dim == 2
        again = verify_eaoe(eaoe, 1e-8)
        assert (report.kind, report.residuals, report.extras) == (
            again.kind, again.residuals, again.extras)
        assert report.passed


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
        # a witness for another U fails its one stage, naming witness_u
        with pytest.raises(PipelineStageError) as info:
            run_pipeline([[2.0]], [[0.5]], w=worked_special())
        assert info.value.stage == "verify_special"
        assert info.value.report.worst() == ("witness_u", 0.5)
        assert str(info.value) == (
            "stage 'verify_special': anchored witness failed verification: "
            "witness_u residual 5.000e-01 exceeds 1e-08")

    def test_supplied_witness_of_wrong_shape_fails_its_stage(self):
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(np.eye(2), [[0.5]], w=worked_special())
        assert info.value.stage == "verify_special"
        assert str(info.value) == ("stage 'verify_special': residual of "
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
        # synthesize_mc passes at 3.3e-15 and mc_to_special, whose
        # f_times_finv reads 3.2e-15, too; the small witness's extension
        # equation reads 5.2e-15
        u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(u, v, tol=4e-15)
        assert info.value.stage == "small_eae"
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
        assert report.x0_dim == m - report.witness.e11_svd.rank()
        assert report.y0_dim == n - report.witness.f22_svd.rank()

    def test_stage_names_cover_the_chain(self):
        shared = ["decompose_corners", "small_eae", "build_eaoe", "schur_coupling"]
        for w, head in ((None, ["synthesize_mc", "mc_to_special"]),
                        (worked_special(), ["verify_special"])):
            report = run_pipeline([[1.0]], [[0.5]], w=w, tol=1e-10)
            assert list(report.stages) == head + shared
            # each stage records the table that verified its artifact
            assert all(s.residuals for s in report.stages.values())

    def test_supplied_witness_is_one_stage(self):
        # its residuals against the inputs, then its anchored table
        report = run_pipeline([[1.0]], [[0.5]], w=worked_special(), tol=1e-10)
        assert list(report.stages["verify_special"].residuals) == [
            "witness_u", "witness_v", *worked_special().residual_table(1e-10)]


@pytest.mark.parametrize("r", [None, 7], ids=["one_sided", "two_sided"])
def test_stage_data_is_the_verifiers_extras(r):
    """Each building stage records, bit for bit, the extras the verifier of
    its artifact gives, and the report writes every stage's extras as its
    data; the two-sided witness has both x0 and y0 nonzero."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    w = None if r is None else mc_to_eae_special(coupled_mc(u, v, r))
    report = run_pipeline(u, v, w=w, tol=1e-8)
    assert report.x0_dim * report.y0_dim == (0 if r is None else 7 * 5)
    stages = report.stages
    assert stages["small_eae"].extras == verify_eae(report.small_eae).extras
    assert stages["build_eaoe"].extras == verify_eaoe(report.eaoe).extras
    assert stages["schur_coupling"].extras == verify_sc(report.final_sc).extras
    if r is None:
        # the report mc_to_eae_special checked its witness by
        assert stages["mc_to_special"] == relations._anchored(report.mc, 1e-8)[1]
    data = {s["name"]: s["data"] for s in pipeline_report_to_dict(report)["stages"]}
    assert data == {name: s.extras for name, s in stages.items()}


_VERIFIER_KINDS = ("sc", "mc", "eae", "eae_special", "eaoe")


def _hook_calls(monkeypatch, functions, before):
    """Rebind each of ``functions`` (label -> function), in every opcoupling
    namespace that holds it, to a wrapper that calls ``before(label)`` first."""
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "opcoupling" or name.startswith("opcoupling.")]
    for label, real in functions.items():

        def hooked(*args, _real=real, _label=label, **kwargs):
            before(_label)
            return _real(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is real:
                    monkeypatch.setattr(ns, attr, hooked)


def _count_calls(monkeypatch, counts, functions):
    """Count the calls of each of ``functions`` in ``counts``, by label."""

    def count(label):
        counts[label] += 1

    _hook_calls(monkeypatch, functions, count)


# the step each pipeline stage calls, by stage name; a supplied witness's
# stage, verify_special, calls none
_STAGE_STEPS = {
    "synthesize_mc": instances.synth_mc,
    "mc_to_special": relations._anchored,
    "decompose_corners": reduction.decompose_corners,
    "small_eae": reduction.build_small_eae,
    "build_eaoe": reduction.build_eaoe,
    "schur_coupling": relations.sc_from_eaoe,
}


@pytest.fixture
def work_counts(monkeypatch):
    """Counter of dense SVDs, of those among them that compute singular
    vectors, and of calls to each public verifier; ``counts.stages`` lists
    each stage whose step was called, with the dense SVDs taken
    before the call."""
    counts = Counter()
    counts.stages = []
    _hook_calls(monkeypatch, _STAGE_STEPS,
                lambda name: counts.stages.append((name, counts["svd"])))
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
    # the 26x26 entries of the MC table and f_times_finv are certified
    assert work_counts["svd"] == 19
    # one each of U, V, F22 and E11
    assert work_counts["full_svd"] == 4


def test_supplied_witness_pipeline_counts(work_counts):
    """The supplied-witness path records the witness's anchored table and
    calls no public verifier for it.  A witness read from a file takes its
    anchored table in verify_special; the object mc_to_eae_special returned
    holds its f_times_finv already, a certified bound that took no SVD."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    mc, _ = synth_mc(u, v, 1e-8)
    w = mc_to_eae_special(mc, 1e-8)
    work_counts.clear()
    assert run_pipeline(u, v, w=read_back(w), tol=1e-8).success
    assert sum(work_counts[k] for k in _VERIFIER_KINDS) == 2
    assert work_counts["eae_special"] == 0
    # the anchored table's four 26x26 entries are certified
    assert work_counts["svd"] == 27
    # one each of F22 and E11
    assert work_counts["full_svd"] == 2
    work_counts.clear()
    assert run_pipeline(u, v, w=w, tol=1e-8).success
    assert work_counts["svd"] == 27


# the stages both paths share, with the dense SVDs each takes at 12x14
_SHARED_STAGE_SVDS = {
    # the cached full SVDs of F22 and E11, which give the conds of f22' and
    # e11'; v12's norm, the equivalence and v22's inverses (u21 and u22 are
    # empty)
    "decompose_corners": 6,
    "small_eae": 4,            # cond of E and F, the extension equation and its norm
    "build_eaoe": 2,           # the two inverses the small witness lacks
    "schur_coupling": 3,       # cond of A (D is the identity), the two complements
}


def _svds_per_stage(work_counts, u, v, w=None) -> dict[str, int]:
    """The dense SVDs each stage of ``run_pipeline(u, v, w=w)`` takes."""
    work_counts.clear()
    work_counts.stages.clear()
    run_pipeline(u, v, w=w, tol=1e-8)
    # a stage runs from its step's call to the next one's, or to the end;
    # the supplied witness's stage, which calls no step, from the start
    marks = ([("verify_special", 0)] if w is not None else []) + work_counts.stages
    ends = [start for _, start in marks[1:]] + [work_counts["svd"]]
    return {name: end - start for (name, start), end in zip(marks, ends)}


@pytest.mark.parametrize("supplied", [False, True], ids=["synthesized", "supplied"])
def test_dense_svds_per_stage(work_counts, supplied):
    """Each stage's dense SVDs at 12x14, nullity 2, so that a change in the
    count names the stage it comes from."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    w = read_back(mc_to_eae_special(synth_mc(u, v, 1e-8)[0], 1e-8)) if supplied else None
    per_stage = _svds_per_stage(work_counts, u, v, w)
    if supplied:
        # witness_u, witness_v and the anchored table's residuals below the
        # certificate's crossover; denominators of 1 are certified
        head = {"verify_special": 12}
    else:
        # the full SVDs of U and V and the MC table's two corners; its two
        # 26x26 entries, and f_times_finv, recorded after the cached MC
        # table, are certified
        head = {"synthesize_mc": 4, "mc_to_special": 0}
    assert per_stage == {**head, **_SHARED_STAGE_SVDS}


def test_dense_svds_per_stage_above_the_crossover(work_counts):
    """Each stage's dense SVDs at 64x70, nullity 6, where every residual
    whose smaller side reaches the certificate's crossover is a certified
    bound: what is left are the full SVDs of U, V, F22 and E11, the
    condition numbers, and the residuals of the 64x6 and 6x6 blocks."""
    u, v = random_instance(InstanceSpec(64, 70, 6, seed=1))
    assert _svds_per_stage(work_counts, u, v) == {
        "synthesize_mc": 2,        # the full SVDs of U and V
        "mc_to_special": 0,
        "decompose_corners": 5,    # F22, E11, v12 and v22's inverses
        "small_eae": 2,            # cond of E and F
        "build_eaoe": 0,
        "schur_coupling": 1,       # cond of A
    }


def test_pipeline_calls_the_public_builders(monkeypatch):
    """run_pipeline reaches the synthesis, the anchored witness's builder and
    the builders of its last three stages by their module names, once each,
    so a wrapper on those names sees every call."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    expected = dumps_canonical(pipeline_report_to_dict(run_pipeline(u, v, tol=1e-8)))
    counts = Counter()
    _count_calls(monkeypatch, counts, {
        "synth_mc": instances.synth_mc,
        "_anchored": relations._anchored,
        "build_small_eae": reduction.build_small_eae,
        "build_eaoe": reduction.build_eaoe,
        "sc_from_eaoe": reduction.sc_from_eaoe,
    })
    report = run_pipeline(u, v, tol=1e-8)
    assert counts == {"synth_mc": 1, "_anchored": 1, "build_small_eae": 1,
                      "build_eaoe": 1, "sc_from_eaoe": 1}
    assert dumps_canonical(pipeline_report_to_dict(report)) == expected


def test_anchored_stage_is_the_report_its_builder_returned(monkeypatch):
    """A synthesized pipeline builds its anchored witness once, and records
    as its mc_to_special stage the very report that build checked."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    returned = []
    real = relations._anchored

    def recording(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    for ns in (relations, reduction):
        monkeypatch.setattr(ns, "_anchored", recording)
    report = run_pipeline(u, v, tol=1e-8)
    ((witness, built),) = returned
    assert report.witness is witness
    assert report.stages["mc_to_special"] is built


def test_verify_eae_special_reads_the_anchored_table(work_counts):
    """verify_eae_special on a witness read from a file takes the dense SVDs
    of its twenty-entry table and no more: 12 at 12x14, nullity 2, where its
    four 26x26 entries are certified bounds."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    w = read_back(mc_to_eae_special(synth_mc(u, v, 1e-8)[0], 1e-8))
    work_counts.clear()
    report = verify_eae_special(w)
    assert work_counts["svd"] == 12
    assert report.residuals == dict(w.residual_table(1e-8)) and report.extras == {}


@pytest.mark.parametrize("path", ["synthesized", "supplied", "two_sided", "empty_u"])
def test_report_values_are_python_numbers(path):
    """Every residual and extra of every stage, and of each verifier on the
    run's artifacts, is a Python float or int, which the report writers
    hand to dumps_canonical as it is."""
    n, m, k = (0, 3, 0) if path == "empty_u" else (12, 14, 2)
    u, v = random_instance(InstanceSpec(n, m, k, seed=1))
    w = None
    if path == "supplied":
        w = read_back(mc_to_eae_special(synth_mc(u, v)[0]))
    elif path == "two_sided":
        w = mc_to_eae_special(coupled_mc(u, v, 7))
    report = run_pipeline(u, v, w=w, tol=1e-8)
    reports = [*report.stages.values(), verify_eae_special(report.witness),
               verify_eae(report.small_eae), verify_eaoe(report.eaoe),
               verify_sc(report.final_sc)]
    if report.mc is not None:
        reports.append(relations.verify_mc(report.mc))
    for rep in reports:
        for value in (*rep.residuals.values(), *rep.extras.values()):
            assert type(value) in (float, int), (rep.kind, value)


@st.composite
def _sizes_and_nullity(draw, top):
    n, m = draw(st.integers(0, top)), draw(st.integers(0, top))
    return n, m, draw(st.integers(0, min(n, m)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sizes=_sizes_and_nullity(12), log_cond=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
@example(sizes=(0, 0, 0), log_cond=0.0, seed=0)
@example(sizes=(3, 9, 0), log_cond=2.0, seed=1)
@example(sizes=(12, 5, 5), log_cond=3.0, seed=2)
@example(sizes=(7, 7, 3), log_cond=4.0, seed=3)
def test_synth_mc_matches_the_dense_triple_product(sizes, log_cond, seed):
    """synth_mc's gathered columns and half-size products give the coupling
    the dense ``diag(.) @ C @ diag(.)`` of coupled_mc gives, with every
    nullity from 0 to all, and the same nullity and cond_uhat."""
    n, m, k = sizes
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    mc, report = synth_mc(u, v)
    dense = coupled_mc(u, v, min(n, m))
    assert rel_residual(mc.Uhat, dense.Uhat) <= 1e-14
    assert rel_residual(mc.UhatInv, dense.UhatInv) <= 1e-14
    assert report.extras["nullity"] == k
    # cond(Uhat) = cond(C), the factors around C being unitary
    sigma = np.linalg.svd(dense.Uhat, compute_uv=False) if n + m else np.ones(1)
    assert report.extras["cond_uhat"] == pytest.approx(sigma[0] / sigma[-1], rel=1e-9)


@pytest.mark.parametrize("scale", [1e-310, 1e-315])
def test_overflowing_core_entry_fails_the_synthesis(scale):
    """A pair scaled so far down that ``1/r`` of V's leading singular value
    overflows fails at synthesize_mc, naming the entry and the value, and
    makes no product: no RuntimeWarning (an error in tier-1) is raised."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(u * scale, v * scale, tol=1e-8)
    assert info.value.stage == "synthesize_mc"
    message = str(info.value)
    assert message.startswith("stage 'synthesize_mc': synth_mc: the core entry 1/r "
                              "overflows, from the leading singular value r = ")
    assert message.endswith(" of V; the scale of U and V is beyond what the core "
                            "can represent")
    r_lead = np.linalg.svd(v * scale, compute_uv=False)[0]
    assert f"r = {r_lead:.3e} of V" in message


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 32), m=st.integers(0, 32),
       log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_synthesized_extension_is_one_sided_and_minimal(data, n, m, log_cond, seed):
    k = data.draw(st.integers(0, min(n, m)), label="k")
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    report = run_pipeline(u, v, tol=1e-8)
    swapped = run_pipeline(v, u, tol=1e-8)
    assert report.stages["synthesize_mc"].extras["cond_uhat"] == pytest.approx(
        np.linalg.cond(report.mc.Uhat) if n + m else 1.0, rel=1e-6)
    for r in (report, swapped):
        assert r.x0_dim * r.y0_dim == 0
        assert r.eaoe.ext_dim == abs(n - m)
    if n != m:
        assert {report.eaoe.extended_side, swapped.eaoe.extended_side} == {"U", "V"}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), order=st.sampled_from(["n<m", "n=m", "n>m"]),
       source=st.sampled_from(["synth_mc", "coupled_mc", "sc_to_mc"]),
       log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_built_witness_is_within_its_anchored_bound(data, order, source, log_cond, seed):
    """Every entry of the full anchored table of a witness built from a
    coupling is at most the ``anchored_bound`` of the report it was verified
    by, and that report's f_times_finv is the full table's, bit for bit."""
    small = data.draw(st.integers(0, 32 if order == "n=m" else 31), label="small")
    large = small if order == "n=m" else data.draw(st.integers(small + 1, 32), label="large")
    n, m = (large, small) if order == "n>m" else (small, large)
    k = data.draw(st.integers(0, min(n, m)), label="k")
    cond = 10.0 ** log_cond
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=cond))
    if source == "synth_mc":
        mc = synth_mc(u, v)[0]
    elif source == "coupled_mc":
        mc = coupled_mc(u, v, data.draw(st.integers(k, min(n, m)), label="r"))
    else:
        mc = relations.sc_to_mc(instances.random_sc_witness(n, m, cond, seed), 1.0)
    # tol 1: the bound holds whether or not the entries pass a tolerance
    w, built = relations._anchored(mc, 1.0)
    table = read_back(w).residual_table(1.0)
    assert built.residuals["f_times_finv"] == table["f_times_finv"]
    assert list(built.residuals) == ["uhat_inverse", "uhat_inverse_left", "corner_u",
                                     "corner_v", "f_times_finv"]
    assert max(table.values()) <= built.extras["anchored_bound"]


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
        assert report.eaoe.extended_side == side
    assert verify_sc(report.final_sc, 1e-8).passed
