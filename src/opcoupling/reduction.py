"""Reduction of an anchored EAE witness to small extensions, EAOE and SC.

Starting from an :class:`~opcoupling.relations.EAESpecialWitness` for
``U`` (n x n) and ``V`` (m x m), the pipeline:

1. splits the corners ``F22, E11 : Y -> X`` along orthonormal bases of their
   kernels/ranges and complements, so each becomes ``[[prime, 0], [0, 0]]``
   with an invertible leading block (:func:`decompose_corners`), from the
   one full SVD of each that the witness caches (``f22_svd``, ``e11_svd``);
2. expresses ``U`` and ``V`` in those bases, where they are block triangular
   with ``E11' V11 = -U11 F22'`` and explicit one-sided inverses for the
   corner blocks ``U22, V22`` (:func:`derive_uv_blocks`);
3. rewrites the witness with ``X = pinv(F22) @ Ehat21`` so that ``E21`` maps
   into Ker F22 and ``F21`` becomes the projection onto the cokernel of
   ``F22`` (:func:`normalize_adjoint`), after which the one-sided inverses
   are two-sided (:func:`check_two_sided`);
4. assembles an EAE witness whose extensions are only ``Ker E11`` and the
   cokernel of ``F22`` (:func:`build_small_eae`), collapses it to a single
   one-sided extension of size ``|dim Ker E11 - dim coker F22|``
   (:func:`build_eaoe`), and closes the loop with a Schur coupling
   (:func:`~opcoupling.relations.sc_from_eaoe`).

:func:`run_pipeline` chains all steps as named stages of one runner.  The
runner calls a stage, records its residual table and data as a
:class:`StageResult`, and turns any
:class:`~opcoupling.errors.ToolkitError` the stage raises into a
:class:`~opcoupling.errors.PipelineStageError` naming it.  Every step checks
its residual table against ``tol`` through
:func:`~opcoupling.relations._checked`, so a failed step raises
:class:`~opcoupling.errors.ConversionError` naming the worst entry, with the
table attached; the runner passes that table on as the stage error's
``report``.  The three builders of step 4 return their witness together
with that table, which the runner records as the stage's residuals.  A
value several stages read is cached by the object whose inputs fix it, so
the runner passes objects and checks nothing of its own.
In this finite-dimensional setting two square matrices admit such a chain
exactly when their nullities agree; without a supplied witness
:func:`~opcoupling.instances.synth_mc` decides that, and the runner passes
its :class:`~opcoupling.errors.FeasibilityError` on unwrapped.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .blockops import Block2x2
from .errors import (
    FeasibilityError,
    NumericalError,
    PipelineStageError,
    ShapeError,
    ToolkitError,
)
from .numkernel import (
    SvdResult,
    _norm_at_least_one,
    adjoint,
    as_matrix,
    eye,
    inverse,
    pinv,
    rel_residual,
    spectral_norm,
    zeros,
)
from .relations import (
    DEFAULT_TOL,
    EAESpecialWitness,
    EAEWitness,
    EAOEWitness,
    MCWitness,
    SCWitness,
    VerifierReport,
    _checked,
    _checked_pairs,
    _direct_sum,
    _inverse_residuals,
    _special_pairs,
    mc_to_eae_special,
    sc_from_eaoe,
    verify_eae,
    verify_eaoe,
)
from . import instances


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class CornerDecomposition:
    """Orthonormal splittings of the corners F22 and E11 (both Y -> X).

    ``f22`` and ``e11`` are the full SVDs the witness caches and ``rank``
    their common rank.  Their factors split at ``rank`` into X = im_f22 (+) h2
    = im_e11 (+) g1 (``left``) and Y = k2 (+) ker_f22 = f1 (+) ker_e11
    (``right``).  In these bases the corners are ``[[f22_prime, 0], [0, 0]]``
    and ``[[e11_prime, 0], [0, 0]]`` with invertible leading blocks whose
    inverses and condition numbers are recorded.  The compressions of the
    witness's ``U`` and ``V`` to these bases, ``u11`` .. ``v22``, and their
    ``block_residuals`` are computed on first use and kept.
    """

    U: np.ndarray
    V: np.ndarray
    f22: SvdResult
    e11: SvdResult
    rank: int
    f22_prime: np.ndarray
    f22_prime_inv: np.ndarray
    e11_prime: np.ndarray
    e11_prime_inv: np.ndarray
    cond_f22_prime: float
    cond_e11_prime: float

    # the subspaces of the splits above, as orthonormal bases
    im_f22 = property(lambda self: self.f22.left[:, : self.rank])
    h2 = property(lambda self: self.f22.left[:, self.rank:])
    k2 = property(lambda self: self.f22.right[:, : self.rank])
    ker_f22 = property(lambda self: self.f22.right[:, self.rank:])
    im_e11 = property(lambda self: self.e11.left[:, : self.rank])
    g1 = property(lambda self: self.e11.left[:, self.rank:])
    f1 = property(lambda self: self.e11.right[:, : self.rank])
    ker_e11 = property(lambda self: self.e11.right[:, self.rank:])
    # the compressions of U and V to them
    u11 = cached_property(lambda self: _coords(self.im_e11, self.U, self.im_f22))
    u12 = cached_property(lambda self: _coords(self.im_e11, self.U, self.h2))
    u22 = cached_property(lambda self: _coords(self.g1, self.U, self.h2))
    v11 = cached_property(lambda self: _coords(self.f1, self.V, self.k2))
    v21 = cached_property(lambda self: _coords(self.ker_e11, self.V, self.k2))
    v22 = cached_property(lambda self: _coords(self.ker_e11, self.V, self.ker_f22))

    @cached_property
    def block_residuals(self) -> Mapping[str, float]:
        """Residuals of the blocks the triangular forms suppress and of
        ``e11' v11 = -u11 f22'``; read-only, so every table holds a copy."""
        return MappingProxyType({
            "zero_block_u21": (spectral_norm(_coords(self.g1, self.U, self.im_f22))
                               / _norm_at_least_one(self.U)),
            "zero_block_v12": (spectral_norm(_coords(self.f1, self.V, self.ker_f22))
                               / _norm_at_least_one(self.V)),
            "equivalence_u11_v11": rel_residual(self.e11_prime @ self.v11,
                                                -self.u11 @ self.f22_prime),
        })


@dataclass(frozen=True)
class ReducedBlocks:
    """U and V written in the decomposition bases.

    ``U`` on (im_f22 (+) h2) -> (im_e11 (+) g1) is upper block triangular,
    ``V`` on (k2 (+) ker_f22) -> (f1 (+) ker_e11) lower block triangular.
    ``left_inv_v22 @ v22`` and ``u22 @ right_inv_u22`` are identities; the
    residuals of the suppressed blocks and of ``e11' v11 = -u11 f22'`` are
    kept for reporting.
    """

    u11: np.ndarray
    u12: np.ndarray
    u22: np.ndarray
    v11: np.ndarray
    v21: np.ndarray
    v22: np.ndarray
    left_inv_v22: np.ndarray
    right_inv_u22: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CornerIndex:
    """Index ``cols - rows`` of a corner block, whatever its rank."""

    index: int


@dataclass(frozen=True)
class CornerFredholm:
    """Rank data of one corner block, with index = kernel - cokernel."""

    rank: int
    kernel_dim: int
    cokernel_dim: int
    index: int


@dataclass(frozen=True)
class FredholmReport:
    """Index bookkeeping for the four corner blocks, and rank data for the
    two whose SVDs the witness caches."""

    f11: CornerIndex
    f22: CornerFredholm
    e11: CornerFredholm
    ehat11: CornerIndex
    dim_h2: int
    dim_g1: int
    dim_ker_f22: int
    dim_ker_e11: int
    extension_side: str  # "U" if index(F22) > 0, "V" if < 0, else "none"


@dataclass(frozen=True)
class StageResult:
    name: str
    residuals: dict[str, float]
    data: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


@dataclass(frozen=True)
class PipelineReport:
    """Stage-by-stage record of one full reduction run."""

    U: np.ndarray
    V: np.ndarray
    tol: float
    stages: tuple[StageResult, ...]
    witness: EAESpecialWitness
    normalized_witness: EAESpecialWitness
    mc: MCWitness | None
    fredholm: FredholmReport
    x0_dim: int
    y0_dim: int
    small_eae: EAEWitness
    eaoe: EAOEWitness
    final_sc: SCWitness
    success: bool

    @property
    def max_residual(self) -> float:
        return max((s.max_residual for s in self.stages), default=0.0)

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


# ---------------------------------------------------------------------------
# helpers


def _coords(left_basis: np.ndarray, op: np.ndarray, right_basis: np.ndarray) -> np.ndarray:
    """Compression ``left* @ op @ right`` of an operator to subspace bases."""
    return adjoint(left_basis) @ op @ right_basis


# ---------------------------------------------------------------------------
# operations


def fredholm_report(w: EAESpecialWitness) -> FredholmReport:
    """Index bookkeeping for F11, F22, E11 and Ehat11, rank data for F22, E11.

    A corner's index is ``cols - rows`` whatever its rank, so the block
    shapes :class:`~opcoupling.relations.EAESpecialWitness` fixes give the
    identities ``index(F11) = -index(F22)`` and ``index(E11) = -index(Ehat11)``
    by construction, and F11 and Ehat11 are not factored.  The ranks of F22
    and E11 are read from the witness's cached SVDs of them.  Both corners
    are n x m, so the kernel/cokernel dimension equalities ``dim h2 = dim
    g1`` and ``dim ker F22 = dim ker E11`` of a genuine witness hold exactly
    when the ranks agree, which :func:`decompose_corners` checks.  The sign
    of ``index(F22)`` dictates which operator the one-sided extension lands
    on: positive means ``U``.
    """
    def corner(block: np.ndarray, r: int) -> CornerFredholm:
        rows, cols = block.shape
        return CornerFredholm(rank=r, kernel_dim=cols - r,
                              cokernel_dim=rows - r, index=(cols - r) - (rows - r))

    def index(block: np.ndarray) -> CornerIndex:
        rows, cols = block.shape
        return CornerIndex(index=cols - rows)

    f22 = corner(w.F22, w.f22_svd.rank())
    e11 = corner(w.E11, w.e11_svd.rank())
    side = "U" if f22.index > 0 else ("V" if f22.index < 0 else "none")
    return FredholmReport(
        f11=index(w.F11), f22=f22, e11=e11, ehat11=index(w.Ehat11),
        dim_h2=f22.cokernel_dim, dim_g1=e11.cokernel_dim,
        dim_ker_f22=f22.kernel_dim, dim_ker_e11=e11.kernel_dim,
        extension_side=side,
    )


def decompose_corners(w: EAESpecialWitness, tol: float = DEFAULT_TOL) -> CornerDecomposition:
    """Split F22 and E11 along orthonormal kernel/range bases.

    Returns the witness's cached SVDs of both corners and their common rank,
    together with the invertible compressions ``f22_prime`` and
    ``e11_prime`` and their inverses, computed once here for the builders;
    the block forms ``f22`` and ``e11`` are re-verified to ``tol`` before
    returning.

    Raises
    ------
    NumericalError
        If the two corners differ in rank, which a genuine witness rules out.
    """
    f22, e11 = w.f22_svd, w.e11_svd
    r = f22.rank()
    if e11.rank() != r:
        raise NumericalError(
            f"rank(E11)={e11.rank()} differs from rank(F22)={r}; "
            "the corner blocks of a genuine witness have equal rank"
        )

    f22_prime = _coords(f22.left[:, :r], w.F22, f22.right[:, :r])
    e11_prime = _coords(e11.left[:, :r], w.E11, e11.right[:, :r])
    f22_prime_inv, cond_f = inverse(f22_prime)
    e11_prime_inv, cond_e = inverse(e11_prime)
    d = CornerDecomposition(
        U=w.U, V=w.V, f22=f22, e11=e11, rank=r,
        f22_prime=f22_prime, f22_prime_inv=f22_prime_inv,
        e11_prime=e11_prime, e11_prime_inv=e11_prime_inv,
        cond_f22_prime=cond_f, cond_e11_prime=cond_e,
    )

    def pairs():
        for label, res, block, prime in (("f22", f22, w.F22, f22_prime),
                                         ("e11", e11, w.E11, e11_prime)):
            in_coords = _coords(res.left, block, res.right)
            target = zeros(*in_coords.shape)
            target[: prime.shape[0], : prime.shape[1]] = prime
            yield label, (in_coords, target)

    _checked_pairs("corner_forms", pairs, tol, "decompose_corners")
    return d


def derive_uv_blocks(w: EAESpecialWitness, d: CornerDecomposition,
                     tol: float = DEFAULT_TOL) -> ReducedBlocks:
    """Read the blocks of U and V from ``d``; derive the one-sided inverses
    of their corner blocks from ``w``.  ``d`` keeps the compressions

        U : (im_f22 (+) h2) -> (im_e11 (+) g1)   upper block triangular,
        V : (k2 (+) ker_f22) -> (f1 (+) ker_e11) lower block triangular,

    with ``e11' @ v11 = -u11 @ f22'``.  The one-sided inverses
    ``left_inv_v22 = Pi_ker_f22 @ E21 @ J_ker_e11`` (a left inverse of v22)
    and ``right_inv_u22 = Pi_h2 @ Ehat21 @ J_g1`` (a right inverse of u22)
    are computed from the blocks of ``w``, not by inverting anything; ``w``
    has the ``U``, ``V``, ``E11`` and ``F22`` that ``d`` split.  The residual
    table, ``d``'s three entries then the two inverses', fails when the
    witness is not a genuine anchored one.
    """
    left_inv_v22 = _coords(d.ker_f22, w.E21, d.ker_e11)
    right_inv_u22 = _coords(d.h2, w.Ehat21, d.g1)
    residuals = {
        **d.block_residuals,
        "left_inverse_v22": rel_residual(left_inv_v22 @ d.v22, eye(d.v22.shape[1])),
        "right_inverse_u22": rel_residual(d.u22 @ right_inv_u22, eye(d.u22.shape[0])),
    }
    _checked(VerifierReport("reduced_blocks", residuals, tol), "derive_uv_blocks")
    return ReducedBlocks(u11=d.u11, u12=d.u12, u22=d.u22, v11=d.v11, v21=d.v21,
                         v22=d.v22, left_inv_v22=left_inv_v22,
                         right_inv_u22=right_inv_u22, residuals=residuals)


def normalize_adjoint(w: EAESpecialWitness, tol: float = DEFAULT_TOL) -> EAESpecialWitness:
    """Rewrite the witness so E21 maps into Ker F22 and F21 projects onto h2.

    With ``X = pinv(F22) @ Ehat21`` the transformed pair

        E~ = [[I, 0], [X, I]] @ E        F~ = F @ [[I, 0], [-X U, I]]

    establishes the same extension equivalence, leaves ``E11`` and ``F22``
    (hence the corner decomposition) untouched, and afterwards satisfies
    ``P_ker_f22 @ E21 = E21`` and ``F21 = P_h2``.  ``pinv(F22)`` and both
    projections come from ``w.f22_svd``.  Applying the transform to an
    already-normalized witness yields ``X = 0``, so the operation is
    idempotent.  All four stored matrices are transformed in closed form.
    """
    n, m = w.n, w.m
    x = pinv(w.f22_svd) @ w.Ehat21

    t = Block2x2(eye(n), zeros(n, m), x, eye(m)).assemble()
    t_inv = Block2x2(eye(n), zeros(n, m), -x, eye(m)).assemble()
    s = Block2x2(eye(n), zeros(n, m), -x @ w.U, eye(m)).assemble()
    s_inv = Block2x2(eye(n), zeros(n, m), x @ w.U, eye(m)).assemble()

    wn = EAESpecialWitness(U=w.U, V=w.V, E=t @ w.E, F=w.F @ s,
                           Einv=w.Einv @ t_inv, Finv=s_inv @ w.Finv)

    # F @ s leaves F's last column block, and so F22, bit for bit as it
    # was: that block of s is [[0], [I]], whose products and sums are exact
    r = w.f22_svd.rank()
    ker_f22, h2 = w.f22_svd.right[:, r:], w.f22_svd.left[:, r:]
    p_ker = ker_f22 @ adjoint(ker_f22)
    p_h2 = h2 @ adjoint(h2)

    def pairs():
        yield "e21_into_ker_f22", (p_ker @ wn.E21, wn.E21)
        yield "f21_is_p_h2", (wn.F21, p_h2)
        yield from _special_pairs(wn)

    _checked_pairs("normalization", pairs, tol, "normalize_adjoint")
    return wn


def check_two_sided(rb: ReducedBlocks, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Certify that the one-sided inverses of v22 and u22 are two-sided.

    Expects blocks derived from a witness normalized by
    :func:`normalize_adjoint`; then
    ``v22 @ left_inv_v22`` and ``right_inv_u22 @ u22`` are identities as
    well, so both corner blocks are invertible with known inverses.

    Returns the two residuals.
    """
    dim_ker_e11 = rb.v22.shape[0]
    dim_h2 = rb.u22.shape[1]
    residuals = {
        "v22_right_inverse": rel_residual(rb.v22 @ rb.left_inv_v22, eye(dim_ker_e11)),
        "u22_left_inverse": rel_residual(rb.right_inv_u22 @ rb.u22, eye(dim_h2)),
    }
    report = VerifierReport("two_sided", residuals, tol)
    return _checked(report, "check_two_sided").residuals


def _phi_u(rb: ReducedBlocks, r: int) -> np.ndarray:
    """Invertible factor [[I, u12], [0, u22]] of U in the reduction bases."""
    y0 = rb.u22.shape[0]
    return Block2x2(eye(r), rb.u12, zeros(y0, r), rb.u22).assemble()


def _phi_u_inv(rb: ReducedBlocks, r: int) -> np.ndarray:
    y0 = rb.u22.shape[0]
    u22_inv = rb.right_inv_u22
    return Block2x2(eye(r), -rb.u12 @ u22_inv, zeros(y0, r), u22_inv).assemble()


def _psi_v(rb: ReducedBlocks, r: int) -> np.ndarray:
    """Invertible factor [[I, 0], [v21, v22]] of V in the reduction bases."""
    x0 = rb.v22.shape[0]
    return Block2x2(eye(r), zeros(r, x0), rb.v21, rb.v22).assemble()


def _psi_v_inv(rb: ReducedBlocks, r: int) -> np.ndarray:
    x0 = rb.v22.shape[0]
    v22_inv = rb.left_inv_v22
    return Block2x2(eye(r), zeros(r, x0), -v22_inv @ rb.v21, v22_inv).assemble()


def build_small_eae(w: EAESpecialWitness, d: CornerDecomposition, rb: ReducedBlocks,
                    tol: float = DEFAULT_TOL) -> tuple[EAEWitness, VerifierReport]:
    """EAE witness with extensions Ker E11 (on the U side) and h2 (on V's),
    with the report it was verified by.

    Factor ``U = Phi_U @ (u11 (+) I)`` and ``V = (v11 (+) I) @ Psi_V`` with
    the invertible triangular factors from :func:`derive_uv_blocks`; the
    three-fold block identity

        u11 (+) I_h2 (+) I_ker_e11
          = [e11' (+) swap] @ (v11 (+) I) @ [-(f22')^-1 (+) swap]

    then glues everything into ``U (+) I_x0 = E (V (+) I_y0) F`` with
    ``x0 = dim Ker E11`` and ``y0 = dim h2``.  Requires invertible corner
    blocks, i.e. :func:`check_two_sided` must have passed.
    """
    r = d.rank
    x0, y0 = w.m - r, w.n - r
    w_dom_u, w_cod_u, w_dom_v, w_cod_v = d.f22.left, d.e11.left, d.f22.right, d.e11.right

    swap_l = Block2x2(zeros(y0, x0), eye(y0), eye(x0), zeros(x0, y0)).assemble()
    l3 = Block2x2(d.e11_prime, zeros(r, x0 + y0), zeros(y0 + x0, r), swap_l).assemble()
    swap_r = Block2x2(zeros(x0, y0), eye(x0), eye(y0), zeros(y0, x0)).assemble()
    r3 = Block2x2(-d.f22_prime_inv, zeros(r, y0 + x0), zeros(x0 + y0, r), swap_r).assemble()

    e = (_direct_sum(w_cod_u, x0) @ _direct_sum(_phi_u(rb, r), x0)
         @ l3 @ _direct_sum(adjoint(w_cod_v), y0))
    f = (_direct_sum(w_dom_v, y0) @ _direct_sum(_psi_v_inv(rb, r), y0)
         @ r3 @ _direct_sum(adjoint(w_dom_u), x0))

    witness = EAEWitness(U=w.U, V=w.V, E=e, F=f, x0_dim=x0, y0_dim=y0)
    return witness, _checked(verify_eae(witness, tol), "build_small_eae")


def build_eaoe(w: EAESpecialWitness, d: CornerDecomposition, rb: ReducedBlocks,
               small: tuple[EAEWitness, VerifierReport],
               tol: float = DEFAULT_TOL) -> tuple[EAOEWitness, VerifierReport]:
    """Collapse the two small extensions into one one-sided extension, and
    return it with the report it was verified by.

    ``small`` is the witness :func:`build_small_eae` built from the same
    ``w``, ``d`` and ``rb``, with its report.  The smaller extension space is
    embedded into the larger one by the first-coordinates isometry (in the
    decomposition bases the embedding, its left inverse, and the complement
    bookkeeping all become identity blocks), which turns the two-sided
    extension into a one-sided extension of dimension ``|x0 - y0|``.  The
    extension lands on ``U`` when ``dim Ker E11 >= dim h2``, i.e. exactly
    when ``index(F22) >= 0``.  When one extension is already trivial
    (``x0 * y0 == 0``) the embedding gives the small witness's E and F bit
    for bit, so they are taken from it together with its extension residual
    and conditions, and only the inverses it does not carry are checked.
    """
    r = d.rank
    x0, y0 = w.m - r, w.n - r
    w_dom_u, w_cod_u, w_dom_v, w_cod_v = d.f22.left, d.e11.left, d.f22.right, d.e11.right
    phi_u_inv, psi_v = _phi_u_inv(rb, r), _psi_v(rb, r)

    # the larger extension meets e11' and f22'; the smaller side's factors
    # are padded by the difference, a padding of 0 leaving them as they are
    ext, big = abs(x0 - y0), max(x0, y0)
    side, pad_u, pad_v = ("U", ext, 0) if y0 <= x0 else ("V", 0, ext)
    e_inv = (_direct_sum(w_cod_v, pad_v) @ _direct_sum(d.e11_prime_inv, big)
             @ _direct_sum(phi_u_inv, pad_u) @ _direct_sum(adjoint(w_cod_u), pad_u))
    f_inv = (_direct_sum(w_dom_u, pad_u) @ _direct_sum(-d.f22_prime, big)
             @ _direct_sum(psi_v, pad_v) @ _direct_sum(adjoint(w_dom_v), pad_v))
    if x0 * y0:
        e = (_direct_sum(w_cod_u, pad_u) @ _direct_sum(_phi_u(rb, r), pad_u)
             @ _direct_sum(d.e11_prime, big) @ _direct_sum(adjoint(w_cod_v), pad_v))
        f = (_direct_sum(w_dom_v, pad_v) @ _direct_sum(_psi_v_inv(rb, r), pad_v)
             @ _direct_sum(-d.f22_prime_inv, big) @ _direct_sum(adjoint(w_dom_u), pad_u))
        witness = EAOEWitness(extended_side=side, ext_dim=ext, E=e, F=f,
                              U=w.U, V=w.V, Einv=e_inv, Finv=f_inv)
        return witness, _checked(verify_eaoe(witness, tol), "build_eaoe")

    eae, eae_report = small
    witness = EAOEWitness(extended_side=side, ext_dim=ext, E=eae.E, F=eae.F,
                          U=w.U, V=w.V, Einv=e_inv, Finv=f_inv)
    residuals = {"extension_equation": eae_report.residuals["extension_equation"],
                 **_inverse_residuals(witness)}
    report = VerifierReport("eaoe", residuals, tol, dict(eae_report.extras))
    return witness, _checked(report, "build_eaoe")


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(U, V, w: EAESpecialWitness | None = None,
                 tol: float = DEFAULT_TOL) -> PipelineReport:
    """Full reduction from (U, V) to small EAE, EAOE and Schur coupling.

    When no witness is supplied one is synthesized, which requires
    ``nullity(U) == nullity(V)``; a mismatch raises
    :class:`~opcoupling.errors.FeasibilityError` quoting the rank oracle.
    Every step runs through one stage runner: a stage that raises any other
    :class:`~opcoupling.errors.ToolkitError` becomes a
    :class:`~opcoupling.errors.PipelineStageError` that names it and carries
    the cause's residual table as ``report``; one that passes is recorded as
    a :class:`StageResult` of its residuals and data.
    A stage that builds a witness records the report its builder verified
    the witness with; no artifact is verified twice.
    """
    U = as_matrix(U)
    V = as_matrix(V)
    n, m = U.shape[0], V.shape[0]
    if U.shape != (n, n) or V.shape != (m, m):
        raise ShapeError("U and V must be square")

    stages: list[StageResult] = []

    def stage(name, fn, residuals=lambda out: {}, data=lambda out: {}):
        try:
            out = fn()
        except FeasibilityError:
            raise
        except ToolkitError as exc:
            raise PipelineStageError(name, str(exc), getattr(exc, "report", None)) from exc
        stages.append(StageResult(name, residuals(out), data(out)))
        return out

    def table(out):
        return dict(out.residuals)

    def built_table(out):
        return dict(out[1].residuals)

    mc = None
    if w is None:
        mc, _ = stage("synthesize_mc", lambda: instances.synth_mc(U, V, tol), built_table,
                      lambda out: dict(out[1].extras))
        w = stage("mc_to_special", lambda: mc_to_eae_special(mc, tol))
    else:
        stage("witness_consistency", lambda: _checked(VerifierReport(
            "witness_consistency",
            {"witness_u": rel_residual(w.U, U), "witness_v": rel_residual(w.V, V)},
            tol), "supplied witness"), table)

    # the witness's cached table, which mc_to_eae_special has taken already,
    # without the sigma_min extras of verify_eae_special
    stage("verify_special", lambda: _checked(
        VerifierReport("eae_special", dict(w.residual_table), tol), "anchored witness"),
        table)

    fred = stage("fredholm", lambda: fredholm_report(w), data=lambda f: {
        "index_f22": f.f22.index, "index_f11": f.f11.index,
        "index_e11": f.e11.index, "index_ehat11": f.ehat11.index,
        "dim_h2": f.dim_h2, "dim_g1": f.dim_g1,
        "dim_ker_f22": f.dim_ker_f22, "dim_ker_e11": f.dim_ker_e11,
        "extension_side": f.extension_side,
    })
    d = stage("decompose_corners", lambda: decompose_corners(w, tol), data=lambda c: {
        "cond_f22_prime": c.cond_f22_prime, "cond_e11_prime": c.cond_e11_prime,
        "rank": c.rank,
    })
    rb = stage("derive_blocks", lambda: derive_uv_blocks(w, d, tol), table)
    wn = stage("normalize_adjoint", lambda: normalize_adjoint(w, tol))
    # normalize_adjoint keeps U, V, E11 and F22, so d's blocks hold for wn
    rb2 = stage("rederive_blocks", lambda: derive_uv_blocks(wn, d, tol), table)
    stage("two_sided", lambda: check_two_sided(rb2, tol), dict)
    small, small_report = stage(
        "small_eae", lambda: build_small_eae(wn, d, rb2, tol), built_table,
        lambda out: {"x0_dim": out[0].x0_dim, "y0_dim": out[0].y0_dim})
    eaoe, _ = stage("build_eaoe", lambda: build_eaoe(wn, d, rb2, (small, small_report), tol),
                    built_table, lambda out: {"extended_side": out[0].extended_side,
                                              "ext_dim": out[0].ext_dim})
    sc, _ = stage("schur_coupling", lambda: sc_from_eaoe(eaoe, tol), built_table)

    return PipelineReport(
        U=U, V=V, tol=tol, stages=tuple(stages),
        witness=w, normalized_witness=wn, mc=mc, fredholm=fred,
        x0_dim=small.x0_dim, y0_dim=small.y0_dim,
        small_eae=small, eaoe=eaoe, final_sc=sc,
        success=True,
    )
