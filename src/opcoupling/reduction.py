"""Reduction of an anchored EAE witness to small extensions, EAOE and SC.

Starting from an :class:`~opcoupling.relations.EAESpecialWitness` for
``U`` (n x n) and ``V`` (m x m), the pipeline:

1. splits the corners ``F22, E11 : Y -> X`` along orthonormal bases of their
   kernels/ranges and complements, so each becomes ``[[prime, 0], [0, 0]]``
   with an invertible leading block (:func:`decompose_corners`);
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

:func:`run_pipeline` chains all stages with per-stage residual reporting.
Every stage checks its residual table against ``tol`` through
:func:`~opcoupling.relations._checked`, so a failed stage raises
:class:`~opcoupling.errors.ConversionError` naming the worst entry, with the
table attached.
In this finite-dimensional setting two square matrices admit such a chain
exactly when their nullities agree, which is the feasibility oracle used
when no witness is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    SubspaceBasis,
    adjoint,
    as_matrix,
    eye,
    inverse,
    pinv,
    rank_of,
    rel_residual,
    subspaces,
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
    _mc_to_eae_special,
    _sc_from_eaoe,
    _special_pairs,
    _special_residuals,
    verify_eae,
    verify_eaoe,
)
from . import instances


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class CornerDecomposition:
    """Orthonormal splittings of the corners F22 and E11 (both Y -> X).

    Domain Y splits as k2 (+) ker_f22 and f1 (+) ker_e11; codomain X splits
    as im_f22 (+) h2 and im_e11 (+) g1.  In these bases the corners are
    ``[[f22_prime, 0], [0, 0]]`` and ``[[e11_prime, 0], [0, 0]]`` with
    invertible leading blocks whose inverses and condition numbers are
    recorded.
    """

    k2: SubspaceBasis
    ker_f22: SubspaceBasis
    im_f22: SubspaceBasis
    h2: SubspaceBasis
    f22_prime: np.ndarray
    f22_prime_inv: np.ndarray
    f1: SubspaceBasis
    ker_e11: SubspaceBasis
    im_e11: SubspaceBasis
    g1: SubspaceBasis
    e11_prime: np.ndarray
    e11_prime_inv: np.ndarray
    cond_f22_prime: float
    cond_e11_prime: float

    @property
    def rank_f22(self) -> int:
        return self.im_f22.dim

    @property
    def rank_e11(self) -> int:
        return self.im_e11.dim


@dataclass(frozen=True)
class ReducedBlocks:
    """U and V written in the decomposition bases.

    ``U`` on (im_f22 (+) h2) -> (im_e11 (+) g1) is upper block triangular,
    ``V`` on (k2 (+) ker_f22) -> (f1 (+) ker_e11) lower block triangular.
    ``left_inv_v22 @ v22`` and ``u22 @ right_inv_u22`` are identities; the
    residuals of the suppressed blocks and of ``e11' v11 = -u11 f22'`` are
    kept for reporting.  ``scales`` holds ``max(1, ||U||)`` and
    ``max(1, ||V||)``, the denominators of the suppressed-block residuals.
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
    scales: tuple[float, float] = (1.0, 1.0)


@dataclass(frozen=True)
class CornerFredholm:
    """Rank data of one corner block, with index = kernel - cokernel."""

    rank: int
    kernel_dim: int
    cokernel_dim: int
    index: int


@dataclass(frozen=True)
class FredholmReport:
    """Rank/kernel/index bookkeeping for the four corner blocks."""

    f11: CornerFredholm
    f22: CornerFredholm
    e11: CornerFredholm
    ehat11: CornerFredholm
    dim_h2: int
    dim_g1: int
    dim_ker_f22: int
    dim_ker_e11: int
    extension_side: str  # "U" if index(F22) > 0, "V" if < 0, else "none"

    @property
    def dims_match(self) -> bool:
        """Cokernel/kernel dimension equalities of a genuine witness."""
        return self.dim_h2 == self.dim_g1 and self.dim_ker_f22 == self.dim_ker_e11


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


def _stacked_bases(d: CornerDecomposition):
    """Unitaries ``(w_dom_u, w_cod_u, w_dom_v, w_cod_v)`` whose columns are the
    split bases of X = im_f22 (+) h2 = im_e11 (+) g1 and
    Y = k2 (+) ker_f22 = f1 (+) ker_e11."""
    return (np.hstack([d.im_f22.basis, d.h2.basis]),
            np.hstack([d.im_e11.basis, d.g1.basis]),
            np.hstack([d.k2.basis, d.ker_f22.basis]),
            np.hstack([d.f1.basis, d.ker_e11.basis]))


# ---------------------------------------------------------------------------
# operations


def fredholm_report(w: EAESpecialWitness) -> FredholmReport:
    """Rank and index bookkeeping for F11, F22, E11 and Ehat11.

    The index identities ``index(F11) = -index(F22)`` and
    ``index(E11) = -index(Ehat11)`` are asserted; for a genuine witness the
    kernel/cokernel dimension equalities ``dim h2 = dim g1`` and
    ``dim ker F22 = dim ker E11`` hold as well and are exposed through
    :attr:`FredholmReport.dims_match`.  The sign of ``index(F22)`` dictates
    which operator the one-sided extension lands on: positive means ``U``.
    """
    def corner(block: np.ndarray) -> CornerFredholm:
        rows, cols = block.shape
        r = rank_of(block)
        return CornerFredholm(rank=r, kernel_dim=cols - r,
                              cokernel_dim=rows - r, index=(cols - r) - (rows - r))

    f11 = corner(w.F11)
    f22 = corner(w.F22)
    e11 = corner(w.E11)
    ehat11 = corner(w.Ehat11)
    if f11.index != -f22.index or e11.index != -ehat11.index:
        raise NumericalError("corner index identities violated; witness blocks "
                             "have inconsistent shapes")
    side = "U" if f22.index > 0 else ("V" if f22.index < 0 else "none")
    return FredholmReport(
        f11=f11, f22=f22, e11=e11, ehat11=ehat11,
        dim_h2=f22.cokernel_dim, dim_g1=e11.cokernel_dim,
        dim_ker_f22=f22.kernel_dim, dim_ker_e11=e11.kernel_dim,
        extension_side=side,
    )


def decompose_corners(w: EAESpecialWitness, tol: float = DEFAULT_TOL) -> CornerDecomposition:
    """Split F22 and E11 along orthonormal kernel/range bases.

    Returns the eight subspace bases together with the invertible compressions
    ``f22_prime`` and ``e11_prime`` and their inverses, computed once here
    for the builders; the block forms ``f22`` and ``e11`` are re-verified to
    ``tol`` before returning.
    """
    ker_f22, k2, im_f22, h2 = subspaces(w.F22)
    ker_e11, f1, im_e11, g1 = subspaces(w.E11)

    f22_prime = _coords(im_f22.basis, w.F22, k2.basis)
    e11_prime = _coords(im_e11.basis, w.E11, f1.basis)
    f22_prime_inv, cond_f = inverse(f22_prime)
    e11_prime_inv, cond_e = inverse(e11_prime)
    d = CornerDecomposition(
        k2=k2, ker_f22=ker_f22, im_f22=im_f22, h2=h2,
        f22_prime=f22_prime, f22_prime_inv=f22_prime_inv,
        f1=f1, ker_e11=ker_e11, im_e11=im_e11, g1=g1,
        e11_prime=e11_prime, e11_prime_inv=e11_prime_inv,
        cond_f22_prime=cond_f, cond_e11_prime=cond_e,
    )
    w_dom_u, w_cod_u, w_dom_v, w_cod_v = _stacked_bases(d)

    def pairs():
        for label, cod_w, block, dom_w, prime in (
            ("f22", w_dom_u, w.F22, w_dom_v, f22_prime),
            ("e11", w_cod_u, w.E11, w_cod_v, e11_prime),
        ):
            in_coords = _coords(cod_w, block, dom_w)
            target = zeros(*in_coords.shape)
            target[: prime.shape[0], : prime.shape[1]] = prime
            yield label, (in_coords, target)

    _checked_pairs("corner_forms", pairs, tol, "decompose_corners")
    return d


def derive_uv_blocks(w: EAESpecialWitness, d: CornerDecomposition,
                     tol: float = DEFAULT_TOL,
                     scales: tuple[float, float] | None = None) -> ReducedBlocks:
    """Express U and V in the decomposition bases and extract their blocks.

    The compressions are

        U : (im_f22 (+) h2) -> (im_e11 (+) g1)   upper block triangular,
        V : (k2 (+) ker_f22) -> (f1 (+) ker_e11) lower block triangular,

    with ``e11' @ v11 = -u11 @ f22'``.  The one-sided inverses
    ``left_inv_v22 = Pi_ker_f22 @ E21 @ J_ker_e11`` (a left inverse of v22)
    and ``right_inv_u22 = Pi_h2 @ Ehat21 @ J_g1`` (a right inverse of u22)
    are computed from the witness blocks, not by inverting anything.
    ``scales`` may pass on the :attr:`ReducedBlocks.scales` of an earlier
    call for a witness with the same ``U`` and ``V``, sparing their SVDs.
    The residual table fails when the witness is not a genuine anchored one.
    """
    u11 = _coords(d.im_e11.basis, w.U, d.im_f22.basis)
    u12 = _coords(d.im_e11.basis, w.U, d.h2.basis)
    u21 = _coords(d.g1.basis, w.U, d.im_f22.basis)
    u22 = _coords(d.g1.basis, w.U, d.h2.basis)

    v11 = _coords(d.f1.basis, w.V, d.k2.basis)
    v12 = _coords(d.f1.basis, w.V, d.ker_f22.basis)
    v21 = _coords(d.ker_e11.basis, w.V, d.k2.basis)
    v22 = _coords(d.ker_e11.basis, w.V, d.ker_f22.basis)

    left_inv_v22 = _coords(d.ker_f22.basis, w.E21, d.ker_e11.basis)
    right_inv_u22 = _coords(d.h2.basis, w.Ehat21, d.g1.basis)

    if scales is None:
        scales = (max(1.0, np.linalg.norm(w.U, 2) if w.U.size else 0.0),
                  max(1.0, np.linalg.norm(w.V, 2) if w.V.size else 0.0))
    scale_u, scale_v = scales
    residuals = {
        "zero_block_u21": (np.linalg.norm(u21, 2) / scale_u) if u21.size else 0.0,
        "zero_block_v12": (np.linalg.norm(v12, 2) / scale_v) if v12.size else 0.0,
        "equivalence_u11_v11": rel_residual(d.e11_prime @ v11, -u11 @ d.f22_prime),
        "left_inverse_v22": rel_residual(left_inv_v22 @ v22, eye(d.ker_f22.dim)),
        "right_inverse_u22": rel_residual(u22 @ right_inv_u22, eye(d.g1.dim)),
    }
    _checked(VerifierReport("reduced_blocks", residuals, tol), "derive_uv_blocks")
    return ReducedBlocks(u11=u11, u12=u12, u22=u22, v11=v11, v21=v21, v22=v22,
                         left_inv_v22=left_inv_v22, right_inv_u22=right_inv_u22,
                         residuals=residuals, scales=scales)


def normalize_adjoint(w: EAESpecialWitness, tol: float = DEFAULT_TOL) -> EAESpecialWitness:
    """Rewrite the witness so E21 maps into Ker F22 and F21 projects onto h2.

    With ``X = pinv(F22) @ Ehat21`` the transformed pair

        E~ = [[I, 0], [X, I]] @ E        F~ = F @ [[I, 0], [-X U, I]]

    establishes the same extension equivalence, leaves ``E11`` and ``F22``
    (hence the corner decomposition) untouched, and afterwards satisfies
    ``P_ker_f22 @ E21 = E21`` and ``F21 = P_h2``.  Applying the transform to
    an already-normalized witness yields ``X = 0``, so the operation is
    idempotent.  All four stored matrices are transformed in closed form.
    """
    n, m = w.n, w.m
    x = pinv(w.F22) @ w.Ehat21

    t = Block2x2(eye(n), zeros(n, m), x, eye(m)).assemble()
    t_inv = Block2x2(eye(n), zeros(n, m), -x, eye(m)).assemble()
    s = Block2x2(eye(n), zeros(n, m), -x @ w.U, eye(m)).assemble()
    s_inv = Block2x2(eye(n), zeros(n, m), x @ w.U, eye(m)).assemble()

    wn = EAESpecialWitness(U=w.U, V=w.V, E=t @ w.E, F=w.F @ s,
                           Einv=w.Einv @ t_inv, Finv=s_inv @ w.Finv)

    ker_f22, _kcomp, _ran, h2 = subspaces(wn.F22)
    p_ker = ker_f22.basis @ adjoint(ker_f22.basis)
    p_h2 = h2.basis @ adjoint(h2.basis)

    def pairs():
        yield "e21_into_ker_f22", (p_ker @ wn.E21, wn.E21)
        yield "f21_is_p_h2", (wn.F21, p_h2)
        yield from _special_pairs(wn)

    _checked_pairs("normalization", pairs, tol, "normalize_adjoint")
    return wn


def check_two_sided(w: EAESpecialWitness, rb: ReducedBlocks,
                    tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Certify that the one-sided inverses of v22 and u22 are two-sided.

    Expects a witness normalized by :func:`normalize_adjoint`; then
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


def _require_square_corners(d: CornerDecomposition) -> int:
    if d.rank_e11 != d.rank_f22:
        raise NumericalError(
            f"rank(E11)={d.rank_e11} differs from rank(F22)={d.rank_f22}; "
            "the corner blocks of a genuine witness have equal rank"
        )
    return d.rank_e11


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


def build_small_eae(w: EAESpecialWitness, d: CornerDecomposition,
                    rb: ReducedBlocks, tol: float = DEFAULT_TOL) -> EAEWitness:
    """EAE witness with extensions Ker E11 (on the U side) and h2 (on V's).

    Factor ``U = Phi_U @ (u11 (+) I)`` and ``V = (v11 (+) I) @ Psi_V`` with
    the invertible triangular factors from :func:`derive_uv_blocks`; the
    three-fold block identity

        u11 (+) I_h2 (+) I_ker_e11
          = [e11' (+) swap] @ (v11 (+) I) @ [-(f22')^-1 (+) swap]

    then glues everything into ``U (+) I_x0 = E (V (+) I_y0) F`` with
    ``x0 = dim Ker E11`` and ``y0 = dim h2``.  Requires invertible corner
    blocks, i.e. :func:`check_two_sided` must have passed.
    """
    return _build_small_eae(w, d, rb, tol)[0]


def _build_small_eae(w: EAESpecialWitness, d: CornerDecomposition, rb: ReducedBlocks,
                     tol: float) -> tuple[EAEWitness, VerifierReport]:
    """The witness of :func:`build_small_eae` with its verifier report."""
    r = _require_square_corners(d)
    x0, y0 = w.m - r, w.n - r
    w_dom_u, w_cod_u, w_dom_v, w_cod_v = _stacked_bases(d)

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
               tol: float = DEFAULT_TOL) -> EAOEWitness:
    """Collapse the two small extensions into one one-sided extension.

    The smaller extension space is embedded into the larger one by the
    first-coordinates isometry (in the decomposition bases the embedding,
    its left inverse, and the complement bookkeeping all become identity
    blocks), which turns the two-sided extension of :func:`build_small_eae`
    into a one-sided extension of dimension ``|x0 - y0|``.  The extension
    lands on ``U`` when ``dim Ker E11 >= dim h2``, i.e. exactly when
    ``index(F22) >= 0``.
    """
    return _build_eaoe(w, d, rb, tol)[0]


def _build_eaoe(w: EAESpecialWitness, d: CornerDecomposition, rb: ReducedBlocks,
                tol: float) -> tuple[EAOEWitness, VerifierReport]:
    """The witness of :func:`build_eaoe` with its verifier report."""
    r = _require_square_corners(d)
    x0, y0 = w.m - r, w.n - r
    w_dom_u, w_cod_u, w_dom_v, w_cod_v = _stacked_bases(d)
    phi_u, phi_u_inv = _phi_u(rb, r), _phi_u_inv(rb, r)
    psi_v, psi_v_inv = _psi_v(rb, r), _psi_v_inv(rb, r)

    if y0 <= x0:
        side, ext = "U", x0 - y0
        e = (_direct_sum(w_cod_u, ext) @ _direct_sum(phi_u, ext)
             @ _direct_sum(d.e11_prime, x0) @ adjoint(w_cod_v))
        e_inv = (w_cod_v @ _direct_sum(d.e11_prime_inv, x0)
                 @ _direct_sum(phi_u_inv, ext) @ _direct_sum(adjoint(w_cod_u), ext))
        f = (w_dom_v @ psi_v_inv @ _direct_sum(-d.f22_prime_inv, x0)
             @ _direct_sum(adjoint(w_dom_u), ext))
        f_inv = (_direct_sum(w_dom_u, ext) @ _direct_sum(-d.f22_prime, x0)
                 @ psi_v @ adjoint(w_dom_v))
    else:
        side, ext = "V", y0 - x0
        e = (w_cod_u @ phi_u @ _direct_sum(d.e11_prime, y0)
             @ _direct_sum(adjoint(w_cod_v), ext))
        e_inv = (_direct_sum(w_cod_v, ext) @ _direct_sum(d.e11_prime_inv, y0)
                 @ phi_u_inv @ adjoint(w_cod_u))
        f = (_direct_sum(w_dom_v, ext) @ _direct_sum(psi_v_inv, ext)
             @ _direct_sum(-d.f22_prime_inv, y0) @ adjoint(w_dom_u))
        f_inv = (w_dom_u @ _direct_sum(-d.f22_prime, y0)
                 @ _direct_sum(psi_v, ext) @ _direct_sum(adjoint(w_dom_v), ext))

    witness = EAOEWitness(extended_side=side, ext_dim=ext, E=e, F=f,
                          U=w.U, V=w.V, Einv=e_inv, Finv=f_inv)
    return witness, _checked(verify_eaoe(witness, tol), "build_eaoe")


# ---------------------------------------------------------------------------
# pipeline


def _stage(name: str, fn):
    try:
        return fn()
    except ToolkitError as exc:
        raise PipelineStageError(name, str(exc), getattr(exc, "report", None)) from exc


def run_pipeline(U, V, w: EAESpecialWitness | None = None,
                 tol: float = DEFAULT_TOL) -> PipelineReport:
    """Full reduction from (U, V) to small EAE, EAOE and Schur coupling.

    When no witness is supplied one is synthesized, which requires
    ``nullity(U) == nullity(V)``; a mismatch raises
    :class:`~opcoupling.errors.FeasibilityError` quoting the rank oracle.
    Every stage's residuals must stay below ``tol``, otherwise a
    :class:`~opcoupling.errors.PipelineStageError` names the failing stage
    and carries its residual table as ``report``.
    A stage that builds a witness records the report its builder verified
    the witness with; no artifact is verified twice.
    """
    U = as_matrix(U)
    V = as_matrix(V)
    n, m = U.shape[0], V.shape[0]
    if U.shape != (n, n) or V.shape != (m, m):
        raise ShapeError("U and V must be square")

    stages: list[StageResult] = []
    mc = None
    if w is None:
        null_u, null_v = n - rank_of(U), m - rank_of(V)
        if null_u != null_v:
            raise FeasibilityError(
                f"no coupling exists: dim Ker U = {null_u} but dim Ker V = "
                f"{null_v}; square matrices admit the extension chain exactly "
                "when their nullities agree"
            )
        mc, mc_report = _stage("synthesize_mc",
                               lambda: instances._synth_mc(U, V, null_u, tol))
        stages.append(StageResult("synthesize_mc", dict(mc_report.residuals),
                                  {"nullity": null_u}))
        w, report = _stage("mc_to_special", lambda: _mc_to_eae_special(mc, tol))
        stages.append(StageResult("mc_to_special", {}))
    else:
        consistency = VerifierReport("witness_consistency", {
            "witness_u": rel_residual(w.U, U),
            "witness_v": rel_residual(w.V, V),
        }, tol)
        _stage("witness_consistency", lambda: _checked(consistency, "supplied witness"))
        stages.append(StageResult("witness_consistency", consistency.residuals))
        # residuals only: the stage records no sigma_min extras
        report = VerifierReport("eae_special", _special_residuals(w), tol)

    _stage("verify_special", lambda: _checked(report, "anchored witness"))
    stages.append(StageResult("verify_special", dict(report.residuals)))

    fred = _stage("fredholm", lambda: fredholm_report(w))
    stages.append(StageResult("fredholm", {}, {
        "index_f22": fred.f22.index, "index_f11": fred.f11.index,
        "index_e11": fred.e11.index, "index_ehat11": fred.ehat11.index,
        "dim_h2": fred.dim_h2, "dim_g1": fred.dim_g1,
        "dim_ker_f22": fred.dim_ker_f22, "dim_ker_e11": fred.dim_ker_e11,
        "extension_side": fred.extension_side,
    }))
    if not fred.dims_match:
        raise PipelineStageError(
            "fredholm",
            f"kernel/cokernel dimensions disagree (h2={fred.dim_h2}, "
            f"g1={fred.dim_g1}, ker F22={fred.dim_ker_f22}, "
            f"ker E11={fred.dim_ker_e11}); witness is not genuine",
        )

    d = _stage("decompose_corners", lambda: decompose_corners(w, tol))
    stages.append(StageResult("decompose_corners", {}, {
        "cond_f22_prime": d.cond_f22_prime, "cond_e11_prime": d.cond_e11_prime,
        "rank": d.rank_f22,
    }))

    rb = _stage("derive_blocks", lambda: derive_uv_blocks(w, d, tol))
    stages.append(StageResult("derive_blocks", dict(rb.residuals)))

    wn = _stage("normalize_adjoint", lambda: normalize_adjoint(w, tol))
    stages.append(StageResult("normalize_adjoint", {}))

    # normalize_adjoint keeps U and V, so their norms carry over
    rb2 = _stage("rederive_blocks", lambda: derive_uv_blocks(wn, d, tol, rb.scales))
    stages.append(StageResult("rederive_blocks", dict(rb2.residuals)))

    two_sided = _stage("two_sided", lambda: check_two_sided(wn, rb2, tol))
    stages.append(StageResult("two_sided", two_sided))

    small, small_report = _stage("small_eae", lambda: _build_small_eae(wn, d, rb2, tol))
    stages.append(StageResult("small_eae", dict(small_report.residuals), {
        "x0_dim": small.x0_dim, "y0_dim": small.y0_dim,
    }))

    eaoe, eaoe_report = _stage("build_eaoe", lambda: _build_eaoe(wn, d, rb2, tol))
    stages.append(StageResult("build_eaoe", dict(eaoe_report.residuals), {
        "extended_side": eaoe.extended_side, "ext_dim": eaoe.ext_dim,
    }))
    if fred.extension_side != "none" and eaoe.extended_side != fred.extension_side:
        raise PipelineStageError(
            "build_eaoe",
            f"extension landed on {eaoe.extended_side} but index(F22)="
            f"{fred.f22.index} demands {fred.extension_side}",
        )

    sc, sc_report = _stage("schur_coupling", lambda: _sc_from_eaoe(eaoe, tol))
    stages.append(StageResult("schur_coupling", dict(sc_report.residuals)))

    return PipelineReport(
        U=U, V=V, tol=tol, stages=tuple(stages),
        witness=w, normalized_witness=wn, mc=mc, fredholm=fred,
        x0_dim=small.x0_dim, y0_dim=small.y0_dim,
        small_eae=small, eaoe=eaoe, final_sc=sc,
        success=True,
    )
