"""Reduction of an anchored EAE witness to small extensions, EAOE and SC.

Starting from an :class:`~opcoupling.relations.EAESpecialWitness` for
``U`` (n x n) and ``V`` (m x m), the pipeline:

1. splits the corners ``F22, E11 : Y -> X`` along orthonormal bases of their
   kernels/ranges and complements, so each becomes ``[[prime, 0], [0, 0]]``
   with an invertible leading block, from one full SVD of each, and checks
   both block forms at once, by a certified bound when it can
   (:func:`decompose_corners`);
2. in the same call expresses ``U`` and ``V`` in those bases, where they are
   block triangular with ``E11' V11 = -U11 F22'``, and reads from the
   witness one-sided inverses of the corner blocks ``U22, V22``; it
   returns one :class:`ReducedBlocks` of the split, the blocks and the
   inverses, with the report that certified them;
3. certifies, in that table, that the one-sided inverses are two-sided.
   The paper first normalizes the witness, with ``X = pinv(F22) @
   Ehat21``, to ``E21 + X E11`` and ``Ehat21 - F22 X``; in orthonormal
   splits that changes neither inverse, so the blocks are derived once.
   ``ker_f22* @ X = 0`` gives ``Pi_ker_f22 (E21 + X E11) J_ker_e11 =
   Pi_ker_f22 E21 J_ker_e11``, and the pin ``Einv22 = F22`` gives ``Ehat21 -
   F22 X = P_h2 Ehat21``, whose ``Pi_h2 (.) J_g1`` is the same right
   inverse; so the table certifies the blocks the builders use;
4. assembles an EAE witness whose extensions are only ``Ker E11`` and the
   cokernel of ``F22`` (:func:`build_small_eae`), collapses it to a single
   one-sided extension of size ``|dim Ker E11 - dim coker F22|``
   (:func:`build_eaoe`), both by one block formula from that
   :class:`ReducedBlocks` alone (:func:`_paired`), and closes the loop with
   a Schur coupling (:func:`~opcoupling.relations.sc_from_eaoe`).

:func:`run_pipeline` chains all steps as named stages of one runner.  Each
step returns its artifact with the
:class:`~opcoupling.relations.VerifierReport` that verified it, which the
runner records whole as the stage, residuals and extras; it turns any
:class:`~opcoupling.errors.ToolkitError` a stage raises into a
:class:`~opcoupling.errors.PipelineStageError` naming it.  Every step checks
its report against ``tol`` through :func:`~opcoupling.relations._checked`,
so a failed step raises :class:`~opcoupling.errors.ConversionError` naming
the worst entry, with the report attached; the runner passes that report on
as the stage error's ``report``.  Either error carries, as ``pipeline``, a
:class:`PipelineReport` with ``success`` False: the stages that finished,
and the failing stage's name, message and table.  The anchored witness of a
synthesized coupling comes from :func:`~opcoupling.relations._anchored`, the builder
behind :func:`~opcoupling.relations.mc_to_eae_special`, with the report it
checked: the coupling's table, which the runner hands it from
``synthesize_mc``, and the witness's ``f_times_finv``, with the bound they
give on the other anchored entries (see :mod:`~opcoupling.relations`).  The
twenty-entry anchored table is computed only for a supplied witness, where
it is the only evidence.  Each builder returns its report, and the next
step reads it; each step hands the next one object whose parts come from
one witness, so the runner passes objects and reports and checks nothing
of its own but a supplied witness's ``U`` and ``V``.  In this
finite-dimensional setting two square matrices admit such a chain exactly
when their nullities agree; without a supplied witness
:func:`~opcoupling.instances.synth_mc` decides that, and the runner passes
its :class:`~opcoupling.errors.FeasibilityError` on unwrapped, with the
failed run's ``pipeline`` attached.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
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
    _norm_at_most,
    _norm_ratio,
    adjoint,
    as_matrix,
    eye,
    lu_inverse,
    rel_residual,
    svd,
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
    _anchored,
    _anchored_table,
    _checked,
    _eaoe_report,
    sc_from_eaoe,
    verify_eae,
    verify_eaoe,
)
from . import instances


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class ReducedBlocks:
    """The corners F22 and E11 (both Y -> X) split along orthonormal bases,
    with U and V in those bases and inverses of their corner blocks.

    ``f22`` and ``e11`` are the full SVDs of the two corners and ``rank``
    their common rank.  Their factors split at ``rank`` into X = im_f22 (+) h2
    = im_e11 (+) g1 (``left``) and Y = k2 (+) ker_f22 = f1 (+) ker_e11
    (``right``).  In these bases the corners are ``[[f22_prime, 0], [0, 0]]``
    and ``[[e11_prime, 0], [0, 0]]`` with invertible leading blocks, whose
    inverses are kept, and ``x0 = m - rank`` and ``y0 = n - rank`` are the
    dimensions of Ker E11 and of h2, the extensions of the small EAE.  ``U``
    on (im_f22 (+) h2) -> (im_e11 (+) g1) is upper block triangular and
    ``V`` on (k2 (+) ker_f22) -> (f1 (+) ker_e11) lower block triangular; of
    their blocks the builders read ``u12, u22, v21, v22``.  ``left_inv_v22``
    and ``right_inv_u22`` are two-sided inverses of ``v22`` and ``u22``.
    The builders read the triangular factors ``Phi_U = [[I, u12], [0,
    u22]]`` of U and ``Psi_V = [[I, 0], [v21, v22]]`` of V, and their
    inverses, block by block (see :func:`_paired`); none is assembled.
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
    u12: np.ndarray
    u22: np.ndarray
    v21: np.ndarray
    v22: np.ndarray
    left_inv_v22: np.ndarray
    right_inv_u22: np.ndarray

    x0 = property(lambda self: self.V.shape[0] - self.rank)
    y0 = property(lambda self: self.U.shape[0] - self.rank)


@dataclass(frozen=True)
class CornerIndex:
    """Index ``cols - rows`` of a corner block, whatever its rank."""

    index: int


@dataclass(frozen=True)
class FredholmReport:
    """Indices of the four corner blocks, and the dimensions of the
    cokernels and kernels of the two whose SVDs :func:`decompose_corners`
    takes."""

    f11: CornerIndex
    f22: CornerIndex
    e11: CornerIndex
    ehat11: CornerIndex
    dim_h2: int
    dim_g1: int
    dim_ker_f22: int
    dim_ker_e11: int


@dataclass(frozen=True)
class PipelineReport:
    """Stage-by-stage record of one reduction run: ``stages`` maps each
    stage that finished, in run order, to the report that verified its
    artifact.

    A run that passed has ``success`` True and every artifact.  A run that
    failed has ``success`` False and no artifacts; ``failed_stage`` names
    the stage that raised, ``error`` is the message of the error raised,
    and ``failure`` the residual table the stage failed, empty if it had
    none.
    """

    U: np.ndarray
    V: np.ndarray
    tol: float
    stages: Mapping[str, VerifierReport]
    success: bool
    witness: EAESpecialWitness | None = None
    mc: MCWitness | None = None
    x0_dim: int | None = None
    y0_dim: int | None = None
    small_eae: EAEWitness | None = None
    eaoe: EAOEWitness | None = None
    final_sc: SCWitness | None = None
    failed_stage: str | None = None
    error: str | None = None
    failure: VerifierReport | None = None

    @property
    def max_residual(self) -> float:
        return max((s.max_residual for s in self.stages.values()), default=0.0)

    @property
    def fredholm(self) -> FredholmReport:
        """Corner indices, ``cols - rows`` whatever the rank, and the kernel
        and cokernel dimensions of F22 and E11: both are n x m, of the common
        rank :func:`decompose_corners` checks, so their kernels have
        dimension ``x0_dim`` and their cokernels h2 and g1 ``y0_dim``."""
        n, m = self.U.shape[0], self.V.shape[0]
        return FredholmReport(
            f11=CornerIndex(n - m), f22=CornerIndex(m - n),
            e11=CornerIndex(m - n), ehat11=CornerIndex(n - m),
            dim_h2=self.y0_dim, dim_g1=self.y0_dim,
            dim_ker_f22=self.x0_dim, dim_ker_e11=self.x0_dim,
        )


# ---------------------------------------------------------------------------
# helpers


def _split(res: SvdResult, r: int) -> tuple[np.ndarray, ...]:
    """The bases of a corner's SVD split at its rank ``r``: range and
    cokernel (``left``), then coimage and kernel (``right``)."""
    return res.left[:, :r], res.left[:, r:], res.right[:, :r], res.right[:, r:]


def _coords(left_basis: np.ndarray, op: np.ndarray, right_basis: np.ndarray) -> np.ndarray:
    """Compression ``left* @ op @ right`` of an operator to subspace bases."""
    return adjoint(left_basis) @ op @ right_basis


# ---------------------------------------------------------------------------
# operations


def decompose_corners(w: EAESpecialWitness,
                      tol: float = DEFAULT_TOL) -> tuple[ReducedBlocks, VerifierReport]:
    """Split F22 and E11 along orthonormal kernel/range bases, and express U
    and V, with inverses of their corner blocks, in those bases; return the
    split with the report that certified it.

    The splits come from one full SVD of each corner, taken here and
    handed to the builders in the :class:`ReducedBlocks`, and from their
    common rank.  The invertible ``f22_prime`` and ``e11_prime``, the leading
    blocks of the corners' compressions to those bases, and their inverses,
    by one LU each, are computed once here for the builders; the rank
    counts only singular values above each corner's cutoff, so it has
    settled that both are invertible.  The block forms are checked
    first: nothing outside the leading block, relative to ``max(1,
    ||prime||)``.  No table records them, so each pair is settled where
    :func:`~opcoupling.numkernel._norm_at_most` proves ``||lhs - rhs|| <=
    tol``; otherwise the table of the same two pairs is checked, and the
    decision and any error message are those of that table.

    In the splits

        U : (im_f22 (+) h2) -> (im_e11 (+) g1)   upper block triangular,
        V : (k2 (+) ker_f22) -> (f1 (+) ker_e11) lower block triangular,

    with ``e11' @ v11 = -u11 @ f22'``.  The one-sided inverses
    ``left_inv_v22 = Pi_ker_f22 @ E21 @ J_ker_e11`` of v22 and
    ``right_inv_u22 = Pi_h2 @ Ehat21 @ J_g1`` of u22 are read from the
    blocks of ``w``, not computed by inverting anything.  They are those of
    the paper's normalized witness (see the module docstring), so they are
    two-sided, which is what the builders need.  The residual table fails
    when the witness is not a genuine anchored one: the suppressed blocks
    ``u21`` and ``v12``, relative to ``max(1, ||U||)`` and ``max(1,
    ||V||)``, the coupled equivalence, then the inverses on both sides, each
    certified at ``tol`` where it can be (see
    :func:`~opcoupling.numkernel.rel_residual`).  The report's extras are
    ``rank``, and ``cond_f22_prime`` and ``cond_e11_prime``, ``sigma_1 /
    sigma_r`` of each corner's SVD: the singular values of a prime are
    those of its corner up to rounding (Golub and Van Loan, *Matrix
    Computations*, 4th ed., section 2.4), so no SVD is taken for them.

    Raises
    ------
    NumericalError
        If the two corners differ in rank, which a genuine witness rules out;
        the message quotes, for each corner, its rank cutoff, the singular
        values on either side of it and their gap.
    SingularMatrixError
        If the LU of a prime meets an exactly zero pivot.
    """
    f22, e11 = svd(w.F22), svd(w.E11)
    r = f22.rank()
    if e11.rank() != r:
        raise NumericalError(
            f"rank(E11)={e11.rank()} differs from rank(F22)={r}; "
            f"{e11.rank_evidence('E11')}; {f22.rank_evidence('F22')}; "
            "the corner blocks of a genuine witness have equal rank"
        )
    im_f22, h2, k2, ker_f22 = _split(f22, r)
    im_e11, g1, f1, ker_e11 = _split(e11, r)

    # f22' and e11' are the leading blocks of the corners' compressions
    pairs = {}
    for label, res, block in (("f22", f22, w.F22), ("e11", e11, w.E11)):
        in_coords = _coords(res.left, block, res.right)
        target = zeros(*in_coords.shape)
        target[:r, :r] = in_coords[:r, :r]
        pairs[label] = (in_coords, target)
    f22_prime, e11_prime = (np.ascontiguousarray(t[:r, :r]) for _, t in pairs.values())
    f22_prime_inv, e11_prime_inv = lu_inverse(f22_prime), lu_inverse(e11_prime)
    if not all(_norm_at_most(lhs - rhs, tol) for lhs, rhs in pairs.values()):
        residuals = {label: rel_residual(*pair, tol) for label, pair in pairs.items()}
        _checked(VerifierReport("corner_forms", residuals, tol), "decompose_corners")

    U, V = w.U, w.V
    u22, v22 = _coords(g1, U, h2), _coords(ker_e11, V, ker_f22)
    left_inv_v22 = _coords(ker_f22, w.E21, ker_e11)
    right_inv_u22 = _coords(h2, w.Ehat21, g1)
    x0, y0 = V.shape[0] - r, U.shape[0] - r
    residuals = {
        "zero_block_u21": _norm_ratio(_coords(g1, U, im_f22), U, tol),
        "zero_block_v12": _norm_ratio(_coords(f1, V, ker_f22), V, tol),
        "equivalence_u11_v11": rel_residual(e11_prime @ _coords(f1, V, k2),
                                            -_coords(im_e11, U, im_f22) @ f22_prime, tol),
        "left_inverse_v22": rel_residual(left_inv_v22 @ v22, eye(x0), tol),
        "right_inverse_u22": rel_residual(u22 @ right_inv_u22, eye(y0), tol),
        "v22_right_inverse": rel_residual(v22 @ left_inv_v22, eye(x0), tol),
        "u22_left_inverse": rel_residual(right_inv_u22 @ u22, eye(y0), tol),
    }
    extras = {"cond_f22_prime": f22.range_condition(),
              "cond_e11_prime": e11.range_condition(), "rank": r}
    report = _checked(VerifierReport("reduced_blocks", residuals, tol, extras),
                      "decompose_corners")
    return ReducedBlocks(
        U=U, V=V, f22=f22, e11=e11, rank=r,
        f22_prime=f22_prime, f22_prime_inv=f22_prime_inv,
        e11_prime=e11_prime, e11_prime_inv=e11_prime_inv,
        u12=_coords(im_e11, U, h2), u22=u22, v21=_coords(ker_e11, V, k2), v22=v22,
        left_inv_v22=left_inv_v22, right_inv_u22=right_inv_u22,
    ), report


def _paired(base: np.ndarray, cols: np.ndarray, rows: np.ndarray, c: int) -> np.ndarray:
    """``[[base + cols[:, :c] @ rows[:c], cols[:, c:]], [rows[c:], 0]]``: a
    factor of the extension witness of a :class:`ReducedBlocks` that pairs
    the first ``c`` coordinates of Ker E11 and h2.

    Its splits factor ``U = [im_e11 | g1] Phi_U (u11 (+) I) [im_f22 | h2]*``
    and ``V = [f1 | ker_e11] (v11 (+) I) Psi_V [k2 | ker_f22]*``, with
    ``e11' v11 = -u11 f22'``.  With ``[A_r | A_y] = [im_e11 | g1] Phi_U``,
    ``[B_r | B_x] = [k2 | ker_f22] Psi_V^-1``, ``[C_r; C_y] = Phi_U^-1
    [im_e11 | g1]*`` and ``[D_r; D_x] = Psi_V [k2 | ker_f22]*``, the
    ``(base, cols, rows)`` of the four factors are

        E      (im_e11 e11' f1*,        A_y,      ker_e11*)
        F      (-B_r f22'^-1 im_f22*,   B_x,      h2*)
        E^-1   (f1 e11'^-1 C_r,         ker_e11,  C_y)
        F^-1   (-im_f22 f22' k2*,       h2,       D_x)
    """
    return Block2x2(base + cols[:, :c] @ rows[:c], cols[:, c:], rows[c:],
                    zeros(rows.shape[0] - c, cols.shape[1] - c)).assemble()


def _extension_factors(rb: ReducedBlocks, c: int) -> tuple[np.ndarray, np.ndarray]:
    """E and F of the witness of ``rb`` that pairs ``c`` coordinates (:func:`_paired`)."""
    r = rb.rank
    im_e11, g1, f1, ker_e11 = _split(rb.e11, r)
    im_f22, h2, k2, ker_f22 = _split(rb.f22, r)
    a_y = im_e11 @ rb.u12 + g1 @ rb.u22
    b_x = ker_f22 @ rb.left_inv_v22
    b_r = k2 - b_x @ rb.v21
    return (_paired(im_e11 @ rb.e11_prime @ adjoint(f1), a_y, adjoint(ker_e11), c),
            _paired(-b_r @ rb.f22_prime_inv @ adjoint(im_f22), b_x, adjoint(h2), c))


def _inverse_factors(rb: ReducedBlocks, c: int) -> tuple[np.ndarray, np.ndarray]:
    """E^-1 and F^-1 of the witness of ``rb`` that pairs ``c`` coordinates."""
    r = rb.rank
    im_e11, g1, f1, ker_e11 = _split(rb.e11, r)
    im_f22, h2, k2, ker_f22 = _split(rb.f22, r)
    c_y = rb.right_inv_u22 @ adjoint(g1)
    c_r = adjoint(im_e11) - rb.u12 @ c_y
    d_x = rb.v21 @ adjoint(k2) + rb.v22 @ adjoint(ker_f22)
    return (_paired(f1 @ rb.e11_prime_inv @ c_r, ker_e11, c_y, c),
            _paired(-im_f22 @ rb.f22_prime @ adjoint(k2), h2, d_x, c))


def build_small_eae(rb: ReducedBlocks,
                    tol: float = DEFAULT_TOL) -> tuple[EAEWitness, VerifierReport]:
    """EAE witness ``U (+) I_x0 = E (V (+) I_y0) F``, with extensions Ker E11
    and h2 of dimensions ``x0`` and ``y0``, and the report it was verified
    by: :func:`_paired` with no coordinates paired.
    """
    e, f = _extension_factors(rb, 0)
    witness = EAEWitness(U=rb.U, V=rb.V, E=e, F=f, x0_dim=rb.x0, y0_dim=rb.y0)
    return witness, _checked(verify_eae(witness, tol), "build_small_eae")


def build_eaoe(rb: ReducedBlocks, small: tuple[EAEWitness, VerifierReport],
               tol: float = DEFAULT_TOL) -> tuple[EAOEWitness, VerifierReport]:
    """One-sided extension witness of dimension ``|x0 - y0|``, with the
    report it was verified by: :func:`_paired` at ``c = min(x0, y0)``, which
    embeds the smaller extension of the small EAE into the larger one by its
    first coordinates.  The extension lands on ``U`` exactly when ``x0 >=
    y0``, i.e. when ``index(F22) >= 0``.

    ``small`` is the witness and report :func:`build_small_eae` built from
    ``rb``.  At ``c == 0`` its E and F are this witness's, bit for bit, so
    they are taken with its report, to which
    :func:`~opcoupling.relations._eaoe_report` adds the residuals of the
    inverses; otherwise :func:`~opcoupling.relations.verify_eaoe` checks the
    witness, and its report reads the same.
    """
    x0, y0 = rb.x0, rb.y0
    c = min(x0, y0)
    e, f = _extension_factors(rb, c) if c else (small[0].E, small[0].F)
    e_inv, f_inv = _inverse_factors(rb, c)
    witness = EAOEWitness(extended_side="U" if y0 <= x0 else "V", ext_dim=abs(x0 - y0),
                          E=e, F=f, U=rb.U, V=rb.V, Einv=e_inv, Finv=f_inv)
    report = verify_eaoe(witness, tol) if c else _eaoe_report(witness, small[1], tol)
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
    the cause's report; either error carries the failed run as its
    ``pipeline``.  A stage that passes is recorded as the report its step
    verified its artifact with, so no artifact is verified twice.  A
    supplied witness is one stage, ``verify_special``: its anchored table,
    after the residuals ``witness_u`` and ``witness_v`` of its ``U`` and
    ``V`` against the inputs.
    """
    U = as_matrix(U)
    V = as_matrix(V)
    n, m = U.shape[0], V.shape[0]
    if U.shape != (n, n) or V.shape != (m, m):
        raise ShapeError("U and V must be square")

    stages: dict[str, VerifierReport] = {}

    def stage(name, fn):
        try:
            out = fn()
        except ToolkitError as exc:
            table = getattr(exc, "report", None)
            failed = (exc if isinstance(exc, FeasibilityError)
                      else PipelineStageError(name, str(exc), table))
            failed.pipeline = PipelineReport(
                U=U, V=V, tol=tol, stages=MappingProxyType(dict(stages)), success=False,
                failed_stage=name, error=str(failed),
                failure=table if table is not None else VerifierReport(name, {}, tol))
            if failed is exc:
                raise
            raise failed from exc
        stages[name] = out[1]
        return out

    def supplied():
        residuals = {"witness_u": rel_residual(w.U, U, tol),
                     "witness_v": rel_residual(w.V, V, tol), **_anchored_table(w, tol)}
        return w, _checked(VerifierReport("eae_special", residuals, tol), "anchored witness")

    mc = None
    if w is None:
        mc, coupling = stage("synthesize_mc", lambda: instances.synth_mc(U, V, tol))
        w, _ = stage("mc_to_special", lambda: _anchored(mc, coupling))
    else:
        stage("verify_special", supplied)

    rb, _ = stage("decompose_corners", lambda: decompose_corners(w, tol))
    small = stage("small_eae", lambda: build_small_eae(rb, tol))
    eaoe, _ = stage("build_eaoe", lambda: build_eaoe(rb, small, tol))
    sc, _ = stage("schur_coupling", lambda: sc_from_eaoe(eaoe, tol))

    return PipelineReport(
        U=U, V=V, tol=tol, stages=MappingProxyType(stages), success=True,
        witness=w, mc=mc,
        x0_dim=small[0].x0_dim, y0_dim=small[0].y0_dim,
        small_eae=small[0], eaoe=eaoe, final_sc=sc,
    )
