"""Witness types and verifiers for the four coupling relations.

The toolkit works with square complex matrices ``U`` (n x n, acting on X)
and ``V`` (m x m, acting on Y) and four ways of tying them together:

* **SC** (Schur coupling): ``U`` and ``V`` are the two Schur complements of
  one block matrix ``M = [[A, B], [C, D]]`` on X (+) Y with ``A, D``
  invertible.
* **MC** (matricial coupling): ``U`` is the upper-left corner of an
  invertible ``Uhat`` on X (+) Y whose inverse has ``V`` as lower-right
  corner.
* **EAE** (equivalence after extension): ``U (+) I`` and ``V (+) I`` are
  equivalent via invertible ``E, F``.
* **EAOE** (equivalence after one-sided extension): EAE with one of the two
  extensions trivial.

The anchored special form of an EAE witness takes the extension spaces to be
the partner's ground space (X0 = Y, Y0 = X) and pins the upper-right blocks:

    F = [[F11, I_Y ], [F21, F22 ]]      E = [[E11, U ], [E21, -F11]]
    F^-1 = [[-F22, I_X], [I + F11 F22, -F11]]
    E^-1 = [[Ehat11, V], [Ehat21, F22]]

Eleven identities couple these blocks; :func:`verify_eae_special` checks them
all, labelled ``identity_i`` .. ``identity_xi``:

    (i)    I = F21 - F22 F11          (ii)   U = E11 V F11 + U F21
    (iii)  E21 V F11 = F11 F21        (iv)   E11 V = -U F22
    (v)    F11 F22 = E21 V - I        (vi)   Ehat11 U = V F11
    (vii)  Ehat21 U = F21             (viii) E11 Ehat11 = I - U Ehat21
    (ix)   E21 Ehat11 = F11 Ehat21    (x)    Ehat11 E11 = I - V E21
    (xi)   Ehat21 E11 = -F22 E21

Every verifier reports relative residuals ``||lhs - rhs|| / max(1, ||rhs||)``
in the spectral norm, and every *reported* residual is that exact value.
An exact SVD is taken only for a recorded value or a check nothing else
settles.  Numerators are always exact spectral norms; a denominator is
computed by SVD only when it may exceed 1, since a certified bound settles
``max(1, ||rhs||) = 1`` otherwise (see
:func:`~opcoupling.numkernel.rel_residual`), and an exact identity block
has norm and condition 1 without one.  Special-form witnesses carry
their inverses so that verification cost and accuracy do not depend on
re-inverting ``E`` and ``F``, and cache the one full SVD of each corner
``F22`` and ``E11`` (``f22_svd``, ``e11_svd``) from which the reduction reads
their ranks, bases and pseudoinverse.

Every residual table, here and in :mod:`~opcoupling.reduction`, is checked
by :func:`_checked`, which raises :class:`ConversionError` naming the worst
entry, with the table attached.  The two checks whose values nobody
records, the block forms of the corners and the re-check of a normalized
witness in :mod:`~opcoupling.reduction`, go through :func:`_checked_pairs`:
the certified bound ``||lhs - rhs||_F <= tol``
(:func:`~opcoupling.numkernel._certainly_within`) settles them without an
SVD, and only when it cannot decide is the exact table computed, so the
decision and any error message are those of the exact check.

Each converter verifies its output once.  A builder the pipeline calls
returns the witness with that report, so the pipeline records the report
instead of verifying the witness again.  An anchored witness caches its
exact residual table (``residual_table``), so :func:`mc_to_eae_special`,
:func:`verify_eae_special` and the pipeline all read one computation of it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .blockops import Block2x2
from .errors import ConversionError, ShapeError
from .numkernel import (
    SvdResult,
    _certainly_within,
    _norm_and_condition,
    _svd_vals,
    adjoint,
    as_matrix,
    condition_number,
    eye,
    inverse,
    rel_residual,
    svd,
    zeros,
)

DEFAULT_TOL = 1e-8


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class VerifierReport:
    """Residual table produced by a witness verifier."""

    kind: str
    residuals: dict[str, float]
    tol: float
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def worst(self) -> tuple[str, float]:
        label = max(self.residuals, key=self.residuals.get)
        return label, self.residuals[label]

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"{self.kind} [{status}] tol={self.tol:g} max={self.max_residual:.3e}"]
        lines += [f"  {k:24s} {v:.3e}" for k, v in self.residuals.items()]
        return "\n".join(lines)


def _direct_sum(a: np.ndarray, dim: int) -> np.ndarray:
    """Block diagonal ``a (+) I_dim``."""
    out = zeros(a.shape[0] + dim, a.shape[1] + dim)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = np.eye(dim)
    return out


# ---------------------------------------------------------------------------
# witness types


@dataclass(frozen=True)
class SCWitness:
    """Schur coupling witness: M = [[A, B], [C, D]] with complements (U, V)."""

    M: Block2x2
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", as_matrix(self.U))
        object.__setattr__(self, "V", as_matrix(self.V))
        n, m = self.M.row_split
        if self.M.col_split != (n, m):
            raise ShapeError("coupling matrix must have equal row and column splits")
        if self.U.shape != (n, n) or self.V.shape != (m, m):
            raise ShapeError("U, V shapes do not match the block splits of M")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True)
class MCWitness:
    """Matricial coupling witness: corners of Uhat and its inverse."""

    Uhat: np.ndarray
    UhatInv: np.ndarray
    n: int
    m: int
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        for name in ("Uhat", "UhatInv", "U", "V"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        d = self.n + self.m
        if self.Uhat.shape != (d, d) or self.UhatInv.shape != (d, d):
            raise ShapeError(f"coupling matrices must be {d}x{d}")
        if self.U.shape != (self.n, self.n) or self.V.shape != (self.m, self.m):
            raise ShapeError("U, V shapes do not match the declared split")


@dataclass(frozen=True)
class EAEWitness:
    """General equivalence-after-extension witness: U (+) I = E (V (+) I) F."""

    U: np.ndarray
    V: np.ndarray
    E: np.ndarray
    F: np.ndarray
    x0_dim: int
    y0_dim: int

    def __post_init__(self):
        for name in ("U", "V", "E", "F"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        n, m = self.U.shape[0], self.V.shape[0]
        if self.U.shape != (n, n) or self.V.shape != (m, m):
            raise ShapeError("U and V must be square")
        if self.E.shape != (n + self.x0_dim, m + self.y0_dim):
            raise ShapeError("E shape inconsistent with extension dimensions")
        if self.F.shape != (m + self.y0_dim, n + self.x0_dim):
            raise ShapeError("F shape inconsistent with extension dimensions")


@dataclass(frozen=True)
class EAESpecialWitness:
    """EAE witness in the anchored form (X0 = Y, Y0 = X), inverses attached.

    Splits: ``E`` maps Y (+) X -> X (+) Y, ``F`` maps X (+) Y -> Y (+) X,
    so with n = dim X and m = dim Y the stored arrays have shapes
    ``E: (n+m) x (m+n)``, ``F: (m+n) x (n+m)`` and the inverses the reverse.
    """

    U: np.ndarray
    V: np.ndarray
    E: np.ndarray
    F: np.ndarray
    Einv: np.ndarray
    Finv: np.ndarray

    def __post_init__(self):
        for name in ("U", "V", "E", "F", "Einv", "Finv"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        n, m = self.U.shape[0], self.V.shape[0]
        if self.U.shape != (n, n) or self.V.shape != (m, m):
            raise ShapeError("U and V must be square")
        d = n + m
        for name in ("E", "F", "Einv", "Finv"):
            if getattr(self, name).shape != (d, d):
                raise ShapeError(f"{name} must be {d}x{d}")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[0]

    # block accessors; see the module docstring for the split conventions
    @property
    def E11(self) -> np.ndarray:
        return self.E[: self.n, : self.m]

    @property
    def E12(self) -> np.ndarray:
        return self.E[: self.n, self.m:]

    @property
    def E21(self) -> np.ndarray:
        return self.E[self.n:, : self.m]

    @property
    def E22(self) -> np.ndarray:
        return self.E[self.n:, self.m:]

    @property
    def F11(self) -> np.ndarray:
        return self.F[: self.m, : self.n]

    @property
    def F12(self) -> np.ndarray:
        return self.F[: self.m, self.n:]

    @property
    def F21(self) -> np.ndarray:
        return self.F[self.m:, : self.n]

    @property
    def F22(self) -> np.ndarray:
        return self.F[self.m:, self.n:]

    @property
    def Ehat11(self) -> np.ndarray:
        return self.Einv[: self.m, : self.n]

    @property
    def Ehat21(self) -> np.ndarray:
        return self.Einv[self.m:, : self.n]

    # one full SVD per corner, shared by every step of the reduction
    @cached_property
    def f22_svd(self) -> SvdResult:
        return svd(self.F22)

    @cached_property
    def e11_svd(self) -> SvdResult:
        return svd(self.E11)

    @cached_property
    def residual_table(self) -> Mapping[str, float]:
        """Exact residuals of the twenty pairs of :func:`_special_pairs`, in
        their order; read-only, so every report holds a copy."""
        return MappingProxyType({label: rel_residual(lhs, rhs)
                                 for label, (lhs, rhs) in _special_pairs(self)})


@dataclass(frozen=True)
class EAOEWitness:
    """One-sided extension witness.

    ``extended_side == "U"``: U (+) I_ext = E V F;
    ``extended_side == "V"``: U = E (V (+) I_ext) F.
    Inverses of E and F are carried when the construction provides them.
    """

    extended_side: str
    ext_dim: int
    E: np.ndarray
    F: np.ndarray
    U: np.ndarray
    V: np.ndarray
    Einv: np.ndarray | None = None
    Finv: np.ndarray | None = None

    def __post_init__(self):
        if self.extended_side not in ("U", "V"):
            raise ShapeError("extended_side must be 'U' or 'V'")
        for name in ("U", "V", "E", "F"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        n, m = self.U.shape[0], self.V.shape[0]
        if self.extended_side == "U":
            e_shape, f_shape = (n + self.ext_dim, m), (m, n + self.ext_dim)
        else:
            e_shape, f_shape = (n, m + self.ext_dim), (m + self.ext_dim, n)
        if self.E.shape != e_shape or self.F.shape != f_shape:
            raise ShapeError("E, F shapes inconsistent with the extension side")


# ---------------------------------------------------------------------------
# verifiers


def verify_sc(w: SCWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check both Schur-complement identities of an SC witness.

    The report carries the two relative residuals plus the invertibility
    margins (smallest singular values) of the diagonal blocks.
    """
    a, b, c, d = w.M.a11, w.M.a12, w.M.a21, w.M.a22
    norm_a, cond_a = _norm_and_condition(a)
    norm_d, cond_d = _norm_and_condition(d)
    a_inv, d_inv = np.linalg.inv(a), np.linalg.inv(d)
    residuals = {
        "schur_u": rel_residual(w.U, a - b @ d_inv @ c),
        "schur_v": rel_residual(w.V, d - c @ a_inv @ b),
    }
    extras = {
        "sigma_min_a": norm_a / cond_a if w.n else 1.0,
        "sigma_min_d": norm_d / cond_d if w.m else 1.0,
        "cond_a": cond_a,
        "cond_d": cond_d,
    }
    return VerifierReport("sc", residuals, tol, extras)


def verify_mc(w: MCWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check invertibility and the two corner identities of an MC witness."""
    d = w.n + w.m
    residuals = {
        "uhat_inverse": rel_residual(w.Uhat @ w.UhatInv, eye(d)),
        "uhat_inverse_left": rel_residual(w.UhatInv @ w.Uhat, eye(d)),
        "corner_u": rel_residual(w.Uhat[: w.n, : w.n], w.U),
        "corner_v": rel_residual(w.UhatInv[w.n:, w.n:], w.V),
    }
    return VerifierReport("mc", residuals, tol)


def verify_eae(w: EAEWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check the extension equation and invertibility of a general EAE witness."""
    cond_e = condition_number(w.E)
    cond_f = condition_number(w.F)
    lhs = _direct_sum(w.U, w.x0_dim)
    rhs = w.E @ _direct_sum(w.V, w.y0_dim) @ w.F
    residuals = {"extension_equation": rel_residual(lhs, rhs)}
    return VerifierReport("eae", residuals, tol, {"cond_e": cond_e, "cond_f": cond_f})


def _special_pairs(w: EAESpecialWitness):
    """Yield the twenty ``(label, (lhs, rhs))`` pairs of an anchored witness.

    They cover the stored inverses, the anchored corners of E, F and their
    inverses, the closed form of F^-1, the extension equation and the eleven
    block identities, in the order the residual tables list them.  Pairs are
    built one at a time, so a consumer holds one pair of products at once.
    """
    n, m = w.n, w.m
    d = n + m
    u, v = w.U, w.V
    e11, e21 = w.E11, w.E21
    f11, f21, f22 = w.F11, w.F21, w.F22
    eh11, eh21 = w.Ehat11, w.Ehat21

    finv_form = np.zeros((d, d), dtype=np.complex128)
    finv_form[:n, :m] = -f22
    finv_form[:n, m:] = np.eye(n)
    finv_form[n:, :m] = eye(m) + f11 @ f22
    finv_form[n:, m:] = -f11

    yield "e_times_einv", (w.E @ w.Einv, eye(d))
    yield "f_times_finv", (w.F @ w.Finv, eye(d))
    yield "corner_e12_u", (w.E12, u)
    yield "corner_f12_id", (w.F12, eye(m))
    yield "corner_e22_f11", (w.E22, -f11)
    yield "corner_einv12_v", (w.Einv[:m, n:], v)
    yield "corner_einv22_f22", (w.Einv[m:, n:], f22)
    yield "finv_form", (w.Finv, finv_form)
    yield "extension_equation", (_direct_sum(u, m), w.E @ _direct_sum(v, n) @ w.F)
    yield "identity_i", (f21 - f22 @ f11, eye(n))
    yield "identity_ii", (u, e11 @ v @ f11 + u @ f21)
    yield "identity_iii", (e21 @ v @ f11, f11 @ f21)
    yield "identity_iv", (e11 @ v, -u @ f22)
    yield "identity_v", (f11 @ f22, e21 @ v - eye(m))
    yield "identity_vi", (eh11 @ u, v @ f11)
    yield "identity_vii", (eh21 @ u, f21)
    yield "identity_viii", (e11 @ eh11, eye(n) - u @ eh21)
    yield "identity_ix", (e21 @ eh11, f11 @ eh21)
    yield "identity_x", (eh11 @ e11, eye(m) - v @ e21)
    yield "identity_xi", (eh21 @ e11, -f22 @ e21)


def verify_eae_special(w: EAESpecialWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Full residual table for an anchored witness.

    Checks the stored inverses, the anchored corners of E, F and their
    inverses, the closed form of F^-1, the extension equation and the eleven
    block identities.  The extras are the smallest singular values of E, F.
    """
    residuals = dict(w.residual_table)
    d = w.n + w.m
    sig_e = _svd_vals(w.E)
    sig_f = _svd_vals(w.F)
    extras = {"sigma_min_e": float(sig_e[-1]) if d else 1.0,
              "sigma_min_f": float(sig_f[-1]) if d else 1.0}
    return VerifierReport("eae_special", residuals, tol, extras)


def verify_eaoe(w: EAOEWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check the one-sided extension equation and invertibility of E, F."""
    cond_e = condition_number(w.E)
    cond_f = condition_number(w.F)
    if w.extended_side == "U":
        lhs = _direct_sum(w.U, w.ext_dim)
        rhs = w.E @ w.V @ w.F
    else:
        lhs = w.U
        rhs = w.E @ _direct_sum(w.V, w.ext_dim) @ w.F
    residuals = {"extension_equation": rel_residual(lhs, rhs), **_inverse_residuals(w)}
    return VerifierReport("eaoe", residuals, tol, {"cond_e": cond_e, "cond_f": cond_f})


def _inverse_residuals(w: EAOEWitness) -> dict[str, float]:
    """Residuals of the inverses of E and F that an EAOE witness carries."""
    residuals = {}
    if w.Einv is not None:
        residuals["e_times_einv"] = rel_residual(w.E @ w.Einv, eye(w.E.shape[0]))
    if w.Finv is not None:
        residuals["f_times_finv"] = rel_residual(w.F @ w.Finv, eye(w.F.shape[0]))
    return residuals


# ---------------------------------------------------------------------------
# converters


def _checked(report: VerifierReport, what: str) -> VerifierReport:
    """Return ``report``, or raise :class:`ConversionError` if it failed."""
    if not report.passed:
        label, value = report.worst()
        raise ConversionError(
            f"{what} failed verification: {label} residual {value:.3e} "
            f"exceeds {report.tol:g}",
            report=report,
        )
    return report


def _checked_pairs(kind: str, pairs, tol: float, what: str) -> None:
    """:func:`_checked` on the residual table of the labelled ``(lhs, rhs)``
    pairs that the callable ``pairs`` yields, settled by the certified bound
    when it can be; the pairs are generated again for the exact table."""
    if not _certainly_within((pair for _, pair in pairs()), tol):
        residuals = {label: rel_residual(*pair) for label, pair in pairs()}
        _checked(VerifierReport(kind, residuals, tol), what)


def sc_to_mc(w: SCWitness, tol: float = DEFAULT_TOL) -> MCWitness:
    """Matricial coupling from a Schur coupling.

    With ``M = [[A, B], [C, D]]`` the coupling matrix and its inverse are

        Uhat    = [[U, B D^-1], [-D^-1 C, D^-1]]
        Uhat^-1 = [[A^-1, -A^-1 B], [C A^-1, V]]

    which factor as ``Uhat = [[I, B], [0, I]] @ [[A, 0], [-D^-1 C, D^-1]]``;
    the construction is validated against that factorization and by
    :func:`verify_mc`.
    """
    a, b, c, d = w.M.a11, w.M.a12, w.M.a21, w.M.a22
    n, m = w.n, w.m
    a_inv, _ = inverse(a)
    d_inv, _ = inverse(d)
    uhat = Block2x2(w.U, b @ d_inv, -d_inv @ c, d_inv).assemble()
    uhat_inv = Block2x2(a_inv, -a_inv @ b, c @ a_inv, w.V).assemble()

    factored = (
        Block2x2(eye(n), b, zeros(m, n), eye(m)).assemble()
        @ Block2x2(a, zeros(n, m), -d_inv @ c, d_inv).assemble()
    )
    mc = MCWitness(Uhat=uhat, UhatInv=uhat_inv, n=n, m=m, U=w.U, V=w.V)
    report = verify_mc(mc, tol)
    residuals = dict(report.residuals)
    residuals["factorization"] = rel_residual(uhat, factored)
    _checked(VerifierReport("mc", residuals, tol), "sc_to_mc")
    return mc


def mc_to_eae_special(w: MCWitness, tol: float = DEFAULT_TOL) -> EAESpecialWitness:
    """Anchored EAE witness from a matricial coupling.

    Writing ``Uhat = [[U, R], [Q, S]]`` and ``Uhat^-1 = [[A, B], [C, V]]``:

        E = [[R, U], [S, Q]]          F = [[-Q, I], [A U, B]]
        E^-1 = [[C, V], [A, B]]       F^-1 = [[-B, I], [I - Q B, Q]]

    and ``E (V (+) I_X) F = U (+) I_Y``.  All four matrices come from corner
    blocks, so no numerical inversion is involved; the output is validated by
    the witness's cached residual table, which :func:`verify_eae_special`
    and the pipeline read again without recomputing it.
    """
    n, m = w.n, w.m
    r = w.Uhat[:n, n:]
    q = w.Uhat[n:, :n]
    s = w.Uhat[n:, n:]
    a = w.UhatInv[:n, :n]
    b = w.UhatInv[:n, n:]
    c = w.UhatInv[n:, :n]

    e = Block2x2(r, w.U, s, q).assemble()
    f = Block2x2(-q, eye(m), a @ w.U, b).assemble()
    einv = Block2x2(c, w.V, a, b).assemble()
    finv = Block2x2(-b, eye(n), eye(m) - q @ b, q).assemble()

    witness = EAESpecialWitness(U=w.U, V=w.V, E=e, F=f, Einv=einv, Finv=finv)
    # the residual table alone: nothing downstream reads the sigma_min extras
    _checked(VerifierReport("eae_special", dict(witness.residual_table), tol),
             "mc_to_eae_special")
    return witness


def sc_from_eaoe(w: EAOEWitness,
                 tol: float = DEFAULT_TOL) -> tuple[SCWitness, VerifierReport]:
    """Schur coupling from a one-sided extension equivalence, with the report
    it was verified by.

    Orient the relation as ``T = E' (S (+) I_Z) F'`` (for a V-extended
    witness ``T = U, S = V`` directly; for a U-extended one pass to the
    inverses so that ``T = V, S = U``).  Then

        M0 = [[E' F', E' J_S], [(I - S) Pi_S F', I]]

    has Schur complements ``(T, S)``; J_S and Pi_S embed and project the
    S-summand of the extended space.  When the orientation was flipped the
    block rows/columns of M0 are swapped so the result couples ``(U, V)``.
    """
    if w.extended_side == "V":
        e_p, f_p = w.E, w.F
        s_op, swap = w.V, False
    else:
        e_p = w.Einv if w.Einv is not None else inverse(w.E)[0]
        f_p = w.Finv if w.Finv is not None else inverse(w.F)[0]
        s_op, swap = w.U, True

    k = s_op.shape[0]
    ext = w.ext_dim
    j_s = zeros(k + ext, k)
    j_s[:k, :k] = np.eye(k)
    pi_s = adjoint(j_s)

    a = e_p @ f_p
    b = e_p @ j_s
    c = (eye(k) - s_op) @ pi_s @ f_p
    d = eye(k)
    if swap:
        m = Block2x2(d, c, b, a)
    else:
        m = Block2x2(a, b, c, d)
    sc = SCWitness(M=m, U=w.U, V=w.V)
    return sc, _checked(verify_sc(sc, tol), "sc_from_eaoe")
