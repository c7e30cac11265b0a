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
in the spectral norm at its acceptance ``tol``, through
:func:`~opcoupling.numkernel.rel_residual`.  An entry is the value the SVD
gives, or, where a certificate puts it at most ``tol``, a certified upper
bound of the residual of the stored floats; the report names those entries
in ``certified``.  A bound passes ``tol`` exactly when the SVD value does,
so every decision, failing entry and message is the SVD's.  A denominator
is computed by SVD only when it may exceed 1, since a certified bound
settles ``max(1, ||rhs||) = 1`` otherwise, and an exact identity block has
norm and condition 1 without one.  Special-form witnesses carry
their inverses so that verification cost and accuracy do not depend on
re-inverting ``E`` and ``F``.  A witness holds its matrices and sizes and
nothing else.

Every residual table, here and in :mod:`~opcoupling.reduction`, is checked
by :func:`_checked`, which raises :class:`ConversionError` naming the worst
entry, with the table attached.  Only the block forms of the corners, whose
values nobody records, are settled first by a certified bound (see
:func:`~opcoupling.reduction.decompose_corners`).

Each converter verifies its output once, and the pipeline records that
report as the converter's stage instead of verifying the witness again:
each builder returns its report, and the next step reads it.
:func:`_anchored` reads the report of the coupling it builds from, as
:func:`verify_mc` or :func:`~opcoupling.instances.synth_mc` gave it.  The
twenty-entry anchored table is evaluated by :func:`verify_eae_special`,
and by a supplied witness's stage through the same private helper
(:func:`_anchored_table`).  :func:`verify_eaoe` is :func:`verify_eae` with
the other extension trivial, plus the residuals of the inverses
(:func:`_eaoe_report`).  Every verifier but :func:`verify_sc` evaluates
its pairs through :func:`_residuals`, which names the verifier and the
entry of a product that overflows.

**A witness built from a coupling.**  :func:`mc_to_eae_special` verifies
its witness by the coupling's table and ``f_times_finv`` alone
(:func:`_anchored`): every other anchored entry is bounded from these,
as follows.  Write ``Uhat = [[U', R], [Q, S]]`` and ``UhatInv = [[A, B],
[C, V']]``, with ``eU = U - U'`` and ``eV = V - V'`` the errors of the
corners, ``D = Uhat UhatInv - I`` and ``D' = UhatInv Uhat - I``, and ``d1 =
F21 - A U`` and ``d2 = Finv21 - (I - Q B)`` the rounding of the only two
products the witness adds.  Its other blocks are copies (``E = [[R, U], [S,
Q]]``, ``E^-1 = [[C, V], [A, B]]``, ``F11 = -Q``, ``F22 = B``), so the five
corner pins are exactly 0, and over the stored floats, ``lhs - rhs`` is

    e_times_einv   D + [[eU A, eU B + R eV], [0, S eV]]
    f_times_finv   [[d2, 0], [B d2 - Z B, Z]],   Z = D'11 + A eU + d1
    finv_form      d2 in the (2, 1) block, 0 elsewhere
    extension_eq.  -[[X11, X12], [X21, X22]], where
                   X11 = D11 U - R D'21 - R eV Q - R C eU + eU A U + U d1
                   X12 = D12 + eU B + R eV
                   X21 = D21 U - S D'21 - S eV Q - S C eU + Q d1
                   X22 = D22 + S eV
    (i) Z   (ii) -X11   (iii) X21   (iv) X12   (v) -X22
    (vi) D'21 + C eU + eV Q   (vii) -d1   (viii) D11 + eU A
    (ix) D21   (x) D'22 + eV S   (xi) D'12

Bounds (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
ch. 3, with ``u = eps / 2`` and ``gamma_k = k u / (1 - k u)``).  Each real
and imaginary part of a complex product of inner dimension ``k <= d = n +
m`` sums ``2k`` real products, so in any order it errs by at most
``sqrt(2) gamma_2k |X| |Y|`` entrywise.  A check's at most two products in
a row and two additions then err by at most ``g = gamma_(6d+8)`` times the
sum, over the terms of lhs and rhs, of the products of the factors' moduli;
``T`` below is that sum with each modulus replaced by its factor's
Frobenius norm.  A residual of the table is taken to be at least ``1 - s``
times the true one, ``s = d SVD_SLACK = 16 d eps``: the SVD's relative
error (:mod:`~opcoupling.numkernel`), or none for a certified bound, which
lies above it.  A computed Frobenius norm of a matrix or of a product of
moduli is taken to be within ``1 / rho``,
``rho = 1 / (1 - gamma_(2d^2+2d+8))``.  With ``kappa = ((1 + s) / (1 -
s))^2`` and ``N = rho max(1, sqrt(d), ||E||_F, ||E^-1||_F, ||F||_F,
||F^-1||_F)``, which bounds the norm of every block above and of every
identity block, the coupling's table ``t`` and the two products give

    ||D||, ||D'||    <= eta  = kappa max(t.uhat_inverse, t.uhat_inverse_left)
                               + g (rho^2 ||Uhat||_F ||UhatInv||_F + N)
    ||eU||, ||eV||   <= eta' = kappa max(t.corner_u, t.corner_v) N
    ||d1||           <= au_rounding = sqrt(2) gamma_2n rho || |A| |U| ||_F
    ||d2||           <= qb_rounding = sqrt(2) gamma_(2n+1) rho || |Q| |B| ||_F
                                      + u sqrt(m)

and every computed entry is at most ``kappa (a eta + e eta' + b
au_rounding + c qb_rounding + g T)`` with

    entry                    a        e          b       c       T
    e_times_einv             1        2N         0       0       N^2 + N
    f_times_finv             N + 1    N^2 + N    N + 1   N + 1   N^2 + N
    corner pins (five)       0        0          0       0       0
    finv_form                0        0          0       1       N^2 + 5N
    extension_equation       4N + 2   5N^2 + 3N  2N      0       2N^3 + 2N
    identity_i               1        N          1       0       N^2 + 2N
    identity_ii              2N       3N^2       N       0       N^3 + N^2 + N
    identity_iii             2N       2N^2       N       0       N^3 + N^2
    identity_iv, _vi         1        2N         0       0       2N^2
    identity_v, _viii, _x    1        N          0       0       2N^2 + N
    identity_vii             0        0          1       0       N^2 + N
    identity_ix, _xi         1        0          0       0       2N^2

Since ``N >= 1``, every row is at most the report's ``anchored_bound``,
``kappa ((4N + 2) eta + (5N^2 + 3N) eta' + 2N au_rounding + (N + 1)
qb_rounding + g (2N^3 + N^2 + 5N))``.  It takes no SVD.  As a worst case
it lies far above the entries it bounds: at 200 x 220 it reads 2.3e-8,
and the largest entry 1.2e-14.  ``finv_form`` and ``identity_vii`` repeat
the builder's own products, so they read 0 as well.  The bounds are
evidence only: pass and fail stay on the table's residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockops import Block2x2
from .errors import ConversionError, NumericalError, ShapeError
from .numkernel import (
    EPS,
    SVD_SLACK,
    _Bound,
    _gamma,
    _norm_and_condition,
    as_matrix,
    condition_number,
    eye,
    lu_inverse,
    rel_residual,
    zeros,
)

DEFAULT_TOL = 1e-8


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class VerifierReport:
    """Residual table produced by a witness verifier.

    ``certified`` names, in table order, the entries that are certified
    upper bounds rather than SVD values (see
    :func:`~opcoupling.numkernel.rel_residual`).  An entry given as such a
    bound is named there and stored as a plain float.
    """

    kind: str
    residuals: dict[str, float]
    tol: float
    extras: dict[str, float] = field(default_factory=dict)
    certified: tuple[str, ...] = ()

    def __post_init__(self):
        bounds = {*self.certified, *(label for label, value in self.residuals.items()
                                     if isinstance(value, _Bound))}
        object.__setattr__(self, "certified",
                           tuple(label for label in self.residuals if label in bounds))
        object.__setattr__(self, "residuals",
                           {label: float(value) for label, value in self.residuals.items()})

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
        if n + self.x0_dim != m + self.y0_dim:
            raise ShapeError(f"extended spaces differ in size: n + x0_dim = "
                             f"{n + self.x0_dim}, m + y0_dim = {m + self.y0_dim}")
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
        if e_shape[0] != e_shape[1]:
            raise ShapeError(f"extended spaces differ in size: {e_shape[0]} on "
                             f"the U side, {e_shape[1]} on the V side")
        if self.E.shape != e_shape or self.F.shape != f_shape:
            raise ShapeError("E, F shapes inconsistent with the extension side")
        for name, shape in (("Einv", e_shape[::-1]), ("Finv", f_shape[::-1])):
            inv = getattr(self, name)
            if inv is not None:
                object.__setattr__(self, name, inv := as_matrix(inv))
                if inv.shape != shape:
                    raise ShapeError(f"{name} must be {shape[0]}x{shape[1]}")


# ---------------------------------------------------------------------------
# verifiers


def _residuals(verifier: str, pairs, tol: float) -> dict[str, float]:
    """The residual at ``tol`` of each ``(label, (lhs, rhs))`` the generator
    ``pairs`` yields, formed with numpy's overflow warnings off: a
    :class:`NumericalError`, such as that of a product that overflowed, is
    raised again naming ``verifier`` and the label."""
    table = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for label, (lhs, rhs) in pairs:
            try:
                table[label] = rel_residual(lhs, rhs, tol)
            except NumericalError as exc:
                raise NumericalError(f"{verifier}: {label}: {exc}") from exc
    return table


def verify_sc(w: SCWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check both Schur-complement identities of an SC witness.

    The report carries the two relative residuals plus the invertibility
    margins (smallest singular values) and condition numbers of the
    diagonal blocks.  Each block is inverted by one LU, which a block that
    is exactly an identity, as ``D`` of :func:`sc_from_eaoe`'s witness is,
    skips: it is its own inverse, its condition takes no SVD, and the Schur
    complement through it leaves it out of the product.
    """
    a, b, c, d = w.M.a11, w.M.a12, w.M.a21, w.M.a22
    norm_a, cond_a = _norm_and_condition(a)
    norm_d, cond_d = _norm_and_condition(d)
    a_inv, d_inv = lu_inverse(a), lu_inverse(d)
    # an overflowing product would read as a nan residual and blame the witness
    with np.errstate(over="ignore", invalid="ignore"):
        b_d = b if d_inv is d else b @ d_inv
        c_a = c if a_inv is a else c @ a_inv
        complements = {"schur_u": (w.U, a - b_d @ c), "schur_v": (w.V, d - c_a @ b)}
    for label, (_, rhs) in complements.items():
        if not np.isfinite(rhs).all():
            raise NumericalError(f"verify_sc: forming {label} overflows: its Schur "
                                 "complement has entries that are not finite")
    residuals = {label: rel_residual(lhs, rhs, tol) for label, (lhs, rhs) in complements.items()}
    extras = {
        "sigma_min_a": norm_a / cond_a if w.n else 1.0,
        "sigma_min_d": norm_d / cond_d if w.m else 1.0,
        "cond_a": cond_a,
        "cond_d": cond_d,
    }
    return VerifierReport("sc", residuals, tol, extras)


def _mc_pairs(w: MCWitness):
    """Yield the four ``(label, (lhs, rhs))`` pairs of an MC witness: both
    products of ``Uhat`` with its inverse, then the two corners."""
    n, d = w.n, w.n + w.m
    yield "uhat_inverse", (w.Uhat @ w.UhatInv, eye(d))
    yield "uhat_inverse_left", (w.UhatInv @ w.Uhat, eye(d))
    yield "corner_u", (w.Uhat[:n, :n], w.U)
    yield "corner_v", (w.UhatInv[n:, n:], w.V)


def verify_mc(w: MCWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check invertibility and the two corner identities of an MC witness."""
    return VerifierReport("mc", _residuals("verify_mc", _mc_pairs(w), tol), tol)


def _eae_pairs(w: EAEWitness):
    """Yield the one ``(label, (lhs, rhs))`` pair of a general EAE witness."""
    yield "extension_equation", (_direct_sum(w.U, w.x0_dim),
                                 w.E @ _direct_sum(w.V, w.y0_dim) @ w.F)


def verify_eae(w: EAEWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check the extension equation and invertibility of a general EAE witness."""
    cond_e = condition_number(w.E)
    cond_f = condition_number(w.F)
    residuals = _residuals("verify_eae", _eae_pairs(w), tol)
    return VerifierReport("eae", residuals, tol, {"cond_e": cond_e, "cond_f": cond_f})


def _special_pairs(w: EAESpecialWitness):
    """Yield the twenty ``(label, (lhs, rhs))`` pairs of an anchored witness.

    They cover the two inverses, the anchored corners of E, F and their
    inverses, the closed form of F^-1, the extension equation and the
    eleven block identities, in the order the residual tables list them.
    Pairs are built one at a time, so a consumer holds one pair of products
    at once.
    """
    n, m = w.n, w.m
    d = n + m
    u, v = w.U, w.V
    e11, e21 = w.E11, w.E21
    f11, f21, f22 = w.F11, w.F21, w.F22
    eh11, eh21 = w.Ehat11, w.Ehat21

    yield "e_times_einv", (w.E @ w.Einv, eye(d))
    yield "f_times_finv", (w.F @ w.Finv, eye(d))

    finv_form = np.zeros((d, d), dtype=np.complex128)
    finv_form[:n, :m] = -f22
    finv_form[:n, m:] = np.eye(n)
    finv_form[n:, :m] = eye(m) + f11 @ f22
    finv_form[n:, m:] = -f11

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


def _anchored_table(w: EAESpecialWitness, tol: float) -> dict[str, float]:
    """The residuals at ``tol`` of the twenty pairs of :func:`_special_pairs`."""
    return _residuals("verify_eae_special", _special_pairs(w), tol)


def verify_eae_special(w: EAESpecialWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Full residual table for an anchored witness.

    Checks the stored inverses, the anchored corners of E, F and their
    inverses, the closed form of F^-1, the extension equation and the eleven
    block identities (:func:`_anchored_table`), with no extras.
    """
    return VerifierReport("eae_special", _anchored_table(w, tol), tol)


def verify_eaoe(w: EAOEWitness, tol: float = DEFAULT_TOL) -> VerifierReport:
    """Check the one-sided extension equation and invertibility of E, F:
    :func:`verify_eae` with the other extension trivial, then the residuals
    of the inverses the witness carries."""
    x0, y0 = (w.ext_dim, 0) if w.extended_side == "U" else (0, w.ext_dim)
    eae = verify_eae(EAEWitness(U=w.U, V=w.V, E=w.E, F=w.F, x0_dim=x0, y0_dim=y0), tol)
    return _eaoe_report(w, eae, tol)


def _eaoe_report(w: EAOEWitness, extension: VerifierReport, tol: float) -> VerifierReport:
    """The report of ``w`` at ``tol``: the table and extras of
    ``extension``, the report of ``w``'s extension equation, then the
    residuals of the inverses of E and F that ``w`` carries."""
    residuals = {**extension.residuals, **_residuals("verify_eaoe", _inverse_pairs(w), tol)}
    return VerifierReport("eaoe", residuals, tol, dict(extension.extras), extension.certified)


def _inverse_pairs(w: EAOEWitness):
    """Yield the ``(label, (lhs, rhs))`` pair of each inverse ``w`` carries."""
    if w.Einv is not None:
        yield "e_times_einv", (w.E @ w.Einv, eye(w.E.shape[0]))
    if w.Finv is not None:
        yield "f_times_finv", (w.F @ w.Finv, eye(w.F.shape[0]))


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
    a_inv, d_inv = lu_inverse(a), lu_inverse(d)
    uhat = Block2x2(w.U, b @ d_inv, -d_inv @ c, d_inv).assemble()
    uhat_inv = Block2x2(a_inv, -a_inv @ b, c @ a_inv, w.V).assemble()

    factored = (
        Block2x2(eye(n), b, zeros(m, n), eye(m)).assemble()
        @ Block2x2(a, zeros(n, m), -d_inv @ c, d_inv).assemble()
    )
    mc = MCWitness(Uhat=uhat, UhatInv=uhat_inv, n=n, m=m, U=w.U, V=w.V)
    report = verify_mc(mc, tol)
    residuals = dict(report.residuals)
    residuals["factorization"] = rel_residual(uhat, factored, tol)
    _checked(VerifierReport("mc", residuals, tol, certified=report.certified), "sc_to_mc")
    return mc


def mc_to_eae_special(w: MCWitness, tol: float = DEFAULT_TOL) -> EAESpecialWitness:
    """Anchored EAE witness from a matricial coupling.

    Writing ``Uhat = [[U, R], [Q, S]]`` and ``Uhat^-1 = [[A, B], [C, V]]``:

        E = [[R, U], [S, Q]]          F = [[-Q, I], [A U, B]]
        E^-1 = [[C, V], [A, B]]       F^-1 = [[-B, I], [I - Q B, Q]]

    and ``E (V (+) I_X) F = U (+) I_Y``.  All four matrices come from corner
    blocks, so no numerical inversion is involved.  E and E^-1 copy the
    blocks of ``Uhat`` and its inverse, and only ``A U`` and ``I - Q B`` are
    new products, so the output is verified by the coupling's table
    (:func:`verify_mc`) and the one entry ``f_times_finv``, which measures
    both products; every other anchored entry is bounded from these (see
    the module docstring), and the bound is the report's ``anchored_bound``
    extra.  The pipeline records that report as its ``mc_to_special`` stage
    (see :func:`_anchored`).
    """
    return _anchored(w, verify_mc(w, tol))[0]


def _anchored(mc: MCWitness,
              coupling: VerifierReport) -> tuple[EAESpecialWitness, VerifierReport]:
    """The witness :func:`mc_to_eae_special` builds from ``mc``, with the
    report it was verified by at the ``tol`` of ``coupling``, the report
    ``mc`` was verified by: that table, then the witness's ``f_times_finv``,
    with the a priori bounds of the module docstring as extras, which take
    no SVD."""
    n, m = mc.n, mc.m
    r = mc.Uhat[:n, n:]
    q = mc.Uhat[n:, :n]
    s = mc.Uhat[n:, n:]
    a = mc.UhatInv[:n, :n]
    b = mc.UhatInv[:n, n:]
    c = mc.UhatInv[n:, :n]

    e = Block2x2(r, mc.U, s, q).assemble()
    f = Block2x2(-q, eye(m), a @ mc.U, b).assemble()
    einv = Block2x2(c, mc.V, a, b).assemble()
    finv = Block2x2(-b, eye(n), eye(m) - q @ b, q).assemble()
    w = EAESpecialWitness(U=mc.U, V=mc.V, E=e, F=f, Einv=einv, Finv=finv)

    d = n + m
    fro = np.linalg.norm
    rho = 1.0 / (1.0 - _gamma(2 * d * d + 2 * d + 8))
    kappa = ((1.0 + d * SVD_SLACK) / (1.0 - d * SVD_SLACK)) ** 2
    g = _gamma(6 * d + 8)
    big_n = rho * max(1.0, d ** 0.5, *(fro(x) for x in (w.E, w.Einv, w.F, w.Finv)))
    table = coupling.residuals
    eta = (kappa * max(table["uhat_inverse"], table["uhat_inverse_left"])
           + g * (rho * rho * fro(mc.Uhat) * fro(mc.UhatInv) + big_n))
    eta_corner = kappa * max(table["corner_u"], table["corner_v"]) * big_n
    au = 2 ** 0.5 * _gamma(2 * n) * rho * fro(np.abs(w.Ehat21) @ np.abs(w.U))
    qb = (2 ** 0.5 * _gamma(2 * n + 1) * rho * fro(np.abs(w.F11) @ np.abs(w.F22))
          + EPS / 2 * m ** 0.5)
    bound = kappa * ((4 * big_n + 2) * eta + (5 * big_n + 3) * big_n * eta_corner
                     + 2 * big_n * au + (big_n + 1) * qb
                     + g * (2 * big_n * big_n + big_n + 5) * big_n)
    extras = {"au_rounding": float(au), "qb_rounding": float(qb),
              "anchored_bound": float(bound)}
    residuals = {**table, "f_times_finv": rel_residual(w.F @ w.Finv, eye(d), coupling.tol)}
    report = VerifierReport("eae_special", residuals, coupling.tol, extras, coupling.certified)
    return w, _checked(report, "mc_to_eae_special")


def sc_from_eaoe(w: EAOEWitness,
                 tol: float = DEFAULT_TOL) -> tuple[SCWitness, VerifierReport]:
    """Schur coupling from a one-sided extension equivalence, with the report
    it was verified by.

    Orient the relation as ``T = E' (S (+) I_Z) F'`` (for a V-extended
    witness ``T = U, S = V`` directly; for a U-extended one pass to the
    inverses so that ``T = V, S = U``).  Then

        M0 = [[E' F', E' J_S], [(I - S) Pi_S F', I]]

    has Schur complements ``(T, S)``; J_S and Pi_S embed and project the
    S-summand of the extended space, so ``E' J_S`` is the leading columns
    of ``E'`` and ``Pi_S F'`` the leading rows of ``F'``, taken as slices.
    When the orientation was flipped the block rows/columns of M0 are
    swapped so the result couples ``(U, V)``.
    """
    if w.extended_side == "V":
        e_p, f_p = w.E, w.F
        s_op, swap = w.V, False
    else:
        e_p = w.Einv if w.Einv is not None else lu_inverse(w.E)
        f_p = w.Finv if w.Finv is not None else lu_inverse(w.F)
        s_op, swap = w.U, True

    k = s_op.shape[0]
    a = e_p @ f_p
    b = e_p[:, :k]
    c = (eye(k) - s_op) @ f_p[:k]
    d = eye(k)
    if swap:
        m = Block2x2(d, c, b, a)
    else:
        m = Block2x2(a, b, c, d)
    sc = SCWitness(M=m, U=w.U, V=w.V)
    return sc, _checked(verify_sc(sc, tol), "sc_from_eaoe")
