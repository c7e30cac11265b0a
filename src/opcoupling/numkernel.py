"""Tolerance-aware dense complex linear algebra.

Every operator in this package is carried by a dense complex matrix
(``numpy.ndarray`` with ``dtype=complex128``).  Zero-dimensional shapes such
as ``(0, k)`` are first-class citizens: degenerate subspace splits occur
routinely in the reduction pipeline and all routines here accept them.

A subspace basis is a block of columns of one :class:`SvdResult`'s unitary
factors, split at its rank: the leading ``rank`` columns of ``left`` span the
range and the trailing ones its orthogonal complement, and the trailing
columns of ``right`` span the kernel and the leading ones its complement.
Every such basis is orthonormal.

Every dense SVD and Cholesky factorization of the package is taken here.
The rule: an SVD is taken only for a value that nothing cheaper gives, or
for a check that nothing else settles.  One Cholesky certificate of
``c^2 I - a* a``, :func:`_gram_at_most`, proves ``||a||_2 <= c`` without an
SVD; :func:`_norm_at_most` tries two cheap bounds before it.  A denominator
``max(1, ||rhs||)`` that it proves to be 1, a pass/fail check whose
residual it proves within tol, and the norm and condition of an exact
identity take no SVD, and each gives the float the SVD would have given.

A recorded residual (:func:`rel_residual` with the acceptance ``tol``) is
either the SVD value or, where that is at most ``tol``, a certified bound
(:func:`_norm_ratio`): the level of a few power steps on the Gram matrix
of ``lhs - rhs``, times :data:`_CERT_RHO`, proven by the same certificate
on the same Gram matrix, over a certified lower bound of ``max(1,
||rhs||)``.  A bound lies above the residual of the stored ``lhs`` and
``rhs``, and above the SVD value, so it passes ``tol`` exactly when the SVD
value does, and every decision is the SVD's.  It covers the stored
difference only, not the rounding that formed ``lhs``.  Condition numbers
and the full SVDs that decide ranks stay on the SVD.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError, ShapeError, SingularMatrixError

EPS = float(np.finfo(np.float64).eps)
# an SVD's singular values are taken to be within a relative p * SVD_SLACK,
# for p the larger dimension of the matrix
SVD_SLACK = 16 * EPS
_TINY = float(np.finfo(np.float64).tiny)


def _svd_full(a: np.ndarray):
    try:
        return np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of shape {a.shape} failed: {exc}") from exc


def _svd_vals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of shape {a.shape} failed: {exc}") from exc


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array and validate its entries.

    Raises
    ------
    ShapeError
        If ``a`` is not two-dimensional.
    PreconditionError
        If any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise PreconditionError("matrix contains non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def spectral_norm(a) -> float:
    """Largest singular value; 0.0 for matrices with a zero dimension."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(_svd_vals(a)[0])


def _is_identity(a: np.ndarray) -> bool:
    """Whether ``a`` is exactly an identity matrix."""
    rows, cols = a.shape
    return rows == cols and np.count_nonzero(a) == rows and bool(np.all(np.diagonal(a) == 1))


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``, with ``u = eps / 2`` the unit
    roundoff: the relative error bound of ``k`` successive roundings."""
    ku = k * EPS / 2
    return ku / (1.0 - ku)


def _norm_at_most(a: np.ndarray, c: float) -> bool:
    """Whether ``spectral_norm(a) <= c`` is certain, settled without an SVD.

    True means ``||a||_2 <= edge = c (1 - slack)`` is proven; the slack
    covers the SVD's error (:data:`SVD_SLACK`) and the rounding of the bound
    that decides, so the SVD could not return more than ``c``.  For ``c >=
    1`` the identity, whose SVD returns exactly 1.0, is also settled.  ``a``
    is first scaled, exactly, by the power of two that puts ``c`` in (1/2,
    1].  The cheap bound ``min(||a||_F, sqrt(||a||_1 ||a||_inf))`` is tried
    first.  When it fails and no row or column has 2-norm above the edge,
    the Gram matrix certificate of :func:`_gram_at_most` decides.  False
    means only that neither settled it, or that ``c`` is no normal positive
    float.
    """
    if a.size == 0 or (c >= 1 and _is_identity(a)):
        return True
    if not _TINY <= c < np.inf:
        return False
    shift = math.frexp(math.nextafter(c, 0.0))[1]   # c / 2**shift is in (1/2, 1]
    rows, cols = a.shape
    # squares that overflow give inf, which certifies nothing
    with np.errstate(over="ignore", invalid="ignore"):
        a = a * 2.0 ** -shift if shift else a
        mag = np.abs(a)
        sq = mag * mag
        col2, row2 = sq.sum(axis=0), sq.sum(axis=1)
        fro2 = float(col2.sum())
        bound = min(float(np.sqrt(fro2)),
                    float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max())))
    edge = _edge(c * 2.0 ** -shift, a)
    # sqrt(size * tiny) covers the squares that underflow
    if bound + float(np.sqrt(a.size * _TINY)) <= edge:
        return True
    # ||a|| is at least each row's and column's 2-norm; the negated test
    # also turns away non-finite entries
    if not max(float(col2.max()), float(row2.max())) <= edge * edge:
        return False
    gram = adjoint(a) @ a if cols <= rows else a @ adjoint(a)
    return _gram_at_most(gram, fro2, max(rows, cols), edge)


def _edge(c: float, a: np.ndarray) -> float:
    """The level below ``c`` in (1/2, 1] that a bound on ``||a||_2`` must
    meet for the SVD of ``a`` not to return more than ``c``: the SVD's slack
    for the larger side ``p``, and ``(size + 4) eps`` for the rounding of
    the bound and of the edge."""
    return c * (1.0 - max(a.shape) * SVD_SLACK - (a.size + 4) * EPS)


def _gram_at_most(gram: np.ndarray, fro2: float, p: int, edge: float) -> bool:
    """Whether ``||a||_2 <= edge`` is proven by the Gram matrix ``gram`` of
    ``a``, for ``edge <= 1``; ``gram`` is overwritten.

    ``gram`` is the computed smaller Gram matrix (k x k) of a matrix ``a``
    with larger side ``p`` and computed ``||a||_F^2 = fro2``.  The
    certificate is a floating-point Cholesky factorization of ``edge^2 I -
    G - tau I``, factored in place of ``G``, that runs to completion (S. M.
    Rump, *Verification of positive definiteness*, BIT 46, 2006; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 10).
    ``tau`` covers the rounding of ``G``, at most ``sqrt(2) gamma_{p+1}
    ||a||_F^2`` for complex dot products of length ``p``, and of the
    Cholesky, at most ``gamma / (1 - gamma)`` times the trace of the
    factored matrix, with complex-arithmetic constants.
    """
    k = gram.shape[0]
    # complex gammas as gamma_{2j} >= sqrt(2) gamma_j, doubled for the
    # second-order terms, the rounding of the squares, the shifted diagonal
    # and underflow
    g_chol = _gamma(2 * k + 4)
    tau = 2.0 * (_gamma(2 * p + 4) * fro2 * (1.0 + _gamma(p * k + 4))
                 + g_chol / (1.0 - g_chol) * k + EPS + p * k * _TINY)
    np.negative(gram, out=gram)
    gram[np.diag_indices(k)] += edge * edge - tau
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


# Certified residuals (see _norm_ratio).  The level to certify is
# _CERT_RHO times the estimate of _POWER_STEPS power steps from the fixed
# start vector of _POWER_SEED.  Matrices whose smaller side is below
# _CERT_MIN_SIDE take the SVD, which costs less there: on a 2-core machine
# the certificate took 31 us at 8 x 8, against 13 us for a values-only SVD,
# and 57 against 61 us at 20 x 20.
_CERT_RHO = 1.1
_POWER_STEPS = 8
_POWER_SEED = 20060101
_CERT_MIN_SIDE = 20


class _Bound(float):
    """A residual that a certificate proves to be at least the residual of
    the stored floats, and at least the value the SVD would give."""

    __slots__ = ()


@functools.cache
def _power_start(k: int) -> np.ndarray:
    """The start vector of the power steps on a k x k Gram matrix: complex
    Gaussian entries drawn from the fixed seed, read-only."""
    rng = np.random.default_rng(_POWER_SEED)
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x.flags.writeable = False
    return x


def _power_estimate(a: np.ndarray):
    """``(gram, fro2, estimate, e)`` for the exact scaling ``b = a 2**-e``
    whose largest entry modulus lies in [1/2, 1): the computed smaller Gram
    matrix of ``b``, its computed ``||b||_F^2``, and the Rayleigh quotient of
    that Gram matrix after :data:`_POWER_STEPS` power steps from the fixed
    start vector, an estimate of ``||b||_2^2``.  None when the largest entry
    lies outside ``[2**-1000, 2**1000]``, where the scaling could lose bits,
    or is not finite.
    """
    top = float(np.abs(a).max())
    if not 2.0 ** -1000 <= top <= 2.0 ** 1000:
        return None
    e = math.frexp(top)[1]
    b = a * 2.0 ** -e
    rows, cols = b.shape
    gram = adjoint(b) @ b if cols <= rows else b @ adjoint(b)
    fro2 = float(np.vdot(b, b).real)
    # gram's entries are at most p and its top eigenvalue at least 1/4, so
    # steps without normalizing neither overflow nor underflow
    x = _power_start(gram.shape[0])
    for _ in range(_POWER_STEPS):
        x = gram @ x
    estimate = float(np.vdot(x, gram @ x).real / np.vdot(x, x).real)
    return gram, fro2, estimate, e


def _certified_norm(a: np.ndarray) -> float | None:
    """A level ``c >= ||a||_2`` above which the SVD of ``a`` could not
    return a value, or None when the certificate fails.

    ``c`` is :data:`_CERT_RHO` times the power estimate's square root, and
    :func:`_gram_at_most` proves ``||a||_2 <= c (1 - slack)`` on the same
    Gram matrix, scaled exactly to put ``c`` in (1/2, 1], as
    :func:`_norm_at_most` does.
    """
    found = _power_estimate(a)
    if found is None:
        return None
    gram, fro2, estimate, e = found
    if not 0.0 < estimate < np.inf:
        return None
    level = _CERT_RHO * math.sqrt(estimate)
    # ||b|| is at least its largest entry modulus, 1/2, so a lower level fails
    if level < 0.5:
        return None
    shift = math.frexp(math.nextafter(level, 0.0))[1]
    scale = 4.0 ** -shift
    gram *= scale
    if not _gram_at_most(gram, fro2 * scale, max(a.shape), _edge(level * 2.0 ** -shift, a)):
        return None
    return math.ldexp(level, e)


def _norm_below(a: np.ndarray) -> float:
    """A lower bound of ``||a||_2`` that the SVD of ``a`` could not return
    less than, from the power estimate; 0.0 where none is found.

    The Rayleigh quotient of the computed Gram matrix ``G`` at any vector is
    at most ``||G||``.  The computed one errs from it by at most
    ``sqrt(2) gamma_{2p} ||b||_F^2`` for the rounding of ``G`` and ``4
    gamma_{2k} ||b||_F^2`` for the products and the quotient; the square
    root of the rest is scaled down by the SVD's slack and its own rounding.
    """
    found = _power_estimate(a)
    if found is None:
        return 0.0
    _, fro2, estimate, e = found
    p, k = max(a.shape), min(a.shape)
    low = estimate - _gamma(4 * p + 8 * k + 16) * fro2 * (1.0 + _gamma(p * k + 4))
    if not 0.0 < low < np.inf:
        return 0.0
    return math.ldexp(math.sqrt(low) * (1.0 - p * SVD_SLACK - 4 * EPS), e)


def _norm_ratio(diff: np.ndarray, scale: np.ndarray, tol: float | None = None) -> float:
    """``||diff|| / max(1, ||scale||)`` in spectral norm: a certified bound
    where one is at most ``tol``, and otherwise the SVD value.

    An exactly zero ``diff`` gives 0.0, and the denominator is exactly 1
    whenever :func:`_norm_at_most` settles ``||scale|| <= 1``.  With a
    ``tol`` and a smaller side of ``diff`` of at least
    :data:`_CERT_MIN_SIDE`, the numerator is first the level
    :func:`_certified_norm` proves and the denominator 1 or the lower bound
    of :func:`_norm_below`.  When that quotient is at most ``tol`` it is the
    value, as a :class:`_Bound`: it lies above the ratio of the stored
    ``diff`` and ``scale``, and above the SVD value, so the value passes
    ``tol`` exactly when the SVD value does.  Otherwise, and without a
    ``tol``, both norms are taken by SVD.

    Raises
    ------
    NumericalError
        If ``diff`` has an entry that is not finite.
    """
    if not np.isfinite(diff).all():
        raise NumericalError(
            f"residual of shape {diff.shape} is not finite: an operand is "
            "infinite or NaN, or their difference overflows")
    if not diff.any():
        return 0.0
    unit = _norm_at_most(scale, 1.0)
    if tol is not None and min(diff.shape) >= _CERT_MIN_SIDE:
        c = _certified_norm(diff)
        if c is not None:
            value = c / (1.0 if unit else max(1.0, _norm_below(scale)))
            if value <= tol:
                return _Bound(value)
    return spectral_norm(diff) / (1.0 if unit else max(1.0, spectral_norm(scale)))


def rel_residual(lhs, rhs, tol: float | None = None) -> float:
    """Relative residual ``||lhs - rhs|| / max(1, ||rhs||)`` in spectral norm.

    Without ``tol`` the value is the float the formula gives with both norms
    taken by SVD, skipped only where the outcome is known (see
    :func:`_norm_ratio`).  With the acceptance ``tol``, a value at most
    ``tol`` may be a certified upper bound instead, marked as a
    :class:`_Bound`; it passes ``tol`` exactly when the SVD value does.

    Raises
    ------
    ShapeError
        If the shapes differ.
    NumericalError
        If an operand is not finite or their difference overflows.
    """
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise ShapeError(f"residual of mismatched shapes {lhs.shape} vs {rhs.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = lhs - rhs
    return _norm_ratio(diff, rhs, tol)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.complex128)


def default_rank_tol(a: np.ndarray, singulars: np.ndarray) -> float:
    """Standard SVD rank cutoff ``max(rows, cols) * eps * sigma_max``."""
    sigma_max = float(singulars[0]) if singulars.size else 0.0
    return max(a.shape) * EPS * sigma_max if a.size else 0.0


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition ``a = left @ diag(singulars) @ right*``.

    ``left`` (rows x rows) and ``right`` (cols x cols) are unitary; ``singulars``
    holds the ``min(rows, cols)`` singular values in non-increasing order.
    ``rank_tol`` is the default cutoff separating numerical rank from noise.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray
    rank_tol: float

    def rank(self) -> int:
        return int(np.count_nonzero(self.singulars > self.rank_tol))

    def range_condition(self) -> float:
        """``sigma_1 / sigma_r`` for ``r = rank()``: the condition number of
        the matrix compressed to the leading ``r`` columns of ``left`` and of
        ``right``, whose singular values are these up to rounding; 1.0 at
        rank 0."""
        r = self.rank()
        return float(self.singulars[0] / self.singulars[r - 1]) if r else 1.0

    def rank_evidence(self, label: str) -> str:
        """The rank decision, for the matrix named ``label``: its cutoff, the
        singular values on either side of it, and their gap."""
        s, r = self.singulars, self.rank()
        above = f"{s[r - 1]:.3e}" if r else "none"
        below = f"{s[r]:.3e}" if r < s.size else "none"
        gap = f"{s[r - 1] - s[r]:.3e}" if 0 < r < s.size else "none"
        return (f"{label}: cutoff {self.rank_tol:.3e}, sigma above {above}, "
                f"below {below}, gap {gap}")


def svd(a) -> SvdResult:
    """Full SVD with unitary factors and the default rank cutoff attached.

    Parameters
    ----------
    a : array_like
        Matrix with finite entries; zero-dimension shapes are allowed.

    Returns
    -------
    SvdResult
    """
    a = as_matrix(a)
    left, s, right_h = _svd_full(a)
    return SvdResult(left=left, singulars=s, right=adjoint(right_h),
                     rank_tol=default_rank_tol(a, s))


def rank_of(a) -> int:
    """Numerical rank: number of singular values above the cutoff
    ``max(rows, cols) * eps * sigma_max``."""
    a = as_matrix(a)
    if a.size == 0:
        return 0
    s = _svd_vals(a)
    return int(np.count_nonzero(s > default_rank_tol(a, s)))


def condition_number(a) -> float:
    """Condition number ``sigma_max / sigma_min`` of a square matrix.

    Takes one values-only SVD; a 0x0 matrix and an exact identity, which
    have condition 1, take none.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value falls below the rank cutoff.
    """
    return _norm_and_condition(a)[1]


def _norm_and_condition(a) -> tuple[float, float]:
    """``(spectral_norm(a), condition_number(a))`` from the one values-only
    SVD that both take; a 0x0 matrix gives ``(0.0, 1.0)`` and an exact
    identity ``(1.0, 1.0)`` without one."""
    a = as_matrix(a)
    rows, cols = a.shape
    if rows != cols:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if rows == 0:
        return 0.0, 1.0
    # the values-only SVD of an identity returns exact ones
    if _is_identity(a):
        return 1.0, 1.0
    s = _svd_vals(a)
    cut = default_rank_tol(a, s)
    sigma_min = float(s[-1])
    if sigma_min <= cut:
        raise SingularMatrixError(
            f"matrix of shape {a.shape} is numerically singular "
            f"(sigma_min={sigma_min:.3e}, cutoff={cut:.3e})")
    return float(s[0]), float(s[0]) / sigma_min


def lu_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix by one LU factorization, without the
    condition number; an exact identity is returned as its own inverse.

    Raises
    ------
    ShapeError
        If ``a`` is not square.
    SingularMatrixError
        If the factorization meets an exactly zero pivot.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if _is_identity(a):
        return a
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"matrix of shape {a.shape} is singular: its LU factorization "
            f"failed ({exc})") from exc
