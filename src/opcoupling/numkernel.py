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
The rule: an exact SVD is taken only for a value that is recorded, or for a
check that nothing else settles.  One certificate, :func:`_norm_at_most`,
decides ``||a||_2 <= c`` without an SVD.  A denominator ``max(1, ||rhs||)``
that it proves to be 1, a pass/fail check whose residual it proves within
tol, and the norm and condition of an exact identity take none, and each
gives the float the SVD would have given.
"""

from __future__ import annotations

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
    the certificate is a floating-point Cholesky factorization of ``edge^2 I
    - G - tau I``, ``G`` the smaller Gram matrix of ``a``, that runs to
    completion (S. M. Rump, *Verification of positive definiteness*, BIT 46,
    2006; Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch.
    10).  ``tau`` covers the rounding of ``G``, at most ``sqrt(2)
    gamma_{p+1} ||a||_F^2`` for complex dot products of length ``p``, and of
    the Cholesky, at most ``gamma / (1 - gamma)`` times the trace of the
    factored matrix, with complex-arithmetic constants.  False means only
    that neither settled it, or that ``c`` is no normal positive float.
    """
    if a.size == 0 or (c >= 1 and _is_identity(a)):
        return True
    if not _TINY <= c < np.inf:
        return False
    shift = math.frexp(math.nextafter(c, 0.0))[1]   # c / 2**shift is in (1/2, 1]
    rows, cols = a.shape
    p, k = max(rows, cols), min(rows, cols)
    # (size + 4) eps covers the rounding of either cheap bound and of the edge
    edge = c * 2.0 ** -shift * (1.0 - p * SVD_SLACK - (a.size + 4) * EPS)
    # squares that overflow give inf, which certifies nothing
    with np.errstate(over="ignore", invalid="ignore"):
        a = a * 2.0 ** -shift if shift else a
        mag = np.abs(a)
        sq = mag * mag
        col2, row2 = sq.sum(axis=0), sq.sum(axis=1)
        fro2 = float(col2.sum())
        bound = min(float(np.sqrt(fro2)),
                    float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max())))
    # sqrt(size * tiny) covers the squares that underflow
    if bound + float(np.sqrt(a.size * _TINY)) <= edge:
        return True
    # ||a|| is at least each row's and column's 2-norm; the negated test
    # also turns away non-finite entries
    if not max(float(col2.max()), float(row2.max())) <= edge * edge:
        return False
    gram = adjoint(a) @ a if cols <= rows else a @ adjoint(a)
    # complex gammas as gamma_{2j} >= sqrt(2) gamma_j, doubled for the
    # second-order terms, the rounding of the squares, the shifted diagonal
    # and underflow
    g_chol = _gamma(2 * k + 4)
    tau = 2.0 * (_gamma(2 * p + 4) * fro2 * (1.0 + _gamma(a.size + 4))
                 + g_chol / (1.0 - g_chol) * k + EPS + p * k * _TINY)
    h = -gram
    h[np.diag_indices(k)] += edge * edge - tau
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _norm_at_least_one(a: np.ndarray) -> float:
    """``max(1, spectral_norm(a))``, the denominator of a relative residual,
    with the SVD skipped where ``_norm_at_most(a, 1.0)`` settles it at 1."""
    return 1.0 if _norm_at_most(a, 1.0) else max(1.0, spectral_norm(a))


def rel_residual(lhs, rhs) -> float:
    """Relative residual ``||lhs - rhs|| / max(1, ||rhs||)`` in spectral norm.

    The value is the float the formula gives with both norms taken by SVD.
    An SVD is skipped only where its outcome is already known: an exactly
    zero difference gives 0.0, and the denominator is exactly 1 whenever
    :func:`_norm_at_most` settles ``||rhs|| <= 1``.  The numerator, when
    nonzero, is always an exact spectral norm.
    """
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise ShapeError(f"residual of mismatched shapes {lhs.shape} vs {rhs.shape}")
    diff = lhs - rhs
    if not diff.any():
        return 0.0
    return spectral_norm(diff) / _norm_at_least_one(rhs)


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


def inverse(a):
    """Inverse of a square matrix together with its condition number.

    Returns
    -------
    (inv, condition) : (ndarray, float)
        ``condition`` is :func:`condition_number`; a 0x0 matrix has
        condition 1.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value falls below the rank cutoff.
    """
    a = as_matrix(a)
    condition = condition_number(a)
    return np.linalg.inv(a), condition
