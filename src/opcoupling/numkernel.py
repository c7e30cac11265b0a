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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError, ShapeError, SingularMatrixError

EPS = float(np.finfo(np.float64).eps)
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


def _at_most_unit_norm(a: np.ndarray) -> bool:
    """Whether ``spectral_norm(a) <= 1`` is certain without an SVD.

    ``min(||a||_F, sqrt(||a||_1 ||a||_inf))`` bounds the spectral norm from
    above.  A bound below ``1 - slack`` leaves room for the rounding of the
    bound and of the SVD, so the SVD could not have returned more than 1.
    The identity, whose SVD returns exactly 1.0, is the one case on the
    boundary that is also taken as settled.
    """
    if a.size == 0:
        return True
    rows, cols = a.shape
    if rows == cols and np.count_nonzero(a) == rows and np.all(np.diagonal(a) == 1):
        return True
    mag = np.abs(a)
    bound = min(float(np.sqrt(np.sum(mag * mag))),
                float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max())))
    return bound <= 1.0 - 16 * max(rows, cols) * EPS


def rel_residual(lhs, rhs) -> float:
    """Relative residual ``||lhs - rhs|| / max(1, ||rhs||)`` in spectral norm.

    The value is the float the formula gives with both norms taken by SVD.
    An SVD is skipped only where its outcome is already known: an exactly
    zero difference gives 0.0, and the denominator is exactly 1 whenever
    :func:`_at_most_unit_norm` settles it.  The numerator, when nonzero, is
    always an exact spectral norm.
    """
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise ShapeError(f"residual of mismatched shapes {lhs.shape} vs {rhs.shape}")
    diff = lhs - rhs
    if not diff.any():
        return 0.0
    scale = 1.0 if _at_most_unit_norm(rhs) else max(1.0, spectral_norm(rhs))
    return spectral_norm(diff) / scale


def _certainly_within(pairs, tol: float) -> bool:
    """Whether ``rel_residual(lhs, rhs) <= tol`` is certain for every
    ``(lhs, rhs)`` pair without an SVD.

    ``||lhs - rhs||_F`` bounds the spectral-norm numerator from above and the
    denominator ``max(1, ||rhs||)`` is at least 1.  The slack covers the
    rounding of the Frobenius sum and of the SVD :func:`rel_residual` would
    take, and the ``sqrt(size * tiny)`` term the squares that underflow, so
    True is never the wrong answer.  False means only that the bound could
    not settle a pair; the caller then computes the exact residuals.
    """
    for lhs, rhs in pairs:
        lhs = np.asarray(lhs, dtype=np.complex128)
        rhs = np.asarray(rhs, dtype=np.complex128)
        if lhs.shape != rhs.shape:
            return False
        diff = lhs - rhs
        slack = (diff.size + 16 * max(diff.shape, default=0)) * EPS
        bound = float(np.linalg.norm(diff)) + float(np.sqrt(diff.size * _TINY))
        if not bound <= tol * (1.0 - slack):
            return False
    return True


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


def pinv(res: SvdResult) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the matrix factored by ``res``, with
    its default rank cutoff."""
    r = res.rank()
    if r == 0:
        return zeros(res.right.shape[0], res.left.shape[0])
    inv_s = 1.0 / res.singulars[:r]
    return (res.right[:, :r] * inv_s) @ adjoint(res.left[:, :r])


def condition_number(a) -> float:
    """Condition number ``sigma_max / sigma_min`` of a square matrix.

    Takes one values-only SVD; a 0x0 matrix has condition 1.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value falls below the rank cutoff.
    """
    return _norm_and_condition(a)[1]


def _norm_and_condition(a) -> tuple[float, float]:
    """``(spectral_norm(a), condition_number(a))`` from the one values-only
    SVD that both take; a 0x0 matrix gives ``(0.0, 1.0)``."""
    a = as_matrix(a)
    rows, cols = a.shape
    if rows != cols:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if rows == 0:
        return 0.0, 1.0
    s = _svd_vals(a)
    cut = default_rank_tol(a, s)
    sigma_min = float(s[-1])
    if sigma_min <= cut:
        raise SingularMatrixError(
            f"matrix of shape {a.shape} is numerically singular "
            f"(sigma_min={sigma_min:.3e}, cutoff={cut:.3e})",
            sigma_min=sigma_min,
        )
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
