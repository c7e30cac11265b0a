"""Finite sections of multiplication operators on the circle.

A symbol ``f`` on the unit circle is stored by its Fourier coefficients on a
finite index window.  The multiplication operator by ``f`` acts on the
two-sided Fourier basis; splitting off the non-negative modes (the analytic
half) gives the 2x2 picture

    M_f = [[Ttilde, Htilde], [H, T]]   on  (negative modes) (+) (modes >= 0)

whose blocks at section size N are, with the negative modes enumerated as
``-1, -2, ..., -N``:

    T[i, j]      = fc(i - j)        (N+1) x (N+1)   Toeplitz
    H[i, j]      = fc(i + j + 1)    (N+1) x N       Hankel
    Ttilde[i, j] = fc(j - i)        N x N
    Htilde[i, j] = fc(-(i + j + 1)) N x (N+1)

``Ttilde``/``Htilde`` are the Toeplitz/Hankel sections of the reflected
symbol ``z -> f(1/z)``; for symbols with real coefficients this agrees with
the conjugate symbol ``z -> conj(f(conj(z)))``.

For an invertible symbol, reordering the block rows and columns of the
sections of ``f`` and of ``1/f`` produces a matricial-coupling pair of the
two Hankel operators:

    [[Htilde_f, Ttilde_f], [T_f, H_f]] @ [[H_g, T_g], [Ttilde_g, Htilde_g]]

is the identity up to truncation (g = 1/f).  In mode coordinates this
product is the section of M_f times the section of M_g, so its entry (p, q)
is ``sum_{|k| <= N} f(p - k) g(k - q)``.  :func:`mc_residual_hankel` bounds
the defect (product - identity) from above without forming it:

* on the interior rows, where the k-sum holds every coefficient of f, the
  defect is the Toeplitz matrix of ``r = f * g - 1``; its norm is at most
  the sup of r (cut to the offsets the block holds) on the circle, taken on
  a fine FFT grid and enlarged by Bernstein's inequality;
* the few edge rows with truncated k-sums are built by short convolutions
  and decomposed exactly, and ``||D|| <= hypot(||edge||, ||interior||)``.

Both residuals are thus certified upper bounds on the dense defect norms.
:func:`hankel_singular_values` decomposes only the nonzero leading block of
the Hankel section ``H``; the singular values beyond it are exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SymbolInversionError
from .numkernel import _svd_vals, as_matrix, spectral_norm

SIGMA_ZERO_REL = 1e-12  # singular values below this (relative) count as zero
_TAIL_REL = 1e-16  # invert_symbol trims coefficients below this (relative)


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True)
class SymbolFC:
    """Fourier coefficients of a circle symbol on a finite index window.

    ``coeffs[p]`` is the coefficient of ``z**(offset + p)``; indices outside
    the window are zero.
    """

    offset: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise PreconditionError("coeffs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise PreconditionError("symbol coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def support(self) -> tuple[int, int]:
        """Smallest index window containing all nonzero coefficients."""
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return (0, 0)
        return (self.offset + int(nz[0]), self.offset + int(nz[-1]))

    def coeff(self, j) -> np.ndarray:
        """Coefficient(s) at integer index/array ``j`` (zero off-window)."""
        j = np.asarray(j)
        p = j - self.offset
        valid = (p >= 0) & (p < self.coeffs.size)
        out = np.where(valid, self.coeffs[np.clip(p, 0, self.coeffs.size - 1)], 0.0)
        return out if out.ndim else complex(out)

    def restricted(self, j_min: int, j_max: int) -> "SymbolFC":
        """Truncate to the window [j_min, j_max] (inclusive)."""
        js = np.arange(j_min, j_max + 1)
        return SymbolFC(offset=j_min, coeffs=self.coeff(js))

    def trimmed(self, threshold: float) -> "SymbolFC":
        """Drop leading/trailing coefficients with modulus <= threshold."""
        keep = np.nonzero(np.abs(self.coeffs) > threshold)[0]
        if keep.size == 0:
            return SymbolFC(offset=0, coeffs=np.zeros(1, dtype=np.complex128))
        return SymbolFC(offset=self.offset + int(keep[0]),
                        coeffs=self.coeffs[keep[0]: keep[-1] + 1])


def evaluate_on_grid(f: SymbolFC, grid: int) -> np.ndarray:
    """Values ``f(exp(2 pi i k / grid))`` for k = 0..grid-1 via the FFT."""
    if grid < 1:
        raise PreconditionError("grid must be positive")
    buf = np.zeros(grid, dtype=np.complex128)
    idx = (np.arange(f.coeffs.size) + f.offset) % grid
    np.add.at(buf, idx, f.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.fft.ifft(buf) * grid
    if not np.all(np.isfinite(values)):
        raise PreconditionError("symbol values overflow on the grid; rescale the symbol")
    return values


def winding_number(values: np.ndarray) -> int:
    """Winding of a nonvanishing closed loop of grid values around 0."""
    phases = np.angle(values)
    diffs = np.diff(np.concatenate([phases, phases[:1]]))
    diffs = (diffs + np.pi) % (2 * np.pi) - np.pi
    return int(np.rint(diffs.sum() / (2 * np.pi)))


def _fft_grid(requested: int, minimum: int) -> int:
    g = max(int(requested), int(minimum), 16)
    return 1 << (g - 1).bit_length()


def invert_symbol(f: SymbolFC, grid: int, tol: float) -> SymbolFC:
    """Fourier coefficients of ``1/f`` by grid evaluation and inverse FFT.

    The grid is enlarged to at least four times the coefficient support (and
    to a power of two); the returned window is centered, so inverses with
    negative-index support (e.g. ``1/z``) come out correctly.  Coefficients
    below ``_TAIL_REL`` times the largest one are trimmed.  Use
    :func:`convolution_residual` to bound the quality of the truncation.

    Raises
    ------
    SymbolInversionError
        If ``min |f|`` on the grid is not larger than ``tol``; the error
        reports that minimum and the winding number of the grid values.
    """
    g = _fft_grid(grid, 4 * f.coeffs.size)
    values = evaluate_on_grid(f, g)
    min_abs = float(np.min(np.abs(values)))
    if min_abs <= tol:
        wind = winding_number(values) if min_abs > 0 else None
        raise SymbolInversionError(
            f"symbol comes within {min_abs:.3e} of zero on a {g}-point grid "
            f"(threshold {tol:g}); it is not invertible at this resolution",
            min_abs=min_abs, winding=wind,
        )
    coeffs = np.fft.fft(1.0 / values) / g
    centered = np.roll(coeffs, g // 2)
    inv = SymbolFC(offset=-(g // 2), coeffs=centered)
    return inv.trimmed(_TAIL_REL * float(np.max(np.abs(centered))))


def convolve(f: SymbolFC, g: SymbolFC) -> SymbolFC:
    """Coefficient sequence of the product symbol ``f * g``."""
    return SymbolFC(offset=f.offset + g.offset,
                    coeffs=np.convolve(f.coeffs, g.coeffs))


def _defect_symbol(f: SymbolFC, g: SymbolFC) -> SymbolFC:
    """Coefficients of ``f * g - 1`` on a window that contains index 0."""
    prod = convolve(f, g)
    lo, hi = min(prod.offset, 0), max(prod.offset + prod.coeffs.size - 1, 0)
    c = prod.coeff(np.arange(lo, hi + 1))
    c[-lo] -= 1.0
    return SymbolFC(offset=lo, coeffs=c)


def convolution_residual(f: SymbolFC, g: SymbolFC) -> float:
    """l1 distance of the coefficients of ``f * g`` from the delta at 0."""
    return float(np.sum(np.abs(_defect_symbol(f, g).coeffs)))


def _sup_bound(r: SymbolFC, lo: int, hi: int) -> float:
    """Upper bound on ``max |r|`` on the circle, r cut to the window [lo, hi].

    It bounds the spectral norm of every Toeplitz block ``r(p - q)`` whose
    offsets lie in the window.  The max over an L-point grid, L >= 64 times
    the support width w, is divided by ``1 - pi w / L``: by Bernstein's
    inequality no point of the circle exceeds that.
    """
    part = r.restricted(lo, hi).trimmed(0.0)
    if not np.any(part.coeffs):
        return 0.0
    width = part.coeffs.size - 1
    grid = _fft_grid(64 * width, 64)
    peak = float(np.max(np.abs(evaluate_on_grid(part, grid))))
    return peak / (1.0 - np.pi * width / grid)


# ---------------------------------------------------------------------------
# finite sections


@dataclass(frozen=True)
class SectionBlocks:
    """The four blocks of the size-N section of a multiplication operator."""

    N: int
    Ttilde: np.ndarray
    Htilde: np.ndarray
    H: np.ndarray
    T: np.ndarray


def build_sections(f: SymbolFC, N: int) -> SectionBlocks:
    """Toeplitz/Hankel blocks of the size-N section of multiplication by f.

    See the module docstring for the entry conventions; the 2x2 block
    matrix ``[[Ttilde, Htilde], [H, T]]`` is the (2N+1) x (2N+1) section of
    the multiplication operator with the negative modes enumerated as
    -1, -2, ..., -N.
    """
    if N < 1:
        raise PreconditionError("section size N must be >= 1")
    pos = np.arange(N + 1)   # H-part mode indices 0..N
    neg = np.arange(N)       # K-part slots, slot i <-> mode -(i+1)
    t = f.coeff(pos[:, None] - pos[None, :])
    h = f.coeff(pos[:, None] + neg[None, :] + 1)
    ttilde = f.coeff(neg[None, :] - neg[:, None])
    htilde = f.coeff(-(neg[:, None] + pos[None, :] + 1))
    return SectionBlocks(N=N, Ttilde=ttilde, Htilde=htilde, H=h, T=t)


@dataclass(frozen=True)
class HankelCouplingReport:
    """Truncation defect of the section coupling between f and 1/f.

    ``interior_residual`` (sup of ``f * g - 1`` over the interior offsets) and
    ``full_residual`` (``hypot`` of the exact edge-strip norm and that sup over
    the interior rows) are certified upper bounds on the dense defect norms.
    """

    N: int
    grid: int
    f_support: tuple[int, int]
    inv_support: tuple[int, int]
    interior_rows: tuple[int, int]   # mode range, inclusive
    interior_cols: tuple[int, int]
    interior_residual: float
    full_residual: float
    inversion_l1: float
    min_abs_on_grid: float
    winding: int
    inverse: SymbolFC  # 1/f as inverted on the grid, before the section window


def _edge_rows(f: SymbolFC, g: SymbolFC, N: int, rows) -> np.ndarray:
    """Rows p of the section defect ``sum_{|k| <= N} f(p-k) g(k-q) - [p == q]``,
    each a convolution of the k-slice of f with the reflected g."""
    modes = np.arange(-N, N + 1)
    a1, a2 = f.support
    reflected = SymbolFC(offset=-(g.offset + g.coeffs.size - 1), coeffs=g.coeffs[::-1])
    out = np.zeros((len(rows), modes.size), dtype=np.complex128)
    for i, p in enumerate(rows):
        k_lo, k_hi = max(-N, p - a2), min(N, p - a1)
        if k_lo <= k_hi:
            slice_f = SymbolFC(offset=k_lo, coeffs=f.coeff(p - np.arange(k_lo, k_hi + 1)))
            out[i] = convolve(slice_f, reflected).coeff(modes)
        out[i, p + N] -= 1.0
    return out


def mc_residual_hankel(f: SymbolFC, N: int, tol: float = 1e-8,
                       grid: int = 0) -> HankelCouplingReport:
    """Residual of the reordered section pair of f and 1/f against identity.

    The inverse symbol is truncated to the section window [-N, N], so the
    reported defect measures the symbol tail at scale N; for a fixed symbol
    with geometrically decaying inverse it decreases as N grows.  The
    residual bounds the spectral norm of (product - identity) restricted to
    the rows and columns whose convolution support lies fully inside the
    section (a bound on the full-block residual is reported alongside).
    Neither the sections nor their product is formed: the cost is a few
    FFTs plus an SVD of the edge strip, at most ``|a1| + |a2|`` rows.
    """
    a1, a2 = f.support
    if a2 - a1 > 2 * N:
        raise PreconditionError(
            f"symbol support width {a2 - a1} exceeds the section bandwidth {2 * N}"
        )
    g_grid = _fft_grid(grid, max(8 * (N + 1), 4 * f.coeffs.size))
    values = evaluate_on_grid(f, g_grid)
    inv_full = invert_symbol(f, g_grid, tol)
    inv = inv_full.restricted(-N, N).trimmed(0.0)
    b1, b2 = inv.support

    row_lo, row_hi = max(-N, a2 - N), min(N, a1 + N)
    col_lo, col_hi = max(-N, -N - b1), min(N, N - b2)
    if row_lo > row_hi or col_lo > col_hi:
        raise PreconditionError(
            "no interior rows/columns at this section size; increase N"
        )
    r = _defect_symbol(f, inv)
    edge = [*range(-N, row_lo), *range(row_hi + 1, N + 1)]
    full = np.hypot(spectral_norm(_edge_rows(f, inv, N, edge)),
                    _sup_bound(r, row_lo - N, row_hi + N))

    return HankelCouplingReport(
        N=N, grid=g_grid,
        f_support=(a1, a2), inv_support=(b1, b2),
        interior_rows=(row_lo, row_hi), interior_cols=(col_lo, col_hi),
        interior_residual=_sup_bound(r, row_lo - col_hi, row_hi - col_lo),
        full_residual=float(full),
        inversion_l1=convolution_residual(f, inv),
        min_abs_on_grid=float(np.min(np.abs(values))),
        winding=winding_number(values),
        inverse=inv_full,
    )


# ---------------------------------------------------------------------------
# singular values and diagnostics


def singular_values(a) -> np.ndarray:
    """Singular values of a matrix, non-increasing (no singular vectors)."""
    return _svd_vals(as_matrix(a))


def hankel_singular_values(f: SymbolFC, N: int) -> np.ndarray:
    """The N singular values of the (N+1) x N Hankel section H of f.

    ``H[i, j] = fc(i + j + 1)`` vanishes unless ``i + j + 1 <= t``, the top
    nonzero index of f, so only the leading ``min(N+1, t) x min(N, t)``
    block is decomposed; the values beyond it are exact zeros.
    """
    t = max(f.support[1], 0)
    rows, cols = np.arange(min(N + 1, t)), np.arange(min(N, t))
    sigma = np.zeros(N)
    if cols.size:
        sigma[:cols.size] = singular_values(f.coeff(rows[:, None] + cols[None, :] + 1))
    return sigma


@dataclass(frozen=True)
class ShiftRecord:
    orientation: str  # "alpha_vs_beta" compares alpha[n] to beta[n+k]
    k: int
    c: float | None
    compared: int


@dataclass(frozen=True)
class ShiftComparabilityReport:
    """Best per-shift comparability constants of two singular value sequences.

    For each shift k and orientation, ``c`` is the worst two-sided ratio
    ``min(a/b, b/a)`` over index pairs where both entries are numerically
    nonzero; the verdict keeps the (orientation, k) with the largest c.
    """

    alpha: np.ndarray
    beta: np.ndarray
    threshold: float
    records: tuple[ShiftRecord, ...]
    verdict_orientation: str | None
    verdict_k: int | None
    verdict_c: float | None

    @property
    def comparable(self) -> bool:
        return self.verdict_c is not None


def _check_sv_sequence(name: str, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise PreconditionError(f"{name} must be a non-empty 1-d sequence")
    if np.any(s < -1e-15):
        raise PreconditionError(f"{name} must be non-negative")
    if np.any(np.diff(s) > 1e-12 * max(1.0, float(s[0]))):
        raise PreconditionError(f"{name} must be non-increasing")
    return np.maximum(s, 0.0)


def shift_comparability(alpha, beta, k_max: int) -> ShiftComparabilityReport:
    """Search shifts 0..k_max for the best two-sided ratio bound.

    Entries below ``1e-12 * max(sigma)`` count as zero and are excluded from
    the ratios, so finite-rank tails are compared by support rather than by
    quotients of noise.  A shift with no comparable pair gets no constant;
    if none has one the verdict is "incomparable at this truncation".  A
    shift of the longer length or more pairs no entries, so the search stops
    at ``max(len(alpha), len(beta)) - 1`` whatever ``k_max`` is.
    """
    alpha = _check_sv_sequence("alpha", alpha)
    beta = _check_sv_sequence("beta", beta)
    sigma_max = max(float(alpha.max()), float(beta.max()))
    threshold = SIGMA_ZERO_REL * sigma_max

    records = []
    best: tuple[str, int, float] | None = None
    for k in range(min(k_max, max(alpha.size, beta.size) - 1) + 1):
        for orientation, lead, trail in (("alpha_vs_beta", alpha, beta),
                                         ("beta_vs_alpha", beta, alpha)):
            span = min(lead.size, trail.size - k)
            cs = []
            for n_idx in range(max(span, 0)):
                a_n, b_n = lead[n_idx], trail[n_idx + k]
                if a_n > threshold and b_n > threshold:
                    cs.append(min(a_n / b_n, b_n / a_n))
            c = float(min(cs)) if cs else None
            records.append(ShiftRecord(orientation, k, c, len(cs)))
            if c is not None and (best is None or c > best[2]):
                best = (orientation, k, c)

    return ShiftComparabilityReport(
        alpha=alpha, beta=beta, threshold=threshold, records=tuple(records),
        verdict_orientation=None if best is None else best[0],
        verdict_k=None if best is None else best[1],
        verdict_c=None if best is None else best[2],
    )


@dataclass(frozen=True)
class BesovEstimate:
    """Quadrature estimate of the smoothness seminorm integral."""

    alpha: float
    order: int          # difference order, the smallest integer > alpha
    t_points: int
    s_points: int
    integral: float     # estimate of  int |t|^(-1-alpha*p) ||D_t^n g||_p^p dt
    seminorm: float     # integral ** (1/p)


@dataclass(frozen=True)
class SummabilityReport:
    """Schatten-type partial sums with a tail-trend diagnostic.

    These are diagnostics for eyeballing p-summability of a singular value
    sequence at finite truncation, never pass/fail verdicts.
    """

    p: float
    total: float                 # sum of sigma_n ** p
    partial_sums: np.ndarray
    tail_fraction: float         # share contributed by the trailing half
    besov: BesovEstimate | None = None


def spectral_summability(sv, p: float, besov_symbol: SymbolFC | None = None,
                         t_points: int = 128, s_points: int = 512) -> SummabilityReport:
    """Partial sums of ``sigma_n ** p`` plus an optional Besov-type estimate.

    When ``besov_symbol`` is given, the analytic projection of the symbol
    (coefficients at indices >= 0) is run through the difference-operator
    quadrature: with ``alpha = 1/p`` and ``n`` the smallest integer above
    alpha, ``(D_t g)(e^{is}) = g(e^{i(s+t)}) - g(e^{is})`` iterated n times,
    the reported integral approximates

        int_{-pi}^{pi} |t|^(-1-alpha*p) ||D_t^n g||_p^p dt

    on a uniform midpoint t-grid excluding t = 0.  A sum or integral that
    overflows raises :class:`PreconditionError`.
    """
    if p < 1:
        raise PreconditionError("Schatten exponent p must be >= 1")
    s = np.asarray(sv, dtype=np.float64)
    if np.any(s < -1e-15):
        raise PreconditionError("singular values must be non-negative")
    s = np.maximum(s, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = s ** p
        total = float(powers.sum())
        besov = (None if besov_symbol is None
                 else _besov_estimate(besov_symbol, p, t_points, s_points))
    if not np.isfinite([total, besov.integral if besov else 0.0]).all():
        raise PreconditionError(f"a power sum at p = {p:g} overflows; rescale the symbol")
    partial = np.cumsum(powers)
    half = s.size // 2
    tail = float(powers[half:].sum() / total) if total > 0 else 0.0

    return SummabilityReport(p=p, total=total, partial_sums=partial,
                             tail_fraction=tail, besov=besov)


def _besov_estimate(f: SymbolFC, p: float, t_points: int, s_points: int) -> BesovEstimate:
    alpha = 1.0 / p
    order = int(np.floor(alpha)) + 1
    # analytic projection: non-negative modes only
    j_hi = f.offset + f.coeffs.size - 1
    if j_hi < 0:
        g = SymbolFC(offset=0, coeffs=np.zeros(1, dtype=np.complex128))
    else:
        g = f.restricted(max(f.offset, 0), j_hi)
    grid = _fft_grid(s_points, 4 * g.coeffs.size)
    js = np.arange(g.coeffs.size) + g.offset

    # one row per t: the coefficients of D_t^n g, evaluated by a batched FFT
    dt = np.pi / t_points
    ts = (np.arange(t_points) + 0.5) * dt
    buf = np.zeros((t_points, grid), dtype=np.complex128)
    buf[:, js % grid] = g.coeffs * (np.exp(1j * np.outer(ts, js)) - 1.0) ** order
    norm_p_pow = np.mean(np.abs(np.fft.ifft(buf, axis=1) * grid) ** p, axis=1)
    # even integrand: double the (0, pi] half
    integral = 2.0 * float(np.sum(ts ** (-1.0 - alpha * p) * norm_p_pow * dt))
    return BesovEstimate(alpha=alpha, order=order, t_points=t_points,
                         s_points=grid, integral=integral,
                         seminorm=integral ** (1.0 / p))
