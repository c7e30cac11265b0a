"""Synthesis of coupling witnesses and random test instances.

:func:`synth_mc` dresses a sparse core by the singular vectors of U and V.
The core pairs their smallest singular values one to one, so ``cond(Uhat)``
is known in closed form and the off-diagonal corners have rank
``min(n, m)``: the reduction then extends one side by ``|n - m|`` only.

Random matrices are produced from an explicit ``numpy.random.Generator`` (or
an integer seed), never from global state, so every instance is reproducible
bit for bit.  Invertible factors are built as unitary-diagonal-unitary with
prescribed singular values, keeping conditioning under control.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blockops import Block2x2
from .errors import FeasibilityError, NumericalError, PreconditionError
from .numkernel import adjoint, as_matrix, svd, zeros
from .relations import (
    DEFAULT_TOL,
    MCWitness,
    SCWitness,
    VerifierReport,
    _checked,
    verify_mc,
)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of a random coupled pair: sizes, common nullity, seed."""

    n: int
    m: int
    k: int
    seed: int
    cond_bound: float = 100.0

    def __post_init__(self):
        for label, value in (("size n", self.n), ("size m", self.m), ("nullity k", self.k),
                             ("seed", self.seed)):
            if value < 0:
                raise PreconditionError(f"{label} must be >= 0, got {value}")
        if self.k > min(self.n, self.m):
            raise PreconditionError("nullity k must not exceed min(n, m)")
        # the negated test also rejects nan
        if not 1.0 <= self.cond_bound < np.inf:
            raise PreconditionError(
                f"cond_bound must be a finite number >= 1, got {self.cond_bound}")


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR orthonormalization of a complex Gaussian."""
    if dim == 0:
        return zeros(0, 0)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the draw is well defined
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dressed(left_u: np.ndarray, left_v: np.ndarray, core: np.ndarray,
             right_u: np.ndarray, right_v: np.ndarray) -> np.ndarray:
    """``diag(left_u, left_v) @ core @ diag(right_u, right_v)`` for a real
    core with at most one nonzero per column in each of its two block rows.

    The first product gathers and scales columns of ``left_u`` and
    ``left_v``; the second is two half-size products, one per block column
    of the result, written into one output.
    """
    n = left_u.shape[1]
    inner = zeros(*core.shape)
    for rows, basis in ((slice(None, n), left_u), (slice(n, None), left_v)):
        src, cols = np.nonzero(core[rows])
        inner[rows, cols] = basis[:, src] * core[rows][src, cols]
    out = np.empty(core.shape, dtype=np.complex128)
    np.matmul(inner[:, :n], right_u, out=out[:, :n])
    np.matmul(inner[:, n:], right_v, out=out[:, n:])
    return out


def synth_mc(U, V, tol: float = DEFAULT_TOL) -> tuple[MCWitness, VerifierReport]:
    """Matricial coupling of two square matrices with equal nullity, with the
    report it was verified by.

    With the full SVDs ``U = W_u S_u X_u*`` and ``V = W_v S_v X_v*``,

        Uhat    = diag(W_u, X_v) @ C    @ diag(X_u*, W_v*)
        UhatInv = diag(X_u, W_v) @ C^-1 @ diag(W_u*, X_v*)

    where the core ``C`` pairs the trailing ``min(n, m)`` coordinates of U
    and V one to one: a null pair becomes the swap ``[[0, 1], [1, 0]]``, a
    nonzero pair ``(s, r)`` becomes ``[[s, -t], [t, 0]]`` with
    ``t = sqrt(s / r)`` (inverse ``[[0, 1/t], [-1/t, r]]``), and an unpaired
    leading value becomes ``[s]`` or ``[1/r]``.  ``C^-1`` is written down too,
    and ``cond(Uhat) = cond(C)``, taken from the blocks in closed form, is the
    report's ``cond_uhat`` extra.  Both cores have at most one nonzero per
    column in each block row, so no block-diagonal factor is formed: the
    inner product gathers and scales columns of the singular vectors, and
    the outer one is two half-size products (:func:`_dressed`).  A core
    entry ``1/s``, ``1/r``, ``t`` or ``1/t`` that overflows, or a ``t``
    that underflows to 0, raises :class:`~opcoupling.errors.NumericalError`
    before any product, naming the entry and the singular values it comes
    from.  The nullities are read from the two SVDs;
    the common one is the ``nullity`` extra, and unequal ones raise
    :class:`~opcoupling.errors.FeasibilityError`, which decides feasibility
    for the whole pipeline and quotes, for U and for V, the rank cutoff, the
    singular values on either side of it and their gap.
    """
    U = as_matrix(U)
    V = as_matrix(V)
    n, m = U.shape[0], V.shape[0]
    if U.shape != (n, n) or V.shape != (m, m):
        raise PreconditionError("U and V must be square")
    res_u, res_v = svd(U), svd(V)
    k, kv = n - res_u.rank(), m - res_v.rank()
    if k != kv:
        raise FeasibilityError(
            f"no coupling exists: dim Ker U = {k} but dim Ker V = {kv}; "
            f"{res_u.rank_evidence('U')}; {res_v.rank_evidence('V')}; square "
            "matrices admit the extension chain exactly when their nullities agree")
    p = min(n, m)
    lead_u, lead_v = np.arange(n - p), n + np.arange(m - p)
    pair_u, pair_v = np.arange(n - p, n - k), n + np.arange(m - p, m - k)
    null_u, null_v = np.arange(n - k, n), n + np.arange(m - k, m)
    s_lead, r_lead = res_u.singulars[: n - p], res_v.singulars[: m - p]
    s, r = res_u.singulars[n - p: n - k], res_v.singulars[m - p: m - k]

    # an entry that overflows, or a t that underflows, would leave a core
    # that is not finite or not invertible: it is named with its source
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        t = np.sqrt(s / r)
        inv_s, inv_r, inv_t = 1.0 / s_lead, 1.0 / r_lead, 1.0 / t

    def pair(i):
        return f"the paired singular values s = {s[i]:.3e} of U and r = {r[i]:.3e} of V"

    for name, values, source in (
            ("1/s", inv_s, lambda i: f"the leading singular value s = {s_lead[i]:.3e} of U"),
            ("1/r", inv_r, lambda i: f"the leading singular value r = {r_lead[i]:.3e} of V"),
            ("t = sqrt(s/r)", t, pair), ("1/t", inv_t, pair)):
        bad = ~(np.isfinite(values) & (values != 0))
        if bad.any():
            i = int(np.argmax(bad))
            what = "underflows to 0" if values[i] == 0 else "overflows"
            raise NumericalError(
                f"synth_mc: the core entry {name} {what}, from {source(i)}; the "
                "scale of U and V is beyond what the core can represent")

    core, core_inv = np.zeros((n + m, n + m)), np.zeros((n + m, n + m))
    core[lead_u, lead_u], core_inv[lead_u, lead_u] = s_lead, inv_s
    core[lead_v, lead_v], core_inv[lead_v, lead_v] = inv_r, r_lead
    core[pair_u, pair_u], core[pair_u, pair_v], core[pair_v, pair_u] = s, -t, t
    core_inv[pair_u, pair_v], core_inv[pair_v, pair_u] = inv_t, -inv_t
    core_inv[pair_v, pair_v] = r
    for c in (core, core_inv):
        c[null_u, null_v] = c[null_v, null_u] = 1.0

    # singular values of C, blockwise: sigma+ - sigma- = s and
    # sigma+ sigma- = t^2 for each nonzero pair, 1 twice for each null pair
    sigma_plus = (np.hypot(s, 2.0 * t) + s) / 2.0
    sigmas = np.concatenate([s_lead, inv_r, sigma_plus, t * t / sigma_plus,
                             np.ones(k)])
    cond = float(sigmas.max() / sigmas.min()) if sigmas.size else 1.0

    w_u, x_u, w_v, x_v = res_u.left, res_u.right, res_v.left, res_v.right
    uhat = _dressed(w_u, x_v, core, adjoint(x_u), adjoint(w_v))
    uhat_inv = _dressed(x_u, w_v, core_inv, adjoint(w_u), adjoint(x_v))
    mc = MCWitness(Uhat=uhat, UhatInv=uhat_inv, n=n, m=m, U=U, V=V)
    report = verify_mc(mc, tol)
    return mc, _checked(replace(report, extras={"nullity": k, "cond_uhat": cond}),
                        "synth_mc")


def random_instance(spec: InstanceSpec):
    """Pair (U, V) with prescribed sizes and common nullity.

    Nonzero singular values are drawn log-uniformly from
    ``[1/cond_bound, 1]``; identical specs give identical matrices.
    """
    rng = np.random.default_rng(spec.seed)
    u = _random_with_nullity(spec.n, spec.k, spec.cond_bound, rng)
    v = _random_with_nullity(spec.m, spec.k, spec.cond_bound, rng)
    return u, v


def _random_with_nullity(n: int, k: int, cond_bound: float,
                         rng: np.random.Generator) -> np.ndarray:
    r = n - k
    sigma = np.zeros(n)
    if r:
        sigma[:r] = np.exp(rng.uniform(np.log(1.0 / cond_bound), 0.0, size=r))
        sigma[:r] = np.sort(sigma[:r])[::-1]
    w1 = random_unitary(n, rng)
    w2 = random_unitary(n, rng)
    return (w1 * sigma) @ w2


def random_sc_witness(n: int, m: int, cond_bound: float, seed_or_rng) -> SCWitness:
    """Random Schur coupling witness with controlled conditioning.

    The diagonal blocks A, D get condition at most ``sqrt(cond_bound)`` each
    and the off-diagonal blocks are scaled below the smallest singular value
    of A and D, so every matrix associated with the witness (including the
    derived coupling matrix and its inverse) stays within ``cond_bound``.
    """
    rng = np.random.default_rng(seed_or_rng)
    cb = max(1.0, float(cond_bound)) ** 0.5
    a = _random_with_nullity(n, 0, cb, rng)
    d = _random_with_nullity(m, 0, cb, rng)
    s_min = 1.0 / cb
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if n and m:
        b *= s_min / max(1.0, np.linalg.norm(b, 2))
        c *= s_min / max(1.0, np.linalg.norm(c, 2))
    a_inv = np.linalg.inv(a) if n else zeros(0, 0)
    d_inv = np.linalg.inv(d) if m else zeros(0, 0)
    u = a - b @ d_inv @ c
    v = d - c @ a_inv @ b
    return SCWitness(M=Block2x2(a, b, c, d), U=u, V=v)
