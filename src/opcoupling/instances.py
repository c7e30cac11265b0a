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
from .errors import FeasibilityError, PreconditionError
from .numkernel import SvdResult, adjoint, as_matrix, svd, zeros
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


def _diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block diagonal ``diag(a, b)``."""
    return Block2x2(a, zeros(a.shape[0], b.shape[1]), zeros(b.shape[0], a.shape[1]),
                    b).assemble()


def _rank_evidence(label: str, res: SvdResult) -> str:
    """The rank decision of one SVD: its cutoff, the singular values on
    either side of it, and their gap."""
    s, r = res.singulars, res.rank()
    above = f"{s[r - 1]:.3e}" if r else "none"
    below = f"{s[r]:.3e}" if r < s.size else "none"
    gap = f"{s[r - 1] - s[r]:.3e}" if 0 < r < s.size else "none"
    return (f"{label}: cutoff {res.rank_tol:.3e}, sigma above {above}, "
            f"below {below}, gap {gap}")


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
    report's ``cond_uhat`` extra.  The nullities are read from the two SVDs;
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
            f"{_rank_evidence('U', res_u)}; {_rank_evidence('V', res_v)}; square "
            "matrices admit the extension chain exactly when their nullities agree")
    p = min(n, m)
    lead_u, lead_v = np.arange(n - p), n + np.arange(m - p)
    pair_u, pair_v = np.arange(n - p, n - k), n + np.arange(m - p, m - k)
    null_u, null_v = np.arange(n - k, n), n + np.arange(m - k, m)
    s_lead, r_lead = res_u.singulars[: n - p], res_v.singulars[: m - p]
    s, r = res_u.singulars[n - p: n - k], res_v.singulars[m - p: m - k]
    t = np.sqrt(s / r)

    core, core_inv = zeros(n + m, n + m), zeros(n + m, n + m)
    core[lead_u, lead_u], core_inv[lead_u, lead_u] = s_lead, 1.0 / s_lead
    core[lead_v, lead_v], core_inv[lead_v, lead_v] = 1.0 / r_lead, r_lead
    core[pair_u, pair_u], core[pair_u, pair_v], core[pair_v, pair_u] = s, -t, t
    core_inv[pair_u, pair_v], core_inv[pair_v, pair_u] = 1.0 / t, -1.0 / t
    core_inv[pair_v, pair_v] = r
    for c in (core, core_inv):
        c[null_u, null_v] = c[null_v, null_u] = 1.0

    # singular values of C, blockwise: sigma+ - sigma- = s and
    # sigma+ sigma- = t^2 for each nonzero pair, 1 twice for each null pair
    sigma_plus = (np.hypot(s, 2.0 * t) + s) / 2.0
    sigmas = np.concatenate([s_lead, 1.0 / r_lead, sigma_plus, t * t / sigma_plus,
                             np.ones(k)])
    cond = float(sigmas.max() / sigmas.min()) if sigmas.size else 1.0

    w_u, x_u, w_v, x_v = res_u.left, res_u.right, res_v.left, res_v.right
    uhat = _diag(w_u, x_v) @ core @ _diag(adjoint(x_u), adjoint(w_v))
    uhat_inv = _diag(x_u, w_v) @ core_inv @ _diag(adjoint(w_u), adjoint(x_v))
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
