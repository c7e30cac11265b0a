"""Synthesis of coupling witnesses and random test instances.

Random matrices are produced from an explicit ``numpy.random.Generator`` (or
an integer seed), never from global state, so every instance is reproducible
bit for bit.  Invertible factors are built as unitary-diagonal-unitary with
prescribed singular values, keeping conditioning under control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockops import Block2x2
from .errors import FeasibilityError, PreconditionError
from .numkernel import adjoint, as_matrix, rank_of, svd, zeros
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


def _null_pairing_permutation(n: int, m: int, k: int) -> np.ndarray:
    """Self-inverse permutation of C^(n+m) swapping the k trailing coordinates
    of the first group with the k trailing coordinates of the second."""
    perm = np.arange(n + m)
    for j in range(k):
        perm[n - k + j], perm[n + m - k + j] = perm[n + m - k + j], perm[n - k + j]
    p = zeros(n + m, n + m)
    p[np.arange(n + m), perm] = 1.0
    return p


def synth_mc(U, V, tol: float = DEFAULT_TOL) -> MCWitness:
    """Synthesize a matricial coupling of two matrices with equal nullity.

    Both matrices are put into rank normal form, ``U = P1 (I (+) 0) P2`` and
    ``V = Q1 (I (+) 0) Q2``; the coupling matrix is the null-coordinate
    pairing permutation dressed by those factors:

        Uhat = diag(P1, Q2^-1) @ Pi @ diag(P2, Q1^-1)

    where Pi swaps the null coordinates of U with the null coordinates of V
    in index order and fixes everything else.  All factor inverses are
    available in closed form, so ``UhatInv`` is exact up to rounding.
    """
    U = as_matrix(U)
    V = as_matrix(V)
    n, m = U.shape[0], V.shape[0]
    if U.shape != (n, n) or V.shape != (m, m):
        raise PreconditionError("U and V must be square")
    ku = n - rank_of(U)
    kv = m - rank_of(V)
    if ku != kv:
        raise FeasibilityError(
            f"cannot couple: nullity(U)={ku} differs from nullity(V)={kv}"
        )
    return _synth_mc(U, V, ku, tol)[0]


def _synth_mc(U: np.ndarray, V: np.ndarray, k: int,
              tol: float) -> tuple[MCWitness, VerifierReport]:
    """The witness of :func:`synth_mc` with its verifier report, for square
    complex ``U``, ``V`` whose common nullity ``k`` the caller has checked."""
    n, m = U.shape[0], V.shape[0]
    res_u, res_v = svd(U), svd(V)
    r_u, r_v = n - k, m - k
    su = np.ones(n)
    su[:r_u] = res_u.singulars[:r_u]
    sv = np.ones(m)
    sv[:r_v] = res_v.singulars[:r_v]
    p1 = res_u.left * su            # P1 = W_u diag(su)
    p2 = adjoint(res_u.right)       # unitary
    q1 = res_v.left * sv
    q2 = adjoint(res_v.right)

    pi = _null_pairing_permutation(n, m, k)

    left = zeros(n + m, n + m)
    left[:n, :n] = p1
    left[n:, n:] = adjoint(q2)                  # Q2^-1, exact for unitary Q2
    right = zeros(n + m, n + m)
    right[:n, :n] = p2
    right[n:, n:] = adjoint(res_v.left) / sv[:, None]   # Q1^-1 = diag(sv)^-1 W_v*

    left_inv = zeros(n + m, n + m)
    left_inv[:n, :n] = adjoint(res_u.left) / su[:, None]  # P1^-1
    left_inv[n:, n:] = q2
    right_inv = zeros(n + m, n + m)
    right_inv[:n, :n] = adjoint(p2)
    right_inv[n:, n:] = q1

    uhat = left @ pi @ right
    uhat_inv = right_inv @ pi @ left_inv        # Pi is self-inverse

    mc = MCWitness(Uhat=uhat, UhatInv=uhat_inv, n=n, m=m, U=U, V=V)
    return mc, _checked(verify_mc(mc, tol), "synth_mc")


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
