import contextlib

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opcoupling.errors import (
    NumericalError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
)
from opcoupling import numkernel
from opcoupling.instances import random_unitary
from opcoupling.numkernel import (
    _CERT_MIN_SIDE,
    EPS,
    SVD_SLACK,
    _Bound,
    _norm_at_most,
    adjoint,
    as_matrix,
    condition_number,
    lu_inverse,
    rank_of,
    rel_residual,
    spectral_norm,
    svd,
)


def test_as_matrix_rejects_nan():
    with pytest.raises(PreconditionError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0, 3.0])


def test_spectral_norm_empty():
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_spectral_norm_failed_svd_is_a_numerical_error(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(NumericalError, match="SVD of shape"):
        spectral_norm(np.eye(2))


def _residual_cases():
    rng = np.random.default_rng(7)

    def noise(*shape):
        return 1e-9 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q, _ = np.linalg.qr(cplx(10, 10))
    a = cplx(6, 6)
    perm = np.eye(5)[[2, 0, 4, 1, 3]]
    phases = np.diag([1.0, -1.0, 1j, -1j])
    cases = {"equal": (a, a.copy())}
    for n in (1, 5, 40):
        cases[f"identity_{n}"] = (np.eye(n) + noise(n, n), np.eye(n))
    cases.update({
        "unitary": (q + noise(10, 10), q),
        "permutation": (perm + noise(5, 5), perm),
        "unit_phases": (phases + noise(4, 4), phases),
        "norm2_below_one_below_frobenius": (0.6 * q + noise(10, 10), 0.6 * q),
        "frobenius_below_one": (0.05 * a + noise(6, 6), 0.05 * a),
        "norm2_above_one": (3.0 * a + noise(6, 6), 3.0 * a),
        "rectangular": (cplx(4, 7), 0.1 * cplx(4, 7)),
        "empty_0x3": (np.zeros((0, 3)), np.zeros((0, 3))),
        "empty_3x0": (np.zeros((3, 0)), np.zeros((3, 0))),
    })
    return cases


RESIDUAL_CASES = _residual_cases()


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_rel_residual_matches_spectral_formula(case):
    lhs, rhs = RESIDUAL_CASES[case]
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    expected = spectral_norm(lhs - rhs) / max(1.0, spectral_norm(rhs))
    assert rel_residual(lhs, rhs) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(0, 7), cols=st.integers(0, 7), rank_one=st.booleans(),
       rhs_norm=st.sampled_from([0.0, 0.3, 1.0, 1.7, 250.0]),
       ratio=st.one_of(st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9]),
                       st.floats(1 - 1e-14, 1 + 1e-14), st.floats(0.5, 2.0)),
       tol=st.sampled_from([1e-14, 1e-10, 1e-8, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
def test_certainly_within_never_certifies_a_failing_pair(rows, cols, rank_one, rhs_norm,
                                                         ratio, tol, seed):
    # differences scaled so the exact residual lands at ratio * tol; a rank-one
    # difference has equal Frobenius and spectral norms, the tightest case
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rhs = cplx(rows, cols)
    if rhs.size:
        rhs *= rhs_norm / spectral_norm(rhs) if rhs_norm else 0.0
    diff = np.outer(cplx(rows), cplx(cols)) if rank_one else cplx(rows, cols)
    if diff.size:
        diff *= ratio * tol * max(1.0, spectral_norm(rhs)) / spectral_norm(diff)
    lhs = rhs + diff
    # the denominator of rel_residual is at least 1, so a certified numerator
    # settles the pair
    if _norm_at_most(lhs - rhs, tol):
        assert rel_residual(lhs, rhs) <= tol


def test_certainly_within_leaves_room_for_rounding():
    # For a rank-one difference the Frobenius and spectral norms agree, but
    # their computed values differ in the last bits, either way round; at a
    # tol equal to the computed Frobenius norm the bound must not decide.
    rng = np.random.default_rng(0)
    svd_above = 0
    for _ in range(100):
        rows, cols = rng.integers(1, 8, 2)
        diff = np.outer(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                        rng.standard_normal(cols) + 1j * rng.standard_normal(cols))
        tol = float(np.linalg.norm(diff))
        zero = np.zeros_like(diff)
        svd_above += rel_residual(diff, zero) > tol
        assert not _norm_at_most(diff - zero, tol)
    assert svd_above  # the case the slack is for does occur


def test_certainly_within_settles_only_clear_cases():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    small = 1e-10 * a / np.linalg.norm(a)       # Frobenius norm 1e-10
    assert _norm_at_most((a + small) - a, 1e-8)
    assert _norm_at_most(np.eye(5) - np.eye(5), 1e-8)
    assert _norm_at_most(np.zeros((0, 3)) - np.zeros((0, 3)), 0.0)
    # a pair beyond the bound is left to the exact check
    assert not _norm_at_most((a + 1e4 * small) - a, 1e-8)
    # the Frobenius norm sqrt(5) 1e-8 is not the spectral norm 1e-8, but the
    # 1/inf bound is, and it settles the pair
    assert np.linalg.norm(np.eye(5) * (1 + 1e-8) - np.eye(5)) > 2e-8
    assert _norm_at_most(np.eye(5) * (1 + 1e-8) - np.eye(5), 2e-8)
    assert rel_residual(np.eye(5) * (1 + 1e-8), np.eye(5)) <= 2e-8
    # left to the exact check: mismatched shapes, which have no difference
    # to certify, non-finite values, and a tol that is no normal positive float
    with pytest.raises(ShapeError):
        rel_residual(np.zeros((2, 3)), np.zeros((3, 2)))
    assert not _norm_at_most(np.full((2, 2), np.nan), 1.0)
    assert not _norm_at_most(np.full((2, 2), 1e-320), 1e-310)
    assert not _norm_at_most(np.zeros((2, 2)), 0.0)


@pytest.mark.parametrize("scale", [2e200, -3e200j, 1e300])
def test_huge_entries_are_left_to_the_svd_without_a_warning(scale):
    # the squares of entries above about 1e154 overflow, so neither
    # certificate settles anything, and the exact norms decide; with
    # warnings as errors an overflow warning would fail the test
    a = scale * np.eye(2)
    near = a * (1 + 1e-12)
    assert not _norm_at_most(a, 1.0)
    assert not _norm_at_most(near - a, 1e-8)
    assert _norm_at_most(a - a, 1e-8)
    assert rel_residual(near, a) == spectral_norm(near - a) / spectral_norm(a) <= 1e-8
    assert rel_residual(a, 1.5 * a) == spectral_norm(a - 1.5 * a) / spectral_norm(1.5 * a)


def _matrix_of_norm(rows, cols, kind, norm, rng):
    """A complex ``rows x cols`` matrix of spectral norm ``norm``, up to
    rounding; ``flat_spectrum`` puts every singular value within 1e-3 of the
    largest, where the Cholesky certificate decides."""
    if kind == "rank_one":
        a = np.outer(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                     rng.standard_normal(cols) + 1j * rng.standard_normal(cols))
    elif kind == "flat_spectrum":
        k = min(rows, cols)
        a = ((random_unitary(rows, rng)[:, :k] * (1 - 1e-3 * rng.random(k)))
             @ random_unitary(cols, rng)[:k])
    else:
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    a = np.asarray(a, dtype=complex)
    if a.size:
        a *= norm / spectral_norm(a)
    return a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(0, 9), cols=st.integers(0, 9),
       kind=st.sampled_from(["gaussian", "rank_one", "flat_spectrum", "identity_plus_tiny"]),
       norm=st.one_of(st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9]),
                      st.floats(1 - 1e-14, 1 + 1e-14), st.floats(0.5, 2.0)),
       seed=st.integers(0, 2**32 - 1))
def test_unit_norm_certificate_never_certifies_a_norm_above_one(rows, cols, kind, norm, seed):
    # a True answer replaces max(1, ||a||) by 1.0 without an SVD, so it must
    # never be given where the SVD returns more than 1
    rng = np.random.default_rng(seed)
    if kind == "identity_plus_tiny":
        a = np.asarray(np.eye(rows, cols) + 1e-15 * rng.standard_normal((rows, cols)),
                       dtype=complex)
    else:
        a = _matrix_of_norm(rows, cols, kind, norm, rng)
    if _norm_at_most(a, 1.0):
        assert spectral_norm(a) <= 1.0


def test_unit_norm_certificate_settles_clear_cases():
    rng = np.random.default_rng(5)
    for rows, cols in ((200, 200), (200, 220), (220, 200)):
        # singular values spread over [0, 0.99], the largest exactly 0.99
        k = min(rows, cols)
        sigma = 0.99 * np.sqrt(rng.random(k))
        sigma[0] = 0.99
        a = (random_unitary(rows, rng)[:, :k] * sigma) @ random_unitary(cols, rng)[:k]
        # neither cheap bound settles it: ||a||_F is about 10
        assert np.linalg.norm(a) > 1
        assert _norm_at_most(a, 1.0)
        assert not _norm_at_most(a * (1.01 / 0.99), 1.0)
    q = random_unitary(200, rng)
    assert _norm_at_most(0.99 * q, 1.0)
    assert not _norm_at_most(q, 1.0)
    assert _norm_at_most(np.eye(3, dtype=complex), 1.0)
    assert _norm_at_most(np.zeros((0, 4), dtype=complex), 1.0)
    assert _norm_at_most(np.zeros((4, 0), dtype=complex), 1.0)
    assert not _norm_at_most(np.full((2, 2), np.nan, dtype=complex), 1.0)


def test_unit_norm_certificate_leaves_room_for_rounding():
    # Every singular value lies 1e-13 below the certificate's edge for c = 1
    # at 200x200, which takes off the SVD's slack and the rounding of the
    # cheap bounds, so ||a|| <= 1 holds with room to spare; but the gap is
    # below what the rounding of the Gram matrix and of the Cholesky may
    # hide, so the certificate must leave the question to the SVD.
    edge = 1 - 200 * SVD_SLACK - (200 * 200 + 4) * EPS
    q = random_unitary(200, np.random.default_rng(6))
    assert not _norm_at_most(edge * (1 - 1e-13) * q, 1.0)
    assert _norm_at_most(edge * (1 - 1e-6) * q, 1.0)


_BOUNDS = [1e-15, 3e-13, 1e-8, 0.3, 1.0, 1.7, 250.0, 2.0**-20, 2.0**40]
_RATIOS = st.one_of(st.sampled_from([1 - 1e-9, 1 + 1e-9]),
                    st.floats(1 - 1e-14, 1 + 1e-14), st.floats(0.5, 2.0))
_KINDS = st.sampled_from(["gaussian", "rank_one", "flat_spectrum"])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rows=st.integers(0, 9), cols=st.integers(0, 9), kind=_KINDS,
       c=st.sampled_from(_BOUNDS), ratio=_RATIOS, seed=st.integers(0, 2**32 - 1))
def test_norm_certificate_never_certifies_a_norm_above_its_bound(rows, cols, kind, c,
                                                                  ratio, seed):
    a = _matrix_of_norm(rows, cols, kind, ratio * c, np.random.default_rng(seed))
    if _norm_at_most(a, c):
        assert spectral_norm(a) <= c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), kind=_KINDS,
       c=st.sampled_from(_BOUNDS), ratio=_RATIOS, j=st.integers(-60, 60),
       seed=st.integers(0, 2**32 - 1))
def test_norm_certificate_is_covariant_under_powers_of_two(rows, cols, kind, c, ratio,
                                                           j, seed):
    # scaling a and c by one power of two is exact, so it cannot change the
    # decision; only the identity shortcut, taken for c >= 1, tells a
    # multiple of the identity apart
    assume(rows * cols > 1)
    a = _matrix_of_norm(rows, cols, kind, ratio * c, np.random.default_rng(seed))
    assert _norm_at_most(a, c) == _norm_at_most(2.0**j * a, 2.0**j * c)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(2))
        np.testing.assert_allclose(res.singulars, [1.0, 1.0])

    def test_diagonal(self):
        res = svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(res.singulars, [3.0, 0.0])

    def test_swap_reconstruction(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = svd(a)
        np.testing.assert_allclose(res.singulars, [1.0, 1.0])
        rebuilt = (res.left * res.singulars) @ adjoint(res.right)
        assert spectral_norm(rebuilt - a) <= 1e-14

    def test_unitary_factors(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        res = svd(a)
        assert rel_residual(adjoint(res.left) @ res.left, np.eye(4)) <= 1e-14
        assert rel_residual(adjoint(res.right) @ res.right, np.eye(6)) <= 1e-14
        assert np.all(np.diff(res.singulars) <= 0)

    def test_empty_shapes(self):
        res = svd(np.zeros((0, 3)))
        assert res.singulars.size == 0
        assert res.right.shape == (3, 3)


class TestRank:
    def test_zero(self):
        assert rank_of(np.zeros((3, 3))) == 0

    def test_below_default_cutoff(self):
        assert rank_of(np.diag([1.0, 1e-30])) == 1

    def test_full_rank(self):
        assert rank_of([[2.0, 1.0], [1.0, 1.0]]) == 2


class TestSubspaces:
    """The four fundamental subspaces are column blocks of the SVD factors:
    for ``res = svd(a)`` and ``r = res.rank()``, ``res.right[:, r:]`` spans
    the kernel, ``res.right[:, :r]`` its complement, ``res.left[:, :r]`` the
    range and ``res.left[:, r:]`` its complement."""

    @staticmethod
    def split(a):
        res = svd(a)
        r = res.rank()
        return res.right[:, r:], res.right[:, :r], res.left[:, :r], res.left[:, r:]

    def test_zero_map(self):
        kernel, kcomp, ran, rcomp = self.split(np.zeros((2, 2)))
        assert [b.shape[1] for b in (kernel, kcomp, ran, rcomp)] == [2, 0, 0, 2]

    def test_identity(self):
        kernel, kcomp, ran, rcomp = self.split(np.eye(3))
        assert (kernel.shape[1], ran.shape[1]) == (0, 3)

    def test_coordinate_projection(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        kernel, kcomp, ran, rcomp = self.split(a)
        # kernel = span e2, range = span e1, complements the other axes
        np.testing.assert_allclose(np.abs(kernel), [[0.0], [1.0]], atol=1e-15)
        np.testing.assert_allclose(np.abs(ran), [[1.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(np.abs(kcomp), [[1.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(np.abs(rcomp), [[0.0], [1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_nullity_and_block_form(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 8, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        a = (rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))) @ \
            (rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols)))
        kernel, kcomp, ran, rcomp = self.split(a)
        assert rank_of(a) + kernel.shape[1] == cols
        # assembling a in the four bases gives [[a', 0], [0, 0]] with a' invertible
        dom = np.hstack([kcomp, kernel])
        cod = np.hstack([ran, rcomp])
        coords = adjoint(cod) @ a @ dom
        k = ran.shape[1]
        scale = max(1.0, spectral_norm(a))
        assert spectral_norm(coords[:k, k:]) <= 1e-12 * scale
        assert spectral_norm(coords[k:, :]) <= 1e-12 * scale
        if k:
            condition_number(coords[:k, :k])  # must not raise
        # a annihilates its kernel
        assert spectral_norm(a @ kernel) <= 1e-12 * scale


class TestInverse:
    """``lu_inverse`` inverts, and ``condition_number`` measures, a square
    matrix; both take an identity and a 0x0 matrix without a factorization."""

    def test_identity(self):
        a = np.eye(4, dtype=complex)
        assert lu_inverse(a) is a
        assert condition_number(a) == 1.0

    def test_two_by_two(self):
        inv = lu_inverse(np.array([[1.0, 1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(inv, [[0.5, -0.5], [0.5, 0.5]], atol=1e-15)

    def test_singular(self):
        with pytest.raises(SingularMatrixError, match="is singular: its LU"):
            lu_inverse(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError, match=r"sigma_min=0\.000e\+00"):
            condition_number(np.diag([1.0, 0.0]))

    def test_non_square(self):
        for check in (lu_inverse, condition_number):
            with pytest.raises(ShapeError, match=r"square matrix, got shape \(2, 3\)"):
                check(np.zeros((2, 3)))

    def test_empty(self):
        assert lu_inverse(np.zeros((0, 0))).shape == (0, 0)
        assert condition_number(np.zeros((0, 0))) == 1.0

    def test_condition_number_matches_inverse(self):
        # cond(a) = ||a|| ||a^-1||
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert condition_number(a) == pytest.approx(
            spectral_norm(a) * spectral_norm(lu_inverse(a)), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pinv_scaled_by_condition(self, seed):
        rng = np.random.default_rng(40 + seed)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        inv = lu_inverse(a)
        assert spectral_norm(inv - np.linalg.pinv(a)) <= 1e-13 * condition_number(a)


@pytest.mark.parametrize("lhs, rhs", [
    (np.full((2, 2), np.inf), np.zeros((2, 2))),
    (np.zeros((3, 1)), np.full((3, 1), np.nan)),
    (np.full((2, 2), 1e308), np.full((2, 2), -1e308)),
])
def test_non_finite_residual_is_a_numerical_error(lhs, rhs):
    # an infinite operand, a NaN, or a difference that overflows; with
    # warnings as errors an overflow warning would fail the test
    for tol in (None, 1e-8):
        with pytest.raises(NumericalError, match="not finite"):
            rel_residual(lhs, rhs, tol)


def test_certificate_crossover():
    # with a tol, a residual whose smaller side reaches the crossover is a
    # certified bound, between the SVD value and tol; a smaller one is the
    # SVD value itself, and so is any residual without a tol
    rng = np.random.default_rng(8)
    for k in (_CERT_MIN_SIDE - 1, _CERT_MIN_SIDE):
        for shape in ((k, k), (k, 3 * k), (3 * k, k)):
            rhs = np.eye(*shape)
            lhs = rhs + 1e-14 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            exact, value = rel_residual(lhs, rhs), rel_residual(lhs, rhs, 1e-8)
            assert isinstance(value, _Bound) == (k >= _CERT_MIN_SIDE)
            assert exact <= value <= 1e-8 and type(exact) is float
            assert rel_residual(lhs, rhs, exact / 2) == exact


@contextlib.contextmanager
def _crossover_lowered():
    """Certify residuals of every size for the length of the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numkernel, "_CERT_MIN_SIDE", 1)
        yield


def _mp_norm(a: np.ndarray):
    """The spectral norm of the stored floats of ``a`` in 40-digit mpmath."""
    if not a.size:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])
        return max(mpmath.svd_c(m, compute_uv=False))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), kind=_KINDS,
       rhs_norm=st.sampled_from([0.0, 0.3, 1.0, 1.7, 250.0]),
       level=st.sampled_from([1e-15, 1e-12, 1e-6, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_certified_residual_bounds_the_stored_floats(rows, cols, kind, rhs_norm, level,
                                                     seed):
    # with the crossover lowered, every certified value lies above the true
    # relative residual of the stored lhs and rhs, computed in 40 digits
    rng = np.random.default_rng(seed)
    rhs = _matrix_of_norm(rows, cols, kind, rhs_norm, rng) if rhs_norm else np.zeros(
        (rows, cols), dtype=complex)
    lhs = rhs + _matrix_of_norm(rows, cols, "gaussian", level * max(1.0, rhs_norm), rng)
    with _crossover_lowered():
        value = rel_residual(lhs, rhs, 1.0)
    if isinstance(value, _Bound):
        with mpmath.workdps(40):
            diff = np.array([[mpmath.mpc(complex(x)) - mpmath.mpc(complex(y))
                              for x, y in zip(*pair)] for pair in zip(lhs, rhs)])
            true = (max(mpmath.svd_c(mpmath.matrix(diff.tolist()), compute_uv=False))
                    / max(mpmath.mpf(1), _mp_norm(rhs)))
            assert mpmath.mpf(float(value)) >= true


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(1, 7), cols=st.integers(1, 7), rank_one=st.booleans(),
       rhs_norm=st.sampled_from([0.0, 0.3, 1.0, 1.7, 250.0]),
       ratio=st.one_of(st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9]), st.floats(0.5, 2.0)),
       tol=st.sampled_from([1e-14, 1e-10, 1e-8, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
def test_certified_residual_decides_as_the_svd(rows, cols, rank_one, rhs_norm, ratio, tol,
                                               seed):
    # exact residuals at ratio * tol: with the crossover lowered, the value
    # at tol passes tol exactly when the SVD value does
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rhs = cplx(rows, cols)
    rhs *= rhs_norm / spectral_norm(rhs)
    diff = np.outer(cplx(rows), cplx(cols)) if rank_one else cplx(rows, cols)
    diff *= ratio * tol * max(1.0, spectral_norm(rhs)) / spectral_norm(diff)
    lhs = rhs + diff
    exact = rel_residual(lhs, rhs)
    with _crossover_lowered():
        value = rel_residual(lhs, rhs, tol)
    assert (value <= tol) == (exact <= tol)
    assert value == exact or (isinstance(value, _Bound) and exact <= value <= tol)
