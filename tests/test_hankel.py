import numpy as np
import pytest

from opcoupling.errors import PreconditionError, SymbolInversionError
from opcoupling.hankel import (
    SymbolFC,
    build_sections,
    convolution_residual,
    evaluate_on_grid,
    invert_symbol,
    mc_residual_hankel,
    shift_comparability,
    singular_values,
    spectral_summability,
    winding_number,
)
from opcoupling.numkernel import rank_of, spectral_norm


def symbol_2_plus_z():
    return SymbolFC(0, [2.0, 1.0])


class TestSymbolFC:
    def test_coeff_lookup(self):
        f = SymbolFC(-1, [1.0, 2.0, 3.0])
        assert f.coeff(-1) == 1.0
        assert f.coeff(1) == 3.0
        assert f.coeff(5) == 0.0
        assert f.support == (-1, 1)

    def test_trimmed(self):
        f = SymbolFC(0, [0.0, 1.0, 0.0])
        g = f.trimmed(0.0)
        assert g.support == (1, 1) and g.coeffs.size == 1

    def test_rejects_nan(self):
        with pytest.raises(PreconditionError):
            SymbolFC(0, [np.nan])

    def test_evaluate(self):
        f = symbol_2_plus_z()
        vals = evaluate_on_grid(f, 8)
        ts = 2 * np.pi * np.arange(8) / 8
        np.testing.assert_allclose(vals, 2 + np.exp(1j * ts), atol=1e-13)


class TestInvertSymbol:
    def test_constant(self):
        g = invert_symbol(SymbolFC(0, [2.0]), 32, 1e-8)
        assert g.support == (0, 0)
        np.testing.assert_allclose(g.coeff(0), 0.5, atol=1e-15)

    def test_geometric_series(self):
        g = invert_symbol(symbol_2_plus_z(), 256, 1e-8)
        js = np.arange(0, 30)
        np.testing.assert_allclose(g.coeff(js), 0.5 * (-0.5) ** js, atol=1e-15)
        assert convolution_residual(symbol_2_plus_z(), g) <= 1e-13

    def test_pure_shift(self):
        # |z| = 1 everywhere but the inverse lives at index -1
        g = invert_symbol(SymbolFC(1, [1.0]), 64, 1e-8)
        assert g.support == (-1, -1)
        np.testing.assert_allclose(g.coeff(-1), 1.0, atol=1e-13)

    def test_near_vanishing_reports_min(self):
        # 1 - z hits zero at t = 0
        with pytest.raises(SymbolInversionError) as info:
            invert_symbol(SymbolFC(0, [1.0, -1.0]), 64, 1e-8)
        assert info.value.min_abs is not None and info.value.min_abs <= 1e-8

    def test_winding(self):
        vals = evaluate_on_grid(SymbolFC(1, [1.0]), 32)
        assert winding_number(vals) == 1
        vals = evaluate_on_grid(symbol_2_plus_z(), 32)
        assert winding_number(vals) == 0


class TestBuildSections:
    def test_constant_one(self):
        sec = build_sections(SymbolFC(0, [1.0]), 3)
        np.testing.assert_allclose(sec.T, np.eye(4))
        np.testing.assert_allclose(sec.Ttilde, np.eye(3))
        assert spectral_norm(sec.H) == 0.0
        assert spectral_norm(sec.Htilde) == 0.0

    def test_coefficient_placement(self):
        sec = build_sections(symbol_2_plus_z(), 2)
        # H has the single entry fc(1) at (0, 0)
        expected_h = np.zeros((3, 2))
        expected_h[0, 0] = 1.0
        np.testing.assert_allclose(sec.H, expected_h)
        # T is lower bidiagonal: 2 on the diagonal, 1 below
        np.testing.assert_allclose(sec.T, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])

    def test_symmetric_symbol_rank_one_hankels(self):
        f = SymbolFC(-1, [1.0, 0.0, 1.0])  # z + 1/z
        sec = build_sections(f, 4)
        assert rank_of(sec.H) == 1
        assert rank_of(sec.Htilde) == 1

    def test_reassembly_is_reordered_section(self):
        f = SymbolFC(-2, [0.5j, 2.0, 1.0, -0.25])
        n = 5
        sec = build_sections(f, n)
        # the plain section on modes -n..n has entry (p, q) = fc(p - q); the
        # blocks enumerate the modes as -1, ..., -n, 0, ..., n
        modes = np.arange(-n, n + 1)
        full = f.coeff(modes[:, None] - modes[None, :])
        order = np.concatenate([-np.arange(1, n + 1), np.arange(0, n + 1)])
        perm = [int(np.where(modes == m)[0][0]) for m in order]
        assembled = np.block([[sec.Ttilde, sec.Htilde], [sec.H, sec.T]])
        np.testing.assert_array_equal(assembled, full[np.ix_(perm, perm)])

    def test_invalid_size(self):
        with pytest.raises(PreconditionError):
            build_sections(symbol_2_plus_z(), 0)


class TestMcResidual:
    def test_constant_symbol_exact(self):
        rep = mc_residual_hankel(SymbolFC(0, [2.0]), 5)
        assert rep.interior_residual == 0.0
        assert rep.full_residual == 0.0

    def test_geometric_decay(self):
        rep = mc_residual_hankel(symbol_2_plus_z(), 30)
        assert rep.interior_residual <= 1e-6
        assert rep.winding == 0

    def test_monotone_in_section_size(self):
        res = [mc_residual_hankel(symbol_2_plus_z(), n).interior_residual
               for n in (10, 20, 30, 40)]
        assert all(a > b for a, b in zip(res, res[1:]))

    def test_two_sided_symbol(self):
        f = SymbolFC(-1, [0.25, 3.0, 0.5])
        rep = mc_residual_hankel(f, 25)
        assert rep.interior_residual <= 1e-6
        assert rep.inversion_l1 <= 1e-6

    def test_support_too_wide(self):
        f = SymbolFC(-3, np.ones(7))
        with pytest.raises(PreconditionError):
            mc_residual_hankel(f, 2)


class TestSingularValues:
    def test_single_entry_hankel(self):
        sec = build_sections(symbol_2_plus_z(), 10)
        s = singular_values(sec.H)
        np.testing.assert_allclose(s[0], 1.0, atol=1e-14)
        assert np.all(s[1:] <= 1e-14)

    def test_inverse_hankel_limit_third(self):
        inv = invert_symbol(symbol_2_plus_z(), 512, 1e-8)
        s = singular_values(build_sections(inv, 40).H)
        # rank-1 Hankel of a geometric sequence: top value sqrt(1/9)
        np.testing.assert_allclose(s[0], 1.0 / 3.0, atol=1e-9)
        assert rank_of(build_sections(inv, 40).H) == 1

    def test_zero_matrix(self):
        s = singular_values(np.zeros((3, 4)))
        assert np.all(s == 0.0)


class TestShiftComparability:
    def test_identical_sequences(self):
        alpha = 2.0 ** -np.arange(10)
        rep = shift_comparability(alpha, alpha, 4)
        assert rep.verdict_k == 0 and rep.verdict_c == pytest.approx(1.0)

    def test_rank_one_pair(self):
        alpha = np.array([1.0, 0.0, 0.0])
        beta = np.array([1.0 / 3.0, 0.0, 0.0])
        rep = shift_comparability(alpha, beta, 3)
        assert rep.verdict_k == 0
        assert rep.verdict_c == pytest.approx(1.0 / 3.0)

    def test_exact_shift(self):
        alpha = 2.0 ** -np.arange(8)          # 1, 1/2, 1/4, ...
        beta = 2.0 ** -np.arange(1, 8)        # 1/2, 1/4, ...
        rep = shift_comparability(alpha, beta, 3)
        assert rep.verdict_k == 1
        assert rep.verdict_orientation == "beta_vs_alpha"
        assert abs(rep.verdict_c - 1.0) <= 1e-12

    def test_incomparable(self):
        rep = shift_comparability([1.0, 0.0], [0.0, 0.0], 1)
        assert not rep.comparable

    def test_rejects_increasing(self):
        with pytest.raises(PreconditionError):
            shift_comparability([0.0, 1.0], [1.0], 1)


class TestSpectralSummability:
    def test_single_value(self):
        rep = spectral_summability([1.0, 0.0, 0.0], 1.0)
        assert rep.total == pytest.approx(1.0)

    def test_pair_sums(self):
        f = symbol_2_plus_z()
        s_f = singular_values(build_sections(f, 30).H)
        inv = invert_symbol(f, 512, 1e-8)
        s_inv = singular_values(build_sections(inv, 30).H)
        assert spectral_summability(s_f, 2.0).total == pytest.approx(1.0)
        assert spectral_summability(s_inv, 2.0).total == pytest.approx(1.0 / 9.0)

    def test_all_zero(self):
        rep = spectral_summability(np.zeros(5), 2.0)
        assert rep.total == 0.0 and rep.tail_fraction == 0.0

    def test_rejects_small_p(self):
        with pytest.raises(PreconditionError):
            spectral_summability([1.0], 0.5)

    def test_besov_estimate_finite(self):
        rep = spectral_summability([1.0], 2.0, besov_symbol=symbol_2_plus_z(),
                                   t_points=64, s_points=128)
        assert rep.besov is not None
        assert rep.besov.order == 1
        assert np.isfinite(rep.besov.integral) and rep.besov.integral > 0

    def test_besov_order_at_p_one(self):
        rep = spectral_summability([1.0], 1.0, besov_symbol=symbol_2_plus_z(),
                                   t_points=32, s_points=64)
        assert rep.besov.order == 2


class TestConvolutionIdentity:
    def test_residual_tracks_truncation(self):
        # truncating the inverse raises the reported defect monotonically
        f = symbol_2_plus_z()
        g = invert_symbol(f, 512, 1e-8)
        res = [convolution_residual(f, g.restricted(0, length))
               for length in (10, 20, 40)]
        assert res[0] > res[1] > res[2]
        # the only surviving convolution term is fc(1) * g(10) = (1/2)^11
        np.testing.assert_allclose(res[0], 0.5 ** 11, rtol=1e-6)
