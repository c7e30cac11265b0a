import tracemalloc

import numpy as np
import pytest

from opcoupling.errors import PreconditionError, SymbolInversionError
from opcoupling.hankel import (
    SymbolFC,
    build_sections,
    convolution_residual,
    evaluate_on_grid,
    hankel_singular_values,
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


def dense_defects(f, N):
    """Oracle: the dense section product minus identity, interior and full norms.

    The sections of f and of 1/f (cut to [-N, N]) are assembled with the
    modes in the order -1, ..., -N, 0, ..., N, so their product is the
    reordered coupling product of the module docstring.
    """
    rep = mc_residual_hankel(f, N)
    inv = rep.inverse.restricted(-N, N).trimmed(0.0)
    sf, sg = build_sections(f, N), build_sections(inv, N)
    defect = (np.block([[sf.Ttilde, sf.Htilde], [sf.H, sf.T]])
              @ np.block([[sg.Ttilde, sg.Htilde], [sg.H, sg.T]])
              - np.eye(2 * N + 1))

    def positions(lo, hi):
        ms = np.arange(lo, hi + 1)
        return np.where(ms < 0, -ms - 1, N + ms)

    sub = defect[np.ix_(positions(*rep.interior_rows), positions(*rep.interior_cols))]
    return rep, spectral_norm(sub), spectral_norm(defect)


ORACLE_SYMBOLS = {
    "2+z": SymbolFC(0, [2.0, 1.0]),
    "banded": SymbolFC(0, [3.0, 0.3 + 0.2j, -0.25j, 0.4, 0.1 - 0.3j]),
    "two-sided": SymbolFC(-1, [0.25, 3.0, 0.5]),
    "1+0.9z": SymbolFC(0, [1.0, 0.9]),   # truncation of 1/f dominates
    "constant": SymbolFC(0, [2.0]),
}


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

    def test_overflowing_values_rejected(self):
        # finite coefficients whose sum overflows; must raise, not warn
        with pytest.raises(PreconditionError, match="overflow"):
            evaluate_on_grid(SymbolFC(0, [1e308, 1e308]), 8)


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


class TestDenseOracle:
    """The structured residuals bound the dense ones from above, tightly."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SYMBOLS))
    @pytest.mark.parametrize("N", [10, 40, 100, 400])
    def test_residuals_bound_dense(self, name, N):
        rep, interior, full = dense_defects(ORACLE_SYMBOLS[name], N)
        assert interior - 1e-14 <= rep.interior_residual <= 1.1 * interior + 1e-14
        assert full - 1e-14 <= rep.full_residual <= 1.1 * full + 1e-14

    @pytest.mark.parametrize("name", sorted(ORACLE_SYMBOLS))
    @pytest.mark.parametrize("N", [10, 100, 400])
    def test_sigmas_match_dense(self, name, N):
        f = ORACLE_SYMBOLS[name]
        for g in (f, mc_residual_hankel(f, N).inverse):
            dense = singular_values(build_sections(g, N).H)
            np.testing.assert_allclose(hankel_singular_values(g, N), dense,
                                       rtol=0, atol=1e-12)

    def test_truncation_dominated_defect_is_seen(self):
        # 1/(1 + 0.9z) cut at N = 40 leaves r = 0.9 (-0.9)^40 z^41
        rep, _, full = dense_defects(ORACLE_SYMBOLS["1+0.9z"], 40)
        assert full == pytest.approx(0.9 ** 41, rel=1e-9)
        assert full <= rep.full_residual <= 1.05 * full

    def test_nonzero_block_beyond_section(self):
        # top index above N: the nonzero block is all of H
        f = SymbolFC(0, 0.5 ** np.arange(30))
        np.testing.assert_allclose(hankel_singular_values(f, 8),
                                   singular_values(build_sections(f, 8).H),
                                   rtol=0, atol=1e-12)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """At N = 800 a dense (2N+1)^2 complex matrix alone takes 41 MB."""

    LIMIT = 20 * 2 ** 20

    @pytest.mark.parametrize("name", ["2+z", "banded", "two-sided"])
    def test_residual_peak(self, name):
        f = ORACLE_SYMBOLS[name]
        assert _peak_bytes(lambda: mc_residual_hankel(f, 800)) < self.LIMIT

    @pytest.mark.parametrize("name", ["2+z", "banded", "two-sided"])
    def test_sigma_peak(self, name):
        f = ORACLE_SYMBOLS[name]
        inv = mc_residual_hankel(f, 800).inverse
        assert _peak_bytes(lambda: (hankel_singular_values(f, 800),
                                    hankel_singular_values(inv, 800))) < self.LIMIT


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

    def test_shifts_past_the_sequences_are_not_searched(self):
        # a shift of 10 or more pairs no entries of length-10 sequences
        alpha, beta = 2.0 ** -np.arange(10), 3.0 ** -np.arange(10)
        rep = shift_comparability(alpha, beta, 10**4)
        capped = shift_comparability(alpha, beta, 9)
        assert len(rep.records) == 2 * 10
        assert rep.records == capped.records
        assert (rep.verdict_orientation, rep.verdict_k, rep.verdict_c) == (
            capped.verdict_orientation, capped.verdict_k, capped.verdict_c)

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

    @pytest.mark.parametrize("sv,coeffs", [([1e200], [1.0]), ([1.0], [1e200, 1e199])],
                             ids=["power_sum", "besov"])
    def test_overflow_is_a_precondition_error(self, sv, coeffs):
        with pytest.raises(PreconditionError, match="overflows; rescale the symbol"):
            spectral_summability(sv, 2.0, besov_symbol=SymbolFC(0, coeffs))

    def test_besov_order_at_p_one(self):
        rep = spectral_summability([1.0], 1.0, besov_symbol=symbol_2_plus_z(),
                                   t_points=32, s_points=64)
        assert rep.besov.order == 2

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_besov_matches_per_t_loop(self, p):
        f = SymbolFC(-1, [0.25, 3.0, 0.5, -0.2j, 0.1])
        besov = spectral_summability([1.0], p, besov_symbol=f).besov
        # reference: one grid evaluation per midpoint t of (0, pi]
        g = f.restricted(0, f.support[1])
        js = np.arange(g.coeffs.size)
        dt = np.pi / besov.t_points
        integral = 0.0
        for k in range(besov.t_points):
            t = (k + 0.5) * dt
            diff = SymbolFC(0, g.coeffs * (np.exp(1j * js * t) - 1.0) ** besov.order)
            vals = evaluate_on_grid(diff, besov.s_points)
            integral += t ** (-1.0 - p * besov.alpha) * np.mean(np.abs(vals) ** p) * dt
        assert besov.integral == pytest.approx(2.0 * integral, rel=1e-12)


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
