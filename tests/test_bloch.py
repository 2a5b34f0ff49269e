"""Bloch-matrix oracle tests: free-case exactness, periodicity, edge
extraction and band counting."""

import math

import numpy as np
import pytest

from lame_spectra.bloch import (
    RationalEta,
    band_intervals,
    band_sweep,
    lame_coefficients,
    numeric_band_edges,
    periodic_matrix,
)
from lame_spectra.curve import band_edges
from lame_spectra.errors import PoleProximityError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta

X0 = 0.123456 + 0j


@pytest.fixture(scope="module")
def ev31():
    return ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 31, tol=1e-12))


@pytest.fixture(scope="module")
def re31():
    return RationalEta(P=1, Q=31)


class TestRationalEta:
    def test_coprime_required(self):
        with pytest.raises(ValueError):
            RationalEta(P=2, Q=4)

    def test_positive_q(self):
        with pytest.raises(ValueError):
            RationalEta(P=1, Q=0)

    def test_brillouin(self):
        assert RationalEta(P=2, Q=41).brillouin_width() == pytest.approx(math.pi)


class TestMatrixBuild:
    def test_free_case_row_sums(self, ev31, re31):
        # ell = 0 has a_n = c_n = 1; at phase 1 the constant vector is an
        # eigenvector with eigenvalue 2
        a, c, _ = lame_coefficients(0, re31, X0, ev31)
        ones = np.ones(31)
        np.testing.assert_allclose(periodic_matrix(a, c, 1.0) @ ones, 2 * ones, atol=1e-12)

    def test_free_case_spectrum(self, ev31, re31):
        a, c, _ = lame_coefficients(0, re31, X0, ev31)
        eigs = np.sort(np.linalg.eigvals(periodic_matrix(a, c, 1.0)).real)
        want = np.sort([2 * math.cos(2 * math.pi * j / 31) for j in range(31)])
        np.testing.assert_allclose(eigs, want, atol=1e-10)

    def test_coefficient_periodicity(self, ev31, re31):
        # samples at n and n + Q coincide: theta ratios have period 1 in x
        ev, re = ev31, re31
        for n in (0, 3, 17):
            xn = X0 + n * re.eta
            xnq = X0 + (n + re.Q) * re.eta
            for off in (-re.eta, re.eta):
                a1 = theta(1, xn + off, ev) / theta(1, xn, ev)
                a2 = theta(1, xnq + off, ev) / theta(1, xnq, ev)
                assert a1 == pytest.approx(a2, rel=1e-11)

    def test_wrap_entries_carry_phase(self, re31, ev31):
        a, c, _ = lame_coefficients(1, re31, X0, ev31)
        phase = np.exp(0.7j * re31.eta * re31.Q)
        m = periodic_matrix(a, c, phase)
        plain = periodic_matrix(a, c, 1.0)
        Q = re31.Q
        assert m[Q - 1, 0] / plain[Q - 1, 0] == pytest.approx(phase, rel=1e-12)
        assert m[0, Q - 1] / plain[0, Q - 1] == pytest.approx(1 / phase, rel=1e-12)
        mask = np.ones((Q, Q), dtype=bool)
        mask[Q - 1, 0] = mask[0, Q - 1] = False
        assert (m[mask] == plain[mask]).all()

    def test_x0_on_theta1_zero_raises(self, re31, ev31):
        # x0 = 0 puts the orbit on the theta1 zero at the origin; the offset
        # is the caller's, so it is never moved
        with pytest.raises(PoleProximityError):
            lame_coefficients(1, re31, 0.0 + 0j, ev31)

    def test_x0_returned_unchanged(self, re31, ev31):
        for x0 in (X0, X0 + ev31.tau / 2):
            assert lame_coefficients(1, re31, x0, ev31)[2] == x0


class TestNumericEdges:
    def test_free_case_extremes_only(self, ev31, re31):
        cand = numeric_band_edges(0, re31, X0, ev31)
        vals = cand.confident_values()
        assert len(vals) == 2
        np.testing.assert_allclose(sorted(vals.real), [-2, 2], atol=1e-10)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_edge_count(self, ev31, re31, ell):
        cand = numeric_band_edges(ell, re31, X0, ev31)
        assert len(cand.confident_values()) == 2 * (2 * ell + 1)

    def test_matches_analytic_edges(self, ev31, re31):
        cand = numeric_band_edges(1, re31, X0, ev31)
        analytic = band_edges(1, ev31).with_reflection()
        scale = max(abs(e) for e in analytic)
        for v in cand.confident_values():
            assert min(abs(v - e) for e in analytic) < 1e-6 * scale
        for e in analytic:
            assert min(abs(v - e) for v in cand.confident_values()) < 1e-6 * scale

    def test_x0_independence(self, ev31, re31):
        c1 = numeric_band_edges(1, re31, X0, ev31).confident_values()
        c2 = numeric_band_edges(1, re31, X0 + 0.01, ev31).confident_values()
        assert len(c1) == len(c2)
        assert np.abs(np.sort(c1.real) - np.sort(c2.real)).max() < 1e-8


class TestBandSweep:
    def test_free_case_single_band(self, ev31, re31):
        ks = np.linspace(0, re31.brillouin_width(), 65)
        sweep = band_sweep(0, re31, X0, ks, ev31)
        bands = band_intervals(sweep)
        assert len(bands) == 1
        lo, hi = bands[0]
        assert lo == pytest.approx(-2, abs=1e-9)
        assert hi == pytest.approx(2, abs=1e-9)

    def test_l1_three_bands(self, ev31, re31):
        ks = np.linspace(0, re31.brillouin_width(), 129)
        sweep = band_sweep(1, re31, X0, ks, ev31)
        bands = band_intervals(sweep)
        assert len(bands) == 3

    def test_l1_reflection_symmetry(self, ev31, re31):
        ks = np.linspace(0, re31.brillouin_width(), 129)
        bands = band_intervals(band_sweep(1, re31, X0, ks, ev31))
        for lo, hi in bands:
            assert any(
                abs(lo + hi2) < 1e-8 and abs(hi + lo2) < 1e-8 for lo2, hi2 in bands
            )

    def test_band_count_at_most_q(self, ev31):
        re5 = RationalEta(P=1, Q=5)
        ks = np.linspace(0, re5.brillouin_width(), 33)
        bands = band_intervals(band_sweep(1, re5, X0, ks, ev31))
        assert len(bands) <= 5


class TestBandsFromEdgeSpectra:
    """The JSON bands come from the phase +1 and -1 spectra alone; a sweep
    over momenta is the reference route.  Any odd number of k-points puts
    phase +1 and -1 on the grid, so the interior rows check that no momentum
    reaches beyond the bands of the two edge spectra."""

    @pytest.mark.parametrize("tau", [1.2j, 0.8j, 2j])
    @pytest.mark.parametrize("P,Q", [(1, 31), (2, 31), (1, 41), (3, 41), (1, 61), (3, 61), (1, 101)])
    def test_matches_sweep(self, tau, P, Q):
        re = RationalEta(P, Q)
        ev = ThetaEvaluator(EllipticParams(tau=tau, eta=P / Q, tol=1e-12))
        ks = np.linspace(0, re.brillouin_width(), 17)
        for ell in (0, 1, 2):
            swept = band_intervals(band_sweep(ell, re, X0, ks, ev))
            cand = numeric_band_edges(ell, re, X0, ev)
            assert cand.spectra.shape == (2, Q)
            bands = band_intervals(cand.spectra)
            assert len(bands) == len(swept) == 2 * ell + 1
            scale = max(1.0, np.abs(cand.spectra).max())
            np.testing.assert_allclose(bands, swept, rtol=0, atol=1e-8 * scale)
