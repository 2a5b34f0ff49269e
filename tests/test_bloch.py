"""Bloch-matrix oracle tests: free-case exactness, periodicity, edge
extraction and band counting."""

import math

import numpy as np
import pytest

from lame_spectra import bloch
from lame_spectra.bloch import (
    RationalEta,
    band_intervals,
    band_sweep,
    coefficient_samples,
    lame_coefficients,
    numeric_band_edges,
    numeric_band_edges_from_coefficients,
    periodic_matrix,
)
from lame_spectra.curve import band_edges
from lame_spectra.errors import ClusterAmbiguityError, PoleProximityError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta
from lame_spectra.volterra import PoleConfig, c_from_poles, find_locus_config, integrate_flow

X0 = 0.123456 + 0j


def _reference_periodic_matrix(a_vals, c_vals, phase):
    """The per-row loop ``periodic_matrix`` replaced; the reference it must equal."""
    Q = len(a_vals)
    M = np.zeros((Q, Q), dtype=complex)
    for n in range(Q):
        M[n, (n + 1) % Q] += a_vals[n] * (phase if n == Q - 1 else 1.0)
        M[n, (n - 1) % Q] += c_vals[n] * (1.0 / phase if n == 0 else 1.0)
    return M


def _reference_spectra(a_vals, c_vals):
    """Two dense complex eigen-solves, phase +1 then -1, each sorted by (Re, Im):
    the route the symmetric gauge and the odd-Q reflection replaced."""
    spectra = []
    for phase in (1.0, -1.0):
        eigs = np.linalg.eigvals(_reference_periodic_matrix(a_vals, c_vals, phase))
        spectra.append(eigs[np.lexsort((eigs.imag, eigs.real))])
    return np.array(spectra)


def _assert_spectra_match(got, want):
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


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

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 31])
    def test_matches_reference_loop(self, Q):
        rng = np.random.default_rng(Q)
        a = rng.standard_normal(Q) + 1j * rng.standard_normal(Q)
        c = rng.standard_normal(Q) + 1j * rng.standard_normal(Q)
        for phase in (1.0, -1.0, np.exp(0.7j)):
            assert np.array_equal(periodic_matrix(a, c, phase), _reference_periodic_matrix(a, c, phase))

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


def _reference_lame_coefficients(ell, re, x0, ev):
    """The three theta calls ``lame_coefficients`` replaced with one table."""
    xs = x0 + np.arange(re.Q) * re.eta
    den = theta(1, xs, ev)
    return theta(1, xs - ell * re.eta, ev) / den, theta(1, xs + ell * re.eta, ev) / den


class TestLameCoefficientsOneTable:
    def test_one_theta_call(self, monkeypatch, re31, ev31):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return theta(*args, **kwargs)

        monkeypatch.setattr(bloch, "theta", counting)
        lame_coefficients(2, re31, X0 + ev31.tau / 2, ev31)
        assert len(calls) == 1

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j, 0.8j, 2j])
    @pytest.mark.parametrize("P,Q", [(1, 31), (3, 31), (2, 41), (1, 61), (3, 101)])
    def test_hops_match_three_calls(self, tau, P, Q):
        re = RationalEta(P, Q)
        ev = ThetaEvaluator(EllipticParams(tau=tau, eta=P / Q, tol=1e-12))
        # each hop within 1e-13 of its own size on the line Im x0 = Im tau/2;
        # on the real line, where the orbit passes near theta1 zeros, within
        # 1e-13 of the largest hop
        for ell in range(1, 9):
            for x0, per_hop in ((X0 + tau / 2, True), (X0, False)):
                got = lame_coefficients(ell, re, x0, ev)[:2]
                for g, want in zip(got, _reference_lame_coefficients(ell, re, x0, ev)):
                    scale = np.abs(want) if per_hop else np.abs(want).max()
                    assert (np.abs(g - want) <= 1e-13 * scale).all(), (ell, x0)


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

    @pytest.mark.parametrize("im_x0", [
        pytest.param(0.0, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: the eigvals route has no resolution bound; on the real-line orbit "
            "the simple edges near +-1.99613 (2.5e-7 apart) turn into a complex pair under "
            "1e-13 noise, and 7 bands are counted with no ClusterAmbiguityError"))),
        1.0,  # Im tau/2: the real symmetric gauge holds the count
    ])
    def test_count_survives_rounding_noise(self, im_x0):
        # the operator has 2l + 1 = 5 bands at l = 2; relative noise of 1e-13
        # in the hops must give 5 bands or an ambiguity error
        re = RationalEta(1, 101)
        ev = ThetaEvaluator(EllipticParams(tau=2j, eta=1 / 101, tol=1e-12))
        a, c, _ = lame_coefficients(2, re, X0 + 1j * im_x0, ev)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a_n = a * (1 + 1e-13 * rng.standard_normal(re.Q))
            c_n = c * (1 + 1e-13 * rng.standard_normal(re.Q))
            try:
                bands = band_intervals(numeric_band_edges_from_coefficients(a_n, c_n).spectra)
            except ClusterAmbiguityError:
                continue
            assert len(bands) == 5


GAUGE_ETAS = [(1, 31), (2, 31), (1, 41), (1, 60), (7, 60), (1, 61), (3, 61), (1, 101), (2, 101)]


class TestSymmetricGauge:
    """On the line Im x0 = Im tau/2 with Re tau = 0 every a_n c_{n+1} is real
    and positive, so the edge spectra come from one real-symmetric solve
    (two at even Q); everything else takes the general complex route."""

    @pytest.mark.parametrize("tau", [0.8j, 1.2j, 2j])
    @pytest.mark.parametrize("P,Q", GAUGE_ETAS)
    def test_matches_reference_and_sign(self, tau, P, Q):
        re = RationalEta(P, Q)
        ev = ThetaEvaluator(EllipticParams(tau=tau, eta=P / Q, tol=1e-12))
        for ell in range(1, 9):
            a, c, _ = lame_coefficients(ell, re, X0 + tau / 2, ev)
            gauge = bloch._symmetric_gauge(a, c)
            assert gauge is not None
            assert gauge[1] == (-1) ** (ell * P)
            _assert_spectra_match(numeric_band_edges_from_coefficients(a, c).spectra,
                                  _reference_spectra(a, c))

    def test_gauge_route_makes_no_general_solve(self, monkeypatch, ev31, re31):
        def refuse(_):
            raise AssertionError("general eigen-solve on the symmetric route")

        x0 = X0 + ev31.tau / 2
        ks = np.linspace(0, re31.brillouin_width(), 5)
        a, c, _ = lame_coefficients(2, re31, x0, ev31)
        want = _reference_spectra(a, c)
        want_sweep = []
        for k in ks:
            eigs = np.linalg.eigvals(periodic_matrix(a, c, np.exp(1j * k * re31.eta * re31.Q)))
            want_sweep.append(eigs[np.lexsort((eigs.imag, eigs.real))])
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        _assert_spectra_match(numeric_band_edges(2, re31, x0, ev31).spectra, want)
        _assert_spectra_match(band_sweep(2, re31, x0, ks, ev31), np.array(want_sweep))

    # "positive": every a_n c_{n+1} > 0, but |prod a_n| != |prod c_n|, so sigma^2 != 1
    @pytest.mark.parametrize("kind", ["complex", "positive"])
    @pytest.mark.parametrize("Q", [5, 31, 61])
    def test_odd_q_reflection_on_general_route(self, Q, kind):
        rng = np.random.default_rng(Q)
        if kind == "complex":
            a = rng.standard_normal(Q) + 1j * rng.standard_normal(Q)
            c = rng.standard_normal(Q) + 1j * rng.standard_normal(Q)
        else:  # complex hops, so that no eigenvalues come in conjugate pairs
            theta_n = rng.uniform(0, 2 * np.pi, Q)
            a = rng.uniform(0.5, 2.0, Q) * np.exp(1j * theta_n)
            c = np.roll(rng.uniform(0.5, 2.0, Q) * np.exp(-1j * theta_n), 1)
        assert bloch._symmetric_gauge(a, c) is None
        spectra = numeric_band_edges_from_coefficients(a, c).spectra
        _assert_spectra_match(spectra, _reference_spectra(a, c))
        np.testing.assert_array_equal(np.sort_complex(-spectra[0]), spectra[1])

    def test_rejected_for_flow_samples(self, ev31, re31):
        configs = [PoleConfig(xs=(0.21 + 0.05j,))]
        configs += [find_locus_config(ell, ev31, np.random.default_rng(0)) for ell in (1, 2, 3)]
        for cfg in configs:
            c = coefficient_samples(lambda x: c_from_poles(cfg, x, ev31), re31, X0)
            a = np.ones(re31.Q, dtype=complex)
            assert bloch._symmetric_gauge(a, c) is None
            _assert_spectra_match(numeric_band_edges_from_coefficients(a, c).spectra,
                                  _reference_spectra(a, c))

    def test_rejected_off_the_imaginary_tau_axis(self, re31):
        tau = 0.3 + 1.4j
        ev = ThetaEvaluator(EllipticParams(tau=tau, eta=1 / 31, tol=1e-12))
        a, c, _ = lame_coefficients(1, re31, X0 + tau / 2, ev)
        assert bloch._symmetric_gauge(a, c) is None
        spectra = numeric_band_edges_from_coefficients(a, c).spectra
        _assert_spectra_match(spectra, _reference_spectra(a, c))
        with pytest.raises(ClusterAmbiguityError, match="not numerically real"):
            band_intervals(spectra)

    def test_rejected_for_slightly_complex_products(self, ev31, re31):
        # c, not a: a common phase on every a_n would also move sigma off +-1
        a, c, _ = lame_coefficients(1, re31, X0 + ev31.tau / 2, ev31)
        c = c * (1 + 1e-6j)
        assert bloch._symmetric_gauge(a, c) is None
        _assert_spectra_match(numeric_band_edges_from_coefficients(a, c).spectra,
                              _reference_spectra(a, c))


def _reference_edge_candidates(a_vals, c_vals):
    """The general (eigvals) route of ``numeric_band_edges_from_coefficients``
    as it was written before its array passes were cut: fancy-indexed
    matrix, a tie grouping and lexsort on every spectrum, and run ids from a
    ones column.  Returns (values, confident, spectra)."""
    Q = len(a_vals)

    def solve(phase):
        M = np.zeros((Q, Q), dtype=complex)
        n = np.arange(Q - 1)
        M[n, n + 1] = a_vals[:-1]
        M[n + 1, n] = c_vals[1:]
        M[Q - 1, 0] += a_vals[Q - 1] * phase
        M[0, Q - 1] += c_vals[0] * (1.0 / phase)
        eigs = np.sort_complex(np.linalg.eigvals(M))
        tol = 64 * np.finfo(float).eps * np.abs(eigs).max(initial=0.0)
        group = np.concatenate(([0], np.cumsum(np.diff(eigs.real) > tol)))
        return eigs[np.lexsort((eigs.imag, group))]

    plus = solve(1.0)
    spectra = np.array([plus, -plus[::-1] if Q % 2 else solve(-1.0)])
    d = np.diff(spectra, axis=1)
    split = np.hypot(d.real, d.imag) > bloch.CLUSTER_TOL * np.abs(spectra).max(axis=1, keepdims=True)
    run = np.cumsum(np.concatenate((np.ones((2, 1), bool), split), axis=1)) - 1
    size = np.bincount(run)
    values = (np.bincount(run, spectra.real.ravel()) + 1j * np.bincount(run, spectra.imag.ravel())) / size
    keep = size != 2
    values, confident = values[keep], size[keep] == 1
    order = np.lexsort((values.imag, values.real))
    return values[order], confident[order], spectra


class TestGeneralRouteMatchesReference:
    """The general route's candidates equal the reference's exactly: the same
    spectra in the same order, the same clusters, centers and flags."""

    @staticmethod
    def _assert_same(a, c):
        assert bloch._symmetric_gauge(a, c) is None
        got = numeric_band_edges_from_coefficients(a, c)
        values, confident, spectra = _reference_edge_candidates(a, c)
        assert np.array_equal(got.spectra, spectra)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.confident, confident)
        return got

    @pytest.mark.parametrize("Q", [1, 2, 5, 6, 30, 31, 41])
    def test_random_complex_hops(self, Q):
        rng = np.random.default_rng(Q)
        for _ in range(5):
            a = rng.standard_normal(Q) + 1j * rng.standard_normal(Q)
            c = rng.standard_normal(Q) + 1j * rng.standard_normal(Q)
            self._assert_same(a, c)

    @pytest.mark.parametrize("Q", [7, 30, 31, 41])
    def test_conjugate_pairs_whose_real_parts_tie(self, Q):
        # real hops with some c_n < 0: a real matrix, whose complex
        # eigenvalues come in pairs with real parts equal only to rounding
        rng = np.random.default_rng(100 + Q)
        ties = 0
        for _ in range(5):
            a = rng.uniform(0.5, 1.5, Q).astype(complex)
            c = (rng.uniform(0.5, 1.5, Q) * np.where(rng.random(Q) < 0.5, -1, 1)).astype(complex)
            got = self._assert_same(a, c)
            row = got.spectra[0]
            ties += int((np.abs(np.diff(row.real)) <= 1e-12 * np.abs(row).max()).sum())
        assert ties > 0

    @pytest.mark.parametrize("Q", [4, 5, 6, 31])
    def test_closed_gaps_and_larger_clusters(self, Q):
        # decoupled dimers: every eigenvalue is a double or a triple at one
        # phase or the other
        a, c = _dimers(Q)
        self._assert_same(a, c)
        rng = np.random.default_rng(Q)
        self._assert_same(a * (1 + 1e-3j), c * rng.uniform(0.9, 1.1, Q))

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_flow_samples_with_closed_gaps(self, ev31, re31, ell):
        cfg = find_locus_config(ell, ev31, np.random.default_rng(0))
        c = coefficient_samples(lambda x: c_from_poles(cfg, x, ev31), re31, X0)
        got = self._assert_same(np.ones(re31.Q, dtype=complex), c)
        # the samples of a finite-gap coefficient close most gaps: doubles
        # are dropped, so fewer candidates than eigenvalues remain
        assert len(got.values) < 2 * re31.Q


class TestConjugatePairOrder:
    """On the general (``eigvals``) route the two members of a complex-conjugate
    pair have real parts equal only to rounding; they sort by Im whichever
    of the two comes out a few ulps larger."""

    def test_relabelled_sites_sort_alike(self):
        # real hops with some c_n < 0: the gauge does not apply and the
        # spectrum holds conjugate pairs.  A cyclic relabelling of the sites
        # is a similar matrix, whose solve splits the pairs' real parts in
        # other last bits; by (Re, Im) alone the sorted spectra would differ
        # elementwise by twice a pair's imaginary part
        rng = np.random.default_rng(1)
        a = rng.uniform(0.5, 1.5, 7).astype(complex)
        c = (rng.uniform(0.5, 1.5, 7) * np.where(rng.random(7) < 0.5, -1, 1)).astype(complex)
        assert bloch._symmetric_gauge(a, c) is None
        want = numeric_band_edges_from_coefficients(a, c).spectra
        assert np.abs(want.imag).max() > 0.1
        for shift in range(1, 7):
            got = numeric_band_edges_from_coefficients(np.roll(a, shift), np.roll(c, shift)).spectra
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # each tied pair in order of Im
            tied = np.abs(np.diff(got.real, axis=1)) <= 1e-12
            assert (np.diff(got.imag, axis=1)[tied] > 0).all()

    def test_flow_count_holds_across_conjugate_ties(self):
        # ROADMAP item 3: find_locus_config(3, ev, default_rng(2)) at eta =
        # 5/29, tau = 1.2i (poles to 17 digits).  At the start the spectrum
        # holds two conjugate doubles near 1.5533 +- 0.4916i; a clustering
        # that re-sorts by exact (Re, Im) interleaves their members and
        # counts four confident edges there (18 at the start, 10 at the end)
        ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=5 / 29, tol=1e-12))
        re = RationalEta(5, 29)
        cfg = PoleConfig(xs=(0.75215097731079095 + 0.43712095281184005j,
                             -0.17399257757275891 - 0.27657665363543027j,
                             0.25215097731079167 - 0.16287904718816032j,
                             -0.3281583997380319 + 0.13945570082359002j,
                             0.17184160026196912 - 0.46054429917640866j,
                             -0.67399257757276099 + 0.32342334636456915j))
        traj = integrate_flow(cfg, 0.2, 0.01, ev).trajectory
        ones = np.ones(re.Q, dtype=complex)
        counts = []
        for pc in (traj[0], traj[-1]):
            c = coefficient_samples(lambda x: c_from_poles(pc, x, ev), re, X0)
            counts.append(len(numeric_band_edges_from_coefficients(ones, c).confident_values()))
        assert counts[0] == counts[1]


def _dimers(Q):
    """Decoupled dimers: a_n = 1 on even n and 0 on odd n, c = roll(a, 1)."""
    a = (np.arange(Q) % 2 == 0).astype(complex)
    return a, np.roll(a, 1)


class TestClusterAndMergeRules:
    """A cluster is a run of steps within CLUSTER_TOL * max|E| along a sorted
    spectrum: size 1 is a confident edge, size 2 a closed gap (dropped),
    larger ones are kept but not confident.  Bands merge overlapping spans."""

    def test_doubles_dropped(self):
        # two dimers, each at +-1 at either phase
        assert len(numeric_band_edges_from_coefficients(*_dimers(4)).values) == 0

    def test_triples_kept_not_confident(self):
        cand = numeric_band_edges_from_coefficients(*_dimers(6))
        assert len(cand.values) == 4
        assert not cand.confident.any()
        np.testing.assert_allclose(cand.values, [-1, -1, 1, 1], atol=1e-12)

    def test_simple_eigenvalues_confident(self):
        # at odd Q the wrap joins the chain, and every eigenvalue is simple
        cand = numeric_band_edges_from_coefficients(*_dimers(5))
        assert len(cand.values) == 10
        assert cand.confident.all()

    def test_nested_span_merges_with_running_max(self):
        # the span [1, 1.5] lies inside [0, 2]; the band that holds both ends
        # at 2, so [3, 4] starts a new one instead of joining at 1.5
        sweep = np.array([[0, 3, 1], [2, 4, 1.5]], complex)
        assert band_intervals(sweep) == [(0, 2), (3, 4)]
