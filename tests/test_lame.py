"""Operator-level tests: kernels, gauges, the residue system, eigenfunctions
and the commuting operator."""

import cmath
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _support import PARAMS_EV, count_E_free_builds, empty_caches, fresh_context_parts, record_point_svds
from lame_spectra import enumbers, lame
from lame_spectra import (
    CurvePoint,
    LameContext,
    apply_L,
    apply_Ltilde,
    apply_W,
    build_psi,
    build_Psi,
    gauge_factor,
    phi,
    residual,
    scaled_residual,
    solve_bloch_coeffs,
    w_eigenvalue,
    weierstrass_p,
)
from lame_spectra.curve import band_edges, edge_curve_points, random_curve_points, solve_curve_point
from lame_spectra.enumbers import ebinom
from lame_spectra.errors import ConsistencyError, PoleProximityError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta
from lame_spectra.util import halton



# -- reference route: the scalar loops the batched code replaced --------------

def _t1(x, ev):
    return theta(1, x, ev)


def _guarded_t1(x, ev):
    val = theta(1, x, ev)
    if abs(val) < ev.zero_threshold:
        raise PoleProximityError(f"theta1({x}) within tol of zero")
    return val


def _reference_build_M(pt, ctx):
    ev = ctx.ev
    l = ctx.ell
    eta = ev.eta
    t1z = _guarded_t1(pt.zeta, ev)
    t1e = _guarded_t1(eta, ev)
    Kinv = 1.0 / pt.K
    M = np.zeros((l + 1, l), dtype=complex)
    mag = np.zeros((l + 1, l))
    for j in range(1, l + 1):
        M[j - 1, j - 1] += pt.K
        mag[j - 1, j - 1] += abs(pt.K)
        M[j, j - 1] += -pt.E
        mag[j, j - 1] += abs(pt.E)
        if j + 1 <= l:
            num = _t1((j + l + 1) * eta, ev) * _t1((j - l) * eta, ev)
            den = _guarded_t1((j + 1) * eta, ev) * _guarded_t1(j * eta, ev)
            M[j + 1, j - 1] += Kinv * num / den
            mag[j + 1, j - 1] += abs(Kinv * num / den)
        for i in (0, 1):
            sgn = 1.0 if i == 0 else -1.0
            num = _t1(pt.zeta - (j - i + 1) * eta, ev) * _t1((i + l) * eta, ev) * _t1((i - l - 1) * eta, ev)
            den = t1z * t1e * _guarded_t1((j - i + 1) * eta, ev)
            M[i, j - 1] += sgn * Kinv * num / den
            mag[i, j - 1] += abs(Kinv * num / den)
    return M, mag


def _reference_minors(M, mag):
    """(det M0, det M1) and their scaled values, one ``np.delete`` copy and
    one ``det`` per minor."""
    def hadamard(m):
        return float(np.prod(np.maximum(np.linalg.norm(m, axis=1), 1e-300)))

    dets = [complex(np.linalg.det(np.delete(M, r, axis=0))) for r in (0, 1)]
    scaled = [abs(np.linalg.det(np.delete(M, r, axis=0))) / hadamard(np.delete(mag, r, axis=0))
              for r in (0, 1)]
    return tuple(dets), tuple(scaled)


def _reference_build_Psi(pt, coeffs, x, ctx):
    ev = ctx.ev
    t1z = _guarded_t1(pt.zeta, ev)
    out = 0j
    for m in range(1, ctx.ell + 1):
        prod = 1 + 0j
        for k in range(1, ctx.ell + 1):
            if k != m:
                prod *= _t1(x - k * ev.eta, ev)
        out += coeffs.s[m - 1] * (_t1(pt.zeta + x - m * ev.eta, ev) / t1z) * prod
    return cmath.exp(pt.log_K * x / ev.eta) * out


def _reference_apply_W(Psi, x, ctx):
    ev = ctx.ev
    l = ctx.ell
    eta = ev.eta
    pref = 1 + 0j
    for j in range(0, 2 * l + 1):
        pref *= _t1(x + (j - l) * eta, ev)
    out = 0j
    for k in range(0, 2 * l + 2):
        den = 1 + 0j
        for j in range(0, 2 * l - k + 2):
            den *= _guarded_t1(x + j * eta, ev)
        for jp in range(1, k + 1):
            den *= _guarded_t1(x - jp * eta, ev)
        shift = (2 * l - 2 * k + 1) * eta
        term = (-1) ** k * ebinom(2 * l + 1, k, ev) * _t1(x + shift, ev) / den
        out += term * Psi(x + shift)
    return pref * out


def _reference_sample_points(ctx, n, avoid_margin=1e-3):
    ev = ctx.ev
    l = ctx.ell
    shifts = [j * ev.eta for j in range(-(2 * l + 2), 2 * l + 3)]

    def close(x):
        k = round(x.imag / ev.tau.imag)
        r = x - k * ev.tau
        return math.hypot(r.real - round(r.real), r.imag) < avoid_margin

    pts = []
    re, im = halton(200, 2), halton(200, 3)
    for i in range(200):
        x = complex(0.05 + 0.9 * re[i], 0.02 + 0.25 * im[i])
        if not any(close(x + s) for s in shifts):
            pts.append(x)
        if len(pts) == n:
            break
    return pts


GRID_ELLS = (1, 2, 3, 4)
GRID_TAUS = (1.2j, 0.3 + 1.4j)
GRID_ETAS = (1 / 31, 0.17, 0.23 + 0.04j)
grid = pytest.mark.parametrize(
    "ell,tau,eta",
    [(l, t, e) for l in GRID_ELLS for t in GRID_TAUS for e in GRID_ETAS],
)


@functools.cache
def _grid_point(ell, tau, eta):
    """(ctx, on-curve point, its Bloch coefficients) for one grid case."""
    ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
    (pt,) = random_curve_points(ctx, 1, np.random.default_rng(5))
    return ctx, pt, solve_bloch_coeffs(pt, ctx)


class TestPhi:
    def test_periodic_in_one(self, ev):
        x, z = 0.23 + 0.11j, 0.41 + 0.05j
        assert phi(x + 1, z, ev) == pytest.approx(phi(x, z, ev), rel=1e-11)

    def test_tau_multiplier(self, ev):
        x, z = 0.23 + 0.11j, 0.41 + 0.05j
        want = cmath.exp(-2j * math.pi * z) * phi(x, z, ev)
        assert phi(x + ev.tau, z, ev) == pytest.approx(want, rel=1e-10)

    def test_residue_at_origin(self, ev):
        # x * phi(x, z) -> 1/theta1'(0) along a ray x = t e^(i pi/5)
        z = 0.41 + 0.05j
        want = 1 / ev.theta1_prime0
        direction = cmath.exp(1j * math.pi / 5)
        vals = [t * direction * phi(t * direction, z, ev) for t in (1e-3, 1e-4)]
        errs = [abs(v - want) for v in vals]
        assert errs[1] < errs[0] < 2e-3 * abs(want)
        assert errs[1] < 2e-4 * abs(want)


class TestOperators:
    def test_free_case_exponential(self, ev):
        ctx0 = LameContext(ell=0, ev=ev)
        K = 1.7 - 0.4j
        psi = lambda x: cmath.exp(cmath.log(K) * x / ev.eta)
        x = 0.37 + 0.21j
        got = apply_L(psi, x, ctx0)
        assert got == pytest.approx((K + 1 / K) * psi(x), rel=1e-11)

    def test_gauge_consistency(self, ctx2):
        ev = ctx2.ev
        Psi = lambda x: cmath.exp(2j * math.pi * x) + 0.3 * cmath.exp(-2j * math.pi * x)
        psi = lambda x: Psi(x) / gauge_factor(x, ctx2)
        rng = np.random.default_rng(5)
        for _ in range(6):
            x = complex(rng.uniform(0.05, 0.9), rng.uniform(0.02, 0.3))
            lhs = apply_Ltilde(psi, x, ctx2) * gauge_factor(x, ctx2)
            rhs = apply_L(Psi, x, ctx2)
            assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)

    def test_coefficient_zero_shortcircuits_backstep(self, ctx1):
        # at x = -eta the backward coefficient vanishes, so only psi(x+eta) remains
        ev = ctx1.ev
        psi = lambda x: cmath.exp(1.3 * x)
        got = apply_Ltilde(psi, -ev.eta, ctx1)
        assert got == pytest.approx(psi(0.0), rel=1e-10)

    def test_continuum_limit_is_lame_operator(self):
        # conjugating by the half-period shift gives a smooth potential on
        # the real axis: [2 - Lt(. + tau/2)]/eta^2 acting on e^(2 pi i x)
        # approaches -u'' + l(l+1) P(x + tau/2) u + c0 u with an O(eta) defect
        tau = 1.1j
        ell = 2
        errs = []
        for eta in (1e-2, 1e-3):
            ev = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-14))
            ctx = LameContext(ell=ell, ev=ev)
            u = lambda x: cmath.exp(2j * math.pi * x)
            shifted_u = lambda z: u(z - tau / 2)
            xs = [0.05 + 0.9 * t for t in np.linspace(0, 1, 25)]
            lhs = np.array(
                [(2 * u(x) - apply_Ltilde(shifted_u, x + tau / 2, ctx)) / eta**2 for x in xs]
            )
            targ = np.array(
                [
                    (4 * math.pi**2) * u(x) + ell * (ell + 1) * weierstrass_p(x + tau / 2, ev) * u(x)
                    for x in xs
                ]
            )
            uvals = np.array([u(x) for x in xs])
            c0 = np.linalg.lstsq(uvals[:, None], lhs - targ, rcond=None)[0][0]
            errs.append(np.abs(lhs - targ - c0 * uvals).max())
        assert 5 < errs[0] / errs[1] < 20


class TestResidueMatrix:
    def test_shape(self, ctx2):
        pt = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        assert lame._build_M_with_magnitudes(pt, ctx2)[0].shape == (3, 2)

    def test_banded_below_row_two(self, ev):
        ctx4 = LameContext(ell=4, ev=ev)
        pt = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        M = lame._build_M_with_magnitudes(pt, ctx4)[0]
        for i in range(2, 5):
            for j in range(1, 5):
                if abs(i - j) > 1:
                    assert M[i, j - 1] == 0

    def test_last_row_has_no_forward_hop(self, ev):
        # row i = l only holds -E and the K^-1 entry; scaling K leaves
        # K * row constant
        ctx3 = LameContext(ell=3, ev=ev)
        pt1 = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        pt2 = CurvePoint(zeta=0.3 + 0.1j, K=2 * (1.2 + 0.4j), E=0.7 - 0.2j)
        M1, M2 = (lame._build_M_with_magnitudes(p, ctx3)[0] for p in (pt1, pt2))
        row1 = M1[3] + np.array([0, 0, pt1.E])
        row2 = M2[3] + np.array([0, 0, pt2.E])
        np.testing.assert_allclose(row1 * pt1.K, row2 * pt2.K, rtol=1e-12)

    def test_l1_dets_match_scalar_equations(self, ctx1):
        # det M0 = -[2] S1 / theta1(zeta), det M1 = -K S2 / theta1(zeta)
        # with S1, S2 the two curve sums
        from lame_spectra.curve import curve_equations
        from lame_spectra.enumbers import ebracket

        ev = ctx1.ev
        rng = np.random.default_rng(17)
        for _ in range(10):
            pt = CurvePoint(
                zeta=complex(rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.3)),
                K=complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)),
                E=complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
            )
            d0, d1 = residual(pt, ctx1)
            s1, s2 = curve_equations(pt, ctx1)
            tz = theta(1, pt.zeta, ev)
            assert d0 == pytest.approx(-ebracket(2, ev) * s1 / tz, rel=1e-10)
            assert d1 == pytest.approx(-pt.K * s2 / tz, rel=1e-10)

    def test_residual_vanishes_at_solved_points(self, curve_points):
        for ell, pts in curve_points.items():
            for pt in pts:
                r0, r1 = scaled_residual(pt, LameContext(ell=ell, ev=PARAMS_EV))
                assert max(r0, r1) < 1e-9

    def test_symmetry_maps_preserve_vanishing(self, curve_points, ctx2):
        ev = ctx2.ev
        for pt in curve_points[2]:
            mapped = [
                CurvePoint(pt.zeta + ev.tau, pt.K * cmath.exp(2j * math.pi * ev.eta), pt.E),
                CurvePoint(pt.zeta, -pt.K, -pt.E),
                CurvePoint(2 * ctx2.N * ev.eta - pt.zeta, 1 / pt.K, pt.E),
            ]
            for m in mapped:
                assert max(scaled_residual(m, ctx2)) < 1e-8

    def test_offcurve_residual_is_large(self, ctx2):
        pt = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        assert max(scaled_residual(pt, ctx2)) > 1e-4


class TestBlochCoeffs:
    def test_l1_trivial(self, curve_points, ctx1):
        c = solve_bloch_coeffs(curve_points[1][0], ctx1)
        assert c.s.tolist() == [1 + 0j]

    def test_nullvector_quality(self, curve_points):
        for ell in (2, 3):
            ctx = LameContext(ell=ell, ev=PARAMS_EV)
            for pt in curve_points[ell]:
                c = solve_bloch_coeffs(pt, ctx)
                M = lame._build_M_with_magnitudes(pt, ctx)[0]
                assert np.linalg.norm(M @ c.s) < 1e-8 * np.linalg.norm(M)

    def test_null_space_is_one_dimensional(self, curve_points):
        for ell in (2, 3):
            ctx = LameContext(ell=ell, ev=PARAMS_EV)
            for pt in curve_points[ell]:
                c = solve_bloch_coeffs(pt, ctx)
                assert c.second_sv > 1e-3

    def test_off_curve_raises(self, ctx2):
        pt = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        with pytest.raises(ConsistencyError, match=r"^no null space: row-scaled sigma_min \S+ > 1e-06$"):
            solve_bloch_coeffs(pt, ctx2)

    @pytest.mark.parametrize("ell", [1, 2, 3, 6])
    def test_same_vector_as_newton_at_an_unstepped_seed(self, ev, monkeypatch, ell):
        # an edge point is on the curve to rounding, so Newton accepts it as
        # its seed without a step: its s is the seed's singular vector, and
        # solve_bloch_coeffs reads the same SVD, so its s is that vector
        # normalised, with no second SVD
        ctx = LameContext(ell=ell, ev=ev)
        pts = edge_curve_points(ctx)[:4]
        empty_caches()
        seen = record_point_svds(monkeypatch)
        for pt in pts:
            seen.clear()
            assert solve_curve_point({"E": pt.E}, pt, ctx) == pt
            (s_newton,) = seen
            s = solve_bloch_coeffs(pt, ctx).s
            assert len(seen) == 1
            assert np.array_equal(s, s_newton / s_newton[np.argmax(np.abs(s_newton))])
            assert abs(np.vdot(s_newton, s)) == pytest.approx(np.linalg.norm(s), rel=1e-14)


class TestEigenfunctions:
    def test_double_bloch_multiplier(self, curve_points, ctx2):
        for pt in curve_points[2]:
            c = solve_bloch_coeffs(pt, ctx2)
            x = 0.29 + 0.13j
            lhs = build_psi(pt, c, x + 1, ctx2)
            rhs = pt.B1(ctx2.ev) * build_psi(pt, c, x, ctx2)
            assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_entire_function_symmetry(self, curve_points):
        # Psi(j eta) = Psi(-j eta) for j = 1..l
        for ell, pts in curve_points.items():
            ctx = LameContext(ell=ell, ev=PARAMS_EV)
            for pt in pts:
                c = solve_bloch_coeffs(pt, ctx)
                scale = abs(build_Psi(pt, c, 0.3, ctx)) + 1
                for j in range(1, ell + 1):
                    d = build_Psi(pt, c, j * ctx.ev.eta, ctx) - build_Psi(pt, c, -j * ctx.ev.eta, ctx)
                    assert abs(d) < 1e-9 * scale

    def test_eigen_residual_on_grid(self, curve_points):
        rng = np.random.default_rng(23)
        for ell, pts in curve_points.items():
            ctx = LameContext(ell=ell, ev=PARAMS_EV)
            pt = pts[0]
            c = solve_bloch_coeffs(pt, ctx)
            psi = lambda x: build_psi(pt, c, x, ctx)
            for _ in range(10):
                x = complex(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.3))
                lhs = apply_Ltilde(psi, x, ctx)
                rhs = pt.E * psi(x)
                scale = abs(rhs) + abs(psi(x + ctx.ev.eta)) + 1
                assert abs(lhs - rhs) < 1e-9 * scale

    def test_psi_times_gauge_is_entire_form(self, curve_points, ctx2):
        pt = curve_points[2][0]
        c = solve_bloch_coeffs(pt, ctx2)
        x = 0.37 + 0.19j
        lhs = build_psi(pt, c, x, ctx2) * gauge_factor(x, ctx2)
        assert lhs == pytest.approx(build_Psi(pt, c, x, ctx2), rel=1e-10)

    def test_entirety_across_pole(self, curve_points, ctx2):
        # continuity of Psi across x = eta where psi itself has a pole
        pt = curve_points[2][0]
        c = solve_bloch_coeffs(pt, ctx2)
        eps = 1e-4
        left = build_Psi(pt, c, ctx2.ev.eta - eps, ctx2)
        mid = build_Psi(pt, c, ctx2.ev.eta, ctx2)
        right = build_Psi(pt, c, ctx2.ev.eta + eps, ctx2)
        assert abs(left - mid) < 1e-3 * max(abs(mid), 1)
        assert abs(left + right - 2 * mid) < 1e-6 * max(abs(mid), 1)


class TestCommutingOperator:
    def test_ratio_spread_small(self, curve_points, ctx1):
        pt = curve_points[1][0]
        c = solve_bloch_coeffs(pt, ctx1)
        w = w_eigenvalue(pt, c, ctx1)
        assert w != 0

    def test_hyperelliptic_involution_flips_w(self, curve_points, ctx1):
        ev = ctx1.ev
        for pt in curve_points[1][:2]:
            c = solve_bloch_coeffs(pt, ctx1)
            w = w_eigenvalue(pt, c, ctx1)
            spt = CurvePoint(2 * ctx1.N * ev.eta - pt.zeta, 1 / pt.K, pt.E)
            sc = solve_bloch_coeffs(spt, ctx1)
            sw = w_eigenvalue(spt, sc, ctx1)
            assert abs(w + sw) < 1e-7 * max(abs(w), 1.0)

    def test_hyperelliptic_relation(self, curve_points, ctx1):
        edges = band_edges(1, ctx1.ev).union()
        for pt in curve_points[1]:
            c = solve_bloch_coeffs(pt, ctx1)
            w = w_eigenvalue(pt, c, ctx1)
            want = np.prod([pt.E**2 - e**2 for e in edges])
            assert abs(w**2 - want) < 1e-6 * abs(want)

    def test_hyperelliptic_relation_l2(self, curve_points, ctx2):
        edges = band_edges(2, ctx2.ev).union()
        pt = curve_points[2][0]
        c = solve_bloch_coeffs(pt, ctx2)
        w = w_eigenvalue(pt, c, ctx2)
        want = np.prod([pt.E**2 - e**2 for e in edges])
        assert abs(w**2 - want) < 1e-6 * abs(want)

    def test_w_vanishes_at_edges(self, edge_points, ctx1):
        edges = band_edges(1, ctx1.ev).union()
        scale = max(abs(np.prod([e**2 - f**2 for f in edges if f != e])) for e in edges)
        for pt in edge_points[:3]:
            c = solve_bloch_coeffs(pt, ctx1)
            ratios = []
            for x in (0.21 + 0.13j, 0.43 + 0.09j, 0.57 + 0.18j):
                ratios.append(
                    apply_W(lambda y: build_Psi(pt, c, y, ctx1), x, ctx1)
                    / build_Psi(pt, c, x, ctx1)
                )
            w = np.mean(ratios)
            assert abs(w) < 1e-6 * math.sqrt(scale)


class TestBatchedMatchesReference:
    @grid
    def test_build_Psi(self, ell, tau, eta):
        ctx, pt, c = _grid_point(ell, tau, eta)
        # x = eta and 2 eta hit zeros of the masked factors
        xs = np.concatenate([lame._sample_points(ctx, 10), [eta, 2 * eta]])
        got = build_Psi(pt, c, xs, ctx)
        want = np.array([_reference_build_Psi(pt, c, x, ctx) for x in xs])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        assert build_Psi(pt, c, complex(xs[0]), ctx) == pytest.approx(want[0], rel=1e-10)

    @grid
    def test_apply_W_and_w(self, ell, tau, eta):
        # on the scale w_eigenvalue certifies its spread on, max(|w|, 1):
        # near a band edge |w| is tiny and W Psi cancels to that scale
        ctx, pt, c = _grid_point(ell, tau, eta)
        xs = lame._sample_points(ctx, 10)
        got = apply_W(lambda y: build_Psi(pt, c, y, ctx), xs, ctx) / build_Psi(pt, c, xs, ctx)
        want = np.array([
            _reference_apply_W(lambda y: _reference_build_Psi(pt, c, y, ctx), x, ctx)
            / _reference_build_Psi(pt, c, x, ctx)
            for x in xs
        ])
        w = w_eigenvalue(pt, c, ctx)
        scale = max(abs(w), 1.0)
        assert np.max(np.abs(got - want)) < 1e-9 * scale
        assert abs(w - want.mean()) < 1e-9 * scale

    @pytest.mark.parametrize(
        "ell,tau,eta",
        [(l, t, e) for l in range(1, 9) for t in GRID_TAUS for e in GRID_ETAS],
    )
    def test_build_M_and_magnitudes(self, ell, tau, eta):
        ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        rng = np.random.default_rng(ell)
        for _ in range(3):
            pt = CurvePoint(
                zeta=complex(rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.3)),
                K=complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)),
                E=complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
            )
            M, mag = lame._build_M_with_magnitudes(pt, ctx)
            M_ref, mag_ref = _reference_build_M(pt, ctx)
            np.testing.assert_array_equal(M == 0, M_ref == 0)
            np.testing.assert_allclose(M, M_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(mag, mag_ref, rtol=1e-12, atol=0)
            # both minors of one matrix, bit for bit the one-copy-per-minor route
            dets, scaled = _reference_minors(M, mag)
            assert residual(pt, ctx) == dets
            assert scaled_residual(pt, ctx) == scaled

    def test_w_near_band_edge(self):
        # |w| = 2.9e-6: the W sum cancels to the scale of its terms, and the
        # spread check is absolute below |w| = 1; the one-table route still
        # agrees with the scalar reference on that scale
        ctx = LameContext(ell=4, ev=ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 31)))
        (pt,) = random_curve_points(ctx, 1, np.random.default_rng(6))
        c = solve_bloch_coeffs(pt, ctx)
        w = w_eigenvalue(pt, c, ctx)
        assert 1e-6 < abs(w) < 1e-5
        want = np.mean([
            _reference_apply_W(lambda y: _reference_build_Psi(pt, c, y, ctx), x, ctx)
            / _reference_build_Psi(pt, c, x, ctx)
            for x in _reference_sample_points(ctx, 10)
        ])
        assert abs(w - want) < 1e-8 * max(abs(w), 1.0)

    def test_pole_proximity_raises_on_both_routes(self, curve_points, ctx2):
        pt = curve_points[2][0]
        c = solve_bloch_coeffs(pt, ctx2)
        on_zero = CurvePoint(zeta=0.0, K=pt.K, E=pt.E)
        Psi = lambda y: build_Psi(pt, c, y, ctx2)
        x_hit = 1 + 2 * ctx2.ev.eta  # x - 2 eta is a theta1 zero
        for run in (
            lambda: lame._build_M_with_magnitudes(on_zero, ctx2),
            lambda: _reference_build_M(on_zero, ctx2),
            lambda: build_Psi(on_zero, c, 0.3, ctx2),
            lambda: _reference_build_Psi(on_zero, c, 0.3, ctx2),
            lambda: w_eigenvalue(on_zero, c, ctx2),
            lambda: apply_W(Psi, x_hit, ctx2),
            lambda: _reference_apply_W(Psi, x_hit, ctx2),
            lambda: apply_W(Psi, np.array([0.3, x_hit]), ctx2),
        ):
            with pytest.raises(PoleProximityError):
                run()

    @pytest.mark.parametrize("ell", GRID_ELLS)
    @pytest.mark.parametrize("tau", GRID_TAUS)
    def test_sample_points_unchanged(self, ell, tau):
        for eta in GRID_ETAS:
            ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
            got = [complex(x) for x in lame._sample_points(ctx, 20)]
            assert got == _reference_sample_points(ctx, 20)


class TestThetaCallCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(*args, **kwargs):
            seen.append(args)
            return theta(*args, **kwargs)

        monkeypatch.setattr(lame, "theta", counting)
        return seen

    @pytest.mark.parametrize("ell", [1, 4])
    def test_w_eigenvalue_independent_of_samples(self, calls, monkeypatch, ell):
        ctx, pt, c = _grid_point(ell, 1.2j, 0.17)
        parts = fresh_context_parts(monkeypatch)
        for n in (10, 20):
            monkeypatch.setattr(lame, "W_SAMPLES", n)
            # the sample points are part of the bundle: a fresh one per W_SAMPLES
            parts.cache_clear()
            fresh = LameContext(ell=ell, ev=ctx.ev)
            calls.clear()
            w_eigenvalue(pt, c, fresh)
            assert len(calls) == 1
            assert len(parts(fresh).samples) == n

    @pytest.mark.parametrize("ell", [1, 4])
    def test_build_Psi_one_call(self, calls, ell):
        ctx, pt, c = _grid_point(ell, 1.2j, 0.17)
        for x in (0.3 + 0.1j, lame._sample_points(ctx, 10)):
            calls.clear()
            build_Psi(pt, c, x, ctx)
            assert len(calls) == 1

    def test_build_M_one_call_after_first(self, calls):
        # the E-free matrix is cached by (zeta, K, context): a build again at
        # the same (zeta, K), at any E, makes no theta call, one at a new
        # (zeta, K) makes one
        lame._E_free_M.cache_clear()
        ctx = LameContext(ell=4, ev=PARAMS_EV)
        pt = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        lame._build_M_with_magnitudes(pt, ctx)
        assert len(calls) == 1
        for E in (pt.E, pt.E, 0j, -1.5):
            calls.clear()
            lame._build_M_with_magnitudes(CurvePoint(zeta=pt.zeta, K=pt.K, E=E), ctx)
            assert len(calls) == 0
        for zeta, K in ((pt.zeta, 1.3 + 0j), (0.4 + 0j, pt.K)):
            calls.clear()
            lame._build_M_with_magnitudes(CurvePoint(zeta=zeta, K=K, E=pt.E), ctx)
            assert len(calls) == 1

    @pytest.mark.parametrize("ell", [2, 4])
    def test_unstepped_curve_request_builds_once(self, calls, monkeypatch, ell):
        # a curve request whose seed is accepted without a Newton step: the
        # seed's scoring matrix, Newton's first state, the null vector and the
        # scaled residuals share one theta1(zeta - m*eta) call and one E-free
        # build (four of each before the cache)
        ctx = LameContext(ell=ell, ev=PARAMS_EV)
        builds = count_E_free_builds(monkeypatch)
        (pt,) = random_curve_points(ctx, 1, np.random.default_rng(ell))
        c = solve_bloch_coeffs(pt, ctx)
        w_eigenvalue(pt, c, ctx)
        scaled_residual(pt, ctx)
        assert builds == [(pt.zeta, pt.K)]
        # the other call is w_eigenvalue's one table on its sample points
        assert [np.shape(args[1]) for args in calls] == [(ell + 2,), (2 * lame.W_SAMPLES + 1,)]


def _direct_build_M(pt, ctx):
    """The residue matrix and its term magnitudes built at (zeta, K, E) in one
    pass, E included: K P - E D + K^-1 B, plus the rows 0-1 correction."""
    P, D, B, R, n, m_eta = lame._context_parts(ctx).M
    tz = theta(1, pt.zeta - m_eta, ctx.ev)
    hops, corr = B / pt.K, R * tz[n] / (pt.K * tz[0])
    M = pt.K * P - pt.E * D + hops
    M[:2] += corr
    mag = abs(pt.K) * P + abs(pt.E) * D + np.abs(hops)
    mag[:2] += np.abs(corr)
    return M, mag


class TestEFreeCache:
    @pytest.mark.parametrize("ell", [1, 2, 5, 8])
    @pytest.mark.parametrize("tau,eta", [(1.2j, 0.17), (0.3 + 1.4j, 0.11 + 0.05j), (1.2j, 1 / 31)])
    def test_cached_pair_is_read_only_and_a_fresh_build(self, ell, tau, eta):
        # bit for bit, signed zeros included, whether the pair was cached
        # before or not, at E = +-0.0 too
        ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        rng = np.random.default_rng(ell)
        for _ in range(4):
            zeta = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            K = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for E in (complex(rng.uniform(-3, 3), rng.uniform(-1, 1)), 0j, complex(-0.0, 0.0),
                      complex(0.0, -0.0), complex(-0.0, -0.0), complex(1.5, -0.0)):
                pt = CurvePoint(zeta=zeta, K=K, E=E)
                got = lame._build_M_with_magnitudes(pt, ctx)
                want = _direct_build_M(pt, ctx)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()
                    assert g.flags.writeable
            for arr in lame._E_free_M(zeta, K, ctx):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0

    def test_cache_is_bounded(self):
        lame._E_free_M.cache_clear()
        ctx = LameContext(ell=2, ev=PARAMS_EV)
        for k in range(2 * lame._POINTS_MAX):
            lame._build_M_with_magnitudes(CurvePoint(zeta=0.3 + 0.1j, K=1 + 0.01j * k, E=0.5), ctx)
        assert lame._E_free_M.cache_info().currsize == lame._POINTS_MAX


class TestSharedCaches:
    def _contexts(self, count):
        return [LameContext(ell=1, ev=ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.1 + 0.001 * k)))
                for k in range(count)]

    def test_eta_tables_are_bounded(self):
        assert enumbers._eta_tables.cache_info().maxsize == enumbers._ETA_TABLES_MAX
        empty_caches()
        self._contexts(enumbers._ETA_TABLES_MAX + 5)
        info = enumbers._eta_tables.cache_info()
        assert info.maxsize == info.currsize == enumbers._ETA_TABLES_MAX

    def test_context_parts_are_bounded_read_only_and_shared(self, monkeypatch):
        assert lame._context_parts.cache_info().maxsize == lame._CONTEXT_PARTS_MAX
        bundles = fresh_context_parts(monkeypatch)
        contexts = self._contexts(lame._CONTEXT_PARTS_MAX + 5)
        for ctx in contexts:
            parts = bundles(ctx)
            assert not any(a.flags.writeable for a in (*parts.M, parts.w, parts.samples))
            with pytest.raises(AttributeError):
                parts.w = None
            assert parts.samples.tolist() == lame._sample_points(ctx, lame.W_SAMPLES).tolist()
        info = bundles.cache_info()
        assert info.maxsize == info.currsize == lame._CONTEXT_PARTS_MAX
        # a context built again at equal parameters reads the cached bundle
        again = LameContext(ell=1, ev=ThetaEvaluator(contexts[-1].ev.params))
        assert bundles(again) is bundles(contexts[-1])

    def test_point_svd_is_bounded_and_read_only(self):
        assert lame._point_svd.cache_info().maxsize == lame._POINTS_MAX
        empty_caches()
        ctx = LameContext(ell=2, ev=PARAMS_EV)
        for k in range(lame._POINTS_MAX + 5):
            sv, s = lame._point_svd(CurvePoint(zeta=0.3 + 0.1j, K=1 + 0.01j * k, E=0.5), ctx)
            assert not sv.flags.writeable and not s.flags.writeable
        info = lame._point_svd.cache_info()
        assert info.maxsize == info.currsize == lame._POINTS_MAX


class TestWRatioMedians:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_equals_np_median(self, n):
        rng = np.random.default_rng(n)
        for a in (rng.normal(size=n), rng.normal(size=n) * 1e-12 - 3,
                  rng.integers(-2, 3, size=n).astype(float),  # ties
                  np.full(n, 0.7), np.abs(rng.normal(size=n))):
            got, want = lame._median(a), np.median(a)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_w_eigenvalue_imports_no_numpy_ma(self):
        # np.median's NaN check loads numpy.ma; one curve request in a fresh
        # interpreter leaves it unloaded
        probe = ("import sys, numpy as np; from lame_spectra import lame, curve; "
                 "from lame_spectra.theta import EllipticParams, ThetaEvaluator; "
                 "ctx = lame.LameContext(ell=3, ev=ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17))); "
                 "(pt,) = curve.random_curve_points(ctx, 1, np.random.default_rng(3)); "
                 "c = lame.solve_bloch_coeffs(pt, ctx); lame.w_eigenvalue(pt, c, ctx); "
                 "lame.scaled_residual(pt, ctx); print('numpy.ma' in sys.modules)")
        src = str(Path(lame.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        assert out.stdout.split() == ["False"]

    def test_nonfinite_ratio_raises(self, monkeypatch):
        # a NaN ratio used to come back as w = nan
        ctx, pt, c = _grid_point(2, 1.2j, 0.17)
        real = lame._W_sum

        def one_nan(*args):
            out = real(*args)
            out[3] = np.nan
            return out

        monkeypatch.setattr(lame, "_W_sum", one_nan)
        with pytest.raises(ConsistencyError, match="not finite"):
            w_eigenvalue(pt, c, ctx)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    @pytest.mark.parametrize("eta", [0.17, 1 / 31])
    def test_spread_refuses_a_rescaled_bloch_vector(self, ell, eta):
        # s_1 x (1 + 1e-6) leaves Psi no eigenfunction of W: the ratio spreads
        # (at l = 1 s has one entry, and no rescaling of it can fail)
        ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=1.2j, eta=eta)))
        (pt,) = random_curve_points(ctx, 1, np.random.default_rng(ell))
        c = solve_bloch_coeffs(pt, ctx)
        w = w_eigenvalue(pt, c, ctx)
        s = c.s.copy()
        s[0] *= 1 + 1e-6
        with pytest.raises(ConsistencyError, match="not a joint eigenfunction"):
            w_eigenvalue(pt, c._replace(s=s), ctx)
        # the check reads zeta, K and s, never E
        assert w_eigenvalue(CurvePoint(zeta=pt.zeta, K=pt.K, E=pt.E * (1 + 1e-6)), c, ctx) == w


class TestBlochMultipliers:
    def test_overflow_names_the_exponent(self):
        # log K / eta and log K tau / eta both have real part about 4e5
        ev_small = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1e-6))
        pt = CurvePoint(zeta=0.31 + 0.07j, K=1.4 - 0.5j, E=1.6 + 0.4j)
        for name in ("B1", "Btau"):
            with pytest.raises(OverflowError, match=rf"^{name} = exp\(.+\) is outside the double range$"):
                getattr(pt, name)(ev_small)

    def test_in_range_values_unchanged(self, ev):
        pt = CurvePoint(zeta=0.31 + 0.07j, K=1.4 + 0.5j, E=1.6 + 0.4j)
        assert pt.B1(ev) == cmath.exp(cmath.log(pt.K) / ev.eta)
        assert pt.Btau(ev) == cmath.exp(cmath.log(pt.K) * ev.tau / ev.eta) * cmath.exp(-2j * cmath.pi * pt.zeta)


class TestEllZero:
    @pytest.mark.parametrize("fn", [residual, scaled_residual, solve_bloch_coeffs])
    def test_residue_system_needs_ell_one(self, ev, fn):
        ctx0 = LameContext(ell=0, ev=ev)
        pt = CurvePoint(zeta=0.3 + 0.1j, K=1.2 + 0.4j, E=0.7 - 0.2j)
        with pytest.raises(ValueError, match="ell >= 1"):
            fn(pt, ctx0)


class TestGuards:
    def test_negative_ell_refused(self, ev):
        with pytest.raises(ValueError, match="^ell must be a non-negative integer, got -1$"):
            LameContext(ell=-1, ev=ev)

    def test_zero_bloch_factor_refused(self):
        with pytest.raises(ValueError, match="^K must be nonzero$"):
            CurvePoint(zeta=0.3 + 0.1j, K=0j, E=0.7)

    def test_sample_points_run_out(self, ev, monkeypatch):
        # no point of the window lies 10 away from every theta1 zero
        monkeypatch.setattr(lame, "W_MARGIN", 10.0)
        with pytest.raises(ConsistencyError, match="^could not find enough pole-free sample points$"):
            lame._sample_points(LameContext(ell=1, ev=ev), lame.W_SAMPLES)

    def test_w_ratio_needs_three_usable_samples(self, monkeypatch):
        ctx, pt, c = _grid_point(2, 1.2j, 0.17)
        real = lame._Psi_sum
        monkeypatch.setattr(lame, "_Psi_sum", lambda *args: real(*args) * 0)
        with pytest.raises(ConsistencyError, match="^too few usable sample points for the W ratio$"):
            w_eigenvalue(pt, c, ctx)

    def test_w_ratio_keeps_every_sample_when_the_cut_leaves_too_few(self, monkeypatch):
        # three usable samples with ratios 0, 0, 1: the cut at 5x the median
        # deviation keeps two, too few, so all three are kept; their mean 1/3
        # spreads by 2/3 (the two alone would give w = 0 with no spread)
        ctx, pt, c = _grid_point(2, 1.2j, 0.17)
        real = lame._Psi_sum

        def three_usable(*args):
            out = real(*args)
            out[:, -1] = 0
            out[:3, -1] = 1
            return out

        monkeypatch.setattr(lame, "_Psi_sum", three_usable)
        monkeypatch.setattr(lame, "_W_sum", lambda *args: np.array([0, 0, 1], dtype=complex))
        with pytest.raises(ConsistencyError, match=r"^W ratio spread 6\.667e-01 exceeds"):
            w_eigenvalue(pt, c, ctx)
