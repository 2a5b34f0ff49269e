"""Spectral-curve tests: polynomial families, edge systems, the
Bloch-multiplier relation and the identity suites behind it."""

import cmath
import math
from math import comb

import numpy as np
import pytest
from numpy.polynomial.polynomial import polymul, polytrim, polyval

from _support import PARAMS_EV
from lame_spectra import CurvePoint, LameContext, scaled_residual
from lame_spectra.curve import (
    BandEdgeSet,
    a_polys_determinant,
    a_polys_recurrence,
    band_edges,
    bloch_relation,
    bloch_relation_det,
    bloch_relation_scale,
    cauchy_det,
    closed_form_edges,
    curve_coeffs,
    curve_equations,
    curve_equations_scaled,
    edge_curve_points,
    solve_curve_point,
    weyl_denominator_check,
)
from lame_spectra.enumbers import ebracket
from lame_spectra.errors import ConvergenceError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta


class TestAPolynomials:
    def test_top_is_one(self, ev):
        for ell in (1, 2, 3, 4):
            A = a_polys_recurrence(ell, ev)
            assert polytrim(A[ell]).tolist() == [1 + 0j]

    def test_next_coefficient(self, ev):
        for ell in (1, 2, 3, 4):
            A = a_polys_recurrence(ell, ev)
            want = ebracket(ell, ev) / ebracket(2 * ell, ev)
            assert A[ell - 1][1] == pytest.approx(want, rel=1e-12)
            assert A[ell - 1][0] == 0

    def test_degrees(self, ev):
        for ell in (1, 2, 3, 4):
            A = a_polys_recurrence(ell, ev)
            for j in range(ell + 1):
                assert len(polytrim(A[j])) - 1 == ell - j

    def test_parity_coefficientwise(self, ev):
        # A_{l-s}(-E) = (-1)^s A_{l-s}(E): alternating coefficient slots vanish
        for ell in (1, 2, 3, 4):
            A = a_polys_recurrence(ell, ev)
            for j in range(ell + 1):
                coeffs = A[j]
                scale = np.abs(coeffs).max()
                deg = ell - j
                for i, c in enumerate(coeffs):
                    if (deg - i) % 2 == 1:
                        assert abs(c) < 1e-12 * scale

    def test_determinant_route_matches_recurrence(self, ev):
        rng = np.random.default_rng(31)
        for ell in (1, 2, 3, 4):
            A = a_polys_recurrence(ell, ev)
            for _ in range(20):
                E = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
                for s in range(ell + 1):
                    det = a_polys_determinant(ell, s, E, ev)
                    rec = polyval(E, A[ell - s])
                    assert abs(det - rec) <= 1e-10 * max(abs(rec), 1.0)

    def test_s_zero_is_one(self, ev):
        assert a_polys_determinant(3, 0, 1.7 + 0.2j, ev) == 1


class TestCurveEquations:
    def test_vanish_exactly_on_curve(self, curve_points):
        for ell, pts in curve_points.items():
            ctx = LameContext(ell=ell, ev=PARAMS_EV)
            for pt in pts:
                s1, s2 = curve_equations_scaled(pt, ctx)
                assert max(s1, s2) < 1e-9

    def test_joint_vanishing_with_residual(self, ctx2):
        # off-curve points leave both formulations visibly nonzero
        rng = np.random.default_rng(41)
        for _ in range(20):
            pt = CurvePoint(
                zeta=complex(rng.uniform(0.1, 0.8), rng.uniform(0, 0.3)),
                K=complex(rng.uniform(0.5, 2), rng.uniform(-0.5, 0.5)),
                E=complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
            )
            s = max(curve_equations_scaled(pt, ctx2))
            r = max(scaled_residual(pt, ctx2))
            assert (s < 1e-8) == (r < 1e-8)

    def test_zeta_quasi_periodicity_factor(self, ctx2):
        # both sums pick up the same factor -e^(-i pi tau - 2 pi i zeta)
        # under (zeta, K) -> (zeta + tau, K e^(2 pi i eta))
        ev = ctx2.ev
        rng = np.random.default_rng(43)
        for _ in range(5):
            pt = CurvePoint(
                zeta=complex(rng.uniform(0.1, 0.8), rng.uniform(0, 0.3)),
                K=complex(rng.uniform(0.5, 2), rng.uniform(-0.5, 0.5)),
                E=complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
            )
            mapped = CurvePoint(
                pt.zeta + ev.tau, pt.K * cmath.exp(2j * math.pi * ev.eta), pt.E
            )
            fac = -cmath.exp(-1j * math.pi * ev.tau - 2j * math.pi * pt.zeta)
            s1, s2 = curve_equations(pt, ctx2)
            m1, m2 = curve_equations(mapped, ctx2)
            assert m1 == pytest.approx(fac * s1, rel=1e-9)
            assert m2 == pytest.approx(fac * s2, rel=1e-9)

    def test_reflection_parity(self, ctx2):
        # (zeta, -K, -E) multiplies the sums by (-1)^l and (-1)^(l+1)
        rng = np.random.default_rng(47)
        pt = CurvePoint(
            zeta=complex(rng.uniform(0.1, 0.8), rng.uniform(0, 0.3)),
            K=complex(rng.uniform(0.5, 2), rng.uniform(-0.5, 0.5)),
            E=complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
        )
        refl = CurvePoint(pt.zeta, -pt.K, -pt.E)
        s1, s2 = curve_equations(pt, ctx2)
        m1, m2 = curve_equations(refl, ctx2)
        assert m1 == pytest.approx(s1, rel=1e-10)
        assert m2 == pytest.approx(-s2, rel=1e-10)


class TestBandEdges:
    def test_l1_label_one_empty(self, ev):
        edges = band_edges(1, ev)
        assert edges.per_label[1] == []

    def test_l1_closed_form(self, ev):
        edges = band_edges(1, ev)
        closed = closed_form_edges(1, ev)
        for a in (2, 3, 4):
            assert len(edges.per_label[a]) == 1
            got = edges.per_label[a][0]
            want = closed[a][0]
            assert abs(got - want) < 1e-9 * abs(want)

    def test_l2_closed_form(self, ev):
        edges = band_edges(2, ev)
        closed = closed_form_edges(2, ev)
        got = sorted(edges.per_label[1], key=lambda z: z.real)
        want = sorted(closed[1], key=lambda z: z.real)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9 * abs(w)
        for a in (2, 3, 4):
            assert abs(edges.per_label[a][0] - closed[a][0]) < 1e-9

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_counts(self, ev, ell):
        edges = band_edges(ell, ev)
        assert edges.counts() == BandEdgeSet.expected_counts(ell)
        assert len(edges.union()) == 2 * ell + 1

    def test_reflection_closure(self, ev):
        edges = band_edges(2, ev)
        full = edges.with_reflection()
        for e in full:
            assert any(abs(e + f) < 1e-8 for f in full)

    def test_second_params(self):
        ev2 = ThetaEvaluator(EllipticParams(tau=0.3 + 1.4j, eta=0.23 + 0.05j, tol=1e-12))
        edges = band_edges(1, ev2)
        closed = closed_form_edges(1, ev2)
        for a in (2, 3, 4):
            assert abs(edges.per_label[a][0] - closed[a][0]) < 1e-9 * abs(closed[a][0])


class TestCurveCoeffs:
    def test_c0_exact(self, ev):
        for ell in range(1, 7):
            cc = curve_coeffs(ell, ev)
            assert cc.C[0] == 1

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
    def test_palindrome(self, ev, ell):
        cc = curve_coeffs(ell, ev)
        scale = np.abs(cc.C).max()
        assert np.abs(cc.C - cc.C[::-1]).max() < 1e-10 * scale

    def test_binomial_limit_monotone(self):
        ell = 3
        N = 6
        devs = []
        for eta in (1e-2, 5e-3, 2.5e-3):
            ev_s = ThetaEvaluator(EllipticParams(tau=1.1j, eta=eta, tol=1e-14))
            cc = curve_coeffs(ell, ev_s)
            devs.append(max(abs(cc.C[j] - comb(N, j)) for j in range(N + 1)))
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("eta", [0.17, 0.11, 1 / 31])
    def test_trigonometric_limit_is_weyl_product(self, eta):
        # for Im tau -> inf, [n] -> (n)_q with q = e^(2 pi i eta), and the C_j
        # become the coefficients of prod_{1 <= j <= k <= l} (1 + z q^(j+k-l-1));
        # at tau = 6i they agree to ~2e-13, at tau = 3i only to ~2e-7
        ev_t = ThetaEvaluator(EllipticParams(tau=6j, eta=eta))
        q = cmath.exp(2j * math.pi * eta)
        for ell in range(1, 9):
            weyl = np.ones(1, dtype=complex)
            for j in range(1, ell + 1):
                for k in range(j, ell + 1):
                    weyl = polymul(weyl, [1, q ** (j + k - ell - 1)])
            C = curve_coeffs(ell, ev_t).C
            assert np.abs(C - weyl).max() <= 1e-10 * np.abs(weyl).max()


class TestBlochRelation:
    def test_l1_coefficients(self, ev):
        cc = curve_coeffs(1, ev)
        assert cc.C.tolist() == [1 + 0j, 1 + 0j]
        zeta, K = 0.41 + 0.23j, 1.3 - 0.7j
        want = theta(1, zeta, ev) * K**2 - theta(1, zeta - 2 * ev.eta, ev)
        assert bloch_relation(zeta, K, 1, ev) == pytest.approx(want, rel=1e-12)

    def test_vanishes_on_curve(self, curve_points):
        for ell in (1, 2):
            for pt in curve_points[ell]:
                val = bloch_relation(pt.zeta, pt.K, ell, PARAMS_EV)
                scale = bloch_relation_scale(pt.zeta, pt.K, ell, PARAMS_EV)
                assert abs(val) < 1e-8 * scale

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_det_and_expansion_agree(self, ev, ell):
        rng = np.random.default_rng(53)
        for _ in range(20):
            zeta = complex(rng.uniform(0.1, 0.8), rng.uniform(0, 0.3))
            K = complex(rng.uniform(0.5, 1.8), rng.uniform(-0.8, 0.8))
            lhs = bloch_relation_det(zeta, K, ell, ev) * theta(1, zeta, ev)
            rhs = bloch_relation(zeta, K, ell, ev)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), abs(lhs))


class TestCauchyDeterminant:
    def test_n1_both_sides_equal_kernel(self, ev):
        x = 0.21 + 0.07j
        z = 0.43 + 0.11j
        lhs, rhs = cauchy_det([x], z, ev)
        want = theta(1, 2 * x + z, ev) / theta(1, 2 * x, ev)
        assert lhs == pytest.approx(want, rel=1e-12)
        assert rhs == pytest.approx(want, rel=1e-12)

    def test_n2_direct_determinant_oracle(self, ev):
        # 2x2 determinant expanded by hand, straight from theta values
        xs = [0.21 + 0.07j, 0.33 - 0.04j]
        z = 0.43 + 0.11j

        def kern(u):
            return theta(1, u + z, ev) / theta(1, u, ev)

        direct = kern(2 * xs[0]) * kern(2 * xs[1]) - kern(xs[0] + xs[1]) ** 2
        lhs, rhs = cauchy_det(xs, z, ev)
        assert lhs == pytest.approx(direct, rel=1e-12)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_n4_product_formula(self, ev):
        rng = np.random.default_rng(61)
        xs = [complex(rng.uniform(0.1, 0.45), rng.uniform(-0.1, 0.1)) for _ in range(4)]
        z = complex(rng.uniform(0.2, 0.7), rng.uniform(0, 0.2))
        lhs, rhs = cauchy_det(xs, z, ev)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)


class TestWeylDenominator:
    def test_z_zero(self):
        lhs, rhs = weyl_denominator_check(3, 0.0, cmath.exp(0.46j))
        assert lhs == 1
        assert rhs == 1

    def test_l1_linear(self):
        z = 0.7 + 0.2j
        lhs, rhs = weyl_denominator_check(1, z, cmath.exp(0.46j))
        assert lhs == pytest.approx(1 + z, rel=1e-13)
        assert rhs == pytest.approx(1 + z, rel=1e-13)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_subset_sum_equals_product(self, ell):
        lhs, rhs = weyl_denominator_check(ell, 0.7 + 0.2j, cmath.exp(0.46j))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


class TestSolveCurvePoint:
    def test_half_period_fix_recovers_edge(self, ctx1):
        # fixing zeta = N eta + 1/2 and polishing lands on the label-2 edge
        ev = ctx1.ev
        zeta = ctx1.N * ev.eta + 0.5
        closed = closed_form_edges(1, ev)[2][0]
        seed = CurvePoint(zeta=zeta, K=1.05 + 0.02j, E=closed * 1.02)
        pt = solve_curve_point({"zeta": zeta}, seed, ctx1)
        assert min(abs(pt.E - closed), abs(pt.E + closed)) < 1e-8 * abs(closed)

    def test_free_limit_seed(self, ctx1):
        # |K| grows as zeta -> 0 (the function E has a pole there) and the
        # solved point approaches the free asymptote E ~ K
        ev = ctx1.ev
        defects = []
        for zeta in (0.02, 0.005):
            K0 = cmath.sqrt(theta(1, zeta - 2 * ev.eta, ev) / theta(1, zeta, ev))
            seed = CurvePoint(zeta=zeta, K=K0, E=K0)
            pt = solve_curve_point({"zeta": zeta}, seed, ctx1)
            assert abs(pt.K) > 3
            defects.append(abs(pt.E / pt.K - 1))
        assert defects[0] < 0.2
        assert defects[1] < defects[0]

    def test_solved_points_satisfy_relation(self, curve_points):
        for pt in curve_points[2]:
            val = bloch_relation(pt.zeta, pt.K, 2, PARAMS_EV)
            scale = bloch_relation_scale(pt.zeta, pt.K, 2, PARAMS_EV)
            assert abs(val) < 1e-8 * scale

    def test_fix_E_mode(self, ctx2, curve_points):
        base = curve_points[2][0]
        seed = CurvePoint(zeta=base.zeta + 0.003, K=base.K * 1.01, E=base.E)
        pt = solve_curve_point({"E": base.E}, seed, ctx2)
        assert max(scaled_residual(pt, ctx2)) < 1e-10

    def test_nonconvergence_reports(self, ctx2):
        seed = CurvePoint(zeta=0.4 + 0.2j, K=0.01 + 5j, E=-40.0)
        with pytest.raises(ConvergenceError):
            solve_curve_point({"zeta": 0.9 + 0.9j}, seed, ctx2, max_iter=3)

    def test_edge_points_are_on_curve(self, edge_points, ctx1):
        assert len(edge_points) >= 6
        for pt in edge_points:
            assert max(scaled_residual(pt, ctx1)) < 1e-8

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_edge_point_fibre_is_complete(self, ev, ell):
        # every band edge +-E_i appears exactly once over the half periods
        ctx = LameContext(ell=ell, ev=ev)
        pts = edge_curve_points(ctx)
        assert len(pts) == 2 * (2 * ell + 1)
        for pt in pts:
            assert max(scaled_residual(pt, ctx)) < 1e-10
