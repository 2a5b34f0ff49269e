"""Spectral-curve tests: polynomial families, edge systems, the
Bloch-multiplier relation and the identity suites behind it."""

import cmath
import functools
import itertools
import math
import re
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from numpy.polynomial.polynomial import polymul, polytrim, polyval

from _support import PARAMS_EV, bloch_terms_scale, count_E_free_builds, scaled_curve_sums
from lame_spectra import CurvePoint, LameContext, scaled_residual
from lame_spectra import curve, lame
from lame_spectra.curve import (
    CJ_MAX_ELL,
    NEWTON_TOL,
    BandEdgeSet,
    _subset_sums,
    a_polys_determinant,
    a_polys_recurrence,
    band_edges,
    bloch_relation,
    bloch_relation_det,
    cauchy_det,
    closed_form_edges,
    curve_coeffs,
    curve_equations,
    edge_bloch_factors,
    edge_curve_points,
    half_period,
    random_curve_points,
    solve_curve_point,
    weyl_denominator_check,
)
from lame_spectra.enumbers import ebracket, theta1_multiples
from lame_spectra.errors import ClusterAmbiguityError, ConvergenceError, PoleProximityError, TorsionEtaError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta
from lame_spectra.util import nearest_lattice_point


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

    @pytest.mark.parametrize("s", [-1, 3])
    def test_determinant_s_out_of_range(self, ev, s):
        with pytest.raises(ValueError, match=rf"^need 0 <= s <= ell, got s={s}$"):
            a_polys_determinant(2, s, 0.5, ev)

    def test_determinant_near_torsion_binomial_refused(self):
        # near eta = 1/4, |[4]| = 1.2e-8 clears the bracket guard at tol 1e-8,
        # but ebinom(4, 2) = [4][3]/[2] = 8.5e-9 does not clear the divisor's
        ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.25 + 6.7e-10, tol=1e-8))
        assert abs(ebracket(4, ev)) > ev.tol
        with pytest.raises(TorsionEtaError, match=r"^ebinom\(4,2\) ~ 0 at eta="):
            a_polys_determinant(2, 2, 0.5, ev)


class TestCurveEquations:
    def test_vanish_exactly_on_curve(self, curve_points):
        for ell, pts in curve_points.items():
            ctx = LameContext(ell=ell, ev=PARAMS_EV)
            for pt in pts:
                s1, s2 = scaled_curve_sums(pt, ctx)
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
            s = max(scaled_curve_sums(pt, ctx2))
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

    @pytest.mark.parametrize("ell", [0, -1])
    def test_ell_below_one_rejected(self, ev, ell):
        with pytest.raises(ValueError, match="ell >= 1"):
            band_edges(ell, ev)

    @pytest.mark.parametrize("ell,im_tau", [(1, 450.9), (1, 451.1), (12, 37.5), (12, 37.6)])
    def test_edge_basis_refused_where_it_underflows(self, ell, im_tau):
        # pi Im(tau) ell/2 = -ln(DBL_MIN) at Im(tau) ell = 450.98: below it the
        # counts hold, beyond it the call is refused before any table is built
        ev_big = ThetaEvaluator(EllipticParams(tau=1j * im_tau, eta=0.17))
        bound = curve.EDGE_BASIS_MAX_IM_TAU_ELL
        assert abs(im_tau * ell - bound) < 1.3
        if im_tau * ell < bound:
            assert band_edges(ell, ev_big).counts() == BandEdgeSet.expected_counts(ell)
        else:
            want = rf"Im\(tau\) ell > {re.escape(f'{bound:.2f}')}; got Im\(tau\) ell = 45[12]"
            with pytest.raises(ValueError, match=want):
                band_edges(ell, ev_big)

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

    def test_no_closed_form_at_l3(self, ev):
        with pytest.raises(ValueError, match="^closed forms are only known for ell = 1, 2, got 3$"):
            closed_form_edges(3, ev)

    @pytest.mark.parametrize("tau", [300j, 600j, 890j])
    @pytest.mark.parametrize("eta", [0.17, 1 / 31, 0.11 + 0.05j, 1 / 101])
    def test_l2_closed_form_meets_its_trigonometric_limit(self, eta, tau):
        # q = exp(i pi tau) underflows here, so each theta ratio is its
        # trigonometric limit: label 1 is {2, 2 cos 2 pi eta}, label 2 is
        # 2 cos 2 pi eta and labels 3, 4 are 2 cos pi eta. A power or product
        # of theta values, each about q^(1/4), leaves the double range first
        closed = closed_form_edges(2, ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        c1, c2 = 2 * cmath.cos(cmath.pi * eta), 2 * cmath.cos(2 * cmath.pi * eta)
        want = {1: [c2, 2], 2: [c2], 3: [c1], 4: [c1]}
        for a in want:
            got = sorted(closed[a], key=abs)
            assert len(got) == len(want[a])
            assert all(abs(g - w) <= 4e-15 * abs(w) for g, w in zip(got, want[a])), (a, got, want[a])



def _scalar_closed_form_edges(ell, ev):
    """Reference route, kept as a test oracle: ``closed_form_edges`` as it
    was, one scalar theta call per factor."""
    if ell == 1:
        out = {1: []}
        for a, (b, c) in {2: (3, 4), 3: (4, 2), 4: (2, 3)}.items():
            out[a] = [2 * theta(b, ev.eta, ev) * theta(c, ev.eta, ev)
                      / (theta(b, 0.0, ev) * theta(c, 0.0, ev))]
        return out
    b2 = ebracket(2, ev)
    t1 = theta(1, ev.eta, ev)
    x = cmath.sqrt((t1 / theta(2, ev.eta, ev)) ** 4 + (t1 / theta(4, ev.eta, ev)) ** 4
                   - (t1 / theta(3, ev.eta, ev)) ** 4)
    big = b2**2 * (1 + x if abs(1 + x) >= abs(1 - x) else 1 - x) / 2
    out = {1: [big, 2 * ebracket(4, ev) / (b2 * big)]}
    for a in (2, 3, 4):
        out[a] = [theta(1, 2 * ev.eta, ev) / t1 * (theta(a, 2 * ev.eta, ev) / theta(a, ev.eta, ev))]
    return out


class TestClosedFormBatch:
    """``closed_form_edges`` reads its theta values in one call per
    characteristic and gives the scalar formula's values: bit for bit at a
    real eta (one cutoff for the whole batch), to rounding at a complex one."""

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [1 / 31, 0.17, 0.213, 0.11 + 0.05j])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_matches_scalar_formula(self, ell, eta, tau):
        got = closed_form_edges(ell, ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        want = _scalar_closed_form_edges(ell, ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        assert got.keys() == want.keys()
        for a in want:
            assert len(got[a]) == len(want[a])
            for g, w in zip(got[a], want[a]):
                if isinstance(eta, float):
                    assert g == w, (a, g, w)
                else:
                    assert abs(g - w) <= 1e-15 * abs(w), (a, g, w)

    @pytest.mark.parametrize("ell,calls", [(1, 3), (2, 4)])
    def test_one_theta_call_per_characteristic(self, ell, calls, monkeypatch):
        ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17))
        seen = []

        def counting(a, x, ev, *args, **kwargs):
            seen.append(a)
            return theta(a, x, ev, *args, **kwargs)

        monkeypatch.setattr(curve, "theta", counting)
        closed_form_edges(ell, ev)
        assert len(seen) == calls
        assert len(set(seen)) == calls


class TestPolyHelpers:
    """``curve.polyval`` is numpy's ``polyval(x, c, tensor=False)``, bit for
    bit, on complex coefficient arrays: a scalar x, and an (n, 1) x on a 2-D
    c."""

    @staticmethod
    def _same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _cplx(rng, *shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("seed", range(5))
    def test_polyval_scalar_x(self, seed):
        rng = np.random.default_rng(seed)
        for c in (self._cplx(rng, 1 + seed), self._cplx(rng, 1 + seed, 3)):
            for x in (complex(self._cplx(rng, 1)[0]), self._cplx(rng, 1)[0], 2.0):
                self._same(curve.polyval(x, c), polyval(x, c, tensor=False))

    @pytest.mark.parametrize("seed", range(5))
    def test_polyval_column_x_on_rows(self, seed):
        # one row of values per x
        rng = np.random.default_rng(100 + seed)
        c = self._cplx(rng, 1 + seed, 3)
        x = self._cplx(rng, 6, 1)
        self._same(curve.polyval(x, c), polyval(x, c, tensor=False))
        assert curve.polyval(x, c).shape == (6, 3)


LIFT_ETAS = (0.17, 0.23, 0.11 + 0.05j, 1 / 31, 2 / 31, 1 / 41, 1 / 61)
LIFT_TAUS = (0.8j, 1.2j, 2j, 0.3 + 1.4j)
EDGE_LIFT_GRID = [
    pytest.param(ell, eta, tau, id=f"ell{ell}-eta{eta:.4g}-tau{tau}")
    for ell in range(1, 7)
    for eta in LIFT_ETAS
    for tau in LIFT_TAUS
] + [
    # generic eta at which common roots of edge polynomials gave wrong counts
    pytest.param(ell, eta, tau, id=f"ell{ell}-eta{eta:.4g}-tau{tau}")
    for eta, tau in ((0.136916, 0.3 + 1.4j), (0.155679, 1.2j))
    for ell in range(7, 11)
] + [
    # large ell at small eta: a kernel that splits each term into a
    # coefficient times a point exp overflows at the last one
    pytest.param(ell, eta, tau, id=f"ell{ell}-eta{eta:.4g}-tau{tau}")
    for ell, eta, tau in ((16, 1 / 61, 2j), (20, 1 / 101, 2j), (24, 1 / 151, 2j))
]


class TestEdgeLift:
    """Every analytic edge E of label a is the E of an on-curve point above
    zeta = N eta + omega_a, with K one of the label's Bloch factors and E or
    -E, across a grid of (ell, eta, tau): sigma_min of the row-scaled residue
    matrix is below NEWTON_TOL, the rule ``edge_curve_points`` keeps it by."""

    @pytest.mark.parametrize("ell,eta,tau", EDGE_LIFT_GRID)
    def test_edges_lift_to_curve_points(self, ell, eta, tau):
        ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        edges = band_edges(ell, ctx.ev)
        assert edges.counts() == BandEdgeSet.expected_counts(ell)
        for a in (1, 2, 3, 4):
            zeta = ctx.N * eta + half_period(a, tau)
            for E in edges.per_label[a]:
                lifts = [CurvePoint(zeta, K, s * E)
                         for K in edge_bloch_factors(a, ctx.ev) for s in (1, -1)]
                assert lame._sigma_min(lifts, ctx).min() < NEWTON_TOL, (a, E)


def _minor_rule_edge_points(ctx):
    """Reference route, kept as a test oracle: ``edge_curve_points`` as it
    was, a candidate kept when both Hadamard-scaled minors are below 1e-8."""
    ev = ctx.ev
    edges = band_edges(ctx.ell, ev)
    out = []
    for a in (1, 2, 3, 4):
        zeta = ctx.N * ev.eta + half_period(a, ev.tau)
        for E in edges.per_label[a]:
            for K in edge_bloch_factors(a, ev):
                for Es in (E, -E):
                    pt = CurvePoint(zeta=zeta, K=K, E=Es)
                    if max(scaled_residual(pt, ctx)) < 1e-8:
                        out.append(pt)
    return out


class TestEdgePointRule:
    """``edge_curve_points`` keeps a candidate by sigma_min of its row-scaled
    residue matrix below NEWTON_TOL: on the grid it keeps what the minor rule
    kept, and it refuses edges that rule let through."""

    @pytest.mark.parametrize("ell,eta,tau", [
        (ell, eta, tau) for eta, tau in ((0.17, 1.2j), (1 / 31, 1.2j), (0.11 + 0.05j, 0.3 + 1.4j),
                                         (3 / 61, 1.2j), (0.21, 0.8j))
        for ell in range(1, 9)
    ])
    def test_same_points_as_the_minor_rule(self, ell, eta, tau):
        ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        assert edge_curve_points(ctx) == _minor_rule_edge_points(ctx)

    @pytest.mark.parametrize("ell", [2, 6, 12])
    def test_planted_edge_error_is_rejected(self, ev, monkeypatch, ell):
        # E x (1 + 1e-6): at ell 12 the scaled minors of every edge read
        # 1.5e-10 to 2.6e-9, under the old 1e-8; sigma_min reads 4.5e-9 or more
        ctx = LameContext(ell=ell, ev=ev)
        assert len(edge_curve_points(ctx)) == 2 * (2 * ell + 1)
        real = curve.band_edges

        def planted(l, ev):
            edges = real(l, ev)
            return edges._replace(per_label={a: [E * (1 + 1e-6) for E in v]
                                              for a, v in edges.per_label.items()})

        monkeypatch.setattr(curve, "band_edges", planted)
        assert edge_curve_points(ctx) == []


class TestEdgeLabelMap:
    """The label -> characteristic map decides which edges a label gets; a
    wrong map must fail the closed-form comparison, not only the counts."""

    def test_swapped_labels_fail_closed_form(self, ev, monkeypatch):
        closed = closed_form_edges(1, ev)

        def worst():
            edges = band_edges(1, ev)
            return max(abs(edges.per_label[a][0] - closed[a][0]) / abs(closed[a][0]) for a in (2, 3, 4))

        # the first call caches the ell 1 edge table; the swapped map must not reuse it
        assert worst() < 1e-9
        chars = dict(curve._EDGE_CHARS)
        monkeypatch.setitem(curve._EDGE_CHARS, 3, chars[4])
        monkeypatch.setitem(curve._EDGE_CHARS, 4, chars[3])
        assert band_edges(1, ev).counts() == BandEdgeSet.expected_counts(1)
        assert worst() > 1e-3

    @pytest.mark.parametrize("a,b", [(2, 3), (2, 4), (3, 4)])
    def test_swapped_labels_break_edge_fibre(self, ev, monkeypatch, a, b):
        # at ell 4 the closed forms do not apply: the swapped edges stop lifting
        # to curve points above their half period
        ctx = LameContext(ell=4, ev=ev)
        assert len(edge_curve_points(ctx)) == 2 * (2 * 4 + 1)
        chars = dict(curve._EDGE_CHARS)
        monkeypatch.setitem(curve._EDGE_CHARS, a, chars[b])
        monkeypatch.setitem(curve._EDGE_CHARS, b, chars[a])
        assert band_edges(4, ev).counts() == BandEdgeSet.expected_counts(4)
        assert len(edge_curve_points(ctx)) < 2 * (2 * 4 + 1)


def _per_label_band_edges(ell, ev):
    """Reference route, kept as a test oracle: ``band_edges`` as it was, one
    pass per label that sums the P x l x (2K+1) basis terms at x and x +- eta
    and solves one ``eigvals`` per label."""
    theta1_multiples(2 * ell, ev)
    tau, eta = ev.tau, ev.eta
    P = 2 * ell * max(2, -(-8 // ell))
    x = (np.arange(P) + 0.37) / P - 0.5j * tau.imag
    th = theta(1, x, ev, shifts=[0.0, -ell * eta, ell * eta])
    n = ev.series_cutoff - 1
    K = max(1, math.ceil((math.sqrt(1 + 4 * n * n / ell) - 1) / 2))
    k = np.arange(-K, K + 1)
    j = np.arange(ell)
    per_label = {}
    for a in (1, 2, 3, 4):
        eps, s = curve._EDGE_CHARS[a][ell % 2]
        nu = j[:, None] + eps + ell * k
        terms = np.where(k % 2, s, 1) * np.exp((1j * math.pi * tau / ell) * nu**2 - math.pi * tau.imag * ell / 4
                                               + (2j * math.pi) * x[:, None, None] * nu)
        shift = np.exp((2j * math.pi * eta) * nu)
        b = (terms * np.array([shift**0, shift, 1 / shift])[:, None]).sum(axis=-1)
        m, jp = np.divmod(-j - round(2 * eps), ell)
        sign = np.where(m % 2, s, 1)
        keep = (j < jp) | ((j == jp) & (sign == 1))
        f = b[..., j[keep]] + sign[keep] * b[..., jp[keep]]
        LF = (th[:, 1, None] * f[1] + th[:, 2, None] * f[2]) / th[:, 0, None]
        norm = np.linalg.norm(f[0], axis=0)
        A = (f[0].conj().T @ LF) / np.outer(norm, norm)
        per_label[a] = sorted(np.linalg.eigvals(A).tolist(), key=lambda z: (z.real, z.imag))
    return BandEdgeSet(ell=ell, per_label=per_label)


class TestEdgeReferenceRoute:
    """The one-pass ``band_edges`` (one cached table, one projection, two
    ``eigvals`` calls) gives the per-label route's edges."""

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j, 0.8j, 2j])
    @pytest.mark.parametrize("eta", [0.17, 1 / 31, 2 / 31, 1 / 101, 0.21 + 0.03j])
    def test_matches_per_label_route(self, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta))
        for ell in range(1, 13):
            got, want = band_edges(ell, ev_g), _per_label_band_edges(ell, ev_g)
            assert got.counts() == want.counts() == BandEdgeSet.expected_counts(ell), ell
            scale = max(abs(e) for e in want.union())
            for a in (1, 2, 3, 4):
                err = np.abs(np.subtract(got.per_label[a], want.per_label[a]))
                assert np.all(err <= 1e-12 * scale), (ell, a, err.max() / scale)

    def test_cached_table_is_read_only(self):
        chars = tuple(curve._EDGE_CHARS[a][1] for a in (1, 2, 3, 4))
        table = curve._edge_table(5, 1, chars)
        assert curve._edge_table(5, 1, chars) is table
        nu, pattern, groups, dft = table
        assert [labels for labels, _ in groups] == [(1,), (2, 3, 4)]
        for arr in (nu, pattern, dft, *(idx for _, idx in groups)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


# the fixed-E seed grid at ell 2, eta 0.17, tau 1.2i
FIX_E_GRID_E = (1.6 + 0.4j, 2, 3 + 1j, 0.5j, 5)
FIX_E_GRID_ZETA = (0.31 + 0.07j, 0.05 + 0.02j, 0.02 + 1.15j, 0.97 + 0.03j, 0.1 + 0.1j, 0.5 + 0.6j)
FIX_E_GRID_K = (1.4 + 0.5j, 0.3, 3, 1j)
# residue matrices the curve-point command's default seed builds at fixed zeta
CLI_SEED_BUILDS = 9


def _backward_error(pt, ctx, s=None):
    """max_i |(M s)_i| / (||mag_i|| ||s||) at pt, by default for the smallest
    right singular vector of the row-scaled M, the solver's opening s."""
    Mr = lame._row_scaled(*lame._build_M_with_magnitudes(pt, ctx))
    if s is None:
        s = np.linalg.svd(Mr)[2][-1].conj()
    return np.abs(Mr @ s).max() / np.linalg.norm(s)


def _per_candidate_curve_points(ctx, n, rng):
    """random_curve_points with the full backward error of each E candidate's
    eigenvector, all rows, each candidate rebuilding its own residue matrix;
    the candidates are the eigenpairs of the residue matrix at E = 0 less
    its row 0."""
    ev = ctx.ev
    cc = curve_coeffs(ctx.ell, ev)
    out = []
    attempts = 0
    while len(out) < n and attempts < 40 * n:
        attempts += 1
        zeta = complex(0.1 + 0.8 * rng.random(), 0.05 + 0.3 * rng.random())
        u_roots = np.roots(curve._bloch_terms(zeta, 1, cc, ev))
        rng.shuffle(u_roots)
        for u in u_roots:
            if abs(u) < 1e-10:
                continue
            K = cmath.sqrt(complex(u))
            best = None
            cands, vecs = np.linalg.eig(lame._build_M_with_magnitudes(CurvePoint(zeta, K, 0j), ctx)[0][1:])
            for E, y in zip(cands, vecs.T):
                pt = CurvePoint(zeta=zeta, K=K, E=complex(E))
                score = _backward_error(pt, ctx, y)
                if best is None or score < best[0]:
                    best = (score, pt)
            if best is None or best[0] > 1e-4:
                continue
            try:
                pt = solve_curve_point({"zeta": zeta}, best[1], ctx)
            except ConvergenceError:
                continue
            out.append(pt)
            break
    return out


class TestCurvePointScoring:
    """Scoring all E candidates at once, by row 0 of one residue matrix, picks
    the candidate a per-candidate loop over the backward error of every row
    picks, so the returned points are the loop's."""

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", LIFT_ETAS)
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_matches_per_candidate_loop(self, ell, eta, tau):
        ctx = LameContext(ell=ell, ev=ThetaEvaluator(EllipticParams(tau=tau, eta=eta)))
        for seed in range(6):
            got = random_curve_points(ctx, 2, np.random.default_rng(seed))
            assert got == _per_candidate_curve_points(ctx, 2, np.random.default_rng(seed)), seed


# the worst mismatch of E candidates and S1 roots over the grid below, relative to
# max(|E|, 1), is 2.8e-14 at ell 1-3, 3.7e-11 at ell 4-6 and 2.0e-10 at ell 7-8
SEED_ROOT_TOL = {1: 3e-12, 2: 3e-12, 3: 3e-12, 4: 4e-9, 5: 4e-9, 6: 4e-9, 7: 2e-8, 8: 2e-8}


class TestSeedMatchesCurveSums:
    """The paper's sum form is the oracle of the seed: at (zeta, K) on the
    Bloch relation, the eigenvalues of the residue matrix at E = 0 less its
    row 0 are the roots of S1 in E, built from the A-polynomials."""

    @pytest.mark.parametrize("eta", [0.17, 1 / 31, 3 / 61, 0.11 + 0.05j])
    @pytest.mark.parametrize("ell", range(1, 9))
    def test_candidates_are_s1_roots(self, ell, eta):
        for tau in (1.2j, 0.3 + 1.4j):
            ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta))
            ctx = LameContext(ell=ell, ev=ev_g)
            cc = curve_coeffs(ell, ev_g)
            A = a_polys_recurrence(ell, ev_g)
            rng = np.random.default_rng(ell)
            for _ in range(3):
                zeta = complex(0.1 + 0.8 * rng.random(), 0.05 + 0.3 * rng.random())
                for u in np.roots(curve._bloch_terms(zeta, 1, cc, ev_g)):
                    K = cmath.sqrt(complex(u))
                    cands = np.linalg.eigvals(lame._build_M_with_magnitudes(CurvePoint(zeta, K, 0j), ctx)[0][1:])
                    rows1, _ = curve._curve_rows(A, curve._point_weights(zeta, K, ell, ev_g), ev_g)
                    roots = list(np.roots(rows1.sum(axis=0)[::-1]))
                    assert len(roots) == len(cands) == ell
                    for E in cands:
                        dist = np.abs(np.subtract(roots, E))
                        assert dist.min() <= SEED_ROOT_TOL[ell] * max(abs(E), 1.0), (tau, zeta, K)
                        roots.pop(int(np.argmin(dist)))


def _sequential_bracket(n, ev):
    """[n] as one division of two theta1(k*eta) table entries, per call."""
    m = abs(n)
    if m == 0:
        return 0j
    t = theta1_multiples(m, ev)
    val = 1 + 0j if m == 1 else t[m] / t[1]
    return -val if n < 0 else val


def _sequential_factorial(n, ev):
    out = 1 + 0j
    for j in range(2, n + 1):
        out *= _sequential_bracket(j, ev)
    return out


def _sequential_binom(n, m, ev):
    return _sequential_factorial(n, ev) / (
        _sequential_factorial(m, ev) * _sequential_factorial(n - m, ev))


PIN_ETAS = (0.17, 1 / 31, 2 / 31, 1 / 61, 3 / 61, 0.23 + 0.04j)


class TestTableRouteIsBitExact:
    """The factorial and bracket tables give, bit for bit, the outputs of the
    sequential per-call route: the C_j and the weights of W."""

    @staticmethod
    def _outputs(ell, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta))
        return curve_coeffs(ell, ev_g).C, LameContext(ell=ell, ev=ev_g)._parts.w

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", PIN_ETAS)
    def test_matches_sequential_route(self, monkeypatch, tau, eta):
        got = [self._outputs(ell, tau, eta) for ell in range(1, 11)]
        monkeypatch.setattr(curve, "ebinom", _sequential_binom)
        monkeypatch.setattr(curve, "ebracket", _sequential_bracket)
        monkeypatch.setattr(lame, "ebinom", _sequential_binom)
        # a fresh bundle cache, so that the weights are built again by the sequential route
        monkeypatch.setattr(lame, "_context_parts",
                            functools.lru_cache(lame._CONTEXT_PARTS_MAX)(lame._context_parts.__wrapped__))
        for ell, (C, W) in enumerate(got, start=1):
            want = self._outputs(ell, tau, eta)
            assert np.array_equal(C, want[0]), ell
            assert np.array_equal(W, want[1]), ell

    @pytest.mark.parametrize("eta", PIN_ETAS)
    def test_curve_rows_keep_weight_order(self, eta):
        # (w_j [j-1]) ebinom(l+1, j), multiplied left to right as Python scalars
        ev_g = ThetaEvaluator(EllipticParams(tau=0.3 + 1.4j, eta=eta))
        for ell in range(1, 11):
            A = a_polys_recurrence(ell, ev_g)
            w = curve._point_weights(0.31 + 0.07j, 0.8 - 0.3j, ell, ev_g)
            rows1, rows2 = curve._curve_rows(A, w, ev_g)
            c1 = [w[j] * _sequential_binom(ell, j, ev_g) for j in range(ell + 1)]
            c2 = [w[j] * _sequential_bracket(j - 1, ev_g) * _sequential_binom(ell + 1, j, ev_g)
                  for j in range(ell + 2)]
            below = [1] + list(range(ell + 1))  # |j - 1| for j = 0..l+1
            assert np.array_equal(rows1, np.array(c1)[:, None] * A), ell
            assert np.array_equal(rows2, np.array(c2)[:, None] * A[below]), ell


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


def _reference_subset_loop(ell, ratio):
    """The per-subset loop the doubling kernel replaced: for every subset J,
    prod_{k in J, k' not in J} ratio(k, k'), added into C[sum(J)]."""
    items = range(1, ell + 1)
    table = {k: {kp: ratio(k, kp) for kp in items if kp != k} for k in items}
    C = np.zeros(ell * (ell + 1) // 2 + 1, dtype=complex)
    for r in range(ell + 1):
        for J in itertools.combinations(items, r):
            outside = [kp for kp in items if kp not in J]
            p = 1 + 0j
            for k in J:
                row = table[k]
                for kp in outside:
                    p *= row[kp]
            C[sum(J)] += p
    return C


def _reference_subset_sums(ell, ratio):
    """The doubling with each item's factor vectors built afresh from [1]
    over the earlier items, the kernel before they were carried along."""
    R = np.ones((ell, ell), dtype=complex)
    for k in range(ell):
        for kp in range(ell):
            if kp != k:
                R[k, kp] = ratio(k + 1, kp + 1)
    P = np.ones(1, dtype=complex)
    S = np.zeros(1, dtype=np.intp)
    for t in range(ell):
        inside = np.ones(1, dtype=complex)
        outside = np.ones(1, dtype=complex)
        for k in range(t):
            inside = np.concatenate([inside, inside * R[k, t]])
            outside = np.concatenate([outside * R[t, k], outside])
        P = np.concatenate([P * inside, P * outside])
        S = np.concatenate([S, S + t + 1])
    C = np.zeros(ell * (ell + 1) // 2 + 1, dtype=complex)
    np.add.at(C, S, P)
    return C


# the (tau, eta) cells of the smoke table's verify runs
VERIFY_CELLS = [(1.2j, 0.17), (0.3 + 1.4j, 0.11 + 0.05j), (1.2j, 1 / 31)]


def _ratio(f):
    """f(k+k') / f(|k-k'|), the ratio ``_subset_sums`` forms from f, as a callback."""
    return lambda k, kp: f[k + kp] / f[abs(k - kp)]


def _brackets(ell, ev):
    """[0] .. [2l], the sequence ``curve_coeffs`` passes."""
    return [ebracket(j, ev) for j in range(2 * ell + 1)]


KERNEL_GRID = [
    pytest.param(tau, eta, id=f"tau{tau}-eta{eta:.4g}")
    for tau in (1.2j, 0.3 + 1.4j)
    for eta in (1 / 31, 2 / 31, 1 / 61, 3 / 61, 5 / 37, 0.11, 0.17, 0.23 + 0.04j)
]


class _NeverRead:
    """A sequence f(0..2l) whose entries raise when read."""

    def __init__(self, ell):
        self.n = 2 * ell + 1

    def __len__(self):
        return self.n

    def __getitem__(self, j):
        raise AssertionError(f"f({j}) read")


class TestSubsetSumKernel:
    @pytest.mark.parametrize("tau,eta", KERNEL_GRID)
    def test_matches_reference_loop(self, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta))
        for ell in range(1, 13):
            f = _brackets(ell, ev_g)
            C = _subset_sums(f)
            assert C[0] == 1 and C[-1] == 1
            want = _reference_subset_loop(ell, _ratio(f))
            assert np.abs(C - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("tau,eta", VERIFY_CELLS)
    def test_bit_for_bit_the_per_item_doubling(self, tau, eta):
        # the factor vectors carried along form the same products in the
        # same order as building each item's vectors afresh
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta))
        for ell in range(1, 15):
            f = _brackets(ell, ev_g)
            assert _subset_sums(f).tobytes() == _reference_subset_sums(ell, _ratio(f)).tobytes()

    def test_small_ell(self):
        assert _subset_sums(_NeverRead(0)).tolist() == [1 + 0j]
        assert _subset_sums(_NeverRead(1)).tolist() == [1 + 0j, 1 + 0j]

    def test_ell_above_limit_raises_before_allocating(self):
        ell = CJ_MAX_ELL + 1
        f = _NeverRead(ell)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"ell={ell}\b.*2\^{ell} = {2 ** ell}"):
                _subset_sums(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(curve, "CJ_MAX_ELL", 5)
        assert len(_subset_sums([1.0] * 11)) == 16
        with pytest.raises(ValueError):
            _subset_sums(_NeverRead(6))


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
                scale = bloch_terms_scale(pt.zeta, pt.K, ell, PARAMS_EV)
                assert abs(val) < 1e-8 * scale

    # the worst |det route - C_j sum| over bloch_terms_scale on the grid below
    # is 2.0e-13 at ell 1-6, 9.3e-12 at ell 7-10 and 1.4e-10 at ell 11-12
    @pytest.mark.parametrize("eta", [0.17, 1 / 31, 0.11 + 0.05j])
    @pytest.mark.parametrize("ell", range(1, 13))
    def test_det_and_expansion_agree(self, ell, eta):
        tol = 2e-11 if ell <= 6 else 1e-9 if ell <= 10 else 2e-8
        for tau in (1.2j, 0.3 + 1.4j):
            ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta))
            rng = np.random.default_rng(53 + ell)
            for _ in range(5):
                zeta = complex(rng.uniform(0.1, 0.8), rng.uniform(0, 0.3))
                K = complex(rng.uniform(0.5, 1.8), rng.uniform(-0.8, 0.8))
                lhs = bloch_relation_det(zeta, K, ell, ev_g) * theta(1, zeta, ev_g)
                rhs = bloch_relation(zeta, K, ell, ev_g)
                assert abs(lhs - rhs) <= tol * bloch_terms_scale(zeta, K, ell, ev_g), (tau, zeta, K)


    def test_det_route_guards_its_divisors(self, ev):
        # theta1(zeta) at the lattice point zeta = 0, and theta1(3 eta) at eta = 1/3
        with pytest.raises(PoleProximityError):
            bloch_relation_det(0j, 1.1, 3, ev)
        ev3 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 3))
        with pytest.raises(PoleProximityError):
            bloch_relation_det(0.3 + 0.1j, 1.1, 2, ev3)

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

    def test_coincident_pair_names_its_sum(self, ev):
        # x_0 + x_1 = 0, a zero of theta1 on the matrix's first row
        with pytest.raises(PoleProximityError, match=re.escape("theta1(x_0+x_1)")):
            cauchy_det([0.3, -0.3, 0.1], 0.43 + 0.11j, ev)


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

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_subset_sum_equals_product(self, ell):
        lhs, rhs = weyl_denominator_check(ell, 0.7 + 0.2j, cmath.exp(0.46j))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_vanishing_divisor_refused(self):
        # (2)_q = q^(1/2) + q^(-1/2) vanishes at q = -1, a divisor at l = 3
        with pytest.raises(ZeroDivisionError, match=r"^\(2\)_q ~ 0 for q="):
            weyl_denominator_check(3, 0.7 + 0.2j, -1 + 0j)


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
            scale = bloch_terms_scale(pt.zeta, pt.K, 2, PARAMS_EV)
            assert abs(val) < 1e-8 * scale

    @pytest.mark.parametrize("fix", [{}, {"K": 1.4 + 0.5j}, {"zeta": 0.31 + 0.07j, "E": 1.6 + 0.4j}],
                             ids=["none", "K", "both"])
    def test_fix_must_hold_zeta_or_E(self, ctx2, fix):
        seed = CurvePoint(zeta=0.31 + 0.07j, K=1.4 + 0.5j, E=1.6 + 0.4j)
        with pytest.raises(ValueError, match="^fix must be exactly"):
            solve_curve_point(fix, seed, ctx2)

    def test_fix_E_mode(self, ctx2, curve_points):
        base = curve_points[2][0]
        seed = CurvePoint(zeta=base.zeta + 0.003, K=base.K * 1.01, E=base.E)
        pt = solve_curve_point({"E": base.E}, seed, ctx2)
        assert max(scaled_residual(pt, ctx2)) < 1e-10

    def test_fix_E_stops_at_pole(self, ctx2):
        # with E fixed at 2 this seed walks zeta into the lattice point 0,
        # where sigma_min of the row-scaled M falls with the distance to it
        seed = CurvePoint(zeta=0.05 + 0.02j, K=0.5, E=2)
        with pytest.raises(ConvergenceError, match="lattice point 0j") as info:
            solve_curve_point({"E": seed.E}, seed, ctx2)
        assert info.value.reason == "pole"

    def test_fix_E_default_seed_converges(self, ctx2):
        # the curve-point command's default seed with E fixed at 1.6+0.4i
        seed = CurvePoint(zeta=0.31 + 0.07j, K=1.4 + 0.5j, E=1.6 + 0.4j)
        pt = solve_curve_point({"E": seed.E}, seed, ctx2)
        assert abs(pt.zeta - (0.0638481324312 + 0.9131093577540j)) < 1e-9
        assert max(scaled_residual(pt, ctx2)) < curve.NEWTON_TOL

    def test_near_pole_seed_returns_no_pole_point(self, ctx2):
        # a whole-matrix measure, ||M s|| / (|||M|||_F ||s||), accepted an
        # iterate of this seed 2.9e-6 from the lattice point -2 (scaled
        # residual 3.7e-7): rows 0-1 carry C(zeta) ~ 1/theta1(zeta) and swamp
        # that norm.  Row by row the solve ends away from the lattice, or stops
        seed = CurvePoint(zeta=0.31 + 0.07j, K=0.3, E=1.6 + 0.4j)
        try:
            pt = solve_curve_point({"E": seed.E}, seed, ctx2)
        except ConvergenceError:
            return
        assert abs(pt.zeta - nearest_lattice_point(pt.zeta, ctx2.ev.tau)) >= 1e-3
        assert _backward_error(pt, ctx2) < curve.NEWTON_TOL

    @pytest.mark.parametrize("fix", [{"zeta": 0.31 + 0.07j}, {"zeta": complex(0.31, -0.0)},
                                     {"E": 1.6 + 0.4j}, {"E": complex(1.6, -0.0)}],
                             ids=["zeta", "zeta-negative-zero", "E", "E-negative-zero"])
    def test_held_coordinate_is_returned_bit_for_bit(self, monkeypatch, ctx2, fix):
        # a step moves only the two free coordinates: adding a zero step to
        # the held one as well would turn its -0.0 into +0.0
        seed = CurvePoint(zeta=0.31 + 0.07j, K=1.4 + 0.5j, E=1.6 + 0.4j)
        builds = count_E_free_builds(monkeypatch)
        pt = solve_curve_point(fix, seed, ctx2)
        assert len(builds) > 1
        ((name, held),) = fix.items()
        assert np.array(getattr(pt, name)).tobytes() == np.array(held).tobytes()

    def test_fix_E_grid(self, ctx2):
        # 120 seeds over E, zeta and K: every returned point is certified, at
        # least as many are returned as by the minor-based Newton (94), and
        # no more seeds raise a RuntimeWarning than under it (3)
        returned, warned = 0, 0
        for E, zeta, K in itertools.product(FIX_E_GRID_E, FIX_E_GRID_ZETA, FIX_E_GRID_K):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    pt = solve_curve_point({"E": E}, CurvePoint(zeta, K, E), ctx2)
                except ConvergenceError:
                    pt = None
            warned += any(issubclass(w.category, RuntimeWarning) for w in caught)
            if pt is not None:
                returned += 1
                assert max(scaled_residual(pt, ctx2)) <= 1e-9, (E, zeta, K)
                assert _backward_error(pt, ctx2) <= curve.NEWTON_TOL, (E, zeta, K)
        assert returned >= 94
        assert warned <= 3

    @pytest.mark.parametrize("fix", ["zeta", "E", "cli-seed"])
    def test_converged_seed_builds_one_matrix(self, monkeypatch, curve_points, ctx2, fix):
        # a seed already on the curve returns after its first residue matrix;
        # the curve-point command's default seed at zeta = 0.31+0.07i takes
        # Newton steps, and each iterate and trial step builds one E-free
        # matrix at its own (zeta, K)
        if fix == "cli-seed":
            seed = CurvePoint(zeta=0.31 + 0.07j, K=1.4 + 0.5j, E=1.6 + 0.4j)
            fixed, want = {"zeta": seed.zeta}, CLI_SEED_BUILDS
        else:
            seed = curve_points[2][0]
            assert _backward_error(seed, ctx2) < curve.NEWTON_TOL
            fixed, want = {fix: getattr(seed, fix)}, 1
        builds = count_E_free_builds(monkeypatch)
        pt = solve_curve_point(fixed, seed, ctx2)
        assert len(builds) == want
        if want == 1:
            assert (pt.zeta, pt.K, pt.E) == (seed.zeta, seed.K, seed.E)
        else:
            assert _backward_error(pt, ctx2) < curve.NEWTON_TOL

    def test_branch_seed_builds_few_matrices(self, monkeypatch):
        # the seed of an analytic benchmark request, near a branch point of
        # its fixed-zeta fibre (K ~ 0.9993), where steps damped on ||F|| crept
        # at lambda = 1/32 through 197 matrices; the scoring matrix, which
        # the seed's state shares, and two line searches of at most 9 builds
        # make 19
        ctx = LameContext(ell=4, ev=ThetaEvaluator(EllipticParams(tau=0.3 + 1.4j, eta=1 / 61)))
        builds = count_E_free_builds(monkeypatch)
        (pt,) = random_curve_points(ctx, 1, np.random.default_rng(953259061))
        assert len(builds) <= 19
        assert _backward_error(pt, ctx) < curve.NEWTON_TOL

    def test_nonconvergence_reports(self, ctx2, monkeypatch):
        monkeypatch.setattr(curve, "NEWTON_MAX_ITER", 3)
        seed = CurvePoint(zeta=0.4 + 0.2j, K=0.01 + 5j, E=-40.0)
        with pytest.raises(ConvergenceError):
            solve_curve_point({"zeta": 0.9 + 0.9j}, seed, ctx2)

    def test_edge_points_are_on_curve(self, edge_points, ctx1):
        assert len(edge_points) >= 6
        for pt in edge_points:
            assert max(scaled_residual(pt, ctx1)) < 1e-8

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
    def test_edge_point_fibre_is_complete(self, ev, ell):
        # every band edge +-E_i appears exactly once over the half periods
        ctx = LameContext(ell=ell, ev=ev)
        pts = edge_curve_points(ctx)
        assert len(pts) == 2 * (2 * ell + 1)
        for pt in pts:
            assert max(scaled_residual(pt, ctx)) < 1e-10


class TestSingularJacobianStop:
    """A Newton step that ``np.linalg.solve`` refuses, or that is not finite,
    stops the solve with reason 'singular-jacobian'."""

    @pytest.mark.parametrize("step", ["raises", "nan"])
    def test_stops_with_its_reason(self, monkeypatch, ctx2, step):
        def planted(J, rhs):
            if step == "raises":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(len(rhs), np.nan, dtype=complex)

        monkeypatch.setattr(np.linalg, "solve", planted)
        # the curve-point command's default seed, which takes Newton steps
        seed = CurvePoint(zeta=0.31 + 0.07j, K=1.4 + 0.5j, E=1.6 + 0.4j)
        with pytest.raises(ConvergenceError, match=r"^Jacobian singular") as info:
            solve_curve_point({"zeta": seed.zeta}, seed, ctx2)
        assert info.value.reason == "singular-jacobian"


def _first_call_planted(monkeypatch, name, first):
    """Put a wrapper of ``curve.<name>`` in its place whose first call returns
    ``first(*args)`` and whose later calls are the real function's; returns
    the list of the arguments of every call."""
    real = getattr(curve, name)
    calls = []

    def planted(*args):
        calls.append(args)
        return first(*args) if len(calls) == 1 else real(*args)

    monkeypatch.setattr(curve, name, planted)
    return calls


def _certified(points, ctx):
    return all(_backward_error(pt, ctx) < curve.NEWTON_TOL for pt in points)


class TestRandomCurvePointDiscards:
    """``random_curve_points`` discards a root u = K^2 at 0, a seed whose
    score is above 1e-4 and a Newton solve that fails, and draws again; it
    raises ClusterAmbiguityError when 40 n attempts give fewer than n points.
    Each plant below spoils the first attempt only (or every solve)."""

    def test_zero_root_is_skipped(self, monkeypatch, ctx2):
        # the relation u = 0: K = 0 is no Bloch factor, and no point is built there
        calls = _first_call_planted(monkeypatch, "_bloch_terms", lambda *args: np.array([1, 0j]))
        points = random_curve_points(ctx2, 2, np.random.default_rng(3))
        assert len(calls) >= 3 and len(points) == 2 and _certified(points, ctx2)

    def test_poor_seed_is_not_solved(self, monkeypatch, ctx2):
        # the relation u = 2+0.5i, off the curve at the attempt's zeta: no E
        # candidate scores below 1e-4, so that zeta is never handed to Newton
        terms = _first_call_planted(monkeypatch, "_bloch_terms", lambda *args: np.array([1, -2 - 0.5j]))
        solves = _first_call_planted(monkeypatch, "solve_curve_point", curve.solve_curve_point)
        points = random_curve_points(ctx2, 2, np.random.default_rng(3))
        planted_zeta = terms[0][0]
        assert all(fix["zeta"] != planted_zeta for fix, _, _ in solves)
        assert len(points) == 2 and _certified(points, ctx2)

    def test_failed_solve_is_discarded(self, monkeypatch, ctx2):
        def fails(*args):
            raise ConvergenceError("planted", reason="max-iter")

        solves = _first_call_planted(monkeypatch, "solve_curve_point", fails)
        points = random_curve_points(ctx2, 2, np.random.default_rng(3))
        # the failed seed's root is dropped and the next root of its zeta is tried
        assert len(solves) == 3 and len(points) == 2 and _certified(points, ctx2)
        assert solves[1][1].zeta == solves[0][1].zeta and solves[1][1].K != solves[0][1].K

    def test_too_few_points_raise(self, monkeypatch, ctx2):
        attempts = []

        def fails(fix, seed, ctx):
            attempts.append(fix["zeta"])
            raise ConvergenceError("planted", reason="max-iter")

        monkeypatch.setattr(curve, "solve_curve_point", fails)
        with pytest.raises(ClusterAmbiguityError, match=r"^only found 0 of 2 requested curve points$"):
            random_curve_points(ctx2, 2, np.random.default_rng(3))
        # 40 n attempts, each a new zeta whose every root is handed to Newton
        assert len(set(attempts)) == 80 and len(attempts) == 80 * ctx2.N
