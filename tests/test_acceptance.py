"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import cmath
import math
import time
from math import comb

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from _support import bloch_terms_scale, scaled_curve_sums
from lame_spectra import (
    CurvePoint,
    LameContext,
    apply_Ltilde,
    apply_W,
    build_psi,
    build_Psi,
    scaled_residual,
    solve_bloch_coeffs,
    w_eigenvalue,
    weierstrass_p,
)
from lame_spectra.bloch import (
    RationalEta,
    band_intervals,
    band_sweep,
    numeric_band_edges,
    numeric_band_edges_from_coefficients,
    coefficient_samples,
)
from lame_spectra.curve import (
    a_polys_determinant,
    a_polys_recurrence,
    band_edges,
    bloch_relation,
    cauchy_det,
    closed_form_edges,
    curve_coeffs,
    random_curve_points,
    weyl_denominator_check,
)
from lame_spectra.enumbers import ebracket
from lame_spectra.lame import W_REL_TOL
from lame_spectra.errors import MarginViolationError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta
from lame_spectra.volterra import (
    PoleConfig,
    c_from_poles,
    degenerate_poles,
    integrate_flow,
    locus_residual,
)

X0 = 0.123456 + 0j


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def solved_points():
    """20 certified on-curve points spread over ell = 1, 2, 3."""
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
    rng = np.random.default_rng(99)
    out = []
    for ell, n in ((1, 7), (2, 7), (3, 6)):
        ctx = LameContext(ell=ell, ev=ev)
        for pt in random_curve_points(ctx, n, rng):
            out.append((ctx, pt))
    return out


def test_criterion_1_l1_closed_form_edges():
    t0 = time.time()
    worst = 0.0
    for eta, tau in ((0.17, 1.2j), (0.23 + 0.05j, 0.3 + 1.4j)):
        ev = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        edges = band_edges(1, ev)
        closed = closed_form_edges(1, ev)
        assert edges.per_label[1] == []
        for a in (2, 3, 4):
            assert len(edges.per_label[a]) == 1
            got, want = edges.per_label[a][0], closed[a][0]
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - t0
    report(
        "criterion-1 (l=1 closed-form edges)",
        worst < 1e-9 and elapsed < 1.0,
        f"max rel err {worst:.2e} (tol 1e-9), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_l2_edges():
    t0 = time.time()
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
    edges = band_edges(2, ev)
    b2, b4 = ebracket(2, ev), ebracket(4, ev)
    quad_roots = sorted(np.roots([b2, b2**3, 2 * b4]), key=lambda z: z.real)
    got = sorted(edges.per_label[1], key=lambda z: z.real)

    def match(a, b):
        return max(abs(x - y) / max(abs(y), 1.0) for x, y in zip(a, b))

    direct = match(got, quad_roots)
    reflected = match(got, sorted([-r for r in quad_roots], key=lambda z: z.real))
    err1 = min(direct, reflected)
    branch = "as printed" if direct <= reflected else "up to the spectrum's E -> -E reflection"
    closed = closed_form_edges(2, ev)
    err_rest = max(
        abs(edges.per_label[a][0] - closed[a][0]) / abs(closed[a][0]) for a in (2, 3, 4)
    )
    elapsed = time.time() - t0
    report(
        "criterion-2 (l=2 edges vs quadratic and closed forms)",
        err1 < 1e-9 and err_rest < 1e-9 and elapsed < 1.0,
        f"label-1 vs quadratic {err1:.2e} ({branch}); labels 2-4 {err_rest:.2e} "
        f"(tol 1e-9), runtime {elapsed:.2f}s",
    )


def test_criterion_3_numeric_oracle_agreement():
    t0 = time.time()
    worst = 0.0
    counts_ok = True
    for ell in (1, 2):
        for P, Q in ((1, 31), (2, 41)):
            ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=P / Q, tol=1e-12))
            cand = numeric_band_edges(ell, RationalEta(P, Q), X0, ev)
            num = cand.confident_values()
            counts_ok = counts_ok and len(num) == 2 * (2 * ell + 1)
            analytic = band_edges(ell, ev).with_reflection()
            scale = max(abs(e) for e in analytic)
            h1 = max(min(abs(v - e) for e in analytic) for v in num)
            h2 = max(min(abs(v - e) for v in num) for e in analytic)
            worst = max(worst, max(h1, h2) / scale)
    elapsed = time.time() - t0
    report(
        "criterion-3 (analytic vs numeric edges)",
        worst < 1e-5 and counts_ok and elapsed < 30.0,
        f"Hausdorff/scale {worst:.2e} (tol 1e-5), counts {'ok' if counts_ok else 'WRONG'}, "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_band_count():
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 31, tol=1e-12))
    re = RationalEta(1, 31)
    ks = np.linspace(0, re.brillouin_width(), 129)
    bands = band_intervals(band_sweep(1, re, X0, ks, ev))
    sym = all(
        any(abs(lo + hi2) < 1e-8 and abs(hi + lo2) < 1e-8 for lo2, hi2 in bands)
        for lo, hi in bands
    )
    report(
        "criterion-4 (3 stable bands, reflection-symmetric)",
        len(bands) == 3 and sym,
        f"{len(bands)} bands (expect 3), symmetric under E -> -E: {sym} (tol 1e-8)",
    )


def test_criterion_5_apoly_cross_check():
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
    rng = np.random.default_rng(5)
    worst = 0.0
    parity_worst = 0.0
    for ell in (1, 2, 3, 4):
        A = a_polys_recurrence(ell, ev)
        for _ in range(20):
            E = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
            for s in range(ell + 1):
                det = a_polys_determinant(ell, s, E, ev)
                rec = polyval(E, A[ell - s])
                worst = max(worst, abs(det - rec) / max(abs(rec), 1.0))
        for j in range(ell + 1):
            coeffs = A[j]
            scale = np.abs(coeffs).max()
            for i, c in enumerate(coeffs):
                if (ell - j - i) % 2 == 1:
                    parity_worst = max(parity_worst, abs(c) / scale)
    report(
        "criterion-5 (A-polynomial recurrence vs determinant)",
        worst < 1e-10 and parity_worst < 1e-12,
        f"cross-check {worst:.2e} (tol 1e-10), parity slots {parity_worst:.2e} (tol 1e-12)",
    )


def test_criterion_6_curve_formulation_equivalence(solved_points):
    assert len(solved_points) == 20
    worst_det = worst_sum = worst_rel = 0.0
    for ctx, pt in solved_points:
        worst_det = max(worst_det, max(scaled_residual(pt, ctx)))
        worst_sum = max(worst_sum, max(scaled_curve_sums(pt, ctx)))
        val = bloch_relation(pt.zeta, pt.K, ctx.ell, ctx.ev)
        scale = bloch_terms_scale(pt.zeta, pt.K, ctx.ell, ctx.ev)
        worst_rel = max(worst_rel, abs(val) / scale)
    report(
        "criterion-6 (determinants, curve sums, Bloch relation at 20 points)",
        worst_det < 1e-9 and worst_sum < 1e-9 and worst_rel < 1e-8,
        f"dets {worst_det:.2e} (1e-9), sums {worst_sum:.2e} (1e-9), "
        f"relation {worst_rel:.2e} (1e-8)",
    )


def test_criterion_7_eigenfunction_residuals(solved_points):
    rng = np.random.default_rng(77)
    worst_eig = worst_sym = worst_bloch = 0.0
    for ctx, pt in solved_points:
        ev = ctx.ev
        c = solve_bloch_coeffs(pt, ctx)
        psi = lambda x: build_psi(pt, c, x, ctx)
        for _ in range(20):
            x = complex(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.3))
            lhs = apply_Ltilde(psi, x, ctx)
            rhs = pt.E * psi(x)
            scale = abs(rhs) + abs(psi(x + ev.eta)) + 1.0
            worst_eig = max(worst_eig, abs(lhs - rhs) / scale)
        scale = abs(build_Psi(pt, c, 0.3, ctx)) + 1.0
        for j in range(1, ctx.ell + 1):
            d = build_Psi(pt, c, j * ev.eta, ctx) - build_Psi(pt, c, -j * ev.eta, ctx)
            worst_sym = max(worst_sym, abs(d) / scale)
        x = 0.31 + 0.17j
        lhs = build_psi(pt, c, x + 1, ctx)
        rhs = pt.B1(ev) * build_psi(pt, c, x, ctx)
        worst_bloch = max(worst_bloch, abs(lhs - rhs) / max(abs(rhs), 1.0))
    report(
        "criterion-7 (eigenfunction residuals at every solved point)",
        worst_eig < 1e-9 and worst_sym < 1e-9 and worst_bloch < 1e-9,
        f"eigen {worst_eig:.2e}, symmetry {worst_sym:.2e}, Bloch step {worst_bloch:.2e} "
        f"(all tol 1e-9)",
    )


def test_criterion_8_w_operator_suite(solved_points):
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
    ctx = LameContext(ell=1, ev=ev)
    pts = [pt for c, pt in solved_points if c.ell == 1][:5]
    edges = band_edges(1, ev).union()
    worst_inv = worst_rel = 0.0
    assert W_REL_TOL == 1e-7  # the pinned spread bound of the W check
    for pt in pts:
        c = solve_bloch_coeffs(pt, ctx)
        w = w_eigenvalue(pt, c, ctx)  # raises if spread > W_REL_TOL * max(|w|, 1)
        spt = CurvePoint(2 * ctx.N * ev.eta - pt.zeta, 1 / pt.K, pt.E)
        sw = w_eigenvalue(spt, solve_bloch_coeffs(spt, ctx), ctx)
        worst_inv = max(worst_inv, abs(w + sw) / max(abs(w), 1.0))
        want = np.prod([pt.E**2 - e**2 for e in edges])
        worst_rel = max(worst_rel, abs(w**2 - want) / abs(want))
    report(
        "criterion-8 (W ratios, involution, hyperelliptic relation)",
        worst_inv < 1e-7 and worst_rel < 1e-6,
        f"spread < 1e-7 certified by estimator, w(P)+w(sP) {worst_inv:.2e} (1e-7), "
        f"w^2 vs product {worst_rel:.2e} (1e-6) at {len(pts)} points",
    )


def test_criterion_9_identity_suites():
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
    rng = np.random.default_rng(9)
    worst_cauchy = 0.0
    for n in (1, 2, 3, 4):
        xs = [complex(rng.uniform(0.05, 0.4), rng.uniform(-0.1, 0.1)) for _ in range(n)]
        z = complex(rng.uniform(0.1, 0.7), rng.uniform(0, 0.2))
        lhs, rhs = cauchy_det(xs, z, ev)
        worst_cauchy = max(worst_cauchy, abs(lhs - rhs) / abs(rhs))
    worst_schur = 0.0
    for ell in (1, 2, 3, 4):
        lhs, rhs = weyl_denominator_check(ell, 0.7 + 0.2j, cmath.exp(0.46j))
        worst_schur = max(worst_schur, abs(lhs - rhs) / abs(rhs))
    worst_sym = 0.0
    c0_exact = True
    for ell in range(1, 7):
        cc = curve_coeffs(ell, ev)
        c0_exact = c0_exact and cc.C[0] == 1
        worst_sym = max(worst_sym, float(np.abs(cc.C - cc.C[::-1]).max() / np.abs(cc.C).max()))
    devs = []
    for eta in (1e-2, 5e-3, 2.5e-3):
        ev_s = ThetaEvaluator(EllipticParams(tau=1.2j, eta=eta, tol=1e-14))
        cc = curve_coeffs(3, ev_s)
        devs.append(max(abs(cc.C[j] - comb(6, j)) for j in range(7)))
    monotone = devs[0] > devs[1] > devs[2]
    report(
        "criterion-9 (Cauchy, subset-sum product, coefficient symmetry/limit)",
        worst_cauchy < 1e-9 and worst_schur < 1e-10 and worst_sym < 1e-10
        and c0_exact and monotone,
        f"cauchy {worst_cauchy:.2e} (1e-9), product identity {worst_schur:.2e} (1e-10), "
        f"C symmetry {worst_sym:.2e} (1e-10), C_0 exact {c0_exact}, "
        f"binomial deviations {[f'{d:.2e}' for d in devs]} monotone {monotone}",
    )


def test_criterion_10_continuum_checks():
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
            [(4 * math.pi**2) * u(x) + ell * (ell + 1) * weierstrass_p(x + tau / 2, ev) * u(x) for x in xs]
        )
        uv = np.array([u(x) for x in xs])
        c0 = np.linalg.lstsq(uv[:, None], lhs - targ, rcond=None)[0][0]
        errs.append(np.abs(lhs - targ - c0 * uv).max())
    ratio = errs[0] / errs[1]

    xs = (0.0, 0.31 + 0.18j, -0.12 + 0.41j)
    ratios = []
    for eta in (1e-2, 1e-3):
        ev_s = ThetaEvaluator(EllipticParams(tau=1.2j, eta=eta, tol=1e-14))
        rep = locus_residual(PoleConfig(xs=xs), ev_s)
        ratios.append(rep.residuals / eta**3)
    ev_s = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1e-3, tol=1e-14))
    h = 1e-5
    want = np.array(
        [
            -2
            * sum(
                (weierstrass_p(complex(xs[j]) - complex(xs[k]) + h, ev_s)
                 - weierstrass_p(complex(xs[j]) - complex(xs[k]) - h, ev_s)) / (2 * h)
                for k in range(3)
                if k != j
            )
            for j in range(3)
        ]
    )
    scale = max(1.0, float(np.abs(want).max()))
    d0 = float(np.abs(ratios[0] - want).max()) / scale
    d1 = float(np.abs(ratios[1] - want).max()) / scale
    locus_ok = d1 < 1e-3 and d1 < d0 / 10
    report(
        "criterion-10 (continuum limits)",
        5 < ratio < 20 and locus_ok,
        f"operator-defect ratio {ratio:.1f} (in [5,20]); locus residual/eta^3 vs "
        f"P'-sums: {d0:.2e} -> {d1:.2e} (converging, final < 1e-3)",
    )


def test_criterion_11_volterra_flow():
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 31, tol=1e-12))
    re = RationalEta(1, 31)
    from lame_spectra.theta import theta1_prime

    x0 = 0.21 + 0.05j
    v = theta(1, 2 * ev.eta, ev) / theta1_prime(0.0, ev)
    res = integrate_flow(PoleConfig(xs=(x0,)), t_end=0.3, dt=0.01, ev=ev)
    exact = x0 + 0.3 * v
    traj_err = abs(res.trajectory[-1].xs[0] - exact)

    def edges_for(cfg):
        cvals = coefficient_samples(lambda x: c_from_poles(cfg, x, ev), re, X0)
        avals = np.ones(re.Q, dtype=complex)
        cand = numeric_band_edges_from_coefficients(avals, cvals)
        return np.sort(cand.confident_values().real)

    e0 = edges_for(res.trajectory[0])
    e1 = edges_for(res.trajectory[-1])
    iso_err = float(np.abs(e0 - e1).max()) if len(e0) == len(e1) else float("inf")

    try:
        integrate_flow(degenerate_poles(2, ev), t_end=0.1, dt=0.01, ev=ev)
        rejected = False
    except MarginViolationError:
        rejected = True
    report(
        "criterion-11 (Volterra flow)",
        traj_err < 1e-12 and iso_err < 1e-6 and rejected,
        f"l=1 trajectory error {traj_err:.2e} (exact to integrator precision), "
        f"isospectrality drift {iso_err:.2e} (1e-6), degenerate input rejected: {rejected}",
    )
