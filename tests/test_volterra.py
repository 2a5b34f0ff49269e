"""Volterra pole-dynamics tests: coefficient building, residue systems,
locus diagnostics and the flow integrator."""

import cmath
import re

import numpy as np
import pytest

from _support import PARAMS_EV
from lame_spectra import volterra
from lame_spectra.bloch import (
    RationalEta,
    coefficient_samples,
    numeric_band_edges_from_coefficients,
)
from lame_spectra.enumbers import theta1_multiples
from lame_spectra.errors import ConvergenceError, LocusError, MarginViolationError, PoleProximityError
from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta, theta1_prime, weierstrass_p
from lame_spectra.volterra import (
    MARGIN_TOL,
    RIGID_TOL,
    PoleConfig,
    c_from_poles,
    check_margins,
    degenerate_poles,
    find_locus_config,
    integrate_flow,
    locus_residual,
    pole_rhs,
    volterra_rhs_c,
)

ETA = 0.17


# -- reference route: the per-pair scalar loops the batched code replaced ----

def _reference_check_margins(cfg, ev, margin=MARGIN_TOL):
    eta = ev.eta
    worst = float("inf")
    for j in range(cfg.M):
        for k in range(cfg.M):
            if j == k:
                continue
            d = cfg.xs[j] - cfg.xs[k]
            for s in (0.0, eta, -eta, 2 * eta, -2 * eta):
                worst = min(worst, abs(theta(1, d - s, ev)) / abs(ev.theta1_prime0))
    if cfg.M > 1 and worst < margin:
        raise MarginViolationError(f"reference margin {worst:.3e}")
    return worst if cfg.M > 1 else float("inf")


def _reference_pole_rhs(cfg, ev):
    _reference_check_margins(cfg, ev)
    eta = ev.eta
    scale = theta(1, 2 * eta, ev) / theta1_prime(0.0, ev)
    v1 = np.empty(cfg.M, dtype=complex)
    v2 = np.empty(cfg.M, dtype=complex)
    for j in range(cfg.M):
        p1 = p2 = 1 + 0j
        for k in range(cfg.M):
            if k == j:
                continue
            d = cfg.xs[j] - cfg.xs[k]
            td = theta(1, d, ev)
            p1 *= theta(1, d + 2 * eta, ev) * theta(1, d - eta, ev) / (theta(1, d + eta, ev) * td)
            p2 *= theta(1, d - 2 * eta, ev) * theta(1, d + eta, ev) / (theta(1, d - eta, ev) * td)
        v1[j] = scale * p1
        v2[j] = scale * p2
    return v1, v2


def _reference_locus_residual(cfg, ev):
    _reference_check_margins(cfg, ev)
    eta = ev.eta
    res = np.zeros(cfg.M, dtype=complex)
    for j in range(cfg.M):
        p = 1 + 0j
        for k in range(cfg.M):
            if k == j:
                continue
            d = cfg.xs[j] - cfg.xs[k]
            p *= (
                theta(1, d + 2 * eta, ev)
                * theta(1, d - eta, ev) ** 2
                / (theta(1, d - 2 * eta, ev) * theta(1, d + eta, ev) ** 2)
            )
        res[j] = p - 1
    return res


def _reference_c_from_poles(cfg, x, ev):
    def rho(y, guarded=False):
        out = 1 + 0j
        for xj in cfg.xs:
            f = theta(1, y - xj, ev)
            if guarded and abs(f) < ev.zero_threshold:
                raise PoleProximityError(f"reference: x={y} at the pole lattice of {xj}")
            out *= f
        return out

    eta = ev.eta
    den = rho(x, guarded=True) * rho(x - eta, guarded=True)
    return rho(x + eta) * rho(x - 2 * eta) / den


def _reference_pair_thetas(xs, ev):
    """The pair table as the formula: R scattered into a ones matrix, and
    theta1(2 eta) from the evaluator's theta1(k eta) table.  ``xs`` of shape
    (..., M) gives R of shape (..., M, M) and margins of shape (...), a
    float for a 1-D ``xs``."""
    M = xs.shape[-1]
    j, k = np.triu_indices(M, 1)
    T = theta(1, xs[..., j] - xs[..., k], ev, shifts=volterra._SHIFTS * ev.eta)
    worst = np.abs(T).min(axis=(-2, -1), initial=np.inf) / abs(ev.theta1_prime0)
    if (worst < MARGIN_TOL).any():
        raise MarginViolationError(f"reference margin {worst.min():.3e}")
    r = (T[..., 0:2] * T[..., 2:4]) / (T[..., 3:1:-1] * T[..., 4:])
    R = np.ones(xs.shape + (M,), dtype=complex)
    R[..., j, k] = r[..., 0]
    R[..., k, j] = r[..., 1]
    return R, theta1_multiples(2, ev)[2], float(worst) if xs.ndim == 1 else worst


def _reference_flow_state(xs, ev):
    R, theta1_2eta, margin = _reference_pair_thetas(xs, ev)
    scale = theta1_2eta / ev.theta1_prime0
    return scale * R.prod(axis=-1), scale * R.prod(axis=-2), margin


def _reference_c_table(cfg, x, ev):
    """c on an array x from the per-pair table theta1(x - x_j + s): one exp
    row per (x, pole) pair, the route the separable table replaced."""
    eta = ev.eta
    f = theta(1, x[..., None] - np.array(cfg.xs, dtype=complex), ev, shifts=[0, -eta, eta, -2 * eta])
    rho = np.prod(f, axis=-2)
    return rho[..., 2] * rho[..., 3] / (rho[..., 0] * rho[..., 1])


def _random_poles(M, ev, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, M) + 1j * ev.tau.imag * rng.uniform(-0.5, 0.5, M)
    return PoleConfig(xs=tuple(xs))


GRID = [
    pytest.param(M, tau, eta, id=f"M{M}-tau{tau}-eta{eta:.4g}")
    for M in (1, 3, 6, 10)
    for tau in (1.2j, 0.3 + 1.4j)
    for eta in (1 / 31, 0.17)
]


@pytest.fixture(scope="module")
def onlocus_cfg(ev):
    cfg = find_locus_config(2, ev, np.random.default_rng(7))
    assert cfg is not None, "locus search failed for ell=2 (seeded run)"
    return cfg


class TestBatchedRouteMatchesReference:
    """Each pole set's theta1 values come from one batched call; the scalar
    loops above are the reference they must reproduce."""

    @pytest.mark.parametrize("M,tau,eta", GRID)
    def test_matches_scalar_loops(self, M, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        cfg = _random_poles(M, ev_g, seed=M)
        assert check_margins(cfg, ev_g) == pytest.approx(
            _reference_check_margins(cfg, ev_g), rel=1e-12
        )
        for got, want in zip(pole_rhs(cfg, ev_g), _reference_pole_rhs(cfg, ev_g)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        # compare the consistency products (residual + 1): at eta = 1/31 the
        # residuals are O(eta^3), so their own relative error is the
        # products' magnified by the cancellation in p - 1
        np.testing.assert_allclose(
            locus_residual(cfg, ev_g).residuals + 1, _reference_locus_residual(cfg, ev_g) + 1,
            rtol=1e-12, atol=0,
        )
        rng = np.random.default_rng(100 + M)
        for _ in range(3):
            x = complex(rng.uniform(-0.5, 0.5), tau.imag * rng.uniform(-0.5, 0.5))
            assert c_from_poles(cfg, x, ev_g) == pytest.approx(
                _reference_c_from_poles(cfg, x, ev_g), rel=1e-12
            )

    @pytest.mark.parametrize("M,tau,eta", GRID)
    def test_array_x_matches_scalar_reference(self, M, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        cfg = _random_poles(M, ev_g, seed=M)
        rng = np.random.default_rng(200 + M)
        x = rng.uniform(-0.5, 0.5, (3, 4)) + 1j * tau.imag * rng.uniform(-0.5, 0.5, (3, 4))
        got = c_from_poles(cfg, x, ev_g)
        assert got.shape == x.shape
        want = np.vectorize(lambda y: _reference_c_from_poles(cfg, y, ev_g))(x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert type(c_from_poles(cfg, complex(x[1, 2]), ev_g)) is complex

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("M", [3, 6])
    @pytest.mark.parametrize("P,Q", [(1, 31), (2, 31), (3, 41)])
    def test_separable_table_matches_the_per_pair_table(self, tau, M, P, Q):
        # the Bloch orbit samples of the drift check: the offsets s - x_j as
        # points and the orbit as shifts, against one exp row per (x, pole).
        # Relative to max|c| over the orbit: near a zero of c both routes
        # carry the rounding of theta1's scale, not of the small value
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=P / Q, tol=1e-12))
        for seed in range(3):
            cfg = _random_poles(M, ev_g, seed=seed)
            for x0 in (0.123456, 0.123456 + 0.6j):
                x = x0 + np.arange(Q) * (P / Q)
                got, want = c_from_poles(cfg, x, ev_g), _reference_c_table(cfg, x, ev_g)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_array_pole_proximity_names_the_x(self, ev):
        cfg = PoleConfig(xs=(0.1 + 0.05j, -0.3 + 0.2j))
        bad = cfg.xs[0] + ETA
        with pytest.raises(PoleProximityError, match=re.escape(f"x={bad} ")):
            c_from_poles(cfg, np.array([0.41 + 0.13j, bad, 0.2 - 0.1j]), ev)

    def test_margin_violation_raises_on_both_routes(self, ev):
        cfg = PoleConfig(xs=(0.1 + 0.05j, 0.1 + 0.05j + ETA + 1e-9, -0.3 + 0.2j))
        for fn in (check_margins, pole_rhs, locus_residual,
                   _reference_check_margins, _reference_pole_rhs, _reference_locus_residual):
            with pytest.raises(MarginViolationError):
                fn(cfg, ev)

    def test_pole_proximity_raises_on_both_routes(self, ev):
        cfg = PoleConfig(xs=(0.1 + 0.05j, -0.3 + 0.2j))
        for x in (cfg.xs[1], cfg.xs[0] + ETA):
            for fn in (c_from_poles, _reference_c_from_poles):
                with pytest.raises(PoleProximityError):
                    fn(cfg, x, ev)


class TestThetaCallCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(*args, **kwargs):
            seen.append(args)
            return theta(*args, **kwargs)

        monkeypatch.setattr(volterra, "theta", counting)
        return seen

    def test_one_call_per_pole_set(self, calls, ev):
        cfg = _random_poles(6, ev, seed=6)
        for run in (
            lambda: check_margins(cfg, ev),
            lambda: pole_rhs(cfg, ev),
            lambda: locus_residual(cfg, ev),
            lambda: c_from_poles(cfg, 0.41 + 0.13j, ev),
        ):
            calls.clear()
            run()
            assert len(calls) == 1

    def test_orbit_sampling_makes_one_call(self, calls, ev):
        cfg = _random_poles(6, ev, seed=6)
        re31 = RationalEta(1, 31)
        calls.clear()
        cvals = coefficient_samples(lambda x: c_from_poles(cfg, x, ev), re31, 0.123456 + 0.6j)
        assert len(calls) == 1
        assert cvals.shape == (31,)

    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_pair_table_reads_each_unordered_pair_once(self, calls, ev, M):
        # theta1 is odd, so x_k - x_j adds nothing to x_j - x_k: M(M-1)/2
        # differences, each at the five shifts
        pole_rhs(_random_poles(M, ev, seed=M), ev)
        (args,) = calls
        assert np.size(args[1]) == M * (M - 1) // 2

    @pytest.fixture
    def flow_states(self, monkeypatch):
        shapes = []
        real = volterra._flow_state

        def counting(xs, ev):
            shapes.append(np.shape(xs))
            return real(xs, ev)

        monkeypatch.setattr(volterra, "_flow_state", counting)
        return shapes

    @pytest.mark.parametrize("ell,eta,seed", [(2, 1 / 31, 0), (2, 3 / 41, 1), (3, 1 / 31, 0), (3, 3 / 41, 0)])
    def test_flow_makes_one_call_per_evaluation(self, calls, flow_states, ell, eta, seed):
        # flows like the benchmark's (tau = 1.2i, t_end = 0.2, dt = 0.01): one
        # theta call per pole-set evaluation, stages and snapshot batches
        # alike, and at most 21 evaluations where fixed-step RK4 made 81
        ev_w = ThetaEvaluator(EllipticParams(tau=1.2j, eta=eta, tol=1e-12))
        cfg = find_locus_config(ell, ev_w, np.random.default_rng(seed))
        calls.clear()
        flow_states.clear()
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev_w)
        assert len(res.trajectory) == 21
        assert len(calls) == len(flow_states) <= 21
        # the grid points of a step are read as one (points, M) batch
        assert any(len(shape) == 2 for shape in flow_states)

    @pytest.mark.parametrize("ell,eta,seed", [(2, 1 / 31, 0), (3, 0.17, 0), (3, 0.17, 3)])
    def test_every_grid_point_is_read_from_a_dense_output_batch(self, flow_states, ell, eta, seed):
        # a one-step flow and two multi-step ones: every grid time after the
        # start, a step's own end too, is a row of some step's batch
        ev_w = ThetaEvaluator(EllipticParams(tau=1.2j, eta=eta, tol=1e-12))
        cfg = find_locus_config(ell, ev_w, np.random.default_rng(seed))
        flow_states.clear()
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev_w)
        assert sum(shape[0] for shape in flow_states if len(shape) == 2) == len(res.trajectory) - 1


class TestCoefficient:
    def test_degenerate_l2_is_lame_coefficient(self, ev):
        cfg = degenerate_poles(2, ev)
        assert sorted(x.real for x in cfg.xs) == pytest.approx([-ETA, 0.0, ETA])
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = complex(rng.uniform(0.3, 0.9), rng.uniform(0.05, 0.4))
            want = (
                theta(1, x + 2 * ETA, ev)
                * theta(1, x - 3 * ETA, ev)
                / (theta(1, x, ev) * theta(1, x - ETA, ev))
            )
            assert c_from_poles(cfg, x, ev) == pytest.approx(want, rel=1e-10)

    def test_single_pole_l1(self, ev):
        cfg = PoleConfig(xs=(0.0,))
        x = 0.41 + 0.13j
        want = (
            theta(1, x + ETA, ev)
            * theta(1, x - 2 * ETA, ev)
            / (theta(1, x, ev) * theta(1, x - ETA, ev))
        )
        assert c_from_poles(cfg, x, ev) == pytest.approx(want, rel=1e-12)

    def test_double_periodicity(self, ev):
        cfg = PoleConfig(xs=(0.11 + 0.04j, 0.52 - 0.08j, 0.77 + 0.3j))
        x = 0.31 + 0.21j
        base = c_from_poles(cfg, x, ev)
        assert c_from_poles(cfg, x + 1, ev) == pytest.approx(base, rel=1e-10)
        assert c_from_poles(cfg, x + ev.tau, ev) == pytest.approx(base, rel=1e-9)


class TestFlowDerivative:
    def test_empty_config_is_fixed_point(self, ev):
        cfg = PoleConfig(xs=())
        assert c_from_poles(cfg, 0.3, ev) == 1
        assert volterra_rhs_c(cfg, 0.3, ev) == 0

    def test_matches_pole_motion(self, ev):
        # d/dt c under the pole velocities equals the flow derivative
        cfg = PoleConfig(xs=(0.05 + 0.02j,))
        v1, _ = pole_rhs(cfg, ev)
        x = 0.48 + 0.19j
        dt = 1e-5
        moved = [PoleConfig(xs=(cfg.xs[0] + s * dt * v1[0],)) for s in (1, -1)]
        fd = (c_from_poles(moved[0], x, ev) - c_from_poles(moved[1], x, ev)) / (2 * dt)
        rhs = volterra_rhs_c(cfg, x, ev)
        assert abs(fd - rhs) < 1e-7 * max(abs(rhs), 1.0)

    def test_eta_reflection_mirror(self):
        # rebuilding with eta -> -eta and xs -> -xs mirrors the flow
        # derivative through x -> -x
        ev_p = ThetaEvaluator(EllipticParams(tau=1.2j, eta=ETA, tol=1e-12))
        ev_m = ThetaEvaluator(EllipticParams(tau=1.2j, eta=-ETA, tol=1e-12))
        cfg_p = PoleConfig(xs=(0.07 + 0.03j,))
        cfg_m = PoleConfig(xs=(-0.07 - 0.03j,))
        x = 0.43 + 0.11j
        lhs = volterra_rhs_c(cfg_m, -x, ev_m)
        rhs = volterra_rhs_c(cfg_p, x, ev_p)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_eta_reflection_negates_and_swaps_residue_systems(self, onlocus_cfg):
        # under eta -> -eta (same poles) the two residue products exchange
        # roles and the overall scale theta1(2 eta)/theta1'(0) flips sign
        ev_p = ThetaEvaluator(EllipticParams(tau=1.2j, eta=ETA, tol=1e-12))
        ev_m = ThetaEvaluator(EllipticParams(tau=1.2j, eta=-ETA, tol=1e-12))
        v1p, v2p = pole_rhs(onlocus_cfg, ev_p)
        v1m, v2m = pole_rhs(onlocus_cfg, ev_m)
        np.testing.assert_allclose(v1m, -v2p, rtol=1e-10)
        np.testing.assert_allclose(v2m, -v1p, rtol=1e-10)


class TestPoleRhs:
    def test_single_pole_velocity(self, ev):
        v1, v2 = pole_rhs(PoleConfig(xs=(0.3 + 0.1j,)), ev)
        want = theta(1, 2 * ETA, ev) / theta1_prime(0.0, ev)
        assert v1[0] == pytest.approx(want, rel=1e-12)
        assert v2[0] == pytest.approx(want, rel=1e-12)

    def test_translation_covariance(self, ev, onlocus_cfg):
        v1, v2 = pole_rhs(onlocus_cfg, ev)
        w1, w2 = pole_rhs(PoleConfig([x + 0.21 - 0.13j for x in onlocus_cfg.xs], onlocus_cfg.t), ev)
        np.testing.assert_allclose(v1, w1, rtol=1e-10)
        np.testing.assert_allclose(v2, w2, rtol=1e-10)

    def test_systems_agree_on_locus(self, ev, onlocus_cfg):
        v1, v2 = pole_rhs(onlocus_cfg, ev)
        assert np.abs(v1 - v2).max() < 1e-9 * max(1.0, np.abs(v1).max())


class TestLocusResidual:
    def test_l1_trivially_on_locus(self, ev):
        rep = locus_residual(PoleConfig(xs=(0.3,)), ev)
        assert rep.max_norm == 0

    def test_translation_invariance(self, ev, onlocus_cfg):
        r1 = locus_residual(onlocus_cfg, ev)
        r2 = locus_residual(PoleConfig([x + 1.7 + 0.4j for x in onlocus_cfg.xs], onlocus_cfg.t), ev)
        np.testing.assert_allclose(r1.residuals, r2.residuals, atol=1e-9)

    def test_degenerate_config_rejected_as_boundary(self, ev):
        with pytest.raises(MarginViolationError):
            locus_residual(degenerate_poles(2, ev), ev)

    def test_eta_cubed_scaling_to_continuum_locus(self):
        # residual_j / eta^3 -> -2 sum_k P'(x_j - x_k), P' by central differences
        xs = (0.0, 0.31 + 0.18j, -0.12 + 0.41j)
        ratios = []
        for eta in (1e-2, 1e-3):
            ev_s = ThetaEvaluator(EllipticParams(tau=1.2j, eta=eta, tol=1e-14))
            rep = locus_residual(PoleConfig(xs=xs), ev_s)
            ratios.append(rep.residuals / eta**3)
        ev_s = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1e-3, tol=1e-14))
        h = 1e-5
        want = []
        for j in range(3):
            tot = 0j
            for k in range(3):
                if k != j:
                    d = complex(xs[j]) - complex(xs[k])
                    tot += (weierstrass_p(d + h, ev_s) - weierstrass_p(d - h, ev_s)) / (2 * h)
            want.append(-2 * tot)
        want = np.array(want)
        # eta = 1e-3 is already within O(eta^2) of the continuum sums
        assert np.abs(ratios[1] - want).max() < 1e-3 * max(1.0, np.abs(want).max())
        # and the eta sequence converges towards them
        d0 = np.abs(ratios[0] - want).max()
        d1 = np.abs(ratios[1] - want).max()
        assert d1 < d0 / 10


class TestFlow:
    def test_l1_exact_linear_trajectory(self, ev):
        x0 = 0.21 + 0.05j
        v = theta(1, 2 * ETA, ev) / theta1_prime(0.0, ev)
        res = integrate_flow(PoleConfig(xs=(x0,)), t_end=0.5, dt=0.01, ev=ev)
        got = res.trajectory[-1].xs[0]
        assert abs(got - (x0 + 0.5 * v)) < 1e-12
        assert res.locus_gaps.max() == 0

    def test_empty_config_is_fixed_point(self, ev):
        res = integrate_flow(PoleConfig(xs=()), t_end=0.1, dt=0.01, ev=ev)
        assert len(res.trajectory) == 11
        assert all(cfg.xs == () for cfg in res.trajectory)
        assert (res.locus_gaps == 0).all()

    def test_time_reversal(self, ev, onlocus_cfg):
        fwd = integrate_flow(onlocus_cfg, t_end=0.04, dt=0.004, ev=ev)
        back = integrate_flow(fwd.trajectory[-1], t_end=-0.04, dt=0.004, ev=ev)
        drift = max(
            abs(a - b) for a, b in zip(back.trajectory[-1].xs, onlocus_cfg.xs)
        )
        assert drift < 10 * 0.004**4 * 0.04 + 1e-12

    def test_locus_gap_stays_small_along_flow(self, ev, onlocus_cfg):
        res = integrate_flow(onlocus_cfg, t_end=0.05, dt=0.005, ev=ev)
        assert res.locus_gaps.max() < 1e-6

    def test_off_locus_rejected_with_gap(self, ev):
        cfg = PoleConfig(xs=(0.1, 0.47 + 0.21j, -0.29 + 0.4j))
        with pytest.raises(LocusError) as exc:
            integrate_flow(cfg, t_end=0.1, dt=0.01, ev=ev)
        assert exc.value.gap > 1e-3

    def test_degenerate_input_rejected(self, ev):
        with pytest.raises(MarginViolationError):
            integrate_flow(degenerate_poles(2, ev), t_end=0.1, dt=0.01, ev=ev)

    def test_dense_output_points_are_checked(self, monkeypatch, ev, onlocus_cfg):
        # the interior grid points come from the dense output in batches;
        # a gap that shows only there must still halt the flow
        real = volterra._flow_state

        def off_locus_batches(xs, ev):
            v1, v2, margin = real(xs, ev)
            return v1, (v2 + 1e-3 if xs.ndim == 2 else v2), margin

        monkeypatch.setattr(volterra, "_flow_state", off_locus_batches)
        with pytest.raises(LocusError, match=r"at t=0\.01$") as exc:
            integrate_flow(onlocus_cfg, t_end=0.2, dt=0.01, ev=ev)
        assert exc.value.gap == pytest.approx(1e-3, rel=1e-3)


class TestLocusSearch:
    def test_found_config_certified(self, ev, onlocus_cfg):
        rep = locus_residual(onlocus_cfg, ev)
        assert rep.max_norm < 1e-10
        assert check_margins(onlocus_cfg, ev) > 1e-3

    def test_recentered(self, ev, onlocus_cfg):
        centroid = sum(onlocus_cfg.xs) / len(onlocus_cfg.xs)
        assert abs(centroid) < 1e-9

    def test_rigid_configuration_rejected(self):
        # without the rigid rule this seed's search ends next to a 3-torsion
        # set such as {0, tau/3, 2 tau/3}, whose flow only translates
        ev2 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=2 / 31, tol=1e-12))
        cfg = find_locus_config(2, ev2, np.random.default_rng(1089441782))
        assert cfg is not None and cfg.M == 3
        v, _ = pole_rhs(cfg, ev2)
        assert np.abs(v - v.mean()).max() > RIGID_TOL * np.abs(v).max()


class TestNonRigidIsospectrality:
    """At ell = 3 (M = 6) the located flows deform the pole set, not just
    translate it, so the Bloch spectrum check below can fail."""

    ev3 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 31, tol=1e-12))
    re3 = RationalEta(1, 31)

    def spectra(self, cfg):
        cvals = coefficient_samples(lambda x: c_from_poles(cfg, x, self.ev3), self.re3, 0.123456)
        avals = np.ones(self.re3.Q, dtype=complex)
        return numeric_band_edges_from_coefficients(avals, cvals).spectra

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_preserved_along_nonrigid_flow(self, seed):
        cfg = find_locus_config(3, self.ev3, np.random.default_rng(seed))
        assert cfg is not None and cfg.M == 6
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=self.ev3)
        start = np.array(res.trajectory[0].xs)
        moved = np.array(res.trajectory[-1].xs) - start
        assert np.abs(moved - moved.mean()).max() > 1e-4
        s0 = self.spectra(res.trajectory[0])
        assert np.abs(self.spectra(res.trajectory[-1]) - s0).max() <= 1e-10
        rng = np.random.default_rng(seed)
        kick = 1e-3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        perturbed = PoleConfig(xs=tuple(start + kick))
        assert np.abs(self.spectra(perturbed) - s0).max() > 1e-5


FLOW_GRID = [
    pytest.param(M, tau, eta, id=f"M{M}-tau{tau}-eta{eta:.4g}")
    for M in (0, 1, 3, 6, 10)
    for tau in (1.2j, 0.3 + 1.4j)
    for eta in (1 / 31, 0.17)
]


def _flow_start(M, ev):
    """An on-locus start with M poles: a located, non-rigid set at M = 3 and
    6; otherwise (M = 10, whose search can overflow at eta = 0.17) a coset of
    the subgroup generated by (1 + tau)/M, where every pole sees the same
    differences, so the systems agree and the flow translates."""
    if M in (3, 6):
        cfg = find_locus_config({3: 2, 6: 3}[M], ev, np.random.default_rng(0))
        assert cfg is not None and cfg.M == M
        return cfg
    return PoleConfig(xs=tuple(0.21 + 0.05j + k * (1 + ev.tau) / M for k in range(M)))


class TestFlowMatchesReference:
    """The pair products against the ones-matrix route written as a
    reference, and batches of pole sets against single sets."""

    @pytest.mark.parametrize("M,tau,eta", FLOW_GRID)
    def test_flow_state_matches_reference(self, M, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        xs = np.array(_random_poles(M, ev_g, seed=M).xs, dtype=complex)
        got, want = volterra._flow_state(xs, ev_g), _reference_flow_state(xs, ev_g)
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape == (M,)
            assert (g == w).all()
        assert got[2] == want[2]

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [1 / 31, 0.17, 0.11 + 0.05j])
    @pytest.mark.parametrize("batch", [(), (4,), (2, 3), (20,)], ids=["1d", "4", "2x3", "20"])
    def test_pair_products_are_R_bit_for_bit(self, tau, eta, batch):
        # the products gathered from the pair table against the rows and
        # columns of the ones matrix R, at M 1-10, one pole set or a batch
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        rng = np.random.default_rng(len(batch) + 7)
        checked = 0
        for M in range(1, 11):
            shape = batch + (M,)
            xs = rng.uniform(-0.5, 0.5, shape) + 1j * tau.imag * rng.uniform(-0.5, 0.5, shape)
            try:
                R, _, want_margin = _reference_pair_thetas(xs, ev_g)
            except MarginViolationError:
                with pytest.raises(MarginViolationError):
                    volterra._pair_thetas(xs, ev_g)
                continue
            p1, p2, margin = volterra._pair_thetas(xs, ev_g)
            for got, want in ((p1, R.prod(axis=-1)), (p2, R.prod(axis=-2))):
                assert got.shape == want.shape == shape
                assert got.tobytes() == want.tobytes()
            assert type(margin) is type(want_margin)
            assert np.array_equal(margin, want_margin)
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("M,tau,eta", [p for p in FLOW_GRID if p.values[0] == 1])
    def test_single_pole_moves_at_the_table_scale(self, M, tau, eta):
        # no pair: both systems are the empty product, so the one pole's
        # velocity is the scale itself, theta1(2 eta)/theta1'(0)
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        v1, v2, margin = volterra._flow_state(np.full(M, 0.21 + 0.05j), ev_g)
        want = theta1_multiples(2, ev_g)[2] / ev_g.theta1_prime0
        assert v1[0] == v2[0] == want and margin == float("inf")

    @pytest.mark.parametrize("M,tau,eta", FLOW_GRID)
    def test_batched_sets_match_single_sets(self, M, tau, eta):
        # a (sets, M) batch is one theta call, so its series cutoff follows
        # the largest |Im| over every set (a set may sum extra terms, each
        # under tol/100 of the scale, in each of its 4(M-1) factors) and its
        # taller point table may take another BLAS kernel, which sums in
        # another order; hence a bound, 1e-12 relative, and not ==
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        xs = np.array([_random_poles(M, ev_g, seed=M + 10 * b).xs for b in range(5)], dtype=complex)
        xs = xs.reshape(5, M)
        v1, v2, margins = volterra._flow_state(xs, ev_g)
        assert v1.shape == v2.shape == (5, M) and margins.shape == (5,)
        for b in range(5):
            w1, w2, margin = volterra._flow_state(xs[b], ev_g)
            np.testing.assert_allclose(v1[b], w1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(v2[b], w2, rtol=1e-12, atol=0)
            assert margins[b] == pytest.approx(margin, rel=1e-12)

    def test_batch_margin_violation_raises(self, ev):
        good = np.array(_random_poles(3, ev, seed=3).xs)
        bad = np.array([0.1 + 0.05j, 0.1 + 0.05j + ETA + 1e-9, -0.3 + 0.2j])
        with pytest.raises(MarginViolationError):
            volterra._flow_state(np.array([good, bad]), ev)

    def test_margin_violation_raises_on_both_routes(self, monkeypatch, ev):
        cfg = PoleConfig(xs=(0.1 + 0.05j, 0.1 + 0.05j + ETA + 1e-9, -0.3 + 0.2j))
        with pytest.raises(MarginViolationError):
            integrate_flow(cfg, t_end=0.1, dt=0.01, ev=ev)
        monkeypatch.setattr(volterra, "_flow_state", _reference_flow_state)
        with pytest.raises(MarginViolationError):
            integrate_flow(cfg, t_end=0.1, dt=0.01, ev=ev)


def _rk4_reference(cfg0, t_end, dt, ev):
    """The fixed-step classical RK4 integrator the Dormand-Prince pair
    replaced, as it was: four evaluations per step, the locus gap checked at
    every step.  Returns the (steps + 1, M) array of pole sets."""
    xs = np.array(cfg0.xs, dtype=complex)
    v1, v2, _ = volterra._flow_state(xs, ev)

    def rhs(xs):
        return volterra._flow_state(xs, ev)[0]

    n_steps = max(1, round(abs(t_end) / abs(dt)))
    h = t_end / n_steps
    out = [xs]
    for _ in range(n_steps):
        k1 = v1
        k2 = rhs(xs + 0.5 * h * k1)
        k3 = rhs(xs + 0.5 * h * k2)
        k4 = rhs(xs + h * k3)
        xs = xs + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v1, v2, _ = volterra._flow_state(xs, ev)
        gap = float(np.abs(v1 - v2).max(initial=0.0))
        if cfg0.M > 1 and gap > volterra.GAP_FACTOR * volterra.LOCUS_TOL * max(1.0, float(np.abs(v1).max())):
            raise LocusError(f"reference: locus consistency degraded to {gap:.3e}", gap=gap)
        out.append(xs)
    return np.array(out).reshape(n_steps + 1, cfg0.M)


def _edge_drift(cfg0, cfg1, ev, re):
    """Largest move of the confident Bloch edges (inf when their count changes)."""
    def edges(cfg):
        cvals = coefficient_samples(lambda x: c_from_poles(cfg, x, ev), re, 0.123456)
        cand = numeric_band_edges_from_coefficients(np.ones(re.Q, dtype=complex), cvals)
        return np.sort(cand.confident_values().real)

    e0, e1 = edges(cfg0), edges(cfg1)
    return float(np.abs(e0 - e1).max()) if len(e0) == len(e1) else float("inf")


class TestFlowAccuracy:
    """The error-controlled flow against fixed-step RK4 at dt = 5e-4, whose
    error over t = 0.2 is about 1e-11 at the hardest start below."""

    @pytest.mark.parametrize("M,tau,eta", FLOW_GRID)
    def test_matches_fine_rk4_at_every_grid_point(self, M, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        cfg = _flow_start(M, ev_g)
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev_g)
        assert [c.t for c in res.trajectory] == np.linspace(0.0, 0.2, 21).tolist()
        got = np.array([c.xs for c in res.trajectory], dtype=complex).reshape(21, M)
        want = _rk4_reference(cfg, 0.2, 5e-4, ev_g)[::20]
        scale = 1.0 + np.abs(want).max(axis=1, initial=0.0)
        assert (np.abs(got - want).max(axis=1, initial=0.0) <= 1e-10 * scale).all()
        assert np.abs(got[-1] - want[-1]).max(initial=0.0) <= 1e-12 * scale[-1]
        # the gap follows the pole set, and at eta = 0.17, tau = 1.2i (M = 3
        # and 6) it magnifies the poles' rounding: it swings between 1e-12 and
        # 6e-11 along the flow on both routes, and by 1e-10 with another valid
        # step sequence.  So no gap may exceed the reference's largest by more
        # than the poles' own bound, 1e-10 max(1, max|v1|)
        w1, w2, _ = volterra._flow_state(want, ev_g)
        want_gap = np.abs(w1 - w2).max(initial=0.0)
        bound = 1e-10 * max(1.0, float(np.abs(w1[0]).max(initial=0.0)))
        assert res.locus_gaps.max() <= want_gap + bound
        assert res.margins.shape == (21,) and (res.margins > MARGIN_TOL).all()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_flows_halted_by_rk4_error_finish(self, seed):
        # at eta = 0.17 these M = 6 flows left the RK4 gap guard at t = 0.01
        ev17 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
        cfg = find_locus_config(3, ev17, np.random.default_rng(seed))
        assert cfg is not None and cfg.M == 6
        with pytest.raises(LocusError):
            _rk4_reference(cfg, 0.2, 0.01, ev17)
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev17)
        assert len(res.trajectory) == 21
        assert _edge_drift(res.trajectory[0], res.trajectory[-1], ev17, RationalEta(17, 100)) <= 1e-6

    def test_edge_drift_check_can_fail(self, monkeypatch):
        # negating every velocity only reverses time, which is isospectral
        # too; negating one pole's velocity is not.  Both systems return the
        # same velocity, so the locus guard cannot stop the flow and the edge
        # drift alone must catch it
        ev17 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))
        cfg = find_locus_config(3, ev17, np.random.default_rng(0))
        real = volterra._flow_state

        def flipped(xs, ev):
            v1, _, margin = real(xs, ev)
            v1 = v1.copy()
            v1[..., 0] *= -1
            return v1, v1, margin

        monkeypatch.setattr(volterra, "_flow_state", flipped)
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev17)
        assert _edge_drift(res.trajectory[0], res.trajectory[-1], ev17, RationalEta(17, 100)) > 1e-6


def _planted_stages(monkeypatch, infinite):
    """``volterra._flow_state`` with an infinite velocity on the calls whose
    index i (0 the start, then the stages and grid batches in order)
    satisfies ``infinite(i)``; a call at a non-finite pole set fails the
    test.  Returns the indices of the planted calls."""
    real = volterra._flow_state
    planted = []

    def stage(xs, ev):
        assert np.isfinite(xs).all(), "a stage was evaluated at a non-finite pole set"
        i = stage.calls
        stage.calls += 1
        v1, v2, margin = real(xs, ev)
        if infinite(i):
            planted.append(i)
            v1 = np.full_like(v1, np.inf)
        return v1, v2, margin

    stage.calls = 0
    monkeypatch.setattr(volterra, "_flow_state", stage)
    return planted


class TestFlowStops:
    """A trial step whose stages leave the double range is rejected before
    any stage is evaluated there, and a step size below 1e-14 of the span
    raises ConvergenceError."""

    def test_non_finite_trial_is_rejected(self, monkeypatch, ev, onlocus_cfg):
        want = integrate_flow(onlocus_cfg, t_end=0.05, dt=0.01, ev=ev)
        # the first stage of the first trial step
        planted = _planted_stages(monkeypatch, lambda i: i == 1)
        got = integrate_flow(onlocus_cfg, t_end=0.05, dt=0.01, ev=ev)
        assert planted == [1]
        assert [s.t for s in got.trajectory] == [s.t for s in want.trajectory]
        np.testing.assert_allclose(np.array([s.xs for s in got.trajectory]),
                                   np.array([s.xs for s in want.trajectory]), rtol=0, atol=1e-10)
        assert got.locus_gaps.max() < 1e-8

    def test_step_size_underflow_raises(self, monkeypatch, ev, onlocus_cfg):
        # every trial step is rejected, so h shrinks by 5 each time
        planted = _planted_stages(monkeypatch, lambda i: i > 0)
        with pytest.raises(ConvergenceError, match=r"^flow step size underflow at t=0$"):
            integrate_flow(onlocus_cfg, t_end=0.05, dt=0.01, ev=ev)
        # 0.05 * 0.2^k <= 1e-14 * 0.05 from k = 21 on
        assert len(planted) == 21


def _planted_margins(monkeypatch, violates):
    """``volterra.locus_residual`` raising MarginViolationError on the calls
    whose index i (from 0) satisfies ``violates(i)``; returns those indices."""
    real = volterra.locus_residual
    raised = []

    def residual(cfg, ev):
        i = residual.calls
        residual.calls += 1
        if violates(i):
            raised.append(i)
            raise MarginViolationError("planted margin violation")
        return real(cfg, ev)

    residual.calls = 0
    monkeypatch.setattr(volterra, "locus_residual", residual)
    return raised


class TestLocusSearchSkips:
    """A margin violation at a seed ends its attempt, in a Jacobian column
    ends the attempt too, and in the line search halves the step; when every
    attempt fails the search returns None.  At ell 2 (M = 3) an attempt reads
    its seed (call 0), then three Jacobian columns (1-3), then line-search
    trials (4 on)."""

    @pytest.mark.parametrize("where,call", [("seed", 0), ("jacobian", 1), ("line-search", 4)])
    def test_violation_is_skipped(self, monkeypatch, ev, where, call):
        raised = _planted_margins(monkeypatch, lambda i: i == call)
        cfg = find_locus_config(2, ev, np.random.default_rng(7))
        assert raised == [call]
        assert cfg is not None and cfg.M == 3
        assert locus_residual(cfg, ev).max_norm < 1e-10

    def test_every_attempt_failing_returns_none(self, monkeypatch, ev):
        raised = _planted_margins(monkeypatch, lambda i: True)
        assert find_locus_config(2, ev, np.random.default_rng(7)) is None
        assert len(raised) == volterra.LOCUS_ATTEMPTS
