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
from lame_spectra.errors import LocusError, MarginViolationError, PoleProximityError
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
    """The pair table as built before its index tables carried the D = 0 row
    and the products were gathered: np.append of D = 0, and R scattered into
    a ones matrix."""
    M = len(xs)
    j, k = np.triu_indices(M, 1)
    vals = theta(1, np.append(xs[j] - xs[k], 0.0), ev, shifts=volterra._SHIFTS * ev.eta)
    T = vals[:-1]
    worst = float(np.abs(T).min()) / abs(ev.theta1_prime0) if M > 1 else float("inf")
    if worst < MARGIN_TOL:
        raise MarginViolationError(f"reference margin {worst:.3e}")
    r = (T[:, 0:2] * T[:, 2:4]) / (T[:, 3:1:-1] * T[:, 4:])
    R = np.ones((M, M), dtype=complex)
    R[j, k] = r[:, 0]
    R[k, j] = r[:, 1]
    return R, vals[-1, 0], worst


def _reference_flow_state(xs, ev):
    R, theta1_2eta, margin = _reference_pair_thetas(xs, ev)
    scale = theta1_2eta / ev.theta1_prime0
    return scale * R.prod(axis=1), scale * R.prod(axis=0), margin


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
    cfg = find_locus_config(2, ev, np.random.default_rng(7), n_attempts=30)
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
        # differences and D = 0 (for theta1(2 eta)), each at the five shifts
        pole_rhs(_random_poles(M, ev, seed=M), ev)
        (args,) = calls
        assert np.size(args[1]) == M * (M - 1) // 2 + 1

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_flow_makes_four_calls_per_step(self, calls, ev, onlocus_cfg, n_steps):
        calls.clear()
        res = integrate_flow(onlocus_cfg, t_end=0.01 * n_steps, dt=0.01, ev=ev)
        assert len(res.trajectory) == n_steps + 1
        assert len(calls) == 4 * n_steps + 1


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
        w1, w2 = pole_rhs(onlocus_cfg.translated(0.21 - 0.13j), ev)
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
        r2 = locus_residual(onlocus_cfg.translated(1.7 + 0.4j), ev)
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
    """The gathered pair products against the ones-matrix route they replaced."""

    @pytest.mark.parametrize("M,tau,eta", FLOW_GRID)
    def test_flow_state_matches_reference(self, M, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        xs = np.array(_random_poles(M, ev_g, seed=M).xs, dtype=complex)
        got, want = volterra._flow_state(xs, ev_g), _reference_flow_state(xs, ev_g)
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape == (M,)
            assert (g == w).all()
        assert got[2] == want[2]

    @pytest.mark.parametrize("M,tau,eta", FLOW_GRID)
    def test_integrate_flow_matches_reference(self, monkeypatch, M, tau, eta):
        ev_g = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        cfg = _flow_start(M, ev_g)

        def run():
            # a flow whose locus gap grows past its bound halts, on both routes
            try:
                return integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev_g)
            except LocusError as exc:
                return exc

        got = run()
        monkeypatch.setattr(volterra, "_flow_state", _reference_flow_state)
        want = run()
        v1 = _reference_flow_state(np.array(cfg.xs, dtype=complex), ev_g)[0]
        bound = 1e-15 * max(1.0, float(np.abs(v1).max(initial=0.0)))
        assert type(got) is type(want)
        if isinstance(want, LocusError):
            assert abs(got.gap - want.gap) <= bound
            return
        assert [c.xs for c in got.trajectory] == [c.xs for c in want.trajectory]
        assert [c.t for c in got.trajectory] == [c.t for c in want.trajectory]
        assert (got.margins == want.margins).all()
        assert np.abs(got.locus_gaps - want.locus_gaps).max() <= bound

    def test_margin_violation_raises_on_both_routes(self, monkeypatch, ev):
        cfg = PoleConfig(xs=(0.1 + 0.05j, 0.1 + 0.05j + ETA + 1e-9, -0.3 + 0.2j))
        with pytest.raises(MarginViolationError):
            integrate_flow(cfg, t_end=0.1, dt=0.01, ev=ev)
        monkeypatch.setattr(volterra, "_flow_state", _reference_flow_state)
        with pytest.raises(MarginViolationError):
            integrate_flow(cfg, t_end=0.1, dt=0.01, ev=ev)
