"""Theta evaluator tests against independent oracles.

The product-formula oracle below implements

    theta1(x) = 2 sin(pi x) e^(i pi tau/4) prod_k (1-p^k)(1-p^k e^(2i pi x))(1-p^k e^(-2i pi x))

(p = e^(2i pi tau)) and its even-index companions, truncated independently of
the series code under test.
"""

import cmath
import importlib
import math

import numpy as np
import pytest

from lame_spectra import EllipticParams, ThetaEvaluator, theta, theta1_prime, theta_halfshift, weierstrass_p
from lame_spectra.errors import PoleProximityError
from lame_spectra.theta import _CHAR, _SPLIT_LOG_MAX, _to_cell

# the package binds the function ``theta`` over its submodule's name
theta_module = importlib.import_module("lame_spectra.theta")


def product_theta(a, x, tau, tol=1e-14):
    p = cmath.exp(2j * math.pi * tau)
    if a == 1:
        out = 2 * cmath.sin(math.pi * x) * cmath.exp(1j * math.pi * tau / 4)
    elif a == 2:
        out = 2 * cmath.cos(math.pi * x) * cmath.exp(1j * math.pi * tau / 4)
    else:
        out = 1.0 + 0j
    kmax = max(8, int(math.ceil(math.log(tol) / math.log(abs(p)))) + 4 + int(abs(x.imag) * 4))
    for k in range(1, kmax):
        pk = p**k
        out *= 1 - pk
        if a == 1:
            out *= (1 - pk * cmath.exp(2j * math.pi * x)) * (1 - pk * cmath.exp(-2j * math.pi * x))
        elif a == 2:
            out *= (1 + pk * cmath.exp(2j * math.pi * x)) * (1 + pk * cmath.exp(-2j * math.pi * x))
        elif a == 3:
            h = p ** (k - 0.5)
            out *= (1 + h * cmath.exp(2j * math.pi * x)) * (1 + h * cmath.exp(-2j * math.pi * x))
        else:
            h = p ** (k - 0.5)
            out *= (1 - h * cmath.exp(2j * math.pi * x)) * (1 - h * cmath.exp(-2j * math.pi * x))
    return out


@pytest.fixture
def ev():
    return ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))


class TestSeries:
    def test_theta1_odd_at_zero(self, ev):
        assert abs(theta(1, 0.0, ev)) < 1e-12

    def test_theta1_oddness(self, ev):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            assert abs(theta(1, x, ev) + theta(1, -x, ev)) < 1e-12

    def test_theta1_unit_shift_flips_sign(self, ev):
        x = 0.37 + 0.11j
        assert theta(1, x + 1, ev) == pytest.approx(-theta(1, x, ev), rel=1e-12)

    def test_trigonometric_limit(self):
        ev40 = ThetaEvaluator(EllipticParams(tau=40j, eta=0.2, tol=1e-12))
        val = cmath.exp(-1j * math.pi * 40j / 4) * theta(1, 0.3, ev40)
        assert abs(val - 2 * math.sin(0.3 * math.pi)) < 1e-12

    def test_series_vs_product(self):
        ev13 = ThetaEvaluator(EllipticParams(tau=1.3j, eta=0.17, tol=1e-12))
        x = 0.37 + 0.11j
        got = theta(1, x, ev13)
        want = product_theta(1, x, 1.3j)
        assert abs(got - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("tau", [1.0j, 1.3j, 0.5 + 1.5j])
    def test_series_product_consistency_grid(self, tau):
        ev_t = ThetaEvaluator(EllipticParams(tau=tau, eta=0.17, tol=1e-12))
        rng = np.random.default_rng(11)
        for a in (1, 2, 3, 4):
            for _ in range(25):
                x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
                got = theta(a, x, ev_t)
                want = product_theta(a, x, tau)
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_array_input(self, ev):
        xs = np.array([0.1, 0.2 + 0.1j, -0.4])
        vals = theta(1, xs, ev)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(theta(1, 0.1, ev))

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_array_input(self, ev, shape):
        vals = theta(1, np.zeros(shape, dtype=complex), ev)
        assert vals.shape == shape
        assert vals.dtype == complex

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            pytest.param({"tau": -1.0j, "eta": 0.1}, "tau", id="im-tau-negative"),
            pytest.param({"tau": complex("1e400j"), "eta": 0.1}, "tau", id="tau-inf"),
            pytest.param({"tau": complex("nan+1j"), "eta": 0.1}, "tau", id="tau-nan"),
            pytest.param({"tau": 1.2j, "eta": float("nan")}, "eta", id="eta-nan"),
            pytest.param({"tau": 1.2j, "eta": float("inf")}, "eta", id="eta-inf"),
            pytest.param({"tau": 1.2j, "eta": float("1e400")}, "eta", id="eta-1e400"),
            pytest.param({"tau": 1.2j, "eta": 0.0}, "eta", id="eta-zero"),
            pytest.param({"tau": 1.2j, "eta": 0.1, "tol": float("inf")}, "tol", id="tol-inf"),
            pytest.param({"tau": 1.2j, "eta": 0.1, "tol": float("nan")}, "tol", id="tol-nan"),
            pytest.param({"tau": 1.2j, "eta": 0.1, "tol": 0.0}, "tol", id="tol-zero"),
        ],
    )
    def test_params_guard(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            EllipticParams(**kwargs)

    def test_cutoff_stability(self, ev):
        from lame_spectra.theta import _series

        rng = np.random.default_rng(3)
        n = ev.series_cutoff
        for a in (1, 2, 3, 4):
            for _ in range(10):
                x = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
                v1 = _series(a, x, ev.tau, n, 0)
                v2 = _series(a, x, ev.tau, 2 * n, 0)
                assert abs(v1 - v2) < ev.tol

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j, 0.8j, 40j])
    @pytest.mark.parametrize("tol", [1e-12, 1e-14, 1e-8])
    def test_cutoffs_unchanged(self, tau, tol):
        # the constant of cutoff_for is computed once per evaluator; the
        # cutoffs must be those of the per-call formula
        ev_t = ThetaEvaluator(EllipticParams(tau=tau, eta=0.17, tol=tol))

        def per_call(im_x):
            c = -(math.log(tol) + math.log(1e-2)) / math.pi
            m_star = (abs(im_x) + math.sqrt(im_x * im_x + tau.imag * c)) / tau.imag
            return max(ev_t.series_cutoff, math.ceil(m_star) + 2)

        for im_x in np.concatenate([np.linspace(0, 2, 41), np.linspace(2, 60, 59), -np.linspace(0, 13, 27)]):
            assert ev_t.cutoff_for(float(im_x)) == per_call(float(im_x))


class TestMonodromy:
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_unit_and_tau_shifts(self, ev, a):
        rng = np.random.default_rng(a)
        s1 = (-1) ** (int(a == 1) + int(a == 2))
        st = (-1) ** (int(a == 1) + int(a == 4))
        for _ in range(8):
            x = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            v = theta(a, x, ev)
            for sgn in (1, -1):
                assert abs(theta(a, x + sgn, ev) - s1 * v) < 1e-11 * max(abs(v), 1)
                fac = st * cmath.exp(-1j * math.pi * ev.tau - sgn * 2j * math.pi * x)
                got = theta(a, x + sgn * ev.tau, ev)
                assert abs(got - fac * v) < 1e-11 * max(abs(fac * v), 1)

    def test_far_points_match_product(self, ev):
        # far off the real axis, where the split terms stay in range (3.7) and
        # where the points are first reduced to the fundamental cell (7.7)
        for c in (3.7, 7.7):
            x = 0.3 + c * ev.tau + 2.0
            want = product_theta(1, x, ev.tau)
            assert abs(theta(1, x, ev) - want) < 1e-9 * abs(want)


class TestDerivative:
    def test_even_function(self, ev):
        x = 0.23 + 0.06j
        assert theta1_prime(x, ev) == pytest.approx(theta1_prime(-x, ev), rel=1e-12)

    def test_finite_difference_order(self, ev):
        x = 0.31 + 0.12j
        errs = []
        for h in (1e-3, 1e-4):
            fd = (theta(1, x + h, ev) - theta(1, x - h, ev)) / (2 * h)
            errs.append(abs(theta1_prime(x, ev) - fd))
        # central differences: error ~ h^2
        assert errs[0] < 1e-4
        assert errs[1] < 1e-6
        assert errs[0] / errs[1] == pytest.approx(100, rel=0.2)

    def test_nonzero_at_origin(self):
        ev12 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.1))
        assert abs(theta1_prime(0.0, ev12)) > 1.0


class TestHalfShifts:
    def test_half_one(self, ev):
        x = 0.21 + 0.04j
        assert theta_halfshift(x, "1/2", ev) == pytest.approx(theta(2, x, ev), rel=1e-11)
        assert theta_halfshift(x, "1/2", ev, sign=-1) == pytest.approx(-theta(2, x, ev), rel=1e-11)

    def test_half_tau(self, ev):
        x = 0.21 + 0.04j
        want = 1j * cmath.exp(-1j * math.pi * ev.tau / 4 - 1j * math.pi * x) * theta(4, x, ev)
        assert theta_halfshift(x, "tau/2", ev) == pytest.approx(want, rel=1e-11)

    def test_half_both(self, ev):
        x = 0.17 - 0.02j
        want = cmath.exp(-1j * math.pi * ev.tau / 4 - 1j * math.pi * x) * theta(3, x, ev)
        assert theta_halfshift(x, "(1+tau)/2", ev) == pytest.approx(want, rel=1e-11)

    def test_at_zero(self, ev):
        assert theta_halfshift(0.0, "1/2", ev) == pytest.approx(theta(2, 0.0, ev), rel=1e-12)

    def test_bad_label(self, ev):
        with pytest.raises(ValueError):
            theta_halfshift(0.1, "1/3", ev)


class TestWeierstrass:
    def test_even(self, ev):
        x = 0.29 + 0.08j
        assert weierstrass_p(x, ev) == pytest.approx(weierstrass_p(-x, ev), rel=1e-11)

    def test_periodic(self, ev):
        x = 0.29 + 0.08j
        assert weierstrass_p(x + 1, ev) == pytest.approx(weierstrass_p(x, ev), rel=1e-10)
        assert weierstrass_p(x + ev.tau, ev) == pytest.approx(weierstrass_p(x, ev), rel=1e-9)

    def test_second_difference_oracle(self):
        ev11 = ThetaEvaluator(EllipticParams(tau=1.1j, eta=0.17, tol=1e-14))
        x = 0.31
        h = 1e-4
        logs = [cmath.log(theta(1, x + d, ev11)) for d in (-h, 0.0, h)]
        fd = (logs[0] - 2 * logs[1] + logs[2]) / h**2
        assert abs(weierstrass_p(x, ev11) + fd) < 1e-6

    def test_pole_guard(self, ev):
        with pytest.raises(PoleProximityError):
            weierstrass_p(0.0, ev)


def _plain_series(a, x, tau, n_terms, deriv):
    """The plain series route as written before shift tables existed, one exp
    per point and term; plain ``theta`` calls must agree with it to rounding."""
    alpha, beta = _CHAR[a]
    if alpha == 0.5:
        k = np.arange(-(n_terms + 1), n_terms + 1)
    else:
        k = np.arange(-n_terms, n_terms + 1)
    m = k + alpha
    xs = np.asarray(x, dtype=complex)
    expo = 1j * math.pi * tau * m**2 + 2j * math.pi * (xs[..., None] + beta) * m
    terms = np.exp(expo)
    if deriv:
        terms = terms * (2j * math.pi * m) ** deriv
    s = terms.sum(axis=-1)
    return -s if a == 1 else s


def _uncached_theta_shifted(a, x, shifts, ev):
    """The shifted-table route as written before its shift-exp matrices were
    cached; cached calls must keep returning exactly this."""
    xs = np.asarray(x, dtype=complex)
    s = np.asarray(shifts, dtype=complex)
    shape = xs.shape + s.shape
    if xs.size == 0 or s.size == 0:
        return np.empty(shape, dtype=complex)
    xs, s = xs.ravel(), s.ravel()
    tau = ev.tau
    im_s = float(np.abs(s.imag).max())
    im_x = float(np.abs(xs.imag).max())
    n = ev.cutoff_for(im_x + im_s)
    factor = None
    if 2 * math.pi * im_x * (n + 1) > _SPLIT_LOG_MAX:
        xs, k, factor = _to_cell(a, xs, tau)
        factor = factor[:, None] * np.exp(-2j * math.pi * np.outer(k, s))
        im_x = float(np.abs(xs.imag).max())
        n = ev.cutoff_for(im_x + im_s)
    alpha, beta = _CHAR[a]
    if 2 * math.pi * im_x * (n + 1) <= _SPLIT_LOG_MAX:
        m = np.arange(-(n + 1) if alpha == 0.5 else -n, n + 1) + alpha
        point_exp = np.exp((2j * math.pi * xs)[:, None] * m)
        shift_exp = np.exp((1j * math.pi * tau) * (m * m)[:, None] + (2j * math.pi) * np.outer(m, s + beta))
        out = point_exp @ shift_exp
        if a == 1:
            out = -out
    else:
        out = _plain_series(a, xs[:, None] + s, tau, n, 0)
    if factor is not None:
        out = out * factor
    return out.reshape(shape)


class TestShiftTable:
    """theta(a, x, ev, shifts=s)[..., i] is theta_a(x + s[i])."""

    @staticmethod
    def _points(shape, tau, seed, im_max=0.6):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, shape) + 1j * tau.imag * rng.uniform(-im_max, im_max, shape)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [0.17, 2 / 31, 0.11 + 0.05j])
    def test_matches_plain_calls(self, a, tau, eta, deriv):
        ev_t = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        shifts = np.array([0, 1, -1, 2, -2]) * eta
        x = self._points((3, 4), tau, seed=a)
        got = theta(a, x, ev_t, deriv=deriv, shifts=shifts)
        assert got.shape == (3, 4, 5)
        want = theta(a, x[..., None] + shifts, ev_t, deriv=deriv)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        x0 = complex(x[1, 2])
        got0 = theta(a, x0, ev_t, deriv=deriv, shifts=shifts)
        assert got0.shape == (5,)
        want0 = [theta(a, x0 + s, ev_t, deriv=deriv) for s in shifts]
        np.testing.assert_allclose(got0, want0, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_points(self, ev, shape):
        vals = theta(1, np.zeros(shape, dtype=complex), ev, shifts=[0, 0.17])
        assert vals.shape == shape + (2,)
        assert vals.dtype == complex

    def test_empty_shifts(self, ev):
        assert theta(1, np.ones(3), ev, shifts=[]).shape == (3, 0)

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_large_imaginary_parts_are_reduced(self, a):
        # the split factor exp(2i*pi*x*m) alone would overflow here; the
        # unreduced series is itself only good to ~1e-12 at |Im x| = 12 (the
        # phase 2*pi*x*m carries |x*m| ulps), so the reference is the plain
        # call, which reduces such points to the fundamental cell
        ev8 = ThetaEvaluator(EllipticParams(tau=0.8j, eta=0.17, tol=1e-12))
        rng = np.random.default_rng(a)
        x = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-12, 12, 40)
        x[:2] = [0.3 + 12j, -0.2 - 12j]
        shifts = np.array([0, 1, -1, 2, -2]) * ev8.eta
        got = theta(a, x, ev8, shifts=shifts)  # warnings are errors (pyproject.toml)
        assert np.isfinite(got).all()
        y = x[:, None] + shifts
        np.testing.assert_allclose(got, theta(a, y, ev8), rtol=1e-13, atol=0)
        unreduced = _plain_series(a, y, ev8.tau, ev8.cutoff_for(float(np.abs(y.imag).max())), 0)
        np.testing.assert_allclose(got, unreduced, rtol=1e-11, atol=0)

    def test_large_im_tau(self):
        # a cell so tall that even reduced points leave the split range
        ev40 = ThetaEvaluator(EllipticParams(tau=40j, eta=0.2, tol=1e-12))
        x = np.array([0.3 + 19j, -0.1 - 15j, 0.2])
        shifts = np.array([0, 0.2, -0.4])
        got = theta(1, x, ev40, shifts=shifts)
        np.testing.assert_allclose(got, theta(1, x[:, None] + shifts, ev40), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_plain_calls_match_series(self, ev, a, deriv):
        x = self._points((7,), ev.tau, seed=10 + a, im_max=1.5)
        n = ev.cutoff_for(float(np.abs(x.imag).max()) + 0.05 * deriv)
        np.testing.assert_allclose(theta(a, x, ev, deriv=deriv), _plain_series(a, x, ev.tau, n, deriv),
                                   rtol=1e-13, atol=0)
        x0 = complex(x[3])
        n0 = ev.cutoff_for(abs(x0.imag) + 0.05 * deriv)
        got0 = theta(a, x0, ev, deriv=deriv)
        assert isinstance(got0, complex)
        assert got0 == pytest.approx(complex(_plain_series(a, x0, ev.tau, n0, deriv)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [1 / 101, 0.11 + 0.05j])
    def test_plain_calls_are_batch_invariant(self, ev, a, eta, deriv):
        # the elliptic-integer tables promise bit for bit the sequential
        # scalar route, so a point's plain value must not depend on the other
        # points of its call (a BLAS product's order depends on their count)
        x = np.arange(3, 20) * eta
        n = ev.cutoff_for(float(np.abs(x.imag).max()) + 0.05 * deriv)
        assert all(ev.cutoff_for(abs(xi.imag) + 0.05 * deriv) == n for xi in x)
        batch = theta(a, x, ev, deriv=deriv)
        for i, xi in enumerate(x):
            assert batch[i] == theta(a, complex(xi), ev, deriv=deriv)
            assert batch[i] == theta(a, x[i:], ev, deriv=deriv)[0]

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [0.17, 2 / 31, 0.11 + 0.05j])
    def test_cached_route_matches_uncached_copy(self, a, tau, eta):
        ev_t = ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))
        shifts = np.array([2, -2, -1, 1, 0]) * eta
        x = self._points((3, 4), tau, seed=a)
        want = _uncached_theta_shifted(a, x, shifts, ev_t)
        theta_module._shift_table.cache_clear()
        for _ in range(2):  # builds the shift table, then reads it back
            assert (theta(a, x, ev_t, shifts=shifts) == want).all()

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_cached_route_matches_uncached_copy_when_reduced(self, a):
        ev8 = ThetaEvaluator(EllipticParams(tau=0.8j, eta=0.17, tol=1e-12))
        rng = np.random.default_rng(a)
        x = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-12, 12, 40)
        shifts = np.array([0, 1, -1, 2, -2]) * ev8.eta
        want = _uncached_theta_shifted(a, x, shifts, ev8)
        theta_module._shift_table.cache_clear()
        for _ in range(2):
            assert (theta(a, x, ev8, shifts=shifts) == want).all()
        ev40 = ThetaEvaluator(EllipticParams(tau=40j, eta=0.2, tol=1e-12))
        x = np.array([0.3 + 19j, -0.1 - 15j, 0.2])
        shifts = np.array([0, 0.2, -0.4])
        want = _uncached_theta_shifted(a, x, shifts, ev40)
        for _ in range(2):
            assert (theta(a, x, ev40, shifts=shifts) == want).all()

    def test_returned_tables_are_the_callers(self, ev):
        x = self._points((6,), ev.tau, seed=5)
        shifts = np.array([0, 1, -1]) * ev.eta
        first = theta(2, x, ev, shifts=shifts)
        want = first.copy()
        first[...] = 0
        assert (theta(2, x, ev, shifts=shifts) == want).all()
        n = ev.cutoff_for(float(np.abs(x.imag).max() + np.abs(shifts.imag).max()))
        for table in theta_module._shift_table(2, n, ev.tau, shifts.astype(complex).tobytes(), 0):
            assert not table.flags.writeable

    def test_flow_builds_each_table_once(self):
        from lame_spectra.volterra import find_locus_config, integrate_flow

        ev31 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1 / 31, tol=1e-12))
        cfg = find_locus_config(2, ev31, np.random.default_rng(0))
        assert cfg is not None
        theta_module._shift_table.cache_clear()
        res = integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev31)
        assert len(res.trajectory) == 21
        info = theta_module._shift_table.cache_info()
        # one lookup per pole-set evaluation: the start, the six new stages
        # of the one Dormand-Prince step and the batch of its 19 interior
        # grid points; every evaluation has the same key, so one build
        assert info.hits + info.misses == 8
        assert info.misses == info.currsize == 1
