"""Theta evaluator tests against independent oracles.

The product-formula oracle below implements

    theta1(x) = 2 sin(pi x) e^(i pi tau/4) prod_k (1-p^k)(1-p^k e^(2i pi x))(1-p^k e^(-2i pi x))

(p = e^(2i pi tau)) and its even-index companions, truncated independently of
the series code under test.
"""

import cmath
import math

import numpy as np
import pytest

from lame_spectra import EllipticParams, ThetaEvaluator, theta, theta1_prime, theta_halfshift, weierstrass_p
from lame_spectra.errors import PoleProximityError


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

    def test_reduce_option_matches_direct(self, ev):
        x = 0.3 + 3.7 * ev.tau + 2.0
        direct = theta(1, x, ev)
        red = theta(1, x, ev, reduce=True)
        assert abs(direct - red) < 1e-9 * abs(direct)


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
