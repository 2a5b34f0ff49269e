"""Elliptic integers, factorials and binomials, with the trigonometric
q-number product as the independent oracle."""

import math

import numpy as np
import pytest

from lame_spectra import (
    EllipticParams,
    LameContext,
    ThetaEvaluator,
    a_polys_recurrence,
    band_edges,
    curve_coeffs,
    ebinom,
    ebracket,
    efactorial,
    enumbers,
    qnumber,
    theta,
)
from lame_spectra.enumbers import theta1_multiples
from lame_spectra.errors import TorsionEtaError


@pytest.fixture
def ev():
    return ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17, tol=1e-12))


def trig_binomial(n, m, eta):
    """q-binomial via sin-ratio products; independent of the theta code."""
    def fac(k):
        out = 1.0
        for j in range(1, k + 1):
            out *= math.sin(math.pi * eta * j) / math.sin(math.pi * eta)
        return out

    return fac(n) / (fac(m) * fac(n - m))


class TestBracket:
    def test_one(self, ev):
        assert ebracket(1, ev) == 1

    def test_zero(self, ev):
        assert ebracket(0, ev) == 0

    def test_odd(self, ev):
        assert ebracket(-3, ev) == pytest.approx(-ebracket(3, ev), rel=1e-13)

    def test_trig_limit(self):
        ev40 = ThetaEvaluator(EllipticParams(tau=40j, eta=0.2, tol=1e-12))
        want = math.sin(3 * 0.2 * math.pi) / math.sin(0.2 * math.pi)
        assert abs(ebracket(3, ev40) - want) < 1e-6

    def test_small_eta_limit_quadratic(self):
        # [n] -> n with an O(eta^2) error
        devs = []
        for eta in (1e-2, 1e-3):
            ev_s = ThetaEvaluator(EllipticParams(tau=1.1j, eta=eta, tol=1e-14))
            devs.append(max(abs(ebracket(n, ev_s) - n) for n in range(2, 6)))
        assert devs[0] < 0.05
        assert devs[0] / devs[1] == pytest.approx(100, rel=0.3)


def _reference_ebracket(n, ev):
    """[n] from two scalar theta calls, theta1(n*eta)/theta1(eta)."""
    if n == 0:
        return 0j
    if n == 1:
        return 1 + 0j
    if n < 0:
        return -_reference_ebracket(-n, ev)
    return theta(1, n * ev.eta, ev) / theta(1, ev.eta, ev)


def _fresh(tau, eta):
    return ThetaEvaluator(EllipticParams(tau=tau, eta=eta, tol=1e-12))


def _count_theta(monkeypatch):
    """Record the argument of every theta call made in enumbers."""
    calls = []

    def counting(a, x, ev, *args, **kwargs):
        calls.append(x)
        return theta(a, x, ev, *args, **kwargs)

    monkeypatch.setattr(enumbers, "theta", counting)
    return calls


class TestTable:
    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [1 / 31, 3 / 61, 0.17, 0.23 + 0.04j])
    def test_matches_scalar_route(self, tau, eta):
        ev = _fresh(tau, eta)
        for n in range(-12, 25):
            got, want = ebracket(n, ev), _reference_ebracket(n, ev)
            if complex(eta).imag == 0:
                assert got == want, n
            else:
                assert abs(got - want) <= 1e-14 * abs(want), n

    def test_zero_and_one_exact(self):
        ev = _fresh(0.3 + 1.4j, 0.23 + 0.04j)
        assert ebracket(0, ev) == 0
        assert ebracket(1, ev) == 1
        assert ebracket(-1, ev) == -1

    def test_grows_by_replacement(self, monkeypatch):
        calls = _count_theta(monkeypatch)
        ev = _fresh(1.2j, 0.17)
        short = theta1_multiples(4, ev)
        assert len(short) == 5
        assert theta1_multiples(3, ev) is short
        longer = theta1_multiples(9, ev)
        assert len(short) == 5 and longer[:5] == short
        assert len(calls) == 2 and len(calls[1]) == 5  # the missing k = 5..9 only

    @pytest.mark.parametrize("ell", [1, 10])
    @pytest.mark.parametrize("entry,top", [
        (LameContext, lambda ell: 2 * ell + 2),
        (band_edges, lambda ell: 2 * ell),
        (curve_coeffs, lambda ell: 2 * ell),
        (a_polys_recurrence, lambda ell: 2 * ell),
        # a factorial growth reads its brackets first: one call, not one per entry
        (lambda ell, ev: efactorial(2 * ell, ev), lambda ell: 2 * ell),
    ], ids=["LameContext", "band_edges", "curve_coeffs", "a_polys_recurrence", "efactorial"])
    def test_one_theta_call_per_entry_point(self, monkeypatch, ell, entry, top):
        calls = _count_theta(monkeypatch)
        ev = _fresh(1.2j, 0.17)
        entry(ell, ev)
        assert len(calls) == 1
        for n in range(-top(ell), top(ell) + 1):
            ebracket(n, ev)
        assert len(calls) == 1

    def test_torsion_names_bracket(self):
        with pytest.raises(TorsionEtaError, match=r"\[3\]"):
            LameContext(ell=2, ev=_fresh(1.2j, 1 / 3))

    def test_torsion_guard_through_factorial_table(self):
        ev = _fresh(1.2j, 1 / 3)
        f2 = efactorial(2, ev)
        for _ in range(2):
            for n in (3, 5):
                with pytest.raises(TorsionEtaError, match=r"\[3\]"):
                    efactorial(n, ev)
        assert efactorial(2, ev) == f2
        with pytest.raises(TorsionEtaError, match=r"\[3\]"):
            ebinom(4, 2, ev)

    @pytest.mark.parametrize("ell", [3, 10])
    def test_band_edges_factorial_work_is_linear(self, monkeypatch, ell):
        # efactorial reaches nonzero_bracket through the module global, once
        # per new table entry; a per-call product loop makes O(ell^2) calls
        # per ebinom and O(ell^3) per band_edges
        calls = []
        guard = enumbers.nonzero_bracket

        def counting(n, ev):
            calls.append(n)
            return guard(n, ev)

        monkeypatch.setattr(enumbers, "nonzero_bracket", counting)
        band_edges(ell, _fresh(1.2j, 0.17))
        assert len(calls) <= 2 * ell


class TestFactorial:
    def test_empty_product(self, ev):
        assert efactorial(0, ev) == 1

    def test_one(self, ev):
        assert efactorial(1, ev) == 1

    def test_three(self, ev):
        want = ebracket(2, ev) * ebracket(3, ev)
        assert efactorial(3, ev) == want

    def test_negative_rejected(self, ev):
        with pytest.raises(ValueError):
            efactorial(-1, ev)


class TestBinomial:
    def test_edges_are_one(self, ev):
        assert ebinom(5, 0, ev) == 1
        assert ebinom(5, 5, ev) == 1

    def test_symmetry_grid(self, ev):
        for n in range(1, 9):
            for m in range(n + 1):
                lhs = ebinom(n, m, ev)
                rhs = ebinom(n, n - m, ev)
                assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)

    def test_out_of_range(self, ev):
        with pytest.raises(ValueError):
            ebinom(4, 5, ev)
        with pytest.raises(ValueError):
            ebinom(4, -1, ev)

    def test_q_binomial_oracle(self):
        ev40 = ThetaEvaluator(EllipticParams(tau=40j, eta=0.1, tol=1e-12))
        want = trig_binomial(4, 2, 0.1)
        assert abs(ebinom(4, 2, ev40) - want) < 1e-8


class TestQNumber:
    def test_matches_sin_ratio(self):
        eta = 0.23
        q = complex(np.exp(2j * np.pi * eta))
        for j in range(1, 7):
            want = math.sin(math.pi * eta * j) / math.sin(math.pi * eta)
            assert qnumber(j, q) == pytest.approx(want, rel=1e-12)
