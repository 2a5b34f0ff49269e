"""Elliptic integers, factorials and binomials, with the trigonometric
q-number product as the independent oracle."""

import math
import sys
import threading

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

from _support import empty_caches


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

    def test_lattice_eta_refused(self):
        # theta1(1) ~ 1e-16: every [k] would be a ratio of rounding errors
        ev1 = ThetaEvaluator(EllipticParams(tau=1.2j, eta=1.0))
        with pytest.raises(TorsionEtaError, match=r"^theta1\(eta\) ~ 0 for eta=1\.0: eta on the lattice$"):
            ebracket(2, ev1)

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
        empty_caches()
        calls = _count_theta(monkeypatch)
        ev = _fresh(1.2j, 0.17)
        chunk = enumbers.THETA_CHUNK
        short = theta1_multiples(4, ev)
        assert len(short) == chunk
        assert theta1_multiples(3, ev) is short
        assert theta1_multiples(chunk - 1, ev) is short
        longer = theta1_multiples(chunk + 4, ev)
        assert len(short) == chunk and longer[:chunk] == short and len(longer) == 2 * chunk
        # one call per chunk, each over its fixed range of k
        assert len(calls) == 2
        for c, x in enumerate(calls):
            np.testing.assert_array_equal(x, np.arange(c * chunk, (c + 1) * chunk) * ev.eta)

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
        empty_caches()
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


class TestOverflowRefused:
    """A theta1(k*eta) chunk with a non-finite entry raises OverflowError, with
    no RuntimeWarning (pytest turns one into an error), and is not stored."""

    @pytest.mark.parametrize("tau,eta,k", [(1.2j, 0.1 + 1.1j, 15), (0.15j, 0.17 + 0.6j, 10)])
    def test_refused_cold_after_a_small_read_and_again(self, tau, eta, k):
        empty_caches()
        ev = _fresh(tau, eta)
        message = rf"^theta1\(k\*eta\) is outside the double range from k = {k} at eta = \S+, tau = \S+$"
        # cold at small k, then at a k past the bad entry, then at small k again
        for n in (2, 30, 2):
            with pytest.raises(OverflowError, match=message):
                theta1_multiples(n, ev)
            assert enumbers._eta_tables(ev.params).theta1_multiples == ()
        for read in (lambda: ebracket(2, ev), lambda: efactorial(3, ev), lambda: LameContext(ell=1, ev=ev)):
            with pytest.raises(OverflowError, match=message):
                read()
        assert enumbers._eta_tables(ev.params).brackets == (0j, 1 + 0j)

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [1 / 31, 0.17, 0.23 + 0.06j, 0.1 - 0.06j])
    def test_benchmark_range_table_is_unchanged(self, tau, eta):
        empty_caches()
        ev = _fresh(tau, eta)
        chunk = enumbers.THETA_CHUNK
        want = [v for c in range(2) for v in theta(1, np.arange(c * chunk, (c + 1) * chunk) * ev.eta, ev).tolist()]
        assert _bits(theta1_multiples(2 * chunk - 1, ev)) == _bits(want)


def _bits(values) -> bytes:
    """The bytes of complex values: signed zeros told apart."""
    return np.array(values, dtype=complex).tobytes()


def _one_shot(n, ev):
    """theta1(k*eta), [k] and [k]!, k = 0..n, from one theta call and the
    direct sequential formulas, with no table."""
    t = theta(1, np.arange(n + 1) * ev.eta, ev).tolist()
    brackets = [0j, 1 + 0j] + [t[k] / t[1] for k in range(2, n + 1)]
    factorials = [1 + 0j, 1 + 0j]
    for k in range(2, n + 1):
        factorials.append(factorials[-1] * brackets[k])
    return t, brackets, factorials


def _tables(ev):
    tables = enumbers._eta_tables(ev.params)
    return tables.theta1_multiples, tables.brackets, tables.factorials


class TestSharedTables:
    TOP = 24

    def test_equal_parameters_share_one_holder(self):
        empty_caches()
        a, b = _fresh(1.2j, 0.17), _fresh(1.2j, 0.17 + 0j)
        tables = enumbers._eta_tables
        assert tables(a.params) is tables(b.params)
        assert tables(_fresh(1.2j, 0.18).params) is not tables(a.params)
        efactorial(6, a)
        assert len(tables(b.params).factorials) == 7

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.4j])
    @pytest.mark.parametrize("eta", [1 / 31, 3 / 61, 0.17, 0.23 + 0.04j])
    def test_any_growth_order_gives_the_one_shot_table(self, tau, eta):
        # each read on a new evaluator, as a request makes it: one-entry
        # growths first, then reads of the three tables at random sizes
        want = _one_shot(self.TOP, _fresh(tau, eta))
        rng = np.random.default_rng(43)
        for _ in range(3):
            empty_caches()
            for n in [1, 2, 3, 4, 5] + rng.permutation(np.arange(6, self.TOP + 1)).tolist():
                read = (theta1_multiples, ebracket, efactorial)[rng.integers(3)]
                read(n, _fresh(tau, eta))
            ev = _fresh(tau, eta)
            efactorial(self.TOP, ev)
            for got, w in zip(_tables(ev), want):
                assert _bits(got[:self.TOP + 1]) == _bits(w)

    def test_threads_grow_one_table(self):
        # four threads grow the one table of (tau, eta) to different sizes, one
        # entry at a time; every read and the final table are the one-shot values
        tau, eta = 0.3 + 1.4j, 0.23 + 0.04j
        want = _one_shot(self.TOP, _fresh(tau, eta))
        empty_caches()
        sizes = (6, 12, 18, self.TOP)
        start = threading.Barrier(len(sizes))
        reads = {}

        def grow(size):
            ev = _fresh(tau, eta)
            start.wait()
            for n in range(1, size + 1):
                efactorial(n, ev)
            reads[size] = (theta1_multiples(size, ev)[:size + 1], [ebracket(k, ev) for k in range(size + 1)],
                           [efactorial(k, ev) for k in range(size + 1)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(size,)) for size in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(reads) == list(sizes)
        for size, got in reads.items():
            for g, w in zip(got, want):
                assert _bits(g) == _bits(w[:size + 1])
        ev = _fresh(tau, eta)
        for got, w in zip(_tables(ev), want):
            n = min(len(got), self.TOP + 1)  # the theta1 table holds whole chunks
            assert _bits(got[:n]) == _bits(w[:n])
        efactorial(self.TOP, ev)
        for got, w in zip(_tables(ev), want):
            assert _bits(got[:self.TOP + 1]) == _bits(w)


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

    def test_q_one_refused(self):
        with pytest.raises(ZeroDivisionError, match="^q = 1 has no symmetric q-numbers$"):
            qnumber(2, 1 + 0j)
