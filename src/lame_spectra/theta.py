"""Jacobi theta functions and the Weierstrass P-function.

Conventions (nome q = exp(i*pi*tau), Im tau > 0):

    theta1(x) = -sum_k exp(i*pi*tau*(k+1/2)^2 + 2i*pi*(x+1/2)(k+1/2))
    theta2(x) =  sum_k exp(i*pi*tau*(k+1/2)^2 + 2i*pi* x     (k+1/2))
    theta3(x) =  sum_k exp(i*pi*tau* k^2      + 2i*pi* x      k)
    theta4(x) =  sum_k exp(i*pi*tau* k^2      + 2i*pi*(x+1/2) k)

With these signs theta1 is odd with theta1'(0) > 0 for tau on the positive
imaginary axis, and theta1(x) -> 2 exp(i*pi*tau/4) sin(pi*x) as
Im tau -> +inf.

Quasi-periodicity used throughout:

    theta_a(x +- 1)   = (-1)^(d_a1 + d_a2) theta_a(x)
    theta_a(x +- tau) = (-1)^(d_a1 + d_a4) exp(-i*pi*tau -+ 2i*pi*x) theta_a(x)

All evaluations are truncated sums with tail below ``tol``; derivatives are
term-wise.  Every call is a table theta_a(x + s) over points x and shifts s
(a plain call has the one shift 0), each term split as exp(2i*pi*x*m) *
(2i*pi*m)^d exp(i*pi*tau*m^2 + 2i*pi*(s+beta)*m): one exp row per point, one
per shift.  The shift factor depends only on (a, cutoff, tau, shifts, d), so
it is built once per such key and kept in a module-level least-recently-used
cache of _SHIFT_TABLES_MAX (256) read-only matrices (``_shift_table``): a
Volterra flow, whose shifts are always the same multiples of eta, builds one
per cutoff it meets (one on every flow of the benchmark), and
``volterra.c_from_poles``, which passes its evaluation points as the shifts,
one per point set and cutoff (a Bloch orbit sampled for every pole set of a
drift check builds one; a new pole set adds none).  ``_series``, one
exp per point and term, is left for points the split cannot hold and for
theta1'(0), which is summed once per (tau, cutoff) and kept in a
least-recently-used cache of _PRIME0_MAX (256) values (``_theta1_prime0``).

An evaluator's parameters are fixed at construction.  The eta-only tables of
``enumbers`` (theta1(k*eta), the elliptic integers [k] and the factorials
[k]!) belong to the parameters, not to one evaluator: every evaluator built
with equal ``EllipticParams`` reads one holder of the three tables, kept in a
least-recently-used cache of _ETA_TABLES_MAX (64) holders (``_eta_tables``).
A table only grows, by replacing the stored tuple, never by changing one
(theta1(k*eta) by fixed chunks of k, so an entry does not depend on the
reads before it), so evaluators are safe to share across threads.  So are the package's module
caches: ``theta._shift_table`` and ``theta._theta1_prime0`` here (256 entries
each), ``theta._eta_tables`` (64), ``curve._edge_table`` (64),
``lame._E_free_M`` (the E-free residue matrix per (zeta, K, context), 32),
``lame._point_svd`` (the row-scaled SVD with vectors per (point, context),
32), ``lame._residue_parts``, ``lame._w_weights`` and ``lame._sample_points``
(the eta-only parts of a context, 64 each), ``lame._eye_mask`` (32),
``lame._halton_window`` (one table), ``volterra._pair_index`` (the pair
and gather indices, one entry per pole count) and ``cli.build_parser``
(one).  ``functools`` keeps their structure coherent under concurrent calls,
two threads that miss on one key at once each build the same values, and no
caller can write a cached array.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, PoleProximityError

__all__ = [
    "EllipticParams",
    "ThetaEvaluator",
    "theta",
    "theta1_prime",
    "theta_halfshift",
    "weierstrass_p",
]

# characteristics (alpha, beta) of theta_a in the series above
_CHAR = {1: (0.5, 0.5), 2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}

# sign pickups under x -> x+1 and x -> x+tau
_SIGN_ONE = {1: -1.0, 2: -1.0, 3: 1.0, 4: 1.0}
_SIGN_TAU = {1: -1.0, 2: 1.0, 3: 1.0, 4: -1.0}

HALF_PERIOD_LABELS = ("1/2", "tau/2", "(1+tau)/2")


@dataclass(frozen=True)
class EllipticParams:
    """Global context: modular parameter, lattice spacing, tolerance."""

    tau: complex
    eta: complex
    tol: float = 1e-12

    def __post_init__(self):
        for name in ("tau", "eta", "tol"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if not (self.tau.imag > 0):
            raise ValueError(f"Im(tau) must be positive, got tau={self.tau}")
        if self.eta == 0:
            raise ValueError("eta must be nonzero")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")


class _EtaTables:
    """The eta-only tables of one ``EllipticParams``: theta1(k*eta), [k] and
    [k]!, each a tuple indexed by k.  ``enumbers`` grows a table by storing a
    longer tuple in its place, never by changing one."""

    __slots__ = ("theta1_multiples", "brackets", "factorials")

    def __init__(self):
        self.theta1_multiples = ()
        self.brackets = (0j, 1 + 0j)
        self.factorials = (1 + 0j, 1 + 0j)


@dataclass(frozen=True)
class ThetaEvaluator:
    """Caches the nome and a series cutoff guaranteeing tails below tol.

    Evaluators with equal parameters share their eta-only tables, read by
    ``enumbers``: theta1(k*eta), [k] and [k]!, each indexed by k, in the one
    holder of ``_eta_tables`` (a bounded module cache keyed by the
    parameters), taken at construction.  So an evaluator built anew per
    request reads what earlier requests at the same parameters computed.  A
    table only grows, by replacement, never by changing a stored entry (see
    ``enumbers``).

    ``series_cutoff`` is the smallest N >= 4 with |q|^(N^2) < tol/100; for
    arguments with large |Im x| the cutoff is extended per call, so
    increasing it by hand never changes a returned value by more than tol.
    The constant -log(tol/100)/pi of that extension is computed once, here.

    The shift factors of ``theta`` are cached in the module, not here (see
    the module docstring: 256 read-only matrices, thread-safe), keyed by tau,
    so evaluators built anew per request share them.  ``theta1_prime0`` is
    summed by ``_series``, not through a table: that sum comes out real on
    the imaginary tau axis, where the table's leaves an imaginary part of
    ~1e-33, and every Volterra velocity scales by it.  The sum is made once
    per (tau, cutoff) and cached in the module too (``_theta1_prime0``), so
    an evaluator built again for the same tau and tol does not repeat it.
    """

    params: EllipticParams
    nome: complex = field(init=False)
    series_cutoff: int = field(init=False)
    theta1_prime0: complex = field(init=False)
    _cutoff_c: float = field(init=False, repr=False, compare=False)
    _tables: _EtaTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = cmath.exp(1j * math.pi * self.params.tau)
        object.__setattr__(self, "nome", q)
        lq = -math.pi * self.params.tau.imag  # log|q|
        target = math.log(self.params.tol) + math.log(1e-2)
        n = max(4, math.ceil(math.sqrt(target / lq)))
        object.__setattr__(self, "series_cutoff", n + 1)
        object.__setattr__(self, "_cutoff_c", -target / math.pi)
        object.__setattr__(self, "theta1_prime0", _theta1_prime0(self.params.tau, self.series_cutoff))
        object.__setattr__(self, "_tables", _eta_tables(self.params))

    @property
    def zero_threshold(self) -> float:
        """|theta1| below this is 'at a lattice point': tol in units of the
        slope theta1'(0), which sets the scale of theta1 near its zeros."""
        return self.params.tol * abs(self.theta1_prime0)

    @property
    def tau(self) -> complex:
        return self.params.tau

    @property
    def eta(self) -> complex:
        return self.params.eta

    @property
    def tol(self) -> float:
        return self.params.tol

    def cutoff_for(self, im_x: float) -> int:
        """Cutoff so that |q|^(m^2) * exp(2*pi*|Im x|*m) tails stay < tol/100."""
        im_tau = self.params.tau.imag
        m_star = (abs(im_x) + math.sqrt(im_x * im_x + im_tau * self._cutoff_c)) / im_tau
        return max(self.series_cutoff, math.ceil(m_star) + 2)


def _nonzero(t, ev: ThetaEvaluator, what: str, *args):
    """``t`` itself, or PoleProximityError naming ``what.format(*args)`` when
    |t| (a scalar) or min |t| (an array) is below ``ev.zero_threshold``.
    Guards that raise or word it otherwise keep their own test: c_from_poles
    names the x and the pole, bloch.lame_coefficients has its own 1e-8 floor,
    enumbers raises TorsionEtaError, the Volterra margin guard MarginViolationError."""
    if (abs(t) if isinstance(t, complex) else np.abs(t).min()) < ev.zero_threshold:
        raise PoleProximityError(what.format(*args) + " within tol of zero")
    return t


def _series(a: int, x, tau: complex, n_terms: int, deriv: int):
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


# A shift table splits each series term in two exp factors.  While
# 2*pi*max|Im x|*(n+1) stays below this, the point factors stay below
# exp(600) (no overflow, the double limit is ~exp(709)), and a shift factor
# that underflows to zero drops a term below exp(600 - 745) in absolute value.
_SPLIT_LOG_MAX = 600.0

# shift-exp matrices kept by _shift_table, least recently used dropped first
_SHIFT_TABLES_MAX = 256

# theta1'(0) values kept by _theta1_prime0, least recently used dropped first
_PRIME0_MAX = 256

# eta-table holders kept by _eta_tables, least recently used dropped first
_ETA_TABLES_MAX = 64


def theta(a: int, x, ev: ThetaEvaluator, deriv: int = 0, shifts=None):
    """theta_a(x | tau), or its ``deriv``-th derivative in x.

    Accepts a complex scalar (returns a ``complex``) or an ndarray.  With
    ``shifts`` (a sequence of complex numbers, small next to Im tau) the
    result is the table theta_a(x + s), of shape ``shape(x) + shape(shifts)``;
    a plain call is the table at the one shift 0, of shape ``shape(x)``.
    Several shifts are joined by one matrix product; one column is summed per
    point, so that a point's value does not depend on the other points of the
    call, up to rounding: numpy takes another matrix-product kernel for a
    one-row table, which can move a value in its last bit.  A deriv=0 call
    whose split terms would overflow (the ``_SPLIT_LOG_MAX`` rule) first
    reduces its points to the fundamental cell; points still out of range,
    in a cell too tall or for a derivative, are summed by ``_series``.
    """
    if a not in _CHAR:
        raise ValueError(f"theta index must be 1..4, got {a}")
    xs = np.asarray(x, dtype=complex)
    s = np.zeros(1, dtype=complex) if shifts is None else np.asarray(shifts, dtype=complex)
    shape = xs.shape if shifts is None else xs.shape + s.shape
    if xs.size == 0 or s.size == 0:
        return np.empty(shape, dtype=complex)
    xs, s = xs.ravel(), s.ravel()
    tau = ev.tau
    im_s = float(np.abs(s.imag).max())
    im_x = float(np.abs(xs.imag).max())
    n = ev.cutoff_for(im_x + im_s + 0.05 * deriv)
    factor = None
    if not deriv and 2 * math.pi * im_x * (n + 1) > _SPLIT_LOG_MAX:
        # theta_a(x_red + s + j + k*tau) = factor(x_red) exp(-2i*pi*k*s) theta_a(x_red + s)
        xs, k, factor = _to_cell(a, xs, tau)
        factor = factor[:, None] * np.exp(-2j * math.pi * np.outer(k, s))
        im_x = float(np.abs(xs.imag).max())
        n = ev.cutoff_for(im_x + im_s)
    if 2 * math.pi * im_x * (n + 1) <= _SPLIT_LOG_MAX:
        m, shift_exp = _shift_table(a, n, tau, s.tobytes(), deriv)
        point_exp = np.exp((2j * math.pi * xs)[:, None] * m)
        if shifts is None:
            out = np.einsum("pt,t->p", point_exp, shift_exp[:, 0])[:, None]
        else:
            out = point_exp @ shift_exp
        if a == 1:
            out = -out
    else:
        out = _series(a, xs[:, None] + s, tau, n, deriv)
    if factor is not None:
        out = out * factor
    out = out.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def _to_cell(a: int, xs: np.ndarray, tau: complex):
    """x = x_red + m + n*tau with x_red in the fundamental cell; returns
    x_red, n and the factor with theta_a(x) = factor * theta_a(x_red)."""
    n = np.round(xs.imag / tau.imag)
    m = np.round((xs - n * tau).real)
    x_red = xs - m - n * tau
    # theta_a(x_red + m + n*tau) = s1^m * st^n * exp(-i*pi*tau*n^2 - 2i*pi*n*x_red) * theta_a(x_red)
    factor = (
        _SIGN_ONE[a] ** np.abs(m)
        * _SIGN_TAU[a] ** np.abs(n)
        * np.exp(-1j * math.pi * tau * n**2 - 2j * math.pi * n * x_red)
    )
    return x_red, n, factor


@functools.lru_cache(maxsize=_SHIFT_TABLES_MAX)
def _shift_table(a: int, n: int, tau: complex, shift_bytes: bytes, deriv: int):
    """The term indices m and the matrix (2i*pi*m)^deriv *
    exp(i*pi*tau*m^2 + 2i*pi*(s+beta)*m) of a shift table, rows m and
    columns s (read-only, shared by every caller)."""
    alpha, beta = _CHAR[a]
    s = np.frombuffer(shift_bytes, dtype=complex)
    m = np.arange(-(n + 1) if alpha == 0.5 else -n, n + 1) + alpha
    shift_exp = np.exp((1j * math.pi * tau) * (m * m)[:, None] + (2j * math.pi) * np.outer(m, s + beta))
    if deriv:
        shift_exp = shift_exp * ((2j * math.pi * m) ** deriv)[:, None]
    m.flags.writeable = shift_exp.flags.writeable = False
    return m, shift_exp


@functools.lru_cache(maxsize=_PRIME0_MAX)
def _theta1_prime0(tau: complex, n: int) -> complex:
    """theta1'(0 | tau), the ``_series`` sum with cutoff n."""
    return complex(_series(1, 0.0, tau, n, 1))


@functools.lru_cache(maxsize=_ETA_TABLES_MAX)
def _eta_tables(params: EllipticParams) -> _EtaTables:
    """The one table holder of ``params``, read by every evaluator built with them."""
    return _EtaTables()


def theta1_prime(x, ev: ThetaEvaluator):
    """theta1'(x) by term-wise differentiation of the defining series."""
    return theta(1, x, ev, deriv=1)


def theta_halfshift(x, shift: str, ev: ThetaEvaluator, sign: int = 1):
    """theta1(x +- shift) for a half period, checked against the shift identity.

    ``shift`` is one of "1/2", "tau/2", "(1+tau)/2".  The value is computed
    directly from the series and from the right-hand side of

        theta1(x +- 1/2)       = +- theta2(x)
        theta1(x +- tau/2)     = +- i exp(-i*pi*tau/4 -+ i*pi*x) theta4(x)
        theta1(x +- (1+tau)/2) = +-   exp(-i*pi*tau/4 -+ i*pi*x) theta3(x)

    Disagreement beyond 10*tol (relative) means a series-cutoff bug and
    raises ConsistencyError.  Returns the direct value.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    tau = ev.tau
    if shift == "1/2":
        s = 0.5
        rhs = sign * theta(2, x, ev)
    elif shift == "tau/2":
        s = tau / 2
        rhs = sign * 1j * cmath.exp(-1j * math.pi * tau / 4) * np.exp(-sign * 1j * math.pi * np.asarray(x, dtype=complex)) * theta(4, x, ev)
    elif shift == "(1+tau)/2":
        s = (1 + tau) / 2
        rhs = sign * cmath.exp(-1j * math.pi * tau / 4) * np.exp(-sign * 1j * math.pi * np.asarray(x, dtype=complex)) * theta(3, x, ev)
    else:
        raise ValueError(f"shift must be one of {HALF_PERIOD_LABELS}, got {shift!r}")
    direct = theta(1, np.asarray(x, dtype=complex) + sign * s, ev)
    scale = np.maximum(np.abs(direct), np.abs(rhs))
    if np.any(np.abs(direct - rhs) > 10 * ev.tol * np.maximum(scale, 1.0)):
        raise ConsistencyError(
            f"half-period identity violated at x={x}, shift={shift}: "
            f"direct={direct}, identity={rhs}"
        )
    return direct


def weierstrass_p(x, ev: ThetaEvaluator):
    """-(log theta1)''(x), i.e. P(x | 1/2, tau/2) up to an additive constant.

    No constant is added: the value is exactly the second logarithmic
    derivative with flipped sign.  Raises PoleProximityError within tol of a
    lattice point (where theta1 vanishes).
    """
    t0 = _nonzero(theta(1, x, ev), ev, "theta1({}) (a lattice point)", x)
    t1 = theta(1, x, ev, deriv=1)
    t2 = theta(1, x, ev, deriv=2)
    return (t1 * t1 - t2 * t0) / (t0 * t0)
