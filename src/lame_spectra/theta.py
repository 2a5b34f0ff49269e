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
term-wise. Evaluators are immutable after construction and safe to share
across threads.
"""

import cmath
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
    "HALF_PERIOD_LABELS",
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


@dataclass(frozen=True)
class ThetaEvaluator:
    """Caches the nome and a series cutoff guaranteeing tails below tol.

    ``series_cutoff`` is the smallest N >= 4 with |q|^(N^2) < tol/100; for
    arguments with large |Im x| the cutoff is extended per call, so
    increasing it by hand never changes a returned value by more than tol.
    """

    params: EllipticParams
    nome: complex = field(init=False)
    series_cutoff: int = field(init=False)
    theta1_prime0: complex = field(init=False)
    _brackets: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        q = cmath.exp(1j * math.pi * self.params.tau)
        object.__setattr__(self, "nome", q)
        lq = -math.pi * self.params.tau.imag  # log|q|
        target = math.log(self.params.tol) + math.log(1e-2)
        n = max(4, math.ceil(math.sqrt(target / lq)))
        object.__setattr__(self, "series_cutoff", n + 1)
        d = _series(1, 0.0, self.params.tau, self.series_cutoff, 1)
        object.__setattr__(self, "theta1_prime0", complex(d))

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
        c = -(math.log(self.params.tol) + math.log(1e-2)) / math.pi
        m_star = (abs(im_x) + math.sqrt(im_x * im_x + im_tau * c)) / im_tau
        return max(self.series_cutoff, math.ceil(m_star) + 2)


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


def theta(a: int, x, ev: ThetaEvaluator, deriv: int = 0, reduce: bool = False):
    """theta_a(x | tau), or its ``deriv``-th derivative in x.

    Accepts a complex scalar or an ndarray.  With ``reduce=True`` the
    argument is first shifted to the fundamental cell by the
    quasi-periodicity relations (useful for sweeps with large |Im x|, where
    raw series terms overflow; only implemented for deriv=0).
    """
    if a not in _CHAR:
        raise ValueError(f"theta index must be 1..4, got {a}")
    if reduce:
        if deriv:
            raise ValueError("argument reduction is only supported for deriv=0")
        return _theta_reduced(a, x, ev)
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    im = np.max(np.abs(np.imag(np.asarray(x, dtype=complex)))) if not scalar else abs(complex(x).imag)
    n = ev.cutoff_for(float(im) + 0.05 * deriv)
    out = _series(a, x, ev.tau, n, deriv)
    return complex(out) if scalar else out


def _theta_reduced(a: int, x, ev: ThetaEvaluator):
    xs = np.asarray(x, dtype=complex)
    tau = ev.tau
    n = np.round(xs.imag / tau.imag)
    m = np.round((xs - n * tau).real)
    x_red = xs - m - n * tau
    # theta_a(x_red + m + n*tau) = s1^m * st^n * exp(-i*pi*tau*n^2 - 2i*pi*n*x_red) * theta_a(x_red)
    factor = (
        _SIGN_ONE[a] ** np.abs(m)
        * _SIGN_TAU[a] ** np.abs(n)
        * np.exp(-1j * math.pi * tau * n**2 - 2j * math.pi * n * x_red)
    )
    base = _series(a, x_red, tau, ev.cutoff_for(float(np.max(np.abs(x_red.imag)))), 0)
    out = factor * base
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    return complex(out) if scalar else out


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
    return complex(direct) if np.isscalar(x) or getattr(x, "ndim", 0) == 0 else direct


def weierstrass_p(x, ev: ThetaEvaluator):
    """-(log theta1)''(x), i.e. P(x | 1/2, tau/2) up to an additive constant.

    No constant is added: the value is exactly the second logarithmic
    derivative with flipped sign.  Raises PoleProximityError within tol of a
    lattice point (where theta1 vanishes).
    """
    t0 = theta(1, x, ev)
    if np.any(np.abs(t0) < ev.zero_threshold):
        raise PoleProximityError(f"theta1({x}) is within tol of zero (lattice point)")
    t1 = theta(1, x, ev, deriv=1)
    t2 = theta(1, x, ev, deriv=2)
    out = (t1 * t1 - t2 * t0) / (t0 * t0)
    return complex(out) if np.isscalar(x) or getattr(x, "ndim", 0) == 0 else out
