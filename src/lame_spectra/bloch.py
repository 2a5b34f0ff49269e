"""Finite Bloch-matrix reduction for rational lattice spacing.

For eta = P/Q (coprime), the coefficients of the difference equation

    a(x) Psi(x + eta) + c(x) Psi(x - eta) = E Psi(x)

sampled on x_n = x0 + n*eta repeat with period Q, so Bloch solutions reduce
the spectral problem to a Q x Q matrix whose corner entries carry the phase
accumulated over one coefficient period.  Eigenvalues at phase +1 and -1
(periodic / antiperiodic over Q steps) contain every band edge exactly:
simple eigenvalues are edges, doubly degenerate ones are interior points
where the two Bloch solutions with opposite momenta coincide in energy.

This module is the independent numerical oracle against which the closed
curve formulas are checked; it never imports from ``curve``.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ClusterAmbiguityError, PoleProximityError
from .theta import ThetaEvaluator, theta
from .util import cluster_points

__all__ = [
    "RationalEta",
    "BlochMatrix",
    "EdgeCandidates",
    "build_bloch_matrix",
    "lame_coefficients",
    "coefficient_samples",
    "periodic_matrix",
    "numeric_band_edges",
    "numeric_band_edges_from_coefficients",
    "band_sweep",
    "band_intervals",
]

# eigenvalues closer than CLUSTER_TOL * max|E| (per phase) are one cluster
CLUSTER_TOL = 1e-9
# band spans closer than MERGE_TOL * scale merge; |Im E| beyond its root is not noise
MERGE_TOL = 1e-8
# how often lame_coefficients moves x0 by 1/(2Q) off a theta1 zero
MAX_RESHIFTS = 8


@dataclass(frozen=True)
class RationalEta:
    """Exact lattice spacing P/Q; the coefficient period in n is Q."""

    P: int
    Q: int

    def __post_init__(self):
        if self.Q <= 0:
            raise ValueError("Q must be positive")
        if self.P == 0:
            raise ValueError("P must be nonzero")
        if math.gcd(abs(self.P), self.Q) != 1:
            raise ValueError(f"P/Q = {self.P}/{self.Q} must be in lowest terms")

    @property
    def eta(self) -> float:
        return self.P / self.Q

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.P, self.Q)

    def brillouin_width(self) -> float:
        """Width 2*pi/(eta*Q) = 2*pi/P of one Brillouin zone in k."""
        return 2 * math.pi / abs(self.P)


@dataclass(frozen=True)
class BlochMatrix:
    """Q x Q reduction at a fixed Bloch momentum."""

    matrix: np.ndarray
    k: float
    phase: complex
    x0: complex


def periodic_matrix(a_vals: np.ndarray, c_vals: np.ndarray, phase: complex) -> np.ndarray:
    """Tridiagonal-with-corners matrix for one coefficient period.

    Row n couples to n+1 with a_n and to n-1 with c_n; the wrap entries
    (Q-1, 0) and (0, Q-1) are multiplied by ``phase`` and 1/``phase``.
    """
    Q = len(a_vals)
    M = np.zeros((Q, Q), dtype=complex)
    for n in range(Q):
        M[n, (n + 1) % Q] += a_vals[n] * (phase if n == Q - 1 else 1.0)
        M[n, (n - 1) % Q] += c_vals[n] * (1.0 / phase if n == 0 else 1.0)
    return M


def coefficient_samples(func, re: RationalEta, x0: complex) -> np.ndarray:
    """func evaluated on the orbit x0 + n*eta, n = 0..Q-1."""
    return np.array([func(x0 + n * re.eta) for n in range(re.Q)], dtype=complex)


def lame_coefficients(ell: int, re: RationalEta, x0: complex, ev: ThetaEvaluator):
    """Hop amplitudes of the symmetric gauge on the sampling orbit.

    a_n = theta1(x_n - l*eta)/theta1(x_n), c_n = theta1(x_n + l*eta)/theta1(x_n),
    no diagonal term.  If any denominator collides with a theta1 zero the
    offset is re-shifted by 1/(2Q), up to MAX_RESHIFTS times.
    """
    eta = re.eta
    guard = max(ev.tol, 1e-8) * abs(ev.theta1_prime0)
    for _ in range(MAX_RESHIFTS + 1):
        xs = x0 + np.arange(re.Q) * eta
        den = theta(1, xs, ev)
        if np.min(np.abs(den)) > guard:
            a = theta(1, xs - ell * eta, ev) / den
            c = theta(1, xs + ell * eta, ev) / den
            return a, c, x0
        x0 = x0 + 1.0 / (2 * re.Q)
    raise PoleProximityError(f"no collision-free offset found near x0={x0}")


def build_bloch_matrix(ell: int, re: RationalEta, k: float, x0: complex,
                       ev: ThetaEvaluator) -> BlochMatrix:
    """Q x Q Bloch matrix at momentum k (phase = exp(i*k*eta*Q))."""
    a, c, x0_used = lame_coefficients(ell, re, x0, ev)
    phase = cmath.exp(1j * k * re.eta * re.Q)
    return BlochMatrix(matrix=periodic_matrix(a, c, phase), k=k, phase=phase, x0=x0_used)


@dataclass(frozen=True)
class EdgeCandidates:
    """Candidate edges from the periodic/antiperiodic spectra.

    ``values[i]`` is a cluster center, ``multiplicity[i]`` its size, and
    ``confident[i]`` is True for clean simple eigenvalues (open-gap edges).
    """

    values: np.ndarray
    multiplicity: np.ndarray
    confident: np.ndarray

    def confident_values(self) -> np.ndarray:
        return self.values[self.confident]


def numeric_band_edges(ell: int, re: RationalEta, x0: complex, ev: ThetaEvaluator) -> EdgeCandidates:
    a, c, x0 = lame_coefficients(ell, re, x0, ev)
    return numeric_band_edges_from_coefficients(a, c)


def numeric_band_edges_from_coefficients(a_vals, c_vals) -> EdgeCandidates:
    """Simple eigenvalues at wrap phase +1 and -1, degenerate pairs dropped.

    Eigenvalues within CLUSTER_TOL * max|E| (per phase) are merged; clusters
    of size 1 are confident edge candidates, size 2 are closed-gap interior
    points, anything larger is flagged non-confident rather than guessed.
    """
    values, mult, conf = [], [], []
    for phase in (1.0, -1.0):
        M = periodic_matrix(np.asarray(a_vals, complex), np.asarray(c_vals, complex), phase)
        eigs = np.linalg.eigvals(M)
        scale = float(np.abs(eigs).max()) or 1.0
        for center, size in cluster_points(eigs, CLUSTER_TOL * scale):
            if size == 2:
                continue  # closed gap / interior double
            values.append(center)
            mult.append(size)
            conf.append(size == 1)
    values = np.array(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    return EdgeCandidates(
        values=values[order],
        multiplicity=np.array(mult)[order],
        confident=np.array(conf)[order],
    )


def band_sweep(ell: int, re: RationalEta, x0: complex, k_grid, ev: ThetaEvaluator) -> np.ndarray:
    """Sorted eigenvalue trajectories over a momentum grid.

    Returns an array of shape (len(k_grid), Q) with each row the sorted
    (by real part) spectrum at that momentum.
    """
    a, c, _ = lame_coefficients(ell, re, x0, ev)
    rows = []
    for k in k_grid:
        phase = cmath.exp(1j * k * re.eta * re.Q)
        eigs = np.linalg.eigvals(periodic_matrix(a, c, phase))
        rows.append(eigs[np.lexsort((eigs.imag, eigs.real))])
    return np.array(rows)


def band_intervals(sweep: np.ndarray):
    """Maximal stable intervals from a sweep (self-adjoint regime).

    Each sorted-index trajectory spans [min_k E_i, max_k E_i]; overlapping
    spans merge into bands.  The imaginary parts must be noise: a spread
    beyond sqrt(MERGE_TOL) raises ClusterAmbiguityError instead of silently
    projecting a genuinely complex spectrum.
    """
    if np.abs(sweep.imag).max() > math.sqrt(MERGE_TOL):
        raise ClusterAmbiguityError(
            f"spectrum is not numerically real: max |Im E| = {np.abs(sweep.imag).max():.3e}"
        )
    spans = [(float(sweep.real[:, i].min()), float(sweep.real[:, i].max()))
             for i in range(sweep.shape[1])]
    spans.sort()
    scale = max(abs(sweep.real).max(), 1.0)
    tol = MERGE_TOL * scale
    merged = [list(spans[0])]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]
