"""Finite Bloch-matrix reduction for rational lattice spacing.

For eta = P/Q (coprime), the coefficients of the difference equation

    a(x) Psi(x + eta) + c(x) Psi(x - eta) = E Psi(x)

sampled on x_n = x0 + n*eta repeat with period Q, so Bloch solutions reduce
the spectral problem to a Q x Q matrix whose corner entries carry the phase
accumulated over one coefficient period.  Eigenvalues at phase +1 and -1
(periodic / antiperiodic over Q steps) contain every band edge exactly:
simple eigenvalues are edges, doubly degenerate ones are interior points
where the two Bloch solutions with opposite momenta coincide in energy.

The orbit is sampled as given.  On the real line it passes close to the
zeros of theta1 (at m + n*tau), where the hops blow up and closed gaps split;
on the line Im x0 = Im tau/2 it stays Im tau/2 away from all of them, and by
Floquet theory the periodic and antiperiodic spectra do not depend on x0.

Two exact identities cut the edge spectra to one eigen-solve at odd Q, real
symmetric where the gauge applies.
Symmetric gauge: when every a_n c_{n+1} is real and positive (the Lame hops
on that line when Re tau = 0), the diagonal similarity with d_{n+1}/d_n =
b_n/a_n, b_n = sqrt(a_n c_{n+1}), maps the matrix at phase phi to the real
symmetric ``periodic_matrix(b, roll(b, 1), sigma*phi)``, where sigma =
prod a_n/b_n = +-1 (for the Lame hops sigma = (-1)^(l*P), which swaps phase
+1 and -1); its spectrum comes from ``eigvalsh``.  Odd-Q reflection: the
matrix has no diagonal, so conjugating by diag((-1)^n) maps it at phase phi
to minus itself at phase -phi when Q is odd, and the phase -1 spectrum is
minus the phase +1 spectrum on either route.  Inputs the gauge rejects (Re
tau != 0, or the c_from_poles samples of the Volterra flow, whose products
are mostly negative or complex) take the general route, one dense complex
``eigvals`` per phase solved.

Each spectrum keeps the solver's order: by (Re, Im), with real parts that
tie to rounding (as a conjugate pair's do) counted equal, so a complex double
is never interleaved with its conjugate.  Edge clusters are runs along a
spectrum and bands are merged column spans, each read in one array pass.
Around its solve the general route makes a fixed, small number of array
passes: the gauge test reads a_n c_{n+1} from one concatenation (no
``np.roll``) and ``periodic_matrix`` writes the two off-diagonals through
strided slices of the flat matrix.  At Q 31-41 the ``eigvals`` call is most
of the route's time.

This module is the independent numerical oracle against which the closed
curve formulas are checked; it never imports from ``curve``.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusterAmbiguityError, PoleProximityError
from .theta import ThetaEvaluator, theta

__all__ = [
    "RationalEta",
    "EdgeCandidates",
    "lame_coefficients",
    "coefficient_samples",
    "periodic_matrix",
    "numeric_band_edges",
    "numeric_band_edges_from_coefficients",
    "band_sweep",
    "band_intervals",
]

# the one open-gap threshold: eigenvalues closer than CLUSTER_TOL * max|E|
# (per phase) are one cluster, and band spans closer than CLUSTER_TOL * scale merge
CLUSTER_TOL = 1e-9
# |Im E| beyond NONREAL_TOL is not noise: the spectrum is genuinely non-real
NONREAL_TOL = 1e-4
# the symmetric gauge needs |Im(a_n c_{n+1})| <= GAUGE_IMAG_TOL * |a_n c_{n+1}|,
# Re(a_n c_{n+1}) > 0, and prod a_n/b_n within GAUGE_SIGN_TOL of +1 or -1
GAUGE_IMAG_TOL = 1e-12
GAUGE_SIGN_TOL = 1e-8
# real parts within 64 ulps of max|E| are one tie group on the eigvals route
_TIE_ULPS = 64 * np.finfo(float).eps
# run ids along the two rows of the edge spectra: each row starts a run
_ROW_STARTS = np.array([[False], [True]])


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

    def brillouin_width(self) -> float:
        """Width 2*pi/(eta*Q) = 2*pi/P of one Brillouin zone in k."""
        return 2 * math.pi / abs(self.P)


def periodic_matrix(a_vals: np.ndarray, c_vals: np.ndarray, phase: complex) -> np.ndarray:
    """Tridiagonal-with-corners matrix for one coefficient period.

    Row n couples to n+1 with a_n and to n-1 with c_n; the wrap entries
    (Q-1, 0) and (0, Q-1) are multiplied by ``phase`` and 1/``phase``.
    """
    Q = len(a_vals)
    M = np.zeros((Q, Q), dtype=complex)
    # the super- and subdiagonal as strided slices of the flat matrix
    flat = M.reshape(-1)
    flat[1::Q + 1] = a_vals[:-1]
    flat[Q::Q + 1] = c_vals[1:]
    # += so that at Q = 1 and 2 a corner adds to the entry it shares
    M[Q - 1, 0] += a_vals[Q - 1] * phase
    M[0, Q - 1] += c_vals[0] * (1.0 / phase)
    return M


def _symmetric_gauge(a_vals: np.ndarray, c_vals: np.ndarray):
    """(b, sigma) of the real symmetric gauge, or None when it does not apply.

    b_n = sqrt(a_n c_{n+1}) > 0 and sigma = prod a_n/b_n = +-1; the matrix at
    phase phi is then similar to ``periodic_matrix(b, roll(b, 1), sigma*phi)``.
    """
    ac = a_vals * np.concatenate((c_vals[1:], c_vals[:1]))
    if not ((ac.real > 0).all() and (np.abs(ac.imag) <= GAUGE_IMAG_TOL * np.abs(ac)).all()):
        return None
    b = np.sqrt(ac.real)
    prod = complex(np.prod(a_vals / b))
    sigma = 1.0 if prod.real > 0 else -1.0
    if abs(prod - sigma) > GAUGE_SIGN_TOL:
        return None
    return b, sigma


def _spectrum_solver(a_vals: np.ndarray, c_vals: np.ndarray):
    """phase -> spectrum sorted by (Re, Im), for phases on the unit circle
    (on the ``eigvals`` route, real parts equal to rounding count as equal).

    One ``periodic_matrix`` and one eigen-solve per call: ``eigvalsh`` on the
    gauged matrix, which is Hermitian for |phase| = 1 (its corners
    b*sigma*phase and b/(sigma*phase) are conjugate) and real at phase +-1,
    or ``eigvals`` when the gauge does not apply.
    """
    gauge = _symmetric_gauge(a_vals, c_vals)

    def solve(phase):
        if gauge is None:
            eigs = np.sort_complex(np.linalg.eigvals(periodic_matrix(a_vals, c_vals, phase)))
            # the real parts of a complex-conjugate pair agree only to
            # rounding (up to 28 ulps of max|E| on random 7 x 7 periodic
            # matrices): real parts within 64 ulps form one group, ordered
            # by Im, so that equal spectra sort alike
            tol = _TIE_ULPS * np.abs(eigs).max(initial=0.0)
            re = eigs.real
            group = np.concatenate(([0], np.cumsum(re[1:] - re[:-1] > tol)))
            return eigs[np.lexsort((eigs.imag, group))]
        b, sigma = gauge
        M = periodic_matrix(b, np.concatenate((b[-1:], b[:-1])), sigma * phase)
        # eigvalsh returns the real eigenvalues in ascending order
        return np.linalg.eigvalsh(M if M.imag.any() else M.real).astype(complex)

    return solve


def coefficient_samples(func, re: RationalEta, x0: complex) -> np.ndarray:
    """func evaluated on the orbit x0 + n*eta, n = 0..Q-1, in one call: func
    must accept the ndarray of the Q orbit points and return one value each."""
    return np.asarray(func(x0 + np.arange(re.Q) * re.eta), dtype=complex)


def lame_coefficients(ell: int, re: RationalEta, x0: complex, ev: ThetaEvaluator):
    """Hop amplitudes of the symmetric gauge on the orbit x_n = x0 + n*eta.

    a_n = theta1(x_n - l*eta)/theta1(x_n), c_n = theta1(x_n + l*eta)/theta1(x_n),
    no diagonal term, read from one shifted theta table at the shifts 0,
    -l*eta and l*eta.  Returns (a, c, x0), with x0 as given: a denominator
    within the guard of a theta1 zero raises PoleProximityError rather than
    moving the orbit.
    """
    xs = x0 + np.arange(re.Q) * re.eta
    t = theta(1, xs, ev, shifts=[0, -ell * re.eta, ell * re.eta])
    den = t[:, 0]
    if not np.min(np.abs(den)) > max(ev.tol, 1e-8) * abs(ev.theta1_prime0):
        raise PoleProximityError(f"theta1 ~ 0 on the orbit x0 + n*eta, x0={x0}")
    return t[:, 1] / den, t[:, 2] / den, x0


@dataclass(frozen=True)
class EdgeCandidates:
    """Candidate edges from the periodic/antiperiodic spectra.

    ``values[i]`` is a cluster center and ``confident[i]`` is True for clean
    simple eigenvalues (open-gap edges).  ``spectra`` is the (2, Q) array of
    the phase +1 and phase -1 eigenvalues, each row in the solver's order:
    by (Re, Im), with real parts that tie to rounding counted equal.
    Clusters are runs along these rows, and ``band_intervals(spectra)``
    gives the bands.
    """

    values: np.ndarray
    confident: np.ndarray
    spectra: np.ndarray

    def confident_values(self) -> np.ndarray:
        return self.values[self.confident]


def numeric_band_edges(ell: int, re: RationalEta, x0: complex, ev: ThetaEvaluator) -> EdgeCandidates:
    a, c, _ = lame_coefficients(ell, re, x0, ev)
    return numeric_band_edges_from_coefficients(a, c)


def numeric_band_edges_from_coefficients(a_vals, c_vals) -> EdgeCandidates:
    """Simple eigenvalues at wrap phase +1 and -1, degenerate pairs dropped.

    Each spectrum keeps the solver's order, and a cluster is a run along it
    whose consecutive steps are within CLUSTER_TOL * max|E| (per phase).
    Clusters of size 1 are confident edge candidates, size 2 are closed-gap
    interior points, anything larger is flagged non-confident rather than
    guessed.  The centers of both phases are then sorted by (Re, Im).
    """
    solve = _spectrum_solver(np.asarray(a_vals, complex), np.asarray(c_vals, complex))
    plus = solve(1.0)
    # odd Q: diag((-1)^n) maps the matrix at phase phi to minus it at -phi;
    # negation reverses the solver's order
    spectra = np.array([plus, -plus[::-1] if len(plus) % 2 else solve(-1.0)])
    d = spectra[:, 1:] - spectra[:, :-1]
    # hypot, as abs of a scalar: np.abs of a complex array rounds differently
    split = np.hypot(d.real, d.imag) > CLUSTER_TOL * np.abs(spectra).max(axis=1, keepdims=True)
    run = np.cumsum(np.concatenate((_ROW_STARTS, split), axis=1))
    size = np.bincount(run)
    values = (np.bincount(run, spectra.real.ravel())
              + 1j * np.bincount(run, spectra.imag.ravel())) / size
    keep = size != 2  # closed gap / interior double
    values, confident = values[keep], size[keep] == 1
    order = np.lexsort((values.imag, values.real))
    return EdgeCandidates(values=values[order], confident=confident[order], spectra=spectra)


def band_sweep(ell: int, re: RationalEta, x0: complex, k_grid, ev: ThetaEvaluator) -> np.ndarray:
    """Sorted eigenvalue trajectories over a momentum grid.

    Returns an array of shape (len(k_grid), Q) with each row the sorted
    (by real part) spectrum at that momentum.  This is the dispersion table
    of ``spectrum --format csv`` and the reference route for the bands;
    the bands themselves need only ``EdgeCandidates.spectra``.
    """
    a, c, _ = lame_coefficients(ell, re, x0, ev)
    solve = _spectrum_solver(a, c)
    return np.array([solve(cmath.exp(1j * k * re.eta * re.Q)) for k in k_grid])


def band_intervals(sweep: np.ndarray):
    """Maximal stable intervals from a (rows, Q) array of sorted spectra.

    Each sorted-index column spans [min E_i, max E_i]; taken in order of
    their lower ends, the spans merge into one band until a lower end lies
    more than CLUSTER_TOL * scale above the highest upper end so far (the
    threshold the edge candidates are clustered with), where the next band
    starts.  The imaginary parts must be noise: a spread beyond NONREAL_TOL
    raises ClusterAmbiguityError instead of silently projecting a genuinely
    complex spectrum.

    The two rows of ``EdgeCandidates.spectra`` (phase +1 and -1) are enough
    (Floquet theory; Teschl, Jacobi Operators and Completely Integrable
    Nonlinear Lattices, AMS 2000, ch. 7).  For the Lame coefficients
    prod c_n = prod a_n over one period (the theta1 products telescope), so
    the eigenvalues of the Q x Q matrix at phase phi are the roots of
    p(E) = A (phi + 1/phi), where p does not depend on phi and A = +-prod a_n.
    If p - 2A and p + 2A have only real roots, so does p - tA for every t in
    [-2, 2], and the i-th band runs between the i-th sorted root at phase +1
    and the i-th at phase -1.  So a sweep over momenta gives the same bands,
    and a spectrum that is non-real at some momentum is already non-real at
    phase +1 or -1, where the same guard rejects it.
    """
    if np.abs(sweep.imag).max() > NONREAL_TOL:
        raise ClusterAmbiguityError(
            f"spectrum is not numerically real: max |Im E| = {np.abs(sweep.imag).max():.3e}"
        )
    lo, hi = sweep.real.min(axis=0), sweep.real.max(axis=0)
    order = np.argsort(lo, kind="stable")
    lo, top = lo[order], np.maximum.accumulate(hi[order])
    tol = CLUSTER_TOL * max(abs(sweep.real).max(), 1.0)
    start = np.concatenate(([True], lo[1:] > top[:-1] + tol))
    end = np.concatenate((start[1:], [True]))
    return list(zip(lo[start].tolist(), top[end].tolist()))
