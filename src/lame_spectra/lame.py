"""The difference Lame operator, its double-Bloch eigenfunctions, and the
commuting operator that closes the hyperelliptic relation.

Two gauges of the same operator act on functions of a complex variable:

    (L Psi)(x)  = theta1(x - l*eta)/theta1(x) * Psi(x + eta)
                + theta1(x + l*eta)/theta1(x) * Psi(x - eta)

    (Lt psi)(x) = psi(x + eta)
                + theta1(x + l*eta) theta1(x - (l+1)*eta)
                  / (theta1(x) theta1(x - eta)) * psi(x - eta)

related by Lt = f^-1 L f with f(x) = prod_{j=1..l} theta1(x - j*eta).

Eigenfunctions are sought in the double-Bloch class built from the
elementary kernel Phi(x, zeta) = theta1(zeta + x)/(theta1(x) theta1(zeta)):

    psi(x) = K^(x/eta) * sum_{j=1..l} s_j Phi(x - j*eta, zeta)

Matching residues of (Lt - E) psi at x = 0..l*eta gives an (l+1) x l linear
system M s = 0; the two determinants obtained by deleting the first or the
second row cut out the spectral curve in (zeta, K, E); they stay as the
oracle of the minor identity.  Every on-curve decision reads the SVD of the
row-scaled matrix instead, whose null vector is s: ``_sigma_min`` stacks the
points it tests, and the SVD with vectors of one point is kept in a bounded
module cache (``_point_svd``), so Newton's seed and the Bloch vector share
it.  E enters the matrix only on one diagonal, so one E-free matrix per
(zeta, K), kept in a bounded module cache (``_E_free_M``), serves every
request there.

The commuting operator W certifies a point: ``w_eigenvalue`` samples W Psi/Psi
at Halton points x.  Every theta1 value it needs lies on the two progressions
x + n*eta and zeta + x + n*eta, n = -(3l+1)..2l+1, so it reads them, with
theta1(zeta), from one shifted theta table (``build_Psi`` reads its n = -l..0
the same way).  Its spread check is relative above |w| = 1 and absolute
below: near a band edge w is tiny and the W sum cancels to the scale of its
terms, not of w.

The records here (``LameContext``, ``CurvePoint``, ``BlochCoeffs`` and the
context's bundle ``_ContextParts``) are NamedTuples, as every record of the
package is (see ``theta``): a frozen dataclass takes about 1 ms to define at
import.  ``LameContext`` and ``CurvePoint`` check their fields in
``__new__``; a context's bundle lives in the bounded module cache
``_context_parts``, keyed by the context.
"""

import cmath
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# ebracket is not called here, but perfbench/tracing.py rebinds it on this module
from .enumbers import ebracket, ebinom, efactorial, theta1_multiples
from .errors import ConsistencyError
from .theta import ThetaEvaluator, _checked_make, _nonzero, theta
from .util import halton, nearest_lattice_point

__all__ = [
    "LameContext",
    "CurvePoint",
    "BlochCoeffs",
    "phi",
    "apply_L",
    "apply_Ltilde",
    "gauge_factor",
    "residual",
    "scaled_residual",
    "solve_bloch_coeffs",
    "build_psi",
    "build_Psi",
    "apply_W",
    "w_eigenvalue",
]


# M is rank deficient when the smallest singular value of its row-scaled form is at most this
RANK_TOL = 1e-6
# w_eigenvalue samples W Psi/Psi at W_SAMPLES points at least W_MARGIN from every
# theta1 zero the W formula hits, and accepts a spread up to W_REL_TOL * max(|w|, 1)
W_SAMPLES = 10
W_MARGIN = 1e-3
W_REL_TOL = 1e-7
# eta-only bundles kept by _context_parts, one per (l, evaluator parameters), least recently
# used dropped first
_CONTEXT_PARTS_MAX = 64


class _LameContextFields(NamedTuple):
    ell: int
    ev: ThetaEvaluator


class LameContext(_LameContextFields):
    """Degree l plus a theta evaluator; holds the eta-only parts of the
    residue matrix and of W.

    N = l(l+1)/2 is the genus-fixing count that recurs in every curve
    formula.  Construction fails with TorsionEtaError if any bracket
    [1..2l+2] vanishes, since all residue formulas divide by them.  The parts
    are built once per (l, evaluator parameters), as one bundle in a bounded
    module cache (``_context_parts``), so contexts built anew per request
    share them.
    """

    __slots__ = ()

    def __new__(cls, ell: int, ev: ThetaEvaluator):
        if ell < 0:
            raise ValueError(f"ell must be a non-negative integer, got {ell}")
        efactorial(2 * ell + 2, ev)
        return super().__new__(cls, ell, ev)

    _make = classmethod(_checked_make)

    @property
    def N(self) -> int:
        return self.ell * (self.ell + 1) // 2


class _ContextParts(NamedTuple):
    """The eta-only parts of a context, read-only: ``M`` = (P, D, B, R, n, m*eta)
    of the residue matrix, ``w`` the weights of the shifts in W and ``samples``
    the W_SAMPLES points of ``w_eigenvalue``."""

    M: tuple
    w: np.ndarray
    samples: np.ndarray


@lru_cache(maxsize=_CONTEXT_PARTS_MAX)
def _context_parts(ctx: LameContext) -> _ContextParts:
    """The bundle of ``ctx``: (P, D, B, R, n) of the residue matrix and zeta's
    offsets m*eta, m = 0..l+1, from theta1(k*eta), k = 0..2l, of the
    evaluator's table and theta1(-x) = -theta1(x), the divisors k = 1..l+1
    guarded; the W weights (-1)^k ebinom(2l+1, k), k = 0..2l+1; and
    ``_sample_points(ctx, W_SAMPLES)``."""
    l = ctx.ell
    t = theta1_multiples(2 * l, ctx.ev)
    _nonzero(t[1:l + 2], ctx.ev, "theta1(n*eta) for some n in 1..{}", l + 1)
    n = np.arange(2, l + 2) - np.arange(2)[:, None]
    # theta1((i+l) eta) theta1((i-l-1) eta) = -theta1(l eta) theta1((l+1) eta); row 1 is signed -1.
    # R and the hops are products of theta1 ratios: a product of two theta1(k eta), each
    # about exp(-pi Im tau/4), leaves the normal doubles from Im tau about 451
    R = np.array([[-1], [1]]) * (t[l] / t[1]) * (t[l + 1] / np.array(t)[n])
    # hop j = 1..l-1 sits at (j+1, j-1), the diagonal -2 of column j-1
    hops = [-(t[j + l + 1] / t[j + 1]) * (t[l - j] / t[j]) for j in range(1, l)]
    M = (np.eye(l + 1, l), np.eye(l + 1, l, -1), np.eye(l + 1, l, -2) * (hops + [0]), R, n,
         np.arange(l + 2) * ctx.ev.eta)
    w = np.array([(-1) ** k * ebinom(2 * l + 1, k, ctx.ev) for k in range(2 * l + 2)])
    for a in (*M, w):
        a.flags.writeable = False
    return _ContextParts(M, w, _sample_points(ctx, W_SAMPLES))


class _CurvePointFields(NamedTuple):
    zeta: complex
    K: complex
    E: complex


class CurvePoint(_CurvePointFields):
    """Spectral parameters (zeta, K, E) with derived Bloch multipliers.

    K^(x/eta) always uses the principal logarithm of K; the multipliers
    B1 = K^(1/eta) and Btau = K^(tau/eta) e^(-2i*pi*zeta) inherit it, and
    raise OverflowError, naming the exponent, beyond the double range.
    """

    __slots__ = ()

    def __new__(cls, zeta: complex, K: complex, E: complex):
        if K == 0:
            raise ValueError("K must be nonzero")
        return super().__new__(cls, zeta, K, E)

    _make = classmethod(_checked_make)

    @property
    def log_K(self) -> complex:
        return cmath.log(self.K)

    def B1(self, ev: ThetaEvaluator) -> complex:
        return _exp("B1", self.log_K / ev.eta)

    def Btau(self, ev: ThetaEvaluator) -> complex:
        return _exp("Btau", self.log_K * ev.tau / ev.eta) * _exp("Btau", -2j * cmath.pi * self.zeta)


def _exp(name: str, z: complex) -> complex:
    """cmath.exp(z), whose OverflowError names the quantity and the exponent."""
    try:
        return cmath.exp(z)
    except OverflowError:
        raise OverflowError(f"{name} = exp({z:.1e}) is outside the double range") from None


class BlochCoeffs(NamedTuple):
    """Null vector s of the residue system, largest entry normalized to 1."""

    s: np.ndarray
    second_sv: float


def _guarded_t1(x, ev):
    return _nonzero(theta(1, x, ev), ev, "theta1({})", x)


def phi(x: complex, zeta: complex, ev: ThetaEvaluator) -> complex:
    """Elementary double-Bloch kernel theta1(zeta+x)/(theta1(x) theta1(zeta)).

    Periodic in x -> x+1, picks up exp(-2i*pi*zeta) under x -> x+tau, and
    has a single simple pole (residue 1/theta1'(0)) per lattice cell.
    """
    return theta(1, zeta + x, ev) / (_guarded_t1(x, ev) * _guarded_t1(zeta, ev))


def apply_L(psi, x: complex, ctx: LameContext) -> complex:
    """Act with the symmetric-gauge operator on a callable psi at x."""
    ev = ctx.ev
    den = _guarded_t1(x, ev)
    a = theta(1, x - ctx.ell * ev.eta, ev) / den
    c = theta(1, x + ctx.ell * ev.eta, ev) / den
    return a * psi(x + ev.eta) + c * psi(x - ev.eta)


def apply_Ltilde(psi, x: complex, ctx: LameContext) -> complex:
    """Act with the elliptic-coefficient gauge on a callable psi at x."""
    ev = ctx.ev
    l = ctx.ell
    den = _guarded_t1(x, ev) * _guarded_t1(x - ev.eta, ev)
    coeff = theta(1, x + l * ev.eta, ev) * theta(1, x - (l + 1) * ev.eta, ev) / den
    return psi(x + ev.eta) + coeff * psi(x - ev.eta)


def gauge_factor(x: complex, ctx: LameContext) -> complex:
    """f(x) = prod_{j=1..l} theta1(x - j*eta), intertwining the two gauges."""
    ev = ctx.ev
    out = 1 + 0j
    for j in range(1, ctx.ell + 1):
        out *= theta(1, x - j * ev.eta, ev)
    return out


# E-free residue matrices kept by _E_free_M, and row-scaled SVDs by _point_svd, each
# holding one request's curve points; least recently used dropped first
_POINTS_MAX = 32


@lru_cache(maxsize=_POINTS_MAX)
def _E_free_M(zeta: complex, K: complex, ctx: LameContext):
    """The residue matrix at (zeta, K, E = 0) and its term magnitudes,
    read-only, from one theta1(zeta - m*eta) call; cached by value."""
    l = ctx.ell
    if l < 1:
        raise ValueError(f"the residue system needs ell >= 1, got ell={l}")
    ev = ctx.ev
    P, D, B, R, n, m_eta = _context_parts(ctx).M
    # theta1(zeta - m*eta) for m = 0..l+1 in one call
    tz = theta(1, zeta - m_eta, ev)
    _nonzero(tz[0], ev, "theta1({})", zeta)
    hops, corr = B / K, R * tz[n] / (K * tz[0])
    M = K * P + hops
    M[:2] += corr
    mag = abs(K) * P + np.abs(hops)
    mag[:2] += np.abs(corr)
    M.flags.writeable = mag.flags.writeable = False
    return M, mag


def _build_M_with_magnitudes(pt: CurvePoint, ctx: LameContext):
    """The (l+1) x l residue-matching matrix M at pt = (zeta, K, E) and the
    magnitudes of its terms, entry by entry.

    Rows i = 0..l, columns j = 1..l:

        M_ij = K d(i, j-1) - E d(i, j)
             + K^-1 theta1((j+l+1) eta) theta1((j-l) eta)
                    / (theta1((j+1) eta) theta1(j eta)) * d(i, j+1)
             + K^-1 theta1(zeta - (j-i+1) eta)/theta1(zeta)
                    * theta1((i+l) eta) theta1((i-l-1) eta)
                    / (theta1(eta) theta1((j-i+1) eta)) * (d(i,0) - d(i,1))

    Rows i >= 2 are banded; rows 0 and 1 carry the dense correction pair.
    So M = K P - E D + K^-1 (B + C(zeta)): P and D are the 0/1 patterns
    d(i, j-1) and d(i, j), B the hops, and C = R theta1(zeta - n eta)/theta1(zeta)
    on rows 0-1, n = j-i+1; (P, D, B, R, n) is cached per context.

    E enters M only as -E D, and P, D and B have disjoint patterns, so both
    are the E-free pair of ``_E_free_M`` at (zeta, K), minus E D and plus
    |E| D: every entry as a direct build rounds it.  The pair is kept in a
    bounded module cache, so the requests of one point share one build.
    """
    M0, mag0 = _E_free_M(pt.zeta, pt.K, ctx)
    D = _context_parts(ctx).M[1]
    return M0 - pt.E * D, mag0 + abs(pt.E) * D


def _minors(M: np.ndarray, mag: np.ndarray):
    """Arrays (det M0, det M1) and (r0, r1) of a residue matrix M with its
    term magnitudes: M0 and M1 drop row 0 and row 1, both determinants come
    from one stacked ``det``, and r is |det| over the Hadamard bound of the
    kept rows of term magnitudes."""
    l = M.shape[1]
    rows = np.array([range(1, l + 1), [0, *range(2, l + 1)]])
    dets = np.linalg.det(M[rows])
    bounds = np.maximum(np.linalg.norm(mag, axis=1), 1e-300)[rows]
    return dets, np.hypot(dets.real, dets.imag) / np.prod(bounds, axis=1)


def _row_scaled(M: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """M with each row divided by the norm of its row of term magnitudes.
    Then max_i |(M_r s)_i| / ||s|| is the backward error of s as a null
    vector of M, row by row, and sigma_min(M_r) that of M as a
    rank-deficient matrix: rows 0-1 carry C(zeta) ~ 1/theta1(zeta), which
    would swamp a norm of the whole matrix near a pole."""
    return M / np.maximum(np.linalg.norm(mag, axis=-1), 1e-300)[..., None]


def _sigma_min(points, ctx: LameContext) -> np.ndarray:
    """sigma_min of the row-scaled residue matrix at each of ``points``, from one
    stacked SVD: the on-curve test of the edge points and of a point's images."""
    M, mag = map(np.array, zip(*(_build_M_with_magnitudes(pt, ctx) for pt in points)))
    return np.linalg.svd(_row_scaled(M, mag), compute_uv=False)[:, -1]


@lru_cache(maxsize=_POINTS_MAX)
def _point_svd(pt: CurvePoint, ctx: LameContext):
    """The singular values of the row-scaled residue matrix at pt and the unit
    right singular vector of the smallest, read-only; cached by value, so
    Newton's seed and ``solve_bloch_coeffs`` at an unstepped point share one
    SVD."""
    _, sv, vh = np.linalg.svd(_row_scaled(*_build_M_with_magnitudes(pt, ctx)))
    s = vh[-1].conj()
    sv.flags.writeable = s.flags.writeable = False
    return sv, s


def residual(pt: CurvePoint, ctx: LameContext):
    """(det M0, det M1): determinants after deleting row 0 and row 1.

    Both vanish exactly when (zeta, K, E) lies on the spectral curve.
    """
    return tuple(_minors(*_build_M_with_magnitudes(pt, ctx))[0].tolist())


def scaled_residual(pt: CurvePoint, ctx: LameContext):
    """Residual determinants in units of their term-magnitude Hadamard bounds.

    The bounds come from the entry-wise sums of term magnitudes, which never
    cancel on the curve, so the scaled values measure how far below the
    conditioning floor the determinants sit.
    """
    return tuple(_minors(*_build_M_with_magnitudes(pt, ctx))[1].tolist())


def solve_bloch_coeffs(pt: CurvePoint, ctx: LameContext) -> BlochCoeffs:
    """Null vector of M via the smallest singular direction of the row-scaled
    M_r (``_point_svd``, the one SVD of the point).

    Raises ConsistencyError if sigma_min(M_r) exceeds RANK_TOL (the point is
    not on the curve).  The returned vector is normalized so its largest
    entry is exactly 1; the gap to the second singular value (inf at l = 1)
    certifies uniqueness.
    """
    sv, s = _point_svd(pt, ctx)
    if sv[-1] > RANK_TOL:
        raise ConsistencyError(f"no null space: row-scaled sigma_min {sv[-1]:.3e} > {RANK_TOL:.0e}")
    s = s / s[np.argmax(np.abs(s))]
    return BlochCoeffs(s=s, second_sv=float(sv[-2]) if len(sv) > 1 else float("inf"))


def build_psi(pt: CurvePoint, coeffs: BlochCoeffs, x: complex, ctx: LameContext) -> complex:
    """The meromorphic eigenfunction K^(x/eta) sum_j s_j Phi(x - j*eta, zeta)."""
    ev = ctx.ev
    out = 0j
    for j in range(1, ctx.ell + 1):
        out += coeffs.s[j - 1] * phi(x - j * ev.eta, pt.zeta, ev)
    return cmath.exp(pt.log_K * x / ev.eta) * out


def _progressions(zeta: complex, xs: np.ndarray, n: np.ndarray, ev: ThetaEvaluator):
    """theta1(x + n*eta) and theta1(zeta + x + n*eta), each of shape
    xs.shape + n.shape, and the guarded theta1(zeta): one shifted call on the
    points [x..., zeta + x..., zeta].  ``n`` is increasing and holds 0."""
    flat = xs.ravel()
    t = theta(1, np.concatenate([flat, zeta + flat, [zeta]]), ev, shifts=n * ev.eta)
    t1z = _nonzero(t[-1, -n[0]], ev, "theta1({})", zeta)
    shape = xs.shape + n.shape
    return t[:flat.size].reshape(shape), t[flat.size:-1].reshape(shape), t1z


def _Psi_sum(pt: CurvePoint, coeffs: BlochCoeffs, ys, cols, tx, tz, t1z, ev: ThetaEvaluator):
    """Psi(y) from the tables of ``_progressions``, whose columns cols[..., k-1]
    hold theta1(y - k*eta) and theta1(zeta + y - k*eta), k = 1..l."""
    t = tx[..., cols]
    # the k = m factor is masked to 1, never divided out: theta1(y - m*eta)
    # vanishes at y = m*eta, where Psi is finite
    others = np.where(np.eye(t.shape[-1], dtype=bool), 1, t[..., None, :]).prod(axis=-1)
    return np.exp(pt.log_K * ys / ev.eta) * (coeffs.s * (tz[..., cols] / t1z) * others).sum(axis=-1)


def build_Psi(pt: CurvePoint, coeffs: BlochCoeffs, x, ctx: LameContext):
    """psi(x) * prod_{j=1..l} theta1(x - j*eta), evaluated in its entire form.

    The poles of psi cancel against the product zeros term by term, so each
    summand below is entire and the value is finite for every x:

        Psi(x) = K^(x/eta) sum_m s_m theta1(zeta + x - m*eta)/theta1(zeta)
                 * prod_{k != m} theta1(x - k*eta)

    ``x`` is a scalar (returns a complex) or an ndarray (returns one of its
    shape); both theta1 progressions come from one shifted call.
    """
    l = ctx.ell
    xs = np.asarray(x, dtype=complex)
    # n = -l..0: theta1(x - k*eta) sits in column l - k
    tables = _progressions(pt.zeta, xs, np.arange(-l, 1), ctx.ev)
    out = _Psi_sum(pt, coeffs, xs, l - np.arange(1, l + 1), *tables, ctx.ev)
    return complex(out) if out.ndim == 0 else out


def _W_sum(t, Psi_shifted, ctx: LameContext):
    """W Psi from theta1(x + j*eta), j = -(2l+1)..2l+1, on the last axis of
    ``t`` and Psi(x + j*eta), j = 2l+1, 2l-1, .., -(2l+1), on that of
    ``Psi_shifted``."""
    l = ctx.ell
    pref = t[..., l + 1:3 * l + 2].prod(axis=-1)  # j = -l..l
    # the k-th denominator is the window j = -k..2l-k+1 of the table
    den = sliding_window_view(t, 2 * l + 2, axis=-1)[..., ::-1, :].prod(axis=-1)
    # the k-th shift is j = 2l-2k+1: every other entry, from the top down
    return pref * (_context_parts(ctx).w * t[..., ::-2] / den * Psi_shifted).sum(axis=-1)


def _W_guard(t, x, l: int, ev: ThetaEvaluator):
    return _nonzero(t, ev, "theta1(x + j*eta), |j| <= {}, for some x in {}", 2 * l + 1, x)


def apply_W(Psi, x, ctx: LameContext):
    """Act with the commuting operator of order 2l+1 on a callable Psi.

    W = phi_l(x) sum_{k=0}^{2l+1} (-1)^k ebinom(2l+1, k)
        theta1(x + (2l-2k+1) eta)
        / (prod_{j=0}^{2l-k+1} theta1(x + j eta) prod_{j'=1}^{k} theta1(x - j' eta))
        * shift by (2l-2k+1) eta,

    with phi_l(x) = prod_{j=0}^{2l} theta1(x + (j-l) eta).  Its eigenvalue w
    on a joint eigenfunction closes w^2 = prod_i (E^2 - E_i^2).

    ``x`` is a scalar or an ndarray.  Every theta1 factor comes from one
    guarded shifted call, theta1(x + j*eta) for j = -(2l+1)..2l+1, and Psi
    is called once, on the array of shape x.shape + (2l+2,) of shifted points.
    """
    l = ctx.ell
    xs = np.asarray(x, dtype=complex)
    j_eta = np.arange(-(2 * l + 1), 2 * l + 2) * ctx.ev.eta
    t = _W_guard(theta(1, xs, ctx.ev, shifts=j_eta), x, l, ctx.ev)
    out = _W_sum(t, Psi((xs[..., None] + j_eta)[..., ::-2]), ctx)
    return complex(out) if out.ndim == 0 else out


@cache
def _halton_window() -> np.ndarray:
    """200 Halton points in the window the W ratio is sampled in, built once."""
    window = (0.05 + 0.9 * halton(200, 2)) + 1j * (0.02 + 0.25 * halton(200, 3))
    window.flags.writeable = False
    return window


def _sample_points(ctx: LameContext, n: int) -> np.ndarray:
    """The first n Halton points of the window at least W_MARGIN from every
    theta1 zero the W formula hits, read-only; the whole window is filtered
    only when its first 2n points leave fewer than n."""
    ev = ctx.ev
    l = ctx.ell
    shifts = np.arange(-(2 * l + 2), 2 * l + 3) * ev.eta
    window = _halton_window()
    for cand in (window[:2 * n], window):
        x = cand[:, None] + shifts
        pts = cand[(np.abs(x - nearest_lattice_point(x, ev.tau)) >= W_MARGIN).all(axis=1)][:n]
        if len(pts) == n:
            pts.flags.writeable = False
            return pts
    raise ConsistencyError("could not find enough pole-free sample points")


def _median(a: np.ndarray):
    """``np.median`` of a finite 1-D array, bit for bit, from one sort: the
    middle value, or the mean of the middle two.  np.median's own NaN check
    imports numpy.ma."""
    s = np.sort(a)
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def w_eigenvalue(pt: CurvePoint, coeffs: BlochCoeffs, ctx: LameContext) -> complex:
    """Eigenvalue w with W Psi = w Psi, as a consistency-checked ratio.

    Evaluates W Psi / Psi at W_SAMPLES Halton-sampled points x away from
    the theta zeros, rejects outliers beyond 5x the median deviation, and
    requires the surviving spread to be below ``W_REL_TOL * max(|w|, 1)``: a
    relative scale above |w| = 1 and an absolute one below it, where W Psi
    cancels to the scale of its terms (near a band edge |w| is tiny).  A
    larger spread means Psi is not a joint eigenfunction and raises
    ConsistencyError, as does a ratio that is not finite at some point.  The
    medians are ``_median``'s, np.median's values from one sort each.  The
    check reads zeta, K and s, never E: it certifies the Bloch vector, and a
    wrong E passes it.

    Every theta1 value comes from one shifted table on the progressions
    x + n*eta and zeta + x + n*eta, n = -(3l+1)..2l+1, plus theta1(zeta):
    Psi(x + j*eta) for j = 0 and the shifts of W reads columns j - k, and
    the W coefficients read columns -(2l+1)..2l+1, guarded as in ``apply_W``.
    """
    l = ctx.ell
    lo = -(3 * l + 1)
    xs = _context_parts(ctx).samples
    tx, tz, t1z = _progressions(pt.zeta, xs, np.arange(lo, 2 * l + 2), ctx.ev)
    js = np.append(np.arange(2 * l + 1, -(2 * l + 2), -2), 0)
    Psi = _Psi_sum(pt, coeffs, xs[:, None] + js * ctx.ev.eta,
                   js[:, None] - np.arange(1, l + 1) - lo, tx, tz, t1z, ctx.ev)
    denom = Psi[:, -1]
    usable = np.abs(denom) >= ctx.ev.tol
    if np.count_nonzero(usable) < 3:
        raise ConsistencyError("too few usable sample points for the W ratio")
    t = _W_guard(tx[usable, l:], xs[usable], l, ctx.ev)  # j = -(2l+1)..2l+1
    arr = _W_sum(t, Psi[usable, :-1], ctx) / denom[usable]
    if not np.isfinite(arr).all():
        raise ConsistencyError("W ratio is not finite at some sample point")
    med = complex(_median(arr.real), _median(arr.imag))
    dev = np.abs(arr - med)
    cut = 5 * max(float(_median(dev)), ctx.ev.tol * max(abs(med), 1.0))
    keep = arr[dev <= cut]
    if len(keep) < 3:
        keep = arr
    w = complex(keep.mean())
    spread = float(np.max(np.abs(keep - w)))
    if spread > W_REL_TOL * max(abs(w), 1.0):
        raise ConsistencyError(
            f"W ratio spread {spread:.3e} exceeds {W_REL_TOL:.1e} * max(|w|, 1): "
            "not a joint eigenfunction"
        )
    return w
