"""The spectral curve: band-edge systems, Bloch-multiplier relation, and the
combinatorial coefficient identities behind it.

The curve in (zeta, K, E) is cut out by two sums built from a family of
polynomials A_j(E) (deg A_j = l - j):

    S1 = sum_{j=0}^{l}   (-1)^j K^-j theta1(zeta - j eta) ebinom(l, j) A_j(E)
    S2 = sum_{j=0}^{l+1} (-1)^j K^-j theta1(zeta - j eta) [j-1]
                         ebinom(l+1, j) A_|j-1|(E)

The band edges of label a = 1..4 are the eigenvalues of L on a space of even
theta functions of order l (``band_edges``); the full edge set is their
union together with its reflection E -> -E.  All four labels come from one
projection onto one Fourier table (a read-only table per (l, truncation,
label characteristics) in a bounded module cache, ``_edge_table``) and two
``eigvals`` calls, one for label 1 and one stacked for labels 2-4.

Eliminating E leads to a single relation between the Bloch parameters,

    sum_{j=0}^{N} (-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)) = 0,

with subset-sum coefficients C_j that reduce to binomial(N, j) as eta -> 0.

The two sums are the paper's form of the curve.  Curve points are solved
on the residue matrix M of ``lame`` instead, whose two minors are the same
functions: det M0 = -[2] S1/theta1(zeta) and det M1 = -K S2/theta1(zeta).
A point is a rank drop of M, and one Newton loop solves M s = 0, c^H s = 1
for (zeta, K, E), zeta or E held, and the null vector s at once, with one
exact Jacobian column rule per coordinate.  Every on-curve decision reads M
with each row scaled by its term magnitudes: its SVD seeds the points and
accepts the edge points, the backward error of s accepts Newton's.  The
sums (``curve_equations``) stay as the oracle of the minor identity.

A polynomial in E is a 1-D complex coefficient array in increasing degree,
the layout of ``numpy.polynomial.polynomial``; a stack of polynomials is a
2-D array, one per row.  ``polyval`` is numpy's with ``tensor=False``, value
for value, so that importing this module does not load the
``numpy.polynomial`` package.

``BandEdgeSet`` and ``CurveCoeffs`` are plain NamedTuples, as every record of
the package is (see ``theta``).
"""

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .enumbers import ebinom, ebracket, efactorial, nonzero_bracket, qnumber, theta1_multiples
from .errors import ClusterAmbiguityError, ConvergenceError, PoleProximityError, TorsionEtaError
# phi, residual and scaled_residual are not called here, but perfbench/tracing.py rebinds them on this module
from .lame import (CurvePoint, LameContext, _build_M_with_magnitudes, _point_svd, _row_scaled, _sigma_min,
                   phi, residual, scaled_residual)
from .theta import ThetaEvaluator, _nonzero, theta
from .util import nearest_lattice_point

__all__ = [
    "BandEdgeSet",
    "CurveCoeffs",
    "a_polys_recurrence",
    "a_polys_determinant",
    "curve_equations",
    "band_edges",
    "closed_form_edges",
    "curve_coeffs",
    "bloch_relation",
    "bloch_relation_det",
    "cauchy_det",
    "weyl_denominator_check",
    "solve_curve_point",
    "edge_curve_points",
    "random_curve_points",
]

# a Newton point is accepted once the row-scaled backward error of its null vector,
# max_i |(M s)_i| / (||mag_i|| ||s||), is below NEWTON_TOL, within NEWTON_MAX_ITER
# steps, and an edge point once sigma_min of its row-scaled M is
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 100
# a fixed-E solve stops once its zeta is within this of a lattice point, a pole of M
POLE_MARGIN = 1e-6
# the C_j subset sums take O(2^l) time and memory (~60 B * 2^l at peak)
CJ_MAX_ELL = 20
# the weakest edge-basis column's largest weight is exp(-pi Im tau l/4): its square,
# in the column norms, is a normal double (above DBL_MIN = 2^-1022) while Im(tau) l
# is at most this, about 450.98
EDGE_BASIS_MAX_IM_TAU_ELL = 2 * 1022 * math.log(2) / math.pi


def polyval(x, c):
    """numpy.polynomial.polynomial.polyval(x, c, tensor=False) for a float or
    complex array c: Horner's rule in numpy's order of operations, so that
    every value is bit for bit numpy's."""
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def a_polys_recurrence(ell: int, ev: ThetaEvaluator) -> np.ndarray:
    """A_l .. A_0 by downward three-term recurrence; row j of the returned
    (l+1, l+1) array holds A_j, zero-padded.

    A_l = 1, A_{l-1} = ([l]/[2l]) E, and

        A_{l-s-1} = ([l-s]/[2l-s]) E A_{l-s} + ([s]/[2l-s]) A_{l-s+1}.

    The factorial table guards [2] .. [2l] in increasing order first, so a
    torsion eta is reported with its true order, the smallest vanishing one.
    """
    efactorial(2 * ell, ev)
    A = np.zeros((ell + 1, ell + 1), dtype=complex)
    A[ell, 0] = 1.0
    if ell >= 1:
        A[ell - 1, 1] = ebracket(ell, ev) / nonzero_bracket(2 * ell, ev)
    for s in range(1, ell):
        den = nonzero_bracket(2 * ell - s, ev)
        A[ell - s - 1, 1:] = A[ell - s, :-1] * (ebracket(ell - s, ev) / den)
        A[ell - s - 1] += A[ell - s + 1] * (ebracket(s, ev) / den)
    return A


def a_polys_determinant(ell: int, s: int, E: complex, ev: ThetaEvaluator) -> complex:
    """A_{l-s}(E) from the s x s tridiagonal determinant route.

    det( E d(i,j) + [-i]/[l+1-i] d(i,j-1) + [2l+2-i]/[l+1-i] d(i,j+1) ),
    1 <= i,j <= s, times ebinom(l,s)/ebinom(2l,s); the empty determinant
    (s = 0) is 1.
    """
    if not 0 <= s <= ell:
        raise ValueError(f"need 0 <= s <= ell, got s={s}")
    d_prev, d_cur = 1 + 0j, 1 + 0j  # D_{-1} sentinel unused, D_0 = 1
    for k in range(1, s + 1):
        if k == 1:
            d_new = E
        else:
            sup = -ebracket(k - 1, ev) / nonzero_bracket(ell + 2 - k, ev)
            sub = ebracket(2 * ell + 2 - k, ev) / nonzero_bracket(ell + 1 - k, ev)
            d_new = E * d_cur - sup * sub * d_prev
        d_prev, d_cur = d_cur, d_new
    pref = ebinom(ell, s, ev) / _binom_nz(2 * ell, s, ev)
    return pref * d_cur


def _binom_nz(n: int, m: int, ev: ThetaEvaluator) -> complex:
    val = ebinom(n, m, ev)
    if abs(val) < ev.tol:
        raise TorsionEtaError(f"ebinom({n},{m}) ~ 0 at eta={ev.eta}")
    return val


def _curve_rows(A: np.ndarray, w: list, ev: ThetaEvaluator):
    """The weighted rows of the two curve sums, for weights w_0..w_{l+1}:
    w_j ebinom(l, j) A_j (j = 0..l) and (w_j [j-1]) ebinom(l+1, j) A_|j-1|
    (j = 0..l+1).  Summing the rows of a stack gives its sum as a polynomial.

    The eta-only factors are the evaluator's table values, applied to a
    weight in that fixed order as Python scalars: numpy's vectorised complex
    product rounds differently (fused multiply-add)."""
    ell = len(A) - 1
    c1 = [w[j] * ebinom(ell, j, ev) for j in range(ell + 1)]
    c2 = [w[j] * ebracket(j - 1, ev) * ebinom(ell + 1, j, ev) for j in range(ell + 2)]
    below = np.abs(np.arange(ell + 2) - 1)
    return np.array(c1)[:, None] * A, np.array(c2)[:, None] * A[below]


def _point_weights(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator) -> list:
    """w_j = (-1)^j K^-j theta1(zeta - j eta), j = 0..l+1."""
    th = theta(1, zeta - np.arange(ell + 2) * ev.eta, ev).tolist()
    return [(-1) ** j * K ** (-j) * t for j, t in enumerate(th)]


def _curve_sum_terms(pt: CurvePoint, ctx: LameContext):
    A = a_polys_recurrence(ctx.ell, ctx.ev)
    w = _point_weights(pt.zeta, pt.K, ctx.ell, ctx.ev)
    rows1, rows2 = _curve_rows(A, w, ctx.ev)
    return polyval(pt.E, rows1.T), polyval(pt.E, rows2.T)


def curve_equations(pt: CurvePoint, ctx: LameContext):
    """Values (S1, S2) of the two defining sums; both vanish on the curve."""
    t1, t2 = _curve_sum_terms(pt, ctx)
    return complex(t1.sum()), complex(t2.sum())


# ---------------------------------------------------------------------------
# band edges

def half_period(a: int, tau: complex) -> complex:
    """omega_a: the half period labelling the fixed-point fibre a = 1..4."""
    return {1: 0.0 + 0j, 2: 0.5 + 0j, 3: (1 + tau) / 2, 4: tau / 2}[a]


class BandEdgeSet(NamedTuple):
    """Band edges per half-period label."""

    ell: int
    per_label: dict

    def union(self) -> list:
        out = []
        for a in (1, 2, 3, 4):
            out.extend(self.per_label[a])
        return out

    def with_reflection(self) -> list:
        base = self.union()
        return base + [-e for e in base]

    def counts(self) -> dict:
        return {a: len(self.per_label[a]) for a in (1, 2, 3, 4)}

    @staticmethod
    def expected_counts(ell: int) -> dict:
        if ell % 2 == 1:
            e1 = (ell - 1) // 2
            rest = (ell + 1) // 2
        else:
            e1 = ell // 2 + 1
            rest = ell // 2
        return {1: e1, 2: rest, 3: rest, 4: rest}


# the characteristic (eps, s) of the even space V_a, for ell even and ell odd:
# f(x + 1) = exp(2 pi i eps) f(x) and f(x + tau) = s exp(-i pi l tau - 2 pi i l x) f(x)
_EDGE_CHARS = {1: ((0.0, 1), (0.5, -1)), 2: ((0.0, -1), (0.5, 1)),
               3: ((0.5, -1), (0.0, 1)), 4: ((0.5, 1), (0.0, -1))}

# edge tables kept by _edge_table, least recently used dropped first
_EDGE_TABLES_MAX = 64


@functools.lru_cache(maxsize=_EDGE_TABLES_MAX)
def _edge_table(ell: int, K: int, chars: tuple):
    """The label-independent part of ``band_edges`` for truncation K and the
    characteristics ``chars`` = ((eps, s) of labels 1..4): the grid
    nu = g/2, -2Kl <= g < 2(K+1)l, holding every Fourier index of every label;
    the (G, 2l+1) pattern of the even basis functions, labels 1..4 in
    consecutive column blocks, each entry 0 or s^k (times s^m for the partner
    j'); the nonempty blocks grouped by size, as (labels, column indices of
    one block per row); and the DFT table exp(2 pi i nu (p + 0.37)/P) over
    P = 2l max(2, ceil(8/l)) points.  All arrays are read-only."""
    nu = np.arange(-2 * K * ell, 2 * (K + 1) * ell) / 2
    j = np.arange(ell)
    k = np.arange(-K, K + 1)
    blocks = []
    for eps, s in chars:
        m, jp = np.divmod(-j - round(2 * eps), ell)
        sign = np.where(m % 2, s, 1)
        keep = (j < jp) | ((j == jp) & (sign == 1))
        sk = np.where(k % 2, s, 1)
        # nu = j + eps + l k sits in grid row 2 nu + 2Kl = 2j + row
        row = 2 * ell * (k + K) + round(2 * eps)
        col = np.arange(keep.sum())[:, None]
        block = np.zeros((nu.size, len(col)))
        # b_j + s^m b_j'; a self-paired j is written once, as b_j
        block[2 * jp[keep, None] + row, col] = sign[keep, None] * sk
        block[2 * j[keep, None] + row, col] = sk
        blocks.append(block)
    pattern = np.hstack(blocks)
    sizes = [b.shape[1] for b in blocks]
    starts = np.cumsum([0] + sizes)
    groups = []
    for size in sorted(set(sizes) - {0}):
        labels = tuple(a + 1 for a in range(4) if sizes[a] == size)
        groups.append((labels, starts[[a - 1 for a in labels], None] + np.arange(size)))
    P = 2 * ell * max(2, -(-8 // ell))
    dft = np.exp((2j * math.pi / P) * np.outer(np.arange(P) + 0.37, nu))
    for arr in (nu, pattern, dft, *(idx for _, idx in groups)):
        arr.flags.writeable = False
    return nu, pattern, tuple(groups), dft


def band_edges(ell: int, ev: ThetaEvaluator) -> BandEdgeSet:
    """The label-a edges: the eigenvalues of L on V_a, the even theta
    functions of order l with the characteristic ``_EDGE_CHARS[a]``.

    V_a has the basis b_j(x) = sum_k s^k exp(i pi tau nu^2/l + 2 pi i nu x),
    nu = j + eps + l k (j = 0..l-1), and b_j(-x) = s^m b_j'(x) with
    j' = (-j - 2 eps) mod l, m = (-j - 2 eps - j')/l.  The even functions
    b_j + s^m b_j', one per pair {j, j'} except a self-paired j with s^m = -1,
    number dim V_a = ``BandEdgeSet.expected_counts(l)[a]``, with no rank test.
    Their Fourier supports are disjoint mod l, so their samples at P
    equispaced points of Im x = -Im tau/2 (no theta1 zeros), l | P, are
    orthogonal columns; normalised to Q, the edges are the eigenvalues of
    A = Q^H (L Q), sorted by (Re, Im).

    All four labels are one pass.  Every nu lies on one half-integer grid,
    and each basis function is a signed 0/+-1 pattern on it (``_edge_table``,
    cached by (l, K, the characteristics read at call time)); tau and eta
    enter only as per-nu weights w = exp(i pi Re tau nu^2/l - pi Im tau
    (nu - l/2)^2/l), at most 1, and exp(+-2 pi i eta nu).  One product with
    the DFT table gives every column at x and x +- eta, each label's A is a
    diagonal block of one matrix, and the blocks of one size (labels 2-4)
    share one stacked ``eigvals`` call, label 1 a second.
    """
    if ell < 1:
        raise ValueError(f"band edges need ell >= 1, got {ell}")
    if ev.tau.imag * ell > EDGE_BASIS_MAX_IM_TAU_ELL:
        raise ValueError(f"the edge basis underflows where pi Im(tau) ell/2 > -ln(DBL_MIN), that is "
                         f"Im(tau) ell > {EDGE_BASIS_MAX_IM_TAU_ELL:.2f}; got Im(tau) ell = {ev.tau.imag * ell:.6g}")
    # [2]..[2l] in increasing order: a torsion eta is named by its smallest order
    efactorial(2 * ell, ev)
    tau, eta = ev.tau, ev.eta
    # a term of b_j at |k| > K is below |q|^(l K (K+1)) <= |q|^(n^2) < tol/100 of its column's
    # largest (n: the evaluator's cutoff less its guard term); the least K keeps terms normal
    n = ev.series_cutoff - 1
    K = max(1, math.ceil((math.sqrt(1 + 4 * n * n / ell) - 1) / 2))
    nu, pattern, groups, dft = _edge_table(ell, K, tuple(_EDGE_CHARS[a][ell % 2] for a in (1, 2, 3, 4)))
    P = len(dft)
    x = (np.arange(P) + 0.37) / P - 0.5j * tau.imag
    th = theta(1, x, ev, shifts=[0.0, -ell * eta, ell * eta])
    w = np.exp((1j * math.pi * tau.real / ell) * nu**2 - (math.pi * tau.imag / ell) * (nu - ell / 2) ** 2)
    shift = np.exp((2j * math.pi * eta) * nu)
    # the weights of each nu, then every column, at x, x + eta and x - eta
    weights = np.array([w, w * shift, w / shift]).T
    f = (dft @ (pattern[:, None, :] * weights[:, :, None]).reshape(len(nu), -1)).reshape(P, 3, -1)
    LF = (th[:, 1, None] * f[:, 1] + th[:, 2, None] * f[:, 2]) / th[:, 0, None]
    norm = np.linalg.norm(f[:, 0], axis=0)
    A = (f[:, 0].conj().T @ LF) / np.outer(norm, norm)
    per_label = {a: [] for a in (1, 2, 3, 4)}
    for labels, idx in groups:
        vals = np.sort(np.linalg.eigvals(A[idx[:, :, None], idx[:, None, :]]), axis=-1)
        per_label.update(zip(labels, vals.tolist()))
    return BandEdgeSet(ell=ell, per_label=per_label)


def closed_form_edges(ell: int, ev: ThetaEvaluator) -> dict:
    """Per-label closed-form edge values, available for ell = 1 and 2.

    ell = 1: label 1 empty; label a in {2,3,4} holds
        2 theta_b(eta) theta_c(eta) / (theta_b(0) theta_c(0)),
    {b, c} the two other even labels.  ell = 2: label 1 holds the roots
    [2]^2 (1 +- x) / 2 of
        [2] E^2 - [2]^3 E + 2 [4] = 0,
    whose discriminant over [2]^4 is, by the duplication formulas and
    theta1^4 + theta3^4 = theta2^4 + theta4^4 (DLMF 20.7),
        x^2 = 1 - 8 [4]/[2]^5 = theta1^4 (theta2^-4 + theta4^-4 - theta3^-4)(eta),
    which does not cancel as eta -> 0; the root of smaller modulus is the
    product of the roots, 2 [4]/[2], over the other.  Label a in {2,3,4}
    holds theta1(2 eta) theta_a(2 eta) / (theta1(eta) theta_a(eta)).
    """
    if ell == 1:
        out = {1: []}
        others = {2: (3, 4), 3: (4, 2), 4: (2, 3)}
        # theta_b at (eta, 0), one call per characteristic
        t = {b: theta(b, np.array([ev.eta, 0.0]), ev).tolist() for b in (2, 3, 4)}
        for a, (b, c) in others.items():
            out[a] = [2 * t[b][0] * t[c][0] / (t[b][1] * t[c][1])]
        return out
    if ell == 2:
        # theta_a at (2 eta, eta), one call per characteristic
        t = {a: theta(a, np.array([2 * ev.eta, ev.eta]), ev).tolist() for a in (1, 2, 3, 4)}
        b2 = ebracket(2, ev)
        x = t[1][1] ** 2 * cmath.sqrt(t[2][1] ** -4 + t[4][1] ** -4 - t[3][1] ** -4)
        big = b2**2 * (1 + x if abs(1 + x) >= abs(1 - x) else 1 - x) / 2
        out = {1: [big, 2 * ebracket(4, ev) / (b2 * big)]}
        for a in (2, 3, 4):
            out[a] = [t[1][0] * t[a][0] / (t[1][1] * t[a][1])]
        return out
    raise ValueError(f"closed forms are only known for ell = 1, 2, got {ell}")


# ---------------------------------------------------------------------------
# Bloch-multiplier relation

class CurveCoeffs(NamedTuple):
    """Subset-sum coefficients C_0..C_N of the Bloch-multiplier relation."""

    ell: int
    C: np.ndarray

    @property
    def N(self) -> int:
        return self.ell * (self.ell + 1) // 2


def _subset_sums(f) -> np.ndarray:
    """sum over subsets J of {1..l} of prod_{k in J, k' not in J} f(k+k') / f(|k-k'|),
    binned by sum(J), for the sequence f = (f(0), .., f(2l)).  Each of the l(l-1)
    ratios is one Python division; the caller guards f(1) .. f(l-1).

    Subsets are bit masks (bit k-1 for item k), and the products P[mask] over
    the subsets of {1..t} are extended to {1..t+1} by one doubling: a mask
    without item t+1 gains prod_{k in J} R[k, t+1], a mask with it gains
    prod_{k' <= t, k' not in J} R[t+1, k'].  These factor vectors of every
    later item are carried along, one (l - t, 2^t) array per side, and
    doubled once per item, so the products are formed in the same order as
    by building each item's vectors afresh, in l array passes.  Time and
    memory are O(2^l), so ell above CJ_MAX_ELL raises ValueError before
    anything is allocated.
    """
    ell = (len(f) - 1) // 2
    if ell > CJ_MAX_ELL:
        raise ValueError(
            f"C_j subset sums need ell <= {CJ_MAX_ELL}, got ell={ell} "
            f"(2^{ell} = {2 ** ell} subsets, about {60 * 2 ** ell / 1e6:.0f} MB)"
        )
    items = range(1, ell + 1)
    R = np.array([[f[k + kp] / f[abs(k - kp)] if kp != k else 1 for kp in items] for k in items],
                 dtype=complex).reshape(ell, ell)
    P = np.ones(1, dtype=complex)
    S = np.zeros(1, dtype=np.intp)
    # at step t, row r holds the factor vectors of item t + r + 1 over the subsets of {1..t}
    inside = np.ones((ell, 1), dtype=complex)
    outside = np.ones((ell, 1), dtype=complex)
    for t in range(ell):
        P = np.concatenate([P * inside[0], P * outside[0]])
        S = np.concatenate([S, S + t + 1])
        inside = np.concatenate([inside[1:], inside[1:] * R[t, t + 1:, None]], axis=1)
        outside = np.concatenate([outside[1:] * R[t + 1:, t, None], outside[1:]], axis=1)
    C = np.zeros(ell * (ell + 1) // 2 + 1, dtype=complex)
    np.add.at(C, S, P)
    return C


def curve_coeffs(ell: int, ev: ThetaEvaluator) -> CurveCoeffs:
    """C_j = sum over subsets J of {1..l} with sum(J) = j of
    prod_{k in J, k' not in J} [k+k'] / [|k-k'|].

    C_0 = C_N = 1 (empty products) and C_j = C_{N-j}; as eta -> 0 the C_j
    tend to the binomial coefficients binom(N, j).
    """
    brackets = [ebracket(j, ev) for j in range(2 * ell + 1)]
    for d in range(1, ell):  # the divisors [|k - k'|]
        nonzero_bracket(d, ev)
    return CurveCoeffs(ell=ell, C=_subset_sums(brackets))


def _bloch_terms(zeta: complex, K: complex, cc: CurveCoeffs, ev: ThetaEvaluator) -> np.ndarray:
    """(-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)), j = 0..N."""
    N = cc.N
    th = theta(1, zeta - 2 * np.arange(N + 1) * ev.eta, ev).tolist()
    return np.array([(-1) ** j * cc.C[j] * t * K ** (2 * (N - j)) for j, t in enumerate(th)])


def bloch_relation(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator) -> complex:
    """sum_j (-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)); zero on the curve's
    (zeta, K) projection."""
    return complex(_bloch_terms(zeta, K, curve_coeffs(ell, ev), ev).sum())


def bloch_relation_det(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator) -> complex:
    """Determinant route: det( K^(2m) d_mn + G_mn(zeta) ), m, n = 1..l, with

        G_mn = (-1)^(l+1) theta1(2m eta)
               prod_{j != m} theta1((m+j) eta)/theta1((m-j) eta)
               * Phi(-(m+n) eta, zeta).

    Multiplied by theta1(zeta) this equals the coefficient expansion of
    ``bloch_relation`` identically.  Every theta1 value comes from one table:
    theta1(k eta), k = 0..2l, from ``theta1_multiples`` (odd in k), and
    theta1(zeta - k eta), k = 0..2l, from one call; each divisor is guarded.
    """
    te = np.array(theta1_multiples(2 * ell, ev)[:2 * ell + 1])
    tz = theta(1, zeta - np.arange(2 * ell + 1) * ev.eta, ev)
    _nonzero(np.append(te[1:], tz[0]), ev, "theta1(zeta) or theta1(k*eta), k = 1..{},", 2 * ell)
    m = np.arange(1, ell + 1)
    diff, total = m[:, None] - m, m[:, None] + m
    # theta1((m-j) eta) = sign(m-j) theta1(|m-j| eta) off the diagonal; on it the
    # divisor is 1, which leaves the factor theta1(2m eta)
    ratio = te[total] / (np.sign(diff) * te[np.abs(diff)] + np.eye(ell))
    pre = (-1) ** (ell + 1) * ratio.prod(axis=1)
    # Phi(-(m+n) eta, zeta) = theta1(zeta - (m+n) eta) / (theta1(-(m+n) eta) theta1(zeta))
    G = pre[:, None] * tz[total] / (-te[total] * tz[0])
    return complex(np.linalg.det(np.diag(K ** (2 * m)) + G))


def _cauchy_matrix(xs, zeta: complex, ev: ThetaEvaluator):
    """A = (theta1(x_i + x_j + zeta) / theta1(x_i + x_j)) of ``cauchy_det``, with
    theta1(x_i + x_j) and theta1(x_i - x_j), i < j, from one theta table: the
    sums and the differences at the shifts 0 and zeta.  A sum within tol of a
    theta1 zero raises PoleProximityError naming its first pair (i, j)."""
    x = np.asarray(xs, dtype=complex)
    n = len(x)
    t = theta(1, np.append(x[:, None] + x, (x[:, None] - x)[np.triu_indices(n, 1)]), ev, shifts=[0, zeta])
    den = t[:n * n, 0].reshape(n, n)
    near = np.abs(den) < ev.zero_threshold
    if near.any():
        i, j = np.argwhere(near)[0]
        raise PoleProximityError(f"theta1(x_{i}+x_{j}) ~ 0")
    return t[:n * n, 1].reshape(n, n) / den, den, t[n * n:, 0]


def cauchy_det(xs, zeta: complex, ev: ThetaEvaluator):
    """Elliptic Cauchy determinant: returns (lhs, rhs) of

        det( theta1(x_i + x_j + zeta) / theta1(x_i + x_j) )
          = theta1^(n-1)(zeta) theta1(zeta + 2 sum x_i) / prod_i theta1(2 x_i)
            * prod_{i<j} theta1^2(x_i - x_j) / theta1^2(x_i + x_j).
    """
    A, den, diff = _cauchy_matrix(xs, zeta, ev)
    n = len(A)
    tz, tsum = theta(1, np.array([zeta, zeta + 2 * sum(xs)]), ev).tolist()
    pairs = np.prod((diff / den[np.triu_indices(n, 1)]) ** 2)
    return complex(np.linalg.det(A)), complex(tz ** (n - 1) * tsum / np.prod(np.diag(den)) * pairs)


def weyl_denominator_check(ell: int, z: complex, q: complex):
    """Trigonometric subset-sum identity: returns (lhs, rhs) of

        sum_J z^sum(J) prod_{k in J, k' not in J} (k+k')_q / (|k-k'|)_q
          = prod_{1 <= j <= k <= l} (1 + z q^(j+k-l-1)).

    Here (j)_q is the symmetric q-number; q should be on (or near) the unit
    circle away from low-order roots of unity.
    """
    qnumbers = [qnumber(j, q) for j in range(2 * ell + 1)]
    for d in range(1, ell):  # the divisors (|k - k'|)_q
        if abs(qnumbers[d]) < 1e-12:
            raise ZeroDivisionError(f"({d})_q ~ 0 for q={q}")
    lhs = complex(polyval(z, _subset_sums(qnumbers)))
    rhs = 1 + 0j
    for j in range(1, ell + 1):
        for k in range(j, ell + 1):
            rhs *= 1 + z * q ** (j + k - ell - 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# numerical curve points

def solve_curve_point(fix: dict, seed: CurvePoint, ctx: LameContext) -> CurvePoint:
    """Newton on the bordered system M(v) s = 0, c^H s = 1 in v = (zeta, K, E)
    and the Bloch vector s, until the backward error of s is below
    NEWTON_TOL, in at most NEWTON_MAX_ITER steps.

    ``fix`` is {"zeta": value} or {"E": value}: that coordinate is held, read
    once and never written.  c and the first s are the smallest right
    singular vector of the seed's row-scaled M_r (``_point_svd``); the
    backward error is max_i |(M_r s)_i| / ||s||.  The Jacobian is exact,
    [[dM/da s, dM/db s, M], [0, 0, c^H]] for the free coordinates a, b, one
    column rule per coordinate of M = K P - E D + K^-1 (B + C(zeta)):
    dM/dzeta = K^-1 dC/dzeta on rows 0-1, from theta1 and theta1' at
    zeta - m eta, dM/dK = P - (M - K P + E D)/K and dM/dE = -D.  A step is
    halved (up to 8 times) until it lowers the backward error, and taken in
    full when none does.  zeta moves at most one period, max(1, |tau|), per
    step: M repeats in zeta up to a factor of K, and longer steps run
    theta1's series out of range.  Each iterate and trial step reads its
    matrix by one routine.  ConvergenceError's reason is 'max-iter' on
    non-convergence, 'singular-jacobian' when the Jacobian is singular or
    the step not finite, and 'pole' once a step of zeta ends within
    POLE_MARGIN of Z + tau Z, a pole of M.
    """
    if set(fix) not in ({"zeta"}, {"E"}):
        raise ValueError("fix must be exactly {'zeta': ...} or {'E': ...}")
    ((name, value),) = fix.items()
    held = ("zeta", "K", "E").index(name)
    free = np.arange(3) != held
    v = np.array([seed.zeta, seed.K, seed.E], dtype=complex)
    v[held] = value
    P, D, _, R, n, m_eta = ctx._parts.M
    period = max(1.0, abs(ctx.ev.tau))

    def dM_dzeta(zeta, K, E, M, s):
        t, dt = (theta(1, zeta - m_eta, ctx.ev, deriv=d) for d in (0, 1))
        return (R * (dt[n] - t[n] * (dt[0] / t[0])) / (K * t[0])) @ s

    # dM/dv_i s at the point (zeta, K, E) of M, for v = (zeta, K, E); that of zeta is rows 0-1 only
    rules = (dM_dzeta,
             lambda zeta, K, E, M, s: (P - (M - K * P + E * D) / K) @ s,
             lambda zeta, K, E, M, s: -(D @ s))
    columns = [rules[i] for i in range(3) if i != held]

    def state(v, s=None):
        """v, M at v, s (by default M_r's smallest right singular vector) and its backward error."""
        pt = CurvePoint(*v.tolist())
        M, mag = _build_M_with_magnitudes(pt, ctx)
        if s is None:
            s = _point_svd(pt, ctx)[1]
        return v, M, s, np.abs(_row_scaled(M, mag) @ s).max() / np.linalg.norm(s)

    v, M, s, berr = state(v)
    c = s
    for n_steps in range(NEWTON_MAX_ITER + 1):
        if berr < NEWTON_TOL:
            return CurvePoint(*v.tolist())
        if n_steps == NEWTON_MAX_ITER:
            raise ConvergenceError(f"no convergence after {NEWTON_MAX_ITER} Newton steps", reason="max-iter")
        J = np.zeros((ctx.ell + 2, ctx.ell + 2), dtype=complex)
        J[:-1, 2:], J[-1, 2:] = M, c.conj()
        for j, column in enumerate(columns):
            col = column(*v.tolist(), M, s)
            J[:len(col), j] = col
        try:
            step = np.linalg.solve(J, -np.append(M @ s, c.conj() @ s - 1))
            if not np.isfinite(step).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise ConvergenceError("Jacobian singular (branch point?)", reason="singular-jacobian") from None
        dv = np.zeros(3, dtype=complex)
        dv[free] = step[:2]
        full = period / abs(dv[0]) if abs(dv[0]) > period else 1.0
        lam = full
        for _ in range(8):
            trial = state(np.where(free, v + lam * dv, v), s + lam * step[2:])
            if trial[3] < berr:
                break
            lam /= 2
        else:
            lam = full
            trial = state(np.where(free, v + lam * dv, v), s + lam * step[2:])
        v, M, s, berr = trial
        if dv[0]:
            zeta = complex(v[0])
            pole = complex(nearest_lattice_point(zeta, ctx.ev.tau))
            if abs(zeta - pole) < POLE_MARGIN:
                raise ConvergenceError(f"zeta = {zeta} is {abs(zeta - pole):.1e} from the lattice point "
                                       f"{pole}, a pole of the residue matrix", reason="pole")


def edge_bloch_factors(a: int, ev: ThetaEvaluator):
    """Candidate K values at the fixed points above zeta = N eta + omega_a."""
    if a in (1, 2):
        return [1 + 0j, -1 + 0j]
    k = cmath.exp(1j * math.pi * ev.eta)
    return [k, -k]


def edge_curve_points(ctx: LameContext) -> list:
    """On-curve points sitting over the band edges.

    For each label a the fixed-point fibre has zeta = N eta + omega_a and
    K in {+-1} (a = 1, 2) or {+-exp(i pi eta)} (a = 3, 4); each computed
    edge E is paired with every candidate (K, +-E) whose row-scaled residue
    matrix has sigma_min below NEWTON_TOL, all from one stacked SVD.
    """
    ev = ctx.ev
    edges = band_edges(ctx.ell, ev)
    cands = [CurvePoint(zeta=ctx.N * ev.eta + half_period(a, ev.tau), K=K, E=Es)
             for a in (1, 2, 3, 4) for E in edges.per_label[a]
             for K in edge_bloch_factors(a, ev) for Es in (E, -E)]
    return [pt for pt, sv in zip(cands, _sigma_min(cands, ctx)) if sv < NEWTON_TOL]


def random_curve_points(ctx: LameContext, n: int, rng) -> list:
    """Generic on-curve points via the Bloch relation.

    Draw zeta, solve the relation as a polynomial in K^2, seed E from the
    residue matrix at (zeta, K), then Newton-solve M s = 0 at fixed zeta.
    E enters M only as -E at (j, j-1), so rows 1..l of M are M0(0) - E I:
    the E candidates are the eigenvalues of M0 built once at E = 0, each
    with its unit eigenvector y as a null vector of those rows.  Row 0 is
    free of E, so a candidate scores |M[0] y| / ||mag_0||, the row-scaled
    backward error of y (as in ``solve_curve_point``), all candidates at
    once from that one matrix.  The first candidate with the smallest score
    seeds the solve, unless that score exceeds 1e-4.  Points failing any
    stage are discarded, so the returned list always holds certified points.
    """
    ev = ctx.ev
    cc = curve_coeffs(ctx.ell, ev)
    out = []
    attempts = 0
    while len(out) < n and attempts < 40 * n:
        attempts += 1
        zeta = complex(0.1 + 0.8 * rng.random(), 0.05 + 0.3 * rng.random())
        # coefficients of u^(N-j), u = K^2, in decreasing degree
        u_roots = np.roots(_bloch_terms(zeta, 1, cc, ev))
        rng.shuffle(u_roots)
        for u in u_roots:
            if abs(u) < 1e-10:
                continue
            K = cmath.sqrt(complex(u))
            M, mag = _build_M_with_magnitudes(CurvePoint(zeta, K, 0j), ctx)
            cands, vecs = np.linalg.eig(M[1:])
            score = np.abs(_row_scaled(M, mag)[0] @ vecs)
            best = int(np.argmin(score))
            if score[best] > 1e-4:
                continue
            try:
                pt = solve_curve_point({"zeta": zeta}, CurvePoint(zeta, K, complex(cands[best])), ctx)
            except ConvergenceError:
                continue
            out.append(pt)
            break
    if len(out) < n:
        raise ClusterAmbiguityError(
            f"only found {len(out)} of {n} requested curve points"
        )
    return out
