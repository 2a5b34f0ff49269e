"""The spectral curve: band-edge systems, Bloch-multiplier relation, and the
combinatorial coefficient identities behind it.

The curve in (zeta, K, E) is cut out by two sums built from a family of
polynomials A_j(E) (deg A_j = l - j):

    S1 = sum_{j=0}^{l}   (-1)^j K^-j theta1(zeta - j eta) ebinom(l, j) A_j(E)
    S2 = sum_{j=0}^{l+1} (-1)^j K^-j theta1(zeta - j eta) [j-1]
                         ebinom(l+1, j) A_|j-1|(E)

Replacing theta1(zeta - j eta) by theta_a((N - j) eta), a = 1..4, produces
four pairs of E-polynomials whose common roots are the band edges; the full
edge set is their union together with its reflection E -> -E.

Eliminating E leads to a single relation between the Bloch parameters,

    sum_{j=0}^{N} (-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)) = 0,

with subset-sum coefficients C_j that reduce to binomial(N, j) as eta -> 0.

A polynomial in E is a 1-D complex coefficient array in increasing degree,
the layout of ``numpy.polynomial.polynomial``: evaluate with ``polyval``,
differentiate with ``polyder``, and take roots of the trimmed array with
``np.roots(c[::-1])``.  A stack of polynomials is a 2-D array, one per row.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyder, polytrim, polyval

from .enumbers import ebinom, ebracket, qnumber
from .errors import ClusterAmbiguityError, ConvergenceError, PoleProximityError, TorsionEtaError
from .lame import CurvePoint, LameContext, phi, residual, scaled_residual
from .theta import ThetaEvaluator, theta
from .util import cluster_points

__all__ = [
    "BandEdgeSet",
    "CurveCoeffs",
    "a_polys_recurrence",
    "a_polys_determinant",
    "curve_equations",
    "curve_equations_scaled",
    "band_edges",
    "closed_form_edges",
    "curve_coeffs",
    "bloch_relation",
    "bloch_relation_det",
    "bloch_relation_scale",
    "cauchy_det",
    "weyl_denominator_check",
    "solve_curve_point",
    "edge_curve_points",
    "random_curve_points",
    "half_period",
]

# a root of p1 is common when |p2(r)| <= MATCH_TOL * sum_i |c_i| |r|^i
MATCH_TOL = 1e-6
# common roots closer than CLUSTER_REL * max(max|r|, 1) are one edge with multiplicity
CLUSTER_REL = 1e-7


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients below 1e-13 of the largest (at least one stays)."""
    return polytrim(c, 1e-13 * np.abs(c).max())


def a_polys_recurrence(ell: int, ev: ThetaEvaluator) -> np.ndarray:
    """A_l .. A_0 by downward three-term recurrence; row j of the returned
    (l+1, l+1) array holds A_j, zero-padded.

    A_l = 1, A_{l-1} = ([l]/[2l]) E, and

        A_{l-s-1} = ([l-s]/[2l-s]) E A_{l-s} + ([s]/[2l-s]) A_{l-s+1}.
    """
    A = np.zeros((ell + 1, ell + 1), dtype=complex)
    A[ell, 0] = 1.0
    if ell >= 1:
        A[ell - 1, 1] = ebracket(ell, ev) / _nz(2 * ell, ev)
    for s in range(1, ell):
        den = _nz(2 * ell - s, ev)
        A[ell - s - 1, 1:] = A[ell - s, :-1] * (ebracket(ell - s, ev) / den)
        A[ell - s - 1] += A[ell - s + 1] * (ebracket(s, ev) / den)
    return A


def _nz(n: int, ev: ThetaEvaluator) -> complex:
    val = ebracket(n, ev)
    if abs(val) < ev.tol:
        raise TorsionEtaError(f"[{n}] ~ 0: eta={ev.eta} is a torsion point")
    return val


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
            sup = -ebracket(k - 1, ev) / _nz(ell + 2 - k, ev)
            sub = ebracket(2 * ell + 2 - k, ev) / _nz(ell + 1 - k, ev)
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
    w_j ebinom(l, j) A_j (j = 0..l) and w_j [j-1] ebinom(l+1, j) A_|j-1|
    (j = 0..l+1).  Summing the rows of a stack gives its sum as a polynomial.

    Weights are multiplied as Python scalars: numpy's vectorised complex
    product rounds differently (fused multiply-add), and near-double edge
    roots at small eta move visibly under a one-ulp change of a weight."""
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
    rows1, rows2 = _curve_rows(A, _point_weights(pt.zeta, pt.K, ctx.ell, ctx.ev), ctx.ev)
    return polyval(pt.E, rows1.T), polyval(pt.E, rows2.T)


def curve_equations(pt: CurvePoint, ctx: LameContext):
    """Values (S1, S2) of the two defining sums; both vanish on the curve."""
    t1, t2 = _curve_sum_terms(pt, ctx)
    return complex(t1.sum()), complex(t2.sum())


def curve_equations_scaled(pt: CurvePoint, ctx: LameContext):
    """(|S1|, |S2|) divided by the sums of term magnitudes (conditioning-aware)."""
    t1, t2 = _curve_sum_terms(pt, ctx)
    s1 = np.abs(t1).sum() or 1.0
    s2 = np.abs(t2).sum() or 1.0
    return float(abs(t1.sum()) / s1), float(abs(t2.sum()) / s2)


# ---------------------------------------------------------------------------
# band edges

def half_period(a: int, tau: complex) -> complex:
    """omega_a: the half period labelling the fixed-point fibre a = 1..4."""
    return {1: 0.0 + 0j, 2: 0.5 + 0j, 3: (1 + tau) / 2, 4: tau / 2}[a]


@dataclass(frozen=True)
class BandEdgeSet:
    """Band edges per half-period label, with root-cluster multiplicities."""

    ell: int
    per_label: dict
    multiplicities: dict = field(default_factory=dict)

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


def _edge_polys(A: np.ndarray, a: int, ev: ThetaEvaluator):
    """The two E-polynomials whose common roots form the label-a edge set:
    the curve sums with theta1(zeta - j eta) replaced by theta_a((N - j) eta)."""
    ell = len(A) - 1
    N = ell * (ell + 1) // 2
    th = theta(a, (N - np.arange(ell + 2)) * ev.eta, ev).tolist()
    rows1, rows2 = _curve_rows(A, [(-1) ** j * t for j, t in enumerate(th)], ev)
    return _trim(rows1.sum(axis=0)), _trim(rows2.sum(axis=0))


def _polish_root(p: np.ndarray, r: complex, steps: int = 3) -> complex:
    dp = polyder(p)
    for _ in range(steps):
        d = polyval(r, dp)
        if abs(d) == 0:
            break
        r = r - polyval(r, p) / d
    return r


def band_edges(ell: int, ev: ThetaEvaluator) -> BandEdgeSet:
    """Common roots of the two edge polynomials for each label a = 1..4.

    Roots come from the companion matrix of the first polynomial and are
    kept when the second polynomial vanishes there to within MATCH_TOL of its
    magnitude-sum at the root (numerically stabler than a polynomial GCD).
    A second polynomial that vanishes identically keeps every root.  Roots
    closer than CLUSTER_REL * scale are merged with multiplicity.
    """
    A = a_polys_recurrence(ell, ev)
    per_label = {}
    mults = {}
    for a in (1, 2, 3, 4):
        p1, p2 = _edge_polys(A, a, ev)
        scale = max(np.abs(p1).max(), np.abs(p2).max())
        roots = [_polish_root(p1, r) for r in np.roots(p1[::-1])]
        if np.abs(p2).max() <= 1e-12 * scale:
            common = roots
        else:
            common = [
                r for r in roots
                if abs(polyval(r, p2)) <= MATCH_TOL * max(polyval(abs(r), np.abs(p2)), ev.tol)
            ]
        if common:
            sc = max(abs(r) for r in common)
            clustered = cluster_points(common, CLUSTER_REL * max(sc, 1.0))
        else:
            clustered = []
        per_label[a] = [c for c, _ in clustered]
        mults[a] = [m for _, m in clustered]
    return BandEdgeSet(ell=ell, per_label=per_label, multiplicities=mults)


def closed_form_edges(ell: int, ev: ThetaEvaluator) -> dict:
    """Per-label closed-form edge values, available for ell = 1 and 2.

    ell = 1: label 1 empty; label a in {2,3,4} holds
        2 theta_b(eta) theta_c(eta) / (theta_b(0) theta_c(0)),
    {b, c} the two other even labels.  ell = 2: label 1 holds the roots of
        [2] E^2 - [2]^3 E + 2 [4] = 0
    and label a in {2,3,4} holds theta1(2 eta) theta_a(2 eta) /
    (theta1(eta) theta_a(eta)).
    """
    if ell == 1:
        out = {1: []}
        others = {2: (3, 4), 3: (4, 2), 4: (2, 3)}
        for a, (b, c) in others.items():
            val = 2 * theta(b, ev.eta, ev) * theta(c, ev.eta, ev) / (
                theta(b, 0.0, ev) * theta(c, 0.0, ev)
            )
            out[a] = [val]
        return out
    if ell == 2:
        b2 = ebracket(2, ev)
        b4 = ebracket(4, ev)
        disc = cmath.sqrt(b2**4 - 8 * b4 / b2)
        out = {1: [(b2**2 + disc) / 2, (b2**2 - disc) / 2]}
        for a in (2, 3, 4):
            out[a] = [
                theta(1, 2 * ev.eta, ev) * theta(a, 2 * ev.eta, ev)
                / (theta(1, ev.eta, ev) * theta(a, ev.eta, ev))
            ]
        return out
    raise ValueError(f"closed forms are only known for ell = 1, 2, got {ell}")


# ---------------------------------------------------------------------------
# Bloch-multiplier relation

@dataclass(frozen=True)
class CurveCoeffs:
    """Subset-sum coefficients C_0..C_N of the Bloch-multiplier relation."""

    ell: int
    C: np.ndarray

    @property
    def N(self) -> int:
        return self.ell * (self.ell + 1) // 2


def _subset_sums(ell: int, ratio) -> np.ndarray:
    """sum over subsets J of {1..l} of prod_{k in J, k' not in J} ratio(k, k'),
    binned by sum(J).  Each of the l(l-1) ratios is evaluated once."""
    items = range(1, ell + 1)
    table = {k: {kp: ratio(k, kp) for kp in items if kp != k} for k in items}
    C = np.zeros(ell * (ell + 1) // 2 + 1, dtype=complex)
    for r in range(ell + 1):
        for J in itertools.combinations(items, r):
            outside = [kp for kp in items if kp not in J]
            p = 1 + 0j
            for k in J:
                row = table[k]
                for kp in outside:
                    p *= row[kp]
            C[sum(J)] += p
    return C


def curve_coeffs(ell: int, ev: ThetaEvaluator) -> CurveCoeffs:
    """C_j = sum over subsets J of {1..l} with sum(J) = j of
    prod_{k in J, k' not in J} [k+k'] / [|k-k'|].

    C_0 = C_N = 1 (empty products) and C_j = C_{N-j}; as eta -> 0 the C_j
    tend to the binomial coefficients binom(N, j).
    """
    C = _subset_sums(ell, lambda k, kp: ebracket(k + kp, ev) / _nz(abs(k - kp), ev))
    return CurveCoeffs(ell=ell, C=C)


def _bloch_terms(zeta: complex, K: complex, cc: CurveCoeffs, ev: ThetaEvaluator) -> np.ndarray:
    """(-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)), j = 0..N."""
    N = cc.N
    th = theta(1, zeta - 2 * np.arange(N + 1) * ev.eta, ev).tolist()
    return np.array([(-1) ** j * cc.C[j] * t * K ** (2 * (N - j)) for j, t in enumerate(th)])


def bloch_relation(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator,
                   coeffs: CurveCoeffs = None) -> complex:
    """sum_j (-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)); zero on the curve's
    (zeta, K) projection."""
    cc = coeffs if coeffs is not None else curve_coeffs(ell, ev)
    return complex(_bloch_terms(zeta, K, cc, ev).sum())


def bloch_relation_scale(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator,
                         coeffs: CurveCoeffs = None) -> float:
    cc = coeffs if coeffs is not None else curve_coeffs(ell, ev)
    return float(np.abs(_bloch_terms(zeta, K, cc, ev)).sum())


def bloch_relation_det(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator) -> complex:
    """Determinant route: det( K^(2m) d_mn + G_mn(zeta) ), m, n = 1..l, with

        G_mn = (-1)^(l+1) theta1(2m eta)
               prod_{j != m} theta1((m+j) eta)/theta1((m-j) eta)
               * Phi(-(m+n) eta, zeta).

    Multiplied by theta1(zeta) this equals the coefficient expansion of
    ``bloch_relation`` identically.
    """
    G = np.zeros((ell, ell), dtype=complex)
    for m in range(1, ell + 1):
        pre = (-1) ** (ell + 1) * theta(1, 2 * m * ev.eta, ev)
        for j in range(1, ell + 1):
            if j != m:
                pre *= theta(1, (m + j) * ev.eta, ev) / theta(1, (m - j) * ev.eta, ev)
        for n in range(1, ell + 1):
            G[m - 1, n - 1] = pre * phi(-(m + n) * ev.eta, zeta, ev)
    D = np.diag([K ** (2 * m) for m in range(1, ell + 1)])
    return complex(np.linalg.det(D + G))


def cauchy_det(xs, zeta: complex, ev: ThetaEvaluator):
    """Elliptic Cauchy determinant: returns (lhs, rhs) of

        det( theta1(x_i + x_j + zeta) / theta1(x_i + x_j) )
          = theta1^(n-1)(zeta) theta1(zeta + 2 sum x_i) / prod_i theta1(2 x_i)
            * prod_{i<j} theta1^2(x_i - x_j) / theta1^2(x_i + x_j).
    """
    n = len(xs)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            s = xs[i] + xs[j]
            den = theta(1, s, ev)
            if abs(den) < ev.zero_threshold:
                raise PoleProximityError(f"theta1(x_{i}+x_{j}) ~ 0")
            mat[i, j] = theta(1, s + zeta, ev) / den
    lhs = complex(np.linalg.det(mat))
    tz = theta(1, zeta, ev)
    rhs = tz ** (n - 1) * theta(1, zeta + 2 * sum(xs), ev)
    for x in xs:
        rhs /= theta(1, 2 * x, ev)
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= theta(1, xs[i] - xs[j], ev) ** 2 / theta(1, xs[i] + xs[j], ev) ** 2
    return lhs, complex(rhs)


def weyl_denominator_check(ell: int, z: complex, q: complex):
    """Trigonometric subset-sum identity: returns (lhs, rhs) of

        sum_J z^sum(J) prod_{k in J, k' not in J} (k+k')_q / (|k-k'|)_q
          = prod_{1 <= j <= k <= l} (1 + z q^(j+k-l-1)).

    Here (j)_q is the symmetric q-number; q should be on (or near) the unit
    circle away from low-order roots of unity.
    """
    def ratio(k, kp):
        den = qnumber(abs(k - kp), q)
        if abs(den) < 1e-12:
            raise ZeroDivisionError(f"({abs(k-kp)})_q ~ 0 for q={q}")
        return qnumber(k + kp, q) / den

    lhs = complex(polyval(z, _subset_sums(ell, ratio)))
    rhs = 1 + 0j
    for j in range(1, ell + 1):
        for k in range(j, ell + 1):
            rhs *= 1 + z * q ** (j + k - ell - 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# numerical curve points

def solve_curve_point(fix: dict, seed: CurvePoint, ctx: LameContext,
                      tol: float = 1e-11, max_iter: int = 100) -> CurvePoint:
    """Newton-solve both residual determinants to zero in the two free
    coordinates, one of (zeta, E) being held fixed.

    ``fix`` is {"zeta": value} (free: K, E) or {"E": value} (free: zeta, K).
    Steps are damped by halving (up to 8 times) whenever the residual norm
    does not decrease.  Non-convergence raises ConvergenceError with reason
    'max-iter'; a numerically singular Jacobian (near a branch point) raises
    with reason 'singular-jacobian'.
    """
    if set(fix) == {"zeta"}:
        fixed_zeta, free = complex(fix["zeta"]), "KE"
        v = np.array([seed.K, seed.E], dtype=complex)
    elif set(fix) == {"E"}:
        fixed_E, free = complex(fix["E"]), "zK"
        v = np.array([seed.zeta, seed.K], dtype=complex)
    else:
        raise ValueError("fix must be exactly {'zeta': ...} or {'E': ...}")

    def point(v):
        if free == "KE":
            return CurvePoint(zeta=fixed_zeta, K=complex(v[0]), E=complex(v[1]))
        return CurvePoint(zeta=complex(v[0]), K=complex(v[1]), E=fixed_E)

    def func(v):
        return np.array(residual(point(v), ctx), dtype=complex)

    def norm_scaled(v):
        return max(scaled_residual(point(v), ctx))

    f = func(v)
    for _ in range(max_iter):
        if norm_scaled(v) < tol:
            return point(v)
        J = np.zeros((2, 2), dtype=complex)
        for c in range(2):
            h = 1e-7 * max(1.0, abs(v[c]))
            dv = v.copy()
            dv[c] += h
            J[:, c] = (func(dv) - f) / h
        try:
            if np.linalg.cond(J) > 1e13:
                raise ConvergenceError(
                    "Jacobian numerically singular (branch point?)",
                    reason="singular-jacobian",
                )
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "Jacobian numerically singular (branch point?)",
                reason="singular-jacobian",
            ) from None
        base = np.linalg.norm(f)
        lam = 1.0
        for _ in range(8):
            trial = v + lam * step
            ft = func(trial)
            if np.linalg.norm(ft) < base:
                v, f = trial, ft
                break
            lam /= 2
        else:
            v, f = v + step, func(v + step)
    if norm_scaled(v) < tol:
        return point(v)
    raise ConvergenceError(f"no convergence after {max_iter} Newton steps", reason="max-iter")


def edge_bloch_factors(a: int, ev: ThetaEvaluator):
    """Candidate K values at the fixed points above zeta = N eta + omega_a."""
    if a in (1, 2):
        return [1 + 0j, -1 + 0j]
    k = cmath.exp(1j * math.pi * ev.eta)
    return [k, -k]


def edge_curve_points(ctx: LameContext, accept_tol: float = 1e-8) -> list:
    """On-curve points sitting over the band edges.

    For each label a the fixed-point fibre has zeta = N eta + omega_a and
    K in {+-1} (a = 1, 2) or {+-exp(i pi eta)} (a = 3, 4); each computed
    edge E is paired with every candidate (K, +-E) combination that passes
    the scaled-residual test.
    """
    ev = ctx.ev
    edges = band_edges(ctx.ell, ev)
    out = []
    for a in (1, 2, 3, 4):
        zeta = ctx.N * ev.eta + half_period(a, ev.tau)
        for E in edges.per_label[a]:
            for K in edge_bloch_factors(a, ev):
                for Es in (E, -E):
                    pt = CurvePoint(zeta=zeta, K=K, E=Es)
                    if max(scaled_residual(pt, ctx)) < accept_tol:
                        out.append(pt)
    return out


def random_curve_points(ctx: LameContext, n: int, rng, polish_tol: float = 1e-11) -> list:
    """Generic on-curve points via the Bloch relation.

    Draw zeta, solve the relation as a polynomial in K^2, recover E as a
    common root of the two curve sums at (zeta, K), then Newton-polish the
    residual determinants at fixed zeta.  Points failing any stage are
    discarded, so the returned list always holds certified points.
    """
    ev = ctx.ev
    cc = curve_coeffs(ctx.ell, ev)
    A = a_polys_recurrence(ctx.ell, ev)
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
            rows1, _ = _curve_rows(A, _point_weights(zeta, K, ctx.ell, ev), ev)
            cands = np.roots(_trim(rows1.sum(axis=0))[::-1])
            best = None
            for E in cands:
                pt = CurvePoint(zeta=zeta, K=K, E=complex(E))
                s1, s2 = curve_equations_scaled(pt, ctx)
                if best is None or max(s1, s2) < best[0]:
                    best = (max(s1, s2), pt)
            if best is None or best[0] > 1e-4:
                continue
            try:
                pt = solve_curve_point({"zeta": zeta}, best[1], ctx, tol=polish_tol)
            except ConvergenceError:
                continue
            out.append(pt)
            break
    if len(out) < n:
        raise ClusterAmbiguityError(
            f"only found {len(out)} of {n} requested curve points"
        )
    return out
