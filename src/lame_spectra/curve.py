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
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .enumbers import ebinom, ebracket, qnumber
from .errors import ClusterAmbiguityError, ConvergenceError, PoleProximityError, TorsionEtaError
from .lame import CurvePoint, LameContext, phi, residual, scaled_residual
from .theta import ThetaEvaluator, theta
from .util import cluster_points

__all__ = [
    "EPoly",
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


@dataclass(frozen=True)
class EPoly:
    """Polynomial in E, coefficients in increasing degree."""

    coeffs: np.ndarray

    @staticmethod
    def constant(c: complex) -> "EPoly":
        return EPoly(np.array([c], dtype=complex))

    def __call__(self, E: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * E + c
        return out

    def __add__(self, other: "EPoly") -> "EPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=complex)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return EPoly(out)

    def scale(self, c: complex) -> "EPoly":
        return EPoly(self.coeffs * c)

    def shift_up(self) -> "EPoly":
        """Multiply by E."""
        return EPoly(np.concatenate([[0j], self.coeffs]))

    def trimmed(self, rel_tol: float = 1e-13) -> "EPoly":
        mags = np.abs(self.coeffs)
        top = mags.max() if len(mags) else 0.0
        if top == 0.0:
            return EPoly(np.zeros(1, dtype=complex))
        keep = len(mags)
        while keep > 1 and mags[keep - 1] <= rel_tol * top:
            keep -= 1
        return EPoly(self.coeffs[:keep].copy())

    @property
    def degree(self) -> int:
        return len(self.trimmed().coeffs) - 1

    def is_zero(self, rel_scale: float, rel_tol: float = 1e-12) -> bool:
        return bool(np.abs(self.coeffs).max() <= rel_tol * rel_scale)

    def roots(self) -> np.ndarray:
        t = self.trimmed()
        if len(t.coeffs) <= 1:
            return np.array([], dtype=complex)
        return np.roots(t.coeffs[::-1])


def a_polys_recurrence(ell: int, ev: ThetaEvaluator) -> list:
    """A_l .. A_0 by downward three-term recurrence; returns [A_0, ..., A_l].

    A_l = 1, A_{l-1} = ([l]/[2l]) E, and

        A_{l-s-1} = ([l-s]/[2l-s]) E A_{l-s} + ([s]/[2l-s]) A_{l-s+1}.
    """
    A = [None] * (ell + 1)
    A[ell] = EPoly.constant(1.0)
    if ell >= 1:
        A[ell - 1] = EPoly(np.array([0j, ebracket(ell, ev) / _nz(2 * ell, ev)]))
    for s in range(1, ell):
        den = _nz(2 * ell - s, ev)
        term1 = A[ell - s].shift_up().scale(ebracket(ell - s, ev) / den)
        term2 = A[ell - s + 1].scale(ebracket(s, ev) / den)
        A[ell - s - 1] = term1 + term2
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


def _curve_sum_terms(pt: CurvePoint, ctx: LameContext, A: list):
    ev = ctx.ev
    l = ctx.ell
    Kinv = 1.0 / pt.K
    terms1 = [
        (-1) ** j * Kinv**j * theta(1, pt.zeta - j * ev.eta, ev) * ebinom(l, j, ev) * A[j](pt.E)
        for j in range(l + 1)
    ]
    terms2 = [
        (-1) ** j
        * Kinv**j
        * theta(1, pt.zeta - j * ev.eta, ev)
        * ebracket(j - 1, ev)
        * ebinom(l + 1, j, ev)
        * A[abs(j - 1)](pt.E)
        for j in range(l + 2)
    ]
    return terms1, terms2


def curve_equations(pt: CurvePoint, ctx: LameContext):
    """Values (S1, S2) of the two defining sums; both vanish on the curve."""
    A = a_polys_recurrence(ctx.ell, ctx.ev)
    t1, t2 = _curve_sum_terms(pt, ctx, A)
    return sum(t1), sum(t2)


def curve_equations_scaled(pt: CurvePoint, ctx: LameContext):
    """(|S1|, |S2|) divided by the sums of term magnitudes (conditioning-aware)."""
    A = a_polys_recurrence(ctx.ell, ctx.ev)
    t1, t2 = _curve_sum_terms(pt, ctx, A)
    s1 = sum(abs(t) for t in t1) or 1.0
    s2 = sum(abs(t) for t in t2) or 1.0
    return abs(sum(t1)) / s1, abs(sum(t2)) / s2


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


def _edge_polys(ell: int, a: int, ev: ThetaEvaluator):
    """The two E-polynomials whose common roots form the label-a edge set."""
    N = ell * (ell + 1) // 2
    A = a_polys_recurrence(ell, ev)
    p1 = EPoly(np.zeros(ell + 1, dtype=complex))
    for j in range(ell + 1):
        w = (-1) ** j * theta(a, (N - j) * ev.eta, ev) * ebinom(ell, j, ev)
        p1 = p1 + A[j].scale(w)
    p2 = EPoly(np.zeros(ell + 1, dtype=complex))
    for j in range(ell + 2):
        w = (-1) ** j * theta(a, (N - j) * ev.eta, ev) * ebracket(j - 1, ev) * ebinom(ell + 1, j, ev)
        p2 = p2 + A[abs(j - 1)].scale(w)
    return p1.trimmed(), p2.trimmed()


def _polish_root(p: EPoly, r: complex, steps: int = 3) -> complex:
    dp = EPoly(np.array([(i + 1) * c for i, c in enumerate(p.coeffs[1:])], dtype=complex))
    for _ in range(steps):
        d = dp(r)
        if abs(d) == 0:
            break
        r = r - p(r) / d
    return r


def band_edges(ell: int, ev: ThetaEvaluator) -> BandEdgeSet:
    """Common roots of the two edge polynomials for each label a = 1..4.

    Roots come from the companion matrix of the first polynomial and are
    kept when the second polynomial vanishes there to within MATCH_TOL of its
    magnitude-sum at the root (numerically stabler than a polynomial GCD).
    A second polynomial that vanishes identically keeps every root.  Roots
    closer than CLUSTER_REL * scale are merged with multiplicity.
    """
    per_label = {}
    mults = {}
    for a in (1, 2, 3, 4):
        p1, p2 = _edge_polys(ell, a, ev)
        scale = max(np.abs(p1.coeffs).max(), np.abs(p2.coeffs).max())
        roots = [_polish_root(p1, r) for r in p1.roots()]
        if p2.is_zero(rel_scale=scale):
            common = roots
        else:
            common = []
            for r in roots:
                mag = sum(abs(c) * abs(r) ** i for i, c in enumerate(p2.coeffs))
                if abs(p2(r)) <= MATCH_TOL * max(mag, ev.tol):
                    common.append(r)
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


def curve_coeffs(ell: int, ev: ThetaEvaluator) -> CurveCoeffs:
    """C_j = sum over subsets J of {1..l} with sum(J) = j of
    prod_{k in J, k' not in J} [k+k'] / [|k-k'|].

    C_0 = C_N = 1 (empty products) and C_j = C_{N-j}; as eta -> 0 the C_j
    tend to the binomial coefficients binom(N, j).
    """
    N = ell * (ell + 1) // 2
    C = np.zeros(N + 1, dtype=complex)
    items = list(range(1, ell + 1))
    for r in range(ell + 1):
        for J in itertools.combinations(items, r):
            inside = set(J)
            p = 1 + 0j
            for k in J:
                for kp in items:
                    if kp not in inside:
                        p *= ebracket(k + kp, ev) / _nz(abs(k - kp), ev)
            C[sum(J)] += p
    return CurveCoeffs(ell=ell, C=C)


def bloch_relation(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator,
                   coeffs: CurveCoeffs = None) -> complex:
    """sum_j (-1)^j C_j theta1(zeta - 2j eta) K^(2(N-j)); zero on the curve's
    (zeta, K) projection."""
    cc = coeffs if coeffs is not None else curve_coeffs(ell, ev)
    N = cc.N
    return sum(
        (-1) ** j * cc.C[j] * theta(1, zeta - 2 * j * ev.eta, ev) * K ** (2 * (N - j))
        for j in range(N + 1)
    )


def bloch_relation_scale(zeta: complex, K: complex, ell: int, ev: ThetaEvaluator,
                         coeffs: CurveCoeffs = None) -> float:
    cc = coeffs if coeffs is not None else curve_coeffs(ell, ev)
    N = cc.N
    return sum(
        abs(cc.C[j] * theta(1, zeta - 2 * j * ev.eta, ev) * K ** (2 * (N - j)))
        for j in range(N + 1)
    )


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
    items = list(range(1, ell + 1))
    lhs = 0j
    for r in range(ell + 1):
        for J in itertools.combinations(items, r):
            inside = set(J)
            p = 1 + 0j
            for k in J:
                for kp in items:
                    if kp not in inside:
                        den = qnumber(abs(k - kp), q)
                        if abs(den) < 1e-12:
                            raise ZeroDivisionError(f"({abs(k-kp)})_q ~ 0 for q={q}")
                        p *= qnumber(k + kp, q) / den
            lhs += z ** sum(J) * p
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
    N = cc.N
    A = a_polys_recurrence(ctx.ell, ev)
    out = []
    attempts = 0
    while len(out) < n and attempts < 40 * n:
        attempts += 1
        zeta = complex(0.1 + 0.8 * rng.random(), 0.05 + 0.3 * rng.random())
        poly = np.array(
            [(-1) ** j * cc.C[j] * theta(1, zeta - 2 * j * ev.eta, ev) for j in range(N + 1)]
        )
        # coefficients of u^(N-j), u = K^2 -> reverse to increasing degree
        u_roots = np.roots(poly)
        rng.shuffle(u_roots)
        for u in u_roots:
            if abs(u) < 1e-10:
                continue
            K = cmath.sqrt(complex(u))
            p1 = EPoly(np.zeros(1, dtype=complex))
            for j in range(ctx.ell + 1):
                w = (-1) ** j * K ** (-j) * theta(1, zeta - j * ev.eta, ev) * ebinom(ctx.ell, j, ev)
                p1 = p1 + A[j].scale(w)
            cands = p1.roots()
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
