"""The identity suites of ``lame-spectra verify``, one record per suite.

``SUITES`` maps each suite's name to ``(draw, bound_source)``.  A draw
function ``draw(ell, ev, rng)`` returns one relative error per draw (the
largest where a draw checks several) and each draw's bound (a scalar holds for
all); ``bound_source`` says where the bound comes from.  A suite passes when
every error is at most its bound, and fails with no draw (no curve point
found).

Each suite draws from its own generator, ``default_rng([seed,
*name.encode()])``: a ``SeedSequence`` over the seed and the bytes of the
suite's name (not Python's salted ``hash``), so its report is the same alone
and inside ``--suite all``, and a suite added to the table moves no other
suite's draws.
"""

from math import comb

import numpy as np

from . import curve as curve_mod
from .enumbers import qnumber
from .lame import CurvePoint, LameContext, _sigma_min
from .theta import EllipticParams, ThetaEvaluator, theta


def _theta_monodromy(ell: int, ev: ThetaEvaluator, rng):
    errors = []
    for a in (1, 2, 3, 4):
        for _ in range(20):
            x = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            s1 = -1 if a in (1, 2) else 1
            st = -1 if a in (1, 4) else 1
            v = theta(a, x, ev)
            e1 = abs(theta(a, x + 1, ev) - s1 * v) / max(abs(v), 1.0)
            ratio = st * np.exp(-1j * np.pi * ev.tau - 2j * np.pi * x)
            e2 = abs(theta(a, x + ev.tau, ev) - ratio * v) / max(abs(ratio * v), 1.0)
            errors.append(max(e1, e2))
    return errors, 1e-10


def _cauchy(ell: int, ev: ThetaEvaluator, rng):
    """One draw per i = 1..ell+1 of n = min(i, 10) points, LU's relative error
    being about n eps kappa(A).  Re x lies in (0.05, 0.45) and Im x in one of
    n equal bands of |Im x| < 0.45 Im tau, one point per band: the sums x_i +
    x_j keep off the lattice and the points do not cluster.  kappa(A) still
    grows about threefold per point; at n <= 10 the bounds stay below 1e-7."""
    errors, bounds = [], []
    for i in range(1, ell + 2):
        n = min(i, 10)
        im = np.linspace(-0.45, 0.45, n + 1) * ev.tau.imag
        xs = [complex(rng.uniform(0.05, 0.45), rng.uniform(lo, hi)) for lo, hi in zip(im[:-1], im[1:])]
        zeta = complex(rng.uniform(0.1, 0.7), rng.uniform(0.0, 0.2))
        lhs, rhs = curve_mod.cauchy_det(xs, zeta, ev)
        kappa = np.linalg.cond(curve_mod._cauchy_matrix(xs, zeta, ev)[0])
        errors.append(abs(lhs - rhs) / max(abs(rhs), 1e-30))
        bounds.append(10 * n * np.finfo(float).eps * kappa)
    return errors, bounds


def _schur(ell: int, ev: ThetaEvaluator, rng):
    """|lhs - rhs| over sum_j |C_j| |z|^j, the terms the lhs sum rounds
    against (C_j the subset sums of the q-numbers): a backward error.  The
    product rhs has its zeros on |z| = 1, so |rhs| can be far below the
    rounding of a correct lhs."""
    errors = []
    for _ in range(5):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
        q = complex(np.exp(1j * rng.uniform(0.2, 1.2)))
        lhs, rhs = curve_mod.weyl_denominator_check(ell, z, q)
        C = curve_mod._subset_sums([qnumber(j, q) for j in range(2 * ell + 1)])
        errors.append(abs(lhs - rhs) / curve_mod.polyval(abs(z), np.abs(C)))
    return errors, 1e-10


def _apoly(ell: int, ev: ThetaEvaluator, rng):
    A = curve_mod.a_polys_recurrence(ell, ev)
    errors = []
    for _ in range(20):
        E = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        dets = [curve_mod.a_polys_determinant(ell, s, E, ev) for s in range(ell + 1)]
        recs = [curve_mod.polyval(E, A[ell - s]) for s in range(ell + 1)]
        errors.append(max(abs(d - r) / max(abs(r), 1.0) for d, r in zip(dets, recs)))
    return errors, 1e-10


def _curve_symmetry(ell: int, ev: ThetaEvaluator, rng):
    """Each image of a point reads sigma_min of its row-scaled residue matrix,
    its distance to a rank-deficient matrix in units of each row's terms."""
    ctx = LameContext(ell=ell, ev=ev)
    errors = []
    for pt in curve_mod.random_curve_points(ctx, 3, rng):
        mapped = (
            CurvePoint(zeta=pt.zeta + ev.tau, K=pt.K * np.exp(2j * np.pi * ev.eta), E=pt.E),
            CurvePoint(zeta=pt.zeta, K=-pt.K, E=-pt.E),
            CurvePoint(zeta=2 * ctx.N * ev.eta - pt.zeta, K=1 / pt.K, E=pt.E),
        )
        errors.append(_sigma_min(mapped, ctx).max())
    return errors, 1e-8


def _cj_pair_errors(C: np.ndarray) -> np.ndarray:
    """One error per j: |C_j - C_{N-j}| relative to the larger of the two (0
    where both vanish), and at j = 0 also |C_0 - 1|."""
    scale = np.maximum(np.abs(C), np.abs(C[::-1]))
    errors = np.abs(C - C[::-1]) / np.where(scale > 0, scale, 1.0)
    errors[0] = max(errors[0], abs(C[0] - 1))
    return errors


def _cj_symmetry(ell: int, ev: ThetaEvaluator, rng):
    """The palindrome C_j = C_{N-j} and C_0 = 1, one error per j (``_cj_pair_errors``)."""
    return _cj_pair_errors(curve_mod.curve_coeffs(ell, ev).C), 1e-10


def _cj_limit(ell: int, ev: ThetaEvaluator, rng):
    """C_j -> binom(N, j) as eta -> 0 at the eta^2 rate: while N^2 eta^2 is
    small, halving eta divides d = max_j |C_j / binom(N, j) - 1| by 4.  The
    ladder eta_k = 0.1 min(1, Im tau)^2 / N / 2^k starts lower at small Im tau,
    where the eta^2 term dominates only at smaller eta; the cell's eta is not read."""
    N = ell * (ell + 1) // 2
    binom = np.array([comb(N, j) for j in range(N + 1)], dtype=float)
    top = 0.1 * min(1.0, ev.tau.imag) ** 2
    d = np.empty(3)
    for k in range(3):
        ev_k = ThetaEvaluator(EllipticParams(tau=ev.tau, eta=top / N / 2**k, tol=ev.tol))
        d[k] = np.abs(curve_mod.curve_coeffs(ell, ev_k).C / binom - 1).max()
    return np.abs(4 * d[1:] - d[:-1]), 0.05 * d[:-1] + 64 * np.finfo(float).eps


# in the order --suite all runs them; the order fixes no suite's draws
SUITES = {
    "theta-monodromy": (_theta_monodromy, "fixed"),
    "cauchy": (_cauchy, "10 n eps kappa(A)"),
    "schur": (_schur, "fixed"),
    "apoly": (_apoly, "fixed"),
    "curve-symmetry": (_curve_symmetry, "fixed"),
    "cj-symmetry": (_cj_symmetry, "fixed"),
    "cj-limit": (_cj_limit, "eta^2 rate"),
}
