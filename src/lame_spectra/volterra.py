"""Isospectral pole dynamics: the first Volterra flow on elliptic
coefficients written through their pole configurations.

A coefficient c(x) = rho(x+eta) rho(x-2eta) / (rho(x) rho(x-eta)) with
rho(x) = prod_j theta1(x - x_j) solves the flow

    dc/dt = -c(x) (c(x + eta) - c(x - eta))

exactly when the poles move by either of the two residue systems

    theta1'(0)/theta1(2 eta) * dx_j/dt
        = prod_{k != j} theta1(D+2eta) theta1(D-eta) / (theta1(D+eta) theta1(D)),
        = prod_{k != j} theta1(D-2eta) theta1(D+eta) / (theta1(D-eta) theta1(D)),

D = x_j - x_k.  Consistency of the two systems is the locus condition

    prod_{k != j} theta1(D+2eta) theta1^2(D-eta)
                / (theta1(D-2eta) theta1^2(D+eta)) = 1,

whose eta -> 0 expansion reproduces the equilibrium condition
sum_{k != j} P'(x_j - x_k) = 0 of the continuum pole dynamics.

theta1 is odd, so the factor pole k contributes to the first system of
pole j is the factor pole j contributes to the second system of pole k:
with r1(D) the first product's factor and r2(D) the second's, r1(-D) =
r2(D).  Each pole set is therefore read from one theta table over the
M(M-1)/2 differences x_j - x_k, j < k, at the shifts 0, +-eta, +-2eta; the
scale theta1(2 eta) is the evaluator's theta1(k eta) table entry.

A configuration whose velocities are all equal (such as a 3-torsion
sublattice) is on the locus, but its flow only translates the poles and
leaves every spectrum unchanged for a trivial reason; the locus search
rejects it (RIGID_TOL).

The special configuration with rho zeros at -(j+k-l-1)*eta, 1<=j<=k<=l,
collapses c(x) to the elliptic-coefficient gauge of the difference Lame
operator; its pairwise differences sit exactly on the singular set, so it is
a boundary point of the locus and is rejected by the margin guard.

The records are NamedTuples, as every record of the package is (see
``theta``): ``LocusReport`` and ``FlowResult`` plain ones, ``PoleConfig`` one
whose ``__new__`` stores its poles as a tuple of complex numbers, so a
flow's trajectory of pole sets is a list of tuples.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .enumbers import nonzero_bracket, theta1_multiples
from .errors import ConvergenceError, LocusError, MarginViolationError, PoleProximityError
# theta1_prime is not called here, but perfbench/tracing.py rebinds it on this module
from .theta import ThetaEvaluator, _checked_make, theta, theta1_prime

__all__ = [
    "PoleConfig",
    "LocusReport",
    "FlowResult",
    "degenerate_poles",
    "c_from_poles",
    "volterra_rhs_c",
    "pole_rhs",
    "locus_residual",
    "integrate_flow",
    "find_locus_config",
]

MARGIN_TOL = 1e-6
# the two residue systems must agree within LOCUS_TOL at the start of a flow,
# and within GAP_FACTOR * LOCUS_TOL at every step
LOCUS_TOL = 1e-8
GAP_FACTOR = 100.0
# find_locus_config: random seeds it tries, Gauss-Newton steps per attempt,
# and the residual it accepts
LOCUS_ATTEMPTS = 40
LOCUS_NEWTON_STEPS = 60
LOCUS_TARGET = 1e-10
# the pole displacement of its forward-difference Jacobian
LOCUS_H = 1e-7
# it rejects a configuration as rigid (its flow only translates) when the
# velocity spread max|v - mean v| / max|v| is at most RIGID_TOL
RIGID_TOL = 1e-6
# integrate_flow accepts a step whose embedded error estimate is at most
# FLOW_TOL * (1 + |x_j|) at every pole
FLOW_TOL = 1e-12

# the Dormand-Prince 5(4) pair: stage rows (the last one is the fifth-order
# weights, FSAL), the error weights b5 - b4 and the dense-output weights of
# Hairer, Norsett and Wanner's DOPRI5 (the zeros are k2's); complex, as the
# stages they multiply are (a float operand would be cast on every product)
_DP_A = tuple(np.array(row, dtype=complex) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40], dtype=complex
)
_DP_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
], dtype=complex)


class _PoleConfigFields(NamedTuple):
    xs: tuple
    t: float


class PoleConfig(_PoleConfigFields):
    """M = l(l+1)/2 pole positions at a flow time.

    ``xs`` is stored as a tuple of Python complex numbers, whatever sequence
    it is given as; built from a row of ``ndarray.tolist()``, whose entries
    already are, the conversion costs one ``complex`` call per pole.
    """

    __slots__ = ()

    def __new__(cls, xs, t: float = 0.0):
        return super().__new__(cls, tuple(map(complex, xs)), t)

    _make = classmethod(_checked_make)

    @property
    def M(self) -> int:
        return len(self.xs)


class LocusReport(NamedTuple):
    """Per-pole deviation of the consistency products from 1."""

    residuals: np.ndarray
    max_norm: float


class FlowResult(NamedTuple):
    trajectory: list
    locus_gaps: np.ndarray
    margins: np.ndarray


def degenerate_poles(ell: int, ev: ThetaEvaluator) -> PoleConfig:
    """The boundary configuration whose c(x) is the difference-Lame coefficient."""
    xs = [-(j + k - ell - 1) * ev.eta for j in range(1, ell + 1) for k in range(j, ell + 1)]
    return PoleConfig(xs=tuple(xs))


# table columns x_j - x_k + s*eta, ordered so that r1 and r2 (see _pair_thetas)
# are (T[:, 0:2] * T[:, 2:4]) / (T[:, 3:1:-1] * T[:, 4:])
_SHIFTS = np.array([2.0, -2.0, -1.0, 1.0, 0.0])

# the shifts of c_from_poles' factors, in units of eta: rho(x), rho(x - eta),
# rho(x + eta) and rho(x - 2 eta)
_C_SHIFTS = np.array([0.0, -1.0, 1.0, -2.0])


@functools.lru_cache(maxsize=None)
def _pair_index(M: int):
    """The pairs j < k of M poles as two index arrays, and two gathers that
    lay the flattened (pairs, 2) table of r1 and r2 out as the off-diagonal
    entries of R (see ``_pair_thetas``): (M, M-1), row j in column order, and
    (M-1, M), column k in row order.  All four are read-only."""
    j, k = np.triu_indices(M, 1)
    pair = np.zeros((M, M), dtype=np.intp)
    pair[j, k] = 2 * np.arange(len(j))
    pair[k, j] = 2 * np.arange(len(j)) + 1
    off = ~np.eye(M, dtype=bool)
    rows = pair[off].reshape(M, max(M - 1, 0))
    cols = pair.T[off].reshape(M, max(M - 1, 0)).T.copy()
    for a in (j, k, rows, cols):
        a.flags.writeable = False
    return j, k, rows, cols


def _pair_thetas(xs: np.ndarray, ev: ThetaEvaluator):
    """The residue-system products of a pole set, from one theta call over
    the pairs j < k.

    With R the (M, M) matrix R[j, k] = r1(x_j - x_k) above the diagonal,
    R[k, j] = r2(x_j - x_k) below it and 1 on it, where

        r1(D) = theta1(D+2eta) theta1(D-eta) / (theta1(D+eta) theta1(D)),

    and r2 is r1 with eta -> -eta, returns the products of the rows of R (the
    first system's factors of each pole) and of its columns (the second's):
    theta1 is odd, so r1(-D) = r2(D).  The off-diagonal entries are gathered
    from the pair table, the factors of a row along the last axis and those
    of a column along the one before it, as they lie in R: each product is
    bit for bit R's (the factor 1 changes no bit, and numpy reduces along
    and across the last axis by different loops; the tests keep R as the
    oracle).  Also returns the margin of ``check_margins``, raising as it
    does.  The table over j < k covers j > k too: |theta1(-D + s eta)| =
    |theta1(D - s eta)| and the shifts are symmetric.

    ``xs`` of shape (..., M) is a batch of pole sets, still read by one theta
    call: the products have shape (..., M), the margins shape (...), and the
    guard raises if any set violates it.  A 1-D ``xs`` returns a float margin.
    """
    j, k, rows, cols = _pair_index(xs.shape[-1])
    T = theta(1, xs.take(j, axis=-1) - xs.take(k, axis=-1), ev, shifts=_SHIFTS * ev.eta)
    # no pair (M < 2): nothing near the singular set, margin inf
    worst = np.abs(T).min(axis=(-2, -1), initial=np.inf) / abs(ev.theta1_prime0)
    if xs.ndim == 1:
        worst = least = float(worst)
    else:
        least = worst.min(initial=np.inf)
    if least < MARGIN_TOL:
        raise MarginViolationError(
            f"pole differences within {MARGIN_TOL:g} of the singular set "
            f"(min |theta1| = {least:.3e}); boundary of the locus"
        )
    r = (T[..., 0:2] * T[..., 2:4]) / (T[..., 3:1:-1] * T[..., 4:])
    r = r.reshape(r.shape[:-2] + (2 * len(j),))
    # take, not r[..., rows]: its result is C-ordered as R is, so numpy
    # reduces it by the same loops
    return r.take(rows, axis=-1).prod(axis=-1), r.take(cols, axis=-1).prod(axis=-2), worst


def _flow_state(xs: np.ndarray, ev: ThetaEvaluator):
    """Both residue-system velocities, each product scaled by
    theta1(2 eta)/theta1'(0) (theta1(2 eta) from ``theta1_multiples``), and
    the margin, from one theta call; ``xs`` of shape (..., M) as for
    ``_pair_thetas``."""
    p1, p2, margin = _pair_thetas(xs, ev)
    scale = theta1_multiples(2, ev)[2] / ev.theta1_prime0
    return scale * p1, scale * p2, margin


def c_from_poles(cfg: PoleConfig, x, ev: ThetaEvaluator):
    """rho(x+eta) rho(x-2eta) / (rho(x) rho(x-eta)); elliptic in x.

    ``x`` is a complex scalar (``complex`` out) or an ndarray (array of the
    same shape out), evaluated with one theta call.  The factors
    theta1(x - x_j + s), s in {0, -eta, eta, -2eta}, are read separably: the
    call's points are the 4M offsets s - x_j and its shifts are the x, so each
    series term exp(2i*pi*(x - x_j + s)*m) is the product of a point factor
    over the offsets and theta's shift factor over the x.  A call makes 4M
    exponentials per term, not one per (x, pole) pair; the shift factors are
    theta's cached table of the x, so a Bloch orbit sampled again for another
    pole set finds its table built.  A call at a new x adds one such table.
    """
    eta = ev.eta
    xs = np.array(cfg.xs, dtype=complex)
    xa = np.asarray(x, dtype=complex)
    # axis 0: rho(x), rho(x - eta), rho(x + eta), rho(x - 2 eta); axis 1: poles
    f = theta(1, (_C_SHIFTS * eta)[:, None] - xs, ev, shifts=xa)
    near = np.abs(f[:2]) < ev.zero_threshold
    if near.any():
        *at, j, _ = np.argwhere(np.moveaxis(near, (0, 1), (-1, -2)))[0]
        raise PoleProximityError(
            f"x={complex(xa[tuple(at)])} within tol of the pole lattice of x_j={xs[j]}"
        )
    rho = f.prod(axis=1)
    c = rho[2] * rho[3] / (rho[0] * rho[1])
    return complex(c) if xa.ndim == 0 else c


def volterra_rhs_c(cfg: PoleConfig, x: complex, ev: ThetaEvaluator) -> complex:
    """-c(x) (c(x+eta) - c(x-eta)), the flow derivative of the coefficient."""
    c0, cp, cm = c_from_poles(cfg, np.array([x, x + ev.eta, x - ev.eta], dtype=complex), ev)
    return complex(-c0 * (cp - cm))


def check_margins(cfg: PoleConfig, ev: ThetaEvaluator) -> float:
    """Smallest |theta1(x_j - x_k - s)| over pairs and shifts s in {0,+-eta,+-2eta},
    in units of theta1'(0) (so roughly the distance to the singular set).

    Raises MarginViolationError below MARGIN_TOL: some factor of the residue
    systems is (numerically) singular there.
    """
    return _pair_thetas(np.array(cfg.xs, dtype=complex), ev)[2]


def pole_rhs(cfg: PoleConfig, ev: ThetaEvaluator):
    """Velocities from both residue systems, scaled by theta1(2eta)/theta1'(0).

    Returns (v_first, v_second); the flow integrates the first system, the
    second is retained as the on-locus consistency monitor (their gap is the
    locus diagnostic).  Depends only on pairwise differences.
    """
    return _flow_state(np.array(cfg.xs, dtype=complex), ev)[:2]


def locus_residual(cfg: PoleConfig, ev: ThetaEvaluator) -> LocusReport:
    """Consistency products minus 1, one entry per pole: the first residue
    system's product over the second's, minus 1.

    An on-locus configuration has max norm below tolerance; the degenerate
    boundary configuration trips the margin guard instead of reporting.
    """
    res = _locus_residuals(np.array(cfg.xs, dtype=complex), ev)
    return LocusReport(residuals=res, max_norm=float(np.abs(res).max()) if cfg.M else 0.0)


def _locus_residuals(xs: np.ndarray, ev: ThetaEvaluator):
    """The first residue system's products over the second's, minus 1, of
    the pole sets ``xs`` of shape (..., M), from one ``_pair_thetas`` call."""
    p1, p2, _ = _pair_thetas(xs, ev)
    return p1 / p2 - 1


def _locus_jacobian(xs: np.ndarray, f: np.ndarray, ev: ThetaEvaluator):
    """The forward-difference Jacobian of ``_locus_residuals`` at the pole set
    ``xs``, whose residuals are ``f``: column c from ``xs`` with pole c moved
    by LOCUS_H.  The M moved sets are the rows of one batch, each row's
    residuals bit for bit those of its set alone."""
    return ((_locus_residuals(xs + LOCUS_H * np.eye(len(xs)), ev) - f) / LOCUS_H).T


def integrate_flow(cfg0: PoleConfig, t_end: float, dt: float, ev: ThetaEvaluator) -> FlowResult:
    """Error-controlled integration of the first residue system by the
    Dormand-Prince 5(4) pair, reported on the output grid of spacing ``dt``.

    The pair (Dormand and Prince 1980; Hairer, Norsett and Wanner, Solving
    ODEs I, II.4-II.6) advances the fifth-order solution and reuses its last
    stage as the next step's first (FSAL).  A step is accepted when the
    embedded error estimate is at most FLOW_TOL * (1 + |x_j|) for every
    pole.  The next step size is h * min(5, 0.9 * err^(-1/5)) after an
    accepted step and h * max(0.2, 0.9 * err^(-1/5)) after a rejected one,
    shortened so that equal steps end on t_end; the first step tries the
    whole span.  The trajectory holds one PoleConfig per grid time
    t = cfg0.t + t_end*i/n, n = round(|t_end/dt|) (at least 1 unless t_end
    is 0), ``cfg0`` itself first.  Every grid time after the start, a step's
    own end included, is read from its step's fourth-order dense output, one
    batch per step; the pole sets, gaps and margins of the batches are kept
    as arrays and turned into PoleConfigs (from ``tolist`` rows) once, at
    the end.

    ``t_end``, ``dt`` and their ratio must be finite and ``dt`` nonzero
    (ValueError).  The velocity scale theta1(2 eta)/theta1'(0) vanishes at a
    2-torsion or lattice eta, where every pole set would pass as on the
    locus and stand still: such an eta raises TorsionEtaError, from
    ``nonzero_bracket(2, ev)``.
    Preconditions: margins hold and the two systems agree within LOCUS_TOL
    at cfg0 (otherwise LocusError with the measured gap).  Checks: every
    stage evaluation raises MarginViolationError under the margin guard;
    every accepted step end (through its last stage) and every grid point
    (one batched evaluation per step) is checked for its margin and for a
    locus gap above GAP_FACTOR * LOCUS_TOL * max(1, max|v1|), which halts
    the flow with LocusError.  ``locus_gaps`` and ``margins`` hold the
    values at the grid points.  A trial step whose stages overflow is
    rejected like any other; a step size below 1e-14 of the span raises
    ConvergenceError.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got t_end={t_end}")
    if dt == 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and nonzero, got dt={dt}")
    span = abs(t_end) / abs(dt)
    if not math.isfinite(span):
        raise ValueError(f"t_end/dt must be finite, got t_end={t_end}, dt={dt}")
    nonzero_bracket(2, ev)
    xs = np.array(cfg0.xs, dtype=complex)
    v1, v2, margin = _flow_state(xs, ev)
    gap0 = float(np.abs(v1 - v2).max(initial=0.0))
    if cfg0.M > 1 and gap0 > LOCUS_TOL * max(1.0, float(np.abs(v1).max())):
        raise LocusError(
            f"configuration is off-locus: residue systems differ by {gap0:.3e}",
            gap=gap0,
        )

    def checked_gaps(v1, v2, ts):
        gaps = np.abs(v1 - v2).max(axis=-1, initial=0.0)
        # max(1, max|v1|): the initial value takes part in the max
        bad = gaps > GAP_FACTOR * LOCUS_TOL * np.abs(v1).max(axis=-1, initial=1.0)
        if cfg0.M > 1 and bad.any():
            first = int(np.argmax(bad))
            gap = float(gaps.flat[first])
            t = float(np.ravel(ts)[first])
            raise LocusError(f"locus consistency degraded to {gap:.3e} at t={t:.6g}", gap=gap)
        return gaps

    n_out = max(1, round(span)) if t_end != 0 else 0
    # grid times relative to cfg0.t; linspace ends exactly on t_end
    grid = np.linspace(0.0, t_end, n_out + 1)
    grid_t = grid.tolist()
    # the grid points after the start, one (points, M) batch per step
    batches, gaps, margins = [], [np.array([gap0])], [np.array([margin])]
    K = np.empty((7, cfg0.M), dtype=complex)
    K[0] = v1
    s, h, i = 0.0, t_end, 1
    while i <= n_out:
        # the rest of the span in steps of equal length, none longer than h
        left = t_end - s
        h = left / math.ceil(left / h) if abs(h) < abs(left) else left
        if abs(h) <= 1e-14 * abs(t_end):
            raise ConvergenceError(f"flow step size underflow at t={cfg0.t + s:.6g}")
        # a step too long for the flow can overflow; it is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            for st, row in enumerate(_DP_A):
                y = xs + h * (row @ K[: st + 1])
                if not np.isfinite(y).all():
                    err = math.inf
                    break
                # the last row is the fifth-order end point; its velocity is K[6]
                K[st + 1], w2, _ = _flow_state(y, ev)
            else:
                scale = FLOW_TOL * (1.0 + np.maximum(np.abs(xs), np.abs(y)))
                err = float((np.abs(h * (_DP_E @ K)) / scale).max(initial=0.0))
        if not err <= 1.0:
            # rejected (a non-finite estimate too): shrink, keep the first stage
            h *= 0.2 if not math.isfinite(err) else max(0.2, 0.9 * err**-0.2)
            continue
        s_new = t_end if h == left else s + h
        checked_gaps(K[6], w2, cfg0.t + s_new)
        j = i
        while j <= n_out and (grid_t[j] - s_new) * t_end <= 0:
            j += 1
        if j > i:
            # the step's grid points from its dense output, checked in one batch
            th = ((grid[i:j] - s) / h)[:, None]
            u = 1 - th
            d = y - xs
            bspl = h * K[0] - d
            r5 = h * (_DP_D @ K)
            y_grid = xs + th * (d + u * (bspl + th * (d - h * K[6] - bspl + u * r5)))
            m1, m2, m_margin = _flow_state(y_grid, ev)
            gaps.append(checked_gaps(m1, m2, cfg0.t + grid[i:j]))
            batches.append(y_grid)
            margins.append(m_margin)
            i = j
        xs, s = y, s_new
        K[0] = K[6]
        h *= min(5.0, 0.9 * err**-0.2) if err > 0 else 5.0
    traj = [cfg0]
    if batches:
        times = (cfg0.t + grid[1:]).tolist()
        traj += [PoleConfig(xs=row, t=t) for row, t in zip(np.concatenate(batches).tolist(), times)]
    return FlowResult(trajectory=traj, locus_gaps=np.concatenate(gaps), margins=np.concatenate(margins))


def find_locus_config(ell: int, ev: ThetaEvaluator, rng):
    """Damped Gauss-Newton search for a non-trivial on-locus configuration.

    Seeds are random perturbations of the degenerate boundary configuration,
    pushed just outside the singular margins.  There is no guarantee of
    success; each of up to LOCUS_ATTEMPTS attempts takes up to
    LOCUS_NEWTON_STEPS damped steps, and the first configuration with locus
    residual below LOCUS_TARGET is returned, or None if every attempt fails
    (failures are the caller's to report, not to hide).  For M > 1 a
    configuration whose velocities are all equal (spread at most RIGID_TOL,
    such as a 3-torsion sublattice {0, tau/3, 2 tau/3}) only translates, so
    its attempt counts as failed.  A step reads its Jacobian from one batched
    call (``_locus_jacobian``); a margin violation there or at the seed ends
    the attempt, and one in the line search halves the step.
    """
    base = np.array(degenerate_poles(ell, ev).xs, dtype=complex)
    for _ in range(LOCUS_ATTEMPTS):
        spread = 0.35 + 0.4 * rng.random()
        xs = base + spread * (rng.standard_normal(len(base)) + 1j * rng.standard_normal(len(base)))
        try:
            f = _locus_residuals(xs, ev)
            for _ in range(LOCUS_NEWTON_STEPS):
                if np.abs(f).max() < LOCUS_TARGET:
                    break
                step, *_ = np.linalg.lstsq(_locus_jacobian(xs, f, ev), -f, rcond=None)
                lam = 1.0
                base_norm = np.abs(f).max()
                for _ in range(10):
                    try:
                        f_try = _locus_residuals(xs + lam * step, ev)
                    except MarginViolationError:
                        lam /= 2
                        continue
                    if np.abs(f_try).max() < base_norm:
                        # translations are a null direction of the residuals; pin the centroid
                        xs = xs + lam * step
                        xs = xs - xs.mean()
                        f = f_try
                        break
                    lam /= 2
                else:
                    break
        except MarginViolationError:
            continue
        if np.abs(f).max() < LOCUS_TARGET:
            cfg = PoleConfig(xs=tuple(xs - xs.mean()))
            v, _ = pole_rhs(cfg, ev)
            if cfg.M == 1 or np.abs(v - v.mean()).max() > RIGID_TOL * np.abs(v).max():
                return cfg
    return None
