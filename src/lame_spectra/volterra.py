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
M(M-1)/2 differences x_j - x_k, j < k, and D = 0 (for theta1(2 eta)), at the
shifts 0, +-eta, +-2eta.

A configuration whose velocities are all equal (such as a 3-torsion
sublattice) is on the locus, but its flow only translates the poles and
leaves every spectrum unchanged for a trivial reason; the locus search
rejects it (RIGID_TOL).

The special configuration with rho zeros at -(j+k-l-1)*eta, 1<=j<=k<=l,
collapses c(x) to the elliptic-coefficient gauge of the difference Lame
operator; its pairwise differences sit exactly on the singular set, so it is
a boundary point of the locus and is rejected by the margin guard.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LocusError, MarginViolationError, PoleProximityError
# theta1_prime is not called here, but perfbench/tracing.py rebinds it on this module
from .theta import ThetaEvaluator, theta, theta1_prime

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
# find_locus_config: Gauss-Newton steps per attempt, and the residual it accepts
LOCUS_NEWTON_STEPS = 60
LOCUS_TARGET = 1e-10
# it rejects a configuration as rigid (its flow only translates) when the
# velocity spread max|v - mean v| / max|v| is at most RIGID_TOL
RIGID_TOL = 1e-6


@dataclass(frozen=True)
class PoleConfig:
    """M = l(l+1)/2 pole positions at a flow time."""

    xs: tuple
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(complex(x) for x in self.xs))

    @property
    def M(self) -> int:
        return len(self.xs)

    def translated(self, c: complex) -> "PoleConfig":
        return PoleConfig(xs=tuple(x + c for x in self.xs), t=self.t)


@dataclass(frozen=True)
class LocusReport:
    """Per-pole deviation of the consistency products from 1."""

    residuals: np.ndarray
    max_norm: float


@dataclass(frozen=True)
class FlowResult:
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


@functools.lru_cache(maxsize=None)
def _pair_index(M: int):
    """Index tables of M poles (read-only).

    ``j, k``: the pairs j < k followed by one extra pair (0, 0), so that
    xs[j] - xs[k] is the M(M-1)/2 differences and then an exact 0, the D = 0
    row that carries theta1(2 eta).  ``rows`` (M, M-1) and ``cols`` (M-1, M)
    pick the off-diagonal entries of R (see ``_pair_thetas``) from the
    flattened (pair, system) factor array: row j of ``rows`` holds R[j, k]
    and column j of ``cols`` holds R[k, j], each over k != j in order of k.
    """
    j, k = np.triu_indices(M, 1)
    flat = np.empty((M, M), dtype=np.intp)
    flat[j, k] = 2 * np.arange(len(j))
    flat[k, j] = flat[j, k] + 1
    off = ~np.eye(M, dtype=bool)
    rows = flat[off].reshape(M, max(M - 1, 0))
    # C order, so that prod(axis=0) multiplies row by row as R.prod(axis=0)
    # does; a transposed view is reduced by another loop, off in the last bit
    cols = np.ascontiguousarray(flat.T[off].reshape(M, max(M - 1, 0)).T)
    j, k = np.append(j, 0), np.append(k, 0)
    for a in (j, k, rows, cols):
        a.flags.writeable = False
    return j, k, rows, cols


def _pair_thetas(xs: np.ndarray, ev: ThetaEvaluator):
    """The residue-system products of a pole set, from one theta call over
    the pairs j < k and the D = 0 row.

    With R the (M, M) matrix R[j, k] = r1(x_j - x_k) above the diagonal,
    R[k, j] = r2(x_j - x_k) below it and 1 on it, where

        r1(D) = theta1(D+2eta) theta1(D-eta) / (theta1(D+eta) theta1(D)),

    and r2 is r1 with eta -> -eta, returns the products of the rows of R (the
    first system's factors of each pole) and of its columns (the second's):
    theta1 is odd, so r1(-D) = r2(D).  The products are gathered through the
    index tables of ``_pair_index`` and multiply in order of k, giving the
    values of R.prod(axis=1) and R.prod(axis=0) without building R.  Also
    returns theta1(2 eta), read from the table's last row, D = 0 (the extra
    pair (0, 0) of ``_pair_index``), and the margin of ``check_margins``,
    raising as it does.  The table over j < k covers j > k too:
    |theta1(-D + s eta)| = |theta1(D - s eta)| and the shifts are symmetric.
    """
    M = len(xs)
    j, k, rows, cols = _pair_index(M)
    # with no pole to index, the D = 0 row alone
    d = xs[j] - xs[k] if M else np.zeros(1, dtype=complex)
    vals = theta(1, d, ev, shifts=_SHIFTS * ev.eta)
    T = vals[:-1]
    worst = float(np.abs(T).min()) / abs(ev.theta1_prime0) if M > 1 else float("inf")
    if worst < MARGIN_TOL:
        raise MarginViolationError(
            f"pole differences within {MARGIN_TOL:g} of the singular set "
            f"(min |theta1| = {worst:.3e}); boundary of the locus"
        )
    r = ((T[:, 0:2] * T[:, 2:4]) / (T[:, 3:1:-1] * T[:, 4:])).ravel()
    return r[rows].prod(axis=1), r[cols].prod(axis=0), vals[-1, 0], worst


def _flow_state(xs: np.ndarray, ev: ThetaEvaluator):
    """Both residue-system velocities and the margin, from one theta call."""
    p1, p2, theta1_2eta, margin = _pair_thetas(xs, ev)
    scale = theta1_2eta / ev.theta1_prime0
    return scale * p1, scale * p2, margin


def c_from_poles(cfg: PoleConfig, x, ev: ThetaEvaluator):
    """rho(x+eta) rho(x-2eta) / (rho(x) rho(x-eta)); elliptic in x.

    ``x`` is a complex scalar (``complex`` out) or an ndarray (array of the
    same shape out), evaluated with one theta call.
    """
    eta = ev.eta
    xs = np.array(cfg.xs, dtype=complex)
    xa = np.asarray(x, dtype=complex)
    # axis -2: poles; axis -1: rho(x), rho(x - eta), rho(x + eta), rho(x - 2 eta)
    f = theta(1, xa[..., None] - xs, ev, shifts=[0, -eta, eta, -2 * eta])
    near = np.abs(f[..., :2]) < ev.zero_threshold
    if near.any():
        *at, j, _ = np.argwhere(near)[0]
        raise PoleProximityError(
            f"x={complex(xa[tuple(at)])} within tol of the pole lattice of x_j={xs[j]}"
        )
    rho = np.prod(f, axis=-2)
    c = rho[..., 2] * rho[..., 3] / (rho[..., 0] * rho[..., 1])
    return complex(c) if xa.ndim == 0 else c


def volterra_rhs_c(cfg: PoleConfig, x: complex, ev: ThetaEvaluator) -> complex:
    """-c(x) (c(x+eta) - c(x-eta)), the flow derivative of the coefficient."""
    c0 = c_from_poles(cfg, x, ev)
    return -c0 * (c_from_poles(cfg, x + ev.eta, ev) - c_from_poles(cfg, x - ev.eta, ev))


def check_margins(cfg: PoleConfig, ev: ThetaEvaluator) -> float:
    """Smallest |theta1(x_j - x_k - s)| over pairs and shifts s in {0,+-eta,+-2eta},
    in units of theta1'(0) (so roughly the distance to the singular set).

    Raises MarginViolationError below MARGIN_TOL: some factor of the residue
    systems is (numerically) singular there.
    """
    return _pair_thetas(np.array(cfg.xs, dtype=complex), ev)[3]


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
    p1, p2, _, _ = _pair_thetas(np.array(cfg.xs, dtype=complex), ev)
    res = p1 / p2 - 1
    return LocusReport(residuals=res, max_norm=float(np.abs(res).max()) if cfg.M else 0.0)


def integrate_flow(cfg0: PoleConfig, t_end: float, dt: float, ev: ThetaEvaluator) -> FlowResult:
    """Classical fixed-step 4th-order integration of the first residue system.

    ``t_end``, ``dt`` and their ratio must be finite and ``dt`` nonzero
    (ValueError).
    Preconditions: margins hold and the two systems agree within LOCUS_TOL
    at cfg0 (otherwise LocusError with the measured gap).  At every step the
    locus gap and the margin are recorded; the flow halts with a structured
    error if the gap exceeds GAP_FACTOR * LOCUS_TOL or a margin is violated.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got t_end={t_end}")
    if dt == 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and nonzero, got dt={dt}")
    span = abs(t_end) / abs(dt)
    if not math.isfinite(span):
        raise ValueError(f"t_end/dt must be finite, got t_end={t_end}, dt={dt}")
    xs = np.array(cfg0.xs, dtype=complex)
    v1, v2, margin = _flow_state(xs, ev)
    gap0 = float(np.abs(v1 - v2).max(initial=0.0))
    if cfg0.M > 1 and gap0 > LOCUS_TOL * max(1.0, float(np.abs(v1).max())):
        raise LocusError(
            f"configuration is off-locus: residue systems differ by {gap0:.3e}",
            gap=gap0,
        )

    def rhs(xs):
        return _flow_state(xs, ev)[0]

    n_steps = max(1, round(span)) if t_end != 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    t = cfg0.t
    traj = [PoleConfig(xs=tuple(xs), t=t)]
    gaps = [gap0]
    margins = [margin]
    for _ in range(n_steps):
        k1 = v1  # the velocity of the pole set the previous step ended on
        k2 = rhs(xs + 0.5 * h * k1)
        k3 = rhs(xs + 0.5 * h * k2)
        k4 = rhs(xs + h * k3)
        xs = xs + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        v1, v2, margin = _flow_state(xs, ev)
        margins.append(margin)
        gap = float(np.abs(v1 - v2).max(initial=0.0))
        gaps.append(gap)
        traj.append(PoleConfig(xs=tuple(xs), t=t))
        if cfg0.M > 1 and gap > GAP_FACTOR * LOCUS_TOL * max(1.0, float(np.abs(v1).max())):
            raise LocusError(
                f"locus consistency degraded to {gap:.3e} at t={t:.6g}", gap=gap
            )
    return FlowResult(trajectory=traj, locus_gaps=np.array(gaps), margins=np.array(margins))


def find_locus_config(ell: int, ev: ThetaEvaluator, rng, n_attempts: int = 40):
    """Damped Gauss-Newton search for a non-trivial on-locus configuration.

    Seeds are random perturbations of the degenerate boundary configuration,
    pushed just outside the singular margins.  There is no guarantee of
    success; each attempt takes up to LOCUS_NEWTON_STEPS damped steps, and
    the first configuration with locus residual below LOCUS_TARGET is
    returned, or None if every attempt fails (failures are the caller's to
    report, not to hide).  For M > 1 a configuration whose velocities are
    all equal (spread at most RIGID_TOL, such as a 3-torsion sublattice
    {0, tau/3, 2 tau/3}) only translates, so its attempt counts as failed.
    """
    base = np.array(degenerate_poles(ell, ev).xs, dtype=complex)

    def recenter(xs):
        # translations are a null direction of the residuals; pin the centroid
        return xs - xs.mean()

    def res_vec(xs):
        rep = locus_residual(PoleConfig(xs=tuple(xs)), ev)
        return rep.residuals

    for _ in range(n_attempts):
        spread = 0.35 + 0.4 * rng.random()
        xs = base + spread * (rng.standard_normal(len(base)) + 1j * rng.standard_normal(len(base)))
        try:
            f = res_vec(xs)
        except (MarginViolationError, PoleProximityError):
            continue
        ok = True
        for _ in range(LOCUS_NEWTON_STEPS):
            if np.abs(f).max() < LOCUS_TARGET:
                break
            J = np.zeros((len(f), len(xs)), dtype=complex)
            h = 1e-7
            try:
                for c in range(len(xs)):
                    dxs = xs.copy()
                    dxs[c] += h
                    J[:, c] = (res_vec(dxs) - f) / h
            except (MarginViolationError, PoleProximityError):
                ok = False
                break
            step, *_ = np.linalg.lstsq(J, -f, rcond=None)
            lam = 1.0
            base_norm = np.abs(f).max()
            for _ in range(10):
                try:
                    f_try = res_vec(xs + lam * step)
                except (MarginViolationError, PoleProximityError):
                    lam /= 2
                    continue
                if np.abs(f_try).max() < base_norm:
                    xs = recenter(xs + lam * step)
                    f = f_try
                    break
                lam /= 2
            else:
                ok = False
                break
        if ok and np.abs(f).max() < LOCUS_TARGET:
            cfg = PoleConfig(xs=tuple(recenter(xs)))
            v, _ = pole_rhs(cfg, ev)
            if cfg.M == 1 or np.abs(v - v.mean()).max() > RIGID_TOL * np.abs(v).max():
                return cfg
    return None
