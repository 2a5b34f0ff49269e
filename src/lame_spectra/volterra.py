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

The special configuration with rho zeros at -(j+k-l-1)*eta, 1<=j<=k<=l,
collapses c(x) to the elliptic-coefficient gauge of the difference Lame
operator; its pairwise differences sit exactly on the singular set, so it is
a boundary point of the locus and is rejected by the margin guard.
"""

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


_SHIFTS = np.array([0.0, 1.0, -1.0, 2.0, -2.0])  # table rows: x_j - x_k + s*eta


def _pair_thetas(cfg: PoleConfig, ev: ThetaEvaluator):
    """All theta1 values the residue systems of a pole set read, from one call.

    Returns the table T[i, j, k] = theta1(x_j - x_k + s_i eta), s = 0, 1, -1,
    2, -2, with 1 on the diagonal; theta1(2 eta); and the margin of
    ``check_margins``, raising as it does.
    """
    xs = np.array(cfg.xs, dtype=complex)
    M = len(xs)
    j, k = np.nonzero(~np.eye(M, dtype=bool))
    args = (xs[j] - xs[k])[None, :] + _SHIFTS[:, None] * ev.eta
    vals = theta(1, np.append(args.ravel(), 2 * ev.eta), ev)
    pairs = vals[:-1].reshape(len(_SHIFTS), -1)
    worst = float(np.abs(pairs).min()) / abs(ev.theta1_prime0) if M > 1 else float("inf")
    if worst < MARGIN_TOL:
        raise MarginViolationError(
            f"pole differences within {MARGIN_TOL:g} of the singular set "
            f"(min |theta1| = {worst:.3e}); boundary of the locus"
        )
    table = np.ones((len(_SHIFTS), M, M), dtype=complex)
    table[:, j, k] = pairs
    return table, vals[-1], worst


def _flow_state(cfg: PoleConfig, ev: ThetaEvaluator):
    """Both residue-system velocities and the margin, from one theta call."""
    (t0, tp1, tm1, tp2, tm2), theta1_2eta, margin = _pair_thetas(cfg, ev)
    scale = theta1_2eta / ev.theta1_prime0
    v1 = scale * np.prod(tp2 * tm1 / (tp1 * t0), axis=1)
    v2 = scale * np.prod(tm2 * tp1 / (tm1 * t0), axis=1)
    return v1, v2, margin


def c_from_poles(cfg: PoleConfig, x, ev: ThetaEvaluator):
    """rho(x+eta) rho(x-2eta) / (rho(x) rho(x-eta)); elliptic in x.

    ``x`` is a complex scalar (``complex`` out) or an ndarray (array of the
    same shape out), evaluated with one theta call.
    """
    eta = ev.eta
    xs = np.array(cfg.xs, dtype=complex)
    xa = np.asarray(x, dtype=complex)
    # axis -2: rho(x), rho(x - eta), rho(x + eta), rho(x - 2 eta); axis -1: poles
    f = theta(1, (xa[..., None] + np.array([0, -eta, eta, -2 * eta]))[..., None] - xs, ev)
    near = np.abs(f[..., :2, :]) < ev.zero_threshold
    if near.any():
        *at, _, j = np.argwhere(near)[0]
        raise PoleProximityError(
            f"x={complex(xa[tuple(at)])} within tol of the pole lattice of x_j={xs[j]}"
        )
    rho = np.prod(f, axis=-1)
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
    return _pair_thetas(cfg, ev)[2]


def pole_rhs(cfg: PoleConfig, ev: ThetaEvaluator):
    """Velocities from both residue systems, scaled by theta1(2eta)/theta1'(0).

    Returns (v_first, v_second); the flow integrates the first system, the
    second is retained as the on-locus consistency monitor (their gap is the
    locus diagnostic).  Depends only on pairwise differences.
    """
    return _flow_state(cfg, ev)[:2]


def locus_residual(cfg: PoleConfig, ev: ThetaEvaluator) -> LocusReport:
    """Consistency products minus 1, one entry per pole.

    An on-locus configuration has max norm below tolerance; the degenerate
    boundary configuration trips the margin guard instead of reporting.
    """
    (t0, tp1, tm1, tp2, tm2), _, _ = _pair_thetas(cfg, ev)
    res = np.prod(tp2 * tm1**2 / (tm2 * tp1**2), axis=1) - 1
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
    v1, v2, margin = _flow_state(cfg0, ev)
    gap0 = float(np.abs(v1 - v2).max(initial=0.0))
    if cfg0.M > 1 and gap0 > LOCUS_TOL * max(1.0, float(np.abs(v1).max())):
        raise LocusError(
            f"configuration is off-locus: residue systems differ by {gap0:.3e}",
            gap=gap0,
        )

    def rhs(xs):
        v, _ = pole_rhs(PoleConfig(xs=tuple(xs)), ev)
        return v

    n_steps = max(1, round(span)) if t_end != 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    xs = np.array(cfg0.xs, dtype=complex)
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
        cfg = PoleConfig(xs=tuple(xs), t=t)
        v1, v2, margin = _flow_state(cfg, ev)
        margins.append(margin)
        gap = float(np.abs(v1 - v2).max(initial=0.0))
        gaps.append(gap)
        traj.append(cfg)
        if cfg.M > 1 and gap > GAP_FACTOR * LOCUS_TOL * max(1.0, float(np.abs(v1).max())):
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
    report, not to hide).
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
            return PoleConfig(xs=tuple(recenter(xs)))
    return None
