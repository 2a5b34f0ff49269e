"""Command-line driver with machine-readable, reproducible output.

Subcommands: edges | spectrum | verify | flow | curve-point | coeffs.
Default output is a single JSON document (schema 1) carrying the tolerance
and series cutoff used, written compact on one line with sorted keys (pipe it
into ``python -m json.tool`` to read it by eye); ``spectrum`` sweeps and
``flow`` trajectories can be dumped as CSV instead (``--format csv``
elsewhere exits 2).  ``main`` reads the settings and builds the evaluator;
each ``cmd_*`` returns its exit code and document or CSV rows, which ``main``
prints (a document under ``provenance``).

Exit codes: 0 success; 1 a verify suite failed; 2 invalid parameters or
torsion eta (ValueError, EllipticError); 3 ambiguous clustering, a wrong edge
count or closed form, a non-real spectrum, non-convergence, a failed
linear-algebra routine, a value outside the double range or a report holding
a NaN or an inf (ClusterAmbiguityError, ConvergenceError,
numpy.linalg.LinAlgError, OverflowError, FloatingPointError); 4 margin
violation or off-locus poles (MarginViolationError, LocusError).  ``main``
maps exceptions to codes 2-4 through ``EXIT_CODES`` and prints each as one
line on stderr, ``error: <ExceptionName>: <message>``; any other exception
is a bug and propagates.  A command's own parser reads its arguments; the
top-level one serves only usage, ``-h`` and unknown commands.

Each call is a cold process, so this module imports at module level only what
every subcommand needs.  The Volterra module (``flow``), ``csv`` (``--format
csv``) and ``fractions`` (a ``P/Q`` eta, in ``util.parse_eta``) are imported
where they are used.
"""

import argparse
import functools
import io
import json
import sys
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from . import curve as curve_mod
from .bloch import RationalEta, band_intervals, band_sweep, numeric_band_edges
from .errors import (
    ClusterAmbiguityError,
    ConvergenceError,
    EllipticError,
    LocusError,
    MarginViolationError,
)
from .lame import CurvePoint, LameContext, _build_M_with_magnitudes, _row_scaled_svd, scaled_residual
from .theta import EllipticParams, ThetaEvaluator, theta
from .util import format_complex, format_complex_pm, parse_complex, parse_eta

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA = 1

# looked up along type(exc).__mro__, so the most specific class wins
EXIT_CODES = {
    ValueError: 2,
    EllipticError: 2,
    ClusterAmbiguityError: 3,
    ConvergenceError: 3,
    FloatingPointError: 3,  # a report that holds a NaN or an inf
    # a ValueError subclass, but no fault of the parameters
    np.linalg.LinAlgError: 3,
    OverflowError: 3,
    MarginViolationError: 4,
    LocusError: 4,
}


@dataclass
class RunConfig:
    ell: int
    eta: complex
    eta_fraction: "Fraction | None"
    tau: complex
    tol: float
    seed: int
    fmt: str

    def evaluator(self) -> ThetaEvaluator:
        return ThetaEvaluator(EllipticParams(tau=self.tau, eta=self.eta, tol=self.tol))


# the keys a --config file may set, with their values when neither it nor a flag does
_CONFIG_DEFAULTS = {"eta": "0.17", "tau": "1.2i", "tol": "1e-12", "seed": "0", "format": "json"}
_FORMATS = ("json", "csv")
# the commands with a CSV form
_CSV_COMMANDS = ("spectrum", "flow")


def _read_config_file(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from None
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_DEFAULTS:
            raise ValueError(
                f"unknown key {key!r} in config file {path!r}; "
                f"accepted keys: {', '.join(_CONFIG_DEFAULTS)}"
            )
        out[key] = val.strip()
    return out


def _build_config(args) -> RunConfig:
    path = getattr(args, "config", None)
    from_file = _read_config_file(path) if path else {}

    def setting(key, convert):
        """The flag's value, else the config file's, else the default, converted."""
        flag = getattr(args, key)
        if flag is not None or key not in from_file:
            return convert(flag if flag is not None else _CONFIG_DEFAULTS[key])
        try:
            return convert(from_file[key])
        except ValueError as exc:
            raise ValueError(
                f"bad value {from_file[key]!r} for key {key!r} in config file {path!r}: {exc}"
            ) from None

    tol = setting("tol", float)
    seed = setting("seed", int)
    fmt = setting("format", str)
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {fmt!r}")
    if fmt == "csv" and args.command not in _CSV_COMMANDS:
        raise ValueError(f"{args.command} has no CSV form; "
                         f"--format csv is offered by {' and '.join(_CSV_COMMANDS)} only")
    ell = getattr(args, "ell", 1)
    if ell < 1:
        raise ValueError(f"--ell must be >= 1, got {ell}")
    eta, frac = setting("eta", parse_eta)
    tau = setting("tau", parse_complex)
    if tau.imag <= 0:
        raise ValueError(f"Im(tau) must be positive, got {format_complex(tau)!r}")
    return RunConfig(
        ell=ell,
        eta=eta,
        eta_fraction=frac,
        tau=tau,
        tol=tol,
        seed=seed,
        fmt=fmt,
    )


def _provenance(cfg: RunConfig, ev: ThetaEvaluator) -> dict:
    return {
        "schema": SCHEMA,
        "ell": cfg.ell,
        "eta": format_complex(cfg.eta),
        "eta_rational": f"{cfg.eta_fraction.numerator}/{cfg.eta_fraction.denominator}"
        if cfg.eta_fraction
        else None,
        "tau": format_complex(cfg.tau),
        "tol": cfg.tol,
        "series_cutoff": ev.series_cutoff,
        "seed": cfg.seed,
    }


def _non_finite_field(value, path=""):
    """The path ('.a.b[2]') of the first NaN or inf, a float or a formatted number, in a report, or None."""
    if isinstance(value, dict):
        fields = (_non_finite_field(v, f"{path}.{k}") for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        fields = (_non_finite_field(v, f"{path}[{i}]") for i, v in enumerate(value))
    else:
        try:
            return None if np.isfinite(parse_complex(value) if isinstance(value, str) else value) else path
        except (TypeError, ValueError):  # not a number
            return None
    return next(filter(None, fields), None)


def _emit(report, stream=None):
    """Write a JSON document (a dict) as one compact line with sorted keys, or CSV rows (a list),
    in one write; a NaN or an inf raises FloatingPointError naming its field (CSV: column[row])."""
    if isinstance(report, dict):
        try:
            text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:  # a float NaN or inf, which JSON cannot write: the walk names it
            text = None
    else:
        import csv

        buf = io.StringIO()
        csv.writer(buf).writerows(report)
        text = buf.getvalue()
    # repr and format_complex write a non-finite number as nan or inf; the key provenance
    # holds nan too, and only a hit elsewhere walks the report
    if text is None or text.count("nan") > text.count("provenance") or "inf" in text:
        # a CSV field is named by its column's header and its data row
        field = _non_finite_field(report if isinstance(report, dict) else dict(zip(report[0], zip(*report[1:]))))
        if field:
            raise FloatingPointError(f"{field[1:]} is not finite; the report is withheld")
    (stream or sys.stdout).write(text)


def _c(z: complex) -> str:
    return format_complex(complex(z))


# ---------------------------------------------------------------------------
# subcommands

def cmd_edges(args, cfg: RunConfig, ev: ThetaEvaluator):
    edges = curve_mod.band_edges(cfg.ell, ev)
    counts = edges.counts()
    expected = curve_mod.BandEdgeSet.expected_counts(cfg.ell)
    pm = {a: [format_complex_pm(e) for e in edges.per_label[a]] for a in (1, 2, 3, 4)}
    # the strings of with_reflection(): the union's edges, then their negatives
    strings = [p for a in pm for p, _ in pm[a]] + [m for a in pm for _, m in pm[a]]
    doc = {
        "edges_per_label": {str(a): [p for p, _ in pm[a]] for a in pm},
        "full_edge_set": [text for _, text in sorted(zip(edges.with_reflection(), strings),
                                                     key=lambda t: (t[0].real, t[0].imag))],
        "counts": {str(a): counts[a] for a in counts},
        "expected_counts": {str(a): expected[a] for a in expected},
        "counts_ok": counts == expected,
    }
    ok = doc["counts_ok"]
    if cfg.ell in (1, 2):
        closed = curve_mod.closed_form_edges(cfg.ell, ev)
        dev = {}
        for a in (1, 2, 3, 4):
            got, want = edges.per_label[a], sorted(closed[a], key=lambda z: (z.real, z.imag))
            dev[str(a)] = (max((abs(g - w) / max(abs(w), 1.0) for g, w in zip(got, want)), default=0.0)
                           if len(got) == len(want) else None)
        doc["closed_form_deviation"] = dev
        # a closed form missed by more than its 1e-9 acceptance pin fails as a wrong count does
        ok = ok and all(d is not None and d <= 1e-9 for d in dev.values())
    return (0 if ok else 3), doc


def cmd_spectrum(args, cfg: RunConfig, ev: ThetaEvaluator):
    if cfg.eta_fraction is None:
        raise ValueError("spectrum needs rational eta, pass --eta P/Q")
    if args.kpoints < 1:
        raise ValueError("--kpoints must be >= 1")
    P, Q = cfg.eta_fraction.numerator, cfg.eta_fraction.denominator
    re = RationalEta(P=P, Q=Q)
    # theta1 vanishes only at m + n*tau, so the line Im x0 = Im tau/2 keeps the
    # orbit Im tau/2 away from every zero
    x0 = 0.123456 + cfg.tau / 2
    cand = numeric_band_edges(cfg.ell, re, x0, ev)
    analytic = curve_mod.band_edges(cfg.ell, ev).with_reflection()
    num = cand.confident_values()
    max_dev = None
    if len(num) and len(analytic):
        # hypot, as Python's abs(complex); numpy's vectorised complex abs can
        # differ from it in the last bit
        d = num[:, None] - np.asarray(analytic)
        max_dev = float(np.hypot(d.real, d.imag).min(axis=1).max())
    bands = band_intervals(cand.spectra)
    doc = {
        "x0": _c(x0),
        "numeric_edges": [format_complex(v) for v in cand.values.tolist()],
        "confident": cand.confident.tolist(),
        "analytic_edges": [_c(v) for v in sorted(analytic, key=lambda z: (z.real, z.imag))],
        "max_deviation": max_dev,
        "bands": [[lo, hi] for lo, hi in bands],
        "counts_ok": len(num) == 2 * (2 * cfg.ell + 1) and len(bands) == 2 * cfg.ell + 1,
    }
    code = 0 if doc["counts_ok"] else 3
    if Q <= 2 * cfg.ell + 2:
        doc["warning"] = f"Q={Q} <= 2*ell+2={2*cfg.ell+2}: gaps may be unresolved"
    if cfg.fmt == "csv":
        ks = np.linspace(0.0, re.brillouin_width(), args.kpoints)
        sweep = band_sweep(cfg.ell, re, x0, ks, ev)
        rows = [["k"] + [f"E_{i+1}" for i in range(sweep.shape[1])]]
        for k, energies in zip(ks, sweep.real):
            rows.append([repr(float(k))] + [repr(float(v)) for v in energies])
        return code, rows
    return code, doc


# Each verify suite draws from the run's one rng and returns one relative error
# per draw (the largest where a draw checks several), each draw's bound (a
# scalar holds for all) and where the bound comes from.  It passes when every
# error is at most its bound, and fails with no draw (no curve point found).

def _theta_monodromy(cfg: RunConfig, ev: ThetaEvaluator, rng):
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
    return errors, 1e-10, "fixed"


def _cauchy(cfg: RunConfig, ev: ThetaEvaluator, rng):
    """One draw per i = 1..ell+1 of n = min(i, 10) points, LU's relative error
    being about n eps kappa(A).  Re x lies in (0.05, 0.45) and Im x in one of
    n equal bands of |Im x| < 0.45 Im tau, one point per band: the sums x_i +
    x_j keep off the lattice and the points do not cluster.  kappa(A) still
    grows about threefold per point; at n <= 10 the bounds stay below 1e-7."""
    errors, bounds = [], []
    for i in range(1, cfg.ell + 2):
        n = min(i, 10)
        im = np.linspace(-0.45, 0.45, n + 1) * ev.tau.imag
        xs = [complex(rng.uniform(0.05, 0.45), rng.uniform(lo, hi)) for lo, hi in zip(im[:-1], im[1:])]
        zeta = complex(rng.uniform(0.1, 0.7), rng.uniform(0.0, 0.2))
        lhs, rhs = curve_mod.cauchy_det(xs, zeta, ev)
        kappa = np.linalg.cond(curve_mod._cauchy_matrix(xs, zeta, ev)[0])
        errors.append(abs(lhs - rhs) / max(abs(rhs), 1e-30))
        bounds.append(10 * n * np.finfo(float).eps * kappa)
    return errors, bounds, "10 n eps kappa(A)"


def _schur(cfg: RunConfig, ev: ThetaEvaluator, rng):
    errors = []
    for _ in range(5):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
        q = np.exp(1j * rng.uniform(0.2, 1.2))
        lhs, rhs = curve_mod.weyl_denominator_check(cfg.ell, z, complex(q))
        errors.append(abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return errors, 1e-10, "fixed"


def _apoly(cfg: RunConfig, ev: ThetaEvaluator, rng):
    A = curve_mod.a_polys_recurrence(cfg.ell, ev)
    errors = []
    for _ in range(20):
        E = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        dets = [curve_mod.a_polys_determinant(cfg.ell, s, E, ev) for s in range(cfg.ell + 1)]
        recs = [curve_mod.polyval(E, A[cfg.ell - s]) for s in range(cfg.ell + 1)]
        errors.append(max(abs(d - r) / max(abs(r), 1.0) for d, r in zip(dets, recs)))
    return errors, 1e-10, "fixed"


def _curve_symmetry(cfg: RunConfig, ev: ThetaEvaluator, rng):
    """Each image of a point reads sigma_min of its row-scaled residue matrix,
    its distance to a rank-deficient matrix in units of each row's terms."""
    ctx = LameContext(ell=cfg.ell, ev=ev)
    errors = []
    for pt in curve_mod.random_curve_points(ctx, 3, rng):
        mapped = (
            CurvePoint(zeta=pt.zeta + ev.tau, K=pt.K * np.exp(2j * np.pi * ev.eta), E=pt.E),
            CurvePoint(zeta=pt.zeta, K=-pt.K, E=-pt.E),
            CurvePoint(zeta=2 * ctx.N * ev.eta - pt.zeta, K=1 / pt.K, E=pt.E),
        )
        M, mag = map(np.array, zip(*(_build_M_with_magnitudes(m, ctx) for m in mapped)))
        errors.append(_row_scaled_svd(M, mag)[:, -1].max())
    return errors, 1e-8, "fixed"


def _cj_pair_errors(C: np.ndarray) -> np.ndarray:
    """One error per j: |C_j - C_{N-j}| relative to the larger of the two (0
    where both vanish), and at j = 0 also |C_0 - 1|."""
    scale = np.maximum(np.abs(C), np.abs(C[::-1]))
    errors = np.abs(C - C[::-1]) / np.where(scale > 0, scale, 1.0)
    errors[0] = max(errors[0], abs(C[0] - 1))
    return errors


def _cj_symmetry(cfg: RunConfig, ev: ThetaEvaluator, rng):
    """The palindrome C_j = C_{N-j} and C_0 = 1, one error per j (``_cj_pair_errors``)."""
    return _cj_pair_errors(curve_mod.curve_coeffs(cfg.ell, ev).C), 1e-10, "fixed"


def _cj_limit(cfg: RunConfig, ev: ThetaEvaluator, rng):
    """C_j -> binom(N, j) as eta -> 0 at the eta^2 rate: while N^2 eta^2 is
    small, halving eta divides d = max_j |C_j / binom(N, j) - 1| by 4."""
    N = cfg.ell * (cfg.ell + 1) // 2
    binom = np.array([comb(N, j) for j in range(N + 1)], dtype=float)
    d = np.empty(3)
    for k in range(3):
        ev_k = ThetaEvaluator(EllipticParams(tau=cfg.tau, eta=0.1 / N / 2**k, tol=cfg.tol))
        d[k] = np.abs(curve_mod.curve_coeffs(cfg.ell, ev_k).C / binom - 1).max()
    return np.abs(4 * d[1:] - d[:-1]), 0.05 * d[:-1] + 64 * np.finfo(float).eps, "eta^2 rate"


# in the order --suite all runs them, which fixes each suite's draws
SUITES = {
    "theta-monodromy": _theta_monodromy,
    "cauchy": _cauchy,
    "schur": _schur,
    "apoly": _apoly,
    "curve-symmetry": _curve_symmetry,
    "cj-symmetry": _cj_symmetry,
    "cj-limit": _cj_limit,
}


def cmd_verify(args, cfg: RunConfig, ev: ThetaEvaluator):
    rng = np.random.default_rng(cfg.seed)
    results = {}
    for name in SUITES if args.suite == "all" else [args.suite]:
        errors, bounds, source = SUITES[name](cfg, ev, rng)
        errors = [float(e) for e in errors]
        bounds = [float(b) for b in np.broadcast_to(bounds, len(errors))]
        results[name] = {"rel_errors": errors, "bounds": bounds, "bound_source": source,
                         "max_rel_error": max(errors, default=None),
                         "passed": bool(errors) and all(e <= b for e, b in zip(errors, bounds))}
    passed = all(r["passed"] for r in results.values())
    return (0 if passed else 1), {"suites": results, "all_passed": passed}


def cmd_flow(args, cfg: RunConfig, ev: ThetaEvaluator):
    from . import volterra

    poles = [parse_complex(tok) for tok in args.poles.split(",")]
    cfg0 = volterra.PoleConfig(xs=tuple(poles))
    result = volterra.integrate_flow(cfg0, args.t_end, args.dt, ev)
    if cfg.fmt == "csv":
        head = ["t"]
        for j in range(cfg0.M):
            head += [f"re_x{j+1}", f"im_x{j+1}"]
        rows = [head + ["locus_gap"]]
        for snap, gap in zip(result.trajectory, result.locus_gaps):
            row = [repr(snap.t)]
            for x in snap.xs:
                row += [repr(x.real), repr(x.imag)]
            rows.append(row + [repr(float(gap))])
        return 0, rows
    return 0, {
        "trajectory": [
            {"t": snap.t, "poles": [_c(x) for x in snap.xs], "locus_gap": float(gap)}
            for snap, gap in zip(result.trajectory, result.locus_gaps)
        ],
        "max_locus_gap": float(result.locus_gaps.max()),
        "min_margin": float(result.margins.min()) if cfg0.M > 1 else None,  # one pole: no pair, no margin
    }


def cmd_curve_point(args, cfg: RunConfig, ev: ThetaEvaluator):
    if (args.fix_zeta is None) == (args.fix_E is None):
        raise ValueError("pass exactly one of --fix-zeta / --fix-E")
    ctx = LameContext(ell=cfg.ell, ev=ev)
    seed = CurvePoint(
        zeta=parse_complex(args.seed_zeta),
        K=parse_complex(args.seed_K),
        E=parse_complex(args.seed_E),
    )
    fix = (
        {"zeta": parse_complex(args.fix_zeta)}
        if args.fix_zeta is not None
        else {"E": parse_complex(args.fix_E)}
    )
    pt = curve_mod.solve_curve_point(fix, seed, ctx)
    r0, r1 = scaled_residual(pt, ctx)
    return 0, {
        "point": {"zeta": _c(pt.zeta), "K": _c(pt.K), "E": _c(pt.E)},
        "bloch_multipliers": {"B1": _c(pt.B1(ev)), "Btau": _c(pt.Btau(ev))},
        "scaled_residual": [r0, r1],
    }


def cmd_coeffs(args, cfg: RunConfig, ev: ThetaEvaluator):
    cc = curve_mod.curve_coeffs(cfg.ell, ev)
    N = cc.N
    return 0, {
        "N": N,
        "C": [format_complex(c) for c in cc.C.tolist()],
        "symmetry_error": float(_cj_pair_errors(cc.C).max()),
        "binomials": [comb(N, j) for j in range(N + 1)],
    }


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The top-level parser and, by name, each command's own parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eta", help="lattice spacing: 'a+bi' or exact 'P/Q'")
    common.add_argument("--tau", help="modular parameter 'a+bi', Im > 0")
    common.add_argument("--tol", type=float, help="evaluation tolerance")
    common.add_argument("--seed", type=int, help="seed for randomized suites")
    common.add_argument("--format", choices=_FORMATS,
                        help="output format; csv for spectrum and flow only")
    common.add_argument("--config", help="key=value config file setting eta, tau, tol, seed "
                                         "or format; flags win")
    ap = argparse.ArgumentParser(prog="lame-spectra", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", parents=[common], help="analytic band edges per half-period label")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("spectrum", parents=[common], help="numeric Bloch spectrum for rational eta")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--kpoints", type=int, default=129,
                   help="rows of the CSV dispersion table; JSON bands come from the "
                        "phase +1 and -1 spectra")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--ell", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", parents=[common], help="integrate the Volterra pole flow")
    p.add_argument("--poles", required=True, help="comma-separated complex pole list")
    p.add_argument("--t-end", dest="t_end", type=float, default=0.3)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--ell", type=int, default=1)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("curve-point", parents=[common],
                       help="Newton-solve a point on the spectral curve")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--fix-zeta", dest="fix_zeta")
    p.add_argument("--fix-E", dest="fix_E")
    p.add_argument("--seed-zeta", dest="seed_zeta", default="0.31+0.07i")
    p.add_argument("--seed-K", dest="seed_K", default="1.4+0.5i")
    p.add_argument("--seed-E", dest="seed_E", default="1.6+0.4i")
    p.set_defaults(func=cmd_curve_point)

    p = sub.add_parser("coeffs", parents=[common], help="Bloch-relation coefficients C_j")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_coeffs)

    return ap, sub.choices


def main(argv=None) -> int:
    """Run one command and write what it returns: CSV rows, header first, or a JSON document."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ap, commands = build_parser()
    if argv and argv[0] in commands:
        # the command's parser reads its own arguments, as the top-level one
        # would hand them on; what it leaves is reported by the top-level one
        args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = ap.parse_args(argv)
    try:
        cfg = _build_config(args)
        ev = cfg.evaluator()
        code, out = args.func(args, cfg, ev)
        _emit(out if cfg.fmt == "csv" else {"provenance": _provenance(cfg, ev), **out})
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    return code


if __name__ == "__main__":
    sys.exit(main())
