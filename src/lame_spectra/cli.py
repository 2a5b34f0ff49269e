"""Command-line driver with machine-readable, reproducible output.

Subcommands: edges | spectrum | verify | flow | curve-point | coeffs.
Default output is a single JSON document (schema 1) carrying the tolerance
and series cutoff used; sweeps and trajectories can be dumped as CSV.

Exit codes: 0 success; 1 a verify suite failed; 2 invalid parameters or
torsion eta (ValueError, EllipticError); 3 ambiguous clustering, a wrong edge
count, a non-real spectrum or non-convergence (ClusterAmbiguityError,
ConvergenceError); 4 margin violation or off-locus poles
(MarginViolationError, LocusError).  ``main`` maps exceptions to codes 2-4
through ``EXIT_CODES`` and prints each as one line on stderr,
``error: <ExceptionName>: <message>``; any other exception is a bug and
propagates.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import curve as curve_mod
from . import volterra as volterra_mod
from .bloch import RationalEta, band_intervals, band_sweep, numeric_band_edges
from .errors import (
    ClusterAmbiguityError,
    ConvergenceError,
    EllipticError,
    LocusError,
    MarginViolationError,
)
from .lame import CurvePoint, LameContext, scaled_residual
from .theta import EllipticParams, ThetaEvaluator
from .util import format_complex, parse_complex, parse_eta

SCHEMA = 1

# looked up along type(exc).__mro__, so the most specific class wins
EXIT_CODES = {
    ValueError: 2,
    EllipticError: 2,
    ClusterAmbiguityError: 3,
    ConvergenceError: 3,
    MarginViolationError: 4,
    LocusError: 4,
}


@dataclass
class RunConfig:
    ell: int
    eta: complex
    eta_fraction: Fraction | None
    tau: complex
    tol: float
    seed: int
    fmt: str

    def evaluator(self) -> ThetaEvaluator:
        return ThetaEvaluator(EllipticParams(tau=self.tau, eta=self.eta, tol=self.tol))


def _read_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_config(args) -> RunConfig:
    defaults = {"eta": "0.17", "tau": "1.2i", "tol": "1e-12", "seed": "0", "format": "json"}
    if getattr(args, "config", None):
        defaults.update(_read_config_file(args.config))
    eta_text = args.eta if args.eta is not None else defaults["eta"]
    tau_text = args.tau if args.tau is not None else defaults["tau"]
    tol = args.tol if args.tol is not None else float(defaults["tol"])
    seed = args.seed if args.seed is not None else int(defaults["seed"])
    fmt = args.format if args.format is not None else defaults["format"]
    eta, frac = parse_eta(eta_text)
    tau = parse_complex(tau_text)
    if tau.imag <= 0:
        raise ValueError(f"Im(tau) must be positive, got {tau_text!r}")
    return RunConfig(
        ell=getattr(args, "ell", 1),
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


def _emit(doc, stream=None):
    stream = stream or sys.stdout
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _c(z: complex) -> str:
    return format_complex(complex(z))


# ---------------------------------------------------------------------------
# subcommands

def cmd_edges(args) -> int:
    cfg = _build_config(args)
    if cfg.ell < 1:
        raise ValueError(f"--ell must be >= 1, got {cfg.ell}")
    ev = cfg.evaluator()
    edges = curve_mod.band_edges(cfg.ell, ev)
    counts = edges.counts()
    expected = curve_mod.BandEdgeSet.expected_counts(cfg.ell)
    doc = {
        "provenance": _provenance(cfg, ev),
        "edges_per_label": {str(a): [_c(e) for e in edges.per_label[a]] for a in (1, 2, 3, 4)},
        "multiplicities": {str(a): edges.multiplicities[a] for a in (1, 2, 3, 4)},
        "full_edge_set": [_c(e) for e in sorted(edges.with_reflection(), key=lambda z: (z.real, z.imag))],
        "counts": {str(a): counts[a] for a in counts},
        "expected_counts": {str(a): expected[a] for a in expected},
        "counts_ok": counts == expected,
    }
    if cfg.ell in (1, 2):
        closed = curve_mod.closed_form_edges(cfg.ell, ev)
        dev = {}
        for a in (1, 2, 3, 4):
            got = sorted(edges.per_label[a], key=lambda z: (z.real, z.imag))
            want = sorted(closed[a], key=lambda z: (z.real, z.imag))
            if len(got) == len(want):
                err = max(
                    (abs(g - w) / max(abs(w), 1.0) for g, w in zip(got, want)),
                    default=0.0,
                )
                dev[str(a)] = err
            else:
                dev[str(a)] = None
        doc["closed_form_deviation"] = dev
    degenerate = any(m > 1 for a in (1, 2, 3, 4) for m in edges.multiplicities[a])
    if degenerate:
        doc["warning"] = "root clusters with multiplicity > 1; edge values may be degenerate"
    _emit(doc)
    return 3 if degenerate or not doc["counts_ok"] else 0


def cmd_spectrum(args) -> int:
    cfg = _build_config(args)
    if cfg.eta_fraction is None:
        raise ValueError("spectrum needs rational eta, pass --eta P/Q")
    P, Q = cfg.eta_fraction.numerator, cfg.eta_fraction.denominator
    re = RationalEta(P=P, Q=Q)
    ev = cfg.evaluator()
    x0 = complex(args.x0) if args.x0 else 0.123456 + 0j
    cand = numeric_band_edges(cfg.ell, re, x0, ev)
    ks = np.linspace(0.0, re.brillouin_width(), args.kpoints)
    sweep = band_sweep(cfg.ell, re, x0, ks, ev)
    analytic = curve_mod.band_edges(cfg.ell, ev).with_reflection()
    num = cand.confident_values()
    max_dev = None
    if len(num) and len(analytic):
        max_dev = max(min(abs(n - a) for a in analytic) for n in num)
    doc = {
        "provenance": _provenance(cfg, ev),
        "numeric_edges": [_c(v) for v in cand.values],
        "confident": [bool(b) for b in cand.confident],
        "analytic_edges": [_c(v) for v in sorted(analytic, key=lambda z: (z.real, z.imag))],
        "max_deviation": max_dev,
        "bands": [[lo, hi] for lo, hi in band_intervals(sweep)],
    }
    if Q <= 2 * cfg.ell + 2:
        doc["warning"] = f"Q={Q} <= 2*ell+2={2*cfg.ell+2}: gaps may be unresolved"
    if cfg.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["k"] + [f"E_{i+1}" for i in range(sweep.shape[1])])
        for k, row in zip(ks, sweep):
            writer.writerow([repr(float(k))] + [repr(float(v)) for v in row.real])
        return 0
    _emit(doc)
    return 0


def _verify_suites(cfg: RunConfig, ev: ThetaEvaluator, names):
    from .theta import theta

    rng = np.random.default_rng(cfg.seed)
    results = {}

    def record(name, err, tol):
        results[name] = {"max_rel_error": float(err), "tol": tol, "passed": bool(err < tol)}

    if "theta-monodromy" in names:
        err = 0.0
        for a in (1, 2, 3, 4):
            for _ in range(20):
                x = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
                s1 = -1 if a in (1, 2) else 1
                st = -1 if a in (1, 4) else 1
                v = theta(a, x, ev)
                e1 = abs(theta(a, x + 1, ev) - s1 * v) / max(abs(v), 1.0)
                ratio = st * np.exp(-1j * np.pi * ev.tau - 2j * np.pi * x)
                e2 = abs(theta(a, x + ev.tau, ev) - ratio * v) / max(abs(ratio * v), 1.0)
                err = max(err, e1, e2)
        record("theta-monodromy", err, 1e-10)
    if "cauchy" in names:
        err = 0.0
        for n in range(1, cfg.ell + 2):
            xs = [complex(rng.uniform(0.05, 0.4), rng.uniform(-0.1, 0.1)) for _ in range(n)]
            zeta = complex(rng.uniform(0.1, 0.7), rng.uniform(0.0, 0.2))
            lhs, rhs = curve_mod.cauchy_det(xs, zeta, ev)
            err = max(err, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        record("cauchy", err, 1e-9)
    if "schur" in names:
        err = 0.0
        for _ in range(5):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
            q = np.exp(1j * rng.uniform(0.2, 1.2))
            lhs, rhs = curve_mod.weyl_denominator_check(cfg.ell, z, complex(q))
            err = max(err, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        record("schur", err, 1e-10)
    if "apoly" in names:
        err = 0.0
        A = curve_mod.a_polys_recurrence(cfg.ell, ev)
        for _ in range(20):
            E = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            for s in range(cfg.ell + 1):
                det = curve_mod.a_polys_determinant(cfg.ell, s, E, ev)
                rec = polyval(E, A[cfg.ell - s])
                err = max(err, abs(det - rec) / max(abs(rec), 1.0))
        record("apoly", err, 1e-10)
    if "curve-symmetry" in names:
        ctx = LameContext(ell=cfg.ell, ev=ev)
        pts = curve_mod.random_curve_points(ctx, 3, rng)
        err = 0.0
        for pt in pts:
            for mapped in (
                CurvePoint(zeta=pt.zeta + ev.tau, K=pt.K * np.exp(2j * np.pi * ev.eta), E=pt.E),
                CurvePoint(zeta=pt.zeta, K=-pt.K, E=-pt.E),
                CurvePoint(zeta=2 * ctx.N * ev.eta - pt.zeta, K=1 / pt.K, E=pt.E),
            ):
                err = max(err, max(scaled_residual(mapped, ctx)))
        record("curve-symmetry", err, 1e-8)
    if "cj-symmetry" in names:
        cc = curve_mod.curve_coeffs(cfg.ell, ev)
        scale = np.abs(cc.C).max()
        err = float(np.abs(cc.C - cc.C[::-1]).max() / scale)
        err = max(err, abs(cc.C[0] - 1))
        record("cj-symmetry", err, 1e-10)
    if "cj-limit" in names:
        from math import comb

        N = cfg.ell * (cfg.ell + 1) // 2
        devs = []
        for eta_small in (1e-2, 5e-3, 2.5e-3):
            ev_s = ThetaEvaluator(EllipticParams(tau=cfg.tau, eta=eta_small, tol=cfg.tol))
            cc = curve_mod.curve_coeffs(cfg.ell, ev_s)
            devs.append(max(abs(cc.C[j] - comb(N, j)) for j in range(N + 1)))
        decreasing = devs[0] > devs[1] > devs[2]
        results["cj-limit"] = {
            "deviations": [float(d) for d in devs],
            "monotone_decreasing": bool(decreasing),
            "passed": bool(decreasing),
        }
    return results


ALL_SUITES = [
    "theta-monodromy",
    "cauchy",
    "schur",
    "apoly",
    "curve-symmetry",
    "cj-symmetry",
    "cj-limit",
]


def cmd_verify(args) -> int:
    cfg = _build_config(args)
    names = ALL_SUITES if args.suite == "all" else [args.suite]
    ev = cfg.evaluator()
    results = _verify_suites(cfg, ev, names)
    doc = {"provenance": _provenance(cfg, ev), "suites": results}
    doc["all_passed"] = all(r["passed"] for r in results.values())
    _emit(doc)
    return 0 if doc["all_passed"] else 1


def cmd_flow(args) -> int:
    cfg = _build_config(args)
    ev = cfg.evaluator()
    poles = [parse_complex(tok) for tok in args.poles.split(",")]
    cfg0 = volterra_mod.PoleConfig(xs=tuple(poles))
    result = volterra_mod.integrate_flow(cfg0, args.t_end, args.dt, ev)
    if cfg.fmt == "csv":
        writer = csv.writer(sys.stdout)
        head = ["t"]
        for j in range(cfg0.M):
            head += [f"re_x{j+1}", f"im_x{j+1}"]
        head.append("locus_gap")
        writer.writerow(head)
        for snap, gap in zip(result.trajectory, result.locus_gaps):
            row = [repr(snap.t)]
            for x in snap.xs:
                row += [repr(x.real), repr(x.imag)]
            row.append(repr(float(gap)))
            writer.writerow(row)
        return 0
    doc = {
        "provenance": _provenance(cfg, ev),
        "trajectory": [
            {"t": snap.t, "poles": [_c(x) for x in snap.xs], "locus_gap": float(gap)}
            for snap, gap in zip(result.trajectory, result.locus_gaps)
        ],
        "max_locus_gap": float(result.locus_gaps.max()),
        "min_margin": float(result.margins.min()),
    }
    _emit(doc)
    return 0


def cmd_curve_point(args) -> int:
    cfg = _build_config(args)
    if (args.fix_zeta is None) == (args.fix_E is None):
        raise ValueError("pass exactly one of --fix-zeta / --fix-E")
    ev = cfg.evaluator()
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
    doc = {
        "provenance": _provenance(cfg, ev),
        "point": {"zeta": _c(pt.zeta), "K": _c(pt.K), "E": _c(pt.E)},
        "bloch_multipliers": {"B1": _c(pt.B1(ev)), "Btau": _c(pt.Btau(ev))},
        "scaled_residual": [r0, r1],
    }
    _emit(doc)
    return 0


def cmd_coeffs(args) -> int:
    cfg = _build_config(args)
    ev = cfg.evaluator()
    from math import comb

    cc = curve_mod.curve_coeffs(cfg.ell, ev)
    N = cc.N
    doc = {
        "provenance": _provenance(cfg, ev),
        "N": N,
        "C": [_c(c) for c in cc.C],
        "symmetry_error": float(np.abs(cc.C - cc.C[::-1]).max()),
        "binomials": [comb(N, j) for j in range(N + 1)],
    }
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--eta", help="lattice spacing: 'a+bi' or exact 'P/Q'")
    p.add_argument("--tau", help="modular parameter 'a+bi', Im > 0")
    p.add_argument("--tol", type=float, help="evaluation tolerance")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument("--format", choices=["json", "csv"], help="output format")
    p.add_argument("--config", help="key=value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lame-spectra", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", help="analytic band edges per half-period label")
    p.add_argument("--ell", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("spectrum", help="numeric Bloch spectrum for rational eta")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--kpoints", type=int, default=129)
    p.add_argument("--x0", help="sampling offset (complex)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", choices=ALL_SUITES + ["all"], default="all")
    p.add_argument("--ell", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", help="integrate the Volterra pole flow")
    p.add_argument("--poles", required=True, help="comma-separated complex pole list")
    p.add_argument("--t-end", dest="t_end", type=float, default=0.3)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--ell", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("curve-point", help="Newton-solve a point on the spectral curve")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--fix-zeta", dest="fix_zeta")
    p.add_argument("--fix-E", dest="fix_E")
    p.add_argument("--seed-zeta", dest="seed_zeta", default="0.31+0.07i")
    p.add_argument("--seed-K", dest="seed_K", default="1.4+0.5i")
    p.add_argument("--seed-E", dest="seed_E", default="1.6+0.4i")
    _add_common(p)
    p.set_defaults(func=cmd_curve_point)

    p = sub.add_parser("coeffs", help="Bloch-relation coefficients C_j")
    p.add_argument("--ell", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_coeffs)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
