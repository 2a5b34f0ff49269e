"""Command-line driver with machine-readable, reproducible output.

Subcommands: edges | spectrum | verify | flow | curve-point | coeffs.
Default output is a single JSON document (schema 1) carrying the tolerance
and series cutoff used, written compact on one line with sorted keys (pipe it
into ``python -m json.tool`` to read it by eye); ``spectrum`` sweeps and
``flow`` trajectories can be dumped as CSV instead (``--format csv``
elsewhere exits 2).  ``main`` reads the settings, a flag's and a config
file's through one conversion and one check, into the evaluator ``ev``, the
one record of eta, tau and tol.  Each ``cmd_*(args, ev)`` returns its exit
code and document or CSV rows, which ``main`` prints (a document under
``provenance``); ``verify`` runs the suites of the table ``verify.SUITES``.

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
from math import comb, isqrt

import numpy as np

from . import curve as curve_mod
from . import verify
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
from .util import format_complex, format_complex_pm, parse_complex, parse_eta

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


def _build_config(args) -> ThetaEvaluator:
    """Resolve the run's settings and return its evaluator, the one record of eta, tau and tol.

    Each of eta, tau, tol, seed and format comes from its flag, else the config
    file, else ``_CONFIG_DEFAULTS``, through one converter; ``EllipticParams``
    checks eta, tau and tol.  ``args`` is given the resolved ``ell`` (for flow,
    from the pole count), ``seed``, ``format`` and ``eta_fraction``, the exact
    P/Q of a rational eta or None."""
    from_file = _read_config_file(args.config) if args.config else {}

    def setting(key, convert):
        """The flag's value, else the config file's, else the default, converted."""
        flag = getattr(args, key)
        if flag is not None or key not in from_file:
            return convert(flag if flag is not None else _CONFIG_DEFAULTS[key])
        try:
            return convert(from_file[key])
        except ValueError as exc:
            raise ValueError(
                f"bad value {from_file[key]!r} for key {key!r} in config file {args.config!r}: {exc}"
            ) from None

    tol = setting("tol", float)
    args.seed = setting("seed", int)
    args.format = setting("format", str)
    if args.format not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {args.format!r}")
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        raise ValueError(f"{args.command} has no CSV form; "
                         f"--format csv is offered by {' and '.join(_CSV_COMMANDS)} only")
    if args.command == "flow":
        # no --ell: the l with l(l+1)/2 = M, the pole count, or None where M has none
        M = args.poles.count(",") + 1
        ell = isqrt(2 * M)
        args.ell = ell if ell * (ell + 1) // 2 == M else None
    elif args.ell < 1:
        raise ValueError(f"--ell must be >= 1, got {args.ell}")
    eta, args.eta_fraction = setting("eta", parse_eta)
    return ThetaEvaluator(EllipticParams(tau=setting("tau", parse_complex), eta=eta, tol=tol))


def _provenance(args, ev: ThetaEvaluator) -> dict:
    frac = args.eta_fraction
    return {
        "schema": SCHEMA,
        "ell": args.ell,
        "eta": format_complex(ev.eta),
        "eta_rational": f"{frac.numerator}/{frac.denominator}" if frac else None,
        "tau": format_complex(ev.tau),
        "tol": ev.tol,
        "series_cutoff": ev.series_cutoff,
        "seed": args.seed,
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

def cmd_edges(args, ev: ThetaEvaluator):
    edges = curve_mod.band_edges(args.ell, ev)
    counts = edges.counts()
    expected = curve_mod.BandEdgeSet.expected_counts(args.ell)
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
    if args.ell in (1, 2):
        closed = curve_mod.closed_form_edges(args.ell, ev)
        dev = {}
        for a in (1, 2, 3, 4):
            got, want = edges.per_label[a], sorted(closed[a], key=lambda z: (z.real, z.imag))
            dev[str(a)] = (max((abs(g - w) / max(abs(w), 1.0) for g, w in zip(got, want)), default=0.0)
                           if len(got) == len(want) else None)
        doc["closed_form_deviation"] = dev
        # a closed form missed by more than its 1e-9 acceptance pin fails as a wrong count does
        ok = ok and all(d is not None and d <= 1e-9 for d in dev.values())
    return (0 if ok else 3), doc


def cmd_spectrum(args, ev: ThetaEvaluator):
    if args.eta_fraction is None:
        raise ValueError("spectrum needs rational eta, pass --eta P/Q")
    if args.kpoints < 1:
        raise ValueError("--kpoints must be >= 1")
    P, Q = args.eta_fraction.numerator, args.eta_fraction.denominator
    re = RationalEta(P=P, Q=Q)
    # theta1 vanishes only at m + n*tau, so the line Im x0 = Im tau/2 keeps the
    # orbit Im tau/2 away from every zero
    x0 = 0.123456 + ev.tau / 2
    cand = numeric_band_edges(args.ell, re, x0, ev)
    analytic = curve_mod.band_edges(args.ell, ev).with_reflection()
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
        "counts_ok": len(num) == 2 * (2 * args.ell + 1) and len(bands) == 2 * args.ell + 1,
    }
    code = 0 if doc["counts_ok"] else 3
    if Q <= 2 * args.ell + 2:
        doc["warning"] = f"Q={Q} <= 2*ell+2={2*args.ell+2}: gaps may be unresolved"
    if args.format == "csv":
        ks = np.linspace(0.0, re.brillouin_width(), args.kpoints)
        sweep = band_sweep(args.ell, re, x0, ks, ev)
        rows = [["k"] + [f"E_{i+1}" for i in range(sweep.shape[1])]]
        for k, energies in zip(ks, sweep.real):
            rows.append([repr(float(k))] + [repr(float(v)) for v in energies])
        return code, rows
    return code, doc


def cmd_verify(args, ev: ThetaEvaluator):
    results = {}
    for name in verify.SUITES if args.suite == "all" else [args.suite]:
        draw, source = verify.SUITES[name]
        errors, bounds = draw(args.ell, ev, np.random.default_rng([args.seed, *name.encode()]))
        errors = [float(e) for e in errors]
        bounds = [float(b) for b in np.broadcast_to(bounds, len(errors))]
        results[name] = {"rel_errors": errors, "bounds": bounds, "bound_source": source,
                         "max_rel_error": max(errors, default=None),
                         "passed": bool(errors) and all(e <= b for e, b in zip(errors, bounds))}
    passed = all(r["passed"] for r in results.values())
    return (0 if passed else 1), {"suites": results, "all_passed": passed}


def cmd_flow(args, ev: ThetaEvaluator):
    from . import volterra

    cfg = volterra.PoleConfig(xs=tuple(parse_complex(tok) for tok in args.poles.split(",")))
    result = volterra.integrate_flow(cfg, args.t_end, args.dt, ev)
    if args.format == "csv":
        head = ["t"]
        for j in range(cfg.M):
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
        "min_margin": float(result.margins.min()) if cfg.M > 1 else None,  # one pole: no pair, no margin
    }


def cmd_curve_point(args, ev: ThetaEvaluator):
    if (args.fix_zeta is None) == (args.fix_E is None):
        raise ValueError("pass exactly one of --fix-zeta / --fix-E")
    ctx = LameContext(ell=args.ell, ev=ev)
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


def cmd_coeffs(args, ev: ThetaEvaluator):
    cc = curve_mod.curve_coeffs(args.ell, ev)
    N = cc.N
    return 0, {
        "N": N,
        "C": [format_complex(c) for c in cc.C.tolist()],
        "symmetry_error": float(verify._cj_pair_errors(cc.C).max()),
        "binomials": [comb(N, j) for j in range(N + 1)],
    }


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The top-level parser and, by name, each command's own parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eta", help="lattice spacing: 'a+bi' or exact 'P/Q'")
    common.add_argument("--tau", help="modular parameter 'a+bi', Im > 0")
    common.add_argument("--tol", help="evaluation tolerance")
    common.add_argument("--seed", help="seed for randomized suites")
    common.add_argument("--format", help="output format, json or csv; csv for spectrum and flow only")
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
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    p.add_argument("--ell", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", parents=[common], help="integrate the Volterra pole flow")
    p.add_argument("--poles", required=True, help="comma-separated complex pole list")
    p.add_argument("--t-end", dest="t_end", type=float, default=0.3)
    p.add_argument("--dt", type=float, default=0.01)
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
        ev = _build_config(args)
        code, out = args.func(args, ev)
        _emit(out if args.format == "csv" else {"provenance": _provenance(args, ev), **out})
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    return code


if __name__ == "__main__":
    sys.exit(main())
