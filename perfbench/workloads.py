"""Closed-loop workloads: request blocks, the calls that serve them, and the
checks applied to every result.

Requests go through the public API.  Subcommands that exist (``edges``,
``coeffs``, ``spectrum``) run in-process through ``lame_spectra.cli.main``
with stdout captured; the rest are library calls.  Every call looks its
function up on the module at call time, so the traced run can rebind it.

Each workload is a sequence of blocks.  A block holds a fixed design (the
same cells in the same proportions, shuffled by the seed), so every whole
block has the same mix of request costs.  Inputs that decide whether a known
defect of the package shows (the eta of an ``edges`` request, the eta and
seed of a curve point, the seed of a flow's locus search) are drawn from the
block's index, not from the seed; the seed draws only inputs on which no
request has been seen to fail.  A run
serves a fixed number of blocks, so every run of a workload has the same
failures, whatever its seed.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from lame_spectra import bloch, cli, curve, lame, volterra
from lame_spectra.theta import EllipticParams, ThetaEvaluator
from lame_spectra.util import format_complex, parse_complex, parse_eta

TAUS = ("1.2i", "0.3+1.4i")
RATIONAL_ETAS = ("1/31", "2/31", "1/61", "3/61")
ORACLE_TAU = "1.2i"
FLOW_ETAS = ((1, 31), (2, 31), (3, 41))
TORSION_CASES = ((2, 1, 3), (1, 1, 2), (3, 1, 4), (4, 1, 5))  # (ell, P, Q)
X0 = 0.123456 + 0j  # offset of the isospectrality check, as in criterion 11
FIXED_SEED = 20240611  # root of the inputs drawn from the block index


@dataclass
class Request:
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        shown = {k: v for k, v in self.params.items() if not k.startswith("_")}
        return self.kind + " " + " ".join(f"{k}={v}" for k, v in shown.items())


# ---------------------------------------------------------------------------
# calls into the program

def run_cli(argv):
    """(exit code, parsed JSON or None) of ``lame_spectra.cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _evaluator(eta_text: str, tau_text: str) -> ThetaEvaluator:
    return ThetaEvaluator(EllipticParams(tau=parse_complex(tau_text), eta=parse_eta(eta_text)[0]))


def call_edges(p):
    return run_cli(["edges", "--ell", str(p["ell"]), "--eta", p["eta"], "--tau", p["tau"]])


def call_coeffs(p):
    return run_cli(["coeffs", "--ell", str(p["ell"]), "--eta", p["eta"], "--tau", p["tau"]])


def call_spectrum(p):
    return run_cli(["spectrum", "--ell", str(p["ell"]), "--eta", p["eta"], "--tau", p["tau"]])


def call_curve_point(p):
    """A generic certified curve point, its Bloch coefficients and W eigenvalue."""
    ctx = lame.LameContext(ell=p["ell"], ev=_evaluator(p["eta"], p["tau"]))
    (pt,) = curve.random_curve_points(ctx, 1, np.random.default_rng(p["rng"]))
    coeffs = lame.solve_bloch_coeffs(pt, ctx)
    w = lame.w_eigenvalue(pt, coeffs, ctx)
    return max(lame.scaled_residual(pt, ctx)), w


def _flow_edges(cfg, ev, re):
    cvals = bloch.coefficient_samples(lambda x: volterra.c_from_poles(cfg, x, ev), re, X0)
    cand = bloch.numeric_band_edges_from_coefficients(np.ones(re.Q, dtype=complex), cvals)
    return np.sort(cand.confident_values().real)


def locus_search(p):
    """The seeded locus search behind a flow request: a PoleConfig, None when
    the search finds nothing, or the error it raised as a string."""
    ev = _evaluator(f"{p['P']}/{p['Q']}", p["tau"])
    try:
        return volterra.find_locus_config(p["ell"], ev, np.random.default_rng(p["rng"]))
    except Exception as exc:  # the search failed; the request reports it
        return f"locus search raised {type(exc).__name__}: {exc}"


def prepare_flow(p):
    """The locus search runs untimed, just before its request: one M = 6
    search can take ~15 restarts and 3-4 s instead of 0.3 s."""
    p["_locus"] = locus_search(p)


def call_flow(p):
    """RK4 flow from the searched configuration and the Bloch-edge drift from
    the first to the last pole set (inf when the two edge counts differ).

    Returns None when the search found no configuration.
    """
    cfg = p["_locus"]
    if isinstance(cfg, str):
        raise RuntimeError(cfg)
    if cfg is None:
        return None
    re = bloch.RationalEta(P=p["P"], Q=p["Q"])
    ev = _evaluator(f"{p['P']}/{p['Q']}", p["tau"])
    res = volterra.integrate_flow(cfg, t_end=0.2, dt=0.01, ev=ev)
    e0 = _flow_edges(res.trajectory[0], ev, re)
    e1 = _flow_edges(res.trajectory[-1], ev, re)
    return float(np.abs(e0 - e1).max()) if len(e0) == len(e1) else math.inf


CALLS = {
    "edges": call_edges,
    "coeffs": call_coeffs,
    "spectrum": call_spectrum,
    "torsion": call_spectrum,
    "curve": call_curve_point,
    "flow": call_flow,
}


# ---------------------------------------------------------------------------
# checks at the acceptance tolerances; each returns None (pass) or a reason

def check_edges(p, out):
    code, doc = out
    if code != 0 or doc is None:
        return f"exit {code}"
    if not doc["counts_ok"]:
        return f"counts {doc['counts']} != expected {doc['expected_counts']} with exit 0"
    if p["ell"] <= 2:
        devs = doc["closed_form_deviation"].values()
        if any(d is None or not d < 1e-9 for d in devs):
            return f"closed-form deviation {list(devs)} (tol 1e-9)"
    return None


def check_coeffs(p, out):
    code, doc = out
    if code != 0 or doc is None:
        return f"exit {code}"
    C = np.array([parse_complex(c) for c in doc["C"]])
    sym = float(np.abs(C - C[::-1]).max() / np.abs(C).max())
    if C[0] != 1:
        return f"C_0 = {C[0]} != 1"
    if not sym < 1e-10:
        return f"relative symmetry error {sym:.2e} (tol 1e-10)"
    return None


def check_spectrum(p, out):
    code, doc = out
    if code != 0 or doc is None:
        return f"exit {code}"
    ell = p["ell"]
    num = [parse_complex(v) for v, c in zip(doc["numeric_edges"], doc["confident"]) if c]
    ana = [parse_complex(v) for v in doc["analytic_edges"]]
    if len(num) != 2 * (2 * ell + 1):
        return f"{len(num)} confident edges, expected {2 * (2 * ell + 1)}"
    if len(doc["bands"]) != 2 * ell + 1:
        return f"{len(doc['bands'])} bands, expected {2 * ell + 1}"
    scale = max(abs(e) for e in ana)
    h1 = max(min(abs(v - e) for e in ana) for v in num)
    h2 = max(min(abs(v - e) for v in num) for e in ana)
    if not max(h1, h2) / scale < 1e-5:
        return f"Hausdorff/scale {max(h1, h2) / scale:.2e} (tol 1e-5)"
    return None


def check_torsion(p, out):
    code, _ = out
    return None if code == 2 else f"exit {code}, expected 2"


def check_curve_point(p, out):
    resid, w = out
    if not resid < 1e-9:
        return f"scaled residual {resid:.2e} (tol 1e-9)"
    if not np.isfinite(w):
        return f"w = {w}"
    return None


def check_flow(p, out):
    if out is None:
        return "no locus configuration found"
    if not out <= 1e-6:
        return f"Bloch edge drift {out:.2e} (tol 1e-6)"
    return None


CHECKS = {
    "edges": check_edges,
    "coeffs": check_coeffs,
    "spectrum": check_spectrum,
    "torsion": check_torsion,
    "curve": check_curve_point,
    "flow": check_flow,
}


def serve(call, check, params, clock):
    """Run one request; returns (latency in s, failure reason or None).

    An exception out of the program counts as a failure, as does a result
    that fails its check.
    """
    t0 = clock()
    try:
        out = call(params)
    except Exception as exc:  # the request failed; record it and go on
        return clock() - t0, f"raised {type(exc).__name__}: {exc}"
    latency = clock() - t0
    return latency, check(params, out)


PREPARE = {"flow": prepare_flow}


def prepare(req: Request):
    """Untimed work a request needs before it is sent."""
    if req.kind in PREPARE:
        PREPARE[req.kind](req.params)


def serve_request(req: Request, clock):
    return serve(CALLS[req.kind], CHECKS[req.kind], req.params, clock)


# ---------------------------------------------------------------------------
# blocks

def _fixed_rng(index):
    """Generator of a block's inputs that must not depend on the seed."""
    return np.random.default_rng([FIXED_SEED, index])


def _generic_etas(rng):
    """One real and one complex lattice spacing away from the small-eta region
    covered by the fixed rational slice."""
    real = f"{rng.uniform(0.1, 0.3):.6f}"
    cplx = f"{rng.uniform(0.1, 0.3):.6f}{rng.uniform(-0.06, 0.06):+.6f}i"
    return (real, cplx)


def analytic_block(rng, index):
    """Closed formulas over (ell, eta, tau): edges, C_j and curve points.

    Per tau and per request type, eta runs over two generic values and the
    fixed small rationals; ell runs over the type's whole range.  The generic
    values of ``coeffs`` come from the seed.  Those of ``edges``, which
    reports wrong counts at some of them (ell 7-10), and of curve points,
    whose seeded draw now and then yields a point that fails certification,
    come from the block index, as does the curve points' seed.
    """
    fixed = _fixed_rng(index)
    reqs = []
    for tau in TAUS:
        for kind, ells in (("edges", range(1, 11)), ("coeffs", range(2, 13)), ("curve", range(1, 5))):
            for ell in ells:
                for eta in _generic_etas(rng if kind == "coeffs" else fixed) + RATIONAL_ETAS:
                    params = {"ell": ell, "eta": eta, "tau": tau}
                    if kind == "curve":
                        params["rng"] = int(fixed.integers(2**31))
                    reqs.append(Request(kind, params))
    rng.shuffle(reqs)
    return reqs


def oracle_block(rng, index):
    """Bloch spectra with ell 1-4 over Q in {31, 41, 61, 101}, plus torsion eta.

    Q <= 61 takes every P in {1, 2, 3}; Q = 101, where one request costs as
    much as a dozen at Q = 31, takes one seeded P per ell (the outcome at
    Q = 101 depends on ell only: ell 1 and 2 pass, ell 3 and 4 fail for every P).
    """
    reqs = []
    for ell in range(1, 5):
        for Q in (31, 41, 61):
            for P in (1, 2, 3):
                reqs.append(Request("spectrum", {"ell": ell, "eta": f"{P}/{Q}", "tau": ORACLE_TAU}))
        P = int(rng.integers(1, 4))
        reqs.append(Request("spectrum", {"ell": ell, "eta": f"{P}/101", "tau": ORACLE_TAU}))
    for ell, P, Q in TORSION_CASES:
        reqs.append(Request("torsion", {"ell": ell, "eta": f"{P}/{Q}", "tau": ORACLE_TAU}))
    rng.shuffle(reqs)
    return reqs


def flow_block(rng, index):
    """Volterra flow from on-locus configurations; ell = 2 (M = 3) twice per
    eta, ell = 3 (M = 6) once, so the median falls inside the M = 3 requests
    and the 75th percentile inside the M = 6 ones.

    The seeds of the locus searches come from the block index: a few of the
    flows they start change their edge count along the way.  The seed only
    orders the block.  The search itself is untimed (``prepare_flow``); the
    traced run still records it (``volterra.find_locus_s``).
    """
    fixed = _fixed_rng(index)
    reqs = []
    for ell, repeats in ((2, 2), (3, 1)):
        for P, Q in FLOW_ETAS:
            for _ in range(repeats):
                params = {"ell": ell, "P": P, "Q": Q, "tau": "1.2i", "rng": int(fixed.integers(2**31))}
                reqs.append(Request("flow", params))
    rng.shuffle(reqs)
    return reqs


@dataclass(frozen=True)
class Workload:
    block: object  # (rng, index) -> list of requests
    tail_percentile: float  # fixed, so runs of any length report the same quantile
    min_blocks: int  # enough samples for >= 10 beyond the tail percentile
    block_s: float  # wall time of one block on the reference machine
    warm: int  # requests served untimed before the measured blocks

    def blocks_for(self, seconds):
        """Blocks a run of ``seconds`` serves: a count fixed by its length
        alone, so that runs of equal length attempt the same requests."""
        return max(self.min_blocks, round(seconds / self.block_s))


WORKLOADS = {
    "analytic": Workload(analytic_block, 99.0, 4, 5.5, 8),
    "oracle": Workload(oracle_block, 75.0, 2, 18.0, 4),
    "flow": Workload(flow_block, 75.0, 5, 6.0, 2),
}


# ---------------------------------------------------------------------------
# the checker must be able to fail

def selftest_checker():
    """Perturbed results must count as failures; returns a list of problems."""
    problems = []
    p = {"ell": 1, "eta": "1/31", "tau": ORACLE_TAU}
    code, doc = call_spectrum(p)
    if doc is None:
        return [f"spectrum {p} gave no document (exit {code})"]
    edges = list(doc["numeric_edges"])
    i = doc["confident"].index(True)
    edges[i] = format_complex(parse_complex(edges[i]) + 1e-3)
    if check_spectrum(p, (code, dict(doc, numeric_edges=edges))) is None:
        problems.append("an edge shifted by 1e-3 passed the check")
    dropped = dict(doc, bands=doc["bands"][:-1])
    if check_spectrum(p, (code, dropped)) is None:
        problems.append("a dropped band passed the check")

    def boom(params):
        raise RuntimeError("injected failure")

    if serve(boom, check_torsion, {}, lambda: 0.0)[1] is None:
        problems.append("a raising request passed")
    return problems
