"""Per-layer tracing by rebinding public functions in the modules that use them.

Each wrapped call is a span of its layer (the module that defines the
function).  A layer's self time is its spans' time minus the time of the
spans nested inside them, so self times add up to the traced time spent in
the package.  Nothing in the package changes: the wrappers live here and are
installed only for the traced run.
"""

import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("theta", "enumbers", "lame", "curve", "bloch", "volterra", "cli")
THETA_CALLERS = ("curve", "enumbers", "lame", "bloch", "volterra", "cli")
THETA_FUNCS = ("theta", "theta1_prime", "theta_halfshift", "weierstrass_p")
# module -> names it binds from another layer (or calls on itself) that are wrapped
BINDINGS = {
    "curve": ("theta", "ebracket", "ebinom", "phi", "residual", "scaled_residual",
              "band_edges", "closed_form_edges", "curve_coeffs", "random_curve_points",
              "solve_curve_point"),
    "lame": ("theta", "ebracket", "ebinom", "residual", "scaled_residual", "apply_W",
             "solve_bloch_coeffs", "w_eigenvalue"),
    "enumbers": ("theta",),
    "bloch": ("theta", "periodic_matrix", "lame_coefficients", "numeric_band_edges",
              "numeric_band_edges_from_coefficients", "band_sweep", "coefficient_samples"),
    "volterra": ("theta", "theta1_prime", "find_locus_config", "integrate_flow", "pole_rhs",
                 "locus_residual", "check_margins", "c_from_poles"),
    "cli": ("scaled_residual", "numeric_band_edges", "band_sweep", "band_intervals", "main"),
}
QS = (31, 41, 61, 101)


def _module(name):
    # the package re-exports the function ``theta`` under the submodule's name
    return sys.modules[f"lame_spectra.{name}"]


def _is_scalar(x):
    return np.isscalar(x) or getattr(x, "ndim", 0) == 0


class Tracer:
    """Spans and counters for one traced run; ``install`` rebinds, ``remove`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # child time accumulated by each open span
        self.self_s = Counter()
        self.counts = Counter()
        self.incl = defaultdict(list)  # key -> inclusive durations
        self.theta_depth = 0
        self.solve_depth = 0
        self.saved = []

    # -- spans -------------------------------------------------------------
    def _span(self, layer, fn, after=None, count=None):
        stack, self_s, counts, clock = self.stack, self.self_s, self.counts, self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if count is not None:
                    counts[count] += 1
                if after is not None:
                    after(args, out, dt)

        return wrapper

    def _theta(self, fn, caller, xpos):
        """Count only the outermost theta-family call; nested ones run bare."""
        span = self._span("theta", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.theta_depth:
                return fn(*args, **kwargs)
            who = caller or sys._getframe(1).f_globals.get("__name__", "").rpartition(".")[2]
            x = args[xpos] if len(args) > xpos else kwargs.get("x")
            counts["theta.calls"] += 1
            counts[f"theta.calls.{who}"] += 1
            if _is_scalar(x):
                counts["theta.scalar_calls"] += 1
                counts["theta.points"] += 1
            else:
                counts["theta.points"] += int(np.size(x))
            self.theta_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                self.theta_depth -= 1

        return wrapper

    def _timed(self, keyfn):
        def after(args, out, dt):
            self.incl[keyfn(args)].append(dt)
        return after

    def _solve(self, fn):
        span = self._span("curve", fn)

        def wrapper(*args, **kwargs):
            self.counts["curve.solves"] += 1
            self.solve_depth += 1
            try:
                out = span(*args, **kwargs)
            finally:
                self.solve_depth -= 1
            self.counts["curve.solves_ok"] += 1
            return out

        return wrapper

    def _residual(self, args, out, dt):
        self.counts["lame.residual_calls"] += 1
        if self.solve_depth:
            self.counts["curve.solve_residuals"] += 1

    def _reshifts(self, args, out, dt):
        if out is not None:
            ell, re, x0 = args[:3]
            self.counts["bloch.x0_reshifts"] += round(abs(out[2] - x0) * 2 * re.Q)

    def _rk4(self, args, out, dt):
        if out is not None:
            steps = len(out.trajectory) - 1
            self.incl[f"volterra.rk4_step_s.M{len(args[0].xs)}"].append(dt / max(steps, 1))

    def _wrapper_for(self, name, fn, module):
        if name in THETA_FUNCS:
            return self._theta(fn, None if module == "theta" else module, 0 if name != "theta" else 1)
        if name in ("ebracket", "ebinom"):
            return self._span("enumbers", fn, count=f"enumbers.{name}_calls")
        if name in ("residual", "scaled_residual"):
            return self._span("lame", fn, self._residual)
        if name == "apply_W":
            return self._span("lame", fn, count="lame.apply_W_calls")
        if name in ("phi", "solve_bloch_coeffs", "w_eigenvalue"):
            return self._span("lame", fn)
        if name == "band_edges":
            return self._span("curve", fn, self._timed(lambda a: "curve.band_edges_s"))
        if name == "curve_coeffs":
            return self._span("curve", fn, self._timed(
                lambda a: "curve.curve_coeffs_s." + ("ell_le10" if a[0] <= 10 else "ell_gt10")))
        if name == "solve_curve_point":
            return self._solve(fn)
        if name in ("closed_form_edges", "random_curve_points"):
            return self._span("curve", fn)
        if name == "periodic_matrix":
            return self._span("bloch", fn, count="bloch.eig_solves")
        if name == "lame_coefficients":
            return self._span("bloch", fn, self._reshifts)
        if name == "band_sweep":
            return self._span("bloch", fn, self._timed(lambda a: f"bloch.band_sweep_s.Q{a[1].Q}"))
        if name == "numeric_band_edges_from_coefficients":
            return self._span("bloch", fn, self._timed(lambda a: f"bloch.edges_s.Q{len(a[0])}"))
        if name in ("numeric_band_edges", "band_intervals", "coefficient_samples"):
            return self._span("bloch", fn)
        if name == "find_locus_config":
            return self._span("volterra", fn, self._timed(lambda a: "volterra.find_locus_s"))
        if name == "integrate_flow":
            return self._span("volterra", fn, self._rk4)
        if name in ("pole_rhs", "locus_residual", "check_margins"):
            return self._span("volterra", fn, count=f"volterra.{name}_calls")
        if name == "c_from_poles":
            return self._span("volterra", fn)
        if name == "main":
            return self._span("cli", fn)
        raise KeyError(name)

    # -- install / remove --------------------------------------------------
    def install(self):
        # one wrapper per function object, shared by every module that binds it,
        # except theta, whose wrapper records the binding module as the caller
        shared = {}
        targets = [("theta", n) for n in THETA_FUNCS]
        targets += [(m, n) for m, names in BINDINGS.items() for n in names]
        for mod_name, name in targets:
            mod = _module(mod_name)
            fn = getattr(mod, name)
            if name in THETA_FUNCS:
                wrapped = self._wrapper_for(name, fn, mod_name)
            else:
                if fn not in shared:
                    shared[fn] = self._wrapper_for(name, fn, mod_name)
                wrapped = shared[fn]
            self.saved.append((mod, name, fn))
            setattr(mod, name, wrapped)

    def remove(self):
        for mod, name, fn in reversed(self.saved):
            setattr(mod, name, fn)
        self.saved.clear()

    # -- metrics -----------------------------------------------------------
    def metrics(self, n_requests):
        """Per-layer metrics, counts and self times per request."""
        c, n = self.counts, max(n_requests, 1)

        def mean(key):
            vals = self.incl.get(key)
            return float(np.mean(vals)) if vals else 0.0

        out = {
            "theta.calls": (c["theta.calls"] / n, "count/req"),
            "theta.points": (c["theta.points"] / n, "count/req"),
            "theta.scalar_frac": (c["theta.scalar_calls"] / max(c["theta.calls"], 1), "frac"),
        }
        for who in THETA_CALLERS:
            out[f"theta.calls.{who}"] = (c[f"theta.calls.{who}"] / n, "count/req")
        out["enumbers.ebracket_calls"] = (c["enumbers.ebracket_calls"] / n, "count/req")
        out["enumbers.ebinom_calls"] = (c["enumbers.ebinom_calls"] / n, "count/req")
        out["lame.residual_calls"] = (c["lame.residual_calls"] / n, "count/req")
        out["lame.apply_W_calls"] = (c["lame.apply_W_calls"] / n, "count/req")
        out["curve.band_edges_s"] = (mean("curve.band_edges_s"), "s/call")
        out["curve.curve_coeffs_s.ell_le10"] = (mean("curve.curve_coeffs_s.ell_le10"), "s/call")
        out["curve.curve_coeffs_s.ell_gt10"] = (mean("curve.curve_coeffs_s.ell_gt10"), "s/call")
        out["curve.residual_per_solve"] = (c["curve.solve_residuals"] / max(c["curve.solves"], 1), "count/solve")
        out["curve.point_yield"] = (c["curve.solves_ok"] / max(c["curve.solves"], 1), "frac")
        out["bloch.eig_solves"] = (c["bloch.eig_solves"] / n, "count/req")
        for Q in QS:
            out[f"bloch.band_sweep_s.Q{Q}"] = (mean(f"bloch.band_sweep_s.Q{Q}"), "s/call")
        for Q in QS:
            out[f"bloch.edges_s.Q{Q}"] = (mean(f"bloch.edges_s.Q{Q}"), "s/call")
        out["bloch.x0_reshifts"] = (c["bloch.x0_reshifts"] / n, "count/req")
        out["volterra.find_locus_s"] = (mean("volterra.find_locus_s"), "s/call")
        out["volterra.locus_residual_calls"] = (c["volterra.locus_residual_calls"] / n, "count/req")
        out["volterra.pole_rhs_calls"] = (c["volterra.pole_rhs_calls"] / n, "count/req")
        out["volterra.check_margins_calls"] = (c["volterra.check_margins_calls"] / n, "count/req")
        out["volterra.rk4_step_s.M3"] = (mean("volterra.rk4_step_s.M3"), "s/step")
        out["volterra.rk4_step_s.M6"] = (mean("volterra.rk4_step_s.M6"), "s/step")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / n, "s/req")
        return out
