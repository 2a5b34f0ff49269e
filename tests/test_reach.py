"""The reach gate: every function in ``src/lame_spectra`` is run by a
production path or by one call of a paper object the README names, or it is
on ``ALLOWED`` with its reason.

The production pass serves block 0 of each benchmark workload (calls and
checks), runs the argv of every cell of the smoke table ``_smoke.CELLS``
(every subcommand, ``verify --suite all`` at ell 1, 3, 7 and 12, the CSV
forms and the error exits) and one ``--config`` file run.  The paper pass
calls each name of the README's "Fifteen exported names" paragraph once.  Both run in a fresh
interpreter under ``sys.setprofile``, with this file as its script, so that
no cache warmed by an earlier test hides a function.  The gate reads every
module-level def and every method of a module-level class; nested defs,
lambdas and comprehensions are out of scope.

    python tests/test_reach.py [SRC]

prints the JSON report of the passes over the package under SRC (default:
this checkout's ``src``).
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from _smoke import CELLS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_RECORDS = "record protocol: reached only by copy, pickle, _replace or assignment (test_records.py)"
# "module.qualname" -> why no pass reaches it; the names perfbench/tracing.py
# rebinds are allowed besides, read from tracing.BINDINGS by the probe
ALLOWED = {
    "theta._checked_make": _RECORDS,
    "theta._read_only": _RECORDS,
    "theta.ThetaEvaluator._replace": _RECORDS,
    "theta.ThetaEvaluator._make": _RECORDS,
    "theta.ThetaEvaluator.__reduce__": _RECORDS,
    "__init__.__dir__": "dir(lame_spectra), which no command calls; test_imports.py reads it",
}

# one call of each paper object, on the objects of ``_paper_inputs``
PAPER_CALLS = {
    "phi": lambda f, a: f(a.x, a.pt.zeta, a.ev),
    "apply_L": lambda f, a: f(a.exp, a.x, a.ctx),
    "apply_Ltilde": lambda f, a: f(a.exp, a.x, a.ctx),
    "gauge_factor": lambda f, a: f(a.x, a.ctx),
    "build_psi": lambda f, a: f(a.pt, a.coeffs, a.x, a.ctx),
    "build_Psi": lambda f, a: f(a.pt, a.coeffs, a.x, a.ctx),
    "apply_W": lambda f, a: f(a.exp, a.x, a.ctx),
    "curve_equations": lambda f, a: f(a.pt, a.ctx),
    "bloch_relation": lambda f, a: f(a.pt.zeta, a.pt.K, a.ctx.ell, a.ev),
    "bloch_relation_det": lambda f, a: f(a.pt.zeta, a.pt.K, a.ctx.ell, a.ev),
    "edge_curve_points": lambda f, a: f(a.ctx),
    "theta1_prime": lambda f, a: f(a.x, a.ev),
    "theta_halfshift": lambda f, a: f(a.x, "tau/2", a.ev),
    "weierstrass_p": lambda f, a: f(a.x, a.ev),
    "volterra_rhs_c": lambda f, a: f(a.poles, a.x, a.ev),
}


def readme_paper_names() -> list:
    """The names of the README's paragraph of exported paper objects that no command runs."""
    text = (ROOT / "README.md").read_text()
    found = re.search(r"^\w+ exported names are run by no command[^:]*:(.*?)\. They stay public", text, re.M | re.S)
    return re.findall(r"`(\w+)`", found.group(1))


# ---------------------------------------------------------------------------
# the probe, run as this file's script

def _paper_inputs():
    import types

    import numpy as np

    import lame_spectra as pkg

    ev = pkg.ThetaEvaluator(pkg.EllipticParams(tau=1.2j, eta=0.17))
    ctx = pkg.LameContext(ell=2, ev=ev)
    pt = pkg.random_curve_points(ctx, 1, np.random.default_rng(0))[0]
    return types.SimpleNamespace(ev=ev, ctx=ctx, pt=pt, coeffs=pkg.solve_bloch_coeffs(pt, ctx), x=0.3 + 0.1j,
                                 exp=np.exp, poles=pkg.PoleConfig([0.21 + 0.05j]))


def _passes(errors: list):
    import contextlib
    import io
    import tempfile
    import time
    import traceback

    import numpy as np

    import lame_spectra
    import workloads
    from lame_spectra import cli

    for name, workload in workloads.WORKLOADS.items():
        for req in workload.block(np.random.default_rng(401), 0):
            workloads.prepare(req)
            reason = workloads.serve_request(req, time.perf_counter)[1]
            if reason is not None:
                errors.append(f"{name} {req.label}: {reason}")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "run.cfg")
        config.write_text("# a comment\n\neta = 1/31\ntau = 1.2i\n")
        argvs = [cell.argv.split() for cell in CELLS.values()]
        for argv in [*argvs, ["spectrum", "--ell", "1", "--config", str(config)]]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except (Exception, SystemExit):
                    errors.append(f"{' '.join(argv)}: {traceback.format_exc()}")
    inputs = _paper_inputs()
    for name in readme_paper_names():
        PAPER_CALLS[name](getattr(lame_spectra, name), inputs)


def probe(src: Path) -> dict:
    """The (module, first line, name) of every function of the package under
    ``src`` that the passes run, the "module.qualname" of every function
    perfbench/tracing.py rebinds, and the passes' failures."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    seen = set()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code))
    errors = []
    try:
        _passes(errors)
    finally:
        sys.setprofile(None)
    package = str(src / "lame_spectra")
    reached = sorted({(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
                      for c in seen if os.path.dirname(c.co_filename) == package})
    from tracing import BINDINGS

    rebound = set()
    for module, names in BINDINGS.items():
        for name in names:
            fn = getattr(sys.modules[f"lame_spectra.{module}"], name)
            rebound.add(f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}")
    return {"reached": reached, "rebound": sorted(rebound), "errors": errors}


def run_probe(src: Path) -> dict:
    out = subprocess.run([sys.executable, __file__, str(src)], capture_output=True, text=True, timeout=300,
                         check=True, cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# the gate

def checked_functions(src: Path) -> dict:
    """(module, first line, name) -> "module.qualname" of every module-level
    def and every method of a module-level class in the package under
    ``src``; a def's first line is its first decorator's, as its code's."""
    out = {}
    for path in sorted((src / "lame_spectra").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [(d, f"{node.name}.") for d in node.body if isinstance(d, ast.FunctionDef)]
            else:
                defs = [(node, "")] if isinstance(node, ast.FunctionDef) else []
            for d, prefix in defs:
                first = min([d.lineno] + [dec.lineno for dec in d.decorator_list])
                out[(path.stem, first, d.name)] = f"{path.stem}.{prefix}{d.name}"
    return out


def unreached(src: Path, report: dict) -> list:
    """The functions of the package under ``src`` that the report's passes do
    not reach and that neither ``ALLOWED`` nor tracing.BINDINGS excuses."""
    reached = set(map(tuple, report["reached"]))
    excused = ALLOWED.keys() | set(report["rebound"])
    return sorted(q for key, q in checked_functions(src).items() if key not in reached and q not in excused)


@pytest.fixture(scope="module")
def report():
    return run_probe(SRC)


PLANT = "\n\ndef _planted_route():\n    return 1.0\n"


class TestReachGate:
    def test_every_function_is_reached_or_allowed(self, report):
        assert unreached(SRC, report) == []

    def test_passes_run_without_failure(self, report):
        assert report["errors"] == []

    def test_allowed_functions_exist_and_are_unreached(self, report):
        functions = checked_functions(SRC)
        reached = {functions.get(tuple(key)) for key in report["reached"]}
        assert set(ALLOWED) <= set(functions.values())
        assert not set(ALLOWED) & reached

    def test_paper_calls_are_the_readme_names(self):
        names = readme_paper_names()
        assert len(names) == 15
        assert sorted(names) == sorted(PAPER_CALLS)


class TestGateCanFail:
    """A copy of the package with one more function in ``curve``."""

    def _copy(self, tmp_path, plant):
        shutil.copytree(SRC / "lame_spectra", tmp_path / "lame_spectra",
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(tmp_path / "lame_spectra" / "curve.py", "a") as fh:
            fh.write(plant)
        return tmp_path

    def test_gate_names_an_unreached_function(self, tmp_path, report):
        # appended, so every other def keeps its line and the passes' report still applies
        assert unreached(self._copy(tmp_path, PLANT), report) == ["curve._planted_route"]

    def test_gate_passes_once_the_function_is_reached(self, tmp_path):
        src = self._copy(tmp_path, PLANT + "\n\n_planted_route()\n")
        planted = run_probe(src)
        assert [key for key in planted["reached"] if key[2] == "_planted_route"]
        assert unreached(src, planted) == []


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC)))
