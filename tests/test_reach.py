"""The reach gate: every function in ``src/lame_spectra`` is run by a
production path or by one call of a paper object the README names, or it is
on ``ALLOWED`` with its reason.

The production pass serves block 0 of each benchmark workload (calls and
checks), runs ``verify --suite all`` at ell 1, 3, 7 and 12, the commands of
``COMMANDS`` (every subcommand, the CSV forms and the error exits, each a
command of the CI smoke run) and one ``--config`` file run.  The paper pass
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
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    "errors.LocusError.__init__": "flow's off-locus refusal (exit 4), which no smoke command makes; "
                                  "test_volterra.py raises it",
    "__init__.__dir__": "dir(lame_spectra), which no command calls; test_imports.py reads it",
}

# the production commands besides the workloads, each a command of the CI smoke run
# (``ci_commands``): every subcommand, the CSV forms and every error exit
COMMANDS = [
    *(["verify", "--suite", "all", "--ell", ell] for ell in ("1", "3", "7")),
    ["verify", "--suite", "all", "--ell", "12", "--tau", "0.3+1.4i", "--eta", "0.11+0.05i"],
    ["verify", "--suite", "cauchy", "--ell", "6", "--tau", "0.3+1.4i", "--eta", "0.11+0.05i"],
    ["verify", "--suite", "cj-limit", "--ell", "3", "--tau", "0.15i"],
    ["verify", "--suite", "cj-symmetry", "--ell", "12", "--eta", "0.17"],
    ["curve-point", "--ell", "2", "--fix-zeta", "0.31+0.07i"],
    ["curve-point", "--ell", "2", "--fix-E", "1.6+0.4i"],
    # the pole stop (exit 3), a B1 beyond the double range (exit 3), a large Im tau
    ["curve-point", "--ell", "2", "--fix-E", "2", "--seed-zeta", "0.05+0.02i", "--seed-K", "0.5"],
    ["curve-point", "--ell", "8", "--eta", "1e-6", "--tau", "1.2i", "--fix-zeta", "0.31+0.07i"],
    ["curve-point", "--ell", "3", "--fix-zeta", "0.31+0.07i", "--tau", "800i"],
    # the NaN-report refusal (exit 3), ell above CJ_MAX_ELL (exit 2)
    ["coeffs", "--ell", "8", "--eta", "0.17+0.6i", "--tau", "1.2i"],
    ["coeffs", "--ell", "12", "--eta", "0.17"],
    ["coeffs", "--ell", "21"],
    # a theta1(k eta) overflow, closed forms missed, a torsion eta, the edge basis's underflow
    ["edges", "--ell", "8", "--eta", "0.1+1.1i", "--tau", "1.2i"],
    ["edges", "--ell", "2", "--eta", "0.17", "--tau", "1e-3i"],
    ["edges", "--ell", "2", "--eta", "1/3"],
    ["edges", "--ell", "3", "--eta", "0.17"],
    ["edges", "--ell", "12", "--tau", "37i"],
    ["edges", "--ell", "12", "--tau", "38i"],
    ["edges", "--ell", "7", "--eta", "0.11+0.05i", "--tau", "0.3+1.4i"],
    # bad flag values and unsummable series (exit 2)
    *(["edges", "--ell", "2", *flag.split()] for flag in (
        "--tau 1", "--tau nan", "--format xml", "--tol abc", "--tau 1e-20i", "--tau 1000i", "--tol 1e300")),
    ["spectrum", "--ell", "1", "--eta", "1/31"],
    ["spectrum", "--ell", "4", "--eta", "1/61", "--tau", "1.2i"],
    ["spectrum", "--ell", "2", "--eta", "1/60"],
    ["spectrum", "--ell", "1", "--eta", "1/31", "--format", "csv", "--kpoints", "5"],
    # the non-real guard off the tau axis (exit 3)
    ["spectrum", "--ell", "1", "--eta", "1/31", "--tau", "0.3+1.4i"],
    ["flow", "--poles", "0.21+0.05i", "--t-end", "0.3", "--dt", "0.1"],
    ["flow", "--eta", "1/31", "--tau", "1.2i", "--t-end", "0.2", "--dt", "0.001", "--poles",
     "0.16872746398623609+0.99464370409188785i,-0.33737964779659291-1.1981880545449302i,"
     "0.16865218381035685+0.20354435045304228i", "--format", "csv"],
    # the degenerate flow (exit 4)
    ["flow", "--poles", "0.17,0,-0.17", "--eta", "0.17"],
]

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


def ci_commands() -> list:
    """The argv of each ``lame-spectra`` command of the CI smoke run, with its
    for loops and plain variable assignments expanded; a loop over a
    command's output is left out."""
    step = (ROOT / ".github" / "workflows" / "tests.yml").read_text().split("- name: CLI smoke run")[1]
    found, loops, env = [], [], {}
    for line in step.split("\n      - name:")[0].splitlines():
        line = line.strip()
        if loop := re.fullmatch(r"for (\w+) in (.*); do", line):
            loops.append([] if "$(" in loop[2] else [(loop[1], item) for item in shlex.split(loop[2])])
        elif line == "done":
            loops.pop()
        elif assignment := re.fullmatch(r"(\w+)=([^\s$;]+)", line):
            env[assignment[1]] = assignment[2]
        elif not line.startswith("#") and "lame-spectra " in line:
            for values in itertools.product(*loops):
                command = line.partition("lame-spectra ")[2]
                for name, value in [*values, *env.items()]:
                    command = command.replace(f"${name}", value)
                words = shlex.split(command)
                found.append(list(itertools.takewhile(lambda w: not re.match(r"\d?>|\|", w), words)))
    return found


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
        for argv in [*COMMANDS, ["spectrum", "--ell", "1", "--config", str(config)]]:
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

    def test_commands_are_ci_smoke_commands(self):
        ci = ci_commands()
        assert [argv for argv in COMMANDS if argv not in ci] == []

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
