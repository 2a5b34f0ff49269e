"""The reach gate: every function in ``src/lame_spectra`` is run by a
production path or by one call of a paper object the README names, or it is
on ``ALLOWED`` with its reason.  And the README's "Module caches" table:
every module cache of the package with its bound and the traffic that the
production pass measures.

The production pass serves block 0 of each benchmark workload (calls and
checks), each on empty module caches, and records every cache's hits and
misses after it; then it runs the argv of every cell of the smoke table
``_smoke.CELLS`` (every subcommand, ``verify --suite all`` at ell 1, 3, 7
and 12, the CSV forms and the error exits) and one ``--config`` file run.
The paper pass calls each name of the README's "Fifteen exported names"
paragraph once.  Both run in a fresh interpreter under ``sys.setprofile``,
with this file as its script, so that no cache warmed by an earlier test
hides a function; the report records which pass reached each function, and
the paragraph must name exactly the exported functions that only the paper
pass reaches.  The gate reads every module-level def and every method of a
module-level class; nested defs, lambdas and comprehensions are out of
scope.

    python tests/test_reach.py [SRC]

prints the JSON report of the passes over the package under SRC (default:
this checkout's ``src``), the cache traffic included.
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

# "module.qualname" -> why no pass reaches it; the names perfbench/tracing.py
# rebinds are allowed besides, read from tracing.BINDINGS by the probe
ALLOWED = {
    "theta._checked_make": "record protocol: reached only by _replace, which no command calls (test_records.py)",
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


def _production_pass(errors: list, caches: dict):
    import contextlib
    import io
    import tempfile
    import time
    import traceback

    import numpy as np

    import workloads
    from _support import empty_caches, package_caches
    from lame_spectra import cli

    for name, workload in workloads.WORKLOADS.items():
        empty_caches()
        for req in workload.block(np.random.default_rng(401), 0):
            workloads.prepare(req)
            reason = workloads.serve_request(req, time.perf_counter)[1]
            if reason is not None:
                errors.append(f"{name} {req.label}: {reason}")
        caches[name] = {q: list(cache.cache_info()[:2]) for q, cache in package_caches().items()}
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


def _paper_pass():
    import lame_spectra

    inputs = _paper_inputs()
    for name in readme_paper_names():
        PAPER_CALLS[name](getattr(lame_spectra, name), inputs)


def _key(code) -> tuple:
    """(module, first line, name) of a function's code."""
    return Path(code.co_filename).stem, code.co_firstlineno, code.co_name


def probe(src: Path) -> dict:
    """For each pass, production and paper, the (module, first line, name)
    of every function of the package under ``src`` that it runs; the same
    key of every exported function by its name; the "module.qualname" of
    every function perfbench/tracing.py rebinds; the passes' failures; and
    the [hits, misses] of every module cache after each workload's block 0."""
    import inspect

    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    errors, caches, seen = [], {}, {}
    for name, run in (("production", lambda: _production_pass(errors, caches)), ("paper", _paper_pass)):
        codes = seen[name] = set()
        sys.setprofile(lambda frame, event, arg, add=codes.add: add(frame.f_code))
        try:
            run()
        finally:
            sys.setprofile(None)
    package = str(src / "lame_spectra")
    reached = {name: sorted({_key(c) for c in codes if os.path.dirname(c.co_filename) == package})
               for name, codes in seen.items()}
    import lame_spectra

    exported = {name: _key(fn.__code__) for name in lame_spectra.__all__
                if inspect.isfunction(fn := getattr(lame_spectra, name))}
    from tracing import BINDINGS

    rebound = set()
    for module, names in BINDINGS.items():
        for name in names:
            fn = getattr(sys.modules[f"lame_spectra.{module}"], name)
            rebound.add(f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}")
    return {"reached": reached, "exported": exported, "rebound": sorted(rebound), "errors": errors,
            "caches": caches}


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


def reached_by(report: dict, *passes: str) -> set:
    """The (module, first line, name) keys that any of ``passes`` reached
    (all of them when none is named)."""
    return {tuple(key) for name in passes or report["reached"] for key in report["reached"][name]}


def paper_only_names(report: dict) -> list:
    """The exported functions that the paper pass reaches and the production
    pass does not."""
    only = reached_by(report, "paper") - reached_by(report, "production")
    return sorted(name for name, key in report["exported"].items() if tuple(key) in only)


def unreached(src: Path, report: dict) -> list:
    """The functions of the package under ``src`` that the report's passes do
    not reach and that neither ``ALLOWED`` nor tracing.BINDINGS excuses."""
    reached = reached_by(report)
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
        reached = {functions.get(key) for key in reached_by(report)}
        assert set(ALLOWED) <= set(functions.values())
        assert not set(ALLOWED) & reached

    def test_paper_calls_are_the_readme_names(self):
        names = readme_paper_names()
        assert len(names) == 15
        assert sorted(names) == sorted(PAPER_CALLS)

    def test_paper_names_are_the_paper_only_functions(self, report):
        assert paper_only_names(report) == sorted(readme_paper_names())

    def test_paper_names_check_can_fail(self, report):
        # a report in which production also reaches bloch_relation
        reached = dict(report["reached"], production=[*report["reached"]["production"],
                                                      report["exported"]["bloch_relation"]])
        changed = paper_only_names(dict(report, reached=reached))
        assert "bloch_relation" not in changed
        assert changed != sorted(readme_paper_names())


# the caches whose key takes a few fixed values: the only ones that may be unbounded
FIXED_KEY_CACHES = {"volterra._pair_index", "lame._halton_window", "cli.build_parser"}
TRAFFIC_COLUMNS = ("analytic", "oracle", "flow")


def readme_caches(text: str) -> dict:
    """"module.name" -> (bound, {workload: [hits, misses]}) of each row of the
    README's "Module caches" table; an unbounded cache's bound is None."""
    rows = {}
    for line in text.splitlines():
        if re.match(r"\| `\w+\.\w+` \|", line):
            name, _, _, bound, *traffic = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[name.strip("`")] = (None if bound.startswith("unbounded") else int(bound),
                                     {w: [int(n) for n in t.split(" / ")] for w, t in zip(TRAFFIC_COLUMNS, traffic)})
    return rows


class TestCacheTable:
    """README's "Module caches" table holds every module-level functools cache
    of the package with its bound and the production pass's traffic, and only
    the fixed-key caches are unbounded."""

    README = (ROOT / "README.md").read_text()

    def test_every_cache_is_a_row_and_every_row_a_cache(self):
        from _support import package_caches

        table, caches = readme_caches(self.README), package_caches()
        assert sorted(caches.keys() - table.keys()) == [], "not in the README cache table"
        assert sorted(table.keys() - caches.keys()) == [], "a README row names no cache"

    def test_bounds_are_the_caches(self):
        from _support import package_caches

        bounds = {name: bound for name, (bound, _) in readme_caches(self.README).items()}
        assert bounds == {name: c.cache_parameters()["maxsize"] for name, c in package_caches().items()}

    def test_only_fixed_key_caches_are_unbounded(self):
        from _support import package_caches

        unbounded = {name for name, c in package_caches().items() if c.cache_parameters()["maxsize"] is None}
        assert sorted(unbounded - FIXED_KEY_CACHES) == []

    def test_traffic_is_the_production_pass(self, report):
        table = readme_caches(self.README)
        for workload in TRAFFIC_COLUMNS:
            assert {name: t[workload] for name, (_, t) in table.items()} == report["caches"][workload], workload


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
        assert [key for key in reached_by(planted) if key[2] == "_planted_route"]
        assert unreached(src, planted) == []


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC)))
