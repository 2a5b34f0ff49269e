"""What the package loads at import, and the names it loads on first use."""

import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lame_spectra
from lame_spectra import bloch, curve, enumbers, lame, volterra
from lame_spectra.theta import theta
from lame_spectra.util import parse_eta

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that only some commands need: a P/Q eta (fractions, which loads
# decimal), --format csv, flow (the Volterra module); numpy.polynomial is not
# needed at all
ON_DEMAND = ("numpy.polynomial", "fractions", "decimal", "csv", "lame_spectra.volterra")
# modules that no command needs: the package's records are NamedTuples, not dataclasses
NEVER = ("dataclasses",)

# a module counts when it is new after ``import numpy``, so that a numpy which
# loads one of them itself cannot fail the probe
COLD_PROBE = f"""
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
import lame_spectra.cli as cli
watched = {ON_DEMAND + NEVER!r}
def loaded():
    return [m for m in watched if m in sys.modules and m not in before]
report = {{"import": loaded()}}
for argv in (["flow", "--poles", "0.21+0.05i"],
             ["spectrum", "--ell", "1", "--eta", "1/31", "--format", "csv", "--kpoints", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[argv[0]] = [code, loaded()]
print(json.dumps(report))
"""

VOLTERRA_NAMES = (
    "FlowResult",
    "LocusReport",
    "PoleConfig",
    "c_from_poles",
    "degenerate_poles",
    "find_locus_config",
    "integrate_flow",
    "locus_residual",
    "pole_rhs",
    "volterra_rhs_c",
)

# the package's public names: the paper's objects and the routes the commands
# and workloads run, the Volterra names above and the errors submodule
PACKAGE_NAMES = {
    "BandEdgeSet", "BlochCoeffs", "CurveCoeffs", "CurvePoint", "EdgeCandidates",
    "EllipticParams", "LameContext", "RationalEta", "ThetaEvaluator",
    "a_polys_determinant", "a_polys_recurrence", "apply_L", "apply_Ltilde", "apply_W",
    "band_edges", "band_intervals", "band_sweep", "bloch_relation", "bloch_relation_det",
    "build_Psi", "build_psi", "cauchy_det", "closed_form_edges",
    "coefficient_samples", "curve_coeffs", "curve_equations", "ebinom", "ebracket",
    "edge_curve_points", "efactorial", "errors", "gauge_factor", "lame_coefficients",
    "nonzero_bracket", "numeric_band_edges", "numeric_band_edges_from_coefficients",
    "periodic_matrix", "phi", "qnumber", "random_curve_points", "residual",
    "scaled_residual", "solve_bloch_coeffs", "solve_curve_point", "theta",
    "theta1_multiples", "theta1_prime", "theta_halfshift", "w_eigenvalue",
    "weierstrass_p", "weyl_denominator_check", *VOLTERRA_NAMES,
}


@pytest.fixture(scope="module")
def cold_report():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", COLD_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestColdImport:
    """A fresh interpreter: ``import lame_spectra.cli`` loads only what every
    subcommand needs, and the commands that need more load it themselves."""

    def test_cli_import_skips_on_demand_modules(self, cold_report):
        assert cold_report["import"] == []

    def test_flow_loads_volterra(self, cold_report):
        code, loaded = cold_report["flow"]
        assert code == 0
        assert "lame_spectra.volterra" in loaded
        assert not set(NEVER) & set(loaded)  # PoleConfig is a NamedTuple too

    def test_csv_spectrum_loads_csv_and_fractions(self, cold_report):
        code, loaded = cold_report["spectrum"]
        assert code == 0
        assert {"csv", "fractions"} <= set(loaded)
        assert "numpy.polynomial" not in loaded
        assert not set(NEVER) & set(loaded)

    def test_rational_eta_is_a_fraction(self):
        assert parse_eta("3/41") == (3 / 41, Fraction(3, 41))
        assert type(parse_eta("3/41")[1]) is Fraction


class TestLazyVolterraNames:
    """The package's Volterra names resolve on first use to the module's own
    objects; every other name is bound at import."""

    @pytest.mark.parametrize("name", VOLTERRA_NAMES)
    def test_attribute_is_the_module_object(self, name):
        assert getattr(lame_spectra, name) is getattr(volterra, name)

    @pytest.mark.parametrize("name", VOLTERRA_NAMES)
    def test_from_import_is_the_module_object(self, name):
        ns = {}
        exec(f"from lame_spectra import {name}", ns)
        assert ns[name] is getattr(volterra, name)

    def test_theta_is_the_function(self):
        assert lame_spectra.theta is theta
        assert callable(lame_spectra.theta)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lame_spectra.no_such_name
        with pytest.raises(ImportError):
            exec("from lame_spectra import no_such_name", {})

    def test_star_import_and_dir(self):
        ns = {}
        exec("from lame_spectra import *", ns)
        assert set(VOLTERRA_NAMES) <= set(ns)
        assert set(VOLTERRA_NAMES) <= set(dir(lame_spectra))
        assert set(lame_spectra.__all__) <= set(ns)
        assert ns["theta"] is theta
        for name in VOLTERRA_NAMES:
            assert ns[name] is getattr(volterra, name)


class TestExports:
    """Each public name is listed once, in its module's ``__all__``; the
    package re-exports those lists and adds the Volterra names and errors."""

    def test_package_names(self):
        assert set(lame_spectra.__all__) == PACKAGE_NAMES
        assert len(lame_spectra.__all__) == len(PACKAGE_NAMES)

    def test_package_all_is_the_union_of_module_lists(self):
        theta_mod = importlib.import_module("lame_spectra.theta")  # the package binds the function
        want = set()
        for mod in (theta_mod, enumbers, lame, curve, bloch):
            want |= set(mod.__all__)
        got = set(lame_spectra.__all__) - set(lame_spectra._VOLTERRA_NAMES) - {"errors"}
        assert got == want

    def test_volterra_names_are_its_all(self):
        assert lame_spectra._VOLTERRA_NAMES == VOLTERRA_NAMES
        assert set(volterra.__all__) == set(VOLTERRA_NAMES)

    def test_init_imports_no_names_by_hand(self):
        # a star import per re-exported module, and the errors submodule
        tree = ast.parse(Path(lame_spectra.__file__).read_text())
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        stars = [node.module for node in imports if [a.name for a in node.names] == ["*"]]
        assert stars == ["theta", "enumbers", "lame", "curve", "bloch"]
        rest = [(node.module, [a.name for a in node.names]) for node in imports
                if [a.name for a in node.names] != ["*"]]
        assert rest == [(None, ["errors"])]
