"""What the package loads at import, and the names it loads on first use."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lame_spectra
from lame_spectra import volterra
from lame_spectra.theta import theta
from lame_spectra.util import parse_eta

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that only some commands need: a P/Q eta (fractions, which loads
# decimal), --format csv, flow (the Volterra module); numpy.polynomial is not
# needed at all
ON_DEMAND = ("numpy.polynomial", "fractions", "decimal", "csv", "lame_spectra.volterra")

COLD_PROBE = f"""
import contextlib, io, json, sys
import lame_spectra.cli as cli
lazy = {ON_DEMAND!r}
report = {{"import": [m for m in lazy if m in sys.modules]}}
for argv in (["flow", "--poles", "0.21+0.05i"],
             ["spectrum", "--ell", "1", "--eta", "1/31", "--format", "csv", "--kpoints", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[argv[0]] = [code, [m for m in lazy if m in sys.modules]]
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

    def test_csv_spectrum_loads_csv_and_fractions(self, cold_report):
        code, loaded = cold_report["spectrum"]
        assert code == 0
        assert {"csv", "fractions"} <= set(loaded)
        assert "numpy.polynomial" not in loaded

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
