"""CLI behaviour: parsing, JSON reports, exit codes, determinism."""

import json

import pytest

from lame_spectra import cli
from lame_spectra.cli import EXIT_CODES, main
from lame_spectra.errors import (
    ClusterAmbiguityError,
    ConvergenceError,
    EllipticError,
    LocusError,
    MarginViolationError,
)
from lame_spectra.util import format_complex, parse_complex, parse_eta


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.2i", 1.2j),
            ("0.17", 0.17),
            ("0.3+1.4i", 0.3 + 1.4j),
            ("0.23+0.05i", 0.23 + 0.05j),
            ("-2.5-0.5i", -2.5 - 0.5j),
            ("1.5e-3i", 1.5e-3j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_round_trip_canonicalizes(self):
        for text in ("1.2i", "0.17", "0.3+1.4i", "-0.2-0.7i"):
            z = parse_complex(text)
            assert parse_complex(format_complex(z)) == z

    def test_rational_eta(self):
        val, frac = parse_eta("2/41")
        assert frac.numerator == 2 and frac.denominator == 41
        assert val == pytest.approx(2 / 41)

    def test_plain_eta_has_no_fraction(self):
        val, frac = parse_eta("0.17")
        assert frac is None

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("1.2+")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_eta("3/0")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEdgesCommand:
    def test_l1_report(self, capsys):
        code, out = run_cli(capsys, "edges", "--ell", "1", "--eta", "0.17", "--tau", "1.2i")
        assert code == 0
        doc = json.loads(out)
        assert doc["edges_per_label"]["1"] == []
        assert doc["counts"] == {"1": 0, "2": 1, "3": 1, "4": 1}
        assert len(doc["full_edge_set"]) == 6
        assert doc["provenance"]["schema"] == 1
        assert doc["counts_ok"]

    def test_l2_counts(self, capsys):
        code, out = run_cli(capsys, "edges", "--ell", "2", "--eta", "0.17", "--tau", "1.2i")
        doc = json.loads(out)
        assert doc["counts"] == {"1": 2, "2": 1, "3": 1, "4": 1}
        assert all(v is not None and v < 1e-9 for v in doc["closed_form_deviation"].values())

    def test_l0_rejected(self, capsys):
        code, _ = run_cli(capsys, "edges", "--ell", "0", "--eta", "0.17")
        assert code == 2

    def test_torsion_eta_rejected(self, capsys):
        code, _ = run_cli(capsys, "edges", "--ell", "1", "--eta", "0.5", "--tau", "1.2i")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--eta", "3/0"], ["--eta", "nan"], ["--eta", "0.17", "--tau", "1e400i"]],
        ids=["zero-denominator", "eta-nan", "tau-inf"],
    )
    def test_bad_parameter_is_one_error_line(self, capsys, flags):
        code = main(["edges", "--ell", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ValueError: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_determinism(self, capsys):
        argv = ["edges", "--ell", "2", "--eta", "0.17", "--tau", "1.2i", "--seed", "5"]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_wrong_count_exits_ambiguous(self, capsys):
        # spurious common roots at this small eta give counts {4, 3, 4, 4}
        code, out = run_cli(capsys, "edges", "--ell", "6", "--eta", "1/61", "--tau", "1.2i")
        assert code == 3
        doc = json.loads(out)
        assert not doc["counts_ok"]
        assert doc["counts"] != doc["expected_counts"]


class TestSpectrumCommand:
    def test_l1_agreement(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--ell", "1", "--eta", "1/31", "--tau", "1.2i"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] < 1e-5
        assert len(doc["bands"]) == 3

    def test_requires_rational_eta(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--ell", "1", "--eta", "0.17")
        assert code == 2

    @pytest.mark.parametrize("ell,eta", [(2, "1/3"), (1, "1/2")])
    def test_torsion_eta_is_one_error_line(self, capsys, ell, eta):
        code = main(["spectrum", "--ell", str(ell), "--eta", eta, "--tau", "1.2i"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: TorsionEtaError: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_small_q_warns(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--ell", "2", "--eta", "1/5", "--tau", "1.2i")
        assert code == 0
        assert "unresolved" in json.loads(out)["warning"]

    def test_csv_sweep(self, capsys):
        code, out = run_cli(
            capsys,
            "spectrum", "--ell", "1", "--eta", "1/31", "--tau", "1.2i",
            "--format", "csv", "--kpoints", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,E_1,")
        assert len(lines) == 10


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["cauchy", "schur", "cj-symmetry", "apoly"])
    def test_suites_pass(self, capsys, suite):
        code, out = run_cli(capsys, "verify", "--suite", suite, "--ell", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]

    def test_cj_symmetry_l6(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "cj-symmetry", "--ell", "6")
        assert code == 0

    def test_report_carries_provenance(self, capsys):
        _, out = run_cli(capsys, "verify", "--suite", "schur", "--ell", "2")
        doc = json.loads(out)
        assert "tol" in doc["provenance"]
        assert "series_cutoff" in doc["provenance"]


class TestFlowCommand:
    def test_single_pole_trajectory(self, capsys):
        code, out = run_cli(
            capsys, "flow", "--poles", "0.21+0.05i", "--t-end", "0.2", "--dt", "0.01"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_locus_gap"] == 0
        assert len(doc["trajectory"]) == 21

    def test_degenerate_rejected(self, capsys):
        code, _ = run_cli(capsys, "flow", "--poles", "0.17,0,-0.17", "--eta", "0.17")
        assert code == 4

    def test_off_locus_rejected(self, capsys):
        code, _ = run_cli(
            capsys, "flow", "--poles", "0.1,0.47+0.21i,-0.29+0.4i", "--eta", "0.17"
        )
        assert code == 4

    def test_csv_trajectory(self, capsys):
        code, out = run_cli(
            capsys,
            "flow", "--poles", "0.21+0.05i", "--t-end", "0.05", "--dt", "0.01",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re_x1,im_x1,locus_gap"
        assert len(lines) == 7


class TestCurvePointCommand:
    def test_solve_and_report(self, capsys):
        code, out = run_cli(
            capsys, "curve-point", "--ell", "2", "--fix-zeta", "0.31+0.07i"
        )
        assert code == 0
        doc = json.loads(out)
        assert max(doc["scaled_residual"]) < 1e-10
        assert "B1" in doc["bloch_multipliers"]

    def test_needs_exactly_one_fix(self, capsys):
        code, _ = run_cli(capsys, "curve-point", "--ell", "2")
        assert code == 2


class TestCoeffsCommand:
    def test_symmetry_reported(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--ell", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 10
        assert doc["symmetry_error"] < 1e-10
        assert doc["C"][0] == "1.0"


# the exit-code table as README.md and the cli docstring state it
DOCUMENTED_EXIT_CODES = [
    (ValueError, 2),
    (EllipticError, 2),
    (ClusterAmbiguityError, 3),
    (ConvergenceError, 3),
    (MarginViolationError, 4),
    (LocusError, 4),
]


class TestExitCodes:
    def test_table_matches_docs(self):
        assert EXIT_CODES == dict(DOCUMENTED_EXIT_CODES)

    @pytest.mark.parametrize("exc_type,code", DOCUMENTED_EXIT_CODES,
                             ids=[t.__name__ for t, _ in DOCUMENTED_EXIT_CODES])
    def test_each_entry(self, capsys, monkeypatch, exc_type, code):
        def boom(*args, **kwargs):
            raise exc_type("boom")

        monkeypatch.setattr(cli.curve_mod, "curve_coeffs", boom)
        assert main(["coeffs", "--ell", "2"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc_type.__name__}: boom\n"

    def test_unmapped_exception_propagates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli.curve_mod, "curve_coeffs", boom)
        with pytest.raises(RuntimeError):
            main(["coeffs", "--ell", "2"])


class TestConfigFile:
    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 0.5\ntau = 1.2i\n")
        code, out = run_cli(
            capsys, "edges", "--ell", "1", "--config", str(cfg), "--eta", "0.17"
        )
        assert code == 0
        assert json.loads(out)["provenance"]["eta"] == "0.17"

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 0.23\n")
        code, out = run_cli(capsys, "edges", "--ell", "1", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["provenance"]["eta"] == "0.23"
