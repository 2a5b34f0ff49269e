"""CLI behaviour: parsing, JSON reports, exit codes, determinism."""

import argparse
import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lame_spectra import bloch, cli, curve, verify
from lame_spectra.bloch import periodic_matrix
from lame_spectra.cli import EXIT_CODES, main
from lame_spectra.errors import (
    ClusterAmbiguityError,
    ConvergenceError,
    EllipticError,
    LocusError,
    MarginViolationError,
)
from lame_spectra.lame import CurvePoint, LameContext
from lame_spectra.theta import EllipticParams, ThetaEvaluator
from lame_spectra.util import format_complex, format_complex_pm, parse_complex, parse_eta

import _smoke
from _support import bloch_terms_scale, empty_caches, scaled_curve_sums

README = Path(__file__).resolve().parents[1] / "README.md"


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
            ("i", 1j),
            ("-I", -1j),
            ("1-i", 1 - 1j),
            ("0.3+1.4j", 0.3 + 1.4j),
            ("Inf", complex(math.inf, 0)),
            ("infi", complex(0, math.inf)),
            ("1.0+infi", complex(1, math.inf)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_round_trip_canonicalizes(self):
        for text in ("1.2i", "0.17", "0.3+1.4i", "-0.2-0.7i"):
            z = parse_complex(text)
            assert parse_complex(format_complex(z)) == z

    def test_reads_back_every_format_complex_output(self):
        # a part reads back equal, or NaN where it was NaN
        def same(got, want):
            return got == want or (math.isnan(got) and math.isnan(want))

        parts = (math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.17)
        for z in (complex(a, b) for a in parts for b in parts):
            got = parse_complex(format_complex(z))
            assert same(got.real, z.real) and same(got.imag, z.imag), (z, format_complex(z))
        got = parse_complex("nan-nani")
        assert math.isnan(got.real) and math.isnan(got.imag)

    def test_pm_strings_are_format_complex_of_pm_z(self):
        # signed zeros, zero real or imaginary parts, infinities and NaNs of
        # either sign bit
        parts = (0.0, -0.0, 1.5, -1.5, 2.0, -2.0, 5e-324, -1e300, math.inf, -math.inf, math.nan, -math.nan)
        for z in (complex(a, b) for a in parts for b in parts):
            assert format_complex_pm(z) == (format_complex(z), format_complex(-z)), z

    def test_rational_eta(self):
        val, frac = parse_eta("2/41")
        assert frac.numerator == 2 and frac.denominator == 41
        assert val == pytest.approx(2 / 41)

    def test_plain_eta_has_no_fraction(self):
        val, frac = parse_eta("0.17")
        assert frac is None

    @pytest.mark.parametrize("text", ["1.2+", "", "  ", "1.2ii", "abc", "1.2-"])
    def test_garbage_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

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

    @pytest.mark.parametrize("eta", ["1/61", "1/31"])
    def test_l2_closed_form_does_not_cancel_at_small_eta(self, capsys, eta):
        # the discriminant [2]^4 - 8[4]/[2] cancels as eta -> 0 (2.0e-12 off at
        # 1/101, the smoke table's edges-2-1/101); its theta-quotient form does not
        code, out = run_cli(capsys, "edges", "--ell", "2", "--eta", eta, "--tau", "1.2i")
        assert code == 0
        assert json.loads(out)["closed_form_deviation"]["1"] <= 1e-14

    def test_l0_rejected(self, capsys):
        code, _ = run_cli(capsys, "edges", "--ell", "0", "--eta", "0.17")
        assert code == 2

    def test_edge_basis_underflow_refused_by_spectrum(self, capsys):
        # the smoke table's edges-12-38i refusal, through spectrum's analytic edges
        code = main(["spectrum", "--ell", "4", "--eta", "1/31", "--tau", "120i"])
        captured = capsys.readouterr()
        assert code == 2
        _smoke.edge_basis_underflow(captured.out, captured.err)

    def test_torsion_eta_rejected(self, capsys):
        code, _ = run_cli(capsys, "edges", "--ell", "1", "--eta", "0.5", "--tau", "1.2i")
        assert code == 2

    def test_torsion_error_names_the_smallest_order(self, capsys):
        # eta = 1/5: [5] and [10] both vanish; the error names the order, 5
        code = main(["edges", "--ell", "5", "--eta", "1/5", "--tau", "1.2i"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: TorsionEtaError: [5] ~ 0")
        assert err.rstrip().endswith("torsion point of order 5")

    @pytest.mark.parametrize(
        "flags",
        [["--eta", "3/0"], ["--eta", "nan"], ["--eta", "0.17", "--tau", "1e400i"], ["--tau", "1"],
         ["--tau", "nan"], ["--format", "xml"], ["--tol", "abc"], ["--seed", "x"], ["--config", "format = xml"],
         ["--tau", "1e-20i"], ["--tau", "1e-300i"], ["--tau", "1e-320i"], ["--tau", "1000i"], ["--tol", "1e300"],
         ["--tau", "800i"]],
        ids=["zero-denominator", "eta-nan", "tau-inf", "tau-real", "tau-nan", "format-flag", "tol-flag",
             "seed-flag", "format-config", "tau-1e-20i", "tau-1e-300i", "tau-1e-320i", "tau-1000i", "tol-1e300",
             "tau-800i"],
    )
    def test_bad_parameter_is_one_error_line(self, capsys, tmp_path, flags):
        # a flag's value and a config file's are converted and checked alike; tau-1e-20i to
        # tol-1e300 are series the evaluator cannot sum (Im tau 1e-11 and 1e-12 are left out:
        # should its ceiling go, they would allocate gigabytes), and at tau 800i the evaluator
        # serves but the edge basis underflows
        if flags[0] == "--config":  # the file's text stands in its place
            path = tmp_path / "run.cfg"
            path.write_text(flags[1] + "\n")
            flags = ["--config", str(path)]
        code = main(["edges", "--ell", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ValueError: ")
        assert len(err.splitlines()) == 1
        assert "usage:" not in err
        assert "Traceback" not in err

    def test_determinism(self, capsys):
        argv = ["edges", "--ell", "2", "--eta", "0.17", "--tau", "1.2i", "--seed", "5"]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_closed_form_deviation_above_its_pin_exits_3(self, capsys):
        # the counts hold, but the edges stray from the closed forms by more
        # than 1e-9: the report is printed and the exit code is 3, as for a
        # wrong count (ell 2 is the smoke table's edges-2-1e-3i)
        code = main(["edges", "--ell", "1", "--eta", "0.17", "--tau", "0.04i"])
        captured = capsys.readouterr()
        assert code == 3
        _smoke.closed_forms_missed(captured.out, captured.err)

    def test_report_strings_with_ties_and_signed_zeros(self, capsys, monkeypatch):
        # the edge strings and their order are those of format_complex over the
        # sorted reflected set: equal keys keep their order, 0.0 and -0.0 too
        per_label = {1: [0j, complex(-0.0, 0.0)], 2: [1.5 + 0j, complex(1.5, -0.0), 1.5 + 0j],
                     3: [2j, complex(-0.0, -2.0)], 4: [-1.5 + 0.5j, 1.5 - 0.5j, complex(0.0, -0.0)]}
        edges = curve.BandEdgeSet(ell=3, per_label=per_label)
        monkeypatch.setattr(cli.curve_mod, "band_edges", lambda ell, ev: edges)
        main(["edges", "--ell", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["edges_per_label"] == {str(a): [format_complex(e) for e in per_label[a]] for a in per_label}
        assert doc["full_edge_set"] == [
            format_complex(e) for e in sorted(edges.with_reflection(), key=lambda z: (z.real, z.imag))]

    def test_small_eta_counts_are_right(self, capsys):
        # each label's count is the dimension of its theta space, so this small
        # eta, where common roots of edge polynomials over-counted, exits 0
        code, out = run_cli(capsys, "edges", "--ell", "6", "--eta", "1/61", "--tau", "1.2i")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts_ok"] is True
        assert doc["counts"] == doc["expected_counts"]
        assert "multiplicities" not in doc


# the (eta, tau) cells of the smoke table's verify runs
VERIFY_CELLS = [("0.17", "1.2i"), ("0.11+0.05i", "0.3+1.4i"), ("1/31", "1.2i")]


class TestSharedTables:
    """Requests at equal parameters share the eta-only tables and context parts:
    no output may depend on what ran before it in the process."""

    @pytest.mark.parametrize("eta,tau", VERIFY_CELLS)
    def test_same_bytes_in_any_request_order(self, capsys, eta, tau):
        argvs = [["edges", "--ell", str(ell), "--eta", eta, "--tau", tau] for ell in range(1, 11)]
        argvs += [["coeffs", "--ell", str(ell), "--eta", eta, "--tau", tau] for ell in range(2, 13)]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        ascending = [run(argv) for argv in argvs]
        descending = [run(argv) for argv in argvs[::-1]][::-1]
        cleared = []
        for argv in argvs:
            empty_caches()
            cleared.append(run(argv))
        assert descending == ascending
        assert cleared == ascending

    def test_large_imaginary_eta_prints_the_same_bytes_after_smaller_ell(self, capsys):
        # the theta1(k eta) table grows in fixed chunks of k: at |Im eta| =
        # 0.6, where a theta call's cutoff follows its largest |Im k eta|,
        # ell 6 prints the same bytes cold and after ell 1..5
        grid = ["--eta", "0.17+0.6i", "--tau", "1.2i"]
        empty_caches()
        cold = run_cli(capsys, "coeffs", "--ell", "6", *grid)
        empty_caches()
        for ell in range(1, 6):
            run_cli(capsys, "coeffs", "--ell", str(ell), *grid)
        assert cold[0] == 0
        assert run_cli(capsys, "coeffs", "--ell", "6", *grid) == cold

    def test_torsion_eta_exits_2_on_every_request(self, capsys):
        # a factorial growth that meets [3] = 0 stores nothing, so each request
        # that needs it raises again, also after an ell 1 request filled the
        # tables below [3]
        argv = ["edges", "--ell", "2", "--eta", "1/3"]
        empty_caches()
        codes = [main(argv), main(argv)]
        errors = capsys.readouterr().err.splitlines()
        empty_caches()
        assert main(["edges", "--ell", "1", "--eta", "1/3"]) == 0
        capsys.readouterr()
        codes.append(main(argv))
        errors += capsys.readouterr().err.splitlines()
        assert codes == [2, 2, 2]
        assert errors == ["error: TorsionEtaError: [3] ~ 0 for eta=(0.3333333333333333+0j): "
                          "torsion point of order 3"] * 3


class TestSpectrumCommand:
    def test_l1_agreement(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--ell", "1", "--eta", "1/31", "--tau", "1.2i"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] < 1e-5
        assert len(doc["bands"]) == 3

    @pytest.mark.parametrize(
        "ell,eta,code",
        [(1, "1/31", 0), (2, "1/5", 0), (5, "3/31", 0), (8, "1/61", 3)],
        ids=["l1", "small-q", "l5", "l8-under-count"],
    )
    def test_counts_ok_sets_exit_code(self, capsys, ell, eta, code):
        # at ell 8, eta 1/61 gaps below double precision leave 30 of the 34
        # confident edges; the report is still printed
        got, out = run_cli(capsys, "spectrum", "--ell", str(ell), "--eta", eta, "--tau", "1.2i")
        doc = json.loads(out)
        assert got == code
        assert doc["counts_ok"] is (code == 0)
        assert (len(doc["bands"]) == 2 * ell + 1) is (code == 0)

    def test_default_x0_is_reported(self, capsys):
        for tau, x0 in (("1.2i", 0.123456 + 0.6j), ("0.8i", 0.123456 + 0.4j)):
            code, out = run_cli(capsys, "spectrum", "--ell", "1", "--eta", "1/31", "--tau", tau)
            assert code == 0
            assert parse_complex(json.loads(out)["x0"]) == pytest.approx(x0, abs=1e-15)

    def test_x0_flag_is_refused(self, capsys):
        # the orbit is always 0.123456 + tau/2: the spectra do not depend on x0
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--ell", "1", "--eta", "1/31", "--x0", "0.1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --x0" in captured.err

    @pytest.mark.parametrize("tau,Qs", [("1.2i", (13, 31, 41, 61, 101)), ("0.8i", (13, 31, 41, 61))],
                             ids=["1.2i", "0.8i"])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_grid_counts_and_edges(self, capsys, tau, Qs, ell):
        # every (P, Q) exits 0 with 2(2l+1) confident edges and 2l+1 bands, and
        # the confident edges match band_edges within 1e-5 of the spectral
        # radius in both directions
        bad = []
        for Q in Qs:
            for P in (1, 2, 3):
                code, out = run_cli(capsys, "spectrum", "--ell", str(ell), "--eta", f"{P}/{Q}",
                                    "--tau", tau)
                doc = json.loads(out)
                num = [parse_complex(v) for v, c in zip(doc["numeric_edges"], doc["confident"]) if c]
                ana = [parse_complex(v) for v in doc["analytic_edges"]]
                if code != 0 or len(num) != 2 * (2 * ell + 1) or len(doc["bands"]) != 2 * ell + 1:
                    bad.append((P, Q, code, len(num), len(doc["bands"])))
                    continue
                scale = max(abs(e) for e in ana)
                h1 = max(min(abs(v - e) for e in ana) for v in num)
                h2 = max(min(abs(v - e) for v in num) for e in ana)
                if not max(h1, h2) < 1e-5 * scale:
                    bad.append((P, Q, max(h1, h2) / scale))
        assert not bad

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_real_spectrum_is_one_error_line(self, capsys, fmt):
        code = main(["spectrum", "--ell", "1", "--eta", "1/31", "--tau", "0.3+1.4i",
                     "--format", fmt])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ClusterAmbiguityError: spectrum is not numerically real")
        assert len(err.splitlines()) == 1

    def test_bands_do_not_depend_on_kpoints(self, capsys):
        bands = []
        for kpoints in ("1", "2", "129"):
            code, out = run_cli(capsys, "spectrum", "--ell", "1", "--eta", "1/31",
                                "--kpoints", kpoints)
            assert code == 0
            bands.append(json.loads(out)["bands"])
        assert len(bands[0]) == 3
        assert bands[0] == bands[1] == bands[2]

    def test_kpoints_below_one_rejected(self, capsys):
        code = main(["spectrum", "--ell", "1", "--eta", "1/31", "--kpoints", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: ValueError: --kpoints must be >= 1\n"

    # Q = 31 is odd, so the phase -1 spectrum is the reflected phase +1 one
    @pytest.mark.parametrize("flags,solves", [([], 1), (["--format", "csv", "--kpoints", "9"], 1 + 9)],
                             ids=["json", "csv"])
    def test_eigen_solve_count(self, capsys, monkeypatch, flags, solves):
        built = []

        def counting(*args):
            built.append(args)
            return periodic_matrix(*args)

        monkeypatch.setattr(bloch, "periodic_matrix", counting)
        code, _ = run_cli(capsys, "spectrum", "--ell", "1", "--eta", "1/31", *flags)
        assert code == 0
        assert len(built) == solves

    @pytest.mark.parametrize("ell,P,Q", [(1, 1, 31), (4, 3, 101), (1, 3, 101), (2, 2, 41), (4, 7, 61)])
    def test_max_deviation_is_the_generators(self, capsys, ell, P, Q):
        # the one-broadcast value equals max over n of min over a of |n - a|,
        # computed here as the per-pair generator it replaced; on the last
        # three requests np.abs of the difference array is off in the last bit
        code, out = run_cli(capsys, "spectrum", "--ell", str(ell), "--eta", f"{P}/{Q}")
        assert code == 0
        ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=P / Q, tol=1e-12))
        num = bloch.numeric_band_edges(ell, bloch.RationalEta(P, Q), 0.123456 + 0.6j, ev).confident_values()
        analytic = curve.band_edges(ell, ev).with_reflection()
        assert json.loads(out)["max_deviation"] == max(min(abs(n - a) for a in analytic) for n in num)

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


def _plant_monodromy(monkeypatch):
    """Add a term that is not periodic to the theta the suite reads."""
    real = verify.theta
    monkeypatch.setattr(verify, "theta", lambda a, x, ev: real(a, x, ev) + 1e-8 * x)


def _plant_cauchy(monkeypatch):
    real = verify.cauchy_det

    def off(xs, zeta, ev):
        lhs, rhs, A = real(xs, zeta, ev)
        return lhs, rhs * (1 + 1e-2), A

    monkeypatch.setattr(verify, "cauchy_det", off)


def _plant_schur(monkeypatch):
    real = verify.weyl_denominator_check

    def off(ell, z, q):
        lhs, rhs, C = real(ell, z, q)
        return lhs, rhs * (1 + 1e-8), C

    monkeypatch.setattr(verify, "weyl_denominator_check", off)


def _plant_apoly(monkeypatch):
    real = verify.a_polys_determinant
    monkeypatch.setattr(verify, "a_polys_determinant", lambda ell, E, ev: real(ell, E, ev) * (1 + 1e-8))


def _plant_curve_symmetry(monkeypatch):
    real = curve.random_curve_points

    def off(ctx, n, rng):
        return [CurvePoint(zeta=p.zeta, K=p.K, E=p.E * (1 + 1e-6)) for p in real(ctx, n, rng)]

    monkeypatch.setattr(curve, "random_curve_points", off)


def _plant_coeffs(monkeypatch, change):
    """Every C_j table the CLI reads passes through ``change(C, ev)``."""
    real = curve.curve_coeffs

    def off(ell, ev):
        cc = real(ell, ev)
        return cc._replace(C=change(cc.C.copy(), ev))

    monkeypatch.setattr(curve, "curve_coeffs", off)


def _break_palindrome(C, ev):
    C[1] *= 1 + 1e-8
    return C


# one defect per suite, of the kind the suite exists to catch
PLANTS = {
    "theta-monodromy": _plant_monodromy,
    "cauchy": _plant_cauchy,
    "schur": _plant_schur,
    "apoly": _plant_apoly,
    "curve-symmetry": _plant_curve_symmetry,
    "cj-symmetry": lambda monkeypatch: _plant_coeffs(monkeypatch, _break_palindrome),
    # an O(eta) error, which halves where an eta^2 one quarters
    "cj-limit": lambda monkeypatch: _plant_coeffs(monkeypatch, lambda C, ev: C * (1 + abs(ev.eta))),
}


def _verify_report(capsys, ell):
    """The verify --suite all document at ell, checked for its shape and for
    verdicts that follow the errors and bounds."""
    code, out = run_cli(capsys, "verify", "--suite", "all", "--ell", ell)
    doc = json.loads(out)
    _smoke.verify_report_shape(doc)
    assert code == (0 if doc["all_passed"] else 1)
    return doc


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["cauchy", "schur", "cj-symmetry", "apoly"])
    def test_suites_pass(self, capsys, suite):
        code, out = run_cli(capsys, "verify", "--suite", suite, "--ell", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]

    @pytest.mark.parametrize("args", [
        ("--suite", "cauchy", "--ell", str(ell), "--eta", eta, "--tau", tau)
        for eta, tau in (("0.17", "1.2i"), ("0.11+0.05i", "0.3+1.4i"), ("1/31", "1.2i"))
        for ell in range(1, 13)
    ])
    def test_cauchy_rounding_within_its_bound(self, capsys, args):
        # kappa(A) grows with n, so the check allows each draw 10 n eps
        # kappa(A), not a fixed 1e-9; stratified draws of at most 10 points
        # keep that far below the 1e-2 a wrong identity shows (the smoke
        # table's verify-all-7 holds --suite all at ell 7 to the same bounds)
        code, out = run_cli(capsys, "verify", *args)
        assert code == 0
        doc = json.loads(out)["suites"]["cauchy"]
        assert len(doc["rel_errors"]) == len(doc["bounds"]) == int(args[3]) + 1
        assert max(doc["bounds"]) <= 1e-6

    def test_every_suite_has_a_plant(self):
        assert set(PLANTS) == set(verify.SUITES)

    @pytest.mark.parametrize("suite,ell", [(suite, ell) for suite in verify.SUITES for ell in (2, 6, 12)])
    def test_planted_defect_fails(self, capsys, monkeypatch, suite, ell):
        PLANTS[suite](monkeypatch)
        code, out = run_cli(capsys, "verify", "--suite", suite, "--ell", str(ell))
        assert code == 1
        assert not json.loads(out)["suites"][suite]["passed"]

    @pytest.mark.parametrize("eta,tau,ell", [
        (eta, tau, ell)
        for eta, tau in (("0.17", "1.2i"), ("0.11+0.05i", "0.3+1.4i"), ("1/31", "1.2i"))
        for ell in (1, 2, 3, 6, 9, 12)
    ])
    def test_all_suites_pass_on_the_grid(self, capsys, eta, tau, ell):
        code, out = run_cli(capsys, "verify", "--suite", "all", "--ell", str(ell),
                            "--eta", eta, "--tau", tau)
        suites = json.loads(out)["suites"]
        assert [name for name, r in suites.items() if not r["passed"]] == []
        assert code == 0

    @pytest.mark.parametrize("eta,tau", VERIFY_CELLS)
    def test_suite_alone_reports_as_inside_all(self, capsys, eta, tau):
        # each suite draws from its own generator of (seed, suite name)
        code, out = run_cli(capsys, "verify", "--suite", "all", "--ell", "3", "--eta", eta, "--tau", tau)
        assert code == 0
        inside = json.loads(out)["suites"]
        for suite in verify.SUITES:
            code, out = run_cli(capsys, "verify", "--suite", suite, "--ell", "3", "--eta", eta, "--tau", tau)
            assert code == 0
            assert json.loads(out)["suites"] == {suite: inside[suite]}

    def test_suite_added_first_moves_no_other_draws(self, capsys, monkeypatch):
        _, out = run_cli(capsys, "verify", "--suite", "all", "--ell", "3")
        before = json.loads(out)["suites"]
        dummy = (lambda ell, ev, rng: (rng.uniform(0, 1e-12, 100), 1e-10), "fixed")
        monkeypatch.setattr(verify, "SUITES", {"dummy": dummy, **verify.SUITES})
        code, out = run_cli(capsys, "verify", "--suite", "all", "--ell", "3")
        after = json.loads(out)["suites"]
        assert code == 0
        assert set(after) == {"dummy", *before}
        assert {name: r for name, r in after.items() if name != "dummy"} == before

    @pytest.mark.parametrize("seed,ell", [(seed, ell) for seed in range(20) for ell in (6, 9, 12)])
    def test_schur_passes_where_rhs_is_small(self, capsys, seed, ell):
        # the zeros of the product rhs lie on |z| = 1 and draws reach |z| 0.94:
        # an error relative to |rhs| failed 11 of these 60 runs, one relative
        # to the terms the lhs sum rounds against fails none
        code, _ = run_cli(capsys, "verify", "--suite", "schur", "--ell", str(ell), "--seed", str(seed))
        assert code == 0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 21: curve points stop at NEWTON_TOL, not at the rounding floor, so at small "
        "eta and large ell an image of a sound point can miss the 1e-8 bound (29.5 times it here)"))
    def test_curve_symmetry_at_small_eta_and_ell_12(self, capsys):
        code, _ = run_cli(capsys, "verify", "--suite", "curve-symmetry", "--ell", "12",
                          "--eta", "1/31", "--seed", "6")
        assert code == 0

    def test_one_report_shape_and_verdict(self, capsys):
        # at ell 9; the smoke table holds ell 1, 3, 7 and 12 to the same shape
        assert _verify_report(capsys, "9")["all_passed"]

    def test_one_report_shape_and_verdict_on_a_failing_suite(self, capsys, monkeypatch):
        _plant_curve_symmetry(monkeypatch)
        assert not _verify_report(capsys, "3")["all_passed"]

    def test_suite_without_draws_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(curve, "random_curve_points", lambda ctx, n, rng: [])
        code, out = run_cli(capsys, "verify", "--suite", "curve-symmetry", "--ell", "2")
        assert code == 1
        assert json.loads(out)["suites"]["curve-symmetry"] == {
            "rel_errors": [], "bounds": [], "bound_source": "fixed", "max_rel_error": None,
            "passed": False,
        }

    @pytest.mark.parametrize("errors", [[1e-16, math.nan], [math.nan, 1e-16]], ids=["nan-last", "nan-first"])
    def test_nan_error_withholds_the_report(self, capsys, monkeypatch, errors):
        # a NaN error is not a failed draw but a report that cannot be
        # written: exit 3 and one line naming the draw
        monkeypatch.setitem(verify.SUITES, "schur", (lambda ell, ev, rng: (errors, 1e-10), "fixed"))
        code = main(["verify", "--suite", "schur"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (f"error: FloatingPointError: suites.schur.rel_errors[{errors.index(math.nan)}] "
                                "is not finite; the report is withheld\n")

    def test_nan_monodromy_error_fails_the_suite(self, capsys, monkeypatch):
        # theta(x + tau) planted NaN, as the quasi-period factor's overflow
        # makes the error from Im tau about 226: the draw keeps the NaN, not
        # its finite x + 1 error, and the report is withheld
        real = verify.theta
        monkeypatch.setattr(verify, "theta",
                            lambda a, x, ev: math.nan if x.imag > ev.tau.imag / 2 else real(a, x, ev))
        code = main(["verify", "--suite", "theta-monodromy"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: FloatingPointError: suites.theta-monodromy.rel_errors[0] "
                                "is not finite; the report is withheld\n")

    @pytest.mark.parametrize("ell", ["1", "2", "12"])
    def test_cj_limit_holds_the_eta_squared_rate(self, capsys, ell):
        code, out = run_cli(capsys, "verify", "--suite", "cj-limit", "--ell", ell)
        r = json.loads(out)["suites"]["cj-limit"]
        assert code == 0
        assert r["bound_source"] == "eta^2 rate"
        assert len(r["rel_errors"]) == 2
        if ell == "1":  # the C_j are the binomials [1, 1] exactly
            assert r["rel_errors"] == [0.0, 0.0]

    @pytest.mark.parametrize("tau", ["0.15i", "0.08i", "0.5+0.1i"])
    def test_cj_limit_passes_at_small_im_tau(self, capsys, tau):
        # the ladder starts at 0.1 (Im tau)^2 / N, where the eta^2 term dominates
        for ell in range(1, 13):
            code, _ = run_cli(capsys, "verify", "--suite", "cj-limit", "--ell", str(ell), "--tau", tau)
            assert code == 0, ell

    @pytest.mark.parametrize("tau", ["0.15i", "0.08i", "0.5+0.1i"])
    @pytest.mark.parametrize("ell", [2, 6, 12])
    def test_cj_limit_plant_fails_at_small_im_tau(self, capsys, monkeypatch, tau, ell):
        # the lower ladder still halves an O(eta) error where an eta^2 one
        # quarters (test_planted_defect_fails holds it at tau 1.2i)
        PLANTS["cj-limit"](monkeypatch)
        code, out = run_cli(capsys, "verify", "--suite", "cj-limit", "--ell", str(ell), "--tau", tau)
        assert code == 1
        assert not json.loads(out)["suites"]["cj-limit"]["passed"]

    def test_cj_symmetry_l6(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "cj-symmetry", "--ell", "6")
        assert code == 0

    def test_report_carries_provenance(self, capsys):
        _, out = run_cli(capsys, "verify", "--suite", "schur", "--ell", "2")
        doc = json.loads(out)
        assert "tol" in doc["provenance"]
        assert "series_cutoff" in doc["provenance"]


def _count_calls(monkeypatch, name, modules):
    """Wrap the function ``name`` of the first of ``modules`` in a counter
    and bind it in each of them; returns the list the calls append to."""
    calls, real = [], getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestOneBuildPerDraw:
    """A suite builds each draw's data once: a cauchy draw reads its matrix,
    both sides and kappa(A) from two theta calls, a schur draw its sides and
    its scale from one subset sum."""

    EV = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17))

    @pytest.mark.parametrize("ell", [1, 3, 7])
    def test_cauchy_draw_makes_two_theta_calls(self, monkeypatch, ell):
        calls = _count_calls(monkeypatch, "theta", (verify, curve))
        errors, bounds = verify.SUITES["cauchy"][0](ell, self.EV, np.random.default_rng(0))
        assert len(errors) == len(bounds) == ell + 1
        assert len(calls) == 2 * (ell + 1)

    @pytest.mark.parametrize("ell", [1, 3, 7])
    def test_schur_draw_makes_one_subset_sum(self, monkeypatch, ell):
        calls = _count_calls(monkeypatch, "_subset_sums", (curve,))
        errors, _ = verify.SUITES["schur"][0](ell, self.EV, np.random.default_rng(0))
        assert len(calls) == len(errors) == 5


class TestFlowCommand:
    def test_single_pole_trajectory(self, capsys):
        code, out = run_cli(
            capsys, "flow", "--poles", "0.21+0.05i", "--t-end", "0.2", "--dt", "0.01"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_locus_gap"] == 0
        assert len(doc["trajectory"]) == 21
        # one pole has no pair to hold a margin
        assert doc["min_margin"] is None

    @pytest.mark.parametrize(
        "flags,name",
        [(["--dt", "0"], "dt"), (["--t-end", "inf"], "t_end"), (["--dt", "nan"], "dt"),
         (["--dt", "1e-320"], "t_end/dt")],
        ids=["dt-zero", "t-end-inf", "dt-nan", "step-count-inf"],
    )
    def test_bad_step_is_one_error_line(self, capsys, flags, name):
        code = main(["flow", "--poles", "0.1+0.05i", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: ValueError: {name} must be finite")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("poles,ell", [
        ("0.21+0.05i", 1),
        # half a period apart: two poles on the locus, but 2 is no l(l+1)/2
        ("0.25,-0.25", None),
        # the on-locus three-pole set of the smoke table
        (_smoke.M3, 2),
    ], ids=["M1", "M2", "M3"])
    def test_provenance_ell_from_the_pole_count(self, capsys, poles, ell):
        code, out = run_cli(capsys, "flow", "--eta", "1/31", "--poles", poles, "--t-end", "0.02")
        assert code == 0
        assert json.loads(out)["provenance"]["ell"] == ell

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

    def test_csv_ends_on_the_json_report(self, capsys):
        # a t_end/dt 200 grid: the CSV holds one row per grid time (201), and
        # its last row is the JSON report's last pole set, digit for digit
        code, out = run_cli(capsys, *_smoke.CELLS["flow-M3-grid200-csv"].argv.split())
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        code, out = run_cli(capsys, *_smoke.CELLS["flow-M3-grid200"].argv.split())
        assert code == 0
        last = json.loads(out)["trajectory"][-1]
        got = [complex(float(a), float(b)) for a, b in zip(rows[-1][1:-1:2], rows[-1][2:-1:2])]
        assert len(rows) == 201 and float(rows[-1][0]) == last["t"]
        assert got == [parse_complex(p) for p in last["poles"]]


class TestCurvePointCommand:
    @pytest.mark.parametrize("tau", ["500i", "700i", "890i"])
    @pytest.mark.parametrize("ell", [2, 3, 6])
    @pytest.mark.parametrize("fix", [["--fix-zeta", "0.31+0.07i"], ["--fix-E", "1.6+0.4i"]], ids=["zeta", "E"])
    def test_large_im_tau_points_are_on_the_curve(self, capsys, fix, ell, tau):
        # the residue matrix and its zeta derivative are formed from theta1
        # ratios: a product of two theta1 values, each about exp(-pi Im tau/4),
        # underflows here. Each point is checked by the Bloch relation and the
        # curve sums, which do not read the residue matrix. At ell 3 the
        # fixed-E Newton's first zeta step (up to |tau| long) runs theta1 out
        # of range, so it warns and stops as singular
        argv = ["curve-point", "--ell", str(ell), "--tau", tau, *fix]
        if fix[0] == "--fix-E" and ell == 3:
            with pytest.warns(RuntimeWarning):
                code = main(argv)
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert captured.err == "error: ConvergenceError: Jacobian singular (branch point?)\n"
            return
        code, out = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert max(doc["scaled_residual"]) < 1e-11
        p = {k: parse_complex(v) for k, v in doc["point"].items()}
        ev = ThetaEvaluator(EllipticParams(tau=parse_complex(tau), eta=0.17))
        relation = curve.bloch_relation(p["zeta"], p["K"], ell, ev)
        assert abs(relation) < 1e-12 * bloch_terms_scale(p["zeta"], p["K"], ell, ev)
        assert max(scaled_curve_sums(CurvePoint(**p), LameContext(ell=ell, ev=ev))) < 1e-12

    @pytest.mark.parametrize("fixes", [[], ["--fix-zeta", "0.31+0.07i", "--fix-E", "1.6+0.4i"]],
                             ids=["neither", "both"])
    def test_needs_exactly_one_fix(self, capsys, fixes):
        code = main(["curve-point", "--ell", "2", *fixes])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: ValueError: pass exactly one of --fix-zeta / --fix-E\n"


class TestCoeffsCommand:
    def test_symmetry_reported(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--ell", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 10
        assert doc["symmetry_error"] < 1e-10
        assert doc["C"][0] == "1.0"

    @pytest.mark.parametrize("grid", [["--ell", "6"], ["--ell", "9", "--eta", "0.11+0.05i", "--tau", "0.3+1.4i"]],
                             ids=["l6", "l9-complex"])
    def test_symmetry_error_is_the_cj_symmetry_reading(self, capsys, grid):
        # one per-pair reading of the palindrome, |C_j - C_{N-j}| over the
        # larger of the two, for the report and the verify suite alike
        code, out = run_cli(capsys, "coeffs", *grid)
        assert code == 0
        _, report = run_cli(capsys, "verify", "--suite", "cj-symmetry", *grid)
        want = json.loads(report)["suites"]["cj-symmetry"]["max_rel_error"]
        assert json.loads(out)["symmetry_error"] == want > 0

    def test_ell_above_subset_sum_limit_is_one_error_line(self, capsys):
        # verify's cj-symmetry suite refuses it as coeffs does (the smoke table's coeffs-21)
        code = main(["verify", "--suite", "cj-symmetry", "--ell", "21"])
        captured = capsys.readouterr()
        assert code == 2
        _smoke.CELLS["coeffs-21"].check(captured.out, captured.err)


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestEmit:
    """A report is one write of one line: the compact ``json.dumps`` text
    with sorted keys, then a newline."""

    @pytest.mark.parametrize("argv", [
        ["edges", "--ell", "3", "--eta", "0.11+0.05i", "--tau", "0.3+1.4i"],
        ["coeffs", "--ell", "5", "--eta", "1/31"],
    ], ids=lambda argv: argv[0])
    def test_bytes_are_one_compact_line(self, monkeypatch, argv):
        docs = []
        monkeypatch.setattr(cli, "_emit", lambda doc, stream=None: docs.append(doc))
        assert main(argv) == 0
        (doc,) = docs
        got = _CountingStream()
        monkeypatch.undo()
        cli._emit(doc, got)
        assert got.writes == 1
        assert got.getvalue() == json.dumps(doc, sort_keys=True) + "\n"
        assert got.getvalue().count("\n") == 1

    @pytest.mark.parametrize("report,field", [
        ({"a": {"b": [1.0, math.inf]}}, "a.b[1]"),
        ({"C": ["1.0", format_complex(complex(math.nan, math.nan))]}, "C[1]"),
        ({"x": format_complex(complex(2.0, -math.inf))}, "x"),
        ([["k", "E_1", "E_2"], ["0.0", "1.0", "2.0"], ["0.5", "1.0", repr(math.nan)]], "E_2[1]"),
    ], ids=["float", "complex-nan", "complex-inf", "csv"])
    def test_non_finite_value_is_refused_by_name(self, report, field):
        got = _CountingStream()
        with pytest.raises(FloatingPointError, match=rf"^{re.escape(field)} is not finite"):
            cli._emit(report, got)
        assert got.writes == 0

    def test_words_that_only_look_non_finite_are_written(self):
        # the text holds 'inf' and 'nan', but no number that is not finite
        report = {"info": "nano", "confidence": ["1.0", "infinite?"]}
        got = _CountingStream()
        cli._emit(report, got)
        assert got.getvalue() == json.dumps(report, sort_keys=True) + "\n"

    def test_non_finite_csv_cell_exits_3(self, capsys, monkeypatch):
        def sweep(*args):
            out = real(*args)
            out[2, 1] = math.inf
            return out

        real = cli.band_sweep
        monkeypatch.setattr(cli, "band_sweep", sweep)
        code = main(["spectrum", "--ell", "1", "--eta", "1/31", "--format", "csv", "--kpoints", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: FloatingPointError: E_2[2] is not finite; the report is withheld\n"


# one cheap run of each command, before the flags the envelope test adds
ENVELOPE_RUNS = {
    "edges": ["edges", "--ell", "1"],
    "spectrum": ["spectrum", "--ell", "1"],
    "verify": ["verify", "--suite", "schur", "--ell", "2"],
    "flow": ["flow", "--poles", "0.21+0.05i", "--t-end", "0.02"],
    "curve-point": ["curve-point", "--ell", "2", "--fix-zeta", "0.31+0.07i"],
    "coeffs": ["coeffs", "--ell", "2"],
}


class TestReportEnvelope:
    """``main`` prints every JSON report under one ``provenance`` block taken
    from the run's settings, and commands without a CSV form refuse
    ``--format csv`` (``test_csv_sweep`` and ``test_csv_trajectory`` pin that
    the CSV forms print their table alone)."""

    @pytest.mark.parametrize("command,eta", [
        (command, eta) for command in ENVELOPE_RUNS for eta in ("2/41", "0.23")
        if (command, eta) != ("spectrum", "0.23")  # spectrum needs a P/Q eta
    ])
    def test_provenance_from_flags(self, capsys, command, eta):
        argv = ENVELOPE_RUNS[command] + ["--eta", eta, "--tau", "0.9i", "--tol", "1e-11",
                                         "--seed", "5"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        value, frac = parse_eta(eta)
        ev = ThetaEvaluator(EllipticParams(tau=0.9j, eta=value, tol=1e-11))
        assert json.loads(out)["provenance"] == {
            "schema": cli.SCHEMA,
            # flow has no --ell: its one pole is the l = 1 locus
            "ell": int(argv[argv.index("--ell") + 1]) if "--ell" in argv else 1,
            "eta": format_complex(value),
            "eta_rational": "2/41" if frac is not None else None,
            "tau": "0.9i",
            "tol": 1e-11,
            "series_cutoff": ev.series_cutoff,
            "seed": 5,
        }

    @pytest.mark.parametrize("command,fmt", [(command, fmt) for command in ENVELOPE_RUNS for fmt in ("json", "csv")
                                             if fmt == "json" or command in cli._CSV_COMMANDS])
    def test_finite_report_is_not_walked(self, capsys, monkeypatch, command, fmt):
        # the text scan passes every finite report, its provenance key
        # included, so no report pays for the walk that names a field
        monkeypatch.setattr(cli, "_non_finite_field", lambda report: pytest.fail("report walked"))
        assert main(ENVELOPE_RUNS[command] + ["--eta", "2/41", "--format", fmt]) == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["edges", "coeffs", "verify", "curve-point"])
    def test_csv_refused_without_csv_form(self, capsys, tmp_path, command, source):
        if source == "flag":
            extra = ["--format", "csv"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("format = csv\n")
            extra = ["--config", str(cfg)]
        code = main(ENVELOPE_RUNS[command] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: ValueError: {command} has no CSV form; "
                                "--format csv is offered by spectrum and flow only\n")


def readme_suites(text: str) -> list:
    """(suite, bound_source) of each row of the README's ``verify`` suite table, in order."""
    table = text.split("| suite | a draw compares |")[1].split("\n\n")[0]
    return re.findall(r"^\| `([\w-]+)` \|.*\| `([^`]+)` \|$", table, re.M)


class TestSuiteTable:
    """The README's ``verify`` suite table names the suites of ``verify.SUITES``,
    in the order ``--suite all`` runs them, each with its ``bound_source``."""

    SUITES = [(name, source) for name, (_, source) in verify.SUITES.items()]

    def test_rows_are_the_suites(self):
        assert readme_suites(README.read_text()) == self.SUITES

    def test_a_changed_source_fails(self):
        text = README.read_text()
        changed = text.replace("| 1e-10 | `fixed` |", "| 1e-10 | `eta^2 rate` |", 1)
        assert changed != text
        assert readme_suites(changed) != self.SUITES


# the exit-code table as README.md and the cli docstring state it
DOCUMENTED_EXIT_CODES = [
    (ValueError, 2),
    (EllipticError, 2),
    (ClusterAmbiguityError, 3),
    (ConvergenceError, 3),
    (np.linalg.LinAlgError, 3),
    (OverflowError, 3),
    (FloatingPointError, 3),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["edges", "--ell", "-1"],
            ["spectrum", "--ell", "0", "--eta", "1/31"],
            ["verify", "--ell", "-1"],
            ["curve-point", "--ell", "0", "--fix-E", "1.0"],
            ["coeffs", "--ell", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_ell_below_one_is_one_error_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: ValueError: --ell must be >= 1, got {argv[2]}\n"

    def test_linalg_error_exits_3(self, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, the class of invalid parameters;
        # the empty point-SVD cache makes the request reach the SVD
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        empty_caches()
        monkeypatch.setattr(np.linalg, "svd", boom)
        assert main(["curve-point", "--ell", "2", "--fix-zeta", "0.31+0.07i"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LinAlgError: SVD did not converge\n"

    def test_unmapped_exception_propagates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli.curve_mod, "curve_coeffs", boom)
        with pytest.raises(RuntimeError):
            main(["coeffs", "--ell", "2"])


# one argv per command, and some with every kind of flag
PARSE_ARGVS = [
    ["edges", "--ell", "2"],
    ["edges", "--ell=3", "--tau=-0.4+0.9i", "--eta", "1/31", "--tol", "1e-10", "--seed", "4"],
    ["spectrum", "--ell", "1", "--eta", "1/31", "--kpoints", "5", "--format", "csv"],
    ["verify"],
    ["verify", "--suite", "cj-limit", "--ell", "4", "--config", "run.cfg"],
    ["flow", "--poles", "0.21+0.05i", "--t-end", "0.3", "--dt", "0.1"],
    ["curve-point", "--ell", "2", "--fix-E", "1.6+0.4i", "--seed-K", "0.5"],
    ["coeffs", "--ell", "12", "--eta", "0.17"],
]


class TestArgvParsing:
    """A command's own parser reads its arguments; the top-level parser is
    left for usage, -h and unknown commands."""

    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: argv[0])
    def test_command_parser_reads_as_the_top_level_one(self, argv):
        ap, commands = cli.build_parser()
        got = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        assert vars(got) == vars(ap.parse_args(argv))

    def test_argv_is_read_once(self, capsys, monkeypatch):
        progs = []
        real = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            progs.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        code, _ = run_cli(capsys, "coeffs", "--ell", "2")
        assert code == 0
        assert progs == ["lame-spectra coeffs"]

    @pytest.mark.parametrize("argv,prog,message", [
        ([], "lame-spectra", "the following arguments are required: command"),
        (["bogus"], "lame-spectra", "argument command: invalid choice: 'bogus'"),
        (["--ell", "2", "edges"], "lame-spectra", "argument command: invalid choice: '2'"),
        (["edges", "--ell", "2", "--foo"], "lame-spectra", "unrecognized arguments: --foo"),
        (["edges", "--ell", "2", "extra", "--foo"], "lame-spectra", "unrecognized arguments: extra --foo"),
        (["flow", "--ell", "1", "--poles", "0.21+0.05i"], "lame-spectra", "unrecognized arguments: --ell 1"),
        (["edges"], "lame-spectra edges", "the following arguments are required: --ell"),
        (["edges", "--ell", "2", "--tau", "-0.4+0.9i"], "lame-spectra edges",
         "argument --tau: expected one argument"),
    ])
    def test_errors_name_the_parser_that_reads_them(self, capsys, argv, prog, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]")
        assert f"\n{prog}: error: {message}" in err

    @pytest.mark.parametrize("argv,prog", [(["-h"], "lame-spectra"), (["edges", "--ell", "1", "-h"], "lame-spectra edges")])
    def test_help(self, capsys, argv, prog):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {prog} [-h]")


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

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_one_error_line(self, capsys, tmp_path, kind):
        path = tmp_path / "missing.cfg" if kind == "missing" else tmp_path
        code = main(["edges", "--ell", "1", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: ValueError: cannot read config file {str(path)!r}")
        assert len(captured.err.splitlines()) == 1

    def test_unknown_format_is_one_error_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code = main(["coeffs", "--ell", "1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: ValueError: format must be one of json, csv, got 'xml'\n"

    @pytest.mark.parametrize("line,key", [("seed = 1.5", "seed"), ("tol = abc", "tol")])
    def test_bad_value_names_key_and_file(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"eta = 0.23\n{line}\n")
        code = main(["coeffs", "--ell", "1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        value = line.partition("=")[2].strip()
        assert captured.err.startswith(
            f"error: ValueError: bad value {value!r} for key {key!r} in config file {str(cfg)!r}: "
        )
        assert len(captured.err.splitlines()) == 1

    def test_unknown_key_is_one_error_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a typo of eta\netta = 0.5\n")
        code = main(["edges", "--ell", "1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: ValueError: unknown key 'etta' in config file {str(cfg)!r}; "
            "accepted keys: eta, tau, tol, seed, format\n"
        )


SERVED_DOMAIN = _smoke.served_domain(README.read_text())
CELLS = {**_smoke.CELLS, **SERVED_DOMAIN}
UNNAMED_WARNING = pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                                    reason="README marker w: C_j beyond the double range (ROADMAP item 28)")


def run_cell(capsys, cell):
    """Run one cell as one lame-spectra process: on empty module caches, with
    every warning an error but those the cell names; then assert its exit
    code and its check."""
    empty_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for message in cell.warns:
            warnings.filterwarnings("ignore", message, RuntimeWarning)
        try:
            code = main(cell.argv.split())
        except RuntimeWarning as warning:
            # raised again from here: reporting the full traceback takes ~0.15 s a cell
            raise RuntimeWarning(f"{cell.argv}: {warning}") from None
    captured = capsys.readouterr()
    assert code == cell.code, captured.err
    if cell.check is not None:
        cell.check(captured.out, captured.err)


class TestSmokeTable:
    """Each cell of ``_smoke.CELLS`` and of the README's served-domain table
    runs through ``run_cell``."""

    @pytest.mark.parametrize("name", [pytest.param(name, marks=UNNAMED_WARNING if cell.marked else ())
                                      for name, cell in CELLS.items()])
    def test_cell(self, capsys, name):
        run_cell(capsys, CELLS[name])

    def test_served_domain_size(self):
        # a parser that silently reads fewer rows or columns fails here
        commands = [cell.argv.split()[0] for cell in SERVED_DOMAIN.values()]
        assert {c: commands.count(c) for c in set(commands)} == {
            "edges": 105, "coeffs": 105, "curve-point": 70, "spectrum": 30, "verify": 70}
        assert len({cell.argv.split(" --eta ")[1] for cell in SERVED_DOMAIN.values()}) == 35
        assert len(SERVED_DOMAIN) == 380 and len(CELLS) == len(_smoke.CELLS) + 380
        assert sum(cell.marked for cell in SERVED_DOMAIN.values()) == 3

    @pytest.mark.parametrize("old,new,name", [
        ("| 1.2i | 1/3 | 0/2/2 |", "| 1.2i | 1/3 | 0/0/2 |", "edges-3-1.2i-1/3"),
        ("| 0.15i | 0.17 | 0/0/0 | 0/0/0 | 0/0 | - | 1: 2 (cauchy) |",
         "| 0.15i | 0.17 | 0/0/0 | 0/0/0 | 0/0 | - | 1: 2 (schur) |", "verify-1-0.15i-0.17"),
        ("| 0.15i | 0.17 | 0/0/0 | 0/0/0 | 0/0 | - | 1: 2 (cauchy) |",
         "| 0.15i | 0.17 | 0/0/0 | 0/0/0 | 0/0 | - | 1: 0.2 (cauchy) |", "verify-1-0.15i-0.17"),
        ("| 3i | 1/3 | 0/2/2 | 0/0/2 | 2/2 | 0/2/2 | 2: TorsionEtaError |",
         "| 3i | 1/3 | 0/2/2 | 0/0/2 | 2/2 | 0/2/2 | 2: ValueError |", "verify-1-3i-1/3"),
    ], ids=["code", "suite", "ratio", "error-class"])
    def test_a_changed_entry_fails(self, capsys, old, new, name):
        # the README with one entry changed: the cell it names fails
        text = README.read_text()
        assert text.count(old) == 1
        with pytest.raises(AssertionError):
            run_cell(capsys, _smoke.served_domain(text.replace(old, new))[name])
