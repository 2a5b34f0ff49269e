"""The CLI smoke table: one cell per ``lame-spectra`` command that the tests
pin, with its exit code, the warnings it may raise and a check of its stdout
and stderr; and ``served_domain``, which reads the README's "Served domain"
table into cells of the same kind.  ``test_cli.py::TestSmokeTable`` runs each
cell of both, and ``test_reach.py``'s production pass runs every argv of
``CELLS``.

Nothing from ``lame_spectra`` is imported at the top, so the reach probe can
read the table before it puts the package under test on the path; a check
imports what it reads.
"""

import cmath
import json
import re
from typing import Callable, NamedTuple, Optional


class Cell(NamedTuple):
    argv: str
    code: int = 0
    # check(stdout, stderr) asserts what the exit code does not
    check: Optional[Callable] = None
    # message patterns of the RuntimeWarnings the run may raise
    warns: tuple = ()
    # marked w in the README: the run raises a RuntimeWarning it does not name
    # before it reaches its code, and is a strict xfail until that is mended
    marked: bool = False


def refused(pattern: str) -> Callable:
    """Nothing on stdout, and stderr one line that matches ``error: <pattern>``
    from its start: no traceback and no usage text."""
    def check(out, err):
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (out, err)
        assert re.match(rf"error: {pattern}", err), err
        assert "Traceback" not in err and "usage:" not in err
    return check


def verify_report_shape(doc: dict) -> None:
    """A ``verify --suite all`` document: every suite, one error and one bound
    per draw, and verdicts that follow the errors and bounds."""
    from lame_spectra import verify

    assert set(doc["suites"]) == set(verify.SUITES)
    for name, r in doc["suites"].items():
        assert set(r) == {"rel_errors", "bounds", "bound_source", "max_rel_error", "passed"}
        assert len(r["rel_errors"]) == len(r["bounds"]) > 0
        assert r["bound_source"] == verify.SUITES[name][1]
        assert r["max_rel_error"] == max(r["rel_errors"])
        assert r["passed"] == all(e <= b for e, b in zip(r["rel_errors"], r["bounds"]))
    assert doc["all_passed"] == all(r["passed"] for r in doc["suites"].values())


def all_suites_pass(out, err):
    doc = json.loads(out)
    verify_report_shape(doc)
    assert doc["all_passed"]


def cauchy_at_ell_7(out, err):
    # the Cauchy determinant's condition number grows with its size n: each
    # draw is held to 10 n eps kappa, at most 4e-9 at ell 1-12
    all_suites_pass(out, err)
    r = json.loads(out)["suites"]["cauchy"]
    assert len(r["rel_errors"]) == len(r["bounds"]) == 8 and max(r["bounds"]) <= 1e-6


def point_holds(coordinate: str, value: str) -> Callable:
    """Both scaled residuals below 1e-11, and the held coordinate echoed exactly."""
    def check(out, err):
        doc = json.loads(out)
        assert max(doc["scaled_residual"]) < 1e-11 and doc["point"][coordinate] == value
        assert "B1" in doc["bloch_multipliers"]
    return check


def on_the_curve_at_800i(out, err):
    # the residue matrix is formed from theta1(k eta) ratios, not products of
    # two theta1 values, which underflow here; the Bloch relation, which does
    # not read the residue matrix, holds the point to the curve
    import numpy as np

    from lame_spectra import curve
    from lame_spectra.theta import EllipticParams, ThetaEvaluator
    from lame_spectra.util import parse_complex

    assert "Traceback" not in err
    p = {k: parse_complex(v) for k, v in json.loads(out)["point"].items()}
    ev = ThetaEvaluator(EllipticParams(tau=800j, eta=0.17))
    t = curve._bloch_terms(p["zeta"], p["K"], curve.curve_coeffs(3, ev), ev)
    assert abs(t.sum()) / np.abs(t).sum() < 1e-12


def counts_ok(out, err):
    assert json.loads(out)["counts_ok"] is True


def closed_forms_within(bound: float) -> Callable:
    """No label's count is off (a null deviation) and every edge meets its closed form within ``bound``."""
    def check(out, err):
        dev = list(json.loads(out)["closed_form_deviation"].values())
        assert None not in dev and max(dev) < bound, dev
    return check


def closed_forms_missed(out, err):
    # the counts hold but the edges miss the closed forms by more than their
    # 1e-9 pin: the report is printed, with no error line
    doc = json.loads(out)
    assert doc["counts_ok"] is True and max(doc["closed_form_deviation"].values()) > 1e-9
    assert "error: " not in err and "Traceback" not in err


def edge_basis_underflow(out, err):
    # beyond Im(tau) ell = 450.98 the weakest basis column's squared weight,
    # exp(-pi Im(tau) ell/2), is not a normal double
    from lame_spectra import curve

    refused("ValueError: ")(out, err)
    bound = re.escape(f"{curve.EDGE_BASIS_MAX_IM_TAU_ELL:.2f}")
    assert re.fullmatch(r"error: ValueError: the edge basis underflows where pi Im\(tau\) ell/2 > -ln\(DBL_MIN\), "
                        rf"that is Im\(tau\) ell > {bound}; got Im\(tau\) ell = \d+\n", err)


def bands_are_confident_edges(out, err):
    # one pass over the two edge spectra: the band ends are the confident
    # edges exactly, within 1e-12 of max|E| of the analytic ones
    from lame_spectra.util import parse_complex

    doc = json.loads(out)
    edges = sorted(parse_complex(v).real for v, ok in zip(doc["numeric_edges"], doc["confident"]) if ok)
    assert sorted(x for band in doc["bands"] for x in band) == edges and doc["counts_ok"] is True
    assert doc["max_deviation"] <= 1e-12 * max(abs(parse_complex(v)) for v in doc["analytic_edges"])


def one_line_report(out, err):
    # one line of compact JSON, and every C_j reads back through parse_complex
    from lame_spectra.util import parse_complex

    doc = json.loads(out)
    assert out.endswith("\n") and out.count("\n") == 1
    assert len([parse_complex(c) for c in doc["C"]]) == doc["N"] + 1


def one_pole_closed_form(out, err):
    # one pole moves at the constant velocity theta1(2 eta)/theta1'(0); a grid
    # time that ends the flow's one step comes from its dense output
    from lame_spectra.theta import EllipticParams, ThetaEvaluator, theta, theta1_prime
    from lame_spectra.util import parse_complex

    trajectory = json.loads(out)["trajectory"]
    ev = ThetaEvaluator(EllipticParams(tau=1.2j, eta=0.17))
    want = 0.21 + 0.05j + 0.3 * theta(1, 0.34, ev) / theta1_prime(0.0, ev)
    assert len(trajectory) == 4 and trajectory[-1]["t"] == 0.3
    assert abs(parse_complex(trajectory[-1]["poles"][0]) - want) <= 1e-12


def on_locus(out, err):
    assert json.loads(out)["max_locus_gap"] < 1e-6


def on_locus_with_margin(out, err):
    on_locus(out, err)
    assert json.loads(out)["min_margin"] > 1e-6


# on-locus pole sets (find_locus_config, seed 0, to 17 digits): M 3 at
# tau 1.2i, eta 1/31, and M 6 at tau 1.2i, eta 0.17
M3 = ("0.16872746398623609+0.99464370409188785i,-0.33737964779659291-1.1981880545449302i,"
      "0.16865218381035685+0.20354435045304228i")
M6 = ("0.12997303007999533+0.30802139649545723i,0.12997303010299488-0.29197860351231497i,"
      "0.06489896120739358-2.1105105642184818i,-0.19487199129467811+0.30248916772363621i,"
      "-0.93510103881219242+2.0894894357889662i,0.80512800871648671-0.29751083227726305i")
OFF_AXIS = "--tau 0.3+1.4i --eta 0.11+0.05i"
UNSUMMABLE = ("--tau 1e-20i", "--tau 1e-300i", "--tau 1e-320i", "--tau 1000i", "--tol 1e300")

CELLS = {
    # at ell 1 the C_j are the binomials exactly; at ell 7, seed 1 schur has a draw near a zero of rhs
    **{f"verify-all-{ell}": Cell(f"verify --suite all --ell {ell}", check=all_suites_pass) for ell in ("1", "3")},
    "verify-all-7": Cell("verify --suite all --ell 7", check=cauchy_at_ell_7),
    "verify-all-7-seed-1": Cell("verify --suite all --ell 7 --seed 1", check=all_suites_pass),
    "verify-all-12-off-axis": Cell(f"verify --suite all --ell 12 {OFF_AXIS}", check=all_suites_pass),
    "verify-cauchy-6-off-axis": Cell(f"verify --suite cauchy --ell 6 {OFF_AXIS}"),
    # cj-limit's ladder starts where the eta^2 term dominates, at small Im tau too
    **{f"verify-cj-limit-{tau}": Cell(f"verify --suite cj-limit --ell 3 --tau {tau}")
       for tau in ("0.15i", "0.08i", "0.5+0.1i")},
    # points seeded from the residue matrix keep the curve's symmetries off the axis and at ell 8, small eta
    "verify-curve-symmetry-6-off-axis": Cell(f"verify --suite curve-symmetry --ell 6 {OFF_AXIS}"),
    "verify-curve-symmetry-8-1/31": Cell("verify --suite curve-symmetry --ell 8 --eta 1/31"),
    "verify-cj-symmetry-12": Cell("verify --suite cj-symmetry --ell 12 --eta 0.17"),
    "verify-theta-monodromy-off-axis": Cell("verify --suite theta-monodromy --tau 0.3+1.4i"),
    # the quasi-period factor leaves the double range from Im tau about 226:
    # its NaN error reaches the report, which is withheld
    "verify-theta-monodromy-250i": Cell(
        "verify --suite theta-monodromy --tau 250i", 3,
        refused(r"FloatingPointError: suites\.theta-monodromy\.rel_errors\[0\] is not finite; the report is withheld$"),
        ("overflow encountered in exp", "invalid value encountered in (scalar )?multiply")),

    "curve-point-fix-zeta": Cell("curve-point --ell 2 --fix-zeta 0.31+0.07i", check=point_holds("zeta", "0.31+0.07i")),
    "curve-point-fix-E": Cell("curve-point --ell 2 --fix-E 1.6+0.4i", check=point_holds("E", "1.6+0.4i")),
    # the seed walks zeta into the lattice point 0 and stops there
    "curve-point-pole-stop": Cell("curve-point --ell 2 --fix-E 2 --seed-zeta 0.05+0.02i --seed-K 0.5", 3,
                                  refused("ConvergenceError: .*a pole of the residue matrix")),
    # B1 = K^(1/eta) at eta 1e-6
    "curve-point-B1-overflow": Cell("curve-point --ell 8 --eta 1e-6 --tau 1.2i --fix-zeta 0.31+0.07i", 3,
                                    refused(r"OverflowError: B1 = exp\(.+\) is outside the double range$")),
    "curve-point-3-800i": Cell("curve-point --ell 3 --fix-zeta 0.31+0.07i --tau 800i", check=on_the_curve_at_800i),

    # the C_j overflow from C_7 on, and no report holds a NaN or an inf
    "coeffs-8-non-finite": Cell("coeffs --ell 8 --eta 0.17+0.6i --tau 1.2i", 3,
                                refused(r"FloatingPointError: C\[7\] is not finite; the report is withheld$"),
                                ("overflow encountered", "invalid value encountered")),
    "coeffs-12": Cell("coeffs --ell 12 --eta 0.17", check=one_line_report),
    "coeffs-21": Cell("coeffs --ell 21", 2, refused("ValueError: C_j subset sums need ell <= 20, got ell=21")),

    # a theta1(k eta) table that leaves the double range (from k = 15) is refused at every ell
    **{f"edges-{ell}-theta1-overflow": Cell(f"edges --ell {ell} --eta 0.1+1.1i --tau 1.2i", 3,
                                            refused(r"OverflowError: theta1\(k\*eta\) is outside the double range"))
       for ell in (8, 1)},
    "edges-2-1e-3i": Cell("edges --ell 2 --eta 0.17 --tau 1e-3i", 3, closed_forms_missed),
    # the edges are eigenvalues of L on the four even theta spaces: the counts
    # hold at large ell, small eta, off the axis, and where common roots of
    # edge polynomials over-counted (eta 0.155679)
    **{f"edges-{args.split()[1]}-{args.split()[3]}": Cell(f"edges {args}", check=counts_ok)
       for args in ("--ell 3 --eta 0.17", "--ell 10 --eta 0.17", "--ell 6 --eta 1/61",
                    "--ell 10 --eta 0.155679 --tau 1.2i")},
    "edges-7-off-axis": Cell(f"edges --ell 7 {OFF_AXIS}", check=counts_ok),
    "edges-2-torsion": Cell("edges --ell 2 --eta 1/3", 2, refused(r"TorsionEtaError: \[3\] ~ 0")),
    "edges-2": Cell("edges --ell 2 --eta 0.17", check=closed_forms_within(1e-9)),
    "edges-2-off-axis": Cell("edges --ell 2 --eta 0.11+0.05i --tau 0.3+1.4i", check=closed_forms_within(1e-9)),
    # the closed forms do not cancel as eta -> 0 ([2]^4 - 8[4]/[2] missed by 2e-12)
    "edges-2-1/101": Cell("edges --ell 2 --eta 1/101 --tau 1.2i", check=closed_forms_within(1e-14)),
    # a bad flag value is refused as a bad config-file value is, and so is a
    # theta series the evaluator cannot sum (above its 1000-term ceiling, a
    # theta1'(0) that underflows, a tail target tol/100 not below 1)
    **{f"edges-2-{flag[2:].replace(' ', '-')}": Cell(f"edges --ell 2 {flag}", 2, refused("ValueError: "))
       for flag in ("--tau 1", "--tau nan", "--format xml", "--tol abc", *UNSUMMABLE)},
    # the edge basis is served up to Im(tau) ell = 450.98
    "edges-12-37i": Cell("edges --ell 12 --tau 37i", check=counts_ok),
    "edges-12-38i": Cell("edges --ell 12 --tau 38i", 2, edge_basis_underflow),

    # even Q (two solves) and odd Q (one solve and its reflection)
    **{f"spectrum-{args.split()[1]}-{args.split()[3]}": Cell(f"spectrum {args}", check=bands_are_confident_edges)
       for args in ("--ell 1 --eta 1/31", "--ell 4 --eta 1/61 --tau 1.2i", "--ell 2 --eta 1/60",
                    "--ell 4 --eta 3/101")},
    "spectrum-csv": Cell("spectrum --ell 1 --eta 1/31 --format csv --kpoints 5"),
    # Re tau != 0 takes the general eigen-solve and ends in the non-real guard
    "spectrum-off-axis": Cell("spectrum --ell 1 --eta 1/31 --tau 0.3+1.4i", 3,
                              refused("ClusterAmbiguityError: spectrum is not numerically real")),

    "flow-M1": Cell("flow --poles 0.21+0.05i"),
    "flow-M1-closed-form": Cell("flow --poles 0.21+0.05i --t-end 0.3 --dt 0.1", check=one_pole_closed_form),
    # {eta, 0, -eta} sits on the singular set
    "flow-degenerate": Cell("flow --poles 0.17,0,-0.17 --eta 0.17", 4,
                            refused("MarginViolationError: pole differences within")),
    "flow-off-locus": Cell("flow --poles 0.1,0.47+0.21i,-0.29+0.4i --eta 0.17", 4,
                           refused("LocusError: configuration is off-locus")),
    # through the pair tables of every Dormand-Prince stage and snapshot batch
    "flow-M3": Cell(f"flow --eta 1/31 --tau 1.2i --poles {M3}", check=on_locus_with_margin),
    # a t_end/dt 200 grid, as JSON and as CSV (TestFlowCommand compares the two)
    "flow-M3-grid200": Cell(f"flow --eta 1/31 --tau 1.2i --t-end 0.2 --dt 0.001 --poles {M3}"),
    "flow-M3-grid200-csv": Cell(f"flow --eta 1/31 --tau 1.2i --t-end 0.2 --dt 0.001 --poles {M3} --format csv"),
    # fixed-step RK4 at dt 0.01 halted on its own truncation error here
    "flow-M6": Cell(f"flow --eta 0.17 --tau 1.2i --poles {M6}", check=on_locus),
}


# ---------------------------------------------------------------------------
# the README's "Served domain" table

def _report_numbers(value):
    """Every number of a parsed report: its floats and ints, and its strings that parse as complex."""
    from lame_spectra.util import parse_complex

    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _report_numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value
    elif isinstance(value, str):
        try:
            yield parse_complex(value)
        except ValueError:  # not a number
            pass


def worst_draw(ratio: str, suite: str) -> Callable:
    """A ``verify --suite all`` report whose largest error/bound of any draw
    is in ``suite``, and reads ``ratio`` to one significant digit (any, if
    ``ratio`` is empty)."""
    def check(out, err):
        doc = json.loads(out)
        verify_report_shape(doc)
        worst = {name: max(e / b for e, b in zip(r["rel_errors"], r["bounds"])) for name, r in doc["suites"].items()}
        top = max(worst, key=worst.get)
        assert top == suite and ratio in ("", f"{worst[top]:.1g}"), worst
    return check


def _grid_cell(argv: str, entry: str, overflow_row: bool) -> Cell:
    code, mark, detail = re.fullmatch(r"(\d)(w?)(?:: (.+))?", entry).groups()
    code = int(code)
    if detail is None:
        detail_check = None
    elif code <= 1:
        ratio, _, suite = detail.rpartition(" ")
        detail_check = worst_draw(ratio, suite.strip("()"))
    else:
        detail_check = refused(re.escape(detail) + ": ")

    def check(out, err):
        if code == 0:
            numbers = list(_report_numbers(json.loads(out)))
            assert numbers and all(cmath.isfinite(v) for v in numbers), out
        if overflow_row:
            assert out == ""
            assert re.fullmatch(r"error: OverflowError: theta1\(k\*eta\) is outside the double range "
                                r"from k = \d+ at eta = \S+, tau = \S+\n", err), err
        if detail_check is not None:
            detail_check(out, err)
    return Cell(argv, code, check, marked=bool(mark))


def served_domain(readme: str) -> dict:
    """The cells of the README's "Served domain" table, by command, ell, tau
    and eta.  A column's head is a command whose ``--ell a/b/c`` splits the
    column's entries, and each cell adds its row's ``--eta`` and ``--tau``; a
    row whose entries with a detail all read ``3: OverflowError`` holds every
    cell to the theta1(k*eta) overflow line."""
    table = re.search(r"^### Served domain\n(?s:.*?)^(\|.*\|)\n\|[-|]+\|\n((?:\|.*\|\n)+)", readme, re.M)
    def split(line):
        return [c.strip(" `") for c in line.strip("|").split("|")]

    head = split(table[1])
    assert head[:2] == ["tau", "eta"], head
    cells = {}
    for line in table[2].splitlines():
        tau, eta, *entries = split(line)
        assert len(entries) == len(head) - 2, line
        row = []
        for command, column in zip(head[2:], entries):
            prefix, ells = re.fullmatch(r"(.+) --ell ([\d/]+)", command).groups()
            ells = ells.split("/")
            if column != "-":
                codes = column.split("/") if len(ells) > 1 else [column]
                assert len(codes) == len(ells), (line, command)
                row += [(f"{prefix.split()[0]}-{ell}-{tau}-{eta}", f"{prefix} --ell {ell} --eta {eta} --tau {tau}", code)
                        for ell, code in zip(ells, codes)]
        details = [entry for *_, entry in row if ":" in entry]
        overflow_row = bool(details) and all(entry == "3: OverflowError" for entry in details)
        for name, argv, entry in row:
            cells[name] = _grid_cell(argv, entry, overflow_row)
    return cells
