"""Spectral curves, band edges, double-Bloch eigenfunctions and Volterra
pole dynamics for the difference Lame operator with elliptic coefficients."""

from .theta import EllipticParams, ThetaEvaluator, theta, theta1_prime, theta_halfshift, weierstrass_p
from .enumbers import ebracket, ebinom, efactorial, qnumber
from .lame import (
    BlochCoeffs,
    CurvePoint,
    LameContext,
    apply_L,
    apply_Ltilde,
    apply_W,
    build_M,
    build_psi,
    build_Psi,
    gauge_factor,
    phi,
    residual,
    scaled_residual,
    solve_bloch_coeffs,
    w_eigenvalue,
)
from .curve import (
    BandEdgeSet,
    CurveCoeffs,
    a_polys_determinant,
    a_polys_recurrence,
    band_edges,
    bloch_relation,
    bloch_relation_det,
    cauchy_det,
    closed_form_edges,
    curve_coeffs,
    curve_equations,
    edge_curve_points,
    random_curve_points,
    solve_curve_point,
    weyl_denominator_check,
)
from .bloch import (
    EdgeCandidates,
    RationalEta,
    band_intervals,
    band_sweep,
    numeric_band_edges,
)
from .volterra import (
    FlowResult,
    LocusReport,
    PoleConfig,
    c_from_poles,
    degenerate_poles,
    find_locus_config,
    integrate_flow,
    locus_residual,
    pole_rhs,
    volterra_rhs_c,
)
from . import errors

__version__ = "0.1.0"
