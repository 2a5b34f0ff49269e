"""Spectral curves, band edges, double-Bloch eigenfunctions and Volterra
pole dynamics for the difference Lame operator with elliptic coefficients.

The Volterra module loads on first use: its names below resolve through the
module ``__getattr__`` (PEP 562), so ``import lame_spectra`` does not import
``lame_spectra.volterra``.
"""

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
from . import errors

_VOLTERRA_NAMES = (
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

# every name bound above but the submodules, then the Volterra names
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, type(errors))]
__all__ += [*_VOLTERRA_NAMES, "errors"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _VOLTERRA_NAMES:
        from . import volterra

        return getattr(volterra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
