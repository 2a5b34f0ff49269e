"""Spectral curves, band edges, double-Bloch eigenfunctions and Volterra
pole dynamics for the difference Lame operator with elliptic coefficients.

The package re-exports the ``__all__`` of ``theta``, ``enumbers``, ``lame``,
``curve`` and ``bloch``: each module's list is the only list of its public
names.  The Volterra module loads on first use: its names resolve through
the module ``__getattr__`` (PEP 562), so ``import lame_spectra`` does not
import ``lame_spectra.volterra``.
"""

from .theta import *
from .enumbers import *
from .lame import *
from .curve import *
from .bloch import *
from . import errors

# volterra.__all__, named here because the lazy load needs them before the
# module is imported
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
