"""Structured errors raised by the numerical core.

Every guard that would otherwise return a huge or meaningless number raises
one of these instead, so callers can tell "at a pole" apart from "near a
pole" and a torsion lattice spacing apart from a plain bug.
"""


class EllipticError(Exception):
    """Base class for all structured numerical errors in this package."""


class PoleProximityError(EllipticError):
    """A theta-function denominator is smaller than the working tolerance."""


class TorsionEtaError(EllipticError):
    """An elliptic integer [n] needed in a denominator vanishes: the lattice
    spacing eta is (numerically) a torsion point."""


class ConsistencyError(EllipticError):
    """Two redundant evaluation routes disagree beyond tolerance, e.g. a
    half-period identity or the eigenvalue-ratio spread of a joint
    eigenfunction."""


class ConvergenceError(EllipticError):
    """An iterative solve failed. ``reason`` is 'max-iter', 'singular-jacobian'
    or 'pole', so branch points and lattice poles can be told apart from
    plain non-convergence."""

    def __init__(self, message, reason="max-iter"):
        super().__init__(message)
        self.reason = reason


class MarginViolationError(EllipticError):
    """A pole-configuration difference hit the singular set {0, +-eta,
    +-2eta} modulo the period lattice."""


class LocusError(EllipticError):
    """A pole configuration is not on the Volterra locus (the two residue
    systems disagree). Carries the offending gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class ClusterAmbiguityError(EllipticError):
    """Root or eigenvalue clustering could not decide multiplicities."""
