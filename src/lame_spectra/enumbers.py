"""Elliptic integers [n] = theta1(n*eta)/theta1(eta), factorials, binomials.

[n] deforms the integer n: [1] = 1, [-n] = -[n], and [n] -> n as eta -> 0.
In the trigonometric limit Im tau -> +inf, [j] -> sin(pi*eta*j)/sin(pi*eta),
the symmetric q-number with q = exp(2i*pi*eta).

Three eta-only tables belong to the parameters (tau, eta, tol): every
evaluator built with equal parameters reads the one holder of
``_eta_tables``, a bounded module cache keyed by ``EllipticParams``.  Each
is a tuple indexed by k that grows only when a read needs a larger k, by
replacing the stored tuple, never by changing one (so threads can share a
holder):

    theta1(k*eta)  one batched theta call per fixed chunk of THETA_CHUNK k;
    [k]            the Python division theta1(k*eta)/theta1(eta);
    [k]!           the left-to-right Python product [1][2]...[k].

So ``ebracket`` and ``efactorial`` are lookups, ``ebinom`` is three lookups
and one division, and a request at parameters met before computes none of
them again.  [k] and [k]! are bit for bit their direct sequential
computation from the theta1 table.  A theta1 value can depend in its last
bits on the call it is summed in, whose largest |Im k*eta| sets the
cutoff; the chunks are fixed ranges of k, so every entry comes from the same
call whatever the order of the reads, and the tables do not depend on the
requests served before.  On real eta, and on the |Im eta| <= 0.06 of the
verify cells and the benchmark, the chunked table is the one-shot table bit
for bit (tests pin this).  A chunk with a non-finite entry (a large Im eta
against Im tau, such as eta = 0.1+1.1i at tau = 1.2i from k = 15) is
refused, not stored, so no request reads a table that overflowed.

Every division by a bracket is guarded, since a vanishing bracket means eta
is a torsion point and all the curve formulas downstream become singular.
The factorial table applies the guard of ``nonzero_bracket`` to each entry
as it is added; a growth that meets a vanishing bracket raises and stores
nothing, so every read that needs that entry raises again.
"""

import functools

import numpy as np

from .errors import TorsionEtaError
from .theta import EllipticParams, ThetaEvaluator, theta
from .util import format_complex

__all__ = ["theta1_multiples", "ebracket", "nonzero_bracket", "efactorial", "ebinom", "qnumber"]

# entries per growth of the theta1(k*eta) table: k = 0..23 covers the 2l + 2
# that a curve context reads, for every l <= 10, in one theta call
THETA_CHUNK = 24

# eta-table holders kept by _eta_tables, least recently used dropped first
_ETA_TABLES_MAX = 64


class _EtaTables:
    """The eta-only tables of one ``EllipticParams``: theta1(k*eta), [k] and
    [k]!, each a tuple indexed by k, grown by storing a longer tuple in its
    place."""

    __slots__ = ("theta1_multiples", "brackets", "factorials")

    def __init__(self):
        self.theta1_multiples = ()
        self.brackets = (0j, 1 + 0j)
        self.factorials = (1 + 0j, 1 + 0j)


@functools.lru_cache(maxsize=_ETA_TABLES_MAX)
def _eta_tables(params: EllipticParams) -> _EtaTables:
    """The one table holder of ``params``, read by every evaluator built with them."""
    return _EtaTables()


def theta1_multiples(n: int, ev: ThetaEvaluator) -> tuple:
    """theta1(k*eta) for k = 0..n (the table may hold more entries).

    The table grows by whole chunks of THETA_CHUNK entries, k = c*THETA_CHUNK
    up to (c + 1)*THETA_CHUNK - 1, one theta call per chunk, so each entry
    comes from the same call whatever was read before.  It only grows, and by
    replacement: a stored tuple is never changed, so a reader always sees a
    consistent table.  A chunk with an entry outside the double range raises
    OverflowError, naming its first such k, instead of a RuntimeWarning, and
    is not stored, so every read that needs it raises again.
    """
    tables = _eta_tables(ev.params)
    table = tables.theta1_multiples
    while len(table) <= n:
        k = np.arange(len(table), len(table) + THETA_CHUNK)
        with np.errstate(over="ignore", invalid="ignore"):
            chunk = theta(1, k * ev.eta, ev)
        finite = np.isfinite(chunk)
        if not finite.all():
            raise OverflowError(f"theta1(k*eta) is outside the double range from k = {k[~finite][0]} "
                                f"at eta = {format_complex(ev.eta)}, tau = {format_complex(ev.tau)}")
        table = tables.theta1_multiples = table + tuple(chunk.tolist())
    return table


def _brackets(n: int, ev: ThetaEvaluator) -> tuple:
    """[k] for k = 0..n (the table may hold more entries); starts as ([0], [1])."""
    tables = _eta_tables(ev.params)
    table = tables.brackets
    if len(table) <= n:
        t = theta1_multiples(n, ev)
        if abs(t[1]) < ev.zero_threshold:
            raise TorsionEtaError(f"theta1(eta) ~ 0 for eta={ev.eta}: eta on the lattice")
        table = tables.brackets = table + tuple(t[k] / t[1] for k in range(len(table), n + 1))
    return table


def ebracket(n: int, ev: ThetaEvaluator) -> complex:
    """Elliptic integer [n].  [0] = 0 exactly; [1] = 1 exactly."""
    m = abs(n)
    val = _brackets(m, ev)[m]
    return -val if n < 0 else val


def nonzero_bracket(n: int, ev: ThetaEvaluator) -> complex:
    """[n] for use as a divisor: TorsionEtaError if |[n]| < tol."""
    val = ebracket(n, ev)
    if abs(val) < ev.tol:
        raise TorsionEtaError(f"[{n}] ~ 0 for eta={ev.eta}: torsion point of order {n}")
    return val


def _factorials(n: int, ev: ThetaEvaluator) -> tuple:
    """[k]! for k = 0..n (the table may hold more entries); starts as ([0]!, [1]!).
    A growth reads its brackets first, so the theta table grows by one call."""
    tables = _eta_tables(ev.params)
    table = tables.factorials
    if len(table) <= n:
        _brackets(n, ev)
        out = list(table)
        for j in range(len(out), n + 1):
            out.append(out[-1] * nonzero_bracket(j, ev))
        table = tables.factorials = tuple(out)
    return table


def efactorial(n: int, ev: ThetaEvaluator) -> complex:
    """[n]! = [1][2]...[n]; empty product for n = 0."""
    if n < 0:
        raise ValueError(f"elliptic factorial needs n >= 0, got {n}")
    return _factorials(n, ev)[n]


def ebinom(n: int, m: int, ev: ThetaEvaluator) -> complex:
    """Elliptic binomial [n]! / ([m]! [n-m]!), for 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    f = _factorials(n, ev)
    return f[n] / (f[m] * f[n - m])


def qnumber(j: int, q: complex) -> complex:
    """Symmetric q-integer (j)_q = (q^(j/2) - q^(-j/2)) / (q^(1/2) - q^(-1/2))."""
    if j == 0:
        return 0j
    num = q ** (j / 2) - q ** (-j / 2)
    den = q**0.5 - q**-0.5
    if abs(den) == 0:
        raise ZeroDivisionError("q = 1 has no symmetric q-numbers")
    return num / den
