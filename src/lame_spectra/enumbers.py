"""Elliptic integers [n] = theta1(n*eta)/theta1(eta), factorials, binomials.

[n] deforms the integer n: [1] = 1, [-n] = -[n], and [n] -> n as eta -> 0.
In the trigonometric limit Im tau -> +inf, [j] -> sin(pi*eta*j)/sin(pi*eta),
the symmetric q-number with q = exp(2i*pi*eta).

Brackets are memoized per evaluator; every division by a bracket is guarded,
since a vanishing bracket means eta is a torsion point and all the curve
formulas downstream become singular.
"""

from .errors import TorsionEtaError
from .theta import ThetaEvaluator, theta

__all__ = ["ebracket", "nonzero_bracket", "efactorial", "ebinom", "qnumber"]


def ebracket(n: int, ev: ThetaEvaluator) -> complex:
    """Elliptic integer [n].  [0] = 0 exactly; [1] = 1 exactly."""
    cache = ev._brackets
    hit = cache.get(n)
    if hit is not None:
        return hit
    if n == 0:
        val = 0j
    elif n == 1:
        val = 1 + 0j
    elif n < 0:
        val = -ebracket(-n, ev)
    else:
        den = theta(1, ev.eta, ev)
        if abs(den) < ev.zero_threshold:
            raise TorsionEtaError(f"theta1(eta) ~ 0 for eta={ev.eta}: eta on the lattice")
        val = theta(1, n * ev.eta, ev) / den
    cache[n] = val
    return val


def nonzero_bracket(n: int, ev: ThetaEvaluator) -> complex:
    """[n] for use as a divisor: TorsionEtaError if |[n]| < tol."""
    val = ebracket(n, ev)
    if abs(val) < ev.tol:
        raise TorsionEtaError(f"[{n}] ~ 0 for eta={ev.eta}: torsion point of order {n}")
    return val


def efactorial(n: int, ev: ThetaEvaluator) -> complex:
    """[n]! = [1][2]...[n]; empty product for n = 0."""
    if n < 0:
        raise ValueError(f"elliptic factorial needs n >= 0, got {n}")
    out = 1 + 0j
    for j in range(2, n + 1):
        out *= nonzero_bracket(j, ev)
    return out


def ebinom(n: int, m: int, ev: ThetaEvaluator) -> complex:
    """Elliptic binomial [n]! / ([m]! [n-m]!), for 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    return efactorial(n, ev) / (efactorial(m, ev) * efactorial(n - m, ev))


def qnumber(j: int, q: complex) -> complex:
    """Symmetric q-integer (j)_q = (q^(j/2) - q^(-j/2)) / (q^(1/2) - q^(-1/2))."""
    if j == 0:
        return 0j
    num = q ** (j / 2) - q ** (-j / 2)
    den = q**0.5 - q**-0.5
    if abs(den) == 0:
        raise ZeroDivisionError("q = 1 has no symmetric q-numbers")
    return num / den
