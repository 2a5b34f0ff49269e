"""Small shared helpers: quasi-random sampling, clustering, complex parsing."""

import math
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "halton",
    "cluster_points",
    "parse_complex",
    "format_complex",
    "parse_eta",
]


def halton(n: int, base: int, start: int = 1) -> np.ndarray:
    """First n values of the base-``base`` Halton sequence (radical inverse)."""
    out = np.empty(n)
    for i in range(n):
        k = start + i
        f, r = 1.0, 0.0
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


def cluster_points(values, tol: float):
    """Group complex values within ``tol`` of each other (single-linkage).

    Returns a list of (center, count) with centers sorted by real part.
    """
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][-1]) <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    out = [(sum(c) / len(c), len(c)) for c in clusters]
    return sorted(out, key=lambda p: (p[0].real, p[0].imag))


def parse_complex(text: str) -> complex:
    """Parse 'a+bi', 'bi', or 'a' (also accepts 'j' as the imaginary unit)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s.endswith(("i", "I")):
        s = s[:-1] + "j"
    s = s.replace("I", "j")
    if s.endswith("+") or s.endswith("-"):
        raise ValueError(f"cannot parse complex literal {text!r}")
    try:
        if "j" in s:
            # bare '+j' / '-j' need the implicit 1
            s = re.sub(r"(?<![\d.])([+-]?)j", r"\g<1>1j", s)
            return complex(s)
        return complex(float(s))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    """Canonical 'a+bi' form; drops vanishing parts ('0.17', '1.2i')."""
    re_, im = z.real, z.imag
    if im == 0:
        return repr(re_)
    if re_ == 0:
        return f"{im!r}i"
    sign = "+" if im >= 0 else "-"
    return f"{re_!r}{sign}{abs(im)!r}i"


def parse_eta(text: str):
    """Parse eta either as a complex literal or an exact rational 'P/Q'.

    Returns (value, rational) where rational is a Fraction for 'P/Q' input
    (kept exact for the Bloch-matrix reduction) and None otherwise.
    """
    s = text.strip()
    m = re.fullmatch(r"([+-]?\d+)\s*/\s*(\d+)", s)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError(f"eta {text!r} has a zero denominator")
        frac = Fraction(num, den)
        return complex(frac), frac
    return parse_complex(s), None


def is_close_to_lattice(x: complex, tau: complex, margin: float) -> bool:
    """True if x is within ``margin`` of the lattice Z + tau*Z (rough metric)."""
    n = round(x.imag / tau.imag)
    r = x - n * tau
    m = round(r.real)
    return math.hypot(r.real - m, r.imag) < margin
