"""Small shared helpers: quasi-random sampling, complex and eta parsing, the nearest lattice point."""

import re

import numpy as np

__all__ = [
    "halton",
    "parse_complex",
    "format_complex",
    "parse_eta",
]


def halton(n: int, base: int) -> np.ndarray:
    """First n values of the base-``base`` Halton sequence (radical inverse),
    from index 1."""
    out = np.empty(n)
    for i in range(n):
        k = i + 1
        f, r = 1.0, 0.0
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


def parse_complex(text: str) -> complex:
    """Parse 'a+bi', 'bi', or 'a' (also accepts 'j' as the imaginary unit),
    and everything ``format_complex`` writes, 'inf' and 'nan' parts too."""
    s = text.strip().replace(" ", "")
    if not s or s.endswith(("+", "-")):
        raise ValueError(f"cannot parse complex literal {text!r}")
    if s.endswith(("i", "I")):
        s = s[:-1] + "j"
    try:
        return complex(s)
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
        from fractions import Fraction

        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError(f"eta {text!r} has a zero denominator")
        frac = Fraction(num, den)
        return complex(frac), frac
    return parse_complex(s), None


def nearest_lattice_point(x, tau: complex):
    """The lattice point m + n*tau nearest x (a complex scalar or an ndarray) in a
    rough metric: n rounds Im x / Im tau, then m rounds Re(x - n*tau).  No part is -0.0."""
    n = np.rint(x.imag / tau.imag)
    return np.rint((x - n * tau).real) + n * tau + 0.0
