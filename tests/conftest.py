"""Shared fixtures: evaluators, operator contexts, and certified curve points.

Curve points are expensive to certify, so they are solved once per session
and shared; every consumer re-checks the residuals it cares about.
"""

import numpy as np
import pytest

from lame_spectra import LameContext
from lame_spectra.curve import edge_curve_points, random_curve_points

from _support import PARAMS_EV

# the smoke table's checks report their operands on failure, as a test's asserts do
pytest.register_assert_rewrite("_smoke")


@pytest.fixture(scope="session")
def ev():
    return PARAMS_EV


@pytest.fixture(scope="session")
def ctx1(ev):
    return LameContext(ell=1, ev=ev)


@pytest.fixture(scope="session")
def ctx2(ev):
    return LameContext(ell=2, ev=ev)


@pytest.fixture(scope="session")
def ctx3(ev):
    return LameContext(ell=3, ev=ev)


@pytest.fixture(scope="session")
def curve_points(ctx1, ctx2, ctx3):
    """{ell: list of generic on-curve points}, certified by Newton polish."""
    rng = np.random.default_rng(2024)
    return {
        1: random_curve_points(ctx1, 4, rng),
        2: random_curve_points(ctx2, 4, rng),
        3: random_curve_points(ctx3, 3, rng),
    }


@pytest.fixture(scope="session")
def edge_points(ctx1):
    pts = edge_curve_points(ctx1)
    assert pts, "no edge-derived curve points found"
    return pts
