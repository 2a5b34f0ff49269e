"""Shared evaluator instance for the default test parameters, and a counter
of residue-matrix builds."""

import functools

from lame_spectra import EllipticParams, ThetaEvaluator, lame

PARAMS = EllipticParams(tau=1.2j, eta=0.17, tol=1e-12)
PARAMS_EV = ThetaEvaluator(PARAMS)


def count_E_free_builds(monkeypatch) -> list:
    """The (zeta, K) of every E-free residue matrix built from here on: the
    misses of a fresh cache, of lame's size, put in place of lame's."""
    builds = []
    build = lame._E_free_M.__wrapped__

    def counting(zeta, K, ctx):
        builds.append((zeta, K))
        return build(zeta, K, ctx)

    monkeypatch.setattr(lame, "_E_free_M", functools.lru_cache(lame._E_FREE_MAX)(counting))
    return builds
