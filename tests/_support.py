"""Shared evaluator instance for the default test parameters, a counter
of residue-matrix builds, and empty module caches for one test."""

import functools
import importlib

from lame_spectra import EllipticParams, ThetaEvaluator, curve, lame

theta_module = importlib.import_module("lame_spectra.theta")  # the package binds the function

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


def empty_caches(monkeypatch):
    """Fresh eta-table and point-SVD caches, of the package's sizes, in place
    of the package's for one test: evaluators built from here on start with
    empty tables, and every curve point's SVD is computed again."""
    tables = functools.lru_cache(theta_module._ETA_TABLES_MAX)(theta_module._eta_tables.__wrapped__)
    monkeypatch.setattr(theta_module, "_eta_tables", tables)
    svd = functools.lru_cache(lame._POINT_SVD_MAX)(lame._point_svd.__wrapped__)
    for module in (lame, curve):
        monkeypatch.setattr(module, "_point_svd", svd)
