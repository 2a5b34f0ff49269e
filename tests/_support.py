"""Shared evaluator instance for the default test parameters, the scales
of the curve sums and of the Bloch relation, counters of residue-matrix
builds and point SVDs, and empty module caches for one test."""

import functools
import importlib

import numpy as np

from lame_spectra import EllipticParams, ThetaEvaluator, curve, lame

theta_module = importlib.import_module("lame_spectra.theta")  # the package binds the function

PARAMS = EllipticParams(tau=1.2j, eta=0.17, tol=1e-12)
PARAMS_EV = ThetaEvaluator(PARAMS)


def scaled_curve_sums(pt, ctx) -> tuple:
    """(|S1|, |S2|) of ``curve.curve_equations``, each over the sum of its
    terms' magnitudes; a sum whose terms all vanish scores 0."""
    return tuple(float(abs(t.sum()) / (np.abs(t).sum() or 1.0)) for t in curve._curve_sum_terms(pt, ctx))


def bloch_terms_scale(zeta, K, ell, ev) -> float:
    """The sum of the magnitudes of the terms of ``curve.bloch_relation``."""
    return float(np.abs(curve._bloch_terms(zeta, K, curve.curve_coeffs(ell, ev), ev)).sum())


def count_E_free_builds(monkeypatch) -> list:
    """The (zeta, K) of every E-free residue matrix built from here on: the
    misses of a fresh cache, of lame's size, put in place of lame's."""
    builds = []
    build = lame._E_free_M.__wrapped__

    def counting(zeta, K, ctx):
        builds.append((zeta, K))
        return build(zeta, K, ctx)

    monkeypatch.setattr(lame, "_E_free_M", functools.lru_cache(lame._POINTS_MAX)(counting))
    return builds


def record_point_svds(monkeypatch) -> list:
    """The singular vector of every point SVD computed from here on: the
    misses of a fresh cache, of lame's size, put in place of the one lame
    and curve read."""
    vectors = []
    compute = lame._point_svd.__wrapped__

    def recording(pt, ctx):
        out = compute(pt, ctx)
        vectors.append(out[1])
        return out

    svd = functools.lru_cache(lame._POINTS_MAX)(recording)
    for module in (lame, curve):
        monkeypatch.setattr(module, "_point_svd", svd)
    return vectors


def empty_caches(monkeypatch):
    """Fresh eta-table and point-SVD caches, of the package's sizes, in place
    of the package's for one test: evaluators built from here on start with
    empty tables, and every curve point's SVD is computed again."""
    tables = functools.lru_cache(theta_module._ETA_TABLES_MAX)(theta_module._eta_tables.__wrapped__)
    monkeypatch.setattr(theta_module, "_eta_tables", tables)
    svd = functools.lru_cache(lame._POINTS_MAX)(lame._point_svd.__wrapped__)
    for module in (lame, curve):
        monkeypatch.setattr(module, "_point_svd", svd)
