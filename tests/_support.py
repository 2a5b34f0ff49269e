"""Shared evaluator instance for the default test parameters, the scales
of the curve sums and of the Bloch relation, counters of residue-matrix
builds and point SVDs, and empty module caches."""

import functools
import sys

import numpy as np

from lame_spectra import EllipticParams, ThetaEvaluator, curve, lame

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


def empty_caches():
    """Empty every module-level functools cache of the package, as a new
    process starts: evaluators built from here on start with empty tables,
    and every curve point's SVD is computed again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("lame_spectra."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()
