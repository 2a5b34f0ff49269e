"""The contract of the package's twelve value records: keyword construction,
the checks of their fields, read-only fields and no instance ``__dict__``,
equality, hash and repr over the compare fields, copy and pickle, and a
``_replace`` that checks again."""

import copy
import pickle
import sys
from typing import NamedTuple

import numpy as np
import pytest

from lame_spectra.bloch import EdgeCandidates, RationalEta
from lame_spectra.curve import BandEdgeSet, CurveCoeffs
from lame_spectra.errors import TorsionEtaError
from lame_spectra.lame import BlochCoeffs, CurvePoint, LameContext
from lame_spectra.theta import EllipticParams, ThetaEvaluator, _checked_make
from lame_spectra.volterra import FlowResult, LocusReport, PoleConfig


def _params(**kw):
    return EllipticParams(**{"tau": 1.2j, "eta": 0.17, **kw})


def _ev(**kw):
    return ThetaEvaluator(params=_params(**kw))


# name -> (class, keyword arguments, the compare fields in repr order,
#          [(bad keyword arguments, error, message)], (bad replacement, error, message) or None)
RECORDS = {
    "EllipticParams": (
        EllipticParams, lambda: {"tau": 1.2j, "eta": 0.17}, ("tau", "eta", "tol"),
        [({"tau": 1.0, "eta": 0.17}, ValueError, r"Im\(tau\) must be positive"),
         ({"tau": 1.2j, "eta": 0}, ValueError, "eta must be nonzero"),
         ({"tau": 1.2j, "eta": 0.17, "tol": 0.0}, ValueError, "tol must be positive"),
         ({"tau": complex("nan"), "eta": 0.17}, ValueError, "tau must be finite")],
        ({"tol": -1.0}, ValueError, "tol must be positive"),
    ),
    "ThetaEvaluator": (
        ThetaEvaluator, lambda: {"params": _params()}, ("params",),
        [({"params": _params(tau=1e-20j)}, ValueError, "above the ceiling of 1000")],
        ({"params": _params(tau=1000j)}, ValueError, r"theta1'\(0\) = .* is not a normal double"),
    ),
    "LameContext": (
        LameContext, lambda: {"ell": 2, "ev": _ev()}, ("ell", "ev"),
        [({"ell": -1, "ev": _ev()}, ValueError, "ell must be a non-negative integer"),
         ({"ell": 1, "ev": _ev(eta=1 / 3)}, TorsionEtaError, "torsion point of order 3")],
        ({"ell": -2}, ValueError, "ell must be a non-negative integer"),
    ),
    "CurvePoint": (
        CurvePoint, lambda: {"zeta": 0.31 + 0.07j, "K": 1.5 + 0.2j, "E": 2.0 + 0j}, ("zeta", "K", "E"),
        [({"zeta": 0.31, "K": 0, "E": 2.0}, ValueError, "K must be nonzero")],
        ({"K": 0}, ValueError, "K must be nonzero"),
    ),
    "BlochCoeffs": (
        BlochCoeffs, lambda: {"s": np.array([1.0, 0.5j]), "second_sv": 0.3}, ("s", "second_sv"), [], None,
    ),
    "BandEdgeSet": (
        BandEdgeSet, lambda: {"ell": 1, "per_label": {1: [], 2: [-1.5], 3: [0.25], 4: [1.25]}},
        ("ell", "per_label"), [], None,
    ),
    "CurveCoeffs": (
        CurveCoeffs, lambda: {"ell": 2, "C": np.array([1, 3, 3, 1], dtype=complex)}, ("ell", "C"), [], None,
    ),
    "RationalEta": (
        RationalEta, lambda: {"P": 2, "Q": 31}, ("P", "Q"),
        [({"P": 1, "Q": 0}, ValueError, "Q must be positive"),
         ({"P": 0, "Q": 31}, ValueError, "P must be nonzero"),
         ({"P": 2, "Q": 4}, ValueError, "must be in lowest terms")],
        ({"Q": 62}, ValueError, "must be in lowest terms"),
    ),
    "EdgeCandidates": (
        EdgeCandidates,
        lambda: {"values": np.array([-1.0, 2.0 + 0j]), "confident": np.array([True, False]),
                 "spectra": np.arange(6, dtype=complex).reshape(2, 3)},
        ("values", "confident", "spectra"), [], None,
    ),
    "PoleConfig": (
        PoleConfig, lambda: {"xs": (0.21 + 0.05j, -0.3 + 0j)}, ("xs", "t"),
        [({"xs": ["not a number"]}, ValueError, "malformed string")],
        ({"xs": ["0.1+"]}, ValueError, "malformed string"),
    ),
    "LocusReport": (
        LocusReport, lambda: {"residuals": np.array([1e-12, 2e-12j]), "max_norm": 2e-12},
        ("residuals", "max_norm"), [], None,
    ),
    "FlowResult": (
        FlowResult,
        lambda: {"trajectory": [PoleConfig(xs=(0.2 + 0j,)), PoleConfig(xs=(0.25 + 0j,), t=0.1)],
                 "locus_gaps": np.zeros(2), "margins": np.ones(2)},
        ("trajectory", "locus_gaps", "margins"), [], None,
    ),
}
# the records whose fields are all hashable
HASHABLE = {"EllipticParams", "ThetaEvaluator", "LameContext", "CurvePoint", "RationalEta", "PoleConfig"}


def _same(a, b):
    """a == b, with arrays compared by dtype, shape and values."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _same_record(a, b, fields):
    return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f)) for f in fields)


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, kwargs, fields, bad, bad_replace = RECORDS[name]
    rec = cls(**kwargs())

    # keyword construction, defaults and coercion
    for key, value in kwargs().items():
        assert _same(getattr(rec, key), value)
    if name == "EllipticParams":
        assert rec.tol == 1e-12
    if name == "PoleConfig":
        assert rec.t == 0.0
        coerced = cls(xs=[1, 0.5], t=0.25)
        assert coerced.xs == (1 + 0j, 0.5 + 0j) and all(type(x) is complex for x in coerced.xs)
    if name == "ThetaEvaluator":
        assert rec.series_cutoff >= 5 and rec.theta1_prime0 != 0

    # the same checks and messages as at construction
    for bad_kwargs, error, message in bad:
        with pytest.raises(error, match=message):
            cls(**bad_kwargs)

    # a record holds only its fields: no instance dict, read-only fields, and no attribute can be added
    assert not hasattr(rec, "__dict__")
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
        if hasattr(rec, attr):
            with pytest.raises(AttributeError):
                delattr(rec, attr)

    # equality, hash and repr over the compare fields only
    twin = cls(**kwargs())
    if name in ("BlochCoeffs", "CurveCoeffs", "EdgeCandidates", "LocusReport", "FlowResult"):
        assert rec == cls(**{f: getattr(rec, f) for f in fields})
    else:
        assert rec == twin and not rec != twin
    if name in HASHABLE:
        assert hash(rec) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields) + ")"

    # copy, deepcopy and pickle round trips to an equal, working record
    for made in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert _same_record(made, rec, fields)
        if name == "ThetaEvaluator":
            assert made.cutoff_for(0.7) == rec.cutoff_for(0.7)
        if name == "LameContext":
            assert made.N == 3

    # replacing a field checks the new value as construction does
    if bad_replace is not None:
        changes, error, message = bad_replace
        with pytest.raises(error, match=message):
            rec._replace(**changes)
    if name == "ThetaEvaluator":
        other, want = rec._replace(params=_params(tau=0.15j)), _ev(tau=0.15j)
        assert other == want and other.series_cutoff > rec.series_cutoff
        assert other.cutoff_for(0.7) == want.cutoff_for(0.7)
        # the series constants are no fields: read from the cache of (tau, tol), not replaced or compared
        with pytest.raises(ValueError, match="Got unexpected field names"):
            rec._replace(series_cutoff=rec.series_cutoff + 1)
        assert rec == (rec.params,)
    if name == "PoleConfig":
        assert rec._replace(xs=[1]).xs == (1 + 0j,)


# the protocol methods every record takes from NamedTuple; NamedTuple writes
# _replace, __getnewargs__ and _make into each class it makes, all of one code
PROTOCOL = ("_replace", "__reduce__", "__reduce_ex__", "__getnewargs__", "__copy__", "__deepcopy__")
_Plain = NamedTuple("_Plain", [("x", int)])


def _code(attr):
    """The code of a class attribute: a function's, or a classmethod's function's."""
    return getattr(attr, "__func__", attr).__code__


@pytest.mark.parametrize("name", RECORDS)
def test_one_record_protocol(name):
    # copy, pickle and _replace all go through one path, NamedTuple's own, and
    # a record that checks its fields makes itself anew through its constructor
    cls = RECORDS[name][0]
    base = getattr(sys.modules[cls.__module__], f"_{name}Fields", None)
    for klass in (cls, base) if base is not None else (cls,):
        for attr in PROTOCOL:
            own = vars(klass).get(attr)
            assert own is None or _code(own) is _code(vars(_Plain)[attr]), f"{klass.__name__}.{attr}"
    if base is not None:
        assert "__new__" in vars(cls) and cls._make.__func__ is _checked_make
    else:
        assert _code(vars(cls)["_make"]) is _code(vars(_Plain)["_make"])
