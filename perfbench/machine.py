"""What the benchmark knows about the machine: run context, set-up and cold
start times, and a speed gauge that puts times on a common scale.

The gauge exists because the host is shared: the same pure-Python loop runs
up to ~1.5x slower from one half minute to the next, far more than the
changes the benchmark must resolve.  A fixed kernel that never calls the
package is timed between requests, at most every ``PERIOD_S``, so a request
that takes longer than that has a sample right before and right after it;
each request's times are divided by the ratio of the median of the kernel
times nearest it to ``REFERENCE_S``, the kernel's time on a shared 2-core
2.1 GHz x86-64 VM.
A change to the package cannot move the kernel, so the scaled times move
only with the package.
"""

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_WARMUP = 2
SETUP_SAMPLES = 11
COLD_START_SAMPLES = 5
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import lame_spectra, lame_spectra.cli; print(t1 - t0, time.perf_counter() - t0)"
)
# numpy's own import time on the reference machine; see setup_seconds
NUMPY_IMPORT_REFERENCE_S = 0.085


def _env():
    """Environment of the probe interpreters.

    Byte code is cached under ``.bench_build/`` in the checkout, for numpy as
    well as the package, whatever the caller's environment says: with the
    cache on or off, or filled or not, an import differs by ~25%.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds():
    """Import time of the package and its CLI in fresh interpreters: (scaled, raw).

    Raw is the median over the interpreters.  Scaled is the median of each
    interpreter's import time over its own numpy import time (the first thing
    the package imports), times numpy's import time on the reference machine:
    import times drift by up to 2x over minutes with the state of the shared
    host, and the ratio cancels that drift but keeps any work the package
    adds at import.
    """
    ratios, raw = [], []
    for i in range(SETUP_WARMUP + SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        numpy_s, total_s = map(float, out.stdout.split())
        if i >= SETUP_WARMUP:  # the first ones fill the byte-code and file caches
            ratios.append(total_s / numpy_s)
            raw.append(total_s)
    return statistics.median(ratios) * NUMPY_IMPORT_REFERENCE_S, statistics.median(raw)


def cold_start_seconds():
    """Median wall time of ``python -m lame_spectra.cli edges --ell 1``, one process after another."""
    samples = []
    for _ in range(COLD_START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "lame_spectra.cli", "edges", "--ell", "1"], env=_env(),
                       cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                       check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class SpeedGauge:
    """Times a package-independent kernel between requests; ``factors_at``
    gives the slowdown against the reference machine around given times."""

    PERIOD_S = 0.15
    SIDE = 2  # samples before and after a request that set its factor
    REFERENCE_S = 0.0031

    def __init__(self, clock):
        self.clock = clock
        rng = np.random.default_rng(0)
        self.z = np.linspace(0.0, 1.0, 24) + 0.1j
        self.m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.at, self.samples = [], []
        self.last = -float("inf")

    def _kernel(self):
        # the workloads' mix: small complex ufunc calls in a Python loop, dict
        # traffic, and one dense eigen-solve
        acc = 0j
        for i in range(80):
            acc += np.exp(self.z * (1j * i)).sum()
        d = {}
        for i in range(3000):
            d[i & 127] = d.get(i & 127, 0) + i
        np.linalg.eigvals(self.m)
        return acc

    def sample(self):
        t0 = self.clock()
        self._kernel()
        self.last = self.clock()
        self.at.append(self.last)
        self.samples.append(self.last - t0)

    def tick(self):
        """Sample if the period has passed since the last sample."""
        if self.clock() - self.last >= self.PERIOD_S:
            self.sample()

    def factors_around(self, starts, ends):
        """Per request, the median kernel time of the SIDE samples before its
        start and the SIDE after its end, over REFERENCE_S."""
        at, samples = np.array(self.at), np.array(self.samples)
        before = np.searchsorted(at, starts)
        after = np.searchsorted(at, ends)
        return np.array([np.median(np.concatenate((samples[max(b - self.SIDE, 0):b], samples[a:a + self.SIDE])))
                         for b, a in zip(before, after)]) / self.REFERENCE_S


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def context(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "LAME_SPECTRA_THREADS": os.environ.get("LAME_SPECTRA_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
