"""The output-hash probe: one sha256 per workload and per CLI cell, so that
two checkouts can be compared output for output.

    python tests/_outputs.py [SRC]

prints one JSON line for the package under SRC (default: this checkout's
``src``):

- ``workloads``: per benchmark workload, the number of requests of its
  blocks at seed 401 (``analytic`` blocks 0-3, ``oracle`` 0-1, ``flow``
  0-4) and a sha256 over the call output and the check verdict of each,
  served as the benchmark serves them, each workload on empty module
  caches;
- ``cells``: per cell of the CLI smoke table ``_smoke.CELLS`` and of the
  README's "Served domain" table, keyed by cell name and each run on empty
  module caches, a sha256 over its stdout, stderr, exit code and the number
  of warnings it raised.

The tables, the workloads and the README are this checkout's; only the
package comes from SRC.  Two runs and a diff compare a change with its
parent:

    python tests/_outputs.py > after.json
    python tests/_outputs.py ../parent/src > before.json
"""

import contextlib
import hashlib
import io
import json
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SEED = 401
BLOCKS = {"analytic": 4, "oracle": 2, "flow": 5}


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def workload_hashes() -> dict:
    import numpy as np

    import workloads
    from _support import empty_caches

    out = {}
    for name, blocks in BLOCKS.items():
        empty_caches()
        rng = np.random.default_rng(SEED)
        served = []
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            for index in range(blocks):
                for req in workloads.WORKLOADS[name].block(rng, index):
                    workloads.prepare(req)
                    outputs = []

                    def call(params, run=workloads.CALLS[req.kind]):
                        outputs.append(run(params))
                        return outputs[-1]

                    verdict = workloads.serve(call, workloads.CHECKS[req.kind], req.params, time.perf_counter)[1]
                    served.append((req.label, outputs, verdict))
        out[name] = {"requests": len(served), "sha256": _sha256(served)}
    return out


def cell_hashes() -> dict:
    import _smoke
    from _support import empty_caches
    from lame_spectra import cli

    cells = {**_smoke.CELLS, **_smoke.served_domain((ROOT / "README.md").read_text())}
    out = {}
    for name, cell in cells.items():
        empty_caches()
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("always")
            try:
                code = cli.main(cell.argv.split())
            except SystemExit as exc:  # a usage error
                code = exc.code
        out[name] = _sha256((stdout.getvalue(), stderr.getvalue(), code, len(caught)))
    return out


def probe(src: Path) -> dict:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    return {"workloads": workload_hashes(), "cells": cell_hashes()}


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC), sort_keys=True))
