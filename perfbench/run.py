"""Closed-loop benchmark of lame-spectra.

    python3 perfbench/run.py --workload {analytic,oracle,flow} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  One client sends requests one at a time,
each after the previous one returned, in whole blocks of a fixed design
(see ``workloads.py``).  The number of blocks follows from ``--seconds`` and
the workload's nominal block time, not from the clock, so runs of equal
length attempt the same requests and meet the same known defects.  Every
result is checked; failures are counted, never dropped, and listed by their
inputs.

``--trace 0`` prints the end-to-end metrics, with times on the reference
machine's scale (see ``machine.py``; the raw figures are printed too).
``--trace 1`` serves the first block untraced as the tracing-overhead
baseline, then serves the same block again with wrappers installed (see
``tracing.py``) for the per-layer metrics.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
HARD_STOP_S = 150.0  # stop mid-block past this, so a run ends well inside 180 s


class Loop:
    """Serves requests one at a time and keeps, per request, its latency, its
    share of loop time (request and check) and when it started and ended.
    A request's untimed preparation and the speed gauge are outside both."""

    def __init__(self, serve_request, prepare, clock, gauge=None):
        self.serve_request, self.prepare = serve_request, prepare
        self.clock, self.gauge = clock, gauge
        self.outcomes = []  # (request, failure reason or None)
        self.latency, self.span, self.start, self.end = [], [], [], []

    def run(self, reqs, deadline=float("inf")):
        clock = self.clock
        for req in reqs:
            self.prepare(req)
            if self.gauge is not None:
                self.gauge.tick()
            t0 = clock()
            latency, reason = self.serve_request(req, clock)
            t1 = clock()
            self.outcomes.append((req, reason))
            self.latency.append(latency)
            self.span.append(t1 - t0)
            self.start.append(t0)
            self.end.append(t1)
            if self.gauge is not None:
                self.gauge.tick()
            if t1 > deadline:
                return False
        return True

    def run_blocks(self, blocks):
        deadline = self.clock() + HARD_STOP_S
        for reqs in blocks:
            if not self.run(reqs, deadline):
                break


def summarize(outcomes):
    failures = {}
    for req, reason in outcomes:
        if reason is not None:
            entry = failures.setdefault(req.label, {"request": req.label, "reason": reason, "count": 0})
            entry["count"] += 1
    return list(failures.values())


def end_to_end(loop, percentile, setup, rss_mb):
    """End-to-end metrics, times divided by the speed factor around each request."""
    def figures(latency, span):
        lat = np.array(latency)
        return {
            "throughput_rps": len(lat) / float(np.sum(span)),
            "latency_p50_s": float(np.median(lat)),
            "latency_tail_s": float(np.percentile(lat, percentile)),
        }

    factors = loop.gauge.factors_around(loop.start, loop.end)
    latency_scaled = np.array(loop.latency) / factors
    scaled = figures(latency_scaled, np.array(loop.span) / factors)
    raw = figures(loop.latency, np.array(loop.span))
    n = len(loop.latency)
    failed = sum(1 for _, reason in loop.outcomes if reason is not None)
    beyond = int(np.sum(latency_scaled > scaled["latency_tail_s"]))
    info = {"latency_tail": {"percentile": percentile, "n": n, "samples_beyond": beyond},
            "raw": raw,
            "speed_factor": {"median": float(np.median(factors)), "min": float(factors.min()),
                             "max": float(factors.max()), "samples": len(loop.gauge.samples)}}
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_rps": (scaled["throughput_rps"], "1/s"),
        "latency_p50_s": (scaled["latency_p50_s"], "s"),
        "latency_tail_s": (scaled["latency_tail_s"], "s"),
        "ok_frac": (1.0 - failed / n, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lame_spectra" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import machine
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    clock = time.perf_counter

    def new_loop(gauge=None):
        return Loop(workloads.serve_request, workloads.prepare, clock, gauge)

    problems = workloads.selftest_checker()
    print(json.dumps({"context": machine.context(args)}), flush=True)

    rng = np.random.default_rng(args.seed)
    new_loop().run(wl.block(np.random.default_rng([args.seed, 1]), 0)[:wl.warm])

    if args.trace:
        # the first block is served untraced, then rebuilt from the same rng
        # state and served traced: the pair gives the tracing overhead
        state = rng.bit_generator.state
        base = new_loop()
        base.run(wl.block(rng, 0))
        rng.bit_generator.state = state
        tracer = Tracer(clock)
        tracer.install()
        try:
            loop = new_loop()
            loop.run(wl.block(rng, 0))
        finally:
            tracer.remove()
        metrics = tracer.metrics(len(loop.outcomes))
        traced_first = sum(loop.span[:len(base.span)])
        metrics["trace.overhead_frac"] = (traced_first / sum(base.span) - 1.0, "frac")
        metrics["cli.cold_start_s"] = (machine.cold_start_seconds(), "s")
    else:
        setup, setup_raw = machine.setup_seconds()
        gauge = machine.SpeedGauge(clock)
        loop = new_loop(gauge)
        loop.run_blocks(wl.block(rng, i) for i in range(wl.blocks_for(args.seconds)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, info = end_to_end(loop, wl.tail_percentile, setup, rss_mb)
        info["raw"]["setup_s"] = setup_raw
        print(json.dumps(info), flush=True)

    failures = summarize(loop.outcomes)
    attempted = len(loop.outcomes)
    failed = sum(f["count"] for f in failures)
    print(json.dumps({"fail_frac": failed / attempted, "failures": failures}), flush=True)
    if problems:
        print(json.dumps({"checker_selftest_failed": problems}), flush=True)
    # known defects of the package stay in the mix and count in ``failed``;
    # ``correct`` turns false when the checker itself is unsound or when most
    # requests fail
    result = {
        "correct": not problems and failed <= attempted / 2,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
