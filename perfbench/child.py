"""One measured process: set up a workload, time its steps, check the results.

run.py starts this script in a fresh interpreter for every measurement, one
process at a time:

    python3 -S -s perfbench/child.py --workload basis-a3 --seed 1 --mode run

Modes: "setup" imports the package and builds the inputs only; "run" also
times every step with tracing off; "trace" installs the per-layer tracer
right after the import and writes its spans to perfbench/out/.  The process
starts no threads and repeats no call, so every cache starts cold.  It prints
one JSON object on stdout.

Other tenants of a shared machine can slow this single-threaded Python code
by 20 to 80 % for seconds to minutes at a time.  In "run" mode a fixed speed
probe runs from a timer signal every PROBE_EVERY_S seconds of the timed
phase.  Its time is left out of every step.  Its mean time over
PROBE_NOMINAL_S, taken over the probes near each step, is that step's
slowdown, which run.py divides out.  A "setup" process runs the probe
SETUP_PROBES times just before the import and again right after the set-up,
and reports their mean as its own slowdown.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# small enough to stay in the first-level data cache once the first pass has
# read it, so the probe's time follows the machine and not how much of the
# cache the measured program has used since the last probe
PROBE_BYTES = 1 << 14
PROBE_STEPS = 8000
PROBE_EVERY_S = 0.2
# a step is scaled by the probes taken while it ran and this long around it
PROBE_WINDOW_S = 0.5
# the probe's time on a quiet machine of the kind the benchmark was made on;
# only the ratio between processes matters, so this is a fixed scale
PROBE_NOMINAL_S = 0.0015
SETUP_PROBES = 4


class SpeedProbe:
    """A fixed loop of integer arithmetic and scattered reads of a 16 KiB buffer."""

    def __init__(self):
        self.buf = bytes(range(256)) * (PROBE_BYTES // 256)
        self.times: list[float] = []
        self.at: list[float] = []
        self.spent = 0.0
        self.loop()  # a first pass brings the buffer into the cache

    def loop(self) -> None:
        buf, mask, i, acc = self.buf, PROBE_BYTES - 1, 0, 0
        for _ in range(PROBE_STEPS):
            i = (i * 1103515245 + 12345) & mask
            acc += buf[i]

    def run(self, *_signal_args) -> None:
        t = perf_counter()
        self.loop()
        elapsed = perf_counter() - t
        self.times.append(elapsed)
        self.at.append(t)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean probe time over the nominal, near [start, end] when probes were taken there."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        return statistics.fmean(self.times[lo:hi] or self.times) / PROBE_NOMINAL_S


def measure(workload: str, seed: int, mode: str) -> dict:
    probe = SpeedProbe()
    if mode == "setup":
        for _ in range(SETUP_PROBES):
            probe.run()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import wondermono
    import wondermono.cli  # noqa: F401  (part of the package a user loads)

    if Path(wondermono.__file__).resolve().parent != SRC / "wondermono":
        raise SystemExit(f"wondermono imported from {wondermono.__file__}, not from {SRC}")
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(wondermono)
    work = WORKLOADS[workload](wondermono, seed)
    out = {"setup_s": perf_counter() - t0}
    if mode == "setup":
        for _ in range(SETUP_PROBES):
            probe.run()
        out["slowdown"] = probe.slowdown()
        return out

    done = []
    step_ms = []
    spans = []
    if not tracer:  # traced self times should not include the probe
        probe.run()
        probe.start()
    for step in work.steps:
        if tracer:
            tracer.begin_query(step.key)
        t, probed = perf_counter(), probe.spent
        try:
            result, error = step.run(), None
        except Exception as exc:  # a failing query is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        elapsed = end - t - (probe.spent - probed)
        spans.append((t, end))
        if tracer:
            tracer.end_query()
        step_ms.append(elapsed * 1e3)
        done.append((step, result, error))
    probe.stop()
    out["run_s"] = sum(step_ms) / 1e3
    if not tracer:
        out["slowdown"] = probe.slowdown()
        out["step_slowdown"] = [probe.slowdown(t, end) for t, end in spans]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["step_ms"] = step_ms
    out["query_mask"] = [step.query for step in work.steps]
    if tracer:
        tracer.uninstall()

    work.begin_checks(load_reference())
    failures = []
    for step, result, error in done:
        if error is None:
            try:
                error = work.check(step, result)
            except Exception as exc:  # a broken result must not stop the other checks
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{step.key}: {error}")
    out.update(attempted=len(done), failed=len(failures), failures=failures[:20])
    if tracer:
        out["layers"] = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload}.spans.jsonl")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
