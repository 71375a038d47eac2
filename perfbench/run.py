"""Benchmark entry point for the wondermono calculator.

    python3 perfbench/run.py --workload basis-a3 --seed 1 --seconds 30 --trace 0

Runs one workload as a fixed number of fresh single-threaded interpreters
(child.py) with a fixed PYTHONHASHSEED, started one at a time, so each starts
with cold caches: SETUP_PROCESSES set-up-only processes, then FULL_PROCESSES
full ones.  The counts do not depend on how fast the program or the machine
is, so every commit is measured by the same statistic; --seconds is accepted
for the benchmark interface and does not change them.  Every time is divided
by the slowdown that child.py's speed probe measured in the same process, so
that other tenants of a shared machine do not show up as changes of the
program.  Every process runs the same inputs, so run_s and the query
latencies take each step at its fastest over the full processes.  With
--trace 1 one full process is untraced and one traced, and the per-layer
metrics come from the traced one.  Lines before the last are for people; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "wondermono"
WORKLOADS = ("basis-a3", "paths-rank4", "poset-b3", "verify-rank2")

# set-up is short (10 to 300 ms), so it gets processes of its own
SETUP_PROCESSES = 11
# a run takes each step's fastest time over this many untraced processes
FULL_PROCESSES = 2
CHILD_TIMEOUT_S = 150
# a run that has not started its last process by then is too slow to end
# within 180 s, so it stops without a result
LAST_START_S = 100

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class BenchError(Exception):
    pass


def child(workload: str, seed: int, mode: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-S", "-s", str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, trace: bool) -> tuple[dict, list[str]]:
    start = perf_counter()
    setups = [] if trace else [child(workload, seed, "setup") for _ in range(SETUP_PROCESSES)]
    modes = ("run", "trace") if trace else ("run",) * FULL_PROCESSES
    runs: dict[str, list[dict]] = {m: [] for m in modes}
    for mode in modes:
        if perf_counter() - start > LAST_START_S:
            raise BenchError(f"{perf_counter() - start:.0f} s passed before the last process started")
        runs[mode].append(child(workload, seed, mode))

    full = runs["run"]
    # each step at its fastest over the full processes: every process runs
    # the same inputs cold, so this drops short bursts of interference
    scaled = [min(r["step_ms"][i] / r["step_slowdown"][i] for r in full) for i in range(len(full[0]["step_ms"]))]
    unscaled = [min(times) for times in zip(*(r["step_ms"] for r in full))]
    mask = full[0]["query_mask"]
    latencies = [t for t, query in zip(scaled, mask) if query]
    plain_latencies = [t for t, query in zip(unscaled, mask) if query]
    everyone = [r for rs in runs.values() for r in rs]
    attempted = sum(r["attempted"] for r in everyone)
    failed = sum(r["failed"] for r in everyone)
    notes = [
        f"workload {workload}, seed {seed}: {len(setups)} set-up and {len(everyone)} full processes"
        f" ({', '.join(f'{len(v)} {m}' for m, v in runs.items())}); {len(latencies)} query latencies,"
        f" each the fastest of {len(full)} untraced",
        f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} checked operations)",
        "slowdown of the full processes: " + ", ".join(f"{r['slowdown']:.3f}" for r in full),
        "unscaled run_s of the full processes: " + ", ".join(f"{r['run_s']:.4f}" for r in full),
    ]
    if setups:
        notes += [
            "slowdown of the set-up processes: " + ", ".join(f"{r['slowdown']:.3f}" for r in setups),
            f"unscaled: setup_s {statistics.median(r['setup_s'] for r in setups):.6f} s,"
            f" run_s {sum(unscaled) / 1e3:.4f} s, query_p50_ms {statistics.median(plain_latencies):.6f} ms,"
            f" query_p90_ms {p90(plain_latencies):.6f} ms",
        ]
    notes += [f"failure: {f}" for r in everyone for f in r["failures"]]

    if trace:
        (traced,) = runs["trace"]
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["run_s"] / full[0]["run_s"]
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in setups),
            "run_s": sum(scaled) / 1e3,
            "query_p50_ms": statistics.median(latencies),
            "query_p90_ms": p90(latencies),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
    notes += [f"{n} {m['value']} {m['unit']}" for n, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30, help="accepted; the run length is set by its process counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    # the build step: byte-compile once, so no measured process pays for it
    if not (compileall.compile_dir(PACKAGE, quiet=1) and compileall.compile_dir(HERE, quiet=1, maxlevels=0)):
        print("error: the package does not compile", file=sys.stderr)
        return 2
    try:
        result, notes = measure(args.workload, args.seed, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
