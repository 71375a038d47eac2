"""Smoke run: every workload once untraced and once traced.

    python3 perfbench/smoke.py [workload ...]

Checks that each run exits 0, reports correct results with no failed
operation, and emits exactly the metrics BENCHMARK.json names, each with its
unit and a numeric value.  A per-layer value of null means the traced name
no longer exists; it is listed as absent, not counted as a problem.  Takes
about five minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "30"]
    proc = subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(wanted.keys() - got.keys()):
        problems.append(f"{where}: metric {name} missing")
    for name in sorted(got.keys() - wanted.keys()):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")
    for name in sorted(wanted.keys() & got.keys()):
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != wanted[name]:
            problems.append(f"{where}: {name} has unit {unit}, BENCHMARK.json says {wanted[name]}")
        if value is None and trace:
            print(f"{where}: {name} absent")
        elif not isinstance(value, (int, float)) or (not trace and value <= 0):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (argv if argv is not None else sys.argv[1:]) or [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
