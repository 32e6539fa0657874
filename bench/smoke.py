"""Smoke self-test of the benchmark harness, at its smallest size.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run is correct, reports exactly the metrics BENCHMARK.json names with
their units, and reports that the planted perturbation was caught.  Then it
checks that the benchmark refuses, without a result, a directory holding
only BENCHMARK.json and bench/.  It never gates on a measured time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(root: Path, workload: str, trace: int):
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {[n for n in got if n in wanted and got[n] != wanted[n]]}")
    if not any(line.startswith("selfcheck: planted") and "caught:" in line
               for line in lines):
        problems.append(f"{label}: no caught planted perturbation reported")
    return problems


def check_bare_directory() -> list:
    """Without the sources the benchmark must fail and print no result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "shipped_suite", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
