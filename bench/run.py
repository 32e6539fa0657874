"""Benchmark of the tamelab CLI: three closed-loop workloads, one client each.

    python3 bench/run.py --workload shipped_suite --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the checkout it sits in.  Every workload
runs in fresh child processes (bench/worker.py) with BLAS and OpenMP pinned
to one thread and tamelab imported from the checkout's src/.  Outputs go to
a temporary directory under .bench_out/, removed at the end; the run's full
report (environment record, per-op times, check findings) and, with
--trace 1, the spans stay in .bench_out/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a separate run that alternates traced and
untraced operations.  See bench/DESIGN.md for the workloads and metrics.

    python3 bench/run.py --write-reference

regenerates the seed-free reference CSVs under bench/reference/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Fresh processes per run whose import + first operation time is the
# set-up sample; the measured process is the last of them.
SETUP_SAMPLES = 5
# Times are reported at a nominal machine speed: each is scaled by
# PROBE_NOMINAL_S over the median time of the speed probes run within
# PROBE_WINDOW_S of it.  The machine this benchmark was defined on drifts by
# a third over tens of seconds; the probe follows that drift (see
# DESIGN.md).  Raw times stay in the run's report.
PROBE_NOMINAL_S = 0.035
PROBE_WINDOW_S = 8.0
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    """Machine, versions, thread settings and source identity of the run."""
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "threads": {v: "1" for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_worker(args, work: Path, deadline: float, *flags) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its report."""
    report = work / "report.json"
    report.unlink(missing_ok=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    command = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work), "--report", str(report),
               "--spans", str(OUT / f"spans-{args.workload}.csv.gz"), *flags]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not report.is_file():
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(report.read_text())


def tail(times: list) -> tuple:
    """Highest percentile with at least ten samples above it:
    (value, percentile, samples beyond).  Below eleven samples no
    percentile qualifies, and the maximum is reported with 0 beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def normalized(times: list, starts: list, probes: list) -> list:
    return [t * PROBE_NOMINAL_S / statistics.median(
                p for s, p in zip(starts, probes) if abs(s - start) <= PROBE_WINDOW_S)
            for t, start in zip(times, starts)]


def measure(args) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, Path(work), deadline, "--setup-only"))
        report = run_worker(args, Path(work), deadline)
    setups.append(report)
    findings = [f for s in setups for f in s["setup_findings"]] + report["failures"]
    correct = not findings and report["failed"] == 0 and bool(report["selfcheck"]["caught"])
    if args.trace:
        metrics = report["layers"]
    else:
        times = normalized(report["op_times"], report["op_starts"], report["op_probes"])
        tail_value, percentile, beyond = tail(times)
        report["tail"] = {"percentile": percentile, "samples_beyond": beyond,
                          "samples": len(times)}
        report["setup_samples_s"] = [s["setup_s"] * PROBE_NOMINAL_S / s["setup_probe_s"]
                                     for s in setups]
        report["raw_op_p50_s"] = statistics.median(report["op_times"])
        report["raw_setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {
            "setup_s": (statistics.median(report["setup_samples_s"]), "s"),
            "ops_per_s": ((report["attempted"] - report["failed"]) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    report["findings"] = findings
    report["environment"] = environment(args.seed)
    report["environment"]["numpy"] = report["numpy"]
    return correct, report, metrics


def summary_lines(args, correct, report, metrics) -> list:
    env = report["environment"]
    caches = " ".join(f"{k}={v}" for k, v in env["caches"].items())
    lines = [
        f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu']!r}, {caches}, BLAS/OpenMP threads 1, "
        f"commit {env['git_commit'] or 'n/a'}, src sha256 {env['source_sha256'][:12]}, "
        f"seed {args.seed}",
        f"tamelab: {report['tamelab_file']}",
        f"selfcheck: planted {report['selfcheck']['planted']}; "
        + (f"caught: {report['selfcheck']['caught'][0]}" if report["selfcheck"]["caught"]
           else "NOT caught"),
        f"{args.workload}: attempted {report['attempted']}, failed {report['failed']}, "
        f"failed_ratio {report['failed'] / report['attempted']:.4g} ratio, correct {correct}",
    ]
    lines += [f"  finding: {f}" for f in report["findings"][:10]]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            t = report["tail"]
            note = (f"  (p{t['percentile']:.1f}, {t['samples_beyond']} of "
                    f"{t['samples']} samples beyond)")
        elif name == "setup_s":
            note = (f"  (median of {len(report['setup_samples_s'])} fresh processes; "
                    f"raw {report['raw_setup_s']:.6g} s)")
        elif name == "op_p50_s":
            note = f"  (raw {report['raw_op_p50_s']:.6g} s)"
        lines.append(f"  {name} = {value:.6g} {unit}{note}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference/ from this checkout")
    args = parser.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "tamelab" / "__init__.py").is_file():
        print(f"bench: no tamelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            deadline = time.monotonic() + TIME_LIMIT_S
            OUT.mkdir(exist_ok=True)
            for args.workload in WORKLOADS:
                with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
                    run_worker(args, Path(work), deadline, "--write-reference")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        correct, report, metrics = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    for line in summary_lines(args, correct, report, metrics):
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
