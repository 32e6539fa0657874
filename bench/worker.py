"""One benchmark process: import tamelab, run one workload, write a report.

run.py starts this script in a fresh interpreter for every set-up sample
and for the measured loop, so set-up time and peak memory belong to the
workload alone.  The report is a JSON file; nothing is printed.
"""

from time import perf_counter

_START = perf_counter()

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import checks
from workloads import build_workloads

# Relative size of the value planted by the self-check: far below anything
# the CLI prints, far above the reference tolerance.
PLANTED_RTOL = 1e-6

# The speed probe runs after every timed op; run.py scales op times by
# nominal / probe time to take out the machine's speed drift.  Its two parts
# follow the two regimes of the workloads: short transforms between
# interpreter work, and 64K-point transforms.
PROBE_SMALL = (2048, 150)
PROBE_LARGE = (65536, 3)


def speed_probe() -> float:
    """Seconds for a fixed mix of FFTs and interpreter work."""
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.standard_normal(PROBE_SMALL[0])
    large = rng.standard_normal(PROBE_LARGE[0])
    start = perf_counter()
    total = 0.0
    for _ in range(PROBE_SMALL[1]):
        y = np.fft.ifft(np.fft.fft(small)).real
        for v in y[:64].tolist():
            total += v
    for _ in range(PROBE_LARGE[1]):
        np.fft.ifft(np.fft.fft(large))
    return perf_counter() - start


def import_tamelab(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import tamelab
    from tamelab import cli
    location = Path(tamelab.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"tamelab imported from {location}, outside {src}")
    return tamelab, cli


def run_op(cli, jobs, out: Path, seed: int):
    """Run every job of one operation; returns (seconds, [(job, code, stdout)])."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = []
    start = perf_counter()
    for job in jobs:
        argv = list(job.argv) + ["--set", f"seed={seed}",
                                 "--output_dir", str(out / job.name)]
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed op, not a dead benchmark
            code = "exception: " + traceback.format_exc(limit=-1).strip()
        results.append((job, code, stdout.getvalue()))
    return perf_counter() - start, results


def check_op(results, out: Path, reference, first) -> list:
    findings = []
    for job, code, stdout in results:
        findings += checks.check_job(job, out / job.name, code, stdout, reference)
    if first is not None:
        findings += checks.compare_snapshots(checks.snapshot(out), first)
    return findings


def plant_and_check(results, out: Path, copy: Path, reference, first) -> dict:
    """Perturb one output value slightly and confirm the checks catch it.

    A trace gets a relative change of PLANTED_RTOL in one norm, which the
    reference comparison must flag; an audit, which has no seed-free
    reference, gets a one-ulp change that only byte equality can see.
    """
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    job = results[0][0]
    if job.seed_free:
        name, column, prefix = job.seed_free[0], "norm_a", "2,1,"
        bump = lambda v: v * (1.0 + PLANTED_RTOL)
    else:
        name, column, prefix = job.audit, "constant", ""
        bump = lambda v: math.nextafter(v, math.inf)
    path = copy / job.name / name
    lines = path.read_text().split("\n")
    col = lines[0].split(",").index(column)
    i = next(i for i, line in enumerate(lines) if i and line.startswith(prefix))
    cells = lines[i].split(",")
    old = cells[col]
    cells[col] = f"{bump(float(old)):.17g}"
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))
    findings = check_op(results, copy, reference, first)
    shutil.rmtree(copy)
    return {"planted": f"{job.name}/{name} line {i + 1} {column}: {old} -> {cells[col]}",
            "caught": [f for f in findings if name in f]}


def layer_metrics(rec, traced_times, untraced_times, written) -> dict:
    m = rec.metrics(len(traced_times))
    m["cli.files_written"] = (statistics.mean(w[0] for w in written), "1/op")
    m["cli.bytes_written"] = (statistics.mean(w[1] for w in written), "B/op")
    m["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(untraced_times), "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run's spans go")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    root = args.root.resolve()
    jobs = build_workloads(root)[args.workload]
    reference = root / "bench" / "reference"
    out = args.work / "out"

    tamelab, cli = import_tamelab(root)
    _, results = run_op(cli, jobs, out, args.seed)
    setup_s = perf_counter() - _START
    report = {"setup_s": setup_s, "tamelab_file": tamelab.__file__,
              "numpy": sys.modules["numpy"].__version__,
              "setup_probe_s": statistics.median(speed_probe() for _ in range(3))}
    if args.write_reference:
        for job in jobs:
            for name in job.seed_free:
                (reference / job.name).mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / job.name / name, reference / job.name / name)
    report["setup_findings"] = check_op(results, out, reference, None)
    if args.setup_only or args.write_reference:
        args.report.write_text(json.dumps(report))
        return 0

    first = checks.snapshot(out)
    report["selfcheck"] = plant_and_check(results, out, args.work / "planted",
                                          reference, first)

    recorder = None
    if args.trace:
        import recorder as recorder_module
        recorder = recorder_module.Recorder()
    times, starts, probes, traced, written = [], [], [], [], []
    failed, failures = 0, []
    min_ops = 2 if recorder is not None else 1   # traced mode needs one of each
    loop_start = perf_counter()
    while len(times) < min_ops or perf_counter() < loop_start + args.seconds:
        index = len(times)
        starts.append(perf_counter() - loop_start)
        use_trace = recorder is not None and index % 2 == 1
        if use_trace:
            recorder.op_id = index
            recorder.install()
        try:
            seconds, results = run_op(cli, jobs, out, args.seed)
        finally:
            if use_trace:
                recorder.uninstall()
        findings = check_op(results, out, reference, first)
        times.append(seconds)
        probes.append(speed_probe())
        traced.append(use_trace)
        if use_trace:
            files = checks.snapshot(out)
            written.append((len(files), sum(len(b) for b in files.values())))
        if findings:
            failed += 1
            failures.extend(f for f in findings if f not in failures)
    report["op_times"] = [t for t, tr in zip(times, traced) if not tr]
    report["op_starts"] = [s for s, tr in zip(starts, traced) if not tr]
    report["op_probes"] = [p for p, tr in zip(probes, traced) if not tr]
    report["failed"] = failed
    report["attempted"] = len(times)
    report["failures"] = failures[:10]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        traced_times = [t for t, tr in zip(times, traced) if tr]
        report["layers"] = layer_metrics(recorder, traced_times,
                                         report["op_times"], written)
        report["spans"] = len(recorder.spans)
        recorder.write_spans(args.spans)
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
