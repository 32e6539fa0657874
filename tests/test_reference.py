"""Every shipped_suite and fine_grid_run job of the benchmark, run through the
CLI: each exits with its documented code, and each seed-free CSV matches the
checked-in reference under bench/reference/ (exact on the header, the shape,
the step and order columns and empty cells, within rounding elsewhere).

bench/workloads.py and bench/checks.py are loaded by path and only read, so
the jobs, the references and the comparison are the benchmark's own."""

import importlib.util
import sys
from pathlib import Path

import pytest

from tamelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = load("checks")
WORKLOADS = load("workloads").build_workloads(ROOT)
JOBS = [job for workload in ("shipped_suite", "fine_grid_run")
        for job in WORKLOADS[workload]]


@pytest.mark.parametrize("job", JOBS, ids=[job.name for job in JOBS])
def test_job_matches_reference(job, tmp_path, capsys):
    out = tmp_path / job.name
    assert main(list(job.argv) + ["--output_dir", str(out)]) == job.exit_code
    assert job.seed_free
    for name in job.seed_free:
        assert checks.compare_csv(out / name, BENCH / "reference" / job.name / name,
                                  job.gain) == []
