"""The benchmark's workloads: which CLI calls make up one operation, and what
each call must produce.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  An operation is a fixed list of
``tamelab.cli.main`` calls; the seed reaches the program only as
``--set seed=<n>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("shipped_suite", "class_audit", "fine_grid_run")


@dataclass(frozen=True)
class Job:
    """One CLI call of an operation and the checks on its outputs.

    argv excludes --set seed and --output_dir, which the runner appends.
    seed_free lists the CSVs that do not depend on the seed; they are compared
    against the checked-in references.  gain is n_points / (2 lambda), which
    scales their rounding tolerance per derivative order.  slopes maps a fit
    CSV to the lambda*ell whose -ln its k=0 slope must match.
    """

    name: str
    argv: tuple[str, ...]
    exit_code: int = 0
    stdout_marks: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    seed_free: tuple[str, ...] = ()
    gain: float = 1.0
    slopes: dict = field(default_factory=dict)
    audit: str = ""


def read_flat_config(path: Path) -> dict:
    """key = value lines with # comments, as the shipped configs use.

    Parsed here rather than with tamelab's parser so that the expected
    values the checks use do not come from the code under test."""
    mapping = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _lambda_ell(cfg: dict) -> float:
    return int(cfg["lambda"]) * float(cfg["ell"])


def _gain(config: Path, *extra) -> float:
    """n_points / (2 lambda) of a config with --set overrides applied."""
    cfg = read_flat_config(config)
    cfg.update(item.split("=", 1) for item in extra if "=" in item)
    return int(cfg["n_points"]) / (2 * int(cfg["lambda"]))


def _run_job(name, config, *extra, exit_code=0, flag="completed", plot=False):
    argv = ("run", "--config", str(config)) + extra + (("--plot",) if plot else ())
    files = ("trace.csv",) + (("trace.svg",) if plot else ())
    return Job(name, argv, exit_code=exit_code, stdout_marks=(f"flag={flag}",),
               files=files, seed_free=("trace.csv",), gain=_gain(config, *extra))


def build_workloads(root: Path) -> dict:
    """Workload name -> the jobs of one operation, configs under root/configs."""
    configs = root / "configs"
    default = configs / "default.cfg"
    decay_ll = _lambda_ell(read_flat_config(configs / "decay.cfg"))
    sweep_cfg = read_flat_config(configs / "sweep.cfg")
    sweep_lls = [float(v) for v in sweep_cfg["lambda_ell"].split(",")]
    sweep_fits = {f"decay_ll{ll:g}.csv": ll for ll in sweep_lls}
    shipped = (
        _run_job("run_default", default, plot=True),
        _run_job("run_two_component", configs / "two_component.cfg"),
        Job("decay", ("decay", "--config", str(configs / "decay.cfg"), "--plot"),
            files=("decay.csv", "trace.csv", "trace.svg"),
            seed_free=("decay.csv", "trace.csv"), gain=_gain(configs / "decay.cfg"),
            slopes={"decay.csv": decay_ll}),
        Job("r5_demo", ("r5-demo", "--config", str(configs / "r5.cfg")),
            stdout_marks=("stalled=True",),
            files=("r5_clean.csv", "r5_with.csv"),
            seed_free=("r5_clean.csv", "r5_with.csv")),
        Job("sweep", ("sweep", "--config", str(configs / "sweep.cfg"), "--plot"),
            files=tuple(sweep_fits) + tuple(f[:-4] + ".svg" for f in sweep_fits),
            seed_free=tuple(sweep_fits), slopes=sweep_fits),
        Job("ledger", ("ledger", "--csv"), stdout_marks=("threshold 3",),
            files=("ledger.csv",), seed_free=("ledger.csv",)),
        # lambda*ell = 32 * 0.05 = 1.6, below the threshold 3: the run must
        # leave the inverse's domain and exit with the numerical-failure code.
        _run_job("run_below_threshold", default, "--set", "ell=0.05",
                 exit_code=2, flag="diverged"),
    )
    audit = (Job("remainder_audit",
                 ("remainder-audit", "--config", str(configs / "audit.cfg")),
                 stdout_marks=("audited as R2): stable=False",),
                 files=("audit.csv",), audit="audit.csv"),)
    fine = (_run_job("run_fine_grid", default, "--set", "lambda=1024",
                     "--set", "ell=0.125", "--set", "n_points=65536"),)
    return dict(zip(WORKLOADS, (shipped, audit, fine)))
