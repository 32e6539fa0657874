import contextlib
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamelab import verify
from tamelab.cli import (
    FIT_FROM,
    KEYS,
    SCALAR_ONLY,
    TRACE_COLUMNS,
    ConfigError,
    _csv,
    build_parser,
    _trace_rows,
    _write_fits,
    emit_plot,
    load_experiment_config,
    main,
    parse_flat_config,
)
from tamelab.gridfield import (PERIOD, FieldSpectrum, ResolutionError, oscillator,
                               points_needed)
from tamelab.iteration import IDENTITY_TOL, run
from tamelab.ledger import CONSTANT_CAP, stock_constants
from tamelab.problem import KINDS, R1, IterationParams, RemainderTerm, make_scalar_toy
from tamelab.verify import MIN_FIT_STEPS, DecayFit, InsufficientSteps

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
kind = scalar
lambda = 16
ell = 4
k0 = 4
k1 = 1
n_points = 1024
n_steps = 3
seed = 3
"""


class TestConfigParsing:
    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "mystery = 1\n")
        code = main(["run", "--config", cfg, "--output_dir", str(tmp_path)])
        assert code == 1
        assert "mystery" in capsys.readouterr().err

    def test_bad_numeric_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("ell = 4", "ell = four"))
        assert main(["run", "--config", cfg]) == 1
        assert "ell" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ("ell=0.05", "amplitude=10"),  # target outside the 1/(3 C_F) neighborhood
        ("seed=-1",),
        ("n_points=8388608",),         # 2^23, above the sample cap
        ("ell=nan",),
        ("ell=inf",),
        ("ell=8",),                    # mollifier width must lie in (0, 2 pi)
        ("amplitude=nan",),
        ("C_F=nan",),
        ("drift=inf",),
        ("r5_strength=nan",),
        # A leading subcommand runs it on its own shipped config.
        ("remainder-audit", "n_points=1024"),   # lambda=64 at k=3 needs 2048
        # The audit draws scalars only.
        *[("remainder-audit", f"kind={kind}") for kind in KINDS if kind != "scalar"],
        ("amplitude=1e308",),          # the mollified target overflows
        # C_F < 1/3 puts nonpositive tensors, where F = sqrt is undefined,
        # inside the target radius 1/(3 C_F).
        ("C_F=1e-300",),
        ("lambda=1", "ell=1.5", "amplitude=3.5", "C_F=0.25"),
        ("lambda=1", "ell=1.5", "amplitude=3.086", "C_F=0.332"),
    ])
    def test_bad_input_exits_one(self, overrides, tmp_path, capsys):
        command, config, output = "run", "default.cfg", "trace.csv"
        if overrides[0] == "remainder-audit":
            command, config, output = overrides[0], "audit.cfg", "audit.csv"
            overrides = overrides[1:]
        argv = [command, "--config", str(CONFIG_DIR / config),
                "--output_dir", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / output).exists()

    def test_precondition_checked_before_compute(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("lambda = 16", "lambda = 4096"))
        assert main(["run", "--config", cfg]) == 1
        assert "unresolved" in capsys.readouterr().err

    def test_experiment_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "experiment = decay\n")
        assert main(["run", "--config", cfg]) == 1
        assert "decay" in capsys.readouterr().err

    def test_set_overrides(self):
        cfg = load_experiment_config("run", None, [
            "lambda=16", "ell=2", "k0=4", "k1=1", "n_points=1024", "n_steps=3"])
        assert cfg.problem.lam == 16 and cfg.problem.ell == 2.0

    def test_defaults_are_iteration_params(self):
        assert load_experiment_config("run", None, []).problem == IterationParams()

    def test_set_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_experiment_config("run", None, ["lambda"])

    def test_lambda_ell_list(self):
        cfg = load_experiment_config("sweep", None, ["lambda_ell=64,128"])
        assert cfg.lambda_ell == (64.0, 128.0)
        with pytest.raises(ConfigError, match="lambda_ell"):
            load_experiment_config("sweep", None, ["lambda_ell=64,abc"])

    def test_plot_flag_values(self):
        assert load_experiment_config("run", None, ["plot=true"]).plot
        with pytest.raises(ConfigError, match="plot"):
            load_experiment_config("run", None, ["plot=yes"])

    @pytest.mark.parametrize("argv", [["run", "--bogus"], [],
                                      ["run", "--set"], ["no-such-command"]])
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0

    def test_reused_parser_keeps_no_flags(self, tmp_path):
        # One parser serves every main call of the process; a call's
        # --plot, --csv and --set must not reach the next call.
        assert build_parser() is build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(shipped_argv("run", first, "--plot", "--set", "n_steps=4")) == 0
        assert main(shipped_argv("run", second)) == 0
        assert sorted(p.name for p in first.iterdir()) == ["trace.csv", "trace.svg"]
        assert [p.name for p in second.iterdir()] == ["trace.csv"]
        last_steps = [(out / "trace.csv").read_text().splitlines()[-1].split(",")[0]
                      for out in (first, second)]
        assert last_steps == ["4", "5"]
        assert main(shipped_argv("ledger", tmp_path / "csv")) == 0
        assert main(["ledger", "--output_dir", str(tmp_path / "bare")]) == 0
        assert (tmp_path / "csv" / "ledger.csv").exists()
        assert not (tmp_path / "bare").exists()

    @pytest.mark.parametrize("command", ["run", "decay", "remainder-audit",
                                         "r5-demo", "sweep"])
    def test_csv_outside_ledger_is_a_usage_error(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(shipped_argv(command, tmp_path, "--csv"))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--csv is read by ledger only" in err
        assert list(tmp_path.iterdir()) == []


# Each subcommand with its shipped config and the file it would write.
SHIPPED = {
    "run": ("default.cfg", "trace.csv"),
    "decay": ("decay.cfg", "decay.csv"),
    "sweep": ("sweep.cfg", "decay_ll64.csv"),
    "r5-demo": ("r5.cfg", "r5_clean.csv"),
    "remainder-audit": ("audit.cfg", "audit.csv"),
    "ledger": (None, "ledger.csv"),
}


def shipped_argv(command, tmp_path, *extra):
    config, _ = SHIPPED[command]
    argv = [command, "--output_dir", str(tmp_path)]
    if config is not None:
        argv += ["--config", str(CONFIG_DIR / config)]
    if command == "ledger":
        argv.append("--csv")
    return argv + list(extra)


class TestKeyTable:
    @pytest.mark.parametrize("command, item", [
        ("run", "C_r=5"),
        ("run", "C=7"),
        ("run", "lambda_ell=64"),
        ("decay", "C_err=2"),
        ("sweep", "ell=1"),
        ("r5-demo", "drift=0.5"),
        # r5-demo reads kind, but takes scalar only.
        *[("r5-demo", f"kind={kind}") for kind in KINDS if kind != "scalar"],
        ("r5-demo", "--plot"),
        ("ledger", "r5_strength=3"),
        ("ledger", "n_points=4096"),
        ("ledger", "--plot"),
        ("remainder-audit", "lambda_ell=64"),
        ("remainder-audit", "--plot"),
    ])
    def test_key_not_read_exits_one(self, command, item, tmp_path, capsys):
        extra = [item] if item.startswith("--") else ["--set", item]
        assert main(shipped_argv(command, tmp_path, *extra)) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert repr(item.lstrip("-").split("=")[0]) in err
        assert list(tmp_path.iterdir()) == []

    def test_audit_runs_at_any_ell(self, tmp_path, capsys):
        # lambda*ell > 1 involves lambda, which the audit does not read.
        code = main(shipped_argv("remainder-audit", tmp_path, "--set", "ell=0.02"))
        assert code == 0 and (tmp_path / "audit.csv").exists()

    def test_ledger_ignores_the_grid(self, tmp_path, capsys):
        # lambda=1024 is unresolved at the default n_points, which the
        # ledger does not read.
        code = main(shipped_argv("ledger", tmp_path, "--set", "lambda=1024"))
        assert code == 0 and (tmp_path / "ledger.csv").exists()

    @pytest.mark.parametrize("command, items, message", [
        ("remainder-audit", ["n_points=3000"], "n_points"),
        ("ledger", ["k0=0"], "k0"),
        ("ledger", ["ell=0.01"], "lambda*ell"),
        ("run", ["ell=0.05", "lambda=16"], "lambda*ell"),
        ("sweep", ["lambda_ell=64,512"], "lambda_ell 512"),  # ell = 8 at lambda 64
        # safe_leibniz(k) overflows a float above k = 514
        ("ledger", ["k0=600"], "k0 must be a positive integer up to 514"),
        ("run", ["k0=600"], "k0 must be a positive integer up to 514"),
        # one order per step: k0 = 3 cannot carry k1 = 2 through 5 steps
        ("run", ["k0=3", "k1=2"], "need k0 >= k1 + n_steps = 7"),
        ("r5-demo", ["k0=6"], "need k0 >= k1 + n_steps = 7"),
        # a lambda beyond float range used to overflow in the checks
        ("run", ["lambda=" + "1" * 400], "lambda must be a positive integer up to"),
        ("ledger", ["lambda=" + "1" * 400], "lambda must be a positive integer up to"),
        ("ledger", ["lambda=524289"], "up to 524288"),
        # the ledger reads no k1, so no budget check bounds its one table
        # row per step; no build can take more than 513 steps
        ("ledger", ["n_steps=514"], "n_steps must be an integer from 1 to 513"),
    ])
    def test_range_and_cross_key_checks(self, command, items, message, tmp_path,
                                        capsys):
        extra = [arg for item in items for arg in ("--set", item)]
        assert main(shipped_argv(command, tmp_path, *extra)) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values, message", [
        ("64.00001,64.000011",
         "lambda_ell values 64.00001, 64.000011 share the file decay_ll64.csv"),
        ("64,64", "lambda_ell values 64.0, 64.0 share the file decay_ll64.csv"),
    ])
    def test_sweep_values_sharing_a_file_refused(self, values, message, tmp_path,
                                                 capsys):
        # sweep names its files by lambda_ell:g, so these values would write
        # one file and keep the last run's fits
        code = main(shipped_argv("sweep", tmp_path, "--set", f"lambda_ell={values}"))
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, n_steps, minimum", [
        ("decay", 2, 3), ("decay", 1, 3), ("sweep", 2, 3),
        ("r5-demo", 3, 4), ("r5-demo", 2, 4),  # r5-demo fits from step 2
    ])
    def test_too_few_steps_to_fit_refused_before_build(
            self, command, n_steps, minimum, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tamelab.cli._build", no_build)
        assert main(shipped_argv(command, tmp_path, "--set", f"n_steps={n_steps}")) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"n_steps must be >= {minimum}, got {n_steps}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, n_steps", [
        ("decay", 3), ("sweep", 3), ("r5-demo", 4), ("run", 1), ("ledger", 1),
    ])
    def test_fewest_steps_accepted(self, command, n_steps, tmp_path, capsys):
        assert main(shipped_argv(command, tmp_path, "--set", f"n_steps={n_steps}")) == 0
        assert (tmp_path / SHIPPED[command][1]).exists()

    def test_sweep_runs_without_config(self, tmp_path, capsys):
        # the default lambda_ell values give ell < 2*pi at the default lambda
        assert main(["sweep", "--output_dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "decay_ll128.csv", "decay_ll32.csv", "decay_ll64.csv"]

    def test_largest_bounds_accepted(self, tmp_path, capsys):
        assert main(shipped_argv("ledger", tmp_path, "--set", "k0=514",
                                 "--set", "lambda=524288")) == 0
        assert main(shipped_argv("run", tmp_path / "run", "--set", "k0=514")) == 0
        steps = tmp_path / "steps"
        assert main(shipped_argv("ledger", steps, "--set", "n_steps=513")) == 0
        assert len((steps / "ledger.csv").read_text().splitlines()) == 1 + 513

    @pytest.mark.parametrize("k0, code", [(102, 0), (103, 1)])
    def test_norm_order_needs_a_finite_multiplier(self, k0, code, tmp_path, capsys):
        # (n/2)^k is finite up to order 102 at 2048 points; at lambda = 1
        # the grid resolves order 255, so the step-0 norm order is k0.
        assert main(shipped_argv("run", tmp_path, "--set", "lambda=1", "--set", "k1=1",
                                 "--set", "n_steps=1", "--set", f"k0={k0}")) == code
        err = capsys.readouterr().err
        assert ("config error: norm order 103 overflows at n_points=2048: the "
                "derivative multiplier (n_points/2)^k is finite only up to order "
                "102\n" if code else "") == err

    def test_overflowing_norm_order_refused_before_build(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr("tamelab.cli._build", no_build)
        assert main(shipped_argv("run", tmp_path, "--set", "n_points=4194304",
                                 "--set", "lambda=1", "--set", "k0=514")) == 1
        err = capsys.readouterr().err
        assert "config error: norm order 514 overflows" in err
        assert "finite only up to order 48" in err
        assert list(tmp_path.iterdir()) == []

    def test_every_subcommand_accepts_seed(self):
        # the benchmark appends --set seed=<n> to every call
        for command, (config, _) in SHIPPED.items():
            path = None if config is None else str(CONFIG_DIR / config)
            cfg = load_experiment_config(command, path, ["seed=3"])
            assert cfg.problem.seed == 3


def no_build(*args, **kwargs):
    raise AssertionError("built an instance")


def _accepts(call):
    """Whether call returns, False when it raises ResolutionError."""
    try:
        call()
    except ResolutionError:
        return False
    return True


def _run_refusal(lam, k1, n_points):
    """The run subcommand's config error at lambda, k1 and n_points, or ''."""
    try:
        load_experiment_config("run", None, [
            f"lambda={lam}", f"k1={k1}", f"k0={k1 + 1}", "n_steps=1",
            f"n_points={n_points}", f"ell={2.0 / lam}"])
    except ConfigError as exc:
        return str(exc)
    return ""


# Each consumer of the resolution rule: the (frequency, order) pairs it
# judges, and whether it accepts a grid of n points at one of them.
RULE_READERS = {
    "oscillator": (lambda f, k: k == 0,
                   lambda f, k, n: _accepts(lambda: oscillator(1.0, f, n_points=n))),
    "FieldSpectrum.norms": (lambda f, k: f == 1, lambda f, k, n: _accepts(
        lambda: FieldSpectrum(np.zeros(n)).norms(k))),
    "audit_classes": (lambda f, k: True, lambda f, k, n: _accepts(
        lambda: verify.audit_classes([(RemainderTerm(R1), R1)],
                                     IterationParams(n_points=n), n_samples=10,
                                     k_max=k, lambda_grid=(f,)))),
    "k_safe": (lambda f, k: True,
               lambda f, k, n: IterationParams(lam=f, n_points=n).k_safe >= k),
    "cli frequency check": (lambda f, k: k == 0,
                            lambda f, k, n: "unresolved" not in _run_refusal(f, 1, n)),
    "cli k1 check": (lambda f, k: k >= 1, lambda f, k, n: _run_refusal(f, k, n) == ""),
}
RULE_POINTS = [(1, 1), (1, 3), (2, 0), (4, 0), (2, 1), (4, 1), (16, 3)]


@pytest.mark.parametrize("reader, frequency, k", [
    (reader, f, k) for reader, (judges, _) in RULE_READERS.items()
    for f, k in RULE_POINTS if judges(f, k)])
def test_resolution_rule_switches_at_one_point(reader, frequency, k):
    # Every reader of the rule accepts n = 8 f (k + 1) points and refuses
    # half as many.
    n = 8 * frequency * (k + 1)
    assert points_needed(frequency, k) == n
    accepts = RULE_READERS[reader][1]
    assert accepts(frequency, k, n)
    assert not accepts(frequency, k, n // 2)


def test_resolution_refusals_name_the_needed_size():
    with pytest.raises(ResolutionError, match="frequency 4 unresolved at "
                       "n_points=16: need n_points >= 32"):
        oscillator(1.0, 4, n_points=16)
    with pytest.raises(ResolutionError, match="norm order 3 unresolved at "
                       "n_points=16: need n_points >= 32"):
        FieldSpectrum(np.zeros(16)).norms(3)
    assert _run_refusal(4, 1, 32) == ("grid resolves norms only to order 0 at "
                                      "frequency 4; k1=1 needs n_points >= 64")
    assert _run_refusal(4, 1, 16) == "frequency 4 unresolved at n_points=16"


class TestOutputDir:
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_file_in_the_path_refused_before_build(self, below, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("tamelab.cli._build", no_build)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / below
        assert main(["run", "--config", str(CONFIG_DIR / "default.cfg"),
                     "--output_dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: output_dir {str(out)!r} is not a directory\n")
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command", ["run", "ledger"])
    def test_failed_write_is_one_line(self, command, tmp_path, capsys):
        # A directory where the output file goes: the write fails in
        # os.replace, after the work.
        (tmp_path / SHIPPED[command][1] / "occupied").mkdir(parents=True)
        assert main(shipped_argv(command, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("write error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [SHIPPED[command][1]]


class TestR5DemoCommand:
    def test_strength_zero_runs_at_zero(self, tmp_path, capsys):
        assert main(shipped_argv("r5-demo", tmp_path, "--set", "r5_strength=0")) == 0
        out = capsys.readouterr().out
        assert "no effect: the two runs are identical (strength 0?)" in out
        assert (tmp_path / "r5_with.csv").read_bytes() == (
            tmp_path / "r5_clean.csv").read_bytes()

    @pytest.mark.parametrize("item, step", [
        ("ell=0.05", 2),          # lambda*ell = 1.6: both runs escape
        ("r5_strength=45", 5),    # only the self-interaction run escapes
    ])
    def test_escape_exits_two_before_any_fit(self, item, step, tmp_path, capsys):
        assert main(shipped_argv("r5-demo", tmp_path, "--set", item)) == 2
        err = capsys.readouterr().err
        assert f"escape from the inverse's domain at step {step}" in err
        assert list(tmp_path.iterdir()) == []


class TestLedgerCommand:
    def test_threshold_printed(self, capsys):
        assert main(["ledger", "--set", "C_F=1", "--set", "C_r=1"]) == 0
        out = capsys.readouterr().out
        assert "threshold 3" in out
        assert "C_diff" in out

    def test_csv_written(self, tmp_path, capsys):
        code = main(["ledger", "--set", "C_F=2", "--set", "C_r=5",
                     "--output_dir", str(tmp_path), "--csv"])
        assert code == 0
        lines = (tmp_path / "ledger.csv").read_text().splitlines()
        assert lines[0] == "step,C,C_err,C_r,C_diff,threshold"
        assert float(lines[1].split(",")[5]) == 30.0

    def test_threshold_saturates_at_the_cap(self, tmp_path, capsys):
        # 3 C_F C_r overflows at C_F = 1e308; the threshold saturates at
        # CONSTANT_CAP like every propagated constant.
        code = main(["ledger", "--set", "C_F=1e308", "--output_dir",
                     str(tmp_path), "--csv"])
        assert code == 0
        assert "threshold 1e+300\n" in capsys.readouterr().out
        rows = (tmp_path / "ledger.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(float(row.split(",")[5]) == CONSTANT_CAP for row in rows)

    def test_default_constants_are_the_stock_set(self, tmp_path, capsys):
        # The C, C_err and C_r keys default to the ledger's stock constants.
        assert main(["ledger", "--output_dir", str(tmp_path), "--csv"]) == 0
        first = (tmp_path / "ledger.csv").read_text().splitlines()[1].split(",")
        stock = stock_constants(IterationParams())
        assert [float(v) for v in first[1:4]] == [stock.c, stock.c_err, stock.c_r]

    @pytest.mark.parametrize("item", ["C_r=nan", "C=inf", "C_err=nan"])
    def test_non_finite_constant_exits_one(self, item, tmp_path, capsys):
        code = main(["ledger", "--set", item, "--output_dir", str(tmp_path),
                     "--csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err and item.split("=")[0] in err
        assert not (tmp_path / "ledger.csv").exists()


class TestAuditKeys:
    @pytest.mark.parametrize("item", ["drift=0.5", "lambda=16", "amplitude=0.1",
                                      "r5_strength=2", "k0=5"])
    def test_unread_key_refused(self, item, tmp_path, capsys):
        code = main(["remainder-audit", "--config", str(CONFIG_DIR / "audit.cfg"),
                     "--set", item, "--output_dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err and repr(item.split("=")[0]) in err
        assert not (tmp_path / "audit.csv").exists()

    def test_unread_key_in_config_refused(self, tmp_path, capsys):
        text = (CONFIG_DIR / "audit.cfg").read_text() + "drift = 0.5\n"
        code = main(["remainder-audit", "--config", write_cfg(tmp_path, text),
                     "--output_dir", str(tmp_path)])
        assert code == 1
        assert "'drift'" in capsys.readouterr().err

    def test_read_keys_accepted(self, tmp_path, capsys):
        code = main(["remainder-audit", "--config", str(CONFIG_DIR / "audit.cfg"),
                     "--set", "seed=3", "--set", "kind=scalar",
                     "--output_dir", str(tmp_path)])
        assert code == 0 and (tmp_path / "audit.csv").exists()

    @pytest.mark.parametrize("ell", ["1e-154", "1e-155", "1e-300"])
    def test_overflowing_prefactor_exits_two(self, ell, tmp_path, capsys):
        # R2's prefactor ell**-2 leaves the float range in Python arithmetic
        # at 1e-155 and 1e-300; at 1e-154 it is finite and the term's norms
        # overflow.  Either way one line names the class, lambda and ell.
        code = main(shipped_argv("remainder-audit", tmp_path, "--set", f"ell={ell}"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"numerical failure: the class R2 term leaves the float range at "
            f"lambda=16, ell={ell}\n")
        assert list(tmp_path.iterdir()) == []


class TestRunCommand:
    def test_default_config_residuals(self, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_DIR / "default.cfg"),
                     "--output_dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        idx = lines[0].split(",").index("identity_residual")
        residuals = [float(c[idx]) for c in (l.split(",") for l in lines[1:])
                     if c[idx]]
        assert residuals and max(residuals) <= IDENTITY_TOL

    def test_subthreshold_run_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("ell = 4", "ell = 0.09"))
        code = main(["run", "--config", cfg, "--output_dir", str(tmp_path)])
        assert code == 2
        assert "escape" in capsys.readouterr().err
        assert (tmp_path / "trace.csv").exists()  # partial trace still written

    # The step-1 iterate carries the factor 1 + drift/(lam*ell): at 1e100
    # the run escapes at step 2, at 1e140 the remainder overflows and at
    # 1e200 the build's right-inverse self-check does.
    @pytest.mark.parametrize("item", ["drift=1e100", "drift=1e140", "drift=1e200"])
    def test_huge_drift_exits_two(self, item, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_DIR / "default.cfg"),
                     "--set", item, "--output_dir", str(tmp_path)])
        assert code == 2
        assert "numerical failure:" in capsys.readouterr().err

    # 3 C_F overflows above about 6e307; the target radius 1/3/C_F stays
    # positive up to the largest float, so the build succeeds and the run
    # escapes at step 2, as at 5e307, where 3 C_F is finite.
    @pytest.mark.parametrize("c_f", ["5e307", "1e308", "1.797e308"])
    def test_largest_c_f_builds_and_escapes(self, c_f, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_DIR / "default.cfg"),
                     "--set", f"C_F={c_f}", "--output_dir", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert "run: 1 steps, flag=diverged" in out
        assert err.startswith("numerical failure: escape from the inverse's "
                              "domain at step 2 ")


class TestSweepCommand:
    def test_three_values_three_csvs(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(CONFIG_DIR / "sweep.cfg"),
                     "--output_dir", str(tmp_path)])
        assert code == 0
        for ll in (64, 128, 256):
            path = tmp_path / f"decay_ll{ll}.csv"
            assert path.exists()
            slope = float(path.read_text().splitlines()[1].split(",")[1])
            assert abs(slope - (-math.log(ll))) <= 0.15 * math.log(ll)

    def test_escaped_value_skipped_others_written(self, tmp_path, capsys):
        # lambda_ell = 1.6 leaves the inverse's domain at step 2: sweep
        # names the escape, writes no file for it, still runs and writes
        # the other values, and then exits 2.
        code = main(["sweep", "--config", str(CONFIG_DIR / "sweep.cfg"),
                     "--set", "lambda_ell=1.6,64", "--output_dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "escape from the inverse's domain at step 2 (lambda*ell=1.6" in err
        assert (tmp_path / "decay_ll64.csv").exists()
        assert not list(tmp_path.glob("decay_ll1.6.*"))


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["default.cfg", "decay.cfg", "audit.cfg",
                                      "r5.cfg", "sweep.cfg", "two_component.cfg"])
    def test_config_passes_own_experiment(self, name, tmp_path, capsys):
        text = (CONFIG_DIR / name).read_text()
        experiment = parse_flat_config(text)["experiment"]
        code = main([experiment, "--config", str(CONFIG_DIR / name),
                     "--output_dir", str(tmp_path)])
        assert code == 0


class TestEmitPlot:
    def test_polyline_count_and_legend(self, tmp_path):
        p = IterationParams()
        trace = run(make_scalar_toy(p, 0.2))
        path = tmp_path / "plot.svg"
        emit_plot(trace, path)
        svg = path.read_text()
        assert svg.count("<polyline") == 3
        for k in (0, 1, 2):
            assert f">k={k}</text>" in svg
        assert "step i" in svg and "ln ||E_i||_k" in svg

    def test_single_k(self, tmp_path):
        # at 8 points per wavelength the grid resolves order 0 only
        p = IterationParams(k1=0, n_points=256)
        trace = run(make_scalar_toy(p, 0.2))
        path = tmp_path / "one.svg"
        emit_plot(trace, path)
        svg = path.read_text()
        assert svg.count("<polyline") == 1 and ">k=0</text>" in svg

    def test_empty_after_floor_refused(self, tmp_path):
        from dataclasses import replace
        p = IterationParams()
        trace = run(make_scalar_toy(p, 0.2))
        empty = replace(trace, target_sup=1e300)  # floor excludes every step
        with pytest.raises(InsufficientSteps):
            emit_plot(empty, tmp_path / "none.svg")

    def test_byte_deterministic(self, tmp_path):
        p = IterationParams()
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(run(make_scalar_toy(p, 0.2)), a)
        emit_plot(run(make_scalar_toy(p, 0.2)), b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def stock_trace():
    p = IterationParams()
    return run(make_scalar_toy(p, 0.2))


class TestCsvFormat:
    def test_cells(self):
        # %.17g: 17 significant digits, no trailing zeros; ints and text by str
        assert _csv(("a", "b", "c"), [(1, 0.1, None), ("x", 1 / 3, 2.0)]) == (
            "a,b,c\n1,0.10000000000000001,\nx,0.33333333333333331,2\n")

    def test_floats_read_back_bit_for_bit(self, stock_trace):
        rows = list(_trace_rows(stock_trace))
        lines = _csv(TRACE_COLUMNS, rows).splitlines()[1:]
        assert len(lines) == len(rows)
        for row, line in zip(rows, lines):
            cells = [None if c == "" else float(c) for c in line.split(",")]
            assert cells == list(row)


class TestTraceCsv:
    """The trace.csv the CLI writes, from _trace_rows through _csv."""

    def test_format_and_residual_column(self, stock_trace):
        lines = _csv(TRACE_COLUMNS, _trace_rows(stock_trace)).strip().splitlines()
        header = lines[0].split(",")
        assert header == ["step", "k", "norm_a", "norm_error", "norm_r",
                          "diff_norm", "identity_residual", "clause1_margin",
                          "clause2_margin", "clause3_margin", "clause4_margin"]
        expected_rows = sum(len(s.norms_a) for s in stock_trace.states)
        assert len(lines) - 1 == expected_rows
        residual_idx = header.index("identity_residual")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            if cells[0] != "0":
                assert cells[residual_idx] and float(cells[residual_idx]) <= IDENTITY_TOL

    def test_step0_margins_blank(self, tmp_path, capsys):
        # read from the file the run writes: the step-0 rows have no
        # transition and no margins; the step-1 row at k = 0 has no field
        # margin, which starts at k = 1
        assert main(["run", "--config", str(CONFIG_DIR / "default.cfg"),
                     "--output_dir", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "trace.csv").read_text().splitlines()[1:]]
        step0 = [row for row in rows if row[0] == "0"]
        assert step0 and all(row[5:] == [""] * 6 for row in step0)
        first = next(row for row in rows if row[0] == "1")
        assert first[1] == "0" and first[8] == "" and "" not in first[:8] + first[9:]

    def test_written_trace_transform_count(self, count_fft):
        # The run takes every column as its steps complete: rfft 19 calls
        # and rows, irfft 24 calls of 74 rows, as test_iteration's
        # TestTransformCount counts them.  Writing the trace then reads the
        # rows and transforms nothing.
        p = IterationParams()
        instance = make_scalar_toy(p, 0.2)
        log = count_fft()
        trace = run(instance)
        assert log.calls == {"rfft": 19, "irfft": 24}
        assert log.rows == {"rfft": 19, "irfft": 74}
        _csv(TRACE_COLUMNS, _trace_rows(trace))
        assert log.calls == {"rfft": 19, "irfft": 24}
        assert log.rows == {"rfft": 19, "irfft": 74}


class TestFitAndAuditCsv:
    def test_fit_csv_export(self, tmp_path):
        fit = DecayFit(k=0, slope=-2.302585092994046, intercept=0.1,
                       r_squared=1.0, steps_used=(1, 5))
        _write_fits(tmp_path / "fit.csv", [fit])
        lines = (tmp_path / "fit.csv").read_text().splitlines()
        assert lines[0] == "k,slope,intercept,r_squared,first_step,last_step"
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[4] == "1" and cells[5] == "5"
        assert (float(cells[1]), float(cells[2]), float(cells[3])) == (
            fit.slope, fit.intercept, fit.r_squared)

    def test_audit_csv_export(self, tmp_path, capsys):
        assert main(["remainder-audit", "--config", str(CONFIG_DIR / "audit.cfg"),
                     "--output_dir", str(tmp_path)]) == 0
        lines = (tmp_path / "audit.csv").read_text().splitlines()
        assert lines[0] == "class,k,constant,lambda,stable"
        # 4 stock classes and the control x 3 frequencies x orders 0..3
        assert len(lines) == 1 + 5 * 3 * 4
        assert lines[1].startswith("R1,0,") and lines[1].endswith(",16,true")
        assert lines[-1].startswith("R2,3,") and lines[-1].endswith(",64,false")


class TestPipelineDeterminism:
    @staticmethod
    def child(argv, threads):
        """Run python argv in a child process with BLAS at threads threads."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        done = subprocess.run([sys.executable, *argv], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_audit_bytes_independent_of_blas_threads(self, tmp_path):
        # the audit's fields are drawn by a BLAS product
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            self.child(["-m", "tamelab.cli", "remainder-audit", "--config",
                        str(CONFIG_DIR / "audit.cfg"), "--output_dir", str(out)],
                       threads)
            outputs.append((out / "audit.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_fine_grid_rows_independent_of_blas_threads(self):
        # at 65536 points the product is large enough for BLAS to split
        script = ("import hashlib, numpy as np; "
                  "from tamelab.gridfield import trig_coefficients, trig_rows; "
                  "rows = trig_rows(trig_coefficients(np.random.default_rng(1), 4), "
                  "1 << 16); "
                  "print(hashlib.sha256(rows.tobytes()).hexdigest())")
        assert self.child(["-c", script], 1) == self.child(["-c", script], 2)

    def test_repeated_run_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            code = main(["run", "--config", str(CONFIG_DIR / "default.cfg"),
                         "--output_dir", str(out), "--plot"])
            assert code == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "trace.svg").read_bytes() == (out2 / "trace.svg").read_bytes()


def _finite(low, high, usual):
    """Floats in [low, high], three in four of them in the usual interval."""
    return st.integers(0, 3).flatmap(
        lambda pick: st.floats(*usual) if pick else st.floats(low, high))


@st.composite
def cli_calls(draw):
    """A subcommand and --set items for every key of the drawn set it reads.
    Each value lies in its key's range; grid, frequency, width and budget
    are drawn to pass most checks across keys, so most calls compute."""
    command = draw(st.sampled_from(("run", "decay", "r5-demo", "sweep",
                                    "remainder-audit", "ledger")))
    # sweep's default lambda_ell values reach 128, so ell < 2*pi needs lambda > 20.
    sweep = command == "sweep"
    # The audit resolves its top frequency 64 to order 3 from 2048 points.
    # It reads no lambda, so its ell is drawn as 2**e, from 4 down to the
    # least float, 2**-1074.
    audit = command == "remainder-audit"
    audit_ell = st.floats(-1074.0, 2.0).map(lambda e: 2.0 ** e)
    n_points = 2 ** draw(st.integers(10 if sweep else 11 if audit else 4, 12))
    lam = draw(st.integers(21 if sweep else 1, n_points // 16))
    k1 = draw(st.integers(1, min(4, n_points // (8 * lam) - 1)))
    # From the fewest steps the subcommand accepts, so no draw is spent on
    # that refusal.
    fewest = (FIT_FROM[command] + MIN_FIT_STEPS - 1 if command in FIT_FROM
              else 1)
    n_steps = draw(st.integers(fewest, 6))
    values = {
        "kind": ("scalar" if command in SCALAR_ONLY
                 else draw(st.sampled_from(KINDS))),
        "lambda": lam,
        "ell": draw(audit_ell if audit else st.floats(
            1.0 / lam, PERIOD, exclude_min=True, exclude_max=True)),
        "amplitude": draw(_finite(0.0, 1e308, (0.0, 0.3))),
        "C_F": draw(_finite(5e-324, 1e308, (1 / 3, 4.0))),
        "drift": draw(_finite(0.0, 1e308, (0.0, 2.0))),
        "r5_strength": draw(_finite(0.0, 1e308, (0.0, 2.0))),
        "n_points": n_points,
        "n_steps": n_steps,
        "k0": draw(st.integers(k1 + n_steps, k1 + n_steps + 3)),
        "k1": k1,
        "C": draw(_finite(5e-324, 1e308, (0.1, 10.0))),
        "C_err": draw(_finite(5e-324, 1e308, (0.1, 10.0))),
        "C_r": draw(_finite(5e-324, 1e308, (0.1, 10.0))),
    }
    csv = ["--csv"] if command == "ledger" and draw(st.booleans()) else []
    return [command] + csv + [f"--set={key}={value}" for key, value in values.items()
                              if command in KEYS[key].commands]


def answered_once(test):
    """Make each distinct argument list of a CLI property test once.

    The derandomized draws repeat argument lists.  Criterion 10 makes the
    CLI deterministic, so a repeat would get the first call's exit code and
    stderr, which the test has already judged: a list that passed is
    answered from that verdict, and one that failed runs again.  Hypothesis
    keys its draws on the test's source without its decorators, so this
    changes no draw."""
    passed = set()

    @functools.wraps(test)
    def once(argv):
        if tuple(argv) not in passed:
            test(argv)
            passed.add(tuple(argv))
    return once


@given(argv=cli_calls())
@settings(max_examples=300, deadline=None, derandomize=True)
@answered_once
def test_cli_exit_codes_over_key_ranges(argv):
    # Every call inside the key table's ranges returns 0, 1 with a config
    # or usage error, or 2 with a numerical failure; it never raises.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--output_dir", tmp])
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert "config error:" in message or "usage:" in message, (argv, message)
    if code == 2:
        assert "numerical failure" in message, (argv, message)
