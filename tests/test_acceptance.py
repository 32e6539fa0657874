"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion; every numeric band here is frozen from the experiment design, not
tuned to the implementation.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tamelab import iteration, ledger, verify
from tamelab.cli import main as cli_main
from tamelab.gridfield import ck_norm, mollify, oscillator, random_trig_polynomial
from tamelab.problem import (
    IterationParams,
    make_scalar_toy,
    stock_remainder_terms,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SLOPE_RTOL = 0.15          # criterion 2
K_UNIFORM_RTOL = 0.20      # criterion 3
DIFF_STABLE_FACTOR = 2.0   # criterion 4
R5_FACTOR = 0.5            # criterion 7
CLEAN_SHIFT_RTOL = 0.15    # criterion 7
ORACLE_RTOL = 0.01         # criterion 8


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {number:2d} ({label}): PASS", flush=True)


@pytest.fixture(scope="module")
def default_run():
    instance = make_scalar_toy(IterationParams(), 0.2)
    return instance, iteration.run(instance)


@pytest.fixture(scope="module")
def sweep_runs():
    # lam = 64 so that lam*ell = 256 keeps ell below the domain period
    out = {}
    for ll in (64, 128, 256):
        instance = make_scalar_toy(IterationParams(lam=64, ell=ll / 64), 0.2)
        out[ll] = (instance, iteration.run(instance))
    return out


@pytest.fixture(scope="module")
def lambda_grid_runs():
    # fixed lam*ell = 64 across the frequency grid
    out = {}
    for lam in (16, 32, 64):
        instance = make_scalar_toy(IterationParams(lam=lam, ell=64.0 / lam), 0.2)
        out[lam] = (instance, iteration.run(instance))
    return out


def test_criterion_1_substitution_identity():
    with criterion(1, "substitution identity on the default 5-step run"):
        start = time.perf_counter()
        instance = make_scalar_toy(IterationParams(), 0.2)
        trace = iteration.run(instance)
        elapsed = time.perf_counter() - start
        assert trace.flag == "completed" and trace.n_steps == 5
        limit = 1e-9 * (1.0 + trace.states[0].norms_error[0])  # ||T||_0
        assert max(s.identity_residual for s in trace.states[1:]) <= limit
        assert elapsed < 5.0


def test_criterion_2_error_decay_rate():
    with criterion(2, "error decay slope within 15% of -ln(lam*ell)"):
        start = time.perf_counter()
        for ll in (64, 128, 256):
            instance = make_scalar_toy(IterationParams(lam=64, ell=ll / 64), 0.2)
            trace = iteration.run(instance)
            fit = verify.fit_decay(trace, 0)
            assert fit.steps_used[0] == 1 and fit.steps_used[1] <= 5
            target = -math.log(ll)
            assert abs(fit.slope - target) <= SLOPE_RTOL * abs(target), \
                f"lam*ell={ll}: slope {fit.slope:.4f} vs {target:.4f}"
        assert time.perf_counter() - start < 30.0


def test_criterion_3_rate_k_uniform(sweep_runs):
    with criterion(3, "decay rate agrees across k = 0, 1, 2"):
        _, trace = sweep_runs[256]
        slopes = [verify.fit_decay(trace, k).slope for k in (0, 1, 2)]
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(slopes[i] - slopes[j])
                scale = max(abs(slopes[i]), abs(slopes[j]))
                assert gap <= K_UNIFORM_RTOL * scale, (i, j, slopes)


def test_criterion_4_difference_estimate(lambda_grid_runs):
    with criterion(4, "difference estimate with a lambda-stable constant"):
        constants = {}
        for lam, (instance, trace) in lambda_grid_runs.items():
            ll = instance.params.lambda_ell
            c = 0.0
            for i in range(1, min(5, len(trace.states) - 1)):
                diff = trace.states[i + 1].norms_diff  # a_(i+1) - a_i
                for k in range(min(2, diff.k_max) + 1):
                    c = max(c, diff[k] * ll ** i / lam ** k)
            assert math.isfinite(c) and c > 0
            constants[lam] = c
        shared = max(constants.values())
        assert shared / min(constants.values()) <= DIFF_STABLE_FACTOR, constants
        # the shared constant bounds every recorded difference norm
        for lam, (instance, trace) in lambda_grid_runs.items():
            ll = instance.params.lambda_ell
            for i in range(1, min(5, len(trace.states) - 1)):
                diff = trace.states[i + 1].norms_diff
                for k in range(min(2, diff.k_max) + 1):
                    assert diff[k] <= shared * lam ** k / ll ** i * (1 + 1e-12)


def test_criterion_5_remainder_class_audit():
    with criterion(5, "class audit: stock stable, misdeclared unstable"):
        p = IterationParams(seed=11)
        reports = []
        for term in stock_remainder_terms():
            report = verify.verify_remainder_class(term, term.bound_class, p,
                                                   n_samples=12)
            reports.append(report)
            assert report.stable, term.bound_class.kind
        [control] = verify.audit_classes([verify.MISDECLARED_CONTROL], p,
                                         n_samples=12)
        assert not control.stable
        # seeded reproducibility: identical reports on a second pass
        again = verify.verify_remainder_class(stock_remainder_terms()[0],
                                              stock_remainder_terms()[0].bound_class,
                                              p, n_samples=12)
        assert again.constants_by_lambda == reports[0].constants_by_lambda


def test_criterion_6_threshold_behavior():
    with criterion(6, "domain escape below threshold, none at 4x"):
        thr = ledger.threshold(ledger.stock_constants(IterationParams()))
        assert thr == 3.0
        low = IterationParams(lam=16, ell=(thr / 2) / 16, k1=1, n_steps=3)
        trace_low = iteration.run(make_scalar_toy(low, 0.2))
        assert trace_low.flag == "diverged"
        assert trace_low.escape_step is not None and trace_low.escape_step <= 3
        high = IterationParams(lam=16, ell=(4 * thr) / 16, k1=1, n_steps=6)
        trace_high = iteration.run(make_scalar_toy(high, 0.2))
        assert trace_high.flag == "completed" and trace_high.n_steps == 6


def test_criterion_7_self_interaction_stall(r5_demo):
    with criterion(7, "self-interaction stalls and loses with frequency"):
        base_clean, base_r5, _ = r5_demo()
        assert abs(base_r5) / abs(base_clean) < R5_FACTOR
        doubled_clean, doubled_r5, _ = r5_demo("lambda=64", "ell=2")
        assert abs(doubled_r5) < abs(base_r5)
        clean_gap = abs(doubled_clean - base_clean)
        assert clean_gap <= CLEAN_SHIFT_RTOL * abs(base_clean)


def test_criterion_8_calculus_oracles():
    with criterion(8, "norm oracle, spectral derivatives, mollifier"):
        # coarse vs refined norms on 50 seeded 8-mode fields
        for i in range(50):
            rng = np.random.default_rng([2024, i])
            f = random_trig_polynomial(rng, 512)
            for k in (0, 1, 2, 3):
                coarse = ck_norm(f, k)[k]
                fine = verify.oracle_norm(f, k, 8)
                assert abs(fine - coarse) / fine <= ORACLE_RTOL
        # spectral derivatives exact on resolved pure modes
        from tamelab.gridfield import derivative
        for n in (256, 2048):
            for mode in (1, 7, 16):
                for order in (1, 2):
                    f = oscillator(1.0, mode, phase=-np.pi / 2, n_points=n)
                    d = derivative(f, order)
                    x = 2 * np.pi * np.arange(n) / n
                    expected = mode ** order * np.sin(
                        mode * x + order * np.pi / 2)
                    assert np.max(np.abs(d.samples - expected)) <= 1e-10
        # Gaussian multiplier at lam*ell = 4
        out = mollify(oscillator(1.0, 16, phase=-np.pi / 2, n_points=512), 0.25)
        assert out.sup() == pytest.approx(math.exp(-8.0), rel=ORACLE_RTOL)


def test_criterion_9_ledger_consistency(default_run, sweep_runs, lambda_grid_runs):
    with criterion(9, "ledger constants dominate measured margins"):
        runs = [default_run] + list(sweep_runs.values()) + \
            list(lambda_grid_runs.values())
        for instance, trace in runs:
            assert ledger.check_hypotheses(trace)
            assert all(m.worst <= 1.0 for m in ledger.margins(trace)[0])
        for c_f, c_r in ((1.0, 1.0), (2.0, 5.0), (0.25, 12.0)):
            cs = ledger.ConstantSet(c=1.0, c_err=1.0, c_r=c_r, c_f=c_f,
                                    c_k=(1.0,), step=1)
            assert ledger.threshold(cs) == 3.0 * c_f * c_r


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "byte-identical outputs for every shipped config"):
        from tamelab.cli import parse_flat_config
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            experiment = parse_flat_config(path.read_text())["experiment"]
            blobs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{path.stem}-{attempt}"
                # --plot where the subcommand plots; the others refuse it
                plot = ["--plot"] if experiment in ("run", "decay", "sweep") else []
                code = cli_main([experiment, "--config", str(path),
                                 "--output_dir", str(out)] + plot)
                assert code == 0, path.name
                files = sorted(p.name for p in out.iterdir())
                assert files, path.name
                blobs.append({f: (out / f).read_bytes() for f in files})
            assert blobs[0] == blobs[1], path.name
