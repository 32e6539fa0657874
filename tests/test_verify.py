import math

import numpy as np
import pytest

from tamelab.gridfield import (
    GridFunction,
    NormVector,
    ResolutionError,
    ck_norm,
    oscillator,
    random_trig_polynomial,
)
from tamelab.iteration import IterationState, IterationTrace, run
from tamelab.problem import (
    R1,
    R2,
    R3,
    R5,
    IterationParams,
    RemainderTerm,
    make_scalar_toy,
    self_interaction_term,
    stock_remainder_terms,
)
from tamelab.verify import (
    DecayBands,
    InsufficientSteps,
    bound_report_to_csv,
    decay_fits_to_csv,
    demonstrate_r5_failure,
    fit_decay,
    misdeclared_control,
    oracle_norm,
    verify_remainder_class,
)


def params(**overrides):
    base = dict(lam=32, ell=4.0, k0=7, k1=2, c_f=1.0, n_points=2048,
                n_steps=5, seed=7)
    base.update(overrides)
    return IterationParams(**base)


def synthetic_trace(errors, target_sup=1.0):
    """Minimal trace whose states carry prescribed ||E_i||_0 values."""
    zero = GridFunction.zeros(8)
    states = [IterationState(step=i, a=zero, r_of_a=zero, error=zero,
                             norms_a=NormVector((0.0,)),
                             norms_error=NormVector((float(e),)),
                             norms_r=NormVector((0.0,)))
              for i, e in enumerate(errors)]
    return IterationTrace(states=tuple(states), diff_norms=(),
                          identity_residuals=(), margins=(), constants=(),
                          flag="completed", escape_step=None,
                          below_threshold=False, threshold=3.0,
                          target_sup=target_sup)


class TestVerifyRemainderClass:
    def test_zero_evaluator_stable(self):
        report = verify_remainder_class(RemainderTerm(R1, weight=0.0), R1,
                                        params(), n_samples=10, seed=1)
        assert all(c == 0.0 for c in report.per_k_constants)
        assert report.stable

    def test_linear_term_constants(self):
        # closed form: C_0 = sup|cos(lam x) a| / sup|a| ~ 1 for slow fields,
        # and each order's Leibniz growth stays below 2^k
        report = verify_remainder_class(RemainderTerm(R1), R1, params(),
                                        n_samples=12, seed=3)
        assert 0.85 <= report.per_k_constants[0] <= 1.0 + 1e-9
        for k, c in enumerate(report.per_k_constants):
            assert c <= 2.0 ** k * (1 + 1e-9)
        assert report.stable

    def test_all_stock_terms_stable_in_declared_class(self):
        for term in stock_remainder_terms():
            report = verify_remainder_class(term, term.bound_class, params(),
                                            n_samples=10, seed=5)
            assert report.stable, term.bound_class.kind
            assert all(c > 0 for c in report.per_k_constants)

    def test_misdeclared_control_unstable_and_grows(self):
        report = misdeclared_control(params(), n_samples=10, seed=5)
        assert not report.stable
        k0_by_lambda = [row[0] for row in report.constants_by_lambda]
        assert k0_by_lambda[-1] / k0_by_lambda[0] > 2.0
        assert report.lambda_grid == (16, 32, 64)

    def test_r5_stable_in_own_class(self):
        report = verify_remainder_class(self_interaction_term(1.0), R5,
                                        params(), n_samples=10, seed=5)
        assert report.stable

    def test_r6_higher_derivative_class(self):
        # the generalization to s, t derivatives per argument audits the
        # same way: its lam^-(s+t) prefactor absorbs both gradients
        from tamelab.problem import r6
        term = RemainderTerm(r6(2, 1))
        report = verify_remainder_class(term, r6(2, 1), params(),
                                        n_samples=10, seed=5, k_max=2)
        assert report.stable
        assert all(c > 0 for c in report.per_k_constants)

    def test_seeded_reproducibility(self):
        a = verify_remainder_class(RemainderTerm(R3), R3, params(),
                                   n_samples=10, seed=9)
        b = verify_remainder_class(RemainderTerm(R3), R3, params(),
                                   n_samples=10, seed=9)
        assert a.constants_by_lambda == b.constants_by_lambda
        c = verify_remainder_class(RemainderTerm(R3), R3, params(),
                                   n_samples=10, seed=10)
        assert a.constants_by_lambda != c.constants_by_lambda

    def test_fields_drawn_once_per_sample(self, monkeypatch):
        # one a and one b per sample, reused across the three frequencies
        import tamelab.verify as verify_module
        drawn = []

        def counting(*args, **kwargs):
            drawn.append(1)
            return random_trig_polynomial(*args, **kwargs)

        monkeypatch.setattr(verify_module, "random_trig_polynomial", counting)
        verify_remainder_class(RemainderTerm(R2), R2, params(), n_samples=10,
                               seed=2, k_max=1)
        assert len(drawn) == 2 * 10

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError, match="n_samples"):
            verify_remainder_class(RemainderTerm(R1), R1, params(), n_samples=9)

    def test_csv_export(self):
        report = verify_remainder_class(RemainderTerm(R2), R2, params(),
                                        n_samples=10, seed=2, k_max=1)
        lines = bound_report_to_csv([report]).strip().splitlines()
        assert lines[0] == "class,k,constant,lambda,stable"
        assert len(lines) == 1 + 3 * 2  # 3 frequencies x (k_max+1) orders
        assert lines[1].startswith("R2,0,")


class TestFitDecay:
    def test_exact_geometric(self):
        q = 0.01
        trace = synthetic_trace([1.0] + [q ** i for i in range(1, 6)])
        fit = fit_decay(trace, 0)
        assert fit.slope == pytest.approx(math.log(q), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.steps_used == (1, 5)

    def test_floor_exclusion(self):
        errors = [1.0, 1e-2, 1e-4, 1e-6, 1e-13, 1e-14]
        trace = synthetic_trace(errors)
        fit = fit_decay(trace, 0)
        assert fit.steps_used == (1, 3)

    def test_insufficient_steps(self):
        trace = synthetic_trace([1.0, 0.1, 0.01])
        with pytest.raises(InsufficientSteps):
            fit_decay(trace, 0)  # only steps 1..2 usable: state 0 excluded

    def test_min_step_window(self):
        trace = synthetic_trace([1.0, 0.5, 0.1, 0.02, 0.004, 0.0008])
        fit = fit_decay(trace, 0, min_step=2)
        assert fit.steps_used == (2, 5)
        assert fit.slope == pytest.approx(math.log(0.2), abs=1e-9)

    def test_measured_decay_matches_rate(self):
        p = params(lam=64, ell=2.0)
        trace = run(make_scalar_toy(p, 0.2))
        fit = fit_decay(trace, 0)
        assert fit.slope == pytest.approx(-math.log(p.lambda_ell), rel=0.15)
        fit2 = fit_decay(trace, 2)
        assert abs(fit.slope - fit2.slope) <= 0.20 * abs(fit.slope)

    def test_csv_export(self):
        trace = synthetic_trace([1.0] + [10.0 ** -i for i in range(1, 6)])
        fit = fit_decay(trace, 0)
        lines = decay_fits_to_csv([fit]).strip().splitlines()
        assert lines[0] == "k,slope,intercept,r_squared,first_step,last_step"
        cells = lines[1].split(",")
        assert int(cells[0]) == 0 and int(cells[4]) == 1 and int(cells[5]) == 5


class TestOracleNorm:
    def test_pure_mode_matches_coarse(self):
        f = oscillator(1.0, 16, phase=-np.pi / 2, n_points=512)
        for k in (0, 1, 2):
            assert oracle_norm(f, k, 8) == pytest.approx(ck_norm(f, k)[k], abs=1e-10)

    def test_random_fields_within_one_percent(self):
        for i in range(10):
            rng = np.random.default_rng([77, i])
            f = random_trig_polynomial(rng, 512)
            for k in (0, 1, 2, 3):
                coarse = ck_norm(f, k)[k]
                fine = oracle_norm(f, k, 8)
                assert abs(fine - coarse) / fine <= 0.01
                assert fine >= coarse - 1e-12

    def test_dominates_coarse_value(self):
        # beating pair of modes: extrema fall between coarse grid points
        x = 2 * np.pi * np.arange(64) / 64
        f = GridFunction.from_samples(np.sin(7 * x) + np.sin(8 * x))
        for k in (0, 1, 2):
            assert oracle_norm(f, k, 16) >= ck_norm(f, k)[k] - 1e-12

    def test_guards(self):
        f = oscillator(1.0, 4, n_points=2048)
        with pytest.raises(ValueError, match="power of two"):
            oracle_norm(f, 0, 3)
        with pytest.raises(ResolutionError, match="too large"):
            oracle_norm(f, 0, 4096)


class TestR5Demo:
    def test_strength_zero_no_effect(self):
        report = demonstrate_r5_failure(params(), 0.0)
        assert report.no_effect
        assert report.slope_ratio == pytest.approx(1.0)

    def test_stall_at_strength_one(self):
        report = demonstrate_r5_failure(params(), 1.0)
        assert not report.no_effect
        assert report.stalled()
        assert report.slope_ratio < DecayBands().r5_factor
        assert abs(report.fit_r5.slope) < abs(report.fit_clean.slope)

    def test_lambda_doubling_worsens_stall(self):
        base = demonstrate_r5_failure(params(lam=32, ell=4.0), 1.0)
        doubled = demonstrate_r5_failure(params(lam=64, ell=2.0), 1.0)
        assert abs(doubled.fit_r5.slope) < abs(base.fit_r5.slope)
        clean_shift = abs(doubled.fit_clean.slope - base.fit_clean.slope)
        assert clean_shift <= DecayBands().clean_shift_rtol * abs(base.fit_clean.slope)

    def test_bands_configurable(self):
        report = demonstrate_r5_failure(params(), 1.0)
        strict = DecayBands(r5_factor=0.01)
        assert not report.stalled(strict)
