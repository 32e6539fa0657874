import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tamelab.cli import load_experiment_config, main
from tamelab.gridfield import (
    BATCH_POINTS,
    FieldSpectrum,
    NON_FINITE,
    GridFunction,
    NormVector,
    ResolutionError,
    ck_norm,
    derivative,
    oscillator,
    random_trig_polynomial,
    trig_coefficients,
)
from tamelab import verify
from tamelab.iteration import IterationTrace, StepNorms, run
from tamelab.problem import (
    R1,
    R2,
    R3,
    R4,
    R5,
    BoundClass,
    IterationParams,
    RemainderTerm,
    make_scalar_toy,
    r6,
    self_interaction_term,
    stock_remainder_terms,
)
from tamelab.verify import (
    MIN_FIT_STEPS,
    MISDECLARED_CONTROL,
    R5_FACTOR,
    InsufficientSteps,
    audit_classes,
    class_bound_rhs,
    fit_decay,
    oracle_norm,
    verify_remainder_class,
)


AUDIT_CFG = Path(__file__).resolve().parent.parent / "configs" / "audit.cfg"


def synthetic_trace(errors, target_sup=1.0):
    """Minimal trace whose norm rows carry prescribed ||E_i||_0 values and
    no other norm.  It has no instance: the fits read neither its margins
    nor its difference norms."""
    states = [StepNorms(step=i, norms_error=NormVector((float(e),)))
              for i, e in enumerate(errors)]
    return IterationTrace(instance=None, states=tuple(states),
                          identity_residuals=(), flag="completed",
                          escape_step=None, target_sup=target_sup)


class TestVerifyRemainderClass:
    def test_zero_evaluator_stable(self):
        report = verify_remainder_class(RemainderTerm(R1, weight=0.0), R1,
                                        IterationParams(seed=1), n_samples=10)
        assert all(c == 0.0 for c in report.per_k_constants)
        assert report.stable

    def test_linear_term_constants(self):
        # closed form: C_0 = sup|cos(lam x) a| / sup|a| ~ 1 for slow fields,
        # and each order's Leibniz growth stays below 2^k
        report = verify_remainder_class(RemainderTerm(R1), R1, IterationParams(seed=3),
                                        n_samples=12)
        assert 0.85 <= report.per_k_constants[0] <= 1.0 + 1e-9
        for k, c in enumerate(report.per_k_constants):
            assert c <= 2.0 ** k * (1 + 1e-9)
        assert report.stable

    def test_all_stock_terms_stable_in_declared_class(self):
        for term in stock_remainder_terms():
            report = verify_remainder_class(term, term.bound_class,
                                            IterationParams(seed=5), n_samples=10)
            assert report.stable, term.bound_class.kind
            assert all(c > 0 for c in report.per_k_constants)

    def test_misdeclared_control_unstable_and_grows(self):
        [report] = audit_classes([MISDECLARED_CONTROL], IterationParams(seed=5),
                                 n_samples=10)
        assert not report.stable
        k0_by_lambda = [row[0] for row in report.constants_by_lambda]
        assert k0_by_lambda[-1] / k0_by_lambda[0] > 2.0
        assert report.lambda_grid == (16, 32, 64)

    def test_r5_stable_in_own_class(self):
        report = verify_remainder_class(self_interaction_term(1.0), R5,
                                        IterationParams(seed=5), n_samples=10)
        assert report.stable

    def test_r6_higher_derivative_class(self):
        # the generalization to s, t derivatives per argument audits the
        # same way: its lam^-(s+t) prefactor absorbs both gradients
        from tamelab.problem import r6
        term = RemainderTerm(r6(2, 1))
        report = verify_remainder_class(term, r6(2, 1), IterationParams(seed=5),
                                        n_samples=10, k_max=2)
        assert report.stable
        assert all(c > 0 for c in report.per_k_constants)

    def test_seeded_reproducibility(self):
        a = verify_remainder_class(RemainderTerm(R3), R3, IterationParams(seed=9),
                                   n_samples=10)
        b = verify_remainder_class(RemainderTerm(R3), R3, IterationParams(seed=9),
                                   n_samples=10)
        assert a.constants_by_lambda == b.constants_by_lambda
        assert a.seed == 9
        c = verify_remainder_class(RemainderTerm(R3), R3, IterationParams(seed=10),
                                   n_samples=10)
        assert a.constants_by_lambda != c.constants_by_lambda

    def test_fields_drawn_once_per_sample(self, monkeypatch):
        # one a and one b per sample, reused across the three frequencies
        drawn = count_draws(monkeypatch)
        verify_remainder_class(RemainderTerm(R2), R2, IterationParams(seed=2),
                               n_samples=10, k_max=1)
        assert drawn == [1] * (2 * 10)

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError, match="n_samples"):
            verify_remainder_class(RemainderTerm(R1), R1, IterationParams(),
                                   n_samples=9)


def count_draws(monkeypatch):
    """The rows of each coefficient draw the audit makes from now on, in
    order: a list that its trig_coefficients, wrapped, appends to."""
    drawn = []

    def counting(*args, **kwargs):
        coefficients = trig_coefficients(*args, **kwargs)
        drawn.append(len(coefficients))
        return coefficients

    monkeypatch.setattr(verify, "trig_coefficients", counting)
    return drawn


def audit_cfg_params():
    return load_experiment_config("remainder-audit", str(AUDIT_CFG), []).problem


def stock_pairs():
    """The pairs remainder-audit runs: four stock terms plus the control."""
    return [(term, term.bound_class) for term in stock_remainder_terms()] + [
        MISDECLARED_CONTROL]


def reference_rhs(bound_class, a, b, lam, ell, k_max):
    """The class estimate with unit constant, every norm taken afresh."""
    pref = bound_class.prefactor(lam, ell)
    if bound_class.kind == "R1":
        na = ck_norm(a, k_max)
        return tuple(pref * sum(na[j] * lam ** (k - j) for j in range(k + 1))
                     for k in range(k_max + 1))
    if bound_class.kind in ("R4", "R5"):
        na = ck_norm(a, k_max + 1).values[1:]
        nb = ck_norm(b, k_max)
    else:
        s, t = bound_class.arg_derivatives
        na = ck_norm(derivative(a, s) if s else a, k_max)
        nb = ck_norm(derivative(b, t) if t else b, k_max)
    out = []
    for k in range(k_max + 1):
        total = 0.0
        for j1 in range(k + 1):
            for j2 in range(k + 1 - j1):
                total += na[j1] * nb[j2] * lam ** (k - j1 - j2)
        out.append(pref * total)
    return tuple(out)


def reference_constants(term, bound_class, p, seed, n_samples=12, k_max=3,
                        lambda_grid=(16, 32, 64)):
    """Per-class reference loop: fields redrawn and every norm retaken at
    each frequency, nothing shared between classes or frequencies."""
    constants = []
    for lam in lambda_grid:
        modulation = oscillator(1.0, lam, n_points=p.n_points)
        worst = [0.0] * (k_max + 1)
        for idx in range(n_samples):
            a = random_trig_polynomial(np.random.default_rng([seed, idx, 0]),
                                       p.n_points)
            b = (random_trig_polynomial(np.random.default_rng([seed, idx, 1]),
                                        p.n_points)
                 if bound_class.arity == 2 else None)
            r = term.apply(FieldSpectrum(a), None if b is None else FieldSpectrum(b),
                           lam=lam, ell=p.ell, modulation=modulation)
            measured = ck_norm(r, k_max)
            rhs = reference_rhs(bound_class, a, a if b is None else b, lam,
                                p.ell, k_max)
            for k in range(k_max + 1):
                if rhs[k] > 0:
                    worst[k] = max(worst[k], measured[k] / rhs[k])
        constants.append(tuple(worst))
    return tuple(constants)


class TestAuditClasses:
    # A chunk holds as many samples as keep samples x pairs x 3 frequencies
    # x 2048 points within TERM_BLOCK_BYTES / 8 = 196,608 samples: 196,608
    # // (6,144 x 7) = 4 of the 7 mixed pairs, // (6,144 x 5) = 6 of the 5
    # stock pairs and // (6,144 x 3) = 10 of the 3 linear ones.  So 11
    # stock samples take chunks of 6 and 5, 13 take 6, 6 and a last chunk
    # of one, and 13 linear-only samples 10 and 3.  Linear classes alone
    # draw no b.
    @pytest.mark.parametrize("seed, n_samples, pair_list", [
        *(pytest.param(seed, 12, "mixed", id=str(seed)) for seed in (0, 3, 11, 42)),
        pytest.param(3, 11, "stock", id="11-samples"),
        pytest.param(7, 13, "stock", id="13-samples"),
        pytest.param(5, 13, "linear", id="linear-only")])
    def test_shared_pass_equals_separate_audits(self, seed, n_samples, pair_list):
        # a bilinear term audited as linear evaluates at (a, a) on its own,
        # so it must not see the b the other pairs share
        extra = [(RemainderTerm(r6(2, 1)), r6(2, 1)), (RemainderTerm(R2), R1)]
        pairs = {"mixed": stock_pairs() + extra, "stock": stock_pairs(),
                 "linear": [(RemainderTerm(R1), R1), extra[1],
                            (self_interaction_term(2.0), R1)]}[pair_list]
        p = IterationParams(seed=seed)
        shared = audit_classes(pairs, p, n_samples)
        separate = [verify_remainder_class(term, bound_class, p, n_samples)
                    for term, bound_class in pairs[:4]]
        separate += audit_classes(pairs[4:5], p, n_samples)
        separate += [verify_remainder_class(term, bound_class, p, n_samples)
                     for term, bound_class in pairs[5:]]
        assert [r.bound_class for r in shared] == [c for _, c in pairs]
        assert ([r.constants_by_lambda for r in shared]
                == [r.constants_by_lambda for r in separate])
        assert ([r.constants_by_lambda for r in shared]
                == [reference_constants(term, bound_class, p, seed, n_samples)
                    for term, bound_class in pairs])

    @pytest.mark.parametrize("n_points", [16384, 65536])
    def test_one_row_batches_equal_per_field_reference(self, n_points):
        # 16384 * 3 orders fill more than half of BATCH_POINTS: each batch
        # holds one measured field, and each chunk one sample.  At 65536 a
        # term's three frequencies take three BATCH_POINTS rows.  The rows
        # per batch follow FieldSpectrum.norms' rule for three orders.
        p = IterationParams(n_points=n_points, seed=5)
        assert max(1, BATCH_POINTS // (p.n_points * 3)) == 1
        pairs = stock_pairs()[3:]
        assert ([r.constants_by_lambda
                 for r in audit_classes(pairs, p, n_samples=10)]
                == [reference_constants(term, bound_class, p, 5, n_samples=10)
                    for term, bound_class in pairs])

    @pytest.mark.parametrize("shape", [(2048, 2), (1024,)])
    def test_term_off_the_audit_grid_refused(self, shape):
        class Reshaped(RemainderTerm):
            def _samples(self, a, b, lams, ell, modulations):
                return np.ones((len(lams),) + shape)

        with pytest.raises(ValueError, match="not one field per frequency on "
                                             "the 2048-point audit grid"):
            audit_classes([(Reshaped(R1), R1)], IterationParams(), n_samples=10)

    def test_non_finite_term_refused(self):
        # Outside the CLI's errstate nothing raises while the term or its
        # norms are computed; the k = 0 norm of the NaN row is NaN.
        class WithNan(RemainderTerm):
            def _samples(self, a, b, lams, ell, modulations):
                out = super()._samples(a, b, lams, ell, modulations)
                out[..., -1, 7] = np.nan
                return out

        pairs = stock_pairs()[:2] + [(WithNan(R1), R1)]
        with pytest.raises(ValueError, match=f"^{NON_FINITE}$"):
            audit_classes(pairs, IterationParams(), n_samples=10)

    def test_overflowing_norms_name_their_pair(self):
        # At ell = 1e-154 the R2 term is finite and its norms overflow.  At
        # 16384 points each pair is normed in its own norms call, after
        # R1's.
        p = IterationParams(n_points=16384, ell=1e-154)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError,
                               match=r"^the class R2 term leaves the float range "
                                     r"at lambda=16, ell=1e-154$"):
                audit_classes(stock_pairs(), p, n_samples=10)

    @pytest.mark.parametrize("errstate", [{}, dict(over="raise"),
                                          dict(over="raise", invalid="raise")])
    @pytest.mark.parametrize("later", ["scaled samples", "prefactor"])
    def test_shared_batch_names_the_first_pair(self, later, errstate):
        # At 2048 points both pairs share one norm batch.  R2's norms
        # overflow at ell = 1e-154, and so does the later pair's term: its
        # samples times 1e300, or its prefactor ell**-3 in Python floats.
        # The first pair is named, whatever the caller's errstate.
        class Scaled(RemainderTerm):
            def _samples(self, *args):
                return super()._samples(*args) * 1e300

        steep = BoundClass("R7", (1, 3), (0,))
        pairs = [(RemainderTerm(R2), R2),
                 (Scaled(R1), R1) if later == "scaled samples"
                 else (RemainderTerm(steep), steep)]
        p = IterationParams(ell=1e-154)
        with np.errstate(**errstate):
            with pytest.raises(FloatingPointError,
                               match=r"^the class R2 term leaves the float range "
                                     r"at lambda=16, ell=1e-154$"):
                audit_classes(pairs, p, n_samples=10)

    # The R2 pair fails: its norms overflow at 1e-154, its prefactor at
    # 1e-155.  Each term evaluated up to its batch takes one call over the
    # chunk's samples and the three frequencies.  norms takes one call
    # for the chunk's a, b and their derivatives (4 rows per sample), then
    # one per batch of pairs up to the failing one (3 rows per pair and
    # sample).  The first chunk holds 196,608 // (16,384 x 15) = 0, so one,
    # sample at 16384 points, whose pairs take a call each (65,536 //
    # (16,384 x 3) = 1 pair per call): rows 4, 3, 3.  At 2048 it holds
    # 196,608 // (2,048 x 15) = 6 samples, all five pairs in one call: rows
    # 6 x 4 = 24 and 6 x 5 x 3 = 90.
    @pytest.mark.parametrize("n_points, ell, terms, rows", [
        (16384, 1e-154, 2, [4, 3, 3]), (16384, 1e-155, 2, [4, 3, 3]),
        (2048, 1e-154, 5, [24, 90]), (2048, 1e-155, 5, [24, 90])])
    def test_overflowing_audit_computes_nothing_twice(self, monkeypatch, n_points,
                                                      ell, terms, rows):
        lams_per_call, rows_per_call = [], []
        samples, norms = RemainderTerm._samples, FieldSpectrum.norms

        def spy_samples(self, a, b, lams, *args):
            lams_per_call.append(len(lams))
            return samples(self, a, b, lams, *args)

        def spy_norms(self, k_max):
            rows_per_call.append(self.samples[..., 0].size)
            return norms(self, k_max)

        monkeypatch.setattr(RemainderTerm, "_samples", spy_samples)
        monkeypatch.setattr(FieldSpectrum, "norms", spy_norms)
        p = IterationParams(n_points=n_points, ell=ell)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="class R2 term"):
                audit_classes(stock_pairs(), p, n_samples=10)
        assert lams_per_call == [3] * terms
        assert rows_per_call == rows

    def test_shipped_audit_output_is_pinned(self, tmp_path):
        # remainder-audit on audit.cfg, byte for byte: batching over pairs,
        # frequencies and samples must not move a constant by one ulp.
        assert main(["remainder-audit", "--config", str(AUDIT_CFG),
                     "--output_dir", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "audit.csv").read_bytes()).hexdigest() == (
            "c7086113212857528660be4c59766e40821d7e3a70a782ca1c7ca8e118de8abe")

    # At amplitude 1e160 the bilinear products leave the float range: they
    # go to inf, as in the Python float loop, also where numpy raises.
    @pytest.mark.parametrize("amplitude", [1.0, 1e160])
    @pytest.mark.parametrize("bound_class", [R1, R2, R3, R4, R5, r6(2, 1)])
    def test_class_bound_rhs_equals_reference(self, bound_class, amplitude):
        p = IterationParams(seed=4)
        a, b = (GridFunction(amplitude * random_trig_polynomial(
                    np.random.default_rng([4, i]), p.n_points).samples)
                for i in range(2))
        for lam in (16, 64):
            with np.errstate(over="raise", invalid="raise"):
                got = class_bound_rhs(bound_class, a, b, lam, p.ell, 3)
            assert got == reference_rhs(bound_class, a, b, lam, p.ell, 3)
        assert (math.inf in got) == (amplitude > 1 and bound_class != R1)

    def test_transform_calls_stay_within_batch_points(self, count_fft):
        # Freeing a transform buffer of about 3 MB or more moves glibc's
        # mmap threshold, and with it the speed of every later 64K-point
        # transform in the process (test_gridfield checks norms at 65536).
        # From 4096 points a chunk holds one sample, and from 8192 its pairs
        # are split over norm calls.
        for p in (audit_cfg_params(), IterationParams(n_points=16384),
                  IterationParams(n_points=65536)):
            log = count_fft()
            audit_classes(stock_pairs(), p, n_samples=10)
            assert log.entries
            assert max(rows * points for _, rows, points in log.entries) <= BATCH_POINTS

    def test_audit_peak_memory_at_65536(self):
        # One audit at 65536 points peaks at 12.58 MiB of numpy data: a chunk
        # is one sample there, and its terms take a 1.5 MB buffer, three
        # frequencies of one pair.  A buffer for all five pairs would take
        # 7.9 MB.  The warm-up builds the caches first.
        p = IterationParams(n_points=65536)
        audit_classes(stock_pairs(), p, n_samples=10)
        tracemalloc.start()
        try:
            audit_classes(stock_pairs(), p, n_samples=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2**20

    def test_pair_order_does_not_change_reports(self):
        pairs = stock_pairs()
        forward = audit_classes(pairs, IterationParams(seed=3))
        backward = audit_classes(pairs[::-1], IterationParams(seed=3))
        assert ([r.constants_by_lambda for r in forward]
                == [r.constants_by_lambda for r in backward[::-1]])

    def test_fields_drawn_once_per_command(self, monkeypatch):
        # 12 samples of a and b, shared by all five pairs; a linear class
        # alone draws no b
        drawn = count_draws(monkeypatch)
        p = audit_cfg_params()
        audit_classes(stock_pairs(), p)
        assert drawn == [1] * 24
        audit_classes([(RemainderTerm(R1), R1)], p, n_samples=10)
        assert drawn == [1] * (24 + 10)

    def test_resolution_rule_before_drawing(self, monkeypatch):
        # lambda = 64 at k_max = 3 needs 8 * 64 * 4 = 2048 points
        monkeypatch.setattr(verify, "trig_coefficients", None)
        with pytest.raises(ResolutionError, match="n_points >= 2048"):
            audit_classes(stock_pairs(), IterationParams(n_points=1024))
        with pytest.raises(ResolutionError, match="n_points >= 4096"):
            audit_classes(stock_pairs(), IterationParams(), lambda_grid=(128, 16))

    def test_transform_count(self, count_fft):
        # 12 samples at audit.cfg, in 2 chunks of 6 (196,608 // (5 pairs x 3
        # frequencies x 2048 points) = 6 samples fit TERM_BLOCK_BYTES).  Per
        # chunk: a and b drawn by angle addition, with no transform, and
        # their spectra in one rfft of 12 rows.  d/dx a and d/dx b: one
        # irfft of 6 rows each.  Argument norms: a, b, da and db of the 6
        # samples, 24 rows, in one norms call at order 4 (R4 reads
        # ||a||_(k+1)), in batches of 65536 // (2048 * 4) = 8 rows: a and b
        # read their spectra, so one rfft of da and db (12 rows) and three
        # irffts of 8 x 4 rows.  Measured norms: 6 samples x 15 rows in one
        # norms call at order 3, in batches of 65536 // (2048 * 3) = 10
        # rows: nine rffts of 10 rows and nine irffts of 10 x 3 rows.
        # rfft rows: 2 * (12 + 12 + 90) = 228, calls: 2 * (1 + 1 + 9) = 22.
        # irfft rows: 2 * (12 + 96 + 270) = 756, calls: 2 * (2 + 3 + 9) = 28.
        # The rows are those of chunks of 2 samples, which took 30 and 36
        # calls: every batch but the argument norms' still fills its call.
        log = count_fft()
        p = audit_cfg_params()
        audit_classes(stock_pairs(), p)
        assert log.calls == {"rfft": 22, "irfft": 28}
        assert log.rows == {"rfft": 228, "irfft": 756}

    def test_term_block_within_budget(self, monkeypatch):
        # The terms of a chunk at audit.cfg, 6 samples x 5 pairs x 3
        # frequencies x 2048 points, take 1,474,560 bytes, within the
        # 1.5 MiB TERM_BLOCK_BYTES.  A chunk of all 12 samples held a 2.95
        # MB block, and freeing it moved glibc's mmap threshold for the rest
        # of the process.  In bench/run.py its raw times stayed flat (0.0183
        # against 0.0196 s) but the in-process speed probe ran faster, so the
        # normalized op_p50_s read 0.0423 against 0.0345 s and setup_s rose
        # by 40%.
        blocks = []
        norms = FieldSpectrum.norms

        def spy_norms(self, k_max):
            blocks.append(self.samples.nbytes)
            return norms(self, k_max)

        monkeypatch.setattr(FieldSpectrum, "norms", spy_norms)
        audit_classes(stock_pairs(), audit_cfg_params())
        assert verify.TERM_BLOCK_BYTES == 3 * 2**19
        assert max(blocks) == 6 * 5 * 3 * 2048 * 8 <= verify.TERM_BLOCK_BYTES

    @pytest.mark.parametrize("n", [16, 2048, 65536])
    @pytest.mark.parametrize("chunk", [1, 2, 6])
    def test_chunk_draw_holds_each_samples_bits(self, n, chunk):
        # Each row of a chunk's one angle-addition draw is the field its
        # sample's own generator gives alone; at n = 16 mode 8 sits on the
        # Nyquist bin.
        samples = range(3, 3 + chunk)
        drawn = verify._draw_arguments(11, samples, 2, n)
        assert drawn.shape == (2, chunk, n)
        for arg in range(2):
            for row, idx in zip(drawn[arg], samples):
                field = random_trig_polynomial(np.random.default_rng([11, idx, arg]), n)
                assert row.tobytes() == field.samples.tobytes(), (arg, idx)


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
        p = IterationParams(lam=64, ell=2.0)
        trace = run(make_scalar_toy(p, 0.2))
        fit = fit_decay(trace, 0)
        assert fit.slope == pytest.approx(-math.log(p.lambda_ell), rel=0.15)
        fit2 = fit_decay(trace, 2)
        assert abs(fit.slope - fit2.slope) <= 0.20 * abs(fit.slope)


def polyfit_reference(points):
    """slope, intercept and r^2 of the points as np.polyfit and np.polyval
    fit them, with fit_decay's r^2 rules: 1.0 at ss_tot = 0, clamped to
    [0, 1]."""
    xs = np.array([float(i) for i, _ in points])
    ys = np.array([y for _, y in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - np.polyval([slope, intercept], xs)) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), min(1.0, r_squared)


def log_error_run(min_step, log_errors):
    """A trace whose steps min_step, min_step + 1, ... carry ln ||E_i||_0 =
    log_errors, with no noise floor; the steps before min_step read 1.0."""
    return synthetic_trace([1.0] * min_step + [math.exp(y) for y in log_errors],
                           target_sup=0.0)


class TestClosedFormFit:
    # The noise is at least 2%: at slope 0, r^2 is a ratio of sums of
    # squared noise, which rounding each residual moves by about
    # eps * |y| / noise, so a smaller noise leaves r^2 ill-conditioned.
    @given(min_step=st.integers(min_value=1, max_value=10),
           n_steps=st.integers(min_value=MIN_FIT_STEPS, max_value=40),
           slope=st.floats(min_value=-12.0, max_value=0.0),
           intercept=st.floats(min_value=-30.0, max_value=30.0),
           noise=st.floats(min_value=0.02, max_value=0.2),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_polyfit(self, min_step, n_steps, slope, intercept, noise,
                             seed):
        steps = np.arange(min_step, min_step + n_steps)
        ys = (intercept + slope * steps
              + noise * np.random.default_rng(seed).standard_normal(n_steps))
        trace = log_error_run(min_step, ys)
        fit = fit_decay(trace, 0, min_step=min_step)
        want_slope, want_intercept, want_r2 = polyfit_reference(
            trace.log_errors(0, min_step))
        assert abs(fit.slope - want_slope) <= 1e-12 * (1 + abs(want_slope))
        assert abs(fit.intercept - want_intercept) <= 1e-12 * (1 + abs(want_intercept))
        assert abs(fit.r_squared - want_r2) <= 1e-12
        assert fit.steps_used == (min_step, min_step + n_steps - 1)

    # Every ln ||E_i|| is the same, so ss_tot is exactly 0.  A mean taken as
    # fsum(ys) / n misses about one constant in ten by an ulp (0.9 over 7
    # steps, for one), which leaves ss_tot = ss_res > 0 and r^2 = 0.
    @given(min_step=st.integers(min_value=1, max_value=10),
           n_steps=st.integers(min_value=MIN_FIT_STEPS, max_value=40),
           log_error=st.floats(min_value=-700.0, max_value=0.0))
    @example(min_step=1, n_steps=7, log_error=math.log(0.9))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_constant_run_has_unit_r_squared(self, min_step, n_steps, log_error):
        fit = fit_decay(log_error_run(min_step, [log_error] * n_steps), 0,
                        min_step=min_step)
        assert (fit.slope, fit.r_squared) == (0.0, 1.0)
        assert fit.intercept == math.log(math.exp(log_error))
        assert fit.steps_used == (min_step, min_step + n_steps - 1)

    def test_one_step_short_raises(self):
        errors = [1.0, 0.5] + [0.1 ** i for i in range(MIN_FIT_STEPS - 1)]
        with pytest.raises(InsufficientSteps,
                           match=f"^only {MIN_FIT_STEPS - 1} usable steps for "
                                 f"k=0; need >= {MIN_FIT_STEPS}$"):
            fit_decay(synthetic_trace(errors), 0, min_step=2)


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
        f = GridFunction(np.sin(7 * x) + np.sin(8 * x))
        for k in (0, 1, 2):
            assert oracle_norm(f, k, 16) >= ck_norm(f, k)[k] - 1e-12

    def test_guards(self):
        f = oscillator(1.0, 4, n_points=2048)
        with pytest.raises(ValueError, match="power of two"):
            oracle_norm(f, 0, 3)
        with pytest.raises(ResolutionError, match="too large"):
            oracle_norm(f, 0, 4096)


class TestR5Demo:
    """The self-interaction demo through its one entry point, r5-demo on the
    shipped r5.cfg (the default scales at strength 1)."""

    def test_strength_zero_no_effect(self, r5_demo):
        clean, with_r5, out = r5_demo("r5_strength=0")
        assert "no effect" in out
        assert abs(with_r5) / abs(clean) == pytest.approx(1.0)

    def test_stall_at_strength_one(self, r5_demo):
        clean, with_r5, out = r5_demo()
        assert "no effect" not in out and "stalled=True" in out
        assert abs(with_r5) / abs(clean) < R5_FACTOR
        assert abs(with_r5) < abs(clean)

    def test_lambda_doubling_worsens_stall(self, r5_demo):
        base_clean, base_r5, _ = r5_demo()
        doubled_clean, doubled_r5, _ = r5_demo("lambda=64", "ell=2")
        assert abs(doubled_r5) < abs(base_r5)
        clean_shift = abs(doubled_clean - base_clean)
        assert clean_shift <= 0.15 * abs(base_clean)

    def test_stalled_at_strength_one_not_zero(self, r5_demo):
        clean, with_r5, out = r5_demo()
        assert abs(with_r5) / abs(clean) < R5_FACTOR and "stalled=True" in out
        clean, with_r5, out = r5_demo("r5_strength=0")
        assert not abs(with_r5) / abs(clean) < R5_FACTOR
