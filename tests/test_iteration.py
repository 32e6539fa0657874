import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tamelab import iteration, ledger
from tamelab.cli import main
from tamelab.gridfield import (
    BATCH_POINTS,
    FieldSpectrum,
    GridFunction,
    NormVector,
    ck_norm,
    oscillator,
)
from tamelab.iteration import (
    DerivativeBudgetExhausted,
    initial_step,
    run,
    start_state,
    step,
)
from tamelab.problem import (
    IterationParams,
    make_scalar_toy,
    make_two_component_toy,
    make_varying_toy,
    with_self_interaction,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def no_remainder(instance):
    return replace(instance, remainder=replace(instance.remainder, terms=()))


@pytest.fixture(scope="module")
def stock_trace():
    return run(make_scalar_toy(IterationParams(), 0.2))


def walk(instance):
    """States 0..n_steps of a run made by hand: unlike run, which keeps
    rows only, these hold their fields."""
    states = [start_state(instance, True)]
    while states[-1].step < instance.params.n_steps:
        states.append(step(states[-1], instance))
    return states


def residuals(trace):
    """The identity residuals of steps 1..n, read off the trace's rows."""
    return [s.identity_residual for s in trace.states[1:]]


def identity_limit(trace):
    """IDENTITY_TOL * (1 + ||T||_0), with ||T||_0 read off row 0."""
    return iteration.IDENTITY_TOL * (1 + trace.states[0].norms_error[0])


def error_of(instance, state):
    """E = (T - b(a, a)) - r(a) at a state, recomputed in the driver's float
    operations: the field the step normed and checked, and did not keep."""
    e = instance.target.samples - instance.bilinear_map(
        state.a.samples, state.a.samples, state.step)
    e -= state.r_of_a.samples
    return GridFunction(e)


class TestInitialStep:
    def test_flat_target_closed_form(self):
        # amplitude 0: a1 = 1 and E1 = -(mu + mu^2) cos(lam x) exactly,
        # since the derivative-carrying terms vanish at a constant iterate
        p = IterationParams()
        instance = make_scalar_toy(p, 0.0)
        state = initial_step(instance)
        assert (state.a - GridFunction.constant(1.0, p.n_points)).sup() < 1e-14
        mu = 1.0 / p.lambda_ell
        expected = oscillator(-(mu + mu ** 2), p.lam, n_points=p.n_points)
        assert (error_of(instance, state) - expected).sup() < 1e-14

    def test_error_norms_equal_remainder_norms(self):
        # T = b(a1, a1) exactly, so E1 = -r1(a1): same norms, opposite sign
        instance = make_scalar_toy(IterationParams(), 0.2)
        state = initial_step(instance)
        assert state.norms_error.values == pytest.approx(
            state.norms_r.values, rel=1e-12)
        assert (error_of(instance, state) + state.r_of_a).sup() < 1e-13

    def test_zero_remainder_zero_error(self):
        instance = no_remainder(make_scalar_toy(IterationParams(), 0.2))
        state = initial_step(instance)
        assert state.norms_error[0] < 1e-13

    def test_first_error_bound(self):
        # ||E_1||_k <= C lam^k/(lam ell) at lam = 32, ell = 1/4, with the
        # constant frozen from the closed form (1 + mu)(1 + small)
        p = IterationParams(ell=0.25, k1=1, n_steps=1)
        state = initial_step(make_scalar_toy(p, 0.2))
        for k in range(len(state.norms_error)):
            ratio = state.norms_error[k] / (p.lam ** k / p.lambda_ell)
            assert ratio <= 1.3


class TestStep:
    def test_zero_remainder_fixed_point(self):
        instance = no_remainder(make_scalar_toy(IterationParams(), 0.2))
        s1 = initial_step(instance)
        s2 = step(s1, instance)
        assert np.array_equal(s2.a.samples, s1.a.samples)
        assert s2.norms_error[0] < 1e-13

    def test_contraction_band(self):
        # ||E2||/||E1|| within [0.3, 30]/(lam ell) at lam*ell = 128
        instance = make_scalar_toy(IterationParams(n_steps=2), 0.2)
        s1 = initial_step(instance)
        s2 = step(s1, instance)
        ratio = s2.norms_error[0] / s1.norms_error[0]
        ll = instance.params.lambda_ell
        assert 0.3 / ll <= ratio <= 30.0 / ll

    def test_budget_exhaustion(self):
        p = IterationParams(lam=16, k0=3, k1=1, n_points=1024, n_steps=2)
        instance = make_scalar_toy(p, 0.2)
        trace = run(instance)
        with pytest.raises(DerivativeBudgetExhausted, match="k0"):
            step(trace.states[-1], instance)

    def test_identity_residual_tiny(self):
        instance = make_scalar_toy(IterationParams(n_steps=2), 0.2)
        s1 = initial_step(instance)
        s2 = step(s1, instance)
        assert s2.identity_residual <= iteration.IDENTITY_TOL * (1 + instance.target.sup())

    def test_error_only_mode_read_from_state(self):
        # An error-only start makes error-only steps: step takes no mode of
        # its own, so a trace cannot mix full and error-only rows.
        instance = make_scalar_toy(IterationParams(n_steps=2), 0.2)
        s1 = step(start_state(instance, False), instance)
        s2 = step(s1, instance)
        for s in (s1, s2):
            assert s.norms_a is None and s.norms_r is None and s.norms_diff is None
            assert s.identity_residual is not None


class TestRun:
    def test_single_step_trace(self):
        instance = make_scalar_toy(IterationParams(n_steps=1), 0.2)
        trace = run(instance)
        assert len(trace.states) == 2
        assert trace.states[0].step == 0 and trace.states[1].step == 1
        s0 = trace.states[0]
        assert s0.norms_a[0] == 0.0
        assert s0.norms_error[0] == pytest.approx(instance.target.sup())

    def test_identity_residuals_over_six_steps(self):
        p = IterationParams(k0=8, n_steps=6)
        trace = run(make_scalar_toy(p, 0.2))
        assert trace.flag == "completed"
        assert max(residuals(trace)) <= identity_limit(trace)

    def test_norm_budget_shrinks_per_step(self):
        trace = run(make_scalar_toy(IterationParams(), 0.2))
        p = IterationParams()
        for state in trace.states:
            assert state.norms_a.k_max == p.norm_order(state.step)

    def test_geometric_decay_band(self):
        # lam = 32, ell = 1: per-step ratios within [0.3, 3]/(lam ell)
        p = IterationParams(ell=1.0)
        trace = run(make_scalar_toy(p, 0.2))
        ll = p.lambda_ell
        errs = [s.norms_error[0] for s in trace.states[1:]]
        for before, after in zip(errs, errs[1:]):
            assert 0.3 / ll <= after / before <= 3.0 / ll

    def test_difference_norms_single_constant(self):
        # ||a_(i+1) - a_i||_k <= C lam^k/(lam ell)^i with one modest C
        p = IterationParams()
        trace = run(make_scalar_toy(p, 0.2))
        ll = p.lambda_ell
        for i in range(1, len(trace.states) - 1):
            diff = trace.states[i + 1].norms_diff
            for k in range(len(diff)):
                assert diff[k] <= 10.0 * p.lam ** k / ll ** i

    def test_floor_stop_flag(self):
        # with no remainder the error is exactly zero from step 1, so the
        # run stops at the floating-point floor instead of stepping on
        instance = no_remainder(make_scalar_toy(IterationParams(n_steps=4), 0.2))
        trace = run(instance)
        assert trace.flag == "floor"
        assert trace.n_steps == 1
        assert trace.states[-1].norms_error[0] < 1e-14 * trace.states[0].norms_error[0]

    def test_domain_escape_flags_partial_trace(self):
        p = IterationParams(lam=16, ell=1.5 / 16, k1=1, n_steps=3)
        trace = run(make_scalar_toy(p, 0.2))
        assert trace.flag == "diverged"
        assert trace.escape_step is not None and trace.escape_step <= 3
        assert p.lambda_ell <= ledger.threshold(ledger.stock_constants(p))
        assert len(trace.states) >= 2  # partial trace retained

    def test_budget_precondition(self):
        with pytest.raises(DerivativeBudgetExhausted, match="budget"):
            run(make_scalar_toy(IterationParams(k0=5), 0.2))

    def test_determinism_bitwise(self):
        a = run(make_scalar_toy(IterationParams(), 0.2))
        b = run(make_scalar_toy(IterationParams(), 0.2))
        assert len(a.states) == len(b.states)
        assert a.states == b.states  # every recorded row, residuals too
        walked = [walk(make_scalar_toy(IterationParams(), 0.2)) for _ in range(2)]
        for s, t in zip(*walked):
            assert np.array_equal(s.a.samples, t.a.samples)
            assert np.array_equal(s.r_of_a.samples, t.r_of_a.samples)
            assert s.identity_residual == t.identity_residual

    def test_varying_family_identity(self):
        trace = run(make_varying_toy(IterationParams(), drift=1.0))
        assert trace.flag == "completed"
        assert max(residuals(trace)) <= identity_limit(trace)

    def test_two_component_identity(self):
        trace = run(make_two_component_toy(IterationParams(), 0.2))
        assert trace.flag == "completed"
        assert max(residuals(trace)) <= identity_limit(trace)

    def test_drift_zero_trace_matches_stock(self, stock_trace):
        varying = make_varying_toy(IterationParams(), drift=0.0)
        assert run(varying).states == stock_trace.states
        stock = walk(make_scalar_toy(IterationParams(), 0.2))
        for s, t in zip(stock, walk(varying), strict=True):
            assert np.array_equal(s.a.samples, t.a.samples)

    def test_r5_run_still_satisfies_identity(self):
        instance = with_self_interaction(make_scalar_toy(IterationParams(), 0.2), 1.0)
        trace = run(instance)
        assert max(residuals(trace)) <= identity_limit(trace)

    @pytest.mark.parametrize("lam,ell,amplitude,drift,r5", [
        (16, 0.5, 0.5, 0.0, 0.0),    # lam*ell = 8: the target keeps a bump
        (16, 0.75, 0.2, 1.0, 0.0),   # small scale separation, drifting maps
        (32, 2.0, 0.3, 0.0, 0.5),    # self-interaction at moderate strength
        (64, 1.0, 0.0, 2.0, 1.0),    # flat target, drift and r5 together
    ])
    def test_identity_residual_across_parameter_grid(self, lam, ell,
                                                     amplitude, drift, r5):
        p = IterationParams(lam=lam, ell=ell, k1=1, n_steps=4)
        if drift:
            instance = make_varying_toy(p, drift, amplitude)
        else:
            instance = make_scalar_toy(p, amplitude)
        instance = with_self_interaction(instance, r5)
        trace = run(instance)
        assert len(trace.states) > 1  # at least one completed step
        assert max(residuals(trace)) <= identity_limit(trace)


class TestCheckHypotheses:
    def test_stock_trace_passes(self, stock_trace):
        assert ledger.check_hypotheses(stock_trace)
        margins, _ = ledger.margins(stock_trace)
        assert all(m.worst <= 1.0 for m in margins)
        p = stock_trace.instance.params
        assert ledger.threshold(ledger.stock_constants(p)) == 3.0

    def test_zero_remainder_error_clauses_trivial(self):
        instance = no_remainder(make_scalar_toy(IterationParams(n_steps=3), 0.2))
        trace = run(instance)
        for margins in ledger.margins(trace)[0]:
            assert all(e <= 1e-6 for e in margins.error)

    def test_rejects_empty_trace(self, stock_trace):
        truncated = replace(stock_trace, states=stock_trace.states[:1])
        with pytest.raises(ValueError, match="no completed steps"):
            ledger.check_hypotheses(truncated)


class TestTelescoping:
    def test_convention_resolved_numerically(self):
        # reconstruction r_1(a_1) - sum_{j=2..i+1} E_j matches the direct
        # remainder; including E_1 in the sum (the other index reading)
        # misses by ~||E_1||, so the convention is unambiguous
        instance = make_scalar_toy(IterationParams(), 0.2)
        states = walk(instance)
        for upto in (2, 3):
            recon = states[1].r_of_a
            for j in range(2, upto + 1):
                recon = recon - error_of(instance, states[j])
            direct = states[upto].r_of_a
            assert (recon - direct).sup() <= 1e-9
            wrong = recon - error_of(instance, states[1])
            gap = (wrong - direct).sup()
            assert gap > 1e-4  # the wrong reading is off by ||E_1|| ~ 8e-3


class TestTransformCount:
    def test_default_run_transform_count(self, count_fft):
        # Default config: norm orders 7 - i at states i = 0..5.  State 0 is
        # assembled from the build's target norms: no transform.  States
        # 1..5 take one rfft of a, shared by the remainder's first
        # derivative (one irfft) and ||a||, which reads that derivative and
        # inverts its other (6 - i) orders; then one rfft and (7 - i)
        # inverted orders each for ||E||, for ||r|| and, at steps 2..5, for
        # the difference (the step-1 difference is ||a_1||).  At 2048
        # points one irfft call takes all the orders a norm inverts.
        # rfft: 5 * 4 - 1 = 19 calls of one row.  irfft rows:
        # 5 + 15 + 20 + 20 + 14 = 74, in 5 + 5 + 5 + 5 + 4 = 24 calls.
        instance = make_scalar_toy(IterationParams(), 0.2)
        log = count_fft()
        trace = run(instance)
        assert trace.flag == "completed" and trace.n_steps == 5
        assert log.calls == {"rfft": 19, "irfft": 24}
        assert log.rows == {"rfft": 19, "irfft": 74}

    def test_error_only_run_transform_count(self, count_fft):
        # ||E|| alone: the rfft of a and the remainder's first
        # derivative (one irfft), then one rfft and one irfft of (7 - i)
        # rows for ||E||.  rfft: 5 * 2 = 10 calls of one row.  irfft rows:
        # 5 + 20 = 25, in 5 + 5 = 10 calls.
        instance = make_scalar_toy(IterationParams(), 0.2)
        log = count_fft()
        trace = run(instance, full=False)
        assert trace.flag == "completed" and trace.n_steps == 5
        assert log.calls == {"rfft": 10, "irfft": 10}
        assert log.rows == {"rfft": 10, "irfft": 25}

    @pytest.mark.parametrize("full, overrides", [
        (True, {}), (False, {}),
        (True, dict(lam=1024, ell=0.125, n_points=65536))],
        ids=["default", "error_only", "65536_points"])
    def test_calls_stay_within_batch_points(self, count_fft, full, overrides):
        # Build and run: no transform call takes more than BATCH_POINTS
        # samples, and a 65536-point grid inverts one order per call, in
        # the calls of the fine-grid benchmark operation.
        params = replace(IterationParams(), **overrides)
        log = count_fft()
        trace = run(make_scalar_toy(params, 0.2), full=full)
        assert trace.flag == "completed" and trace.n_steps == 5
        assert max(rows * points for _, rows, points in log.entries) <= BATCH_POINTS
        if params.n_points == 65536:
            assert {rows for name, rows, _ in log.entries if name == "irfft"} == {1}
            assert log.calls == {"rfft": 21, "irfft": 82}


@pytest.fixture
def count_fields(monkeypatch):
    """count_fields() starts counting GridFunction constructions and
    returns the live list, one n_points per field."""

    def start():
        made = []
        check = GridFunction.__post_init__

        def counted(self):
            made.append(self.n_points)
            check(self)

        monkeypatch.setattr(GridFunction, "__post_init__", counted)
        return made

    return start


class TestFieldCount:
    """GridFunctions made per default run (5 steps).  State 0 holds one
    zero field, as a and as r(a).  Each step then wraps a = F(tensor), r(a)
    and E.  From step 2 on a full run adds a - a_prev for its norms.  The
    derivatives a's spectrum keeps, the remainder's terms and partial sums,
    b(a, a), the inverse's tensor T - r and distance, and E's and the
    residual's differences stay sample arrays."""

    def test_default_run_field_count(self, count_fields):
        # 1 + 3 * 5 + 4
        instance = make_scalar_toy(IterationParams(), 0.2)
        made = count_fields()
        assert run(instance).n_steps == 5
        assert len(made) == 20

    def test_error_only_run_field_count(self, count_fields):
        # 1 + 3 * 5
        instance = make_scalar_toy(IterationParams(), 0.2)
        made = count_fields()
        assert run(instance, full=False).n_steps == 5
        assert len(made) == 16


# The instance families whose step 0 and step-1 difference are assembled
# rather than computed: scalar, two-component, drifting and R5.  In those the
# mollified wave vanishes and T == T0; at lam*ell = 4 it survives.
FAMILIES = {
    "scalar": lambda: make_scalar_toy(IterationParams(), 0.2),
    "wave": lambda: make_scalar_toy(IterationParams(ell=0.125), 0.2),
    "two_component": lambda: make_two_component_toy(IterationParams(), 0.2),
    "drift": lambda: make_varying_toy(IterationParams(), drift=0.5),
    "r5": lambda: with_self_interaction(make_scalar_toy(IterationParams(), 0.2), 1.0),
}


def same_bits(f, g):
    return (f.samples.shape == g.samples.shape
            and f.samples.tobytes() == g.samples.tobytes())


class TestAssembledStart:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_step0_equals_generic_state(self, family):
        # State 0 computed as a step computes a state, at a = 0: the same
        # fields, one zero field for a and r(a), and E = T with its norms.
        instance = FAMILIES[family]()
        p = instance.params
        assembled = start_state(instance, True)
        order = p.norm_order(0)
        a = GridFunction.constant(0.0, p.n_points)
        spectral = FieldSpectrum(a.samples)
        generic = SimpleNamespace(
            step=0, a=a, r_of_a=instance.remainder(spectral, 0),
            norms_a=spectral.ck_norm(order))
        error = error_of(instance, generic)
        assert assembled.step == 0 and assembled.identity_residual is None
        assert assembled.a is assembled.r_of_a
        for name in ("a", "r_of_a"):
            assert same_bits(getattr(assembled, name), getattr(generic, name)), name
        assert same_bits(error, instance.target)
        assert assembled.norms_a.values == generic.norms_a.values
        assert assembled.norms_r.values == ck_norm(generic.r_of_a, order).values
        assert assembled.norms_error.values == ck_norm(error, order).values

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_difference_norms_equal_generic(self, family):
        instance = FAMILIES[family]()
        p = instance.params
        trace = run(instance)
        states = walk(instance)
        zeros = GridFunction.constant(0.0, p.n_points)
        assert trace.states[1].norms_diff.values == ck_norm(
            states[1].a - zeros, p.norm_order(1)).values
        for prev, new, row in zip(states[1:-1], states[2:], trace.states[2:],
                                  strict=True):
            assert row.norms_diff.values == ck_norm(new.a - prev.a,
                                                    p.norm_order(new.step)).values


class TestRows:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_hold_walked_residuals(self, family):
        # Each row of a run holds its step's identity residual: the one a
        # run walked by hand gives at that step, bit for bit.
        instance = FAMILIES[family]()
        trace = run(instance)
        walked = walk(instance)
        assert len(trace.states) == len(walked)
        assert trace.states[0].identity_residual is None
        for row, state in zip(trace.states[1:], walked[1:]):
            assert row.identity_residual == state.identity_residual, row.step


def chained_remainder(spec, a, step):
    """r_step(a) as a chain of GridFunctions: a zero field, one field per
    term and per partial sum, then the scaled sum."""
    spectral = FieldSpectrum(a.samples)
    total = GridFunction.constant(0.0, a.n_points)
    for term in spec.terms:
        orders = term.bound_class.arg_derivatives
        core = spectral.derivative(orders[0])
        if term.bound_class.arity == 2:
            core = core * spectral.derivative(orders[1])
        pref = term.weight * term.bound_class.prefactor(spec.lam, spec.ell)
        total = total + GridFunction(pref * (spec.modulation.samples * core))
    return GridFunction(spec.step_scale(step) * total.samples)


class TestArrayPath:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fields_equal_grid_function_chain(self, family):
        # Steps 1..5 of a walked run hold, bit for bit, the a and r(a) a
        # chain of GridFunctions gives; ||E|| is the norm of that chain's E
        # and the identity residual the sup of its E - (r_prev - r).
        instance = FAMILIES[family]()
        states = walk(instance)
        r_prev = GridFunction.constant(0.0, instance.params.n_points)
        for new in states[1:]:
            tensor = instance.target if new.step == 1 else instance.target - r_prev
            a = instance.inverse(tensor.samples, new.step)
            r = chained_remainder(instance.remainder, a, new.step)
            b = GridFunction(
                instance.bilinear_map(a.samples, a.samples, new.step))
            error = instance.target - b - r
            for name, want in (("a", a), ("r_of_a", r)):
                got = getattr(new, name)
                assert np.array_equal(got.samples, want.samples), (new.step, name)
                assert same_bits(got, want), (new.step, name)
            order = instance.params.norm_order(new.step)
            assert new.norms_error.values == ck_norm(error, order).values
            assert new.identity_residual == (error - (r_prev - r)).sup()
            r_prev = r
        assert new.step == 5


def two_column_run(instance):
    """The two-component toy stepped on the pair itself: a = (u1, u2), two
    equal 1-D fields sqrt(t/2) with the step factor, b(a, a) = u1 u1 + u2 u2
    over the factor squared, each term's core the mean 0.5 (c1 + c2) of the
    two fields' cores, and a's norms the max over the pair.  Returns the
    rows, identity residuals included, the flag and the escape step."""
    p, spec = instance.params, instance.remainder
    flat = lambda f: f.samples.reshape(-1)
    norms = lambda x, order: ck_norm(GridFunction(x), order).values
    pair_norms = lambda pair, order: tuple(map(max, *(norms(u, order) for u in pair)))
    factor = lambda i: 1.0 + spec.drift * p.lambda_ell ** (-i)
    target, modulation = flat(instance.target), flat(spec.modulation)

    def remainder(pair, i):
        spectra = [FieldSpectrum(u) for u in pair]
        total = np.zeros(p.n_points)
        for term in spec.terms:
            orders = term.bound_class.arg_derivatives
            cores = []
            for s in spectra:
                core = s.derivative(orders[0])
                if len(orders) == 2:
                    core = core * s.derivative(orders[1])
                cores.append(core)
            out = modulation * (0.5 * (cores[0] + cores[1]))
            out *= term.weight * term.bound_class.prefactor(spec.lam, spec.ell)
            total = out + total
        return spec.step_scale(i) * total

    zeros = (0.0,) * (p.norm_order(0) + 1)
    rows = [(0, instance.target_norms.values, zeros, zeros, None, None)]
    flag, escape = "completed", None
    r_prev, a_prev = np.zeros(p.n_points), None
    for i in range(1, p.n_steps + 1):
        tensor = target if i == 1 else target - r_prev
        if np.max(np.abs(tensor - 1.0)) > 1.0 / p.c_f or tensor.min() / 2 <= 0.0:
            flag, escape = "diverged", i
            break
        u = np.sqrt(tensor / 2) * factor(i)
        pair = (u.copy(), u.copy())
        order = p.norm_order(i)
        r = remainder(pair, i)
        b = pair[0] * pair[0]
        b += pair[1] * pair[1]
        b *= factor(i) ** (-2)
        e = target - b
        e -= r
        norms_a = pair_norms(pair, order)
        diff = norms_a if a_prev is None else pair_norms(
            [x - y for x, y in zip(pair, a_prev)], order)
        rows.append((i, norms(e, order), norms_a, norms(r, order), diff,
                     float(np.max(np.abs(e - (r_prev - r))))))
        r_prev, a_prev = r, pair
        if rows[-1][1][0] < iteration.FLOOR_STOP * instance.target_norms[0]:
            if i < p.n_steps:
                flag = "floor"
            break
    return rows, flag, escape


class TestTwoColumnReference:
    @pytest.mark.parametrize("params,drift,r5", [
        (IterationParams(), 0.0, 0.0),
        (IterationParams(), 0.0, 1.0),
        (IterationParams(), 0.5, 0.0),
        (IterationParams(), 0.5, 1.0),
        (IterationParams(lam=64, ell=0.125, n_points=8192, seed=3), 0.25, 1.0),
    ])
    def test_toy_steps_the_pair(self, params, drift, r5):
        # The two-component toy's trace equals, bit for bit, the trace of
        # its pair stepped column by column: the rows, identity residuals
        # included, the flag and the escape step.
        instance = with_self_interaction(
            make_two_component_toy(params, 0.2, drift=drift), r5)
        trace = run(instance)
        rows, flag, escape = two_column_run(instance)
        got = [(s.step, s.norms_error.values, s.norms_a.values, s.norms_r.values,
                None if s.norms_diff is None else s.norms_diff.values,
                s.identity_residual)
               for s in trace.states]
        assert got == rows
        assert (trace.flag, trace.escape_step) == (flag, escape)
        assert (flag == "diverged") == (params.lam == 64)


class TestLazyColumns:
    """The norm columns: ||r|| and the differences, once taken on first read,
    and the others, all taken as each step completes."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_lazy_columns_equal_eager(self, family):
        # Each column the run records holds the bits of ck_norm of the field
        # it norms, taken from a run walked by hand, and the margins read off
        # the trace match those read off these norms.
        instance = FAMILIES[family]()
        trace = run(instance)
        eager = []
        for state in walk(instance):
            order = instance.params.norm_order(state.step)
            norms = lambda f: ck_norm(f, order) if state.step else NormVector(
                (0.0,) * (order + 1))
            eager.append(SimpleNamespace(
                step=state.step, norms_a=norms(state.a),
                norms_error=ck_norm(error_of(instance, state), order),
                norms_r=norms(state.r_of_a)))
        assert ledger.margins(trace) == ledger.margins(SimpleNamespace(
            instance=instance, states=eager))
        for row, want in zip(trace.states, eager, strict=True):
            for name in ("norms_a", "norms_error", "norms_r"):
                assert getattr(row, name).values == getattr(want, name).values
        assert [s.norms_diff is None for s in trace.states] == [True] + [False] * (
            len(trace.states) - 1)

    def test_columns_computed_once(self, count_fft):
        # Reading the trace after the run makes no transform: every column
        # was taken as its step completed.
        trace = run(make_scalar_toy(IterationParams(), 0.2))
        log = count_fft()
        assert None not in [s.norms_diff for s in trace.states[1:]]
        assert None not in [s.norms_r for s in trace.states]
        assert ledger.margins(trace)[0]
        assert log.entries == []

    def test_error_only_trace(self):
        # full=False: the same ||E_i|| bits and residuals as a full run, no
        # other norm, and margins refuse it.
        instance = make_scalar_toy(IterationParams(), 0.2)
        full = run(instance)
        errors = run(instance, full=False)
        assert [s.norms_error for s in errors.states] == [
            s.norms_error for s in full.states]
        assert residuals(errors) == residuals(full)
        assert all(s.norms_a is s.norms_r is s.norms_diff is None
                   for s in errors.states)
        with pytest.raises(ValueError, match="only a full run records"):
            ledger.margins(errors)

    def test_sweep_norms_only_errors(self, monkeypatch, tmp_path):
        # sweep reads ||E_i|| alone: iteration norms the 5 errors of each of
        # its 3 runs (orders min(7 - i, 3) at lambda = 64) and neither a
        # remainder nor a difference, and it never propagates the ledger.
        normed = []

        def counting(f, k_max, *args, **kwargs):
            normed.append(k_max)
            return ck_norm(f, k_max, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("sweep propagated the ledger")

        monkeypatch.setattr("tamelab.iteration.ck_norm", counting)
        monkeypatch.setattr("tamelab.ledger.propagate", refuse)
        assert main(["sweep", "--config", str(CONFIGS / "sweep.cfg"), "--plot",
                     "--output_dir", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("decay_ll*.csv"))) == 3
        assert normed == [3, 3, 3, 3, 2] * 3


# lam*ell = 12 at 8 points per wavelength and order: the error settles above
# the floor, so every run takes all its steps.
LONG_RUN = dict(lam=128, ell=12 / 128, k0=18, k1=1, n_points=8192)


class TestMemory:
    """A run keeps rows, not fields: memory does not grow with steps."""

    def test_fields_of_earlier_states_released(self, monkeypatch):
        refs = []

        def tracking(make):
            def wrapper(*args, **kwargs):
                state = make(*args, **kwargs)
                refs.append([weakref.ref(f) for f in (state.a, state.r_of_a)])
                return state
            return wrapper

        monkeypatch.setattr(iteration, "step", tracking(iteration.step))
        trace = run(make_scalar_toy(IterationParams(n_steps=16, **LONG_RUN), 0.2))
        assert trace.flag == "completed" and len(refs) == 16
        alive = [(i, name) for i, step_refs in enumerate(refs[:-1], start=1)
                 for name, ref in zip(("a", "r_of_a"), step_refs)
                 if ref() is not None]
        assert alive == []

    def test_traced_peak_flat_in_run_length(self):
        # The parent design kept a, r(a) and E of every step: 3 fields more
        # per step, 36 over the 12 extra steps.  Two fields is the allowance.
        instances = {n: make_scalar_toy(IterationParams(n_steps=n, **LONG_RUN), 0.2)
                     for n in (4, 16)}
        peaks = {}
        for n, instance in instances.items():
            run(instance)  # fills the multiplier caches outside the trace
            tracemalloc.start()
            try:
                assert run(instance).n_steps == n
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        field_bytes = 8 * LONG_RUN["n_points"]
        assert peaks[16] - peaks[4] <= 2 * field_bytes, peaks

    def test_step_live_set(self):
        # A step forms E after the other norms and no state keeps it: a full
        # run's traced peak reads 8.1 fields.  E held through ||r|| and
        # ||a - a_prev||, and on the state, read 9.1.
        instance = make_scalar_toy(IterationParams(n_steps=4, **LONG_RUN), 0.2)
        run(instance)  # fills the multiplier caches outside the trace
        tracemalloc.start()
        try:
            assert run(instance).n_steps == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = peak / (8 * LONG_RUN["n_points"])
        assert fields <= 8.5, fields
