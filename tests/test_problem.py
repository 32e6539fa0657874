from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tamelab import problem
from tamelab.cli import ConfigError, _build, load_experiment_config, parse_flat_config
from tamelab.gridfield import (
    BATCH_POINTS,
    FieldSpectrum,
    GridFunction,
    IncompatibleGrids,
    NormVector,
    ck_norm,
    finite_sup,
    random_trig_polynomial,
)
from tamelab.iteration import initial_step, run
from tamelab.ledger import calibrate
from tamelab.problem import (
    KINDS,
    RIGHT_INVERSE_TOL,
    R1,
    R2,
    R3,
    R4,
    R5,
    BoundClass,
    DomainEscape,
    IterationParams,
    NeighborhoodViolation,
    RemainderTerm,
    make_scalar_toy,
    make_two_component_toy,
    make_varying_toy,
    r6,
    self_interaction_term,
    with_self_interaction,
    _check_right_inverse,
    _toy_maps,
)


HYP = dict(max_examples=60, deadline=None, derandomize=True)


def product(f, g):
    """Pointwise product of two fields on one grid."""
    return GridFunction(f.samples * g.samples)


def component_mean(cores):
    """The mean of copies of a term core, taken as the sum over the copies'
    axis, as a field whose copies are stacked columns would reduce it."""
    stacked = np.stack([core.samples for core in cores], axis=-1)
    return GridFunction((1.0 / len(cores)) * stacked.sum(axis=-1))


def residual(instance, a, t, step):
    """sup |b(a, a) - t| on the instance's bilinear map."""
    return finite_sup(instance.bilinear_map(a.samples, a.samples, step) - t.samples)


def load(*items):
    """The run subcommand's config from --set items alone."""
    return load_experiment_config("run", None, list(items))


class TestBoundClass:
    def test_prefactor_table(self):
        assert R1.prefactor_exponents == (1, 1)
        assert R2.prefactor_exponents == (2, 2)
        assert R3.prefactor_exponents == (2, 0)
        assert R4.prefactor_exponents == (2, 1)
        assert R5.prefactor_exponents == (1, 1)
        assert r6(2, 3).prefactor_exponents == (5, 0)

    def test_prefactor_values(self):
        assert R1.prefactor(32, 4) == pytest.approx(1 / 128)
        assert R2.prefactor(32, 4) == pytest.approx(1 / 128 ** 2)
        assert R3.prefactor(32, 4) == pytest.approx(1 / 1024)
        assert R4.prefactor(32, 4) == pytest.approx(1 / (1024 * 4))

    def test_arg_derivatives_and_arity(self):
        assert R1.arg_derivatives == (0,) and R1.arity == 1
        assert R3.arg_derivatives == (1, 1)
        assert R4.arg_derivatives == (1, 0)
        assert r6(2, 1).arg_derivatives == (2, 1)

    def test_plain_records(self):
        # A class is its three fields; r6 refuses a zero derivative order.
        assert BoundClass("R2", (2, 2), (0, 0)) == R2
        for s, t in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="R6 requires s, t >= 1"):
                r6(s, t)


class TestScalarToy:
    def test_zero_amplitude_exact(self):
        instance = make_scalar_toy(IterationParams(), 0.0)
        assert (instance.target - instance.center).sup() == 0.0
        a = instance.inverse(instance.target.samples, 1)
        assert (a - GridFunction.constant(1.0, 2048)).sup() < 1e-14
        assert residual(instance, a, instance.target, 1) < 1e-14

    def test_pointwise_square_root(self):
        # degenerate unmollified case: T = 1 + 0.1 sin(x), a = sqrt(T)
        instance = make_scalar_toy(IterationParams(), 0.0)
        x = 2 * np.pi * np.arange(2048) / 2048
        t_prime = GridFunction(1.0 + 0.1 * np.sin(x))
        a = instance.inverse(t_prime.samples, 1)
        assert residual(instance, a, t_prime, 1) < 1e-12

    def test_right_inverse_on_random_admissible(self):
        instance = make_scalar_toy(IterationParams(), 0.2)
        rng = np.random.default_rng(99)
        for _ in range(20):
            bump = random_trig_polynomial(rng, 2048)
            t_prime = instance.center + GridFunction(0.3 * rng.uniform(0.1, 1.0) * bump.samples)
            a = instance.inverse(t_prime.samples, 1)
            assert residual(instance, a, t_prime, 1) < 1e-10

    def test_remainder_vanishes_at_zero(self):
        instance = make_scalar_toy(IterationParams(), 0.2)
        zero = FieldSpectrum(GridFunction.constant(0.0, 2048))
        for step in (1, 2, 5):
            assert instance.remainder(zero, step).sup() == 0.0

    def test_neighborhood_violation_reports_measured(self):
        # at lam*ell = 1.12 the mollifier keeps ~0.53 of the wave, so
        # amplitude 0.9 leaves ||T - T0||_0 ~ 0.48 > 1/3: refused
        params = IterationParams(lam=16, ell=0.07, k0=3, k1=1, n_steps=2)
        with pytest.raises(NeighborhoodViolation) as err:
            make_scalar_toy(params, 0.9)
        assert err.value.measured > err.value.radius

    def test_target_radius_at_most_one(self):
        # 1/(3 C_F) may reach 1, the center's distance to the nonpositive
        # tensors, where F = sqrt is undefined, but not exceed it.
        make_scalar_toy(IterationParams(c_f=1 / 3), 0.2)  # radius exactly 1
        for c_f in (0.332, 0.25, 1e-300):
            with pytest.raises(NeighborhoodViolation, match="< 1/3") as err:
                make_scalar_toy(IterationParams(c_f=c_f), 0.2)
            assert err.value.measured > err.value.radius == 1.0

    def test_target_norm_constant_recorded(self):
        # The build records the target's norms; the field constant that
        # calibration takes from them bounds ||T||_k by C lam^k / (lam ell).
        instance = make_scalar_toy(IterationParams(lam=16, ell=0.25, k0=3,
                                                  k1=1, n_steps=2), 0.2)
        p = instance.params
        assert instance.target_norms.values == ck_norm(
            instance.target, p.norm_order(0)).values
        zero = NormVector((0.0,))
        target_constant = calibrate(zero, zero, zero, instance.target_norms, p).c
        norms = ck_norm(instance.target, 2)
        for k in (1, 2):
            assert norms[k] <= target_constant * p.lam ** k / p.lambda_ell * (1 + 1e-12)

    def test_domain_escape_outside_radius(self):
        instance = make_scalar_toy(IterationParams(), 0.2)
        far = GridFunction.constant(2.5, 2048)
        with pytest.raises(DomainEscape) as err:
            instance.inverse(far.samples, 1)
        assert err.value.measured == pytest.approx(1.5)

    def test_f_bounds_single_constant_across_lambda(self):
        # ||F(T')||_k <= C_F (||T'||_k + lam^k/(lam ell)) and the Lipschitz
        # variant, with one constant across the frequency grid
        ratios_direct, ratios_diff = [], []
        for lam in (16, 32, 64):
            params = IterationParams(lam=lam, ell=64.0 / lam)
            instance = make_scalar_toy(params, 0.2)
            rng = np.random.default_rng([lam, 5])
            worst_d, worst_l = 0.0, 0.0
            for _ in range(10):
                b1 = random_trig_polynomial(rng, params.n_points)
                b2 = random_trig_polynomial(rng, params.n_points)
                t1 = instance.center + GridFunction(0.3 * rng.uniform(0.1, 1.0) * b1.samples)
                t2 = instance.center + GridFunction(0.3 * rng.uniform(0.1, 1.0) * b2.samples)
                f1 = instance.inverse(t1.samples, 1)
                f2 = instance.inverse(t2.samples, 1)
                k_max = 2
                nf, nt = ck_norm(f1, k_max), ck_norm(t1, k_max)
                ndiff_f = ck_norm(f1 - f2, k_max)
                ndiff_t = ck_norm(t1 - t2, k_max)
                nt2 = ck_norm(t2, k_max)
                for k in range(k_max + 1):
                    slack = params.lam ** k / params.lambda_ell
                    worst_d = max(worst_d, nf[k] / (nt[k] + slack))
                    lip = (ndiff_t[k] + (nt2[k] + params.lam ** k) * ndiff_t[0])
                    worst_l = max(worst_l, ndiff_f[k] / lip)
            ratios_direct.append(worst_d)
            ratios_diff.append(worst_l)
        assert max(ratios_direct) / min(ratios_direct) < 2.0
        assert max(ratios_diff) / min(ratios_diff) < 2.0
        assert max(ratios_direct) < 2.0 and max(ratios_diff) < 2.0


class TestVaryingToy:
    def test_consecutive_inverse_drift_oracle(self):
        # drift 1, lam*ell = 100: ||F4(T) - F3(T)|| / ||F3(T)|| is
        # 1e-6 (1 - 1/100) by construction of the scaling family
        params = IterationParams(ell=100.0 / 32)
        instance = make_varying_toy(params, drift=1.0)
        f3 = instance.inverse(instance.target.samples, 3)
        f4 = instance.inverse(instance.target.samples, 4)
        measured = (f4 - f3).sup() / f3.sup()
        assert measured == pytest.approx(1e-6 * (1 - 0.01), rel=0.10)

    def test_drift_zero_matches_scalar_toy_bitwise(self):
        params = IterationParams()
        a = make_scalar_toy(params, 0.2)
        b = make_varying_toy(params, drift=0.0)
        t_prime = a.center + GridFunction(0.1 * random_trig_polynomial(
            np.random.default_rng(4), params.n_points).samples)
        assert np.array_equal(a.inverse(t_prime.samples, 2).samples,
                              b.inverse(t_prime.samples, 2).samples)
        probe = FieldSpectrum(random_trig_polynomial(np.random.default_rng(8),
                                                     params.n_points))
        assert np.array_equal(a.remainder(probe, 3).samples,
                              b.remainder(probe, 3).samples)

    def test_step_matched_right_inverse(self):
        params = IterationParams()
        instance = make_varying_toy(params, drift=1.0)
        t_prime = instance.center + GridFunction(0.2 * random_trig_polynomial(
            np.random.default_rng(11), params.n_points).samples)
        for step in (1, 2, 4):
            a = instance.inverse(t_prime.samples, step)
            assert residual(instance, a, t_prime, step) < 1e-10

    def test_remainder_step_differences_decay(self):
        params = IterationParams()
        instance = make_varying_toy(params, drift=1.0)
        probe = FieldSpectrum(random_trig_polynomial(np.random.default_rng(13),
                                                     params.n_points))
        ll = params.lambda_ell
        for i in (1, 2, 3):
            diff = (instance.remainder(probe, i + 1) - instance.remainder(probe, i)).sup()
            base = instance.remainder(probe, i).sup()
            assert diff <= base * 1.01 / ll ** i


class TestSelfInteraction:
    def test_strength_zero_is_identity(self):
        instance = make_scalar_toy(IterationParams(), 0.2)
        assert with_self_interaction(instance, 0.0) is instance

    def test_appends_r5_tag(self):
        instance = make_scalar_toy(IterationParams(), 0.2)
        augmented = with_self_interaction(instance, 1.0)
        kinds = [b.kind for b in augmented.remainder.class_tags]
        assert kinds == ["R1", "R2", "R3", "R4", "R5"]

    def test_term_formula(self):
        # r5(a, a) = strength/(lam ell) cos(lam x) (da) a
        params = IterationParams()
        term = self_interaction_term(2.0)
        from tamelab.gridfield import derivative, oscillator
        modulation = oscillator(1.0, params.lam, n_points=params.n_points)
        a = random_trig_polynomial(np.random.default_rng(17), params.n_points)
        out = term.apply(FieldSpectrum(a), lam=params.lam, ell=params.ell,
                         modulation=modulation)
        expected = GridFunction(2.0 / params.lambda_ell
                                * product(modulation, product(derivative(a), a)).samples)
        assert (out - expected).sup() < 1e-14

    def test_derivative_caches_shared(self):
        from tamelab.gridfield import oscillator
        params = IterationParams()
        term = self_interaction_term(1.0)
        modulation = oscillator(1.0, params.lam, n_points=params.n_points)
        a, b = (random_trig_polynomial(np.random.default_rng(seed), params.n_points)
                for seed in (17, 18))
        kwargs = dict(lam=params.lam, ell=params.ell, modulation=modulation)
        da, db = FieldSpectrum(a), FieldSpectrum(b)
        first = term.apply(da, db, **kwargs)
        kept = da.derivative(1)
        again = term.apply(da, db, **kwargs)  # reads the kept order
        fresh = term.apply(FieldSpectrum(a), FieldSpectrum(b), **kwargs)
        assert np.array_equal(first.samples, fresh.samples)
        assert np.array_equal(again.samples, fresh.samples)
        assert da.derivative(1) is kept

    @pytest.mark.parametrize("copies", [1, 2])
    def test_apply_matches_composed_grid_operations(self, copies):
        # apply builds one GridFunction; it must equal, bit for bit, the
        # same computation written as one operation per field.  At copies
        # 2 the reference is the former two-component field (a, a): the
        # mean of the copies' cores is the common component's core.
        from tamelab.gridfield import derivative, oscillator
        params = IterationParams()
        modulation = oscillator(1.0, params.lam, n_points=params.n_points)
        a, b = (random_trig_polynomial(np.random.default_rng(seed), params.n_points)
                for seed in (21, 22))

        def d(f, order):
            return f if order == 0 else derivative(f, order)

        for term in (RemainderTerm(R1), RemainderTerm(R2), RemainderTerm(R3),
                     RemainderTerm(R4), self_interaction_term(0.7),
                     RemainderTerm(r6(2, 1), weight=1.3), RemainderTerm(r6(1, 1)),
                     RemainderTerm(r6(1, 3), weight=-0.4)):
            j = term.bound_class.arg_derivatives
            core = d(a, j[0])
            if term.bound_class.arity == 2:
                core = product(core, d(b, j[1]))
            pref = term.weight * term.bound_class.prefactor(params.lam, params.ell)
            expected = GridFunction(pref * product(
                modulation, component_mean([core] * copies)).samples)
            out = term.apply(FieldSpectrum(a), FieldSpectrum(b), lam=params.lam,
                             ell=params.ell, modulation=modulation)
            assert out.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("n", [2048, 65536])
    def test_remainder_sum_matches_term_plus_total(self, n):
        # The in-place sum equals, bit for bit, a left-to-right term + total
        # from a zero start, scaled once by the step scale.
        from tamelab.gridfield import oscillator
        from tamelab.problem import RemainderSpec, stock_remainder_terms
        lam, ell = 32, 4.0
        terms = stock_remainder_terms() + (self_interaction_term(0.7),)
        modulation = oscillator(1.0, lam, n_points=n)
        spec = RemainderSpec(terms=terms, lam=lam, ell=ell,
                             modulation=modulation, drift=0.5)
        a = random_trig_polynomial(np.random.default_rng(n), n)
        total = np.zeros(n)
        for term in terms:
            total = term.apply(FieldSpectrum(a), lam=lam, ell=ell,
                               modulation=modulation).samples + total
        for step in (0, 2):
            got = spec(FieldSpectrum(a), step)
            assert got.samples.tobytes() == (spec.step_scale(step) * total).tobytes()

    def test_apply_refuses_incompatible_grids(self):
        from tamelab.gridfield import IncompatibleGrids, oscillator
        term = RemainderTerm(R3)
        kwargs = dict(lam=8, ell=1.0, modulation=oscillator(1.0, 8, n_points=128))

        def field(n):
            return FieldSpectrum(random_trig_polynomial(np.random.default_rng(1), n))

        with pytest.raises(IncompatibleGrids):  # a and b on different grids
            term.apply(field(128), field(256), **kwargs)
        with pytest.raises(IncompatibleGrids):  # modulation on another grid
            term.apply(field(256), lam=8, ell=1.0,
                       modulation=oscillator(1.0, 8, n_points=128))


class TestTwoComponent:
    def test_right_inverse(self):
        # The instance holds the common component sqrt(t/2) of F's pair,
        # and b(a, a) = 2 a^2 sums the pair's squares.
        instance = make_two_component_toy(IterationParams(), 0.2)
        t_prime = instance.center + GridFunction(0.25 * random_trig_polynomial(
            np.random.default_rng(21), 2048).samples)
        a = instance.inverse(t_prime.samples, 1)
        assert a.samples.tobytes() == np.sqrt(t_prime.samples / 2).tobytes()
        assert residual(instance, a, t_prime, 1) < 1e-10

    def test_remainder_scalar_output(self):
        # r at the common component is one field: the mean over the pair of
        # equal cores, which is the scalar toy's remainder at that component.
        instance = make_two_component_toy(IterationParams(), 0.2)
        a = random_trig_polynomial(np.random.default_rng(23), 2048)
        r = instance.remainder(FieldSpectrum(a), 1)
        assert r.samples.shape == (2048,)
        scalar = make_scalar_toy(IterationParams(), 0.2).remainder(FieldSpectrum(a), 1)
        assert r.samples.tobytes() == scalar.samples.tobytes()
        zero = FieldSpectrum(GridFunction.constant(0.0, 2048))
        assert instance.remainder(zero, 1).sup() == 0.0


class TestParams:
    def test_validation_errors(self):
        # the CLI's key table judges the ranges of the run's parameters
        with pytest.raises(ConfigError, match="exceed 1"):
            load("lambda=1", "ell=0.5", "n_steps=1", "k0=3", "k1=1")
        with pytest.raises(ConfigError, match="k0 >= k1"):
            load("k0=1", "k1=2")
        with pytest.raises(ConfigError, match="power of two"):
            load("n_points=1000")
        with pytest.raises(ConfigError, match="unresolved"):
            load("lambda=512", "n_points=1024")
        with pytest.raises(ConfigError, match="resolves norms"):
            load("lambda=128", "k1=4", "n_points=2048")

    @pytest.mark.parametrize("build", [
        lambda p: make_scalar_toy(p),
        lambda p: make_varying_toy(p, drift=0.5),
        lambda p: make_two_component_toy(p),
    ])
    def test_integer_ell_builds_as_float(self, build):
        # an int lam*ell to a negative integer power raised a bare
        # numpy ValueError in the step factor
        as_int = IterationParams(ell=4)
        assert isinstance(as_int.ell, float) and as_int == IterationParams()
        got, want = build(as_int), build(IterationParams())
        assert got.target.samples.tobytes() == want.target.samples.tobytes()
        assert got.target_norms == want.target_norms

    def test_norm_order_budget_and_cap(self):
        p = IterationParams()  # k_safe = 2048 // 256 - 1 = 7
        assert p.k_safe == 7
        assert p.norm_order(0) == 7
        assert p.norm_order(5) == 2
        p64 = IterationParams(lam=64, ell=2.0)
        assert p64.k_safe == 3
        assert p64.norm_order(1) == 3  # capped by the grid, not the budget


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = load()
        assert cfg.problem.lam == 32 and cfg.problem.ell == 4.0 and cfg.kind == "scalar"
        instance = _build(cfg, cfg.problem)
        assert instance.inverse_map(np.array([4.0]), 1).tolist() == [2.0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'lamda'"):
            load("lamda=32")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError, match="lambda must be a positive integer"):
            load("lambda=thirty-two")
        with pytest.raises(ConfigError, match="kind"):
            load("kind=tensor")
        with pytest.raises(ConfigError, match=">= 0"):
            load("drift=-1")

    def test_parse_flat_config(self):
        text = """
        # comment
        lambda = 16
        ell = 2.0   # trailing comment
        kind = scalar
        """
        mapping = parse_flat_config(text)
        assert mapping == {"lambda": "16", "ell": "2.0", "kind": "scalar"}

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="expected key = value"):
            parse_flat_config("just words\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_flat_config("a = 1\na = 2\n")

    def test_load_file_and_r5_strength(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("lambda = 16\nell = 4\nk0 = 4\nk1 = 1\nn_steps = 3\n"
                        "n_points = 1024\nr5_strength = 0.5\n")
        cfg = load_experiment_config("run", str(path), [])
        instance = _build(cfg, cfg.problem)
        kinds = [b.kind for b in instance.remainder.class_tags]
        assert kinds[-1] == "R5"

    def test_two_component_build(self):
        cfg = load("kind=two_component")
        instance = _build(cfg, cfg.problem)
        assert instance.inverse_map(np.array([8.0]), 1).tolist() == [2.0]
        assert instance.bilinear_map(np.array([2.0]), np.array([2.0]), 1).tolist() == [8.0]


def factory_build(kind, params, amplitude, drift, r5_strength):
    """The instance the matching factory makes, with the self-interaction
    term added to it."""
    if kind == "two_component":
        instance = make_two_component_toy(params, amplitude, drift=drift)
    elif drift != 0.0:
        instance = make_varying_toy(params, drift, amplitude)
    else:
        instance = make_scalar_toy(params, amplitude)
    return with_self_interaction(instance, r5_strength)


class TestBuild:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("drift", [0.0, 0.5])
    @pytest.mark.parametrize("r5_strength", [0.0, 1.0])
    def test_build_matches_factory(self, kind, drift, r5_strength):
        p = IterationParams()
        got = problem.build(kind, p, 0.2, drift, r5_strength)
        want = factory_build(kind, p, 0.2, drift, r5_strength)
        for name in ("target", "center"):
            assert getattr(got, name).samples.tobytes() == getattr(want, name).samples.tobytes()
        assert got.target_norms == want.target_norms
        assert got.remainder.terms == want.remainder.terms
        assert got.remainder.drift == want.remainder.drift
        t = np.linspace(0.8, 1.2, 7)
        for step in (1, 2):
            assert (got.inverse_map(t, step).tobytes()
                    == want.inverse_map(t, step).tobytes())
            assert (got.bilinear_map(t, t, step).tobytes()
                    == want.bilinear_map(t, t, step).tobytes())
        traces = run(got), run(want)
        assert traces[0].states == traces[1].states
        assert traces[0].diff_norms == traces[1].diff_norms
        assert traces[0].identity_residuals == traces[1].identity_residuals

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("drift", [0.0, 0.5])
    def test_one_factory_call_per_instance(self, kind, drift, monkeypatch):
        calls = []

        def spy(name, factory):
            def counted(*args, **kwargs):
                calls.append(name)
                return factory(*args, **kwargs)
            return counted

        for name in ("make_scalar_toy", "make_varying_toy", "make_two_component_toy"):
            monkeypatch.setattr(problem, name, spy(name, getattr(problem, name)))
        problem.build(kind, IterationParams(), 0.2, drift, 1.0)
        assert len(calls) == 1, calls

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="kind must be scalar or two_component"):
            problem.build("tensor", IterationParams())


# (builder, copies, drift) of the four instance families.
FAMILIES = {
    "scalar": (lambda p: make_scalar_toy(p, 0.2), 1, 0.0),
    "two_component": (lambda p: make_two_component_toy(p, 0.2), 2, 0.0),
    "drift": (lambda p: make_varying_toy(p, drift=0.5), 1, 0.5),
    "r5": (lambda p: with_self_interaction(make_scalar_toy(p, 0.2), 1.0), 1, 0.0),
}


def unskipped_toy_maps(copies, drift, lambda_ell):
    """_toy_maps as written before it skipped exact identities and held the
    common component: F always divides by copies and applies the step
    factor, and b adds the products of the copies one by one."""

    def step_factor(step):
        return 1.0 + drift * lambda_ell ** (-step)

    def inverse_map(tensor, step):
        return np.sqrt(tensor / copies) * step_factor(step)

    def bilinear_map(u, v, step):
        total = u * v
        for _ in range(1, copies):
            total += u * v
        return step_factor(step) ** (-2) * total

    return inverse_map, bilinear_map


class TestArrayMaps:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_wrappers_give_the_map_samples(self, family):
        build, copies, drift = FAMILIES[family]
        p = IterationParams()
        instance = build(p)
        inverse_map, bilinear_map = _toy_maps(copies, drift, p.lambda_ell)
        t_prime = instance.center + GridFunction(0.2 * random_trig_polynomial(
            np.random.default_rng(5), p.n_points).samples)
        for step in (1, 2, 3):
            a = instance.inverse(t_prime.samples, step)
            expected = inverse_map(t_prime.samples, step)
            assert a.samples.shape == expected.shape == (p.n_points,)
            assert a.samples.tobytes() == expected.tobytes()
            b = instance.bilinear_map(a.samples, a.samples, step)
            expected = bilinear_map(a.samples, a.samples, step)
            assert b.shape == expected.shape == (p.n_points,)
            assert b.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("drift", [0.0, 0.3])
    def test_maps_keep_the_unskipped_bits(self, copies, drift):
        # integer steps as in iteration.run, and the self-check's (count, 1)
        # step arrays over (count, n) batches; b also on plain arrays
        p = IterationParams()
        new = _toy_maps(copies, drift, p.lambda_ell)
        old = unskipped_toy_maps(copies, drift, p.lambda_ell)
        rng = np.random.default_rng(6)
        batch = 1.0 + 0.3 * rng.uniform(-1, 1, size=(4, p.n_points))
        u, v = rng.uniform(-1, 1, size=(2, 4, p.n_points))
        steps = (1 + np.arange(4) % 3)[:, np.newaxis]
        cases = [(batch[0], step) for step in (1, 2, 3)] + [(batch, steps)]
        for t, step in cases:
            a_new, a_old = new[0](t, step), old[0](t, step)
            assert a_new.shape == a_old.shape
            assert a_new.tobytes() == a_old.tobytes()
            plain = (u, v) if t.ndim == 2 else (u[0], v[0])
            for x, y in ((a_old, a_old), plain):
                assert (new[1](x, y, step).tobytes()
                        == old[1](x, y, step).tobytes())

    def test_maps_batch_over_leading_axes_and_steps(self):
        p = IterationParams()
        inverse_map, bilinear_map = _toy_maps(2, 0.5, p.lambda_ell)
        rng = np.random.default_rng(2)
        t = 1.0 + 0.2 * rng.uniform(-1, 1, size=(3, p.n_points))
        steps = np.array([1, 2, 3])[:, np.newaxis]
        a = inverse_map(t, steps)
        assert a.shape == (3, p.n_points)
        for i, step in enumerate((1, 2, 3)):
            np.testing.assert_allclose(a[i], inverse_map(t[i], step),
                                       rtol=1e-15, atol=0)
        np.testing.assert_allclose(bilinear_map(a, a, steps), t,
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_slice_sum_matches_component_sum(self, copies):
        # b = copies * u v; the reference stacks the copies' products on a
        # last axis and reduces it, on F's output and on plain arrays
        p = IterationParams()
        inverse_map, bilinear_map = _toy_maps(copies, 0.5, p.lambda_ell)
        rng = np.random.default_rng(4)
        steps = np.array([1, 2, 3])[:, np.newaxis]
        a = inverse_map(1.0 + 0.2 * rng.uniform(-1, 1, (3, p.n_points)), steps)
        u, v = rng.uniform(-1, 1, (2, 3, p.n_points))
        factor = (1.0 + 0.5 * p.lambda_ell ** (-steps)) ** (-2)
        for x, y in ((a, a), (u, v)):
            expected = factor * np.stack([x * y] * copies, axis=-1).sum(axis=-1)
            got = bilinear_map(x, y, steps)
            assert got.shape == expected.shape == (3, p.n_points)
            assert got.tobytes() == expected.tobytes()

    def test_target_norms_kept(self):
        p = IterationParams()
        instance = make_scalar_toy(p, 0.2)
        assert instance.target_norms.values == ck_norm(
            instance.target, p.norm_order(0)).values

    def test_positivity_guard_kept(self):
        instance = make_scalar_toy(IterationParams(), 0.2)
        dip = np.ones(2048)
        dip[100] = 0.0  # distance exactly 1 = 1/C_F: inside, but not positive
        with pytest.raises(DomainEscape, match="loses positivity"):
            instance.inverse(dip, 2)

    def test_non_finite_target_is_a_neighborhood_violation(self):
        with pytest.raises(NeighborhoodViolation, match="not finite"):
            make_scalar_toy(IterationParams(), 1e308)


class TestKeptChecks:
    """The grid and finiteness checks of the fields the step computes on
    samples: each raises the error and message it raised when every
    intermediate was a GridFunction."""

    @pytest.mark.parametrize("tensor, message", [
        (GridFunction.constant(1.1, 1024), "grids differ: n_points 2048/1024"),
    ])
    def test_inverse_refuses_tensor_off_the_grid(self, tensor, message):
        instance = make_scalar_toy(IterationParams(), 0.2)
        with pytest.raises(IncompatibleGrids, match=f"^{message}$"):
            instance.inverse(tensor.samples, 1)

    def test_inverse_refuses_non_finite_distance(self):
        # finite samples whose distance to the center overflows; the toy's
        # center 1 cannot make one, so this instance is centered at -1e308
        instance = replace(make_scalar_toy(IterationParams(), 0.2),
                           center=GridFunction.constant(-1e308, 64))
        tensor = np.full(64, 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^samples contain non-finite values$"):
                instance.inverse(tensor, 1)

    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_non_finite_term_refused_by_remainder(self, weight, position):
        # Under numpy's default errstate a term of infinite weight returns
        # inf (or NaN) samples without a floating-point error; the remainder
        # refuses them wherever the term sits among the stock terms.
        instance = make_scalar_toy(IterationParams(), 0.2)
        terms = list(instance.remainder.terms)
        terms.insert(position, RemainderTerm(R1, weight=weight))
        spec = replace(instance.remainder, terms=tuple(terms))
        a = FieldSpectrum(instance.inverse(instance.target.samples, 1))
        with pytest.raises(ValueError, match="^samples contain non-finite values$"):
            spec(a, 1)
        with pytest.raises(ValueError, match="^samples contain non-finite values$"):
            initial_step(replace(instance, remainder=spec))


class TestOneDomainCheck:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_instance_carries_the_checked_maps(self, family, monkeypatch):
        checked = []
        check = problem._check_right_inverse

        def spy(params, center, radius, inverse_map, bilinear_map, *args):
            checked.append((inverse_map, bilinear_map))
            check(params, center, radius, inverse_map, bilinear_map, *args)

        monkeypatch.setattr(problem, "_check_right_inverse", spy)
        instance = FAMILIES[family][0](IterationParams())
        assert len(checked) == 1
        assert instance.inverse_map is checked[0][0]
        assert instance.bilinear_map is checked[0][1]

    @given(c_f=st.floats(1 / 3, 8.0), copies=st.sampled_from([1, 2]),
           shift=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1),
           dip=st.one_of(st.none(), st.floats(-0.5, 0.5)), step=st.integers(1, 5))
    # A dip to 0 at distance exactly 1/C_F, and one to -0.5 inside: each
    # escapes on positivity alone.
    @example(c_f=1.0, copies=1, shift=0.5, seed=3, dip=0.0, step=2)
    @example(c_f=0.5, copies=2, shift=0.0, seed=0, dip=-0.5, step=1)
    @settings(**HYP)
    def test_inverse_escapes_exactly_outside_the_domain(self, c_f, copies,
                                                        shift, seed, dip, step):
        # The tensor is the center plus a low-mode bump of sup shift / C_F,
        # with one sample optionally set to dip.
        build = make_scalar_toy if copies == 1 else make_two_component_toy
        instance = build(IterationParams(lam=8, c_f=c_f, n_points=256), 0.2)
        bump = random_trig_polynomial(np.random.default_rng(seed), 256)
        tensor = instance.center.samples + (shift / c_f) * bump.samples
        if dip is not None:
            tensor[17] = dip
        distance = np.abs(tensor - 1.0).max()
        if distance > 1.0 / c_f or tensor.min() <= 0.0:
            with pytest.raises(DomainEscape) as err:
                instance.inverse(tensor, step)
            assert (err.value.step, err.value.measured, err.value.radius) == (
                step, distance, 1.0 / c_f)
        else:
            got = instance.inverse(tensor, step).samples
            want = instance.inverse_map(tensor, step)
            assert got.shape == want.shape == (256,)
            assert got.tobytes() == want.tobytes()


class TestRightInverseSelfCheck:
    # At n = 4096 a draw holds 65536 / 4096 = 16 samples: 20 split 16 + 4.
    # A map call holds 8192 / 4096 = 2 of them.
    def setup_method(self):
        self.p = IterationParams(n_points=4096)
        self.center = GridFunction.constant(1.0, 4096)
        self.inverse_map, self.bilinear_map = _toy_maps(1, 0.0,
                                                        self.p.lambda_ell)

    def check(self, inverse_map=None, bilinear_map=None):
        _check_right_inverse(self.p, self.center, 1.0 / 3.0,
                             inverse_map or self.inverse_map,
                             bilinear_map or self.bilinear_map)

    def inverse_off_on(self, samples):
        """The inverse map, off by 1e-9 on the given samples, which it finds
        by counting the rows of the calls so far."""
        done = []

        def f(t, step):
            out = self.inverse_map(t, step)
            index = sum(done) + np.arange(t.shape[0])
            done.append(t.shape[0])
            off = np.isin(index, samples)[:, np.newaxis]
            return np.where(off, out * (1 + 1e-9), out)

        return f

    def test_toy_maps_pass(self):
        self.check()

    def test_batches_split_by_grid_points(self):
        seen = []

        def spy(t, step):
            seen.append((t.shape, step.ravel().tolist()))
            return self.inverse_map(t, step)

        self.check(inverse_map=spy)
        assert seen == [((2, 4096), [1 + i % 3 for i in range(j, j + 2)])
                        for j in range(0, 20, 2)]

    def test_map_calls_stay_within_2_13_points_at_2048(self):
        seen = []

        def inverse_spy(t, step):
            seen.append(("inverse", t.shape))
            return self.inverse_map(t, step)

        def bilinear_spy(u, v, step):
            seen.append(("bilinear", u.shape))
            return self.bilinear_map(u, v, step)

        _check_right_inverse(IterationParams(n_points=2048),
                             GridFunction.constant(1.0, 2048), 1.0 / 3.0,
                             inverse_spy, bilinear_spy)
        assert max(rows * points for _, (rows, points) in seen) <= 2 ** 13
        assert sum(rows for name, (rows, _) in seen if name == "inverse") == 20
        assert [name for name, _ in seen] == ["inverse", "bilinear"] * 5

    def test_one_sample_per_batch_at_65536(self):
        seen = []

        def spy(t, step):
            seen.append(t.shape)
            return self.inverse_map(t, step)

        _check_right_inverse(IterationParams(n_points=65536),
                             GridFunction.constant(1.0, 65536), 1.0 / 3.0, spy,
                             self.bilinear_map)
        assert seen == [(1, 65536)] * 20

    def test_samples_admissible_and_unit_bumps(self):
        seen = []

        def spy(t, step):
            seen.append(t - 1.0)
            return self.inverse_map(t, step)

        self.check(inverse_map=spy)
        dev = np.abs(np.concatenate(seen)).max(axis=1)  # rho per sample
        radius = 1.0 / 3.0
        assert dev.shape == (20,)
        assert np.all(dev >= 0.1 * radius) and np.all(dev < 0.99 * radius)

    @pytest.mark.parametrize("n_points", [16, 2048, 4096])
    def test_samples_are_scaled_random_trig_polynomials(self, n_points):
        # The reference draws each bump alone with random_trig_polynomial,
        # then the batch's radii, exactly as the batched rows consume the
        # generator; n_points = 16 puts mode 8 on the Nyquist bin.
        p = IterationParams(n_points=n_points)
        center = GridFunction.constant(1.0, n_points)
        seen = []

        def spy(t, step):
            seen.extend(t)
            return self.inverse_map(t, step)

        _check_right_inverse(p, center, 1.0 / 3.0, spy, self.bilinear_map)
        rng = np.random.default_rng([p.seed, 0x5eed])
        per_batch = max(1, BATCH_POINTS // n_points)
        expected = []
        for start in range(0, 20, per_batch):
            count = min(per_batch, 20 - start)
            bumps = [random_trig_polynomial(rng, n_points) for _ in range(count)]
            rho = (1.0 / 3.0) * rng.uniform(0.1, 0.99, size=(count, 1))
            expected += [center.samples + rho[i] * bump.samples
                         for i, bump in enumerate(bumps)]
        assert len(seen) == len(expected) == 20
        for got, want in zip(seen, expected):
            assert got.shape == want.shape == (n_points,)
            assert got.tobytes() == want.tobytes()

    def test_scaled_bilinear_fails_on_first_sample(self):
        def b(u, v, step):
            return self.bilinear_map(u, v, step) * (1 + 1e-9)

        with pytest.raises(AssertionError, match="on sample 0$"):
            self.check(bilinear_map=b)

    def test_inverse_off_on_step_3_names_sample_2(self):
        def f(t, step):
            out = self.inverse_map(t, step)
            return np.where(step == 3, out * (1 + 1e-9), out)

        with pytest.raises(AssertionError, match="on sample 2$"):
            self.check(inverse_map=f)

    def test_inverse_off_in_last_batch_names_sample_16(self):
        with pytest.raises(AssertionError, match="on sample 16$"):
            self.check(inverse_map=self.inverse_off_on(range(16, 20)))

    def test_inverse_off_on_sample_19_names_it(self):
        with pytest.raises(AssertionError, match="on sample 19$"):
            self.check(inverse_map=self.inverse_off_on([19]))

    def test_nan_residual_fails(self):
        def b(u, v, step):
            return np.full(u.shape, np.nan)

        with pytest.raises(AssertionError,
                           match=f"residual nan exceeds {RIGHT_INVERSE_TOL} "
                                 f"on sample 0$"):
            self.check(bilinear_map=b)


class TestBuildTransformCount:
    def test_default_build_transform_count(self, count_fft):
        # mollify: one rfft + one irfft.  Target norms to order 7: one rfft
        # + one irfft of 7 rows, shared with the target constant and step
        # 0.  The self-check evaluates its 20 bumps by angle addition: no
        # transform.
        log = count_fft()
        make_scalar_toy(IterationParams(), 0.2)
        assert log.calls == {"rfft": 2, "irfft": 2}
        assert log.rows == {"rfft": 2, "irfft": 8}
