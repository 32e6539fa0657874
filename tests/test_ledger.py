import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tamelab.cli import main
from tamelab.iteration import DerivativeBudgetExhausted, run
from tamelab.ledger import (
    CONSTANT_CAP,
    CONSTANT_FLOOR,
    MAX_ORDER,
    ConstantSet,
    _class_coefficients,
    calibrate,
    check_hypotheses,
    difference_constant,
    margins,
    pair_count,
    propagate,
    safe_leibniz,
    stock_constants,
    threshold,
)
from tamelab.gridfield import NormVector
from tamelab.problem import (
    R1,
    R2,
    R3,
    R4,
    R5,
    STOCK_CLASSES,
    IterationParams,
    make_scalar_toy,
    r6,
)

HYP = dict(max_examples=30, deadline=None, derandomize=True)


def unit_constants(k_top=2, **overrides):
    base = dict(c=1.0, c_err=1.0, c_r=1.0, c_f=1.0,
                c_k=(1.0,) * (k_top + 1), step=1)
    base.update(overrides)
    return ConstantSet(**base)


def params_for(lam=10, ell=10.0, **overrides):
    base = dict(lam=lam, ell=ell, k0=5, k1=1, n_points=1024, n_steps=3)
    base.update(overrides)
    return IterationParams(**base)


class TestDifferenceConstant:
    def test_hand_computed_value(self):
        # hand evaluation of c_f * c_err * (2 + 2 c / (lam ell)) at all-ones,
        # lam*ell = 100: 1 * 1 * (2 + 0.02) = 2.02
        cs = unit_constants()
        assert difference_constant(cs, params_for(10, 10.0)) == pytest.approx(2.02)

    def test_large_lambda_ell_limit(self):
        cs = unit_constants(c_f=3.0, c_err=5.0)
        value = difference_constant(cs, params_for(1024, 10 ** 9, n_points=8192))
        assert value == pytest.approx(2.0 * 3.0 * 5.0, rel=1e-8)

    def test_linear_in_c_err(self):
        p = params_for()
        base = difference_constant(unit_constants(), p)
        scaled = difference_constant(unit_constants(c_err=7.0), p)
        assert scaled == pytest.approx(7.0 * base)


class TestPropagate:
    def test_monotone_over_five_steps(self):
        cs = unit_constants(k_top=5)
        p = params_for()
        for _ in range(5):
            nxt = propagate(cs, p)
            assert nxt.c >= cs.c
            assert nxt.c_err >= cs.c_err
            assert nxt.c_r >= cs.c_r
            assert nxt.step == cs.step + 1
            cs = nxt

    def test_deterministic(self):
        cs = unit_constants(k_top=4)
        p = params_for()
        a = propagate(cs, p)
        b = propagate(cs, p)
        assert a == b

    def test_saturates_instead_of_overflowing(self):
        cs = unit_constants(k_top=7)
        p = params_for(16, 12.0 / 16, k0=7)
        for _ in range(12):
            cs = propagate(cs, p)
        assert math.isfinite(cs.c_err) and cs.c_err <= CONSTANT_CAP
        assert math.isfinite(cs.c_r) and cs.c_r <= CONSTANT_CAP

    def test_requires_lambda_ell_above_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            propagate(unit_constants(), params_for(2, 0.5, k0=2, n_points=64))

    def test_refuses_a_kind_without_formula(self):
        from tamelab.problem import BoundClass
        with pytest.raises(ValueError, match="unknown class kind 'R9'"):
            propagate(unit_constants(), params_for(), (BoundClass("R9", (1, 1), (0,)),))

    def test_r5_injects_lambda_factor(self):
        from tamelab.problem import R1, R5
        p = params_for(lam=100, ell=1.0, n_points=1024)
        clean = propagate(unit_constants(), p, (R1,))
        lossy = propagate(unit_constants(), p, (R1, R5))
        assert lossy.c_err >= clean.c_err + p.lam * 0.9

    def test_r6_propagates_like_r3(self):
        # the higher-derivative class has the same scale-free contribution
        # shape as the gradient-pair class
        from tamelab.problem import R3, r6
        p = params_for()
        via_r3 = propagate(unit_constants(), p, (R3,))
        via_r6 = propagate(unit_constants(), p, (r6(2, 2),))
        assert via_r6.c_err == via_r3.c_err

    @given(s=st.floats(min_value=0.1, max_value=100.0))
    @settings(**HYP)
    def test_error_scales_linearly_in_c_err(self, s):
        # the whole error-propagation line is linear in c_err (each class
        # contribution is c_diff times constants independent of c_err)
        p = params_for()
        base = propagate(unit_constants(), p)
        scaled = propagate(unit_constants(c_err=s), p)
        assert scaled.c_err == pytest.approx(s * base.c_err, rel=1e-12)

    @given(c_f=st.floats(min_value=1.0, max_value=5.0),
           c=st.floats(min_value=0.5, max_value=5.0),
           c_r=st.floats(min_value=0.5, max_value=5.0))
    @settings(**HYP)
    def test_monotone_growth_property(self, c_f, c, c_r):
        cs = unit_constants(c=c, c_r=c_r, c_f=c_f)
        p = params_for()
        nxt = propagate(cs, p)
        assert nxt.c >= cs.c and nxt.c_r >= 0 and nxt.c_err > 0


def reference_error(kind, k, c_k, c, c_diff, mu, lam):
    """Coefficient of lam^k/(lam ell)^(i+1) in the next error, one formula
    per kind, as written before error and remainder shared a function."""
    n_k = pair_count(k)
    if kind == "R1":
        return c_k * (k + 1) * c_diff
    if kind == "R2":
        return 2.0 * c_k * c * c_diff * n_k * mu
    if kind in ("R3", "R6"):
        return 2.0 * c_k * c * c_diff * n_k
    if kind == "R4":
        return c_k * c * c_diff * n_k * (1.0 + mu)
    if kind == "R5":
        return c_k * c * c_diff * n_k * lam
    raise ValueError(kind)


def reference_remainder(kind, k, c_k, c, mu, lam):
    """Coefficient of lam^k/(lam ell) in ||r(a)||_k, one formula per kind."""
    n_k = pair_count(k)
    if kind == "R1":
        return c_k * (k + 1) * c
    if kind in ("R2", "R3", "R4", "R6"):
        return c_k * n_k * c * c * mu
    if kind == "R5":
        return c_k * n_k * c * c * lam
    raise ValueError(kind)


def reference_step(cs, p, classes):
    """(c_err, c_r) after one step: each formula summed over the classes at
    every order, then maximized over the orders, then clamped."""
    kinds = [b.kind for b in classes]
    mu = 1.0 / p.lambda_ell
    c_diff = difference_constant(cs, p)
    c_next = min(cs.c_f * (cs.c + cs.c_r + 1.0), CONSTANT_CAP)
    orders = range(len(cs.c_k))
    c_err = max(sum(reference_error(kind, k, cs.c_k[k], cs.c, c_diff, mu, p.lam)
                    for kind in kinds) for k in orders)
    c_r = max(sum(reference_remainder(kind, k, cs.c_k[k], c_next, mu, p.lam)
                  for kind in kinds) for k in orders)
    clamp = lambda v: min(max(v, CONSTANT_FLOOR), CONSTANT_CAP)
    return clamp(c_err), clamp(c_r)


class TestClassCoefficients:
    # Every class alone and the stock mix, at lambda*ell = 1.5, 4 and 128,
    # with the default order budget and the largest one.  Frequencies and
    # constants that are not powers of two make a reordered product round
    # differently.
    @pytest.mark.parametrize("classes", [(R1,), (R2,), (R3,), (R4,), (R5,),
                                         (r6(2, 1),), STOCK_CLASSES],
                             ids=["R1", "R2", "R3", "R4", "R5", "R6", "stock"])
    @pytest.mark.parametrize("lam, ell", [(3, 0.5), (5, 0.8), (12, 128 / 12)])
    @pytest.mark.parametrize("k0", [7, MAX_ORDER])
    def test_propagate_keeps_the_per_kind_formulas_bits(self, classes, lam,
                                                         ell, k0):
        p = IterationParams(lam=lam, ell=ell, k0=k0, c_f=1.7)
        cs = replace(stock_constants(p), c=1.1, c_err=0.7, c_r=1.3)
        mu = 1.0 / p.lambda_ell
        for _ in range(3):
            nxt = propagate(cs, p, classes)
            assert ([v.hex() for v in (nxt.c_err, nxt.c_r)]
                    == [v.hex() for v in reference_step(cs, p, classes)])
            # The maximum over orders reads one order; compare them all.
            c_diff = difference_constant(cs, p)
            c_next = min(cs.c_f * (cs.c + cs.c_r + 1.0), CONSTANT_CAP)
            for kind in {b.kind for b in classes}:
                for k, c_k in enumerate(cs.c_k):
                    got = _class_coefficients(kind, k, c_k, cs.c, c_diff, c_next,
                                              mu, p.lam)
                    want = (reference_error(kind, k, c_k, cs.c, c_diff, mu, p.lam),
                            reference_remainder(kind, k, c_k, c_next, mu, p.lam))
                    assert [v.hex() for v in got] == [v.hex() for v in want]
            cs = nxt


class TestThreshold:
    def test_closed_form(self):
        assert threshold(unit_constants()) == 3.0
        assert threshold(unit_constants(c_f=2.0, c_r=5.0)) == 30.0

    @given(c_f=st.floats(min_value=0.1, max_value=50.0),
           c_r=st.floats(min_value=0.1, max_value=50.0))
    @settings(**HYP)
    def test_exactly_three_cf_cr(self, c_f, c_r):
        cs = unit_constants(c_f=c_f, c_r=c_r)
        assert threshold(cs) == 3.0 * c_f * c_r

    def test_empirical_escape_below_and_not_above(self):
        # below the threshold the run escapes within 3 steps; at 4x it
        # completes 6 steps cleanly
        thr = threshold(stock_constants(params_for()))
        low = IterationParams(lam=16, ell=(thr / 2) / 16, k1=1, n_steps=3)
        trace = run(make_scalar_toy(low, 0.2))
        assert trace.flag == "diverged" and trace.escape_step <= 3
        assert low.lambda_ell <= thr
        high = IterationParams(lam=16, ell=(4 * thr) / 16, k1=1, n_steps=6)
        trace = run(make_scalar_toy(high, 0.2))
        assert trace.flag == "completed" and trace.n_steps == 6
        assert not high.lambda_ell <= thr

    def test_escape_monotone_degradation(self):
        # escapes happen only below the threshold, and the escape step is
        # nonincreasing as lam*ell shrinks (the threshold over-estimates)
        thr = threshold(stock_constants(params_for()))
        escape_steps = []
        for ll in (1.2, 1.5, 2.0, 2.5, 3.5, 6.0, 12.0):
            p = IterationParams(lam=16, ell=ll / 16, k1=1, n_steps=6)
            trace = run(make_scalar_toy(p, 0.2))
            if trace.flag == "diverged":
                assert ll < thr
                escape_steps.append(trace.escape_step)
            else:
                assert trace.flag == "completed"
        assert escape_steps, "no sub-threshold escape observed"
        assert escape_steps == sorted(escape_steps)


class TestPredictBudget:
    def test_budget_empirically_tight(self):
        # stock remainder consumes one derivative per step: k0 from the
        # budget runs; one less is refused up front
        k1, n_steps = 1, 3
        k0 = k1 + n_steps * 1
        good = IterationParams(lam=16, ell=2.0, k0=k0, k1=k1, n_points=1024,
                               n_steps=n_steps)
        trace = run(make_scalar_toy(good, 0.2))
        assert trace.flag == "completed"
        bad = IterationParams(lam=16, ell=2.0, k0=k0 - 1, k1=k1, n_points=1024,
                              n_steps=n_steps)
        with pytest.raises(DerivativeBudgetExhausted):
            run(make_scalar_toy(bad, 0.2))


class TestCalibrate:
    def test_headroom_keeps_first_margins_below_one(self):
        params = IterationParams()
        trace = run(make_scalar_toy(params, 0.2))
        first = margins(trace)[0][0]
        assert first.worst <= 1.0
        assert first.worst == pytest.approx(1 / 1.01, rel=1e-6)

    def test_zero_norms_still_valid(self):
        z = NormVector((0.0,))
        cs = calibrate(z, z, z, z, params_for())
        assert cs.c > 0 and cs.c_err > 0 and cs.c_r > 0


class TestCheckHypotheses:
    def test_error_above_its_propagated_bound_fails(self):
        # Raise ||E_2||_0 to twice its bound C_err / (lam ell)^2 under the
        # constants propagated to step 2 (and the higher orders with it, as
        # the norms are nondecreasing in k): the check must turn False.
        params = IterationParams()
        trace = run(make_scalar_toy(params, 0.2))
        assert check_hypotheses(trace)
        _, constants = margins(trace)
        second = trace.states[2]
        bound = constants[1].c_err / params.lambda_ell ** 2
        raised = replace(second, norms_error=NormVector(
            tuple(max(v, 2.0 * bound) for v in second.norms_error.values)))
        broken = replace(trace, states=trace.states[:2] + (raised,)
                         + trace.states[3:])
        assert margins(broken)[0][1].error[0] == pytest.approx(2.0)
        assert not check_hypotheses(broken)


class TestTableAndValidation:
    def test_propagated_table_rows(self, tmp_path, capsys):
        # the table through its one entry point, at unit constants and
        # params_for()'s lambda*ell = 100 (the key table caps ell below 2*pi)
        assert main(["ledger", "--csv", "--output_dir", str(tmp_path),
                     "--set", "lambda=25", "--set", "ell=4", "--set", "k0=5",
                     "--set", "n_steps=4"]) == 0
        header, *lines = (tmp_path / "ledger.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), map(float, line.split(","))))
                for line in lines]
        assert [r["step"] for r in rows] == [1, 2, 3, 4]
        assert rows[0]["C_diff"] == pytest.approx(2.02)
        assert rows[0]["threshold"] == 3.0
        assert rows[2]["C_err"] >= rows[1]["C_err"] >= rows[0]["C_err"]

    def test_constant_set_validation(self):
        with pytest.raises(ValueError, match="c_err"):
            ConstantSet(c=1.0, c_err=0.0, c_r=1.0, c_f=1.0, c_k=(1.0,))
        with pytest.raises(ValueError, match="c_k"):
            ConstantSet(c=1.0, c_err=1.0, c_r=1.0, c_f=1.0, c_k=())

    def test_helpers(self):
        assert pair_count(0) == 1 and pair_count(2) == 6
        assert safe_leibniz(0) == 1.0
        assert safe_leibniz(2) == 4 * 2
        assert safe_leibniz(3) == 8 * 3

    def test_max_order_is_the_last_finite_constant(self):
        assert math.isfinite(safe_leibniz(MAX_ORDER))
        with pytest.raises(OverflowError):
            safe_leibniz(MAX_ORDER + 1)
        p = IterationParams(k0=MAX_ORDER)
        assert len(stock_constants(p).c_k) == MAX_ORDER + 1
