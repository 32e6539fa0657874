"""Driver for the corrector iteration a_(i+1) = F(T - r_i(a_i)).

One step map, from the assembled start a_0 = 0, r_0 = 0, solves the
bilinear equation exactly for the previous remainder and re-evaluates the
remainder at the new iterate, so the new error satisfies the substitution
identity E_(i+1) = r_i(a_i) - r_(i+1)(a_(i+1)) up to rounding.  The step
computes E definitionally, norms it, records its residual against the
identity and drops it: a state keeps only a and r(a), which the next step
reads, beside its row, and a run keeps the rows and no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .gridfield import FieldSpectrum, GridFunction, NormVector, ck_norm, finite_sup
from .problem import DomainEscape, ProblemInstance

IDENTITY_TOL = 1e-9
FLOOR_STOP = 1e-14   # stop stepping once ||E||_0 < FLOOR_STOP * ||T||_0
FLOOR_FIT = 1e-12    # steps below FLOOR_FIT * ||T||_0 are left out of fits and plots


class DerivativeBudgetExhausted(RuntimeError):
    """The derivative-loss budget k0 cannot cover another step."""


@dataclass(frozen=True)
class StepNorms:
    """The row of step i, all that the step measured, taken when it
    completed, up to the step's norm order: ||E_i||, on a full run ||a_i||,
    ||r_i(a_i)|| and ||a_i - a_(i-1)|| (else None), and the identity
    residual |E_i - (r_(i-1) - r_i)|_sup.  Step 0 has no difference and no
    residual; its ||E_0||_0 is ||T||_0."""

    step: int
    norms_error: NormVector
    norms_a: Optional[NormVector] = None
    norms_r: Optional[NormVector] = None
    norms_diff: Optional[NormVector] = None
    identity_residual: Optional[float] = None


@dataclass(frozen=True, kw_only=True)
class IterationState(StepNorms):
    """Step i's row and the fields the next step reads: the iterate and its
    remainder.  start_state and step return these; run keeps their rows."""

    a: GridFunction
    r_of_a: GridFunction

    def row(self) -> StepNorms:
        return StepNorms(self.step, self.norms_error, self.norms_a, self.norms_r,
                         self.norms_diff, self.identity_residual)


@dataclass(frozen=True)
class IterationTrace:
    """Record of a run: the rows of states 0..n, taken as each step
    completed.  It holds no field."""

    instance: ProblemInstance
    states: tuple[StepNorms, ...]
    flag: str
    escape_step: Optional[int]

    @property
    def n_steps(self) -> int:
        return self.states[-1].step

    def log_errors(self, k: int, min_step: int = 1) -> list[tuple[int, float]]:
        """(i, ln ||E_i||_k) for the steps i >= max(min_step, 1) whose error
        sits above the noise floor FLOOR_FIT * ||E_0||_0 (||T||_0 on a run)
        and whose order-k norm is positive: the points that decay fits and
        plots read."""
        floor = FLOOR_FIT * self.states[0].norms_error[0]
        return [(s.step, math.log(s.norms_error[k])) for s in self.states[1:]
                if s.step >= min_step and s.norms_error[0] >= floor
                and k < len(s.norms_error) and s.norms_error[k] > 0.0]


def start_state(instance: ProblemInstance, full: bool) -> IterationState:
    """Step 0: a = r(a) = 0, one zero field, so the error is the target.

    Assembled, not computed: T - b(0, 0) - r(0) is exactly T, and its norms
    are the ones the instance build took, so this makes no transform.  full
    sets the run's mode once: the steps from here take ||a||, ||r(a)|| and
    ||a - a_prev|| only if this state's norms_a is set."""
    p = instance.params
    zero = GridFunction.constant(0.0, p.n_points)
    zero_norms = NormVector((0.0,) * (p.norm_order(0) + 1))
    return IterationState(
        step=0,
        a=zero,
        r_of_a=zero,
        norms_a=zero_norms if full else None,
        norms_error=instance.target_norms,
        norms_r=zero_norms if full else None,
    )


def initial_step(instance: ProblemInstance, *, full: bool = True) -> IterationState:
    """Step 1, a = F(T): the step from the assembled start."""
    return step(start_state(instance, full), instance)


def step(state: IterationState, instance: ProblemInstance) -> IterationState:
    """The corrector step from state i to i+1, from start_state too (T - r_0
    is T bit for bit), with ||E||, the identity residual
    |E - (r_i - r_(i+1))|_sup and, on a full run (state.norms_a set),
    ||a||, ||r(a)|| and ||a - a_prev||.

    Raises DomainEscape, from instance.inverse, when T - r_i(a_i) leaves the
    inverse's neighborhood (the signal that lam*ell is too small) and
    DerivativeBudgetExhausted when no norm order would remain at i+1.
    """
    p = instance.params
    i = state.step + 1
    full = state.norms_a is not None
    if p.k0 - i < 1:
        raise DerivativeBudgetExhausted(
            f"stepping to {i} leaves no controlled orders "
            f"(k0 = {p.k0}); raise k0 per the budget k1 + steps * order")
    a = instance.inverse(instance.target.samples - state.r_of_a.samples, i)
    order = p.norm_order(i)
    spectral_a = FieldSpectrum(a.samples)  # one transform of a: remainder and norms
    r_of_a = instance.remainder(spectral_a, i)
    norms_a = spectral_a.ck_norm(order) if full else None
    # a's spectrum and derivatives are not needed past this point; on fine
    # grids keeping them through the other norms would raise peak memory.
    del spectral_a
    norms_r = norms_diff = None
    if full:
        norms_r = ck_norm(r_of_a, order)
        # a_0 = 0, so ||a_1 - a_0|| is ||a_1||.
        norms_diff = norms_a if state.step == 0 else ck_norm(a - state.a, order)
    # E = (T - b(a, a)) - r(a), formed last so no other norm runs beside it,
    # subtracted on samples and wrapped once: its check covers both
    # differences.
    e = instance.target.samples - instance.bilinear_map(a.samples, a.samples, i)
    e -= r_of_a.samples
    norms_error = ck_norm(GridFunction(e), order)
    return IterationState(
        step=i, a=a, r_of_a=r_of_a, norms_a=norms_a, norms_error=norms_error,
        norms_r=norms_r, norms_diff=norms_diff,
        identity_residual=finite_sup(e - (state.r_of_a.samples - r_of_a.samples)))


def run(instance: ProblemInstance, *, full: bool = True) -> IterationTrace:
    """Run the iteration, every step by step from start_state, and record
    each step's row as it completes: ||E_i||, the identity residual and, if
    full, ||a_i||, ||r_i(a_i)|| and ||a_i - a_(i-1)||.  A state is alive only
    until the next is made, so memory does not grow with the steps.  Runs
    whose only use is a decay fit read ||E_i|| alone and pass full=False.

    Stops early with flag 'diverged' on DomainEscape (a partial trace, not an
    error: sub-threshold behavior is something we measure) or 'floor' once
    the error reaches the floating-point floor.
    """
    p = instance.params
    n = p.n_steps
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n}")
    if p.k1 > p.k0 - n:
        raise DerivativeBudgetExhausted(
            f"budget too small: k1={p.k1} > k0 - n_steps = {p.k0 - n}; "
            f"need k0 >= {p.k1 + n} for order-1 remainders")
    target_sup = instance.target_norms[0]

    state = start_state(instance, full)
    rows = [state.row()]
    flag, escape_step = "completed", None
    for i in range(1, n + 1):
        try:
            state = step(state, instance)
        except DomainEscape as esc:
            flag, escape_step = "diverged", esc.step
            break
        rows.append(state.row())
        if state.norms_error[0] < FLOOR_STOP * target_sup:
            if i < n:
                flag = "floor"
            break

    return IterationTrace(
        instance=instance,
        states=tuple(rows),
        flag=flag,
        escape_step=escape_step,
    )
