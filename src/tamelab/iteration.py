"""Driver for the corrector iteration a_(i+1) = F(T - r_i(a_i)).

Each step solves the bilinear equation exactly for the previous remainder and
re-evaluates the remainder at the new iterate, so the new error satisfies the
substitution identity E_(i+1) = r_i(a_i) - r_(i+1)(a_(i+1)) up to rounding.
The driver computes E definitionally and uses the identity purely as a
cross-check, recording the residual between the two at every step.  A run
takes the norms it records as each step completes and keeps no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .gridfield import FieldSpectrum, GridFunction, NormVector, ck_norm, finite_sup
from .problem import DomainEscape, ProblemInstance

__all__ = [
    "DomainEscape", "DerivativeBudgetExhausted", "StepNorms",
    "IterationState", "IterationTrace", "initial_step", "step", "run",
    "identity_residual",
]

IDENTITY_TOL = 1e-9
FLOOR_STOP = 1e-14   # stop stepping once ||E||_0 < FLOOR_STOP * ||T||_0
FLOOR_FIT = 1e-12    # steps below FLOOR_FIT * ||T||_0 are left out of fits and plots


class DerivativeBudgetExhausted(RuntimeError):
    """The derivative-loss budget k0 cannot cover another step."""


@dataclass(frozen=True)
class StepNorms:
    """The norm row of step i, taken when the step completed, up to the
    step's norm order: ||E_i||, and on a full run ||a_i||, ||r_i(a_i)|| and
    ||a_i - a_(i-1)||, else None.  Step 0 has no difference."""

    step: int
    norms_error: NormVector
    norms_a: Optional[NormVector] = None
    norms_r: Optional[NormVector] = None
    norms_diff: Optional[NormVector] = None


@dataclass(frozen=True, kw_only=True)
class IterationState(StepNorms):
    """Step i with its fields: the iterate, its remainder and the error
    E = T - b(a, a) - r(a), and the norm row taken from them when the step
    completed.  initial_step and step return these; run holds the current
    and the previous one only and keeps their rows."""

    a: GridFunction
    r_of_a: GridFunction
    error: GridFunction

    def row(self) -> StepNorms:
        return StepNorms(self.step, self.norms_error, self.norms_a, self.norms_r,
                         self.norms_diff)


@dataclass(frozen=True)
class IterationTrace:
    """Record of a run: the norm rows of states 0..n, taken as each step
    completed, and the identity residual of each transition.  It holds no
    field."""

    instance: ProblemInstance
    states: tuple[StepNorms, ...]
    identity_residuals: tuple[float, ...]
    flag: str
    escape_step: Optional[int]
    target_sup: float

    @property
    def n_steps(self) -> int:
        return self.states[-1].step

    @property
    def diff_norms(self) -> tuple[Optional[NormVector], ...]:
        """||a_(i+1) - a_i|| per transition at the norm order of i+1."""
        return tuple(s.norms_diff for s in self.states[1:])

    def log_errors(self, k: int, min_step: int = 1) -> list[tuple[int, float]]:
        """(i, ln ||E_i||_k) for the steps i >= max(min_step, 1) whose error
        sits above the noise floor FLOOR_FIT * ||T||_0 and whose order-k
        norm is positive: the points that decay fits and plots read."""
        floor = FLOOR_FIT * self.target_sup
        return [(s.step, math.log(s.norms_error[k])) for s in self.states[1:]
                if s.step >= min_step and s.norms_error[0] >= floor
                and k < len(s.norms_error) and s.norms_error[k] > 0.0]


def _state(instance: ProblemInstance, step_index: int, a: GridFunction,
           full: bool, prev_a: Optional[GridFunction]) -> IterationState:
    """The state at a, with ||E|| and, if full, the other norms; prev_a is
    the previous iterate, None for a_0 = 0."""
    order = instance.params.norm_order(step_index)
    spectral_a = FieldSpectrum(a)  # one transform of a: remainder and norms
    r_of_a = instance.remainder(spectral_a, step_index)
    norms_a = spectral_a.ck_norm(order) if full else None
    # a's spectrum and derivatives are not needed past this point; on fine
    # grids keeping them through the other norms would raise peak memory.
    del spectral_a
    # E = (T - b(a, a)) - r(a), subtracted on samples and wrapped once: its
    # check covers both differences.
    e = instance.target.samples - instance.bilinear_map(a.samples, a.samples,
                                                        step_index)
    e -= r_of_a.samples
    error = GridFunction(e)
    norms_r = norms_diff = None
    if full:
        norms_r = ck_norm(r_of_a, order)
        # a_0 = 0, so ||a_1 - a_0|| is ||a_1||.
        norms_diff = norms_a if prev_a is None else ck_norm(a - prev_a, order)
    return IterationState(
        step=step_index,
        a=a,
        r_of_a=r_of_a,
        error=error,
        norms_a=norms_a,
        norms_error=ck_norm(error, order),
        norms_r=norms_r,
        norms_diff=norms_diff,
    )


def start_state(instance: ProblemInstance, full: bool) -> IterationState:
    """Step 0: a = 0, r(a) = 0, so the error is the target itself.

    Assembled, not computed: T - b(0, 0) - r(0) is exactly T, and its norms
    are the ones the instance build took, so this makes no transform."""
    p = instance.params
    zero_norms = NormVector((0.0,) * (p.norm_order(0) + 1))
    return IterationState(
        step=0,
        a=GridFunction.constant(0.0, p.n_points),
        r_of_a=GridFunction.constant(0.0, p.n_points),
        error=instance.target,
        norms_a=zero_norms if full else None,
        norms_error=instance.target_norms,
        norms_r=zero_norms if full else None,
    )


def initial_step(instance: ProblemInstance, *, full: bool = True) -> IterationState:
    """Step 1: a = F(T).  The bilinear part reproduces T exactly, so the
    error is minus the remainder at the first iterate and their norms agree."""
    a1 = instance.inverse(instance.target.samples, 1)
    return _state(instance, 1, a1, full, None)


def step(state: IterationState, instance: ProblemInstance, *,
         full: bool = True) -> IterationState:
    """One corrector step from state i to i+1.

    Raises DomainEscape, from instance.inverse, when T - r_i(a_i) leaves the
    inverse's neighborhood (the signal that lam*ell is too small) and
    DerivativeBudgetExhausted when no norm order would remain at i+1.
    """
    p = instance.params
    next_index = state.step + 1
    if p.k0 - next_index < 1:
        raise DerivativeBudgetExhausted(
            f"stepping to {next_index} leaves no controlled orders "
            f"(k0 = {p.k0}); raise k0 per the budget k1 + steps * order")
    a_next = instance.inverse(instance.target.samples - state.r_of_a.samples,
                              next_index)
    return _state(instance, next_index, a_next, full, state.a)


def identity_residual(prev: IterationState, new: IterationState) -> float:
    """Sup distance between the definitional error and the substitution
    identity r_i(a_i) - r_(i+1)(a_(i+1)): exact algebra, so ~rounding."""
    return finite_sup(new.error.samples - (prev.r_of_a.samples - new.r_of_a.samples))


def run(instance: ProblemInstance, *, full: bool = True) -> IterationTrace:
    """Run the iteration and record, as each step completes, ||E_i||, the
    identity residual and, if full, ||a_i||, ||r_i(a_i)|| and
    ||a_i - a_(i-1)||.  Then the step's fields go: only the current and the
    previous state are alive at a time, so memory does not grow with the
    steps.  Runs whose only use is a decay fit read ||E_i|| alone and pass
    full=False.

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

    prev = start_state(instance, full)
    rows = [prev.row()]
    residuals: list[float] = []
    flag, escape_step = "completed", None
    for i in range(1, n + 1):
        try:
            new = (initial_step(instance, full=full) if i == 1
                   else step(prev, instance, full=full))
        except DomainEscape as esc:
            flag, escape_step = "diverged", esc.step
            break
        rows.append(new.row())
        residuals.append(identity_residual(prev, new))
        prev = new
        if new.norms_error[0] < FLOOR_STOP * target_sup:
            if i < n:
                flag = "floor"
            break

    return IterationTrace(
        instance=instance,
        states=tuple(rows),
        identity_residuals=tuple(residuals),
        flag=flag,
        escape_step=escape_step,
        target_sup=target_sup,
    )
