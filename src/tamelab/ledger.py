"""Explicit constant arithmetic for the corrector iteration, and the one
place that judges measured norms against it.

Every inequality the driver relies on is mechanized as one frozen formula so
predicted constants are reproducible.  The formulas are deliberately safe
over-estimates (counts of index pairs, worst-case Leibniz factors), never
sharp: their job is to dominate measured margins, not to match them.  The
bounds all have the shape C lam^k / (lam ell)^p; _scaled divides a trace's
norms by that shape, and calibration, margins and the hypothesis check read
only its values.  The module computes constants and margins only; the CLI
steps propagate to tabulate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

from .gridfield import NormVector
from .iteration import IterationTrace, StepNorms
from .problem import STOCK_CLASSES, BoundClass, IterationParams

# The stock set's declared constants, the ledger subcommand's defaults for
# its C, C_err and C_r keys; calibrate replaces them with measured ones.  C
# bounds ||a||_0, and C_r ||r(a)||_0 * (lam ell) for the stock family,
# identified with the per-order remainder constant at k = 0.
FIELD_CONSTANT = 1.0
ERROR_CONSTANT = 1.0
DEFAULT_REMAINDER_CONSTANT = 1.0

# Propagated constants obey a quadratic recurrence and can exceed float range
# within a handful of steps at small lam*ell; they saturate here instead of
# overflowing.  A saturated constant still dominates every measured margin.
CONSTANT_CAP = 1e300

# calibrate's factor on the measured constants: step-1 margins sit below 1.
HEADROOM = 1.01

# Lower clamp of the propagated and the calibrated constants, keeping
# ConstantSet valid when a component is zero, as for a family with no
# remainder terms (its error and remainder constants would be exactly zero).
CONSTANT_FLOOR = 1e-300


def pair_count(k: int) -> int:
    """Number of (j1, j2) with j1 + j2 <= k: the terms in a bilinear bound."""
    return (k + 1) * (k + 2) // 2


def safe_leibniz(k: int) -> float:
    """Safe per-order class constant 2^k * max_j binom(k, j)."""
    return float(2 ** k * math.comb(k, k // 2))


# Largest order whose safe_leibniz is a float (about 1.01e308); the next
# overflows, so every ConstantSet is built for k0 <= MAX_ORDER.
MAX_ORDER = 514


@dataclass(frozen=True)
class ConstantSet:
    """Constants of one inductive step.

    c bounds the field (||a||_0 <= c, ||a||_k <= c lam^k/(lam ell)), c_err the
    error (||E_i||_k <= c_err lam^k/(lam ell)^i), c_r the remainder
    (||r(a)||_k <= c_r lam^k/(lam ell)), c_f the inverse map, and c_k[k] the
    per-order remainder-class constants.
    """

    c: float
    c_err: float
    c_r: float
    c_f: float
    c_k: tuple[float, ...]
    step: int = 1

    def __post_init__(self):
        for name in ("c", "c_err", "c_r", "c_f"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not self.c_k or any(not (math.isfinite(v) and v > 0) for v in self.c_k):
            raise ValueError(f"c_k must be nonempty, positive, finite: {self.c_k}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")


def stock_constants(params: IterationParams) -> ConstantSet:
    return ConstantSet(c=FIELD_CONSTANT, c_err=ERROR_CONSTANT,
                       c_r=DEFAULT_REMAINDER_CONSTANT, c_f=params.c_f,
                       c_k=tuple(safe_leibniz(k) for k in range(params.k0 + 1)),
                       step=1)


def difference_constant(cs: ConstantSet, params: IterationParams) -> float:
    """Constant of ||a^(i+1) - a^(i)||_k <= c_diff lam^k/(lam ell)^i.

    Assembled from the inverse-map Lipschitz bound applied to the two
    consecutive arguments: c_f [ c_err + (c/(ll) + c_r/(ll) + 1) c_err ],
    with the target and remainder constants identified (both <= c), which
    collapses to c_f c_err (2 + 2 c / (lam ell)).
    """
    return min(cs.c_f * cs.c_err * (2.0 + 2.0 * cs.c / (params.lambda_ell)),
               CONSTANT_CAP)


def _class_coefficients(kind: str, k: int, c_k: float, c: float, c_diff: float,
                        c_next: float, mu: float, lam: float) -> tuple[float, float]:
    """One class's coefficients at order k: of lam^k/(lam ell)^(i+1) in the
    next error, from feeding the difference bound through the class
    estimate, and of lam^k/(lam ell) in ||r(a)||_k given ||a||_j <=
    c_next lam^j."""
    n_k = pair_count(k)
    if kind == "R1":
        return c_k * (k + 1) * c_diff, c_k * (k + 1) * c_next
    if kind == "R5":
        # Self interaction: the derivative on the difference argument leaves
        # a bare factor lam that no prefactor absorbs.
        return c_k * c * c_diff * n_k * lam, c_k * n_k * c_next * c_next * lam
    remainder = c_k * n_k * c_next * c_next * mu
    if kind == "R2":
        return 2.0 * c_k * c * c_diff * n_k * mu, remainder
    if kind in ("R3", "R6"):
        return 2.0 * c_k * c * c_diff * n_k, remainder
    if kind == "R4":
        return c_k * c * c_diff * n_k * (1.0 + mu), remainder
    raise ValueError(f"unknown class kind {kind!r}")


def propagate(cs: ConstantSet, params: IterationParams,
              classes: Iterable[BoundClass] = STOCK_CLASSES) -> ConstantSet:
    """Advance the constants one inductive step.

    Deterministic closed-form arithmetic: the difference constant feeds the
    per-class error coefficients, the new field constant comes from pushing
    target + remainder through the inverse bound, and the new remainder
    constant re-evaluates every class at the new field size.
    """
    if params.lambda_ell <= 1:
        raise ValueError(f"lambda*ell must exceed 1, got {params.lambda_ell}")
    kinds = tuple(b.kind for b in classes)
    mu = 1.0 / params.lambda_ell
    c_diff = difference_constant(cs, params)
    c_next = min(cs.c_f * (cs.c + cs.c_r + 1.0), CONSTANT_CAP)
    by_order = [[_class_coefficients(kind, k, c_k, cs.c, c_diff, c_next, mu,
                                     params.lam) for kind in kinds]
                for k, c_k in enumerate(cs.c_k)]
    c_err_next = max(sum(err for err, _ in row) for row in by_order)
    c_r_next = max(sum(rem for _, rem in row) for row in by_order)
    clamp = lambda v: min(max(v, CONSTANT_FLOOR), CONSTANT_CAP)
    return replace(cs, c=c_next, c_err=clamp(c_err_next), c_r=clamp(c_r_next),
                   step=cs.step + 1)


def threshold(cs: ConstantSet) -> float:
    """Smallest lam*ell keeping c_r/(lam ell) within the 1/(3 c_f) margin,
    saturated at CONSTANT_CAP like the propagated constants."""
    return min(3.0 * cs.c_f * cs.c_r, CONSTANT_CAP)


def _scaled(norms: NormVector, params: IterationParams, power: int) -> list[float]:
    """norms[k] (lam ell)^power / lam^k: each norm in units of the bound
    shape lam^k / (lam ell)^power that the induction assumes."""
    ll = params.lambda_ell
    return [n * ll ** power / params.lam ** k for k, n in enumerate(norms.values)]


def calibrate(norms_a: NormVector, norms_error: NormVector, norms_r: NormVector,
              target_norms: NormVector, params: IterationParams) -> ConstantSet:
    """Constants measured off the first iterate and the target, times
    HEADROOM: each is the largest scaled norm its bound covers."""
    # ||a||_0 <= C is the sup bound; the orders k >= 1 carry the shape.
    c = max([norms_a[0]] + _scaled(norms_a, params, 1)[1:]
            + _scaled(target_norms, params, 1)[1:])
    c_err = max(_scaled(norms_error, params, 1))
    c_r = max(_scaled(norms_r, params, 1))
    return replace(stock_constants(params), c=max(c, CONSTANT_FLOOR) * HEADROOM,
                   c_err=max(c_err, CONSTANT_FLOOR) * HEADROOM,
                   c_r=max(c_r, CONSTANT_FLOOR) * HEADROOM)


@dataclass(frozen=True)
class StepMargins:
    """Measured/allowed ratios for the four per-step bounds at one state.

    field_sup covers ||a||_0 <= C; field[k-1] covers ||a||_k <= C lam^k/(ll)
    for k >= 1; error[k] and remainder[k] cover the error and remainder
    bounds at order k.  All ratios <= 1 means the ledger constants dominate.
    """

    step: int
    field_sup: float
    field: tuple[float, ...]
    error: tuple[float, ...]
    remainder: tuple[float, ...]

    @property
    def worst(self) -> float:
        return max((self.field_sup,) + self.field + self.error + self.remainder)


def _step_margins(state: StepNorms, cs: ConstantSet,
                  params: IterationParams) -> StepMargins:
    ratios = lambda values, constant: tuple(v / constant for v in values)
    return StepMargins(
        step=state.step,
        field_sup=state.norms_a[0] / cs.c,
        field=ratios(_scaled(state.norms_a, params, 1)[1:], cs.c),
        error=ratios(_scaled(state.norms_error, params, state.step), cs.c_err),
        remainder=ratios(_scaled(state.norms_r, params, 1), cs.c_r))


def margins(trace: IterationTrace) -> tuple[tuple[StepMargins, ...],
                                            tuple[ConstantSet, ...]]:
    """Calibrate constants off step 1, then propagate them alongside the
    trace; measured/allowed ratios use the constants at the matching step.
    The trace must come from a full run."""
    if trace.states[0].norms_r is None:
        raise ValueError("margins read ||a_i|| and ||r_i(a_i)||, which only a "
                         "full run records; this trace has ||E_i|| alone")
    instance = trace.instance
    params = instance.params
    active = trace.states[1:]
    if not active:
        return (), ()
    first = active[0]
    cs = calibrate(first.norms_a, first.norms_error, first.norms_r,
                   instance.target_norms, params)
    step_margins, constants = [], []
    for state in active:
        step_margins.append(_step_margins(state, cs, params))
        constants.append(cs)
        cs = propagate(cs, params, instance.remainder.class_tags)
    return tuple(step_margins), tuple(constants)


def check_hypotheses(trace: IterationTrace) -> bool:
    """True when every measured/allowed ratio of the trace stays at or below
    1, i.e. the propagated constants dominate every measured quantity."""
    if len(trace.states) < 2:
        raise ValueError("trace has no completed steps to check")
    return all(m.worst <= 1.0 for m in margins(trace)[0])
