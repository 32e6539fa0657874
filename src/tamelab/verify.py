"""Empirical verification: class audits, decay fits and norm oracles.

The measurements here are the other half of the ledger's symbolic constants:
random smooth fields probe each remainder's declared scaling class, and least
squares extracts the per-step decay rate of a trace.  The module only
measures; the CLI builds and runs the instances it measures, among them the
self-interaction demo, whose class bookkeeping genuinely fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import iteration
from .gridfield import (
    RESOLUTION_FACTOR,
    FieldSpectrum,
    GridFunction,
    ResolutionError,
    ck_norm,
    ck_norms,
    norm_batch_rows,
    oscillator,
    random_trig_polynomial,
    refine,
)
from .problem import (
    BoundClass,
    IterationParams,
    R2,
    RemainderTerm,
    self_interaction_term,
)

DEFAULT_LAMBDA_GRID = (16, 32, 64)
STABLE_FACTOR = 2.0
ZERO_CONSTANT_TOL = 1e-14
# Fewest usable steps a decay fit takes, and the first step the
# self-interaction demo fits, past the step-1 transient.
MIN_FIT_STEPS = 3
R5_FIT_FROM = 2
# The self-interaction run has stalled when its slope magnitude falls below
# R5_FACTOR times the clean run's.
R5_FACTOR = 0.5


class InsufficientSteps(ValueError):
    """Fewer usable steps than a least-squares fit needs."""


@dataclass(frozen=True)
class BoundReport:
    """Measured per-order class constants across a frequency grid."""

    bound_class: BoundClass
    lambda_grid: tuple[int, ...]
    constants_by_lambda: tuple[tuple[float, ...], ...]  # [lam][k]
    sample_count: int
    seed: int

    @property
    def per_k_constants(self) -> tuple[float, ...]:
        return tuple(max(row[k] for row in self.constants_by_lambda)
                     for k in range(len(self.constants_by_lambda[0])))

    @property
    def stable(self) -> bool:
        """Recomputed on access: every order's constants stay within a factor
        STABLE_FACTOR across the frequency grid (all-zero counts as stable)."""
        for k in range(len(self.constants_by_lambda[0])):
            column = [row[k] for row in self.constants_by_lambda]
            hi, lo = max(column), min(column)
            if hi <= ZERO_CONSTANT_TOL:
                continue
            if lo <= ZERO_CONSTANT_TOL or hi / lo > STABLE_FACTOR:
                return False
        return True


def _norm_factors(bound_class: BoundClass) -> tuple[tuple[int, int, int], ...]:
    """(argument, derivative order, order shift) of each norm sequence the
    class estimate pairs; argument 0 is a and 1 is b.

    R4 and R5 pair ||a||_(j1+1) with ||b||_j2; every other class pairs the
    norms of its differentiated arguments, ||d^s a||_j1 and ||d^t b||_j2.
    """
    if bound_class.kind in ("R4", "R5"):
        return ((0, 0, 1), (1, 0, 0))
    return tuple((arg, order, 0)
                 for arg, order in enumerate(bound_class.arg_derivatives))


def _argument_norms(fields: Sequence[FieldSpectrum],
                    classes: Sequence[BoundClass], k_max: int) -> dict:
    """(argument, derivative order) -> norms of that field, taken once up
    to the highest order any of the classes reads.

    A derivative is normed from its own transform, exactly as ck_norm of
    the differentiated field, so the values do not depend on sharing."""
    tops: dict = {}
    for bound_class in classes:
        for arg, order, shift in _norm_factors(bound_class):
            tops[(arg, order)] = max(tops.get((arg, order), 0), k_max + shift)
    norms = {}
    for (arg, order), top in tops.items():
        field = fields[arg]
        norms[(arg, order)] = (field.ck_norm(top) if order == 0 else
                               ck_norm(field.derivative(order), top)).values
    return norms


def _class_norms(bound_class: BoundClass, norms: dict,
                 k_max: int) -> tuple[tuple[float, ...], ...]:
    """The lambda-independent norm sequences the class estimate pairs, each
    indexed by the order j it enters at."""
    return tuple(norms[(arg, order)][shift:shift + k_max + 1]
                 for arg, order, shift in _norm_factors(bound_class))


def _rhs_polynomial(bound_class: BoundClass,
                    class_norms: tuple[tuple[float, ...], ...], lam: int,
                    ell: float, k_max: int) -> tuple[float, ...]:
    """The lambda polynomial of the class estimate over precomputed norms:
    arithmetic only."""
    pref = bound_class.prefactor(lam, ell)
    if len(class_norms) == 1:
        (na,) = class_norms
        return tuple(pref * sum(na[j] * lam ** (k - j) for j in range(k + 1))
                     for k in range(k_max + 1))
    first, second = class_norms
    out = []
    for k in range(k_max + 1):
        total = 0.0
        for j1 in range(k + 1):
            for j2 in range(k + 1 - j1):
                total += first[j1] * second[j2] * lam ** (k - j1 - j2)
        out.append(pref * total)
    return tuple(out)


def class_bound_rhs(bound_class: BoundClass, a: GridFunction,
                    b: Optional[GridFunction], lam: int, ell: float,
                    k_max: int) -> tuple[float, ...]:
    """Right-hand side of the class estimate with unit constant.

    Linear classes: pref * sum_{j<=k} ||a||_j lam^(k-j).  Bilinear classes
    pair the (possibly differentiated or order-shifted) argument norms over
    j1 + j2 <= k; b defaults to a.
    """
    spectral_a = FieldSpectrum(a)
    fields = (spectral_a, spectral_a if b is None else FieldSpectrum(b))
    norms = _argument_norms(fields, [bound_class], k_max)
    return _rhs_polynomial(bound_class, _class_norms(bound_class, norms, k_max),
                           lam, ell, k_max)


def audit_classes(pairs: Sequence[tuple[RemainderTerm, BoundClass]],
                  params: IterationParams, n_samples: int = 12, k_max: int = 3,
                  lambda_grid: Sequence[int] = DEFAULT_LAMBDA_GRID,
                  ) -> list[BoundReport]:
    """Audit each (term, declared class) pair; one report per pair, in order.

    Draws low-mode fields a (and b, when some class is bilinear) with sup
    norm 1, seeded by params.seed, evaluates every term at each frequency in
    the grid (same fields, same ell), and reports the worst measured/bound
    ratio per order.  Auditing a term against the wrong class shows up as
    constants that drift with the frequency.

    The pass is sample-major: each sample's fields are drawn, differentiated
    and normed once for all pairs and frequencies, and only the running
    worst ratios are kept, so one sample's fields are alive at a time.
    The measured terms are normed by ck_norms in batches of
    norm_batch_rows(n_points, k_max) rows, each as soon as it fills: one
    term at a time at 65536 points.  A term that returns anything but one
    component on the audit grid raises ValueError.
    Raises ResolutionError, before drawing, when the grid cannot resolve
    norms to order k_max at the top frequency, and FloatingPointError
    naming the class, lambda and ell when a term or its norms leave the
    float range.
    """
    if n_samples < 10:
        raise ValueError(f"need n_samples >= 10, got {n_samples}")
    lambda_grid = tuple(lambda_grid)
    needed = RESOLUTION_FACTOR * max(lambda_grid) * (k_max + 1)
    if params.n_points < needed:
        raise ResolutionError(
            f"audit to order {k_max} at frequency {max(lambda_grid)} needs "
            f"n_points >= {needed} (= {RESOLUTION_FACTOR} * lambda * "
            f"(k_max + 1)), got {params.n_points}")
    pairs = tuple(pairs)
    classes = [bound_class for _, bound_class in pairs]
    draw_b = any(bound_class.arity == 2 for bound_class in classes)
    modulations = [oscillator(1.0, lam, n_points=params.n_points)
                   for lam in lambda_grid]
    per_batch = norm_batch_rows(params.n_points, k_max)
    worst = [[[0.0] * (k_max + 1) for _ in lambda_grid] for _ in pairs]

    def out_of_range(bound_class, lam):
        return FloatingPointError(
            f"the class {bound_class.kind} term leaves the float range at "
            f"lambda={lam}, ell={params.ell}")

    def measured_fields(a, b, norms):
        """Yield (samples, rhs, worst row, (class, lambda)) for every pair
        and frequency: the term's one-component samples through
        RemainderTerm.apply, and its class estimate with unit constant."""
        for (term, bound_class), rows in zip(pairs, worst):
            bilinear = bound_class.arity == 2
            class_norms = _class_norms(bound_class, norms, k_max)
            for lam, modulation, row in zip(lambda_grid, modulations, rows):
                try:
                    r = term.apply(a, b if bilinear else None, lam=lam,
                                   ell=params.ell, modulation=modulation)
                except (FloatingPointError, OverflowError) as exc:
                    raise out_of_range(bound_class, lam) from exc
                if (r.n_points, r.n_components) != (params.n_points, 1):
                    raise ValueError(
                        f"term returned {r.n_components} component(s) on "
                        f"{r.n_points} points, not one component on the "
                        f"{params.n_points}-point audit grid")
                yield (r.samples[:, 0],
                       _rhs_polynomial(bound_class, class_norms, lam,
                                       params.ell, k_max), row, (bound_class, lam))

    for idx in range(n_samples):
        # Per-sample seeding keeps the fields independent of which pairs
        # are audited together and of the sample order.
        a = FieldSpectrum(random_trig_polynomial(
            np.random.default_rng([params.seed, idx, 0]), params.n_points))
        b = (FieldSpectrum(random_trig_polynomial(
            np.random.default_rng([params.seed, idx, 1]), params.n_points))
             if draw_b else None)
        fields = measured_fields(a, b, _argument_norms((a, b), classes, k_max))
        while batch := list(itertools.islice(fields, per_batch)):
            try:
                measured = ck_norms(np.stack([r for r, *_ in batch]), k_max)
            except FloatingPointError:
                # Rows are normed independently: name the first that
                # overflows on its own.
                for r, _, _, label in batch:
                    try:
                        ck_norms(r[np.newaxis], k_max)
                    except FloatingPointError as exc:
                        raise out_of_range(*label) from exc
                raise
            for values, (_, rhs, row, _) in zip(measured.tolist(), batch):
                for k in range(k_max + 1):
                    if rhs[k] > 0:
                        row[k] = max(row[k], values[k] / rhs[k])
    return [BoundReport(bound_class=bound_class, lambda_grid=lambda_grid,
                        constants_by_lambda=tuple(tuple(row) for row in rows),
                        sample_count=n_samples, seed=params.seed)
            for (_, bound_class), rows in zip(pairs, worst)]


def verify_remainder_class(term: RemainderTerm, bound_class: BoundClass,
                           params: IterationParams, n_samples: int = 12,
                           k_max: int = 3,
                           lambda_grid: Sequence[int] = DEFAULT_LAMBDA_GRID,
                           ) -> BoundReport:
    """Audit one remainder term against a declared class (see audit_classes)."""
    return audit_classes([(term, bound_class)], params, n_samples, k_max,
                         lambda_grid)[0]


# Deliberate misdeclaration: the self-interaction term audited against the
# quadratic class, whose prefactor cannot absorb the derivative's factor of
# lam.  Its report must come back unstable.
MISDECLARED_CONTROL = (self_interaction_term(1.0), R2)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (i, ln ||E_i||_k)."""

    k: int
    slope: float
    intercept: float
    r_squared: float
    steps_used: tuple[int, int]


def fit_decay(trace: iteration.IterationTrace, k: int, *, min_step: int = 1) -> DecayFit:
    """Fit the decay exponent of ||E_i||_k over the points of
    trace.log_errors, which leaves out the steps at the noise floor; fewer
    than MIN_FIT_STEPS points raise InsufficientSteps.

    The line is the closed-form least-squares fit over centred sums, each
    added by math.fsum: slope = Sxy / Sxx and intercept =
    mean(y) - slope * mean(x).  The steps are distinct, so Sxx > 0.  The
    sums take y from the first point's value, so a constant run has
    ss_tot = 0 exactly; fsum(ys) / n can miss a constant y by an ulp.
    """
    points = trace.log_errors(k, min_step)
    if len(points) < MIN_FIT_STEPS:
        raise InsufficientSteps(
            f"only {len(points)} usable steps for k={k}; need >= {MIN_FIT_STEPS}")
    xs = [float(i) for i, _ in points]
    y0 = points[0][1]
    ys = [y - y0 for _, y in points]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    dys = [y - y_mean for y in ys]
    slope = (math.fsum(dx * dy for dx, dy in zip(dxs, dys))
             / math.fsum(dx * dx for dx in dxs))
    intercept = y_mean - slope * x_mean  # of the line through (x, y - y0)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum(dy * dy for dy in dys)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(k=k, slope=slope, intercept=y0 + intercept,
                    r_squared=min(1.0, r_squared),
                    steps_used=(int(xs[0]), int(xs[-1])))


def oracle_norm(f: GridFunction, k: int, refinement: int = 8) -> float:
    """||f||_k measured on a refinement-times finer grid.

    Zero-pads the spectrum, differentiates there, and takes the refined sup:
    an independent check on the coarse-grid norm (and always >= it, since the
    coarse points are a subset of the refined ones)."""
    refined = refine(f, refinement)
    return ck_norm(refined, k)[k]
