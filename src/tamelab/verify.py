"""Empirical verification: class audits, decay fits and norm oracles.

The measurements here are the other half of the ledger's symbolic constants:
random smooth fields probe each remainder's declared scaling class, and least
squares extracts the per-step decay rate of a trace.  The module only
measures; the CLI builds and runs the instances it measures, among them the
self-interaction demo, whose class bookkeeping genuinely fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import iteration
from .gridfield import (
    BATCH_POINTS,
    NON_FINITE,
    FieldSpectrum,
    GridFunction,
    check_resolution,
    ck_norm,
    clean_spectra,
    oscillator,
    points_needed,
    refine,
    trig_coefficients,
    trig_rows,
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
# Most bytes of terms one class-audit chunk holds: its samples x pairs x
# frequencies x n_points float64 samples stay within 1.5 MiB (3 *
# BATCH_POINTS samples), and a chunk holds at least one sample: 6 samples
# of the five shipped pairs at 2048 points, 3 at 4096 and 1 from 8192.
# Larger chunks take fewer calls, but one chunk of all 12 shipped samples
# held 2.95 MB of terms, whose release moves glibc's mmap threshold for the
# rest of the process (see gridfield.BATCH_POINTS).
TERM_BLOCK_BYTES = 3 << 19


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
        return tuple(map(max, zip(*self.constants_by_lambda)))

    @property
    def stable(self) -> bool:
        """Recomputed on access: every order's constants stay within a factor
        STABLE_FACTOR across the frequency grid (all-zero counts as stable)."""
        for column in zip(*self.constants_by_lambda):
            hi, lo = max(column), min(column)
            if hi > ZERO_CONSTANT_TOL and (lo <= ZERO_CONSTANT_TOL
                                           or hi / lo > STABLE_FACTOR):
                return False
        return True


def _norm_factors(bound_class: BoundClass) -> tuple[tuple[int, int, int], ...]:
    """(argument, derivative order, order shift) of each norm sequence the
    class estimate pairs; argument 0 is a and 1 is b.

    A class that differentiates a once and b not at all (R4, R5) pairs
    ||a||_(j1+1) with ||b||_j2; every other class pairs the norms of its
    differentiated arguments, ||d^s a||_j1 and ||d^t b||_j2.
    """
    if bound_class.arg_derivatives == (1, 0):
        return ((0, 0, 1), (1, 0, 0))
    return tuple((arg, order, 0)
                 for arg, order in enumerate(bound_class.arg_derivatives))


def _argument_rows(classes: Sequence[BoundClass],
                   k_max: int) -> tuple[list[tuple[int, int]], int]:
    """The (argument, derivative order) of every field the class estimates
    read, in first-use order, and the highest norm order any of them reads."""
    factors = [factor for bound_class in classes
               for factor in _norm_factors(bound_class)]
    return (list(dict.fromkeys((arg, order) for arg, order, _ in factors)),
            k_max + max(shift for *_, shift in factors))


def _chunk_arguments(drawn: np.ndarray, keys: Sequence[tuple[int, int]],
                     top: int) -> tuple[list[FieldSpectrum], np.ndarray]:
    """The arguments of a chunk, drawn (arguments, chunk, n_points), each
    held with its spectra as the terms read it, and the norms 0..top of
    each (argument, order) field in keys, (chunk, len(keys), top + 1),
    ck_norm's values, from one FieldSpectrum.norms and two clean_spectra
    calls."""
    args = [FieldSpectrum(*pair) for pair in zip(drawn, clean_spectra(drawn))]
    rows = np.stack([args[arg].derivative(order) for arg, order in keys], 1)
    spectra = np.stack([args[arg].spectrum() for arg, _ in keys], 1)
    derived = [row for row, (_, order) in enumerate(keys) if order]
    if derived:
        spectra[:, derived] = clean_spectra(rows[:, derived])
    return args, FieldSpectrum(rows, spectra).norms(top)


def _class_estimates(bound_class: BoundClass, norms: np.ndarray,
                     keys: Sequence[tuple[int, int]],
                     lambda_grid: Sequence[int], ell: float,
                     k_max: int) -> np.ndarray:
    """The class estimate with unit constant, (samples, lambdas, k_max + 1),
    from the argument norms (samples, len(keys), top + 1).

    Linear classes: pref * sum_{j<=k} ||a||_j lam^(k-j).  Bilinear classes:
    pref * sum ||a||_j1 ||b||_j2 lam^(k-j1-j2) over j1 + j2 <= k, j1 outer.
    Every sample and frequency takes the float operations of a Python loop
    over one of them, in its order, with overflow to inf; a prefactor
    ell**-p out of the float range raises OverflowError.
    """
    factors = [norms[:, keys.index((arg, order)), shift:shift + k_max + 1]
               for arg, order, shift in _norm_factors(bound_class)]
    linear = len(factors) == 1
    if linear:  # each ||a||_j is paired with a 1.0, which multiplies exactly
        factors.append(np.ones_like(factors[0]))
    products = [[(j1, j2) for j1 in range(k + 1)
                 for j2 in range(1 if linear else k + 1 - j1)] for k in range(k_max + 1)]
    first, second = factors
    prefs = np.array([bound_class.prefactor(lam, ell) for lam in lambda_grid])
    powers = np.array([[float(lam ** p) for lam in lambda_grid]
                       for p in range(k_max + 1)])  # [p][lam]
    out = np.empty((len(norms), len(lambda_grid), k_max + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, terms in enumerate(products):
            total = 0.0
            for j1, j2 in terms:
                norm_product = (first[:, j1] * second[:, j2])[:, np.newaxis]
                total = total + norm_product * powers[k - j1 - j2]
            out[:, :, k] = prefs * total
    return out


def class_bound_rhs(bound_class: BoundClass, a: GridFunction,
                    b: Optional[GridFunction], lam: int, ell: float,
                    k_max: int) -> tuple[float, ...]:
    """Right-hand side of the class estimate with unit constant (see
    _class_estimates), by the audit's chunk code on one sample; b defaults to a."""
    keys, top = _argument_rows([bound_class], k_max)
    drawn = np.stack([a.samples, (a if b is None else b).samples])[:, np.newaxis]
    return tuple(_class_estimates(bound_class, _chunk_arguments(drawn, keys, top)[1],
                                  keys, (lam,), ell, k_max)[0, 0].tolist())


def _draw_arguments(seed: int, samples: range, arguments: int,
                    n_points: int) -> np.ndarray:
    """The unit-sup fields of the given samples, (arguments, samples,
    n_points), from one angle-addition product.  Argument arg of sample idx
    is the row of its own generator's one draw, default_rng([seed, idx,
    arg]), so it holds the bits of random_trig_polynomial on that generator
    whatever the pairs and the chunk."""
    coefficients = np.concatenate([
        trig_coefficients(np.random.default_rng([seed, idx, arg]))
        for arg in range(arguments) for idx in samples])
    return trig_rows(coefficients, n_points, normalize=True).reshape(
        arguments, len(samples), n_points)


def audit_classes(pairs: Sequence[tuple[RemainderTerm, BoundClass]],
                  params: IterationParams, n_samples: int = 12, k_max: int = 3,
                  lambda_grid: Sequence[int] = DEFAULT_LAMBDA_GRID,
                  ) -> list[BoundReport]:
    """Audit each (term, declared class) pair; one report per pair, in order.

    Draws low-mode fields a (and b, when some class is bilinear) with sup
    norm 1, seeded by params.seed and the sample, evaluates every term at
    each frequency in the grid (same fields, same ell), and reports the
    worst measured/bound ratio per order.  Auditing a term against the
    wrong class shows up as constants that drift with the frequency.

    The pass goes over chunks of as many samples as keep their terms, samples
    x pairs x frequencies x n_points, within TERM_BLOCK_BYTES (at least
    one; 6 at 2048 points and five pairs, 3 at 4096, 1 from 8192).  Per
    chunk, one angle-addition product draws the a and b rows (see
    _draw_arguments), _chunk_arguments norms them, each term is evaluated
    once over the chunk and the frequency grid, and one FieldSpectrum.norms
    call norms the chunk's terms of as many pairs as keep one sample's terms
    within BATCH_POINTS samples (at least one: the five shipped pairs up to
    4096 points, two at 8192, one from 16384), in batches within
    BATCH_POINTS.  The estimates and worst ratios are then taken at once.

    A term that is not one field on the audit grid at each frequency raises
    ValueError.  Raises ResolutionError, before drawing, when n_points is
    below gridfield.points_needed(max(lambda_grid), k_max), the grid that
    resolves norms to order k_max at the top frequency.  Terms and
    their norms are computed with overflow to inf, whatever the caller's
    np.errstate, and judged by their values: of the first term, in sample,
    pair and frequency order, with a non-finite norm, a NaN sup raises
    ValueError(NON_FINITE), and any other value FloatingPointError naming
    its class, lambda and ell, as leaving the float range.  Nothing is
    computed twice.
    """
    if n_samples < 10:
        raise ValueError(f"need n_samples >= 10, got {n_samples}")
    lambda_grid = tuple(lambda_grid)
    n = params.n_points
    check_resolution(f"audit to order {k_max} at frequency {max(lambda_grid)}",
                     n, points_needed(max(lambda_grid), k_max))
    pairs = tuple(pairs)
    if not pairs:
        return []
    classes = [bound_class for _, bound_class in pairs]
    draw_b = any(bound_class.arity == 2 for bound_class in classes)
    keys, top = _argument_rows(classes, k_max)
    modulations = np.stack([oscillator(1.0, lam, n_points=n).samples
                            for lam in lambda_grid])
    lams = len(lambda_grid)
    per_call = max(1, BATCH_POINTS // (n * lams))
    chunk = max(1, TERM_BLOCK_BYTES // (8 * n * lams * len(pairs)))
    rows = np.empty((chunk, min(per_call, len(pairs)), lams, n))
    argument_norms = np.empty((n_samples, len(keys), top + 1))
    measured = np.empty((n_samples, len(pairs) * lams, k_max + 1))

    def measure(group, block, a, b=None):
        """group's terms written into block, (samples, len(group), lambdas,
        n_points), and their norms, (samples, len(group) x lambdas, k_max +
        1), overflowing to inf, as does a prefactor ell**-q out of the float
        range.  The first non-finite norm is named, or refused if NaN."""
        for (term, bound_class), out in zip(group, block.swapaxes(0, 1)):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    r = term._samples(a, b if bound_class.arity == 2 else None,
                                      lambda_grid, params.ell, modulations)
            except OverflowError:
                out[:] = math.inf
                continue
            if np.shape(r) != out.shape:
                raise ValueError(f"term returned shape {np.shape(r)}, not one "
                                 f"field per frequency on the {n}-point audit grid")
            out[:] = r
        with np.errstate(over="ignore", invalid="ignore"):
            values = FieldSpectrum(block).norms(k_max).reshape(-1, k_max + 1)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size and np.isnan(values[bad[0], 0]):
            raise ValueError(NON_FINITE)
        if bad.size:
            pair, lam = divmod(bad[0] % (len(group) * lams), lams)
            raise FloatingPointError(
                f"the class {group[pair][1].kind} term leaves the float range "
                f"at lambda={lambda_grid[lam]}, ell={params.ell}")
        return values.reshape(len(block), -1, k_max + 1)

    for first in range(0, n_samples, chunk):
        done = range(first, min(first + chunk, n_samples))
        args, argument_norms[first:done.stop] = _chunk_arguments(
            _draw_arguments(params.seed, done, 1 + draw_b, n), keys, top)
        for start in range(0, len(pairs), per_call):
            group = pairs[start:start + per_call]
            measured[first:done.stop, start * lams:(start + len(group)) * lams] = (
                measure(group, rows[:len(done), :len(group)], *args))
        del args  # so that two chunks' fields are never alive at once
    estimates = np.concatenate(
        [_class_estimates(bound_class, argument_norms, keys, lambda_grid,
                          params.ell, k_max)
         for bound_class in classes], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.divide(measured, estimates, out=np.zeros_like(measured),
                           where=estimates > 0)
    worst = ratios.max(axis=0).reshape(len(pairs), lams, k_max + 1)
    return [BoundReport(bound_class=bound_class, lambda_grid=lambda_grid,
                        constants_by_lambda=tuple(map(tuple, table)),
                        sample_count=n_samples, seed=params.seed)
            for bound_class, table in zip(classes, worst.tolist())]


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
