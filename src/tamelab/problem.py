"""Concrete model problems for the corrector iteration.

Each instance packages a target tensor T near a reference T0, a bilinear map
b with a local right inverse F (so b(F(T'), F(T')) = T' on a neighborhood of
T0), and a remainder built from modulated-cosine terms whose scaling class is
declared up front.  The stock scalar family uses b(a, a) = a^2 pointwise and
F = sqrt, which keeps every class constant computable in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .gridfield import (
    BATCH_POINTS,
    RESOLUTION_FACTOR,
    FieldSpectrum,
    GridFunction,
    IncompatibleGrids,
    NormVector,
    check_grids,
    ck_norm,
    finite_sup,
    mollify,
    oscillator,
    random_trig_rows,
    row_sups,
)

RIGHT_INVERSE_TOL = 1e-10
# The right-inverse self-check calls its maps on at most this many grid
# points, one row or more: a 2^13-point float64 array is 64 KiB, below
# glibc's default 128 KiB mmap threshold, so the maps' temporaries come from
# the heap instead of being mapped and page-faulted in on every call.
MAP_CALL_POINTS = 1 << 13

class DomainEscape(RuntimeError):
    """The inverse map was asked for a tensor outside its neighborhood."""

    def __init__(self, message: str, step: Optional[int] = None,
                 measured: Optional[float] = None, radius: Optional[float] = None):
        super().__init__(message)
        self.step = step
        self.measured = measured
        self.radius = radius


class NeighborhoodViolation(ValueError):
    """Construction refused: the target strays too far from the center."""

    def __init__(self, message: str, measured: float, radius: float):
        super().__init__(message)
        self.measured = measured
        self.radius = radius


@dataclass(frozen=True)
class BoundClass:
    """Scaling class of a remainder term: the prefactor lam^(-p) ell^(-q) as
    (p, q), and the derivative order applied to each argument before the
    bilinear or linear core."""

    kind: str
    prefactor_exponents: tuple[int, int]
    arg_derivatives: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.arg_derivatives)

    def prefactor(self, lam: float, ell: float) -> float:
        lp, ep = self.prefactor_exponents
        return lam ** (-lp) * ell ** (-ep)


R1 = BoundClass("R1", (1, 1), (0,))
R2 = BoundClass("R2", (2, 2), (0, 0))
R3 = BoundClass("R3", (2, 0), (1, 1))
R4 = BoundClass("R4", (2, 1), (1, 0))
R5 = BoundClass("R5", (1, 1), (1, 0))

# The classes of the stock remainder r1 + r2 + r3 + r4.
STOCK_CLASSES = (R1, R2, R3, R4)


def r6(s: int, t: int) -> BoundClass:
    """The class of lam^-(s+t) d^s a d^t b."""
    if s < 1 or t < 1:
        raise ValueError(f"R6 requires s, t >= 1, got s={s}, t={t}")
    return BoundClass("R6", (s + t, 0), (s, t))


@dataclass(frozen=True)
class RemainderTerm:
    """One modulated-cosine remainder term.

    Evaluates weight * prefactor(lam, ell) * cos(lam x) * core, where the core
    is the (derivative-applied) argument or the product of the two.  The cos
    modulation contributes lambda^(k - j1 - j2) under differentiation, which
    is exactly the shape of the declared class bound.
    """

    bound_class: BoundClass
    weight: float = 1.0

    def apply(self, a: FieldSpectrum, b: Optional[FieldSpectrum] = None, *,
              lam: int, ell: float, modulation: GridFunction) -> GridFunction:
        """Evaluate the term at the fields of a and b; b defaults to a.

        The derivative orders the term takes are kept in a and b, so callers
        evaluating several terms at the same fields differentiate each field
        once per order.
        """
        return GridFunction.from_samples(
            self._samples(a, b, (lam,), ell, modulation.samples[np.newaxis])[0])

    def _samples(self, a: FieldSpectrum, b: Optional[FieldSpectrum],
                 lams: Sequence[int], ell: float,
                 modulations: np.ndarray) -> np.ndarray:
        """The term at each frequency lams[i] under the modulation samples
        modulations[i], (len(lams), n_points): the core is taken once and
        broadcast against the stack.  Unchecked for finiteness: the grid
        checks run on the arguments, and the caller checks the samples it
        keeps."""
        orders = self.bound_class.arg_derivatives
        first = a.derivative(orders[0])
        core = first.samples
        if self.bound_class.arity == 2:
            second = (a if b is None else b).derivative(orders[1])
            check_grids(first, second)
            core = core * second.samples
        if modulations.shape[-1] != first.n_points:
            raise IncompatibleGrids(f"grids differ: n_points "
                                    f"{modulations.shape[-1]}/{first.n_points}")
        out = modulations * core
        for i, lam in enumerate(lams):
            out[i] *= self.weight * self.bound_class.prefactor(lam, ell)
        return out


def stock_remainder_terms() -> tuple[RemainderTerm, ...]:
    return tuple(RemainderTerm(bound_class) for bound_class in STOCK_CLASSES)


def self_interaction_term(strength: float) -> RemainderTerm:
    return RemainderTerm(R5, weight=strength)


def drift_factor(drift: float, lambda_ell: float, step):
    """The step-varying family's factor 1 + drift / (lam*ell)^step."""
    return 1.0 + drift * lambda_ell ** (-step)


@dataclass(frozen=True)
class RemainderSpec:
    """A remainder r = sum of tagged terms, optionally drifting with the step.

    The step-i evaluation is scale(i) * sum_terms with scale(i) = 1 +
    drift / (lam*ell)^i, so consecutive steps differ at the same order the
    error itself decays.  r(0, i) = 0 for every i by construction.
    """

    terms: tuple[RemainderTerm, ...]
    lam: int
    ell: float
    modulation: GridFunction
    drift: float = 0.0

    @property
    def class_tags(self) -> tuple[BoundClass, ...]:
        return tuple(t.bound_class for t in self.terms)

    def step_scale(self, step: int) -> float:
        return drift_factor(self.drift, self.lam * self.ell, step)

    def __call__(self, a: FieldSpectrum, step: int) -> GridFunction:
        """r_step at the field of a; the terms share a's derivatives.

        The sum runs on samples from a zero start, each term's fresh array
        taking the total in place (out += total, the bits of term + total),
        so no sum array is allocated per term.  It is wrapped once, after
        the step scale, so the one GridFunction check covers every term: a
        non-finite term leaves the total non-finite."""
        n = a.field.n_points
        total = np.zeros(n)
        for term in self.terms:
            out = term._samples(a, None, (self.lam,), self.ell,
                                self.modulation.samples[np.newaxis])[0]
            out += total
            total = out
        return GridFunction(n, self.step_scale(step) * total)


@dataclass(frozen=True)
class IterationParams:
    """Scales and budgets of one experiment; the defaults are the CLI's.

    k0 is the largest controlled derivative order at step 0 and shrinks by
    one per step; k1 is the order that must survive all n_steps.  c_f is the
    declared inverse-map constant (domain radius 1/c_f, target radius
    1/(3 c_f)).  The CLI's key table checks the ranges; an integer ell is
    taken as a float.
    """

    lam: int = 32
    ell: float = 4.0
    k0: int = 7
    k1: int = 2
    c_f: float = 1.0
    n_points: int = 2048
    n_steps: int = 5
    seed: int = 7

    def __post_init__(self):
        object.__setattr__(self, "ell", float(self.ell))

    @property
    def lambda_ell(self) -> float:
        return self.lam * self.ell

    @property
    def k_safe(self) -> int:
        """Largest norm order the grid resolves at this frequency."""
        return self.n_points // (RESOLUTION_FACTOR * self.lam) - 1

    def norm_order(self, step: int) -> int:
        """Norm orders reported at a given step: the derivative-loss budget
        k0 - step, capped by what the grid resolves."""
        return max(0, min(self.k0 - step, self.k_safe))


# An array map acts pointwise on samples whose last axis is the grid axis;
# any leading axes are batch axes, and step may be an array that broadcasts
# against them.
ArrayMap = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ProblemInstance:
    """An immutable (T, T0, b, F, r) package ready for the driver.

    bilinear_map and inverse_map are the array maps the build's right-inverse
    self-check verified.  They take the step index so families where they
    change from step to step stay exact right-inverse pairs at every step.
    inverse applies inverse_map to the samples of a tensor inside the domain
    of F.
    """

    target: GridFunction
    center: GridFunction
    bilinear_map: ArrayMap
    inverse_map: ArrayMap
    remainder: RemainderSpec
    params: IterationParams
    target_norms: NormVector  # ||T||_0 .. ||T||_k at the step-0 norm order

    def inverse(self, tensor: np.ndarray, step: int) -> GridFunction:
        """F(tensor) at step, for tensor samples on the center's grid.

        Raises DomainEscape for a tensor outside the 1/C_F neighborhood of
        the center or with a nonpositive sample."""
        center = self.center
        if tensor.shape[0] != center.n_points:
            raise IncompatibleGrids(
                f"grids differ: n_points {center.n_points}/{tensor.shape[0]}")
        radius = 1.0 / self.params.c_f
        distance = finite_sup(tensor - center.samples)
        if distance > radius:
            raise DomainEscape(
                f"tensor is {distance:.6g} from the center, outside the "
                f"1/C_F = {radius:.6g} neighborhood (step {step})",
                step=step, measured=distance, radius=radius)
        low = np.min(tensor)
        if low <= 0.0:
            raise DomainEscape(
                f"tensor loses positivity (min {low:.6g}) at step {step}",
                step=step, measured=distance, radius=radius)
        return GridFunction(center.n_points, self.inverse_map(tensor, step))


def _toy_maps(copies: int, drift: float,
              lambda_ell: float) -> tuple[ArrayMap, ArrayMap]:
    """The toy's right inverse F(t) = sqrt(t / copies) and bilinear map
    b(u, v) = copies * u v as array maps.

    At copies > 1 they stand for F mapping t to copies equal components
    sqrt(t / copies) and b summing the componentwise products.  F's image
    is the diagonal, so the instance holds the common component: its sup
    norms are the tuple's, copies * u v is bit for bit the sum of the
    copies' products, and each remainder term's core is bit for bit the
    mean of the copies' cores.  Both maps carry the step factor
    1 + drift / (lam*ell)^step, so b(F(t), F(t)) = t at every step.  They
    skip the factor copies at 1 and the step factor at drift 0, each
    exactly 1.0, and apply a remaining factor in place: the same bits with
    fewer full-size temporaries.
    """

    def inverse_map(tensor: np.ndarray, step) -> np.ndarray:
        out = np.sqrt(tensor if copies == 1 else tensor / copies)
        if drift != 0.0:
            out *= drift_factor(drift, lambda_ell, step)
        return out

    def bilinear_map(u: np.ndarray, v: np.ndarray, step) -> np.ndarray:
        total = u * v
        if copies != 1:
            total *= copies
        if drift != 0.0:
            total *= drift_factor(drift, lambda_ell, step) ** (-2)
        return total

    return inverse_map, bilinear_map


def _check_right_inverse(params: IterationParams, center: GridFunction,
                         radius: float, inverse_map: ArrayMap,
                         bilinear_map: ArrayMap, n_samples: int = 20) -> None:
    """Check b(F(t), F(t)) = t on n_samples random admissible tensors.

    Sample i is center + rho * bump with a unit-sup low-mode bump, rho in
    radius * [0.1, 0.99) for the given target radius, at step 1 + i % 3.
    Samples are drawn in batches of at most BATCH_POINTS grid points
    (n_points = 2048 draws its 20 samples in one batch, 65536 one by one),
    one contiguous row per sample at every grid point, and hold the bits
    center + rho * random_trig_polynomial(...) gives.  The maps and
    the residual then run on consecutive rows of a batch, at most
    MAP_CALL_POINTS grid points per call and at least one row: 2048 checks
    its 20 samples in five calls of four rows, 8192 and finer one row per
    call.
    Raises AssertionError naming the first sample whose residual is not at
    or below RIGHT_INVERSE_TOL, so a non-finite residual fails too.
    """
    rng = np.random.default_rng([params.seed, 0x5eed])
    per_batch = max(1, BATCH_POINTS // params.n_points)
    per_call = max(1, MAP_CALL_POINTS // params.n_points)
    for start in range(0, n_samples, per_batch):
        count = min(per_batch, n_samples - start)
        t_prime = random_trig_rows(rng, params.n_points, count)
        t_prime *= (1.0 / row_sups(t_prime))[:, np.newaxis]
        t_prime *= radius * rng.uniform(0.1, 0.99, size=(count, 1))
        t_prime += center.samples
        for first in range(start, start + count, per_call):
            rows = t_prime[first - start:first - start + per_call]
            steps = (1 + np.arange(first, first + len(rows)) % 3).reshape(-1, 1)
            a = inverse_map(rows, steps)
            residual = row_sups(bilinear_map(a, a, steps) - rows)
            failed = np.flatnonzero(~(residual <= RIGHT_INVERSE_TOL))
            if failed.size:
                i = failed[0]
                raise AssertionError(
                    f"right-inverse residual {residual[i]:.3e} exceeds "
                    f"{RIGHT_INVERSE_TOL} on sample {first + i}")


def _make_toy(params: IterationParams, t_amplitude: float, drift: float,
              copies: int) -> ProblemInstance:
    center = GridFunction.constant(1.0, params.n_points)
    # The target radius 1/(3 C_F), which 1.0 / (3.0 * C_F) rounds to 0 once
    # 3 C_F overflows; 1/3/C_F stays positive for every finite C_F.
    radius = 1.0 / 3.0 / params.c_f
    # T0 = 1 lies at sup distance 1 from the nonpositive tensors, where F =
    # sqrt is undefined; a larger target radius admits targets there.
    if radius > 1.0:
        raise NeighborhoodViolation(
            f"C_F = {params.c_f:g} < 1/3: the target radius 1/(3 C_F) = "
            f"{radius:.6g} exceeds 1, the center's distance to the nonpositive "
            f"tensors, where F = sqrt is undefined", measured=radius, radius=1.0)
    wave = oscillator(t_amplitude, params.lam, phase=-math.pi / 2,
                      n_points=params.n_points)
    target = center
    if t_amplitude != 0.0:
        try:
            with np.errstate(over="raise", invalid="raise"):
                target = center + mollify(wave, params.ell)
        except FloatingPointError as exc:
            raise NeighborhoodViolation(
                f"the target is not finite at amplitude {t_amplitude:g}; "
                f"reduce the amplitude", measured=math.inf, radius=radius) from exc
    distance = (target - center).sup()
    if distance >= radius:
        raise NeighborhoodViolation(
            f"||T - T0||_0 = {distance:.6g} >= 1/(3 C_F) = {radius:.6g}; "
            f"reduce the amplitude or enlarge ell", measured=distance, radius=radius)
    modulation = oscillator(1.0, params.lam, n_points=params.n_points)
    remainder = RemainderSpec(terms=stock_remainder_terms(), lam=params.lam,
                              ell=params.ell, modulation=modulation, drift=drift)
    inverse_map, bilinear_map = _toy_maps(copies, drift, params.lambda_ell)
    _check_right_inverse(params, center, radius, inverse_map, bilinear_map)
    return ProblemInstance(
        target=target,
        center=center,
        bilinear_map=bilinear_map,
        inverse_map=inverse_map,
        remainder=remainder,
        params=params,
        target_norms=ck_norm(target, params.norm_order(0)),
    )


def make_scalar_toy(params: IterationParams, t_amplitude: float = 0.2) -> ProblemInstance:
    """Scalar toy: b(a, a) = a^2, F = sqrt near T0 = 1, stock remainder
    r1 + r2 + r3 + r4 modulated by cos(lam x)."""
    return _make_toy(params, t_amplitude, drift=0.0, copies=1)


def make_varying_toy(params: IterationParams, drift: float,
                     t_amplitude: float = 0.2) -> ProblemInstance:
    """Step-varying family: the inverse gains a factor 1 + drift/(lam*ell)^i
    (with the bilinear map compensating, so each step stays an exact
    right-inverse pair) and the remainder drifts at the same decaying rate."""
    return _make_toy(params, t_amplitude, drift=drift, copies=1)


def make_two_component_toy(params: IterationParams, t_amplitude: float = 0.2,
                           drift: float = 0.0) -> ProblemInstance:
    """Two-component variant: b(a, a) = a1^2 + a2^2 with F splitting the
    tensor equally between components, held as the common component a1 = a2
    (see _toy_maps)."""
    return _make_toy(params, t_amplitude, drift=drift, copies=2)


def with_self_interaction(instance: ProblemInstance, strength: float) -> ProblemInstance:
    """Append the self-interaction term strength/(lam*ell) cos(lam x) (da) a."""
    if strength < 0:
        raise ValueError(f"strength must be >= 0, got {strength}")
    if strength == 0.0:
        return instance
    terms = instance.remainder.terms + (self_interaction_term(strength),)
    return replace(instance, remainder=replace(instance.remainder, terms=terms))
