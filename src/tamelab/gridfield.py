"""Periodic grid fields with spectral calculus.

Everything lives on the circle [0, 2*pi), sampled on a uniform grid with no
duplicated endpoint.  Derivatives and smoothing act in Fourier space, so they
are exact for trigonometric polynomials the grid resolves.  Fields are real,
so every transform is a real one (rfft/irfft over modes 0..n/2).  C^k norms
are running maxima of derivative sups over the grid samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

PERIOD = 2.0 * np.pi

# Samples-per-frequency safety factor of the resolution rule, points_needed;
# other modules read the rule through it.
RESOLUTION_FACTOR = 8

# Largest grid that validation accepts and refine() produces, and the top
# frequency that it resolves.
MAX_SAMPLES = 1 << 22
MAX_FREQUENCY = MAX_SAMPLES // RESOLUTION_FACTOR

# Relative floor below which spectral coefficients are treated as rounding
# dust.  Differentiation amplifies mode m by m^order, so dust at the grid's
# top modes would otherwise swamp high-order derivatives of band-limited
# fields; zeroing it keeps spectral calculus exact for the resolved band.
SPECTRAL_DUST = 1e-13

# Most real samples (over all rows) one batched transform call takes: the
# right-inverse self-check and FieldSpectrum.norms split their rows into
# calls of at most this size, and so do the class audit's norm calls,
# whose chunks of samples hold terms of up to three times this many samples
# (verify.TERM_BLOCK_BYTES).  Such calls allocate and free no array of 3 MB
# or more, whose release would move glibc's mmap threshold and with it the
# speed of every later large transform in the process.  It also sizes the
# transform workspace (_workspace), which every norm call up to this size
# reuses.
BATCH_POINTS = 1 << 16

# Most output points one BLAS product of trig_rows computes.  A
# 65536-point row in one product is a 256 x 256 x 16 gemm, which OpenBLAS
# splits over worker threads: with default threads on a 2-vCPU host it took
# about 360 us, and four times the CPU time, where the capped products take
# about 100 us.  The bits do not change.
MATMUL_POINTS = 1 << 13


# The ValueError message of a field holding NaN or +-inf.
NON_FINITE = "samples contain non-finite values"


class IncompatibleGrids(ValueError):
    """Fields do not share n_points."""


class ResolutionError(ValueError):
    """Requested frequency or derivative order exceeds what the grid resolves."""


def points_needed(frequency: int, k: int = 0) -> int:
    """The resolution rule: the fewest grid points that resolve a field at
    frequency normed up to order k."""
    return RESOLUTION_FACTOR * frequency * (k + 1)


def check_resolution(subject: str, n_points: int, needed: int) -> None:
    """The one resolution refusal: ResolutionError naming subject, n_points
    and the needed size when n_points is below it."""
    if n_points < needed:
        raise ResolutionError(f"{subject} unresolved at n_points={n_points}: "
                              f"need n_points >= {needed}")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled on a uniform periodic grid, made from its
    samples alone: one finite row whose length, n_points, is a power of two,
    held as a contiguous read-only float64 array.  Instances are immutable;
    + and - of fields on one grid are the only arithmetic."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples shape {arr.shape} != expected (n_points,)")
        if not _is_power_of_two(len(arr)):
            raise ValueError(f"n_points must be a power of two, got {len(arr)}")
        if not np.isfinite(arr).all():
            raise ValueError(NON_FINITE)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n_points(self) -> int:
        return len(self.samples)

    @classmethod
    def constant(cls, value: float, n_points: int) -> "GridFunction":
        return cls(np.full(n_points, float(value)))

    def sup(self) -> float:
        return float(row_sups(self.samples))

    # The only arithmetic (strict: equal grids).
    def __add__(self, other: "GridFunction") -> "GridFunction":
        check_grids(other, self)
        return GridFunction(other.samples + self.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        check_grids(other, self)
        return GridFunction(self.samples - other.samples)


def coordinates(n_points: int) -> np.ndarray:
    """Grid coordinates x_j = 2*pi*j/n_points."""
    return PERIOD * np.arange(n_points) / n_points


def row_sups(x: np.ndarray) -> np.ndarray:
    """max |x| along the last axis, without an |x| temporary: the one sup,
    which GridFunction.sup and finite_sup read as float(row_sups(x)).  The
    +0.0 turns a -0.0 maximum into +0.0, so zeros never print as -0; NaN in
    a row gives NaN, and +-inf inf.  The ufunc reductions skip ndarray.max's
    Python wrapper, about 1.5 us per call on the one-field norms path."""
    return np.maximum(np.maximum.reduce(x, axis=-1), -np.minimum.reduce(x, axis=-1)) + 0.0


def finite_sup(x: np.ndarray) -> float:
    """float(row_sups(x)) of 1-D samples no GridFunction holds, with the
    finiteness check a GridFunction of them would make: NaN or +-inf in x
    makes the sup non-finite, and that raises the same ValueError."""
    s = float(row_sups(x))
    if not math.isfinite(s):
        raise ValueError(NON_FINITE)
    return s


def clean_spectra(samples: np.ndarray) -> np.ndarray:
    """Half spectra (rfft modes 0..n/2 along the last axis) of samples, one
    field or a stack of them, (..., n_points), with the coefficients below
    SPECTRAL_DUST of the peak of their own row zeroed.  The rows go through
    rfft calls of at most BATCH_POINTS samples, and at least one row."""
    n = samples.shape[-1]
    spec = np.empty(samples.shape[:-1] + (n // 2 + 1,), dtype=complex)
    rows, out = samples.reshape(-1, n), spec.reshape(-1, n // 2 + 1)
    per_call = max(1, BATCH_POINTS // n)
    for batch in (slice(i, i + per_call) for i in range(0, len(rows), per_call)):
        np.fft.rfft(rows[batch], axis=-1, out=out[batch])
    mags = np.abs(spec)
    spec[mags < SPECTRAL_DUST * mags.max(axis=-1, keepdims=True)] = 0.0
    return spec


def top_finite_order(n_points: int) -> int:
    """The top derivative order whose multiplier (n_points/2)^k is finite."""
    return 1023 // max(1, n_points.bit_length() - 2)


# One derivative multiplier block per grid size (see _order_block).
_ORDER_BLOCKS: dict[int, np.ndarray] = {}


def _order_block(n_points: int, k_max: int) -> np.ndarray:
    """Row k - 1 is the derivative multiplier of order k = 1..k_max over the
    rfft modes m = 0..n_points/2; read-only.  Odd orders drop the Nyquist
    mode, which has no consistent odd derivative (Trefethen, Spectral
    Methods in MATLAB, ch. 3).  Grids that stack orders in one call (2 *
    n_points <= BATCH_POINTS) hold the complex (i m)^k, which spares the
    products numpy's buffered real-to-complex cast; larger grids hold the
    real (-1)^(k // 2) m^k, half the bytes, and _derivative_spectra
    multiplies odd products by 1j.  Both give the same samples up to the
    sign of zeros, and NaN samples from a spectrum holding inf.

    One block per n_points, rebuilt taller when a higher order is asked
    for, so it grows with the top order asked, not with the distinct k_max.
    The rebuild refuses an order above top_finite_order before it allocates.
    """
    block = _ORDER_BLOCKS.get(n_points)
    if block is None or len(block) < k_max:
        if k_max > (top := top_finite_order(n_points)):
            raise ResolutionError(f"derivative order {k_max} overflows at n_points="
                                  f"{n_points}: (n_points/2)^k is finite to order {top}")
        stacks = 2 * n_points <= BATCH_POINTS
        m = np.arange(n_points // 2 + 1, dtype=np.float64)
        block = np.empty((k_max, len(m)), dtype=complex if stacks else np.float64)
        for k in range(1, k_max + 1):
            row = (1.0, -1.0)[k // 2 % 2] * m ** k
            if k % 2 == 1:
                row[-1] = 0.0
            block[k - 1] = row * 1j if stacks and k % 2 == 1 else row
        block.flags.writeable = False
        _ORDER_BLOCKS[n_points] = block
    return block[:k_max]


def _derivative_spectra(spectra: np.ndarray, n_points: int, orders: Sequence[int],
                        out: Optional[np.ndarray] = None, top: int = 0) -> np.ndarray:
    """The half spectra of the derivatives of the given orders, ascending,
    of a (rows, n_points/2 + 1) stack of clean_spectra: (rows, len(orders),
    n_points/2 + 1), in out when given.  The one reader of _order_block; a
    caller that goes on to higher orders passes the highest as top, so the
    cache is built to it at once, not one row per call."""
    mults = _order_block(n_points, max(top, orders[-1]))[orders[0] - 1:orders[-1]]
    if len(mults) > len(orders):  # a run with a gap
        mults = mults[np.subtract(orders, orders[0])]
    product = np.multiply(spectra[:, np.newaxis], mults, out=out)
    if mults.dtype != complex:
        for j, k in enumerate(orders):
            if k % 2 == 1:
                product[:, j] *= 1j
    return product


@functools.cache
def _workspace() -> tuple[np.ndarray, np.ndarray]:
    """The transform workspace: the half spectra and the inverses of
    BATCH_POINTS samples, in rows of 2 * RESOLUTION_FACTOR points or more
    (the smallest grid that norms an order), made on first use and never
    freed or regrown, for _order_sups' calls of at most BATCH_POINTS
    samples.  No view of either leaves this module, and each such call
    overwrites both, so they are not thread-safe."""
    half = BATCH_POINTS // 2 + BATCH_POINTS // (2 * RESOLUTION_FACTOR)
    return np.empty(half, dtype=complex), np.empty(BATCH_POINTS)


def _order_sups(spectra: np.ndarray, n_points: int, orders: Sequence[int]) -> np.ndarray:
    """sup |d^k f|, (rows, len(orders)), for each row f of a stack of
    clean_spectra and each of the ascending orders, inverted in runs of
    BATCH_POINTS // (n_points * rows) orders, and at least one, per irfft.
    FieldSpectrum.norms passes batches of rows whose every order fits one
    such call, or one row.
    A call of at most BATCH_POINTS samples takes the transform workspace,
    so it faults in no fresh pages; a larger one (one order of a row over
    BATCH_POINTS points) takes a fresh product and output."""
    rows = len(spectra)
    sups = np.empty((rows, len(orders)))
    per_call = max(1, BATCH_POINTS // (n_points * rows))
    for j in range(0, len(orders), per_call):
        run = orders[j:j + per_call]
        product = out = None
        if rows * len(run) * n_points <= BATCH_POINTS:
            product, out = _workspace()
            product = product[:rows * len(run) * (n_points // 2 + 1)]
            product = product.reshape(rows, len(run), -1)
            out = out[:rows * len(run) * n_points].reshape(rows, len(run), -1)
        product = _derivative_spectra(spectra, n_points, run, product, orders[-1])
        d = np.fft.irfft(product, n_points, axis=-1, out=out)
        sups[:, j:j + len(run)] = row_sups(d)
    return sups


@dataclass(frozen=True)
class NormVector:
    """Estimated C^k sup norms: values[k] = max_{j <= k} sup |d^j f|."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("NormVector needs at least the k=0 entry")
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValueError(f"norms must be finite and nonnegative: {vals}")
        if any(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
            raise ValueError(f"norms must be nondecreasing in k: {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


class FieldSpectrum:
    """The cleaned half spectra of one field or a stack of them, (...,
    n_points), and the derivatives and C^k norms read from them: norms is
    the one norm method, for one field or a stack, and ck_norm its
    validated view of one field.

    samples is a sample array, a field's samples or a stack of rows.  The
    spectra are given (clean_spectra of samples; the holder makes the given
    array read-only) or taken on first use.
    Each derivative order is computed once and kept, so callers that
    differentiate and norm the same fields transform them once.  It keeps
    every order asked for alive, so it should live no longer than its
    fields' use.
    """

    def __init__(self, samples: np.ndarray, spectrum: Optional[np.ndarray] = None):
        self.samples, self.n_points = samples, samples.shape[-1]
        if spectrum is not None:
            spectrum.flags.writeable = False
        self._spectrum = spectrum
        self._derivatives: dict[int, np.ndarray] = {}

    def spectrum(self) -> np.ndarray:
        """The samples' clean_spectra, given or taken on first use and kept;
        read-only."""
        if self._spectrum is None:
            self._spectrum = clean_spectra(self.samples)
            self._spectrum.flags.writeable = False
        return self._spectrum

    def derivative(self, order: int) -> np.ndarray:
        """The samples of d^order of every row, computed once and kept,
        read-only; order 0 is the samples themselves, as given, and a
        negative order raises ValueError.  Each order takes one product and
        one irfft call for the whole stack.

        Exact (to rounding) for trigonometric polynomials resolved by the
        grid; the caller is responsible for the fields being band-limited,
        and for checking the finiteness of what it keeps.
        """
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if order == 0:
            return self.samples
        if order not in self._derivatives:
            spec = self.spectrum()
            product = _derivative_spectra(spec.reshape(-1, spec.shape[-1]),
                                          self.n_points, (order,))[:, 0]
            d = np.fft.irfft(product, self.n_points, axis=-1).reshape(self.samples.shape)
            d.flags.writeable = False
            self._derivatives[order] = d
        return self._derivatives[order]

    def norms(self, k_max: int) -> np.ndarray:
        """Norms ||f||_0 .. ||f||_k_max of every row f, (..., k_max + 1),
        each the running max of the derivative sups up to order k,
        unvalidated: a non-finite sup stays in it, and a NaN one spreads to
        every higher order.  Orders kept by derivative are read, not
        recomputed; the orders computed here are not kept.

        The missing orders go to _order_sups in batches of as many rows as
        keep their inverse within BATCH_POINTS samples, and at least one:
        one irfft for up to 32 orders of a 2048-point field, one per order
        at 65536.  Each batch reads the holder's spectra.  When the stack
        takes more than one batch and holds none, each batch takes its own
        spectra and drops them, so no spectrum of the whole stack is made.

        A negative k_max raises ValueError, and n_points below
        points_needed(1, k_max) ResolutionError; experiments at frequency
        lam must keep points_needed(lam, k_max), checked where lam is known:
        the CLI's config checks and verify.audit_classes.
        """
        n = self.n_points
        if k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {k_max}")
        check_resolution(f"norm order {k_max}", n, points_needed(1, k_max))
        rows = self.samples.reshape(-1, n)
        norms = np.empty((len(rows), k_max + 1))
        norms[:, 0] = row_sups(rows)
        for k, d in self._derivatives.items():
            if k <= k_max:
                norms[:, k] = row_sups(d.reshape(-1, n))
        missing = [k for k in range(1, k_max + 1) if k not in self._derivatives]
        if missing:
            per_batch = max(1, BATCH_POINTS // (n * len(missing)))
            spectra = (None if self._spectrum is None and per_batch < len(rows)
                       else self.spectrum().reshape(-1, n // 2 + 1))
            for start in range(0, len(rows), per_batch):
                batch = slice(start, start + per_batch)
                spec = clean_spectra(rows[batch]) if spectra is None else spectra[batch]
                norms[batch, missing] = _order_sups(spec, n, missing)
        return np.maximum.accumulate(norms, axis=1).reshape(
            self.samples.shape[:-1] + (k_max + 1,))

    def ck_norm(self, k_max: int) -> NormVector:
        """The norms of one field as a NormVector, which raises ValueError
        for a non-finite one, as from a derivative that overflowed; a stack
        raises ValueError (its rows are normed by norms)."""
        if self.samples.ndim != 1:
            raise ValueError(f"ck_norm norms one field, not a stack of shape "
                             f"{self.samples.shape}; use norms")
        return NormVector(tuple(self.norms(k_max).tolist()))


def derivative(f: GridFunction, order: int = 1) -> GridFunction:
    """Spectral derivative d^order/dx^order (see FieldSpectrum.derivative)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return GridFunction(FieldSpectrum(f.samples).derivative(order))


def ck_norm(f: GridFunction, k_max: int) -> NormVector:
    """Norms ||f||_0 .. ||f||_k_max (see FieldSpectrum.ck_norm)."""
    return FieldSpectrum(f.samples).ck_norm(k_max)


def mollify(f: GridFunction, ell: float) -> GridFunction:
    """Smooth with a periodized Gaussian of width ell.

    Implemented as the Fourier multiplier exp(-(|m| ell)^2 / 2) on mode m, so
    the kernel has unit mass and constants pass through unchanged.
    """
    if not 0 < ell < PERIOD:
        raise ValueError(f"ell must lie in (0, {PERIOD:.6g}), got {ell}")
    # Not clean_spectra: the target's bits come from smoothing every mode
    # of this uncleaned spectrum.
    spec = np.fft.rfft(f.samples)
    m = np.arange(f.n_points // 2 + 1)
    out = np.fft.irfft(spec * np.exp(-0.5 * m ** 2 * ell * ell), f.n_points)
    return GridFunction(out)


def oscillator(amplitude: float, frequency: int, phase: float = 0.0,
               *, n_points: int) -> GridFunction:
    """amplitude * cos(frequency * x + phase) as a GridFunction; a grid of
    fewer than points_needed(frequency) points raises ResolutionError."""
    if frequency != int(frequency) or frequency < 1:
        raise ValueError(f"frequency must be a positive integer, got {frequency}")
    frequency = int(frequency)
    check_resolution(f"frequency {frequency}", n_points, points_needed(frequency))
    values = amplitude * np.cos(frequency * coordinates(n_points) + phase)
    return GridFunction(values)


def check_grids(x, y) -> None:
    """Raise IncompatibleGrids unless x and y, fields or FieldSpectrum
    holders, share a grid, as sums and pointwise products need."""
    if x.n_points != y.n_points:
        raise IncompatibleGrids(f"grids differ: n_points {x.n_points}/{y.n_points}")


@functools.lru_cache(maxsize=16)
def _angle_tables(n_points: int,
                  max_mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables that evaluate modes 1..max_mode on the grid by angle
    addition.  Grid point j = q*R + r sits at x_j = phi_q + theta_r with
    phi_q = 2*pi*q*R/n and theta_r = 2*pi*r/n, R a power of two near
    sqrt(n_points) that divides it.  Returns cos(m phi_q) and sin(m phi_q),
    each (n_points/R, max_mode), and [cos(m theta_r); sin(m theta_r)],
    (2*max_mode, R).  Angles are reduced mod n before scaling, so each entry
    is the rounded value at its exact angle.
    """
    block = math.gcd(n_points, 1 << (n_points.bit_length() // 2))
    modes = np.arange(1, max_mode + 1)

    def angles(steps):
        return (PERIOD / n_points) * (np.multiply.outer(steps, modes) % n_points)

    phi = angles(np.arange(0, n_points, block))
    theta = angles(np.arange(block)).T
    tables = (np.cos(phi), np.sin(phi), np.concatenate([np.cos(theta), np.sin(theta)]))
    for table in tables:
        table.flags.writeable = False
    return tables


def trig_coefficients(rng: np.random.Generator, count: int = 1,
                      max_mode: int = 8) -> np.ndarray:
    """count rows of uniform[-1, 1] coefficients of modes 1..max_mode,
    (count, max_mode, 2), cosine then sine, drawn as (row, mode, cos/sin)
    in that nesting order by one uniform call, so count rows consume the
    generator as count one-row draws do."""
    return rng.uniform(-1.0, 1.0, size=(count, max_mode, 2))


def trig_rows(coefficients: np.ndarray, n_points: int,
              normalize: bool = False) -> np.ndarray:
    """The trigonometric polynomials sum_m c[m, 0] cos(m x) + c[m, 1] sin(m x)
    of a (count, max_mode, 2) stack of trig_coefficients, as the contiguous
    rows of a (count, n_points) array; the one reader of _angle_tables.

    Each row is evaluated in grid order by angle addition (see
    _angle_tables), as the real product (n/R x 2 max_mode) @ (2 max_mode x
    R), taken in stacked blocks of at most MATMUL_POINTS outputs: 4
    max_mode flops per point and no transform.  A row's bits do not depend
    on the rows stacked with it.  With normalize, one row_sups pass scales
    every row of nonzero sup s by 1/s, the float operations of one field's
    samples * (1.0 / s), and leaves a zero row as it is, without a warning.
    """
    count, max_mode = coefficients.shape[:2]
    check_resolution(f"max_mode {max_mode}", n_points, 2 * max_mode)
    cos_phi, sin_phi, theta = _angle_tables(n_points, max_mode)
    a = coefficients[:, np.newaxis, :, 0]
    b = coefficients[:, np.newaxis, :, 1]
    # a cos(m x) + b sin(m x) = Re[(a - ib) e^{im phi}] cos(m theta)
    #                           - Im[(a - ib) e^{im phi}] sin(m theta).
    # At the Nyquist mode sin(m x) vanishes on the grid; b's term there is
    # rounding only.
    left = np.concatenate([a * cos_phi + b * sin_phi, b * cos_phi - a * sin_phi],
                          axis=-1)
    per_block = min(len(cos_phi), max(1, MATMUL_POINTS // theta.shape[1]))
    blocks = left.reshape(count, -1, per_block, 2 * max_mode)
    rows = np.matmul(blocks, theta).reshape(count, n_points)
    if normalize:
        sups = row_sups(rows)
        rows *= np.divide(1.0, sups, out=np.ones_like(sups),
                          where=sups > 0)[:, np.newaxis]
    return rows


def random_trig_polynomial(rng: np.random.Generator, n_points: int,
                           max_mode: int = 8, normalize: bool = True) -> GridFunction:
    """Random low-mode trigonometric polynomial, optionally with sup norm 1.

    It is the one trig_rows row of one trig_coefficients draw; low modes
    keep every norm grid-exact regardless of the experiment scale.  The
    class audit and the right-inverse self-check draw the same rows in
    stacks, through the same two functions.
    """
    return GridFunction(trig_rows(trig_coefficients(rng, 1, max_mode),
                                  n_points, normalize)[0])


def refine(f: GridFunction, factor: int) -> GridFunction:
    """Resample onto a factor-times finer grid via spectral zero padding.

    Exact band-limited interpolation: values at the original grid points are
    preserved (the coarse grid is a subset of the refined one), so refined
    sups dominate coarse sups.
    """
    if factor < 2 or not _is_power_of_two(factor):
        raise ValueError(f"refinement factor must be a power of two >= 2, got {factor}")
    n = f.n_points
    n_new = factor * n
    if n_new > MAX_SAMPLES:
        raise ResolutionError(
            f"refined grid too large: {n_new} samples exceeds the "
            f"{MAX_SAMPLES} guard")
    padded = np.zeros(n_new // 2 + 1, dtype=complex)
    padded[:n // 2 + 1] = clean_spectra(f.samples)
    # The coarse Nyquist bin stands for the +n/2 and -n/2 modes together;
    # halved, it becomes one interior mode whose Hermitian partner irfft
    # supplies, so the samples are interpolated exactly.
    padded[n // 2] *= 0.5
    out = np.fft.irfft(padded, n_new) * factor
    return GridFunction(out)
