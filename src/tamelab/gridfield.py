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

# Samples-per-frequency safety factor behind every resolution check: an
# experiment at frequency lam reporting norms up to order k needs
# n_points >= RESOLUTION_FACTOR * lam * (k + 1).
RESOLUTION_FACTOR = 8

# Largest grid that validation accepts and refine() produces.
MAX_SAMPLES = 1 << 22

# Relative floor below which spectral coefficients are treated as rounding
# dust.  Differentiation amplifies mode m by m^order, so dust at the grid's
# top modes would otherwise swamp high-order derivatives of band-limited
# fields; zeroing it keeps spectral calculus exact for the resolved band.
SPECTRAL_DUST = 1e-13

# Most real samples (over all rows) one batched transform call takes: the
# right-inverse self-check and the norms (_order_sups) split their rows
# into calls of at most this size.  Such calls allocate and free no
# array of 3 MB or more, whose release would move glibc's mmap threshold
# and with it the speed of every later large transform in the process.
# It also sizes the transform workspace (_workspace): one row's half
# spectrum and inverse, so grids up to this size reuse it.
BATCH_POINTS = 1 << 16

# Most output points one BLAS product of random_trig_rows computes.  A
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


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled on a uniform periodic grid.

    samples has shape (n_points,).  Instances are immutable; all operations
    return new fields.
    """

    n_points: int
    samples: np.ndarray

    def __post_init__(self):
        if not _is_power_of_two(self.n_points):
            raise ValueError(f"n_points must be a power of two, got {self.n_points}")
        expected = (self.n_points,)
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.shape != expected:
            raise ValueError(f"samples shape {arr.shape} != expected {expected}")
        if not np.isfinite(arr).all():
            raise ValueError(NON_FINITE)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "GridFunction":
        arr = np.asarray(samples, dtype=np.float64)
        return cls(n_points=len(arr), samples=arr)

    @classmethod
    def constant(cls, value: float, n_points: int) -> "GridFunction":
        return cls(n_points, np.full(n_points, float(value)))

    @classmethod
    def zeros(cls, n_points: int) -> "GridFunction":
        return cls.constant(0.0, n_points)

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(self.n_points, samples)

    def sup(self) -> float:
        return _sup(self.samples)

    # Convenience arithmetic (strict: equal grids).
    def __add__(self, other: "GridFunction") -> "GridFunction":
        return axpy(1.0, other, self)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return axpy(-1.0, other, self)

    def __neg__(self) -> "GridFunction":
        return self.with_samples(-self.samples)

    def __mul__(self, alpha: float) -> "GridFunction":
        return scale(alpha, self)

    __rmul__ = __mul__


def coordinates(n_points: int) -> np.ndarray:
    """Grid coordinates x_j = 2*pi*j/n_points."""
    return PERIOD * np.arange(n_points) / n_points


def _sup(x: np.ndarray) -> float:
    """max |x| without an |x| temporary.  Adding +0.0 turns a -0.0 maximum
    into +0.0, so an all-zero field never reports (or prints) -0."""
    return float(max(x.max(), -x.min())) + 0.0


def finite_sup(x: np.ndarray) -> float:
    """max |x| of samples no GridFunction holds, with the finiteness check
    a GridFunction of them would make: NaN or +-inf anywhere in x makes the
    sup non-finite, and that raises the same ValueError."""
    s = _sup(x)
    if not math.isfinite(s):
        raise ValueError(NON_FINITE)
    return s


def row_sups(x: np.ndarray) -> np.ndarray:
    """max |x| along the last axis, without an |x| temporary; zeros come
    out +0.0, as in _sup."""
    return np.maximum(x.max(axis=-1), -x.min(axis=-1)) + 0.0


def clean_spectra(samples: np.ndarray) -> np.ndarray:
    """Half spectra (rfft modes 0..n/2 along the last axis) of samples, one
    field or a (fields, n_points) stack, with the coefficients below
    SPECTRAL_DUST of the peak of their own row zeroed."""
    spec = np.fft.rfft(samples, axis=-1)
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
    """The transform workspace: a complex half spectrum and a real inverse
    of one BATCH_POINTS-point row, made on first use and never freed or
    regrown, for _order_sups' calls of one row and one order.  No view of
    either leaves this module, and each such call overwrites both, so they
    are not thread-safe."""
    return np.empty(BATCH_POINTS // 2 + 1, dtype=complex), np.empty(BATCH_POINTS)


def _order_sups(spectra: np.ndarray, n_points: int, orders: Sequence[int]) -> np.ndarray:
    """sup |d^k f|, (rows, len(orders)), for each row f of a stack of
    clean_spectra and each of the ascending orders, inverted in runs of
    BATCH_POINTS // (n_points * rows) orders, and at least one, per irfft.
    A call of one row and one order takes the transform workspace; every
    other call takes a fresh product and output."""
    rows = len(spectra)
    sups = np.empty((rows, len(orders)))
    per_call = max(1, BATCH_POINTS // (n_points * rows))
    for j in range(0, len(orders), per_call):
        run = orders[j:j + per_call]
        product = out = None
        if rows == len(run) == 1 and n_points <= BATCH_POINTS:
            product, out = _workspace()
            product = product[:n_points // 2 + 1].reshape(1, 1, -1)
            out = out[:n_points].reshape(1, 1, -1)
        product = _derivative_spectra(spectra, n_points, run, product, orders[-1])
        d = np.fft.irfft(product, n_points, axis=-1, out=out)
        sups[:, j:j + len(run)] = row_sups(d)
    return sups


def _check_orders(n_points: int, k_max: int) -> None:
    """Refuse norm orders 0..k_max that n_points cannot resolve."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if RESOLUTION_FACTOR * (k_max + 1) > n_points:
        raise ResolutionError(
            f"k_max={k_max} not resolvable at n_points={n_points}: need "
            f"n_points >= {RESOLUTION_FACTOR * (k_max + 1)} "
            f"(= {RESOLUTION_FACTOR} * (k_max + 1))")


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
    """One field's cleaned half spectrum, taken on first use, and the
    derivatives and C^k norms read from it.

    Each derivative order is computed once and kept, so callers that
    differentiate and norm the same field transform it once.  It keeps every
    order asked for alive, so it should live no longer than its field's use.
    """

    def __init__(self, field: GridFunction):
        self.field = field
        self._spectrum: Optional[np.ndarray] = None
        self._derivatives: dict[int, GridFunction] = {}

    def spectrum(self) -> np.ndarray:
        """The field's clean_spectra, taken on first use and kept; read-only."""
        if self._spectrum is None:
            self._spectrum = clean_spectra(self.field.samples)
            self._spectrum.flags.writeable = False
        return self._spectrum

    def derivative(self, order: int) -> GridFunction:
        """d^order f, computed once and kept; order 0 is the field itself.

        Exact (to rounding) for trigonometric polynomials resolved by the
        grid; the caller is responsible for the field being band-limited.
        """
        if order == 0:
            return self.field
        if order not in self._derivatives:
            n = self.field.n_points
            spectra = _derivative_spectra(self.spectrum()[np.newaxis], n, (order,))
            samples = np.fft.irfft(spectra[0, 0], n)
            self._derivatives[order] = self.field.with_samples(samples)
        return self._derivatives[order]

    def ck_norm(self, k_max: int) -> NormVector:
        """Norms ||f||_0 .. ||f||_k_max, each the max derivative sup up to
        order k.  Orders kept by derivative are read, not recomputed; the
        orders computed here are not kept.

        The missing orders go to _order_sups as one row (one irfft for up to
        32 orders at 2048 points, one per order at 65536).  The running max
        keeps a NaN sup, so a derivative that overflowed raises ValueError.

        Refuses when RESOLUTION_FACTOR * (k_max + 1) exceeds n_points;
        experiments at frequency lam must additionally keep n_points >=
        RESOLUTION_FACTOR * lam * (k_max + 1) (enforced where lam is known:
        the CLI's config checks and verify.audit_classes).
        """
        n = self.field.n_points
        _check_orders(n, k_max)
        sups = {k: _sup(d.samples) for k, d in self._derivatives.items()
                if k <= k_max}
        missing = [k for k in range(1, k_max + 1) if k not in sups]
        if missing:
            found = _order_sups(self.spectrum()[np.newaxis], n, missing)
            sups.update(zip(missing, found[0].tolist()))
        values = [self.field.sup()] + [sups[k] for k in range(1, k_max + 1)]
        return NormVector(tuple(np.maximum.accumulate(values).tolist()))


def derivative(f: GridFunction, order: int = 1) -> GridFunction:
    """Spectral derivative d^order/dx^order (see FieldSpectrum.derivative)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return FieldSpectrum(f).derivative(order)


def ck_norm(f: GridFunction, k_max: int) -> NormVector:
    """Norms ||f||_0 .. ||f||_k_max (see FieldSpectrum.ck_norm)."""
    return FieldSpectrum(f).ck_norm(k_max)


def norm_batch_rows(n_points: int, k_max: int) -> int:
    """Rows ck_norms transforms per call: as many as keep the inverse of
    every order 1..k_max at or below BATCH_POINTS samples, and at least one."""
    return max(1, BATCH_POINTS // (n_points * max(k_max, 1)))


def ck_norms(rows: np.ndarray, k_max: int,
             spectra: Optional[np.ndarray] = None) -> np.ndarray:
    """Norms 0..k_max of each row of a (fields, n_points) array of samples:
    out[i] holds, bit for bit, the values of ck_norm(row i as a field,
    k_max).  spectra, when given, holds the rows' clean_spectra, which are
    then read instead of taken again.

    The many-field path.  Rows go through clean_spectra in contiguous
    batches of norm_batch_rows, and each batch's orders through
    _order_sups: one irfft call for every order of a batch, or, for a row
    too long for that, calls of at most BATCH_POINTS samples.
    """
    rows = np.asarray(rows, dtype=np.float64)
    count, n = rows.shape
    _check_orders(n, k_max)
    norms = np.empty((count, k_max + 1))
    norms[:, 0] = row_sups(rows)
    if k_max == 0:
        return norms
    per_batch = norm_batch_rows(n, k_max)
    for start in range(0, count, per_batch):
        batch = slice(start, start + per_batch)
        spec = clean_spectra(rows[batch]) if spectra is None else spectra[batch]
        norms[batch, 1:] = _order_sups(spec, n, range(1, k_max + 1))
    # ck_norm's running max: ||f||_k = max_{j <= k} sup |d^j f|.
    return np.maximum.accumulate(norms, axis=1)


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
    return f.with_samples(out)


def oscillator(amplitude: float, frequency: int, phase: float = 0.0,
               *, n_points: int) -> GridFunction:
    """amplitude * cos(frequency * x + phase) as a GridFunction."""
    if frequency != int(frequency) or frequency < 1:
        raise ValueError(f"frequency must be a positive integer, got {frequency}")
    frequency = int(frequency)
    if RESOLUTION_FACTOR * frequency > n_points:
        raise ResolutionError(
            f"frequency {frequency} unresolved at n_points={n_points}: need "
            f"n_points >= {RESOLUTION_FACTOR * frequency}")
    values = amplitude * np.cos(frequency * coordinates(n_points) + phase)
    return GridFunction(n_points, values)


def check_grids(x: GridFunction, y: GridFunction) -> None:
    """Raise IncompatibleGrids unless x and y share a grid, as sums and
    pointwise products need."""
    if x.n_points != y.n_points:
        raise IncompatibleGrids(f"grids differ: n_points {x.n_points}/{y.n_points}")


def axpy(alpha: float, x: GridFunction, y: GridFunction) -> GridFunction:
    """alpha * x + y, requiring identical grids.

    alpha = +-1 skips the multiply: y + (-x) is y - x exactly."""
    check_grids(x, y)
    if alpha == 1.0:
        return x.with_samples(x.samples + y.samples)
    if alpha == -1.0:
        return x.with_samples(y.samples - x.samples)
    return x.with_samples(alpha * x.samples + y.samples)


def scale(alpha: float, f: GridFunction) -> GridFunction:
    return f.with_samples(alpha * f.samples)


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


def random_trig_rows(rng: np.random.Generator, n_points: int, count: int,
                     max_mode: int = 8) -> np.ndarray:
    """count random low-mode trigonometric polynomials as the contiguous
    rows of a (count, n_points) array.

    Modes 1..max_mode with uniform[-1, 1] sine/cosine coefficients, drawn
    as (row, mode, cos/sin) in that nesting order, so count rows consume
    the generator as count one-row draws do.  Each row is evaluated in grid
    order by angle addition (see _angle_tables), as the real product
    (n/R x 2 max_mode) @ (2 max_mode x R), taken in stacked blocks of at
    most MATMUL_POINTS outputs: 4 max_mode flops per point and no
    transform.
    """
    if max_mode > n_points // 2:
        raise ResolutionError(
            f"max_mode {max_mode} unresolved at n_points={n_points}: need "
            f"n_points >= {2 * max_mode}")
    coeffs = rng.uniform(-1.0, 1.0, size=(count, max_mode, 2))
    cos_phi, sin_phi, theta = _angle_tables(n_points, max_mode)
    a = coeffs[:, np.newaxis, :, 0]
    b = coeffs[:, np.newaxis, :, 1]
    # a cos(m x) + b sin(m x) = Re[(a - ib) e^{im phi}] cos(m theta)
    #                           - Im[(a - ib) e^{im phi}] sin(m theta).
    # At the Nyquist mode sin(m x) vanishes on the grid; b's term there is
    # rounding only.
    left = np.concatenate([a * cos_phi + b * sin_phi, b * cos_phi - a * sin_phi],
                          axis=-1)
    per_block = min(len(cos_phi), max(1, MATMUL_POINTS // theta.shape[1]))
    blocks = left.reshape(count, -1, per_block, 2 * max_mode)
    return np.matmul(blocks, theta).reshape(count, n_points)


def random_trig_polynomial(rng: np.random.Generator, n_points: int,
                           max_mode: int = 8, normalize: bool = True) -> GridFunction:
    """Random low-mode trigonometric polynomial, optionally with sup norm 1.

    It is one random_trig_rows row; low modes keep every norm grid-exact
    regardless of the experiment scale.
    """
    f = GridFunction(n_points, random_trig_rows(rng, n_points, 1, max_mode)[0])
    if normalize:
        s = f.sup()
        if s > 0:
            f = scale(1.0 / s, f)
    return f


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
    return GridFunction(n_new, out)
