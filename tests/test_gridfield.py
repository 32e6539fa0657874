import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamelab import gridfield
from tamelab.cli import main
from tamelab.gridfield import (
    BATCH_POINTS,
    PERIOD,
    RESOLUTION_FACTOR,
    SPECTRAL_DUST,
    FieldSpectrum,
    GridFunction,
    IncompatibleGrids,
    NormVector,
    ResolutionError,
    check_grids,
    ck_norm,
    clean_spectra,
    coordinates,
    derivative,
    _ORDER_BLOCKS,
    _angle_tables,
    _order_block,
    _workspace,
    mollify,
    oscillator,
    random_trig_polynomial,
    refine,
    top_finite_order,
    trig_coefficients,
    trig_rows,
)

HYP = dict(max_examples=25, deadline=None, derandomize=True)

DEFAULT_CFG = str(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")


def grid_x(n):
    return PERIOD * np.arange(n) / n


def sine(freq, n, amplitude=1.0):
    return oscillator(amplitude, freq, phase=-np.pi / 2, n_points=n)


def real_multiplier(n, order):
    """(i m)^order over the rfft modes without the factor i of odd orders:
    the real (-1)^(order // 2) m^order, with the Nyquist mode zeroed for
    odd orders."""
    m = np.arange(n // 2 + 1, dtype=np.float64)
    mult = (1.0, -1.0)[order // 2 % 2] * m ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    return mult


def product(f, g):
    """Pointwise product of two fields on one grid."""
    check_grids(f, g)
    return GridFunction(f.samples * g.samples)


class TestDerivative:
    def test_sin_to_cos(self):
        f = sine(1, 256)
        d = derivative(f)
        expected = np.cos(grid_x(256))
        assert np.max(np.abs(d.samples - expected)) < 1e-12

    def test_constant_derivative_vanishes(self):
        f = GridFunction.constant(3.0, 128)
        assert derivative(f).sup() == 0.0

    def test_second_derivative_oracle(self):
        # oracle: analytic second derivative of sin(7x) evaluated on the grid
        f = sine(7, 256)
        d2 = derivative(f, 2)
        expected = -49.0 * np.sin(7 * grid_x(256))
        assert np.max(np.abs(d2.samples - expected)) < 1e-10

    def test_order_below_one_refused(self):
        with pytest.raises(ValueError, match="order"):
            derivative(sine(1, 64), order=0)

    @given(mode=st.integers(min_value=1, max_value=30),
           order=st.integers(min_value=1, max_value=3))
    @settings(**HYP)
    def test_pure_mode_exact(self, mode, order):
        # tolerance scales with the derivative amplitude mode^order (the
        # analytic reference itself carries argument-reduction rounding)
        n = 512
        f = oscillator(1.0, mode, phase=0.3, n_points=n)
        d = derivative(f, order)
        x = grid_x(n)
        expected = mode ** order * np.cos(mode * x + 0.3 + order * np.pi / 2)
        assert np.max(np.abs(d.samples - expected)) < 1e-12 * (1 + mode ** order)

    @pytest.mark.parametrize("order", range(1, 8))
    def test_highest_interior_mode(self, order):
        # mode n/2 - 1 is the last one with a +m/-m pair below Nyquist
        n = 64
        m = n // 2 - 1
        x = grid_x(n)
        f = GridFunction(np.cos(m * x + 0.3))
        expected = m ** order * np.cos(m * x + 0.3 + order * np.pi / 2)
        err = np.max(np.abs(derivative(f, order).samples - expected))
        assert err < 1e-12 * m ** order

    @pytest.mark.parametrize("order", range(1, 8))
    def test_nyquist_mode(self, order):
        # cos(n/2 x) = (-1)^j on the grid: odd orders give 0 (the Nyquist
        # mode has no consistent odd derivative), even orders the closed form
        n = 64
        x = grid_x(n)
        f = GridFunction(np.cos(n // 2 * x))
        d = derivative(f, order).samples
        if order % 2 == 1:
            assert np.max(np.abs(d)) == 0.0
        else:
            expected = (-1) ** (order // 2) * (n / 2) ** order * np.cos(n // 2 * x)
            assert np.max(np.abs(d - expected)) < 1e-12 * (n / 2) ** order

    @pytest.mark.parametrize("n", [16, 2048, 65536])
    def test_real_multiplier_bits_equal_complex(self, n):
        # Grids that stack orders cache the complex (i m)^k; 65536 points
        # cache the real, signed m^k, half the bytes, and multiply odd
        # products by 1j.  Either way the samples are those of the complex
        # product, with the Nyquist mode (present at n = 16) zeroed for
        # odd k.
        f = random_trig_polynomial(np.random.default_rng(n), n,
                                   max_mode=min(8, n // 2))
        spec = clean_spectra(f.samples)
        m = np.arange(n // 2 + 1)
        field = FieldSpectrum(f)
        for k in range(1, 10):
            mult = (1j * m) ** k
            if k % 2 == 1:
                mult[n // 2] = 0.0
            want = np.fft.irfft(spec * mult, n)
            assert np.array_equal(field.derivative(k), want), k
        cached = _order_block(n, 9)
        assert cached.shape == (9, n // 2 + 1)
        assert cached.dtype == (complex if n < 65536 else np.float64)


class TestMultiplierCache:
    def test_one_block_per_grid_after_runs(self, tmp_path, capsys):
        # A default run and the 65536-point run leave one block per grid:
        # complex where orders stack, real where one order takes a call.
        # The other functools caches of the module hold no multiplier.
        _ORDER_BLOCKS.clear()
        assert main(["run", "--config", DEFAULT_CFG, "--output_dir",
                     str(tmp_path / "small")]) == 0
        assert main(["run", "--config", DEFAULT_CFG, "--set", "lambda=1024",
                     "--set", "ell=0.125", "--set", "n_points=65536",
                     "--output_dir", str(tmp_path / "fine")]) == 0
        blocks = {n: (b.shape, b.dtype, b.nbytes) for n, b in _ORDER_BLOCKS.items()}
        assert blocks == {2048: ((7, 1025), np.dtype(complex), 114800),
                          65536: ((7, 32769), np.dtype(np.float64), 1835064)}
        cached = {name for name, obj in vars(gridfield).items()
                  if hasattr(obj, "cache_info")}
        assert cached == {"_angle_tables", "_workspace"}


def complex_fft_ck_norm(f, k_max):
    """Reference C^k norms through the full complex spectrum: the same dust
    cleaning and odd-order Nyquist rule, one ifft per order."""
    n = f.n_points
    spec = np.fft.fft(f.samples)
    mags = np.abs(spec)
    spec = np.where(mags >= 1e-13 * mags.max(), spec, 0.0)
    modes = np.fft.fftfreq(n, d=1.0 / n)
    values = [f.sup()]
    for k in range(1, k_max + 1):
        mult = (1j * modes) ** k
        if k % 2 == 1:
            mult[n // 2] = 0.0
        d = np.fft.ifft(spec * mult).real
        values.append(max(values[-1], float(np.max(np.abs(d)))))
    return values


def resolved_top_order(n):
    """The top norm order n points resolve, n/8 - 1, capped at the top order
    whose multiplier (n/2)^k is finite: ck_norm refuses every higher order
    (test_overflowed_orders_raise), and above 2048 points a sweep to n/8 - 1
    would take thousands of full-length transforms, where ck_norm takes
    every order above the eighth one per call anyway."""
    return min(n // 8 - 1, int(1023 // math.log2(n // 2)))


def one_order_per_call_ck_norm(f, k_max):
    """Reference C^k norms: one irfft per order of the cleaned spectrum
    times the real multiplier, times 1j for odd orders, with the running
    max of Python floats."""
    n = f.n_points
    spec = clean_spectra(f.samples)
    values = [f.sup()]
    for k in range(1, k_max + 1):
        product = spec * real_multiplier(n, k)
        if k % 2 == 1:
            product *= 1j
        d = np.fft.irfft(product, n)
        values.append(max(values[-1], float(max(d.max(), -d.min())) + 0.0))
    return tuple(values)


class TestCkNorm:
    def test_constant(self):
        norms = ck_norm(GridFunction.constant(-2.5, 128), 4)
        assert norms.values == (2.5,) * 5

    def test_pure_mode_powers(self):
        norms = ck_norm(sine(16, 1024), 3)
        expected = (1.0, 16.0, 256.0, 4096.0)
        assert np.allclose(norms.values, expected, rtol=1e-9)

    def test_refusal_beyond_safe_order(self):
        with pytest.raises(ResolutionError, match="n_points"):
            ck_norm(sine(1, 64), 8)

    def test_monotone_and_component_max(self):
        # Three fields from one stream stand for the former three columns:
        # each norm vector is monotone and starts at its field's sup, and
        # the largest of those is the sup over all their samples.
        rng = np.random.default_rng(3)
        fields = [random_trig_polynomial(rng, 256, normalize=False) for _ in range(3)]
        zeroth = []
        for f in fields:
            norms = ck_norm(f, 4)
            assert all(norms[k + 1] >= norms[k] for k in range(4))
            assert norms[0] == np.max(np.abs(f.samples))
            zeroth.append(norms[0])
        assert max(zeroth) == np.max(np.abs(np.stack([f.samples for f in fields])))

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(**HYP)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        f = random_trig_polynomial(rng, 256, normalize=False)
        g = random_trig_polynomial(rng, 256, normalize=False)
        nf, ng, nsum = ck_norm(f, 3), ck_norm(g, 3), ck_norm(f + g, 3)
        for k in range(4):
            assert nsum[k] <= nf[k] + ng[k] + 1e-9 * (1 + nf[k] + ng[k])

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(**HYP)
    def test_product_bound(self, seed):
        # generous Leibniz-type bound 2^k sum_j binom(k,j) ||f||_j ||g||_{k-j}
        from math import comb
        rng = np.random.default_rng(seed)
        f = random_trig_polynomial(rng, 512, normalize=False)
        g = random_trig_polynomial(rng, 512, normalize=False)
        nf, ng = ck_norm(f, 3), ck_norm(g, 3)
        nprod = ck_norm(product(f, g), 3)
        for k in range(4):
            bound = 2 ** k * sum(comb(k, j) * nf[j] * ng[k - j] for j in range(k + 1))
            assert nprod[k] <= bound * (1 + 1e-9)

    def test_random_poly_vs_refined_oracle(self):
        rng = np.random.default_rng(42)
        f = random_trig_polynomial(rng, 256)
        coarse = ck_norm(f, 3)
        fine = ck_norm(refine(f, 8), 3)
        for k in range(4):
            assert abs(fine[k] - coarse[k]) / fine[k] < 0.01

    @pytest.mark.parametrize("n", [2 ** 11, 2 ** 14])
    def test_matches_complex_fft_reference(self, n):
        rng = np.random.default_rng(n)
        f = random_trig_polynomial(rng, n)
        got = ck_norm(f, 7).values
        want = complex_fft_ck_norm(f, 7)
        for k in range(8):
            assert abs(got[k] - want[k]) <= 1e-12 * want[k]


    def test_held_orders_read_not_recomputed(self, count_fft):
        f = random_trig_polynomial(np.random.default_rng(6), 512)
        spectral = FieldSpectrum(f)
        first = spectral.derivative(1)
        log = count_fft()
        norms = spectral.ck_norm(5)
        # orders 2..5 in one irfft of four rows; order 1 is read
        assert log.calls == {"irfft": 1}
        assert log.rows == {"irfft": 4}
        assert norms.values == ck_norm(f, 5).values
        assert spectral.derivative(1) is first
        assert set(spectral._derivatives) == {1}  # new orders are not kept

    @pytest.mark.parametrize("n", [512, 2048, 8192, 32768, 65536])
    @pytest.mark.parametrize("held", [(), (1,), (2, 5)])
    def test_stacked_orders_equal_one_order_per_call(self, n, held):
        # Norms to the grid's top order, read with the orders in held kept
        # by derivative first, equal bit for bit those of one irfft per
        # order through the real multiplier.
        f = random_trig_polynomial(np.random.default_rng(n), n, normalize=False)
        k_max = resolved_top_order(n)
        spectral = FieldSpectrum(f)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in held:
                spectral.derivative(k)
            got = spectral.ck_norm(k_max).values
            want = one_order_per_call_ck_norm(f, k_max)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert set(spectral._derivatives) == set(held)

    @pytest.mark.parametrize("n, k_max", [(2048, 120), (65536, 72), (65536, 200)])
    def test_overflowed_orders_raise(self, n, k_max):
        # Past the order where (n/2)^k overflows, every derivative would be
        # NaN (0 * inf at the dust-cut modes).  ck_norm, norms of a stack
        # and derivative refuse such an order before the multiplier block is
        # built: no block, no overflow warning (warnings fail the suite).
        # At 65536 points the orders go through the transform workspace.
        # The norms up to the top finite order stay finite.
        f = random_trig_polynomial(np.random.default_rng(n), n)
        top = top_finite_order(n)
        assert top == resolved_top_order(n)
        tracemalloc.start()
        try:
            for call in (ck_norm, lambda f, k: FieldSpectrum(f.samples[np.newaxis]).norms(k),
                         lambda f, k: FieldSpectrum(f).derivative(k)):
                with pytest.raises(ResolutionError, match=f"finite to order {top}$"):
                    call(f, k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert np.isfinite(FieldSpectrum(f.samples[np.newaxis]).norms(top)).all()

    def test_zero_field_norms_are_positive_zero(self):
        for f in (GridFunction.constant(0.0, 64), GridFunction.constant(-0.0, 64)):
            for value in ck_norm(f, 3).values + (f.sup(),):
                assert value == 0.0 and np.copysign(1.0, value) == 1.0


def kept_first_derivative_reference(f):
    """d f from a fresh product and a fresh irfft of the real multiplier,
    then the factor 1j, independent of the module's multiplier cache."""
    product = clean_spectra(f.samples) * real_multiplier(f.n_points, 1)
    product *= 1j
    return np.fft.irfft(product, f.n_points)


class TestWorkspace:
    @pytest.mark.parametrize("n", [2048, 65536])
    def test_kept_derivative_is_not_a_workspace_view(self, n):
        # A kept derivative, taken before and after norms of its own field
        # and of another, keeps its bits and owns its samples.  ck_norm(1)
        # of a fresh field takes one order per call, through the workspace
        # at both sizes; ck_norm(6) does at 65536 points.
        rng = np.random.default_rng(n)
        f, g = (random_trig_polynomial(rng, n) for _ in range(2))
        want = kept_first_derivative_reference(f).tobytes()
        spectral = FieldSpectrum(f)
        before = spectral.derivative(1)
        for k in (6, 1):
            spectral.ck_norm(k)
            FieldSpectrum(g).ck_norm(k)
            FieldSpectrum(f).ck_norm(k)
        later = FieldSpectrum(f)
        later.ck_norm(6)
        after = later.derivative(1)
        FieldSpectrum(g).ck_norm(1)
        for kept in (before, after):
            assert kept.tobytes() == want
            for buffer in _workspace():
                assert not np.shares_memory(kept, buffer)

    @pytest.mark.parametrize("n", [2048, 65536])
    def test_kept_derivative_leaves_workspace_alone(self, n):
        # A kept derivative takes a fresh product and a fresh output, so it
        # reads and writes no shared buffer; only norm-only transforms do.
        f = random_trig_polynomial(np.random.default_rng(n), n)
        FieldSpectrum(f).ck_norm(1)
        before = [buffer.tobytes() for buffer in _workspace()]
        FieldSpectrum(f).derivative(1)
        FieldSpectrum(f).derivative(2)
        assert [buffer.tobytes() for buffer in _workspace()] == before

    def test_buffers_never_regrow(self):
        spec, samples = _workspace()
        assert spec.shape == (BATCH_POINTS // 2 + BATCH_POINTS // (2 * RESOLUTION_FACTOR),)
        assert samples.shape == (BATCH_POINTS,)
        for n in (2048, 32768, 65536):
            f = random_trig_polynomial(np.random.default_rng(n), n)
            FieldSpectrum(f).ck_norm(1)
            FieldSpectrum(f).ck_norm(6)
            now = _workspace()
            assert now[0] is spec and now[1] is samples
        # norms of a stack of one 65536-point row take one order per call in
        # the workspace, which holds the last order's derivative after it.
        FieldSpectrum(f.samples[np.newaxis]).norms(3)
        now = _workspace()
        assert now[0] is spec and now[1] is samples
        assert np.array_equal(samples, derivative(f, 3).samples)

    def test_one_order_norms_allocate_no_row(self):
        # After a warm-up, norms of a 65536-point field whose spectrum is
        # taken allocate no 512 KiB product or output per order: pocketfft's
        # own scratch stays, about 130 KiB, where fresh arrays peak near
        # 1 MiB.  tracemalloc sees numpy's data allocations, independent of
        # the allocator's history in the process.
        f = random_trig_polynomial(np.random.default_rng(5), 65536)
        spectral = FieldSpectrum(f)
        spectral.ck_norm(6)
        tracemalloc.start()
        try:
            spectral.ck_norm(6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024


    @pytest.mark.parametrize("n, count, k_max", [(2048, 8, 4), (2048, 10, 3),
                                                 (16, 4096, 1)])
    def test_stacked_norms_take_the_workspace(self, n, count, k_max):
        # Each call inverts BATCH_POINTS samples, or fewer, in the workspace:
        # no fresh product and output, whose pages the allocator can hand
        # back and fault in again on every call.  Fresh arrays peak at 0.96
        # to 1.3 MiB here; the workspace leaves 130 to 230 KiB.  16 points
        # is the smallest grid that norms an order.
        rows = trig_rows(trig_coefficients(np.random.default_rng(n), count,
                                           max_mode=1), n)
        spectra = clean_spectra(rows)
        want = FieldSpectrum(rows, spectra).norms(k_max)
        tracemalloc.start()
        try:
            got = FieldSpectrum(rows, spectra).norms(k_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.stack([ck_norm(GridFunction(row),
                                                  k_max).values for row in rows]).tobytes()
        assert peak <= 384 * 1024


class TestCleanSpectrum:
    def test_matches_masked_reference(self):
        # Each field is one mode plus dust relative to its own peak; the
        # second is 1e-20 times smaller, where a floor of SPECTRAL_DUST
        # itself would zero the mode too.
        rng = np.random.default_rng(9)
        x = grid_x(256)
        for mode, size in ((3, 1.0), (5, 1e-20)):
            f = GridFunction(
                size * (np.cos(mode * x) + 1e-15 * rng.standard_normal(256)))
            spec = np.fft.rfft(f.samples)
            mags = np.abs(spec)
            expected = np.where(mags >= SPECTRAL_DUST * mags.max(), spec, 0.0)
            assert np.count_nonzero(expected) == 1
            assert clean_spectra(f.samples).tobytes() == expected.tobytes()


class TestStackedHolder:
    @pytest.mark.parametrize("n", [2048, 65536])
    @pytest.mark.parametrize("given", [True, False])
    def test_stack_equals_each_rows_holder(self, n, given):
        # A (2, 3, n) stack, its spectra given from one clean_spectra call
        # over the whole stack (as the class audit passes them) or taken on
        # first use (one rfft call at 2048 points, one per row at 65536),
        # holds each row's own spectrum and derivatives bit for bit.
        stack = trig_rows(trig_coefficients(np.random.default_rng(n), 6),
                          n).reshape(2, 3, n)
        spectral = FieldSpectrum(stack, clean_spectra(stack) if given else None)
        assert spectral.n_points == n
        assert spectral.derivative(0) is stack
        for i, j in np.ndindex(2, 3):
            row = FieldSpectrum(GridFunction(stack[i, j]))
            assert spectral.spectrum()[i, j].tobytes() == row.spectrum().tobytes()
            for k in (1, 2, 3):
                assert spectral.derivative(k).shape == (2, 3, n)
                assert (spectral.derivative(k)[i, j].tobytes()
                        == row.derivative(k).tobytes()), (i, j, k)

    @pytest.mark.parametrize("given", [True, False])
    def test_kept_orders_are_read_only_and_returned_by_identity(self, given):
        # A given spectrum is kept read-only as a taken one is, also when it
        # is a row view of a larger output, as the class audit passes it.
        stack = trig_rows(trig_coefficients(np.random.default_rng(3), 4), 512)
        spectrum = clean_spectra(stack[np.newaxis])[0] if given else None
        spectral = FieldSpectrum(stack, spectrum)
        kept = [spectral.derivative(k) for k in (1, 2, 3)]
        assert all(a is b for a, b in zip(kept, map(spectral.derivative, (1, 2, 3))))
        for array in kept + [spectral.spectrum()]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        assert given is (spectral.spectrum() is spectrum)

    def test_negative_order_is_refused_before_the_multiplier_cache(self):
        field = random_trig_polynomial(np.random.default_rng(5), 64)
        before = {n: block.shape for n, block in gridfield._ORDER_BLOCKS.items()}
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            FieldSpectrum(field).derivative(-1)
        assert {n: b.shape for n, b in gridfield._ORDER_BLOCKS.items()} == before

    def test_ck_norm_refuses_a_stack(self):
        stack = trig_rows(trig_coefficients(np.random.default_rng(4), 2), 512)
        with pytest.raises(ValueError, match="use norms$"):
            FieldSpectrum(stack).ck_norm(2)
        assert list(FieldSpectrum(stack[0]).ck_norm(2).values) == (
            FieldSpectrum(stack).norms(2)[0].tolist())


def norm_test_rows(n, count):
    """count rows at n points: random low-mode rows at amplitudes 1e-20 to
    1e6, so one batch mixes very different dust floors, with an all-zero
    row, a -0.0 row and a row whose dust cut zeroes coefficients."""
    rng = np.random.default_rng(n + count)
    rows = trig_rows(trig_coefficients(rng, count, max_mode=min(8, n // 2)), n)
    rows *= 10.0 ** rng.uniform(-20, 6, size=(count, 1))
    x = grid_x(n)
    rows[0] = np.cos(3 * x) + 1e-15 * rng.standard_normal(n)
    rows[1] = 0.0
    rows[2] = -0.0
    return rows


class TestCkNorms:
    @pytest.mark.parametrize("n", [16, 2048, 32768, 65536])
    @pytest.mark.parametrize("k_max", [0, 1, 3])
    def test_rows_equal_ck_norm_bit_for_bit(self, n, k_max, count_fft):
        # Enough rows to fill one batch and start the next: norms batches
        # as many rows as keep their inverse within BATCH_POINTS samples, and
        # a stack with no spectra takes each batch's spectra in one rfft
        # call.  ck_norm reads the held orders and inverts the rest, so with
        # (2, 5) held it inverts orders 1 and 3, one call with a gap at
        # 32768 points.
        per_batch = max(1, BATCH_POINTS // (n * max(k_max, 1)))
        count = per_batch + 3
        rows = norm_test_rows(n, count)
        if 8 * (k_max + 1) > n:
            with pytest.raises(ResolutionError, match="n_points >= 32"):
                FieldSpectrum(rows).norms(k_max)
            return
        log = count_fft()
        got = FieldSpectrum(rows).norms(k_max)
        batches = [len(rows[i:i + per_batch]) for i in range(0, count, per_batch)]
        assert [r for name, r, _ in log.entries if name == "rfft"] == (
            batches if k_max else [])
        assert got.shape == (count, k_max + 1)
        for row, norms in zip(rows, got):
            for held in ((), (1,), (2, 5)) if k_max else ((),):
                spectral = FieldSpectrum(GridFunction(row))
                for k in held:
                    spectral.derivative(k)
                want = np.array(spectral.ck_norm(k_max).values)
                assert norms.tobytes() == want.tobytes(), held
        assert not np.signbit(got[1:3]).any() and not got[1:3].any()

    def test_dust_cut_row_is_cleaned(self):
        rows = norm_test_rows(2048, 4)
        spec = np.fft.rfft(rows[0])
        kept = np.count_nonzero(clean_spectra(rows[0]))
        assert np.count_nonzero(spec) > kept == 1

    def test_calls_stay_within_batch_points(self, count_fft):
        # One 65536-point row is one batch; its three orders are inverted
        # one per call, so no call exceeds BATCH_POINTS samples.
        rows = norm_test_rows(65536, 3)
        log = count_fft()
        FieldSpectrum(rows).norms(3)
        assert log.calls == {"rfft": 3, "irfft": 9}
        assert max(r * p for _, r, p in log.entries) == BATCH_POINTS

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            FieldSpectrum(np.zeros((2, 64))).norms(-1)


class TestNorms:
    @pytest.mark.parametrize("n", [2048, 65536])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["1", "3", "2x3"])
    @pytest.mark.parametrize("given", [True, False], ids=["given", "taken"])
    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "fresh"])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_equal_one_order_per_call_reference(self, n, shape, given, kept, k_max):
        # One field or a stack, its spectra given or taken, its first order
        # kept by derivative or not: norms holds, bit for bit, one irfft per
        # order of each row's cleaned spectrum and the running max.
        count = math.prod(shape)
        stack = norm_test_rows(n, max(count, 3))[:count].reshape(shape + (n,))
        spectral = FieldSpectrum(stack, clean_spectra(stack) if given else None)
        if kept:
            spectral.derivative(1)
        got = spectral.norms(k_max)
        want = [one_order_per_call_ck_norm(GridFunction(row), k_max)
                for row in stack.reshape(-1, n)]
        assert got.shape == shape + (k_max + 1,)
        assert got.tobytes() == np.array(want).tobytes()
        assert set(spectral._derivatives) == ({1} if kept else set())
        if not shape:
            assert spectral.ck_norm(k_max) == NormVector(tuple(got.tolist()))

    def test_batches_count_the_missing_orders(self, count_fft):
        # With order 1 kept, norms(3) inverts two orders per row, so a batch
        # holds 65536 // (2048 * 2) = 16 rows of 2048 points, and reads the
        # spectra the derivative took: two irfft calls over 19 rows, and no
        # rfft.
        rows = norm_test_rows(2048, 19)
        spectral = FieldSpectrum(rows)
        spectral.derivative(1)
        log = count_fft()
        got = spectral.norms(3)
        assert [(name, r) for name, r, _ in log.entries] == [("irfft", 32), ("irfft", 6)]
        assert got.tobytes() == FieldSpectrum(rows).norms(3).tobytes()

    def test_nan_sup_stays_nan(self):
        # A NaN sample makes its row's spectrum NaN, and a NaN mode in a
        # given spectrum makes every derivative of its row NaN, while the
        # samples' sup stays finite.  The running max keeps each NaN at its
        # order and above, the other rows keep their values, and ck_norm
        # refuses such a field.
        rows = norm_test_rows(2048, 3)
        rows[1, 7] = np.nan
        spectra = clean_spectra(rows)
        spectra[2, 3] = np.nan
        want = one_order_per_call_ck_norm(GridFunction(rows[0]), 3)
        taken, given = FieldSpectrum(rows).norms(3), FieldSpectrum(rows, spectra).norms(3)
        for got in (taken, given):
            assert np.isnan(got[1]).all()
            assert got[0].tobytes() == np.array(want).tobytes()
        assert np.isfinite(given[2, 0]) and np.isnan(given[2, 1:]).all()
        with pytest.raises(ValueError, match="^norms must be finite and nonnegative"):
            FieldSpectrum(rows[1]).ck_norm(3)
        with pytest.raises(ValueError, match="^norms must be finite and nonnegative"):
            FieldSpectrum(rows[2], spectra[2]).ck_norm(3)


class TestNormVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            NormVector((1.0, 0.5))

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            NormVector((-1.0,))
        with pytest.raises(ValueError):
            NormVector(())

    @pytest.mark.parametrize("values", [
        (np.nan,), (0.0, np.nan), (np.inf,), (1.0, np.inf), (-np.inf,),
        (-1.0, 2.0), (0.0, -0.5), (np.float64(np.nan), 1.0),
    ])
    def test_rejects_non_finite_and_negative(self, values):
        with pytest.raises(ValueError, match=r"^norms must be finite and nonnegative: "):
            NormVector(values)

    @pytest.mark.parametrize("values", [(1.0, 0.5), (0.0, 2.0, 1.0), (3.0, 3.0, 2.9)])
    def test_rejects_decreasing_values(self, values):
        with pytest.raises(ValueError, match=r"^norms must be nondecreasing in k: "):
            NormVector(values)

    def test_accepts_numpy_scalars_as_floats(self):
        norms = NormVector((np.float64(0.0), np.float64(1.5), 1.5))
        assert norms.values == (0.0, 1.5, 1.5)
        assert all(type(v) is float for v in norms.values)


class TestMollify:
    def test_unit_mass_on_constants(self):
        f = GridFunction.constant(4.2, 128)
        for ell in (0.05, 0.5, 2.0, 6.0):
            assert (mollify(f, ell) - f).sup() < 1e-14

    def test_small_ell_limit(self):
        # oracle: multiplier exp(-ell^2/2) on mode 1
        f = sine(1, 256)
        out = mollify(f, 1e-3)
        assert (out - f).sup() < 1e-4
        expected = np.exp(-0.5e-6)
        assert out.sup() == pytest.approx(expected, rel=1e-9)

    def test_gaussian_multiplier_oracle(self):
        # lam*ell = 4: amplitude exp(-8) ~ 3.3546e-4, within 1 percent
        lam, ell = 16, 0.25
        out = mollify(sine(lam, 512), ell)
        assert out.sup() == pytest.approx(np.exp(-8.0), rel=0.01)

    @pytest.mark.parametrize("mode,ell", [(1, 0.5), (5, 0.25), (40, 0.05), (63, 0.03)])
    def test_single_mode_closed_form(self, mode, ell):
        # cos(m x + phase) -> exp(-(m ell)^2 / 2) cos(m x + phase); the
        # tolerance covers the reference's own argument-reduction rounding
        n = 128
        x = grid_x(n)
        f = GridFunction(np.cos(mode * x + 0.7))
        expected = np.exp(-0.5 * (mode * ell) ** 2) * np.cos(mode * x + 0.7)
        assert np.max(np.abs(mollify(f, ell).samples - expected)) < 1e-12

    def test_ell_domain(self):
        f = sine(1, 64)
        for bad in (0.0, -1.0, PERIOD):
            with pytest.raises(ValueError, match="ell"):
                mollify(f, bad)

    def test_smoothing_constant_stable_across_lambda(self):
        # ||mollify(f, ell)||_{k+1} <= C ||f||_k / ell with C stable across
        # frequencies at fixed lam*ell >= 2
        ratios = []
        for lam in (16, 32, 64):
            ell = 2.0 / lam
            f = sine(lam, 2048)
            k = 1
            smooth = mollify(f, ell)
            ratios.append(ck_norm(smooth, k + 1)[k + 1] * ell / ck_norm(f, k)[k])
        assert max(ratios) / min(ratios) < 1.2


class TestOscillator:
    def test_zero_amplitude(self):
        assert oscillator(0.0, 32, n_points=512).sup() == 0.0

    def test_pure_mode_norms(self):
        norms = ck_norm(oscillator(1.0, 32, n_points=2048), 2)
        assert np.allclose(norms.values, (1.0, 32.0, 1024.0), rtol=1e-9)

    def test_phase_identity(self):
        # 2 cos(16x + pi/2) = -2 sin(16x)
        f = oscillator(2.0, 16, phase=np.pi / 2, n_points=512)
        expected = -2.0 * np.sin(16 * grid_x(512))
        assert np.max(np.abs(f.samples - expected)) < 1e-12

    def test_unresolved_frequency_refused(self):
        with pytest.raises(ResolutionError, match="unresolved"):
            oscillator(1.0, 32, n_points=128)
        with pytest.raises(ValueError, match="integer"):
            oscillator(1.0, 2.5, n_points=512)


class TestPointwiseOps:
    def test_zero_field_is_neutral(self):
        rng = np.random.default_rng(0)
        f = random_trig_polynomial(rng, 128)
        zero = GridFunction.constant(0.0, 128)
        for got in (f + zero, zero + f, f - zero):
            assert np.array_equal(got.samples, f.samples)
        assert np.array_equal((f - f).samples, zero.samples)

    def test_sum_and_difference_bitwise(self):
        rng = np.random.default_rng(1)
        x = random_trig_polynomial(rng, 128)
        y = random_trig_polynomial(rng, 128)
        assert (x + y).samples.tobytes() == (x.samples + y.samples).tobytes()
        assert (y - x).samples.tobytes() == (y.samples - x.samples).tobytes()

    def test_sin_squared_identity(self):
        s = sine(1, 256)
        prod = product(s, s)
        expected = (1.0 - np.cos(2 * grid_x(256))) / 2.0
        assert np.max(np.abs(prod.samples - expected)) < 1e-12

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(**HYP)
    def test_sup_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        f = random_trig_polynomial(rng, 128, normalize=False)
        g = random_trig_polynomial(rng, 128, normalize=False)
        assert product(f, g).sup() <= f.sup() * g.sup() * (1 + 1e-12)

    def test_incompatible_grids(self):
        f, g = sine(1, 128), sine(1, 256)
        with pytest.raises(IncompatibleGrids):
            f + g
        with pytest.raises(IncompatibleGrids, match="^grids differ: n_points 128/256$"):
            product(f, g)


class TestGridFunction:
    def test_immutable_samples(self):
        f = sine(1, 64)
        with pytest.raises(ValueError):
            f.samples[0] = 99.0

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="power of two"):
            GridFunction(np.zeros(100))
        with pytest.raises(ValueError, match="shape"):
            GridFunction(np.zeros((64, 1)))
        bad = np.zeros(64)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridFunction(bad)
        for n in (2, 8, 2048):
            assert GridFunction(np.zeros(n)).n_points == n

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 31, 63])
    @pytest.mark.parametrize("half", [0, 1])
    def test_non_finite_sample_refused(self, value, row, half):
        # the first, a middle and the last sample of each half of the grid
        bad = np.ones(128)
        bad[64 * half + row] = value
        with pytest.raises(ValueError, match="^samples contain non-finite values$"):
            GridFunction(bad)

    def test_negative_zero_and_subnormals_accepted(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        samples = np.array([-0.0, tiny, -tiny, 0.0, tiny * 3, -0.0, 1.0, -tiny])
        f = GridFunction(samples)
        assert f.samples.tobytes() == samples.tobytes()

    def test_no_duplicated_endpoint(self):
        x = coordinates(64)
        assert x[0] == 0.0
        assert x[-1] < PERIOD


class TestRefine:
    def test_shared_points_exact(self):
        rng = np.random.default_rng(5)
        f = random_trig_polynomial(rng, 128)
        r = refine(f, 4)
        assert np.max(np.abs(r.samples[::4] - f.samples)) < 1e-12

    def test_nyquist_energy_keeps_coarse_samples(self):
        n = 64
        x = grid_x(n)
        for samples in (np.cos(n // 2 * x) + 0.5 * np.sin(3 * x),
                        2.0 * np.cos(n // 2 * x) - 0.25):
            f = GridFunction(samples)
            for factor in (2, 8):
                r = refine(f, factor)
                assert np.max(np.abs(r.samples[::factor] - f.samples)) < 1e-12

    def test_pure_mode_everywhere(self):
        f = sine(7, 128)
        r = refine(f, 4)
        expected = np.sin(7 * grid_x(512))
        assert np.max(np.abs(r.samples - expected)) < 1e-12

    def test_guards(self):
        f = sine(1, 128)
        with pytest.raises(ValueError, match="power of two"):
            refine(f, 3)
        with pytest.raises(ResolutionError, match="too large"):
            refine(sine(1, 2048), 4096)


def loop_trig_polynomial(rng, n_points, max_mode):
    """The explicit sum a cos(mx) + b sin(mx), drawing (a, b) per mode."""
    x = grid_x(n_points)
    samples = np.zeros(n_points)
    for m in range(1, max_mode + 1):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        samples += a * np.cos(m * x) + b * np.sin(m * x)
    return samples


def irfft_trig_rows(rng, n_points, count, max_mode=8):
    """The rows by one inverse real transform of their spectra, and the
    coefficients drawn: a cos(mx) + b sin(mx) is the rfft coefficient
    (n/2)(a - ib) at mode m; at the Nyquist mode sin vanishes on the grid
    and cos carries weight n."""
    coeffs = rng.uniform(-1.0, 1.0, size=(count, max_mode, 2))
    spec = np.zeros((count, n_points // 2 + 1), dtype=complex)
    spec[:, 1:max_mode + 1] = (0.5 * n_points) * (coeffs[..., 0] - 1j * coeffs[..., 1])
    if max_mode == n_points // 2:
        spec[:, max_mode] = n_points * coeffs[:, -1, 0]
    return np.fft.irfft(spec, n_points, axis=-1), coeffs


class TestRandomTrigRows:
    # n = 16 puts mode 8 on the Nyquist bin; at 32 and 131072 the angle
    # tables' two blocks differ in length.
    SIZES = [16, 32, 2048, 65536, 131072]

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_inverse_transform(self, n):
        rng, rng_ref = (np.random.default_rng([n, 2]) for _ in range(2))
        rows = trig_rows(trig_coefficients(rng, 3), n)
        want, coeffs = irfft_trig_rows(rng_ref, n, 3)
        assert rows.shape == (3, n) and rows.flags.c_contiguous
        size = np.abs(coeffs).sum(axis=(1, 2))
        assert np.all(np.abs(rows - want).max(axis=1) <= 1e-14 * size)
        # the generator advanced exactly as the transform's draw advanced it
        assert np.array_equal(rng.random(4), rng_ref.random(4))

    @pytest.mark.parametrize("n", SIZES)
    def test_row_j_is_the_polynomial_at_x_j(self, n):
        rows = trig_rows(trig_coefficients(np.random.default_rng([n, 3]), 2), n)
        coeffs = np.random.default_rng([n, 3]).uniform(-1.0, 1.0, size=(2, 8, 2))
        j = np.arange(n)
        for row, c in zip(rows, coeffs):
            want = np.zeros(n)
            for m in range(1, 9):
                x = PERIOD * (m * j % n) / n  # m * x_j reduced exactly
                sine = 0.0 if 2 * m == n else c[m - 1, 1] * np.sin(x)
                want += c[m - 1, 0] * np.cos(x) + sine
            assert np.abs(row - want).max() <= 1e-14 * np.abs(c).sum()

    @pytest.mark.parametrize("n", [2 ** 11, 2 ** 14, 2 ** 16, 2 ** 17, 2 ** 20])
    @pytest.mark.parametrize("count", [1, 3])
    def test_blocked_products_equal_one_matmul(self, n, count):
        # Products capped at MATMUL_POINTS outputs give the bits of one
        # unchunked product per row.
        rows = trig_rows(trig_coefficients(np.random.default_rng([n, count]), count), n)
        coeffs = np.random.default_rng([n, count]).uniform(-1.0, 1.0, size=(count, 8, 2))
        cos_phi, sin_phi, theta = _angle_tables(n, 8)
        a, b = coeffs[:, np.newaxis, :, 0], coeffs[:, np.newaxis, :, 1]
        left = np.concatenate([a * cos_phi + b * sin_phi, b * cos_phi - a * sin_phi],
                              axis=-1)
        want = np.matmul(left, theta).reshape(count, n)
        assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [16, 4096, 65536])
    def test_batched_rows_equal_one_row_draws(self, n):
        rows = trig_rows(trig_coefficients(np.random.default_rng(7), 5), n)
        rng = np.random.default_rng(7)
        alone = [trig_rows(trig_coefficients(rng), n)[0] for _ in range(5)]
        assert rows.tobytes() == np.stack(alone).tobytes()

    @pytest.mark.parametrize("n", [16, 2048])
    def test_normalized_zero_row_stays_zero(self, n):
        # The s > 0 rule of random_trig_polynomial: a zero row is left as it
        # is, with no division, warning or floating-point error, and the
        # other rows hold the bits of their one-field draws.
        coefficients = trig_coefficients(np.random.default_rng(2), 3)
        coefficients[1] = 0.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rows = trig_rows(coefficients, n, normalize=True)
        assert not rows[1].any()
        rng = np.random.default_rng(2)
        fields = [random_trig_polynomial(rng, n) for _ in range(3)]
        for i in (0, 2):
            assert rows[i].tobytes() == fields[i].samples.tobytes()


class TestRandomTrigPolynomial:
    @pytest.mark.parametrize("n", [16, 256, 2048])
    @pytest.mark.parametrize("count", [1, 3])
    def test_matches_explicit_sum(self, n, count):
        # at n = 16 the top mode 8 sits on the Nyquist bin; count fields
        # drawn from one stream match count loop draws
        rng, rng_loop = (np.random.default_rng([n, 1]) for _ in range(2))
        for _ in range(count):
            f = random_trig_polynomial(rng, n, normalize=False)
            want = loop_trig_polynomial(rng_loop, n, max_mode=8)
            assert np.max(np.abs(f.samples - want)) < 1e-12

    @pytest.mark.parametrize("n", [16, 256, 2048])
    def test_generator_state_after_call(self, n):
        # seeded audits draw several fields from one stream, so the stream
        # must advance exactly as the per-mode loop advanced it
        rng_new, rng_loop = (np.random.default_rng(99) for _ in range(2))
        for _ in range(2):
            random_trig_polynomial(rng_new, n, max_mode=5)
            loop_trig_polynomial(rng_loop, n, max_mode=5)
        assert rng_new.uniform(0.1, 0.99) == rng_loop.uniform(0.1, 0.99)
        assert np.array_equal(rng_new.random(4), rng_loop.random(4))

    def test_normalized_sup_one(self):
        f = random_trig_polynomial(np.random.default_rng(4), 256)
        assert f.sup() == pytest.approx(1.0, abs=1e-15)

    def test_unresolved_mode_refused(self):
        with pytest.raises(ResolutionError, match="max_mode"):
            random_trig_polynomial(np.random.default_rng(0), 8)
