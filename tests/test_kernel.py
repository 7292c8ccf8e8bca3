import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from envelofit.core import InputError, NumericalError
from envelofit.kernel import (
    CirculantOperator,
    KernelSpec,
    ToeplitzBand,
    apply_resolvent,
    apply_toeplitz,
    band_half_width,
    build_band,
    embed_circulant,
    toeplitz_from_resolvent,
)

from oracles import (
    apply_circulant,
    apply_resolvent_reference,
    at_step,
    circulant_row,
    dense_toeplitz,
    truncated_band,
)


def first_row(op):
    """The circulant's first row, recovered from its rfft half-spectrum."""
    return scipy.fft.irfft(op.eigenvalues, n=op.size)


def dense_circulant(op):
    """Reconstruct the dense circulant from its first row (oracle helper)."""
    return scipy.linalg.circulant(first_row(op)).T


class TestBandHalfWidth:
    def test_enumeration_oracle(self):
        # independent oracle: walk k upward until the kernel drops below tau
        spec = KernelSpec(sigma=10.0, tau=0.01)
        k = 0
        while math.exp(-((k + 1) ** 2) / 100.0) >= 0.01:
            k += 1
        assert k == 21
        assert band_half_width(spec) == 21

    def test_tau_one(self):
        assert band_half_width(KernelSpec(sigma=5.0, tau=1.0)) == 0

    def test_narrow_kernel(self):
        # exp(-1) ~ 0.368 < 0.5 so only lag 0 survives
        assert band_half_width(KernelSpec(sigma=1.0, tau=0.5)) == 0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0, 10.0, 42.0])
    @pytest.mark.parametrize("tau", [0.9, 0.5, 1e-2, 1e-5])
    def test_matches_enumeration(self, sigma, tau):
        spec = KernelSpec(sigma=sigma, tau=tau)
        k = 0
        while math.exp(-((k + 1) ** 2) / sigma**2) >= tau:
            k += 1
        assert band_half_width(spec) == k

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(InputError, match="positive and finite"):
            KernelSpec(sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e-200, 1e160])
    def test_square_must_be_positive_and_finite(self, sigma):
        # sigma**2 underflows to 0 or overflows
        with pytest.raises(InputError, match=r"sigma and sigma\*\*2 must be positive and finite"):
            KernelSpec(sigma=sigma)

    def test_tau_near_one_ends(self):
        # the closed form lands about 2.8e8 lags above K here, so stepping one
        # lag at a time takes minutes: run in a subprocess with a timeout
        sigma, tau = 1e19, 1 - 1e-12
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = ("from envelofit.kernel import KernelSpec, band_half_width; "
                 f"print(band_half_width(KernelSpec({sigma!r}, {tau!r})))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        k = int(proc.stdout)
        assert math.exp(-(k**2) / sigma**2) >= tau > math.exp(-((k + 1) ** 2) / sigma**2)

    def test_monotone_in_sigma_and_tau(self):
        widths_sigma = [band_half_width(KernelSpec(sigma=s, tau=1e-3))
                        for s in [1, 2, 5, 10, 20]]
        assert widths_sigma == sorted(widths_sigma)
        widths_tau = [band_half_width(KernelSpec(sigma=10.0, tau=t))
                      for t in [1e-6, 1e-4, 1e-2, 0.5, 1.0]]
        assert widths_tau == sorted(widths_tau, reverse=True)


def diagonal(sigma, k):
    """``1`` plus the two-sided sum of the dropped tail, and the band's
    diagonal: ``1``, the tail's integral bound and the floor."""
    tail = sum(math.exp(-(j * j) / sigma**2) for j in range(k + 1, k + 100 * int(sigma) + 100))
    return 1.0 + 2.0 * tail, 1.0 + sigma * math.sqrt(math.pi) * math.erfc(k / sigma) + 0.5 / (k + 1)


class TestBuildBand:
    def test_degenerate_band(self):
        band = build_band(KernelSpec(sigma=1.0, tau=0.5), 8)
        assert band.half_width == 0
        np.testing.assert_allclose(band.first_row, [1.0 + math.sqrt(math.pi) + 0.5],
                                   rtol=1e-15)

    def test_entries_match_kernel(self):
        band = build_band(KernelSpec(sigma=10.0, tau=0.01), 100)
        assert band.first_row.size == 22
        assert band.first_row[1] == pytest.approx(math.exp(-0.01), rel=1e-15)
        np.testing.assert_array_equal(band.first_row[1:], np.exp(-np.arange(1.0, 22) ** 2 / 100))
        with_tail, shifted = diagonal(10.0, 21)
        assert band.first_row[0] == pytest.approx(shifted, rel=1e-15)
        assert band.first_row[0] > with_tail + 0.5 / 22  # the bound covers the tail

    @pytest.mark.parametrize("sigma", [0.7, 5.0, 20.0, 50.0])
    @pytest.mark.parametrize("tau", [0.9, 0.3, 1e-3, 1e-5])
    def test_spectrum_above_floor(self, sigma, tau):
        # every Toeplitz and circulant eigenvalue exceeds 1/(2(K + 1)): the
        # operator's, and an oracle circulant's at the minimal size and beyond
        # the operator's own
        spec = KernelSpec(sigma=sigma, tau=tau)
        k = band_half_width(spec)
        floor = 0.5 / (k + 1)
        n = k + 1 + int(max(k, 16))
        band = build_band(spec, n)
        assert np.linalg.eigvalsh(dense_toeplitz(band)).min() > floor
        op = embed_circulant(band)
        assert op.eig_min == np.min(op.eigenvalues) > floor
        assert op.eig_max == np.max(op.eigenvalues)
        for size in (n + k, op.size + 7, 2 * op.size):
            assert scipy.fft.rfft(circulant_row(band, size)).real.min() > floor
        # truncation alone leaves wide kernels indefinite
        if sigma >= 5.0 and tau <= 1e-3:
            row = circulant_row(truncated_band(spec, n), n + k)
            assert scipy.fft.rfft(row).real.min() < 0

    def test_band_must_fit(self):
        with pytest.raises(InputError):
            build_band(KernelSpec(sigma=10.0, tau=0.01), 10)

    @pytest.mark.parametrize("n", [20.5, 20.0, math.nan, 0, -3])
    def test_length_must_be_a_positive_integer(self, n):
        with pytest.raises(InputError, match="signal length must be"):
            build_band(KernelSpec(sigma=2.0), n)


class TestEmbedCirculant:
    def test_symmetry_forced_first_row(self):
        band = build_band(KernelSpec(sigma=1.0, tau=0.3), 4)
        # sigma=1, tau=0.3: K=1, r = [1 + shift, exp(-1)]
        op = embed_circulant(band)
        assert op.size == 5
        row = first_row(op)
        np.testing.assert_allclose(
            row, [diagonal(1.0, 1)[1], math.exp(-1), 0.0, 0.0, math.exp(-1)], atol=1e-14
        )

    def test_eigenvalues_match_dense(self):
        band = build_band(KernelSpec(sigma=2.0, tau=1e-2), 12)
        op = embed_circulant(band)
        dense = dense_circulant(op)
        w = np.sort(np.linalg.eigvalsh(0.5 * (dense + dense.T)))
        # the other half of the spectrum mirrors the rfft half
        half = op.eigenvalues
        full = np.concatenate([half, half[(op.size - 1) // 2 : 0 : -1]])
        assert full.size == op.size
        np.testing.assert_allclose(np.sort(full), w, atol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_top_left_block_exact(self, seed):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.5, 8.0)
        tau = 10.0 ** rng.uniform(-5, -0.5)
        n = int(rng.integers(4, 64))
        spec = KernelSpec(sigma=sigma, tau=tau)
        try:
            band = build_band(spec, n)
        except InputError:
            band = build_band(spec, n + band_half_width(spec))
        dense_toep = dense_toeplitz(band)
        op = embed_circulant(band)
        # built straight from the band: first_row(op) goes through an FFT
        # round trip and is only accurate to ~1e-16
        row = circulant_row(band, op.size)
        block = scipy.linalg.circulant(row).T[: band.n, : band.n]
        np.testing.assert_array_equal(block, dense_toep)

    @pytest.mark.parametrize("sigma,tau", [(1.0, 0.1), (5.0, 1e-3), (20.0, 1e-5)])
    def test_sizes_itself_and_keeps_its_band(self, sigma, tau):
        # scipy's real-transform rule, from N + K: equal to it on 5-smooth sizes,
        # above it between
        spec = KernelSpec(sigma=sigma, tau=tau)
        k = band_half_width(spec)
        for n in range(k + 1, k + 300):
            band = build_band(spec, n)
            op = embed_circulant(band)
            assert op.size == scipy.fft.next_fast_len(n + k, real=True) and op.band is band


def toy_op():
    """Circulant with first row [1, .5, 0, 0, .5], from a hand-built band."""
    return embed_circulant(ToeplitzBand(first_row=np.array([1.0, 0.5]), half_width=1, n=4))


class TestApplyCirculant:
    def test_unit_vector_gives_first_column(self):
        op = toy_op()
        e0 = np.eye(5)[0]
        np.testing.assert_allclose(
            apply_circulant(op, e0), [1.0, 0.5, 0.0, 0.0, 0.5], atol=1e-14
        )

    def test_all_ones_row_sum(self):
        op = toy_op()
        np.testing.assert_allclose(apply_circulant(op, np.ones(5)), 2.0 * np.ones(5))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            apply_circulant(toy_op(), np.ones(6))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_multiply(self, seed):
        rng = np.random.default_rng(seed)
        spec = KernelSpec(sigma=rng.uniform(1, 10), tau=1e-3)
        n = band_half_width(spec) + int(rng.integers(8, 200))
        band = build_band(spec, n)
        op = embed_circulant(band)
        if op.size > 512:
            pytest.skip("dense oracle capped at M=512")
        dense = dense_circulant(op)
        for _ in range(10):
            v = rng.standard_normal(op.size)
            got = apply_circulant(op, v)
            want = dense @ v
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestApplyResolvent:
    def test_constant_eigenvector(self):
        op = toy_op()  # the constant vector's eigenvalue is the row sum, 2
        np.testing.assert_allclose(
            apply_resolvent(op, np.ones(5)), np.ones(5) / (1.0 + 2.0 * op.alpha)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed + 100)
        spec = KernelSpec(sigma=rng.uniform(1, 8), tau=1e-3)
        n = band_half_width(spec) + int(rng.integers(8, 150))
        band = build_band(spec, n)
        op = embed_circulant(band)
        dense = dense_circulant(op)
        ident = np.eye(op.size)
        for _ in range(10):
            v = rng.standard_normal(op.size)
            got = apply_resolvent(op, v)
            want = np.linalg.solve(ident + op.alpha * dense, v)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_contraction_for_nonnegative_spectrum(self):
        rng = np.random.default_rng(7)
        band = build_band(KernelSpec(sigma=1.5, tau=0.1), 50)
        op = embed_circulant(band)
        if np.min(op.eigenvalues) < 0:
            pytest.skip("spectrum not nonnegative")
        for _ in range(20):
            v = rng.standard_normal(op.size)
            out = apply_resolvent(op, v)
            assert np.linalg.norm(out) <= np.linalg.norm(v) * (1 + 1e-12)

    CASES = pytest.mark.parametrize("sigma,tau,n", [
        (5.0, 1e-5, 300), (20.0, 1e-5, 400), (20.0, 1e-3, 200), (50.0, 1e-5, 600),
    ])

    @CASES
    def test_step_and_multipliers_follow_the_spectrum(self, sigma, tau, n):
        op = embed_circulant(build_band(KernelSpec(sigma=sigma, tau=tau), n))
        assert op.eig_min == np.min(op.eigenvalues) and op.eig_max == np.max(op.eigenvalues)
        assert op.alpha == 1.0 / math.sqrt(op.eig_min * op.eig_max)
        m = op.multipliers
        assert op.multipliers is m  # built once
        assert not m.flags.writeable and m.dtype == float and m.shape == (op.size,)
        want = 1.0 / (1.0 + op.alpha * op.eigenvalues)
        # halfcomplex order: DC, then the real and imaginary slot of each
        # frequency, and Nyquist alone in the last slot when the size is even
        assert m[0] == want[0]
        assert np.array_equal(m[1::2], want[1 : op.size // 2 + 1])
        assert np.array_equal(m[2::2], want[1 : (op.size + 1) // 2])

    @CASES
    def test_spectrum_that_is_not_positive_rejected(self, sigma, tau, n):
        # the band without its diagonal shift has no step
        with pytest.raises(NumericalError, match="eig_min -"):
            embed_circulant(truncated_band(KernelSpec(sigma=sigma, tau=tau), n))


def op_reaching(reach):
    """The operator of a band with ``K = 1`` and ``n + K = reach``: its size is
    ``reach`` where that is 5-smooth, else the next such size (65 -> 72,
    2016 -> 2025, 2079 -> 2160, 2178 -> 2187, 131250 -> 135000), so the cases
    reach odd and even sizes, equal to and beyond ``n + K``."""
    return embed_circulant(build_band(KernelSpec(sigma=1.0, tau=0.1), reach - 1))


class TestResolventBuffers:
    # the bound kernels with output buffers must give the bits of the scipy.fft reference
    @pytest.mark.parametrize("reach", [3, 64, 65, 2016, 2025, 2049, 2067, 2079, 2160, 2178,
                                       2187, 4158, 16875, 32928, 65610, 131220, 131250])
    def test_buffers_match_reference(self, reach):
        op = op_reaching(reach)
        size = op.size
        v = np.random.default_rng(size).standard_normal(size)
        out = np.empty(size)
        want = apply_resolvent_reference(op, op.alpha, v)
        assert apply_resolvent(op, v, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(apply_resolvent(op, v), want)

    def test_buffered_call_allocates_no_spectrum_copy(self):
        """With ``out`` given, a call once the multipliers are built
        allocates no spectrum-sized array (at this size one is 270 KB)."""
        op = op_reaching(2**15 + 2**10)
        size = op.size
        v = np.random.default_rng(0).standard_normal(size)
        out = np.empty(size)
        apply_resolvent(op, v, out)  # builds the multipliers
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            apply_resolvent(op, v, out)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, apply_resolvent_reference(op, op.alpha, v))
        assert peak < 16 * 1024

class TestBoundTransforms:
    """The halfcomplex transforms ``apply_resolvent`` calls give ``numpy.fft``'s
    bits, and the operator they serve holds data only."""

    def test_operator_holds_data_only(self):
        assert [f.name for f in dataclasses.fields(CirculantOperator)] == [
            "band", "size", "eigenvalues", "eig_min", "eig_max", "alpha"]

    @pytest.mark.parametrize("reach", [3, 64, 65, 2016, 2067, 2079, 2178, 2187, 16875, 32928,
                                       131220, 131250])
    def test_kernels_match_numpy_fft(self, reach):
        op = op_reaching(reach)
        size = op.size
        v = np.random.default_rng(size).standard_normal(size)
        want = np.fft.irfft(np.fft.rfft(v) * (1.0 / (1.0 + op.alpha * op.eigenvalues)), n=size)
        out = np.empty(size)
        assert apply_resolvent(op, v, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(apply_resolvent(op, v), want)

    # a band of n + extra samples: sizes 72, 270, 2025, 2160 (twice, once = n + K),
    # 2187, 33750
    @pytest.mark.parametrize("n,sigma,tau,extra", [
        (64, 1.0, 0.1, 0), (257, 3.3, 1e-3, 0), (2000, 5.0, 1e-5, 7),
        (2000, 20.0, 1e-5, 12), (2000, 20.0, 1e-5, 93), (2000, 50.0, 1e-5, 0),
        (2**15, 20.0, 1e-5, 25),
    ])
    def test_eigenvalues_match_scipy_fft(self, n, sigma, tau, extra):
        band = build_band(KernelSpec(sigma=sigma, tau=tau), n + extra)
        op = embed_circulant(band)
        assert np.array_equal(op.eigenvalues, scipy.fft.rfft(circulant_row(band, op.size)).real)

    def test_wrong_buffer_shapes_rejected(self):
        op = op_reaching(65)
        v = np.ones(op.size)
        with pytest.raises(InputError):
            apply_resolvent(op, v, np.empty(op.size - 1))
        with pytest.raises(InputError):
            apply_resolvent(op, v, np.empty((1, op.size)))
        with pytest.raises(InputError):
            apply_resolvent(op, np.ones(op.size + 1), np.empty(op.size))

    def test_output_not_float64_rejected(self):
        # pocketfft's own error for such a buffer is a RuntimeError, outside the taxonomy
        op = op_reaching(65)
        for dtype in (np.float32, np.complex128):
            with pytest.raises(InputError):
                apply_resolvent(op, np.ones(op.size), np.empty(op.size, dtype))

    def test_output_overlapping_the_vector_rejected(self):
        op = op_reaching(65)
        buf = np.random.default_rng(0).standard_normal(op.size + 1)
        with pytest.raises(InputError, match="overlaps"):
            apply_resolvent(op, buf[: op.size], buf[1:])
        v = buf[: op.size].copy()
        want = apply_resolvent(op, v)
        assert apply_resolvent(op, v, v) is v  # in place stays allowed
        assert np.array_equal(v, want)


class TestToeplitzFromResolvent:
    # sizes 2160 and 320 (beyond n + K), 50 and 27 (= n + K), 36 and 30 (beyond);
    # each operator is taken at the step ``alpha``, each input from ``seed``
    @pytest.mark.parametrize("n,sigma,tau,seed", [
        (2000, 20.0, 1e-5, 0), (2000, 20.0, 1e-5, 12), (300, 3.0, 1e-3, 200),
        (50, 1.0, 0.5, 5),  # K = 0
        (14, 5.0, 1e-3, 0),  # n < 2K: the corrections share rows
        (20, 5.0, 1e-3, 0), (15, 5.0, 1e-3, 31), (21, 5.0, 1e-3, 0),  # n < 2K, beyond
    ])
    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 50.0])
    def test_matches_convolution(self, n, sigma, tau, seed, alpha):
        band = build_band(KernelSpec(sigma=sigma, tau=tau), n)
        op = at_step(embed_circulant(band), alpha)
        u = np.random.default_rng(seed).standard_normal(op.size)
        r = apply_resolvent_reference(op, alpha, u)
        z = r[:n]
        out = np.empty(n)
        assert toeplitz_from_resolvent(op, u, r, out) is out
        # the identity carries the resolvent's rounding over alpha, the
        # convolution its own rounding over the band's row sum
        row_sum = band.first_row[0] + 2.0 * band.first_row[1:].sum()
        eps = np.finfo(float).eps
        bound = 16 * eps * (np.max(np.abs(u)) / alpha + row_sum * np.max(np.abs(z)))
        assert np.max(np.abs(out - apply_toeplitz(band, z))) <= bound

    def test_output_may_be_the_head_but_not_the_tail(self):
        """``r[:n]`` and ``u[:n]`` give the exact product; an ``out`` reaching
        into ``r[n:]``, which the corrections read after ``out`` is written,
        is rejected, as is one that is not float64."""
        n = 200
        op = embed_circulant(build_band(KernelSpec(sigma=3.0, tau=1e-3), n))
        u = np.random.default_rng(2).standard_normal(op.size)
        r = apply_resolvent(op, u)
        want = toeplitz_from_resolvent(op, u, r)
        r_own, u_own = r.copy(), u.copy()
        assert np.array_equal(toeplitz_from_resolvent(op, u, r_own, r_own[:n]), want)
        assert np.array_equal(toeplitz_from_resolvent(op, u_own, r, u_own[:n]), want)
        for out in (r[1 : n + 1], r[-n:], np.empty(n, np.float32)):
            with pytest.raises(InputError):
                toeplitz_from_resolvent(op, u, r, out)


class TestApplyToeplitz:
    def test_unit_vector_first_column(self):
        band = build_band(KernelSpec(sigma=2.0, tau=1e-2), 10)
        e0 = np.eye(10)[0]
        col = np.zeros(10)
        col[: band.half_width + 1] = band.first_row
        np.testing.assert_allclose(apply_toeplitz(band, e0), col, atol=1e-14)

    def test_diagonal_kernel_identity(self):
        band = ToeplitzBand(first_row=np.array([1.0]), half_width=0, n=6)
        v = np.arange(6.0)
        np.testing.assert_array_equal(apply_toeplitz(band, v), v)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense(self, seed):
        rng = np.random.default_rng(seed + 50)
        spec = KernelSpec(sigma=rng.uniform(0.8, 6.0), tau=1e-3)
        n = band_half_width(spec) + int(rng.integers(8, 256))
        band = build_band(spec, n)
        dense = dense_toeplitz(band)
        z = rng.standard_normal(n)
        np.testing.assert_allclose(
            apply_toeplitz(band, z), dense @ z, atol=1e-12 * n
        )

    def test_agrees_with_circulant_path(self):
        rng = np.random.default_rng(3)
        band = build_band(KernelSpec(sigma=4.0, tau=1e-3), 64)
        op = embed_circulant(band)
        z = rng.standard_normal(64)
        padded = np.concatenate([z, np.zeros(op.size - 64)])
        via_fft = apply_circulant(op, padded)[:64]
        np.testing.assert_allclose(apply_toeplitz(band, z), via_fft, atol=1e-10)
