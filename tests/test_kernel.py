import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from envelofit.core import InputError, NumericalError
from envelofit.kernel import (
    SPECTRUM_FLOOR,
    KernelSpec,
    apply_resolvent,
    apply_toeplitz,
    band_half_width,
    build_band,
    embed_circulant,
    next_fast_len,
    toeplitz_from_resolvent,
)

from oracles import apply_circulant, apply_resolvent_reference, dense_toeplitz


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

    def test_monotone_in_sigma_and_tau(self):
        widths_sigma = [band_half_width(KernelSpec(sigma=s, tau=1e-3))
                        for s in [1, 2, 5, 10, 20]]
        assert widths_sigma == sorted(widths_sigma)
        widths_tau = [band_half_width(KernelSpec(sigma=10.0, tau=t))
                      for t in [1e-6, 1e-4, 1e-2, 0.5, 1.0]]
        assert widths_tau == sorted(widths_tau, reverse=True)


class TestBuildBand:
    def test_degenerate_band(self):
        band = build_band(KernelSpec(sigma=1.0, tau=0.5), 8)
        np.testing.assert_array_equal(band.first_row, [1.0])
        assert band.half_width == 0

    def test_entries_match_kernel(self):
        band = build_band(KernelSpec(sigma=10.0, tau=0.01), 100)
        assert band.first_row.size == 22
        assert band.first_row[1] == pytest.approx(math.exp(-0.01), rel=1e-15)
        assert band.first_row[0] == 1.0

    def test_band_must_fit(self):
        with pytest.raises(InputError):
            build_band(KernelSpec(sigma=10.0, tau=0.01), 10)


class TestEmbedCirculant:
    def test_symmetry_forced_first_row(self):
        band = build_band(KernelSpec(sigma=1.0, tau=0.3), 4)
        # sigma=1, tau=0.3: K=1, r = [1, exp(-1)]
        op = embed_circulant(band)
        assert op.size == 5
        row = first_row(op)
        np.testing.assert_allclose(
            row, [1.0, math.exp(-1), 0.0, 0.0, math.exp(-1)], atol=1e-14
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
        # build the circulant row straight from the band; first_row(op) goes
        # through an FFT round trip and is only accurate to ~1e-16
        row = np.zeros(op.size)
        k = band.half_width
        row[: k + 1] = band.first_row
        if k > 0:
            row[-k:] = band.first_row[1:][::-1]
        block = scipy.linalg.circulant(row).T[: band.n, : band.n]
        np.testing.assert_array_equal(block, dense_toep)

    def test_oversized_embedding_still_exact(self):
        band = build_band(KernelSpec(sigma=2.0, tau=1e-2), 10)
        op = embed_circulant(band, size=32)
        block = dense_circulant(op)[:10, :10]
        np.testing.assert_allclose(block, dense_toeplitz(band), atol=1e-14)

    def test_undersized_embedding_rejected(self):
        band = build_band(KernelSpec(sigma=2.0, tau=1e-2), 10)
        with pytest.raises(InputError):
            embed_circulant(band, size=band.n + band.half_width - 1)


def toy_op():
    """Circulant with first row [1, .5, 0, 0, .5]."""
    band = build_band(KernelSpec(sigma=1.0 / math.sqrt(math.log(2.0)), tau=0.5), 4)
    np.testing.assert_allclose(band.first_row, [1.0, 0.5])
    return embed_circulant(band)


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
        spec = KernelSpec(sigma=rng.uniform(1, 10))
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
    def test_alpha_zero_is_identity(self):
        op = toy_op()
        v = np.arange(5.0)
        np.testing.assert_allclose(apply_resolvent(op, 0.0, v), v)

    def test_constant_eigenvector(self):
        op = toy_op()
        np.testing.assert_allclose(
            apply_resolvent(op, 1.0, np.ones(5)), np.ones(5) / 3.0
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed + 100)
        spec = KernelSpec(sigma=rng.uniform(1, 8))
        n = band_half_width(spec) + int(rng.integers(8, 150))
        band = build_band(spec, n)
        op = embed_circulant(band)
        dense = dense_circulant(op)
        alpha = rng.uniform(0.01, 2.0)
        if np.min(1.0 + alpha * op.eigenvalues) <= 1e-12:
            pytest.skip("spectrum too negative for this alpha")
        ident = np.eye(op.size)
        for _ in range(10):
            v = rng.standard_normal(op.size)
            got = apply_resolvent(op, alpha, v)
            want = np.linalg.solve(ident + alpha * dense, v)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_contraction_for_nonnegative_spectrum(self):
        rng = np.random.default_rng(7)
        band = build_band(KernelSpec(sigma=1.5, tau=0.1), 50)
        op = embed_circulant(band)
        if np.min(op.eigenvalues) < 0:
            pytest.skip("spectrum not nonnegative")
        for _ in range(20):
            v = rng.standard_normal(op.size)
            out = apply_resolvent(op, 1.3, v)
            assert np.linalg.norm(out) <= np.linalg.norm(v) * (1 + 1e-12)

    def test_negative_spectrum_guard(self):
        band = build_band(KernelSpec(sigma=20.0, tau=1e-3), 200)
        op = embed_circulant(band)
        assert np.min(op.eigenvalues) < 0  # truncation ripple
        huge = 2.0 / abs(np.min(op.eigenvalues))
        with pytest.raises(NumericalError):
            apply_resolvent(op, huge, np.ones(op.size))

    @pytest.mark.parametrize("sigma,tau,n", [
        (5.0, 1e-5, 300), (20.0, 1e-5, 400), (20.0, 1e-3, 200), (50.0, 1e-5, 600),
    ])
    def test_floor_check_matches_full_spectrum(self, sigma, tau, n):
        # the O(1) check on eig_min must raise exactly when the full
        # denominator's minimum is at or below the floor, ulp for ulp
        op = embed_circulant(build_band(KernelSpec(sigma=sigma, tau=tau), n))
        assert op.eig_min == np.min(op.eigenvalues) < 0
        v = np.random.default_rng(n).standard_normal(op.size)
        edges = (-1.0 / op.eig_min, (SPECTRUM_FLOOR - 1.0) / op.eig_min)
        alphas = [0.0, 1e-3, 1.0]
        for edge in edges:
            alphas += [edge]
            for direction in (-np.inf, np.inf):
                a = edge
                for _ in range(3):
                    a = np.nextafter(a, direction)
                    alphas.append(a)
        outcomes = set()
        for alpha in alphas:
            singular = np.min(1.0 + alpha * op.eigenvalues) <= SPECTRUM_FLOOR
            outcomes.add(singular)
            if singular:
                with pytest.raises(NumericalError):
                    apply_resolvent(op, alpha, v)
            else:
                got = apply_resolvent(op, alpha, v)
                assert np.array_equal(got, apply_resolvent_reference(op, alpha, v))
        assert outcomes == {True, False}


class TestResolventBuffers:
    # the bound kernels with output buffers must give the bits of the scipy.fft reference
    @pytest.mark.parametrize("size", [3, 64, 65, 2016, 2049, 2079, 2160, 2178, 4158,
                                      32928, 65610, 131220, 131250])
    def test_buffers_match_reference(self, size):
        op = embed_circulant(build_band(KernelSpec(sigma=1.0, tau=0.1), size - 1), size)
        v = np.random.default_rng(size).standard_normal(size)
        out = np.empty(size)
        spec = np.empty(size // 2 + 1, dtype=complex)
        want = apply_resolvent_reference(op, 0.7, v)
        assert apply_resolvent(op, 0.7, v, out, spec) is out
        assert np.array_equal(out, want)
        assert np.array_equal(apply_resolvent(op, 0.7, v), want)

    def test_multipliers_cached_read_only(self):
        op = embed_circulant(build_band(KernelSpec(sigma=20.0, tau=1e-3), 200))
        m = op.resolvent_multipliers(0.5)
        assert not m.flags.writeable
        assert op.resolvent_multipliers(0.5) is m
        assert np.array_equal(m, 1.0 / (1.0 + 0.5 * op.eigenvalues))
        assert np.array_equal(op.resolvent_multipliers(2.0), 1.0 / (1.0 + 2.0 * op.eigenvalues))
        assert op.resolvent_multipliers(0.5) is not m  # only the last alpha is kept
        m = op.resolvent_multipliers(0.5)
        for _ in range(2):  # a failed floor check is not cached and keeps the last alpha
            with pytest.raises(NumericalError):
                op.resolvent_multipliers(2.0 / abs(op.eig_min))
        assert op.resolvent_multipliers(0.5) is m

    def test_floor_raises_every_call(self):
        op = embed_circulant(build_band(KernelSpec(sigma=20.0, tau=1e-3), 200))
        huge = 2.0 / abs(op.eig_min)
        for _ in range(2):
            with pytest.raises(NumericalError):
                op.resolvent_multipliers(huge)


class TestBoundTransforms:
    """The pocketfft kernels an operator binds give ``numpy.fft``'s bits."""

    @staticmethod
    def op_of_size(size):
        return embed_circulant(build_band(KernelSpec(sigma=1.0, tau=0.1), size - 1), size)

    @pytest.mark.parametrize("size", [3, 64, 65, 2016, 2079, 2178, 32928, 131220, 131250])
    def test_kernels_match_numpy_fft(self, size):
        op = self.op_of_size(size)
        v = np.random.default_rng(size).standard_normal(size)
        spec = np.empty(size // 2 + 1, dtype=complex)
        assert op._rfft(v, 1.0, out=spec) is spec
        assert np.array_equal(spec, np.fft.rfft(v))
        # alpha = 0: the multipliers are all 1, so the result is irfft(rfft(v))
        want = np.fft.irfft(np.fft.rfft(v), n=size)
        out = np.empty(size)
        assert apply_resolvent(op, 0.0, v, out, spec) is out
        assert np.array_equal(out, want)
        assert np.array_equal(apply_resolvent(op, 0.0, v), want)

    @pytest.mark.parametrize("n,sigma,tau,pad", [
        (64, 1.0, 0.1, 0), (257, 3.3, 1e-3, 0), (2000, 5.0, 1e-5, 7),
        (2000, 20.0, 1e-5, 12), (2000, 50.0, 1e-5, 0), (2**15, 20.0, 1e-5, 25),
    ])
    def test_eigenvalues_match_scipy_fft(self, n, sigma, tau, pad):
        band = build_band(KernelSpec(sigma=sigma, tau=tau), n)
        op = embed_circulant(band, n + band.half_width + pad)
        k = band.half_width
        row = np.zeros(op.size)
        row[: k + 1] = band.first_row
        row[op.size - k:] = band.first_row[1:][::-1]
        assert np.array_equal(op.eigenvalues, scipy.fft.rfft(row).real)

    def test_wrong_buffer_shapes_rejected(self):
        op = self.op_of_size(65)
        v = np.ones(65)
        with pytest.raises(InputError):
            apply_resolvent(op, 0.7, v, np.empty(64))
        with pytest.raises(InputError):
            apply_resolvent(op, 0.7, v, None, np.empty(32, dtype=complex))


class TestToeplitzFromResolvent:
    @pytest.mark.parametrize("n,sigma,tau,extra", [
        (2000, 20.0, 1e-5, 0), (2000, 20.0, 1e-5, 12), (300, 3.0, 1e-3, 200),
        (50, 1.0, 0.5, 5),  # K = 0
        (20, 5.0, 1e-3, 0), (15, 5.0, 1e-3, 31),  # n < 2K: the corrections share rows
    ])
    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 50.0])
    def test_matches_convolution(self, n, sigma, tau, extra, alpha):
        band = build_band(KernelSpec(sigma=sigma, tau=tau), n)
        op = embed_circulant(band, n + band.half_width + extra)
        u = np.random.default_rng(n + extra).standard_normal(op.size)
        r = apply_resolvent(op, alpha, u)
        z = r[:n]
        out = np.empty(n)
        assert toeplitz_from_resolvent(band, alpha, u, r, out) is out
        # the identity carries the resolvent's rounding over alpha, the
        # convolution its own rounding over the band's row sum
        row_sum = band.first_row[0] + 2.0 * band.first_row[1:].sum()
        eps = np.finfo(float).eps
        bound = 16 * eps * (np.max(np.abs(u)) / alpha + row_sum * np.max(np.abs(z)))
        assert np.max(np.abs(out - apply_toeplitz(band, z))) <= bound


class TestApplyToeplitz:
    def test_unit_vector_first_column(self):
        band = build_band(KernelSpec(sigma=2.0, tau=1e-2), 10)
        e0 = np.eye(10)[0]
        col = np.zeros(10)
        col[: band.half_width + 1] = band.first_row
        np.testing.assert_allclose(apply_toeplitz(band, e0), col, atol=1e-14)

    def test_diagonal_kernel_identity(self):
        band = build_band(KernelSpec(sigma=1.0, tau=0.5), 6)
        v = np.arange(6.0)
        np.testing.assert_array_equal(apply_toeplitz(band, v), v)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense(self, seed):
        rng = np.random.default_rng(seed + 50)
        spec = KernelSpec(sigma=rng.uniform(0.8, 6.0))
        n = band_half_width(spec) + int(rng.integers(8, 256))
        band = build_band(spec, n)
        dense = dense_toeplitz(band)
        z = rng.standard_normal(n)
        np.testing.assert_allclose(
            apply_toeplitz(band, z), dense @ z, atol=1e-12 * n
        )

    def test_agrees_with_circulant_path(self):
        rng = np.random.default_rng(3)
        band = build_band(KernelSpec(sigma=4.0), 64)
        op = embed_circulant(band)
        z = rng.standard_normal(64)
        padded = np.concatenate([z, np.zeros(op.size - 64)])
        via_fft = apply_circulant(op, padded)[:64]
        np.testing.assert_allclose(apply_toeplitz(band, z), via_fft, atol=1e-10)


class TestNextFastLen:
    @pytest.mark.parametrize("real", [False, True])
    def test_matches_scipy_up_to_2_18(self, real):
        targets = range(1, 2**18 + 1)
        got = [next_fast_len(t, real) for t in targets]
        want = [scipy.fft.next_fast_len(t, real) for t in targets]
        assert got == want

    def test_rejects_nonpositive_target(self):
        for target in (0, -5):
            with pytest.raises(InputError):
                next_fast_len(target)
