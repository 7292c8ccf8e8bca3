import numpy as np
import pytest
import scipy.signal

from envelofit.baseline import (
    default_baselines,
    design_fir,
    filter_zero_delay,
    lti_smooth_estimate,
)
from envelofit.core import InputError, Signal


class TestDesignFir:
    def test_lowpass_dc_gain(self):
        f = design_fir("lowpass", (0.45,), 10.0, 101)
        assert np.sum(f.taps) == pytest.approx(1.0, abs=1e-12)

    def test_even_length_rejected(self):
        with pytest.raises(InputError):
            design_fir("lowpass", (0.45,), 10.0, 100)

    @pytest.mark.parametrize("length", [3.0, 2.5, np.nan, 0, -1])
    def test_length_must_be_a_positive_integer(self, length):
        with pytest.raises(InputError, match="length must be"):
            design_fir("lowpass", 0.45, 10.0, length)

    @pytest.mark.parametrize("fs", [0.0, -1.0, np.inf, np.nan])
    def test_rate_positive_and_finite(self, fs):
        with pytest.raises(InputError, match="fs_hz"):
            design_fir("lowpass", (0.45,), fs, 101)

    def test_cutoff_range(self):
        with pytest.raises(InputError):
            design_fir("lowpass", (6.0,), 10.0, 101)  # above Nyquist

    def test_bandpass_needs_two_cutoffs(self):
        with pytest.raises(InputError):
            design_fir("bandpass", (1.0,), 10.0, 101)
        with pytest.raises(InputError):
            design_fir("bandpass", (2.0, 1.0), 10.0, 101)

    def test_symmetric_taps(self):
        f = design_fir("lowpass", (0.45,), 10.0, 201)
        np.testing.assert_allclose(f.taps, f.taps[::-1], atol=1e-15)
        assert f.group_delay == 100

    def test_to_dict(self):
        f = design_fir("bandpass", (0.6, 2.0), 12.0, 501, "rect")
        assert f.to_dict() == {"kind": "bandpass", "cutoffs_hz": [0.6, 2.0],
                               "window": "rect", "length": 501, "fs_hz": 12.0}

    @pytest.mark.parametrize("window", ["hamming", "rect"])
    @pytest.mark.parametrize("kind,cutoffs", [
        ("lowpass", (0.01,)), ("lowpass", (0.45,)), ("lowpass", (4.99,)),
        ("bandpass", (0.01, 0.02)), ("bandpass", (0.6, 2.0)), ("bandpass", (1.0, 4.99)),
    ])
    def test_single_tap_is_identity(self, kind, cutoffs, window):
        taps = design_fir(kind, cutoffs, 10.0, 1, window).taps
        assert taps.tobytes() == np.ones(1).tobytes()

    def test_stopband_attenuation(self):
        # Hamming window: stopband should be at least 40 dB down
        f = design_fir("lowpass", (1.0,), 10.0, 1001)
        w = np.fft.rfftfreq(8192, d=0.1)
        h = np.abs(np.fft.rfft(f.taps, 8192))
        stop = h[w > 1.5]
        assert 20.0 * np.log10(np.max(stop)) < -40.0


class TestFilterZeroDelay:
    def test_constant_passthrough(self):
        f = design_fir("lowpass", (0.45,), 10.0, 101)
        sig = Signal(np.full(300, 2.0), 10.0)
        out = filter_zero_delay(f, sig)
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-10)

    def test_output_length_matches(self):
        f = design_fir("lowpass", (0.45,), 10.0, 101)
        sig = Signal(np.random.default_rng(0).normal(size=250), 10.0)
        assert len(filter_zero_delay(f, sig)) == 250

    def test_linearity(self):
        rng = np.random.default_rng(1)
        f = design_fir("lowpass", (0.45,), 10.0, 101)
        a = Signal(rng.normal(size=300), 10.0)
        b = Signal(rng.normal(size=300), 10.0)
        fa = filter_zero_delay(f, a).samples
        fb = filter_zero_delay(f, b).samples
        fsum = filter_zero_delay(f, a.with_samples(a.samples + 2.0 * b.samples)).samples
        np.testing.assert_allclose(fsum, fa + 2.0 * fb, atol=1e-10)

    def test_zero_delay_on_slow_sine(self):
        # a passband sine must come through with no phase shift
        fs = 10.0
        t = np.arange(600) / fs
        x = np.sin(2.0 * np.pi * 0.2 * t)
        f = design_fir("lowpass", (0.45,), fs, 501)
        out = filter_zero_delay(f, Signal(x, fs)).samples
        core = slice(260, 340)
        np.testing.assert_allclose(out[core], x[core], atol=0.01)

    def test_shift_covariance(self):
        rng = np.random.default_rng(2)
        fs = 10.0
        x = rng.normal(size=400)
        f = design_fir("lowpass", (0.45,), fs, 101)
        shift = 37
        out_full = filter_zero_delay(f, Signal(x, fs)).samples
        out_shift = filter_zero_delay(f, Signal(x[shift:], fs)).samples
        # away from edges, filtering commutes with shifting
        np.testing.assert_allclose(
            out_full[shift + 60:-60], out_shift[60:-60], atol=1e-10
        )

    def test_too_short_signal(self):
        f = design_fir("lowpass", (0.45,), 10.0, 101)
        with pytest.raises(InputError):
            filter_zero_delay(f, Signal(np.ones(50), 10.0))

    def test_length_one_filter(self):
        f = design_fir("lowpass", (0.45,), 10.0, 1)
        sig = Signal(np.arange(5.0), 10.0)
        np.testing.assert_array_equal(filter_zero_delay(f, sig).samples, sig.samples)


class TestLtiSmoothEstimate:
    def test_components_sum_to_input(self):
        rng = np.random.default_rng(3)
        sig = Signal(rng.normal(size=300), 10.0)
        f = design_fir("lowpass", (0.45,), 10.0, 101)
        smooth, transient = lti_smooth_estimate(sig, f)
        np.testing.assert_array_equal(
            transient.samples, sig.samples - smooth.samples
        )


class TestDefaultBaselines:
    def test_four_lowpass_filters(self):
        filters = default_baselines(10.0)
        assert [f.length for f in filters] == [101, 501, 1001, 2001]
        assert all(f.kind == "lowpass" for f in filters)
        assert all(f.cutoffs_hz == (0.45,) for f in filters)
        assert all(f.window == "hamming" for f in filters)


FIR_LENGTHS = (3, 5, 7, 11, 31, 101, 257, 501, 1001, 1499, 2001)
FIR_DESIGNS = [
    ("lowpass", (0.45,)),
    ("lowpass", (3.1,)),
    ("bandpass", (0.2, 1.1)),
    ("bandpass", (0.05, 4.9)),
]


class TestMatchesScipySignal:
    """The package's FIR design and filtering equal ``scipy.signal``'s bit for bit."""

    @pytest.mark.parametrize("window,scipy_window", [("hamming", "hamming"), ("rect", "boxcar")])
    @pytest.mark.parametrize("kind,cutoffs", FIR_DESIGNS)
    def test_taps_and_output(self, kind, cutoffs, window, scipy_window):
        rng = np.random.default_rng(len(cutoffs))
        for length in FIR_LENGTHS:
            f = design_fir(kind, cutoffs, 10.0, length, window)
            want = scipy.signal.firwin(length, cutoffs, window=scipy_window,
                                       pass_zero=kind == "lowpass", fs=10.0)
            assert f.taps.dtype == want.dtype and f.taps.tobytes() == want.tobytes()

            x = rng.standard_normal(length + int(rng.integers(1, 700)))
            out = filter_zero_delay(f, Signal(x, 10.0)).samples
            padded = np.pad(x, f.group_delay, mode="symmetric")
            want_out = scipy.signal.fftconvolve(padded, want, mode="valid")
            assert out.shape == want_out.shape
            assert out.tobytes() == want_out.tobytes()

    def test_default_baselines_on_a_trial_length_signal(self):
        x = np.random.default_rng(7).standard_normal(2000)
        for f in default_baselines(10.0):
            want = scipy.signal.firwin(f.length, f.cutoffs_hz, fs=10.0)
            assert f.taps.tobytes() == want.tobytes()
            padded = np.pad(x, f.group_delay, mode="symmetric")
            want_out = scipy.signal.fftconvolve(padded, want, mode="valid")
            assert filter_zero_delay(f, Signal(x, 10.0)).samples.tobytes() == want_out.tobytes()
