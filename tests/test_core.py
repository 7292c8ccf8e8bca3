import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from envelofit.core import (
    BoxConstraint,
    InputError,
    Signal,
    mse,
    project_box,
)
from envelofit.pipeline import CoarseParams, PipelineParams, SolverSettings
from envelofit.synth import TrialSpec


class TestSignal:
    def test_basic_construction(self):
        s = Signal([1.0, 2.0, 3.0], sample_rate_hz=10.0)
        assert len(s) == 3
        assert s.t0 == 0.0
        np.testing.assert_allclose(s.times, [0.0, 0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Signal([], 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception):
            Signal([1.0, np.nan], 1.0)
        with pytest.raises(Exception):
            Signal([1.0, np.inf], 1.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InputError):
            Signal([1.0], 0.0)
        with pytest.raises(InputError):
            Signal([1.0], -3.0)

    @pytest.mark.parametrize("rate,t0", [(np.inf, 0.0), (np.nan, 0.0), (1.0, np.nan),
                                         (1.0, np.inf), (1.0, -np.inf)])
    def test_nonfinite_rate_or_origin_rejected(self, rate, t0):
        with pytest.raises(InputError, match="finite"):
            Signal([1.0], rate, t0)

    def test_samples_immutable(self):
        s = Signal([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0


class TestBoxConstraint:
    def test_infinite_bounds_allowed(self):
        b = BoxConstraint([-np.inf, 0.0], [0.0, np.inf])
        assert len(b) == 2

    def test_crossed_bounds_rejected(self):
        with pytest.raises(InputError):
            BoxConstraint([1.0], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            BoxConstraint([0.0, 1.0], [2.0])

    @pytest.mark.parametrize("lower,upper", [
        ([0.0, np.inf], [3.0, np.inf]),
        ([0.0, -np.inf], [3.0, -np.inf]),
    ])
    def test_infinite_bound_on_the_wrong_side_rejected(self, lower, upper):
        # no finite value lies in [+inf, +inf] or [-inf, -inf]
        with pytest.raises(InputError, match="index 1"):
            BoxConstraint(lower, upper)

    def test_degenerate_interval_allowed(self):
        # pinned samples (a == b) are legal
        BoxConstraint([1.0, 2.0], [1.0, 2.0])


class TestMse:
    def test_identity(self):
        a = Signal([1.0, 2.0, 3.0], 1.0)
        assert mse(a, a) == 0.0

    def test_constant_offset(self):
        assert mse(Signal([0.0, 0.0], 1.0), Signal([1.0, 1.0], 1.0)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mse(Signal([1.0], 1.0), Signal([1.0, 2.0], 1.0))

    @given(
        arrays(np.float64, 16, elements=st.floats(-100, 100)),
        arrays(np.float64, 16, elements=st.floats(-100, 100)),
        arrays(np.float64, 16, elements=st.floats(-100, 100)),
    )
    def test_component_mse_symmetry(self, x, y, x_hat):
        # z = x + y; for any estimate x_hat with y_hat := z - x_hat,
        # the two component errors coincide
        z = x + y
        y_hat = z - x_hat
        m1 = mse(Signal(x, 1.0), Signal(x_hat, 1.0))
        m2 = mse(Signal(y, 1.0), Signal(y_hat, 1.0))
        assert abs(m1 - m2) <= 1e-12 * (1.0 + m1)


class TestProjectBox:
    def test_upper_clamp(self):
        b = BoxConstraint([0.0], [1.0])
        assert project_box([2.0], b)[0] == 1.0

    def test_interior_point(self):
        b = BoxConstraint([0.0], [1.0])
        assert project_box([0.5], b)[0] == 0.5

    def test_one_sided_inactive(self):
        b = BoxConstraint([-np.inf], [0.0])
        assert project_box([-3.0], b)[0] == -3.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            project_box([1.0, 2.0], BoxConstraint([0.0], [1.0]))

    @given(arrays(np.float64, 12, elements=st.floats(-50, 50)))
    def test_idempotent(self, v):
        lo = np.linspace(-10, 0, 12)
        hi = np.linspace(0, 10, 12)
        b = BoxConstraint(lo, hi)
        once = project_box(v, b)
        np.testing.assert_array_equal(project_box(once, b), once)


# Every core.knob field becomes a command-line flag that parses as a plain
# number, so its class must reject each value outside its range by itself:
# a knob added without a check fails here.
KNOB_VALUES = [
    pytest.param(cls, f.name, v, id=f"{cls.__name__}.{f.name}={v}")
    for cls in (PipelineParams, CoarseParams, SolverSettings, TrialSpec)
    for f in dataclasses.fields(cls) if "help" in f.metadata
    for v in ((0, -1) if type(f.default) is int else (0.0, -1.0, np.inf, np.nan))
]


@pytest.mark.parametrize("cls, name, value", KNOB_VALUES)
def test_every_knob_checked_by_its_class(cls, name, value):
    with pytest.raises(InputError):
        cls(**{name: value})
