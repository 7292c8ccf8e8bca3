"""envelofit: smooth/transient signal decomposition via constrained filtering.

A 1-D observation is split into a high-amplitude smooth component and a
low-amplitude transient component by sandwiching it between tight smooth
envelopes and taking the smoothest signal in between.  Each stage is a
box-constrained quadratic program, solved on its dual by undamped (Peaceman-Rachford)
splitting at the linear rate ``(sqrt(kappa) - 1) / (sqrt(kappa) + 1)``, ``kappa`` the
banded covariance's condition number, which Anderson extrapolation accelerates; a
circulant embedding makes each step FFT-fast.
"""

from .core import (
    BoxConstraint,
    EnvelofitError,
    InputError,
    NumericalError,
    Signal,
    mse,
    project_box,
)
from .kernel import (
    CirculantOperator,
    KernelSpec,
    ToeplitzBand,
    apply_resolvent,
    apply_toeplitz,
    band_half_width,
    build_band,
    embed_circulant,
)
from .prox import ProxParams, reflect_g
from .solver import SolveParams, SolveResult, residual, solve_constrained_filter
from .pipeline import (
    BeatStats,
    CoarseParams,
    Decomposition,
    PipelineParams,
    SolverSettings,
    decompose_basic,
    decompose_debiased,
    detect_peaks,
)
from .synth import GpParams, Trial, TrialSpec, generate_trial, make_smooth, nonlinearity_q, sample_gp
from .baseline import (
    FirFilter,
    default_baselines,
    design_fir,
    filter_zero_delay,
    lti_smooth_estimate,
)
from .bench import BenchReport, run_mse_experiment, run_scaling

__version__ = "0.1.0"
