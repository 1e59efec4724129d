"""Link-level simulator for a massive MIMO downlink that doubles as an
OFDM radar: channel estimation, beamforming, achievable-rate bounds,
max-min power allocation under a radar constraint, and GLRT detection."""

from .array import ArrayGeometry, Direction, steering_vector
from .beamform import RadarBeamKind, beam_set, pbr_beam, radar_beam, zfr_beam
from .channel import (
    ChannelModelKind,
    ChannelStats,
    LogDistancePathLoss,
    draw_channels,
    hbar_matrix,
    k_factor_from_los_probability,
    los_probability,
    target_alpha,
)
from .estimation import (
    Estimator,
    PilotBook,
    estimate,
    training_statistics,
)
from .poweralloc import (
    AllocationInfeasibleError,
    PowerAllocation,
    RadarSirCoefficients,
    max_min_allocate,
    uniform_allocate,
)
from .radar import (
    DelayDopplerGrid,
    DetectionOutcome,
    OfdmFrameConfig,
    calibrate_threshold,
    glrt_statistic,
)
from .rate import (
    NumericalConsistencyError,
    RateCoefficients,
    build_rate_coefficients,
    rate_coefficients,
    sinr,
)
from .validation import compare_terms, monte_carlo_rate_terms

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "Direction",
    "steering_vector",
    "RadarBeamKind",
    "beam_set",
    "pbr_beam",
    "radar_beam",
    "zfr_beam",
    "ChannelModelKind",
    "ChannelStats",
    "LogDistancePathLoss",
    "draw_channels",
    "hbar_matrix",
    "k_factor_from_los_probability",
    "los_probability",
    "target_alpha",
    "Estimator",
    "PilotBook",
    "estimate",
    "training_statistics",
    "AllocationInfeasibleError",
    "PowerAllocation",
    "RadarSirCoefficients",
    "max_min_allocate",
    "uniform_allocate",
    "DelayDopplerGrid",
    "DetectionOutcome",
    "OfdmFrameConfig",
    "calibrate_threshold",
    "glrt_statistic",
    "NumericalConsistencyError",
    "RateCoefficients",
    "build_rate_coefficients",
    "rate_coefficients",
    "sinr",
    "compare_terms",
    "monte_carlo_rate_terms",
    "__version__",
]
