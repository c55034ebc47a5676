"""Monte Carlo simulator and analysis pipeline for a pulsed single-photon
source passing through difference-frequency conversion into telecom-band
correlation measurements."""

from .analysis import (
    AnalysisError,
    G2Result,
    LifetimeFit,
    PeakIntegration,
    VisibilityCalib,
    VisibilityResult,
    estimate_g2,
    estimate_visibility,
    fit_lifetime,
    integrate_peaks,
)
from .conversion import (
    BoundsMeasurement,
    ConversionConfig,
    EfficiencyBounds,
    FitError,
    LossBudget,
    MeasurementError,
    SaturationFit,
    dfg_wavelength,
    external_efficiency,
    fit_saturation,
    internal_efficiency_bounds,
    saturation_curve,
    saturation_efficiency,
)
from .core import (
    CoincidenceHistogram,
    ConfigError,
    PulseTrainConfig,
    RunSeed,
    TagStream,
    Wavelength,
    merge_histograms,
    substream,
)
from .correlate import cross_correlate
from .optics import (
    BeamSplitter,
    DetectorConfig,
    HomInterferometer,
    PolarizationConfig,
)
from .pipeline import (
    Pipeline,
    RunResult,
    RunStats,
    fold_decay,
    irf_pipeline,
    run_direct,
    run_hbt,
    run_hom,
)
from .source import EmitterConfig, expected_pair_overlap

__version__ = "0.1.0"
