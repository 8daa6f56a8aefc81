"""Second-order coherence of CW-pumped SPDC beams in the Heisenberg picture.

Simulates signal-idler (interbeam) and split-beam (intrabeam) correlation
functions with dispersive media or sinusoidal phase modulators in the two
detection paths, quantifying when dispersion and temporal-modulation effects
cancel.
"""

from .analysis import (
    BroadeningFit,
    CancelationVerdict,
    WidthReport,
    assess_comb_cancelation,
    assess_time_cancelation,
    broadening_fit,
    cauchy_schwarz_ratio,
    comb_leakage,
    rms_width,
    signal_to_background,
)
from .correlators import (
    CONFIGURATIONS,
    Correlation1D,
    INTER_FREQ,
    INTER_TIME,
    INTRA_FREQ,
    INTRA_TIME,
    JointComb,
    JointGrid,
    baseline,
    g2_freq_exact,
    g2_inter_freq_narrowband,
    g2_inter_time,
    g2_intra_freq_narrowband,
    g2_intra_time,
)
from .elements import DispersiveElement, ModulatorComb, build_comb, dispersive_transfer
from .errors import (
    AliasRisk,
    DegenerateTrace,
    GridIncommensurate,
    MismatchedDrive,
    NarrowbandInvalid,
    NonFiniteResult,
    PreconditionError,
    ScenarioError,
    SpdcSimError,
)
from .grid import FrequencyGrid
from .source import (
    PhaseMismatch,
    SourceFields,
    SourceSpec,
    evaluate_analytic,
    evaluate_source,
    evaluate_uv,
    gamma_of,
)

__version__ = "0.1.0"

__all__ = [
    "AliasRisk",
    "BroadeningFit",
    "CancelationVerdict",
    "CONFIGURATIONS",
    "Correlation1D",
    "DegenerateTrace",
    "DispersiveElement",
    "FrequencyGrid",
    "GridIncommensurate",
    "INTER_FREQ",
    "INTER_TIME",
    "INTRA_FREQ",
    "INTRA_TIME",
    "JointComb",
    "JointGrid",
    "MismatchedDrive",
    "ModulatorComb",
    "NarrowbandInvalid",
    "NonFiniteResult",
    "PhaseMismatch",
    "PreconditionError",
    "ScenarioError",
    "SourceFields",
    "SourceSpec",
    "SpdcSimError",
    "WidthReport",
    "assess_comb_cancelation",
    "assess_time_cancelation",
    "baseline",
    "broadening_fit",
    "build_comb",
    "cauchy_schwarz_ratio",
    "comb_leakage",
    "dispersive_transfer",
    "evaluate_analytic",
    "evaluate_source",
    "evaluate_uv",
    "g2_freq_exact",
    "g2_inter_freq_narrowband",
    "g2_inter_time",
    "g2_intra_freq_narrowband",
    "g2_intra_time",
    "gamma_of",
    "rms_width",
    "signal_to_background",
    "__version__",
]
