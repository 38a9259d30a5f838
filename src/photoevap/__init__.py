"""Angular distributions and thermalization diagnostics for compound
photoproton emission.

The package splits into four layers: exact angular-momentum recoupling
(``angmom``), the interference model for the emitted-proton angular
distribution (``xsection``), evaporation-spectrum and lifetime
diagnostics (``thermo``) and multi-start parameter extraction
(``fitkit``).  ``cli`` exposes all of them as the ``photoevap`` command.
"""

from .angmom import (
    AngularMomentum,
    clebsch_gordan,
    clear_caches,
    legendre_p,
    racah_w,
    triangle_ok,
    wigner_6j,
    z_coeff,
)
from .errors import (
    DataFormatError,
    DegenerateModelError,
    InvalidPointError,
    PhotoevapError,
    UnderdeterminedError,
    UnscalablePointError,
)
from .fitkit import (
    AngularDataset,
    FitResult,
    chi_square,
    fit_angular,
    read_angular_csv,
    synth_dataset,
)
from .thermo import (
    ExcitonReport,
    NucleusSpec,
    SigmaInvTable,
    SpectrumPoint,
    TemperatureFit,
    TimescaleReport,
    coulomb_barrier,
    exciton_report,
    fit_temperature,
    inverse_capture_xsec,
    nuclear_radius,
    read_spectrum_csv,
    scale_spectrum,
    timescales,
)
from .xsection import (
    DEFAULT_CONFIG,
    ChannelConfig,
    LegendreSeries,
    ShapeParams,
    TermAmplitude,
    asymmetry,
    correlation_factor,
    cross_section,
    enumerate_terms,
    forward_backward_ratio,
    legendre_coefficients,
    magnitude_factor,
    raw_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMomentum",
    "clebsch_gordan",
    "clear_caches",
    "legendre_p",
    "racah_w",
    "triangle_ok",
    "wigner_6j",
    "z_coeff",
    "PhotoevapError",
    "DataFormatError",
    "DegenerateModelError",
    "InvalidPointError",
    "UnderdeterminedError",
    "UnscalablePointError",
    "ShapeParams",
    "ChannelConfig",
    "DEFAULT_CONFIG",
    "TermAmplitude",
    "LegendreSeries",
    "enumerate_terms",
    "correlation_factor",
    "magnitude_factor",
    "raw_coefficients",
    "legendre_coefficients",
    "cross_section",
    "forward_backward_ratio",
    "asymmetry",
    "NucleusSpec",
    "SpectrumPoint",
    "SigmaInvTable",
    "TemperatureFit",
    "ExcitonReport",
    "TimescaleReport",
    "nuclear_radius",
    "coulomb_barrier",
    "inverse_capture_xsec",
    "read_spectrum_csv",
    "scale_spectrum",
    "fit_temperature",
    "exciton_report",
    "timescales",
    "AngularDataset",
    "FitResult",
    "read_angular_csv",
    "chi_square",
    "fit_angular",
    "synth_dataset",
    "__version__",
]
