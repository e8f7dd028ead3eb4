"""wfk: N-band paraunitary wavelet filter banks.

Construction of every rational lossless N-band wavelet filter from a
convex parameter box, state-space realization by cascade, numerical
verification of the defining symmetries, and perfect-reconstruction
subband processing.
"""

from .errors import (
    ConvergenceError,
    DimensionError,
    FirRequiredError,
    FormatError,
    InvariantError,
    PoleError,
    SamplingError,
    WfkError,
)
from .filters import (
    TOL,
    BoxPoint,
    CheckReport,
    Factor,
    FilterParameters,
    box_to_params,
    circle_checks,
    dft_matrix,
    elementary_wavelet_eval,
    params_to_box,
    sample_box,
    sample_parameters,
    subband_filters,
    unit_circle_points,
    wavelet_eval,
)
from .realization import (
    Realization,
    SteinCertificate,
    cascade,
    eval_realization,
    impulse_response,
    mcmillan_degree,
    realize_allpass_core,
    realize_decimated_unitary,
    realize_elementary_wavelet,
    realize_wavelet,
    stein_certificate,
    system_matrix,
)
from .signal import SubbandSet, analyze, synthesis_delay, synthesize

__all__ = [
    "BoxPoint",
    "CheckReport",
    "ConvergenceError",
    "DimensionError",
    "Factor",
    "FilterParameters",
    "FirRequiredError",
    "FormatError",
    "InvariantError",
    "PoleError",
    "Realization",
    "SamplingError",
    "SteinCertificate",
    "SubbandSet",
    "TOL",
    "WfkError",
    "analyze",
    "box_to_params",
    "cascade",
    "circle_checks",
    "dft_matrix",
    "elementary_wavelet_eval",
    "eval_realization",
    "impulse_response",
    "mcmillan_degree",
    "params_to_box",
    "realize_allpass_core",
    "realize_decimated_unitary",
    "realize_elementary_wavelet",
    "realize_wavelet",
    "sample_box",
    "sample_parameters",
    "stein_certificate",
    "subband_filters",
    "synthesis_delay",
    "synthesize",
    "system_matrix",
    "unit_circle_points",
    "wavelet_eval",
]
