"""First-digit statistics in arbitrary base.

Significand/exponent arithmetic on [1, b), the scale-invariant significand
law, a generic engine for condensing densities on R+ onto the significand
interval, entropy bounds, and empirical conformance testing.
"""

from .conformance import (
    ConformanceReport,
    DigitHistogram,
    SEQUENCE_KINDS,
    analyze,
    chi_square,
    digit_histogram,
    gen_sequence,
    gen_sequence_terms,
    ks_uniform,
    sample_lognormal,
    sample_nb,
    tv_to_nb,
)
from .entropy import EntropyReport, analyze_entropy, entropy, mean_log, nb_entropy_closed
from .errors import (
    BenfordError,
    DomainError,
    EmptyData,
    InsufficientData,
    NonPositiveInput,
    NotNormalized,
    QuadratureError,
    TruncationError,
    UnsupportedRatio,
)
from .nb_core import (
    IntervalSet,
    NBDistribution,
    SignificandInterval,
    first_digit_prob,
    interval_measure,
    measure_of_set,
    nb_cdf,
    nb_pdf,
    nb_quantile,
    scale_interval,
)
from .significand import (
    Base,
    SignificandArray,
    SignificandDecomposition,
    decompose,
    decompose_array,
    first_digit,
    log_map,
    mul_mod_b,
)
from .wrapping import (
    K_MAX,
    LogNormalParams,
    MixtureParams,
    S_MIN,
    SourceDensity,
    WrappedDensity,
    distance_to_nb,
    euler_maclaurin_leading,
    lognormal_source,
    normalization,
    source_from_cdf,
    uniform_source,
    wrap_cdf,
    wrap_density,
    wrap_mixture_pdf,
    wrap_pdf,
    wrapped_lognormal_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BenfordError",
    "DomainError",
    "EmptyData",
    "InsufficientData",
    "NonPositiveInput",
    "NotNormalized",
    "QuadratureError",
    "TruncationError",
    "UnsupportedRatio",
    # significand arithmetic
    "Base",
    "SignificandArray",
    "SignificandDecomposition",
    "decompose",
    "decompose_array",
    "first_digit",
    "log_map",
    "mul_mod_b",
    # the significand law
    "NBDistribution",
    "SignificandInterval",
    "IntervalSet",
    "nb_pdf",
    "nb_cdf",
    "nb_quantile",
    "first_digit_prob",
    "interval_measure",
    "scale_interval",
    "measure_of_set",
    # wrapping engine
    "S_MIN",
    "K_MAX",
    "SourceDensity",
    "LogNormalParams",
    "MixtureParams",
    "WrappedDensity",
    "source_from_cdf",
    "lognormal_source",
    "uniform_source",
    "wrap_density",
    "wrap_pdf",
    "wrap_cdf",
    "wrapped_lognormal_pdf",
    "euler_maclaurin_leading",
    "distance_to_nb",
    "wrap_mixture_pdf",
    "normalization",
    # entropy
    "EntropyReport",
    "entropy",
    "nb_entropy_closed",
    "mean_log",
    "analyze_entropy",
    # conformance
    "SEQUENCE_KINDS",
    "DigitHistogram",
    "ConformanceReport",
    "digit_histogram",
    "chi_square",
    "ks_uniform",
    "tv_to_nb",
    "analyze",
    "sample_nb",
    "sample_lognormal",
    "gen_sequence",
    "gen_sequence_terms",
]
