"""Simulation and finite-size analysis of iteratively sifted BB84.

The package is organized by concern:

- :mod:`qkd_sift.quantum_core` — states, channels, and the detection POVM;
- :mod:`qkd_sift.adversary` — channel-level attack strategies;
- :mod:`qkd_sift.protocol` — the session runners (actual, virtual,
  estimation) and key distillation;
- :mod:`qkd_sift.finite_key` — tail bounds and the key-length pipeline;
- :mod:`qkd_sift.stats` — martingale traces, coverage experiments, and the
  exact stopping-rule bias enumeration;
- :mod:`qkd_sift.cli` — config ingestion and report emission.
"""

from .adversary import (
    AdaptiveBasisTracker,
    Depolarizing,
    EveStrategy,
    IdentityLossy,
    InterceptResend,
    StrategyConfig,
    make_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from .errors import (
    AbortKeyTooShort,
    AbortNoTestData,
    AbortVerificationFailed,
    ConfigError,
    DomainError,
    EnumerationTooLarge,
    IoError,
    MaxRoundsExceeded,
    NormalizationError,
    ParseError,
    ProtocolAbort,
    QkdSiftError,
    SecurityParameterError,
    TraceInconsistent,
    ValidationError,
)
from .finite_key import (
    AzumaBound,
    KeyLengthResult,
    azuma_tail,
    binary_entropy,
    ec_syndrome_cost,
    key_length,
    phase_error_bound,
)
from .protocol import (
    CountDetected,
    CountPerBasis,
    EstimationRun,
    FinalKeys,
    ProtocolParams,
    SiftedData,
    TerminationRule,
    Transcript,
    derive_stream,
    postprocess,
    run_actual,
    run_estimation,
    run_insecure_termination,
    run_virtual,
)
from .quantum_core import Basis, BobPOVM, ChannelOp, detection_povm, ideal_povm
from .stats import (
    BiasReport,
    CoverageReport,
    MartingaleTrace,
    azuma_coverage,
    build_trace,
    coverage_report,
    coverage_trials,
    enumerate_bias,
    martingale_drift,
    relation_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbortKeyTooShort",
    "AbortNoTestData",
    "AbortVerificationFailed",
    "AdaptiveBasisTracker",
    "AzumaBound",
    "Basis",
    "BiasReport",
    "BobPOVM",
    "ChannelOp",
    "ConfigError",
    "CountDetected",
    "CountPerBasis",
    "CoverageReport",
    "Depolarizing",
    "DomainError",
    "EnumerationTooLarge",
    "EstimationRun",
    "EveStrategy",
    "FinalKeys",
    "IdentityLossy",
    "InterceptResend",
    "IoError",
    "KeyLengthResult",
    "MartingaleTrace",
    "MaxRoundsExceeded",
    "NormalizationError",
    "ParseError",
    "ProtocolAbort",
    "ProtocolParams",
    "QkdSiftError",
    "SecurityParameterError",
    "SiftedData",
    "StrategyConfig",
    "TerminationRule",
    "TraceInconsistent",
    "Transcript",
    "ValidationError",
    "azuma_coverage",
    "azuma_tail",
    "binary_entropy",
    "build_trace",
    "coverage_report",
    "coverage_trials",
    "derive_stream",
    "detection_povm",
    "ec_syndrome_cost",
    "enumerate_bias",
    "ideal_povm",
    "key_length",
    "make_strategy",
    "martingale_drift",
    "phase_error_bound",
    "postprocess",
    "relation_check",
    "run_actual",
    "run_estimation",
    "run_insecure_termination",
    "run_virtual",
    "strategy_from_dict",
    "strategy_to_dict",
]
