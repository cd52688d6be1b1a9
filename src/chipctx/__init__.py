"""chipctx: simulation and analysis bench for a four-mode single-photon
contextuality test.

The package models a preparation chip and four measurement-context circuits
over four spatial modes, evaluates the CHSH-like quantity S against the
non-contextual bound 2 (and its compatibility-corrected form 2 + epsilon),
simulates heralded counting statistics, and provides a classical
stochastic-board baseline that can never violate the bound.
"""

from .analysis import (
    CONTEXTS,
    ContextProbabilities,
    InequalityReport,
    classical_bound_enumeration,
    epsilon,
    expectation,
    marginals,
    report_from_probabilities,
    significance,
)
from .chips import (
    DeviceConfig,
    MeasurementConfig,
    PreparationConfig,
    calibrate_phases,
    load_device_config,
    measurement_unitary,
    prepare_state_circuit,
    prepare_state_direct,
)
from .errors import CalibrationError, ConsistencyError
from .galton import GaltonConfig, galton_run, galton_s, galton_s_exact
from .optics import CouplerSpec, compose, coupler, crossing, phase_shifter
from .sampling import (
    CountRecord,
    estimate_s,
    sample_counts,
)
from .sweep import SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CONTEXTS",
    "CalibrationError",
    "ConsistencyError",
    "ContextProbabilities",
    "CountRecord",
    "CouplerSpec",
    "DeviceConfig",
    "GaltonConfig",
    "InequalityReport",
    "MeasurementConfig",
    "PreparationConfig",
    "SweepSpec",
    "__version__",
    "calibrate_phases",
    "classical_bound_enumeration",
    "compose",
    "coupler",
    "crossing",
    "epsilon",
    "estimate_s",
    "expectation",
    "galton_run",
    "galton_s",
    "galton_s_exact",
    "load_device_config",
    "marginals",
    "measurement_unitary",
    "phase_shifter",
    "prepare_state_circuit",
    "prepare_state_direct",
    "report_from_probabilities",
    "run_sweep",
    "sample_counts",
    "significance",
]
