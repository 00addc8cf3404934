"""drfsim: degradation of a spin-j directional reference frame.

A small numpy toolkit that iterates the exact measurement channel of a
spin-j frame used to measure maximally mixed qubits, evaluates the closed
form of its fidelity decay, runs the matching semi-classical random walk on
the sphere, and probes whether the evolved states remain mixtures of spin
coherent states.
"""

from .angular_momentum import (
    CGCoefficient,
    CouplingBranch,
    SpinLabel,
    as_spin,
    cg_coefficient,
    coherent_columns,
    coherent_populations,
    projector_element,
)
from .classical_walk import (
    LegendreSpectrum,
    WalkParameters,
    angular_variance,
    classical_fidelity,
    classical_fidelity_series,
    fitted_step,
    initial_spectrum,
    ring_average,
    walk_evolve,
)
from .coherent_analysis import (
    CoherentGrid,
    DecompositionResult,
    build_grid,
    convexity_series,
    convexity_test,
    nnls_solve,
)
from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    DrfsimError,
    InternalConsistencyError,
)
from .quantum_drf import (
    FidelitySeries,
    FrameState,
    KrausSet,
    MeasurementRecord,
    MultipoleSpectrum,
    apply_map,
    build_kraus,
    closed_form_fidelity,
    conditional_fidelity_table,
    conditional_update,
    evolve,
    flux_step,
    multipole_spectrum,
    quantum_fidelity,
    sample_fidelity_batch,
    sample_trajectory,
    transfer_rates,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # angular momentum
    "SpinLabel", "CouplingBranch", "CGCoefficient", "as_spin",
    "cg_coefficient", "projector_element", "coherent_populations",
    "coherent_columns",
    # quantum frame
    "FrameState", "KrausSet", "MeasurementRecord", "FidelitySeries",
    "MultipoleSpectrum", "multipole_spectrum",
    "build_kraus", "transfer_rates", "flux_step", "apply_map", "quantum_fidelity",
    "closed_form_fidelity", "evolve", "conditional_update", "sample_trajectory",
    "conditional_fidelity_table", "sample_fidelity_batch",
    # classical walk
    "LegendreSpectrum", "WalkParameters", "initial_spectrum", "walk_evolve",
    "classical_fidelity", "classical_fidelity_series", "fitted_step",
    "ring_average", "angular_variance",
    # coherent analysis
    "CoherentGrid", "DecompositionResult", "build_grid", "nnls_solve",
    "convexity_test", "convexity_series",
    # errors
    "DrfsimError", "DomainError", "AccuracyError", "ConvergenceError",
    "InternalConsistencyError",
]
