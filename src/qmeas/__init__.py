"""Generalized quantum measurement toolkit.

Builds POVMs from measurement-interaction models, quantifies measurement
nonideality via stochastic-matrix recovery and entropy measures, and
numerically verifies the entropic joint-measurement bound, the Robertson
uncertainty product, and the CHSH behavior of single-setup versus pasted
two-photon experiments.
"""

from .experiments import (
    ChshResult,
    EprBellConfig,
    SampleCheck,
    SweepPoint,
    WhichWayConfig,
    chsh_pasted_aspect,
    chsh_single_setup,
    eprbell_povm,
    martens_sweep,
    quadruple_sample_check,
    whichway_nonideality,
    whichway_povm,
)
from .nonideality import (
    InequalityReport,
    NonidealityMatrix,
    RecoveryError,
    check_heisenberg,
    check_martens,
    joint_nonideal_decomposition,
    martens_bound,
    recover_nonideality,
    row_entropy_measure,
)
from .operators import (
    DimensionMismatchError,
    HermitianEig,
    Operator,
    ValidationError,
    exp_hermitian_generator,
    herm_eig,
    identity,
    is_positive_semidefinite,
    partial_trace_first,
    partial_trace_second,
    tensor_product,
    zeros,
)
from .povm import (
    BivariatePovm,
    OutcomeDistribution,
    OutcomeGrid,
    Povm,
    PovmValidationError,
    QuadrivariatePovm,
    distribution,
    is_pvm,
    marginal,
    marginal_pair,
    validate_povm,
)
from .premeasurement import (
    ModelInconsistencyError,
    PremeasurementModel,
    evolve_joint,
    induced_povm,
    pointer_consistency,
)
from .states import (
    DensityOperator,
    Pvm,
    entangled_pair_state,
    expectation,
    maximally_mixed,
    polarization_projector,
    polarization_pvm,
    pure_state,
    spectral_pvm,
    std_dev,
)

__version__ = "0.1.0"
