"""POVMs derived from explicit measurement dynamics.

A premeasurement couples the object to an apparatus by a joint unitary,
after which a pointer PVM on the apparatus is read out.  Tracing the
apparatus out of the Heisenberg-evolved pointer projectors yields the
effective object POVM; `pointer_consistency` checks numerically that the
pointer statistics computed both ways agree.

Tensor ordering is object (x) apparatus, matching the partial-trace index
convention of the operators module.
"""

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    DimensionMismatchError,
    Operator,
    ValidationError,
    exp_hermitian_generator,
    identity,
    partial_trace_second,
    tensor_product,
)
from .povm import Povm, PovmValidationError, validate_povm
from .states import DensityOperator, Pvm

__all__ = [
    "ModelInconsistencyError",
    "PremeasurementModel",
    "evolve_joint",
    "induced_povm",
    "pointer_consistency",
]

INDUCED_POVM_TOL = 1e-8


class ModelInconsistencyError(ValidationError):
    """The model's induced effects fail the POVM axioms beyond round-off."""


class PremeasurementModel:
    """Apparatus state, joint unitary and pointer readout of a measurement.

    Accepts either a precomputed unitary or, via `from_generator`, a
    Hamiltonian and interaction time (natural units, hbar = 1).
    """

    __slots__ = ("rho_a", "u", "pointer", "dim_object", "dim_apparatus")

    def __init__(
        self,
        rho_a: DensityOperator,
        u: Operator,
        pointer: Pvm,
        dim_object: int,
        dim_apparatus: int,
    ):
        if dim_object < 1 or dim_apparatus < 1:
            raise ValidationError("factor dimensions must be positive")
        if u.dim != dim_object * dim_apparatus:
            raise DimensionMismatchError(
                f"unitary dimension {u.dim} != {dim_object} * {dim_apparatus}"
            )
        unitarity = np.abs((u.adjoint() @ u).mat - np.eye(u.dim)).max()
        if unitarity > HERMITICITY_TOL:
            raise ValidationError(f"joint operator is not unitary (residual {unitarity:.3e})")
        if rho_a.dim != dim_apparatus:
            raise DimensionMismatchError(
                f"apparatus state dimension {rho_a.dim} != {dim_apparatus}"
            )
        if pointer.dim != dim_apparatus:
            raise DimensionMismatchError(
                f"pointer PVM dimension {pointer.dim} != {dim_apparatus}"
            )
        self.rho_a = rho_a
        self.u = u
        self.pointer = pointer
        self.dim_object = dim_object
        self.dim_apparatus = dim_apparatus

    @classmethod
    def from_generator(
        cls,
        hamiltonian: Operator,
        time: float,
        rho_a: DensityOperator,
        pointer: Pvm,
        dim_object: int,
        dim_apparatus: int,
    ) -> "PremeasurementModel":
        u = exp_hermitian_generator(hamiltonian, time)
        return cls(rho_a, u, pointer, dim_object, dim_apparatus)

    def __repr__(self):
        return (
            f"PremeasurementModel(object={self.dim_object}, apparatus={self.dim_apparatus}, "
            f"pointer_outcomes={len(self.pointer)})"
        )


def evolve_joint(rho_o: DensityOperator, model: PremeasurementModel) -> DensityOperator:
    """Joint post-interaction state U (rho_o x rho_a) U^dagger."""
    if rho_o.dim != model.dim_object:
        raise DimensionMismatchError(
            f"object state dimension {rho_o.dim} != {model.dim_object}"
        )
    joint = tensor_product(rho_o.op, model.rho_a.op)
    return DensityOperator(model.u @ joint @ model.u.adjoint())


def induced_povm(model: PremeasurementModel) -> Povm:
    """Effective object POVM of the model.

    Each effect is the apparatus-side trace of the apparatus-state-weighted,
    Heisenberg-evolved pointer projector, so that
    Tr(rho_o M_m) reproduces the pointer statistics for every object state.
    """
    eye_o = identity(model.dim_object)
    weight = tensor_product(eye_o, model.rho_a.op)
    effects = []
    for proj in model.pointer.projectors:
        heis = model.u.adjoint() @ tensor_product(eye_o, proj) @ model.u
        effects.append(
            partial_trace_second(weight @ heis, model.dim_object, model.dim_apparatus)
        )
    labels = [f"{lab:g}" for lab in model.pointer.labels]
    try:
        return validate_povm(effects, labels, tol=INDUCED_POVM_TOL)
    except PovmValidationError as exc:
        raise ModelInconsistencyError(f"induced effects violate POVM axioms: {exc}") from exc


def pointer_consistency(rho_o: DensityOperator, model: PremeasurementModel) -> float:
    """Largest discrepancy between the two pointer-probability routes.

    Compares Tr(rho_joint (I x E_m)) against Tr(rho_o M_m) over all pointer
    outcomes; an exact operator identity, so anything above round-off
    signals an implementation inconsistency.
    """
    joint = evolve_joint(rho_o, model)
    eye_o = identity(model.dim_object)
    worst = 0.0
    for proj, effect in zip(model.pointer.projectors, induced_povm(model).grid):
        direct = np.trace(joint.mat @ tensor_product(eye_o, proj).mat).real
        via_povm = np.trace(rho_o.mat @ effect).real
        worst = max(worst, abs(direct - via_povm))
    return worst
