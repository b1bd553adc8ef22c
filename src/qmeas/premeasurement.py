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
    _capped,
    _require_int,
    _require_type,
    exp_hermitian_generator,
)
from .operators import tensor_product  # noqa: F401  unused here: ALIASES in bench/test_bench.py pins the binding
from .povm import Povm, PovmValidationError, validate_povm
from .states import DensityOperator

__all__ = [
    "ModelInconsistencyError",
    "PremeasurementModel",
    "evolve_joint",
    "induced_povm",
    "pointer_consistency",
]

INDUCED_POVM_TOL = 1e-8
MAX_JOINT_DIM = 16


class ModelInconsistencyError(ValidationError):
    """The model's induced effects fail the POVM axioms beyond round-off."""


def _require_dims(dim_object: int, dim_apparatus: int):
    """Integer dimensions, each >= 2, whose product is at most MAX_JOINT_DIM."""
    _require_int(dim_object, "dim_object", DimensionMismatchError)
    _require_int(dim_apparatus, "dim_apparatus", DimensionMismatchError)
    if dim_object < 2 or dim_apparatus < 2:
        raise ValidationError(f"dimensions must be >= 2, got {dim_object}, {dim_apparatus}")
    if dim_object * dim_apparatus > MAX_JOINT_DIM:
        raise ValidationError(f"joint dimension {dim_object * dim_apparatus} > {MAX_JOINT_DIM}")


class PremeasurementModel:
    """Apparatus state, joint unitary and pointer readout of a measurement.

    Accepts either a precomputed unitary or, via `from_generator`, a
    Hamiltonian and interaction time (natural units, hbar = 1).
    """

    __slots__ = ("rho_a", "u", "pointer", "dim_object", "dim_apparatus", "_lifted")

    def __init__(
        self,
        rho_a: Operator,
        u: Operator,
        pointer: Povm,
        dim_object: int,
        dim_apparatus: int,
    ):
        _require_dims(dim_object, dim_apparatus)
        _require_type(rho_a, "rho_a")
        _require_type(u, "u")
        _require_type(pointer, "pointer", Povm)
        if u.dim != dim_object * dim_apparatus:
            raise DimensionMismatchError(
                f"unitary dimension {u.dim} != {dim_object} * {dim_apparatus}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # U^dagger U may overflow
            unitarity = _capped(np.abs(u.mat.conj().T @ u.mat - np.eye(u.dim)).max())
        if unitarity > HERMITICITY_TOL:
            raise ValidationError(f"joint operator is not unitary (residual {unitarity:.3e})")
        for what, dim in (("apparatus state", rho_a.dim), ("pointer PVM", pointer.dim)):
            if dim != dim_apparatus:
                raise DimensionMismatchError(f"{what} dimension {dim} != {dim_apparatus}")
        self.rho_a = rho_a
        self.u = u
        self.pointer = pointer
        self.dim_object = dim_object
        self.dim_apparatus = dim_apparatus
        self._lifted = _lifted_effects(self)

    @classmethod
    def from_generator(
        cls,
        hamiltonian: Operator,
        time: float,
        rho_a: Operator,
        pointer: Povm,
        dim_object: int,
        dim_apparatus: int,
    ) -> "PremeasurementModel":
        _require_dims(dim_object, dim_apparatus)
        _require_type(hamiltonian, "hamiltonian")
        if hamiltonian.dim != dim_object * dim_apparatus:  # before any eigensolve
            raise DimensionMismatchError(
                f"hamiltonian dimension {hamiltonian.dim} != {dim_object} * {dim_apparatus}"
            )
        u = exp_hermitian_generator(hamiltonian, time)
        return cls(rho_a, u, pointer, dim_object, dim_apparatus)

    def __repr__(self):
        return (
            f"PremeasurementModel(object={self.dim_object}, apparatus={self.dim_apparatus}, "
            f"pointer_outcomes={len(self.pointer)})"
        )


def _joint(rho_o: DensityOperator, model: PremeasurementModel) -> np.ndarray:
    """U (rho_o x rho_a) U^dagger as an array, not validated as a state."""
    _require_type(rho_o, "rho_o")
    _require_type(model, "model", PremeasurementModel)
    if rho_o.dim != model.dim_object:
        raise DimensionMismatchError(
            f"object state dimension {rho_o.dim} != {model.dim_object}"
        )
    return model.u.mat @ np.kron(rho_o.mat, model.rho_a.mat) @ model.u.mat.conj().T


def evolve_joint(rho_o: DensityOperator, model: PremeasurementModel) -> DensityOperator:
    """Joint post-interaction state U (rho_o x rho_a) U^dagger.  A unitary
    accepted within HERMITICITY_TOL per entry can move the trace by about
    d * 1e-9; a trace more than HERMITICITY_TOL from 1 is divided out."""
    joint = _joint(rho_o, model)
    trace = np.trace(joint).real
    return DensityOperator(joint / trace if abs(trace - 1.0) > HERMITICITY_TOL else joint)


def _lifted_effects(model: PremeasurementModel):
    """Read-only stacks of the lifted pointer projectors I x E_m and of the
    object effects M_m they induce; built once per model, as its `_lifted`."""
    eye_o = np.eye(model.dim_object, dtype=np.complex128)
    lifted = np.kron(eye_o, model.pointer.grid).copy()  # batched; copied, kron returns a view
    heis = model.u.mat.conj().T @ lifted @ model.u.mat
    dims = (model.dim_object, model.dim_apparatus)
    weighted = (np.kron(eye_o, model.rho_a.mat) @ heis).reshape(-1, *dims, *dims)
    effects = np.einsum("mikjk->mij", weighted)  # trace out the apparatus
    lifted.flags.writeable = False
    effects.flags.writeable = False
    return lifted, effects


def induced_povm(model: PremeasurementModel) -> Povm:
    """Effective object POVM of the model.

    Each effect is the apparatus-side trace of the apparatus-state-weighted,
    Heisenberg-evolved pointer projector, so that
    Tr(rho_o M_m) reproduces the pointer statistics for every object state.
    """
    _require_type(model, "model", PremeasurementModel)
    try:
        return validate_povm(model._lifted[1], model.pointer.outcome_labels, tol=INDUCED_POVM_TOL)
    except PovmValidationError as exc:
        raise ModelInconsistencyError(f"induced effects violate POVM axioms: {exc}") from exc


def pointer_consistency(rho_o: DensityOperator, model: PremeasurementModel) -> float:
    """Largest discrepancy between the two pointer-probability routes.

    Compares Tr(rho_joint (I x E_m)) against Tr(rho_o M_m) over all pointer
    outcomes; an exact operator identity, so anything above round-off
    signals an implementation inconsistency.  Both routes read matrices:
    neither the joint state nor the induced effects are validated again.
    """
    direct = np.trace(_joint(rho_o, model) @ model._lifted[0], axis1=-2, axis2=-1).real
    via_povm = np.trace(rho_o.mat @ model._lifted[1], axis1=-2, axis2=-1).real
    return float(np.abs(direct - via_povm).max())
