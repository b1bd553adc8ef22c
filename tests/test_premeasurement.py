import numpy as np
import pytest
from helpers import halve_induced_effects, random_density, random_hermitian, random_unitary

from qmeas.nonideality import recover_nonideality
from qmeas.operators import (
    DimensionMismatchError,
    Operator,
    ValidationError,
    exp_hermitian_generator,
    identity,
    partial_trace_second,
    tensor_product,
)
from qmeas.povm import Povm, PovmValidationError
from qmeas.premeasurement import (
    ModelInconsistencyError,
    PremeasurementModel,
    evolve_joint,
    induced_povm,
    pointer_consistency,
)
from qmeas.states import Pvm, pure_state, spectral_pvm

P0 = Operator(np.diag([1.0, 0.0]))
P1 = Operator(np.diag([0.0, 1.0]))
CNOT = Operator(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)
SWAP = Operator(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
)


def computational_pointer():
    return Pvm([P0, P1], [0.0, 1.0])


def cnot_model():
    return PremeasurementModel(
        rho_a=pure_state([1, 0]), u=CNOT, pointer=computational_pointer(), dim_object=2, dim_apparatus=2
    )


def test_model_rejects_non_unitary():
    with pytest.raises(ValidationError, match="unitary"):
        PremeasurementModel(pure_state([1, 0]), Operator(np.eye(4) * 0.5), computational_pointer(), 2, 2)


def test_model_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        PremeasurementModel(pure_state([1, 0]), identity(6), computational_pointer(), 2, 2)
    with pytest.raises(DimensionMismatchError):
        PremeasurementModel(pure_state([1, 0, 0]), identity(4), computational_pointer(), 2, 2)


def test_evolve_identity_coupling():
    rng = np.random.default_rng(3)
    rho_o = random_density(rng, 2)
    model = PremeasurementModel(pure_state([1, 0]), identity(4), computational_pointer(), 2, 2)
    joint = evolve_joint(rho_o, model)
    expected = tensor_product(rho_o.op, model.rho_a.op)
    assert np.abs(joint.mat - expected.mat).max() < 1e-12


def test_evolve_preserves_trace():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = PremeasurementModel(
            random_density(rng, 2), random_unitary(rng, 4), computational_pointer(), 2, 2
        )
        joint = evolve_joint(random_density(rng, 2), model)
        assert abs(joint.op.trace() - 1.0) < 1e-10


def test_evolve_swap():
    rng = np.random.default_rng(7)
    rho_o, rho_a = random_density(rng, 2), random_density(rng, 2)
    model = PremeasurementModel(rho_a, SWAP, computational_pointer(), 2, 2)
    joint = evolve_joint(rho_o, model)
    expected = tensor_product(rho_a.op, rho_o.op)
    assert np.abs(joint.mat - expected.mat).max() < 1e-12


def test_induced_povm_no_coupling_is_noise():
    # without interaction each effect is Tr(rho_a P_k) times identity
    rho_a = pure_state([1, 1])
    model = PremeasurementModel(rho_a, identity(4), computational_pointer(), 2, 2)
    povm = induced_povm(model)
    for proj, effect in zip(computational_pointer().projectors, povm.effects):
        weight = np.trace(rho_a.mat @ proj.mat).real
        assert np.abs(effect.mat - weight * np.eye(2)).max() < 1e-12


def test_induced_povm_cnot_is_ideal_measurement():
    povm = induced_povm(cnot_model())
    assert np.abs(povm.effects[0].mat - P0.mat).max() < 1e-9
    assert np.abs(povm.effects[1].mat - P1.mat).max() < 1e-9


def test_induced_povm_partial_coupling_smears_object_basis():
    """An interpolated coupling yields a nonideal version of the object PVM."""
    coupling = tensor_product(P1, Operator([[0, -1j], [1j, 0]]))  # rotate apparatus when object is 1
    for t in (0.3, 0.7, 1.2):
        u = exp_hermitian_generator(coupling, t)
        model = PremeasurementModel(pure_state([1, 0]), u, computational_pointer(), 2, 2)
        povm = induced_povm(model)
        target = Povm([P0, P1], ["0", "1"])
        rec = recover_nonideality(povm, target)
        assert rec.residual < 1e-7
        # transmitted column: object |0> never flips the pointer
        assert abs(rec.lam[0, 0] - 1.0) < 1e-7
        assert abs(rec.lam[1, 1] - np.sin(t) ** 2) < 1e-7


def test_pointer_consistency_cnot_plus_state():
    model = cnot_model()
    rho_o = pure_state([1, 1])
    assert pointer_consistency(rho_o, model) < 1e-9
    joint = evolve_joint(rho_o, model)
    for proj, expected in zip(computational_pointer().projectors, (0.5, 0.5)):
        direct = np.trace(joint.mat @ tensor_product(identity(2), proj).mat).real
        assert abs(direct - expected) < 1e-12


def test_pointer_consistency_identity_coupling():
    rho_a = pure_state([1, 2j])
    model = PremeasurementModel(rho_a, identity(4), computational_pointer(), 2, 2)
    rng = np.random.default_rng(11)
    rho_o = random_density(rng, 2)
    joint = evolve_joint(rho_o, model)
    for proj in computational_pointer().projectors:
        direct = np.trace(joint.mat @ tensor_product(identity(2), proj).mat).real
        assert abs(direct - np.trace(rho_a.mat @ proj.mat).real) < 1e-12
    assert pointer_consistency(rho_o, model) < 1e-9


def test_random_models_produce_valid_povms_and_consistency():
    rng = np.random.default_rng(13)
    for k in range(100):
        dim_o, dim_a = (2, 2) if k % 2 == 0 else (2, 3)
        pointer = spectral_pvm(random_hermitian(rng, dim_a))
        model = PremeasurementModel(
            random_density(rng, dim_a), random_unitary(rng, dim_o * dim_a), pointer, dim_o, dim_a
        )
        povm = induced_povm(model)  # validates closure and positivity at 1e-8
        total = sum(e.mat for e in povm.effects)
        assert np.abs(total - np.eye(dim_o)).max() < 1e-8
        assert pointer_consistency(random_density(rng, dim_o), model) < 1e-9


def test_from_generator_matches_exponential():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 4)
    direct = PremeasurementModel(
        pure_state([1, 0]), exp_hermitian_generator(h, 0.9), computational_pointer(), 2, 2
    )
    via = PremeasurementModel.from_generator(
        h, 0.9, pure_state([1, 0]), computational_pointer(), 2, 2
    )
    assert np.abs(direct.u.mat - via.u.mat).max() == 0.0


@pytest.mark.parametrize(
    "dims,message",
    [((1, 2), "dimensions must be >= 2, got 1, 2"), ((2, 9), "joint dimension 18 > 16")],
    ids=["1x2", "2x9"],
)
def test_model_rejects_dimensions_outside_2_to_16(dims, message):
    dim_o, dim_a = dims
    pointer = Pvm([Operator(np.diag(np.eye(dim_a)[k])) for k in range(dim_a)], range(dim_a))
    with pytest.raises(ValidationError, match=message):
        PremeasurementModel(pure_state(np.eye(dim_a)[0]), identity(dim_o * dim_a), pointer, *dims)


def hamiltonian_model(rng, dim_o, dim_a):
    pointer = Pvm([Operator(np.diag(np.eye(dim_a)[k])) for k in range(dim_a)], range(dim_a))
    return PremeasurementModel.from_generator(
        random_hermitian(rng, dim_o * dim_a), 1.0, random_density(rng, dim_a), pointer, dim_o, dim_a
    )


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 4)])
def test_pointer_consistency_matches_the_validated_route_bit_for_bit(dims):
    rng = np.random.default_rng(list(dims))
    for _ in range(3):
        model = hamiltonian_model(rng, *dims)
        rho_o = random_density(rng, dims[0])
        joint = evolve_joint(rho_o, model).mat
        lift = identity(dims[0])
        worst = 0.0
        for proj, effect in zip(model.pointer.projectors, induced_povm(model).grid):
            direct = np.trace(joint @ tensor_product(lift, proj).mat).real
            via_povm = np.trace(rho_o.mat @ effect).real
            worst = max(worst, abs(direct - via_povm))
        assert pointer_consistency(rho_o, model) == worst


def test_pointer_consistency_runs_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(29)
    model = hamiltonian_model(rng, 4, 4)
    rho_o = random_density(rng, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for module in ("operators", "states", "povm"):
        monkeypatch.setattr(f"qmeas.{module}.herm_eig", refuse)
    assert pointer_consistency(rho_o, model) < 1e-9


def test_lifted_products_are_built_once_per_model(monkeypatch):
    rng = np.random.default_rng(31)
    model = hamiltonian_model(rng, 2, 4)
    rho_o = random_density(rng, 2)
    expected = [e.mat.copy() for e in induced_povm(model).effects]

    def refuse(*args, **kwargs):
        raise AssertionError("lifted effect rebuilt")

    monkeypatch.setattr("qmeas.premeasurement._lifted_effects", refuse)
    assert all(np.array_equal(e.mat, x) for e, x in zip(induced_povm(model).effects, expected))
    assert pointer_consistency(rho_o, model) < 1e-9


def test_induced_povm_reports_effects_that_fail_the_povm_axioms(monkeypatch):
    halve_induced_effects(monkeypatch)
    with pytest.raises(ModelInconsistencyError) as info:
        induced_povm(cnot_model())
    assert str(info.value) == (
        "induced effects violate POVM axioms: effects do not sum to identity (closure residual 5.000e-01)"
    )
    assert isinstance(info.value.__cause__, PovmValidationError)


def test_lifted_stacks_are_read_only():
    lifted, effects = cnot_model()._lifted
    for stack in (lifted, effects):
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 4)])
def test_induced_effects_equal_the_operator_chain_bit_for_bit(dims):
    # reference: the per-outcome Operator chain, through tensor_product and partial_trace_second
    rng = np.random.default_rng([7, *dims])
    for _ in range(3):
        model = hamiltonian_model(rng, *dims)
        eye = identity(dims[0])
        weight = tensor_product(eye, model.rho_a.op)
        reference = [
            partial_trace_second(
                weight @ (model.u.adjoint() @ tensor_product(eye, proj) @ model.u), *dims
            ).mat
            for proj in model.pointer.projectors
        ]
        assert np.array_equal(induced_povm(model).grid, np.array(reference))


def test_evolve_joint_accepts_a_unitary_the_model_accepted():
    # The unitarity residual is 9.8e-10, inside the model's 1e-9 check, but the
    # joint trace drifts by 1.5e-8: evolve_joint raised "trace is 1.0000000147+0j".
    plus = pure_state(np.full(4, 0.5))
    unitary = Operator(np.eye(16) + 4.9e-10 * (np.ones((16, 16)) - np.eye(16)))
    pointer = Pvm([Operator(np.diag(np.eye(4)[k])) for k in range(4)], range(4))
    joint = evolve_joint(plus, PremeasurementModel(plus, unitary, pointer, 4, 4))
    assert abs(joint.op.trace() - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unitarity_residual_is_finite_when_the_product_overflows():
    with pytest.raises(ValidationError, match=r"not unitary \(residual 1\.798e\+308\)$"):
        PremeasurementModel(
            pure_state([1, 0]), Operator(1e200 * np.eye(4)), computational_pointer(), 2, 2
        )


def test_model_rejects_a_pointer_of_another_dimension():
    pointer = spectral_pvm(Operator(np.diag([1.0, 2.0, 3.0])))
    with pytest.raises(DimensionMismatchError) as exc:
        PremeasurementModel(pure_state([1.0, 0.0]), CNOT, pointer, 2, 2)
    assert type(exc.value) is DimensionMismatchError
    assert str(exc.value) == "pointer PVM dimension 3 != 2"


def test_evolve_joint_rejects_an_object_state_of_another_dimension():
    model = PremeasurementModel(pure_state([1.0, 0.0]), CNOT, computational_pointer(), 2, 2)
    with pytest.raises(DimensionMismatchError) as exc:
        evolve_joint(pure_state([1.0, 0.0, 0.0]), model)
    assert type(exc.value) is DimensionMismatchError
    assert str(exc.value) == "object state dimension 3 != 2"
