import numpy as np
import pytest
from helpers import partial_trace_first, random_density, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import states
from qmeas.experiments import EprBellConfig, WhichWayConfig, chsh_single_setup
from qmeas.operators import (
    Operator,
    ValidationError,
    partial_trace_second,
)
from qmeas.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    entangled_pair_state,
    expectation,
    maximally_mixed,
    polarization_projector,
    polarization_pvm,
    pure_state,
    spectral_pvm,
    std_dev,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_pure_state_examples():
    assert np.allclose(pure_state([1, 0]).mat, np.diag([1.0, 0.0]))
    assert np.allclose(pure_state([1, 1]).mat, [[0.5, 0.5], [0.5, 0.5]])
    # normalization of an unnormalized input
    assert np.allclose(pure_state([2, 0]).mat, np.diag([1.0, 0.0]))


def test_pure_state_rejects_zero_vector():
    with pytest.raises(ValidationError):
        pure_state([0.0, 0.0])


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(Operator(np.diag([0.5, 0.6])))  # trace 1.1
    with pytest.raises(ValidationError):
        DensityOperator(Operator(np.diag([1.5, -0.5])))  # negative eigenvalue
    with pytest.raises(ValidationError):
        DensityOperator(Operator([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def _refuse_herm_eig(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("herm_eig called")

    monkeypatch.setattr(states, "herm_eig", refuse)


def test_density_operators_are_validated_without_the_jacobi_solver(monkeypatch):
    _refuse_herm_eig(monkeypatch)
    rho = random_density(np.random.default_rng(41), 4)
    assert pure_state([1, 1j]).dim == 2
    config = EprBellConfig(WhichWayConfig(0.1, 0.9, 0.3), WhichWayConfig(0.4, 1.3, 0.8))
    assert not chsh_single_setup(rho, config).violates
    assert std_dev(rho, Operator(np.eye(4))) == 0.0


def test_density_operator_eig_is_eigh_of_the_symmetrized_matrix():
    m = random_density(np.random.default_rng(43), 4).mat
    m = m + 1e-12 * np.triu(np.ones((4, 4)), 1)  # Hermitian within tolerance, not exactly
    rho = DensityOperator(m)
    half = 0.5 * rho.mat
    values, vectors = np.linalg.eigh(half + half.conj().T)
    assert rho.eig.eigenvalues.tobytes() == values.tobytes()
    assert rho.eig.eigenvectors.tobytes() == vectors.tobytes()
    assert not rho.eig.eigenvalues.flags.writeable
    assert not rho.eig.eigenvectors.flags.writeable
    with pytest.raises(AttributeError):
        rho.eig = rho.eig


def _rho_with_min_eigenvalue(low, dim):
    rng = np.random.default_rng(dim)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rest = rng.uniform(0.1, 1.0, dim - 1)
    return (u * np.concatenate([[low], rest * (1.0 - low) / rest.sum()])) @ u.conj().T


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_density_operator_verdict_at_the_positivity_tolerance(dim, monkeypatch):
    _refuse_herm_eig(monkeypatch)
    # verdicts and message recorded at commit fc6f290, which decided with herm_eig
    assert DensityOperator(_rho_with_min_eigenvalue(-1e-9 + 1e-12, dim)).dim == dim
    with pytest.raises(ValidationError) as failed:
        DensityOperator(_rho_with_min_eigenvalue(-1e-9 - 1e-12, dim))
    assert str(failed.value) == "density operator has negative eigenvalue -1.001e-09"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_operator_trace_overflow_prints_finite():
    with pytest.raises(ValidationError) as failed:
        DensityOperator(Operator(np.diag([1.7e308, 1.7e308])))
    assert str(failed.value) == "density operator trace is 1.79769313486e+308+0j, expected 1"


def test_spectral_pvm_degenerate():
    pvm = spectral_pvm(Operator(np.diag([1.0, 1.0])))
    assert len(pvm) == 1
    assert np.allclose(pvm.projectors[0].mat, np.eye(2))
    assert pvm.labels == (1.0,)


def test_spectral_pvm_pauli_z():
    pvm = spectral_pvm(PAULI_Z)
    assert pvm.labels == (-1.0, 1.0)
    assert np.allclose(pvm.projectors[0].mat, np.diag([0.0, 1.0]))
    assert np.allclose(pvm.projectors[1].mat, np.diag([1.0, 0.0]))


def test_spectral_pvm_pauli_x():
    # hand diagonalization: projectors onto (1, +-1)/sqrt(2)
    pvm = spectral_pvm(PAULI_X)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.abs(pvm.projectors[1].mat - np.outer(plus, plus)).max() < 1e-10
    assert np.abs(pvm.projectors[0].mat - np.outer(minus, minus)).max() < 1e-10


def test_spectral_reconstruction():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4):
        for _ in range(25):
            h = random_hermitian(rng, dim)
            pvm = spectral_pvm(h)
            rec = sum(lab * p.mat for lab, p in zip(pvm.labels, pvm.projectors))
            assert np.abs(rec - h.mat).max() < 1e-9


def test_expectation_examples():
    rho = random_density(np.random.default_rng(2), 3)
    assert abs(expectation(rho, Operator(np.eye(3))) - 1.0) < 1e-12
    assert abs(expectation(pure_state([1, 0]), Operator(np.diag([0.0, 1.0])))) < 1e-12
    # cos^2 overlap: state at 45 degrees, analyzer at 0
    assert abs(expectation(pure_state([1, 1]), polarization_projector(0.0)) - 0.5) < 1e-12


def test_expectation_of_effects_is_a_probability():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rho = random_density(rng, 2)
        e = polarization_projector(rng.uniform(0, np.pi))
        p = expectation(rho, rng.uniform(0, 1) * e)
        assert -1e-9 <= p <= 1 + 1e-9


def test_std_dev_examples():
    up = pure_state([1, 0])
    assert std_dev(up, PAULI_Z) < 1e-9  # eigenstate
    assert abs(std_dev(up, PAULI_X) - 1.0) < 1e-12  # <x>=0, <x^2>=1
    assert std_dev(pure_state([1, 1]), PAULI_X) < 1e-9  # eigenstate of x


def test_std_dev_nonnegative():
    rng = np.random.default_rng(43)
    for _ in range(100):
        assert std_dev(random_density(rng, 3), random_hermitian(rng, 3)) >= 0.0


def test_polarization_axes():
    assert np.abs(polarization_projector(0.0).mat - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(polarization_projector(np.pi / 2).mat - np.diag([0.0, 1.0])).max() < 1e-12


@settings(max_examples=200)
@given(angles, angles)
def test_polarization_overlap_is_cos_squared(theta, theta_prime):
    overlap = np.trace(
        polarization_projector(theta).mat @ polarization_projector(theta_prime).mat
    ).real
    assert abs(overlap - np.cos(theta - theta_prime) ** 2) < 1e-10


def test_polarization_projector_properties_many_angles():
    rng = np.random.default_rng(47)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 1000):
        e = polarization_projector(theta)
        assert np.abs((e @ e).mat - e.mat).max() < 1e-12
        assert abs(e.trace() - 1.0) < 1e-12


def test_polarization_pvm_valid():
    pvm = polarization_pvm(0.7)
    assert pvm.labels == (1.0, -1.0)
    total = pvm.projectors[0].mat + pvm.projectors[1].mat
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_entangled_pair_reduced_states_are_mixed():
    rho = entangled_pair_state()
    for reduced in (partial_trace_second(rho.op, 2, 2), partial_trace_first(rho.op, 2, 2)):
        assert np.abs(reduced.mat - 0.5 * np.eye(2)).max() < 1e-12


def test_entangled_pair_joint_detection():
    """Direct 4-dim contraction oracle: p(+,+) = cos^2(t1 - t2) / 2."""
    rho = entangled_pair_state()
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rng = np.random.default_rng(53)
    for t1, t2 in rng.uniform(0, 2 * np.pi, (20, 2)):
        proj = np.kron(polarization_projector(t1).mat, polarization_projector(t2).mat)
        oracle = np.vdot(psi, proj @ psi).real
        got = expectation(rho, Operator(proj))
        assert abs(got - oracle) < 1e-12
        assert abs(got - 0.5 * np.cos(t1 - t2) ** 2) < 1e-12
    assert abs(
        expectation(
            rho, Operator(np.kron(polarization_projector(0).mat, polarization_projector(0).mat))
        )
        - 0.5
    ) < 1e-12


def test_maximally_mixed():
    rho = maximally_mixed(4)
    assert np.abs(rho.mat - np.eye(4) / 4).max() < 1e-12


def test_pauli_y_hermitian():
    assert PAULI_Y.is_hermitian()
