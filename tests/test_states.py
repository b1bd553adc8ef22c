import math
import tracemalloc

import numpy as np
import pytest
from helpers import partial_trace_first, random_density, random_hermitian, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import states
from qmeas.experiments import EprBellConfig, WhichWayConfig, chsh_single_setup
from qmeas.operators import (
    DimensionMismatchError,
    Operator,
    ValidationError,
    identity,
    partial_trace_second,
)
from qmeas.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
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

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_pure_state_examples():
    assert np.allclose(pure_state([1, 0]).mat, np.diag([1.0, 0.0]))
    assert np.allclose(pure_state([1, 1]).mat, [[0.5, 0.5], [0.5, 0.5]])
    # normalization of an unnormalized input
    assert np.allclose(pure_state([2, 0]).mat, np.diag([1.0, 0.0]))


def test_pure_state_rejects_zero_vector():
    # and an empty or non-finite one, with the same message
    for v in ([0.0, 0.0], [], [np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValidationError, match=r"^pure state vector must be nonzero and finite$"):
            pure_state(v)


@pytest.mark.parametrize("k", [600, -600, 1000, -1000, -520])
def test_pure_state_ignores_the_scale_of_its_vector(k):
    # the norm's squares used to overflow (k > 0) or underflow (k < 0), which
    # rejected a valid vector or, at k = -520, changed the last bits of its projector
    rng = np.random.default_rng(k % 97)
    for d in (2, 3, 4, 8):
        for _ in range(25):
            parts = rng.uniform(0.5, 2.0, (2, d)) * rng.choice([-1, 1], (2, d))
            v = parts[0] + 1j * parts[1]  # normal entries at every scale tried
            assert pure_state(v * 2.0**k).mat.tobytes() == pure_state(v).mat.tobytes()


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(Operator(np.diag([0.5, 0.6])))  # trace 1.1
    with pytest.raises(ValidationError):
        DensityOperator(Operator(np.diag([1.5, -0.5])))  # negative eigenvalue
    with pytest.raises(ValidationError):
        DensityOperator(Operator([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_a_density_operator_is_a_checked_operator():
    rho = random_density(np.random.default_rng(5), 4)
    assert isinstance(rho, Operator)
    assert not {"op", "mat", "dim", "__repr__"} & set(vars(DensityOperator))
    assert repr(rho) == "DensityOperator(dim=4)"
    assert not rho.mat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 0] = 1.0


def test_a_density_operator_of_a_state_keeps_its_bytes():
    rho = random_density(np.random.default_rng(5), 4)
    again = DensityOperator(rho)
    assert type(again) is DensityOperator
    assert again.mat.tobytes() == rho.mat.tobytes()
    assert again.eig.eigenvalues.tobytes() == rho.eig.eigenvalues.tobytes()


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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4, 1e8, 1e12])
def test_spectral_pvm_outcomes_do_not_change_with_the_scale_of_the_observable(seed, scale):
    # the degenerate pair of diag(1, 1, 2, 3) is one outcome at every scale
    q = random_unitary(np.random.default_rng(seed), 4).mat
    m = q @ np.diag([1.0, 1.0, 2.0, 3.0]) @ q.conj().T
    h = scale * (0.5 * (m + m.conj().T))  # exactly Hermitian at every scale
    pvm = spectral_pvm(Operator(h))
    assert len(pvm) == 3
    np.testing.assert_allclose(pvm.labels, scale * np.array([1.0, 2.0, 3.0]), rtol=1e-12, atol=0)


def test_spectral_pvm_of_the_zero_matrix_is_one_outcome():
    pvm = spectral_pvm(Operator(np.zeros((3, 3))))
    assert pvm.labels == (0.0,)
    assert np.array_equal(pvm.stack[0], np.eye(3))


@pytest.mark.parametrize(
    "diagonal, labels",
    [([1.7e308, -1.7e308], (-1.7e308, 1.7e308)), ([1.7e308, 1.7e308, -1.0], (-1.0, 1.7e308))],
)
def test_spectral_pvm_labels_eigenvalues_near_the_float_maximum(diagonal, labels):
    # the eigenvalue differences and the cluster sum overflowed: a RuntimeWarning, and a label inf
    assert spectral_pvm(Operator(np.diag(diagonal))).labels == labels


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
        p = expectation(rho, Operator(rng.uniform(0, 1) * e.mat))
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
        assert np.abs(e.mat @ e.mat - e.mat).max() < 1e-12
        assert abs(np.trace(e.mat) - 1.0) < 1e-12


_E0, _E1 = Operator(np.diag([1.0, 0.0])), Operator(np.diag([0.0, 1.0]))
_OVERLAPPING_D4 = [Operator(np.diag(np.eye(4)[k])) for k in range(2)] + [
    Operator(np.outer(v, v) / 2.0) for v in ([0, 1, 1, 0], [1, 0, 0, 1])
]


@pytest.mark.parametrize(
    "projectors,message",
    [
        # three valid projectors on d = 2: their count is named before any pair
        ([_E0, _E1, polarization_projector(0.3)],
         "PVM has 3 projectors, more than its dimension 2"),
        # projector 1 is checked for idempotence before any pair
        ([_E0, Operator(0.5 * _E1.mat), polarization_projector(0.3)],
         "projector 1 is not idempotent (residual 2.500e-01)"),
        # pairs (0, 3) and (1, 2) overlap: row-major order names (0, 3) first
        (_OVERLAPPING_D4, "projectors 0 and 3 are not orthogonal (residual 5.000e-01)"),
    ],
)
def test_pvm_names_the_first_faulty_entry(projectors, message):
    with pytest.raises(ValidationError) as exc:
        Pvm(projectors, range(len(projectors)))
    assert str(exc.value) == message


def test_pvm_keeps_the_read_only_stack_it_checked():
    for pvm in (polarization_pvm(0.7), spectral_pvm(Operator(np.diag([1.0, 1.0, 2.0, 3.0])))):
        assert not pvm.stack.flags.writeable
        assert pvm.stack.shape == (len(pvm), pvm.dim, pvm.dim)
        assert np.array_equal(pvm.stack, [p.mat for p in pvm.projectors])
        with pytest.raises(ValueError):
            pvm.stack[0, 0, 0] = 0.0


def test_pvm_memory_does_not_grow_with_the_square_of_the_projector_count():
    # an unbounded k once made the orthogonality check one (k, k, d, d) product:
    # 64 MB at k = 1,000, d = 2; k > d is now refused before any pair product
    projectors = [Operator(np.eye(2))] + [Operator(np.zeros((2, 2)))] * 999
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="^PVM has 1000 projectors, more than its dim"):
            Pvm(projectors, range(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("dim", [1, 17])
def test_pvm_rejects_dimensions_outside_2_to_16_before_any_product(dim):
    # 2 I is not idempotent: the dimension is named before P @ P is formed
    with pytest.raises(DimensionMismatchError, match=f"^PVM dimension {dim} outside 2..16$"):
        Pvm([Operator(2.0 * np.eye(dim))], [0])


@pytest.mark.parametrize(
    "make, dim",
    [(lambda: pure_state([1.0]), 1), (lambda: DensityOperator(np.eye(17) / 17.0), 17)],
    ids=["pure-state-d1", "mixed-d17"],
)
def test_density_operator_rejects_dimensions_outside_2_to_16_before_eigh(monkeypatch, make, dim):
    # both were accepted, and a 1500 x 1500 state spent seconds in eigh first
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called before the dimension check")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(
        DimensionMismatchError, match=f"^density operator dimension {dim} outside 2..16$"
    ):
        make()


@pytest.mark.parametrize("theta", [2.0**27, 1.7e8, -3e12, 1e15])
def test_polarization_pvm_accepts_large_finite_angles(theta):
    # theta + pi / 2 rounded by up to half an ulp of theta, so from about 2^27 rad
    # the two projectors failed the PVM's orthogonality check
    pvm = polarization_pvm(theta)
    reduced = math.fmod(theta, 2.0 * math.pi)
    assert pvm.stack.tobytes() == polarization_pvm(reduced).stack.tobytes()
    assert polarization_projector(theta).mat.tobytes() == pvm.stack[0].tobytes()


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_polarization_rejects_a_non_finite_angle_as_an_operator(theta):
    # the mod-2-pi reduction must not turn this into another error type
    with np.errstate(invalid="ignore"):
        for build in (polarization_projector, polarization_pvm):
            with pytest.raises(ValidationError, match=r"^operator entries must be finite"):
                build(theta)


def test_pvm_rejects_a_projector_that_is_not_an_operator():
    # this raised AttributeError: 'numpy.ndarray' object has no attribute 'dim'
    for projectors, k in (([np.eye(2)], 0), ([_E0, np.diag([0.0, 1.0])], 1)):
        with pytest.raises(ValidationError, match=f"^projector {k} is not an Operator$"):
            Pvm(projectors, range(len(projectors)))


def test_polarization_pvm_valid():
    pvm = polarization_pvm(0.7)
    assert pvm.labels == (1.0, -1.0)
    total = pvm.projectors[0].mat + pvm.projectors[1].mat
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_entangled_pair_reduced_states_are_mixed():
    rho = entangled_pair_state()
    for reduced in (partial_trace_second(rho, 2, 2), partial_trace_first(rho, 2, 2)):
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


@pytest.mark.parametrize("dim", range(2, 17))
def test_maximally_mixed_keeps_the_bits_of_the_scaled_identity(dim):
    assert maximally_mixed(dim).mat.tobytes() == ((1.0 / dim) * identity(dim).mat).tobytes()


@pytest.mark.parametrize("dim", [0, -1, 1, 17])
def test_maximally_mixed_rejects_a_dimension_outside_2_to_16(dim):
    # checked before 1 / dim and np.eye, which raise other errors for 0 and -1
    with pytest.raises(DimensionMismatchError, match=rf"density operator dimension {dim} outside 2\.\.16"):
        maximally_mixed(dim)


def test_pauli_y_hermitian():
    assert np.array_equal(PAULI_Y.mat, PAULI_Y.mat.conj().T)


@pytest.mark.parametrize(
    "projectors,labels,error,message",
    [
        ([], [], ValidationError, "PVM needs at least one projector"),
        ([_E0, _E1], [0], ValidationError, "labels and projectors must have matching length"),
        ([_E0, Operator(np.diag([0.0, 1.0, 0.0]))], [0, 1], DimensionMismatchError,
         "projector 1 has dimension 3, expected 2"),
        ([_E0], [0], ValidationError, "projectors do not sum to identity (residual 1.000e+00)"),
    ],
    ids=["empty", "labels", "dimension", "closure"],
)
def test_pvm_rejects_malformed_projector_lists(projectors, labels, error, message):
    with pytest.raises(error) as exc:
        Pvm(projectors, labels)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, "a", 1j], ids=repr)
def test_pvm_labels_must_be_finite_real_numbers(label):
    # nan and inf built outcome labels "nan" and "inf"; "a" leaked
    # "could not convert string to float"
    with pytest.raises(ValidationError) as exc:
        Pvm([Operator(np.eye(2))], [label])
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "PVM labels must be finite real numbers"


def test_pure_state_refuses_a_matrix():
    # a 2x2 input was flattened into a DensityOperator of dimension 4
    with pytest.raises(ValidationError) as exc:
        pure_state([[1.0, 0.0], [0.0, 0.0]])
    assert str(exc.value) == "pure state vector must be one-dimensional, got shape (2, 2)"
    with pytest.raises(DimensionMismatchError) as exc:
        pure_state(1.0)  # a scalar is a dimension-1 state
    assert str(exc.value) == "density operator dimension 1 outside 2..16"
