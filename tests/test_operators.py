import hashlib
from fractions import Fraction

import numpy as np
import pytest
from helpers import random_hermitian

from qmeas import operators
from qmeas.experiments import (
    EprBellConfig,
    WhichWayConfig,
    chsh_pasted_aspect,
    chsh_single_setup,
    eprbell_povm,
    quadruple_sample_check,
    whichway_povm,
)
from qmeas.nonideality import check_heisenberg
from qmeas.operators import (
    DimensionMismatchError,
    EigensolverError,
    Operator,
    ValidationError,
    exp_hermitian_generator,
    herm_eig,
    identity,
    partial_trace_second,
    tensor_product,
)
from qmeas.povm import Povm, distribution
from qmeas.premeasurement import PremeasurementModel, evolve_joint, induced_povm, pointer_consistency
from qmeas.states import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    Pvm,
    expectation,
    maximally_mixed,
    polarization_pvm,
    spectral_pvm,
    std_dev,
)


def test_constructor_rejects_non_square():
    with pytest.raises(ValidationError):
        Operator([[1, 2, 3], [4, 5, 6]])


def test_constructor_rejects_non_finite():
    with pytest.raises(ValidationError):
        Operator([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        Operator([[np.inf, 0], [0, 1]])


# numeric strings, bytes, dates and times were taken as numbers, and None was
# reported as "must be finite (no NaN/Inf)"
@pytest.mark.parametrize(
    "entries",
    [
        [[1, 2], [3]],
        [["a", 1], [1, 1]],
        [[{}, 1], [1, 1]],
        [[1 + 2j, 0], [0, "1"]],
        [[b"1", 0], [0, 1]],
        np.array([[1, 0], [0, 1]], dtype="datetime64[s]"),
        np.array([[1, 0], [0, 1]], dtype="timedelta64[s]"),
        [[None, 0], [0, 1]],
    ],
    ids=[
        "ragged", "non-numeric", "not-a-number-type", "numeric-string", "bytes", "datetime64",
        "timedelta64", "none",
    ],
)
def test_constructor_rejects_ragged_and_non_numeric_entries(entries):
    # numpy's errors leaked: ValueError "setting an array element with a
    # sequence" for the ragged rows, "complex() arg is a malformed string"
    # for "a", and TypeError "must be real number, not dict" for {}
    with pytest.raises(ValidationError, match="^operator entries must be an array of numbers$"):
        Operator(entries)


@pytest.mark.parametrize(
    "entries", [[[10**400, 0], [0, 1]], [[0, Fraction(-(10**400))], [1, 1]]], ids=["int", "fraction"]
)
def test_constructor_reports_a_number_beyond_the_float_range_as_not_finite(entries):
    # OverflowError leaked: "int too large to convert to float", "integer division result too large"
    with pytest.raises(ValidationError, match=r"^operator entries must be finite \(no NaN/Inf\)$"):
        Operator(entries)


def test_constructor_keeps_the_bytes_of_every_kind_of_number():
    entries = [
        [True, np.int8(-3), 2**70 + 1, Fraction(1, 3)],
        [0.1, np.float32(0.1), 1 + 2j, np.complex64(0.5j)],
        [np.bool_(False), -0.0, 5e-324, np.uint64(2**64 - 1)],
        [Fraction(-7, 2), np.float16(0.3), 2**63 + 1, np.longdouble(0.1)],
    ]
    want = np.array([[complex(x) for x in row] for row in entries])
    assert Operator(entries).mat.tobytes() == want.tobytes()
    assert Operator(np.array(entries, dtype=object)).mat.tobytes() == want.tobytes()


def test_entries_are_immutable():
    op = identity(2)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_tensor_examples():
    assert np.array_equal(tensor_product(identity(2), identity(2)).mat, np.eye(4))
    got = tensor_product(Operator(np.diag([1.0, 0.0])), Operator(np.diag([0.0, 1.0])))
    assert np.array_equal(got.mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = Operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert abs(np.trace(tensor_product(a, b).mat) - np.trace(a.mat) * np.trace(b.mat)) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        got = partial_trace_second(tensor_product(a, b), 2, 2)
        assert np.abs(got.mat - a.mat * np.trace(b.mat)).max() < 1e-12


def test_partial_trace_identity():
    got = partial_trace_second(identity(4), 2, 2)
    assert np.array_equal(got.mat, 2.0 * np.eye(2))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    for d1, d2 in ((2, 2), (2, 3), (3, 2)):
        m = Operator(
            rng.standard_normal((d1 * d2, d1 * d2)) + 1j * rng.standard_normal((d1 * d2, d1 * d2))
        )
        assert abs(np.trace(partial_trace_second(m, d1, d2).mat) - np.trace(m.mat)) < 1e-12


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionMismatchError):
        partial_trace_second(identity(6), 2, 2)


@pytest.mark.parametrize(
    "dims, name", [((2.0, 2.0), "dim_first"), ((2, 2.0), "dim_second"), ((True, 4), "dim_first")]
)
def test_partial_trace_requires_integer_dimensions(dims, name):
    # a float reached numpy's reshape: "'float' object cannot be interpreted as an integer"
    with pytest.raises(DimensionMismatchError, match=f"^{name} must be an integer, got "):
        partial_trace_second(identity(4), *dims)


def test_herm_eig_diagonal():
    eig = herm_eig(Operator(np.diag([3.0, 1.0])))
    assert np.allclose(eig.eigenvalues, [1.0, 3.0])


def test_herm_eig_pauli_x():
    # hand diagonalization: eigenvalues -1, +1 with eigenvectors (1, -+1)/sqrt(2)
    eig = herm_eig(Operator([[0, 1], [1, 0]]))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
    minus, plus = eig.eigenvectors[:, 0], eig.eigenvectors[:, 1]
    assert abs(abs(np.vdot(minus, np.array([1, -1]) / np.sqrt(2))) - 1) < 1e-10
    assert abs(abs(np.vdot(plus, np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-10


def test_herm_eig_reconstruction_many():
    """1000 random Hermitian matrices of dim <= 8 reconstruct within 1e-10."""
    rng = np.random.default_rng(17)
    for k in range(1000):
        dim = 2 + k % 7
        h = random_hermitian(rng, dim)
        eig = herm_eig(h)
        rec = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.linalg.norm(rec - h.mat) < 1e-10
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-10
        assert np.all(np.diff(eig.eigenvalues) >= 0)


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e8, 1e200])
@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_herm_eig_matches_lapack_at_large_entry_scales(monkeypatch, dim, scale):
    # At these scales the sweeps leave subnormal off-diagonal entries behind;
    # rotating on one of them used to overflow to NaN eigenvalues.  The 1e-12
    # stop is never met either: every solve ran all 100 sweeps until the stop
    # once a sweep no longer lowers the norm.  At 1e200 that norm's squares
    # overflow, and an Inf norm must not read as "no lower".
    monkeypatch.setattr(operators, "_JACOBI_MAX_SWEEPS", 15)
    h = random_hermitian(np.random.default_rng(dim), dim).mat * scale
    want = np.linalg.eigvalsh(h)
    got = herm_eig(Operator(h)).eigenvalues
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_herm_eig_raises_at_the_sweep_cap(monkeypatch):
    monkeypatch.setattr(operators, "_JACOBI_MAX_SWEEPS", 1)
    h = random_hermitian(np.random.default_rng(8), 8)
    with pytest.raises(EigensolverError, match=r"within 1 sweeps \(off-diagonal norm \d"):
        herm_eig(h)


def test_herm_eig_bytes_are_pinned():
    # SHA-256 of the eigenvalue and eigenvector bytes (signed zeros included),
    # recorded with the solver of commit 42c43d0, before the rounding-floor
    # stop, on x86-64 Linux with numpy 2.4.6 and OpenBLAS 0.3.31; another BLAS
    # may round the products differently.  Up to a norm of 1e2 every solve
    # stops on the 1e-12 threshold; at 1e4 the d=8 and d=16 solves ran all
    # 100 sweeps then and stop at the rounding floor now, with the same bytes.
    digest = hashlib.sha256()
    for dim in (2, 4, 8, 16):
        for norm in (1e-8, 1e-4, 1.0, 1e2, 1e4):
            h = random_hermitian(np.random.default_rng(dim), dim).mat
            eig = herm_eig(Operator(h * (norm / np.linalg.norm(h))))
            digest.update(eig.eigenvalues.tobytes())
            digest.update(eig.eigenvectors.tobytes())
    assert digest.hexdigest() == "7b69410ef027c257b574eb7dd8a649ac443f29f2757f40953e9ef68c7cfe29ce"


def test_herm_eig_angle_does_not_overflow_near_the_float_maximum():
    # atan2(2 r, a_pp - a_qq) overflowed here with two RuntimeWarnings, though
    # the eigenvalues came out right
    eig = herm_eig(Operator([[1e308, 1e308], [1e308, -1e308]]))
    want = np.sqrt(2.0) * 1e308
    assert np.abs(eig.eigenvalues - [-want, want]).max() <= 1e-15 * want


def test_herm_eig_names_an_input_whose_off_diagonal_norm_overflows():
    with pytest.raises(EigensolverError) as exc:
        herm_eig(Operator([[0, 1.7e308], [1.7e308, 0]]))
    assert str(exc.value) == "Jacobi eigensolver overflowed after 0 sweeps"


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        herm_eig(Operator([[0, 1], [0, 0]]))


@pytest.mark.parametrize("dim", [1, 17])
def test_herm_eig_rejects_dimensions_outside_2_to_16(dim):
    # a 96 x 96 input ran for seconds before any caller could reject its size
    with pytest.raises(DimensionMismatchError, match=f"dimension {dim} outside 2..16"):
        herm_eig(Operator(np.eye(dim)))


@pytest.mark.parametrize(
    "make, dim, message",
    [
        (maximally_mixed, 4.0, "density operator dimension must be an integer, got 4.0"),
        (maximally_mixed, True, "density operator dimension must be an integer, got True"),
        (identity, 4.0, "identity dimension must be an integer, got 4.0"),
        (identity, True, "identity dimension must be an integer, got True"),
        (identity, 1, "identity dimension 1 outside 2..16"),
        (identity, 17, "identity dimension 17 outside 2..16"),
    ],
    ids=["mixed-float", "mixed-bool", "eye-float", "eye-bool", "eye-1", "eye-17"],
)
def test_dimensions_are_integers_in_2_to_16(make, dim, message):
    # a float raised numpy's TypeError, True read as dimension 1, and identity took any size
    with pytest.raises(DimensionMismatchError) as exc:
        make(dim)
    assert str(exc.value) == message
    assert make(np.int64(4)).dim == 4


def test_exp_names_a_phase_beyond_the_float_range():
    # eigenvalue * time overflowed with two RuntimeWarnings, and the NaN unitary
    # was then rejected as "operator entries must be finite", though every input was
    with pytest.raises(ValidationError, match=r"^eigenvalue \* time leaves the float range$"):
        exp_hermitian_generator(Operator(np.diag([1e10, -1e10])), 1e300)


def test_exp_zero_time_is_identity():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 3)
    assert np.abs(exp_hermitian_generator(h, 0.0).mat - np.eye(3)).max() < 1e-12


def test_exp_scalar_oracle():
    # diag(pi, 0) at t = 1: entrywise exp(-i pi) = -1, exp(0) = 1
    u = exp_hermitian_generator(Operator(np.diag([np.pi, 0.0])), 1.0)
    assert np.abs(u.mat - np.diag([-1.0, 1.0])).max() < 1e-12


def test_exp_unitarity():
    rng = np.random.default_rng(31)
    for dim in (2, 4, 6):
        u = exp_hermitian_generator(random_hermitian(rng, dim), 0.37)
        assert np.abs(u.mat.conj().T @ u.mat - np.eye(dim)).max() < 1e-10


def test_exp_group_property():
    rng = np.random.default_rng(37)
    for _ in range(10):
        h = random_hermitian(rng, 4)
        t1, t2 = rng.uniform(-2, 2, 2)
        lhs = exp_hermitian_generator(h, t1).mat @ exp_hermitian_generator(h, t2).mat
        rhs = exp_hermitian_generator(h, t1 + t2)
        assert np.abs(lhs - rhs.mat).max() < 1e-9


def test_exp_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        exp_hermitian_generator(Operator([[0, 1], [0, 0]]), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_herm_eig_symmetrizes_entries_near_the_float_maximum():
    # (m + m^H) / 2 overflowed for entries above ~9e307 and returned [1, inf]
    assert herm_eig(Operator([[1e308, 0], [0, 1]])).eigenvalues.tolist() == [1.0, 1e308]
    got = herm_eig(Operator([[1.7e308, 0], [0, -1.7e308]])).eigenvalues
    assert got.tolist() == [-1.7e308, 1.7e308]


# Entries near the float maximum: m - m^H overflowed to inf before it was
# formed from halves, and the checks printed "residual inf".
HUGE_SKEW = Operator([[0, 1.7e308], [-1.7e308, 0]])
HALF_I = Operator(np.eye(2) / 2)
HUGE_SKEW_CHECKS = {
    "density": lambda: DensityOperator(HUGE_SKEW),
    "herm_eig": lambda: herm_eig(HUGE_SKEW),
    "povm": lambda: Povm([HUGE_SKEW, HALF_I]),
    "pvm": lambda: Pvm([HUGE_SKEW, HALF_I], [0, 1]),
    "expectation": lambda: expectation(maximally_mixed(2), HUGE_SKEW),
    "heisenberg": lambda: check_heisenberg(maximally_mixed(2), HALF_I, HUGE_SKEW),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check", HUGE_SKEW_CHECKS.values(), ids=HUGE_SKEW_CHECKS.keys())
def test_hermiticity_checks_print_a_finite_residual_near_the_float_maximum(check):
    with pytest.raises(ValidationError, match=r"Hermitian \(residual 1\.798e\+308") as info:
        check()
    assert "inf" not in str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_is_hermitian_near_the_float_maximum():
    assert operators._hermiticity_residual(HUGE_SKEW.mat) > operators.HERMITICITY_TOL
    huge_hermitian = Operator([[1.7e308, 1.7e308j], [-1.7e308j, -1.7e308]])
    assert operators._hermiticity_residual(huge_hermitian.mat) <= operators.HERMITICITY_TOL


def test_hermiticity_residual_matches_the_plain_difference():
    rng = np.random.default_rng(41)
    for scale in (1e-300, 1e-9, 1.0, 1e9, 1e300):
        for _ in range(50):
            m = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert operators._hermiticity_residual(m) == np.abs(m - m.conj().T).max()


@pytest.mark.parametrize(
    "dims, message",
    [((-2, -2), "dim_first must be >= 1, got -2"), ((4, 0), "dim_second must be >= 1, got 0"),
     ((-1, -4), "dim_first must be >= 1, got -1")],
)
def test_partial_trace_factors_must_be_positive(dims, message):
    # (-2, -2) multiplies to 4 and leaked numpy's "can only specify one unknown dimension"
    with pytest.raises(DimensionMismatchError) as exc:
        partial_trace_second(Operator(np.eye(4)), *dims)
    assert str(exc.value) == message


_A = np.eye(2)
_CONFIG = EprBellConfig(WhichWayConfig(0.1, 0.5, 0.3), WhichWayConfig(0.2, 0.7, 0.6))
_POINTER = polarization_pvm(0.0)
_MODEL = PremeasurementModel(maximally_mixed(2), identity(4), _POINTER, 2, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: distribution(_A / 2, polarization_pvm(0.3)), "rho must be an Operator, got ndarray"),
        (lambda: expectation(_A / 2, PAULI_Z), "rho must be an Operator, got ndarray"),
        (lambda: expectation(maximally_mixed(2), _A), "m must be an Operator, got ndarray"),
        (lambda: std_dev(maximally_mixed(2), _A), "a must be an Operator, got ndarray"),
        (lambda: std_dev(Operator(_A / 2), PAULI_Z), "rho must be a DensityOperator, got Operator"),
        (lambda: check_heisenberg(_A / 2, PAULI_X, PAULI_Z), "rho must be a DensityOperator, got ndarray"),
        (lambda: check_heisenberg(maximally_mixed(2), PAULI_X, _A), "b must be an Operator, got ndarray"),
        (lambda: chsh_single_setup(np.eye(4) / 4, _CONFIG), "rho must be an Operator, got ndarray"),
        (lambda: chsh_pasted_aspect(np.eye(4) / 4, 0.0, 0.8, 0.4, 1.2), "rho must be an Operator, got ndarray"),
        (lambda: quadruple_sample_check(np.eye(4) / 4, _CONFIG, 10, 1), "rho must be an Operator, got ndarray"),
        (lambda: herm_eig(_A), "m must be an Operator, got ndarray"),
        (lambda: spectral_pvm(_A), "a must be an Operator, got ndarray"),
        (lambda: exp_hermitian_generator(_A, 1.0), "h must be an Operator, got ndarray"),
        (lambda: tensor_product(_A, PAULI_Z), "a must be an Operator, got ndarray"),
        (lambda: tensor_product(PAULI_Z, _A), "b must be an Operator, got ndarray"),
        (lambda: partial_trace_second(np.eye(4), 2, 2), "m must be an Operator, got ndarray"),
        (lambda: PremeasurementModel(_A / 2, identity(4), _POINTER, 2, 2),
         "rho_a must be an Operator, got ndarray"),
        (lambda: PremeasurementModel(maximally_mixed(2), np.eye(4), _POINTER, 2, 2),
         "u must be an Operator, got ndarray"),
        (lambda: PremeasurementModel(maximally_mixed(2), identity(4), _A, 2, 2),
         "pointer must be a Povm, got ndarray"),
        (lambda: PremeasurementModel.from_generator(np.eye(4), 1.0, maximally_mixed(2), _POINTER, 2, 2),
         "hamiltonian must be an Operator, got ndarray"),
        (lambda: evolve_joint(_A / 2, _MODEL), "rho_o must be an Operator, got ndarray"),
        (lambda: evolve_joint(maximally_mixed(2), 3), "model must be a PremeasurementModel, got int"),
        (lambda: pointer_consistency(_A / 2, _MODEL), "rho_o must be an Operator, got ndarray"),
        (lambda: induced_povm(3), "model must be a PremeasurementModel, got int"),
        (lambda: whichway_povm(3), "c must be a WhichWayConfig, got int"),
        (lambda: eprbell_povm(3), "c must be an EprBellConfig, got int"),
        (lambda: chsh_single_setup(maximally_mixed(4), 3), "c must be an EprBellConfig, got int"),
        (lambda: quadruple_sample_check(maximally_mixed(4), 3, 10, 1), "c must be an EprBellConfig, got int"),
    ],
    ids=[
        "distribution", "expectation-rho", "expectation-m", "std_dev-a", "std_dev-plain-operator-rho",
        "check_heisenberg-rho", "check_heisenberg-b", "chsh_single_setup", "chsh_pasted_aspect",
        "quadruple_sample_check", "herm_eig", "spectral_pvm", "exp_hermitian_generator",
        "tensor_product-a", "tensor_product-b", "partial_trace_second",
        "PremeasurementModel-rho_a", "PremeasurementModel-u", "PremeasurementModel-pointer",
        "from_generator-hamiltonian", "evolve_joint-rho_o", "evolve_joint-model",
        "pointer_consistency-rho_o", "induced_povm-model", "whichway_povm", "eprbell_povm",
        "chsh_single_setup-c", "quadruple_sample_check-c",
    ],
)
def test_an_argument_of_the_wrong_kind_raises_validation_error(call, message):
    # each leaked AttributeError: 'numpy.ndarray' object has no attribute 'dim' (or 'mat'),
    # 'int' object has no attribute 'dim_object' (or 'theta', 'arm1', '_lifted'),
    # and the plain Operator state 'Operator' object has no attribute 'eig'
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_a_plain_operator_state_still_gives_expectations_and_distributions():
    state = Operator(np.eye(2) / 2)
    assert expectation(state, PAULI_Z) == 0.0
    assert np.array_equal(distribution(state, polarization_pvm(0.0)).probabilities, [0.5, 0.5])
