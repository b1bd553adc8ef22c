import hashlib

import numpy as np
import pytest
from helpers import random_hermitian

from qmeas import operators
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
from qmeas.povm import Povm
from qmeas.states import DensityOperator, Pvm, expectation, maximally_mixed


def test_constructor_rejects_non_square():
    with pytest.raises(ValidationError):
        Operator([[1, 2, 3], [4, 5, 6]])


def test_constructor_rejects_non_finite():
    with pytest.raises(ValidationError):
        Operator([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        Operator([[np.inf, 0], [0, 1]])


def test_entries_are_immutable():
    op = identity(2)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_adjoint_examples():
    assert np.array_equal(identity(2).adjoint().mat, np.eye(2))
    assert np.array_equal(Operator([[0, 1], [0, 0]]).adjoint().mat, [[0, 0], [1, 0]])
    assert np.array_equal(Operator([[0, 1j], [0, 0]]).adjoint().mat, [[0, 0], [-1j, 0]])


def test_adjoint_involution_exact():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        m = Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        assert np.array_equal(m.adjoint().adjoint().mat, m.mat)


def test_trace_examples():
    assert identity(4).trace() == 4
    assert Operator([[1, 5], [7, 2]]).trace() == 3
    v = np.array([1.0, 2.0, 2j]) / 3.0
    proj = Operator(np.outer(v, v.conj()))
    assert abs(proj.trace() - 1.0) < 1e-12


def test_trace_cyclicity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = Operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = Operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert abs((a @ b).trace() - (b @ a).trace()) < 1e-12


def test_tensor_examples():
    assert np.array_equal(tensor_product(identity(2), identity(2)).mat, np.eye(4))
    got = tensor_product(Operator(np.diag([1.0, 0.0])), Operator(np.diag([0.0, 1.0])))
    assert np.array_equal(got.mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = Operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert abs(tensor_product(a, b).trace() - a.trace() * b.trace()) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        got = partial_trace_second(tensor_product(a, b), 2, 2)
        assert np.abs(got.mat - a.mat * b.trace()).max() < 1e-12


def test_partial_trace_identity():
    got = partial_trace_second(identity(4), 2, 2)
    assert np.array_equal(got.mat, 2.0 * np.eye(2))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    for d1, d2 in ((2, 2), (2, 3), (3, 2)):
        m = Operator(
            rng.standard_normal((d1 * d2, d1 * d2)) + 1j * rng.standard_normal((d1 * d2, d1 * d2))
        )
        assert abs(partial_trace_second(m, d1, d2).trace() - m.trace()) < 1e-12


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionMismatchError):
        partial_trace_second(identity(6), 2, 2)


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


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        herm_eig(Operator([[0, 1], [0, 0]]))


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
        assert np.abs((u.adjoint() @ u).mat - np.eye(dim)).max() < 1e-10


def test_exp_group_property():
    rng = np.random.default_rng(37)
    for _ in range(10):
        h = random_hermitian(rng, 4)
        t1, t2 = rng.uniform(-2, 2, 2)
        lhs = exp_hermitian_generator(h, t1) @ exp_hermitian_generator(h, t2)
        rhs = exp_hermitian_generator(h, t1 + t2)
        assert np.abs(lhs.mat - rhs.mat).max() < 1e-9


def test_exp_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        exp_hermitian_generator(Operator([[0, 1], [0, 0]]), 1.0)


def test_scalar_multiplication_and_arithmetic():
    a = Operator([[1, 0], [0, 2]])
    assert np.array_equal((2 * a).mat, [[2, 0], [0, 4]])
    assert np.array_equal((a - a).mat, np.zeros((2, 2)))
    with pytest.raises(TypeError):
        a * a  # noqa: B018  -- scalar-only multiply
    with pytest.raises(DimensionMismatchError):
        a @ identity(3)


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
    assert not HUGE_SKEW.is_hermitian()
    assert Operator([[1.7e308, 1.7e308j], [-1.7e308j, -1.7e308]]).is_hermitian()


def test_hermiticity_residual_matches_the_plain_difference():
    rng = np.random.default_rng(41)
    for scale in (1e-300, 1e-9, 1.0, 1e9, 1e300):
        for _ in range(50):
            m = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert operators._hermiticity_residual(m) == np.abs(m - m.conj().T).max()
