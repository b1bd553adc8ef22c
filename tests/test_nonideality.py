import math

import numpy as np
import pytest
from helpers import random_density, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import nonideality
from qmeas.nonideality import (
    InequalityReport,
    NonidealityMatrix,
    NotJointMeasurementError,
    RecoveryError,
    check_heisenberg,
    check_martens,
    joint_nonideal_decomposition,
    martens_bound,
    recover_nonideality,
    row_entropy_measure,
)
from qmeas.operators import Operator, ValidationError, identity
from qmeas.povm import BivariatePovm, Povm, validate_povm
from qmeas.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    expectation,
    polarization_projector,
    polarization_pvm,
    pure_state,
    spectral_pvm,
    std_dev,
)
from qmeas.experiments import WhichWayConfig, whichway_povm

LN2 = math.log(2.0)
J_HALF = 0.75 * math.log(3.0) - 0.5 * math.log(2.0)  # entropy of [[1/2,0],[1/2,1]]


def pvm_povm(theta):
    return Povm.from_pvm(polarization_pvm(theta))


def test_recover_self_relation_is_identity():
    rng = np.random.default_rng(2)
    for theta in (0.0, 0.9):
        p = pvm_povm(theta)
        rec = recover_nonideality(p, p)
        assert np.abs(rec.lam - np.eye(2)).max() < 1e-8
        assert rec.residual < 1e-9
    three = validate_povm(
        [
            0.5 * polarization_projector(0.0),
            0.5 * polarization_projector(np.pi / 4),
            identity(2) - 0.5 * polarization_projector(0.0) - 0.5 * polarization_projector(np.pi / 4),
        ]
    )
    rec = recover_nonideality(three, three)
    assert np.abs(rec.lam - np.eye(3)).max() < 1e-7
    assert rec.residual < 1e-9


def test_recover_whichway_marginals_match_closed_form():
    from qmeas.povm import marginal

    for gamma in (0.0, 0.3, 0.5, 0.8, 1.0):
        grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, gamma))
        lam = recover_nonideality(marginal(grid, "row"), pvm_povm(0.0))
        mu = recover_nonideality(marginal(grid, "col"), pvm_povm(np.pi / 4))
        assert np.abs(lam.lam - [[gamma, 0.0], [1.0 - gamma, 1.0]]).max() < 1e-7
        assert np.abs(mu.lam - [[1.0 - gamma, 0.0], [gamma, 1.0]]).max() < 1e-7


def test_recovery_exact_over_dense_gamma_grid():
    from qmeas.povm import marginal

    for gamma in np.linspace(0.0, 1.0, 101):
        grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, float(gamma)))
        lam = recover_nonideality(marginal(grid, "row"), pvm_povm(0.0))
        mu = recover_nonideality(marginal(grid, "col"), pvm_povm(np.pi / 4))
        assert lam.residual < 1e-9
        assert mu.residual < 1e-9


def test_solver_idempotence_on_reconstruction():
    """Re-recovering from the solver's own reconstruction returns the same matrix."""
    targets = pvm_povm(np.pi / 5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        gamma = rng.uniform(0, 1)
        grid = whichway_povm(WhichWayConfig(np.pi / 5, np.pi / 5 + np.pi / 3, gamma))
        from qmeas.povm import marginal

        lam = recover_nonideality(marginal(grid, "row"), targets)
        rebuilt = [
            Operator(sum(lam.lam[m, n] * targets.effects[n].mat for n in range(2)))
            for m in range(2)
        ]
        again = recover_nonideality(validate_povm(rebuilt), targets)
        assert np.abs(again.lam - lam.lam).max() < 1e-7


def test_nonideality_matrix_validation():
    with pytest.raises(ValidationError):
        NonidealityMatrix(lam=np.array([[0.5, 0.0], [0.4, 1.0]]), residual=0.0)  # column sum
    with pytest.raises(ValidationError):
        NonidealityMatrix(lam=np.array([[1.1, 0.0], [-0.1, 1.0]]), residual=0.0)  # negative
    for lam, residual in ([[np.nan], [0.5]], 0.0), ([[np.inf], [0.5]], 0.0), ([[1.0]], np.nan):
        with pytest.raises(ValidationError, match="finite"):
            NonidealityMatrix(lam=lam, residual=residual)
    for bad in (np.nan, np.inf):  # the raw-matrix path used to read these as ideal (J = 0)
        with pytest.raises(ValidationError, match="finite"):
            row_entropy_measure([[bad, 0.5], [0.5, 0.5]])


def test_recovery_that_does_not_converge_raises_with_its_best_iterate(monkeypatch):
    monkeypatch.setattr(nonideality, "MAX_SOLVER_ITERATIONS", 0)
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5))
    from qmeas.povm import marginal

    with pytest.raises(RecoveryError, match="did not converge within 0 iterations") as exc:
        recover_nonideality(marginal(grid, "row"), pvm_povm(0.0))
    assert exc.value.best.shape == (2, 2)
    assert math.isfinite(exc.value.residual) and exc.value.residual > 0.0


def test_row_entropy_identity_is_zero():
    for size in (2, 3, 5):
        assert row_entropy_measure(np.eye(size)) == 0.0


def test_row_entropy_hand_values():
    assert abs(row_entropy_measure(np.array([[0.0, 0.0], [1.0, 1.0]])) - LN2) < 1e-12
    got = row_entropy_measure(np.array([[0.5, 0.0], [0.5, 1.0]]))
    assert abs(got - J_HALF) < 1e-12


@settings(max_examples=100)
@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=16),
)
def test_row_entropy_bounds_square(size, raw):
    if len(raw) < size * size:
        return
    arr = np.array(raw[: size * size]).reshape(size, size)
    colsums = arr.sum(axis=0)
    if np.any(colsums <= 0):
        return
    lam = arr / colsums  # column-stochastic by construction
    j = row_entropy_measure(lam)
    assert 0.0 <= j <= math.log(size) + 1e-12


def test_row_entropy_general_shape_bound():
    # column count over row count scales the maximum for non-square matrices
    rng = np.random.default_rng(13)
    for _ in range(50):
        rows, cols = rng.integers(2, 5, 2)
        lam = rng.uniform(0, 1, (rows, cols))
        lam /= lam.sum(axis=0)
        j = row_entropy_measure(lam)
        assert 0.0 <= j <= math.log(cols) * cols / rows + 1e-12


def test_row_entropy_maximum_at_row_concentration():
    # all columns identical and concentrated on one row: every row spreads fully
    lam = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert abs(row_entropy_measure(lam) - LN2) < 1e-12


def test_joint_decomposition_whichway():
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.25))
    lam, mu = joint_nonideal_decomposition(grid, polarization_pvm(0.0), polarization_pvm(np.pi / 4))
    assert np.abs(lam.lam - [[0.25, 0.0], [0.75, 1.0]]).max() < 1e-7
    assert np.abs(mu.lam - [[0.75, 0.0], [0.25, 1.0]]).max() < 1e-7


def test_joint_decomposition_compatible_product_grid():
    # joint grid of one observable with itself: both smearings are trivial
    e = polarization_pvm(0.6)
    cells = [
        [
            Operator(e.projectors[m].mat @ e.projectors[n].mat)
            for n in range(2)
        ]
        for m in range(2)
    ]
    grid = BivariatePovm(cells, ["+", "-"], ["+", "-"])
    lam, mu = joint_nonideal_decomposition(grid, e, e)
    assert np.abs(lam.lam - np.eye(2)).max() < 1e-7
    assert np.abs(mu.lam - np.eye(2)).max() < 1e-7


def test_joint_decomposition_gamma_one_limit():
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 1.0))
    lam, mu = joint_nonideal_decomposition(grid, polarization_pvm(0.0), polarization_pvm(np.pi / 4))
    assert np.abs(lam.lam - np.eye(2)).max() < 1e-7
    assert np.abs(mu.lam - [[0.0, 0.0], [1.0, 1.0]]).max() < 1e-7


def test_martens_bound_values():
    assert abs(martens_bound(polarization_pvm(0.0), polarization_pvm(np.pi / 4)) - LN2) < 1e-12
    got = martens_bound(polarization_pvm(0.0), polarization_pvm(np.pi / 6))
    assert abs(got - (-math.log(0.75))) < 1e-12
    # identical PVMs: maximal overlap 1, so no positive lower bound
    assert martens_bound(polarization_pvm(0.3), polarization_pvm(0.3)) <= 1e-12


def test_check_martens_boundary_equalities():
    e, f = polarization_pvm(0.0), polarization_pvm(np.pi / 4)
    rep0 = check_martens(whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.0)), e, f)
    assert rep0.satisfied and abs(rep0.slack) < 1e-6
    assert abs(rep0.lhs - LN2) < 1e-6
    rep1 = check_martens(whichway_povm(WhichWayConfig(0.0, np.pi / 4, 1.0)), e, f)
    assert rep1.satisfied and abs(rep1.slack) < 1e-6


def test_check_martens_interior_point():
    e, f = polarization_pvm(0.0), polarization_pvm(np.pi / 4)
    rep = check_martens(whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5)), e, f)
    assert abs(rep.lhs - 2 * J_HALF) < 1e-6
    assert abs(rep.rhs - LN2) < 1e-12
    assert abs(rep.slack - (2 * J_HALF - LN2)) < 1e-6
    assert rep.satisfied


def test_check_martens_rejects_unrelated_targets():
    # marginals of a theta=0 experiment are not smearings of the z-basis-x-basis pair
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5))
    with pytest.raises(NotJointMeasurementError):
        check_martens(grid, polarization_pvm(1.2), polarization_pvm(np.pi / 4))


def test_check_heisenberg_commuting_pair():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    a = random_hermitian(rng, 2)
    rep = check_heisenberg(rho, a, a)
    assert rep.rhs == 0.0
    assert rep.satisfied


def test_check_heisenberg_spin_half_equality():
    rep = check_heisenberg(pure_state([1, 0]), PAULI_X, PAULI_Y)
    assert abs(rep.lhs - 1.0) < 1e-9
    assert abs(rep.rhs - 1.0) < 1e-9
    assert abs(rep.slack) < 1e-9
    assert rep.satisfied


def test_check_heisenberg_random_triples():
    rng = np.random.default_rng(7)
    for k in range(300):
        dim = 2 + k % 3
        rep = check_heisenberg(
            random_density(rng, dim), random_hermitian(rng, dim), random_hermitian(rng, dim)
        )
        assert rep.slack >= -1e-9
        assert rep.satisfied


def _plain_heisenberg(rho, a, b):
    """The unscaled Robertson sides, as computed before operators were scaled."""

    def spread(m):
        centered = m.mat - expectation(rho, m) * np.eye(m.dim)
        columns = centered @ rho.eig.eigenvectors
        weights = np.maximum(rho.eig.eigenvalues, 0.0)
        return float(np.sqrt(max(float((weights * (np.abs(columns) ** 2).sum(axis=0)).sum()), 0.0)))

    lhs = spread(a) * spread(b)
    rhs = 0.5 * abs(complex(np.trace(rho.mat @ (a.mat @ b.mat - b.mat @ a.mat))))
    return lhs, rhs, lhs - rhs


def test_check_heisenberg_keeps_its_bits_at_ordinary_scales():
    rng = np.random.default_rng(11)
    for k in range(60):
        dim, scale = 2 + k % 3, 10.0 ** rng.uniform(-3, 3)
        rho = random_density(rng, dim)
        a, b = scale * random_hermitian(rng, dim), random_hermitian(rng, dim)
        rep = check_heisenberg(rho, a, b)
        assert (rep.lhs, rep.rhs, rep.slack) == _plain_heisenberg(rho, a, b)
        assert std_dev(rho, a) == math.sqrt(_plain_heisenberg(rho, a, a)[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_robertson_sides_stay_finite_where_the_true_values_are():
    # the squares of 1e200 and the commutator's products overflowed: inf, then NaN
    rho, a = pure_state([1, 1]), Operator(np.diag([1e200, -1e200]))
    assert std_dev(rho, a) == pytest.approx(1e200, rel=1e-12)
    assert std_dev(rho, Operator(np.diag([1e-200, -1e-200]))) == pytest.approx(1e-200, rel=1e-12)
    rep = check_heisenberg(rho, a, Operator(np.zeros((2, 2))))
    assert (rep.lhs, rep.rhs, rep.slack, rep.satisfied) == (0.0, 0.0, 0.0, True)
    rep = check_heisenberg(rho, a, a)
    assert (rep.rhs, rep.satisfied) == (0.0, True)
    # spin-half equality at 1e200: both sides read inf, the slack is still exactly 0
    rep = check_heisenberg(pure_state([1, 0]), 1e200 * PAULI_X, 1e200 * PAULI_Y)
    assert (rep.lhs, rep.rhs, rep.slack, rep.satisfied) == (math.inf, math.inf, 0.0, True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_std_dev_stays_finite_where_the_mean_leaves_the_float_range():
    # <A> = 3.4e308 overflowed inside `expectation`, and the NaN reached both results
    rho, a = pure_state([1, 1]), Operator(1.7e308 * np.ones((2, 2)))
    s = std_dev(rho, a)
    assert math.isfinite(s) and s <= 1e-12 * 1.7e308
    rep = check_heisenberg(rho, a, PAULI_Z)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs) and math.isfinite(rep.slack)
    assert rep.satisfied


def test_inequality_report_consistency():
    rep = InequalityReport.from_sides(1.0, 2.0, tol=1e-9)
    assert not rep.satisfied and rep.slack == -1.0
    rep = InequalityReport.from_sides(2.0, 1.0)
    assert rep.satisfied and rep.slack == 1.0


def test_recover_dimension_mismatch():
    from qmeas.operators import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        recover_nonideality(
            validate_povm([identity(2)]), Povm.from_pvm(spectral_pvm(random_hermitian(np.random.default_rng(1), 3)))
        )
