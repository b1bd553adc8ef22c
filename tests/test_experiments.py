import math

import numpy as np
import pytest
from helpers import random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.nonideality import martens_bound, row_entropy_measure
from qmeas.operators import ValidationError
from qmeas.povm import Povm, distribution, marginal, marginal_pair
from qmeas.states import entangled_pair_state, polarization_projector, polarization_pvm
from qmeas.experiments import (
    ChshResult,
    EprBellConfig,
    SweepPoint,
    WhichWayConfig,
    chsh_pasted_aspect,
    chsh_single_setup,
    eprbell_povm,
    martens_sweep,
    quadruple_sample_check,
    whichway_nonideality,
    whichway_nonideality_analytic,
    whichway_povm,
)

LN2 = math.log(2.0)
J_HALF = 0.75 * math.log(3.0) - 0.5 * math.log(2.0)
OPTIMAL_ANGLES = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)

gammas = st.floats(min_value=0.0, max_value=1.0)
angles = st.floats(min_value=-np.pi, max_value=np.pi)


def test_whichway_grid_entries():
    gamma, theta, theta_prime = 0.5, 0.0, np.pi / 4
    grid = whichway_povm(WhichWayConfig(theta, theta_prime, gamma))
    e, ep = polarization_projector(theta).mat, polarization_projector(theta_prime).mat
    assert np.abs(grid.grid[0, 0]).max() == 0.0  # double detection is impossible
    assert np.abs(grid.grid[0, 1] - gamma * e).max() < 1e-12
    assert np.abs(grid.grid[1, 0] - (1 - gamma) * ep).max() < 1e-12
    assert np.abs(grid.grid[1, 1] - (np.eye(2) - gamma * e - (1 - gamma) * ep)).max() < 1e-12


def test_whichway_gamma_one_degenerates():
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 1.0))
    col = marginal(grid, "col")
    assert np.abs(col.effects[0].mat).max() == 0.0
    assert np.abs(col.effects[1].mat - np.eye(2)).max() < 1e-12
    row = marginal(grid, "row")
    e = polarization_projector(0.0).mat
    assert np.abs(row.effects[0].mat - e).max() < 1e-12
    assert np.abs(row.effects[1].mat - (np.eye(2) - e)).max() < 1e-12


@settings(max_examples=100)
@given(angles, angles, gammas)
def test_whichway_closure(theta, theta_prime, gamma):
    grid = whichway_povm(WhichWayConfig(theta, theta_prime, gamma))
    assert np.abs(grid.grid.sum(axis=(0, 1)) - np.eye(2)).max() < 1e-9


def test_whichway_config_rejects_bad_gamma():
    with pytest.raises(ValidationError):
        WhichWayConfig(0.0, 0.0, 1.5)


def test_whichway_nonideality_values():
    lam, mu = whichway_nonideality(WhichWayConfig(0.0, np.pi / 4, 0.3))
    assert np.abs(lam.lam - [[0.3, 0.0], [0.7, 1.0]]).max() < 1e-6
    assert np.abs(mu.lam - [[0.7, 0.0], [0.3, 1.0]]).max() < 1e-6
    lam, _ = whichway_nonideality(WhichWayConfig(0.0, np.pi / 4, 1.0))
    assert np.abs(lam.lam - np.eye(2)).max() < 1e-6
    _, mu = whichway_nonideality(WhichWayConfig(0.0, np.pi / 4, 0.0))
    assert np.abs(mu.lam - np.eye(2)).max() < 1e-6


def test_whichway_marginals_match_analytic_smearing_without_solver():
    """Marginal effects equal the closed-form mixture of the ideal projectors."""
    theta, theta_prime = 0.35, 0.35 + np.pi / 4
    projs = [polarization_projector(theta).mat, polarization_projector(theta + np.pi / 2).mat]
    projs_p = [
        polarization_projector(theta_prime).mat,
        polarization_projector(theta_prime + np.pi / 2).mat,
    ]
    for gamma in np.linspace(0.0, 1.0, 101):
        config = WhichWayConfig(theta, theta_prime, float(gamma))
        grid = whichway_povm(config)
        lam, mu = whichway_nonideality_analytic(config)
        row = marginal(grid, "row")
        col = marginal(grid, "col")
        for m in range(2):
            rebuilt = sum(lam[m, n] * projs[n] for n in range(2))
            assert np.abs(row.effects[m].mat - rebuilt).max() < 1e-12
            rebuilt_p = sum(mu[m, n] * projs_p[n] for n in range(2))
            assert np.abs(col.effects[m].mat - rebuilt_p).max() < 1e-12


def test_martens_sweep_default_angles():
    points = martens_sweep(0.0, np.pi / 4, 101)
    assert len(points) == 101
    first, mid, last = points[0], points[50], points[-1]
    assert abs(first.j_lambda - LN2) < 1e-6 and abs(first.j_mu) < 1e-6
    assert abs(last.j_lambda) < 1e-6 and abs(last.j_mu - LN2) < 1e-6
    assert abs(first.slack) < 1e-6 and abs(last.slack) < 1e-6
    assert abs(mid.j_lambda - J_HALF) < 1e-6 and abs(mid.j_mu - J_HALF) < 1e-6
    assert all(p.slack > 0 for p in points[1:-1])
    assert all(abs(p.bound - LN2) < 1e-12 for p in points)


def test_martens_sweep_pi_sixth():
    points = martens_sweep(0.0, np.pi / 6, 25)
    bound = -math.log(math.cos(np.pi / 6) ** 2)
    assert all(abs(p.bound - bound) < 1e-12 for p in points)
    assert all(p.slack >= -1e-6 for p in points)


@pytest.mark.parametrize(
    "theta, theta_prime, n", [(0.0, np.pi / 4, 101), (0.3, 2.1, 33), (-1.2, 0.4, 5)]
)
def test_martens_sweep_points_equal_the_per_point_recovery(theta, theta_prime, n):
    # the sweep builds its targets once; every field must equal the one-point route bit for bit
    bound = martens_bound(polarization_pvm(theta), polarization_pvm(theta_prime))
    for p, gamma in zip(martens_sweep(theta, theta_prime, n), np.linspace(0.0, 1.0, n)):
        lam, mu = whichway_nonideality(WhichWayConfig(theta, theta_prime, float(gamma)))
        j_lam, j_mu = row_entropy_measure(lam), row_entropy_measure(mu)
        assert p == SweepPoint(float(gamma), j_lam, j_mu, bound, j_lam + j_mu - bound)


@pytest.mark.parametrize("n", [2, 17, 101])
def test_martens_sweep_builds_its_two_targets_once(monkeypatch, n):
    calls = []
    from_pvm = Povm.from_pvm.__func__

    def counted(cls, pvm):
        calls.append(pvm)
        return from_pvm(cls, pvm)

    monkeypatch.setattr(Povm, "from_pvm", classmethod(counted))
    assert len(martens_sweep(0.0, np.pi / 4, n)) == n
    assert len(calls) == 2


def test_martens_sweep_requires_two_points():
    with pytest.raises(ValidationError):
        martens_sweep(0.0, 1.0, 1)


def _config(g1, g2, angles=OPTIMAL_ANGLES):
    t1, t1p, t2, t2p = angles
    return EprBellConfig(WhichWayConfig(t1, t1p, g1), WhichWayConfig(t2, t2p, g2))


def test_eprbell_closure():
    rng = np.random.default_rng(3)
    for _ in range(10):
        config = EprBellConfig(
            WhichWayConfig(*rng.uniform(0, np.pi, 2), rng.uniform(0, 1)),
            WhichWayConfig(*rng.uniform(0, np.pi, 2), rng.uniform(0, 1)),
        )
        quad = eprbell_povm(config)
        assert np.abs(quad.grid.sum(axis=(0, 1, 2, 3)) - np.eye(4)).max() < 1e-12


def test_eprbell_corner_reproduces_ideal_statistics():
    # both mirrors transmitting: only (m1, -, m2, -) cells are populated
    quad = eprbell_povm(_config(1.0, 1.0))
    for m1, n1, m2, n2 in np.ndindex(2, 2, 2, 2):
        cell = quad.grid[m1, n1, m2, n2]
        if n1 == 0 or n2 == 0:
            assert np.abs(cell).max() == 0.0
    rho = entangled_pair_state()
    probs = distribution(rho, quad).probabilities
    t1, _, t2, _ = OPTIMAL_ANGLES
    # direct two-photon contraction oracle for the ideal joint probabilities
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    for m1, m2 in np.ndindex(2, 2):
        p1 = polarization_projector(t1 + m1 * np.pi / 2).mat
        p2 = polarization_projector(t2 + m2 * np.pi / 2).mat
        oracle = np.vdot(psi, np.kron(p1, p2) @ psi).real
        assert abs(probs[m1, 1, m2, 1] - oracle) < 1e-12


def test_eprbell_cross_arm_marginal_is_arm_grid():
    # no disturbance between arms: tracing out arm 2 leaves arm 1's grid
    g1, g2 = 0.35, 0.8
    quad = eprbell_povm(_config(g1, g2))
    arm1 = whichway_povm(WhichWayConfig(OPTIMAL_ANGLES[0], OPTIMAL_ANGLES[1], g1))
    pair = marginal_pair(quad, "m1", "n1")
    # arm-2 effects close to identity(2), so each cell is arm1 x identity
    for m1, n1 in np.ndindex(2, 2):
        expected = np.kron(arm1.grid[m1, n1], np.eye(2))
        assert np.abs(pair.grid[m1, n1] - expected).max() < 1e-12


def test_eprbell_grid_is_exact_per_cell_kron_of_arm_grids():
    rng = np.random.default_rng(17)
    for _ in range(5):
        arms = [WhichWayConfig(*rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 1)) for _ in "12"]
        r1, r2 = (whichway_povm(arm).grid for arm in arms)
        expected = np.empty((2, 2, 2, 2, 4, 4), dtype=np.complex128)
        for m1, n1, m2, n2 in np.ndindex(2, 2, 2, 2):
            expected[m1, n1, m2, n2] = np.kron(r1[m1, n1], r2[m2, n2])
        assert np.array_equal(eprbell_povm(EprBellConfig(*arms)).grid, expected)


def test_single_setup_never_violates():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rho = random_density(rng, 4)
        config = EprBellConfig(
            WhichWayConfig(*rng.uniform(0, 2 * np.pi, 2), rng.uniform(0.01, 0.99)),
            WhichWayConfig(*rng.uniform(0, 2 * np.pi, 2), rng.uniform(0.01, 0.99)),
        )
        result = chsh_single_setup(rho, config)
        assert abs(result.s_value) <= 2.0 + 1e-9
        assert not result.violates


def test_single_setup_entangled_optimal_angles():
    result = chsh_single_setup(entangled_pair_state(), _config(0.5, 0.5))
    assert abs(result.s_value) <= 2.0 + 1e-9
    assert not result.violates


def test_single_setup_degenerate_gammas_allowed():
    result = chsh_single_setup(entangled_pair_state(), _config(1.0, 0.0))
    assert abs(result.s_value) <= 2.0 + 1e-9


def test_single_setup_product_state_correlations_factor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
        rho = pure_state_product(rho1, rho2)
        config = EprBellConfig(
            WhichWayConfig(*rng.uniform(0, np.pi, 2), rng.uniform(0, 1)),
            WhichWayConfig(*rng.uniform(0, np.pi, 2), rng.uniform(0, 1)),
        )
        quad = eprbell_povm(config)
        probs = distribution(rho, quad).probabilities
        signs = np.array([1.0, -1.0])
        for axis_a, axis_b in ((0, 2), (0, 3), (1, 2), (1, 3)):
            joint = _correlation(probs, axis_a, axis_b)
            mean_a = (probs.sum(axis=tuple(k for k in range(4) if k != axis_a)) * signs).sum()
            mean_b = (probs.sum(axis=tuple(k for k in range(4) if k != axis_b)) * signs).sum()
            assert abs(joint - mean_a * mean_b) < 1e-9


def pure_state_product(rho1, rho2):
    from qmeas.operators import tensor_product
    from qmeas.states import DensityOperator

    return DensityOperator(tensor_product(rho1.op, rho2.op))


def _correlation(probs, axis_a, axis_b):
    signs = np.array([1.0, -1.0])
    sa = signs.reshape([2 if k == axis_a else 1 for k in range(4)])
    sb = signs.reshape([2 if k == axis_b else 1 for k in range(4)])
    return float((probs * sa * sb).sum())


def test_pasted_aspect_maximal_violation():
    result = chsh_pasted_aspect(entangled_pair_state(), *OPTIMAL_ANGLES)
    assert abs(result.s_value - 2.0 * math.sqrt(2.0)) < 1e-9
    assert result.violates
    # per-setting correlations are cos 2(t_a - t_b)
    expected = (np.cos(np.pi / 4), np.cos(3 * np.pi / 4), np.cos(np.pi / 4), np.cos(np.pi / 4))
    assert np.abs(np.array(result.correlations) - expected).max() < 1e-9


def test_pasted_aspect_equal_angles_degenerate():
    result = chsh_pasted_aspect(entangled_pair_state(), 0.3, 0.3, 0.3, 0.3)
    # S = E - E + E + E = 2E stays within the classical range
    assert abs(result.s_value - 2.0 * result.correlations[0]) < 1e-12
    assert abs(result.s_value) <= 2.0 + 1e-9
    assert not result.violates


def test_pasted_aspect_separable_state_within_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = pure_state_product(random_density(rng, 2), random_density(rng, 2))
        result = chsh_pasted_aspect(rho, *rng.uniform(0, 2 * np.pi, 4))
        assert abs(result.s_value) <= 2.0 + 1e-9
        assert not result.violates


def test_chsh_result_validates_correlation_range():
    with pytest.raises(ValidationError):
        ChshResult(correlations=(1.5, 0.0, 0.0, 0.0), s_value=1.5, violates=False)
    with pytest.raises(ValidationError):
        ChshResult(correlations=(1.0, 1.0, 1.0, 1.0), s_value=2.0, violates=True)


def test_sample_check_converges_and_is_deterministic():
    rho = entangled_pair_state()
    config = _config(0.5, 0.5)
    check = quadruple_sample_check(rho, config, 100_000, seed=20260808)
    assert check.tv_distance < 0.02
    assert int(check.counts.sum()) == 100_000
    again = quadruple_sample_check(rho, config, 100_000, seed=20260808)
    assert np.array_equal(check.counts, again.counts)
    other = quadruple_sample_check(rho, config, 100_000, seed=11)
    assert not np.array_equal(check.counts, other.counts)


def test_sample_check_empirical_chsh_stays_classical():
    check = quadruple_sample_check(entangled_pair_state(), _config(0.5, 0.5), 100_000, seed=42)
    emp = check.empirical.probabilities
    s = (
        _correlation(emp, 0, 2)
        - _correlation(emp, 0, 3)
        + _correlation(emp, 1, 2)
        + _correlation(emp, 1, 3)
    )
    assert abs(s) <= 2.0 + 0.05  # sampling tolerance at 1e5 draws


def test_sample_check_requires_positive_samples():
    with pytest.raises(ValidationError, match=r"^n_samples must be >= 1, got 0$"):
        quadruple_sample_check(entangled_pair_state(), _config(0.5, 0.5), 0, seed=1)
