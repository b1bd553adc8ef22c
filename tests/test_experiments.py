import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from helpers import random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import povm
from qmeas.nonideality import check_martens, martens_bound, row_entropy_measure
from qmeas.operators import HERMITICITY_TOL, ValidationError
from qmeas.povm import Povm, QuadrivariatePovm, distribution, marginal, marginal_pair
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
from qmeas.experiments import _single_setup_result, _two_arm_cells, _whichway_cells

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


@pytest.mark.parametrize("n_points", [3.0, True, "3"])
def test_martens_sweep_requires_an_integer_point_count(n_points):
    # 3.0 reached numpy's linspace and raised its TypeError
    with pytest.raises(ValidationError, match="^n_points must be an integer, got "):
        martens_sweep(0.0, 1.0, n_points)


def test_martens_sweep_pi_sixth():
    points = martens_sweep(0.0, np.pi / 6, 25)
    bound = -math.log(math.cos(np.pi / 6) ** 2)
    assert all(abs(p.bound - bound) < 1e-12 for p in points)
    assert all(p.slack >= -1e-6 for p in points)


@pytest.mark.parametrize(
    "theta, theta_prime, n", [(0.0, np.pi / 4, 101), (0.3, 2.1, 33), (-1.2, 0.4, 5)]
)
def test_martens_sweep_points_equal_the_per_point_recovery(theta, theta_prime, n):
    # the sweep builds its targets once and its cells unvalidated; every field
    # must equal the one-point route bit for bit (float.hex tells -0.0 from 0.0)
    bound = martens_bound(polarization_pvm(theta), polarization_pvm(theta_prime))
    for p, gamma in zip(martens_sweep(theta, theta_prime, n), np.linspace(0.0, 1.0, n)):
        lam, mu = whichway_nonideality(WhichWayConfig(theta, theta_prime, float(gamma)))
        j_lam, j_mu = row_entropy_measure(lam), row_entropy_measure(mu)
        expected = SweepPoint(float(gamma), j_lam, j_mu, bound)
        assert _hex_fields(p) == _hex_fields(expected)


def _hex_fields(point):
    return [float.hex(x) for x in (*dataclasses.astuple(point), point.slack)]


@pytest.fixture
def validated_effect_counts(monkeypatch):
    """Effect count of every POVM axioms check, in call order."""
    counts = []
    check = povm._check_effects

    def counted(effects, tol):
        effects = tuple(effects)
        counts.append(len(effects))
        return check(effects, tol)

    monkeypatch.setattr(povm, "_check_effects", counted)
    return counts


@pytest.mark.parametrize("n", [2, 17, 101])
def test_martens_sweep_builds_its_two_targets_once(monkeypatch, validated_effect_counts, n):
    # the targets are read from the PVMs' checked stacks and validate no grid;
    # the target grids and each point's which-way grid and both of its marginals
    # used to be validated too, 2 + 3n checks in all
    calls = []
    from_pvm = Povm.from_pvm.__func__

    def counted(cls, pvm):
        calls.append(pvm)
        return from_pvm(cls, pvm)

    monkeypatch.setattr(Povm, "from_pvm", classmethod(counted))
    assert len(martens_sweep(0.0, np.pi / 4, n)) == n
    assert calls == []
    assert validated_effect_counts == []


def test_martens_sweep_requires_two_points():
    with pytest.raises(ValidationError):
        martens_sweep(0.0, 1.0, 1)


def test_martens_sweep_names_its_minimum_point_count():
    with pytest.raises(ValidationError) as exc:
        martens_sweep(0.0, 0.1, 1)
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "n_points must be >= 2, got 1"


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

    return DensityOperator(tensor_product(rho1, rho2))


def _correlation(probs, axis_a, axis_b):
    signs = np.array([1.0, -1.0])
    sa = signs.reshape([2 if k == axis_a else 1 for k in range(4)])
    sb = signs.reshape([2 if k == axis_b else 1 for k in range(4)])
    return float((probs * sa * sb).sum())


def _seeded_laws(rng, n):
    """n (2, 2, 2, 2) laws with exact zeros, -0.0, subnormals and small negative
    round-off among their entries; every |correlation| stays within sum |p| <= 1 + 1e-10."""
    laws = rng.dirichlet(np.ones(16), size=n)
    planted = rng.random(laws.shape) < 0.3
    laws[planted] = rng.choice([0.0, -0.0, 5e-324, 2.5e-310, -1e-12, -3e-17], size=planted.sum())
    return laws.reshape(n, 2, 2, 2, 2)


def test_sign_table_reads_any_law_as_the_per_axis_formula():
    laws = _seeded_laws(np.random.default_rng(29), 2000)
    # the Born rule's law is the strided real part of a complex array
    for probs in (*laws, *laws.astype(np.complex128).real):
        got = _single_setup_result(probs).correlations
        want = [_correlation(probs, a, b) for a, b in ((0, 2), (0, 3), (1, 2), (1, 3))]
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_eprbell_povm_validates_its_two_arm_grids_only(validated_effect_counts):
    # the product of the two validated arm grids is a POVM by construction
    eprbell_povm(_config(0.3, 0.8))
    assert validated_effect_counts == [4, 4]


def test_eprbell_povm_makes_no_d4_eigensolve(monkeypatch):
    dims = []
    herm_eig = povm.herm_eig

    def counted(m, *args, **kwargs):
        dims.append(m.dim)
        return herm_eig(m, *args, **kwargs)

    monkeypatch.setattr(povm, "herm_eig", counted)
    eprbell_povm(_config(0.3, 0.8))
    assert dims == [2] * 8  # one positivity solve per which-way effect of each arm


_HUGE = math.radians(1e10)
_GUARD_RNG = np.random.default_rng(29)
_GUARD_CONFIGS = [
    _config(*_GUARD_RNG.uniform(0.0, 1.0, 2), tuple(_GUARD_RNG.uniform(-np.pi, np.pi, 4)))
    for _ in range(6)
] + [
    _config(g1, g2, (s * _HUGE, -s * _HUGE, s * _HUGE, s * _HUGE))
    for g1 in (0.0, 1.0) for g2 in (0.0, 1.0) for s in (1.0, -1.0)
]


@pytest.mark.parametrize("config", _GUARD_CONFIGS)
def test_eprbell_product_grid_is_the_grid_full_validation_gives(config):
    # the product of the arms' validated grids is taken unchecked: it must pass the
    # POVM axioms and equal, byte for byte, the grid validated from the same cells
    quad = eprbell_povm(config)
    Povm(quad.grid.reshape(16, 4, 4), tol=HERMITICITY_TOL)
    assert not quad.grid.flags.writeable
    arms = (config.arm1, config.arm2)
    a, b = (_whichway_cells(arm.theta, arm.theta_prime, arm.gamma) for arm in arms)
    validated = QuadrivariatePovm(_two_arm_cells(a, b))
    assert np.array_equal(quad.grid, validated.grid)
    assert quad.grid.dtype == validated.grid.dtype and quad.grid.tobytes() == validated.grid.tobytes()
    assert quad.axis_labels == validated.axis_labels
    assert repr(quad) == repr(validated)


def test_sample_check_validates_no_grid(validated_effect_counts):
    # its exact law read the validated 16-cell grid, which it never returns
    quadruple_sample_check(entangled_pair_state(), _config(0.3, 0.8), 1000, seed=3)
    assert validated_effect_counts == []


def test_sample_check_law_equals_the_validated_distribution():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(rng, 4)
        config = _config(*rng.uniform(0.0, 1.0, 2), tuple(rng.uniform(-np.pi, np.pi, 4)))
        check = quadruple_sample_check(rho, config, 1000, seed=3)
        exact = distribution(rho, eprbell_povm(config)).probabilities
        assert [float.hex(p) for p in check.exact.probabilities.flat] == [
            float.hex(p) for p in exact.flat
        ]


def test_pasted_aspect_validates_no_intermediate_grid(validated_effect_counts):
    # each corner used to build and validate three grids: 12 checks
    chsh_pasted_aspect(entangled_pair_state(), *OPTIMAL_ANGLES)
    assert validated_effect_counts == []


def _pasted_reference(rho, angles):
    """The pasted CHSH through the validated public route, corner by corner."""
    corners = ((1.0, 1.0, 0, 2), (1.0, 0.0, 0, 3), (0.0, 1.0, 1, 2), (0.0, 0.0, 1, 3))
    correlations = []
    for g1, g2, axis_a, axis_b in corners:
        probs = distribution(rho, eprbell_povm(_config(g1, g2, angles))).probabilities
        correlations.append(_correlation(probs, axis_a, axis_b))
    e_ab, e_abp, e_apb, e_apbp = correlations
    return correlations, e_ab - e_abp + e_apb + e_apbp


def test_pasted_aspect_equals_the_validated_per_corner_route():
    rng = np.random.default_rng(14)
    cases = [(entangled_pair_state(), OPTIMAL_ANGLES)]
    cases += [(random_density(rng, 4), tuple(rng.uniform(-np.pi, np.pi, 4))) for _ in range(20)]
    for rho, angles in cases:
        result = chsh_pasted_aspect(rho, *angles)
        correlations, s = _pasted_reference(rho, angles)
        assert [float.hex(e) for e in result.correlations] == [float.hex(e) for e in correlations]
        assert float.hex(result.s_value) == float.hex(s)


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
    with pytest.raises(ValidationError, match=r"^correlation 0 = 1.5 outside \[-1, 1\]$"):
        ChshResult((1.5, 0.0, 0.0, 0.0))


def test_chsh_result_computes_s_and_the_verdict_from_its_correlations():
    # S and the flag were constructor inputs, checked against each other
    result = ChshResult((1.0, 1.0, 1.0, 1.0))
    assert result.s_value == 2.0
    assert result.violates is False
    result = ChshResult((1.0, -1.0, 1.0, 1.0))
    assert (result.s_value, result.violates) == (4.0, True)


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


def test_chsh_result_needs_exactly_four_correlations():
    with pytest.raises(ValidationError) as exc:
        ChshResult((0.5, 0.5, 0.5))
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "exactly four correlations expected"


def test_eprbell_config_needs_two_whichway_arms():
    # `EprBellConfig(1, 2)` built, and `eprbell_povm` then failed with
    # "'int' object has no attribute 'theta'"
    arm = WhichWayConfig(0.1, 0.7, 0.4)
    for args, message in [
        ((1, 2), "arm1 must be a WhichWayConfig, got int"),
        ((arm, (0.1, 0.7, 0.4)), "arm2 must be a WhichWayConfig, got tuple"),
    ]:
        with pytest.raises(ValidationError) as exc:
            EprBellConfig(*args)
        assert str(exc.value) == message


def test_a_nan_correlation_is_outside_the_chsh_range():
    # `ChshResult((nan, 0, 0, 0))` built, with `s_value` nan and `violates` False
    with pytest.raises(ValidationError) as exc:
        ChshResult((math.nan, 0.0, 0.0, 0.0))
    assert str(exc.value) == "correlation 0 = nan outside [-1, 1]"


def test_an_infinite_angle_is_refused_without_a_warning():
    # each printed "RuntimeWarning: invalid value encountered in fmod" before it raised
    calls = [
        lambda: polarization_projector(math.inf),
        lambda: polarization_pvm(-math.inf),
        lambda: whichway_povm(WhichWayConfig(math.inf, 0.0, 0.5)),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                call()
        assert str(exc.value) == "operator entries must be finite (no NaN/Inf)"


def _martens_and_chsh_hex():
    """float.hex of check_martens (lhs, rhs, slack) over 200 seeded (theta,
    theta', gamma) triples, then of chsh_single_setup's correlations over 100
    seeded 4x4 states and two-arm configurations."""
    rng = np.random.default_rng(2028)
    out = []
    for theta, theta_prime, gamma in rng.uniform([0.0, 0.0, 0.0], [np.pi, np.pi, 1.0], (200, 3)):
        report = check_martens(
            whichway_povm(WhichWayConfig(theta, theta_prime, gamma)),
            polarization_pvm(theta),
            polarization_pvm(theta_prime),
        )
        out += [report.lhs, report.rhs, report.slack]
    for _ in range(100):
        rho = random_density(rng, 4)
        arms = rng.uniform([0.0, 0.0, 0.0], [np.pi, np.pi, 1.0], (2, 3))
        out += chsh_single_setup(rho, EprBellConfig(*(WhichWayConfig(*arm) for arm in arms))).correlations
    return [float.hex(float(x)) for x in out]


def test_martens_and_chsh_bytes_are_pinned():
    # SHA-256 of the float.hex strings, recorded at commit 9ea6a8a on x86-64
    # Linux with numpy 2.4.6 and OpenBLAS 0.3.31; another BLAS may round the
    # eigensolver's products differently.  A faster validation or eigensolver
    # must leave every one of these bits as it is.
    digest = hashlib.sha256(" ".join(_martens_and_chsh_hex()).encode())
    assert digest.hexdigest() == "fa675c7cd7d556cfc0e88ab45fd319ee2af76add9967c7b20710f81728c0dfc6"
