"""Exact symmetries of the paper's objects, as hypothesis properties.

Byte pins hold the outputs at fixed inputs; these hold the physics at any
input: swapping the which-way detectors, rotating every analyzer together,
conjugating state and effects by one unitary, rotating a premeasurement's
object side and permuting its pointer outcomes.  Each holds to 1e-12.
"""

import numpy as np
from helpers import random_density, random_hermitian, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.experiments import (
    EprBellConfig,
    WhichWayConfig,
    chsh_pasted_aspect,
    chsh_single_setup,
    eprbell_povm,
    whichway_nonideality,
    whichway_povm,
)
from qmeas.nonideality import martens_bound, row_entropy_measure
from qmeas.operators import Operator
from qmeas.povm import BivariatePovm, Povm, QuadrivariatePovm, distribution
from qmeas.premeasurement import PremeasurementModel, induced_povm
from qmeas.states import DensityOperator, Pvm, entangled_pair_state, polarization_pvm, spectral_pvm

TOL = 1e-12

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
gammas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _entropies(theta, theta_prime, gamma):
    lam, mu = whichway_nonideality(WhichWayConfig(theta, theta_prime, gamma))
    return row_entropy_measure(lam), row_entropy_measure(mu)


def _bound(theta, theta_prime):
    return martens_bound(polarization_pvm(theta), polarization_pvm(theta_prime))


@settings(max_examples=100)
@given(angles, angles, gammas)
def test_mirroring_the_which_way_setup_swaps_the_two_entropies(theta, theta_prime, gamma):
    # (theta, theta', gamma) -> (theta', theta, 1 - gamma) exchanges the detectors,
    # so lambda and mu trade places
    j_lam, j_mu = _entropies(theta, theta_prime, gamma)
    mirrored_lam, mirrored_mu = _entropies(theta_prime, theta, 1.0 - gamma)
    assert abs(j_lam - mirrored_mu) <= TOL
    assert abs(j_mu - mirrored_lam) <= TOL
    assert abs(_bound(theta, theta_prime) - _bound(theta_prime, theta)) <= TOL


@settings(max_examples=60)
@given(angles, angles, gammas, angles)
def test_rotating_both_analyzers_leaves_the_entropies_and_bound(theta, theta_prime, gamma, phi):
    j_lam, j_mu = _entropies(theta, theta_prime, gamma)
    rotated_lam, rotated_mu = _entropies(theta + phi, theta_prime + phi, gamma)
    assert abs(j_lam - rotated_lam) <= TOL
    assert abs(j_mu - rotated_mu) <= TOL
    assert abs(_bound(theta, theta_prime) - _bound(theta + phi, theta_prime + phi)) <= TOL


@settings(max_examples=60)
@given(st.lists(angles, min_size=4, max_size=4), gammas, gammas, angles)
def test_rotating_all_four_analyzers_leaves_both_chsh_values(thetas, gamma1, gamma2, phi):
    # (|HH> + |VV>)/sqrt(2) is invariant under R(phi) x R(phi)
    rho = entangled_pair_state()
    t1, t1p, t2, t2p = thetas

    def single(shift):
        arm1 = WhichWayConfig(t1 + shift, t1p + shift, gamma1)
        arm2 = WhichWayConfig(t2 + shift, t2p + shift, gamma2)
        return chsh_single_setup(rho, EprBellConfig(arm1, arm2)).s_value

    def pasted(shift):
        return chsh_pasted_aspect(rho, t1 + shift, t1p + shift, t2 + shift, t2p + shift).s_value

    assert abs(single(0.0) - single(phi)) <= TOL
    assert abs(pasted(0.0) - pasted(phi)) <= TOL


def _conjugated(rho, v):
    return DensityOperator(Operator(v @ rho.mat @ v.conj().T))


def _assert_covariant(rho, grid, rebuild, v):
    # Tr(V rho V^dagger V E V^dagger) = Tr(rho E) for every effect E of the grid
    moved = rebuild(v @ grid.grid @ v.conj().T)
    want = distribution(rho, grid).probabilities
    got = distribution(_conjugated(rho, v), moved).probabilities
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL


@settings(max_examples=60)
@given(seeds, angles, angles, gammas)
def test_which_way_distribution_is_unitarily_covariant(seed, theta, theta_prime, gamma):
    rng = np.random.default_rng(seed)
    grid = whichway_povm(WhichWayConfig(theta, theta_prime, gamma))
    rebuild = lambda stack: BivariatePovm(stack, grid.row_labels, grid.col_labels)  # noqa: E731
    _assert_covariant(random_density(rng, 2), grid, rebuild, random_unitary(rng, 2).mat)


@settings(max_examples=60)
@given(seeds, st.lists(angles, min_size=4, max_size=4), gammas, gammas)
def test_two_arm_distribution_is_unitarily_covariant(seed, thetas, gamma1, gamma2):
    rng = np.random.default_rng(seed)
    t1, t1p, t2, t2p = thetas
    grid = eprbell_povm(
        EprBellConfig(WhichWayConfig(t1, t1p, gamma1), WhichWayConfig(t2, t2p, gamma2))
    )
    _assert_covariant(random_density(rng, 4), grid, QuadrivariatePovm, random_unitary(rng, 4).mat)


@settings(max_examples=40)
@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 4)]))
def test_induced_distribution_is_unitarily_covariant(seed, dims):
    rng = np.random.default_rng(seed)
    dim_o, dim_a = dims
    model = PremeasurementModel(
        random_density(rng, dim_a),
        random_unitary(rng, dim_o * dim_a),
        spectral_pvm(random_hermitian(rng, dim_a)),
        dim_o,
        dim_a,
    )
    grid = induced_povm(model)
    rebuild = lambda stack: Povm(stack, grid.outcome_labels, tol=1e-8)  # noqa: E731
    _assert_covariant(random_density(rng, dim_o), grid, rebuild, random_unitary(rng, dim_o).mat)


premeasure_dims = st.sampled_from([(2, 2), (2, 4), (4, 4), (2, 8), (3, 5)])


def _random_model(rng, dim_o, dim_a):
    u = random_unitary(rng, dim_o * dim_a)
    pointer = spectral_pvm(random_hermitian(rng, dim_a))
    return PremeasurementModel(random_density(rng, dim_a), u, pointer, dim_o, dim_a)


@settings(max_examples=40)
@given(seeds, premeasure_dims)
def test_object_rotation_of_the_coupling_rotates_the_induced_effects(seed, dims):
    # U' = (V x I) U (V^dagger x I) induces V M_m V^dagger: the apparatus trace commutes with V
    dim_o, dim_a = dims
    model = _random_model(np.random.default_rng(seed), dim_o, dim_a)
    v = random_unitary(np.random.default_rng(seed + 1), dim_o).mat
    lift = np.kron(v, np.eye(dim_a))
    u = Operator(lift @ model.u.mat @ lift.conj().T)
    moved = PremeasurementModel(model.rho_a, u, model.pointer, dim_o, dim_a)
    want = v @ induced_povm(model).grid @ v.conj().T
    assert np.abs(induced_povm(moved).grid - want).max() <= TOL


@settings(max_examples=40)
@given(seeds, premeasure_dims, st.randoms(use_true_random=False))
def test_permuting_the_pointer_outcomes_permutes_the_induced_effects(seed, dims, shuffler):
    dim_o, dim_a = dims
    model = _random_model(np.random.default_rng(seed), dim_o, dim_a)
    order = list(range(len(model.pointer)))
    shuffler.shuffle(order)
    pointer = Pvm(
        [model.pointer.projectors[k] for k in order], [model.pointer.labels[k] for k in order]
    )
    base = induced_povm(model)
    moved = induced_povm(PremeasurementModel(model.rho_a, model.u, pointer, dim_o, dim_a))
    assert moved.outcome_labels == tuple(base.outcome_labels[k] for k in order)
    assert np.abs(moved.grid - base.grid[order]).max() <= TOL
