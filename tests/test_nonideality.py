import math

import numpy as np
import pytest
from helpers import random_density, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import nonideality, states
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
from qmeas.operators import DimensionMismatchError, Operator, ValidationError, identity
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
from qmeas.experiments import EprBellConfig, WhichWayConfig, eprbell_povm, whichway_povm

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
    e, ep = polarization_projector(0.0).mat, polarization_projector(np.pi / 4).mat
    three = validate_povm(np.array([0.5 * e, 0.5 * ep, np.eye(2) - 0.5 * e - 0.5 * ep]))
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
    with pytest.raises(ValidationError, match="nonempty"):  # was numpy's zero-size reduction error
        NonidealityMatrix(lam=np.zeros((0, 0)), residual=0.0)
    for lam, residual in ([[np.nan], [0.5]], 0.0), ([[np.inf], [0.5]], 0.0), ([[1.0]], np.nan):
        with pytest.raises(ValidationError, match="finite"):
            NonidealityMatrix(lam=lam, residual=residual)
    for bad in (np.nan, np.inf):  # the raw-matrix path used to read these as ideal (J = 0)
        with pytest.raises(ValidationError, match="finite"):
            row_entropy_measure([[bad, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize(
    "lam,message",
    [
        ([0.5, 0.5], "must be nonempty 2-d, got shape \\(2,\\)"),  # was numpy's AxisError
        (np.zeros((0, 2)), "must be nonempty 2-d, got shape \\(0, 2\\)"),  # was ZeroDivisionError
        (np.zeros((2, 0)), "must be nonempty 2-d, got shape \\(2, 0\\)"),  # was J = 0.0
        ([[1.5, 0.0], [-0.5, 1.0]], "entry -5.000e-01 below"),  # was J = 0.0
    ],
    ids=["1-d", "no-rows", "no-columns", "negative-entry"],
)
def test_row_entropy_measure_validates_a_raw_matrix(lam, message):
    with pytest.raises(ValidationError, match=message):
        row_entropy_measure(lam)


def test_martens_bound_equals_the_pairwise_trace_loop():
    rng = np.random.default_rng(16)
    pairs = [(polarization_pvm(a), polarization_pvm(b)) for a, b in rng.uniform(-7, 7, (50, 2))]
    for dim in range(2, 17):
        for _ in range(4):
            pairs.append(tuple(spectral_pvm(random_hermitian(rng, dim)) for _ in range(2)))
        degenerate = Operator(np.diag(rng.integers(0, 3, dim).astype(float)))
        pairs.append((spectral_pvm(degenerate), spectral_pvm(random_hermitian(rng, dim))))
    for e, f in pairs:
        overlaps = [float(np.trace(p.mat @ q.mat).real) for p in e.projectors for q in f.projectors]
        assert float.hex(martens_bound(e, f)) == float.hex(-math.log(max(overlaps)))


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
        a, b = Operator(scale * random_hermitian(rng, dim).mat), random_hermitian(rng, dim)
        rep = check_heisenberg(rho, a, b)
        assert (rep.lhs, rep.rhs, rep.slack) == _plain_heisenberg(rho, a, b)
        assert std_dev(rho, a) == math.sqrt(_plain_heisenberg(rho, a, a)[0])


def test_check_heisenberg_checks_each_observable_once(monkeypatch):
    # each observable was checked again as "expectation operand" inside std_dev
    rho, labels = pure_state([1, 0]), []
    original = nonideality._require_hermitian

    def counted(m, tol, what):
        labels.append(what)
        return original(m, tol, what)

    monkeypatch.setattr(nonideality, "_require_hermitian", counted)
    monkeypatch.setattr(states, "_require_hermitian", counted)
    check_heisenberg(rho, PAULI_X, PAULI_Y)
    assert labels == ["first observable", "second observable"]


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
    x, y = Operator(1e200 * PAULI_X.mat), Operator(1e200 * PAULI_Y.mat)
    rep = check_heisenberg(pure_state([1, 0]), x, y)
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
    # `satisfied` is computed from the slack and tol, so no report contradicts them
    rep = InequalityReport(1.0, 2.0, -1.0, 1e-9)
    assert not rep.satisfied and rep.slack == -1.0
    rep = InequalityReport(2.0, 1.0, 1.0, 1e-9)
    assert rep.satisfied and rep.slack == 1.0
    assert InequalityReport(1.0, 1.0 + 1e-6, -1e-6, 1e-6).satisfied


def test_recover_dimension_mismatch():
    from qmeas.operators import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        recover_nonideality(
            validate_povm([identity(2)]), Povm.from_pvm(spectral_pvm(random_hermitian(np.random.default_rng(1), 3)))
        )


def test_mismatched_dimensions_are_named():
    with pytest.raises(DimensionMismatchError) as exc:
        martens_bound(polarization_pvm(0.1), spectral_pvm(Operator(np.diag([1.0, 2.0, 3.0]))))
    assert str(exc.value) == "PVM dimensions differ: 2 vs 3"
    with pytest.raises(DimensionMismatchError) as exc:
        check_heisenberg(states.maximally_mixed(3), PAULI_X, PAULI_Z)
    assert str(exc.value) == "dimensions differ: state 3, operands 2 and 2"


def _wishart_effects(rng, k, dim):
    """k random effects S^-1/2 X X^H S^-1/2 on dimension dim, for complex Gaussian X
    and S the sum of the X X^H: a random POVM's (k, dim, dim) stack."""
    a = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
    a = a @ a.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(a.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T  # (sum a)^(-1/2)
    return root @ a @ root


def _exact_smearing(seed, dim):
    """(m, n): a seeded random POVM n and m = lam . n for a random column-stochastic lam,
    so a residual-0 recovery exists."""
    rng = np.random.default_rng(seed)
    k, km = (int(x) for x in rng.integers(2, 5, size=2))
    n = _wishart_effects(rng, k, dim)
    lam = rng.uniform(size=(km, k))
    m = np.einsum("mn,nij->mij", lam / lam.sum(axis=0), n)
    return Povm(0.5 * (m + m.conj().transpose(0, 2, 1))), Povm(n)


def test_recovery_of_an_exact_smearing_converges():
    # The backtracking search halved its step for good once round-off near
    # convergence beat its absolute 1e-15 slack, and this recovery then ran
    # out of iterations; the exact 1/L step needs no search.
    m, n = _exact_smearing(0, 8)
    assert recover_nonideality(m, n).residual < 1e-7


def test_unconverged_recovery_keeps_an_iterate_no_worse_than_the_start(monkeypatch):
    m, n = _exact_smearing(0, 8)
    residuals = []
    for cap in (0, 5):
        monkeypatch.setattr(nonideality, "MAX_SOLVER_ITERATIONS", cap)
        with pytest.raises(RecoveryError) as exc:
            recover_nonideality(m, n)
        residuals.append(exc.value.residual)
    start, after_five = residuals
    assert after_five <= start


@pytest.mark.parametrize("seed, residual", [(0, 6.561374e-02), (4, 8.275021e-02)])
def test_rank_deficient_recovery_converges(seed, residual):
    # 16 effects on d = 2 span at most 4 real dimensions, so the target's Gram
    # matrix is singular: plain projected gradient ran all 100,000 iterations
    # and raised RecoveryError with this residual
    rng = np.random.default_rng(seed)
    m, n = (Povm(_wishart_effects(rng, 16, 2)) for _ in range(2))
    assert recover_nonideality(m, n).residual == pytest.approx(residual, rel=1e-6)


def test_random_recoveries_converge_well_inside_the_iteration_cap(monkeypatch):
    # plain projected gradient needed up to ~18,000 iterations on such pairs
    monkeypatch.setattr(nonideality, "MAX_SOLVER_ITERATIONS", 2_000)
    rng = np.random.default_rng(1)
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        km, kn = (int(k) for k in rng.integers(2, 17, size=2))
        m, n = Povm(_wishart_effects(rng, km, dim)), Povm(_wishart_effects(rng, kn, dim))
        recover_nonideality(m, n)


def test_recovery_targets_of_one_or_more_than_16_outcomes():
    # the k x k Gram matrix went through herm_eig's 2..16 Hilbert-space check and raised
    rec = recover_nonideality(pvm_povm(0.3), Povm(np.array([np.eye(2)])))
    assert np.array_equal(rec.lam, [[0.5], [0.5]]) and rec.residual == pytest.approx(1.0)
    n = Povm(_wishart_effects(np.random.default_rng(3), 17, 2))
    assert recover_nonideality(n, n).residual < 1e-7


@pytest.mark.parametrize("position", ["m", "n"])
@pytest.mark.parametrize("two_arm", [False, True], ids=["bivariate", "quadrivariate"])
def test_recovery_refuses_a_multi_axis_grid(position, two_arm):
    # this raised numpy's "operand has more dimensions than subscripts given in einstein sum"
    arm = WhichWayConfig(0.1, 0.7, 0.4)
    grid = eprbell_povm(EprBellConfig(arm, arm)) if two_arm else whichway_povm(arm)
    args = (grid, grid.flatten()) if position == "m" else (grid.flatten(), grid)
    with pytest.raises(ValidationError) as exc:
        recover_nonideality(*args)
    want = f"{position} must be a one-axis POVM, got {type(grid).__name__} of shape {grid.shape}"
    assert str(exc.value) == want


def test_martens_bound_needs_pvm_targets():
    # a Povm copy of a PVM raised AttributeError: 'Povm' object has no attribute 'stack'
    e, f = polarization_pvm(0.1), polarization_pvm(0.7)
    r = whichway_povm(WhichWayConfig(0.1, 0.7, 0.4))
    for call, message in [
        (lambda: martens_bound(Povm.from_pvm(e), f), "e must be a Pvm, got Povm"),
        (lambda: martens_bound(e, Povm.from_pvm(f)), "f must be a Pvm, got Povm"),
        (lambda: check_martens(r, Povm.from_pvm(e), f), "e must be a Pvm, got Povm"),
    ]:
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message


def test_check_martens_refuses_its_targets_before_any_recovery(monkeypatch):
    # both marginal recoveries once ran before the targets were refused, and an
    # `Operator` target leaked AttributeError: 'Operator' object has no attribute 'grid'
    calls = []
    recover = nonideality._recover

    def counted(*args):
        calls.append(args)
        return recover(*args)

    monkeypatch.setattr(nonideality, "_recover", counted)
    e, f = polarization_pvm(0.1), polarization_pvm(0.7)
    r = whichway_povm(WhichWayConfig(0.1, 0.7, 0.4))
    e3 = spectral_pvm(Operator(np.diag([1.0, 2.0, 3.0])))
    for (e_arg, f_arg), error, message in [
        ((Povm.from_pvm(e), f), ValidationError, "e must be a Pvm, got Povm"),
        ((e, Operator(np.eye(2))), ValidationError, "f must be a Pvm, got Operator"),
        ((e3, f), DimensionMismatchError, "PVM dimensions differ: 3 vs 2"),
    ]:
        with pytest.raises(error) as exc:
            check_martens(r, e_arg, f_arg)
        assert str(exc.value) == message
    assert calls == []
    check_martens(r, e, f)  # the wrapper counts the two recoveries of an accepted call
    assert len(calls) == 2


def test_joint_decomposition_refuses_a_target_that_is_not_a_pvm():
    # an `Operator` target leaked AttributeError: 'Operator' object has no attribute 'grid'
    r = whichway_povm(WhichWayConfig(0.1, 0.7, 0.4))
    f = polarization_pvm(0.7)
    with pytest.raises(ValidationError) as exc:
        joint_nonideal_decomposition(r, Operator(np.eye(2)), f)
    assert str(exc.value) == "e must be a Pvm, got Operator"
    with pytest.raises(ValidationError) as exc:
        joint_nonideal_decomposition(r, f, Povm.from_pvm(f))
    assert str(exc.value) == "f must be a Pvm, got Povm"
