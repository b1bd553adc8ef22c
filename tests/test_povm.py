import functools
import hashlib
import re

import numpy as np
import pytest
from helpers import random_density, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.operators import (
    HERMITICITY_TOL,
    DimensionMismatchError,
    Operator,
    ValidationError,
    herm_eig,
    identity,
)
from qmeas.povm import (
    BivariatePovm,
    OutcomeDistribution,
    Povm,
    PovmValidationError,
    QuadrivariatePovm,
    distribution,
    is_pvm,
    marginal,
    marginal_pair,
    validate_povm,
)
from qmeas.premeasurement import PremeasurementModel, induced_povm
from qmeas.states import (
    Pvm,
    expectation,
    maximally_mixed,
    polarization_projector,
    polarization_pvm,
    pure_state,
    spectral_pvm,
)
from qmeas.experiments import (
    EprBellConfig,
    WhichWayConfig,
    eprbell_povm,
    quadruple_sample_check,
    whichway_povm,
)

gammas = st.floats(min_value=0.0, max_value=1.0)


def three_effect_whichway(gamma=0.5, theta=0.0, theta_prime=np.pi / 4):
    e = polarization_projector(theta).mat
    ep = polarization_projector(theta_prime).mat
    return np.array([gamma * e, (1 - gamma) * ep, np.eye(2) - gamma * e - (1 - gamma) * ep])


def test_validate_projector_pair():
    e = polarization_projector(0.3).mat
    povm = validate_povm(np.array([e, np.eye(2) - e]))
    assert len(povm) == 2
    assert povm.outcome_labels == ("0", "1")


def test_validate_whichway_three_effects():
    # transmitted, reflected, absorbed: all positive, closing to identity
    povm = validate_povm(three_effect_whichway(), ["D", "D'", "none"])
    assert len(povm) == 3


def test_validate_reports_positivity_failure_with_index():
    # closure holds but I - 1.2 E dips to eigenvalue -0.2
    e = polarization_projector(0.0).mat
    with pytest.raises(PovmValidationError, match="effect 1.*positive"):
        validate_povm(np.array([1.2 * e, np.eye(2) - 1.2 * e]))


def test_validate_reports_closure_failure():
    e = polarization_projector(0.0).mat
    with pytest.raises(PovmValidationError, match="closure"):
        validate_povm(np.array([0.5 * e, 0.5 * e]))


def test_validate_reports_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="effect 1"):
        validate_povm([identity(2), identity(3)])


@pytest.mark.parametrize(
    "effects, dim",
    [
        (np.eye(17)[None], 17),
        (np.ones((1, 1, 1)), 1),
        ([Operator(np.eye(17)), "x"], 17),
        ([Operator(np.triu(np.ones((17, 17))))], 17),
    ],
    ids=["stack-17", "stack-1", "list-17", "non-hermitian-17"],
)
def test_povm_names_its_dimension_outside_2_to_16_first(effects, dim):
    # the eigensolver named it ("eigensolver input dimension 17 outside
    # 2..16"), after the hermiticity verdict of the first effect
    with pytest.raises(DimensionMismatchError, match=f"^POVM dimension {dim} outside 2..16$"):
        Povm(effects)


def test_is_pvm_on_spectral_output():
    rng = np.random.default_rng(3)
    pvm = spectral_pvm(random_hermitian(rng, 3))
    assert is_pvm(Povm.from_pvm(pvm))


def test_is_pvm_false_for_proper_povm():
    # gamma E is not idempotent for gamma strictly inside (0, 1)
    povm = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5)).flatten()
    assert not is_pvm(povm)


def test_is_pvm_true_at_transmission_one():
    row = marginal(whichway_povm(WhichWayConfig(0.0, np.pi / 4, 1.0)), "row")
    assert is_pvm(row)


def test_is_pvm_over_gamma_grid():
    for gamma in np.linspace(0.0, 1.0, 11):
        flat = whichway_povm(WhichWayConfig(0.0, np.pi / 4, float(gamma))).flatten()
        assert is_pvm(flat) == (gamma in (0.0, 1.0))


def test_distribution_trivial_povm():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3)
    dist = distribution(rho, validate_povm([identity(3)]))
    assert np.allclose(dist.probabilities, [1.0])


def test_distribution_whichway_detection_probabilities():
    # transmitted detector fires with gamma <E_theta>, reflected with (1-gamma) <E_theta'>
    rho = pure_state([1, 0])
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5))
    probs = distribution(rho, grid).probabilities
    assert np.abs(probs - [[0.0, 0.5], [0.25, 0.25]]).max() < 1e-12


def test_distribution_sums_to_one_many():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rho = random_density(rng, 2)
        povm = validate_povm(
            three_effect_whichway(rng.uniform(0, 1), rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        )
        dist = distribution(rho, povm)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-9
        assert dist.probabilities.min() > -1e-9


def test_outcome_distribution_validation():
    with pytest.raises(Exception):
        OutcomeDistribution([0.7, 0.7])
    with pytest.raises(Exception):
        OutcomeDistribution([1.5, -0.5])
    for bad in (np.nan, np.inf, -np.inf):  # NaN passes every range check
        with pytest.raises(ValidationError, match="finite"):
            OutcomeDistribution([bad, 1.0])


P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
K = 2e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_distribution_accepts_a_povm_validated_at_the_induced_tolerance():
    # Hermiticity residual 4e-9: inside the 1e-8 the POVM was validated at.
    povm = Povm([Operator(P0 + K), Operator(P1 - K)], tol=1e-8)
    assert distribution(maximally_mixed(2), povm).probabilities.tolist() == [0.5, 0.5]


def test_distribution_still_rejects_imaginary_residue():
    povm = Povm([Operator(P0 + K), Operator(P1 - K)], tol=1e-8)
    with pytest.raises(ValidationError, match="expectation has imaginary residue 2.000e-09"):
        distribution(pure_state([1, 1j]), povm)


def test_distribution_still_rejects_state_of_wrong_dimension():
    povm = Povm([Operator(P0), Operator(P1)])
    with pytest.raises(DimensionMismatchError, match="state dim 3 vs operator dim 2"):
        distribution(maximally_mixed(3), povm)


def _induced(rng, dim_o, dim_a):
    pointer = Pvm([Operator(np.diag(np.eye(dim_a)[k])) for k in range(dim_a)], range(dim_a))
    model = PremeasurementModel.from_generator(
        random_hermitian(rng, dim_o * dim_a), 1.0, random_density(rng, dim_a), pointer, dim_o, dim_a
    )
    return induced_povm(model)


def _arm(rng):
    return WhichWayConfig(*rng.uniform(0, np.pi, 2), rng.uniform(0, 1))


def _seeded_grids(rng):
    """Which-way (d=2), two-arm (d=4) and induced (d=2, d=4) grids."""
    yield whichway_povm(_arm(rng))
    yield eprbell_povm(EprBellConfig(_arm(rng), _arm(rng)))
    yield _induced(rng, 2, 2)
    yield _induced(rng, 4, 2)


def test_distribution_is_per_cell_expectation_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(25):
        for grid in _seeded_grids(rng):
            rho = random_density(rng, grid.dim)
            cells = [expectation(rho, grid.effect(*idx)) for idx in np.ndindex(grid.shape)]
            probs = distribution(rho, grid).probabilities
            assert np.array_equal(probs, np.reshape(cells, grid.shape))


def test_povm_rejects_non_operator_effect_0():
    with pytest.raises(PovmValidationError, match="effect 0 is not an Operator"):
        Povm([np.eye(2)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Povm([Operator(np.eye(2) / 2), "x"]), "effect 1 is not an Operator"),
        (
            lambda: BivariatePovm(
                [[Operator(np.zeros((2, 2))), Operator(np.eye(2) / 2)], [Operator(np.eye(2) / 2), "x"]],
                "+-",
                "+-",
            ),
            "effect 3 is not an Operator",
        ),
        (lambda: Povm([Operator([[1, 1], [0, 0]]), "x"]), "effect 0 is not Hermitian (residual 1.000e+00)"),
    ],
    ids=["povm-effect-1", "which-way-cell-1-1", "an-earlier-effect-fails-first"],
)
def test_povm_names_a_later_effect_that_is_not_an_operator(build, message):
    with pytest.raises(PovmValidationError) as exc:
        build()
    assert str(exc.value) == message


def test_marginal_closure():
    grid = whichway_povm(WhichWayConfig(0.2, 1.1, 0.35))
    for axis in ("row", "col"):
        total = sum(e.mat for e in marginal(grid, axis).effects)
        assert np.abs(total - np.eye(2)).max() < 1e-12


def test_marginals_of_whichway_grid():
    gamma, theta, theta_prime = 0.5, 0.0, np.pi / 4
    grid = whichway_povm(WhichWayConfig(theta, theta_prime, gamma))
    row = marginal(grid, "row")
    e = polarization_projector(theta).mat
    assert np.abs(row.effects[0].mat - gamma * e).max() < 1e-12
    assert np.abs(row.effects[1].mat - (np.eye(2) - gamma * e)).max() < 1e-12
    col = marginal(grid, "col")
    ep = polarization_projector(theta_prime).mat
    assert np.abs(col.effects[0].mat - (1 - gamma) * ep).max() < 1e-12
    assert np.abs(col.effects[1].mat - (np.eye(2) - (1 - gamma) * ep)).max() < 1e-12


def test_marginal_bad_axis():
    grid = whichway_povm(WhichWayConfig(0.0, 1.0, 0.5))
    with pytest.raises(Exception):
        marginal(grid, "diagonal")


def _example_quad(g1=0.4, g2=0.7):
    return eprbell_povm(
        EprBellConfig(
            WhichWayConfig(0.0, np.pi / 4, g1), WhichWayConfig(np.pi / 8, 3 * np.pi / 8, g2)
        )
    )


def test_marginal_pair_factorizes_over_arms():
    g1, g2 = 0.4, 0.7
    quad = _example_quad(g1, g2)
    pair = marginal_pair(quad, "m1", "m2")
    arm1 = marginal(whichway_povm(WhichWayConfig(0.0, np.pi / 4, g1)), "row")
    arm2 = marginal(whichway_povm(WhichWayConfig(np.pi / 8, 3 * np.pi / 8, g2)), "row")
    for a in range(2):
        for b in range(2):
            expected = np.kron(arm1.effects[a].mat, arm2.effects[b].mat)
            assert np.abs(pair.grid[a, b] - expected).max() < 1e-12


def test_marginal_pair_all_six_axis_pairs_valid():
    quad = _example_quad()
    pairs = [(i, j) for i in range(4) for j in range(4) if i < j]
    assert len(pairs) == 6
    for i, j in pairs:
        bivariate = marginal_pair(quad, i, j)
        bivariate.flatten()  # validates POVM axioms


def test_marginal_pair_at_full_transmission():
    quad = _example_quad(g1=1.0, g2=0.7)
    pair = marginal_pair(quad, "m1", "m2")
    e1 = polarization_projector(0.0).mat
    arm2 = marginal(whichway_povm(WhichWayConfig(np.pi / 8, 3 * np.pi / 8, 0.7)), "row")
    for a, proj in enumerate((e1, np.eye(2) - e1)):
        for b in range(2):
            expected = np.kron(proj, arm2.effects[b].mat)
            assert np.abs(pair.grid[a, b] - expected).max() < 1e-12


def test_marginal_pair_rejects_identical_axes():
    with pytest.raises(Exception, match="distinct"):
        marginal_pair(_example_quad(), "m1", "m1")
    with pytest.raises(Exception, match="got 'm1' twice"):
        marginal(_example_quad(), ("m2", "m1", "m1"))


def test_single_axis_marginal_of_quad_is_arm_marginal_times_identity():
    quad = _example_quad(0.4, 0.7)
    m1 = marginal(quad, "m1")
    arm1 = marginal(whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.4)), "row")
    assert m1.outcome_labels == arm1.outcome_labels
    for got, want in zip(m1.effects, arm1.effects):
        assert np.abs(got.mat - np.kron(want.mat, np.eye(2))).max() < 1e-12
    assert np.array_equal(marginal(quad, 0).effects[1].mat, m1.effects[1].mat)


def test_pair_marginal_in_reverse_order_is_the_axis_swap():
    quad = _example_quad()
    forward = marginal(quad, ("m1", "m2"))
    backward = marginal(quad, ("m2", "m1"))
    assert np.array_equal(backward.grid, forward.grid.swapaxes(0, 1))
    assert np.array_equal(marginal_pair(quad, "m2", "m1").grid, backward.grid)


def test_marginal_rejects_unknown_axes_and_too_many_axes():
    quad = _example_quad()
    for keep in ("row", 4, ("m1", "x"), True, 1.0):  # a bool is no index; a float is one key
        with pytest.raises(Exception, match="unknown axis"):
            marginal(quad, keep)
    with pytest.raises(Exception, match="pair"):
        marginal(quad, ("m1", "n1", "m2"))


def _quad_cells():
    """Nested lists of 16 equal cells forming a valid 2x2x2x2 grid on dimension 4."""
    cell = Operator(np.eye(4) * (1 / 16))
    return np.array([cell] * 16, dtype=object).reshape(2, 2, 2, 2).tolist()


def test_grids_reject_ragged_cells():
    # the flat cells form a valid POVM; only the nesting is ragged
    e, zero = polarization_projector(0.3), Operator(np.zeros((2, 2)))
    with pytest.raises(PovmValidationError, match="^grid rows must have uniform length$"):
        BivariatePovm([[e, zero, zero], [Operator(np.eye(2) - e.mat)]], ["+", "-"], ["+", "-"])
    cells = _quad_cells()
    cells[1][1][1] = cells[1][1][1] + [Operator(np.zeros((4, 4)))]
    with pytest.raises(PovmValidationError, match="uniform"):
        QuadrivariatePovm(cells)


def test_grids_reject_label_length_mismatch():
    e, zero = polarization_projector(0.3), Operator(np.zeros((2, 2)))
    cells = [[e, zero], [zero, Operator(np.eye(2) - e.mat)]]
    with pytest.raises(PovmValidationError, match="label"):
        BivariatePovm(cells, ["+", "-", "?"], ["+", "-"])
    quad = _quad_cells()
    assert QuadrivariatePovm(quad).axis_labels == (("+", "-"),) * 4
    with pytest.raises(PovmValidationError, match="label"):
        QuadrivariatePovm(quad, [("+", "-"), ("+", "-"), ("+", "-"), ("+",)])


def test_marginalization_commutes_with_distribution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng, 2)
        grid = whichway_povm(
            WhichWayConfig(rng.uniform(0, np.pi), rng.uniform(0, np.pi), rng.uniform(0, 1))
        )
        joint = distribution(rho, grid).probabilities
        row_direct = distribution(rho, marginal(grid, "row")).probabilities
        col_direct = distribution(rho, marginal(grid, "col")).probabilities
        assert np.abs(joint.sum(axis=1) - row_direct).max() < 1e-12
        assert np.abs(joint.sum(axis=0) - col_direct).max() < 1e-12


@settings(max_examples=60)
@given(gammas)
def test_whichway_flat_povm_is_valid_for_all_gamma(gamma):
    flat = whichway_povm(WhichWayConfig(0.3, 1.2, gamma)).flatten()
    total = sum(e.mat for e in flat.effects)
    assert np.abs(total - np.eye(2)).max() < 1e-9


def test_bivariate_grid_shape_and_labels():
    grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5))
    assert grid.shape == (2, 2)
    assert grid.row_labels == ("+", "-")
    assert grid.col_labels == ("+", "-")
    assert np.abs(grid.effect(0, 0).mat - np.zeros((2, 2))).max() == 0.0
    flat = grid.flatten()
    assert flat.outcome_labels == ("+,+", "+,-", "-,+", "-,-")


def _as_operators(stack, depth):
    """Nested lists of Operator cells, `depth` levels deep, of a stack."""
    if depth == 0:
        return Operator(stack)
    return [_as_operators(cells, depth - 1) for cells in stack]


_WHICHWAY = whichway_povm(WhichWayConfig(0.2, 1.1, 0.35)).grid
_TWO_ARM = eprbell_povm(
    EprBellConfig(WhichWayConfig(0.2, 1.1, 0.35), WhichWayConfig(0.7, 0.1, 0.6))
).grid
# (constructor, nesting depth of its cells, stack)
_MAKERS = [
    (Povm, 1, _WHICHWAY.reshape(4, 2, 2)),
    (lambda cells: Povm(cells, "abcd"), 1, _WHICHWAY.reshape(4, 2, 2)),
    (lambda cells: BivariatePovm(cells, "+-", "+-"), 2, _WHICHWAY),
    (QuadrivariatePovm, 4, _TWO_ARM),
    (lambda cells: QuadrivariatePovm(cells, ["ab", "cd", "ef", "gh"]), 4, _TWO_ARM),
]


@pytest.mark.parametrize(
    "make, depth, stack", _MAKERS, ids=["povm", "povm-labels", "which-way", "two-arm", "two-arm-labels"]
)
def test_grids_from_stacks_equal_grids_from_operator_cells(make, depth, stack):
    want = make(_as_operators(stack, depth))
    for cells in (stack, stack.real):  # every cell here is real
        got = make(cells)
        assert np.array_equal(got.grid, want.grid)
        assert got.grid.dtype == np.complex128 and not got.grid.flags.writeable
        assert (got.axis_labels, repr(got)) == (want.axis_labels, repr(want))


def _with_entry(stack, value):
    stack = stack.copy()
    stack.flat[5] = value
    return stack


@pytest.mark.parametrize(
    "make, depth, stack",
    [
        (lambda cells: BivariatePovm(cells, "+-", "+-"), 2, _with_entry(_WHICHWAY, np.nan)),
        (QuadrivariatePovm, 4, _with_entry(_TWO_ARM, np.inf)),
        (Povm, 1, np.eye(2)),
        (lambda cells: BivariatePovm(cells, "+-", "+-"), 2, np.zeros((2, 2, 2, 2, 2))),
        (QuadrivariatePovm, 4, _TWO_ARM[..., 0]),
        (Povm, 1, np.zeros((2, 2, 3))),
        (Povm, 1, np.array([[["a", "b"], ["c", "d"]]])),
        (lambda cells: BivariatePovm(cells, "+-", "+-"), 2, _with_entry(_WHICHWAY.astype(str), "x")),
        (Povm, 1, np.array([[["1", "0"], ["0", "1"]]])),
        (Povm, 1, np.eye(2)[None].astype(bytes)),
        (Povm, 1, np.eye(2, dtype=int)[None].astype("datetime64[s]")),
        (Povm, 1, np.eye(2, dtype=int)[None].astype("timedelta64[s]")),
    ],
    ids=[
        "nan", "inf", "povm-ndim-2", "which-way-ndim-5", "two-arm-ndim-5", "non-square",
        "non-numeric", "which-way-non-numeric", "numeric-string", "bytes", "datetime64",
        "timedelta64",
    ],
)
def test_bad_stacks_raise_what_their_operator_cells_raise(make, depth, stack):
    with pytest.raises(ValidationError) as want:
        make(_as_operators(stack, depth))
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        make(stack)


def _seeded_povm(rng, k, d):
    """k exactly Hermitian effects that sum to the identity up to round-off."""
    a = [g @ g.conj().T for g in rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))]
    eig = herm_eig(Operator(sum(a)))
    w = (eig.eigenvectors / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.conj().T
    effects = np.array([w @ x @ w for x in a])
    return 0.5 * (effects + effects.conj().swapaxes(1, 2))


def _plant(rng, stack, kind, j, tol):
    """Break effect j of the stack by tol, give or take 1e-12."""
    delta = tol + rng.uniform(-1e-12, 1e-12)
    d = stack.shape[-1]
    if kind == "hermitian":
        p, q = rng.choice(d, 2, replace=False)
        stack[j, p, q] += delta
    elif kind == "positive":  # moved, with its closure kept, to another effect
        eig = herm_eig(Operator(0.5 * (stack[j] + stack[j].conj().T)))
        v = eig.eigenvectors[:, :1]
        shift = (eig.eigenvalues[0] + delta) * (v @ v.conj().T)
        stack[j] -= shift
        stack[(j + 1) % len(stack)] += shift
    else:
        stack[j] += delta * np.eye(d)


def _first_failure(stack, tol):
    """(type, message) of the first axiom a stack's effects break, checked one effect at a time."""
    for k, m in enumerate(stack):
        herm = np.abs(m - m.conj().T).max()
        if herm > tol:
            return PovmValidationError, f"effect {k} is not Hermitian (residual {herm:.3e})"
        low = herm_eig(Operator(m), tol).eigenvalues[0]
        if low < -tol:
            return PovmValidationError, f"effect {k} is not positive semidefinite (min eigenvalue {low:.3e})"
    closure = np.abs(stack.sum(axis=0) - np.eye(stack.shape[-1])).max()
    if closure > tol:
        return PovmValidationError, f"effects do not sum to identity (closure residual {closure:.3e})"
    return None


def test_stacks_and_operator_lists_name_the_same_first_failure():
    # the axioms are checked over the whole stack at once; near the tolerance
    # a residual off by one bit would flip a verdict or change a message
    rng = np.random.default_rng(97)
    seen = set()
    for k in range(1, 7):
        for d in range(2, 5):
            for _ in range(6):
                stack = _seeded_povm(rng, k, d)
                for _ in range(rng.integers(1, 3)):
                    kind = rng.choice(["hermitian", "positive", "closure"])
                    _plant(rng, stack, kind, rng.integers(k), HERMITICITY_TOL)
                want = _first_failure(stack, HERMITICITY_TOL)
                seen.add(want and want[1].split(" (")[0].split(" ", 2)[-1])
                for cells in (stack, [Operator(m) for m in stack]):
                    if want is None:
                        assert np.array_equal(Povm(cells).grid, stack)
                        continue
                    with pytest.raises(want[0]) as got:
                        Povm(cells)
                    assert type(got.value) is want[0] and str(got.value) == want[1]
    assert len(seen) == 4, seen  # each verdict, and valid stacks, occur


def test_marginals_and_flattenings_keep_their_bytes():
    # SHA-256 of the grid, label and repr bytes, recorded at commit fc6f290,
    # whose grids were built from Operator cells, on x86-64 Linux with numpy
    # 2.4.6 and OpenBLAS 0.3.31.
    rng = np.random.default_rng(23)
    grids = [whichway_povm(WhichWayConfig(*rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 1)))
             for _ in range(4)]
    grids += [whichway_povm(WhichWayConfig(0.3, 1.1, gamma)) for gamma in (0.0, 1.0)]
    for _ in range(3):
        arms = [WhichWayConfig(*rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 1)) for _ in "12"]
        grids.append(eprbell_povm(EprBellConfig(*arms)))
    digest = hashlib.sha256()
    for grid in grids:
        axes = range(len(grid.AXES))
        pairs = [(i, j) for i in axes for j in axes if i != j]
        for out in [grid, grid.flatten(), *(marginal(grid, k) for k in [*axes, *pairs])]:
            digest.update(out.grid.tobytes())
            digest.update(repr((out.axis_labels, out)).encode())
    assert digest.hexdigest() == "aea8f91337c4e8c9a7f6bfd420b9bacaf57e842731f5ef4761ec69ad6c76e45e"


X_HUGE = 1e200 * (1 + 1j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "build,message",
    [
        # Hermitian, but p @ p overflows: reported as "entries must be finite" before
        (lambda: Pvm([Operator([[0.5, X_HUGE], [np.conj(X_HUGE), 0.5]]),
                      Operator([[0.5, -X_HUGE], [-np.conj(X_HUGE), 0.5]])], [0, 1]),
         "projector 0 is not idempotent (residual 1.798e+308)"),
        # positive effects whose sum overflows: "closure residual inf" before
        (lambda: Povm([Operator(np.diag([1.7e308, 0])), Operator(np.diag([1.7e308, 0]))]),
         "effects do not sum to identity (closure residual 1.798e+308)"),
    ],
    ids=["pvm-idempotence", "povm-closure"],
)
def test_residuals_print_finite_when_a_product_or_sum_overflows(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distribution_sum_overflow_prints_finite():
    with pytest.raises(ValidationError) as failed:
        OutcomeDistribution([1.7e308, 1.7e308])
    assert str(failed.value) == "probabilities sum to 1.79769313486e+308, expected 1"


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: Povm([]), PovmValidationError, "POVM needs at least one effect"),
        (lambda: OutcomeDistribution([]), ValidationError,
         "distribution needs at least one outcome"),
    ],
    ids=["povm", "distribution"],
)
def test_empty_povm_and_distribution_are_rejected(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def _writable_bases(a):
    """The arrays in `a`'s `.base` chain, `a` included, that can be written."""
    writable = []
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            writable.append(a)
        a = a.base
    return writable


@functools.cache
def _trusted_arrays() -> dict:
    """Every array that a validated or derived object exposes as trusted, by name."""
    rng = np.random.default_rng(31)
    arms = WhichWayConfig(0.2, 1.1, 0.35), WhichWayConfig(0.7, 0.1, 0.6)
    whichway, two_arm = whichway_povm(arms[0]), eprbell_povm(EprBellConfig(*arms))
    pointer = Pvm([Operator(P0), Operator(P1)], [0, 1])
    model = PremeasurementModel.from_generator(
        random_hermitian(rng, 4), 1.0, random_density(rng, 2), pointer, 2, 2
    )
    rho = random_density(rng, 2)
    spectral = spectral_pvm(random_hermitian(rng, 3))
    return {
        "whichway_povm": whichway.grid,
        "eprbell_povm": two_arm.grid,
        "marginal_row": marginal(whichway, "row").grid,
        "marginal_pair": marginal(two_arm, ("m1", "m2")).grid,
        "flatten_Povm": induced_povm(model).flatten().grid,
        "flatten_Pvm": spectral.flatten().grid,
        "flatten_BivariatePovm": whichway.flatten().grid,
        "flatten_QuadrivariatePovm": two_arm.flatten().grid,
        "polarization_pvm": polarization_pvm(0.4).grid,
        "spectral_pvm": spectral.grid,
        "induced_povm": induced_povm(model).grid,
        "lifted_projectors": model._lifted[0],
        "lifted_effects": model._lifted[1],
        "herm_eig_eigenvalues": herm_eig(random_hermitian(rng, 3)).eigenvalues,
        "herm_eig_eigenvectors": herm_eig(random_hermitian(rng, 3)).eigenvectors,
        "DensityOperator_eig_eigenvalues": rho.eig.eigenvalues,
        "DensityOperator_eig_eigenvectors": rho.eig.eigenvectors,
        "distribution": distribution(rho, whichway).probabilities,
        "quadruple_sample_check": quadruple_sample_check(
            random_density(rng, 4), EprBellConfig(*arms), 1000, 7
        ).counts,
    }


@pytest.mark.parametrize("name", list(_trusted_arrays()))
def test_trusted_arrays_own_their_memory(name):
    # eprbell_povm's grid and a model's lifted projectors were read-only views
    # of writable arrays: zeros written through the base reached `distribution`
    assert not _writable_bases(_trusted_arrays()[name])


def test_outcome_distribution_repr_reads_the_probabilities_shape():
    assert repr(OutcomeDistribution([0.5, 0.5])) == "OutcomeDistribution(shape=(2,))"
    assert repr(OutcomeDistribution(np.full((2, 2), 0.25))) == "OutcomeDistribution(shape=(2, 2))"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda i: distribution(pure_state([1, 0]), i), "p must be an outcome grid, got Operator"),
        (lambda i: marginal(i, 0), "grid must be an outcome grid, got Operator"),
        (lambda i: is_pvm(i), "p must be an outcome grid, got Operator"),
    ],
    ids=["distribution", "marginal", "is_pvm"],
)
def test_a_non_grid_argument_raises_validation_error(call, message):
    # each leaked AttributeError: 'Operator' object has no attribute 'grid'
    with pytest.raises(ValidationError) as exc:
        call(Operator(np.eye(2)))
    assert str(exc.value) == message
