"""The concrete polarization experiments.

Which-way measurement: a photon meets a semi-transparent mirror, passing
with probability gamma to a polarization analyzer at angle theta (detector
D) and reflecting with probability 1-gamma to an analyzer at theta'
(detector D').  Detection "+" / no detection "-" on both detectors gives a
2x2 outcome grid; the double-detection cell is identically zero and photons
absorbed in an analyzer land in the (-,-) cell.  The grid's marginals smear
the two ideal polarization PVMs, which is what makes this a joint nonideal
measurement of two incompatible observables.

Two-arm setup: one which-way measurement per photon of an entangled pair,
giving a 16-outcome grid whose single joint distribution keeps every CHSH
combination within the classical bound.  Pasting instead the four
ideal-corner configurations (each mirror fully transmitting or fully
reflecting) reproduces the textbook CHSH violation up to 2 sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .nonideality import _recover, _target_data, joint_nonideal_decomposition
from .nonideality import martens_bound, row_entropy_measure
from .operators import ValidationError, _require_int, _require_type
from .operators import tensor_product  # noqa: F401  unused here: ALIASES in bench/test_bench.py pins the binding
from .povm import BivariatePovm, OutcomeDistribution, QuadrivariatePovm, _expectations, distribution
from .sampling import sample_counts
from .states import DensityOperator, polarization_projector, polarization_pvm

__all__ = [
    "ChshResult",
    "EprBellConfig",
    "SampleCheck",
    "SweepPoint",
    "WhichWayConfig",
    "chsh_pasted_aspect",
    "chsh_single_setup",
    "eprbell_povm",
    "martens_sweep",
    "quadruple_sample_check",
    "whichway_nonideality",
    "whichway_nonideality_analytic",
    "whichway_povm",
]

CHSH_BOUND_TOL = 1e-9

# Row k holds, over (m1, n1, m2, n2), the +/-1 product ("+" -> +1, "-" -> -1) of the
# two outcome axes of CHSH pair k: E(m1,m2), E(m1,n2), E(n1,m2), E(n1,n2)
_CHSH_SIGNS = np.prod((1.0 - 2.0 * np.indices((2, 2, 2, 2)))[[(0, 2), (0, 3), (1, 2), (1, 3)]], axis=1)
_CHSH_SIGNS.flags.writeable = False


@dataclass(frozen=True)
class WhichWayConfig:
    """Analyzer directions (radians) and mirror transmission probability."""

    theta: float
    theta_prime: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class EprBellConfig:
    """One which-way configuration per arm of the two-photon setup."""

    arm1: WhichWayConfig
    arm2: WhichWayConfig

    def __post_init__(self):
        _require_type(self.arm1, "arm1", WhichWayConfig)
        _require_type(self.arm2, "arm2", WhichWayConfig)


@dataclass(frozen=True)
class ChshResult:
    """Four pair correlations E(a,b), E(a,b'), E(a',b), E(a',b'); the CHSH
    combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b') and whether it
    exceeds the classical bound |S| <= 2 are computed from them."""

    correlations: tuple

    def __post_init__(self):
        if len(self.correlations) != 4:
            raise ValidationError("exactly four correlations expected")
        for k, e in enumerate(self.correlations):
            if not abs(e) <= 1.0 + CHSH_BOUND_TOL:  # NaN fails it too
                raise ValidationError(f"correlation {k} = {e:.12g} outside [-1, 1]")

    @property
    def s_value(self) -> float:
        e_ab, e_abp, e_apb, e_apbp = self.correlations
        return e_ab - e_abp + e_apb + e_apbp

    @property
    def violates(self) -> bool:
        return abs(self.s_value) > 2.0 + CHSH_BOUND_TOL


def _whichway_cells(theta: float, theta_prime: float, gamma: float) -> np.ndarray:
    """`whichway_povm`'s cells, unvalidated: gamma P, (1 - gamma) Q and their
    complement in I form a POVM for projectors P, Q and gamma in [0, 1]."""
    transmitted = polarization_projector(theta).mat * complex(gamma)
    reflected = polarization_projector(theta_prime).mat * complex(1.0 - gamma)
    absorbed = (np.eye(2, dtype=np.complex128) - transmitted) - reflected
    return np.array([[np.zeros((2, 2)), transmitted], [reflected, absorbed]])


def whichway_povm(c: WhichWayConfig) -> BivariatePovm:
    """2x2 outcome grid of the which-way measurement.

    Rows are the theta-detector outcome, columns the theta'-detector
    outcome; the (+,+) cell is exactly zero and (-,-) absorbs the photons
    lost in either analyzer.
    """
    _require_type(c, "c", WhichWayConfig)
    return BivariatePovm(_whichway_cells(c.theta, c.theta_prime, c.gamma), ["+", "-"], ["+", "-"])


def whichway_nonideality_analytic(c: WhichWayConfig):
    """Closed-form nonideality matrices of the which-way grid.

    The transmitted branch registers "+" with probability gamma when the
    ideal theta measurement would, never otherwise; the reflected branch
    behaves the same with 1 - gamma and theta'.
    """
    g = c.gamma
    lam = np.array([[g, 0.0], [1.0 - g, 1.0]])
    mu = np.array([[1.0 - g, 0.0], [g, 1.0]])
    return lam, mu


def whichway_nonideality(c: WhichWayConfig):
    """Recovered (lam, mu) pair of the which-way grid against the ideal
    polarization PVMs at theta and theta'."""
    return joint_nonideal_decomposition(
        whichway_povm(c), polarization_pvm(c.theta), polarization_pvm(c.theta_prime)
    )


@dataclass(frozen=True)
class SweepPoint:
    gamma: float
    j_lambda: float
    j_mu: float
    bound: float

    @property
    def slack(self) -> float:
        return self.j_lambda + self.j_mu - self.bound


def martens_sweep(theta: float, theta_prime: float, n_points: int) -> list:
    """Entropy pair (J_lam, J_mu) of the which-way experiment on a uniform
    gamma grid, with the overlap bound and the slack of J_lam + J_mu.  The
    two targets do not depend on gamma, so their recovery data is built once."""
    _require_int(n_points, "n_points", minimum=2)
    pvms = polarization_pvm(theta), polarization_pvm(theta_prime)
    bound = martens_bound(*pvms)
    targets = [_target_data(p.grid) for p in pvms]
    points = []
    for gamma in np.linspace(0.0, 1.0, n_points):
        cells = _whichway_cells(theta, theta_prime, float(gamma))
        lam, mu = (_recover(cells.sum(axis=ax), *t) for ax, t in zip((1, 0), targets))
        j_lam, j_mu = row_entropy_measure(lam), row_entropy_measure(mu)
        points.append(SweepPoint(float(gamma), j_lam, j_mu, bound))
    return points


def _two_arm_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(2, 2, 2, 2, 4, 4) cells of the two-arm grid: per-cell tensor products
    of two arms' (2, 2, 2, 2) which-way cells, arm 1 (`a`) as the slow factor.
    A product of two POVMs is a POVM, so valid arms give a valid grid."""
    # cell (c1, c2) holds a[c1, i, j] * b[c2, k, l] at row 2i + k, column 2j + l: np.kron's layout
    kron = a.reshape(4, 1, 2, 1, 2, 1) * b.reshape(1, 4, 1, 2, 1, 2)
    return kron.reshape(2, 2, 2, 2, 4, 4)


def _two_arm_law(rho: DensityOperator, arm1: tuple, arm2: tuple) -> np.ndarray:
    """(m1, n1, m2, n2) law of the two-arm grid of arms (theta, theta', gamma), unvalidated."""
    return _expectations(rho, _two_arm_cells(_whichway_cells(*arm1), _whichway_cells(*arm2)))


def eprbell_povm(c: EprBellConfig) -> QuadrivariatePovm:
    """16-outcome grid of the two-arm experiment: the product of the arms'
    validated which-way grids, a POVM by construction and not checked again."""
    _require_type(c, "c", EprBellConfig)
    a, b = (whichway_povm(arm).grid for arm in (c.arm1, c.arm2))
    return QuadrivariatePovm._derived(_two_arm_cells(a, b))


def chsh_single_setup(rho: DensityOperator, c: EprBellConfig) -> ChshResult:
    """CHSH combination with all four correlations read from the single
    16-outcome distribution of one fixed configuration.

    Because one joint distribution supplies every pair, the result is
    classical (Kolmogorovian) and can never exceed |S| = 2, whatever the
    state or mirror transmissions.
    """
    return _single_setup_result(distribution(rho, eprbell_povm(c)).probabilities)


def _single_setup_result(probs: np.ndarray) -> ChshResult:
    """CHSH result of one two-arm distribution, shaped (m1, n1, m2, n2)."""
    return ChshResult(tuple(float((probs * signs).sum()) for signs in _CHSH_SIGNS))


def chsh_pasted_aspect(
    rho: DensityOperator,
    theta1: float,
    theta1_prime: float,
    theta2: float,
    theta2_prime: float,
) -> ChshResult:
    """CHSH combination pasted from the four ideal corner configurations.

    Each corner sets both mirrors fully transmitting (gamma = 1, ideal
    theta measurement on the detector-D axis) or fully reflecting
    (gamma = 0, ideal theta' measurement on the detector-D' axis); the
    correlation of the two ideal axes is extracted per corner with
    non-detection valued -1.  The four corners measure the four angle
    combinations, and the pasted S can reach 2 sqrt(2).
    """
    gammas = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))  # corner k reads _CHSH_SIGNS[k]
    corners = [((theta1, theta1_prime, g1), (theta2, theta2_prime, g2)) for g1, g2 in gammas]
    laws = (_two_arm_law(rho, *arms) for arms in corners)
    return ChshResult(tuple(float((probs * signs).sum()) for probs, signs in zip(laws, _CHSH_SIGNS)))


@dataclass(frozen=True)
class SampleCheck:
    """Result of a finite sampled run against the exact distribution."""

    counts: np.ndarray
    empirical: OutcomeDistribution
    exact: OutcomeDistribution
    tv_distance: float


def quadruple_sample_check(
    rho: DensityOperator, c: EprBellConfig, n_samples: int, seed: int
) -> SampleCheck:
    """Draw i.i.d. outcome quadruples (m1, n1, m2, n2) and compare the
    empirical frequencies with the exact 16-outcome distribution.

    Every simulated pair produces one complete quadruple, which is exactly
    why these statistics stay classical.  At n_samples >= 1e5 the
    total-variation distance must fall below 3 sqrt(ln(16)/n); a larger
    distance means the sampler is broken and raises.
    """
    _require_type(c, "c", EprBellConfig)
    arm1, arm2 = ((arm.theta, arm.theta_prime, arm.gamma) for arm in (c.arm1, c.arm2))
    exact = OutcomeDistribution(_two_arm_law(rho, arm1, arm2))
    counts = sample_counts(exact.probabilities, n_samples, seed)
    empirical = OutcomeDistribution(counts / float(n_samples))
    tv = 0.5 * float(np.abs(empirical.probabilities - exact.probabilities).sum())
    if n_samples >= 100_000:
        limit = 3.0 * math.sqrt(math.log(16.0) / n_samples)
        if tv >= limit:
            raise RuntimeError(
                f"sampled frequencies off by TV {tv:.4g} >= {limit:.4g}; sampler inconsistent"
            )
    counts = counts.copy()
    counts.flags.writeable = False
    return SampleCheck(counts=counts, empirical=empirical, exact=exact, tv_distance=tv)
