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
from .operators import ValidationError
from .operators import tensor_product  # noqa: F401  unused here: ALIASES in bench/test_bench.py pins the binding
from .povm import BivariatePovm, OutcomeDistribution, Povm, QuadrivariatePovm, distribution, marginal
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

_PM_SIGNS = np.array([1.0, -1.0])  # outcome "+" -> +1, "-" -> -1


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


@dataclass(frozen=True)
class ChshResult:
    """Four pair correlations E(a,b), E(a,b'), E(a',b), E(a',b'), the CHSH
    combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), and whether the
    classical bound |S| <= 2 is exceeded."""

    correlations: tuple
    s_value: float
    violates: bool

    def __post_init__(self):
        if len(self.correlations) != 4:
            raise ValidationError("exactly four correlations expected")
        for k, e in enumerate(self.correlations):
            if abs(e) > 1.0 + CHSH_BOUND_TOL:
                raise ValidationError(f"correlation {k} = {e:.12g} outside [-1, 1]")
        if self.violates != (abs(self.s_value) > 2.0 + CHSH_BOUND_TOL):
            raise ValidationError("violates flag inconsistent with s_value")


def _chsh_result(correlations) -> ChshResult:
    e_ab, e_abp, e_apb, e_apbp = (float(x) for x in correlations)
    s = e_ab - e_abp + e_apb + e_apbp
    return ChshResult(
        correlations=(e_ab, e_abp, e_apb, e_apbp),
        s_value=s,
        violates=abs(s) > 2.0 + CHSH_BOUND_TOL,
    )


def whichway_povm(c: WhichWayConfig) -> BivariatePovm:
    """2x2 outcome grid of the which-way measurement.

    Rows are the theta-detector outcome, columns the theta'-detector
    outcome; the (+,+) cell is exactly zero and (-,-) absorbs the photons
    lost in either analyzer.
    """
    transmitted = polarization_projector(c.theta).mat * complex(c.gamma)
    reflected = polarization_projector(c.theta_prime).mat * complex(1.0 - c.gamma)
    absorbed = (np.eye(2, dtype=np.complex128) - transmitted) - reflected
    grid = np.array([[np.zeros((2, 2)), transmitted], [reflected, absorbed]])
    return BivariatePovm(grid, ["+", "-"], ["+", "-"])


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
    slack: float


def martens_sweep(theta: float, theta_prime: float, n_points: int) -> list:
    """Entropy pair (J_lam, J_mu) of the which-way experiment on a uniform
    gamma grid, with the overlap bound and the slack of J_lam + J_mu.  The
    two targets do not depend on gamma, so their recovery data is built once."""
    if n_points < 2:
        raise ValidationError(f"n_points must be >= 2, got {n_points}")
    pvms = polarization_pvm(theta), polarization_pvm(theta_prime)
    bound = martens_bound(*pvms)
    targets = [_target_data(Povm.from_pvm(p)) for p in pvms]
    points = []
    for gamma in np.linspace(0.0, 1.0, n_points):
        r = whichway_povm(WhichWayConfig(theta, theta_prime, float(gamma)))
        lam, mu = (_recover(marginal(r, ax).grid, *t) for ax, t in zip(("row", "col"), targets))
        j_lam = row_entropy_measure(lam)
        j_mu = row_entropy_measure(mu)
        points.append(
            SweepPoint(
                gamma=float(gamma),
                j_lambda=j_lam,
                j_mu=j_mu,
                bound=bound,
                slack=j_lam + j_mu - bound,
            )
        )
    return points


def eprbell_povm(c: EprBellConfig) -> QuadrivariatePovm:
    """16-outcome grid of the two-arm experiment: per-cell tensor products
    of the arms' which-way effects (arm 1 as the slow factor)."""
    a, b = (whichway_povm(arm).grid for arm in (c.arm1, c.arm2))
    # cell (c1, c2) holds a[c1, i, j] * b[c2, k, l] at row 2i + k, column 2j + l: np.kron's layout
    kron = a.reshape(4, 1, 2, 1, 2, 1) * b.reshape(1, 4, 1, 2, 1, 2)
    return QuadrivariatePovm(kron.reshape(2, 2, 2, 2, 4, 4))


def _pair_correlation(probs: np.ndarray, axis_a: int, axis_b: int) -> float:
    """+/-1-valued correlation of two outcome axes under one distribution."""
    sa = _PM_SIGNS.reshape([2 if k == axis_a else 1 for k in range(4)])
    sb = _PM_SIGNS.reshape([2 if k == axis_b else 1 for k in range(4)])
    return float((probs * sa * sb).sum())


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
    return _chsh_result(
        (
            _pair_correlation(probs, 0, 2),  # E(m1, m2)
            _pair_correlation(probs, 0, 3),  # E(m1, n2)
            _pair_correlation(probs, 1, 2),  # E(n1, m2)
            _pair_correlation(probs, 1, 3),  # E(n1, n2)
        )
    )


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
    corners = (
        (1.0, 1.0, 0, 2),  # E(theta1, theta2)
        (1.0, 0.0, 0, 3),  # E(theta1, theta2')
        (0.0, 1.0, 1, 2),  # E(theta1', theta2)
        (0.0, 0.0, 1, 3),  # E(theta1', theta2')
    )
    correlations = []
    for gamma1, gamma2, axis_a, axis_b in corners:
        config = EprBellConfig(
            arm1=WhichWayConfig(theta1, theta1_prime, gamma1),
            arm2=WhichWayConfig(theta2, theta2_prime, gamma2),
        )
        probs = distribution(rho, eprbell_povm(config)).probabilities
        correlations.append(_pair_correlation(probs, axis_a, axis_b))
    return _chsh_result(correlations)


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
    exact = distribution(rho, eprbell_povm(c))
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
