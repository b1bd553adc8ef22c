"""Measurement nonideality: stochastic-matrix recovery and entropy measures.

A POVM {M_m} is a nonideal version of {N_n} when M_m = sum_n lam[m,n] N_n
for a nonnegative matrix lam whose columns each sum to one; lam[m,n] is the
conditional probability of registering m where an ideal measurement would
have given n.  `recover_nonideality` finds the best such matrix by least
squares over the column-stochastic polytope and reports the residual, so a
failed relation is observable rather than silently accepted.

The entropy measure J (average row entropy of lam) is zero exactly for an
ideal measurement; for a joint measurement whose marginals smear two target
PVMs, the sum of the two J values is bounded below by the overlap bound
evaluated in `martens_bound`, a state-independent counterpart of the
state-dependent Robertson/Heisenberg product bound in `check_heisenberg`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    DimensionMismatchError,
    Operator,
    SolverError,
    ValidationError,
    _require_hermitian,
    _require_type,
    herm_eig,
)
from .povm import BivariatePovm, OutcomeGrid, Povm, marginal
from .states import DensityOperator, Pvm, _scaled_std_dev

__all__ = [
    "InequalityReport",
    "NonidealityMatrix",
    "NotJointMeasurementError",
    "RecoveryError",
    "check_heisenberg",
    "check_martens",
    "joint_nonideal_decomposition",
    "martens_bound",
    "recover_nonideality",
    "row_entropy_measure",
]

COLUMN_SUM_TOL = 1e-7
NEGATIVE_ENTRY_TOL = 1e-9
GRADIENT_MAP_TOL = 1e-10
MAX_SOLVER_ITERATIONS = 100_000
JOINT_RESIDUAL_TOL = 1e-6
MARTENS_SLACK_TOL = 1e-6


class RecoveryError(SolverError):
    """Solver did not converge within the iteration cap.

    Carries the last iterate as `best` (an accelerated step need not lower
    the objective, so it is the last, not necessarily the best) and its
    residual, so callers can inspect how close the failed recovery got.
    """

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


class NotJointMeasurementError(ValidationError):
    """The bivariate POVM's marginals do not smear the requested target PVMs."""


@dataclass(frozen=True)
class NonidealityMatrix:
    """Nonnegative column-stochastic matrix linking two POVMs, plus the
    Frobenius norm of the recovery error."""

    lam: np.ndarray
    residual: float

    def __post_init__(self):
        arr = np.array(self.lam, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"nonideality matrix must be nonempty 2-d, got shape {arr.shape}")
        if not (np.all(np.isfinite(arr)) and math.isfinite(self.residual)):
            raise ValidationError("nonideality entries and residual must be finite (no NaN/Inf)")
        low = arr.min()
        if low < -NEGATIVE_ENTRY_TOL:
            raise ValidationError(f"nonideality entry {low:.3e} below -{NEGATIVE_ENTRY_TOL:.0e}")
        colsums = arr.sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
        if worst > COLUMN_SUM_TOL:
            raise ValidationError(f"column sums deviate from 1 by {worst:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "lam", arr)


@dataclass(frozen=True)
class InequalityReport:
    """Evaluated inequality: lhs >= rhs expected, slack = lhs - rhs.

    `tol` is the tolerance below which negative slack counts as a
    violation; `satisfied` is computed as slack >= -tol.
    """

    lhs: float
    rhs: float
    slack: float
    tol: float

    @property
    def satisfied(self) -> bool:
        return self.slack >= -self.tol


def _project_columns(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each column onto the probability simplex, by
    one sort along axis 0 (Duchi et al., ICML 2008)."""
    srt = np.sort(x, axis=0)[::-1]
    css = np.cumsum(srt, axis=0)
    ks = np.arange(1, x.shape[0] + 1)[:, None]
    # rho = the last k with srt[k-1] * k > css[k-1] - 1; k = 1 always qualifies.
    rho = x.shape[0] - np.argmax((srt * ks > css - 1.0)[::-1], axis=0)
    tau = (css[rho - 1, np.arange(x.shape[1])] - 1.0) / rho
    return np.maximum(x - tau, 0.0)


def recover_nonideality(m: Povm, n: Povm) -> NonidealityMatrix:
    """Best column-stochastic lam with M_k ~ sum_j lam[k,j] N_j, least squares.

    Accelerated projected gradient (FISTA, Beck & Teboulle 2009) on the
    product of per-column probability simplices, with the gradient adaptive
    restart of O'Donoghue & Candes (2015).  The objective is a small convex
    quadratic whose gradient is L-Lipschitz, so the fixed step 1/L needs no
    line search; the momentum keeps a singular Gram matrix (more outcomes
    than the effects' real span) from slowing it to a crawl.  Its first two
    steps are plain projected gradient's.  A residual near zero (< 1e-7)
    certifies that m really is a nonideal version of n; when the Gram matrix
    is singular lam is not unique, and the one returned is this solver's.
    The private core `_recover` raises RecoveryError after MAX_SOLVER_ITERATIONS, read at call time.
    Both arguments must be one-axis POVMs (a Pvm included), or ValidationError.
    """
    for what, p in (("m", m), ("n", n)):
        if not isinstance(p, Povm):
            shape = f" of shape {p.shape}" if isinstance(p, OutcomeGrid) else ""
            raise ValidationError(f"{what} must be a one-axis POVM, got {type(p).__name__}{shape}")
    if m.dim != n.dim:
        raise DimensionMismatchError(f"POVM dimensions differ: {m.dim} vs {n.dim}")
    return _recover(m.grid, *_target_data(n.grid))


def _target_data(ne: np.ndarray) -> tuple:
    """(effects, Gram matrix, step 1/L) of a recovery target's effect stack; L,
    twice the Gram matrix's largest eigenvalue, is the Lipschitz constant of the gradient."""
    # Frobenius inner products; all real since effects are Hermitian.
    gram = np.einsum("aij,bji->ab", ne, ne).real
    # L > 0: a validated target's Gram trace is sum_n ||N_n||^2 >= d / k.  The k x k
    # Gram matrix is no Hilbert-space operator: outside 2..16 outcomes LAPACK solves it.
    k = len(ne)
    top = herm_eig(Operator(gram)).eigenvalues[-1] if 2 <= k <= 16 else np.linalg.eigvalsh(gram)[-1]
    return ne, gram, 1.0 / (2.0 * float(top))


def _recover(me: np.ndarray, ne: np.ndarray, gram: np.ndarray, step: float) -> NonidealityMatrix:
    """`recover_nonideality` on the effect stack of m and the target data of n."""
    cross = np.einsum("mij,nji->mn", me, ne).real

    def direct_residual(lam):
        # The expanded quadratic cancels catastrophically near zero; the
        # reported residual is therefore recomputed from the reconstruction.
        diff = me - np.einsum("mn,nij->mij", lam, ne)
        return float(np.sqrt((np.abs(diff) ** 2).sum()))

    lam = y = np.full((len(me), len(ne)), 1.0 / len(me))
    t = 1.0
    for _ in range(MAX_SOLVER_ITERATIONS):
        grad = 2.0 * (y @ gram - cross)
        cand = _project_columns(y - step * grad)
        delta = cand - y
        gap = float(np.sqrt((delta * delta).sum())) / step
        if gap < GRADIENT_MAP_TOL:
            return NonidealityMatrix(lam=cand, residual=direct_residual(cand))
        if float((delta * (lam - cand)).sum()) > 0.0:  # gradient restart: momentum points uphill
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = cand + ((t - 1.0) / t_next) * (cand - lam)
        lam, t = cand, t_next
    residual = direct_residual(lam)
    raise RecoveryError(
        f"recovery did not converge within {MAX_SOLVER_ITERATIONS} iterations "
        f"(best residual {residual:.3e})",
        best=lam,
        residual=residual,
    )


def row_entropy_measure(lam) -> float:
    """Average row entropy J of a nonideality matrix; 0 means ideal.

    J = -(1/N) sum_{mn} lam[m,n] ln(lam[m,n] / rowsum_m) with N the number
    of rows; zero entries and zero rows contribute nothing (entropy limit
    0 ln 0 = 0).
    """
    arr = (lam if isinstance(lam, NonidealityMatrix) else NonidealityMatrix(lam, 0.0)).lam
    rowsums = arr.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = arr / rowsums[:, None]
        terms = np.where(arr > 0.0, arr * np.log(np.where(arr > 0.0, ratio, 1.0)), 0.0)
    val = -float(terms.sum()) / arr.shape[0]
    return val if val > 0.0 else 0.0


def joint_nonideal_decomposition(r: BivariatePovm, e: Pvm, f: Pvm):
    """Recover the pair (lam, mu) smearing the target PVMs e and f into the
    row and column marginals of the joint grid r; other targets raise ValidationError."""
    _require_type(e, "e", Pvm)
    _require_type(f, "f", Pvm)
    lam = recover_nonideality(marginal(r, "row"), Povm.from_pvm(e))
    mu = recover_nonideality(marginal(r, "col"), Povm.from_pvm(f))
    return lam, mu


def martens_bound(e: Pvm, f: Pvm) -> float:
    """State-independent lower bound -ln(max_mn Tr E_m F_n) on J_lam + J_mu
    for any joint nonideal measurement of the PVMs e and f; other targets raise ValidationError."""
    _require_type(e, "e", Pvm)
    _require_type(f, "f", Pvm)
    if e.dim != f.dim:
        raise DimensionMismatchError(f"PVM dimensions differ: {e.dim} vs {f.dim}")
    # the k_e * k_f overlaps sum to d, so their maximum is at least d / (k_e * k_f) > 0
    overlaps = np.trace(e.grid[:, None] @ f.grid[None], axis1=-2, axis2=-1).real
    return -math.log(float(overlaps.max()))


def check_martens(r: BivariatePovm, e: Pvm, f: Pvm) -> InequalityReport:
    """Evaluate J_lam + J_mu >= overlap bound for a joint nonideal measurement.

    The slack tolerance is looser than elsewhere (1e-6) because the entropy
    terms compound solver residuals at the boundary of equality.  The
    targets are checked, by `martens_bound`, before either recovery runs.
    """
    rhs = martens_bound(e, f)
    lam, mu = joint_nonideal_decomposition(r, e, f)
    for name, rec in (("row", lam), ("col", mu)):
        if rec.residual > JOINT_RESIDUAL_TOL:
            raise NotJointMeasurementError(
                f"not a joint nonideal measurement of the targets: {name}-marginal "
                f"recovery residual {rec.residual:.3e} > {JOINT_RESIDUAL_TOL:.0e}"
            )
    lhs = row_entropy_measure(lam) + row_entropy_measure(mu)
    return InequalityReport(lhs, rhs, lhs - rhs, MARTENS_SLACK_TOL)


def check_heisenberg(rho: DensityOperator, a: Operator, b: Operator) -> InequalityReport:
    """Robertson uncertainty product: dA dB >= |Tr rho [A,B]| / 2."""
    _require_type(rho, "rho", DensityOperator)  # for its spectral data, `eig`
    _require_type(a, "a")
    _require_type(b, "b")
    if not (rho.dim == a.dim == b.dim):
        raise DimensionMismatchError(
            f"dimensions differ: state {rho.dim}, operands {a.dim} and {b.dim}"
        )
    _require_hermitian(a, HERMITICITY_TOL, "first observable")
    _require_hermitian(b, HERMITICITY_TOL, "second observable")
    # on a / 2^ea and b / 2^eb no product overflows, and 2^(ea + eb) scales back exactly
    s_a, a_s, ea = _scaled_std_dev(rho, a)
    s_b, b_s, eb = _scaled_std_dev(rho, b)
    lhs = s_a * s_b
    rhs = 0.5 * abs(complex(np.trace(rho.mat @ (a_s @ b_s - b_s @ a_s))))
    with np.errstate(over="ignore"):  # a side beyond the float range reads inf, never NaN
        lhs, rhs, slack = (float(np.ldexp(x, ea + eb)) for x in (lhs, rhs, lhs - rhs))
    return InequalityReport(lhs, rhs, slack, HERMITICITY_TOL)
