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
    herm_eig,
)
from .povm import BivariatePovm, Povm, marginal
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

    Carries the best iterate seen and its residual so callers can inspect
    how close the failed recovery got.
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
        if arr.ndim != 2:
            raise ValidationError(f"nonideality matrix must be 2-d, got shape {arr.shape}")
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

    @property
    def shape(self) -> tuple:
        return self.lam.shape


@dataclass(frozen=True)
class InequalityReport:
    """Evaluated inequality: lhs >= rhs expected, slack = lhs - rhs.

    `tol` records the tolerance below which negative slack counts as a
    violation; satisfied <=> slack >= -tol.
    """

    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    tol: float = HERMITICITY_TOL

    @classmethod
    def from_sides(cls, lhs: float, rhs: float, tol: float = HERMITICITY_TOL):
        slack = lhs - rhs
        return cls(lhs=lhs, rhs=rhs, satisfied=slack >= -tol, slack=slack, tol=tol)


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

    Projected gradient descent on the product of per-column probability
    simplices; the objective is a small convex quadratic, so a step of
    1/L with backtracking converges fast at these sizes.  A residual near
    zero (< 1e-7) certifies that m really is a nonideal version of n.
    The private core `_recover` raises RecoveryError after MAX_SOLVER_ITERATIONS, read at call time.
    """
    if m.dim != n.dim:
        raise DimensionMismatchError(f"POVM dimensions differ: {m.dim} vs {n.dim}")
    return _recover(m.grid, *_target_data(n))


def _target_data(n: Povm) -> tuple:
    """(effects, Gram matrix, step 1/L) of a recovery target; L, twice the Gram
    matrix's largest eigenvalue, is the Lipschitz constant of the gradient."""
    ne = n.grid
    # Frobenius inner products; all real since effects are Hermitian.
    gram = np.einsum("aij,bji->ab", ne, ne).real
    lipschitz = 2.0 * float(herm_eig(Operator(gram)).eigenvalues[-1])
    return ne, gram, 1.0 / lipschitz if lipschitz > 0 else 1.0


def _recover(me: np.ndarray, ne: np.ndarray, gram: np.ndarray, step: float) -> NonidealityMatrix:
    """`recover_nonideality` on the effect stack of m and the target data of n."""
    cross = np.einsum("mij,nji->mn", me, ne).real
    const = float(np.einsum("mij,mji->", me, me).real)

    def objective(lam):
        return const - 2.0 * float((lam * cross).sum()) + float(((lam @ gram) * lam).sum())

    def direct_residual(lam):
        # The expanded quadratic cancels catastrophically near zero; the
        # reported residual is therefore recomputed from the reconstruction.
        diff = me - np.einsum("mn,nij->mij", lam, ne)
        return float(np.sqrt((np.abs(diff) ** 2).sum()))

    rows, cols = len(me), len(ne)
    lam = np.full((rows, cols), 1.0 / rows)
    f_lam = objective(lam)
    best, best_f = lam, f_lam
    for _ in range(MAX_SOLVER_ITERATIONS):
        grad = 2.0 * (lam @ gram - cross)
        while True:
            cand = _project_columns(lam - step * grad)
            delta = cand - lam
            quad = f_lam + float((grad * delta).sum()) + float((delta * delta).sum()) / (2.0 * step)
            f_cand = objective(cand)
            if f_cand <= quad + 1e-15:
                break
            step *= 0.5
        gap = float(np.sqrt((delta * delta).sum())) / step
        lam, f_lam = cand, f_cand
        if f_lam < best_f:
            best, best_f = lam, f_lam
        if gap < GRADIENT_MAP_TOL:
            return NonidealityMatrix(lam=lam, residual=direct_residual(lam))
    best_residual = direct_residual(best)
    raise RecoveryError(
        f"recovery did not converge within {MAX_SOLVER_ITERATIONS} iterations "
        f"(best residual {best_residual:.3e})",
        best=best,
        residual=best_residual,
    )


def row_entropy_measure(lam) -> float:
    """Average row entropy J of a nonideality matrix; 0 means ideal.

    J = -(1/N) sum_{mn} lam[m,n] ln(lam[m,n] / rowsum_m) with N the number
    of rows; zero entries and zero rows contribute nothing (entropy limit
    0 ln 0 = 0).
    """
    arr = lam.lam if isinstance(lam, NonidealityMatrix) else np.asarray(lam, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("nonideality entries must be finite (no NaN/Inf)")
    rowsums = arr.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = arr / rowsums[:, None]
        terms = np.where(arr > 0.0, arr * np.log(np.where(arr > 0.0, ratio, 1.0)), 0.0)
    val = -float(terms.sum()) / arr.shape[0]
    return val if val > 0.0 else 0.0


def joint_nonideal_decomposition(r: BivariatePovm, e: Pvm, f: Pvm):
    """Recover the pair (lam, mu) smearing the target PVMs e and f into the
    row and column marginals of the joint grid r."""
    lam = recover_nonideality(marginal(r, "row"), Povm.from_pvm(e))
    mu = recover_nonideality(marginal(r, "col"), Povm.from_pvm(f))
    return lam, mu


def martens_bound(e: Pvm, f: Pvm) -> float:
    """State-independent lower bound -ln(max_mn Tr E_m F_n) on J_lam + J_mu
    for any joint nonideal measurement of the PVMs e and f."""
    if e.dim != f.dim:
        raise DimensionMismatchError(f"PVM dimensions differ: {e.dim} vs {f.dim}")
    overlaps = [
        float(np.trace(p.mat @ q.mat).real) for p in e.projectors for q in f.projectors
    ]
    mx = max(overlaps)
    if mx <= 0.0:
        raise ValidationError("maximal projector overlap is zero; bound undefined")
    return -math.log(mx)


def check_martens(r: BivariatePovm, e: Pvm, f: Pvm) -> InequalityReport:
    """Evaluate J_lam + J_mu >= overlap bound for a joint nonideal measurement.

    The slack tolerance is looser than elsewhere (1e-6) because the entropy
    terms compound solver residuals at the boundary of equality.
    """
    lam, mu = joint_nonideal_decomposition(r, e, f)
    for name, rec in (("row", lam), ("col", mu)):
        if rec.residual > JOINT_RESIDUAL_TOL:
            raise NotJointMeasurementError(
                f"not a joint nonideal measurement of the targets: {name}-marginal "
                f"recovery residual {rec.residual:.3e} > {JOINT_RESIDUAL_TOL:.0e}"
            )
    lhs = row_entropy_measure(lam) + row_entropy_measure(mu)
    return InequalityReport.from_sides(lhs, martens_bound(e, f), tol=MARTENS_SLACK_TOL)


def check_heisenberg(rho: DensityOperator, a: Operator, b: Operator) -> InequalityReport:
    """Robertson uncertainty product: dA dB >= |Tr rho [A,B]| / 2."""
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
    return InequalityReport(lhs, rhs, slack >= -HERMITICITY_TOL, slack, HERMITICITY_TOL)
