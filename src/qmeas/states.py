"""States, standard observables and their statistics.

Density operators, pure-state construction, spectral projection-valued
measures, expectation values and standard deviations, plus the two concrete
ingredients of the polarization experiments: linear-polarization projectors
and the maximally entangled two-photon state.
"""

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    DimensionMismatchError,
    EigensolverError,
    HermitianEig,
    Operator,
    ValidationError,
    _capped,
    _require_dim,
    _require_hermitian,
    _require_type,
    herm_eig,
)
from .povm import Povm, _expectations

__all__ = [
    "DensityOperator",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "Pvm",
    "entangled_pair_state",
    "expectation",
    "maximally_mixed",
    "polarization_projector",
    "polarization_pvm",
    "pure_state",
    "spectral_pvm",
    "std_dev",
]

EIGENVALUE_CLUSTER_TOL = 1e-8

PAULI_X = Operator([[0, 1], [1, 0]])
PAULI_Y = Operator([[0, -1j], [1j, 0]])
PAULI_Z = Operator([[1, 0], [0, -1]])


class DensityOperator(Operator):
    """Positive-semidefinite unit-trace operator representing a preparation:
    an `Operator` built from entries, or from the `.mat` of a given Operator.

    Validation is eager: the dimension (2..16), then hermiticity, positivity
    and unit trace, each within HERMITICITY_TOL, are checked on construction.
    One LAPACK `eigh` of the symmetrized matrix decides positivity, gives the
    rejection message its eigenvalue and is kept, read-only, as `eig`.
    """

    __slots__ = ("_eig",)

    def __init__(self, entries):
        super().__init__(entries.mat if isinstance(entries, Operator) else entries)
        _require_dim(self.dim, "density operator")  # before the eigensolve, as in `herm_eig`
        symmetrized = _require_hermitian(self, HERMITICITY_TOL, "density operator")
        try:
            eigenvalues, eigenvectors = np.linalg.eigh(symmetrized)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"LAPACK eigh failed on a density operator: {exc}") from exc
        if eigenvalues[0] < -HERMITICITY_TOL:
            raise ValidationError(f"density operator has negative eigenvalue {eigenvalues[0]:.3e}")
        with np.errstate(over="ignore"):  # diagonal entries near the float maximum may sum past it
            tr = complex(np.trace(self.mat))
        if abs(tr - 1.0) > HERMITICITY_TOL:
            tr = complex(_capped(tr.real), tr.imag)
            raise ValidationError(f"density operator trace is {tr:.12g}, expected 1")
        self._eig = HermitianEig(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    @property
    def eig(self) -> HermitianEig:
        """Spectral data from the constructor's `eigh` (read by `std_dev`)."""
        return self._eig


def _binary_scaled(m: np.ndarray):
    """(m / 2^e, e) for e the binary exponent of m's largest real or imaginary
    part (0 for an empty, zero or non-finite m): the largest part of m / 2^e
    lies in [1/2, 1), and dividing normal entries by a power of two is exact."""
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    e = int(np.frexp(np.abs(parts).max(initial=0.0))[1])
    return np.ldexp(parts, -e).view(np.complex128), e


def pure_state(v) -> DensityOperator:
    """Normalized projector |v><v| onto a nonzero state vector.  The vector is
    divided by a power of two before its norm is taken, so its scale is
    irrelevant: the squares inside the norm neither overflow nor underflow."""
    vec = np.asarray(v, dtype=np.complex128)
    if vec.ndim > 1:
        raise ValidationError(f"pure state vector must be one-dimensional, got shape {vec.shape}")
    vec, _ = _binary_scaled(vec.reshape(-1))
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("pure state vector must be nonzero and finite")
    vec = vec / norm
    return DensityOperator(np.outer(vec, vec.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    _require_dim(dim, "density operator")  # before 1 / dim is formed
    return DensityOperator(np.eye(dim) / dim)


class Pvm(Povm):
    """Projection-valued measure: a `Povm` whose effects are orthogonal projectors
    summing to identity, kept read-only as the (k, d, d) `grid` (d in 2..16, k <= d).
    `labels` are their finite real eigenvalues, `outcome_labels` those as `:g` strings.
    Checked here in full; the PVMs this module derives are built by `_derived`."""

    __slots__ = ("labels",)

    def __init__(self, projectors, labels):
        projectors = tuple(projectors)
        try:
            labels = tuple(float(x) for x in labels)
            if not np.all(np.isfinite(labels)):
                raise ValueError  # reported below, as a label that is not a number is
        except (TypeError, ValueError):
            raise ValidationError("PVM labels must be finite real numbers") from None
        if not projectors:
            raise ValidationError("PVM needs at least one projector")
        if len(labels) != len(projectors):
            raise ValidationError("labels and projectors must have matching length")
        for k, p in enumerate(projectors):
            if not isinstance(p, Operator):
                raise ValidationError(f"projector {k} is not an Operator")
        dim = projectors[0].dim
        _require_dim(dim, "PVM")  # before any product, as in `herm_eig`
        for k, p in enumerate(projectors):
            if p.dim != dim:
                raise DimensionMismatchError(f"projector {k} has dimension {p.dim}, expected {dim}")
            _require_hermitian(p, HERMITICITY_TOL, f"projector {k}")
            with np.errstate(over="ignore", invalid="ignore"):  # p @ p may overflow
                idem = _capped(np.abs(p.mat @ p.mat - p.mat).max())
            if idem > HERMITICITY_TOL:
                raise ValidationError(f"projector {k} is not idempotent (residual {idem:.3e})")
        if len(projectors) > dim:  # so the pair products below hold k^2 d^2 <= 16^4 entries
            raise ValidationError(
                f"PVM has {len(projectors)} projectors, more than its dimension {dim}"
            )
        stack = np.array([p.mat for p in projectors])
        cross = np.abs(stack[:, None] @ stack[None]).max(axis=(2, 3))
        bad = np.argwhere(np.triu(cross > HERMITICITY_TOL, 1))  # pairs i < j in row-major order
        if bad.size:
            i, j = bad[0]
            raise ValidationError(
                f"projectors {i} and {j} are not orthogonal (residual {cross[i, j]:.3e})"
            )
        closure = np.abs(stack.sum(axis=0) - np.eye(dim)).max()
        if closure > HERMITICITY_TOL:
            raise ValidationError(f"projectors do not sum to identity (residual {closure:.3e})")
        stack.flags.writeable = False
        self._label(stack, (labels,), "labels and projectors must have matching length")

    def _label(self, grid: np.ndarray, axis_labels, label_error: str):
        """Keep the eigenvalues `labels`, shown as `:g` strings in `outcome_labels`."""
        (self.labels,) = axis_labels
        super()._label(grid, ([f"{lab:g}" for lab in self.labels],), label_error)

    stack = Povm.grid  # aliases of the grid and its effects
    projectors = Povm.effects


def spectral_pvm(a: Operator) -> Pvm:
    """Spectral PVM of a Hermitian operator, a PVM by construction and not checked again.

    Eigenvalues closer than EIGENVALUE_CLUSTER_TOL times the largest |eigenvalue|
    are treated as one degenerate outcome, so rescaling `a` rescales the labels
    and keeps the outcomes; each outcome label is the mean of its cluster.
    """
    _require_type(a, "a")
    eig = herm_eig(a)
    # halved, exactly for normal floats, so that no difference or cluster sum overflows
    half, vecs = 0.5 * eig.eigenvalues, eig.eigenvectors
    cuts = np.flatnonzero(np.diff(half) > EIGENVALUE_CLUSTER_TOL * np.abs(half).max()) + 1
    stack = np.array([b @ b.conj().T for b in np.split(vecs, cuts, axis=1)])
    return Pvm._derived(stack, (tuple(2.0 * float(c.mean()) for c in np.split(half, cuts)),))


def expectation(rho: DensityOperator, m: Operator) -> float:
    """Tr(rho m) for Hermitian m; the imaginary residue must stay below HERMITICITY_TOL."""
    _require_type(m, "m")
    _require_hermitian(m, HERMITICITY_TOL, "expectation operand")
    return float(_expectations(rho, m.mat))


def _scaled_std_dev(rho: DensityOperator, a: Operator):
    """(s, a / 2^e, e) with std_dev(rho, a) = s * 2^e for an already checked
    Hermitian a, scaled by `_binary_scaled`: neither <a / 2^e> nor a square of
    a / 2^e overflows.  `expectation`'s imaginary-residue check applies in a's
    own units."""
    scaled, e = _binary_scaled(a.mat)
    mean = _expectations(rho, scaled, e)
    centered = scaled - mean * np.eye(a.dim)
    columns = centered @ rho.eig.eigenvectors
    weights = np.maximum(rho.eig.eigenvalues, 0.0)
    variance = float((weights * (np.abs(columns) ** 2).sum(axis=0)).sum())
    return float(np.sqrt(max(variance, 0.0))), scaled, e


def std_dev(rho: DensityOperator, a: Operator) -> float:
    """Standard deviation sqrt(<A^2> - <A>^2) of a Hermitian observable.

    Computed as the centered moment sum_i w_i |(A - <A>) v_i|^2 over the
    state's spectral decomposition, a sum of nonnegative terms; the naive
    difference of moments loses to round-off exactly on eigenstates, where
    this must vanish.  A is first divided by a power of two, so no square overflows.
    """
    _require_type(rho, "rho", DensityOperator)  # for its spectral data, `eig`
    _require_type(a, "a")
    _require_hermitian(a, HERMITICITY_TOL, "expectation operand")
    s, _, e = _scaled_std_dev(rho, a)
    with np.errstate(over="ignore"):  # a deviation beyond the float range reads inf
        return float(np.ldexp(s, e))


def polarization_projector(theta: float) -> Operator:
    """Rank-1 projector onto the linear polarization direction theta (radians).
    theta is first reduced mod 2 pi, exactly (the identity for |theta| < 2 pi)."""
    with np.errstate(invalid="ignore"):  # an infinite theta gives NaN, which Operator refuses
        theta = np.fmod(theta, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return Operator([[c * c, c * s], [c * s, s * s]])


def polarization_pvm(theta: float) -> Pvm:
    """Two-outcome PVM {E_+, E_-} of the polarization observable at theta,
    labels +1 (parallel) and -1 (orthogonal), not checked again.  theta is reduced
    mod 2 pi first, so that theta + pi / 2 rounds no further than it does below 2 pi."""
    with np.errstate(invalid="ignore"):  # an infinite theta gives NaN, which Operator refuses
        theta = np.fmod(theta, 2.0 * np.pi)
    stack = [polarization_projector(t).mat for t in (theta, theta + np.pi / 2.0)]
    return Pvm._derived(np.array(stack), ((1.0, -1.0),))


def entangled_pair_state() -> DensityOperator:
    """Maximally entangled two-photon state (|HH> + |VV>)/sqrt(2).

    Its polarization correlation between analyzers at theta1 and theta2 is
    cos 2(theta1 - theta2), the standard photon-cascade choice.
    """
    return pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
