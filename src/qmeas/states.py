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
    Operator,
    ValidationError,
    _require_hermitian,
    herm_eig,
    identity,
)

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


class DensityOperator:
    """Positive-semidefinite unit-trace operator representing a preparation.

    Validation is eager: hermiticity, positivity and unit trace are checked
    on construction, each within HERMITICITY_TOL.
    """

    __slots__ = ("op", "eig")

    def __init__(self, op):
        if not isinstance(op, Operator):
            op = Operator(op)
        _require_hermitian(op, HERMITICITY_TOL, "density operator")
        eig = herm_eig(op)
        if eig.eigenvalues[0] < -HERMITICITY_TOL:
            raise ValidationError(
                f"density operator has negative eigenvalue {eig.eigenvalues[0]:.3e}"
            )
        tr = op.trace()
        if abs(tr - 1.0) > HERMITICITY_TOL:
            raise ValidationError(f"density operator trace is {tr:.12g}, expected 1")
        self.op = op
        self.eig = eig  # spectral data, reused by variance computations

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def pure_state(v) -> DensityOperator:
    """Normalized projector |v><v| onto a nonzero state vector."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("pure state vector must be nonzero and finite")
    vec = vec / norm
    return DensityOperator(Operator(np.outer(vec, vec.conj())))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator((1.0 / dim) * identity(dim))


class Pvm:
    """Projection-valued measure: orthogonal idempotent projectors summing to
    identity, each carrying a real eigenvalue label."""

    __slots__ = ("projectors", "labels")

    def __init__(self, projectors, labels):
        projectors = tuple(projectors)
        labels = tuple(float(x) for x in labels)
        if not projectors:
            raise ValidationError("PVM needs at least one projector")
        if len(labels) != len(projectors):
            raise ValidationError("labels and projectors must have matching length")
        dim = projectors[0].dim
        for k, p in enumerate(projectors):
            if p.dim != dim:
                raise DimensionMismatchError(f"projector {k} has dimension {p.dim}, expected {dim}")
            _require_hermitian(p, HERMITICITY_TOL, f"projector {k}")
            idem = np.abs((p @ p).mat - p.mat).max()
            if idem > HERMITICITY_TOL:
                raise ValidationError(f"projector {k} is not idempotent (residual {idem:.3e})")
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                cross = np.abs((projectors[i] @ projectors[j]).mat).max()
                if cross > HERMITICITY_TOL:
                    raise ValidationError(
                        f"projectors {i} and {j} are not orthogonal (residual {cross:.3e})"
                    )
        total = sum((p.mat for p in projectors), start=np.zeros((dim, dim), dtype=np.complex128))
        closure = np.abs(total - np.eye(dim)).max()
        if closure > HERMITICITY_TOL:
            raise ValidationError(f"projectors do not sum to identity (residual {closure:.3e})")
        self.projectors = projectors
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def __len__(self):
        return len(self.projectors)

    def __repr__(self):
        return f"Pvm(dim={self.dim}, outcomes={len(self)})"


def spectral_pvm(a: Operator) -> Pvm:
    """Spectral PVM of a Hermitian operator.

    Eigenvalues closer than EIGENVALUE_CLUSTER_TOL are treated as one degenerate
    outcome; each outcome label is the mean of its cluster.
    """
    eig = herm_eig(a)
    vals, vecs = eig.eigenvalues, eig.eigenvectors
    projectors, labels = [], []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > EIGENVALUE_CLUSTER_TOL:
            block = vecs[:, start:k]
            projectors.append(Operator(block @ block.conj().T))
            labels.append(float(vals[start:k].mean()))
            start = k
    return Pvm(projectors, labels)


def _expectations(rho: DensityOperator, stack: np.ndarray) -> np.ndarray:
    """Tr(rho X) for every X of a (..., d, d) stack, shaped like the stack's
    leading axes; each imaginary residue must stay below HERMITICITY_TOL."""
    if rho.dim != stack.shape[-1]:
        raise DimensionMismatchError(f"state dim {rho.dim} vs operator dim {stack.shape[-1]}")
    vals = np.trace(rho.mat @ stack, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.abs(vals.imag) >= HERMITICITY_TOL)
    if bad.size:
        raise ValidationError(f"expectation has imaginary residue {vals.imag.flat[bad[0]]:.3e}")
    return vals.real


def expectation(rho: DensityOperator, m: Operator) -> float:
    """Tr(rho m) for Hermitian m; the imaginary residue must stay below HERMITICITY_TOL."""
    _require_hermitian(m, HERMITICITY_TOL, "expectation operand")
    return float(_expectations(rho, m.mat))


def std_dev(rho: DensityOperator, a: Operator) -> float:
    """Standard deviation sqrt(<A^2> - <A>^2) of a Hermitian observable.

    Computed as the centered moment sum_i w_i |(A - <A>) v_i|^2 over the
    state's spectral decomposition, a sum of nonnegative terms; the naive
    difference of moments loses to round-off exactly on eigenstates, where
    this must vanish.
    """
    mean = expectation(rho, a)
    centered = a.mat - mean * np.eye(a.dim)
    columns = centered @ rho.eig.eigenvectors
    weights = np.maximum(rho.eig.eigenvalues, 0.0)
    variance = float((weights * (np.abs(columns) ** 2).sum(axis=0)).sum())
    return float(np.sqrt(max(variance, 0.0)))


def polarization_projector(theta: float) -> Operator:
    """Rank-1 projector onto the linear polarization direction theta (radians)."""
    c, s = np.cos(theta), np.sin(theta)
    return Operator([[c * c, c * s], [c * s, s * s]])


def polarization_pvm(theta: float) -> Pvm:
    """Two-outcome PVM {E_+, E_-} of the polarization observable at theta,
    labels +1 (parallel) and -1 (orthogonal)."""
    return Pvm(
        [polarization_projector(theta), polarization_projector(theta + np.pi / 2.0)],
        [1.0, -1.0],
    )


def entangled_pair_state() -> DensityOperator:
    """Maximally entangled two-photon state (|HH> + |VV>)/sqrt(2).

    Its polarization correlation between analyzers at theta1 and theta2 is
    cos 2(theta1 - theta2), the standard photon-cascade choice.
    """
    return pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
