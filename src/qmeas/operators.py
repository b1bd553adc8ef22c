"""Dense complex linear algebra for small Hilbert spaces (dimensions 2..16).

`Operator` is the single carrier type for states, effects, observables and
unitaries used throughout the toolkit.  Everything is plain numpy on
complex128 matrices; the Hermitian eigensolver is a cyclic Jacobi iteration,
which at these dimensions is simple, robust and dependency-free.

Index convention for composite systems: the joint index is
``first * dim_second + second`` (row-major over factors), i.e. the first
factor is the slow index.  The partial trace relies on this bit-exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "EigensolverError",
    "HermitianEig",
    "Operator",
    "SolverError",
    "ValidationError",
    "exp_hermitian_generator",
    "herm_eig",
    "identity",
    "partial_trace_second",
    "tensor_product",
]

HERMITICITY_TOL = 1e-9

_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100
# Entries below the smallest normal float are skipped: dividing by their
# subnormal modulus overflows the rotation's phase to Inf/NaN.
_JACOBI_SKIP_BELOW = np.finfo(np.float64).tiny
_FLOAT_MAX = float(np.finfo(np.float64).max)


class ValidationError(ValueError):
    """An input violates a structural precondition (hermiticity, positivity, ...)."""


class DimensionMismatchError(ValueError):
    """Operands live on incompatible Hilbert-space dimensions."""


class SolverError(RuntimeError):
    """An iterative solver stopped without converging; the CLI exits 3."""


class EigensolverError(SolverError):
    """Jacobi hit its sweep cap or went non-finite, or a density operator's `eigh` failed."""


class Operator:
    """Immutable dense complex square matrix.

    The backing array is copied on construction and marked read-only, so
    instances are safe to share between threads and reuse across results.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries):
        mat = np.array(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"operator entries must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("operator entries must be finite (no NaN/Inf)")
        mat.flags.writeable = False
        self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        """Read-only (dim, dim) complex128 view of the entries."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def adjoint(self) -> "Operator":
        """Conjugate transpose."""
        return Operator(self._mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self._mat))

    def is_hermitian(self) -> bool:
        return _hermiticity_residual(self._mat) <= HERMITICITY_TOL

    def _require_same_dim(self, other: "Operator"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_dim(other)
        return Operator(self._mat + other._mat)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_dim(other)
        return Operator(self._mat - other._mat)

    def __neg__(self):
        return Operator(-self._mat)

    def __mul__(self, scalar):
        if isinstance(scalar, Operator):
            raise TypeError("use @ for operator products, * is scalar-only")
        return Operator(self._mat * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_dim(other)
        return Operator(self._mat @ other._mat)

    def __repr__(self):
        return f"Operator(dim={self.dim})"


def _capped(r: float) -> float:
    """r, or the largest float where r is inf or NaN: a residual that fails
    every tolerance and still prints as a finite number."""
    return float(r) if math.isfinite(r) else _FLOAT_MAX


def _hermiticity_residual(mat: np.ndarray) -> float:
    """max |m - m^H|, from halves of the entries so that no difference of
    finite entries overflows; halving is exact for normal floats."""
    half = 0.5 * mat
    with np.errstate(over="ignore"):  # the modulus, or twice it, may exceed the float range
        return _capped(2.0 * np.abs(half - half.conj().T).max())


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=np.complex128))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with `a` as the slow (left) index."""
    return Operator(np.kron(a.mat, b.mat))


def partial_trace_second(m: Operator, dim_first: int, dim_second: int) -> Operator:
    """Trace out the second tensor factor: result[i,j] = sum_k m[i*d2+k, j*d2+k]."""
    if dim_first * dim_second != m.dim:
        raise DimensionMismatchError(
            f"cannot split dimension {m.dim} as {dim_first} x {dim_second}"
        )
    blocks = m.mat.reshape(dim_first, dim_second, dim_first, dim_second)
    return Operator(np.einsum("ikjk->ij", blocks))


@dataclass(frozen=True)
class HermitianEig:
    """Spectral data of a Hermitian operator, stored read-only.

    eigenvalues are real and ascending; eigenvectors[:, k] is the unit
    eigenvector belonging to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False


def _require_hermitian(m: Operator, tol: float, what: str):
    residual = _hermiticity_residual(m.mat)
    if residual > tol:
        raise ValidationError(f"{what} must be Hermitian (residual {residual:.3e} > {tol:.0e})")


def _symmetrized(m: Operator) -> np.ndarray:
    """(m + m^H) / 2, halving each term first so that entries near the
    float64 maximum do not overflow; halving is exact for normal entries."""
    half = 0.5 * m.mat
    return half + half.conj().T


def herm_eig(m: Operator, tol: float = HERMITICITY_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian operator by cyclic Jacobi rotations.

    Each rotation zeroes one off-diagonal pair via a complex plane rotation;
    sweeps repeat until the off-diagonal Frobenius norm drops below 1e-12,
    or until a sweep leaves it no lower than the sweep before.  In exact
    arithmetic every rotation lowers it, so that second stop fires only at
    the rounding floor, which lies above 1e-12 once entries reach ~1e4
    (Demmel & Veselic, 1992).  Pairs whose entry is zero or subnormal are
    skipped.  Raises EigensolverError when `_JACOBI_MAX_SWEEPS`, read at
    call time, runs out before either stop, or when the norm is not finite.
    """
    _require_hermitian(m, tol, "eigensolver input")
    n = m.dim
    a = _symmetrized(m)  # symmetrize round-off before iterating
    eye = np.eye(n, dtype=np.complex128)
    v = eye.copy()
    previous = math.inf
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        magnitudes = np.abs(off)
        with np.errstate(over="ignore"):  # squares overflow above ~1e154; hypot does not
            norm = math.sqrt((magnitudes**2).sum())
        if norm == math.inf:
            norm = math.hypot(*magnitudes.ravel())
        if not math.isfinite(norm):  # an entry overflowed: no rotation recovers it
            raise EigensolverError(f"Jacobi eigensolver overflowed after {sweep} sweeps")
        if norm < _JACOBI_OFF_TOL or norm >= previous:
            break
        if sweep == _JACOBI_MAX_SWEEPS:
            raise EigensolverError(
                f"Jacobi eigensolver did not converge within {sweep} sweeps "
                f"(off-diagonal norm {norm:.3e})"
            )
        previous = norm
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r < _JACOBI_SKIP_BELOW:
                    continue
                phase = a[p, q] / r
                t = 0.5 * math.atan2(2.0 * r, a[p, p].real - a[q, q].real)
                c, s = math.cos(t), math.sin(t)
                g = eye.copy()
                g[p, p] = c
                g[q, q] = c
                g[p, q] = -s * phase
                g[q, p] = s * np.conj(phase)
                a = g.conj().T @ a @ g
                v = v @ g
    order = np.argsort(a.diagonal().real)
    eigenvalues = a.diagonal().real[order].copy()
    eigenvectors = v[:, order].copy()
    return HermitianEig(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def exp_hermitian_generator(h: Operator, t: float) -> Operator:
    """Unitary exp(-i h t) from the spectral decomposition of Hermitian h."""
    eig = herm_eig(h)
    phases = np.exp(-1j * eig.eigenvalues * t)
    vecs = eig.eigenvectors
    return Operator((vecs * phases) @ vecs.conj().T)
