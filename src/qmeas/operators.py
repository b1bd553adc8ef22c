"""Dense complex linear algebra for small Hilbert spaces (dimensions 2..16).

`Operator` is the checked matrix that users pass in; everything inside is
plain numpy on complex128 arrays.  The Hermitian eigensolver is a cyclic
Jacobi iteration, which at these dimensions is simple, robust and dependency-free.

Index convention for composite systems: the joint index is
``first * dim_second + second`` (row-major over factors), i.e. the first
factor is the slow index.  The partial trace relies on this bit-exactly.
"""

import math
import numbers
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
    """Immutable dense complex matrix, checked square and finite.

    The entries are copied on construction and marked read-only, so instances
    are safe to share and reuse.  Arithmetic is numpy's, on `.mat`.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries):
        self._mat = _checked_matrices(entries)

    @property
    def mat(self) -> np.ndarray:
        """Read-only (dim, dim) complex128 view of the entries."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def _is_number(x) -> bool:
    """True for a bool, int, float, complex, Fraction or numeric numpy scalar."""
    return isinstance(x, (numbers.Number, np.bool_)) and not isinstance(x, np.timedelta64)


def _checked_matrices(entries, lead: int = 0) -> np.ndarray:
    """A read-only complex128 copy of `entries` whose axes after the first
    `lead` form one square matrix, every entry a finite number: `Operator`'s checks."""
    try:
        raw = np.asarray(entries)
        kind = raw.dtype.kind
        if kind not in "biufc" and not (kind == "O" and all(map(_is_number, raw.flat))):
            raise TypeError  # strings, bytes, dates and times, or an object that is not a number
        mats = np.array(raw, dtype=np.complex128)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError("operator entries must be finite (no NaN/Inf)") from None
    except (TypeError, ValueError):  # ragged rows, or an entry that is not a number
        raise ValidationError("operator entries must be an array of numbers") from None
    if mats.ndim != lead + 2 or mats.shape[-2] != mats.shape[-1]:
        raise ValidationError(f"operator entries must be square, got shape {mats.shape[lead:]}")
    if not np.isfinite(mats).all():
        raise ValidationError("operator entries must be finite (no NaN/Inf)")
    mats.flags.writeable = False
    return mats


_EYES = {n: _checked_matrices(np.eye(n)) for n in range(2, 17)}  # read-only identities, d in 2..16


def _trusted(mat: np.ndarray) -> Operator:
    """An Operator over `mat` itself, a read-only matrix already checked square and finite."""
    op = Operator.__new__(Operator)
    op._mat = mat
    return op


def _capped(r: float) -> float:
    """r, or the largest float where r is inf or NaN: a residual that fails
    every tolerance and still prints as a finite number."""
    return float(r) if math.isfinite(r) else _FLOAT_MAX


def _hermiticity_residual(mat: np.ndarray, half=None):
    """max |m - m^H| of a matrix, or of each in a stack, capped at the largest float; taken
    from halves (`half`, or m / 2, exact for normal floats) so that no difference overflows."""
    half = 0.5 * mat if half is None else half
    with np.errstate(over="ignore"):  # the modulus, or twice it, may exceed the float range
        return np.fmin(2.0 * np.abs(half - half.conj().swapaxes(-1, -2)).max(axis=(-2, -1)), _FLOAT_MAX)


def _require_int(n, what: str, error=ValidationError, minimum=None):
    """Raise `error` unless n is an int or numpy integer, not a bool, and at least `minimum` if given."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise error(f"{what} must be an integer, got {n!r}")
    if minimum is not None and n < minimum:
        raise error(f"{what} must be >= {minimum}, got {n}")


def _require_type(x, what: str, kind: type = Operator):
    """Raise ValidationError unless x is a `kind`: by default an Operator, a DensityOperator included."""
    if not isinstance(x, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{what} must be {article} {kind.__name__}, got {type(x).__name__}")


def _require_dim(dim: int, what: str):
    """Raise DimensionMismatchError unless dim is an integer in 2..16."""
    _require_int(dim, f"{what} dimension", DimensionMismatchError)
    if not 2 <= dim <= 16:
        raise DimensionMismatchError(f"{what} dimension {dim} outside 2..16")


def _require_tol(tol: float):
    """Raise ValidationError unless 0 <= tol < inf (NaN or inf passes every residual)."""
    if not 0.0 <= tol < math.inf:
        raise ValidationError("tol must be finite and >= 0")


def identity(dim: int) -> Operator:
    _require_dim(dim, "identity")
    return Operator(np.eye(dim, dtype=np.complex128))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with `a` as the slow (left) index."""
    _require_type(a, "a")
    _require_type(b, "b")
    return Operator(np.kron(a.mat, b.mat))


def partial_trace_second(m: Operator, dim_first: int, dim_second: int) -> Operator:
    """Trace out the second tensor factor: result[i,j] = sum_k m[i*d2+k, j*d2+k]."""
    _require_type(m, "m")
    _require_int(dim_first, "dim_first", DimensionMismatchError, minimum=1)
    _require_int(dim_second, "dim_second", DimensionMismatchError, minimum=1)
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


def _require_hermitian(m: Operator, tol: float, what: str) -> np.ndarray:
    """The checked matrix symmetrized, (m + m^H) / 2, halving each term first
    so that entries near the float64 maximum do not overflow."""
    half = 0.5 * m.mat
    residual = _hermiticity_residual(m.mat, half)
    if residual > tol:
        raise ValidationError(f"{what} must be Hermitian (residual {residual:.3e} > {tol:.0e})")
    return half + half.conj().T


def herm_eig(m: Operator, tol: float = HERMITICITY_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian operator by cyclic Jacobi rotations.

    Each rotation zeroes one off-diagonal pair via a complex plane rotation;
    sweeps repeat until the off-diagonal Frobenius norm drops below 1e-12,
    or until a sweep leaves it no lower than the sweep before.  In exact
    arithmetic every rotation lowers it, so that second stop fires only at
    the rounding floor, which lies above 1e-12 once entries reach ~1e4
    (Demmel & Veselic, 1992).  Pairs whose entry is zero or subnormal are
    skipped.  Raises ValidationError for a tol that is not finite and >= 0
    and DimensionMismatchError outside dimensions 2..16, both before any
    sweep, and EigensolverError when `_JACOBI_MAX_SWEEPS`, read at call time,
    runs out before either stop, or when the norm is not finite.
    """
    _require_type(m, "m")
    _require_tol(tol)
    n = m.dim
    _require_dim(n, "eigensolver input")
    a = _require_hermitian(m, tol, "eigensolver input")  # symmetrized before iterating
    eye = _EYES[n]
    v = eye.copy()
    previous = math.inf
    with np.errstate(over="ignore"):  # squares above ~1e154 overflow, as rotations may
        for sweep in range(_JACOBI_MAX_SWEEPS + 1):
            magnitudes = np.abs(a)
            magnitudes.flat[:: n + 1] = 0.0  # the off-diagonal moduli
            norm = math.sqrt(np.add.reduce(np.square(magnitudes), axis=None))
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
                    apq = a[p, q]
                    r = abs(apq)
                    if r < _JACOBI_SKIP_BELOW:
                        continue
                    phase = apq / r
                    # both arguments halved: the same angle, and no overflow near the float maximum
                    t = 0.5 * math.atan2(r, 0.5 * a[p, p].real - 0.5 * a[q, q].real)
                    c, s = math.cos(t), math.sin(t)
                    g = eye.copy()
                    g[p, p] = c
                    g[q, q] = c
                    g[p, q] = -s * phase
                    g[q, p] = s * phase.conjugate()
                    a = g.conj().T @ a @ g
                    v = v @ g
    order = a.diagonal().real.argsort()
    return HermitianEig(eigenvalues=a.diagonal().real[order], eigenvectors=v[:, order].copy())


def exp_hermitian_generator(h: Operator, t: float) -> Operator:
    """Unitary exp(-i h t) from the spectral decomposition of Hermitian h."""
    _require_type(h, "h")
    eig = herm_eig(h)
    with np.errstate(over="ignore", invalid="ignore"):  # eigenvalue * t may pass the float maximum
        phases = np.exp(-1j * eig.eigenvalues * t)
    if not np.all(np.isfinite(phases)):
        raise ValidationError("eigenvalue * time leaves the float range")
    vecs = eig.eigenvectors
    return Operator((vecs * phases) @ vecs.conj().T)
