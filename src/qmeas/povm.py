"""Generalized observables: validated POVMs and outcome grids.

A POVM is an ordered list of positive effects resolving the identity.  An
outcome grid indexes effects by a tuple of detector outcomes, one per named
axis ("+" detection, "-" no detection): a plain `Povm` (one axis), the
which-way 2x2 grid (`BivariatePovm`) and the two-photon 2x2x2x2 grid
(`QuadrivariatePovm`) are the same N-axis `OutcomeGrid`, each storing its
effects once as a read-only stack and accepting one as input.  Flattening a
grid row-major gives a POVM, and `marginal(grid, keep)` sums out every axis
not kept.
Validation is eager so invalid effect lists cannot be represented; the one
exception, the private `OutcomeGrid._derived`, wraps a copy of a stack that
is a POVM by construction (a flattening or a product of validated grids).
"""

import math
from itertools import takewhile

import numpy as np

from .operators import (
    HERMITICITY_TOL,
    DimensionMismatchError,
    Operator,
    ValidationError,
    _EYES,
    _capped,
    _checked_matrices,
    _hermiticity_residual,
    _require_dim,
    _require_tol,
    _require_type,
    _trusted,
    herm_eig,
)

__all__ = [
    "BivariatePovm",
    "OutcomeDistribution",
    "OutcomeGrid",
    "Povm",
    "PovmValidationError",
    "QuadrivariatePovm",
    "distribution",
    "is_pvm",
    "marginal",
    "marginal_pair",
    "validate_povm",
]

class PovmValidationError(ValidationError):
    """Effect list fails positivity, closure or dimension requirements."""


def _check_effects(effects, tol: float):
    """Shared POVM axioms check over a sequence of Operator effects; returns their read-only stack.

    Raises DimensionMismatchError for a first effect outside dimensions 2..16,
    then, effect by effect, PovmValidationError naming the offending effect
    index and the numerical residual.
    """
    effects = tuple(effects)
    if not effects:
        raise PovmValidationError("POVM needs at least one effect")
    if not isinstance(effects[0], Operator):
        raise PovmValidationError("effect 0 is not an Operator")
    dim = effects[0].dim
    _require_dim(dim, "POVM")
    checkable = takewhile(lambda e: isinstance(e, Operator) and e.dim == dim, effects)
    stack = np.array([e.mat for e in checkable])
    herms = _hermiticity_residual(stack)  # up to the first effect of another kind or dimension
    for k, e in enumerate(effects):
        if not isinstance(e, Operator):
            raise PovmValidationError(f"effect {k} is not an Operator")
        if e.dim != dim:
            raise DimensionMismatchError(f"effect {k} has dimension {e.dim}, expected {dim}")
        if herms[k] > tol:
            raise PovmValidationError(f"effect {k} is not Hermitian (residual {herms[k]:.3e})")
        low = herm_eig(e, tol=tol).eigenvalues[0]
        if low < -tol:
            raise PovmValidationError(
                f"effect {k} is not positive semidefinite (min eigenvalue {low:.3e})"
            )
    with np.errstate(over="ignore", invalid="ignore"):  # huge effects may sum to inf
        closure = _capped(np.abs(stack.sum(axis=0) - _EYES[dim]).max())
    if closure > tol:
        raise PovmValidationError(f"effects do not sum to identity (closure residual {closure:.3e})")
    stack.flags.writeable = False
    return stack


def _row_major(cells, depth: int):
    """Row-major cells of a nested sequence `depth` levels deep, and its
    shape (None when sub-sequences of one level differ in length)."""
    if depth == 0:
        return [cells], ()
    parts = [_row_major(c, depth - 1) for c in cells]
    shapes = {shape for _, shape in parts}
    shape = (len(parts), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None
    return [e for flat, _ in parts for e in flat], shape


class OutcomeGrid:
    """Effects indexed by one outcome per named axis (class attribute AXES),
    stacked read-only as (*shape, dim, dim); the row-major cells must form a
    valid POVM.  Cells are nested Operator sequences, one level per axis, or
    a numeric (*shape, dim, dim) ndarray, whose cells are checked as
    Operators are.  Missing labels default to "+", "-" on axes of length <= 2."""

    __slots__ = ("grid", "axis_labels")
    AXES = ()

    def __init__(self, cells, axis_labels=None):
        self._build(cells, axis_labels, HERMITICITY_TOL, "label lengths must match the grid shape")

    def _build(self, cells, axis_labels, tol: float, label_error: str):
        """The one constructor body of every grid, `Povm` included."""
        depth = len(self.AXES)
        if isinstance(cells, np.ndarray) and cells.dtype != object:
            shape = cells.shape[:depth]
            stack = cells.reshape(math.prod(shape), *cells.shape[depth:])
            flat = [_trusted(m) for m in _checked_matrices(stack, lead=1)] if len(stack) else ()
        else:
            flat, shape = _row_major(cells, depth)
        stack = _check_effects(flat, tol)
        if shape is None:
            raise PovmValidationError("grid rows must have uniform length")
        self._label(stack.reshape(*shape, *stack.shape[1:]), axis_labels, label_error)

    def _label(self, grid: np.ndarray, axis_labels, label_error: str):
        """Keep `grid` and its axis labels, defaulted from its shape."""
        self.grid = grid
        shape = self.shape
        if axis_labels is None:
            axis_labels = [("+", "-")[:n] if n <= 2 else range(n) for n in shape]
        self.axis_labels = tuple(tuple(str(x) for x in ax) for ax in axis_labels)
        if tuple(len(ax) for ax in self.axis_labels) != shape:
            raise PovmValidationError(label_error)

    @classmethod
    def _derived(cls, stack: np.ndarray, axis_labels=None) -> "OutcomeGrid":
        """Unchecked grid over a (*shape, dim, dim) complex128 stack that is a
        POVM by construction, e.g. per-cell products of validated grids; it
        keeps a read-only copy, labelled as the validated route would."""
        grid = cls.__new__(cls)
        stack = stack.copy()
        stack.flags.writeable = False
        grid._label(stack, axis_labels, "label lengths must match the grid shape")
        return grid

    @property
    def shape(self) -> tuple:
        return self.grid.shape[:-2]

    @property
    def dim(self) -> int:
        return self.grid.shape[-1]

    def effect(self, *idx) -> Operator:
        return Operator(self.grid[idx])

    def flatten(self) -> "Povm":
        labels = [
            ",".join(ax[k] for ax, k in zip(self.axis_labels, idx)) for idx in np.ndindex(self.shape)
        ]
        return Povm._derived(self.grid.reshape(-1, self.dim, self.dim), (labels,))

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape}, dim={self.dim})"


class Povm(OutcomeGrid):
    """Ordered list of positive effects summing to identity: the one-axis
    outcome grid, with outcome labels "0".."k-1" unless given."""

    __slots__ = ()
    AXES = ("outcome",)

    def __init__(self, effects, outcome_labels=None, tol: float = HERMITICITY_TOL):
        _require_tol(tol)
        if not isinstance(effects, np.ndarray):
            effects = tuple(effects)
        labels = range(len(effects)) if outcome_labels is None else outcome_labels
        self._build(effects, (labels,), tol, "outcome_labels length must match effects")

    @classmethod
    def from_pvm(cls, pvm: "Povm") -> "Povm":
        return Povm(pvm.grid, pvm.outcome_labels)  # not `cls`: `Pvm` inherits this

    @property
    def effects(self) -> tuple:
        return tuple(Operator(e) for e in self.grid)

    @property
    def outcome_labels(self) -> tuple:
        return self.axis_labels[0]

    def __len__(self):
        return len(self.grid)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, outcomes={len(self)})"


def _require_grid(p, what: str):
    """Raise ValidationError unless p is an outcome grid (a Povm, a Pvm or a multi-axis grid)."""
    if not isinstance(p, OutcomeGrid):
        raise ValidationError(f"{what} must be an outcome grid, got {type(p).__name__}")


def validate_povm(effects, outcome_labels=None, tol: float = HERMITICITY_TOL) -> Povm:
    """Check the POVM axioms over an effect list and wrap it as a Povm."""
    return Povm(effects, outcome_labels, tol=tol)


def is_pvm(p: Povm) -> bool:
    """True iff every effect is idempotent within HERMITICITY_TOL: a PVM."""
    _require_grid(p, "p")
    return bool(np.abs(p.grid @ p.grid - p.grid).max() <= HERMITICITY_TOL)


class BivariatePovm(OutcomeGrid):
    """rows x cols grid of effects whose row-major flattening is a valid POVM."""

    __slots__ = ()
    AXES = ("row", "col")

    def __init__(self, grid, row_labels, col_labels):
        super().__init__(grid, (row_labels, col_labels))

    flatten = OutcomeGrid.flatten  # own entry: the bench tracer wraps `flatten` per class

    @property
    def row_labels(self) -> tuple:
        return self.axis_labels[0]

    @property
    def col_labels(self) -> tuple:
        return self.axis_labels[1]


class QuadrivariatePovm(OutcomeGrid):
    """2x2x2x2 grid of effects on the two-photon space, axes (m1, n1, m2, n2)."""

    __slots__ = ()
    AXES = ("m1", "n1", "m2", "n2")

    def __init__(self, grid, axis_labels=None):
        super().__init__(grid, axis_labels)

    flatten = OutcomeGrid.flatten  # own entry: the bench tracer wraps `flatten` per class


def marginal(grid: OutcomeGrid, keep):
    """Marginal of an outcome grid, summing effects over the axes not kept.

    `keep` is one axis, by name (e.g. "row", "m1") or index, giving a Povm,
    or an ordered pair of distinct axes, giving a BivariatePovm whose rows
    are the first axis of the pair.
    """
    _require_grid(grid, "grid")
    keep = (keep,) if isinstance(keep, (str, int, float, np.number)) else tuple(keep)
    axes = []
    for a in keep:
        k = grid.AXES.index(a) if a in grid.AXES else a
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < len(grid.AXES):
            raise ValidationError(f"unknown axis {a!r}, expected one of {grid.AXES} or an index")
        axes.append(int(k))
    repeats = [a for i, a in enumerate(keep) if axes[i] in axes[:i]]
    if repeats:
        raise ValidationError(f"marginal axes must be distinct, got {repeats[0]!r} twice")
    if len(axes) not in (1, 2):
        raise ValidationError(f"keep one axis or a pair of axes, got {len(axes)}")
    summed = grid.grid.sum(axis=tuple(k for k in range(len(grid.AXES)) if k not in axes))
    order = sorted(axes)  # the axes `sum` leaves, in ascending order
    summed = summed.transpose([order.index(k) for k in axes] + [len(axes), len(axes) + 1])
    labels = [grid.axis_labels[k] for k in axes]
    if len(axes) == 1:
        return Povm(summed, labels[0])
    return BivariatePovm(summed, *labels)


def marginal_pair(q: QuadrivariatePovm, axis_i, axis_j) -> BivariatePovm:
    """Bivariate marginal keeping two distinct axes (rows = axis_i, cols = axis_j)."""
    return marginal(q, (axis_i, axis_j))


class OutcomeDistribution:
    """Probability array matching a POVM's outcome shape.

    Raw expectation values are stored as computed; small negative round-off
    (>= -HERMITICITY_TOL) is legal here and only clamped in display paths.
    """

    __slots__ = ("probabilities",)

    def __init__(self, probabilities):
        arr = np.array(probabilities, dtype=np.float64)
        if arr.size == 0:
            raise ValidationError("distribution needs at least one outcome")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probabilities must be finite (no NaN/Inf)")
        if arr.min() < -HERMITICITY_TOL:
            raise ValidationError(f"probability {arr.min():.3e} below -{HERMITICITY_TOL:.0e}")
        with np.errstate(over="ignore"):  # entries near the float maximum may sum past it
            total = _capped(arr.sum())
        if abs(total - 1.0) > HERMITICITY_TOL:
            raise ValidationError(f"probabilities sum to {total:.12g}, expected 1")
        arr.flags.writeable = False
        self.probabilities = arr

    def __repr__(self):
        return f"OutcomeDistribution(shape={self.probabilities.shape})"


def _expectations(rho: Operator, stack: np.ndarray, e: int = 0) -> np.ndarray:
    """The Born rule: Tr(rho X) for every X of a (..., d, d) stack, shaped
    like the stack's leading axes; each imaginary residue, times 2^e for a
    stack scaled by 2^-e, must stay below HERMITICITY_TOL."""
    _require_type(rho, "rho")
    if rho.dim != stack.shape[-1]:
        raise DimensionMismatchError(f"state dim {rho.dim} vs operator dim {stack.shape[-1]}")
    vals = np.trace(rho.mat @ stack, axis1=-2, axis2=-1)
    with np.errstate(over="ignore"):  # a residue beyond the float range reads as inf
        residues = np.ldexp(vals.imag, e)
    bad = np.flatnonzero(np.abs(residues) >= HERMITICITY_TOL)
    if bad.size:
        raise ValidationError(f"expectation has imaginary residue {residues.flat[bad[0]]:.3e}")
    return vals.real


def distribution(rho: Operator, p) -> OutcomeDistribution:
    """Outcome probabilities Tr(rho E) of a density operator for a Povm (a
    Pvm included) or any other outcome grid, shaped like the grid: flat for a Povm."""
    _require_grid(p, "p")
    return OutcomeDistribution(_expectations(rho, p.grid))
