"""Command-line front end: JSON experiment configs in, CSV/JSON tables out.

Configs carry angles in degrees and complex matrices as nested [re, im]
pairs; unknown fields are rejected so a typo in a physics parameter cannot
silently fall back to a default.  Output is deterministic given the config
(including the sampler seed): identical invocations produce identical
bytes, which is why result tables carry no timestamps.

Exit codes: 0 run completed and the kind's asserted inequalities held,
1 config error, 2 domain error, 3 solver non-convergence.
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from .experiments import (
    CHSH_BOUND_TOL,
    EprBellConfig,
    WhichWayConfig,
    _single_setup_result,
    chsh_pasted_aspect,
    eprbell_povm,
    martens_sweep,
    quadruple_sample_check,
    whichway_povm,
)
from .nonideality import MARTENS_SLACK_TOL, joint_nonideal_decomposition
from .operators import DimensionMismatchError, Operator, SolverError, ValidationError
from .povm import distribution
from .premeasurement import MAX_JOINT_DIM, PremeasurementModel, induced_povm, pointer_consistency
from .states import (DensityOperator, Pvm, entangled_pair_state, maximally_mixed,
                     polarization_pvm, pure_state)

__all__ = ["ConfigError", "ExperimentConfig", "ResultTable", "emit", "main", "parse_config", "run"]

CONSISTENCY_TOL = 1e-9

# Documented limits, checked at parse time so that no config field can make a run
# allocate or compute without bound.  `sample_counts` works in fixed-size blocks,
# so n_samples bounds the run time (seconds at the limit), not the memory.
MAX_SAMPLES = 100_000_000
MAX_POINTS = 100_000


class ConfigError(ValueError):
    """Configuration text is malformed or out of range; message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: object
    raw: dict


@dataclass(frozen=True)
class ResultTable:
    columns: tuple
    rows: tuple
    metadata: dict


@dataclass(frozen=True)
class Kind:
    """One config kind: the fields it accepts besides `kind`, `build(raw) -> params`,
    `run(params, tol) -> rows`, the CSV columns of those rows, and the default
    tolerance of the inequality the run asserts (None: it asserts none)."""

    fields: frozenset
    build: Callable
    run: Callable
    columns: tuple
    tol: float = None


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _finite(value, path: str) -> float:
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    _fail(path, "expected a finite number")


def _number(raw: dict, key: str, default=None) -> float:
    if key not in raw and default is None:
        _fail(key, "required field missing")
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, f"expected a number, got {type(value).__name__}")
    return _finite(value, key)


def _integer(raw: dict, key: str, default=None, minimum=None, maximum=None) -> int:
    if key not in raw and default is None:
        _fail(key, "required field missing")
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(key, f"must be <= {maximum}, got {value}")
    return int(value)


def _gamma(raw: dict, key: str) -> float:
    value = _number(raw, key)
    if not 0.0 <= value <= 1.0:
        _fail(key, f"must lie in [0, 1], got {value:g}")
    return value


def _complex_entry(value, path: str) -> complex:
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    if not pair or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value):
        _fail(path, "complex entries are [re, im] number pairs")
    return complex(_finite(value[0], path), _finite(value[1], path))


def _matrix(value, path: str, dim: int = None, dim_key: str = None) -> np.ndarray:
    """The square matrix at `path`; with `dim`, it must be dim x dim (the field `dim_key`)."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            _fail(f"{path}[{i}]", "matrix must be square, rows of [re, im] pairs")
        rows.append([_complex_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    if dim is not None and len(rows) != dim:
        _fail(path, f"dimension {len(rows)} != {dim_key} {dim}")
    return np.array(rows)


@contextmanager
def _operator_errors(path: str):
    """Report an operator the domain layer rejects as a config error at `path`."""
    try:
        yield
    except (ValidationError, DimensionMismatchError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _state(raw: dict, dim: int, default: Callable) -> DensityOperator:
    if "state" not in raw:
        return default()
    value = raw["state"]
    if not isinstance(value, list) or not value:
        _fail("state", "expected a nonempty list of [re, im] pairs")
    vec = np.array([_complex_entry(v, f"state[{k}]") for k, v in enumerate(value)])
    if len(vec) != dim:
        _fail("state", f"state vector must have {dim} entries, got {len(vec)}")
    with _operator_errors("state"):
        return pure_state(vec)


def _angle(raw: dict, key: str, default=None) -> float:
    """A `*_deg` field, in radians."""
    return float(np.deg2rad(_number(raw, key, default)))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a UTF-8 JSON experiment configuration."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise ConfigError(f"config: malformed JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    if "kind" not in raw:
        raise ConfigError("kind: required field missing")
    kind = raw["kind"]
    if not isinstance(kind, str):
        _fail("kind", f"expected a string, got {type(kind).__name__}")
    if kind not in KINDS:
        raise ConfigError(f"kind: unknown kind {kind!r}, expected one of {', '.join(KINDS)}")
    spec = KINDS[kind]
    unknown = sorted(set(raw) - spec.fields - {"kind"})
    if unknown:
        _fail(unknown[0], "unknown field")
    return ExperimentConfig(kind=kind, params=spec.build(raw), raw=raw)


# -- the kinds.  A builder reads fields in a fixed order, so the first bad field
# is the one reported; a runner turns the parameters into result rows. ----------

_ARM_ANGLES = ("theta1_deg", "theta1_prime_deg", "theta2_deg", "theta2_prime_deg")
_QUAD_OUTCOMES = ["".join(w) for w in product("pm", repeat=4)]


def _build_whichway(raw: dict) -> SimpleNamespace:
    angles = _angle(raw, "theta_deg"), _angle(raw, "theta_prime_deg")
    config = WhichWayConfig(*angles, _gamma(raw, "gamma"))
    return SimpleNamespace(config=config, state=_state(raw, 2, lambda: pure_state([1.0, 0.0])))


def _run_whichway(p, tol) -> list:
    grid = whichway_povm(p.config)
    probs = distribution(p.state, grid).probabilities
    targets = (polarization_pvm(t) for t in (p.config.theta, p.config.theta_prime))
    lam, mu = joint_nonideal_decomposition(grid, *targets)
    row = [*probs.reshape(-1), *lam.lam.reshape(-1), *mu.lam.reshape(-1), lam.residual, mu.residual]
    return [row]


def _build_sweep(raw: dict) -> SimpleNamespace:
    return SimpleNamespace(
        theta=_angle(raw, "theta_deg", default=0.0),
        theta_prime=_angle(raw, "theta_prime_deg", default=45.0),
        n_points=_integer(raw, "n_points", default=101, minimum=2, maximum=MAX_POINTS),
    )


def _run_sweep(p, tol) -> list:
    points = martens_sweep(p.theta, p.theta_prime, p.n_points)
    worst = min(pt.slack for pt in points)
    if worst < -tol:
        raise ValidationError(f"sweep slack {worst:.3e} below {-tol:.0e}")
    return [(pt.gamma, pt.j_lambda, pt.j_mu, pt.bound, pt.slack) for pt in points]


def _build_eprbell(raw: dict) -> SimpleNamespace:
    t1, t1p, t2, t2p = (_angle(raw, key) for key in _ARM_ANGLES)
    config = EprBellConfig(
        arm1=WhichWayConfig(t1, t1p, _gamma(raw, "gamma1")),
        arm2=WhichWayConfig(t2, t2p, _gamma(raw, "gamma2")),
    )
    return SimpleNamespace(config=config, state=_state(raw, 4, entangled_pair_state))


def _run_eprbell(p, tol) -> list:
    probs = distribution(p.state, eprbell_povm(p.config)).probabilities
    result = _single_setup_result(probs)
    s = result.s_value
    if abs(s) > 2.0 + tol:
        raise ValidationError(f"single-setup CHSH {s:.12g} exceeds the classical bound 2")
    return [[*probs.reshape(-1), *result.correlations, s]]


def _build_pasted(raw: dict) -> SimpleNamespace:
    angles = [_angle(raw, key) for key in _ARM_ANGLES]
    return SimpleNamespace(angles=angles, state=_state(raw, 4, entangled_pair_state))


def _run_pasted(p, tol) -> list:
    result = chsh_pasted_aspect(p.state, *p.angles)
    return [[*result.correlations, result.s_value, float(result.violates)]]


def _build_premeasure(raw: dict) -> SimpleNamespace:
    dim_o = _integer(raw, "dim_object", minimum=2)
    dim_a = _integer(raw, "dim_apparatus", minimum=2)
    if dim_o * dim_a > MAX_JOINT_DIM:
        _fail("dim_apparatus", f"dim_object * dim_apparatus must be <= {MAX_JOINT_DIM}, "
              f"got {dim_o * dim_a}")
    if ("unitary" in raw) == ("hamiltonian" in raw):
        _fail("unitary", "provide exactly one of 'unitary' or 'hamiltonian'+'time'")
    if "time" in raw and "unitary" in raw:
        _fail("time", "only with 'hamiltonian'")
    if "rho_apparatus" not in raw:
        _fail("rho_apparatus", "required field missing")
    projectors = raw.get("pointer")
    if not isinstance(projectors, list) or not projectors:
        _fail("pointer", "required nonempty list of projector matrices")
    # each size is compared with its declared dimension before any eigensolve
    rho_a = _matrix(raw["rho_apparatus"], "rho_apparatus", dim_a, "dim_apparatus")
    rho_o = _matrix(raw["rho_object"], "rho_object", dim_o, "dim_object") if "rho_object" in raw else None
    with _operator_errors("pointer"):
        projectors = [Operator(_matrix(p, f"pointer[{k}]")) for k, p in enumerate(projectors)]
        pointer = Pvm(projectors, labels=range(len(projectors)))
    if pointer.dim != dim_a:
        _fail("pointer", f"dimension {pointer.dim} != dim_apparatus {dim_a}")
    with _operator_errors("rho_apparatus"):
        rho_a = DensityOperator(rho_a)
    with _operator_errors("unitary"):
        if "unitary" in raw:
            unitary = Operator(_matrix(raw["unitary"], "unitary"))
            model = PremeasurementModel(rho_a, unitary, pointer, dim_o, dim_a)
        else:
            if "time" not in raw:
                _fail("time", "required with 'hamiltonian'")
            hamiltonian = Operator(_matrix(raw["hamiltonian"], "hamiltonian"))
            model = PremeasurementModel.from_generator(
                hamiltonian, _number(raw, "time"), rho_a, pointer, dim_o, dim_a
            )
    if rho_o is None:
        return SimpleNamespace(model=model, rho_object=maximally_mixed(dim_o))
    with _operator_errors("rho_object"):
        return SimpleNamespace(model=model, rho_object=DensityOperator(rho_o))


def _run_premeasure(p, tol) -> list:
    povm = induced_povm(p.model)
    residual = pointer_consistency(p.rho_object, p.model)
    if residual >= tol:
        raise ValidationError(f"pointer consistency residual {residual:.3e} >= {tol:.0e}")
    return [
        (float(k), float(i), float(j), entry.real, entry.imag, residual)
        for k, effect in enumerate(povm.grid)
        for (i, j), entry in np.ndenumerate(effect)
    ]


def _build_sample(raw: dict) -> SimpleNamespace:
    params = _build_eprbell(raw)
    params.n_samples = _integer(raw, "n_samples", minimum=1, maximum=MAX_SAMPLES)
    params.seed = _integer(raw, "seed")
    return params


def _run_sample(p, tol) -> list:
    check = quadruple_sample_check(p.state, p.config, p.n_samples, p.seed)
    return [[*(float(c) for c in check.counts.reshape(-1)), check.tv_distance]]


_EPRBELL_FIELDS = frozenset({*_ARM_ANGLES, "gamma1", "gamma2", "state"})

KINDS = {
    "whichway": Kind(
        frozenset({"theta_deg", "theta_prime_deg", "gamma", "state"}),
        _build_whichway, _run_whichway,
        tuple(f"{name}_{w}" for name in ("p", "lambda", "mu") for w in ("pp", "pm", "mp", "mm"))
        + ("lambda_residual", "mu_residual"),
    ),
    "martens-sweep": Kind(
        frozenset({"theta_deg", "theta_prime_deg", "n_points"}), _build_sweep, _run_sweep,
        ("gamma", "j_lambda", "j_mu", "bound", "slack"), MARTENS_SLACK_TOL,
    ),
    "epr-bell": Kind(
        _EPRBELL_FIELDS, _build_eprbell, _run_eprbell,
        tuple(f"p_{w}" for w in _QUAD_OUTCOMES)
        + ("E_m1m2", "E_m1n2", "E_n1m2", "E_n1n2", "s_value"), CHSH_BOUND_TOL,
    ),
    "chsh-pasted": Kind(
        frozenset({*_ARM_ANGLES, "state"}), _build_pasted, _run_pasted,
        ("E_ab", "E_abp", "E_apb", "E_apbp", "s_value", "violates"),
    ),
    "premeasure": Kind(
        frozenset({"dim_object", "dim_apparatus", "unitary", "hamiltonian", "time",
                   "rho_apparatus", "pointer", "rho_object"}),
        _build_premeasure, _run_premeasure,
        ("effect", "row", "col", "re", "im", "consistency_residual"), CONSISTENCY_TOL,
    ),
    "sample": Kind(
        _EPRBELL_FIELDS | {"n_samples", "seed"}, _build_sample, _run_sample,
        tuple(f"count_{w}" for w in _QUAD_OUTCOMES) + ("tv_distance",),
    ),
}


def run(config: ExperimentConfig, tol: float = None) -> ResultTable:
    """Execute a parsed config and return its result table.

    `tol` must be finite; it overrides `Kind.tol` of the kind's asserted inequality
    (sweep slack, single-setup CHSH bound, pointer consistency), and no other kind takes it.
    """
    kind = KINDS[config.kind]
    tol = kind.tol if tol is None else _finite(tol, "--tol")
    if tol is not None and kind.tol is None:
        _fail("--tol", f"kind {config.kind} asserts no inequality")
    rows = kind.run(config.params, tol)
    metadata = {"kind": config.kind, "version": __version__, "config": config.raw}
    return ResultTable(columns=kind.columns, rows=tuple(tuple(r) for r in rows), metadata=metadata)


def render_csv(table: ResultTable) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format(float(v), ".12g") for v in row))
    return "\n".join(lines) + "\n"


def render_json(table: ResultTable) -> str:
    payload = {
        "metadata": table.metadata,
        "columns": {
            name: [float(row[k]) for row in table.rows] for k, name in enumerate(table.columns)
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def emit(table: ResultTable, fmt: str, path=None):
    """Write the table as CSV (12 significant digits, LF endings) or JSON."""
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValidationError(f'format must be "csv" or "json", got {fmt!r}')
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output to {path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """A bad command line is a config error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmeas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="execute an experiment config")
    run_cmd.add_argument("--config", required=True, help="path to a JSON config")
    run_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    run_cmd.add_argument("--out", default=None, help="output path (default stdout)")
    run_cmd.add_argument(
        "--tol", type=float, default=None, help="override the kind's assertion tolerance"
    )
    val_cmd = sub.add_parser("validate", help="check a config without running it")
    val_cmd.add_argument("--config", required=True, help="path to a JSON config")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        config = parse_config(text)
        if args.command == "validate":
            sys.stdout.write(f"ok: {config.kind}\n")
            return 0
        table = run(config, tol=args.tol)
        emit(table, args.format, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:  # recovery or eigensolver non-convergence
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, DimensionMismatchError, RuntimeError, OSError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
