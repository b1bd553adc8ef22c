import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from helpers import halve_induced_effects

from qmeas import cli, experiments, nonideality, operators, premeasurement
from qmeas.operators import ValidationError
from qmeas.cli import (
    KINDS,
    ConfigError,
    ResultTable,
    emit,
    main,
    parse_config,
    render_csv,
    render_json,
    run,
)

LN2 = math.log(2.0)
ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.json"))
# Stdout digests of the shipped configs, recorded by bench/record_digests.py.
DIGESTS = json.loads((ROOT / "bench" / "cli_digests.json").read_text(encoding="utf-8"))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


WHICHWAY = {"kind": "whichway", "theta_deg": 0, "theta_prime_deg": 45, "gamma": 0.5}
PASTED = {
    "kind": "chsh-pasted",
    "theta1_deg": 0,
    "theta1_prime_deg": 45,
    "theta2_deg": 22.5,
    "theta2_prime_deg": 67.5,
}
CNOT_PREMEASURE = {
    "kind": "premeasure",
    "dim_object": 2,
    "dim_apparatus": 2,
    "unitary": [
        [[1, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [1, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 0]],
    ],
    "rho_apparatus": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "pointer": [
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    ],
    "rho_object": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
}
SAMPLE = {
    "kind": "sample",
    "theta1_deg": 0,
    "theta1_prime_deg": 45,
    "theta2_deg": 22.5,
    "theta2_prime_deg": 67.5,
    "gamma1": 0.5,
    "gamma2": 0.5,
    "n_samples": 20000,
    "seed": 31415,
}


def test_parse_whichway_valid():
    config = parse_config(json.dumps(WHICHWAY))
    assert config.kind == "whichway"
    assert abs(config.params.config.theta_prime - np.pi / 4) < 1e-12


def test_parse_rejects_out_of_range_gamma():
    bad = dict(WHICHWAY, gamma=1.5)
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(json.dumps(bad))


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config(json.dumps({"kind": "teleport"}))


def test_parse_rejects_unknown_field():
    bad = dict(WHICHWAY, gama=0.5)
    with pytest.raises(ConfigError, match="gama"):
        parse_config(json.dumps(bad))


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_parse_rejects_non_unitary_premeasure():
    bad = dict(CNOT_PREMEASURE)
    bad["unitary"] = [
        [[0.5, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [1, 0]],
    ]
    with pytest.raises(ConfigError, match="unitary"):
        parse_config(json.dumps(bad))


def test_parse_sweep_defaults():
    config = parse_config(json.dumps({"kind": "martens-sweep"}))
    assert config.params.n_points == 101
    assert abs(config.params.theta_prime - np.pi / 4) < 1e-12


def test_run_sweep_default_has_boundary_rows():
    table = run(parse_config(json.dumps({"kind": "martens-sweep"})))
    assert len(table.rows) == 101
    first, last = table.rows[0], table.rows[-1]
    cols = dict(zip(table.columns, zip(*table.rows)))
    assert abs(first[1] - LN2) < 1e-6 and abs(first[2]) < 1e-6
    assert abs(last[1]) < 1e-6 and abs(last[2] - LN2) < 1e-6
    assert min(cols["slack"]) >= -1e-6


def test_run_whichway_h_polarized_probabilities():
    table = run(parse_config(json.dumps(WHICHWAY)))
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["p_pp"]) < 1e-12
    assert abs(row["p_pm"] - 0.5) < 1e-12
    assert abs(row["p_mp"] - 0.25) < 1e-12
    assert abs(row["p_mm"] - 0.25) < 1e-12
    assert abs(row["lambda_pp"] - 0.5) < 1e-6
    assert abs(row["mu_mm"] - 1.0) < 1e-6


def test_run_pasted_optimal_angles():
    table = run(parse_config(json.dumps(PASTED)))
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["s_value"] - 2.828427) < 1e-6
    assert row["violates"] == 1.0


def test_run_epr_bell_single_setup_within_bound():
    payload = {
        "kind": "epr-bell",
        "theta1_deg": 0,
        "theta1_prime_deg": 45,
        "theta2_deg": 22.5,
        "theta2_prime_deg": 67.5,
        "gamma1": 0.5,
        "gamma2": 0.5,
    }
    table = run(parse_config(json.dumps(payload)))
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["s_value"]) <= 2.0 + 1e-9
    probs = [v for k, v in row.items() if k.startswith("p_")]
    assert len(probs) == 16
    assert abs(sum(probs) - 1.0) < 1e-9


def test_run_premeasure_cnot():
    table = run(parse_config(json.dumps(CNOT_PREMEASURE)))
    rows = table.rows
    assert table.columns[-1] == "consistency_residual"
    assert all(r[-1] < 1e-9 for r in rows)
    # effect 0 equals |0><0|: entry (0,0) is 1, rest 0
    entries = {(int(r[0]), int(r[1]), int(r[2])): (r[3], r[4]) for r in rows}
    assert abs(entries[(0, 0, 0)][0] - 1.0) < 1e-9
    assert abs(entries[(0, 1, 1)][0]) < 1e-9
    assert abs(entries[(1, 1, 1)][0] - 1.0) < 1e-9


def test_run_sample_counts_and_tv():
    table = run(parse_config(json.dumps(SAMPLE)))
    row = dict(zip(table.columns, table.rows[0]))
    counts = [v for k, v in row.items() if k.startswith("count_")]
    assert sum(counts) == SAMPLE["n_samples"]
    assert row["tv_distance"] < 0.05


def test_emit_csv_shapes(tmp_path):
    table = ResultTable(
        columns=("a", "b"), rows=((1.0, 2.0), (3.0, 0.1234567890123456)), metadata={"kind": "x"}
    )
    text = render_csv(table)
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert len(lines) == 4 and lines[-1] == ""  # header + 2 rows + trailing newline
    assert "0.123456789012" in lines[2]  # 12 significant digits
    empty = ResultTable(columns=("a", "b"), rows=(), metadata={})
    assert render_csv(empty) == "a,b\n"
    out = tmp_path / "t.csv"
    emit(table, "csv", out)
    assert out.read_bytes().endswith(b"\n")
    assert b"\r" not in out.read_bytes()


def test_emit_json_round_trip():
    table = run(parse_config(json.dumps(PASTED)))
    text = render_json(table)
    parsed = json.loads(text)
    for k, name in enumerate(table.columns):
        assert parsed["columns"][name] == [row[k] for row in table.rows]
    assert parsed["metadata"]["kind"] == "chsh-pasted"


def test_main_writes_deterministic_bytes(tmp_path):
    config = write_config(tmp_path, SAMPLE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    json1, json2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(config), "--format", "json", "--out", str(json1)]) == 0
    assert main(["run", "--config", str(config), "--format", "json", "--out", str(json2)]) == 0
    assert json1.read_bytes() == json2.read_bytes()


def test_cli_subprocess_determinism(tmp_path):
    config = write_config(tmp_path, dict(SAMPLE, n_samples=5000))
    cmd = [sys.executable, "-m", "qmeas", "run", "--config", str(config)]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    # pytest's error::RuntimeWarning filter does not reach a child process
    assert first.stderr == second.stderr == b""


def test_main_validate_subcommand(tmp_path, capsys):
    config = write_config(tmp_path, WHICHWAY)
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "ok: whichway\n"


def test_main_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, dict(WHICHWAY, gamma=2.0), name="bad.json")
    assert main(["run", "--config", str(bad)]) == 1
    assert "gamma" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    # domain failure: sweep slack floor impossible to satisfy
    sweep = write_config(tmp_path, {"kind": "martens-sweep", "n_points": 5}, name="sweep.json")
    assert main(["run", "--config", sweep.as_posix(), "--tol", "-1.0"]) == 2
    assert "slack" in capsys.readouterr().err


def test_main_run_stdout(tmp_path, capsys):
    config = write_config(tmp_path, WHICHWAY)
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p_pp,p_pm,p_mp,p_mm,")
    assert len(out.rstrip("\n").split("\n")) == 2


def shipped(name, drop=(), **changes):
    """JSON text of a shipped config with fields dropped or changed."""
    config = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    return json.dumps({k: v for k, v in dict(config, **changes).items() if k not in drop})


def run_main(tmp_path, capsys, text, *argv):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    code = main([*(argv or ["run"]), "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_output_matches_recorded_digest(path, fmt, capsys):
    assert main(["run", "--config", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[f"shipped/{path.stem}/{fmt}"]


def test_every_kind_has_a_shipped_config_that_validates(capsys):
    kinds = []
    for path in SHIPPED:
        assert main(["validate", "--config", str(path)]) == 0
        kinds.append(capsys.readouterr().out.removeprefix("ok: ").rstrip("\n"))
    assert sorted(kinds) == sorted(KINDS)


HAMILTONIAN = [[[0, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0, 0]],
               [[0, 0], [0, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]]
KIND_LIST = "whichway, martens-sweep, epr-bell, chsh-pasted, premeasure, sample"

# Exit code and exact stderr of `qmeas run` on malformed configs, as the CLI
# reported them before its kinds were folded into one table, except that a
# non-string kind is now reported by its type rather than echoed.
ERROR_CONTRACT = [
    ("malformed-json", '{"kind": "whichway", ', [], 1,
     "config: malformed JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 22 (char 21))"),
    ("top-level-list", "[]", [], 1, "config: top level must be a JSON object"),
    ("missing-kind", '{"theta_deg": 0}', [], 1, "kind: required field missing"),
    ("unknown-kind", shipped("whichway", kind="teleport"), [], 1,
     f"kind: unknown kind 'teleport', expected one of {KIND_LIST}"),
    ("non-string-kind", shipped("whichway", kind=["whichway"]), [], 1,
     "kind: expected a string, got list"),
    ("missing-field", shipped("whichway", drop=["gamma"]), [], 1,
     "gamma: required field missing"),
    ("null-integer", shipped("sample", n_samples=None), [], 1,
     "n_samples: expected an integer, got NoneType"),
    ("bool-as-number", shipped("whichway", theta_deg=True), [], 1,
     "theta_deg: expected a number, got bool"),
    ("unknown-field", shipped("whichway", gama=0.5), [], 1, "gama: unknown field"),
    ("non-square-matrix",
     shipped("premeasure_cnot", rho_apparatus=[[[1, 0], [0, 0]], [[0, 0]]]), [], 1,
     "rho_apparatus[1]: matrix must be square, rows of [re, im] pairs"),
    ("bad-complex-entry",
     shipped("premeasure_cnot", rho_object=[[[0.5, 0, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]),
     [], 1, "rho_object[0][0]: complex entries are [re, im] number pairs"),
    ("wrong-state-length", shipped("chsh_pasted", state=[[1, 0], [0, 0]]), [], 1,
     "state: state vector must have 4 entries, got 2"),
    ("unitary-and-hamiltonian", shipped("premeasure_cnot", hamiltonian=HAMILTONIAN, time=1.0),
     [], 1, "unitary: provide exactly one of 'unitary' or 'hamiltonian'+'time'"),
    ("hamiltonian-without-time",
     shipped("premeasure_cnot", drop=["unitary"], hamiltonian=HAMILTONIAN), [], 1,
     "time: required with 'hamiltonian'"),
    ("rho-object-dimension", shipped("premeasure_cnot", rho_object=[[[1, 0]]]), [], 1,
     "rho_object: dimension 1 != dim_object 2"),
    ("gamma-out-of-range", shipped("epr_bell", gamma2=1.5), [], 1,
     "gamma2: must lie in [0, 1], got 1.5"),
    ("bound-fails", shipped("epr_bell"), ["--tol", "-1"], 2,
     "single-setup CHSH 1.20710678119 exceeds the classical bound 2"),
    ("consistency-fails", shipped("premeasure_cnot"), ["--tol", "-1"], 2,
     "pointer consistency residual 0.000e+00 >= -1e+00"),
]


@pytest.mark.parametrize(
    "text,args,code,message", [c[1:] for c in ERROR_CONTRACT], ids=[c[0] for c in ERROR_CONTRACT]
)
def test_main_error_contract(tmp_path, capsys, text, args, code, message):
    prefix = "config error" if code == 1 else "domain error"
    assert run_main(tmp_path, capsys, text, "run", *args) == (code, "", f"{prefix}: {message}\n")


NAN, INF = float("nan"), float("inf")
CNOT_UNITARY = json.loads(shipped("premeasure_cnot"))["unitary"]


@pytest.mark.parametrize(
    "text,field",
    [
        pytest.param(shipped("whichway", theta_deg=NAN), "theta_deg", id="nan-angle"),
        pytest.param(shipped("chsh_pasted", theta1_deg=INF), "theta1_deg", id="inf-angle"),
        pytest.param(shipped("whichway", gamma=NAN), "gamma", id="nan-gamma"),
        pytest.param(shipped("sample", gamma1=-INF), "gamma1", id="minus-inf-gamma"),
        pytest.param(shipped("entropy_sweep", theta_prime_deg=10**400), "theta_prime_deg",
                     id="integer-beyond-float-range"),
        pytest.param(shipped("whichway", state=[[NAN, 0], [0, 0]]), "state[0]", id="nan-state"),
        pytest.param(shipped("epr_bell", state=[[1, 0], [0, 0], [0, 0], [1, 10**400]]),
                     "state[3]", id="huge-imaginary-part"),
        pytest.param(shipped("premeasure_cnot", unitary=[[[1, INF]] + CNOT_UNITARY[0][1:]]
                             + CNOT_UNITARY[1:]), "unitary[0][0]", id="inf-matrix-entry"),
        pytest.param(shipped("premeasure_cnot", drop=["unitary"], hamiltonian=HAMILTONIAN,
                             time=NAN), "time", id="nan-time"),
    ],
)
def test_main_rejects_non_finite_numbers(tmp_path, capsys, text, field):
    expected = (1, "", f"config error: {field}: expected a finite number\n")
    assert run_main(tmp_path, capsys, text, "validate") == expected
    assert run_main(tmp_path, capsys, text, "run") == expected


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name", ["premeasure_cnot", "entropy_sweep"])
def test_main_rejects_non_finite_tol(capsys, name, tol):
    assert main(["run", "--config", str(ROOT / "configs" / f"{name}.json"), f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: --tol: expected a finite number\n")


@pytest.mark.parametrize("name", ["entropy_sweep", "epr_bell", "premeasure_cnot"])
def test_run_rejects_nan_tol_for_every_asserting_kind(name):
    config = parse_config((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    with pytest.raises(ConfigError, match="^--tol: expected a finite number$"):
        run(config, tol=float("nan"))


@pytest.mark.parametrize(
    "name,kind", [("whichway", "whichway"), ("chsh_pasted", "chsh-pasted"), ("sample", "sample")]
)
def test_main_refuses_tol_for_a_kind_that_asserts_no_inequality(capsys, name, kind):
    assert main(["run", "--config", str(ROOT / "configs" / f"{name}.json"), "--tol", "-1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"config error: --tol: kind {kind} asserts no inequality\n"
    )


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("time", [1.0, "garbage", [1, 2]], ids=["number", "string", "list"])
def test_main_refuses_time_beside_unitary(tmp_path, capsys, command, time):
    text = shipped("premeasure_cnot", time=time)
    expected = (1, "", "config error: time: only with 'hamiltonian'\n")
    assert run_main(tmp_path, capsys, text, command) == expected


def test_main_reports_an_inconsistent_premeasurement_model_as_domain_error(monkeypatch, capsys):
    halve_induced_effects(monkeypatch)
    assert main(["run", "--config", str(ROOT / "configs" / "premeasure_cnot.json")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "domain error: induced effects violate POVM axioms: "
                                            "effects do not sum to identity (closure residual 5.000e-01)\n")


@pytest.mark.parametrize("config", ["whichway.json", "entropy_sweep.json"])
def test_main_reports_recovery_non_convergence_as_solver_error(monkeypatch, capsys, config):
    # the sweep recovers through the private core: the cap must reach it too
    monkeypatch.setattr(nonideality, "MAX_SOLVER_ITERATIONS", 0)
    assert main(["run", "--config", str(ROOT / "configs" / config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: recovery did not converge")


def pairs(m):
    """A matrix as rows of [re, im] pairs, the config encoding."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def identity_premeasure(dim_o, dim_a):
    """A premeasure config with the identity interaction: valid for any dimensions."""
    basis = np.eye(dim_a)
    return {
        "kind": "premeasure",
        "dim_object": dim_o,
        "dim_apparatus": dim_a,
        "unitary": pairs(np.eye(dim_o * dim_a)),
        "rho_apparatus": pairs(np.diag(basis[0])),
        "pointer": [pairs(np.diag(basis[k])) for k in range(dim_a)],
    }


# Limits are probed through parsing only, which rejects before anything is
# allocated: an over-limit config is never run.
@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(json.dumps(identity_premeasure(1, 2)), "dim_object: must be >= 2, got 1",
                     id="dim-object-1"),
        pytest.param(json.dumps(identity_premeasure(2, 1)), "dim_apparatus: must be >= 2, got 1",
                     id="dim-apparatus-1"),
        pytest.param(json.dumps(identity_premeasure(3, 6)),
                     "dim_apparatus: dim_object * dim_apparatus must be <= 16, got 18",
                     id="joint-dim-18"),
        pytest.param(shipped("sample", n_samples=100_000_001),
                     "n_samples: must be <= 100000000, got 100000001", id="n-samples"),
        pytest.param(shipped("entropy_sweep", n_points=100_001),
                     "n_points: must be <= 100000, got 100001", id="n-points"),
    ],
)
def test_validate_rejects_over_limit_configs(tmp_path, capsys, text, message):
    assert run_main(tmp_path, capsys, text, "validate") == (1, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(identity_premeasure(2, 2)),
        json.dumps(identity_premeasure(4, 4)),
        json.dumps(identity_premeasure(2, 8)),
        shipped("sample", n_samples=100_000_000),
        shipped("entropy_sweep", n_points=100_000),
    ],
    ids=["dims-2x2", "dims-4x4", "dims-2x8", "n-samples", "n-points"],
)
def test_parse_accepts_configs_at_the_limits(text):
    parse_config(text)


def test_main_reports_undecodable_config_as_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"kind": "\xff"}')
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: ")


def test_main_reports_nan_kind_by_type(tmp_path, capsys):
    code, out, err = run_main(tmp_path, capsys, shipped("whichway", kind=NAN), "validate")
    assert (code, out, err) == (1, "", "config error: kind: expected a string, got float\n")
    assert "nan" not in err.lower()


def test_main_reports_too_deep_nesting_as_malformed_json(tmp_path, capsys):
    text = '{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}"
    code, out, err = run_main(tmp_path, capsys, text, "validate")
    assert (code, out) == (1, "")
    assert err.startswith("config error: config: malformed JSON (maximum recursion depth")


def test_parse_rejects_integer_literal_too_long_to_convert():
    with pytest.raises(ConfigError, match="config: malformed JSON"):
        parse_config('{"kind": "sample", "seed": ' + "9" * 5000 + "}")


def hamiltonian_premeasure(dim_o, dim_a, scale=1.0):
    """A premeasure config driven by a seeded random Hamiltonian H * scale for time 1 / scale,
    the same physics at every scale."""
    rng = np.random.default_rng([dim_o, dim_a])
    g = rng.normal(size=(dim_o * dim_a,) * 2) + 1j * rng.normal(size=(dim_o * dim_a,) * 2)
    config = identity_premeasure(dim_o, dim_a)
    del config["unitary"]
    return dict(config, hamiltonian=pairs(0.5 * (g + g.conj().T) * scale), time=1.0 / scale)


def _csv_values(out):
    return np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_premeasure_output_is_invariant_under_hamiltonian_rescaling(tmp_path, capsys, scale):
    # (H * s, t / s) leaves the physics unchanged.  At d = 8 and s >= 1e4 the
    # eigensolver used to return NaN and the run failed with a config error.
    code, base, _ = run_main(tmp_path, capsys, json.dumps(hamiltonian_premeasure(2, 4)))
    assert code == 0
    code, out, err = run_main(tmp_path, capsys, json.dumps(hamiltonian_premeasure(2, 4, scale)))
    assert (code, err) == (0, "")
    assert np.abs(_csv_values(out) - _csv_values(base)).max() <= 1e-9


def test_main_reports_eigensolver_non_convergence_as_solver_error(tmp_path, capsys, monkeypatch):
    # herm_eig used to return whatever its last sweep left, silently
    monkeypatch.setattr(operators, "_JACOBI_MAX_SWEEPS", 1)
    code, out, err = run_main(tmp_path, capsys, json.dumps(hamiltonian_premeasure(2, 4)))
    assert (code, out) == (3, "")
    assert err.startswith("solver error: Jacobi eigensolver did not converge within 1 sweeps")
    assert "nan" not in err.lower()


def test_main_reports_a_failed_density_operator_eigh_as_solver_error(monkeypatch, capsys):
    # numpy's LinAlgError is a plain ValueError, which main used to let through as a traceback
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["run", "--config", str(ROOT / "configs" / "epr_bell.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "solver error: LAPACK eigh failed on a density operator: Eigenvalues did not converge\n"
    )


def test_main_keeps_the_sampler_consistency_check_a_domain_error(monkeypatch, capsys):
    # a plain RuntimeError, not a SolverError: it exits 2, not 3
    def first_outcome_only(probabilities, n_samples, seed):
        counts = np.zeros(np.shape(probabilities), dtype=np.intp)
        counts.flat[0] = n_samples
        return counts

    monkeypatch.setattr(experiments, "sample_counts", first_outcome_only)
    assert main(["run", "--config", str(ROOT / "configs" / "sample.json")]) == 2
    assert capsys.readouterr().err.startswith("domain error: sampled frequencies off by TV")


def test_premeasure_with_unitary_accepted_at_1e_9_runs(tmp_path, capsys):
    # The unitarity residual is 9.8e-10, inside the model's 1e-9 check, but the
    # joint state's trace is off by 1.5e-8: it used to be re-validated as a
    # density operator and the run failed with a domain error.
    plus = np.outer(np.full(4, 0.5), np.full(4, 0.5))
    config = dict(
        identity_premeasure(4, 4),
        unitary=pairs(np.eye(16) + 4.9e-10 * (np.ones((16, 16)) - np.eye(16))),
        rho_apparatus=pairs(plus),
        rho_object=pairs(plus),
    )
    code, out, err = run_main(tmp_path, capsys, json.dumps(config))
    assert (code, err) == (0, "")
    assert _csv_values(out)[:, -1].max() <= 1e-15


HUGE_SKEW = np.array([[0, 1.7e308], [-1.7e308, 0]])
X_HUGE = 1e200 * (1 + 1j)
HUGE_PRODUCTS = [
    ("rho-apparatus", dict(rho_apparatus=pairs(HUGE_SKEW)),
     "rho_apparatus: density operator must be Hermitian (residual 1.798e+308 > 1e-09)"),
    ("hamiltonian", dict(hamiltonian=pairs(np.kron(np.eye(2), HUGE_SKEW)), time=1.0),
     "unitary: eigensolver input must be Hermitian (residual 1.798e+308 > 1e-09)"),
    ("pointer", dict(pointer=[pairs([[0.5, X_HUGE], [np.conj(X_HUGE), 0.5]]),
                              pairs([[0.5, -X_HUGE], [-np.conj(X_HUGE), 0.5]])]),
     "pointer: projector 0 is not idempotent (residual 1.798e+308)"),
    ("unitary", dict(unitary=pairs(1e200 * np.eye(4))),
     "unitary: joint operator is not unitary (residual 1.798e+308)"),
]


@pytest.mark.parametrize(
    "changes,message", [c[1:] for c in HUGE_PRODUCTS], ids=[c[0] for c in HUGE_PRODUCTS]
)
def test_premeasure_residuals_near_the_float_maximum_print_finite(
    tmp_path, capsys, changes, message
):
    # These printed "residual inf", or hid an overflowing product behind
    # "operator entries must be finite", with RuntimeWarnings.
    config = identity_premeasure(2, 2)
    if "hamiltonian" in changes:
        del config["unitary"]
    text = json.dumps(dict(config, **changes))
    assert run_main(tmp_path, capsys, text) == (1, "", f"config error: {message}\n")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_oversized_hamiltonian_is_rejected_before_any_eigensolve(
    tmp_path, capsys, monkeypatch, command
):
    # A 24 x 24 Hamiltonian in a 2 x 2 config went through the Jacobi solver
    # first (seconds at 64 x 64, growing as d^4) and was rejected only as a unitary.
    calls = []
    original = premeasurement.exp_hermitian_generator

    def counted(h, t):
        calls.append(h.dim)
        return original(h, t)

    monkeypatch.setattr(premeasurement, "exp_hermitian_generator", counted)
    rng = np.random.default_rng(24)
    g = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    config = dict(hamiltonian_premeasure(2, 2), hamiltonian=pairs(g + g.conj().T))
    assert run_main(tmp_path, capsys, json.dumps(config), command) == (
        1, "", "config error: unitary: hamiltonian dimension 24 != 2 * 2\n"
    )
    assert calls == []


def test_pointer_outside_dimensions_2_to_16_is_named(tmp_path, capsys):
    # a 20 x 20 pointer in a 2 x 2 config was multiplied out pairwise first, and
    # then rejected only as "unitary: pointer PVM dimension 20 != 2"
    config = dict(identity_premeasure(2, 2), pointer=[pairs(np.eye(20))])
    assert run_main(tmp_path, capsys, json.dumps(config)) == (
        1, "", "config error: pointer: PVM dimension 20 outside 2..16\n"
    )


def test_hamiltonian_phase_beyond_the_float_range_is_named(tmp_path, capsys):
    # every entry is finite, yet H t overflows: this printed two RuntimeWarnings
    # and then "unitary: operator entries must be finite (no NaN/Inf)"
    config = dict(hamiltonian_premeasure(2, 2, 1e10), time=1e300)
    assert run_main(tmp_path, capsys, json.dumps(config)) == (
        1, "", "config error: unitary: eigenvalue * time leaves the float range\n"
    )


@pytest.mark.parametrize("field", ["theta_deg", "theta_prime_deg"])
def test_whichway_runs_at_a_large_finite_angle(tmp_path, capsys, field):
    # this exited 2: "domain error: projectors 0 and 1 are not orthogonal
    # (residual 1.349e-08)", because theta + pi / 2 rounded at ulp(theta)
    code, out, err = run_main(tmp_path, capsys, shipped("whichway", **{field: 1e10}))
    assert (code, err) == (0, "")
    (row,) = _csv_values(out)
    gamma = json.loads(shipped("whichway"))["gamma"]
    # lambda_pp..mm and mu_pp..mm are the closed-form smearings at any angle pair
    assert np.abs(row[4:12] - [gamma, 0, 1 - gamma, 1, 1 - gamma, 0, gamma, 1]).max() < 1e-7


def test_subnormal_angle_prints_what_angle_zero_prints(tmp_path, capsys):
    # A subnormal angle leaves subnormal off-diagonal entries in the d = 4 cells,
    # which the eigensolver used to rotate on (RuntimeWarnings, NaN eigenvalues).
    code, out, err = run_main(tmp_path, capsys, shipped("epr_bell", theta1_prime_deg=1e-308))
    assert (code, err) == (0, "")
    assert out == run_main(tmp_path, capsys, shipped("epr_bell", theta1_prime_deg=0))[1]


FUZZ_BASES = [json.loads(path.read_text(encoding="utf-8")) for path in SHIPPED] + [
    hamiltonian_premeasure(2, 2)
]
# Fields whose size sets the work a run allocates: kept far below the ceilings.
FUZZ_CAPS = {"n_samples": 10_000, "n_points": 50}
SUBNORMALS = [5e-324, 1e-310, 1e-308, -1e-308]
# No "n" in generated text, so a "nan" in stderr can only come from the program.
json_scalars = (
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats()
    | st.text("ab_-+", max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("ab_", max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _scaled(value, factor):
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * factor
    return value


@st.composite
def fuzzed_configs(draw):
    config = dict(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(config) or ["kind"]))
        mutation = draw(st.sampled_from(["drop", "replace", "scale", "subnormal"]))
        if mutation == "drop":
            config.pop(key, None)
        elif mutation == "replace":
            config[key] = draw(json_values)
        elif mutation == "scale":
            config[key] = _scaled(config.get(key), 10.0 ** draw(st.integers(-8, 8)))
        else:
            angles = [k for k in sorted(config) if k.endswith("_deg")] or [key]
            config[draw(st.sampled_from(angles))] = draw(st.sampled_from(SUBNORMALS))
    for key, cap in FUZZ_CAPS.items():
        value = config.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value > cap:
            config[key] = cap
    return config


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fuzzed_configs())
@example(dict(json.loads(shipped("epr_bell")), theta1_prime_deg=1e-308))
def test_main_survives_mutated_configs(tmp_path, capsys, config):
    code, _, err = run_main(tmp_path, capsys, json.dumps(config))
    assert code in (0, 1, 2, 3)
    assert "nan" not in err.lower()


@pytest.mark.parametrize("k", [600, -600])
def test_whichway_state_scale_is_irrelevant(tmp_path, capsys, k):
    # at 2^600 the state's norm overflowed and at 2^-600 it underflowed to zero,
    # so the run failed with "config error: state: pure state vector must be nonzero and finite"
    unit = run_main(tmp_path, capsys, shipped("whichway", state=[[1, 0], [1, 0]]))
    scaled = run_main(tmp_path, capsys, shipped("whichway", state=[[2.0**k, 0], [2.0**k, 0]]))
    assert unit[0] == 0 and scaled == unit


def test_epr_bell_run_builds_its_grid_once(monkeypatch, capsys):
    # the run used to build the grid and its distribution a second time
    # inside chsh_single_setup
    calls = []
    original = experiments.eprbell_povm

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(experiments, "eprbell_povm", counted)
    monkeypatch.setattr(cli, "eprbell_povm", counted)
    assert main(["run", "--config", str(ROOT / "configs" / "epr_bell.json")]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1


def test_whichway_run_builds_its_grid_once(monkeypatch, capsys):
    # the run used to build and validate the grid a second time inside
    # whichway_nonideality
    calls = []
    original = experiments.whichway_povm

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(experiments, "whichway_povm", counted)
    monkeypatch.setattr(cli, "whichway_povm", counted)
    assert main(["run", "--config", str(ROOT / "configs" / "whichway.json")]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1


def test_main_rejects_an_empty_state(tmp_path, capsys):
    assert run_main(tmp_path, capsys, shipped("whichway", state=[])) == (
        1, "", "config error: state: expected a nonempty list of [re, im] pairs\n"
    )


def test_emit_rejects_an_unknown_format():
    with pytest.raises(ValidationError) as exc:
        emit(ResultTable(("a",), ((1.0,),), {}), "xml")
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "format must be \"csv\" or \"json\", got 'xml'"


def test_emit_names_a_path_it_cannot_write(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError) as exc:
        emit(ResultTable(("a",), ((1.0,),), {}), "csv", path)
    assert type(exc.value) is OSError
    assert str(exc.value) == (
        f"cannot write output to {path}: [Errno 2] No such file or directory: '{path}'"
    )


def _refuse_eigh(*args, **kwargs):
    raise AssertionError("eigh called before the field sizes were compared")


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("rho_apparatus", pairs(np.eye(3) / 3), "rho_apparatus: dimension 3 != dim_apparatus 2"),
        ("rho_object", pairs(np.eye(3) / 3), "rho_object: dimension 3 != dim_object 2"),
        ("pointer", [pairs(np.diag(row)) for row in np.eye(4)],
         "pointer: dimension 4 != dim_apparatus 2"),
    ],
    ids=["rho-apparatus", "rho-object", "pointer"],
)
def test_premeasure_names_a_field_of_the_wrong_size_before_any_eigensolve(
    tmp_path, capsys, monkeypatch, field, value, message
):
    # The first two were reported as "unitary: apparatus state dimension 3 != 2"
    # and "unitary: pointer PVM dimension 4 != 2", and every density operator
    # went through eigh before its size was compared: 9.3 s for a 1500 x 1500
    # rho_apparatus.
    monkeypatch.setattr(np.linalg, "eigh", _refuse_eigh)
    config = dict(identity_premeasure(2, 2), **{field: value})
    assert run_main(tmp_path, capsys, json.dumps(config), "validate") == (
        1, "", f"config error: {message}\n"
    )


def test_premeasure_pointer_holds_at_most_dim_apparatus_projectors(tmp_path, capsys):
    config = identity_premeasure(2, 2)
    config["pointer"].append(pairs(np.zeros((2, 2))))
    assert run_main(tmp_path, capsys, json.dumps(config)) == (
        1, "", "config error: pointer: PVM has 3 projectors, more than its dimension 2\n"
    )


def _block_hamiltonian(block):
    """A 2 x 2 premeasure config whose 4 x 4 Hamiltonian holds `block` top left."""
    h = np.zeros((4, 4))
    h[:2, :2] = block
    return json.dumps(dict(hamiltonian_premeasure(2, 2), hamiltonian=pairs(h)))


def test_premeasure_hamiltonian_near_the_float_maximum_runs_without_warnings(tmp_path, capsys):
    # the Jacobi angle's atan2(2 r, gap) overflowed: exit 0 with two RuntimeWarnings
    text = _block_hamiltonian([[1e308, 1e308], [1e308, -1e308]])
    code, out, err = run_main(tmp_path, capsys, text)
    assert (code, err) == (0, "")
    assert out.startswith("effect,row,col,re,im,consistency_residual\n")


def test_premeasure_hamiltonian_that_overflows_the_eigensolver_is_a_solver_error(tmp_path, capsys):
    assert run_main(tmp_path, capsys, _block_hamiltonian([[0, 1.7e308], [1.7e308, 0]])) == (
        3, "", "solver error: Jacobi eigensolver overflowed after 0 sweeps\n"
    )


def _state_vector(n):
    return [[1, 0]] + [[0, 0]] * (n - 1)


def _premeasure_field(dim_o, dim_a, field, value, base=identity_premeasure):
    return json.dumps(dict(base(dim_o, dim_a), **{field: pairs(value)}))


def _pointer(dim_a, n):
    """A premeasure config whose pointer holds the dim_a basis projectors, then zeros, n in all."""
    basis = [np.diag(row) for row in np.eye(dim_a)] + [np.zeros((dim_a, dim_a))] * (n - dim_a)
    return json.dumps(dict(identity_premeasure(2, dim_a), pointer=[pairs(p) for p in basis[:n]]))


_HALF = premeasurement.MAX_JOINT_DIM // 2  # the largest factor dimension beside a qubit
# Every list-valued or count-valued config field: its documented limit, and the
# config text that sets the field to n.  A sized field missing here fails
# `test_every_config_field_is_scalar_or_has_a_limit`.
SIZED_FIELDS = {
    ("whichway", "state"): (2, lambda n: shipped("whichway", state=_state_vector(n))),
    ("martens-sweep", "n_points"): (cli.MAX_POINTS, lambda n: shipped("entropy_sweep", n_points=n)),
    ("epr-bell", "state"): (4, lambda n: shipped("epr_bell", state=_state_vector(n))),
    ("chsh-pasted", "state"): (4, lambda n: shipped("chsh_pasted", state=_state_vector(n))),
    ("sample", "state"): (4, lambda n: shipped("sample", state=_state_vector(n))),
    ("sample", "n_samples"): (cli.MAX_SAMPLES, lambda n: shipped("sample", n_samples=n)),
    ("premeasure", "dim_object"): (_HALF, lambda n: json.dumps(identity_premeasure(n, 2))),
    ("premeasure", "dim_apparatus"): (_HALF, lambda n: json.dumps(identity_premeasure(2, n))),
    ("premeasure", "unitary"): (
        premeasurement.MAX_JOINT_DIM, lambda n: _premeasure_field(4, 4, "unitary", np.eye(n))
    ),
    ("premeasure", "hamiltonian"): (
        premeasurement.MAX_JOINT_DIM,
        lambda n: _premeasure_field(4, 4, "hamiltonian", np.zeros((n, n)), hamiltonian_premeasure),
    ),
    ("premeasure", "rho_apparatus"): (
        _HALF, lambda n: _premeasure_field(2, _HALF, "rho_apparatus", np.eye(n) / n)
    ),
    ("premeasure", "rho_object"): (
        _HALF, lambda n: _premeasure_field(_HALF, 2, "rho_object", np.eye(n) / n)
    ),
    ("premeasure", "pointer"): (_HALF, lambda n: _pointer(_HALF, n)),
}
# Fields whose value sets no size: one number each.
SCALAR_FIELDS = {
    "theta_deg", "theta_prime_deg", "gamma", "theta1_deg", "theta1_prime_deg", "theta2_deg",
    "theta2_prime_deg", "gamma1", "gamma2", "time", "seed",
}
# A run at n_points = MAX_POINTS takes over 20 s, so that limit is checked by
# `validate` only; every other field runs at its limit, the slowest (n_samples)
# in about 3 s.
VALIDATE_ONLY = {("martens-sweep", "n_points")}
LIMIT_PEAK = 2**20  # traced allocation peak of one run at a limit, in bytes (0.28 MiB measured)


def test_every_config_field_is_scalar_or_has_a_limit():
    for kind, spec in KINDS.items():
        for field in spec.fields:
            assert (kind, field) in SIZED_FIELDS or field in SCALAR_FIELDS, (kind, field)
    assert {kind for kind, _ in SIZED_FIELDS} <= set(KINDS)
    assert all(field in KINDS[kind].fields for kind, field in SIZED_FIELDS)


@pytest.mark.parametrize(
    "kind, field", sorted(SIZED_FIELDS), ids=[f"{k}/{f}" for k, f in sorted(SIZED_FIELDS)]
)
def test_each_sized_field_runs_at_its_limit_and_exits_1_beyond(tmp_path, capsys, kind, field):
    limit, config = SIZED_FIELDS[(kind, field)]
    for command in ("validate", "run"):
        code, out, err = run_main(tmp_path, capsys, config(limit + 1), command)
        assert (code, out) == (1, ""), (command, err)
        assert err.startswith("config error: ")
    assert run_main(tmp_path, capsys, config(limit), "validate") == (0, f"ok: {kind}\n", "")
    if (kind, field) in VALIDATE_ONLY:
        return
    tracemalloc.start()
    try:
        code, _, err = run_main(tmp_path, capsys, config(limit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < LIMIT_PEAK, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
def test_each_scalar_field_rejects_a_list(tmp_path, capsys, field):
    kind = next(kind for kind, spec in KINDS.items() if field in spec.fields)
    base = {"whichway": shipped("whichway"), "martens-sweep": shipped("entropy_sweep"),
            "epr-bell": shipped("epr_bell"), "chsh-pasted": shipped("chsh_pasted"),
            "premeasure": json.dumps(hamiltonian_premeasure(2, 2)), "sample": shipped("sample")}
    config = dict(json.loads(base[kind]), **{field: [1, 2]})
    code, out, err = run_main(tmp_path, capsys, json.dumps(config), "validate")
    assert (code, out) == (1, "")
    assert err.startswith(f"config error: {field}: expected ")
